//! A compiled flat FIB for the data-plane fast path.
//!
//! [`PrefixTrie`] stays the mutable source of truth (it is what
//! `install_route`/`remove_route` edit), but walking one `Box` node per bit
//! is ~32 dependent loads per packet. A [`FlatFib`] is compiled *from* a
//! trie into a leaf-pushed multibit trie of stride 8: one pool of 256-slot
//! chunks, of which chunk 0 is the root, indexed by the address's top
//! byte, and each next byte indexes a chunk one level down. A slot holds
//! the entry of the longest prefix covering it, or a chunk when a longer
//! prefix splits it, so a chunk exists only where a longer prefix needs one
//! and the table grows with its prefixes, not with the address space. A
//! lookup stops at the first leaf: a /8 resolves in one load, a /24 in
//! three, a /32 in four.
//!
//! Only IPv4 is compiled, because the simulated data plane forwards only
//! IPv4 packets. IPv6 prefixes stay in the trie, where the control plane
//! and the table counts see them; marking one dirty changes nothing here.
//!
//! Synchronisation is generation-based and lazy. Mutators call
//! [`FlatFib::mark_dirty`] with the changed prefix; nothing is recompiled
//! until [`FlatFib::sync`] is called with the authoritative trie (typically
//! right before a batch of lookups). A sync with few dirty prefixes
//! recomputes only the slots they cover, at the level that holds them (a
//! /8 slot, /16 slots, or /24 slots for anything longer), then folds every
//! chunk left holding one leaf back into its parent slot; above
//! [`CHURN_REBUILD_THRESHOLD`], or when a dirty prefix is shorter than /8,
//! it rebuilds from scratch, which is cheaper than many scattered patches.
//! Every sync that changed anything bumps [`FlatFib::generation`], which
//! downstream flow caches compare to invalidate themselves.

use crate::trie::PrefixTrie;
use crate::types::{Afi, Prefix};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

/// Above this many dirty prefixes a sync abandons per-prefix patching
/// and rebuilds the whole table; bulk RIB swings (session reset, initial
/// convergence) touch thousands of prefixes and a linear rebuild is cheaper
/// than that many scattered subtree recomputations.
pub const CHURN_REBUILD_THRESHOLD: usize = 64;

/// A dirty prefix shorter than this forces a rebuild: it covers more than
/// one root slot, and the root is the whole table.
const MIN_PATCH_LEN: u8 = 8;

/// Slot encoding.
///
/// * `0` — empty, no route covers the slot.
/// * MSB set — low 31 bits index the chunk one level down (a longer prefix
///   lives under this slot).
/// * otherwise — `entry index + 1` into [`FlatFib::entries`].
const CHUNK_FLAG: u32 = 1 << 31;

/// One trie node: a slot per value of the address byte its level reads.
type Chunk = [u32; 256];

/// The address byte a level-`level` chunk is indexed by (the root is
/// level 0 and reads the top byte).
#[inline]
fn byte(a: u32, level: usize) -> usize {
    (a >> (24 - 8 * level)) as u8 as usize
}

/// A compiled, immutable-between-syncs longest-prefix-match table.
///
/// Values are *entry indexes*: [`FlatFib::lookup`] returns the matched
/// prefix plus the `u32` value stored in the source trie (the trie must
/// hold `u32` values — in the mux these are next-hop/delivery codes).
pub struct FlatFib {
    /// The trie's nodes. Chunk 0 is the root, indexed by `addr >> 24`.
    chunks: Vec<Chunk>,
    /// Chunks a patch released, free for reuse.
    free_chunks: Vec<u32>,
    /// Matched `(prefix, value)` pairs; chunk slots store index+1.
    entries: Vec<(Prefix, u32)>,
    /// Each compiled prefix's entry code (index+1). A patch rewrites a
    /// prefix's entry in place, so the entry list stays as long as the
    /// prefix set however long churn runs between rebuilds.
    codes: HashMap<Prefix, u32>,
    /// Entry codes of prefixes that left the trie, free for reuse.
    free_codes: Vec<u32>,
    /// Dirty prefixes accumulated since the last sync. `None` means
    /// "too many — full rebuild" (the overflow state of the churn counter).
    dirty: Option<Vec<Prefix>>,
    /// Monotone counter bumped on every sync that changed the tables; flow
    /// caches key their validity on this.
    generation: u64,
    /// Set once the first sync/build has run; an unbuilt FlatFib must not
    /// serve lookups (it would claim "no route" for everything).
    built: bool,
    /// What the most recent effective sync did (None until one has run):
    /// `(rebuilt, prefixes_patched)`. A full rebuild reports 0 patched.
    last_sync: Option<(bool, u64)>,
    /// Cumulative full rebuilds across the FIB's lifetime.
    rebuilds: u64,
    /// Cumulative incremental patch rounds.
    patch_rounds: u64,
    /// Cumulative individual prefixes patched across all patch rounds.
    patched_prefixes: u64,
}

impl Default for FlatFib {
    fn default() -> Self {
        Self::new()
    }
}

impl FlatFib {
    /// An empty, unbuilt FIB: an empty root chunk and nothing else.
    pub fn new() -> Self {
        FlatFib {
            chunks: vec![[0; 256]],
            free_chunks: Vec::new(),
            entries: Vec::new(),
            codes: HashMap::new(),
            free_codes: Vec::new(),
            dirty: Some(Vec::new()),
            generation: 0,
            built: false,
            last_sync: None,
            rebuilds: 0,
            patch_rounds: 0,
            patched_prefixes: 0,
        }
    }

    /// Current generation; bumps exactly once per table-changing sync.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// What the most recent effective sync did: `(rebuilt, prefixes_patched)`.
    /// `None` until a sync has done work.
    pub fn last_sync(&self) -> Option<(bool, u64)> {
        self.last_sync
    }

    /// Lifetime sync totals: `(full rebuilds, patch rounds, prefixes patched)`.
    pub fn sync_totals(&self) -> (u64, u64, u64) {
        (self.rebuilds, self.patch_rounds, self.patched_prefixes)
    }

    /// Whether a sync would do any work.
    pub fn is_dirty(&self) -> bool {
        !self.built || self.dirty.as_ref().is_none_or(|d| !d.is_empty())
    }

    /// Record that `prefix`'s mapping in the source trie changed (installed,
    /// removed, or its value/delivery changed). Cheap; the actual recompile
    /// happens at the next [`sync`](Self::sync). An IPv6 prefix is not
    /// compiled, so marking one does nothing.
    pub fn mark_dirty(&mut self, prefix: &Prefix) {
        if prefix.afi() != Afi::Ipv4 {
            return;
        }
        if let Some(dirty) = &mut self.dirty {
            // Dedup before counting toward the threshold: sustained churn
            // concentrated on a few prefixes (one flapping session
            // re-dirtying the same /24 every update) must not masquerade as
            // a wide dirty set and force a wholesale rebuild. The crossover
            // to rebuild is then monotone in the number of DISTINCT dirty
            // prefixes. Linear scan is fine: the list is capped at
            // CHURN_REBUILD_THRESHOLD entries.
            if dirty.contains(prefix) {
                return;
            }
            if dirty.len() >= CHURN_REBUILD_THRESHOLD {
                self.dirty = None;
            } else {
                dirty.push(*prefix);
            }
        }
    }

    /// Bring the compiled tables up to date with `trie`. Returns `true` if
    /// anything was recompiled (and the generation bumped).
    pub fn sync(&mut self, trie: &PrefixTrie<u32>) -> bool {
        if !self.is_dirty() {
            return false;
        }
        // Decided before any patching, so a sync is either a patch round or
        // a rebuild, and is counted as what it was.
        match self.dirty.replace(Vec::new()) {
            Some(dirty) if self.built && dirty.iter().all(|p| p.len() >= MIN_PATCH_LEN) => {
                for p in &dirty {
                    self.patch(trie, p);
                }
                // A patch recomputed every slot a removed prefix covered,
                // so nothing refers to its entry any more.
                for p in dirty.iter().filter(|p| trie.get(p).is_none()) {
                    if let Some(code) = self.codes.remove(p) {
                        self.free_codes.push(code);
                    }
                }
                self.patch_rounds += 1;
                self.patched_prefixes += dirty.len() as u64;
                self.last_sync = Some((false, dirty.len() as u64));
            }
            _ => {
                self.rebuild(trie);
                self.rebuilds += 1;
                self.last_sync = Some((true, 0));
            }
        }
        self.built = true;
        self.generation += 1;
        true
    }

    /// Longest-prefix match. Must only be called on a built FIB (call
    /// [`sync`](Self::sync) first); an unbuilt FIB answers `None` for
    /// everything, which callers must not mistake for "no route".
    #[inline]
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, u32)> {
        match self.code(addr) {
            0 => None,
            code => Some(self.entries[(code - 1) as usize]),
        }
    }

    /// Does any route cover `addr`? Cheaper than [`lookup`](Self::lookup)
    /// on the hot path: slot codes are compared against zero without ever
    /// dereferencing the entry table. Same build requirement as `lookup`.
    #[inline]
    pub fn covers(&self, addr: Ipv4Addr) -> bool {
        self.code(addr) != 0
    }

    /// The entry code (index+1, 0 = no route) that `addr` resolves to:
    /// the first leaf on its path down from the root.
    #[inline]
    fn code(&self, addr: Ipv4Addr) -> u32 {
        let a = u32::from(addr);
        let mut slot = self.chunks[0][byte(a, 0)];
        for level in 1..4 {
            if slot & CHUNK_FLAG == 0 {
                break;
            }
            slot = self.chunks[(slot & !CHUNK_FLAG) as usize][byte(a, level)];
        }
        slot
    }

    /// Full rebuild from the trie's IPv4 prefixes.
    fn rebuild(&mut self, trie: &PrefixTrie<u32>) {
        self.chunks.clear();
        self.chunks.push([0; 256]);
        self.free_chunks.clear();
        self.entries.clear();
        self.codes.clear();
        self.free_codes.clear();
        let all = Prefix::V4 {
            addr: Ipv4Addr::UNSPECIFIED,
            len: 0,
        };
        for (p, v) in trie.iter_under(&all) {
            let e = self.intern(p, *v);
            self.paint(p, e);
        }
    }

    /// `p`'s entry code, holding value `v`: its existing entry, rewritten
    /// in place, or a new one.
    fn intern(&mut self, p: Prefix, v: u32) -> u32 {
        if let Some(&code) = self.codes.get(&p) {
            self.entries[(code - 1) as usize].1 = v;
            return code;
        }
        let code = match self.free_codes.pop() {
            Some(code) => {
                self.entries[(code - 1) as usize] = (p, v);
                code
            }
            None => {
                self.entries.push((p, v));
                self.entries.len() as u32
            }
        };
        self.codes.insert(p, code);
        code
    }

    /// Write entry code `e` over the slots prefix `p` covers, at the level
    /// that holds it: /0–/8 in the root, /9–/16 one level down, and so on.
    /// Callers paint in trie pre-order, every prefix before the prefixes it
    /// covers, so no slot inside the range holds a longer prefix or a chunk
    /// yet and a plain overwrite is right.
    fn paint(&mut self, p: Prefix, e: u32) {
        let Prefix::V4 { addr, len } = p else {
            unreachable!("only IPv4 prefixes are compiled");
        };
        let a = u32::from(addr);
        let level = usize::from(len.saturating_sub(1) / 8);
        let ci = self.descend(a, level)[level];
        let lo = byte(a, level);
        let n = 1 << (8 * (level + 1) - usize::from(len));
        self.chunks[ci][lo..lo + n].fill(e);
    }

    /// The chunks on `a`'s path from the root down to `level`, creating
    /// each missing one by copying its parent slot's value into all 256 of
    /// its slots.
    fn descend(&mut self, a: u32, level: usize) -> [usize; 4] {
        let mut path = [0; 4];
        for l in 0..level {
            let (ci, i) = (path[l], byte(a, l));
            let slot = self.chunks[ci][i];
            path[l + 1] = if slot & CHUNK_FLAG != 0 {
                (slot & !CHUNK_FLAG) as usize
            } else {
                let child = match self.free_chunks.pop() {
                    Some(c) => {
                        self.chunks[c as usize] = [slot; 256];
                        c as usize
                    }
                    None => {
                        self.chunks.push([slot; 256]);
                        self.chunks.len() - 1
                    }
                };
                self.chunks[ci][i] = CHUNK_FLAG | child as u32;
                child
            };
        }
        path
    }

    /// Recompute every slot covered by `changed` directly from the trie, at
    /// the level that holds it: its /8 slot, its /16 slots for a /9–/16,
    /// and its /24 slots for anything longer (for a /25–/32, the one /24
    /// that holds it). Then fold the chunks that are left holding one leaf.
    /// Order-independent and idempotent, so a batch of dirty prefixes can
    /// be patched in any order.
    fn patch(&mut self, trie: &PrefixTrie<u32>, changed: &Prefix) {
        let Prefix::V4 { addr, len } = *changed else {
            unreachable!("only IPv4 prefixes are marked dirty");
        };
        let a = u32::from(addr);
        let level = usize::from(len.min(24) - 1) / 8;
        let slot_len = 8 * (level + 1);
        let shift = 32 - slot_len;
        // A prefix longer than its level's slots lies inside one of them.
        let slots = 1 << slot_len.saturating_sub(usize::from(len));
        for slot in (a >> shift)..(a >> shift) + slots {
            self.recompute(trie, slot << shift, level);
        }
        self.collapse(a, level);
    }

    /// Recompute the level-`level` slot that starts at address `a` from the
    /// trie: the best match of the slot's length or shorter, then the
    /// longer prefixes under it painted into a fresh subtree.
    fn recompute(&mut self, trie: &PrefixTrie<u32>, a: u32, level: usize) {
        let ci = self.descend(a, level)[level];
        let i = byte(a, level);
        self.release(self.chunks[ci][i]);
        let len = 8 * (level as u8 + 1);
        let addr = Ipv4Addr::from(a);
        let fill = trie
            .lookup_at_most(IpAddr::V4(addr), len)
            .map_or(0, |(p, v)| self.intern(p, *v));
        self.chunks[ci][i] = fill;
        for (p, v) in trie.iter_under(&Prefix::V4 { addr, len }) {
            if p.len() > len {
                let e = self.intern(p, *v);
                self.paint(p, e);
            }
        }
    }

    /// Free the chunks under `slot`, if it points at one.
    fn release(&mut self, slot: u32) {
        if slot & CHUNK_FLAG == 0 {
            return;
        }
        let ci = (slot & !CHUNK_FLAG) as usize;
        self.free_chunks.push(ci as u32);
        for i in 0..256 {
            self.release(self.chunks[ci][i]);
        }
    }

    /// Fold each chunk on `a`'s path, from `level` up, that holds one leaf
    /// in all 256 slots back into its parent slot.
    fn collapse(&mut self, a: u32, level: usize) {
        let path = self.descend(a, level);
        for l in (1..=level).rev() {
            let chunk = &self.chunks[path[l]];
            let leaf = chunk[0];
            if leaf & CHUNK_FLAG != 0 || chunk.iter().any(|&s| s != leaf) {
                return;
            }
            self.chunks[path[l - 1]][byte(a, l - 1)] = leaf;
            self.free_chunks.push(path[l] as u32);
        }
    }

    /// Approximate heap size of the compiled structures, for stats: the
    /// live chunks and entries (freed ones wait for reuse) and the code map.
    pub fn memory_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(Prefix, u32)>();
        (self.chunks.len() - self.free_chunks.len()) * std::mem::size_of::<Chunk>()
            + (self.entries.len() - self.free_codes.len()) * entry
            + self.codes.capacity() * entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::prefix;

    fn built(pairs: &[(&str, u32)]) -> (PrefixTrie<u32>, FlatFib) {
        let mut t = PrefixTrie::new();
        for (p, v) in pairs {
            t.insert(prefix(p), *v);
        }
        let mut f = FlatFib::new();
        f.sync(&t);
        (t, f)
    }

    fn assert_agree(t: &PrefixTrie<u32>, f: &FlatFib, addr: &str) {
        let addr: Ipv4Addr = addr.parse().unwrap();
        let want = t.lookup(addr.into()).map(|(p, v)| (p, *v));
        assert_eq!(f.lookup(addr), want, "disagree on {addr}");
    }

    #[test]
    fn v4_basic_lpm() {
        let (t, f) = built(&[
            ("0.0.0.0/0", 1),
            ("10.0.0.0/8", 2),
            ("10.1.0.0/16", 3),
            ("10.1.2.0/24", 4),
            ("10.1.2.128/25", 5),
            ("10.1.2.200/32", 6),
        ]);
        for a in [
            "10.1.2.200",
            "10.1.2.201",
            "10.1.2.127",
            "10.1.2.128",
            "10.1.3.1",
            "10.9.9.9",
            "192.0.2.1",
        ] {
            assert_agree(&t, &f, a);
        }
    }

    #[test]
    fn empty_fib_misses() {
        let (t, f) = built(&[]);
        assert_agree(&t, &f, "10.0.0.1");
    }

    #[test]
    fn incremental_patch_tracks_trie() {
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1), ("10.1.0.0/16", 2)]);
        let g0 = f.generation();

        t.insert(prefix("10.1.2.0/24"), 3);
        f.mark_dirty(&prefix("10.1.2.0/24"));
        assert!(f.sync(&t));
        assert!(f.generation() > g0);
        assert_agree(&t, &f, "10.1.2.9");

        t.insert(prefix("10.1.2.128/25"), 4); // forces a chunk spill
        f.mark_dirty(&prefix("10.1.2.128/25"));
        f.sync(&t);
        assert_agree(&t, &f, "10.1.2.129");
        assert_agree(&t, &f, "10.1.2.1");

        t.remove(&prefix("10.1.2.128/25"));
        f.mark_dirty(&prefix("10.1.2.128/25"));
        f.sync(&t);
        assert_agree(&t, &f, "10.1.2.129");

        t.remove(&prefix("10.1.2.0/24"));
        f.mark_dirty(&prefix("10.1.2.0/24"));
        f.sync(&t);
        assert_agree(&t, &f, "10.1.2.9");
    }

    #[test]
    fn sync_without_dirt_is_free() {
        let (t, mut f) = built(&[("10.0.0.0/8", 1)]);
        let g = f.generation();
        assert!(!f.sync(&t));
        assert_eq!(f.generation(), g);
    }

    #[test]
    fn churn_threshold_forces_rebuild() {
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1)]);
        for i in 0..(CHURN_REBUILD_THRESHOLD as u32 + 10) {
            let p = Prefix::v4(Ipv4Addr::from(0x0a00_0000 | (i << 8)), 24).unwrap();
            t.insert(p, 100 + i);
            f.mark_dirty(&p);
        }
        assert!(f.sync(&t));
        for i in 0..(CHURN_REBUILD_THRESHOLD as u32 + 10) {
            let a = Ipv4Addr::from(0x0a00_0001 | (i << 8));
            assert_eq!(f.lookup(a).map(|(_, v)| v), Some(100 + i));
        }
    }

    #[test]
    fn default_route_patch_is_a_rebuild() {
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1)]);
        let (rebuilds, ..) = f.sync_totals();
        t.insert(prefix("0.0.0.0/0"), 9);
        f.mark_dirty(&prefix("0.0.0.0/0"));
        f.sync(&t);
        assert_eq!(f.last_sync(), Some((true, 0)), "counted as a rebuild");
        assert_eq!(f.sync_totals().0, rebuilds + 1);
        assert_agree(&t, &f, "192.0.2.1");
        assert_agree(&t, &f, "10.1.1.1");
    }

    #[test]
    fn flapping_patches_reuse_their_entries() {
        // Patches rewrite a prefix's entry in place: 100k flaps of one /24,
        // each synced on its own, leave the compiled table its size.
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1)]);
        let bytes = f.memory_bytes();
        let p = prefix("10.1.2.0/24");
        for i in 0..100_000u32 {
            if i % 2 == 0 {
                t.insert(p, 2);
            } else {
                t.remove(&p);
            }
            f.mark_dirty(&p);
            assert!(f.sync(&t));
        }
        assert_eq!(f.sync_totals().0, 1, "every flap was a patch");
        let grown = f.memory_bytes() - bytes;
        assert!(grown < 1024, "100k flaps grew the FIB by {grown} B");
        assert_agree(&t, &f, "10.1.2.1");
    }

    #[test]
    fn flapping_patches_reuse_their_chunks() {
        // `memory_bytes` counts live chunks only, so it cannot see a pool
        // that grows by the chunks it freed: a /28 flapping under a /8
        // takes one chunk per level below the root, the same three each time.
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1)]);
        let p = prefix("10.1.2.16/28");
        for i in 0..1_000u32 {
            if i % 2 == 0 {
                t.insert(p, 2);
            } else {
                t.remove(&p);
            }
            f.mark_dirty(&p);
            assert!(f.sync(&t));
        }
        assert_eq!(f.chunks.len(), 4, "the root and three reused chunks");
        assert_eq!(f.entries.len(), 2, "the /8's entry and the reused /28's");
        assert_agree(&t, &f, "10.1.2.17");
    }

    #[test]
    fn serving_cones_compile_into_the_root() {
        // The 64 /8 client cones a serving uRPF table holds fill 64 root
        // slots and need no chunk below them.
        let cones: Vec<(String, u32)> = (20..84u32).map(|a| (format!("{a}.0.0.0/8"), a)).collect();
        let pairs: Vec<(&str, u32)> = cones.iter().map(|(p, v)| (p.as_str(), *v)).collect();
        let (t, f) = built(&pairs);
        let bytes = f.memory_bytes();
        assert!(bytes < 64 << 10, "64 /8 cones compiled into {bytes} B");
        for a in [
            "19.255.255.255",
            "20.0.0.0",
            "51.1.2.3",
            "83.255.255.255",
            "84.0.0.0",
        ] {
            assert_agree(&t, &f, a);
        }
    }

    #[test]
    fn repeated_marks_of_one_prefix_patch_not_rebuild() {
        // Regression: mark_dirty used to count duplicates toward the
        // rebuild threshold, so a single flapping prefix re-marked 64+
        // times between syncs forced a wholesale rebuild of the 16M-slot
        // table. Sustained churn on one prefix must stay a 1-prefix patch.
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1), ("10.1.2.0/24", 2)]);
        let (rebuilds_before, ..) = f.sync_totals();
        let p = prefix("10.1.2.0/24");
        for i in 0..(CHURN_REBUILD_THRESHOLD as u32 * 4) {
            t.insert(p, 100 + i);
            f.mark_dirty(&p);
        }
        assert!(f.sync(&t));
        assert_eq!(
            f.last_sync(),
            Some((false, 1)),
            "one flapping prefix must patch one prefix, not rebuild"
        );
        let (rebuilds_after, ..) = f.sync_totals();
        assert_eq!(rebuilds_before, rebuilds_after);
        assert_agree(&t, &f, "10.1.2.1");
    }

    #[test]
    fn rebuild_crossover_monotone_in_distinct_prefixes() {
        // The patch-vs-rebuild decision must be a monotone function of the
        // number of DISTINCT dirty prefixes: patch at or below the
        // threshold, rebuild above it — regardless of how many times each
        // prefix was re-marked.
        for distinct in [
            1usize,
            7,
            CHURN_REBUILD_THRESHOLD,
            CHURN_REBUILD_THRESHOLD + 1,
        ] {
            let (mut t, mut f) = built(&[("10.0.0.0/8", 1)]);
            for round in 0..3u32 {
                for i in 0..distinct as u32 {
                    let p = Prefix::v4(Ipv4Addr::from(0x0a00_0000 | (i << 8)), 24).unwrap();
                    t.insert(p, 100 + i + round);
                    f.mark_dirty(&p);
                }
            }
            assert!(f.sync(&t));
            let want_rebuild = distinct > CHURN_REBUILD_THRESHOLD;
            let (was_rebuild, patched) = f.last_sync().expect("sync happened");
            assert_eq!(
                was_rebuild, want_rebuild,
                "{distinct} distinct dirty prefixes: rebuild={was_rebuild}"
            );
            if !want_rebuild {
                assert_eq!(patched as usize, distinct, "patched exactly the dirty set");
            }
            for i in 0..distinct as u32 {
                let a = Ipv4Addr::from(0x0a00_0001 | (i << 8));
                assert_eq!(f.lookup(a).map(|(_, v)| v), Some(100 + i + 2));
            }
        }
    }

    #[test]
    fn v6_changes_leave_the_fib_untouched() {
        // Only IPv4 is compiled: an IPv6-only change neither syncs nor
        // bumps the generation, so no flow cache is invalidated for it.
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1)]);
        let g = f.generation();
        for (p, v) in [("2001:db8::/32", 1), ("2001:db8:ffff::/48", 2), ("::/0", 3)] {
            t.insert(prefix(p), v);
            f.mark_dirty(&prefix(p));
        }
        assert!(!f.sync(&t));
        assert_eq!(f.generation(), g);
        assert_agree(&t, &f, "10.1.1.1");
    }
}
