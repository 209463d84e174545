//! Platform-wide observability: a metrics registry and a structured
//! event journal, both deterministic and allocation-free on hot paths.
//!
//! Every metric is a cell its owner holds. A component keeps its counters
//! and levels in an owned [`Counters`] block indexed by an enum, and each
//! distribution in an owned [`Histogram`]; it is their only writer. The
//! registry keeps every published cell by its full name and reads the
//! same cells when a snapshot is taken, so a snapshot always shows current
//! values, and a component that adopts a new registry republishes its
//! cells there, values included. Instrumented code bumps an integer — no
//! lock, no lookup, no allocation per event. Label dimensions (per-neighbor,
//! per-peer, per-reason) are encoded into the metric name when the block
//! is built, so a hot loop never formats a string.
//!
//! The journal is a bounded store of typed [`Event`]s stamped from a clock
//! the simulator advances. Runs are seeded, and when the simulator shards
//! its event loop across worker threads each thread writes its own journal
//! *lane* (see [`set_thread_lane`]); records carry the [`DispatchKey`] of
//! the simulator event that produced them, and reads merge lanes in that
//! key's order. Identical seeds therefore produce byte-identical journals
//! and [`registry snapshots`](Obs::snapshot) at 1, 2 or N shards — which
//! is what lets tests assert on them and lets the convergence oracle
//! attach "what led up to this" to an invariant violation.

#![warn(missing_docs)]

mod counters;
mod journal;
mod registry;
mod snapshot;

pub use counters::{CounterKey, Counters, Histogram};
pub use journal::{DispatchKey, Event, EventKind, DELIVERY_TABLE, JOURNAL_CAPACITY, MAX_LANES};
pub use snapshot::{Snapshot, SnapshotValue};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use journal::Journal;
use registry::{Registry, SharedRegistry};

thread_local! {
    static THREAD_LANE: Cell<usize> = const { Cell::new(0) };
    static DISPATCH_KEY: Cell<Option<DispatchKey>> = const { Cell::new(None) };
}

/// Bind the current thread to a journal lane (0 .. [`MAX_LANES`]).
///
/// The sharded simulator calls this once per worker thread so concurrent
/// [`Obs::record`] calls never contend and can be merged deterministically.
/// Lane 0 is the default for the main thread and standalone components.
pub fn set_thread_lane(lane: usize) {
    THREAD_LANE.with(|l| l.set(lane.min(MAX_LANES - 1)));
}

/// The journal lane the current thread writes to.
pub fn thread_lane() -> usize {
    THREAD_LANE.with(|l| l.get())
}

/// Declare the simulator event the current thread is about to dispatch.
///
/// Every [`Obs::record`] until the next [`clear_dispatch_key`] is tagged
/// with `key`, which fixes its position in the merged journal independent
/// of thread scheduling.
pub fn set_dispatch_key(key: DispatchKey) {
    DISPATCH_KEY.with(|k| k.set(Some(key)));
}

/// Mark the current thread as outside any event dispatch; subsequent
/// records are tagged as out-of-loop at their clock time.
pub fn clear_dispatch_key() {
    DISPATCH_KEY.with(|k| k.set(None));
}

/// Shared observability handle: one underlying registry + journal +
/// deterministic clock, cheaply cloned into every instrumented component.
///
/// Cloning shares the same storage; [`Obs::scoped`] returns a handle that
/// prefixes every metric published through it (e.g. `pop0/`), which is
/// how one platform-wide registry hosts many routers without name
/// collisions.
#[derive(Clone)]
pub struct Obs {
    prefix: String,
    /// One clock per journal lane; each simulator worker advances only
    /// its own lane's clock, so stamps stay deterministic without locks.
    clocks: Arc<[AtomicU64; MAX_LANES]>,
    registry: Arc<SharedRegistry>,
    journal: Arc<Journal>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A fresh registry + journal with the clock at zero.
    pub fn new() -> Self {
        Obs {
            prefix: String::new(),
            clocks: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            registry: Arc::default(),
            journal: Arc::new(Journal::new(JOURNAL_CAPACITY)),
        }
    }

    /// A handle onto the same storage that publishes every metric under
    /// `scope` + `/`. Scopes nest: `obs.scoped("pop0").scoped("mux")`
    /// publishes under `pop0/mux/`.
    pub fn scoped(&self, scope: &str) -> Obs {
        let mut child = self.clone();
        child.prefix = format!("{}{scope}/", self.prefix);
        child
    }

    /// True if `other` shares this handle's underlying storage.
    pub fn same_store(&self, other: &Obs) -> bool {
        Arc::ptr_eq(&self.registry, &other.registry)
    }

    // --- deterministic clock ---------------------------------------------

    /// Advance the journal clock for the current thread's lane (the
    /// simulator calls this as simulated time moves; standalone
    /// components leave it at zero).
    pub fn set_now_nanos(&self, nanos: u64) {
        self.clocks[thread_lane()].store(nanos, Ordering::Relaxed);
    }

    // --- metric publication ---------------------------------------------

    /// The registry, locked (publication and snapshots are cold paths).
    fn registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.registry.lock().expect("obs registry poisoned")
    }

    /// `name` under this handle's scope.
    fn full_name(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    // --- journal ----------------------------------------------------------

    /// Append a typed event, stamped with the current lane clock and
    /// tagged with the thread's dispatch key (see [`set_dispatch_key`]).
    pub fn record(&self, kind: EventKind) {
        let lane = thread_lane();
        let nanos = self.clocks[lane].load(Ordering::Relaxed);
        let tag = DISPATCH_KEY
            .with(|k| k.get())
            .unwrap_or_else(|| DispatchKey::outside(nanos));
        self.journal.push(
            lane,
            tag,
            Event {
                t_nanos: nanos,
                kind,
            },
        );
    }

    /// Copy of the retained journal contents in canonical (dispatch-key)
    /// order, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.journal.events()
    }

    /// Number of events currently retained.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Events evicted because the journal was full.
    pub fn journal_dropped(&self) -> u64 {
        self.journal.dropped()
    }

    /// Render the most recent `last` events, one per line — the
    /// attachment the oracle ships with an invariant violation.
    pub fn journal_tail(&self, last: usize) -> String {
        let events = self.events();
        let skip = events.len().saturating_sub(last);
        let mut out = String::new();
        for ev in &events[skip..] {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest of the rendered journal (canonical order). Two runs
    /// with identical journals produce identical digests, so determinism
    /// tests can compare a single u64 instead of whole transcripts.
    pub fn journal_digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        for ev in self.events() {
            for byte in ev.to_string().bytes().chain(std::iter::once(b'\n')) {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            }
        }
        hash
    }

    // --- snapshot ---------------------------------------------------------

    /// A stable, name-sorted snapshot of every published metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_keys! {
        enum Key {
            A = "k.a",
            B = "k.b",
            Depth = level "k.depth",
        }
    }

    counter_keys! {
        enum Clash {
            A = level "k.a",
        }
    }

    #[test]
    fn scoped_handles_prefix_names() {
        let obs = Obs::new();
        let pop = obs.scoped("pop0");
        Counters::<Key>::new(&pop).add(Key::A, 2);
        assert_eq!(obs.snapshot().counter("pop0/k.a"), Some(2));
        assert!(obs.same_store(&pop));
    }

    #[test]
    fn snapshot_is_sorted_and_stable_across_registration_order() {
        let a = Obs::new();
        let mut a1 = Counters::<Key>::labelled(&a, "i", 1);
        let mut a0 = Counters::<Key>::labelled(&a, "i", 0);
        let b = Obs::new();
        let mut b0 = Counters::<Key>::labelled(&b, "i", 0);
        let mut b1 = Counters::<Key>::labelled(&b, "i", 1);
        for (zero, one) in [(&mut a0, &mut a1), (&mut b0, &mut b1)] {
            zero.inc(Key::B);
            one.set(Key::Depth, 7);
        }
        assert_eq!(a.snapshot().to_text(), b.snapshot().to_text());
        let snap = a.snapshot();
        let names: Vec<&str> = snap.names().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn owned_blocks_read_live_and_move_with_their_values() {
        let first = Obs::new();
        let mut c = Counters::<Key>::labelled(&first.scoped("pop0"), "nbr", 2);
        c.add(Key::B, 3);
        c.set(Key::Depth, 9);
        assert_eq!(first.snapshot().counter("pop0/k.b{nbr=2}"), Some(3));
        assert_eq!(first.snapshot().counter("pop0/k.a{nbr=2}"), Some(0));
        assert_eq!(first.snapshot().gauge("pop0/k.depth{nbr=2}"), Some(9));
        let second = Obs::new();
        c.set_obs(&second);
        c.inc(Key::B);
        c.set(Key::Depth, 4);
        assert_eq!(second.snapshot().counter("k.b{nbr=2}"), Some(4));
        assert_eq!(second.snapshot().gauge("k.depth{nbr=2}"), Some(4));
        let reasons = Counters::<Key>::family(&second, "drops", "reason");
        assert_eq!(second.snapshot().counter("drops{reason=k.a}"), Some(0));
        assert_eq!(reasons.total(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as a different kind")]
    fn a_level_over_a_counter_panics() {
        let obs = Obs::new();
        Counters::<Key>::new(&obs);
        Counters::<Clash>::new(&obs);
    }

    #[test]
    #[should_panic(expected = "registered as a different kind")]
    fn a_histogram_over_a_counter_panics() {
        let obs = Obs::new();
        Counters::<Key>::new(&obs);
        Histogram::new(&obs, "k.a", &[1]);
    }

    #[test]
    fn journal_stamps_from_clock_and_bounds_size() {
        let obs = Obs::new();
        obs.set_now_nanos(5_000_000_000);
        obs.record(EventKind::ChaosInjection {
            link: 3,
            change: "link-down",
        });
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t_nanos, 5_000_000_000);
        for _ in 0..(JOURNAL_CAPACITY + 10) {
            obs.record(EventKind::IcmpSuppressed { reason: "test" });
        }
        assert_eq!(obs.journal_len(), JOURNAL_CAPACITY);
        assert_eq!(obs.journal_dropped(), 11);
    }

    #[test]
    fn histogram_buckets_observe_and_move_with_their_values() {
        let obs = Obs::new();
        let mut h = Histogram::new(&obs, "sizes", &[1, 8, 64]);
        for v in [0, 1, 5, 9, 100] {
            h.observe(v);
        }
        let moved = Obs::new();
        h.set_obs(&moved);
        for snap in [obs.snapshot(), moved.snapshot()] {
            let Some(SnapshotValue::Histogram {
                buckets,
                count,
                sum,
                ..
            }) = snap.get("sizes")
            else {
                panic!("missing histogram");
            };
            assert_eq!(buckets, &[2, 1, 1, 1]);
            assert_eq!(*count, 5);
            assert_eq!(*sum, 115);
        }
    }

    #[test]
    fn journal_digest_tracks_content() {
        let a = Obs::new();
        let b = Obs::new();
        for obs in [&a, &b] {
            obs.set_now_nanos(7);
            obs.record(EventKind::IcmpSuppressed { reason: "x" });
        }
        assert_eq!(a.journal_digest(), b.journal_digest());
        b.record(EventKind::IcmpSuppressed { reason: "y" });
        assert_ne!(a.journal_digest(), b.journal_digest());
    }

    #[test]
    fn lane_records_merge_by_dispatch_key() {
        let obs = Obs::new();
        obs.set_now_nanos(20);
        set_dispatch_key(DispatchKey {
            at_nanos: 20,
            class: 1,
            dst: 5,
            src: 0,
            seq: 0,
        });
        obs.record(EventKind::IcmpSuppressed { reason: "late" });
        set_dispatch_key(DispatchKey {
            at_nanos: 10,
            class: 1,
            dst: 1,
            src: 0,
            seq: 0,
        });
        obs.set_now_nanos(10);
        obs.record(EventKind::IcmpSuppressed { reason: "early" });
        clear_dispatch_key();
        let events = obs.events();
        assert_eq!(events[0].t_nanos, 10);
        assert_eq!(events[1].t_nanos, 20);
    }
}
