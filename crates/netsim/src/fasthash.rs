//! A fast non-cryptographic hasher for data-plane maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is DoS-robust
//! but costs ~1ns/byte — noticeable when the key is a 6-byte MAC or a
//! 4-byte IP consulted per packet. A Fx-style multiply-rotate hash is
//! several times faster and safe wherever the platform, not a peer or an
//! experiment, chooses the keys. These maps use it:
//!
//! - the vBGP mux's neighbor and experiment slots (platform ids), its own
//!   addresses and its resolved next hops (neighbors' configured
//!   addresses), and its flow cache's slot choice (a direct-mapped cache:
//!   a collision costs a miss, never a longer probe);
//! - the vBGP router's port MACs, experiment ports and ingress neighbors
//!   (ports and the MACs it configured);
//! - the data enforcer's verdict-cache slot choice (direct-mapped too);
//! - a host's ARP cache and pending queue
//!   ([`crate::arp::ArpCache`], [`crate::host::IpHost`]): next hops on the
//!   node's own segments, which its routes name;
//! - a learning switch's MAC table ([`crate::switch::LearningSwitch`]):
//!   the fabric's MACs, which the platform assigns;
//! - a BGP host's session endpoints, keyed by session id and by the
//!   configured (port, peer MAC) pair.
//!
//! Maps keyed by something a peer or an experiment chooses (a prefix it
//! announces, a flood bucket it fills) keep SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (from Firefox; a.k.a. the golden-ratio constant
/// folded to 64 bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher; processes input a word at a time.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_ne_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_ne_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Hash one `u32` key directly (flow-cache slot selection).
#[inline]
pub fn hash_u32(v: u32) -> u64 {
    (v as u64).wrapping_mul(SEED).rotate_left(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_works_like_std() {
        let mut m: FastHashMap<u32, &str> = FastHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.remove(&2), Some("b"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn hash_u32_spreads_sequential_keys() {
        // Direct-mapped flow caches index with the low bits; sequential IPs
        // must not collapse onto one slot.
        let mask = 8191;
        let mut slots: Vec<u64> = (0..1024u32).map(|i| hash_u32(i) & mask).collect();
        slots.sort_unstable();
        slots.dedup();
        assert!(slots.len() > 900, "only {} distinct slots", slots.len());
    }
}
