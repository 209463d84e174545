//! A binary radix trie keyed by IP prefix with longest-prefix-match lookup.
//!
//! This is the FIB/RIB backbone: vBGP maintains one routing table per BGP
//! neighbor (paper §3.2.2), each of which is one of these tries. IPv4 and
//! IPv6 prefixes share the structure by left-aligning network bits in a
//! `u128`; the two families live in separate roots so a /0 in one never
//! matches the other.

use crate::types::{Afi, Prefix};
use std::net::IpAddr;

struct TrieNode<V> {
    value: Option<V>,
    children: [Option<Box<TrieNode<V>>>; 2],
}

impl<V> TrieNode<V> {
    fn new() -> Self {
        TrieNode {
            value: None,
            children: [None, None],
        }
    }
}

/// A prefix-keyed map with exact and longest-prefix lookups.
pub struct PrefixTrie<V> {
    roots: [TrieNode<V>; 2], // [v4, v6]
    len: usize,
    /// Heap-allocated (non-root) nodes currently live. Tracked so route
    /// churn can be checked for structural leaks: [`Self::remove`] prunes
    /// emptied branches and this must return to baseline.
    nodes: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

fn root_index(afi: Afi) -> usize {
    match afi {
        Afi::Ipv4 => 0,
        Afi::Ipv6 => 1,
    }
}

fn bit_at(bits: u128, index: u8) -> usize {
    ((bits >> (127 - index as u32)) & 1) as usize
}

impl<V> PrefixTrie<V> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            roots: [TrieNode::new(), TrieNode::new()],
            len: 0,
            nodes: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of heap-allocated interior/leaf nodes currently live. An
    /// empty trie reports 0; insert/remove cycles must return here.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Insert or replace the value at `prefix`, returning the previous value.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let bits = prefix.bits();
        let mut node = &mut self.roots[root_index(prefix.afi())];
        for i in 0..prefix.len() {
            let b = bit_at(bits, i);
            if node.children[b].is_none() {
                node.children[b] = Some(Box::new(TrieNode::new()));
                self.nodes += 1;
            }
            node = node.children[b].as_deref_mut().expect("just ensured");
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove the value at exactly `prefix`, pruning any branch the removal
    /// leaves empty. Route tables cycle prefixes constantly; retaining dead
    /// interior chains would grow memory without bound under churn whose
    /// flap schedules never revisit the same paths.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        let bits = prefix.bits();
        let root = &mut self.roots[root_index(prefix.afi())];
        let (old, _) = Self::remove_rec(root, bits, 0, prefix.len(), &mut self.nodes);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Returns `(removed value, whether the caller should prune this node)`.
    fn remove_rec(
        node: &mut TrieNode<V>,
        bits: u128,
        depth: u8,
        len: u8,
        nodes: &mut usize,
    ) -> (Option<V>, bool) {
        let old = if depth == len {
            node.value.take()
        } else {
            let b = bit_at(bits, depth);
            let Some(child) = node.children[b].as_deref_mut() else {
                return (None, false);
            };
            let (old, prune_child) = Self::remove_rec(child, bits, depth + 1, len, nodes);
            if prune_child {
                node.children[b] = None;
                *nodes -= 1;
            }
            old
        };
        let prunable = node.value.is_none() && node.children.iter().all(Option::is_none);
        (old, prunable)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        let bits = prefix.bits();
        let mut node = &self.roots[root_index(prefix.afi())];
        for i in 0..prefix.len() {
            let b = bit_at(bits, i);
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Exact-match lookup, mutable.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        let bits = prefix.bits();
        let mut node = &mut self.roots[root_index(prefix.afi())];
        for i in 0..prefix.len() {
            let b = bit_at(bits, i);
            node = node.children[b].as_deref_mut()?;
        }
        node.value.as_mut()
    }

    /// Longest-prefix match for a host address: the most specific stored
    /// prefix covering `addr`, with its value.
    pub fn lookup(&self, addr: IpAddr) -> Option<(Prefix, &V)> {
        self.lookup_at_most(addr, 128)
    }

    /// Longest-prefix match considering only stored prefixes of length at
    /// most `cap`. Used by the flat-FIB compiler to find the best match
    /// covering a whole slot of the compiled FIB (a /8, /16 or /24) rather
    /// than a single address.
    pub fn lookup_at_most(&self, addr: IpAddr, cap: u8) -> Option<(Prefix, &V)> {
        let (afi, bits, max_len) = match addr {
            IpAddr::V4(a) => (Afi::Ipv4, (u32::from(a) as u128) << 96, 32.min(cap)),
            IpAddr::V6(a) => (Afi::Ipv6, u128::from(a), 128.min(cap)),
        };
        let mut node = &self.roots[root_index(afi)];
        let mut best: Option<(u8, &V)> = node.value.as_ref().map(|v| (0, v));
        for i in 0..max_len {
            let b = bit_at(bits, i);
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((i + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| {
            let prefix = match addr {
                IpAddr::V4(a) => {
                    let masked = if len == 0 {
                        0
                    } else {
                        u32::from(a) & (u32::MAX << (32 - len as u32))
                    };
                    Prefix::V4 {
                        addr: masked.into(),
                        len,
                    }
                }
                IpAddr::V6(a) => {
                    let masked = if len == 0 {
                        0
                    } else {
                        u128::from(a) & (u128::MAX << (128 - len as u32))
                    };
                    Prefix::V6 {
                        addr: masked.into(),
                        len,
                    }
                }
            };
            (prefix, v)
        })
    }

    /// Iterate over all `(prefix, value)` pairs in lexicographic bit order,
    /// IPv4 before IPv6. Lazy — no per-call allocation beyond a small
    /// traversal stack.
    pub fn iter(&self) -> TrieIter<'_, V> {
        TrieIter {
            stack: vec![
                (&self.roots[1], Afi::Ipv6, 0, 0),
                (&self.roots[0], Afi::Ipv4, 0, 0),
            ],
        }
    }

    /// Iterate over stored prefixes covered by `covering` (including
    /// itself), walking only the covered subtree.
    pub fn iter_under(&self, covering: &Prefix) -> TrieIter<'_, V> {
        let bits = covering.bits();
        let mut node = &self.roots[root_index(covering.afi())];
        for i in 0..covering.len() {
            let b = bit_at(bits, i);
            match node.children[b].as_deref() {
                Some(child) => node = child,
                None => return TrieIter { stack: Vec::new() },
            }
        }
        TrieIter {
            stack: vec![(node, covering.afi(), bits, covering.len())],
        }
    }

    /// Iterate over stored prefixes covered by `covering` (including itself).
    pub fn iter_within<'a>(
        &'a self,
        covering: &'a Prefix,
    ) -> impl Iterator<Item = (Prefix, &'a V)> + 'a {
        self.iter_under(covering)
    }
}

/// Pre-order traversal over a [`PrefixTrie`] (or one of its subtrees).
pub struct TrieIter<'a, V> {
    /// `(node, afi, accumulated bits, depth)` frames; child 1 is pushed
    /// before child 0 so bit-order pops first.
    stack: Vec<(&'a TrieNode<V>, Afi, u128, u8)>,
}

impl<'a, V> Iterator for TrieIter<'a, V> {
    type Item = (Prefix, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, afi, bits, depth)) = self.stack.pop() {
            for b in [1usize, 0] {
                if let Some(child) = node.children[b].as_deref() {
                    let bits = bits | ((b as u128) << (127 - depth as u32));
                    self.stack.push((child, afi, bits, depth + 1));
                }
            }
            if let Some(v) = node.value.as_ref() {
                let prefix = match afi {
                    Afi::Ipv4 => Prefix::V4 {
                        addr: ((bits >> 96) as u32).into(),
                        len: depth,
                    },
                    Afi::Ipv6 => Prefix::V6 {
                        addr: bits.into(),
                        len: depth,
                    },
                };
                return Some((prefix, v));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::prefix;

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(prefix("10.0.0.0/8"), "a"), None);
        assert_eq!(t.insert(prefix("10.0.0.0/8"), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&prefix("10.0.0.0/8")), Some(&"b"));
        assert_eq!(t.get(&prefix("10.0.0.0/16")), None);
        assert_eq!(t.remove(&prefix("10.0.0.0/8")), Some("b"));
        assert_eq!(t.remove(&prefix("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn longest_prefix_match() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("0.0.0.0/0"), 0);
        t.insert(prefix("10.0.0.0/8"), 8);
        t.insert(prefix("10.1.0.0/16"), 16);
        t.insert(prefix("10.1.2.0/24"), 24);

        let cases = [
            ("10.1.2.3", 24, "10.1.2.0/24"),
            ("10.1.3.1", 16, "10.1.0.0/16"),
            ("10.9.0.1", 8, "10.0.0.0/8"),
            ("192.0.2.1", 0, "0.0.0.0/0"),
        ];
        for (addr, want, want_prefix) in cases {
            let (p, v) = t.lookup(addr.parse().unwrap()).unwrap();
            assert_eq!(*v, want, "addr {addr}");
            assert_eq!(p, prefix(want_prefix));
        }
    }

    #[test]
    fn no_default_means_no_match() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("10.0.0.0/8"), ());
        assert!(t.lookup("192.0.2.1".parse().unwrap()).is_none());
    }

    #[test]
    fn families_are_separate() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("0.0.0.0/0"), "v4-default");
        t.insert(prefix("2001:db8::/32"), "v6");
        assert!(t.lookup("2001:db9::1".parse().unwrap()).is_none());
        assert_eq!(t.lookup("2001:db8::1".parse().unwrap()).unwrap().1, &"v6");
        assert_eq!(
            t.lookup("198.51.100.1".parse().unwrap()).unwrap().1,
            &"v4-default"
        );
    }

    #[test]
    fn iter_is_ordered_and_complete() {
        let mut t = PrefixTrie::new();
        let prefixes = ["10.0.0.0/8", "10.1.0.0/16", "9.0.0.0/8", "2001:db8::/32"];
        for p in prefixes {
            t.insert(prefix(p), p);
        }
        let got: Vec<String> = t.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(
            got,
            vec!["9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16", "2001:db8::/32"]
        );
    }

    #[test]
    fn iter_within() {
        let mut t = PrefixTrie::new();
        for p in ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "11.0.0.0/8"] {
            t.insert(prefix(p), ());
        }
        let within: Vec<String> = t
            .iter_within(&prefix("10.0.0.0/8"))
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(within, vec!["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]);
    }

    #[test]
    fn zero_length_prefix_matches_everything_v4() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("0.0.0.0/0"), ());
        assert!(t.lookup("255.255.255.255".parse().unwrap()).is_some());
        assert!(t.lookup("0.0.0.0".parse().unwrap()).is_some());
    }

    #[test]
    fn host_routes() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("192.0.2.7/32"), "host");
        assert_eq!(t.lookup("192.0.2.7".parse().unwrap()).unwrap().1, &"host");
        assert!(t.lookup("192.0.2.8".parse().unwrap()).is_none());
    }

    #[test]
    fn v6_host_routes() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("2001:db8::7/128"), "host");
        t.insert(prefix("2001:db8::/64"), "net");
        let (p, v) = t.lookup("2001:db8::7".parse().unwrap()).unwrap();
        assert_eq!((p, *v), (prefix("2001:db8::7/128"), "host"));
        let (p, v) = t.lookup("2001:db8::8".parse().unwrap()).unwrap();
        assert_eq!((p, *v), (prefix("2001:db8::/64"), "net"));
    }

    #[test]
    fn zero_length_roots_are_per_family() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("0.0.0.0/0"), "v4");
        t.insert(prefix("::/0"), "v6");
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("192.0.2.1".parse().unwrap()).unwrap().1, &"v4");
        assert_eq!(t.lookup("2001:db8::1".parse().unwrap()).unwrap().1, &"v6");
        // Removing one family's default must not disturb the other.
        assert_eq!(t.remove(&prefix("0.0.0.0/0")), Some("v4"));
        assert!(t.lookup("192.0.2.1".parse().unwrap()).is_none());
        assert_eq!(t.lookup("2001:db8::1".parse().unwrap()).unwrap().1, &"v6");
    }

    #[test]
    fn longest_match_wins_regardless_of_insertion_order() {
        // Adversarial order: most-specific first, then covering prefixes,
        // then a sibling that shares all but the last examined bit.
        let orders: [&[&str]; 3] = [
            &["10.1.2.0/24", "10.1.0.0/16", "10.0.0.0/8", "0.0.0.0/0"],
            &["0.0.0.0/0", "10.1.2.0/24", "10.0.0.0/8", "10.1.0.0/16"],
            &["10.1.0.0/16", "0.0.0.0/0", "10.1.2.0/24", "10.0.0.0/8"],
        ];
        for order in orders {
            let mut t = PrefixTrie::new();
            for p in order {
                t.insert(prefix(p), *p);
            }
            t.insert(prefix("10.1.3.0/24"), "10.1.3.0/24"); // sibling
            let (p, v) = t.lookup("10.1.2.9".parse().unwrap()).unwrap();
            assert_eq!((p, *v), (prefix("10.1.2.0/24"), "10.1.2.0/24"));
            let (p, _) = t.lookup("10.1.9.9".parse().unwrap()).unwrap();
            assert_eq!(p, prefix("10.1.0.0/16"));
        }
    }

    #[test]
    fn lookup_at_most_caps_specificity() {
        let mut t = PrefixTrie::new();
        t.insert(prefix("10.0.0.0/8"), 8u8);
        t.insert(prefix("10.1.2.0/24"), 24);
        t.insert(prefix("10.1.2.128/25"), 25);
        let addr = "10.1.2.200".parse().unwrap();
        assert_eq!(*t.lookup(addr).unwrap().1, 25);
        assert_eq!(*t.lookup_at_most(addr, 24).unwrap().1, 24);
        assert_eq!(*t.lookup_at_most(addr, 23).unwrap().1, 8);
    }

    #[test]
    fn iter_under_walks_only_the_subtree() {
        let mut t = PrefixTrie::new();
        for p in ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "11.0.0.0/8"] {
            t.insert(prefix(p), ());
        }
        let within: Vec<String> = t
            .iter_under(&prefix("10.1.0.0/16"))
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(within, vec!["10.1.0.0/16", "10.1.2.0/24"]);
        assert_eq!(t.iter_under(&prefix("172.16.0.0/12")).count(), 0);
    }

    #[test]
    fn churn_returns_node_count_to_baseline() {
        // The regression this guards: `remove` used to retain emptied
        // interior chains forever, so 100k insert/remove cycles leaked
        // ~24 nodes per never-revisited prefix.
        let mut t = PrefixTrie::new();
        t.insert(prefix("10.0.0.0/8"), 0u32);
        let baseline = t.node_count();
        let mut inserted = Vec::with_capacity(100_000);
        for i in 0..100_000u64 {
            let len = 17 + (i % 16) as u8; // /17..=/32 — deep chains
            let base = (i.wrapping_mul(2_654_435_761) as u32) & 0x7fff_ffff;
            let addr = base & (u32::MAX << (32 - len as u32));
            let p = Prefix::v4(addr.into(), len).unwrap();
            if t.insert(p, i as u32).is_none() {
                inserted.push(p);
            }
        }
        assert!(t.node_count() > baseline + 100_000, "churn did not bite");
        for p in &inserted {
            assert!(t.remove(p).is_some());
        }
        assert_eq!(t.node_count(), baseline, "removal leaked interior nodes");
        assert_eq!(t.len(), 1);
        // The surviving route still resolves.
        assert!(t.lookup("10.9.9.9".parse().unwrap()).is_some());
    }
}
