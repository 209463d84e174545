//! Routing Information Bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.
//!
//! vBGP's memory behaviour — the subject of the paper's Figure 6a — is
//! dominated by these structures: the router keeps every route from every
//! neighbor (Adj-RIB-In), and per-interconnection forwarding state on top.
//! [`route_memory_bytes`] reports the same accounting the paper plots.

use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;
use std::sync::Arc;

use crate::attrs::PathAttributes;
use crate::trie::PrefixTrie;
use crate::types::{PathId, Prefix, RouterId};

/// Identifies a configured peer within a [`crate::speaker::Speaker`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PeerId(pub u32);

/// Where a route came from, with the fields the decision process needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteSource {
    /// Locally originated (networks we inject).
    Local,
    /// Learned from a peer.
    Peer {
        /// The peer it came from.
        peer: PeerId,
        /// True for eBGP, false for iBGP.
        ebgp: bool,
        /// Peer's router id (decision tie-break).
        router_id: RouterId,
        /// Peer's transport address (final tie-break).
        addr: IpAddr,
    },
}

impl RouteSource {
    /// Whether the route was learned over eBGP.
    pub fn is_ebgp(&self) -> bool {
        matches!(self, RouteSource::Peer { ebgp: true, .. })
    }

    /// The peer id, if any.
    pub fn peer(&self) -> Option<PeerId> {
        match self {
            RouteSource::Peer { peer, .. } => Some(*peer),
            RouteSource::Local => None,
        }
    }
}

/// A route: prefix + path id + attributes + provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// ADD-PATH id it was received with (0 on plain sessions).
    pub path_id: PathId,
    /// Path attributes, shared via the speaker's hash-consing
    /// [`crate::attrs::AttrStore`]: every RIB holding the same attribute
    /// set points at one allocation (the Fig. 6a memory lever).
    pub attrs: Arc<PathAttributes>,
    /// Provenance.
    pub source: RouteSource,
    /// Arrival order stamp: lower = older (decision prefers older routes to
    /// damp oscillation, a common BGP implementation behaviour).
    pub stamp: u64,
}

impl Route {
    /// Mutable access to the attributes, copy-on-write: if the set is
    /// shared (interned), it is cloned first so other holders are
    /// untouched. The result is un-interned; re-intern it before storing
    /// back into a RIB.
    pub fn attrs_mut(&mut self) -> &mut PathAttributes {
        Arc::make_mut(&mut self.attrs)
    }
}

/// Key identifying one path within a RIB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouteKey {
    /// Source peer (`None` = local origination).
    pub peer: Option<PeerId>,
    /// ADD-PATH id on that session.
    pub path_id: PathId,
}

/// Per-peer Adj-RIB-In: every route the peer has advertised and not
/// withdrawn, keyed by (prefix, path id).
#[derive(Default)]
pub struct AdjRibIn {
    routes: PrefixTrie<BTreeMap<PathId, Route>>,
    /// Count of currently held paths (not prefixes).
    pub path_count: usize,
    /// Routes retained from a down session (graceful-restart-style
    /// retention): still valid for decision, but swept unless the peer
    /// re-announces them before the retention deadline.
    stale: BTreeSet<(Prefix, PathId)>,
}

impl AdjRibIn {
    /// Empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace; returns the displaced route. A (re-)announcement
    /// refreshes any stale mark on the path.
    pub fn insert(&mut self, route: Route) -> Option<Route> {
        self.stale.remove(&(route.prefix, route.path_id));
        let map = match self.routes.get_mut(&route.prefix) {
            Some(m) => m,
            None => {
                self.routes.insert(route.prefix, BTreeMap::new());
                self.routes.get_mut(&route.prefix).unwrap()
            }
        };
        let old = map.insert(route.path_id, route);
        if old.is_none() {
            self.path_count += 1;
        }
        old
    }

    /// Remove one path; returns it if present.
    pub fn remove(&mut self, prefix: &Prefix, path_id: PathId) -> Option<Route> {
        self.stale.remove(&(*prefix, path_id));
        let map = self.routes.get_mut(prefix)?;
        let old = map.remove(&path_id);
        if old.is_some() {
            self.path_count -= 1;
            if map.is_empty() {
                self.routes.remove(prefix);
            }
        }
        old
    }

    /// Remove every path for a prefix (plain-session implicit withdraw).
    pub fn remove_prefix(&mut self, prefix: &Prefix) -> Vec<Route> {
        match self.routes.remove(prefix) {
            Some(map) => {
                self.path_count -= map.len();
                for pid in map.keys() {
                    self.stale.remove(&(*prefix, *pid));
                }
                map.into_values().collect()
            }
            None => Vec::new(),
        }
    }

    /// Mark every held path stale (session went down with retention).
    pub fn mark_all_stale(&mut self) {
        self.stale = self
            .routes
            .iter()
            .flat_map(|(p, m)| m.keys().map(move |pid| (p, *pid)))
            .collect();
    }

    /// Remove and return every still-stale path (retention deadline, or
    /// End-of-RIB after re-establishment).
    pub fn sweep_stale(&mut self) -> Vec<Route> {
        let keys: Vec<(Prefix, PathId)> = std::mem::take(&mut self.stale).into_iter().collect();
        keys.iter()
            .filter_map(|(p, pid)| self.remove(p, *pid))
            .collect()
    }

    /// Number of paths currently marked stale.
    pub fn stale_count(&self) -> usize {
        self.stale.len()
    }

    /// Whether a specific path is marked stale.
    pub fn is_stale(&self, prefix: &Prefix, path_id: PathId) -> bool {
        self.stale.contains(&(*prefix, path_id))
    }

    /// All paths for a prefix.
    pub fn paths(&self, prefix: &Prefix) -> impl Iterator<Item = &Route> {
        self.routes.get(prefix).into_iter().flat_map(|m| m.values())
    }

    /// Iterate over every route.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter().flat_map(|(_, m)| m.values())
    }

    /// Drain the whole table (session reset).
    pub fn clear(&mut self) -> Vec<Route> {
        let mut out = Vec::with_capacity(self.path_count);
        let prefixes: Vec<Prefix> = self.routes.iter().map(|(p, _)| p).collect();
        for p in prefixes {
            out.extend(self.remove_prefix(&p));
        }
        out
    }

    /// Number of prefixes present.
    pub fn prefix_count(&self) -> usize {
        self.routes.len()
    }
}

/// The Loc-RIB: all decision candidates per prefix, best first.
#[derive(Default)]
pub struct LocRib {
    entries: PrefixTrie<Vec<Route>>,
    /// Total candidate paths held.
    pub path_count: usize,
    generation: u64,
}

impl LocRib {
    /// Empty Loc-RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the candidate set for a prefix (already decision-sorted,
    /// best first). An empty set removes the prefix. Returns the previous
    /// best and the new best.
    pub fn set_candidates(
        &mut self,
        prefix: Prefix,
        sorted: Vec<Route>,
    ) -> (Option<Route>, Option<Route>) {
        self.generation += 1;
        let old_best = self.entries.get(&prefix).and_then(|v| v.first()).cloned();
        if let Some(old) = self.entries.get(&prefix) {
            self.path_count -= old.len();
        }
        let new_best = sorted.first().cloned();
        if sorted.is_empty() {
            self.entries.remove(&prefix);
        } else {
            self.path_count += sorted.len();
            self.entries.insert(prefix, sorted);
        }
        (old_best, new_best)
    }

    /// A count of the changes made to this Loc-RIB: an answer derived from
    /// it stands while this is unchanged.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Best route for a prefix.
    pub fn best(&self, prefix: &Prefix) -> Option<&Route> {
        self.entries.get(prefix).and_then(|v| v.first())
    }

    /// All candidates for a prefix, best first.
    pub fn candidates(&self, prefix: &Prefix) -> &[Route] {
        self.entries.get(prefix).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Longest-prefix-match forwarding lookup on best routes.
    pub fn lookup(&self, addr: IpAddr) -> Option<&Route> {
        self.entries.lookup(addr).and_then(|(_, v)| v.first())
    }

    /// Iterate `(prefix, candidates)`.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &Vec<Route>)> {
        self.entries.iter()
    }

    /// Number of prefixes present.
    pub fn prefix_count(&self) -> usize {
        self.entries.len()
    }
}

/// Bytes of one attribute-set allocation: the `PathAttributes` struct plus
/// its owned heap (AS-path segments, communities, unknown attrs). With
/// interning this is paid once per *distinct* attribute set, however many
/// routes share it.
pub fn attr_body_bytes(attrs: &PathAttributes) -> usize {
    use std::mem::size_of;
    let mut bytes = size_of::<PathAttributes>();
    bytes += attrs
        .as_path
        .segments
        .iter()
        .map(|s| {
            let v = match s {
                crate::attrs::AsPathSegment::Sequence(v) | crate::attrs::AsPathSegment::Set(v) => v,
            };
            size_of::<crate::types::Asn>() * v.len() + 24
        })
        .sum::<usize>();
    bytes += attrs.communities.len() * 4;
    bytes += attrs.large_communities.len() * 12;
    bytes += attrs
        .unknown
        .iter()
        .map(|u| u.value.len() + 24)
        .sum::<usize>();
    bytes
}

/// Per-route bytes excluding the (possibly shared) attribute body: the
/// `Route` struct itself plus trie node + map entry overhead.
pub fn route_overhead_bytes() -> usize {
    std::mem::size_of::<Route>() + 48
}

/// Approximate heap bytes used by one route — the unit of the paper's
/// Fig. 6a memory accounting (they measure ~327 B/route in BIRD). This is
/// the *unshared* accounting: each route is charged its full attribute
/// body, as if attributes were stored inline per route. Interned
/// accounting (see `Speaker::rib_memory_bytes`) charges each distinct
/// attribute allocation once.
pub fn route_memory_bytes(route: &Route) -> usize {
    route_overhead_bytes() + attr_body_bytes(&route.attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::types::{prefix, Asn};

    fn route(p: &str, path_id: PathId, peer: u32) -> Route {
        Route {
            prefix: prefix(p),
            path_id,
            attrs: PathAttributes {
                as_path: AsPath::from_asns(&[Asn(peer)]),
                next_hop: Some("10.0.0.1".parse().unwrap()),
                ..Default::default()
            }
            .into(),
            source: RouteSource::Peer {
                peer: PeerId(peer),
                ebgp: true,
                router_id: RouterId(peer),
                addr: "10.0.0.1".parse().unwrap(),
            },
            stamp: 0,
        }
    }

    #[test]
    fn adj_in_insert_replace_remove() {
        let mut rib = AdjRibIn::new();
        assert!(rib.insert(route("10.0.0.0/8", 1, 7)).is_none());
        assert!(rib.insert(route("10.0.0.0/8", 2, 7)).is_none());
        assert_eq!(rib.path_count, 2);
        assert_eq!(rib.prefix_count(), 1);
        // Replace path 1.
        assert!(rib.insert(route("10.0.0.0/8", 1, 7)).is_some());
        assert_eq!(rib.path_count, 2);
        assert!(rib.remove(&prefix("10.0.0.0/8"), 1).is_some());
        assert_eq!(rib.path_count, 1);
        assert!(rib.remove(&prefix("10.0.0.0/8"), 1).is_none());
        let drained = rib.remove_prefix(&prefix("10.0.0.0/8"));
        assert_eq!(drained.len(), 1);
        assert_eq!(rib.path_count, 0);
        assert_eq!(rib.prefix_count(), 0);
    }

    #[test]
    fn adj_in_clear() {
        let mut rib = AdjRibIn::new();
        for i in 0..10 {
            rib.insert(route(&format!("10.{i}.0.0/16"), 0, 1));
        }
        let drained = rib.clear();
        assert_eq!(drained.len(), 10);
        assert_eq!(rib.path_count, 0);
        assert!(rib.iter().next().is_none());
    }

    #[test]
    fn stale_marking_refresh_and_sweep() {
        let mut rib = AdjRibIn::new();
        rib.insert(route("10.0.0.0/8", 1, 7));
        rib.insert(route("10.1.0.0/16", 1, 7));
        rib.insert(route("10.1.0.0/16", 2, 7));
        rib.mark_all_stale();
        assert_eq!(rib.stale_count(), 3);
        assert!(rib.is_stale(&prefix("10.0.0.0/8"), 1));
        // Re-announcement refreshes one path; explicit withdraw drops one.
        rib.insert(route("10.1.0.0/16", 1, 7));
        assert!(!rib.is_stale(&prefix("10.1.0.0/16"), 1));
        rib.remove(&prefix("10.1.0.0/16"), 2);
        assert_eq!(rib.stale_count(), 1);
        // Sweep removes only what is still stale.
        let swept = rib.sweep_stale();
        assert_eq!(swept.len(), 1);
        assert_eq!(swept[0].prefix, prefix("10.0.0.0/8"));
        assert_eq!(rib.path_count, 1);
        assert_eq!(rib.stale_count(), 0);
        assert!(rib.sweep_stale().is_empty());
    }

    #[test]
    fn loc_rib_best_and_lookup() {
        let mut rib = LocRib::new();
        assert_eq!(rib.generation(), 0);
        let best = route("10.0.0.0/8", 1, 1);
        let backup = route("10.0.0.0/8", 2, 2);
        let (old, new) =
            rib.set_candidates(prefix("10.0.0.0/8"), vec![best.clone(), backup.clone()]);
        assert!(old.is_none());
        assert_eq!(new.as_ref(), Some(&best));
        assert_eq!(rib.best(&prefix("10.0.0.0/8")), Some(&best));
        assert_eq!(rib.candidates(&prefix("10.0.0.0/8")).len(), 2);
        assert_eq!(rib.path_count, 2);
        let found = rib.lookup("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(found, &best);
        // Withdraw everything.
        let (old, new) = rib.set_candidates(prefix("10.0.0.0/8"), vec![]);
        assert_eq!(old, Some(best));
        assert!(new.is_none());
        assert_eq!(rib.path_count, 0);
        assert!(rib.lookup("10.1.2.3".parse().unwrap()).is_none());
        assert_eq!(rib.generation(), 2, "every change counts");
    }

    #[test]
    fn memory_accounting_scales_with_attributes() {
        let small = route("10.0.0.0/8", 1, 1);
        let mut big = small.clone();
        let mut big_attrs = (*big.attrs).clone();
        big_attrs.as_path = AsPath::from_asns(&[Asn(1); 50]);
        big_attrs.communities = vec![crate::types::Community(1); 20];
        big.attrs = big_attrs.into();
        assert!(route_memory_bytes(&big) > route_memory_bytes(&small));
        // Sanity: the paper reports ~327 B/route for BIRD; ours should be
        // the same order of magnitude for a plain route.
        let b = route_memory_bytes(&small);
        assert!((100..2000).contains(&b), "bytes/route = {b}");
    }

    #[test]
    fn route_source_helpers() {
        let r = route("10.0.0.0/8", 0, 3);
        assert!(r.source.is_ebgp());
        assert_eq!(r.source.peer(), Some(PeerId(3)));
        assert!(!RouteSource::Local.is_ebgp());
        assert_eq!(RouteSource::Local.peer(), None);
    }
}
