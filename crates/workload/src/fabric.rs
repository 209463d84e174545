//! IXP-fabric builder: a platform whose route-server members feed a
//! synthetic full table.
//!
//! Mirrors the paper's flagship deployment (§4.2): a PoP at a large IXP
//! whose route server carries hundreds of members — scaling to the
//! production mux's ~900 peers — each announcing its slice of the DFZ.
//! Members are *feed-only*: the route server's member-facing sessions
//! get a reject-all export policy, as a real full-feed transit customer
//! at an IXP route server would filter, so the O(members × prefixes)
//! fan-out happens at the ADD-PATH experiment sessions (where the paper
//! needs it), not as 300M redundant member Adj-RIB-Out entries.
//!
//! The builder is deterministic: a config builds the identical platform,
//! the feed happens at fixed simulated times, and churn replay applies
//! events at fixed quantum boundaries — so runs are bit-identical at any
//! simulator shard count.

use std::collections::BTreeMap;
use std::time::Instant;

use std::net::Ipv4Addr;

use peering_bgp::policy::Policy;
use peering_bgp::rib::PeerId;
use peering_bgp::speaker::PeerCounter;
use peering_bgp::types::Prefix;
use peering_netsim::{Bytes, IpPacket, IpProto, NodeId, SimDuration};
use peering_platform::platform::AttachedExperiment;
use peering_platform::{
    InternetAs, NeighborIntent, NeighborRole, Peering, PlatformIntent, PopIntent, PopKind, Proposal,
};
use peering_toolkit::{AnnounceOptions, ExperimentNode};
use peering_vbgp::VbgpRouter;

use crate::churn::ChurnSchedule;
use crate::dfz::DfzGenerator;

/// Configuration for a DFZ-fed IXP fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Platform build seed.
    pub seed: u64,
    /// PoP count. One PoP is the tentpole "AMS-IX" shape; two or more
    /// add a backbone mesh so sharding tests have cross-shard links.
    pub pops: usize,
    /// Total route-server members, split evenly across PoPs.
    pub members: usize,
    /// Experiments attached (one per PoP, round-robin), each announcing
    /// its leased /24 — the ADD-PATH fan-out consumers.
    pub experiments: usize,
    /// Simulator shards (1 = sequential engine).
    pub shards: usize,
}

/// What the initial table feed measured.
#[derive(Debug, Clone)]
pub struct FeedStats {
    /// Simulated seconds from feed start to stable convergence.
    pub convergence_sim_secs: f64,
    /// Wall-clock seconds the feed + convergence took.
    pub convergence_wall_secs: f64,
    /// Loc-RIB prefix count at each PoP router after convergence.
    pub router_prefixes: Vec<usize>,
}

/// A built platform plus the generator that feeds it.
pub struct DfzFabric {
    /// The platform under workload.
    pub peering: Peering,
    /// The synthetic table.
    pub gen: DfzGenerator,
    /// The attached experiments (ADD-PATH consumers; also the source of
    /// data-plane probes).
    pub experiments: Vec<AttachedExperiment>,
    cfg: FabricConfig,
    /// Member nodes in global slice order.
    member_nodes: Vec<NodeId>,
    /// Withdrawn-route state for churn replay: route index → flap count.
    withdrawn: BTreeMap<usize, u32>,
    flap_counts: BTreeMap<usize, u32>,
}

impl DfzFabric {
    /// The platform intent for a fabric config (exposed so tests can
    /// inspect or tweak it before building).
    pub fn intent(cfg: &FabricConfig) -> PlatformIntent {
        assert!(cfg.pops >= 1 && cfg.members >= cfg.pops);
        let mut pops = Vec::with_capacity(cfg.pops);
        for i in 0..cfg.pops {
            let members = cfg.members / cfg.pops + usize::from(i < cfg.members % cfg.pops);
            pops.push(PopIntent {
                name: format!("dfz{i:02}"),
                kind: PopKind::Ixp,
                neighbors: vec![
                    NeighborIntent {
                        id: 1 + 2 * i as u32,
                        name: format!("dfz{i:02}-transit"),
                        asn: 2_000 + i as u32,
                        role: NeighborRole::Transit,
                        rs_members: 0,
                    },
                    NeighborIntent {
                        id: 2 + 2 * i as u32,
                        name: format!("dfz{i:02}-rs"),
                        asn: 24_000 + i as u32,
                        role: NeighborRole::RouteServer,
                        rs_members: members as u32,
                    },
                ],
                bandwidth_limit: None,
                backbone: cfg.pops > 1,
            });
        }
        PlatformIntent {
            platform_asn: 47065,
            pops,
            experiments: Vec::new(),
        }
    }

    /// Build the platform, mark member sessions feed-only, attach and
    /// start experiments, and let every session establish.
    pub fn build(cfg: FabricConfig, gen: DfzGenerator) -> Self {
        let mut p = Peering::build(Self::intent(&cfg), cfg.seed);
        p.grow_allocation_pools(cfg.experiments + 8, cfg.experiments + 8);
        p.set_shards(cfg.shards);

        // Feed-only members: the RS never re-advertises the table back to
        // members. Set before any session establishes, while every
        // Loc-RIB is empty, so the re-export sweep inside
        // set_export_policy is free.
        let mut member_nodes = Vec::with_capacity(cfg.members);
        for pop in p.pop_names() {
            for (nid, role) in p.neighbors_at(&pop) {
                if role != NeighborRole::RouteServer {
                    continue;
                }
                let rs_node = p.neighbor_node(nid).expect("rs node exists");
                let members = p.rs_members(nid).to_vec();
                for k in 0..members.len() {
                    p.sim.with_node_ctx::<InternetAs, _>(rs_node, |rs, ctx| {
                        let out = rs
                            .host
                            .speaker
                            .set_export_policy(PeerId(1 + k as u32), Policy::reject_all());
                        rs.host.apply(ctx, out);
                    });
                }
                member_nodes.extend(members);
            }
        }
        assert_eq!(member_nodes.len(), cfg.members);

        // Experiments: one PoP each, announcing the leased /24 from it.
        let pops = p.pop_names();
        let mut experiments = Vec::with_capacity(cfg.experiments);
        for i in 0..cfg.experiments {
            let pop = pops[i % pops.len()].clone();
            let mut proposal = Proposal::basic(&format!("dfz-{i:03}"));
            proposal.pops = vec![pop.clone()];
            let mut exp = p.submit(proposal).expect("dfz proposal accepted");
            exp.toolkit
                .open_tunnel(&mut p.sim, &pop)
                .expect("tunnel opens");
            exp.toolkit.start_bgp(&mut p.sim, &pop).expect("bgp starts");
            experiments.push(exp);
        }
        p.run_for(SimDuration::from_secs(15));
        for exp in &mut experiments {
            let prefix = exp.lease.v4[0];
            exp.toolkit
                .announce_everywhere(&mut p.sim, prefix, &AnnounceOptions::default())
                .expect("announce");
        }
        // Member sessions are passive on the RS side with active members;
        // give the slowest connect-retry room to establish.
        p.run_for(SimDuration::from_secs(30));

        DfzFabric {
            peering: p,
            gen,
            experiments,
            cfg,
            member_nodes,
            withdrawn: BTreeMap::new(),
            flap_counts: BTreeMap::new(),
        }
    }

    /// Send one data-plane probe (a UDP packet) from experiment
    /// `exp_index` toward `dst`, through the experiment's learned route
    /// for `via_prefix`. Forwarding consults the router's compiled
    /// fast-path FIBs, so probing during churn drives the lazy
    /// patch-vs-rebuild machinery the obs counters account for. Returns
    /// false when the experiment has no route for `via_prefix` yet.
    pub fn probe(&mut self, exp_index: usize, via_prefix: Prefix, dst: Ipv4Addr) -> bool {
        let exp_node = self.experiments[exp_index].node;
        let src_prefix = self.experiments[exp_index].lease.v4[0];
        let src = match src_prefix {
            Prefix::V4 { addr, .. } => Ipv4Addr::from(u32::from(addr) + 5),
            Prefix::V6 { .. } => unreachable!("v4 lease"),
        };
        let Some((port, next_hop)) = ({
            let node = self
                .peering
                .sim
                .node::<ExperimentNode>(exp_node)
                .expect("experiment node");
            node.routes_for(&via_prefix)
                .first()
                .and_then(|r| node.host.egress(r))
        }) else {
            return false;
        };
        let pkt = IpPacket::new(src, dst, IpProto::Udp, Bytes::from_static(b"dfz-probe"));
        self.peering
            .sim
            .with_node_ctx::<ExperimentNode, _>(exp_node, |n, ctx| {
                n.send_to_next_hop(ctx, port, next_hop, pkt);
            });
        true
    }

    /// The config the fabric was built from.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// The route-server member nodes, in (pop, member) order.
    pub fn member_nodes(&self) -> &[NodeId] {
        &self.member_nodes
    }

    /// The member that owns (announces) route index `i`: contiguous
    /// equal slices in member order.
    pub fn owner_of(&self, i: usize) -> usize {
        let (total, members) = (self.gen.len(), self.member_nodes.len());
        assert!(i < total);
        // Slice m is [m*total/members, (m+1)*total/members); the inverse
        // is a guess-and-correct on the same arithmetic.
        let mut m = (i * members) / total;
        while self.slice_of(m).0 > i {
            m -= 1;
        }
        while self.slice_of(m).1 <= i {
            m += 1;
        }
        m
    }

    /// Route-index range `[start, end)` member `m` announces.
    pub fn slice_of(&self, m: usize) -> (usize, usize) {
        let (total, members) = (self.gen.len(), self.member_nodes.len());
        (m * total / members, (m + 1) * total / members)
    }

    /// Feed every member's slice and run until every PoP router's
    /// Loc-RIB holds the expected prefixes and stays put. Returns the
    /// measured convergence stats.
    pub fn feed(&mut self) -> FeedStats {
        let wall = Instant::now();
        let t0 = self.peering.sim.now();
        for m in 0..self.member_nodes.len() {
            let (start, end) = self.slice_of(m);
            let routes: Vec<_> = (start..end)
                .map(|i| {
                    let r = self.gen.route(i);
                    (r.prefix, r.attrs)
                })
                .collect();
            let node = self.member_nodes[m];
            self.peering
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| {
                    let out = n.host.speaker.originate_many(routes);
                    n.host.apply(ctx, out);
                });
            // Drain between members so TCP windows never back up behind
            // the whole table at once.
            self.peering.run_for(SimDuration::from_millis(200));
        }
        let expected = self.expected_router_prefixes();
        let mut stable = 0;
        let mut last = Vec::new();
        let mut converged_at = self.peering.sim.now();
        while stable < 3 {
            self.peering.run_for(SimDuration::from_secs(1));
            let counts = self.router_prefix_counts();
            if counts == last && counts.iter().all(|&c| c >= expected) {
                stable += 1;
            } else {
                stable = 0;
                converged_at = self.peering.sim.now();
                last = counts;
            }
        }
        FeedStats {
            convergence_sim_secs: (converged_at - t0).as_secs_f64(),
            convergence_wall_secs: wall.elapsed().as_secs_f64(),
            router_prefixes: last,
        }
    }

    /// The Loc-RIB prefix floor every router must reach: the DFZ itself,
    /// each member's baseline /24, each transit's baseline /24, and each
    /// experiment's announced lease.
    pub fn expected_router_prefixes(&self) -> usize {
        self.gen.len() + self.cfg.members + self.cfg.pops + self.cfg.experiments
    }

    /// Every prefix in the `pop_idx`-th PoP router's Loc-RIB
    /// (diagnostic helper for shortfall triage).
    pub fn router_prefix_list(&self, pop_idx: usize) -> Vec<Prefix> {
        let pop = &self.peering.pop_names()[pop_idx];
        let Some(id) = self.peering.router_node(pop) else {
            return Vec::new();
        };
        self.peering
            .sim
            .node::<VbgpRouter>(id)
            .expect("router node")
            .host
            .speaker
            .loc_rib()
            .iter()
            .map(|(p, _)| p)
            .collect()
    }

    /// Whether the `pop_idx`-th PoP router's Loc-RIB holds `prefix`
    /// (diagnostic helper for shortfall triage).
    pub fn router_has_prefix(&self, pop_idx: usize, prefix: Prefix) -> bool {
        let pop = &self.peering.pop_names()[pop_idx];
        let Some(id) = self.peering.router_node(pop) else {
            return false;
        };
        self.peering
            .sim
            .node::<VbgpRouter>(id)
            .expect("router node")
            .host
            .speaker
            .loc_rib()
            .best(&prefix)
            .is_some()
    }

    /// Current Loc-RIB prefix count at each PoP router.
    pub fn router_prefix_counts(&self) -> Vec<usize> {
        self.peering
            .pop_names()
            .iter()
            .filter_map(|pop| self.peering.router_node(pop))
            .map(|id| {
                self.peering
                    .sim
                    .node::<VbgpRouter>(id)
                    .expect("router node")
                    .host
                    .speaker
                    .loc_rib()
                    .prefix_count()
            })
            .collect()
    }

    /// Replay a churn schedule: events apply at `quantum_ms` boundaries
    /// of simulated time (fixed boundaries keep replay bit-identical at
    /// any shard count). Each event toggles its route — withdraw if
    /// announced, re-announce with the next path variant if withdrawn.
    ///
    /// When `probe_every_quanta > 0` (and experiments are attached), a
    /// data-plane probe is sent toward a rotating DFZ destination every
    /// that many quanta. Forwarding the probe consults the routers'
    /// compiled FIBs, which is what drives the lazy patch-vs-rebuild
    /// sync machinery *during* the churn instead of once at the end.
    ///
    /// Returns the number of events applied.
    pub fn replay(
        &mut self,
        schedule: &ChurnSchedule,
        quantum_ms: u64,
        probe_every_quanta: usize,
    ) -> usize {
        let mut applied = 0;
        let mut next_boundary = quantum_ms;
        let mut quantum = 0usize;
        let advance = |fabric: &mut DfzFabric, quantum: &mut usize| {
            fabric.peering.run_for(SimDuration::from_millis(quantum_ms));
            *quantum += 1;
            if probe_every_quanta > 0
                && (*quantum).is_multiple_of(probe_every_quanta)
                && !fabric.experiments.is_empty()
            {
                fabric.probe_rotating(*quantum / probe_every_quanta);
            }
        };
        for &event in schedule.events() {
            while event.at_ms >= next_boundary {
                advance(self, &mut quantum);
                next_boundary += quantum_ms;
            }
            self.toggle(event.route);
            applied += 1;
        }
        let end_ms = schedule.config().duration_secs as u64 * 1000;
        while next_boundary <= end_ms {
            advance(self, &mut quantum);
            next_boundary += quantum_ms;
        }
        applied
    }

    /// Probe toward the `i`-th rotating v4 DFZ destination (deterministic
    /// stride over the v4 table, round-robin over experiments).
    fn probe_rotating(&mut self, i: usize) {
        let v4 = self.gen.config().v4_routes;
        if v4 == 0 {
            return;
        }
        let route = (i * 7919) % v4;
        let prefix = self.gen.prefix(route);
        let dst = match prefix {
            Prefix::V4 { addr, .. } => Ipv4Addr::from(u32::from(addr) + 1),
            Prefix::V6 { .. } => return,
        };
        let exp = i % self.experiments.len();
        self.probe(exp, prefix, dst);
    }

    /// Toggle one route between announced and withdrawn.
    pub fn toggle(&mut self, route: usize) {
        let member = self.member_nodes[self.owner_of(route)];
        let prefix = self.gen.prefix(route);
        if let Some(bump) = self.withdrawn.remove(&route) {
            let attrs = self.gen.route_flapped(route, bump).attrs;
            self.announce(member, prefix, attrs);
        } else {
            let flaps = self.flap_counts.entry(route).or_insert(0);
            *flaps += 1;
            let bump = *flaps;
            self.withdraw(member, prefix);
            self.withdrawn.insert(route, bump);
        }
    }

    /// Re-announce everything churn left withdrawn (deterministic
    /// order), so the fabric returns to a full-table steady state the
    /// convergence oracle can check.
    pub fn heal(&mut self) {
        let withdrawn = std::mem::take(&mut self.withdrawn);
        for (route, bump) in withdrawn {
            let member = self.member_nodes[self.owner_of(route)];
            let prefix = self.gen.prefix(route);
            let attrs = self.gen.route_flapped(route, bump).attrs;
            self.announce(member, prefix, attrs);
        }
    }

    fn announce(
        &mut self,
        member: NodeId,
        prefix: Prefix,
        attrs: peering_bgp::attrs::PathAttributes,
    ) {
        self.peering
            .sim
            .with_node_ctx::<InternetAs, _>(member, |n, ctx| {
                let out = n.host.speaker.originate(prefix, attrs);
                n.host.apply(ctx, out);
            });
    }

    fn withdraw(&mut self, member: NodeId, prefix: Prefix) {
        self.peering
            .sim
            .with_node_ctx::<InternetAs, _>(member, |n, ctx| {
                let out = n.host.speaker.withdraw_origin(prefix);
                n.host.apply(ctx, out);
            });
    }

    /// Attribute-sharing stats at each PoP router: `(pop, adj_in_paths,
    /// interned_attrs)`. The dedup ratio paths/attrs is what the
    /// hash-consed AttrStore buys on a full table (Fig. 6a's slope).
    pub fn router_attr_stats(&self) -> Vec<(String, usize, usize)> {
        self.router_stat(|r| {
            (
                r.host.speaker.total_adj_in_paths(),
                r.host.speaker.attr_store().len(),
            )
        })
        .into_iter()
        .map(|(pop, (paths, attrs))| (pop, paths, attrs))
        .collect()
    }

    /// UPDATE messages each PoP router has received, summed over its
    /// sessions. Adj-RIB-In paths divided by this is the coalescing
    /// effectiveness: how many NLRI the flush packing fit per message.
    pub fn router_updates_in(&self) -> Vec<(String, u64)> {
        self.router_stat(|r| {
            r.host
                .speaker
                .peer_ids()
                .iter()
                .filter_map(|&id| r.host.speaker.peer_stats(id))
                .map(|s| s.get(PeerCounter::UpdatesIn))
                .sum()
        })
    }

    fn router_stat<T>(&self, f: impl Fn(&VbgpRouter) -> T) -> Vec<(String, T)> {
        self.peering
            .pop_names()
            .iter()
            .filter_map(|pop| {
                let id = self.peering.router_node(pop)?;
                let r = self.peering.sim.node::<VbgpRouter>(id)?;
                Some((pop.clone(), f(r)))
            })
            .collect()
    }
}
