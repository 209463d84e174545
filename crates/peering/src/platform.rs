//! The PEERING platform builder (paper §4, Fig. 4).
//!
//! [`Peering::build`] instantiates the whole testbed inside a simulator:
//! one vBGP router per PoP; an L2 fabric per PoP with its neighbors
//! (transits, bilateral peers, a route server fronting the multilateral
//! members at IXPs); a full-mesh "Internet core" interconnecting the
//! transit providers so announcements propagate globally; and the
//! provisioned backbone mesh between backbone PoPs (§4.3.1). Experiments
//! are provisioned turn-key (§4.6): submit a proposal, get back an attached
//! experiment node plus a [`Toolkit`] with credentials for every PoP.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use std::sync::Mutex;

use peering_bgp::rib::{PeerId, Route};
use peering_bgp::types::{Asn, Prefix, RouterId};
use peering_netsim::{LearningSwitch, LinkConfig, MacAddr, NodeId, PortId, SimDuration, Simulator};
use peering_obs::{Obs, Snapshot};
use peering_toolkit::client::{default_tunnel_link, PopAttachment, Toolkit};
use peering_toolkit::node::ExperimentNode;
use peering_vbgp::enforcement::control::{ControlEnforcer, ExperimentPolicy, RateLedger};
use peering_vbgp::enforcement::data::{DataEnforcer, ExperimentDataPolicy, FloodPolicy};
use peering_vbgp::ids::{ExperimentId, NeighborId, PopId};
use peering_vbgp::router::{
    BackboneConfig, ExperimentConfig, NeighborConfig, NeighborKind, RemoteNeighbor, VbgpRouter,
};
use peering_vbgp::ControlCommunities;

use crate::allocation::{AllocationError, AllocationRegistry, Lease};
use crate::experiment::{Proposal, ProposalDecision, Review};
use crate::intent::{NeighborRole, PlatformIntent};
use crate::internet::{InternetAs, Relationship};
use crate::vpn::{VpnCredentials, VpnServer};

/// Platform errors.
#[derive(Debug)]
pub enum PeeringError {
    /// Proposal rejected at review.
    Rejected(String),
    /// Resource allocation failed.
    Allocation(AllocationError),
    /// Unknown PoP name in a proposal.
    UnknownPop(String),
}

impl std::fmt::Display for PeeringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeeringError::Rejected(r) => write!(f, "proposal rejected: {r}"),
            PeeringError::Allocation(e) => write!(f, "allocation failed: {e}"),
            PeeringError::UnknownPop(p) => write!(f, "unknown PoP {p}"),
        }
    }
}

impl std::error::Error for PeeringError {}

/// Everything an approved experimenter receives (§4.6).
pub struct AttachedExperiment {
    /// Experiment id.
    pub id: ExperimentId,
    /// The resource lease.
    pub lease: Lease,
    /// The experiment's router node in the simulator.
    pub node: NodeId,
    /// The Table 1 toolkit, pre-registered with every attached PoP.
    pub toolkit: Toolkit,
    /// VPN credentials per PoP.
    pub credentials: Vec<(String, VpnCredentials)>,
}

struct PopHandle {
    id: PopId,
    name: String,
    router: NodeId,
    fabric_subnet: u8,
    next_port: u16,
    next_tunnel: u8,
    vpn: VpnServer,
    backbone: bool,
    neighbor_ids: Vec<(NeighborId, NeighborRole)>,
    /// Every simulator node living at this PoP (router, fabric switch,
    /// neighbor ASes, route-server members) — the unit of shard placement.
    nodes: Vec<NodeId>,
}

/// Wall-clock breakdown of [`Peering::build`], recorded on every build so
/// scale benches (`scale_sim --profile-setup`) can report where platform
/// startup time goes without re-instrumenting.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildProfile {
    /// PoP fabrics, neighbor ASes, route-server members: node construction
    /// plus session configuration.
    pub pops_secs: f64,
    /// Internet-core full mesh and backbone VLAN mesh wiring.
    pub wiring_secs: f64,
    /// Session start plus the 60-simulated-second convergence run.
    pub converge_secs: f64,
    /// Total build wall-clock.
    pub total_secs: f64,
    /// Simulator events processed by the convergence run.
    pub converge_events: u64,
}

/// The running platform.
pub struct Peering {
    /// The simulator owning every node.
    pub sim: Simulator,
    /// Where the wall-clock time of the last [`Peering::build`] went.
    pub build_profile: BuildProfile,
    /// The desired-state model it was built from.
    pub intent: PlatformIntent,
    platform_asn: Asn,
    pops: Vec<PopHandle>,
    registry: AllocationRegistry,
    review: Review,
    next_exp: u32,
    neighbor_nodes: BTreeMap<NeighborId, NodeId>,
    /// Route-server member nodes per RS neighbor id.
    rs_member_nodes: BTreeMap<NeighborId, Vec<NodeId>>,
}

fn router_port_mac(pop: u32, port: u16) -> MacAddr {
    MacAddr::from_id(0x0100_0000 | (pop << 12) | port as u32)
}

fn neighbor_mac(id: u32) -> MacAddr {
    MacAddr::from_id(0x0200_0000 | id)
}

fn neighbor_addr(subnet: u8, id: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, subnet, (id >> 8) as u8, (id & 0xff) as u8)
}

fn neighbor_prefix(id: u32) -> Prefix {
    Prefix::v4(
        Ipv4Addr::new(198, 18 + (id / 250) as u8, (id % 250) as u8, 0),
        24,
    )
    .expect("synthetic prefix valid")
}

impl Peering {
    /// Build the platform from an intent. Construction wires everything,
    /// starts every session and runs the simulator until BGP converges.
    pub fn build(intent: PlatformIntent, seed: u64) -> Self {
        let t_build = std::time::Instant::now();
        let mut sim = Simulator::new(seed);
        let obs = sim.obs().clone();
        let platform_asn = Asn(intent.platform_asn);
        let cc = ControlCommunities::new(intent.platform_asn as u16);

        let mut pops: Vec<PopHandle> = Vec::new();
        let mut neighbor_nodes: BTreeMap<NeighborId, NodeId> = BTreeMap::new();
        let mut rs_member_nodes: BTreeMap<NeighborId, Vec<NodeId>> = BTreeMap::new();
        let mut transit_nodes: Vec<NodeId> = Vec::new();
        let mut rs_and_members: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        let mut member_asn = 30_000u32;

        // ---- PoPs, fabrics, neighbors ----
        for (pop_index, pop_intent) in intent.pops.iter().enumerate() {
            let pop_id = PopId(pop_index as u32);
            let fabric_subnet = (pop_index + 1) as u8;
            // Each PoP keeps its own rate ledger; AS-wide budgets are
            // reconciled asynchronously over the backbone via gossip
            // frames (eventually consistent — see `RateLedger`). A shared
            // mutex here would serialize shards nondeterministically the
            // moment budgets couple PoPs.
            let ledger = Arc::new(Mutex::new(RateLedger::default()));
            let control = ControlEnforcer::new(pop_id, cc, Arc::clone(&ledger));
            let mut data = DataEnforcer::new();
            // The data plane charges ingress flood budgets against the
            // same per-PoP ledger the control plane uses for update
            // budgets — one gossip stream reconciles both.
            data.set_flood_ledger(pop_id, ledger);
            if let Some(limit) = pop_intent.bandwidth_limit {
                data.set_pop_shaper(limit, limit / 4);
            }
            let mut router = VbgpRouter::new(
                pop_id,
                platform_asn,
                RouterId(1000 + pop_index as u32),
                control,
                data,
            );
            router.set_port_mac(PortId(0), router_port_mac(pop_index as u32, 0));
            router.set_obs(obs.scoped(&pop_intent.name));
            let router_fabric_addr = Ipv4Addr::new(10, fabric_subnet, 255, 254);

            // One switch per PoP fabric: the router + every neighbor node +
            // route-server members.
            let n_members: u32 = pop_intent.neighbors.iter().map(|n| n.rs_members).sum();
            let fabric_ports = 1 + pop_intent.neighbors.len() as u16 + n_members as u16;
            let switch = sim.add_node(Box::new(
                LearningSwitch::new(fabric_ports).with_label(format!("{}-fabric", pop_intent.name)),
            ));
            let fabric_link = LinkConfig::with_latency(SimDuration::from_micros(100));
            let mut next_switch_port: u16 = 0;
            let mut pop_nodes: Vec<NodeId> = vec![switch];

            // Neighbor nodes.
            let mut neighbor_node_cfgs: Vec<(NodeId, NeighborId)> = Vec::new();
            for nbr in &pop_intent.neighbors {
                let nid = NeighborId(nbr.id);
                let nbr_mac = neighbor_mac(nbr.id);
                let nbr_addr = neighbor_addr(fabric_subnet, nbr.id);
                let (relationship, kind) = match nbr.role {
                    NeighborRole::Transit => (Relationship::Customer, NeighborKind::Transit),
                    NeighborRole::Peer => (Relationship::Peer, NeighborKind::Peer),
                    NeighborRole::RouteServer => {
                        (Relationship::RsClient, NeighborKind::RouteServer)
                    }
                };
                let mut node = if nbr.role == NeighborRole::RouteServer {
                    InternetAs::route_server(Asn(nbr.asn), RouterId(nbr.asn))
                } else {
                    let mut n = InternetAs::new(Asn(nbr.asn), RouterId(nbr.asn));
                    n.originate(neighbor_prefix(nbr.id));
                    n
                };
                node.add_session(
                    PeerId(0),
                    relationship,
                    platform_asn,
                    PortId(0),
                    nbr_mac,
                    nbr_addr,
                    router_port_mac(pop_index as u32, 0),
                    router_fabric_addr,
                    true, // the platform initiates
                );
                let node_id = sim.add_node(Box::new(node));
                neighbor_nodes.insert(nid, node_id);
                neighbor_node_cfgs.push((node_id, nid));
                pop_nodes.push(node_id);
                router.add_neighbor(NeighborConfig {
                    id: nid,
                    asn: Asn(nbr.asn),
                    kind,
                    port: PortId(0),
                    remote_mac: nbr_mac,
                    local_addr: router_fabric_addr,
                    remote_addr: nbr_addr,
                    global_index: nbr.id as u16,
                    passive: false,
                });
                if nbr.role == NeighborRole::Transit {
                    transit_nodes.push(node_id);
                }

                // Route-server members: stub ASes peering multilaterally.
                if nbr.rs_members > 0 {
                    let mut members = Vec::new();
                    let mut member_sessions = Vec::new();
                    for m in 0..nbr.rs_members {
                        member_asn += 1;
                        let m_mac = MacAddr::from_id(0x0300_0000 | member_asn);
                        let m_addr = Ipv4Addr::new(
                            10,
                            fabric_subnet,
                            200 + (m / 200) as u8,
                            (m % 200) as u8 + 1,
                        );
                        let mut member = InternetAs::new(Asn(member_asn), RouterId(member_asn));
                        member.originate(neighbor_prefix(member_asn - 30_000 + 5_000));
                        member.add_session(
                            PeerId(0),
                            Relationship::Peer, // the RS looks like a peer
                            Asn(nbr.asn),
                            PortId(0),
                            m_mac,
                            m_addr,
                            neighbor_mac(nbr.id),
                            nbr_addr,
                            false,
                        );
                        let m_id = sim.add_node(Box::new(member));
                        members.push(m_id);
                        member_sessions.push((Asn(member_asn), m_mac, m_addr));
                    }
                    // Register the member sessions on the RS node.
                    sim.with_node_ctx::<InternetAs, _>(node_id, |rs, _| {
                        for (k, &(m_asn, m_mac, m_addr)) in member_sessions.iter().enumerate() {
                            rs.add_session(
                                PeerId(1 + k as u32),
                                Relationship::RsClient,
                                m_asn,
                                PortId(0),
                                neighbor_mac(nbr.id),
                                nbr_addr,
                                m_mac,
                                m_addr,
                                true,
                            );
                        }
                    });
                    pop_nodes.extend(members.iter().copied());
                    rs_member_nodes.insert(nid, members.clone());
                    rs_and_members.push((node_id, members));
                }
            }

            let router_node = sim.add_node(Box::new(router));
            pop_nodes.push(router_node);
            sim.connect(
                router_node,
                PortId(0),
                switch,
                PortId(next_switch_port),
                fabric_link,
            );
            next_switch_port += 1;
            for (node_id, _) in &neighbor_node_cfgs {
                sim.connect(
                    *node_id,
                    PortId(0),
                    switch,
                    PortId(next_switch_port),
                    fabric_link,
                );
                next_switch_port += 1;
            }
            for (_, members) in rs_and_members
                .iter()
                .filter(|(rs, _)| neighbor_node_cfgs.iter().any(|(n, _)| n == rs))
            {
                for m_id in members {
                    sim.connect(
                        *m_id,
                        PortId(0),
                        switch,
                        PortId(next_switch_port),
                        fabric_link,
                    );
                    next_switch_port += 1;
                }
            }

            pops.push(PopHandle {
                id: pop_id,
                name: pop_intent.name.clone(),
                router: router_node,
                fabric_subnet,
                next_port: 1,
                next_tunnel: 1,
                vpn: VpnServer::new(pop_id),
                backbone: pop_intent.backbone,
                neighbor_ids: pop_intent
                    .neighbors
                    .iter()
                    .map(|n| (NeighborId(n.id), n.role))
                    .collect(),
                nodes: pop_nodes,
            });
        }

        let pops_secs = t_build.elapsed().as_secs_f64();
        let t_wiring = std::time::Instant::now();

        // ---- Internet core: transits peer full-mesh over a core switch ----
        if transit_nodes.len() >= 2 {
            let core_switch = sim.add_node(Box::new(
                LearningSwitch::new(transit_nodes.len() as u16).with_label("internet-core"),
            ));
            let core_link = LinkConfig::with_latency(SimDuration::from_millis(10));
            for (i, node) in transit_nodes.iter().enumerate() {
                sim.connect(*node, PortId(1), core_switch, PortId(i as u16), core_link);
            }
            // Pairwise sessions; session ids continue after PeerId(0) (the
            // PEERING session).
            let core_addr = |i: usize| Ipv4Addr::new(10, 255, (i >> 8) as u8, (i & 0xff) as u8 + 1);
            let core_mac = |node: &NodeId| MacAddr::from_id(0x0400_0000 | node.0);
            let mut next_session: Vec<u32> = vec![1; transit_nodes.len()];
            for i in 0..transit_nodes.len() {
                for j in (i + 1)..transit_nodes.len() {
                    let (ni, nj) = (transit_nodes[i], transit_nodes[j]);
                    let (asn_i, asn_j) = (
                        sim.node::<InternetAs>(ni).unwrap().asn(),
                        sim.node::<InternetAs>(nj).unwrap().asn(),
                    );
                    let (si, sj) = (next_session[i], next_session[j]);
                    next_session[i] += 1;
                    next_session[j] += 1;
                    sim.with_node_ctx::<InternetAs, _>(ni, |n, _| {
                        n.add_session(
                            PeerId(si),
                            Relationship::Peer,
                            asn_j,
                            PortId(1),
                            core_mac(&ni),
                            core_addr(i),
                            core_mac(&nj),
                            core_addr(j),
                            false,
                        );
                    });
                    sim.with_node_ctx::<InternetAs, _>(nj, |n, _| {
                        n.add_session(
                            PeerId(sj),
                            Relationship::Peer,
                            asn_i,
                            PortId(1),
                            core_mac(&nj),
                            core_addr(j),
                            core_mac(&ni),
                            core_addr(i),
                            true,
                        );
                    });
                }
            }
        }

        // ---- Backbone mesh (§4.3.1, §4.4) ----
        let backbone_pops: Vec<usize> = pops
            .iter()
            .enumerate()
            .filter(|(_, p)| p.backbone)
            .map(|(i, _)| i)
            .collect();
        for ai in 0..backbone_pops.len() {
            for bi in (ai + 1)..backbone_pops.len() {
                let (a, b) = (backbone_pops[ai], backbone_pops[bi]);
                let port_a = PortId(pops[a].next_port);
                pops[a].next_port += 1;
                let port_b = PortId(pops[b].next_port);
                pops[b].next_port += 1;
                let mac_a = router_port_mac(a as u32, port_a.0);
                let mac_b = router_port_mac(b as u32, port_b.0);
                let addr_a = Ipv4Addr::new(10, 254, a as u8, b as u8);
                let addr_b = Ipv4Addr::new(10, 254, b as u8, a as u8);
                let remote_of = |idx: usize, pops: &[PopHandle]| -> Vec<RemoteNeighbor> {
                    pops[idx]
                        .neighbor_ids
                        .iter()
                        .map(|(id, _)| RemoteNeighbor {
                            id: *id,
                            global_index: id.0 as u16,
                        })
                        .collect()
                };
                let remote_b = remote_of(b, &pops);
                let remote_a = remote_of(a, &pops);
                let (router_a, router_b) = (pops[a].router, pops[b].router);
                sim.with_node_ctx::<VbgpRouter, _>(router_a, |r, _| {
                    r.set_port_mac(port_a, mac_a);
                    r.add_backbone_peer(BackboneConfig {
                        port: port_a,
                        remote_mac: mac_b,
                        local_addr: addr_a,
                        remote_addr: addr_b,
                        remote_neighbors: remote_b,
                        passive: false,
                    });
                });
                sim.with_node_ctx::<VbgpRouter, _>(router_b, |r, _| {
                    r.set_port_mac(port_b, mac_b);
                    r.add_backbone_peer(BackboneConfig {
                        port: port_b,
                        remote_mac: mac_a,
                        local_addr: addr_b,
                        remote_addr: addr_a,
                        remote_neighbors: remote_a,
                        passive: true,
                    });
                });
                // Provisioned VLAN over the education networks: latency
                // varies per pair, capacity ~1 Gbps (§4.3.1, §6).
                let latency = SimDuration::from_millis(8 + 11 * ((a + b) as u64 % 7));
                let link = LinkConfig::provisioned(latency, 1_000_000_000)
                    .with_queue_bytes(2 * 1024 * 1024);
                sim.connect(router_a, port_a, router_b, port_b, link);
            }
        }

        let wiring_secs = t_wiring.elapsed().as_secs_f64();
        let t_converge = std::time::Instant::now();
        let events_before = sim.processed_events;

        // ---- start everything ----
        let router_nodes: Vec<NodeId> = pops.iter().map(|p| p.router).collect();
        for r in router_nodes {
            sim.with_node_ctx::<VbgpRouter, _>(r, |router, ctx| router.start(ctx));
        }
        let mut as_nodes: Vec<NodeId> = neighbor_nodes.values().copied().collect();
        for members in rs_member_nodes.values() {
            as_nodes.extend(members.iter().copied());
        }
        for node in as_nodes {
            sim.with_node_ctx::<InternetAs, _>(node, |n, ctx| n.start(ctx));
        }
        sim.run_for(SimDuration::from_secs(60));
        let build_profile = BuildProfile {
            pops_secs,
            wiring_secs,
            converge_secs: t_converge.elapsed().as_secs_f64(),
            total_secs: t_build.elapsed().as_secs_f64(),
            converge_events: sim.processed_events - events_before,
        };

        Peering {
            sim,
            build_profile,
            intent,
            platform_asn,
            pops,
            registry: AllocationRegistry::new(),
            review: Review::default(),
            next_exp: 1,
            neighbor_nodes,
            rs_member_nodes,
        }
    }

    /// The platform-wide observability handle: the simulator's registry
    /// and journal, shared by every vBGP router (scoped per PoP) and their
    /// muxes, enforcement engines and routing engines.
    pub fn obs(&self) -> &Obs {
        self.sim.obs()
    }

    /// Shard the simulator for parallel execution: each PoP's nodes
    /// (router, fabric switch, neighbor ASes, RS members) are placed
    /// together on shard `pop_index % shards`, while global nodes — the
    /// internet-core switch and experiment routers — stay on shard 0. Only
    /// inter-PoP links (backbone VLANs, core peerings, tunnels) cross shard
    /// boundaries, and all of them have real propagation delay, so the
    /// simulator gets a useful conservative lookahead. Results are
    /// bit-identical to `shards = 1` (see the `peering-netsim` docs).
    pub fn set_shards(&mut self, shards: usize) {
        self.sim.set_shards(shards);
        let shards = self.sim.shards();
        if shards == 1 {
            return;
        }
        for id in self.sim.node_ids() {
            self.sim.set_node_shard(id, 0);
        }
        let assignments: Vec<(NodeId, usize)> = self
            .pops
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.nodes.iter().map(move |n| (*n, i % shards)))
            .collect();
        for (node, shard) in assignments {
            self.sim.set_node_shard(node, shard);
        }
    }

    /// Grow the allocation pools past the published footprint with
    /// synthetic ASNs and RFC1918 /24s. The real platform's resources cap
    /// concurrency at seven leases; scale benches attaching dozens of
    /// experiments call this first (see
    /// [`AllocationRegistry::grow_synthetic`]).
    pub fn grow_allocation_pools(&mut self, extra_asns: usize, extra_v4: usize) {
        self.registry.grow_synthetic(extra_asns, extra_v4);
    }

    /// Snapshot the full metrics registry (stable, name-sorted; identical
    /// seeds yield identical snapshots). The same as `obs().snapshot()`.
    pub fn obs_snapshot(&mut self) -> Snapshot {
        self.obs().snapshot()
    }

    /// The platform ASN.
    pub fn platform_asn(&self) -> Asn {
        self.platform_asn
    }

    /// PoP names in build order.
    pub fn pop_names(&self) -> Vec<String> {
        self.pops.iter().map(|p| p.name.clone()).collect()
    }

    /// The vBGP router node of a PoP.
    pub fn router_node(&self, pop: &str) -> Option<NodeId> {
        self.pops.iter().find(|p| p.name == pop).map(|p| p.router)
    }

    /// Neighbor ids (and roles) at a PoP.
    pub fn neighbors_at(&self, pop: &str) -> Vec<(NeighborId, NeighborRole)> {
        self.pops
            .iter()
            .find(|p| p.name == pop)
            .map(|p| p.neighbor_ids.clone())
            .unwrap_or_default()
    }

    /// The simulator node of a neighbor AS.
    pub fn neighbor_node(&self, id: NeighborId) -> Option<NodeId> {
        self.neighbor_nodes.get(&id).copied()
    }

    /// Route-server member nodes behind an RS neighbor.
    pub fn rs_members(&self, id: NeighborId) -> &[NodeId] {
        self.rs_member_nodes
            .get(&id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// A PoP's update-rate ledger (§3.3 "state can be synchronized among
    /// vBGP instances" — here via backbone gossip, so each PoP owns one).
    pub fn ledger_at(&self, pop: &str) -> Option<Arc<Mutex<RateLedger>>> {
        let node = self.router_node(pop)?;
        Some(self.sim.node::<VbgpRouter>(node)?.control.ledger())
    }

    /// Configure (or clear) the AS-wide daily update budget per
    /// (experiment, prefix), on every PoP's ledger. With per-PoP ledgers
    /// the budget is enforced against each PoP's best knowledge of the
    /// platform-wide spend; backbone gossip reconciles that knowledge, so
    /// during a partition the platform can overshoot by at most what the
    /// unreachable PoPs spend (bounded by `(pops - 1) × limit`), and
    /// reconverges within one gossip period after heal.
    pub fn set_as_wide_update_limit(&mut self, limit: Option<u32>) {
        let routers: Vec<NodeId> = self.pops.iter().map(|p| p.router).collect();
        for r in routers {
            self.sim.with_node_ctx::<VbgpRouter, _>(r, |router, _| {
                router
                    .control
                    .ledger()
                    .lock()
                    .unwrap()
                    .set_as_wide_limit(limit)
            });
        }
    }

    /// Install (or clear, with `None`) a sandboxed packet program for an
    /// experiment: at one PoP (`Some(name)`) or everywhere it is attached
    /// (`None`). Returns the program's validation result — an *invalid*
    /// program is still installed and fails closed (every packet blocked),
    /// so a typo cannot silently disable enforcement.
    pub fn install_packet_program(
        &mut self,
        exp: ExperimentId,
        pop: Option<&str>,
        program: Option<peering_vbgp::enforcement::pprog::PacketProgram>,
    ) -> Result<(), PeeringError> {
        self.install_where_attached(exp, pop, "packet", |router| {
            router.data.install_packet_program(exp, program.clone())
        })
    }

    /// Configure an experiment's *ingress* serving policy — strict
    /// reverse-path validation, an optional ingress packet program (same
    /// fail-closed contract as [`Peering::install_packet_program`]), and
    /// an optional flood budget charged against the shared rate ledger —
    /// at one PoP (`Some(name)`) or everywhere it is attached (`None`).
    /// Experiments that never call this pay nothing on the delivery path.
    pub fn install_ingress_policy(
        &mut self,
        exp: ExperimentId,
        pop: Option<&str>,
        urpf: bool,
        program: Option<peering_vbgp::enforcement::pprog::PacketProgram>,
        flood: Option<FloodPolicy>,
    ) -> Result<(), PeeringError> {
        self.install_where_attached(exp, pop, "ingress", |router| {
            router.data.set_ingress_guards(exp, urpf, flood);
            router.data.install_ingress_program(exp, program.clone())
        })
    }

    /// Run `install` on the router of the named PoP, or of every PoP where
    /// `exp` is attached, and report an invalid `kind` program from any.
    /// A named PoP where `exp` is not attached is rejected.
    fn install_where_attached<E: std::fmt::Display>(
        &mut self,
        exp: ExperimentId,
        pop: Option<&str>,
        kind: &str,
        install: impl Fn(&mut VbgpRouter) -> Result<(), E>,
    ) -> Result<(), PeeringError> {
        let attached = |p: &PopHandle| {
            let router = self.sim.node::<VbgpRouter>(p.router);
            router.is_some_and(|r| r.data.has_experiment(exp))
        };
        let routers: Vec<NodeId> = match pop {
            Some(name) => {
                let handle = self
                    .pops
                    .iter()
                    .find(|p| p.name == name)
                    .ok_or_else(|| PeeringError::Rejected(format!("unknown PoP {name}")))?;
                if !attached(handle) {
                    return Err(PeeringError::Rejected(format!(
                        "experiment {} is not attached at {name}",
                        exp.0
                    )));
                }
                vec![handle.router]
            }
            None => self
                .pops
                .iter()
                .filter(|p| attached(p))
                .map(|p| p.router)
                .collect(),
        };
        let mut result = Ok(());
        for r in routers {
            if let Err(e) = self
                .sim
                .with_node_ctx::<VbgpRouter, _>(r, |router, _| install(router))
            {
                result = Err(PeeringError::Rejected(format!(
                    "invalid {kind} program: {e}"
                )));
            }
        }
        result
    }

    /// Run the simulation forward.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.sim.run_for(duration);
    }

    /// Looking-glass: the best route a neighbor AS holds for an address
    /// (§8 / Appendix A's debugging surface).
    pub fn looking_glass(&self, nbr: NeighborId, dst: Ipv4Addr) -> Option<Route> {
        let node = self.neighbor_node(nbr)?;
        self.sim.node::<InternetAs>(node)?.best_route(dst)
    }

    /// Appendix A: automated route-propagation troubleshooting. For a
    /// prefix, report what every neighbor AS currently holds — `None`
    /// pinpoints where announcements are being filtered, the manual
    /// looking-glass hunt the paper describes ("identify the network that
    /// is incorrectly filtering") done in one sweep.
    pub fn trace_propagation(
        &self,
        prefix: peering_bgp::types::Prefix,
    ) -> Vec<(NeighborId, String, Option<Route>)> {
        let mut out = Vec::new();
        for handle in &self.pops {
            for (nbr, _) in &handle.neighbor_ids {
                let Some(node) = self.neighbor_node(*nbr) else {
                    continue;
                };
                let Some(n) = self.sim.node::<InternetAs>(node) else {
                    continue;
                };
                let route = n
                    .host
                    .speaker
                    .loc_rib()
                    .candidates(&prefix)
                    .first()
                    .cloned();
                out.push((*nbr, handle.name.clone(), route));
            }
        }
        out
    }

    /// Submit a proposal (§4.6): review, allocate, build the experiment
    /// node, attach it at the requested PoPs (all PoPs if unspecified) and
    /// hand back the toolkit. Tunnels start closed; the experimenter opens
    /// them with the toolkit.
    pub fn submit(&mut self, proposal: Proposal) -> Result<AttachedExperiment, PeeringError> {
        let caps = match self.review.review(&proposal) {
            ProposalDecision::Approve(caps) => caps,
            ProposalDecision::Reject(reason) => return Err(PeeringError::Rejected(reason)),
        };
        let pop_names: Vec<String> = if proposal.pops.is_empty() {
            self.pop_names()
        } else {
            for p in &proposal.pops {
                if !self.pops.iter().any(|h| &h.name == p) {
                    return Err(PeeringError::UnknownPop(p.clone()));
                }
            }
            proposal.pops.clone()
        };
        let exp = ExperimentId(self.next_exp);
        let lease = self
            .registry
            .allocate(exp, proposal.v4_prefixes, proposal.want_v6, proposal.days)
            .map_err(PeeringError::Allocation)?;
        self.next_exp += 1;

        // The experimenter's router node.
        let mut node = ExperimentNode::new(lease.asn, RouterId(2_000_000 + exp.0));

        let mut policy_prefixes = lease.v4.clone();
        if let Some(v6) = lease.v6 {
            policy_prefixes.push(v6);
        }

        // Attach at each PoP: a tunnel port pair + interposed session.
        let mut attachments: Vec<PopAttachment> = Vec::new();
        let mut credentials = Vec::new();
        let mut sessions: Vec<(NodeId, MacAddr, Ipv4Addr, MacAddr, Ipv4Addr, PeerId)> = Vec::new();
        for (k, pop_name) in pop_names.iter().enumerate() {
            let handle = self
                .pops
                .iter_mut()
                .find(|h| &h.name == pop_name)
                .expect("validated above");
            let router_port = PortId(handle.next_port);
            handle.next_port += 1;
            let tunnel_idx = handle.next_tunnel;
            handle.next_tunnel += 1;
            let local_mac = router_port_mac(handle.id.0, router_port.0);
            let remote_mac = peering_toolkit::client::experiment_mac(exp.0, k as u16);
            let local_addr = Ipv4Addr::new(100, 64 + handle.fabric_subnet, tunnel_idx, 1);
            let remote_addr = Ipv4Addr::new(100, 64 + handle.fabric_subnet, tunnel_idx, 2);
            let creds = handle.vpn.authorize(exp);
            credentials.push((pop_name.clone(), creds));
            let exp_port = PortId(k as u16);
            let router_node = handle.router;

            let peer = self
                .sim
                .with_node_ctx::<VbgpRouter, _>(router_node, |r, _| {
                    r.set_port_mac(router_port, local_mac);
                    r.add_experiment(ExperimentConfig {
                        id: exp,
                        asn: lease.asn,
                        port: router_port,
                        remote_mac,
                        local_addr,
                        remote_addr,
                        global_index: Some(20_000 + (exp.0 * 32) as u16 + k as u16),
                        policy: ExperimentPolicy {
                            allocations: policy_prefixes.clone(),
                            asns: vec![lease.asn],
                            caps: caps.clone(),
                        },
                        data: ExperimentDataPolicy {
                            allowed_sources: policy_prefixes.clone(),
                            ..Default::default()
                        },
                    })
                });
            sessions.push((
                router_node,
                local_mac,
                local_addr,
                remote_mac,
                remote_addr,
                peer,
            ));
            attachments.push(PopAttachment {
                name: pop_name.clone(),
                router: router_node,
                router_port,
                local_port: exp_port,
                session: PeerId(k as u32),
                // §7.4 extension: colocated experiments run in a container
                // on the PEERING server itself — a local veth hop instead
                // of an OpenVPN path over the Internet.
                link: if proposal.colocated {
                    peering_netsim::LinkConfig::with_latency(SimDuration::from_micros(30))
                } else {
                    default_tunnel_link()
                },
            });
        }

        // Configure the node's sessions and add it to the simulator.
        for (k, (_, local_mac, local_addr, remote_mac, remote_addr, _)) in
            sessions.iter().enumerate()
        {
            node.add_pop_session(
                PeerId(k as u32),
                PortId(k as u16),
                *remote_mac,
                *remote_addr,
                *local_mac,
                *local_addr,
                self.platform_asn,
            );
        }
        let node_id = self.sim.add_node(Box::new(node));

        // Start the router-side (passive) sessions.
        for (router_node, _, _, _, _, peer) in &sessions {
            let (router_node, peer) = (*router_node, *peer);
            self.sim
                .with_node_ctx::<VbgpRouter, _>(router_node, |r, ctx| r.start_session(ctx, peer));
        }

        let announce_src = sessions
            .first()
            .map(|(_, _, _, _, remote_addr, _)| *remote_addr)
            .unwrap_or(Ipv4Addr::UNSPECIFIED);
        let mut toolkit = Toolkit::new(node_id, self.platform_asn, announce_src);
        for att in attachments {
            toolkit.register_pop(att);
        }

        Ok(AttachedExperiment {
            id: exp,
            lease,
            node: node_id,
            toolkit,
            credentials,
        })
    }

    /// End an experiment: detach at every PoP and release its resources.
    pub fn teardown(&mut self, attached: &AttachedExperiment) -> Result<(), PeeringError> {
        for handle in &mut self.pops {
            handle.vpn.revoke(attached.id);
        }
        let routers: Vec<NodeId> = self.pops.iter().map(|p| p.router).collect();
        for router in routers {
            let exp = attached.id;
            self.sim
                .with_node_ctx::<VbgpRouter, _>(router, |r, ctx| r.remove_experiment(ctx, exp));
        }
        self.registry
            .release(attached.id)
            .map_err(PeeringError::Allocation)
    }
}
