//! The scenario fixture: a small PEERING deployment plus a seeded AS
//! hierarchy hanging off its transits.
//!
//! [`ScenarioNet::build`] stands up three IXP PoPs, each hosting one
//! transit AS (the transits are full-mesh peers over the platform core),
//! attaches one reviewed experiment with poisoning + community
//! capabilities, and then grows a seeded two-tier customer cone under the
//! transits: mid-tier ASes (some multihomed, some peering laterally),
//! stub customers, and one multihomed *vantage* stub whose providers sit
//! in different transit cones — the return-path steering target for the
//! poisoning scenario.
//!
//! Two ASes are placed deterministically regardless of seed so every
//! scenario family has its protagonist: mid `3000` (the designated route
//! leaker, multihomed to transits 2000 and 2001, peered with mid `3001`)
//! and mid `3001` (kept single-homed to transit 2001 so the vantage's
//! alternate return path is unambiguous). Everything else — extra
//! multihoming, lateral peerings — is drawn from the seed.
//!
//! The fixture mirrors itself into the pure-Rust reference
//! [`Model`] ([`ScenarioNet::model`]) and exposes
//! [`ScenarioNet::observe`] + [`reconcile`] so every scenario run is a
//! differential test against that model.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use peering_bgp::policy::{Match, Rule};
use peering_bgp::rib::PeerId;
use peering_bgp::types::{Asn, Prefix, RouterId};
use peering_netsim::{Bytes, LinkConfig, MacAddr, NodeId, PortId, SimDuration, SimRng};
use peering_obs::EventKind;
use peering_platform::experiment::CapabilityRequest;
use peering_platform::{
    AttachedExperiment, InternetAs, NeighborIntent, NeighborRole, Peering, PlatformIntent,
    PopIntent, PopKind, Proposal, Relationship,
};
use peering_toolkit::client::AnnounceOptions;
use peering_toolkit::node::ExperimentNode;
use peering_vbgp::ids::NeighborId;

use crate::model::{Injection, Model, ModelAs, Predicted, Rel};
use crate::report::AsVerdict;

/// The platform's ASN (PEERING's real AS47065).
pub const PLATFORM_ASN: u32 = 47065;
/// PoP / transit count.
pub const POPS: usize = 3;
/// First transit ASN; transit `i` is `TRANSIT_ASN0 + i` at PoP `i`.
pub const TRANSIT_ASN0: u32 = 2000;
/// First mid-tier ASN.
pub const MID_ASN0: u32 = 3000;
/// First stub ASN.
pub const STUB_ASN0: u32 = 4000;
/// The multihomed vantage stub (providers in two transit cones).
pub const VANTAGE_ASN: u32 = 4999;

const GRAPH_SALT: u64 = 0x5ce7_0a51_0b1d_c0de;

/// Fixture knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// Seed for topology generation and the simulator.
    pub seed: u64,
    /// Mid-tier AS count (≥ 4: ASes 3000..3003 have fixed roles).
    pub mids: usize,
    /// Stub customers per mid.
    pub stubs_per_mid: usize,
    /// Simulator shards to run under.
    pub shards: usize,
}

impl ScenarioParams {
    /// The default fixture: 6 mids × 2 stubs, single shard.
    pub fn new(seed: u64) -> Self {
        ScenarioParams {
            seed,
            mids: 6,
            stubs_per_mid: 2,
            shards: 1,
        }
    }

    /// Same fixture under `shards` simulator shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// One BGP session as seen from a scenario AS.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Session id on the local speaker.
    pub id: PeerId,
    /// What the remote is to us.
    pub rel: Relationship,
    /// Remote ASN.
    pub remote_asn: u32,
    /// Our interface address on the link.
    pub local_addr: Ipv4Addr,
    /// Their interface address on the link.
    pub remote_addr: Ipv4Addr,
}

/// One scenario AS (mid, stub or vantage).
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// Its ASN.
    pub asn: u32,
    /// Its simulator node.
    pub node: NodeId,
    /// The prefix it originates.
    pub prefix: Prefix,
    /// Provider ASNs.
    pub providers: Vec<u32>,
    /// Lateral peer ASNs.
    pub peers: Vec<u32>,
    /// Customer ASNs.
    pub customers: Vec<u32>,
    /// Home PoP (shard placement + catchment expectations).
    pub pop: usize,
    /// Its sessions.
    pub sessions: Vec<SessionInfo>,
}

/// What one AS actually held in the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// A best route for the measured prefix exists.
    pub has_route: bool,
    /// Its LOCAL_PREF.
    pub local_pref: Option<u32>,
    /// Its AS_PATH length.
    pub path_len: Option<usize>,
    /// The path contains the adversary.
    pub via: bool,
    /// The concrete AS_PATH.
    pub path: Vec<u32>,
}

/// The scenario fixture.
pub struct ScenarioNet {
    /// The platform under test.
    pub platform: Peering,
    /// The attached experiment (lease, toolkit, node).
    pub exp: AttachedExperiment,
    /// Build parameters.
    pub params: ScenarioParams,
    /// Transit ASN → (node, PoP index).
    pub transits: BTreeMap<u32, (NodeId, usize)>,
    /// Scenario ASes by ASN (mids, stubs, vantage).
    pub ases: BTreeMap<u32, AsInfo>,
    /// Sessions on transit nodes toward mids: (transit ASN, session, mid
    /// ASN) — the Peerlock deployment surface.
    pub transit_sessions: Vec<(u32, PeerId, u32)>,
    /// The designated leaker mid.
    pub leaker: u32,
    /// The multihomed vantage stub.
    pub vantage: u32,
    leaker_active: bool,
    te_enabled: bool,
    /// (at, from) → ASNs whose presence in a path `at` rejects from `from`.
    reject_contains: BTreeMap<(u32, u32), Vec<u32>>,
    /// (at, from) → reject paths at least this long.
    len_caps: BTreeMap<(u32, u32), usize>,
}

struct AsPlan {
    asn: u32,
    prefix: Prefix,
    providers: Vec<u32>,
    pop: usize,
}

impl ScenarioNet {
    /// Build the platform, attach the experiment, grow the seeded AS
    /// hierarchy and converge it.
    pub fn build(params: ScenarioParams) -> Self {
        assert!(
            (4..=24).contains(&params.mids),
            "mids 3000..3003 carry fixed scenario roles"
        );
        assert!((1..=4).contains(&params.stubs_per_mid));
        assert!(params.shards >= 1);

        let intent = PlatformIntent {
            platform_asn: PLATFORM_ASN,
            pops: (0..POPS)
                .map(|i| PopIntent {
                    name: format!("pop{i}"),
                    kind: PopKind::Ixp,
                    neighbors: vec![NeighborIntent {
                        id: (i + 1) as u32,
                        name: format!("transit{i}"),
                        asn: TRANSIT_ASN0 + i as u32,
                        role: NeighborRole::Transit,
                        rs_members: 0,
                    }],
                    bandwidth_limit: None,
                    backbone: false,
                })
                .collect(),
            experiments: Vec::new(),
        };
        let mut platform = Peering::build(intent, params.seed);

        let mut proposal = Proposal::basic("adversarial-scenarios");
        proposal.goals = "route-leak containment, path poisoning, community TE".to_string();
        proposal.v4_prefixes = 6;
        proposal.capabilities = vec![
            CapabilityRequest::Poisoning { max: 8 },
            CapabilityRequest::Communities { max: 8 },
        ];
        let mut exp = platform.submit(proposal).expect("proposal approved");
        for pop in platform.pop_names() {
            exp.toolkit
                .open_tunnel(&mut platform.sim, &pop)
                .expect("tunnel");
            exp.toolkit
                .start_bgp(&mut platform.sim, &pop)
                .expect("bgp up");
        }
        platform.run_for(SimDuration::from_secs(15));

        let mut transits = BTreeMap::new();
        for i in 0..POPS {
            let node = platform
                .neighbor_node(NeighborId((i + 1) as u32))
                .expect("transit node");
            transits.insert(TRANSIT_ASN0 + i as u32, (node, i));
        }
        // Transits journal their valley-free / Peerlock suppressions.
        for (&asn, &(node, _)) in &transits {
            let obs = platform.obs().scoped(&format!("as{asn}"));
            platform
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, _| n.set_obs(obs));
        }

        // --- seeded AS hierarchy -------------------------------------
        let mut rng = SimRng::new(params.seed ^ GRAPH_SALT);
        let mut plans: Vec<AsPlan> = Vec::new();
        for j in 0..params.mids {
            let asn = MID_ASN0 + j as u32;
            let primary = j % POPS;
            let mut providers = vec![TRANSIT_ASN0 + primary as u32];
            if j == 0 {
                // The leaker: multihomed so its leak crosses cones.
                providers.push(TRANSIT_ASN0 + 1);
            } else if j == 1 || j == 2 {
                // Kept single-homed: 3001 so the poison scenario's
                // alternate return path is unambiguous (no (pref, len)
                // tie at the vantage), 3002 so transit 2002's cone always
                // contains at least one stub whose ingress catchment the
                // TE prepend community can move.
            } else if rng.below(100) < 50 {
                let secondary = (primary + 1 + rng.below(2) as usize) % POPS;
                providers.push(TRANSIT_ASN0 + secondary as u32);
            }
            plans.push(AsPlan {
                asn,
                prefix: Prefix::v4(Ipv4Addr::new(203, 0, j as u8, 0), 24).expect("mid prefix"),
                providers,
                pop: primary,
            });
        }
        // Lateral peerings: (3000, 3001) always (the leaker needs a
        // peer-learned route to leak); others from the seed.
        let mut peerings: Vec<(usize, usize)> = vec![(0, 1)];
        for j in 0..params.mids {
            for k in (j + 1)..params.mids {
                if (j, k) != (0, 1) && rng.below(100) < 15 {
                    peerings.push((j, k));
                }
            }
        }
        for j in 0..params.mids {
            for s in 0..params.stubs_per_mid {
                let k = j * params.stubs_per_mid + s;
                plans.push(AsPlan {
                    asn: STUB_ASN0 + k as u32,
                    prefix: Prefix::v4(Ipv4Addr::new(203, 1, k as u8, 0), 24).expect("stub prefix"),
                    providers: vec![MID_ASN0 + j as u32],
                    pop: j % POPS,
                });
            }
        }
        // The vantage: one provider in transit 2000's cone (mid 3003, a
        // primary-pop0 mid), one in 2001's (mid 3001).
        plans.push(AsPlan {
            asn: VANTAGE_ASN,
            prefix: Prefix::v4(Ipv4Addr::new(203, 2, 0, 0), 24).expect("vantage prefix"),
            providers: vec![MID_ASN0 + 3, MID_ASN0 + 1],
            pop: 0,
        });

        let mut ases: BTreeMap<u32, AsInfo> = BTreeMap::new();
        for plan in &plans {
            let mut n = InternetAs::new(Asn(plan.asn), RouterId(plan.asn));
            n.originate(plan.prefix);
            n.set_obs(platform.obs().scoped(&format!("as{}", plan.asn)));
            let node = platform.sim.add_node(Box::new(n));
            ases.insert(
                plan.asn,
                AsInfo {
                    asn: plan.asn,
                    node,
                    prefix: plan.prefix,
                    providers: plan.providers.clone(),
                    peers: Vec::new(),
                    customers: Vec::new(),
                    pop: plan.pop,
                    sessions: Vec::new(),
                },
            );
        }
        for plan in &plans {
            for &p in &plan.providers {
                if p >= MID_ASN0 {
                    let info = ases.get_mut(&p).expect("provider mid exists");
                    info.customers.push(plan.asn);
                }
            }
        }
        for &(j, k) in &peerings {
            let (a, b) = (MID_ASN0 + j as u32, MID_ASN0 + k as u32);
            ases.get_mut(&a).expect("mid").peers.push(b);
            ases.get_mut(&b).expect("mid").peers.push(a);
        }

        // --- wiring ---------------------------------------------------
        // Per-node free-port and free-session counters. Transit nodes
        // already use port 0 (fabric) and 1 (core mesh), and sessions 0
        // (platform) plus 1.. (core); scenario sessions start at 100.
        let mut next_port: BTreeMap<NodeId, u16> = BTreeMap::new();
        let mut next_sess: BTreeMap<NodeId, u32> = BTreeMap::new();
        for &(node, _) in transits.values() {
            next_port.insert(node, 2);
            next_sess.insert(node, 100);
        }
        for info in ases.values() {
            next_port.insert(info.node, 0);
            next_sess.insert(info.node, 0);
        }

        let mut net = ScenarioNet {
            platform,
            exp,
            params,
            transits,
            ases,
            transit_sessions: Vec::new(),
            leaker: MID_ASN0,
            vantage: VANTAGE_ASN,
            leaker_active: false,
            te_enabled: false,
            reject_contains: BTreeMap::new(),
            len_caps: BTreeMap::new(),
        };

        let mut seq: u32 = 0;
        // Provider links, in plan order (mids, stubs, vantage).
        for plan in &plans {
            for &p in &plan.providers {
                net.wire(p, plan.asn, &mut seq, &mut next_port, &mut next_sess);
            }
        }
        // Lateral mid peerings.
        for &(j, k) in &peerings {
            net.wire_rel(
                MID_ASN0 + j as u32,
                Relationship::Peer,
                MID_ASN0 + k as u32,
                &mut seq,
                &mut next_port,
                &mut next_sess,
            );
        }

        // Start transit-side sessions (their hosts are already running;
        // session-up replays the full Adj-RIB-Out), then the scenario
        // nodes.
        let starts: Vec<(NodeId, PeerId)> = net
            .transit_sessions
            .iter()
            .map(|(t, s, _)| (net.transits[t].0, *s))
            .collect();
        for (node, session) in starts {
            net.platform
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| {
                    n.host.start(ctx, session);
                });
        }
        let scenario_nodes: Vec<NodeId> = net.ases.values().map(|i| i.node).collect();
        for node in scenario_nodes {
            net.platform
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| n.start(ctx));
        }

        if net.params.shards > 1 {
            net.platform.set_shards(net.params.shards);
            let shards = net.platform.sim.shards();
            let placement: Vec<(NodeId, usize)> = net
                .ases
                .values()
                .map(|i| (i.node, i.pop % shards))
                .collect();
            for (node, shard) in placement {
                net.platform.sim.set_node_shard(node, shard);
            }
        }
        net.platform.run_for(SimDuration::from_secs(40));
        net
    }

    /// Connect `upper` (provider side if transit/mid, passive opener) to
    /// `lower` (customer, active opener).
    fn wire(
        &mut self,
        upper: u32,
        lower: u32,
        seq: &mut u32,
        next_port: &mut BTreeMap<NodeId, u16>,
        next_sess: &mut BTreeMap<NodeId, u32>,
    ) {
        self.wire_rel(
            upper,
            Relationship::Customer,
            lower,
            seq,
            next_port,
            next_sess,
        );
    }

    /// Connect two ASes; `rel_at_upper` is what `lower` is to `upper`.
    fn wire_rel(
        &mut self,
        upper: u32,
        rel_at_upper: Relationship,
        lower: u32,
        seq: &mut u32,
        next_port: &mut BTreeMap<NodeId, u16>,
        next_sess: &mut BTreeMap<NodeId, u32>,
    ) {
        assert!(*seq < 250, "scenario link subnet pool exhausted");
        let rel_at_lower = match rel_at_upper {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
            Relationship::RsClient => Relationship::RsClient,
        };
        let upper_node = self
            .transits
            .get(&upper)
            .map(|&(n, _)| n)
            .unwrap_or_else(|| self.ases[&upper].node);
        let lower_node = self.ases[&lower].node;
        let addr_u = Ipv4Addr::new(172, 20, *seq as u8, 1);
        let addr_l = Ipv4Addr::new(172, 20, *seq as u8, 2);
        let mac_u = MacAddr::from_id(0x0900_0000 | (*seq * 2));
        let mac_l = MacAddr::from_id(0x0900_0000 | (*seq * 2 + 1));
        let port_u = PortId(*next_port.get(&upper_node).expect("port ctr"));
        *next_port.get_mut(&upper_node).expect("port ctr") += 1;
        let port_l = PortId(*next_port.get(&lower_node).expect("port ctr"));
        *next_port.get_mut(&lower_node).expect("port ctr") += 1;
        let sess_u = PeerId(*next_sess.get(&upper_node).expect("sess ctr"));
        *next_sess.get_mut(&upper_node).expect("sess ctr") += 1;
        let sess_l = PeerId(*next_sess.get(&lower_node).expect("sess ctr"));
        *next_sess.get_mut(&lower_node).expect("sess ctr") += 1;

        self.platform
            .sim
            .with_node_ctx::<InternetAs, _>(upper_node, |n, _| {
                n.add_session(
                    sess_u,
                    rel_at_upper,
                    Asn(lower),
                    port_u,
                    mac_u,
                    addr_u,
                    mac_l,
                    addr_l,
                    true, // passive: the lower side opens
                );
            });
        self.platform
            .sim
            .with_node_ctx::<InternetAs, _>(lower_node, |n, _| {
                n.add_session(
                    sess_l,
                    rel_at_lower,
                    Asn(upper),
                    port_l,
                    mac_l,
                    addr_l,
                    mac_u,
                    addr_u,
                    false,
                );
            });
        self.platform.sim.connect(
            upper_node,
            port_u,
            lower_node,
            port_l,
            LinkConfig::with_latency(SimDuration::from_millis(5)),
        );

        if self.transits.contains_key(&upper) {
            self.transit_sessions.push((upper, sess_u, lower));
        } else if let Some(info) = self.ases.get_mut(&upper) {
            info.sessions.push(SessionInfo {
                id: sess_u,
                rel: rel_at_upper,
                remote_asn: lower,
                local_addr: addr_u,
                remote_addr: addr_l,
            });
        }
        if let Some(info) = self.ases.get_mut(&lower) {
            info.sessions.push(SessionInfo {
                id: sess_l,
                rel: rel_at_lower,
                remote_asn: upper,
                local_addr: addr_l,
                remote_addr: addr_u,
            });
        }
        *seq += 1;
    }

    // --- experiment surface ------------------------------------------

    /// The `idx`-th leased prefix.
    pub fn prefix(&self, idx: usize) -> Prefix {
        self.exp.lease.v4[idx]
    }

    /// An address inside the `idx`-th leased prefix.
    pub fn prefix_addr(&self, idx: usize, host: u32) -> Ipv4Addr {
        addr_in(self.prefix(idx), host)
    }

    /// Announce a leased prefix at a PoP.
    pub fn announce(&mut self, pop: usize, idx: usize, opts: &AnnounceOptions) {
        let prefix = self.prefix(idx);
        let pop = format!("pop{pop}");
        self.exp
            .toolkit
            .announce(&mut self.platform.sim, &pop, prefix, opts)
            .expect("announce");
    }

    /// Withdraw a leased prefix at a PoP.
    pub fn withdraw(&mut self, pop: usize, idx: usize) {
        let prefix = self.prefix(idx);
        let pop = format!("pop{pop}");
        self.exp
            .toolkit
            .withdraw(&mut self.platform.sim, &pop, prefix)
            .expect("withdraw");
    }

    /// Advance the simulation.
    pub fn run_secs(&mut self, secs: u64) {
        self.platform.run_for(SimDuration::from_secs(secs));
    }

    // --- scenario actions ----------------------------------------------

    /// Turn the designated leaker on: it starts exporting its full table
    /// (peer- and provider-learned routes included) upstream.
    pub fn trigger_leak(&mut self) {
        let node = self.ases[&self.leaker].node;
        self.platform
            .sim
            .with_node_ctx::<InternetAs, _>(node, |n, ctx| n.become_leaker(ctx));
        self.leaker_active = true;
    }

    /// Enable TE action-community interpretation at every transit.
    pub fn enable_te(&mut self) {
        let nodes: Vec<NodeId> = self.transits.values().map(|&(n, _)| n).collect();
        for node in nodes {
            self.platform
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| n.enable_te_communities(ctx));
        }
        self.te_enabled = true;
    }

    /// Deploy Peerlock: every transit rejects, on its customer (mid)
    /// sessions, any path containing another transit. `lite: false`
    /// additionally protects the mid tier — every mid rejects
    /// transit-containing paths over its lateral peerings (full Peerlock
    /// deployment; "peerlock-lite" protects only the transit tier).
    pub fn install_peerlock(&mut self, lite: bool) {
        let all: Vec<u32> = self.transits.keys().copied().collect();
        let deployments = self.transit_sessions.clone();
        for (t, session, mid) in deployments {
            let banned: Vec<u32> = all.iter().copied().filter(|&o| o != t).collect();
            let rules: Vec<Rule> = banned
                .iter()
                .map(|&b| Rule::reject(Match::AsPathContains(Asn(b))))
                .collect();
            let node = self.transits[&t].0;
            self.platform
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| {
                    n.install_import_filter(ctx, session, rules)
                });
            self.reject_contains.insert((t, mid), banned);
        }
        if !lite {
            let mids: Vec<(u32, NodeId, Vec<SessionInfo>)> = self
                .ases
                .values()
                .map(|i| (i.asn, i.node, i.sessions.clone()))
                .collect();
            for (asn, node, sessions) in mids {
                for s in sessions.iter().filter(|s| s.rel == Relationship::Peer) {
                    let rules: Vec<Rule> = all
                        .iter()
                        .map(|&b| Rule::reject(Match::AsPathContains(Asn(b))))
                        .collect();
                    let session = s.id;
                    self.platform
                        .sim
                        .with_node_ctx::<InternetAs, _>(node, |n, ctx| {
                            n.install_import_filter(ctx, session, rules)
                        });
                    self.reject_contains
                        .insert((asn, s.remote_asn), all.clone());
                }
            }
        }
    }

    /// Install an AS_PATH length cap (reject length ≥ `cap`) on every
    /// provider session of `asn` — the "some ASes drop long poisoned
    /// paths" behavior the poisoning scenario measures.
    pub fn install_len_cap(&mut self, asn: u32, cap: usize) {
        let (node, sessions) = {
            let info = &self.ases[&asn];
            (info.node, info.sessions.clone())
        };
        for s in sessions.iter().filter(|s| s.rel == Relationship::Provider) {
            let session = s.id;
            self.platform
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| {
                    n.install_import_filter(
                        ctx,
                        session,
                        vec![Rule::reject(Match::AsPathLenAtLeast(cap))],
                    )
                });
            self.len_caps.insert((asn, s.remote_asn), cap);
        }
    }

    // --- measurement ---------------------------------------------------

    fn observed_at(&self, node: NodeId, dst: Ipv4Addr, adversary: Option<u32>) -> Observed {
        let n = self
            .platform
            .sim
            .node::<InternetAs>(node)
            .expect("scenario node");
        match n.best_route(dst) {
            Some(r) => Observed {
                has_route: true,
                local_pref: r.attrs.local_pref,
                path_len: Some(r.attrs.as_path.path_len()),
                via: adversary.is_some_and(|a| r.attrs.as_path.contains(Asn(a))),
                path: r.attrs.as_path.asns().iter().map(|a| a.0).collect(),
            },
            None => Observed {
                has_route: false,
                local_pref: None,
                path_len: None,
                via: false,
                path: Vec::new(),
            },
        }
    }

    /// What every modeled AS (transits + scenario tier) holds for `dst`.
    pub fn observe(&self, dst: Ipv4Addr, adversary: Option<u32>) -> BTreeMap<u32, Observed> {
        let mut out = BTreeMap::new();
        for (&asn, &(node, _)) in &self.transits {
            out.insert(asn, self.observed_at(node, dst, adversary));
        }
        for (&asn, info) in &self.ases {
            out.insert(asn, self.observed_at(info.node, dst, adversary));
        }
        out
    }

    /// ASes whose best path for `dst` traverses `adversary`.
    pub fn polluted(&self, dst: Ipv4Addr, adversary: u32) -> Vec<u32> {
        self.observe(dst, Some(adversary))
            .into_iter()
            .filter(|(_, o)| o.via)
            .map(|(asn, _)| asn)
            .collect()
    }

    /// Mirror the fixture into the reference model (current leaker /
    /// filter / TE state included).
    pub fn model(&self) -> Model {
        let mut m = Model::default();
        for &t in self.transits.keys() {
            let mut sessions: Vec<(u32, Rel)> = self
                .transits
                .keys()
                .filter(|&&o| o != t)
                .map(|&o| (o, Rel::Peer))
                .collect();
            for info in self.ases.values() {
                if info.providers.contains(&t) {
                    sessions.push((info.asn, Rel::Customer));
                }
            }
            m.ases.insert(
                t,
                ModelAs {
                    sessions,
                    te: self.te_enabled,
                    ..ModelAs::default()
                },
            );
        }
        for info in self.ases.values() {
            let mut sessions: Vec<(u32, Rel)> =
                info.providers.iter().map(|&p| (p, Rel::Provider)).collect();
            sessions.extend(info.peers.iter().map(|&p| (p, Rel::Peer)));
            sessions.extend(info.customers.iter().map(|&c| (c, Rel::Customer)));
            m.ases.insert(
                info.asn,
                ModelAs {
                    sessions,
                    leaker: self.leaker_active && info.asn == self.leaker,
                    ..ModelAs::default()
                },
            );
        }
        for (&(at, from), banned) in &self.reject_contains {
            m.ases
                .get_mut(&at)
                .expect("filter target modeled")
                .reject_contains
                .insert(from, banned.clone());
        }
        for (&(at, from), &cap) in &self.len_caps {
            m.ases
                .get_mut(&at)
                .expect("cap target modeled")
                .len_cap
                .insert(from, cap);
        }
        m
    }

    /// The model-side [`Injection`] matching a toolkit announcement at
    /// `pop`: the platform prepends its own ASN exactly once, the
    /// experiment node prepends itself `1 + prepend` times and appends
    /// the (sanitized) poison sandwich.
    pub fn injection(
        &self,
        pop: usize,
        prepend: usize,
        poisons: &[u32],
        communities: &[(u16, u16)],
    ) -> Injection {
        let exp = self.exp.lease.asn.0;
        let mut path = vec![PLATFORM_ASN];
        path.extend(std::iter::repeat_n(exp, 1 + prepend));
        let mut sanitized: Vec<u32> = Vec::new();
        for &p in poisons {
            if p != exp && !sanitized.contains(&p) {
                sanitized.push(p);
            }
        }
        if !sanitized.is_empty() {
            path.extend(&sanitized);
            path.push(exp);
        }
        Injection {
            at: TRANSIT_ASN0 + pop as u32,
            rel: Rel::Customer,
            path,
            communities: communities.to_vec(),
        }
    }

    /// PoP index a predicted path ingresses at: the transit immediately
    /// before the platform ASN. `None` when the path never enters the
    /// platform through a modeled transit.
    pub fn catchment_of_path(&self, path: &[u32]) -> Option<usize> {
        let at = path.iter().position(|&a| a == PLATFORM_ASN)?;
        if at == 0 {
            return None;
        }
        self.transits.get(&path[at - 1]).map(|&(_, pop)| pop)
    }

    /// Send one probe per stub toward `dst` and report which PoP each
    /// stub's traffic ingressed at (the TE catchment measurement). Stubs
    /// without a route are absent.
    pub fn measure_catchment(&mut self, dst: Ipv4Addr) -> BTreeMap<u32, usize> {
        let exp_node = self.exp.node;
        self.platform
            .sim
            .with_node_ctx::<ExperimentNode, _>(exp_node, |n, _| n.received.clear());
        let stubs: Vec<(u32, NodeId, Prefix)> = self
            .ases
            .values()
            .filter(|i| i.asn >= STUB_ASN0)
            .map(|i| (i.asn, i.node, i.prefix))
            .collect();
        for &(_, node, prefix) in &stubs {
            let src = addr_in(prefix, 1);
            self.platform
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| {
                    let _ = n.send_probe(ctx, src, dst, Bytes::from_static(b"catchment"));
                });
        }
        self.run_secs(10);
        let n = self
            .platform
            .sim
            .node::<ExperimentNode>(exp_node)
            .expect("experiment node");
        let mut out = BTreeMap::new();
        for r in &n.received {
            if r.packet.header.dst != dst {
                continue;
            }
            for &(asn, _, prefix) in &stubs {
                if prefix.contains_addr(r.packet.header.src.into()) {
                    out.insert(asn, r.port.0 as usize);
                }
            }
        }
        out
    }

    /// TTL-1 traceroute probe from the vantage toward `dst`; returns the
    /// first-hop address (the provider interface the vantage's best route
    /// points at — return-path steering evidence).
    pub fn vantage_first_hop(&mut self, dst: Ipv4Addr, ident: u16) -> Option<Ipv4Addr> {
        let (node, prefix) = {
            let info = &self.ases[&self.vantage];
            (info.node, info.prefix)
        };
        let src = addr_in(prefix, 1);
        self.platform
            .sim
            .with_node_ctx::<InternetAs, _>(node, |n, ctx| {
                let _ = n.send_probe_with_ttl(ctx, src, dst, 1, ident);
            });
        self.run_secs(8);
        let n = self
            .platform
            .sim
            .node::<InternetAs>(node)
            .expect("vantage node");
        n.traceroute_hops(ident)
            .iter()
            .find(|(_, d)| *d == dst)
            .map(|(hop, _)| *hop)
    }

    /// The vantage's interface address toward provider `mid` (what a
    /// first-hop probe reply should come from).
    pub fn vantage_link_to(&self, mid: u32) -> Ipv4Addr {
        self.ases[&self.vantage]
            .sessions
            .iter()
            .find(|s| s.remote_asn == mid)
            .expect("vantage provider session")
            .remote_addr
    }

    /// (summed `bgp.export_rejected` counters, `ExportSuppressed` journal
    /// events) across transit + scenario nodes, read from the platform's
    /// registry snapshot and journal.
    pub fn export_suppressions(&self) -> (u64, u64) {
        let snapshot = self.platform.obs().snapshot();
        let counter = self
            .transits
            .keys()
            .chain(self.ases.keys())
            .map(|asn| snapshot.counter_family(&format!("as{asn}/bgp.export_rejected{{peer=")))
            .sum();
        let journal = self
            .platform
            .obs()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ExportSuppressed { .. }))
            .count() as u64;
        (counter, journal)
    }
}

/// An address inside `prefix` (IPv4 only).
pub fn addr_in(prefix: Prefix, host: u32) -> Ipv4Addr {
    match prefix {
        Prefix::V4 { addr, .. } => Ipv4Addr::from(u32::from(addr) + host),
        _ => unreachable!("scenarios lease IPv4 only"),
    }
}

/// Merge sim observations with model predictions into per-AS verdicts,
/// collecting differential mismatches (must come back empty).
pub fn reconcile(
    observed: &BTreeMap<u32, Observed>,
    predicted: &BTreeMap<u32, Predicted>,
) -> (BTreeMap<u32, AsVerdict>, Vec<String>) {
    let mut verdicts = BTreeMap::new();
    let mut mismatches = Vec::new();
    for (asn, pred) in predicted {
        let Some(obs) = observed.get(asn) else {
            mismatches.push(format!("as{asn}: modeled but not observed"));
            continue;
        };
        if obs.has_route != pred.has_route {
            mismatches.push(format!(
                "as{asn}: has_route sim={} model={}",
                obs.has_route, pred.has_route
            ));
        }
        if obs.local_pref != pred.local_pref {
            mismatches.push(format!(
                "as{asn}: local_pref sim={:?} model={:?}",
                obs.local_pref, pred.local_pref
            ));
        }
        if obs.path_len != pred.path_len {
            mismatches.push(format!(
                "as{asn}: path_len sim={:?} model={:?}",
                obs.path_len, pred.path_len
            ));
        }
        if let Some(via) = pred.via {
            if obs.via != via {
                mismatches.push(format!(
                    "as{asn}: via-adversary sim={} model={}",
                    obs.via, via
                ));
            }
        }
        if let Some(path) = &pred.path {
            if &obs.path != path {
                mismatches.push(format!("as{asn}: path sim={:?} model={:?}", obs.path, path));
            }
        }
        verdicts.insert(
            *asn,
            AsVerdict {
                asn: *asn,
                has_route: obs.has_route,
                local_pref: obs.local_pref,
                path_len: obs.path_len,
                via_adversary: pred.via.map(|_| obs.via),
                note: String::new(),
            },
        );
    }
    (verdicts, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One end-to-end smoke run of the fixture: announce the first leased
    /// prefix at PoP 0 and check every modeled AS against the reference
    /// model — validating the injection path formula (platform prepends
    /// exactly once), relationship prefs, and valley-free reach in one go.
    #[test]
    fn fixture_matches_reference_model() {
        let mut net = ScenarioNet::build(ScenarioParams {
            seed: 11,
            mids: 4,
            stubs_per_mid: 1,
            shards: 1,
        });
        net.announce(0, 0, &AnnounceOptions::default());
        net.run_secs(20);
        let dst = net.prefix_addr(0, 9);
        let observed = net.observe(dst, None);
        let predicted = net
            .model()
            .propagate(&[net.injection(0, 0, &[], &[])], None);
        let (verdicts, mismatches) = reconcile(&observed, &predicted);
        assert!(mismatches.is_empty(), "differential: {mismatches:?}");
        // Customer-learned at transit 2000 → everyone is reachable.
        assert!(verdicts.values().all(|v| v.has_route));
        // The transit that heard the platform directly trusts its customer.
        assert_eq!(verdicts[&TRANSIT_ASN0].local_pref, Some(200));
        assert_eq!(verdicts[&TRANSIT_ASN0].path_len, Some(2));
        // Sibling transits hear it over the core peering.
        assert_eq!(verdicts[&(TRANSIT_ASN0 + 2)].local_pref, Some(100));
    }
}
