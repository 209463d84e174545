//! Anycast serving: announce one prefix from every PoP and measure who
//! catches the traffic.
//!
//! The paper's flagship data-plane use case (§3.3, §4.7) is a content
//! provider announcing one anycast prefix from many PoPs at once and
//! serving real clients through the muxes. This module packages that
//! experiment: [`AnycastServing::build`] stands up an N-PoP deployment
//! (one transit AS per PoP, full-mesh core, backbone VLANs for ledger
//! gossip), attaches one experiment at every PoP, and exposes the three
//! measurements the serving battery needs:
//!
//! - **Predicted catchment** ([`AnycastServing::predicted_catchment`]):
//!   derived from each transit's converged best path for the anycast
//!   prefix — the PoP whose transit appears immediately before the
//!   platform ASN is where that client population ingresses.
//! - **Observed catchment** ([`AnycastServing::observed_catchment`]):
//!   delivered-packet counters per PoP attachment on the experiment
//!   node, published live as `serving/catchment{pop=i}`. Predicted and
//!   observed must agree.
//! - **Churn shift**: withdraw the anycast route at one PoP
//!   ([`AnycastServing::withdraw_at`]) and the orphaned clients re-home
//!   to surviving PoPs, visible in the observed catchment and in
//!   snapshots.
//!
//! The harness takes **plain data** — prefixes to originate, fully
//! formed [`IpPacket`]s to inject — so it stays independent of any
//! particular traffic model. The flow-level generator that feeds it
//! lives upstream in `peering-workload` (which depends on this crate,
//! not the other way around).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use peering_bgp::types::Prefix;
use peering_netsim::{IpPacket, NodeId, SimDuration};
use peering_toolkit::client::AnnounceOptions;
use peering_toolkit::node::ExperimentNode;
use peering_vbgp::enforcement::data::FloodPolicy;
use peering_vbgp::enforcement::pprog::PacketProgram;
use peering_vbgp::ids::NeighborId;

use crate::experiment::Proposal;
use crate::intent::{NeighborIntent, NeighborRole, PlatformIntent, PopIntent, PopKind};
use crate::internet::InternetAs;
use crate::platform::{AttachedExperiment, Peering, PeeringError};

/// The platform's ASN (PEERING's real AS47065).
pub const SERVING_PLATFORM_ASN: u32 = 47065;
/// First transit ASN; the transit at PoP `i` is `SERVING_TRANSIT_ASN0 + i`.
pub const SERVING_TRANSIT_ASN0: u32 = 2000;
/// Payload byte offset where serving traffic carries its flow-class tag
/// (after the 4 transport-port bytes the data plane parses).
pub const SERVING_TAG_OFFSET: usize = 4;

/// Serving-deployment knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServingParams {
    /// Seed for the simulator (and everything derived from it).
    pub seed: u64,
    /// PoP count; one transit AS per PoP.
    pub pops: usize,
    /// Simulator shards to run under.
    pub shards: usize,
}

impl ServingParams {
    /// An `pops`-PoP deployment on one shard.
    pub fn new(seed: u64, pops: usize) -> Self {
        ServingParams {
            seed,
            pops,
            shards: 1,
        }
    }

    /// The same deployment under `shards` simulator shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }
}

/// An anycast serving deployment: N PoPs, one transit each, one
/// experiment announcing one prefix everywhere.
pub struct AnycastServing {
    /// The platform under test.
    pub platform: Peering,
    /// The attached experiment (lease, toolkit, node).
    pub exp: AttachedExperiment,
    /// Build parameters.
    pub params: ServingParams,
    /// The anycast prefix (the experiment's first leased v4 prefix).
    pub anycast: Prefix,
    /// Transit node at each PoP index.
    transits: Vec<NodeId>,
    /// PoPs where the anycast prefix is currently announced.
    announced: Vec<bool>,
}

impl AnycastServing {
    /// Build the deployment and converge it. PoPs are named `pop{i}`;
    /// every PoP is on the backbone (the flood ledger's gossip path) and
    /// hosts one transit AS, full-mesh peered with its siblings over the
    /// platform core — the synthetic "rest of the Internet" clients are
    /// injected through. The anycast prefix is **not** announced yet;
    /// call [`AnycastServing::announce_all`].
    pub fn build(params: ServingParams) -> Self {
        assert!((2..=16).contains(&params.pops), "anycast needs 2..=16 PoPs");
        assert!(params.shards >= 1);

        let intent = PlatformIntent {
            platform_asn: SERVING_PLATFORM_ASN,
            pops: (0..params.pops)
                .map(|i| PopIntent {
                    name: format!("pop{i}"),
                    kind: PopKind::Ixp,
                    neighbors: vec![NeighborIntent {
                        id: (i + 1) as u32,
                        name: format!("transit{i}"),
                        asn: SERVING_TRANSIT_ASN0 + i as u32,
                        role: NeighborRole::Transit,
                        rs_members: 0,
                    }],
                    bandwidth_limit: None,
                    backbone: true,
                })
                .collect(),
            experiments: Vec::new(),
        };
        let mut platform = Peering::build(intent, params.seed);

        let mut proposal = Proposal::basic("anycast-serving");
        proposal.goals =
            "anycast content serving: catchment measurement, DDoS mixes, fail-closed enforcement"
                .to_string();
        proposal.v4_prefixes = 1;
        let mut exp = platform.submit(proposal).expect("proposal approved");
        for pop in platform.pop_names() {
            exp.toolkit
                .open_tunnel(&mut platform.sim, &pop)
                .expect("tunnel");
            exp.toolkit
                .start_bgp(&mut platform.sim, &pop)
                .expect("bgp up");
        }
        // Serving runs take hundreds of thousands of packets: count them,
        // don't keep them. The class tag rides at SERVING_TAG_OFFSET. The
        // experiment is attached at every PoP in order, so attachment k is
        // PoP k and its count is published as `serving/catchment{pop=k}`.
        let obs = platform.obs().scoped("serving");
        platform
            .sim
            .with_node_ctx::<ExperimentNode, _>(exp.node, |n, _| {
                n.set_record_received(false);
                n.set_tag_offset(Some(SERVING_TAG_OFFSET));
                n.set_delivery_obs(obs);
            });
        platform.run_for(SimDuration::from_secs(15));

        let transits: Vec<NodeId> = (0..params.pops)
            .map(|i| {
                platform
                    .neighbor_node(NeighborId((i + 1) as u32))
                    .expect("transit node")
            })
            .collect();
        let anycast = exp.lease.v4[0];

        if params.shards > 1 {
            platform.set_shards(params.shards);
        }

        AnycastServing {
            platform,
            exp,
            anycast,
            transits,
            announced: vec![false; params.pops],
            params,
        }
    }

    /// An address inside the anycast prefix.
    pub fn anycast_addr(&self, host: u32) -> Ipv4Addr {
        match self.anycast {
            Prefix::V4 { addr, .. } => Ipv4Addr::from(u32::from(addr) + host),
            _ => unreachable!("serving leases are IPv4"),
        }
    }

    /// The transit node serving PoP `pop` (client injection point).
    pub fn transit(&self, pop: usize) -> NodeId {
        self.transits[pop]
    }

    /// Originate client-cone prefixes on the (already running) transits,
    /// round-robin across PoPs. These become the routable source space a
    /// strict uRPF check accepts — every transit exports its full table
    /// to the platform (the platform is its customer), so a prefix
    /// originated anywhere is reverse-path-valid at every PoP once the
    /// core mesh reconverges. Callers run the sim afterwards.
    pub fn originate_cones(&mut self, prefixes: &[Prefix]) {
        for (k, &prefix) in prefixes.iter().enumerate() {
            let node = self.transits[k % self.transits.len()];
            self.platform
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| n.originate_now(ctx, prefix));
        }
    }

    /// Announce the anycast prefix at one PoP.
    pub fn announce_at(&mut self, pop: usize) {
        let name = format!("pop{pop}");
        self.exp
            .toolkit
            .announce(
                &mut self.platform.sim,
                &name,
                self.anycast,
                &AnnounceOptions::default(),
            )
            .expect("announce");
        self.announced[pop] = true;
    }

    /// Announce the anycast prefix at every PoP (the §3.3 experiment).
    pub fn announce_all(&mut self) {
        for pop in 0..self.params.pops {
            self.announce_at(pop);
        }
    }

    /// Withdraw the anycast prefix at one PoP — the churn event whose
    /// catchment shift the battery measures.
    pub fn withdraw_at(&mut self, pop: usize) {
        let name = format!("pop{pop}");
        self.exp
            .toolkit
            .withdraw(&mut self.platform.sim, &name, self.anycast)
            .expect("withdraw");
        self.announced[pop] = false;
    }

    /// Install the experiment's ingress serving policy on every PoP:
    /// strict uRPF, an optional ingress packet program, an optional
    /// flood budget (enforced against the gossiped platform-wide count).
    pub fn install_serving_policy(
        &mut self,
        urpf: bool,
        program: Option<PacketProgram>,
        flood: Option<FloodPolicy>,
    ) -> Result<(), PeeringError> {
        let exp = self.exp.id;
        self.platform
            .install_ingress_policy(exp, None, urpf, program, flood)
    }

    /// Inject a fully formed client packet at PoP `pop`'s transit; it is
    /// forwarded along the transit's best route (into the platform when
    /// the destination is the anycast prefix). Returns `false` when the
    /// transit holds no route for the destination.
    pub fn inject(&mut self, pop: usize, pkt: IpPacket) -> bool {
        let node = self.transits[pop];
        self.platform
            .sim
            .with_node_ctx::<InternetAs, _>(node, |n, ctx| n.send_packet(ctx, pkt))
    }

    /// Catchment predicted from the converged control plane: for each
    /// client PoP, the PoP whose mux the transit's best anycast path
    /// enters the platform through. Gao–Rexford makes the home PoP win
    /// while it announces (the direct customer route beats core-peer
    /// paths); after a withdrawal the orphan re-homes to a surviving PoP
    /// via its (deterministically tie-broken) best core peer. Transits
    /// holding no anycast route are absent.
    pub fn predicted_catchment(&self) -> BTreeMap<usize, usize> {
        let dst = self.anycast_addr(1);
        let mut out = BTreeMap::new();
        for (i, &node) in self.transits.iter().enumerate() {
            let Some(route) = self
                .platform
                .sim
                .node::<InternetAs>(node)
                .expect("transit node")
                .best_route(dst)
            else {
                continue;
            };
            let asns: Vec<u32> = route.attrs.as_path.asns().iter().map(|a| a.0).collect();
            let Some(at) = asns.iter().position(|&a| a == SERVING_PLATFORM_ASN) else {
                continue;
            };
            let entry_pop = if at == 0 {
                // The transit heard the platform directly: its own PoP.
                i
            } else {
                let entry_asn = asns[at - 1];
                if entry_asn < SERVING_TRANSIT_ASN0 {
                    continue;
                }
                let pop = (entry_asn - SERVING_TRANSIT_ASN0) as usize;
                if pop >= self.params.pops {
                    continue;
                }
                pop
            };
            out.insert(i, entry_pop);
        }
        out
    }

    /// Catchment observed on the wire: delivered-packet counts per PoP
    /// on the experiment node, for every PoP that delivered any.
    pub fn observed_catchment(&self) -> BTreeMap<usize, u64> {
        self.experiment_node()
            .delivered_by_attachment()
            .enumerate()
            .filter(|&(_, count)| count > 0)
            .collect()
    }

    /// Delivered-packet counts per flow-class tag byte (the payload byte
    /// at [`SERVING_TAG_OFFSET`]).
    pub fn delivered_by_tag(&self) -> BTreeMap<u8, u64> {
        self.experiment_node().delivered_by_tag().collect()
    }

    fn experiment_node(&self) -> &ExperimentNode {
        self.platform
            .sim
            .node::<ExperimentNode>(self.exp.node)
            .expect("experiment node")
    }

    /// Advance the simulation.
    pub fn run_secs(&mut self, secs: u64) {
        self.platform.run_for(SimDuration::from_secs(secs));
    }

    /// Advance the simulation by milliseconds (injection cadence).
    pub fn run_millis(&mut self, ms: u64) {
        self.platform.run_for(SimDuration::from_millis(ms));
    }
}
