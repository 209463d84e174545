//! End-to-end anycast serving runs: the traffic generator feeding the
//! platform's anycast harness.
//!
//! [`run_serving`] is the serving battery's engine. It stands up an
//! N-PoP anycast deployment ([`AnycastServing`]), seeds a routable
//! client-cone space on the transits, announces the anycast prefix
//! everywhere, installs the ingress defenses, and then plays a
//! [`TrafficGenerator`] schedule through the transits in open loop —
//! millions of client packets when asked. Attack shapes must die in the
//! mux's fail-closed ingress pipeline (uRPF, packet program, gossiped
//! flood ledger) while legitimate flows keep being delivered; the
//! returned [`ServingOutcome`] carries the per-class accounting, the
//! predicted + observed catchment maps (before and after a churn
//! event), and the determinism artifacts (obs snapshot text + journal
//! digest) the sharded-run battery compares bit-for-bit.
//!
//! Everything observable in the outcome is a pure function of the
//! [`ServingSpec`]; only [`ServingOutcome::wall`] (the pps
//! denominator) varies run to run.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use peering_bgp::types::Prefix;
use peering_netsim::{Bytes, IpPacket, IpProto};
use peering_obs::Snapshot;
use peering_platform::serving::{AnycastServing, ServingParams};
use peering_vbgp::enforcement::data::FloodPolicy;
use peering_vbgp::enforcement::pprog::{Field, Insn, PacketProgram};

use crate::dfz::{DfzConfig, DfzGenerator};
use crate::traffic::{FlowClass, FlowProto, TrafficConfig, TrafficGenerator, TrafficMix};

/// Payload tag byte for each flow class (written at
/// [`peering_platform::serving::SERVING_TAG_OFFSET`]; zero is reserved for "untagged").
pub fn class_tag(class: FlowClass) -> u8 {
    match class {
        FlowClass::Legit => 1,
        FlowClass::SpoofedFlood => 2,
        FlowClass::SynFlood => 3,
        FlowClass::Concentration => 4,
    }
}

/// Spec for one serving run. The outcome is a pure function of this
/// struct (wall-clock timing aside).
#[derive(Debug, Clone)]
pub struct ServingSpec {
    /// Seed for topology, schedule and simulator.
    pub seed: u64,
    /// PoP count (one transit each).
    pub pops: usize,
    /// Flow count in the schedule.
    pub flows: usize,
    /// Class mix.
    pub mix: TrafficMix,
    /// Simulator shards.
    pub shards: usize,
    /// Install the ingress defenses (uRPF + SYN program + flood budget).
    /// `false` is the ablation arm: attacks are delivered like clients.
    pub defended: bool,
    /// Withdraw the anycast route at PoP 0 after the serve phase and
    /// measure the catchment shift with a clean traffic burst.
    pub churn: bool,
    /// Serve-phase length in milliseconds. Must span several 60-second
    /// ledger gossip rounds for the platform-wide flood budget to bite;
    /// [`ServingSpec::new`] defaults to 150 s.
    pub serve_ms: u64,
    /// Synthetic-DFZ v4 route count backing legitimate client sources.
    pub dfz_routes: usize,
}

impl ServingSpec {
    /// A defended, churn-measuring run with the standard serve window.
    pub fn new(seed: u64, pops: usize, flows: usize, mix: TrafficMix) -> Self {
        ServingSpec {
            seed,
            pops,
            flows,
            mix,
            shards: 1,
            defended: true,
            churn: true,
            serve_ms: 150_000,
            dfz_routes: 4096,
        }
    }

    /// The same run under `shards` simulator shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Drop the ingress defenses (the ablation arm).
    pub fn undefended(mut self) -> Self {
        self.defended = false;
        self
    }

    /// Skip the churn phase.
    pub fn without_churn(mut self) -> Self {
        self.churn = false;
        self
    }
}

/// What one serving run produced. Every field except
/// [`ServingOutcome::wall`] is deterministic in the spec, at any
/// shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingOutcome {
    /// Packets injected at the transits, total (refused packets excluded).
    pub injected: u64,
    /// Packets a transit refused to send for lack of a route; they are
    /// left out of [`ServingOutcome::injected`] and
    /// [`ServingOutcome::sent_by_class`], so they never read as platform
    /// loss.
    pub refused: u64,
    /// Packets injected per flow-class label.
    pub sent_by_class: BTreeMap<&'static str, u64>,
    /// Packets delivered to the experiment per flow-class label (from
    /// the payload-tag counters).
    pub delivered_by_class: BTreeMap<&'static str, u64>,
    /// Packets blocked in the ingress pipeline per policy label
    /// (`urpf`, `program-block`, `flood-budget`, …), summed over PoPs.
    pub blocked_by_reason: BTreeMap<String, u64>,
    /// Control-plane catchment while all PoPs announce: client PoP →
    /// serving PoP (home PoP wins under Gao–Rexford).
    pub predicted_catchment: BTreeMap<usize, usize>,
    /// Delivered packets per serving PoP over the serve phase.
    pub observed_catchment: BTreeMap<usize, u64>,
    /// Catchment after withdrawing at PoP 0 (when churn ran): the
    /// orphaned clients re-home to surviving PoPs.
    pub predicted_after_churn: Option<BTreeMap<usize, usize>>,
    /// Delivered packets per serving PoP over the post-churn clean
    /// burst only (a delta, not cumulative).
    pub observed_after_churn: Option<BTreeMap<usize, u64>>,
    /// Fraction of legitimate packets delivered (target ≥ 0.99).
    pub legit_delivery: f64,
    /// Fraction of attack packets NOT delivered (target ≥ 0.95 when
    /// defended).
    pub attack_block: f64,
    /// Flood budget the run calibrated from its own schedule (absent
    /// when undefended).
    pub flood_policy: Option<FloodPolicy>,
    /// Full obs snapshot (the cross-shard determinism artifact).
    pub snapshot: Snapshot,
    /// Obs journal digest (the second determinism artifact).
    pub journal_digest: u64,
    /// Events the simulator processed over the whole run (a count of
    /// the event schedule, identical at any shard count).
    pub processed_events: u64,
    /// Wall-clock time spent in the injection + simulation phases (pps
    /// denominator; NOT deterministic).
    pub wall: std::time::Duration,
}

impl ServingOutcome {
    /// Platform-level packets per second over the serve phase.
    pub fn packets_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.injected as f64 / self.wall.as_secs_f64()
    }

    /// Per-PoP share of delivered traffic during the serve phase.
    pub fn catchment_shares(&self) -> BTreeMap<usize, f64> {
        let total: u64 = self.observed_catchment.values().sum();
        self.observed_catchment
            .iter()
            .map(|(&pop, &n)| {
                (
                    pop,
                    if total == 0 {
                        0.0
                    } else {
                        n as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// The determinism-relevant projection: everything except wall
    /// clock, rendered to one comparable string.
    pub fn determinism_key(&self) -> String {
        format!(
            "injected={} refused={} sent={:?} delivered={:?} blocked={:?} pred={:?} obs={:?} pred2={:?} obs2={:?} digest={:016x}\n{}",
            self.injected,
            self.refused,
            self.sent_by_class,
            self.delivered_by_class,
            self.blocked_by_reason,
            self.predicted_catchment,
            self.observed_catchment,
            self.predicted_after_churn,
            self.observed_after_churn,
            self.journal_digest,
            self.snapshot.to_text(),
        )
    }
}

/// The SYN-flood countermeasure: block TCP/UDP destined to `syn_port`,
/// allow everything else. Flow-invariant, so the mux caches one verdict
/// per flow.
pub fn syn_block_program(syn_port: u16) -> PacketProgram {
    PacketProgram::new(vec![
        Insn::Ld(0, Field::DstPort),
        Insn::JeqImm(0, syn_port as u64, 3),
        Insn::Allow,
        Insn::Block,
    ])
}

/// Calibrate a flood budget from the schedule itself: generous headroom
/// over the heaviest legitimate /16 source bucket (so no legitimate
/// flow is throttled), far below the concentration attack's aggregate
/// (so the hot /16 is cut off early). Buckets are /16s, matching the
/// concentration shape.
pub fn calibrate_flood(gen: &TrafficGenerator) -> FloodPolicy {
    // Heaviest legitimate /16 per (bucket, pop). Only Legit charges the
    // ledger in the defended configuration: spoofed floods die at uRPF
    // and SYN shapes die in the packet program, both upstream of the
    // flood stage, so calibrating against them would only loosen the
    // budget (exactly the slack a concentration attack hides in).
    let mut bucket_pop: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for f in gen.iter() {
        if f.class == FlowClass::Legit {
            let b = u32::from(f.src) >> 16;
            *bucket_pop.entry((b, f.home_pop)).or_insert(0) += f.packets as u64;
        }
    }
    let max_legit_pop = bucket_pop.values().copied().max().unwrap_or(0);
    let mut wide: BTreeMap<u32, u64> = BTreeMap::new();
    for (&(b, _), &n) in &bucket_pop {
        *wide.entry(b).or_insert(0) += n;
    }
    let max_legit_wide = wide.values().copied().max().unwrap_or(0);
    // 2× headroom plus a small absolute floor over the worst legitimate
    // bucket. The concentration attack pours its whole volume into ONE
    // /16, so the leak before the budget bites is bounded by roughly
    // `pops × per_pop` (each mux spends its local budget until the next
    // gossip round reconciles the platform-wide count) — keeping the
    // per-PoP limit tight is what makes the ≥95% block rate possible.
    let per_pop = (2 * max_legit_pop + 8).max(12) as u32;
    let as_wide = (2 * max_legit_wide + 16).max(3 * per_pop as u64 / 2) as u32;
    FloodPolicy {
        bucket_len: 16,
        per_pop_limit: per_pop,
        as_wide_limit: Some(as_wide),
    }
}

/// Build the packet for one unit of a flow: transport ports in the
/// first four payload bytes (what the mux's `packet_view` parses), the
/// class tag at [`peering_platform::serving::SERVING_TAG_OFFSET`].
fn flow_packet(f: &crate::traffic::Flow, dst: Ipv4Addr) -> IpPacket {
    let payload: Vec<u8> = vec![
        (f.src_port >> 8) as u8,
        (f.src_port & 0xff) as u8,
        (f.dst_port >> 8) as u8,
        (f.dst_port & 0xff) as u8,
        class_tag(f.class),
        0,
        0,
        0,
    ];
    let proto = match f.proto {
        FlowProto::Udp => IpProto::Udp,
        FlowProto::Tcp => IpProto::Tcp,
    };
    IpPacket::new(f.src, dst, proto, Bytes::from(payload))
}

/// Sum the `data.ingress_blocked{policy=…}` counter family across PoPs
/// out of an obs snapshot rendering, keyed by policy label; only the
/// reasons that fired are listed.
fn blocked_by_reason(snapshot: &Snapshot) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for name in snapshot.names() {
        let Some(at) = name.find("data.ingress_blocked{policy=") else {
            continue;
        };
        let label_start = at + "data.ingress_blocked{policy=".len();
        let Some(rel_end) = name[label_start..].find('}') else {
            continue;
        };
        let label = name[label_start..label_start + rel_end].to_string();
        match snapshot.counter(name) {
            Some(v) if v > 0 => *out.entry(label).or_insert(0) += v,
            _ => {}
        }
    }
    out
}

/// Run one end-to-end anycast serving experiment. See the module docs
/// for the phase structure; panics on platform wiring errors (the spec
/// is a test fixture, not user input).
pub fn run_serving(spec: &ServingSpec) -> ServingOutcome {
    // --- topology ----------------------------------------------------
    let params = ServingParams::new(spec.seed, spec.pops).with_shards(spec.shards);
    let mut net = AnycastServing::build(params);

    // Client cone: /8 covers for the whole synthetic-DFZ v4 space
    // (20.0.0.0–83.255.255.255), round-robin across transits. Strict
    // uRPF then accepts any legitimate or concentration source and
    // rejects the spoofed 92/8 pool, which is never originated.
    let cones: Vec<Prefix> = (20u8..84)
        .map(|o| Prefix::v4(Ipv4Addr::new(o, 0, 0, 0), 8).expect("/8 cone"))
        .collect();
    net.originate_cones(&cones);
    net.run_secs(20);

    net.announce_all();
    net.run_secs(20);

    // --- schedule + defenses ------------------------------------------
    let dfz = DfzGenerator::new(DfzConfig::sized(spec.seed ^ 0xD0F2, spec.dfz_routes, 0));
    let mut tcfg = TrafficConfig::new(spec.seed, spec.flows, spec.pops as u32, spec.mix);
    tcfg.duration_ms = spec.serve_ms;
    let gen = TrafficGenerator::new(tcfg, dfz);

    let flood_policy = if spec.defended {
        Some(calibrate_flood(&gen))
    } else {
        None
    };
    if spec.defended {
        net.install_serving_policy(
            true,
            Some(syn_block_program(gen.config().syn_port)),
            flood_policy,
        )
        .expect("serving policy installs");
    }

    let predicted_catchment = net.predicted_catchment();
    let started = std::time::Instant::now();

    // --- serve phase ---------------------------------------------------
    // Open loop at 1-second quanta: all packets of the flows starting in
    // a quantum are injected at its boundary (from the main thread, so
    // sharded runs see the identical injection order), then the quantum
    // is simulated. The phase spans ≥ 2 ledger gossip rounds.
    let mut by_quantum: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for i in 0..gen.len() {
        let f = gen.flow(i);
        by_quantum.entry(f.start_ms / 1000).or_default().push(i);
    }
    let mut injected: u64 = 0;
    let mut refused: u64 = 0;
    let mut sent_by_class: BTreeMap<&'static str, u64> = BTreeMap::new();
    let quanta = spec.serve_ms.div_ceil(1000);
    for q in 0..quanta {
        if let Some(idxs) = by_quantum.get(&q) {
            for &i in idxs {
                let f = gen.flow(i);
                let dst = net.anycast_addr(f.dst_host as u32);
                let pkt = flow_packet(&f, dst);
                let mut sent = 0u64;
                for _ in 0..f.packets {
                    sent += u64::from(net.inject(f.home_pop as usize, pkt.clone()));
                }
                refused += f.packets as u64 - sent;
                injected += sent;
                *sent_by_class.entry(f.class.label()).or_insert(0) += sent;
            }
        }
        net.run_millis(1000);
    }
    net.run_secs(5); // drain in-flight packets

    let observed_catchment = net.observed_catchment();

    // --- churn phase -----------------------------------------------------
    let (predicted_after_churn, observed_after_churn, churn_sent) = if spec.churn {
        let before = net.observed_catchment();
        net.withdraw_at(0);
        net.run_secs(25);
        let predicted = net.predicted_catchment();
        // A clean burst re-measures the data-plane catchment: one packet
        // per flow, a tenth of the schedule, all legitimate.
        let burst_cfg = TrafficConfig::new(
            spec.seed ^ 0xC4A8,
            (spec.flows / 10).max(64),
            spec.pops as u32,
            TrafficMix::clean(),
        );
        let burst = TrafficGenerator::new(
            burst_cfg,
            DfzGenerator::new(DfzConfig::sized(spec.seed ^ 0xD0F2, spec.dfz_routes, 0)),
        );
        let mut burst_sent: u64 = 0;
        for i in 0..burst.len() {
            let f = burst.flow(i);
            let dst = net.anycast_addr(f.dst_host as u32);
            let pkt = flow_packet(&f, dst);
            if net.inject(f.home_pop as usize, pkt) {
                burst_sent += 1;
            } else {
                refused += 1;
            }
        }
        net.run_secs(10);
        let after_total = net.observed_catchment();
        let delta: BTreeMap<usize, u64> = after_total
            .iter()
            .map(|(&pop, &n)| (pop, n - before.get(&pop).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect();
        (Some(predicted), Some(delta), burst_sent)
    } else {
        (None, None, 0)
    };
    if churn_sent > 0 {
        injected += churn_sent;
        *sent_by_class.entry(FlowClass::Legit.label()).or_insert(0) += churn_sent;
    }

    // --- accounting ----------------------------------------------------
    let mut delivered_by_class: BTreeMap<&'static str, u64> = BTreeMap::new();
    let final_tags = net.delivered_by_tag();
    for class in [
        FlowClass::Legit,
        FlowClass::SpoofedFlood,
        FlowClass::SynFlood,
        FlowClass::Concentration,
    ] {
        let n = final_tags.get(&class_tag(class)).copied().unwrap_or(0);
        delivered_by_class.insert(class.label(), n);
    }

    let legit_sent = sent_by_class
        .get(FlowClass::Legit.label())
        .copied()
        .unwrap_or(0);
    let legit_delivered = delivered_by_class
        .get(FlowClass::Legit.label())
        .copied()
        .unwrap_or(0);
    let attack_sent: u64 = sent_by_class
        .iter()
        .filter(|(k, _)| **k != FlowClass::Legit.label())
        .map(|(_, &v)| v)
        .sum();
    let attack_delivered: u64 = delivered_by_class
        .iter()
        .filter(|(k, _)| **k != FlowClass::Legit.label())
        .map(|(_, &v)| v)
        .sum();
    let legit_delivery = if legit_sent == 0 {
        1.0
    } else {
        legit_delivered as f64 / legit_sent as f64
    };
    let attack_block = if attack_sent == 0 {
        1.0
    } else {
        1.0 - attack_delivered as f64 / attack_sent as f64
    };

    let snapshot = net.platform.obs_snapshot();
    let blocked = blocked_by_reason(&snapshot);
    let journal_digest = net.platform.obs().journal_digest();

    ServingOutcome {
        injected,
        refused,
        sent_by_class,
        delivered_by_class,
        blocked_by_reason: blocked,
        predicted_catchment,
        observed_catchment,
        predicted_after_churn,
        observed_after_churn,
        legit_delivery,
        attack_block,
        flood_policy,
        snapshot,
        journal_digest,
        processed_events: net.platform.sim.processed_events,
        wall: started.elapsed(),
    }
}
