//! Anycast serving workloads: `serve-attack`, `serve-bare` and
//! `serve-sharded`.
//!
//! One pass builds the paper's 13-PoP anycast deployment
//! ([`AnycastServing`]), converges it, installs the ingress policy
//! (defended workloads only), sends one warm-up packet per PoP and
//! settles one quantum, then plays the seed's open-loop
//! `TrafficMix::under_attack` schedule in 1 s simulated quanta. Each
//! quantum's packets are built before its `inject` calls are timed; the
//! serve phase's wall time is the `inject` and `run_millis` calls plus
//! the drain. The untimed check afterwards withdraws the prefix at pop0
//! and compares the observed catchment shift with the predicted one.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use peering_bgp::types::Prefix;
use peering_netsim::{Bytes, IpPacket, IpProto};
use peering_platform::serving::{AnycastServing, ServingParams};
use peering_vbgp::enforcement::data::FloodPolicy;
use peering_workload::serving::{calibrate_flood, class_tag, syn_block_program};
use peering_workload::{
    DfzConfig, DfzGenerator, Flow, FlowClass, FlowProto, TrafficConfig, TrafficGenerator,
    TrafficMix,
};

use crate::report::{counter_deltas, rss_mb};
use crate::trace::Tracer;

/// Simulated length of the serve schedule, in 1 s quanta.
const QUANTA: u64 = 150;
/// Simulated drain after the last quantum, seconds.
const DRAIN_SECS: u64 = 5;
/// v4 routes of the synthetic table legitimate sources are drawn from.
const SOURCE_TABLE_ROUTES: usize = 4096;

/// Flow classes in report order; the index is the class's slot in the
/// per-class arrays.
const CLASSES: [FlowClass; 4] = [
    FlowClass::Legit,
    FlowClass::SpoofedFlood,
    FlowClass::SynFlood,
    FlowClass::Concentration,
];

fn class_slot(class: FlowClass) -> usize {
    CLASSES
        .iter()
        .position(|&c| c == class)
        .expect("known class")
}

/// Size and shape of a serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeCfg {
    /// PoPs, one transit each.
    pub pops: usize,
    /// Flows in the schedule.
    pub flows: usize,
    /// Simulator shards.
    pub shards: usize,
    /// Strict uRPF, the SYN-block program and the flood budget.
    pub defended: bool,
    /// Flows in the post-withdrawal catchment burst (one packet each).
    pub burst_flows: usize,
}

/// Inputs derived from the seed before any timer starts.
pub struct Inputs {
    /// The open-loop schedule.
    pub gen: TrafficGenerator,
    /// Flow indexes starting in each quantum.
    pub by_quantum: Vec<Vec<u32>>,
    /// The flood budget calibrated from the schedule.
    pub flood: FloodPolicy,
    /// One legitimate flow homed at each PoP (warm-up packets).
    pub warmup: Vec<Flow>,
    /// Client-cone /8s originated on the transits.
    pub cones: Vec<Prefix>,
    /// All-legitimate burst that re-measures the catchment.
    pub burst: Vec<Flow>,
}

/// Derive a workload's inputs from `seed`.
pub fn inputs(seed: u64, cfg: &ServeCfg) -> Inputs {
    let table = || DfzGenerator::new(DfzConfig::sized(seed ^ 0xD0F2, SOURCE_TABLE_ROUTES, 0));
    let mut tcfg = TrafficConfig::new(seed, cfg.flows, cfg.pops as u32, TrafficMix::under_attack());
    tcfg.duration_ms = QUANTA * 1000;
    let gen = TrafficGenerator::new(tcfg, table());
    // A /16 flood budget cannot tell a legitimate client inside the
    // concentration attack's /16 from the attack, so such clients are
    // left out: every legitimate packet the benchmark sends must arrive.
    let hot = u32::from(gen.hot_bucket()) >> 16;
    let collateral = |f: &Flow| f.class == FlowClass::Legit && u32::from(f.src) >> 16 == hot;
    let mut by_quantum = vec![Vec::new(); QUANTA as usize];
    let mut warmup: Vec<Option<Flow>> = vec![None; cfg.pops];
    for i in 0..gen.len() {
        let f = gen.flow(i);
        if collateral(&f) {
            continue;
        }
        by_quantum[(f.start_ms / 1000) as usize].push(i as u32);
        let slot = &mut warmup[f.home_pop as usize];
        if f.class == FlowClass::Legit && slot.is_none() {
            *slot = Some(f);
        }
    }
    let flood = calibrate_flood(&gen);
    let burst = TrafficGenerator::new(
        TrafficConfig::new(
            seed ^ 0xC4A8,
            cfg.burst_flows,
            cfg.pops as u32,
            TrafficMix::clean(),
        ),
        table(),
    )
    .iter()
    .filter(|f| !collateral(f))
    .collect();
    Inputs {
        gen,
        by_quantum,
        flood,
        warmup: warmup
            .into_iter()
            .map(|f| f.expect("every PoP homes a legitimate flow"))
            .collect(),
        cones: (20u8..84)
            .map(|o| Prefix::v4(Ipv4Addr::new(o, 0, 0, 0), 8).expect("/8 cone"))
            .collect(),
        burst,
    }
}

/// One packet of flow `f` toward host `dst_host` of the anycast /24:
/// transport ports in the first four payload bytes (what the mux
/// parses), the class tag after them; 8 payload bytes in all.
fn packet(f: &Flow, anycast_base: u32) -> IpPacket {
    let payload = vec![
        (f.src_port >> 8) as u8,
        f.src_port as u8,
        (f.dst_port >> 8) as u8,
        f.dst_port as u8,
        class_tag(f.class),
        0,
        0,
        0,
    ];
    let proto = match f.proto {
        FlowProto::Udp => IpProto::Udp,
        FlowProto::Tcp => IpProto::Tcp,
    };
    let dst = Ipv4Addr::from(anycast_base + f.dst_host as u32);
    IpPacket::new(f.src, dst, proto, Bytes::from(payload))
}

/// What one pass measured and counted.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// `AnycastServing::build`, seconds.
    pub build_s: f64,
    /// Cone origination, announcement and their convergence, seconds.
    pub converge_s: f64,
    /// Simulator events processed while converging.
    pub converge_events: u64,
    /// Ingress-policy install, seconds.
    pub install_s: f64,
    /// Warm-up packets plus one settled quantum, seconds.
    pub warmup_s: f64,
    /// RSS growth across the warm-up quantum, MB.
    pub warmup_rss_mb: f64,
    /// RSS after build, MB.
    pub rss_after_build_mb: f64,
    /// RSS when the serve phase starts, MB.
    pub rss_after_setup_mb: f64,
    /// Each serve quantum's `inject` and `run_millis` wall times, seconds.
    pub quanta: Vec<(f64, f64)>,
    /// The drain's wall time, seconds.
    pub drain_s: f64,
    /// Packets injected in the serve phase.
    pub injected: u64,
    /// `inject` calls that returned false (serve phase and warm-up).
    pub refused: u64,
    /// Packets sent per class, warm-up included.
    pub sent: [u64; 4],
    /// Packets delivered per class.
    pub delivered: [u64; 4],
    /// Simulator events processed in the serve phase.
    pub serve_events: u64,
    /// Obs counter deltas over the serve phase.
    pub counters: BTreeMap<&'static str, u64>,
    /// The anycast prefix the experiment leased.
    pub anycast: Option<Prefix>,
    /// Catchment-check failure, if any.
    pub catchment_error: Option<String>,
}

impl Pass {
    /// Wall-clock set-up time: every platform call before the serve phase.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.converge_s + self.install_s + self.warmup_s
    }

    /// Seconds inside the serve phase's `inject` calls.
    pub fn inject_s(&self) -> f64 {
        self.quanta.iter().map(|q| q.0).sum()
    }

    /// Seconds inside the serve phase's `run_millis` calls and the drain.
    pub fn run_s(&self) -> f64 {
        self.quanta.iter().map(|q| q.1).sum::<f64>() + self.drain_s
    }

    /// Wall-clock serve-phase time.
    pub fn serve_s(&self) -> f64 {
        self.inject_s() + self.run_s()
    }

    /// Each serve quantum's `inject` plus `run_millis` wall time, seconds.
    pub fn quantum_s(&self) -> Vec<f64> {
        self.quanta
            .iter()
            .map(|(inject, run)| inject + run)
            .collect()
    }

    /// Packets per wall second in the serve phase.
    pub fn pps(&self) -> f64 {
        self.injected as f64 / self.serve_s()
    }

    /// Legitimate packets delivered ÷ sent.
    pub fn legit_delivery(&self) -> f64 {
        self.delivered[0] as f64 / self.sent[0].max(1) as f64
    }

    /// Attack packets not delivered ÷ sent.
    pub fn attack_block(&self) -> f64 {
        let sent: u64 = self.sent[1..].iter().sum();
        let delivered: u64 = self.delivered[1..].iter().sum();
        1.0 - delivered as f64 / sent.max(1) as f64
    }

    /// Counter delta by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Run one pass: set up, serve the schedule, check the catchment shift.
pub fn run_pass(seed: u64, cfg: &ServeCfg, inp: &Inputs, t: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let params = ServingParams::new(seed, cfg.pops).with_shards(cfg.shards);
    let (mut net, build_s) = t.time("platform.build", || AnycastServing::build(params));
    p.build_s = build_s;
    p.rss_after_build_mb = rss_mb();
    p.anycast = Some(net.anycast);
    let anycast_base = u32::from(net.anycast_addr(0));

    let events0 = net.platform.sim.processed_events;
    let ((), converge_s) = t.time("platform.converge", || {
        net.originate_cones(&inp.cones);
        net.run_secs(20);
        net.announce_all();
        net.run_secs(20);
    });
    p.converge_s = converge_s;
    p.converge_events = net.platform.sim.processed_events - events0;

    let (installed, install_s) = t.time("platform.install_policy", || {
        if cfg.defended {
            let program = syn_block_program(inp.gen.config().syn_port);
            net.install_serving_policy(true, Some(program), Some(inp.flood))
        } else {
            Ok(())
        }
    });
    installed.expect("serving policy installs");
    p.install_s = install_s;

    // Warm-up: one legitimate packet per PoP fills each PoP's lazily
    // built lookup tables, then one quantum settles them.
    let warm: Vec<(usize, IpPacket)> = inp
        .warmup
        .iter()
        .map(|f| (f.home_pop as usize, packet(f, anycast_base)))
        .collect();
    p.sent[0] += warm.len() as u64;
    let rss_before_warmup = rss_mb();
    let open = t.enter("flatfib.warmup");
    let (refused, _) = t.time("internet.inject", || {
        let mut refused = 0u64;
        for (pop, pkt) in warm {
            refused += u64::from(!net.inject(pop, pkt));
        }
        refused
    });
    t.time("netsim.run_millis", || net.run_millis(1000));
    p.warmup_s = t.exit(open);
    p.refused += refused;
    p.rss_after_setup_mb = rss_mb();
    p.warmup_rss_mb = p.rss_after_setup_mb - rss_before_warmup;

    // Serve phase.
    let before = net.platform.obs_snapshot();
    let events0 = net.platform.sim.processed_events;
    let mut batch: Vec<(usize, IpPacket)> = Vec::new();
    for flows in &inp.by_quantum {
        for &i in flows {
            let f = inp.gen.flow(i as usize);
            let pkt = packet(&f, anycast_base);
            for _ in 0..f.packets {
                batch.push((f.home_pop as usize, pkt.clone()));
            }
            p.sent[class_slot(f.class)] += f.packets as u64;
        }
        p.injected += batch.len() as u64;
        let open = t.enter("serve.quantum");
        let (refused, inject_s) = t.time("internet.inject", || {
            let mut refused = 0u64;
            for (pop, pkt) in batch.drain(..) {
                refused += u64::from(!net.inject(pop, pkt));
            }
            refused
        });
        let ((), run_s) = t.time("netsim.run_millis", || net.run_millis(1000));
        t.exit(open);
        p.refused += refused;
        p.quanta.push((inject_s, run_s));
    }
    let ((), drain_s) = t.time("netsim.drain", || net.run_secs(DRAIN_SECS));
    p.drain_s = drain_s;
    p.serve_events = net.platform.sim.processed_events - events0;
    p.counters = counter_deltas(&before, &net.platform.obs_snapshot());
    let tags = net.delivered_by_tag();
    for class in CLASSES {
        p.delivered[class_slot(class)] = tags.get(&class_tag(class)).copied().unwrap_or(0);
    }

    p.catchment_error = check_catchment(&mut net, cfg, inp, anycast_base).err();
    p
}

/// Withdraw the prefix at pop0 and check where a clean burst lands: every
/// client PoP while all announce serves itself; afterwards pop0 takes
/// nothing, and each PoP takes burst packets exactly when the control
/// plane predicts it serves some client PoP, never more than predicted.
fn check_catchment(
    net: &mut AnycastServing,
    cfg: &ServeCfg,
    inp: &Inputs,
    anycast_base: u32,
) -> Result<(), String> {
    let home = net.predicted_catchment();
    if (0..cfg.pops).any(|pop| home.get(&pop) != Some(&pop)) {
        return Err(format!("not every PoP serves its own clients: {home:?}"));
    }
    let before = net.observed_catchment();
    if (0..cfg.pops).any(|pop| before.get(&pop).copied().unwrap_or(0) == 0) {
        return Err(format!("a PoP served nothing: {before:?}"));
    }
    net.withdraw_at(0);
    net.run_secs(25);
    let predicted = net.predicted_catchment();
    if predicted.get(&0) == Some(&0) {
        return Err("pop0 still predicted to serve its clients".into());
    }
    let mut expected: BTreeMap<usize, u64> = BTreeMap::new();
    for f in &inp.burst {
        let Some(&serving) = predicted.get(&(f.home_pop as usize)) else {
            return Err(format!("no predicted catchment for pop{}", f.home_pop));
        };
        *expected.entry(serving).or_default() += 1;
        if !net.inject(f.home_pop as usize, packet(f, anycast_base)) {
            return Err("burst packet refused".into());
        }
    }
    net.run_secs(10);
    let after = net.observed_catchment();
    let mut took_total = 0;
    for pop in 0..cfg.pops {
        let took = after.get(&pop).copied().unwrap_or(0) - before.get(&pop).copied().unwrap_or(0);
        let want = expected.get(&pop).copied().unwrap_or(0);
        if (took > 0) != (want > 0) || took > want {
            return Err(format!(
                "pop{pop} took {took} burst packets, predicted {want}"
            ));
        }
        took_total += took;
    }
    if (took_total as f64) < 0.99 * inp.burst.len() as f64 {
        return Err(format!(
            "burst delivered {took_total} of {}",
            inp.burst.len()
        ));
    }
    Ok(())
}
