//! The `dfz-churn` workload: one IXP PoP whose route server feeds a
//! synthetic DFZ from its members to two ADD-PATH experiments, then 120
//! simulated seconds of AMS-IX churn with a data-plane probe every 250 ms
//! quantum.
//!
//! Everything the generator computes — each member's slice of the table,
//! every churn event's announce-or-withdraw and path variant, the probe
//! targets — is derived before the timers start. The feed and the replay
//! then make the same platform calls `DfzFabric::feed` and
//! `DfzFabric::replay` make, timed call by call.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use peering_bgp::attrs::PathAttributes;
use peering_bgp::types::Prefix;
use peering_netsim::{NodeId, SimDuration};
use peering_platform::InternetAs;
use peering_workload::{
    ChurnConfig, ChurnSchedule, DfzConfig, DfzFabric, DfzGenerator, FabricConfig,
};

use crate::report::{counter_deltas, ratio, rss_mb};
use crate::trace::Tracer;

/// Churn quantum (and probe period), simulated milliseconds.
const QUANTUM_MS: u64 = 250;
/// Upper bound on 1 s convergence checks after the feed.
const MAX_SETTLE_SECS: usize = 600;
/// Simulated seconds the healed table gets to converge.
const HEAL_SECS: u64 = 10;
/// ADD-PATH experiments attached to the PoP.
pub const EXPERIMENTS: usize = 2;

/// Size of the DFZ workload.
#[derive(Debug, Clone, Copy)]
pub struct DfzCfg {
    /// IPv4 routes in the table.
    pub v4: usize,
    /// IPv6 routes in the table.
    pub v6: usize,
    /// Route-server members the table is split across.
    pub members: usize,
    /// Simulated seconds of churn.
    pub churn_secs: u32,
}

impl DfzCfg {
    fn table(&self, seed: u64) -> DfzGenerator {
        DfzGenerator::new(DfzConfig::sized(seed, self.v4, self.v6))
    }
}

/// One route change: member `member` announces `prefix` with `attrs`, or
/// withdraws it when `attrs` is `None`.
#[derive(Debug, Clone)]
pub struct RouteOp {
    /// Index into the fabric's member list.
    pub member: usize,
    /// The route.
    pub prefix: Prefix,
    /// New attributes, or `None` to withdraw.
    pub attrs: Option<PathAttributes>,
}

/// A data-plane probe: experiment index, the prefix its route is looked
/// up for, and the destination.
pub type Probe = (usize, Prefix, Ipv4Addr);

/// Inputs derived from the seed before any timer starts.
pub struct Inputs {
    /// Each member's slice of the table, in member order.
    pub feed: Vec<Vec<(Prefix, PathAttributes)>>,
    /// The churn schedule the ops below come from.
    pub schedule: ChurnSchedule,
    /// Route changes due in each churn quantum.
    pub quanta: Vec<Vec<RouteOp>>,
    /// The probe sent after each quantum.
    pub probes: Vec<Probe>,
    /// Re-announcements of everything churn left withdrawn.
    pub heal: Vec<RouteOp>,
    /// Every prefix of the table (the completeness check's list).
    pub prefixes: Vec<Prefix>,
}

/// Derive a workload's inputs from `seed`.
pub fn inputs(seed: u64, cfg: &DfzCfg) -> Inputs {
    let gen = cfg.table(seed);
    let total = gen.len();
    let slice = |m: usize| (m * total / cfg.members, (m + 1) * total / cfg.members);
    let mut owner = vec![0usize; total];
    let feed: Vec<Vec<(Prefix, PathAttributes)>> = (0..cfg.members)
        .map(|m| {
            let (start, end) = slice(m);
            owner[start..end].fill(m);
            (start..end)
                .map(|i| {
                    let r = gen.route(i);
                    (r.prefix, r.attrs)
                })
                .collect()
        })
        .collect();

    // The fabric's toggle rule: a withdrawn route comes back with its
    // next path variant, an announced one is withdrawn.
    let schedule = ChurnSchedule::generate(ChurnConfig::amsix(seed ^ 0xc4, cfg.churn_secs, total));
    let n_quanta = (cfg.churn_secs as u64 * 1000 / QUANTUM_MS) as usize;
    let mut quanta: Vec<Vec<RouteOp>> = vec![Vec::new(); n_quanta];
    let mut withdrawn: BTreeMap<usize, u32> = BTreeMap::new();
    let mut flaps: BTreeMap<usize, u32> = BTreeMap::new();
    for e in schedule.events() {
        let attrs = match withdrawn.remove(&e.route) {
            Some(bump) => Some(gen.route_flapped(e.route, bump).attrs),
            None => {
                let n = flaps.entry(e.route).or_insert(0);
                *n += 1;
                withdrawn.insert(e.route, *n);
                None
            }
        };
        quanta[(e.at_ms / QUANTUM_MS) as usize].push(RouteOp {
            member: owner[e.route],
            prefix: gen.prefix(e.route),
            attrs,
        });
    }
    let heal = withdrawn
        .into_iter()
        .map(|(route, bump)| RouteOp {
            member: owner[route],
            prefix: gen.prefix(route),
            attrs: Some(gen.route_flapped(route, bump).attrs),
        })
        .collect();

    // The fabric's rotating probe: a stride over the v4 table,
    // round-robin over experiments.
    let probes = (1..=n_quanta)
        .map(|i| {
            let prefix = gen.prefix((i * 7919) % cfg.v4);
            let Prefix::V4 { addr, .. } = prefix else {
                unreachable!("indexes below v4 are IPv4 routes")
            };
            (i % EXPERIMENTS, prefix, Ipv4Addr::from(u32::from(addr) + 1))
        })
        .collect();

    Inputs {
        feed,
        schedule,
        quanta,
        probes,
        heal,
        prefixes: (0..total).map(|i| gen.prefix(i)).collect(),
    }
}

/// What one pass measured and counted.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// `DfzFabric::build`, seconds.
    pub build_s: f64,
    /// Full-table feed until the Loc-RIB is stable, seconds.
    pub feed_s: f64,
    /// Simulator events processed by the feed.
    pub feed_events: u64,
    /// The feed reached a stable, complete Loc-RIB.
    pub feed_converged: bool,
    /// RSS before build (the process and the benchmark's inputs), MB.
    pub rss_before_build_mb: f64,
    /// RSS after build, MB.
    pub rss_after_build_mb: f64,
    /// RSS after the feed, MB.
    pub rss_after_feed_mb: f64,
    /// Router Loc-RIB prefixes after the feed.
    pub rib_prefixes: usize,
    /// Router Adj-RIB-In paths after the feed.
    pub adj_in_paths: usize,
    /// Interned attribute sets at the router after the feed.
    pub interned_attrs: usize,
    /// UPDATE messages the router received during set-up.
    pub updates_in: u64,
    /// Seconds of the churn replay (route changes, `run_for`, probes).
    pub replay_s: f64,
    /// Churn events applied.
    pub applied: u64,
    /// Simulator events processed during the replay.
    pub churn_events: u64,
    /// Each quantum's `run_for` wall time, ms.
    pub quantum_ms: Vec<f64>,
    /// Each quantum's whole wall time (changes, `run_for`, probe), seconds.
    pub quantum_s: Vec<f64>,
    /// Obs counter deltas over the replay.
    pub counters: BTreeMap<&'static str, u64>,
    /// Expected prefixes in the Loc-RIB after heal ÷ expected.
    pub rib_complete: f64,
    /// Expected prefixes missing after heal.
    pub missing: u64,
}

impl Pass {
    /// Wall-clock set-up time: build plus the full-table feed.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.feed_s
    }

    /// RSS the fabric added by the end of the feed, per Loc-RIB prefix:
    /// the benchmark's own inputs, resident before build, are left out.
    pub fn bytes_per_route(&self) -> f64 {
        let added_mb = self.rss_after_feed_mb - self.rss_before_build_mb;
        ratio(added_mb * 1e6, self.rib_prefixes as f64)
    }

    /// Churn events per wall second of the replay.
    pub fn eps(&self) -> f64 {
        self.applied as f64 / self.replay_s
    }

    /// Counter delta by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

fn apply(fabric: &mut DfzFabric, member: NodeId, op: RouteOp) {
    fabric
        .peering
        .sim
        .with_node_ctx::<InternetAs, _>(member, |n, ctx| {
            let out = match op.attrs {
                Some(attrs) => n.host.speaker.originate(op.prefix, attrs),
                None => n.host.speaker.withdraw_origin(op.prefix),
            };
            n.host.apply(ctx, out);
        });
}

/// Run one pass: build, feed, churn, heal and check.
pub fn run_pass(seed: u64, cfg: &DfzCfg, inp: &Inputs, t: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let fabric_cfg = FabricConfig {
        seed,
        pops: 1,
        members: cfg.members,
        experiments: EXPERIMENTS,
        shards: 1,
    };
    let gen = cfg.table(seed);
    p.rss_before_build_mb = rss_mb();
    let (mut fabric, build_s) = t.time("platform.build", || DfzFabric::build(fabric_cfg, gen));
    p.build_s = build_s;
    p.rss_after_build_mb = rss_mb();
    let members = fabric.member_nodes().to_vec();

    // Feed: each member announces its slice, 200 ms apart, then 1 s
    // steps until the Loc-RIB is complete and unchanged three times.
    let feed = inp.feed.clone();
    let expected = fabric.expected_router_prefixes();
    let events0 = fabric.peering.sim.processed_events;
    let open = t.enter("platform.feed");
    for (routes, &node) in feed.into_iter().zip(&members) {
        t.time("bgp.originate_many", || {
            fabric
                .peering
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| {
                    let out = n.host.speaker.originate_many(routes);
                    n.host.apply(ctx, out);
                })
        });
        t.time("netsim.run_for", || {
            fabric.peering.run_for(SimDuration::from_millis(200))
        });
    }
    let (mut stable, mut last) = (0, Vec::new());
    for _ in 0..MAX_SETTLE_SECS {
        t.time("netsim.run_for", || {
            fabric.peering.run_for(SimDuration::from_secs(1))
        });
        let counts = fabric.router_prefix_counts();
        if counts == last && counts.iter().all(|&c| c >= expected) {
            stable += 1;
            if stable == 3 {
                break;
            }
        } else {
            stable = 0;
            last = counts;
        }
    }
    p.feed_s = t.exit(open);
    p.feed_converged = stable == 3;
    p.feed_events = fabric.peering.sim.processed_events - events0;
    p.rss_after_feed_mb = rss_mb();
    p.rib_prefixes = last.first().copied().unwrap_or(0);
    if let Some((_, paths, attrs)) = fabric.router_attr_stats().into_iter().next() {
        (p.adj_in_paths, p.interned_attrs) = (paths, attrs);
    }
    p.updates_in = fabric.router_updates_in().first().map_or(0, |u| u.1);

    // Churn replay.
    let quanta = inp.quanta.clone();
    let before = fabric.peering.obs_snapshot();
    let events0 = fabric.peering.sim.processed_events;
    let open = t.enter("churn.replay");
    for (ops, &(exp, via, dst)) in quanta.into_iter().zip(&inp.probes) {
        let quantum = t.enter("churn.quantum");
        p.applied += ops.len() as u64;
        t.time("bgp.churn_apply", || {
            for op in ops {
                apply(&mut fabric, members[op.member], op);
            }
        });
        let ((), run_s) = t.time("netsim.run_for", || {
            fabric.peering.run_for(SimDuration::from_millis(QUANTUM_MS))
        });
        t.time("platform.probe", || fabric.probe(exp, via, dst));
        p.quantum_s.push(t.exit(quantum));
        p.quantum_ms.push(run_s * 1e3);
    }
    p.replay_s = t.exit(open);
    p.churn_events = fabric.peering.sim.processed_events - events0;
    p.counters = counter_deltas(&before, &fabric.peering.obs_snapshot());

    // Heal and check (untimed).
    for op in inp.heal.iter().cloned() {
        apply(&mut fabric, members[op.member], op);
    }
    fabric.peering.run_for(SimDuration::from_secs(HEAL_SECS));
    let present = inp
        .prefixes
        .iter()
        .filter(|&&prefix| fabric.router_has_prefix(0, prefix))
        .count();
    let total = fabric.router_prefix_counts().first().copied().unwrap_or(0);
    let baseline = expected - inp.prefixes.len();
    let found = present + total.saturating_sub(present).min(baseline);
    p.missing = (expected - found) as u64;
    p.rib_complete = found as f64 / expected as f64;
    p
}
