//! Workload selection, the pass loop, correctness gates and metrics.
//!
//! An untraced run repeats whole passes (set-up plus timed phase) of
//! one seed's inputs until it has measured `--seconds` of timed phase
//! and set up at least [`MIN_PASSES`] times, and reports each timed
//! quantum's and the set-up's fastest pass (see [`composite_s`]). A
//! traced run makes three passes of the same inputs (see
//! [`traced_passes`]), then the standalone layer replays.

use std::path::PathBuf;
use std::time::Instant;

use crate::dfz::{self, DfzCfg};
use crate::replay;
use crate::report::{composite_s, fastest, nproc, peak_rss_mb, quantile, ratio, Report};
use crate::serve::{self, ServeCfg};
use crate::trace::Tracer;

/// Fewest set-ups an untraced run makes (`setup_s` is the fastest).
pub const MIN_PASSES: usize = 5;
/// Most passes an untraced run makes.
const MAX_PASSES: usize = 10;
/// Wall seconds after which no further pass starts.
const WALL_BUDGET_S: f64 = 100.0;

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("completion", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports all of them, 0 where the
/// layer does no such work on the workload.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("platform.build_s", "s"),
    ("platform.converge_s", "s"),
    ("platform.converge_events", "count"),
    ("internet.inject_ns_per_pkt", "ns"),
    ("internet.inject_refused", "count"),
    ("netsim.run_ns_per_pkt", "ns"),
    ("netsim.events_per_pkt", "events/pkt"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.link_drops", "count"),
    ("netsim.quantum_ms_p50", "ms"),
    ("netsim.quantum_ms_p90", "ms"),
    ("netsim.churn_events_per_event", "events/event"),
    ("netsim.churn_quantum_ms_p50", "ms"),
    ("netsim.churn_quantum_ms_p95", "ms"),
    ("mux.flow_cache_hit_ratio", "fraction"),
    ("mux.no_route", "count"),
    ("mux.urpf_ns", "ns"),
    ("mux.deliver_ns", "ns"),
    ("mux.fib_rebuilds", "count"),
    ("mux.fib_patch_rounds", "count"),
    ("mux.fib_prefixes_patched", "count"),
    ("flatfib.warmup_s", "s"),
    ("flatfib.warmup_rss_mb", "MB"),
    ("flatfib.build_ms", "ms"),
    ("flatfib.sync_v4_ms", "ms"),
    ("flatfib.sync_v6_ms", "ms"),
    ("flatfib.bytes", "B"),
    ("data.blocked_urpf", "count"),
    ("data.blocked_program", "count"),
    ("data.blocked_flood", "count"),
    ("data.prog_cache_hit_ratio", "fraction"),
    ("data.ingress_ns_per_pkt", "ns"),
    ("data.attack_block", "fraction"),
    ("pprog.ns_per_run", "ns"),
    ("pprog.fuel_per_run", "fuel"),
    ("speaker.nlri_per_update", "nlri/update"),
    ("speaker.attr_dedup", "paths/attrs"),
    ("speaker.decode_ns_per_nlri", "ns"),
    ("speaker.feed_ns_per_nlri", "ns"),
    ("speaker.churn_ns_per_event", "ns"),
    ("speaker.encode_ns_per_nlri", "ns"),
    ("speaker.updates_out_per_nlri", "updates/nlri"),
    ("speaker.rib_bytes_per_route", "B"),
    ("transport.resets", "count"),
    ("rss.after_build_mb", "MB"),
    ("rss.after_setup_mb", "MB"),
    ("memory.bytes_per_route", "B"),
    ("serve.unaccounted_ns_per_pkt", "ns"),
    ("trace.overhead", "fraction"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric is declared")
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 13 PoPs under attack, defended by uRPF, the SYN program and the
    /// flood budget.
    ServeAttack,
    /// The same deployment and schedule with no ingress policy.
    ServeBare,
    /// `ServeAttack` on two simulator shards.
    ServeSharded,
    /// A DFZ fed through an IXP route server, then AMS-IX churn.
    DfzChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeAttack,
        Workload::ServeBare,
        Workload::ServeSharded,
        Workload::DfzChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeAttack => "serve-attack",
            Workload::ServeBare => "serve-bare",
            Workload::ServeSharded => "serve-sharded",
            Workload::DfzChurn => "dfz-churn",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a seconds-long smoke size for
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A small size with the same structure.
    Smoke,
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Timed-phase seconds an untraced run measures at least.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Where a traced run writes its spans (none when `None`).
    pub trace_dir: Option<PathBuf>,
}

fn serve_cfg(w: Workload, size: Size) -> ServeCfg {
    let (pops, flows, burst_flows) = match size {
        Size::Full => (13, 125_000, 2_000),
        Size::Smoke => (4, 900, 64),
    };
    ServeCfg {
        pops,
        flows,
        shards: if w == Workload::ServeSharded { 2 } else { 1 },
        defended: w != Workload::ServeBare,
        burst_flows,
    }
}

fn dfz_cfg(size: Size) -> DfzCfg {
    match size {
        Size::Full => DfzCfg {
            v4: 20_000,
            v6: 4_000,
            members: 64,
            churn_secs: 120,
        },
        Size::Smoke => DfzCfg {
            v4: 5_000,
            v6: 1_000,
            members: 16,
            churn_secs: 8,
        },
    }
}

/// Run one invocation.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    report.fact("workload", opts.workload.name());
    report.fact("seed", opts.seed);
    report.fact("nproc", nproc());
    report.fact(
        "transport",
        "in-process simulator links; no NIC, no loopback",
    );
    let mut tracer = Tracer::new(opts.trace);
    if opts.trace {
        for (name, unit) in PER_LAYER {
            report.metrics.put(name, 0.0, unit);
        }
    }
    match opts.workload {
        Workload::DfzChurn => run_dfz(opts, &mut report, &mut tracer),
        w => run_serve(opts, serve_cfg(w, opts.size), &mut report, &mut tracer),
    }
    if !opts.trace {
        put(&mut report, "peak_rss_mb", peak_rss_mb());
    }
    if let (true, Some(dir)) = (opts.trace, &opts.trace_dir) {
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        if let Err(e) = tracer.write(&path) {
            report
                .violations
                .push(format!("writing {}: {e}", path.display()));
        }
        report.fact("trace_file", path.display());
    }
    if opts.trace {
        report.fact("span_totals", span_table(&tracer));
    }
    report
}

fn put(r: &mut Report, name: &'static str, value: f64) {
    r.metrics.put(name, value, unit_of(name));
}

/// Repeat passes until the timed phases add up to `seconds` and at
/// least [`MIN_PASSES`] set-ups have been made.
fn passes<P>(opts: &Options, timed_s: impl Fn(&P) -> f64, mut pass: impl FnMut() -> P) -> Vec<P> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass());
        let measured: f64 = out.iter().map(&timed_s).sum();
        let enough = out.len() >= MIN_PASSES && measured >= opts.seconds;
        if enough || out.len() >= MAX_PASSES || started.elapsed().as_secs_f64() > WALL_BUDGET_S {
            return out;
        }
    }
}

/// A traced run's passes, all on the same inputs: a first pass in the
/// fresh process, whose RSS readings hold nothing from earlier passes
/// and are the ones reported; then an untraced and a traced pass, both
/// in the now warm process. The traced pass gives the reported spans,
/// times and counts, and its timed phase over the untraced one's is the
/// tracing overhead.
fn traced_passes<P>(t: &mut Tracer, mut pass: impl FnMut(&mut Tracer) -> P) -> Vec<P> {
    let fresh = pass(&mut Tracer::new(false));
    let untraced = pass(&mut Tracer::new(false));
    let traced = pass(t);
    vec![fresh, untraced, traced]
}

fn run_serve(opts: &Options, cfg: ServeCfg, r: &mut Report, t: &mut Tracer) {
    let inp = serve::inputs(opts.seed, &cfg);
    r.fact("pops", cfg.pops);
    r.fact("flows", cfg.flows);
    r.fact("shards", cfg.shards);
    r.fact("defended", cfg.defended);

    let runs = if opts.trace {
        traced_passes(t, |t| serve::run_pass(opts.seed, &cfg, &inp, t))
    } else {
        passes(opts, serve::Pass::serve_s, || {
            serve::run_pass(opts.seed, &cfg, &inp, t)
        })
    };
    r.fact("passes", runs.len());
    r.fact("packets_per_pass", runs[0].injected);
    for p in &runs {
        gate_serve(r, &cfg, p, &runs[0]);
        r.attempted += p.sent.iter().sum::<u64>();
        let lost = if cfg.defended {
            p.sent[0] - p.delivered[0].min(p.sent[0])
        } else {
            p.sent.iter().sum::<u64>() - p.delivered.iter().sum::<u64>()
        };
        r.failed += p.refused + lost;
    }

    if !opts.trace {
        let setup: Vec<f64> = runs.iter().map(serve::Pass::setup_s).collect();
        let pps: Vec<f64> = runs.iter().map(serve::Pass::pps).collect();
        let quanta: Vec<Vec<f64>> = runs.iter().map(serve::Pass::quantum_s).collect();
        let quanta: Vec<&[f64]> = quanta.iter().map(Vec::as_slice).collect();
        let drain: Vec<f64> = runs.iter().map(|p| p.drain_s).collect();
        let serve_s = composite_s(&quanta) + fastest(&drain);
        r.fact("setup_s_per_pass", format!("{setup:.3?}"));
        r.fact("throughput_per_pass", format!("{pps:.0?}"));
        put(r, "setup_s", fastest(&setup));
        put(r, "throughput", runs[0].injected as f64 / serve_s);
        put(r, "completion", runs[0].legit_delivery());
        return;
    }

    let (fresh, base, p) = (&runs[0], &runs[1], &runs[2]);
    let n = p.injected as f64;
    let inject_ns = p.inject_s() * 1e9 / n;
    let run_ns = p.run_s() * 1e9 / n;
    put(r, "platform.build_s", p.build_s);
    put(r, "platform.converge_s", p.converge_s);
    put(r, "platform.converge_events", p.converge_events as f64);
    put(r, "internet.inject_ns_per_pkt", inject_ns);
    put(r, "internet.inject_refused", p.refused as f64);
    put(r, "netsim.run_ns_per_pkt", run_ns);
    put(r, "netsim.events_per_pkt", p.serve_events as f64 / n);
    put(
        r,
        "netsim.ns_per_event",
        p.run_s() * 1e9 / p.serve_events as f64,
    );
    put(
        r,
        "netsim.link_drops",
        p.counter("netsim.link_drops") as f64,
    );
    let quantum_ms: Vec<f64> = p.quanta.iter().map(|q| q.1 * 1e3).collect();
    put(r, "netsim.quantum_ms_p50", quantile(&quantum_ms, 0.5));
    put(r, "netsim.quantum_ms_p90", quantile(&quantum_ms, 0.9));
    let hits = p.counter("mux.flow_cache_hits") as f64;
    let lookups = hits + p.counter("mux.flow_cache_misses") as f64;
    put(r, "mux.flow_cache_hit_ratio", ratio(hits, lookups));
    put(r, "mux.no_route", p.counter("mux.no_route") as f64);
    put_fib_counters(r, |n| p.counter(n));
    put(r, "flatfib.warmup_s", p.warmup_s);
    put(r, "flatfib.warmup_rss_mb", fresh.warmup_rss_mb);
    put(
        r,
        "data.blocked_urpf",
        p.counter("data.ingress_blocked{policy=urpf}") as f64,
    );
    put(
        r,
        "data.blocked_program",
        p.counter("data.ingress_blocked{policy=program-block}") as f64,
    );
    put(
        r,
        "data.blocked_flood",
        p.counter("data.ingress_blocked{policy=flood-budget}") as f64,
    );
    let cache_hits = p.counter("data.prog_cache_hits") as f64;
    let decisions = cache_hits + p.counter("data.prog_runs") as f64;
    put(r, "data.prog_cache_hit_ratio", ratio(cache_hits, decisions));
    put(
        r,
        "data.attack_block",
        if cfg.defended { p.attack_block() } else { 0.0 },
    );
    put(r, "rss.after_build_mb", fresh.rss_after_build_mb);
    put(r, "rss.after_setup_mb", fresh.rss_after_setup_mb);
    let untraced_ns = base.serve_s() * 1e9 / n;
    let overhead = (inject_ns + run_ns) / untraced_ns - 1.0;
    put(r, "trace.overhead", overhead);
    r.fact(
        "reconcile_ns_per_pkt",
        format!(
            "traced inject {inject_ns:.0} + run {run_ns:.0} = {:.0}; \
             untraced serve phase {untraced_ns:.0}; difference {:+.1}% = trace.overhead",
            inject_ns + run_ns,
            overhead * 100.0
        ),
    );

    let anycast = p.anycast.expect("pass records the anycast prefix");
    let c = replay::serve(&cfg, &inp, anycast, t);
    put(r, "mux.urpf_ns", c.urpf_ns);
    put(r, "mux.deliver_ns", c.deliver_ns);
    put(r, "data.ingress_ns_per_pkt", c.ingress_ns);
    put(r, "pprog.ns_per_run", c.prog_ns);
    put(r, "pprog.fuel_per_run", c.prog_fuel);
    // The replays price uRPF and enforcement for every packet and
    // delivery for the packets that pass; what they leave of the traced
    // time per packet is dispatch, links, router and experiment node.
    let accounted =
        c.urpf_ns + c.ingress_ns + c.deliver_ns * c.delivered as f64 / c.packets.max(1) as f64;
    put(
        r,
        "serve.unaccounted_ns_per_pkt",
        inject_ns + run_ns - accounted,
    );
}

fn gate_serve(r: &mut Report, cfg: &ServeCfg, p: &serve::Pass, first: &serve::Pass) {
    r.gate(p.refused == 0, || {
        format!("{} injections refused", p.refused)
    });
    if cfg.defended {
        let (legit, block) = (p.legit_delivery(), p.attack_block());
        r.gate(legit >= 0.99, || {
            format!("legit delivery {legit:.4} < 0.99")
        });
        r.gate(block >= 0.95, || format!("attack block {block:.4} < 0.95"));
    } else {
        let (sent, delivered) = (p.sent.iter().sum::<u64>(), p.delivered.iter().sum::<u64>());
        r.gate(sent == delivered, || {
            format!("undefended run delivered {delivered} of {sent}")
        });
    }
    if let Some(e) = &p.catchment_error {
        r.gate(false, || format!("catchment: {e}"));
    }
    let same = p.sent == first.sent
        && p.delivered == first.delivered
        && p.converge_events == first.converge_events
        && p.serve_events == first.serve_events
        && p.counters == first.counters;
    r.gate(same, || {
        "two passes of one seed disagree on their counts".into()
    });
}

fn put_fib_counters(r: &mut Report, counter: impl Fn(&str) -> u64) {
    put(r, "mux.fib_rebuilds", counter("mux.fib_rebuilds") as f64);
    put(
        r,
        "mux.fib_patch_rounds",
        counter("mux.fib_patch_rounds") as f64,
    );
    put(
        r,
        "mux.fib_prefixes_patched",
        counter("mux.fib_prefixes_patched") as f64,
    );
    let resets = counter("transport.gap_resets") + counter("transport.decode_resets");
    put(r, "transport.resets", resets as f64);
}

fn run_dfz(opts: &Options, r: &mut Report, t: &mut Tracer) {
    let cfg = dfz_cfg(opts.size);
    let inp = dfz::inputs(opts.seed, &cfg);
    r.fact("v4_routes", cfg.v4);
    r.fact("v6_routes", cfg.v6);
    r.fact("members", cfg.members);
    r.fact("experiments", dfz::EXPERIMENTS);
    r.fact("churn_events", inp.schedule.events().len());

    let runs = if opts.trace {
        traced_passes(t, |t| dfz::run_pass(opts.seed, &cfg, &inp, t))
    } else {
        passes(
            opts,
            |p: &dfz::Pass| p.replay_s,
            || dfz::run_pass(opts.seed, &cfg, &inp, t),
        )
    };
    r.fact("passes", runs.len());
    let scheduled = inp.schedule.events().len() as u64;
    for p in &runs {
        r.gate(p.feed_converged, || {
            "the feed never reached a stable, complete Loc-RIB".into()
        });
        r.gate(p.applied == scheduled, || {
            format!("applied {} of {scheduled} churn events", p.applied)
        });
        r.gate(p.missing == 0, || {
            format!("{} expected prefixes missing after heal", p.missing)
        });
        let resets = p.counter("transport.gap_resets") + p.counter("transport.decode_resets");
        r.gate(resets == 0, || format!("{resets} transport resets"));
        let first = &runs[0];
        let same = p.applied == first.applied
            && p.feed_events == first.feed_events
            && p.churn_events == first.churn_events
            && p.counters == first.counters;
        r.gate(same, || {
            "two passes of one seed disagree on their counts".into()
        });
        r.attempted += scheduled;
        r.failed += scheduled - p.applied.min(scheduled) + p.missing;
    }

    if !opts.trace {
        let setup: Vec<f64> = runs.iter().map(dfz::Pass::setup_s).collect();
        let eps: Vec<f64> = runs.iter().map(dfz::Pass::eps).collect();
        let quanta: Vec<&[f64]> = runs.iter().map(|p| &p.quantum_s[..]).collect();
        r.fact("setup_s_per_pass", format!("{setup:.3?}"));
        r.fact("throughput_per_pass", format!("{eps:.1?}"));
        put(r, "setup_s", fastest(&setup));
        put(r, "throughput", scheduled as f64 / composite_s(&quanta));
        put(r, "completion", runs[0].rib_complete);
        return;
    }

    let (fresh, base, p) = (&runs[0], &runs[1], &runs[2]);
    put(r, "platform.build_s", p.build_s);
    put(r, "platform.converge_s", p.feed_s);
    put(r, "platform.converge_events", p.feed_events as f64);
    put(
        r,
        "netsim.churn_events_per_event",
        p.churn_events as f64 / p.applied.max(1) as f64,
    );
    put(
        r,
        "netsim.churn_quantum_ms_p50",
        quantile(&p.quantum_ms, 0.5),
    );
    put(
        r,
        "netsim.churn_quantum_ms_p95",
        quantile(&p.quantum_ms, 0.95),
    );
    put_fib_counters(r, |n| p.counter(n));
    put(
        r,
        "speaker.nlri_per_update",
        ratio(p.adj_in_paths as f64, p.updates_in as f64),
    );
    put(
        r,
        "speaker.attr_dedup",
        ratio(p.adj_in_paths as f64, p.interned_attrs as f64),
    );
    put(r, "rss.after_build_mb", fresh.rss_after_build_mb);
    put(r, "rss.after_setup_mb", fresh.rss_after_feed_mb);
    put(r, "memory.bytes_per_route", fresh.bytes_per_route());
    put(r, "trace.overhead", p.replay_s / base.replay_s - 1.0);

    let fib = replay::flatfib(&inp, t);
    put(r, "flatfib.build_ms", fib.build_ms);
    put(r, "flatfib.sync_v4_ms", fib.sync_v4_ms);
    put(r, "flatfib.sync_v6_ms", fib.sync_v6_ms);
    put(r, "flatfib.bytes", fib.bytes);
    let s = replay::speaker(&inp, t);
    put(r, "speaker.decode_ns_per_nlri", s.decode_ns);
    put(r, "speaker.feed_ns_per_nlri", s.feed_ns);
    put(r, "speaker.churn_ns_per_event", s.churn_ns);
    put(r, "speaker.encode_ns_per_nlri", s.encode_ns);
    put(r, "speaker.updates_out_per_nlri", s.updates_out_per_nlri);
    put(r, "speaker.rib_bytes_per_route", s.rib_bytes_per_route);
}

/// Self time per span name, largest first, joined into one line.
fn span_table(t: &Tracer) -> String {
    let mut rows: Vec<_> = t.totals().into_iter().collect();
    rows.sort_by_key(|(_, v)| std::cmp::Reverse(v.self_ns));
    rows.iter()
        .map(|(name, v)| {
            format!(
                "{name}: {} spans, {:.3} s total, {:.3} s self",
                v.count,
                v.total_ns as f64 / 1e9,
                v.self_ns as f64 / 1e9
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}
