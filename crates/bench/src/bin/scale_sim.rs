//! Sharded-simulation scaling: wall-clock time for one chaos-disturbed
//! platform run at 1/2/4/8 shards, on a topology well past the paper's
//! 13-PoP footprint.
//!
//! Builds a synthetic 16-PoP platform (8 IXP-style PoPs with bilateral
//! peers and a route server, 8 university-style PoPs, full backbone
//! mesh), grows the allocation pools past the published 7-lease budget,
//! attaches 64 experiments (each tunneled into two PoPs, announcing its
//! leased /24 everywhere), then disturbs the steady state with a seeded
//! chaos schedule and lets it settle. The identical workload is repeated
//! at each shard count; every repetition must produce the same metrics
//! snapshot and journal digest — the bench double-checks the determinism
//! contract while measuring.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p peering-bench --bin scale_sim                     # full 16-PoP / 64-exp
//! cargo run --release -p peering-bench --bin scale_sim -- --write          # + docs/results/BENCH_scale.json
//! cargo run --release -p peering-bench --bin scale_sim -- --smoke          # CI: 4 PoPs, 8 exps, 1 vs 2 shards
//! cargo run --release -p peering-bench --bin scale_sim -- --profile-setup  # per-phase setup breakdown
//! cargo run --release -p peering-bench --bin scale_sim -- --smoke --gate   # CI speedup/overhead assertion
//! ```
//!
//! Speedup is bounded by the host: the conservative-window engine only
//! runs shards concurrently when there are cores to put them on, so a
//! single-core host measures the sharding overhead, not the speedup. The
//! committed JSON records `host_cores` alongside the numbers so readers
//! can tell which regime they are looking at.

use std::time::Instant;

use peering_netsim::SimDuration;
use peering_platform::{
    NeighborIntent, NeighborRole, Peering, PlatformIntent, PopIntent, PopKind, Proposal,
};
use peering_testkit::harness::{plan_for_seed, HarnessOptions};
use peering_toolkit::AnnounceOptions;

const RESULTS: &str = "docs/results/BENCH_scale.json";
const SEED: u64 = 20260806;

struct Params {
    pops: usize,
    experiments: usize,
    shard_counts: Vec<usize>,
    /// The chaos plan's window and incident cap (drawn as the testkit
    /// harness draws it); the run settles for another 120 s after the
    /// window closes.
    chaos: HarnessOptions,
}

/// A footprint past the paper's 13 PoPs: even-indexed PoPs are IXP-style
/// (transit + two bilateral peers + a route server with three members),
/// odd ones university-style (one upstream). Every PoP is on the
/// backbone mesh, so cross-PoP latency is 8–74 ms and the sharded engine
/// gets a real lookahead window.
fn scale_intent(n_pops: usize) -> PlatformIntent {
    let mut pops = Vec::new();
    let mut next = 1u32;
    for i in 0..n_pops {
        let name = format!("pop{i:02}");
        let mut neighbors = vec![NeighborIntent {
            id: next,
            name: format!("{name}-transit"),
            asn: 3000 + next,
            role: NeighborRole::Transit,
            rs_members: 0,
        }];
        next += 1;
        for j in 0..2 {
            neighbors.push(NeighborIntent {
                id: next,
                name: format!("{name}-peer-{j}"),
                asn: 10_000 + next,
                role: NeighborRole::Peer,
                rs_members: 0,
            });
            next += 1;
        }
        if i % 2 == 0 {
            neighbors.push(NeighborIntent {
                id: next,
                name: format!("{name}-rs"),
                asn: 6000 + next,
                role: NeighborRole::RouteServer,
                rs_members: 3,
            });
            next += 1;
        }
        pops.push(PopIntent {
            name,
            kind: if i % 2 == 0 {
                PopKind::Ixp
            } else {
                PopKind::University
            },
            neighbors,
            bandwidth_limit: None,
            backbone: true,
        });
    }
    PlatformIntent {
        platform_asn: 47065,
        pops,
        experiments: Vec::new(),
    }
}

/// Where the wall-clock time of the setup phase went, measured on every
/// run (the timers are a handful of `Instant` reads — they do not perturb
/// the measurement). `--profile-setup` prints it; `--write` records the
/// 1-shard breakdown in the JSON.
struct SetupProfile {
    /// [`Peering::build`]'s own phase breakdown.
    build: peering_platform::BuildProfile,
    /// Proposal submission, tunnel opens, BGP session starts.
    attach_secs: f64,
    /// First convergence run: experiment sessions establish.
    establish_secs: f64,
    /// Announce-everywhere plus the second convergence run.
    announce_secs: f64,
}

struct RunResult {
    shards: usize,
    setup_secs: f64,
    setup: SetupProfile,
    run_secs: f64,
    events: u64,
    snapshot_text: String,
    journal_digest: u64,
}

/// One complete measured run: build, attach, announce, disturb, settle.
fn run_once(params: &Params, shards: usize) -> RunResult {
    let t0 = Instant::now();
    let mut p = Peering::build(scale_intent(params.pops), SEED);
    p.grow_allocation_pools(params.experiments + 8, params.experiments + 8);
    p.set_shards(shards);
    let pops = p.pop_names();

    let t_attach = Instant::now();
    let mut experiments = Vec::with_capacity(params.experiments);
    for i in 0..params.experiments {
        // Two PoPs each, spread so every PoP hosts experiments.
        let pop_pair = vec![
            pops[i % pops.len()].clone(),
            pops[(i + pops.len() / 2 + 1) % pops.len()].clone(),
        ];
        let mut proposal = Proposal::basic(&format!("scale-{i:03}"));
        proposal.pops = pop_pair.clone();
        let mut exp = p.submit(proposal).expect("scale proposal accepted");
        for pop in &pop_pair {
            exp.toolkit
                .open_tunnel(&mut p.sim, pop)
                .expect("tunnel opens");
            exp.toolkit.start_bgp(&mut p.sim, pop).expect("bgp starts");
        }
        experiments.push(exp);
    }
    let attach_secs = t_attach.elapsed().as_secs_f64();
    let t_establish = Instant::now();
    p.run_for(SimDuration::from_secs(15));
    let establish_secs = t_establish.elapsed().as_secs_f64();
    let t_announce = Instant::now();
    for exp in &mut experiments {
        let prefix = exp.lease.v4[0];
        exp.toolkit
            .announce_everywhere(&mut p.sim, prefix, &AnnounceOptions::default())
            .expect("announce");
    }
    p.run_for(SimDuration::from_secs(15));
    let announce_secs = t_announce.elapsed().as_secs_f64();
    let setup_secs = t0.elapsed().as_secs_f64();
    let setup = SetupProfile {
        build: p.build_profile,
        attach_secs,
        establish_secs,
        announce_secs,
    };

    // The measured phase: a seeded chaos schedule plus settle time, all
    // BGP sessions live. Identical at every shard count by construction.
    let plan = plan_for_seed(SEED, &p, &params.chaos);
    let events_before = p.sim.processed_events;
    let t1 = Instant::now();
    p.sim.schedule_chaos(&plan);
    p.run_for(plan.end().max(params.chaos.window) + SimDuration::from_secs(120));
    let run_secs = t1.elapsed().as_secs_f64();

    RunResult {
        shards,
        setup_secs,
        setup,
        run_secs,
        events: p.sim.processed_events - events_before,
        snapshot_text: p.obs_snapshot().to_text(),
        journal_digest: p.obs().journal_digest(),
    }
}

fn main() {
    let flags = ["--write", "--smoke", "--profile-setup", "--gate"];
    let args = peering_bench::bench_args(
        "scale_sim [--smoke] [--gate] [--profile-setup] [--write]",
        &flags,
        None,
    );
    let [write, smoke, profile_setup, gate] = flags.map(|f| args.has(f));
    let params = if smoke {
        Params {
            pops: 4,
            experiments: 8,
            shard_counts: vec![1, 2],
            chaos: HarnessOptions {
                window: SimDuration::from_secs(30),
                max_incidents: 4,
                ..HarnessOptions::default()
            },
        }
    } else {
        Params {
            pops: 16,
            experiments: 64,
            shard_counts: vec![1, 2, 4, 8],
            chaos: HarnessOptions {
                window: SimDuration::from_secs(60),
                max_incidents: 12,
                ..HarnessOptions::default()
            },
        }
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "scale_sim: {} PoPs, {} experiments, shard counts {:?}, {host_cores} host cores",
        params.pops, params.experiments, params.shard_counts
    );

    let mut results: Vec<RunResult> = Vec::new();
    for &shards in &params.shard_counts {
        let r = run_once(&params, shards);
        println!(
            "shards={:<2} setup {:>7.2}s  run {:>7.2}s  {:>9} events  {:>10.0} events/s",
            r.shards,
            r.setup_secs,
            r.run_secs,
            r.events,
            r.events as f64 / r.run_secs
        );
        if profile_setup {
            let s = &r.setup;
            println!(
                "  setup breakdown: build {:.3}s (pops {:.3}s, wiring {:.3}s, converge {:.3}s / {} events), attach {:.3}s, establish {:.3}s, announce {:.3}s",
                s.build.total_secs,
                s.build.pops_secs,
                s.build.wiring_secs,
                s.build.converge_secs,
                s.build.converge_events,
                s.attach_secs,
                s.establish_secs,
                s.announce_secs,
            );
        }
        results.push(r);
    }

    // The determinism contract, re-checked on the scale topology: every
    // shard count must reproduce the 1-shard run bit-for-bit.
    let base = &results[0];
    for r in &results[1..] {
        assert_eq!(
            base.snapshot_text, r.snapshot_text,
            "snapshot diverged at {} shards",
            r.shards
        );
        assert_eq!(
            base.journal_digest, r.journal_digest,
            "journal digest diverged at {} shards",
            r.shards
        );
        assert_eq!(
            base.events, r.events,
            "event count diverged at {} shards",
            r.shards
        );
    }
    println!(
        "determinism OK: identical snapshot + journal digest at {:?} shards",
        params.shard_counts
    );

    // CI gate (`--gate`, run by the scale-gate job): on a multi-core host
    // the sharded engine must actually be faster; on a single-core host it
    // cannot be, so the gate bounds its overhead instead.
    if gate {
        // Best-of-three per compared shard count: the smoke workload's
        // measured phase is short enough that one sample is mostly
        // scheduler noise.
        let (one_shards, max_shards) = (results[0].shards, results.last().unwrap().shards);
        let mut one = results[0].run_secs;
        let mut max = results.last().unwrap().run_secs;
        for _ in 0..2 {
            one = one.min(run_once(&params, one_shards).run_secs);
            max = max.min(run_once(&params, max_shards).run_secs);
        }
        if host_cores > 1 {
            assert!(
                max < one,
                "scale gate: {max_shards} shards ran in {max:.3}s, not below the {one_shards}-shard {one:.3}s on a {host_cores}-core host"
            );
            println!(
                "scale gate OK: {max_shards} shards {:.2}x faster than {one_shards} shard on {host_cores} cores",
                one / max
            );
        } else {
            // A single-core host cannot show a speedup; bound the engine
            // overhead instead. The absolute floor keeps millisecond-scale
            // smoke runs from gating on scheduler jitter.
            assert!(
                max <= one * 1.15 + 0.05,
                "scale gate: {max_shards} shards ran in {max:.3}s, more than 15% over the {one_shards}-shard {one:.3}s on a single-core host"
            );
            println!(
                "scale gate OK (single core): {max_shards} shards within {:.1}% of {one_shards} shard",
                (max / one - 1.0) * 100.0
            );
        }
    }

    if write {
        let sp = &results[0].setup;
        let setup_profile = format!(
            r#"{{
      "build_secs": {:.3},
      "build_pops_secs": {:.3},
      "build_wiring_secs": {:.3},
      "build_converge_secs": {:.3},
      "build_converge_events": {},
      "attach_secs": {:.3},
      "establish_secs": {:.3},
      "announce_secs": {:.3}
    }}"#,
            sp.build.total_secs,
            sp.build.pops_secs,
            sp.build.wiring_secs,
            sp.build.converge_secs,
            sp.build.converge_events,
            sp.attach_secs,
            sp.establish_secs,
            sp.announce_secs,
        );
        let rows: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    r#"    {{ "shards": {}, "setup_secs": {:.3}, "run_secs": {:.3}, "events": {}, "events_per_sec": {:.0}, "speedup": {:.2} }}"#,
                    r.shards,
                    r.setup_secs,
                    r.run_secs,
                    r.events,
                    r.events as f64 / r.run_secs,
                    base.run_secs / r.run_secs,
                )
            })
            .collect();
        let json = format!(
            r#"{{
  "generated": "2026-08-09",
  "commands": {{
    "regenerate": "cargo run --release -p peering-bench --bin scale_sim -- --write",
    "ci_smoke": "cargo run --release -p peering-bench --bin scale_sim -- --smoke"
  }},
  "scale_sim": {{
    "description": "wall-clock time for one chaos-disturbed platform run (16 PoPs, 64 experiments, full backbone mesh) at increasing shard counts; each shard owns a subset of PoPs and advances inside conservative lookahead windows bounded by the minimum cross-shard link latency",
    "pops": {},
    "experiments": {},
    "host_cores": {host_cores},
    "overhead_only": {overhead_only},
    "seed": {SEED},
    "determinism": "identical Snapshot::to_text and journal digest at every shard count (asserted by the bench before writing)",
    "setup_profile": {setup_profile},
    "rows": [
{}
    ],
    "interpretation": "speedup is run_secs(1 shard) / run_secs(N shards); with host_cores = 1 the engine cannot run shards concurrently, so these rows measure the window/merge overhead of the sharded engine, not its parallel speedup — rerun on a multi-core host for the scaling curve",
    "paper_context": {{
      "claim": "the evaluation (§6) scales PEERING to hundreds of peers across many PoPs; the reproduction's simulator must scale past one core to explore such topologies",
      "section": "6 evaluation at scale"
    }}
  }}
}}
"#,
            params.pops,
            params.experiments,
            rows.join(",\n"),
            overhead_only = host_cores == 1,
        );
        std::fs::write(RESULTS, json).expect("write results JSON");
        println!("wrote {RESULTS}");
    }
}
