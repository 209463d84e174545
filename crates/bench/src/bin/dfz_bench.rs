//! Full-DFZ workload benchmark: a synthetic internet table (~1M IPv4 +
//! ~200k IPv6 routes with realistic prefix-length and AS-path-length
//! distributions) fed through an IXP fabric of route-server members,
//! then disturbed by AMS-IX-calibrated churn (§6's context: the
//! flagship deployment's router held 2.7M routes and saw p99 ≈ 400
//! updates/s).
//!
//! Measures end to end:
//! - **convergence**: simulated + wall-clock time from first feed to a
//!   stable full Loc-RIB at every PoP router;
//! - **steady-state memory**: process RSS after convergence
//!   (`/proc/self/status` VmRSS);
//! - **AttrStore dedup**: Adj-RIB-In paths per interned attribute set at
//!   the router — what hash-consing buys on a full table (Fig. 6a);
//! - **coalescing**: NLRI per received UPDATE at the router — what the
//!   flush-time attribute grouping buys;
//! - **churn**: events replayed, measured p50/p99 of the schedule, and
//!   the FIB patch-vs-rebuild counters the probes drove.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p peering-bench --bin dfz_bench             # full 1.2M-route / 256-member run
//! cargo run --release -p peering-bench --bin dfz_bench -- --write  # + docs/results/BENCH_dfz.json
//! cargo run --release -p peering-bench --bin dfz_bench -- --smoke  # CI: 16 members, 6k routes
//! ```

use std::time::Instant;

use peering_netsim::SimDuration;
use peering_workload::{
    ChurnConfig, ChurnSchedule, DfzConfig, DfzFabric, DfzGenerator, FabricConfig,
};

const RESULTS: &str = "docs/results/BENCH_dfz.json";
const SEED: u64 = 20260809;

struct Params {
    v4_routes: usize,
    v6_routes: usize,
    members: usize,
    experiments: usize,
    churn_secs: u32,
}

/// Resident-set size in bytes, from /proc/self/status (Linux).
fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn main() {
    let flags = ["--write", "--smoke"];
    let args = peering_bench::bench_args("dfz_bench [--smoke] [--write]", &flags, None);
    let [write, smoke] = flags.map(|f| args.has(f));
    let params = if smoke {
        Params {
            v4_routes: 5_400,
            v6_routes: 600,
            members: 16,
            experiments: 2,
            churn_secs: 8,
        }
    } else {
        Params {
            v4_routes: 1_000_000,
            v6_routes: 200_000,
            members: 256,
            experiments: 4,
            churn_secs: 30,
        }
    };
    println!(
        "dfz_bench: {} v4 + {} v6 routes over {} members, {} experiments",
        params.v4_routes, params.v6_routes, params.members, params.experiments
    );

    let t_build = Instant::now();
    let gen = DfzGenerator::new(DfzConfig::sized(SEED, params.v4_routes, params.v6_routes));
    let cfg = FabricConfig {
        seed: SEED,
        pops: 1,
        members: params.members,
        experiments: params.experiments,
        shards: 1,
    };
    let mut fabric = DfzFabric::build(cfg, gen);
    let build_secs = t_build.elapsed().as_secs_f64();
    println!("fabric built in {build_secs:.1} s (sessions established)");

    let feed = fabric.feed();
    let expected = fabric.expected_router_prefixes();
    assert!(
        feed.router_prefixes.iter().all(|&c| c >= expected),
        "feed fell short: {:?} < {expected}",
        feed.router_prefixes
    );
    let rss_steady = rss_bytes();
    let attr_stats = fabric.router_attr_stats();
    let updates_in = fabric.router_updates_in();
    let (_, paths, attrs) = attr_stats[0].clone();
    let dedup_ratio = paths as f64 / attrs.max(1) as f64;
    let router_updates = updates_in[0].1;
    let coalescing = paths as f64 / router_updates.max(1) as f64;
    println!(
        "feed converged: {:.1} sim s / {:.1} wall s to {} prefixes at the router",
        feed.convergence_sim_secs, feed.convergence_wall_secs, feed.router_prefixes[0]
    );
    println!("steady-state RSS: {:.0} MB", rss_steady as f64 / 1e6);
    println!("attr dedup at router: {paths} paths over {attrs} interned sets ({dedup_ratio:.1}x)");
    println!(
        "coalescing at router: {paths} NLRI over {router_updates} UPDATEs ({coalescing:.1} NLRI/UPDATE)"
    );

    // Snapshot the non-DFZ prefixes (member/transit baselines, experiment
    // leases) so a post-churn shortfall can be attributed precisely.
    let gen_set: std::collections::HashSet<_> = (0..fabric.gen.len())
        .map(|i| fabric.gen.prefix(i))
        .collect();
    let baseline_before: std::collections::BTreeSet<_> = fabric
        .router_prefix_list(0)
        .into_iter()
        .filter(|p| !gen_set.contains(p))
        .collect();

    // Churn phase: AMS-IX-shaped schedule, probes every quantum so the
    // data-plane FIBs keep syncing under fire.
    let schedule = ChurnSchedule::generate(ChurnConfig::amsix(
        SEED ^ 0xc4,
        params.churn_secs,
        fabric.gen.len(),
    ));
    let (p50, p99) = schedule.measured_quantiles();
    let fib_counters = |fabric: &mut DfzFabric, name: &str| -> u64 {
        let snap = fabric.peering.obs_snapshot();
        snap.names()
            .filter(|n| n.contains(name))
            .filter_map(|n| snap.counter(n))
            .sum()
    };
    let rebuilds_before = fib_counters(&mut fabric, "mux.fib_rebuilds");
    let patches_before = fib_counters(&mut fabric, "mux.fib_patch_rounds");
    let t_churn = Instant::now();
    let applied = fabric.replay(&schedule, 250, 1);
    let churn_wall = t_churn.elapsed().as_secs_f64();
    fabric.heal();
    fabric.peering.run_for(SimDuration::from_secs(30));
    let fib_rebuilds = fib_counters(&mut fabric, "mux.fib_rebuilds") - rebuilds_before;
    let fib_patches = fib_counters(&mut fabric, "mux.fib_patch_rounds") - patches_before;
    let rss_post_churn = rss_bytes();
    println!(
        "churn: {applied} events over {} sim s ({churn_wall:.1} wall s), schedule p50 {p50}/s p99 {p99}/s",
        params.churn_secs
    );
    println!("fib syncs during churn: {fib_patches} patch rounds, {fib_rebuilds} rebuilds");
    println!("post-churn RSS: {:.0} MB", rss_post_churn as f64 / 1e6);

    let final_prefixes = fabric.router_prefix_counts()[0];
    if final_prefixes < expected {
        // Shortfall triage: name the missing routes and their churn
        // history before failing.
        for r in 0..fabric.gen.len() {
            let p = fabric.gen.prefix(r);
            if !fabric.router_has_prefix(0, p) {
                let hits: Vec<u64> = schedule
                    .events()
                    .iter()
                    .filter(|e| e.route == r)
                    .map(|e| e.at_ms)
                    .collect();
                println!("missing route {r} ({p:?}): churn hits at {hits:?} ms");
            }
        }
        let baseline_after: std::collections::BTreeSet<_> = fabric
            .router_prefix_list(0)
            .into_iter()
            .filter(|p| !gen_set.contains(p))
            .collect();
        for p in baseline_before.difference(&baseline_after) {
            println!("baseline prefix lost during churn: {p:?}");
        }
        for p in baseline_after.difference(&baseline_before) {
            println!("baseline prefix gained during churn: {p:?}");
        }
        panic!("post-heal table incomplete: {final_prefixes} < {expected}");
    }
    println!("post-heal Loc-RIB: {final_prefixes} prefixes (floor {expected})");

    if write {
        let json = format!(
            r#"{{
  "generated": "2026-08-09",
  "commands": {{
    "regenerate": "cargo run --release -p peering-bench --bin dfz_bench -- --write",
    "ci_smoke": "cargo run --release -p peering-bench --bin dfz_bench -- --smoke"
  }},
  "dfz_bench": {{
    "description": "synthetic full-DFZ table fed by an IXP route-server fabric, then disturbed by AMS-IX-calibrated churn with data-plane probes; single PoP, single shard",
    "seed": {SEED},
    "workload": {{
      "v4_routes": {},
      "v6_routes": {},
      "members": {},
      "experiments": {},
      "churn_secs": {}
    }},
    "convergence": {{
      "sim_secs": {:.2},
      "wall_secs": {:.2},
      "router_prefixes": {}
    }},
    "memory": {{
      "steady_state_rss_bytes": {},
      "post_churn_rss_bytes": {}
    }},
    "attr_dedup": {{
      "adj_in_paths": {},
      "interned_attr_sets": {},
      "ratio": {:.2}
    }},
    "coalescing": {{
      "router_updates_in": {},
      "nlri_per_update": {:.2}
    }},
    "churn": {{
      "events_applied": {},
      "replay_wall_secs": {:.2},
      "schedule_p50_per_sec": {p50},
      "schedule_p99_per_sec": {p99},
      "fib_patch_rounds": {fib_patches},
      "fib_rebuilds": {fib_rebuilds}
    }},
    "paper_context": {{
      "claim": "the AMS-IX deployment's mux holds a full DFZ from hundreds of route-server members and absorbs update bursts with p99 ~400 updates/s (§6)",
      "section": "6 evaluation at scale"
    }}
  }}
}}
"#,
            params.v4_routes,
            params.v6_routes,
            params.members,
            params.experiments,
            params.churn_secs,
            feed.convergence_sim_secs,
            feed.convergence_wall_secs,
            feed.router_prefixes[0],
            rss_steady,
            rss_post_churn,
            paths,
            attrs,
            dedup_ratio,
            router_updates,
            coalescing,
            applied,
            churn_wall,
        );
        std::fs::write(RESULTS, json).expect("write results JSON");
        println!("wrote {RESULTS}");
    }
}
