//! Anycast serving benchmark: the platform serving real client traffic
//! from every PoP while under a mixed DDoS, with the catchment and SLO
//! numbers the paper's operators would watch (§3.3 anycast experiments,
//! §4.7 enforcement).
//!
//! One defended run carries the headline: an N-PoP anycast deployment
//! plays a seeded open-loop schedule (50% legitimate clients, spoofed
//! floods, SYN shapes, one hot-/16 concentration attack), the mux
//! ingress pipeline kills the hostile share, and the bench records the
//! platform packets-per-second, the per-PoP catchment shares, the
//! per-class attack outcomes, and the catchment shift after one PoP
//! withdraws. An undefended ablation of the same schedule shows the
//! enforcement path is what does the work, and a re-run at higher shard
//! counts cross-checks the determinism contract on the full serving
//! workload. The full run repeats each arm three times and records the
//! median, min and max of its pps; the counts come from the first run.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p peering-bench --bin serving_bench                   # full 8-PoP / 12k-flow run
//! cargo run --release -p peering-bench --bin serving_bench -- --write        # + docs/results/BENCH_serving.json
//! cargo run --release -p peering-bench --bin serving_bench -- --smoke        # CI: 4 PoPs, 900 flows
//! cargo run --release -p peering-bench --bin serving_bench -- --smoke --check # CI SLO + determinism gate
//! ```

use peering_workload::serving::{run_serving, ServingOutcome, ServingSpec};
use peering_workload::TrafficMix;

const RESULTS: &str = "docs/results/BENCH_serving.json";
const SEED: u64 = 20260809;

struct Params {
    pops: usize,
    flows: usize,
    shard_checks: Vec<usize>,
}

fn spec(params: &Params) -> ServingSpec {
    ServingSpec::new(SEED, params.pops, params.flows, TrafficMix::under_attack())
}

/// Run an arm `runs` times and print its first outcome: that outcome,
/// and the median, min and max of `packets_per_sec` over all runs as a
/// JSON object.
fn run_arm(label: &str, spec: &ServingSpec, runs: usize) -> (ServingOutcome, String) {
    let first = run_serving(spec);
    print_outcome(label, &first);
    let mut pps = vec![first.packets_per_sec()];
    pps.extend((1..runs).map(|_| run_serving(spec).packets_per_sec()));
    pps.sort_by(f64::total_cmp);
    let (median, min, max) = (pps[runs / 2], pps[0], pps[runs - 1]);
    println!("  pkts/s over {runs} run(s): median {median:.0}, min {min:.0}, max {max:.0}");
    let json = format!(r#"{{ "median": {median:.0}, "min": {min:.0}, "max": {max:.0} }}"#);
    (first, json)
}

fn print_outcome(label: &str, out: &ServingOutcome) {
    println!("{label}:");
    println!(
        "  {} packets injected ({} refused), {:.0} pkts/s platform wall-clock",
        out.injected,
        out.refused,
        out.packets_per_sec()
    );
    for (class, &sent) in &out.sent_by_class {
        let delivered = out.delivered_by_class.get(class).copied().unwrap_or(0);
        println!(
            "  {class:<14} sent {sent:>7}  delivered {delivered:>7}  ({:>5.1}%)",
            100.0 * delivered as f64 / sent.max(1) as f64
        );
    }
    for (reason, &n) in &out.blocked_by_reason {
        println!("  blocked[{reason}] = {n}");
    }
    println!(
        "  legit delivery {:.2}%, attack blocked {:.2}%",
        100.0 * out.legit_delivery,
        100.0 * out.attack_block
    );
    for (&pop, share) in &out.catchment_shares() {
        println!("  catchment pop{pop}: {:.1}%", 100.0 * share);
    }
}

fn main() {
    let flags = ["--write", "--smoke", "--check"];
    let args =
        peering_bench::bench_args("serving_bench [--smoke] [--check] [--write]", &flags, None);
    let [write, smoke, check] = flags.map(|f| args.has(f));
    let params = if smoke {
        Params {
            pops: 4,
            flows: 900,
            shard_checks: vec![2],
        }
    } else {
        Params {
            pops: 8,
            flows: 12_000,
            shard_checks: vec![2, 8],
        }
    };
    let runs = if smoke { 1 } else { 3 };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serving_bench: {} PoPs, {} flows, shard cross-checks {:?}, {} runs per arm, {host_cores} host cores",
        params.pops, params.flows, params.shard_checks, runs
    );

    // The headline arm: full defenses, churn phase included.
    let (defended, defended_pps) = run_arm("defended", &spec(&params), runs);
    if let (Some(pred), Some(obs)) = (
        &defended.predicted_after_churn,
        &defended.observed_after_churn,
    ) {
        println!("  after withdrawing at pop0:");
        for (&client, &serving) in pred {
            println!("    pop{client} clients -> pop{serving}");
        }
        for (&pop, &n) in obs {
            println!("    pop{pop} took {n} burst packets");
        }
    }

    // The ablation arm: same schedule, no defenses — the attack share
    // sails through, showing the enforcement path does the work.
    let undefended_spec = spec(&params).undefended().without_churn();
    let (undefended, undefended_pps) = run_arm("undefended (ablation)", &undefended_spec, runs);

    // Determinism cross-check on the full serving workload.
    for &shards in &params.shard_checks {
        let sharded = run_serving(&spec(&params).with_shards(shards));
        assert_eq!(
            defended.determinism_key(),
            sharded.determinism_key(),
            "serving outcome diverged at {shards} shards"
        );
    }
    println!(
        "determinism OK: identical serving outcome at {:?} shards",
        params.shard_checks
    );

    if check {
        for (arm, out) in [("defended", &defended), ("ablation", &undefended)] {
            assert_eq!(
                out.refused, 0,
                "serving gate: {arm} transits refused packets for lack of a route"
            );
        }
        assert!(
            defended.legit_delivery >= 0.99,
            "serving gate: legitimate delivery {:.4} < 0.99",
            defended.legit_delivery
        );
        assert!(
            defended.attack_block >= 0.95,
            "serving gate: attack block {:.4} < 0.95",
            defended.attack_block
        );
        assert!(
            undefended.attack_block < 0.05,
            "serving gate: ablation arm blocked {:.4} with no defenses",
            undefended.attack_block
        );
        println!("serving gate OK: SLO held under attack, ablation leaked as expected");
    }

    if write {
        let class_rows: Vec<String> = defended
            .sent_by_class
            .iter()
            .map(|(class, &sent)| {
                let d_def = defended.delivered_by_class.get(class).copied().unwrap_or(0);
                let d_und = undefended
                    .delivered_by_class
                    .get(class)
                    .copied()
                    .unwrap_or(0);
                format!(
                    r#"      {{ "class": "{class}", "sent": {sent}, "delivered_defended": {d_def}, "delivered_undefended": {d_und} }}"#
                )
            })
            .collect();
        let blocked_rows: Vec<String> = defended
            .blocked_by_reason
            .iter()
            .map(|(reason, &n)| format!(r#"      {{ "policy": "{reason}", "packets": {n} }}"#))
            .collect();
        let catchment_rows: Vec<String> = defended
            .catchment_shares()
            .iter()
            .map(|(&pop, share)| {
                let delivered = defended.observed_catchment.get(&pop).copied().unwrap_or(0);
                format!(
                    r#"      {{ "pop": {pop}, "delivered": {delivered}, "share": {share:.4} }}"#
                )
            })
            .collect();
        let churn_rows: Vec<String> = defended
            .predicted_after_churn
            .iter()
            .flatten()
            .map(|(&client, &serving)| {
                format!(r#"      {{ "client_pop": {client}, "serving_pop": {serving} }}"#)
            })
            .collect();
        let flood = defended
            .flood_policy
            .as_ref()
            .map(|fp| {
                format!(
                    r#"{{ "bucket_len": {}, "per_pop_limit": {}, "as_wide_limit": {} }}"#,
                    fp.bucket_len,
                    fp.per_pop_limit,
                    fp.as_wide_limit.unwrap_or(0)
                )
            })
            .unwrap_or_else(|| "null".to_string());
        let json = format!(
            r#"{{
  "generated": "2026-10-20",
  "commands": {{
    "regenerate": "cargo run --release -p peering-bench --bin serving_bench -- --write",
    "ci_smoke": "cargo run --release -p peering-bench --bin serving_bench -- --smoke --check"
  }},
  "serving": {{
    "description": "anycast serving under a mixed DDoS: one leased prefix announced from every PoP, an open-loop client schedule played through the transits, the mux ingress pipeline (strict uRPF, sandboxed packet program, gossiped flood ledger) killing the attack share while legitimate clients keep being served",
    "pops": {pops},
    "flows": {flows},
    "seed": {SEED},
    "runs": {runs},
    "host_cores": {host_cores},
    "platform_pps": {defended_pps},
    "packets_injected": {injected},
    "packets_refused": {refused},
    "legit_delivery": {legit:.4},
    "attack_block": {block:.4},
    "slo": {{ "legit_delivery_min": 0.99, "attack_block_min": 0.95 }},
    "flood_policy": {flood},
    "classes": [
{classes}
    ],
    "ingress_blocked": [
{blocked}
    ],
    "catchment": [
{catchment}
    ],
    "churn": {{
      "event": "the experiment withdraws the anycast prefix at pop0; its transit falls back to a peer route via the internet core and the orphaned clients re-home",
      "after_withdrawal": [
{churn}
      ]
    }},
    "ablation": {{
      "platform_pps": {undefended_pps},
      "undefended_attack_block": {und_block:.4},
      "undefended_legit_delivery": {und_legit:.4},
      "interpretation": "with no ingress policy installed the same schedule delivers its attack share like client traffic — the SLO above is earned by the enforcement pipeline, not by the topology"
    }},
    "determinism": "identical ServingOutcome (catchment maps, per-class accounting, obs snapshot text, journal digest) at shard counts {shard_checks:?} (asserted by the bench before writing)",
    "paper_context": {{
      "claim": "PEERING lets researchers run real anycast services and study DDoS defenses at the BGP edge; §3.3 catalogs anycast catchment studies and §4.7's enforcement keeps hostile traffic from escaping the testbed",
      "section": "3.3 anycast, 4.7 security and isolation"
    }}
  }}
}}
"#,
            pops = params.pops,
            flows = params.flows,
            injected = defended.injected,
            refused = defended.refused,
            legit = defended.legit_delivery,
            block = defended.attack_block,
            flood = flood,
            classes = class_rows.join(",\n"),
            blocked = blocked_rows.join(",\n"),
            catchment = catchment_rows.join(",\n"),
            churn = churn_rows.join(",\n"),
            und_block = undefended.attack_block,
            und_legit = undefended.legit_delivery,
            shard_checks = params.shard_checks,
        );
        std::fs::write(RESULTS, json).expect("write results JSON");
        println!("wrote {RESULTS}");
    }
}
