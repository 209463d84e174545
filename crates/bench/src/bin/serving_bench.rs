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
//! workload.
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

fn print_outcome(label: &str, out: &ServingOutcome) {
    println!("{label}:");
    println!(
        "  {} packets injected, {:.0} pkts/s platform wall-clock",
        out.injected,
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
    let mut write = false;
    let mut smoke = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write" => write = true,
            "--smoke" => smoke = true,
            "--check" => check = true,
            other => panic!("unrecognized argument {other:?}"),
        }
    }
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
    println!(
        "serving_bench: {} PoPs, {} flows, shard cross-checks {:?}",
        params.pops, params.flows, params.shard_checks
    );

    // The headline arm: full defenses, churn phase included.
    let defended = run_serving(&spec(&params));
    print_outcome("defended", &defended);
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
    let undefended = run_serving(&spec(&params).undefended().without_churn());
    print_outcome("undefended (ablation)", &undefended);

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
  "generated": "2026-10-17",
  "commands": {{
    "regenerate": "cargo run --release -p peering-bench --bin serving_bench -- --write",
    "ci_smoke": "cargo run --release -p peering-bench --bin serving_bench -- --smoke --check"
  }},
  "serving": {{
    "description": "anycast serving under a mixed DDoS: one leased prefix announced from every PoP, an open-loop client schedule played through the transits, the mux ingress pipeline (strict uRPF, sandboxed packet program, gossiped flood ledger) killing the attack share while legitimate clients keep being served",
    "pops": {pops},
    "flows": {flows},
    "seed": {SEED},
    "platform_pps": {pps:.0},
    "packets_injected": {injected},
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
            pps = defended.packets_per_sec(),
            injected = defended.injected,
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
