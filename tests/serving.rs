//! Anycast serving battery (see `docs/serving.md`).
//!
//! End-to-end serving runs: N PoPs announce one leased prefix, a seeded
//! open-loop traffic schedule (legitimate clients + three attack
//! shapes) plays through the transits, and the mux ingress pipeline
//! must hold the serving SLO — legitimate delivery ≥ 99% while ≥ 95% of
//! attack traffic dies in uRPF, the packet program, or the gossiped
//! flood ledger. The battery also checks the catchment maps (predicted
//! from the converged control plane, observed from delivered packets),
//! the churn-driven catchment shift after a PoP withdraws, the
//! undefended ablation arm, and bit-identical replay across simulator
//! shard counts.

use std::net::Ipv4Addr;

use peering_repro::netsim::{Bytes, IpPacket, IpProto};
use peering_repro::platform::serving::{AnycastServing, ServingParams};
use peering_testkit::oracle::reason_sum_problems;
use peering_workload::serving::{run_serving, ServingOutcome, ServingSpec};
use peering_workload::TrafficMix;

const SEED: u64 = 7;
const POPS: usize = 4;
const FLOWS: usize = 900;

fn attack_run(shards: usize) -> ServingOutcome {
    run_serving(
        &ServingSpec::new(SEED, POPS, FLOWS, TrafficMix::under_attack()).with_shards(shards),
    )
}

#[test]
fn serving_slo_holds_under_attack() {
    let out = attack_run(1);

    // Every transit holds a route to the anycast prefix, so none refuses
    // a packet: a refusal would otherwise hide among platform losses.
    assert_eq!(
        out.refused, 0,
        "transits refused packets for lack of a route"
    );

    // The headline SLO from the issue: clients keep being served while
    // the attack share is blocked at the edge.
    assert!(
        out.legit_delivery >= 0.99,
        "legitimate delivery {:.4} < 0.99",
        out.legit_delivery
    );
    assert!(
        out.attack_block >= 0.95,
        "attack block rate {:.4} < 0.95",
        out.attack_block
    );

    // Each attack shape dies at its designated pipeline stage, exactly:
    // spoofed sources at strict uRPF, SYN shapes in the sandboxed packet
    // program. (The concentration attack is rate-based, so its block
    // count is bounded, not exact.)
    assert_eq!(
        out.blocked_by_reason.get("urpf").copied().unwrap_or(0),
        out.sent_by_class["spoofed-flood"],
        "every spoofed packet must die at uRPF"
    );
    assert_eq!(
        out.blocked_by_reason
            .get("program-block")
            .copied()
            .unwrap_or(0),
        out.sent_by_class["syn-flood"],
        "every SYN-shape packet must die in the packet program"
    );
    assert!(
        out.blocked_by_reason
            .get("flood-budget")
            .copied()
            .unwrap_or(0)
            > 0,
        "the flood ledger never fired: {:?}",
        out.blocked_by_reason
    );
    assert_eq!(out.delivered_by_class["spoofed-flood"], 0);
    assert_eq!(out.delivered_by_class["syn-flood"], 0);

    // Per PoP, every packet an enforcement engine evaluated and did not
    // pass is counted under exactly one reason.
    assert_eq!(reason_sum_problems(&out.snapshot), Vec::<String>::new());

    // Catchment while everything announces: Gao–Rexford makes each
    // transit prefer its direct customer route, so home PoP wins.
    for pop in 0..POPS {
        assert_eq!(
            out.predicted_catchment.get(&pop),
            Some(&pop),
            "pop{pop} clients must be served by pop{pop} while it announces"
        );
        assert!(
            out.observed_catchment.get(&pop).copied().unwrap_or(0) > 0,
            "pop{pop} delivered nothing during the serve phase"
        );
    }
}

#[test]
fn churn_shifts_the_catchment_off_the_withdrawn_pop() {
    let out = attack_run(1);
    let predicted = out.predicted_after_churn.as_ref().expect("churn phase ran");
    let observed = out.observed_after_churn.as_ref().expect("churn phase ran");

    // pop0 withdrew: its clients re-home to a surviving PoP in the
    // control plane, and the re-measurement burst lands entirely off
    // pop0 in the data plane.
    assert_ne!(
        predicted.get(&0),
        Some(&0),
        "withdrawn pop0 still predicted to serve its own clients"
    );
    for pop in 1..POPS {
        assert_eq!(
            predicted.get(&pop),
            Some(&pop),
            "surviving pop{pop} must keep its own clients"
        );
    }
    assert!(
        !observed.contains_key(&0),
        "withdrawn pop0 still took burst packets: {observed:?}"
    );
    assert!(
        observed.values().sum::<u64>() > 0,
        "no burst packets delivered after the withdrawal"
    );
}

/// The observed catchment is live in the platform snapshot: with no
/// publish step, `serving/catchment{pop=i}` reads what the experiment
/// node counted for PoP `i`.
#[test]
fn catchment_is_live_in_the_platform_snapshot() {
    let mut net = AnycastServing::build(ServingParams::new(SEED, POPS));
    net.announce_all();
    net.run_secs(20);
    for pop in 0..POPS {
        for host in 0..=pop as u8 {
            let src = Ipv4Addr::new(20, 0, pop as u8, host);
            let pkt = IpPacket::new(
                src,
                net.anycast_addr(1),
                IpProto::Udp,
                Bytes::from(vec![0; 8]),
            );
            assert!(net.inject(pop, pkt), "transit {pop} has no anycast route");
        }
    }
    net.run_secs(2);
    let observed = net.observed_catchment();
    let snapshot = net.platform.obs_snapshot();
    assert_eq!(observed.len(), POPS, "every PoP catches its own clients");
    for pop in 0..POPS {
        assert_eq!(observed[&pop], pop as u64 + 1, "PoP {pop}'s catchment");
        assert_eq!(
            snapshot.counter(&format!("serving/catchment{{pop={pop}}}")),
            Some(observed[&pop]),
            "PoP {pop}'s catchment in the snapshot"
        );
    }
}

#[test]
fn undefended_ablation_delivers_the_attack() {
    // Drop the ingress defenses and the same schedule sails through —
    // the measurement that shows the enforcement path is what is doing
    // the work (spoofed/SYN/concentration all reach the experiment).
    let out = run_serving(
        &ServingSpec::new(SEED, POPS, FLOWS, TrafficMix::under_attack())
            .undefended()
            .without_churn(),
    );
    assert!(
        out.legit_delivery >= 0.99,
        "legitimate delivery {:.4} broken even without defenses",
        out.legit_delivery
    );
    assert!(
        out.attack_block < 0.05,
        "attack block {:.4} without any defenses installed",
        out.attack_block
    );
    assert_eq!(
        out.refused, 0,
        "transits refused packets for lack of a route"
    );
    for class in ["spoofed-flood", "syn-flood", "concentration"] {
        assert!(
            out.delivered_by_class[class] > 0,
            "{class} was blocked with no policy installed"
        );
    }
    assert!(out.flood_policy.is_none());
}

#[test]
fn serving_replays_bit_identically_across_shards() {
    // The sharded engine's contract extends to the full serving run:
    // catchment maps, per-class accounting, the obs snapshot rendering,
    // and the journal digest must be byte-identical at any shard count.
    let baseline = attack_run(1);
    for shards in [2usize, 8] {
        let sharded = attack_run(shards);
        assert_eq!(
            baseline.determinism_key(),
            sharded.determinism_key(),
            "serving outcome diverged at {shards} shards"
        );
    }
}
