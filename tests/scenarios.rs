//! Adversarial-scenario battery (see `crates/scenarios`).
//!
//! Three scripted scenario families — route-leak injection with Peerlock
//! containment, AS-path poisoning with traceroute-verified return-path
//! steering, and inbound TE via action communities — each run across a
//! seed sweep, each differentially checked against the pure-Rust
//! reference propagation model, and each required to produce
//! bit-identical [`ScenarioReport`]s under 1, 2 and 8 simulator shards.
//!
//! This file also carries the satellite regressions: the "peer-learned
//! route leaked to a provider" enforcement must fire, be counted on the
//! speaker's `export_rejected` stat, and land in the obs journal as
//! `ExportSuppressed` events; and scenarios must compose with the seeded
//! chaos harness (a leak under link flaps converges to the same modeled
//! steady state once the plan heals).

use peering_repro::bgp::speaker::PeerCounter;
use peering_repro::platform::internet::InternetAs;
use peering_scenarios::{
    reconcile, run_leak, run_poison, run_te, FilterMode, LeakParams, PoisonParams, ScenarioNet,
    ScenarioParams, TeParams, LEN_CAPS, MID_ASN0, POISON_ORDER,
};
use peering_testkit::harness::{plan_for_seed, HarnessOptions};
use peering_toolkit::client::AnnounceOptions;

#[cfg(debug_assertions)]
mod size {
    pub const SEEDS: u64 = 10;
}
#[cfg(not(debug_assertions))]
mod size {
    pub const SEEDS: u64 = 14;
}

fn seeds() -> impl Iterator<Item = u64> {
    (1..=size::SEEDS).map(|s| 1000 + s * 7)
}

// --- family (a): route leaks -------------------------------------------

#[test]
fn leak_filters_strictly_shrink_pollution_across_seeds() {
    for seed in seeds() {
        let none = run_leak(LeakParams::new(seed));
        let lite = run_leak(LeakParams::new(seed).with_filter(FilterMode::PeerlockLite));
        let full = run_leak(LeakParams::new(seed).with_filter(FilterMode::Peerlock));
        for r in [&none, &lite, &full] {
            assert_eq!(
                r.count("model_mismatches"),
                0,
                "seed {seed}: reference-model divergence\n{}",
                r.to_text()
            );
        }
        let (n, l, f) = (
            none.count("polluted"),
            lite.count("polluted"),
            full.count("polluted"),
        );
        assert!(
            n > l && l > f,
            "seed {seed}: filters must strictly shrink pollution (none={n} lite={l} full={f})"
        );
        // The ISSUE acceptance bar: full Peerlock keeps the polluted set
        // under a quarter of the unfiltered one.
        assert!(
            4 * f < n,
            "seed {seed}: full Peerlock containment too weak (none={n} full={f})"
        );
        // Satellite regression: the leak makes valley-free/Peerlock export
        // enforcement fire, visible both on the speakers' export_rejected
        // counters and as ExportSuppressed journal events.
        assert!(
            none.obs_deltas["bgp.export_rejected"] > 0,
            "seed {seed}: leak run must increment export_rejected"
        );
        assert!(
            none.journal_export_suppressions > 0,
            "seed {seed}: leak run must journal ExportSuppressed events"
        );
        assert_eq!(
            none.obs_deltas["bgp.export_rejected"], none.journal_export_suppressions,
            "seed {seed}: every counted suppression is journaled and vice versa"
        );
    }
}

#[test]
fn reactive_peerlock_contains_the_leak() {
    for seed in seeds().take(3) {
        let r = run_leak(LeakParams::new(seed).reactive());
        assert_eq!(r.count("model_mismatches"), 0, "seed {seed}");
        assert!(
            r.count("polluted_peak") > 0,
            "seed {seed}: the leak must pollute before containment kicks in"
        );
        assert_eq!(
            r.count("polluted"),
            0,
            "seed {seed}: reactive Peerlock must fully contain\n{}",
            r.to_text()
        );
        let secs = r
            .containment_secs
            .unwrap_or_else(|| panic!("seed {seed}: no containment measured"));
        assert!(
            secs <= 10,
            "seed {seed}: containment took {secs}s (route refresh should be fast)"
        );
    }
}

/// A registry snapshot shows every layer's current counters without a
/// publishing sweep first, including those of the synthetic transits.
#[test]
fn registry_snapshot_is_current_without_a_publish_step() {
    let mut net = ScenarioNet::build(ScenarioParams::new(1007));
    net.announce(0, 0, &AnnounceOptions::default());
    net.run_secs(20);
    net.trigger_leak();
    net.run_secs(20);
    let live = net.platform.obs().snapshot();
    let published = net.platform.obs_snapshot();
    assert!(
        live == published,
        "snapshot is stale: {} entries, {} after publishing",
        live.len(),
        published.len()
    );
    let node = net.transits[&2001].0;
    let speaker = &net
        .platform
        .sim
        .node::<InternetAs>(node)
        .unwrap()
        .host
        .speaker;
    let counted: u64 = speaker
        .peer_ids()
        .into_iter()
        .map(|p| {
            speaker
                .peer_stats(p)
                .unwrap()
                .get(PeerCounter::ExportRejected)
        })
        .sum();
    assert!(counted > 0, "AS2001 suppressed no export");
    assert_eq!(
        live.counter_family("as2001/bgp.export_rejected{peer="),
        counted,
        "AS2001's valley-free suppressions in the platform snapshot"
    );
}

/// A speaker moved to the platform registry keeps what it counted before
/// the move: `ScenarioNet::build` brings transit sessions up before it
/// publishes the transits there, yet every session that reached
/// Established shows as one `OpenConfirm->Established` transition and one
/// Adj-RIB-Out replay.
#[test]
fn moved_speakers_keep_their_transition_and_replay_counts() {
    let mut net = ScenarioNet::build(ScenarioParams::new(1007));
    net.announce(0, 0, &AnnounceOptions::default());
    net.run_secs(20);
    net.trigger_leak();
    net.run_secs(20);
    let snapshot = net.platform.obs_snapshot();
    for asn in 2000..=2002u32 {
        let node = net.transits[&asn].0;
        let speaker = &net
            .platform
            .sim
            .node::<InternetAs>(node)
            .unwrap()
            .host
            .speaker;
        let established = speaker
            .peer_ids()
            .into_iter()
            .filter(|&p| speaker.is_established(p))
            .count() as u64;
        assert!(established > 0, "AS{asn} holds no session");
        for metric in [
            "bgp.fsm_transition{edge=OpenConfirm->Established}",
            "bgp.resync_replays",
        ] {
            assert_eq!(
                snapshot.counter(&format!("as{asn}/{metric}")),
                Some(established),
                "AS{asn}'s {metric} against its {established} Established sessions"
            );
        }
    }
}

// --- family (b): AS-path poisoning --------------------------------------

#[test]
fn poisoning_drops_and_steering_across_seeds() {
    for seed in seeds() {
        let r = run_poison(PoisonParams::new(seed));
        assert_eq!(
            r.count("model_mismatches"),
            0,
            "seed {seed}: reference-model divergence\n{}",
            r.to_text()
        );
        // Return-path steering: the vantage flips to provider 3001 at
        // every poisoned depth, and the TTL-1 traceroute confirms the
        // first hop at depth 0 plus all five steered depths.
        assert_eq!(r.count("steered_depths"), 5, "seed {seed}");
        assert_eq!(r.count("traceroute_confirms"), 6, "seed {seed}");
        // Drop counts: clean at depth 0, monotonically non-decreasing as
        // the sandwich grows (a deeper poison list is a superset).
        assert_eq!(r.count("dropped_d0"), 0, "seed {seed}");
        let drops: Vec<u64> = r.timeline.iter().map(|&(_, v)| v).collect();
        assert!(
            drops.windows(2).all(|w| w[0] <= w[1]),
            "seed {seed}: drop counts must be monotone, got {drops:?}"
        );
        // Every poisoned AS dropped its own-ASN path.
        let own = r.asns_with_note("dropped-own-asn");
        for p in POISON_ORDER {
            assert!(
                own.contains(&p),
                "seed {seed}: poisoned AS {p} still routed\n{}",
                r.to_text()
            );
        }
        // The capped mids rejected the lengthened paths.
        let capped = r.asns_with_note("len-capped");
        for (asn, _) in LEN_CAPS {
            assert!(
                capped.contains(&asn),
                "seed {seed}: mid {asn} should have len-capped the sandwich"
            );
        }
    }
}

// --- family (c): TE action communities ----------------------------------

#[test]
fn te_communities_move_ingress_catchment_across_seeds() {
    for seed in seeds() {
        let r = run_te(TeParams::new(seed));
        assert_eq!(
            r.count("model_mismatches"),
            0,
            "seed {seed}: reference-model divergence\n{}",
            r.to_text()
        );
        // Data plane agrees with every model-certain predicted ingress.
        assert_eq!(r.count("catchment_mismatch"), 0, "seed {seed}");
        // Transit 2002's single-homed cone (mid 3002's stubs at least)
        // fully moves to PoP 1 once 2000:61 makes transit 2000's peer
        // export longer.
        assert!(r.count("t2cone_stubs") >= 2, "seed {seed}");
        assert_eq!(
            r.count("t2cone_moved"),
            r.count("t2cone_stubs"),
            "seed {seed}: prepend community must move the whole T2 cone\n{}",
            r.to_text()
        );
        // Do-not-announce blackholes everything outside 2000's customer
        // cone but leaves that cone reachable at PoP 0 only.
        assert!(r.count("blackholed_dna") > 0, "seed {seed}");
        assert!(r.count("reached_dna") > 0, "seed {seed}");
        assert_eq!(r.count("pop1_dna"), 0, "seed {seed}");
        assert!(
            r.count("reached_dna") < r.count("reached_baseline"),
            "seed {seed}: do-not-announce must strictly shrink reachability"
        );
    }
}

// --- determinism across shard counts ------------------------------------

#[test]
fn reports_are_bit_identical_across_shard_counts() {
    let seed = 1077;
    for shards in [2usize, 8] {
        let a = run_leak(LeakParams::new(seed));
        let b = run_leak(LeakParams::new(seed).with_shards(shards));
        assert_eq!(a, b, "leak report diverges at {shards} shards");

        let a = run_poison(PoisonParams::new(seed));
        let b = run_poison(PoisonParams::new(seed).with_shards(shards));
        assert_eq!(a, b, "poisoning report diverges at {shards} shards");

        let a = run_te(TeParams::new(seed));
        let b = run_te(TeParams::new(seed).with_shards(shards));
        assert_eq!(a, b, "TE report diverges at {shards} shards");
    }
}

// --- composition with the chaos harness ----------------------------------

#[test]
fn leak_under_chaos_converges_to_the_modeled_steady_state() {
    let seed = 2026;
    let mut net = ScenarioNet::build(ScenarioParams::new(seed));
    net.announce(0, 0, &AnnounceOptions::default());
    net.run_secs(20);

    // A seeded incident schedule over the platform's fabric/core/tunnel
    // links, overlapping the leak.
    let opts = HarnessOptions {
        window: peering_netsim::SimDuration::from_secs(30),
        max_incidents: 3,
        ..HarnessOptions::default()
    };
    let plan = plan_for_seed(seed, &net.platform, &opts);
    assert!(!plan.incidents.is_empty(), "plan must actually perturb");
    net.platform.sim.schedule_chaos(&plan);
    net.trigger_leak();

    // Ride out the window plus worst-case session recovery (hold-timer
    // expiry + damped ConnectRetry; see HarnessOptions::settle).
    net.run_secs(30 + 450);

    let dst = net.prefix_addr(0, 1);
    let observed = net.observe(dst, Some(net.leaker));
    let predicted = net
        .model()
        .propagate(&[net.injection(0, 0, &[], &[])], Some(net.leaker));
    let (_, mismatches) = reconcile(&observed, &predicted);
    assert!(
        mismatches.is_empty(),
        "post-chaos leak state diverged from the reference model: {mismatches:?}"
    );
    // The leak itself must still be in effect (chaos must not have
    // silently wedged the fixture into a no-routes state).
    assert!(
        observed[&(MID_ASN0 + 1)].via,
        "mid 3001 should still hold the leaked path after the plan heals"
    );
}
