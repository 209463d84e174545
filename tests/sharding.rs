//! Sharded-parallel determinism regression (see `docs/architecture.md`).
//!
//! The simulator's contract is that sharding is invisible: the same seed
//! must produce bit-identical output whether the run executes on the
//! sequential engine (1 shard) or across worker threads (2, 8 shards).
//! "Output" here is everything a test or bench could observe — the
//! metrics snapshot rendering, the order-sensitive journal digest, the
//! oracle verdict, and the per-node session-drop counts.
//!
//! These runs use the full chaos harness, so the workload includes link
//! flaps, fault bursts, hold-timer expiries, and Adj-RIB-Out resyncs —
//! not a toy topology. A divergence at any shard count is a determinism
//! bug in the conservative-lookahead engine, not flakiness.

use peering_testkit::harness::{run_chaos_schedule, ChaosOutcome, HarnessOptions};
use peering_workload::serving::{run_serving, ServingSpec};
use peering_workload::TrafficMix;

/// Chaos seeds for the battery. 555 matches the hand-written-plan tests
/// in `tests/chaos.rs`; the others are arbitrary but fixed.
const SEEDS: [u64; 3] = [555, 7, 23];

fn run(seed: u64, shards: usize) -> ChaosOutcome {
    let opts = HarnessOptions {
        shards,
        ..HarnessOptions::default()
    };
    run_chaos_schedule(seed, &opts)
}

#[test]
fn sharded_chaos_runs_replay_bit_identically() {
    let mut total_drops = 0usize;
    for seed in SEEDS {
        let baseline = run(seed, 1);
        total_drops += baseline.sessions_dropped;
        for shards in [2usize, 8] {
            let sharded = run(seed, shards);
            assert_eq!(
                baseline.snapshot.to_text(),
                sharded.snapshot.to_text(),
                "seed {seed}: metrics snapshot diverged at {shards} shards"
            );
            assert_eq!(
                baseline.journal_digest, sharded.journal_digest,
                "seed {seed}: journal digest diverged at {shards} shards"
            );
            assert_eq!(
                baseline.journal_tail, sharded.journal_tail,
                "seed {seed}: journal tail diverged at {shards} shards"
            );
            assert_eq!(
                baseline.problems, sharded.problems,
                "seed {seed}: oracle verdict diverged at {shards} shards"
            );
            assert_eq!(
                baseline.sessions_dropped, sharded.sessions_dropped,
                "seed {seed}: session-drop count diverged at {shards} shards"
            );
        }
    }
    // If no chaos schedule in the battery ever dropped a session, the
    // equality above proves nothing about perturbed runs.
    assert!(
        total_drops > 0,
        "chaos battery never dropped a session — seeds too tame to test determinism"
    );
}

// ---------------------------------------------------------------------------
// Event-schedule pin.
//
// Every battery above compares a build with itself, so an event queue that
// reordered same-instant events the same way at every shard count would
// pass them all. This test compares against constants recorded from an
// earlier build instead, on the sequential engine.
// ---------------------------------------------------------------------------

/// `(journal digest, processed events)` of the smoke-size defended
/// serving run (seed 7, 4 PoPs, 900 flows, with the churn phase).
///
/// These and [`PINNED_CHAOS`] were recorded from the binary-heap event
/// queue, before the bucketed one replaced it. A change meant to alter the
/// event schedule (a new event, a different delay, a changed `EventKey`)
/// must regenerate them: run `cargo test --release --test sharding
/// event_schedule`, copy the values the failure messages print into the
/// constants, and say in the change why the schedule moved.
const PINNED_SERVING: (u64, u64) = (0xde69_6877_c70f_c70d, 23_392);

/// `(seed, journal digest)` of two default chaos schedules.
const PINNED_CHAOS: [(u64, u64); 2] = [(555, 0xe262_669f_1374_c509), (7, 0xbf1b_64ea_31ec_d08f)];

#[test]
fn event_schedule_matches_pinned_digests() {
    let serving = run_serving(&ServingSpec::new(7, 4, 900, TrafficMix::under_attack()));
    let got = (serving.journal_digest, serving.processed_events);
    assert!(
        got == PINNED_SERVING,
        "serving schedule moved: digest {:#018x}, {} events (pinned {:#018x}, {})",
        got.0,
        got.1,
        PINNED_SERVING.0,
        PINNED_SERVING.1
    );
    for (seed, pinned) in PINNED_CHAOS {
        let digest = run(seed, 1).journal_digest;
        assert!(
            digest == pinned,
            "chaos seed {seed}: schedule moved: digest {digest:#018x} (pinned {pinned:#018x})"
        );
    }
}

// ---------------------------------------------------------------------------
// Adaptive-window schedule invisibility.
//
// The parallel engine doubles its lookahead window while no cross-shard
// traffic appears, up to a configurable cap. The cap (and therefore the
// entire window schedule) is a pacing heuristic layered on top of the
// sound causality bound, so ANY cap ≥ 1 must produce bit-identical
// output. A divergence here means window boundaries leaked into event
// order — the exact bug class the conservative engine exists to prevent.
// ---------------------------------------------------------------------------

/// SplitMix64 — the same seeded generator idiom as `tests/props.rs`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn random_window_caps_replay_bit_identically() {
    const SEED: u64 = 555;
    let baseline = run(SEED, 1);
    let mut gen = 0x5ca1_ab1e_u64;
    // A handful of random caps across the useful range, plus the
    // degenerate cap 1 (every window exactly one lookahead wide).
    let mut caps: Vec<u64> = vec![1];
    for _ in 0..3 {
        caps.push(1 + splitmix(&mut gen) % 10_000);
    }
    for cap in caps {
        let opts = HarnessOptions {
            shards: 2,
            window_cap: Some(cap),
            ..HarnessOptions::default()
        };
        let sharded = run_chaos_schedule(SEED, &opts);
        assert_eq!(
            baseline.snapshot.to_text(),
            sharded.snapshot.to_text(),
            "window cap {cap}: metrics snapshot diverged from sequential"
        );
        assert_eq!(
            baseline.journal_digest, sharded.journal_digest,
            "window cap {cap}: journal digest diverged from sequential"
        );
    }
}

// ---------------------------------------------------------------------------
// Parallel run_until_idle and mid-run resharding.
// ---------------------------------------------------------------------------

use peering_repro::netsim::{
    Bytes, Ctx, EtherFrame, EtherType, MacAddr, Node, NodeId, PortId, SimDuration, Simulator,
};

/// Ring node: forwards a hop-counted frame around the ring until the
/// counter dies, so the cascade is finite and the simulator goes idle.
struct Hopper {
    received: u64,
}

impl Node for Hopper {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
        self.received += 1;
        let hops = frame.payload.as_ref()[0];
        if hops > 0 {
            let out = if port == PortId(0) {
                PortId(1)
            } else {
                PortId(0)
            };
            ctx.send_frame(
                out,
                EtherFrame::new(
                    frame.dst,
                    frame.src,
                    frame.ethertype,
                    Bytes::copy_from_slice(&[hops - 1]),
                ),
            );
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        ctx.send_frame(
            PortId(1),
            EtherFrame::new(
                MacAddr::from_id(0xfff),
                MacAddr::from_id(ctx.node_id().0),
                EtherType::Other(0x9999),
                Bytes::copy_from_slice(&[token as u8]),
            ),
        );
    }
}

/// Six-node ring with 1 ms links; every node launches a 40-hop frame.
/// Returns `(went_idle, processed_events, final_now_nanos, recv_counts)`.
fn hopper_ring(shards: usize) -> (bool, u64, u64, Vec<u64>) {
    let mut sim = Simulator::new(99);
    let n = 6;
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| sim.add_node(Box::new(Hopper { received: 0 })))
        .collect();
    for i in 0..n {
        let next = (i + 1) % n;
        sim.connect(
            nodes[i],
            PortId(1),
            nodes[next],
            PortId(0),
            peering_repro::netsim::LinkConfig::with_latency(SimDuration::from_millis(1)),
        );
    }
    sim.set_shards(shards);
    for (i, id) in nodes.iter().enumerate() {
        sim.set_node_shard(*id, i % shards.max(1));
    }
    for id in &nodes {
        sim.with_node_ctx::<Hopper, _>(*id, |_, ctx| {
            ctx.set_timer(SimDuration::from_micros(7), 40)
        });
    }
    let idle = sim.run_until_idle(1_000_000);
    let counts = nodes
        .iter()
        .map(|id| sim.node::<Hopper>(*id).unwrap().received)
        .collect();
    (idle, sim.processed_events, sim.now().as_nanos(), counts)
}

#[test]
fn parallel_run_until_idle_matches_sequential() {
    let baseline = hopper_ring(1);
    assert!(baseline.0, "sequential ring failed to quiesce");
    assert!(baseline.3.iter().sum::<u64>() > 0, "no frames delivered");
    for shards in [2usize, 3, 6] {
        let sharded = hopper_ring(shards);
        assert_eq!(
            baseline, sharded,
            "run_until_idle diverged at {shards} shards"
        );
    }
}

#[test]
fn mid_run_reshard_matches_sequential() {
    // Sequential baseline: one 60 s settle run. Staged: the same 60 s of
    // simulated time split across three run_for calls with the shard
    // count changed in between — the worker pool is torn down and rebuilt
    // mid-run, and the outcome must not notice.
    let sequential = staged_platform(&[(1, 60)]);
    let staged = staged_platform(&[(2, 20), (8, 25), (1, 15)]);
    assert_eq!(
        sequential.0, staged.0,
        "metrics snapshot diverged after mid-run resharding"
    );
    assert_eq!(
        sequential.1, staged.1,
        "journal digest diverged after mid-run resharding"
    );
}

/// Build the paper topology with one experiment announcing everywhere,
/// then run `stages` of `(shards, seconds)` back to back.
fn staged_platform(stages: &[(usize, u64)]) -> (String, u64) {
    use peering_repro::platform::experiment::Proposal;
    use peering_repro::platform::platform::Peering;
    use peering_repro::platform::topology::{paper_intent, TopologyParams};
    use peering_repro::toolkit::client::AnnounceOptions;

    let mut p = Peering::build(paper_intent(&TopologyParams::tiny()), 321);
    let pops = p.pop_names();
    let mut proposal = Proposal::basic("reshard");
    proposal.pops = pops.clone();
    let mut exp = p.submit(proposal).expect("proposal accepted");
    for pop in &pops {
        exp.toolkit.open_tunnel(&mut p.sim, pop).expect("tunnel");
        exp.toolkit.start_bgp(&mut p.sim, pop).expect("bgp");
    }
    p.run_for(SimDuration::from_secs(10));
    let prefix = exp.lease.v4[0];
    exp.toolkit
        .announce_everywhere(&mut p.sim, prefix, &AnnounceOptions::default())
        .expect("announce");
    for (shards, secs) in stages {
        p.set_shards(*shards);
        p.run_for(SimDuration::from_secs(*secs));
    }
    (p.obs_snapshot().to_text(), p.obs().journal_digest())
}

// ---------------------------------------------------------------------------
// Worker-panic poisoning.
// ---------------------------------------------------------------------------

/// Panics the moment any frame reaches it.
struct Bomb;

impl Node for Bomb {
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: EtherFrame) {
        panic!("bomb node detonated");
    }
}

#[test]
fn worker_panic_poisons_the_run_with_diagnostic() {
    let mut sim = Simulator::new(7);
    let pinger = sim.add_node(Box::new(Hopper { received: 0 }));
    let bomb = sim.add_node(Box::new(Bomb));
    sim.connect(
        pinger,
        PortId(1),
        bomb,
        PortId(0),
        peering_repro::netsim::LinkConfig::with_latency(SimDuration::from_millis(1)),
    );
    sim.set_shards(2);
    sim.set_node_shard(pinger, 0);
    sim.set_node_shard(bomb, 1);
    sim.with_node_ctx::<Hopper, _>(pinger, |_, ctx| {
        ctx.set_timer(SimDuration::from_micros(5), 3)
    });

    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_for(SimDuration::from_secs(1));
    }))
    .expect_err("worker panic must surface on the coordinator");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic payload".into());
    assert!(
        msg.contains("shard 1") && msg.contains("worker panicked") && msg.contains("window"),
        "diagnostic missing shard/window context: {msg}"
    );
    assert!(
        msg.contains("bomb node detonated"),
        "diagnostic must carry the original panic message: {msg}"
    );

    // The run stays poisoned: any further use of the simulator re-raises
    // the diagnostic instead of continuing from a half-applied window.
    let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_for(SimDuration::from_millis(1));
    }))
    .expect_err("poisoned simulator must refuse further work");
    let msg2 = again
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic payload".into());
    assert!(
        msg2.contains("bomb node detonated"),
        "poison must persist across calls: {msg2}"
    );
}
