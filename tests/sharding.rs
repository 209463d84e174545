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

use peering_repro::netsim::{
    Bytes, Ctx, EtherFrame, EtherType, IpPacket, IpProto, MacAddr, Node, NodeId, PortId,
    SimDuration, Simulator,
};
use peering_repro::toolkit::node::ExperimentNode;
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

/// `(seed, journal digest, sessions dropped)` of two default chaos
/// schedules.
const PINNED_CHAOS: [(u64, u64, usize); 2] = [
    (555, 0xe262_669f_1374_c509, 3),
    (7, 0xbf1b_64ea_31ec_d08f, 10),
];

/// `(FNV-1a digest, line count)` of the metrics snapshot text, zero-valued
/// lines dropped, for the serving run and chaos seed 555. It pins every
/// counter value a change to how counters are stored must keep. Regenerate
/// as described on [`PINNED_SERVING`], from the `snapshot moved` messages.
const PINNED_SNAPSHOT: [(u64, usize); 2] =
    [(0xc533_ec7c_49ca_b0f8, 270), (0xbcdc_29d5_6faa_f39a, 211)];

/// What [`PINNED_SNAPSHOT`] pins of a snapshot rendering.
fn snapshot_digest(text: &str) -> (u64, usize) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lines = 0;
    for line in text.lines().filter(|line| !line.ends_with(" 0")) {
        for byte in line.bytes().chain([b'\n']) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        lines += 1;
    }
    (hash, lines)
}

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
    let mut snapshots = vec![("serving", serving.snapshot.to_text())];
    for (seed, pinned, pinned_drops) in PINNED_CHAOS {
        let outcome = run(seed, 1);
        let digest = outcome.journal_digest;
        assert!(
            digest == pinned,
            "chaos seed {seed}: schedule moved: digest {digest:#018x} (pinned {pinned:#018x})"
        );
        let drops = outcome.sessions_dropped;
        assert!(
            drops == pinned_drops,
            "chaos seed {seed}: {drops} sessions dropped (pinned {pinned_drops})"
        );
        if seed == 555 {
            snapshots.push(("chaos seed 555", outcome.snapshot.to_text()));
        }
    }
    for ((what, text), pinned) in snapshots.iter().zip(PINNED_SNAPSHOT) {
        let (digest, lines) = snapshot_digest(text);
        assert!(
            (digest, lines) == pinned,
            "{what}: snapshot moved: digest {digest:#018x}, {lines} lines (pinned {:#018x}, {})",
            pinned.0,
            pinned.1
        );
    }
}

// ---------------------------------------------------------------------------
// Burst-and-fault schedule pin.
//
// The pins above run whole platforms. This one drives netsim alone through
// the shapes that same-instant frame bursts meet on the wire: runs of sends
// that switch links mid-burst, a timer armed mid-run, control frames that
// the data-plane faults skip, drops, duplicates, reorders and corruption on
// one link, serialization delay and tail drop on the other, replies sent
// back from a batch, and consecutive external injections.
// ---------------------------------------------------------------------------

/// `(peer digest, sender digest, processed events)` of [`burst_schedule`],
/// recorded at the commit before frame deliveries became trains, followed
/// by both directions' [`LinkStats`] of the faulty and the narrow link as
/// `[tx_frames, tx_bytes, delivered_frames, faulted_frames,
/// overflow_frames]`. Regenerate as described on [`PINNED_SERVING`].
///
/// [`LinkStats`]: peering_repro::netsim::LinkStats
const PINNED_BURSTS: ((u64, u64, u64), [[u64; 5]; 4]) = (
    (0x52e7_d7e7_7a08_b606, 0x1fc5_37c0_ee38_bba0, 5_337),
    [
        [2_803, 168_180, 2_563, 240, 0],
        [691, 41_460, 634, 57, 0],
        [2_763, 165_780, 1_253, 0, 1_510],
        [225, 13_500, 225, 0, 0],
    ],
);

/// Folds everything it receives into an FNV-1a digest; the sender also
/// fires bursts from its timer, and the peer echoes every fifth frame back.
struct BurstNode {
    digest: u64,
    echo: bool,
    rounds: u64,
}

impl BurstNode {
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A 46-byte frame numbered `(round, n)`.
fn burst_frame(round: u64, n: u8, ethertype: EtherType) -> EtherFrame {
    let mut payload = [0u8; 46];
    payload[0] = n;
    payload[1..9].copy_from_slice(&round.to_le_bytes());
    for (i, b) in payload.iter_mut().enumerate().skip(9) {
        *b = (i as u8).wrapping_mul(n | 1);
    }
    EtherFrame::new(
        MacAddr::from_id(2),
        MacAddr::from_id(1),
        ethertype,
        Bytes::copy_from_slice(&payload),
    )
}

/// Timer tokens at or above this are mid-burst no-ops.
const NOOP_TOKEN: u64 = 1 << 32;

impl Node for BurstNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
        self.on_frames(ctx, port, vec![frame]);
    }

    fn on_frames(&mut self, ctx: &mut Ctx<'_>, port: PortId, frames: Vec<EtherFrame>) {
        // The batch length pins how deliveries were grouped into calls.
        self.fold(&(frames.len() as u64).to_le_bytes());
        for frame in frames {
            self.fold(&ctx.now().as_nanos().to_le_bytes());
            self.fold(&port.0.to_le_bytes());
            self.fold(&frame.encode());
            if self.echo && frame.payload.as_ref()[0] % 5 == 0 {
                ctx.send_frame(port, frame);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, round: u64) {
        if round >= NOOP_TOKEN {
            return;
        }
        // Eight runs of 1-6 frames, alternating links; every run's fourth
        // frame is control-plane traffic, and every third round arms a
        // timer in the middle of its second run.
        let mut n = 0u8;
        for run in 0..8u16 {
            let len = 1 + ctx.rng().below(6);
            for i in 0..len {
                if run == 1 && i == 1 && round.is_multiple_of(3) {
                    ctx.set_timer(SimDuration::from_micros(1), NOOP_TOKEN + round);
                }
                let ethertype = if i == 3 {
                    EtherType::Other(0x88b5)
                } else {
                    EtherType::Ipv4
                };
                ctx.send_frame(PortId(run % 2), burst_frame(round, n, ethertype));
                n += 1;
            }
        }
        if round + 1 < self.rounds {
            ctx.set_timer(SimDuration::from_micros(300), round + 1);
        }
    }
}

/// Two nodes joined by a faulty link (port 0) and a narrow one (port 1);
/// the sender bursts for 200 rounds. Returns what [`PINNED_BURSTS`] pins.
fn burst_schedule(shards: usize) -> ((u64, u64, u64), [[u64; 5]; 4]) {
    use peering_repro::netsim::{FaultInjector, LinkConfig};
    let mut sim = Simulator::new(0xb0257);
    let node = |echo| BurstNode {
        digest: 0xcbf2_9ce4_8422_2325,
        echo,
        rounds: 200,
    };
    let sender = sim.add_node(Box::new(node(false)));
    let peer = sim.add_node(Box::new(node(true)));
    let faults = FaultInjector::dropping(10)
        .corrupting(10)
        .duplicating(15)
        .reordering(25, SimDuration::from_micros(40))
        .data_plane_only();
    let faulty = sim.connect(
        sender,
        PortId(0),
        peer,
        PortId(0),
        LinkConfig::with_latency(SimDuration::from_millis(1)).with_faults(faults),
    );
    let narrow = sim.connect(
        sender,
        PortId(1),
        peer,
        PortId(1),
        LinkConfig::provisioned(SimDuration::from_millis(2), 10_000_000).with_queue_bytes(600),
    );
    sim.set_shards(shards);
    sim.set_node_shard(sender, 0);
    sim.set_node_shard(peer, shards - 1);
    // Consecutive external injections and external sends, then the bursts.
    for n in 0..4 {
        sim.inject_frame(
            peer,
            PortId(n % 2),
            burst_frame(u64::MAX, n as u8, EtherType::Ipv4),
        );
    }
    for n in 0..3 {
        sim.send_from(
            sender,
            PortId(1),
            burst_frame(u64::MAX - 1, n, EtherType::Ipv4),
        );
    }
    sim.set_timer(sender, SimDuration::ZERO, 0);
    assert!(sim.run_until_idle(1_000_000), "bursts never went idle");
    let digest = |id| sim.node::<BurstNode>(id).expect("burst node").digest;
    let stats = |link| {
        sim.link_stats(link).map(|s| {
            [
                s.tx_frames,
                s.tx_bytes,
                s.delivered_frames,
                s.faulted_frames,
                s.overflow_frames,
            ]
        })
    };
    let ([fa, fb], [na, nb]) = (stats(faulty), stats(narrow));
    (
        (digest(peer), digest(sender), sim.processed_events),
        [fa, fb, na, nb],
    )
}

#[test]
fn burst_schedule_matches_pinned_digest() {
    for shards in [1, 2] {
        let got = burst_schedule(shards);
        let ((peer, sender, events), links) = got;
        assert!(
            got == PINNED_BURSTS,
            "{shards} shard(s): burst schedule moved: digests {peer:#018x}, {sender:#018x}, \
             {events} events, link stats {links:?} (pinned {PINNED_BURSTS:?})"
        );
    }
}

// ---------------------------------------------------------------------------
// Egress-path pin.
//
// `PINNED_SERVING` covers ingress delivery and the ingress pipeline, and the
// chaos pins cover the control plane. This one pins the frames two live
// routers emit on the experiment → neighbor path: packets that are allowed,
// spoofed, blocked or rewritten by a packet program, or that expire their
// TTL (ICMP time-exceeded back to the experiment); packets toward a remote
// neighbor before its global address resolves (ARP request) and after
// (forwarded across the backbone); and inbound packets delivered with the
// source-MAC rewrite, locally and across the backbone. Every kind is sent
// both as a single frame and inside trains.
// ---------------------------------------------------------------------------

/// Per node (routers A and B, neighbors N1 and N2, the experiment) the
/// FNV-1a digest of every frame it received as (time, port, frame bytes),
/// then processed events and the journal digest. Recorded by running
/// [`egress_schedule`] at the commit before the single-packet data-plane
/// calls were removed; regenerate as described on [`PINNED_SERVING`].
const PINNED_EGRESS: ([u64; 5], u64, u64) = (
    [
        0x8c5a_312a_6495_9bae,
        0xa307_5918_310f_2540,
        0xadb0_532a_9935_3432,
        0xf54e_b05d_b626_cabb,
        0x0ceb_dfc6_dce5_ed34,
    ],
    146,
    0x3f4f_aead_4846_b787,
);

/// Forwards every callback to `inner`, folding each received frame into
/// `digest` first and counting how it arrived (alone or in a train) and
/// how many were ARP.
struct Tap<N> {
    inner: N,
    digest: u64,
    single: u64,
    in_trains: u64,
    arp: u64,
}

impl<N> Tap<N> {
    fn new(inner: N) -> Self {
        Tap {
            inner,
            digest: 0xcbf2_9ce4_8422_2325,
            single: 0,
            in_trains: 0,
            arp: 0,
        }
    }

    fn fold(&mut self, ctx: &Ctx<'_>, port: PortId, frame: &EtherFrame) {
        self.arp += u64::from(frame.ethertype == EtherType::Arp);
        let time = ctx.now().as_nanos().to_le_bytes();
        let port = port.0.to_le_bytes();
        for bytes in [&time[..], &port[..], &frame.encode()[..]] {
            for &b in bytes {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

impl<N: Node> Node for Tap<N> {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
        self.fold(ctx, port, &frame);
        self.single += 1;
        self.inner.on_frame(ctx, port, frame);
    }

    fn on_frames(&mut self, ctx: &mut Ctx<'_>, port: PortId, frames: Vec<EtherFrame>) {
        for frame in &frames {
            self.fold(ctx, port, frame);
        }
        self.in_trains += frames.len() as u64;
        self.inner.on_frames(ctx, port, frames);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }
}

/// A UDP packet whose payload starts with the source and destination
/// ports (what packet programs read) followed by a tag byte.
fn udp(src: &str, dst: &str, dst_port: u16, ttl: u8, tag: u8) -> IpPacket {
    let mut payload = vec![0x10, 0x00];
    payload.extend_from_slice(&dst_port.to_be_bytes());
    payload.push(tag);
    let mut pkt = IpPacket::new(
        src.parse().unwrap(),
        dst.parse().unwrap(),
        IpProto::Udp,
        Bytes::from(payload),
    );
    pkt.header.ttl = ttl;
    pkt
}

/// Send `(next hop, packet)` pairs from an endpoint in one callback (so
/// they leave as one train once the next hops are resolved), then run the
/// simulator `ms`.
fn send(sim: &mut Simulator, node: NodeId, pkts: Vec<(&str, IpPacket)>, ms: u64) {
    sim.with_node_ctx::<Tap<ExperimentNode>, _>(node, |t, ctx| {
        for (next_hop, pkt) in pkts {
            t.inner
                .send_to_next_hop(ctx, PortId(0), next_hop.parse().unwrap(), pkt);
        }
    });
    sim.run_for(SimDuration::from_millis(ms));
}

/// Router A (PoP 0: neighbor N1, the experiment, a backbone port) and
/// router B (PoP 1: neighbor N2), joined by a backbone link; at two shards
/// each PoP runs on its own shard. Returns what [`PINNED_EGRESS`] pins.
fn egress_schedule(shards: usize) -> ([u64; 5], u64, u64) {
    use peering_repro::bgp::types::{prefix, Asn, RouterId};
    use peering_repro::bgp::PeerId;
    use peering_repro::netsim::LinkConfig;
    use peering_repro::vbgp::enforcement::data::{DropReason, ExperimentDataPolicy};
    use peering_repro::vbgp::enforcement::pprog::{Field, Insn, PacketProgram};
    use peering_repro::vbgp::{
        BackboneConfig, CapabilitySet, ControlCommunities, ControlEnforcer, DataEnforcer,
        ExperimentConfig, ExperimentId, ExperimentPolicy, MuxCounter, NeighborConfig, NeighborId,
        NeighborKind, PopId, RemoteNeighbor, RouterCounter, VbgpRouter,
    };
    const ASN: u16 = 47065;
    let mac = MacAddr::from_id;
    let mut sim = Simulator::new(0xe9e5);
    let obs = sim.obs().clone();
    let router = |pop: u32, ports: &[u32]| {
        let control = ControlEnforcer::standalone(PopId(pop), ControlCommunities::new(ASN));
        let mut r = VbgpRouter::new(
            PopId(pop),
            Asn(u32::from(ASN)),
            RouterId(1 + pop),
            control,
            DataEnforcer::new(),
        );
        r.set_obs(obs.scoped(&format!("pop{pop}")));
        for (i, &m) in ports.iter().enumerate() {
            r.set_port_mac(PortId(i as u16), mac(m));
        }
        r
    };
    let neighbor =
        |id: u32, port: u16, nbr_mac: u32, local: &str, remote: &str, index| NeighborConfig {
            id: NeighborId(id),
            asn: Asn(100 * id),
            kind: NeighborKind::Transit,
            port: PortId(port),
            remote_mac: mac(nbr_mac),
            local_addr: local.parse().unwrap(),
            remote_addr: remote.parse().unwrap(),
            global_index: index,
            passive: false,
        };
    // Destination port 9 is blocked; port 7 is rewritten toward
    // 192.168.1.77 with TTL 9.
    let program = PacketProgram::new(vec![
        Insn::Ld(0, Field::DstPort),
        Insn::JeqImm(0, 9, 9),
        Insn::JeqImm(0, 7, 4),
        Insn::Allow,
        Insn::LdImm(1, 0xc0a8_014d),
        Insn::SetDst(1),
        Insn::LdImm(2, 9),
        Insn::SetTtl(2),
        Insn::Allow,
        Insn::Block,
    ]);

    let mut a = router(0, &[0xa00, 0xa01, 0xa02]);
    a.add_neighbor(neighbor(1, 0, 0x100, "10.0.1.2", "10.0.1.1", 1));
    a.add_experiment(ExperimentConfig {
        id: ExperimentId(1),
        asn: Asn(61574),
        port: PortId(1),
        remote_mac: mac(0x300),
        local_addr: "100.125.1.1".parse().unwrap(),
        remote_addr: "100.125.1.2".parse().unwrap(),
        global_index: Some(3),
        policy: ExperimentPolicy {
            allocations: vec![prefix("184.164.224.0/24")],
            asns: vec![Asn(61574)],
            caps: CapabilitySet::basic(),
        },
        data: ExperimentDataPolicy {
            allowed_sources: vec![prefix("184.164.224.0/24")],
            program: Some(program),
            ..Default::default()
        },
    });
    let mut b = router(1, &[0xb00, 0xb01]);
    b.add_neighbor(neighbor(2, 0, 0x200, "10.0.2.2", "10.0.2.1", 2));
    b.add_backbone_peer(BackboneConfig {
        port: PortId(1),
        remote_mac: mac(0xa02),
        local_addr: "10.255.0.2".parse().unwrap(),
        remote_addr: "10.255.0.1".parse().unwrap(),
        remote_neighbors: vec![RemoteNeighbor {
            id: NeighborId(1),
            global_index: 1,
        }],
        passive: true,
    });
    let endpoint = |asn: u32, id: u32, own: (u32, &str), router: (u32, &str)| {
        let mut n = ExperimentNode::new(Asn(asn), RouterId(id));
        n.add_pop_session(
            PeerId(0),
            PortId(0),
            mac(own.0),
            own.1.parse().unwrap(),
            mac(router.0),
            router.1.parse().unwrap(),
            Asn(u32::from(ASN)),
        );
        Tap::new(n)
    };
    let a = sim.add_node(Box::new(Tap::new(a)));
    let b = sim.add_node(Box::new(Tap::new(b)));
    let n1 = sim.add_node(Box::new(endpoint(
        100,
        11,
        (0x100, "10.0.1.1"),
        (0xa00, "10.0.1.2"),
    )));
    let n2 = sim.add_node(Box::new(endpoint(
        200,
        12,
        (0x200, "10.0.2.1"),
        (0xb00, "10.0.2.2"),
    )));
    let exp = sim.add_node(Box::new(endpoint(
        61574,
        13,
        (0x300, "100.125.1.2"),
        (0xa01, "100.125.1.1"),
    )));
    let edge = LinkConfig::with_latency(SimDuration::from_millis(1));
    sim.connect(a, PortId(0), n1, PortId(0), edge);
    sim.connect(a, PortId(1), exp, PortId(0), edge);
    sim.connect(b, PortId(0), n2, PortId(0), edge);
    sim.connect(
        a,
        PortId(2),
        b,
        PortId(1),
        LinkConfig::with_latency(SimDuration::from_millis(10)),
    );
    sim.set_shards(shards);
    for (node, pop) in [(a, 0), (n1, 0), (exp, 0), (b, 1), (n2, 1)] {
        sim.set_node_shard(node, pop % shards);
    }

    // A starts before its backbone session exists, so its start-up ARP
    // prefetch never learns N2's global address: the first packets toward
    // N2 meet an unresolved egress.
    sim.with_node_ctx::<Tap<VbgpRouter>, _>(b, |t, ctx| t.inner.start(ctx));
    sim.with_node_ctx::<Tap<VbgpRouter>, _>(a, |t, ctx| {
        t.inner.start(ctx);
        let peer = t.inner.add_backbone_peer(BackboneConfig {
            port: PortId(2),
            remote_mac: mac(0xb01),
            local_addr: "10.255.0.1".parse().unwrap(),
            remote_addr: "10.255.0.2".parse().unwrap(),
            remote_neighbors: vec![RemoteNeighbor {
                id: NeighborId(2),
                global_index: 2,
            }],
            passive: false,
        });
        t.inner.start_session(ctx, peer);
    });
    for node in [n1, n2, exp] {
        sim.with_node_ctx::<Tap<ExperimentNode>, _>(node, |t, ctx| {
            t.inner.start_session(ctx, PeerId(0))
        });
    }
    sim.run_for(SimDuration::from_secs(5));
    for (node, p, nh) in [
        (n1, "192.168.1.0/24", "10.0.1.1"),
        (n2, "192.168.2.0/24", "10.0.2.1"),
        (exp, "184.164.224.0/24", "100.125.1.2"),
    ] {
        sim.with_node_ctx::<Tap<ExperimentNode>, _>(node, |t, ctx| {
            let attrs = t.inner.build_attrs(nh.parse().unwrap(), 0, &[], &[]);
            t.inner.announce_via(ctx, PeerId(0), prefix(p), attrs);
        });
    }
    sim.run_for(SimDuration::from_secs(10));

    // The experiment's next hops toward N1 and (across the backbone) N2.
    let next_hop = |p: &str| {
        let exp = &sim.node::<Tap<ExperimentNode>>(exp).unwrap().inner;
        match exp.routes_for(&prefix(p))[0].attrs.next_hop {
            Some(std::net::IpAddr::V4(nh)) => nh.to_string(),
            other => panic!("{p}: unexpected next hop {other:?}"),
        }
    };
    let (n1_hop, n2_hop) = (next_hop("192.168.1.0/24"), next_hop("192.168.2.0/24"));
    let (n1_hop, n2_hop) = (n1_hop.as_str(), n2_hop.as_str());
    let me = "184.164.224.5";
    let allowed = |tag| (n1_hop, udp(me, "192.168.1.1", 80, 64, tag));
    let spoofed = |tag| (n1_hop, udp("9.9.9.9", "192.168.1.2", 80, 64, tag));
    let blocked = |tag| (n1_hop, udp(me, "192.168.1.3", 9, 64, tag));
    let rewritten = |tag| (n1_hop, udp(me, "192.168.1.4", 7, 64, tag));
    let expiring = |tag| (n1_hop, udp(me, "192.168.1.5", 80, 1, tag));
    let remote = |tag| (n2_hop, udp(me, "192.168.2.1", 80, 64, tag));
    let remote_blocked = |tag| (n2_hop, udp(me, "192.168.2.2", 9, 64, tag));

    // The experiment's first sends ARP for each next hop. Toward N2, A has
    // not resolved N2's global address yet: singles, then a train.
    send(&mut sim, exp, vec![allowed(1)], 20);
    send(&mut sim, exp, vec![remote(2)], 5);
    send(&mut sim, exp, vec![remote(3)], 2);
    let train = vec![
        remote(4),
        allowed(5),
        remote_blocked(6),
        remote(7),
        expiring(8),
    ];
    send(&mut sim, exp, train, 50);
    // Every kind alone, now that N2 resolves, then every kind in one train
    // mixing both neighbors' tables, twice (the second train meets warm
    // flow and verdict caches).
    let kinds = |t: u8| {
        vec![
            remote(t),
            allowed(t + 1),
            spoofed(t + 2),
            blocked(t + 3),
            rewritten(t + 4),
            expiring(t + 5),
            remote(t + 6),
            remote_blocked(t + 7),
        ]
    };
    for pkt in kinds(10) {
        send(&mut sim, exp, vec![pkt], 5);
    }
    send(&mut sim, exp, kinds(20), 30);
    send(&mut sim, exp, kinds(30), 30);

    // Inbound: N1 → experiment (delivered with N1's virtual MAC as the
    // source), expiring and unroutable; N2 → experiment across the
    // backbone. Singles, then trains.
    let from_n1 = |t: u8| {
        let pkt = |dst, ttl, tag| ("10.0.1.2", udp("192.168.1.9", dst, 443, ttl, tag));
        vec![
            pkt("184.164.224.6", 64, t),
            pkt("184.164.224.7", 1, t + 1),
            pkt("184.164.225.1", 64, t + 2),
            pkt("184.164.224.8", 64, t + 3),
        ]
    };
    let from_n2 = |t: u8| {
        let pkt = |dst, tag| ("10.0.2.2", udp("192.168.2.9", dst, 443, 64, tag));
        vec![pkt("184.164.224.9", t), pkt("184.164.224.10", t + 1)]
    };
    for pkt in from_n1(40) {
        send(&mut sim, n1, vec![pkt], 20);
    }
    for pkt in from_n2(50) {
        send(&mut sim, n2, vec![pkt], 40);
    }
    send(&mut sim, n1, from_n1(60), 5);
    send(&mut sim, n2, from_n2(70), 100);
    sim.run_for(SimDuration::from_secs(1));

    // The schedule really reached every path it claims to pin.
    let ra = &sim.node::<Tap<VbgpRouter>>(a).unwrap().inner;
    let rb = &sim.node::<Tap<VbgpRouter>>(b).unwrap().inner;
    let blocked_by = |reason| ra.data.blocked.get(reason);
    assert!(
        blocked_by(DropReason::SpoofedSource) >= 3 && blocked_by(DropReason::ProgramBlock) >= 4
    );
    let router = |key| ra.stats.get(key);
    assert!(router(RouterCounter::DataTransformed) >= 3 && router(RouterCounter::IcmpSent) >= 4);
    assert!(router(RouterCounter::TtlExpired) >= 6 && router(RouterCounter::NoRoute) >= 2);
    let (mux_a, mux_b) = (|key| ra.mux.stats.get(key), |key| rb.mux.stats.get(key));
    assert!(mux_a(MuxCounter::Unresolved) >= 4 && mux_a(MuxCounter::ToBackbone) >= 5);
    assert!(mux_a(MuxCounter::ToExperiment) >= 8 && mux_b(MuxCounter::ToBackbone) >= 3);
    let taps = [a, b, n1, n2, exp].map(|n| {
        if n == a || n == b {
            let t = sim.node::<Tap<VbgpRouter>>(n).unwrap();
            (t.digest, t.single, t.in_trains)
        } else {
            let t = sim.node::<Tap<ExperimentNode>>(n).unwrap();
            (t.digest, t.single, t.in_trains)
        }
    });
    assert!(
        taps[0].1 > 0 && taps[0].2 > 0,
        "router A must see singles and trains: {taps:?}"
    );
    (
        taps.map(|t| t.0),
        sim.processed_events,
        obs.journal_digest(),
    )
}

#[test]
fn egress_schedule_matches_pinned_digest() {
    for shards in [1, 2] {
        let got = egress_schedule(shards);
        assert!(
            got == PINNED_EGRESS,
            "{shards} shard(s): egress schedule moved: digests {:#018x?}, {} events, journal \
             {:#018x} (pinned {PINNED_EGRESS:#018x?})",
            got.0,
            got.1,
            got.2
        );
    }
}

// ---------------------------------------------------------------------------
// Host-stack pin.
//
// The egress pin covers the frames routers and experiment nodes exchange;
// nothing above pins the bytes a synthetic AS sends. This one joins an
// experiment node straight to a chain of `InternetAs` nodes, over
// point-to-point links and one switched segment, and drives the IP host
// stack of both: transit with TTL decrement, packets queued behind one
// unresolved next hop and flushed in order, ARP requests nobody answers,
// ICMP echo, traceroute from both ends, unroutable destinations, and
// resends after the ARP entries expire. Every kind is sent both alone and
// inside trains.
// ---------------------------------------------------------------------------

/// Per node (the experiment, then X1–X4) the FNV-1a digest of every frame
/// it received as (time, port, frame bytes), then processed events.
/// Recorded by running [`host_schedule`] at the commit before the two host
/// stacks were merged; regenerate as described on [`PINNED_SERVING`].
const PINNED_HOST: ([u64; 5], u64) = (
    [
        0xf541_11ff_9ae8_92f5,
        0x8778_a5ef_4c4e_0e32,
        0x113c_04e7_f6ae_bcb2,
        0x705c_279e_5fd9_138b,
        0x6d01_b132_2169_4532,
    ],
    411,
);

/// Run `f` on a tapped node in one callback (so what it sends leaves as
/// one train once resolved), then run the simulator `ms`.
fn at<N: Node>(sim: &mut Simulator, node: NodeId, ms: u64, f: impl FnOnce(&mut N, &mut Ctx<'_>)) {
    sim.with_node_ctx::<Tap<N>, _>(node, |t, ctx| f(&mut t.inner, ctx));
    sim.run_for(SimDuration::from_millis(ms));
}

/// The experiment E (AS 61574) is X1's customer and holds its BGP session
/// with X1 directly; X1 is X2's customer; X3 and X4 peer with X2 on a
/// switched segment. E announces its prefix and a second one whose next
/// hop nobody owns. At two shards E and X1 run on one shard and the rest
/// on the other. Returns what [`PINNED_HOST`] pins.
fn host_schedule(shards: usize) -> ([u64; 5], u64) {
    use peering_repro::bgp::types::{prefix, Asn, RouterId};
    use peering_repro::bgp::PeerId;
    use peering_repro::netsim::{IcmpPacket, LearningSwitch, LinkConfig};
    use peering_repro::platform::internet::{InternetAs, Relationship};
    use std::net::Ipv4Addr;

    /// Both ends of an AS-to-AS session, each as (AS index, port, MAC id,
    /// address): `a` opens it and `b` is `b_is` to `a`.
    fn as_session(
        x: &mut [InternetAs],
        a: (usize, u16, u32, &str),
        b: (usize, u16, u32, &str),
        b_is: Relationship,
    ) {
        let a_is = match b_is {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            other => other,
        };
        for ((i, port, mac, addr), (j, _, remote_mac, remote_addr), rel, passive) in
            [(a, b, b_is, false), (b, a, a_is, true)]
        {
            let remote_asn = x[j].asn();
            let id = PeerId(x[i].host.speaker.peer_ids().len() as u32);
            x[i].add_session(
                id,
                rel,
                remote_asn,
                PortId(port),
                MacAddr::from_id(mac),
                addr.parse().unwrap(),
                MacAddr::from_id(remote_mac),
                remote_addr.parse().unwrap(),
                passive,
            );
        }
    }

    let ip = |s: &str| s.parse::<Ipv4Addr>().unwrap();
    let mut sim = Simulator::new(0x4057);
    let mut exp = ExperimentNode::new(Asn(61574), RouterId(1));
    let (e_mac, x1_mac) = (MacAddr::from_id(0x600), MacAddr::from_id(0x100));
    let (e_addr, x1_addr) = (ip("100.64.0.2"), ip("100.64.0.1"));
    exp.add_pop_session(
        PeerId(0),
        PortId(0),
        e_mac,
        e_addr,
        x1_mac,
        x1_addr,
        Asn(65001),
    );
    let mut x = [65001, 65002, 65003, 65004].map(|asn| InternetAs::new(Asn(asn), RouterId(asn)));
    x[0].add_session(
        PeerId(0),
        Relationship::Customer,
        Asn(61574),
        PortId(0),
        x1_mac,
        x1_addr,
        e_mac,
        e_addr,
        true,
    );
    as_session(
        &mut x,
        (0, 1, 0x101, "10.1.2.1"),
        (1, 0, 0x200, "10.1.2.2"),
        Relationship::Provider,
    );
    for (i, mac, addr) in [(2, 0x300, "10.9.0.3"), (3, 0x400, "10.9.0.4")] {
        as_session(
            &mut x,
            (1, 1, 0x201, "10.9.0.2"),
            (i, 0, mac, addr),
            Relationship::Peer,
        );
    }
    for (i, p) in [
        (1, "198.18.2.0/24"),
        (2, "198.18.3.0/24"),
        (3, "198.18.4.0/24"),
    ] {
        x[i].originate(prefix(p));
    }
    let e = sim.add_node(Box::new(Tap::new(exp)));
    let x = x.map(|n| sim.add_node(Box::new(Tap::new(n))));
    let sw = sim.add_node(Box::new(LearningSwitch::new(3)));
    let ms = |n| LinkConfig::with_latency(SimDuration::from_millis(n));
    sim.connect(e, PortId(0), x[0], PortId(0), ms(1));
    sim.connect(x[0], PortId(1), x[1], PortId(0), ms(2));
    for (k, (node, port)) in [(x[1], 1), (x[2], 0), (x[3], 0)].into_iter().enumerate() {
        sim.connect(sw, PortId(k as u16), node, PortId(port), ms(1));
    }
    sim.set_shards(shards);
    for (node, shard) in [(e, 0), (x[0], 0), (x[1], 1), (sw, 1), (x[2], 1), (x[3], 1)] {
        sim.set_node_shard(node, shard % shards);
    }
    for n in x {
        sim.with_node_ctx::<Tap<InternetAs>, _>(n, |t, ctx| t.inner.start(ctx));
    }
    sim.with_node_ctx::<Tap<ExperimentNode>, _>(e, |t, ctx| t.inner.start_session(ctx, PeerId(0)));
    sim.run_for(SimDuration::from_secs(10));
    sim.with_node_ctx::<Tap<ExperimentNode>, _>(e, |t, ctx| {
        for (p, nh) in [
            ("184.164.224.0/24", e_addr),
            ("184.164.225.0/24", ip("100.64.0.9")),
        ] {
            let attrs = t.inner.build_attrs(nh, 0, &[], &[]);
            t.inner.announce_via(ctx, PeerId(0), prefix(p), attrs);
        }
    });
    sim.run_for(SimDuration::from_secs(10));

    let (me, far) = ("184.164.224.5", "198.18.3.5");
    let to_e = |t: u8| udp(far, &format!("184.164.224.{t}"), 80, 64, t);
    let ping = |dst: &str, seq| {
        let echo = IcmpPacket::EchoRequest {
            ident: 7,
            seq,
            payload: Bytes::from_static(b"ping"),
        };
        IpPacket::new(ip(me), ip(dst), IpProto::Icmp, echo.encode())
    };
    let payload = || Bytes::from_static(b"host");

    // Transit toward E: X3 queues a train behind its unresolved next hop
    // (one ARP request, then an in-order flush), each hop on the way
    // resolves the next in turn, and E answers X1's request.
    at(&mut sim, x[2], 50, |n: &mut InternetAs, ctx| {
        for t in 1..=3 {
            assert!(n.send_packet(ctx, to_e(t)));
        }
    });
    at(&mut sim, x[2], 20, |n: &mut InternetAs, ctx| {
        assert!(n.send_packet(ctx, to_e(4)));
    });
    // E's own sends: the best route alone, then chosen routes and the best
    // route in one train.
    at(&mut sim, e, 50, |n: &mut ExperimentNode, ctx| {
        assert!(n.send_best(ctx, ip(me), ip("198.18.3.1"), payload()));
    });
    at(&mut sim, e, 50, |n: &mut ExperimentNode, ctx| {
        let route = n.routes_for(&prefix("198.18.4.0/24"))[0].clone();
        for k in 1..=3 {
            let dst = ip(&format!("198.18.4.{k}"));
            assert!(n.send_via_route(ctx, &route, ip(me), dst, payload()));
        }
        assert!(n.send_best(ctx, ip(me), ip("198.18.2.1"), payload()));
    });
    // ICMP echo to X3's prefix and to X1's own address, alone and in a
    // train; each is answered.
    at(&mut sim, e, 50, |n: &mut ExperimentNode, ctx| {
        n.send_to_next_hop(ctx, PortId(0), x1_addr, ping("198.18.3.9", 1));
    });
    at(&mut sim, e, 50, |n: &mut ExperimentNode, ctx| {
        n.send_to_next_hop(ctx, PortId(0), x1_addr, ping("100.64.0.1", 2));
        n.send_to_next_hop(ctx, PortId(0), x1_addr, ping("198.18.3.9", 3));
    });
    // Traceroute from E (X1 answers TTL 1, X2 TTL 2, X3 terminates TTL 3)
    // and from X3 (X2, X1, then E), one probe per callback, then all
    // three in one train.
    let probe_from_e = |n: &mut ExperimentNode, ctx: &mut Ctx<'_>, ttl: u8, ident: u16| {
        let route = n.routes_for(&prefix("198.18.3.0/24"))[0].clone();
        assert!(n.send_probe_with_ttl(ctx, &route, ip(me), ip("198.18.3.7"), ttl, ident));
    };
    for ttl in 1..=3 {
        at(&mut sim, e, 50, |n: &mut ExperimentNode, ctx| {
            probe_from_e(n, ctx, ttl, 100 + u16::from(ttl))
        });
    }
    at(&mut sim, e, 50, |n: &mut ExperimentNode, ctx| {
        for ttl in 1..=3 {
            probe_from_e(n, ctx, ttl, 200 + u16::from(ttl));
        }
    });
    for ttl in 1..=3 {
        at(&mut sim, x[2], 50, |n: &mut InternetAs, ctx| {
            let ident = 300 + u16::from(ttl);
            assert!(n.send_probe_with_ttl(ctx, ip(far), ip("184.164.224.9"), ttl, ident));
        });
    }
    at(&mut sim, x[2], 50, |n: &mut InternetAs, ctx| {
        for ttl in 1..=3 {
            let ident = 400 + u16::from(ttl);
            assert!(n.send_probe_with_ttl(ctx, ip(far), ip("184.164.224.9"), ttl, ident));
        }
    });
    // Unroutable: X3 holds no route for its own probe, X1 none for what E
    // hands it.
    at(&mut sim, x[2], 20, |n: &mut InternetAs, ctx| {
        assert!(!n.send_probe(ctx, ip(far), ip("203.0.113.1"), payload()));
    });
    at(&mut sim, e, 20, |n: &mut ExperimentNode, ctx| {
        n.send_to_next_hop(ctx, PortId(0), x1_addr, udp(me, "203.0.113.2", 80, 64, 0));
    });
    at(&mut sim, e, 20, |n: &mut ExperimentNode, ctx| {
        for t in 3..=4 {
            let pkt = udp(me, &format!("203.0.113.{t}"), 80, 64, t);
            n.send_to_next_hop(ctx, PortId(0), x1_addr, pkt);
        }
    });
    // Next hops nobody owns: X1 asks for E's second prefix's next hop, E
    // for an address off X1's link; neither request is answered, and the
    // second packet toward each meets a paced, unsent request.
    for dsts in [&[1][..], &[2, 3]] {
        at(&mut sim, x[2], 50, |n: &mut InternetAs, ctx| {
            for &t in dsts {
                let pkt = udp(far, &format!("184.164.225.{t}"), 80, 64, t);
                assert!(n.send_packet(ctx, pkt));
            }
        });
    }
    for dsts in [&[21][..], &[22, 23]] {
        at(&mut sim, e, 50, |n: &mut ExperimentNode, ctx| {
            for &t in dsts {
                let pkt = udp(me, &format!("198.18.3.{t}"), 80, 64, t);
                n.send_to_next_hop(ctx, PortId(0), ip("100.64.0.7"), pkt);
            }
        });
    }
    // Every ARP entry expires, twice: resends on both paths, first alone
    // and then in trains, ask again.
    let arp_seen = |sim: &Simulator| {
        let asked = |n| sim.node::<Tap<InternetAs>>(n).unwrap().arp;
        sim.node::<Tap<ExperimentNode>>(e).unwrap().arp + x.map(asked).iter().sum::<u64>()
    };
    let before = arp_seen(&sim);
    sim.run_for(SimDuration::from_secs(61));
    at(&mut sim, x[2], 50, |n: &mut InternetAs, ctx| {
        assert!(n.send_packet(ctx, to_e(10)));
    });
    at(&mut sim, e, 50, |n: &mut ExperimentNode, ctx| {
        assert!(n.send_best(ctx, ip(me), ip("198.18.3.10"), payload()));
    });
    sim.run_for(SimDuration::from_secs(61));
    at(&mut sim, x[2], 50, |n: &mut InternetAs, ctx| {
        for t in 11..=12 {
            assert!(n.send_packet(ctx, to_e(t)));
        }
    });
    at(&mut sim, e, 50, |n: &mut ExperimentNode, ctx| {
        for k in 11..=12 {
            let dst = ip(&format!("198.18.3.{k}"));
            assert!(n.send_best(ctx, ip(me), dst, payload()));
        }
    });
    sim.run_for(SimDuration::from_secs(1));

    // The schedule really reached every path it claims to pin.
    assert!(
        arp_seen(&sim) > before,
        "expired entries are asked for again"
    );
    let exp = &sim.node::<Tap<ExperimentNode>>(e).unwrap().inner;
    let asx = |i: usize| &sim.node::<Tap<InternetAs>>(x[i]).unwrap().inner;
    let (x1, x2, x3) = (asx(0), asx(1), asx(2));
    for base in [100, 200] {
        let dst = ip("198.18.3.7");
        assert_eq!(exp.traceroute_hops(base + 1), [(x1_addr, dst)]);
        assert_eq!(exp.traceroute_hops(base + 2), [(ip("10.1.2.2"), dst)]);
        assert!(exp.traceroute_hops(base + 3).is_empty());
    }
    for base in [300, 400] {
        let dst = ip("184.164.224.9");
        assert_eq!(x3.traceroute_hops(base + 1), [(ip("10.9.0.2"), dst)]);
        assert_eq!(x3.traceroute_hops(base + 2), [(ip("10.1.2.1"), dst)]);
        assert!(x3.traceroute_hops(base + 3).is_empty());
    }
    let exp_got =
        |f: &dyn Fn(&IpPacket) -> bool| exp.received.iter().filter(|r| f(&r.packet)).count();
    let x3_got =
        |f: &dyn Fn(&IpPacket) -> bool| x3.received.iter().filter(|r| f(&r.packet)).count();
    assert_eq!(
        exp_got(&|p| matches!(p.header.ident, 303 | 403)),
        2,
        "X3's TTL-3 probes reach E"
    );
    assert_eq!(
        x3_got(&|p| matches!(p.header.ident, 103 | 203)),
        2,
        "E's TTL-3 probes reach X3"
    );
    let transit = |p: &IpPacket| p.header.dst == ip("184.164.224.1") && p.header.ttl == 62;
    assert_eq!(exp_got(&transit), 1, "two transit hops decrement TTL");
    let echo_reply = |p: &IpPacket| {
        matches!(
            IcmpPacket::decode(&p.payload),
            Some(IcmpPacket::EchoReply { ident: 7, .. })
        )
    };
    assert_eq!(exp_got(&echo_reply), 3, "every ping is answered");
    let unowned = |p: &IpPacket| p.header.dst.octets()[2] == 225 || p.header.dst.octets()[3] > 20;
    assert_eq!(
        exp_got(&unowned) + x3_got(&unowned),
        0,
        "unanswered ARP sends nothing"
    );
    assert_eq!((x1.ttl_expired, x2.ttl_expired), (4, 4));
    assert_eq!((x1.no_route, x3.no_route), (3, 1));
    assert!(x1.forwarded > 0 && x2.forwarded > 0);
    let e_tap = sim.node::<Tap<ExperimentNode>>(e).unwrap();
    let taps = x.map(|n| {
        let t = sim.node::<Tap<InternetAs>>(n).unwrap();
        (t.digest, t.single, t.in_trains)
    });
    assert!(
        e_tap.single > 0 && e_tap.in_trains > 0 && taps[1].1 > 0 && taps[1].2 > 0,
        "E and X2 must see singles and trains: {taps:?}"
    );
    let digests = [e_tap.digest, taps[0].0, taps[1].0, taps[2].0, taps[3].0];
    (digests, sim.processed_events)
}

#[test]
fn host_schedule_matches_pinned_digest() {
    for shards in [1, 2] {
        let got = host_schedule(shards);
        assert!(
            got == PINNED_HOST,
            "{shards} shard(s): host schedule moved: digests {:#018x?}, {} events \
             (pinned {PINNED_HOST:#018x?})",
            got.0,
            got.1
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
