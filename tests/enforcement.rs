//! Enforcement-layer batteries (ISSUE PR 9).
//!
//! Three families:
//!
//! 1. **Packet-program VM differentials.** Seeded random programs — valid,
//!    malformed, fuel-starved — run over random packet batches through
//!    `check_egress_batch`, once as one batch and once as batches of one on
//!    an identically configured enforcer, and the verdict sequences and
//!    stats must be bit-identical, including the verdict cache on a second
//!    pass and the shapers' admissions. A property sweep asserts the
//!    interpreter can never spend more than its fuel budget, whatever the
//!    program.
//! 2. **End-to-end program enforcement.** A live vBGP router between an
//!    experiment and a neighbor: installed programs must block and
//!    transform real forwarded packets (and an invalid install must fail
//!    closed), observed at the receiving neighbor.
//! 3. **Distributed rate-ledger chaos.** Per-PoP ledgers reconciled by
//!    backbone gossip must keep the AS-wide update budget (§3.3) with
//!    bounded overshoot through a backbone partition, reconverge after
//!    heal, prune across day rollovers — and stay bit-identical at 1, 2
//!    and 8 shards.

use std::net::{IpAddr, Ipv4Addr};

use peering_repro::bgp::types::{prefix, Asn, RouterId};
use peering_repro::bgp::PeerId;
use peering_repro::netsim::{
    Bytes, ChaosPlan, Incident, LinkConfig, LinkId, MacAddr, NodeId, PortId, SimDuration, SimTime,
    Simulator,
};
use peering_repro::obs::{EventKind, Obs};
use peering_repro::platform::experiment::Proposal;
use peering_repro::platform::platform::{Peering, PeeringError};
use peering_repro::platform::topology::{paper_intent, TopologyParams};
use peering_repro::toolkit::client::AnnounceOptions;
use peering_repro::toolkit::node::ExperimentNode;
use peering_repro::vbgp::enforcement::control::ExperimentPolicy;
use peering_repro::vbgp::enforcement::data::{
    DataCounter, DataEnforcer, DataVerdict, DropReason, ExperimentDataPolicy,
};
use peering_repro::vbgp::enforcement::pprog::{Field, Insn, PacketProgram, PacketView};
use peering_repro::vbgp::{
    CapabilitySet, ControlCommunities, ControlCounter, ControlEnforcer, ExperimentConfig,
    ExperimentId, NeighborConfig, NeighborId, NeighborKind, PopId, Rejection, RouterCounter,
    VbgpRouter,
};

const EXP: ExperimentId = ExperimentId(1);
const SECS_PER_DAY: u64 = 86_400;

/// SplitMix64 — the same deterministic generator the other batteries use.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

// ---------------------------------------------------------------------------
// Random packet programs.
// ---------------------------------------------------------------------------

fn gen_field(g: &mut Gen) -> Field {
    match g.below(7) {
        0 => Field::SrcAddr,
        1 => Field::DstAddr,
        2 => Field::Proto,
        3 => Field::SrcPort,
        4 => Field::DstPort,
        5 => Field::Len,
        _ => Field::Ttl,
    }
}

/// One random instruction. Register operands occasionally exceed the file
/// (install-time reject), jump targets occasionally point past the end
/// (install-time reject, and run-off-end at runtime for the unvalidated
/// property sweep) — the generator *wants* malformed programs in the mix.
fn gen_insn(g: &mut Gen, len: usize) -> Insn {
    let r = (g.below(10)) as u8; // 0..=9: ~20% invalid register
    let s = (g.below(10)) as u8;
    let t = g.below(len as u64 + 3) as u16; // sometimes past the end
    let imm = g.next() >> (g.below(60) as u32); // spread magnitudes
    match g.below(22) {
        0 => Insn::Ld(r, gen_field(g)),
        1 => Insn::LdImm(r, imm),
        2 => Insn::Mov(r, s),
        3 => Insn::Add(r, s),
        4 => Insn::Sub(r, s),
        5 => Insn::And(r, s),
        6 => Insn::Or(r, s),
        7 => Insn::Xor(r, s),
        8 => Insn::ShlImm(r, (g.below(70)) as u8),
        9 => Insn::ShrImm(r, (g.below(70)) as u8),
        10 => Insn::Jmp(t),
        11 => Insn::JeqImm(r, imm, t),
        12 => Insn::JneImm(r, imm, t),
        13 => Insn::JltImm(r, imm, t),
        14 => Insn::JgtImm(r, imm, t),
        15 => Insn::Jeq(r, s, t),
        16 => Insn::Jlt(r, s, t),
        17 => Insn::SetTtl(r),
        18 => Insn::SetSrc(r),
        19 => Insn::SetDst(r),
        20 => Insn::Allow,
        _ => Insn::Block,
    }
}

fn gen_program(g: &mut Gen) -> PacketProgram {
    let len = 1 + g.below(32) as usize;
    let insns: Vec<Insn> = (0..len).map(|_| gen_insn(g, len)).collect();
    let prog = PacketProgram::new(insns);
    match g.below(4) {
        // Mostly default fuel; sometimes tight (fuel exhaustion), sometimes
        // zero (install-time reject).
        0 => prog.with_fuel(1 + g.below(24) as u32),
        1 => prog.with_fuel(0),
        _ => prog,
    }
}

/// A random packet from inside the experiment's allocation, so the
/// anti-spoofing stage passes and the program stage is what decides.
fn gen_packet(g: &mut Gen) -> PacketView {
    PacketView {
        src: IpAddr::V4(Ipv4Addr::new(10, g.below(4) as u8, g.below(4) as u8, 1)),
        dst: IpAddr::V4(Ipv4Addr::from(g.next() as u32)),
        proto: [1u8, 6, 17, 41][g.below(4) as usize],
        src_port: g.below(4) as u16 * 1000,
        dst_port: [0u16, 53, 80, 443][g.below(4) as usize],
        len: 40 + g.below(1400) as u32,
        ttl: 1 + g.below(255) as u8,
    }
}

/// An enforcer running `program`, behind an experiment shaper and a PoP
/// shaper small enough that a pass of random packets exhausts them.
fn enforcer_with(program: PacketProgram) -> DataEnforcer {
    let mut e = DataEnforcer::new();
    e.set_experiment(
        EXP,
        ExperimentDataPolicy {
            allowed_sources: vec![prefix("10.0.0.0/8")],
            program: Some(program),
            rate: Some((1_000, 40_000)),
            ..Default::default()
        },
    );
    e.set_pop_shaper(1_000, 50_000);
    e
}

/// `pkts` through `check_egress_batch` as batches of one.
fn one_by_one(e: &mut DataEnforcer, pkts: &[PacketView]) -> Vec<DataVerdict> {
    let mut out = Vec::new();
    pkts.iter()
        .map(|p| {
            e.check_egress_batch(EXP, std::slice::from_ref(p), None, SimTime::ZERO, &mut out);
            out[0]
        })
        .collect()
}

/// The counters both ways of batching must agree on: the pipeline's, then
/// the drops by reason.
fn counters(e: &DataEnforcer) -> Vec<u64> {
    let stats = e.stats.iter().map(|(_, n)| n);
    stats.chain(e.blocked.iter().map(|(_, n)| n)).collect()
}

/// The core differential: random programs over random packets, one batch
/// vs batches of one, verdicts (and so shaper admissions, in order) and
/// counters identical, and identical again when the second pass is served
/// from the verdict cache.
#[test]
fn random_programs_batch_matches_single() {
    let mut shaped = 0;
    for seed in 0..24u64 {
        let mut g = Gen(seed);
        let prog = gen_program(&mut g);
        let valid = prog.validate().is_ok();
        let invariant = prog.flow_invariant();
        let pkts: Vec<PacketView> = (0..64).map(|_| gen_packet(&mut g)).collect();

        let mut single = enforcer_with(prog.clone());
        let mut batch = enforcer_with(prog.clone());
        for pass in 0..2 {
            let singles = one_by_one(&mut single, &pkts);
            let mut batched = Vec::new();
            batch.check_egress_batch(EXP, &pkts, None, SimTime::ZERO, &mut batched);
            assert_eq!(
                singles, batched,
                "seed {seed} pass {pass}: batch and single verdicts diverge"
            );
            assert_eq!(
                counters(&single),
                counters(&batch),
                "seed {seed} pass {pass}: accounting diverges"
            );
            if !valid {
                assert!(
                    batched.iter().all(|v| !v.is_allow()),
                    "seed {seed}: malformed program let a packet through"
                );
            }
        }
        // Flow-invariant programs are served from the cache on the second
        // pass; len/TTL-reading programs must never be.
        if valid && invariant {
            assert!(
                batch.stats.get(DataCounter::ProgCacheHits) > 0,
                "seed {seed}: flow-invariant program never hit the cache"
            );
        }
        if valid && !invariant {
            assert_eq!(
                batch.stats.get(DataCounter::ProgCacheHits),
                0,
                "seed {seed}: len/TTL-reading program served from the cache"
            );
        }
        for reason in [DropReason::ExperimentRateLimit, DropReason::PopRateLimit] {
            shaped += batch.blocked.get(reason);
        }
    }
    assert!(shaped > 0, "no seed exhausted a shaper");
}

/// Whatever the program — malformed, looping, self-modifying jumps — one
/// execution can never spend more than its fuel budget.
#[test]
fn random_programs_never_exceed_fuel() {
    for seed in 0..400u64 {
        let mut g = Gen(0xF00D ^ seed);
        let prog = gen_program(&mut g);
        let pkt = gen_packet(&mut g);
        let (outcome, used) = prog.run(&pkt);
        assert!(
            used <= prog.fuel().max(1),
            "seed {seed}: spent {used} fuel with a budget of {} ({outcome:?})",
            prog.fuel()
        );
    }
}

/// Fuel exhaustion is a Block whether the packets come as one batch or as
/// batches of one, and it is charged to the program's drop label — never
/// silently allowed.
#[test]
fn fuel_exhaustion_blocks_in_both_paths() {
    let spin = PacketProgram::new(vec![Insn::Jmp(0)]);
    assert!(spin.validate().is_ok(), "a tight loop is a *valid* program");
    let pkts: Vec<PacketView> = {
        let mut g = Gen(7);
        (0..16).map(|_| gen_packet(&mut g)).collect()
    };
    let mut single = enforcer_with(spin.clone());
    let mut batch = enforcer_with(spin);
    let mut batched = Vec::new();
    batch.check_egress_batch(EXP, &pkts, None, SimTime::ZERO, &mut batched);
    assert_eq!(one_by_one(&mut single, &pkts), batched);
    assert!(
        batched.iter().all(|v| !v.is_allow()),
        "fuel exhaustion must fail closed"
    );
    assert_eq!(counters(&single), counters(&batch));
    assert_eq!(batch.blocked.get(DropReason::ProgramFuel), 16);
}

// ---------------------------------------------------------------------------
// End-to-end: programs against real forwarded packets.
// ---------------------------------------------------------------------------

const PLATFORM_ASN: u32 = 47065;

struct Rig {
    sim: Simulator,
    router: NodeId,
    neighbor: NodeId,
    experiment: NodeId,
}

fn mac(id: u32) -> MacAddr {
    MacAddr::from_id(id)
}

/// One router, one transit neighbor announcing 192.168.0.0/24, one
/// experiment attached over a tunnel — the smallest topology where
/// `check_egress_batch` runs against packets on the wire.
fn rig() -> Rig {
    let mut sim = Simulator::new(9);
    let control =
        ControlEnforcer::standalone(PopId(0), ControlCommunities::new(PLATFORM_ASN as u16));
    let mut router = VbgpRouter::new(
        PopId(0),
        Asn(PLATFORM_ASN),
        RouterId(1),
        control,
        DataEnforcer::new(),
    );
    router.set_port_mac(PortId(0), mac(0x1000));
    router.set_port_mac(PortId(1), mac(0x1001));
    router.add_neighbor(NeighborConfig {
        id: NeighborId(1),
        asn: Asn(100),
        kind: NeighborKind::Transit,
        port: PortId(0),
        remote_mac: mac(0x100),
        local_addr: "10.0.1.2".parse().unwrap(),
        remote_addr: "1.1.1.1".parse().unwrap(),
        global_index: 1,
        passive: false,
    });
    router.add_experiment(ExperimentConfig {
        id: EXP,
        asn: Asn(61574),
        port: PortId(1),
        remote_mac: mac(0x300),
        local_addr: "100.125.1.1".parse().unwrap(),
        remote_addr: "100.125.1.2".parse().unwrap(),
        global_index: None,
        policy: ExperimentPolicy {
            allocations: vec![prefix("184.164.224.0/24")],
            asns: vec![Asn(61574)],
            caps: CapabilitySet::basic(),
        },
        data: ExperimentDataPolicy {
            allowed_sources: vec![prefix("184.164.224.0/24")],
            ..Default::default()
        },
    });
    let router = sim.add_node(Box::new(router));

    let mut nbr = ExperimentNode::new(Asn(100), RouterId(2));
    nbr.add_pop_session(
        PeerId(0),
        PortId(0),
        mac(0x100),
        "1.1.1.1".parse().unwrap(),
        mac(0x1000),
        "10.0.1.2".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let neighbor = sim.add_node(Box::new(nbr));

    let mut exp = ExperimentNode::new(Asn(61574), RouterId(3));
    exp.add_pop_session(
        PeerId(0),
        PortId(0),
        mac(0x300),
        "100.125.1.2".parse().unwrap(),
        mac(0x1001),
        "100.125.1.1".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let experiment = sim.add_node(Box::new(exp));

    let link = LinkConfig::with_latency(SimDuration::from_millis(5));
    sim.connect(router, PortId(0), neighbor, PortId(0), link);
    sim.connect(router, PortId(1), experiment, PortId(0), link);

    sim.with_node_ctx::<VbgpRouter, _>(router, |r, ctx| r.start(ctx));
    for node in [neighbor, experiment] {
        sim.with_node_ctx::<ExperimentNode, _>(node, |n, ctx| n.start_session(ctx, PeerId(0)));
    }
    sim.run_for(SimDuration::from_secs(5));

    // The neighbor originates an internet prefix the experiment will send
    // traffic toward.
    sim.with_node_ctx::<ExperimentNode, _>(neighbor, |n, ctx| {
        let attrs = n.build_attrs("1.1.1.1".parse().unwrap(), 0, &[], &[]);
        n.announce_via(ctx, PeerId(0), prefix("192.168.0.0/24"), attrs);
    });
    sim.run_for(SimDuration::from_secs(3));

    Rig {
        sim,
        router,
        neighbor,
        experiment,
    }
}

/// Send one packet from the experiment toward 192.168.0.1 via its learned
/// route and return how many packets the neighbor has received in total.
fn send_one(rig: &mut Rig, dst: &str) -> usize {
    let route = rig
        .sim
        .node::<ExperimentNode>(rig.experiment)
        .unwrap()
        .routes_for(&prefix("192.168.0.0/24"))[0]
        .clone();
    rig.sim
        .with_node_ctx::<ExperimentNode, _>(rig.experiment, |n, ctx| {
            assert!(n.send_via_route(
                ctx,
                &route,
                "184.164.224.5".parse().unwrap(),
                dst.parse().unwrap(),
                Bytes::from_static(b"payload"),
            ));
        });
    rig.sim.run_for(SimDuration::from_secs(2));
    rig.sim
        .node::<ExperimentNode>(rig.neighbor)
        .unwrap()
        .received
        .len()
}

#[test]
fn installed_program_blocks_and_transforms_on_the_wire() {
    let mut r = rig();
    // Baseline: no program, the packet arrives with TTL decremented once.
    assert_eq!(send_one(&mut r, "192.168.0.1"), 1);
    {
        let nbr = r.sim.node::<ExperimentNode>(r.neighbor).unwrap();
        assert_eq!(nbr.received[0].packet.header.ttl, 63);
    }

    // Transform: pin the TTL to 9; the router still decrements after the
    // rewrite, so the neighbor sees 8.
    let pin_ttl = PacketProgram::new(vec![Insn::LdImm(0, 9), Insn::SetTtl(0), Insn::Allow]);
    r.sim.with_node_ctx::<VbgpRouter, _>(r.router, |rt, _| {
        rt.data.install_packet_program(EXP, Some(pin_ttl)).unwrap();
    });
    assert_eq!(send_one(&mut r, "192.168.0.2"), 2);
    {
        let nbr = r.sim.node::<ExperimentNode>(r.neighbor).unwrap();
        assert_eq!(nbr.received[1].packet.header.ttl, 8, "TTL rewrite applied");
        let rt = r.sim.node::<VbgpRouter>(r.router).unwrap();
        assert_eq!(rt.stats.get(RouterCounter::DataTransformed), 1);
    }

    // Block: nothing further arrives, and the drop is accounted.
    let deny = PacketProgram::new(vec![Insn::Block]);
    r.sim.with_node_ctx::<VbgpRouter, _>(r.router, |rt, _| {
        rt.data.install_packet_program(EXP, Some(deny)).unwrap();
    });
    assert_eq!(send_one(&mut r, "192.168.0.3"), 2);

    // A malformed program is refused at install but still fails closed.
    let broken = PacketProgram::new(vec![Insn::Jmp(99)]);
    r.sim.with_node_ctx::<VbgpRouter, _>(r.router, |rt, _| {
        assert!(rt.data.install_packet_program(EXP, Some(broken)).is_err());
    });
    assert_eq!(send_one(&mut r, "192.168.0.4"), 2, "fail closed");
    {
        let rt = r.sim.node::<VbgpRouter>(r.router).unwrap();
        assert_eq!(rt.data.blocked.total(), 2);
    }

    // Clearing the program restores the open path.
    r.sim.with_node_ctx::<VbgpRouter, _>(r.router, |rt, _| {
        rt.data.install_packet_program(EXP, None).unwrap();
    });
    assert_eq!(send_one(&mut r, "192.168.0.5"), 3);
}

/// A router moved to a new registry takes every layer's metrics with it,
/// values included: the sessions it brought up under its private
/// registries, its flushes and the packets it forwarded.
#[test]
fn router_set_obs_keeps_every_value() {
    let mut r = rig();
    assert_eq!(send_one(&mut r, "192.168.0.1"), 1);
    let first = Obs::new();
    r.sim
        .with_node_ctx::<VbgpRouter, _>(r.router, |rt, _| rt.set_obs(first.clone()));
    let before = first.snapshot().to_text();
    for line in [
        "bgp.fsm_transition{edge=OpenConfirm->Established} 2",
        "bgp.resync_replays 2",
        "mux.egress_pkts{nbr=1} 1",
        "mux.table_routes{nbr=1} 1",
    ] {
        assert!(
            before.lines().any(|l| l == line),
            "no `{line}` in\n{before}"
        );
    }
    assert!(!before.contains("bgp.flush_nlri_count 0"), "{before}");
    let second = Obs::new();
    r.sim
        .with_node_ctx::<VbgpRouter, _>(r.router, |rt, _| rt.set_obs(second.clone()));
    let after = second.snapshot().to_text();
    for line in before.lines().filter(|l| !l.ends_with(" 0")) {
        assert!(after.lines().any(|l| l == line), "lost `{line}`:\n{after}");
    }
}

/// With no PoP named, program and ingress-policy installs reach only the
/// PoPs where the experiment is attached: elsewhere nothing is journaled
/// and the program generation (which every other experiment's verdict
/// cache there is keyed on) stays put. Naming a PoP where the experiment
/// is not attached is refused.
#[test]
fn platform_installs_reach_only_attached_pops() {
    let mut p = Peering::build(paper_intent(&TopologyParams::tiny()), 5);
    let pops = p.pop_names();
    assert!(pops.len() >= 2);
    let mut proposal = Proposal::basic("one-pop");
    proposal.pops = vec![pops[0].clone()];
    let exp = p.submit(proposal).expect("proposal accepted").id;
    let generations = |p: &Peering| -> Vec<u64> {
        pops.iter()
            .map(|pop| {
                let router = p.router_node(pop).unwrap();
                p.sim
                    .node::<VbgpRouter>(router)
                    .unwrap()
                    .data
                    .prog_generation()
            })
            .collect()
    };
    let installs = |p: &Peering| {
        p.obs()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ProgramInstall { .. }))
            .count()
    };
    let before = generations(&p);
    let deny = PacketProgram::new(vec![Insn::Block]);
    p.install_packet_program(exp, None, Some(deny.clone()))
        .unwrap();
    p.install_ingress_policy(exp, None, true, Some(deny.clone()), None)
        .unwrap();
    assert_eq!(installs(&p), 2, "one egress and one ingress install");
    let mut expected = before.clone();
    expected[0] += 2;
    assert_eq!(generations(&p), expected);
    for pop in &pops[1..] {
        let refused = p.install_packet_program(exp, Some(pop), Some(deny.clone()));
        assert!(matches!(refused, Err(PeeringError::Rejected(_))), "{pop}");
        let refused = p.install_ingress_policy(exp, Some(pop), true, None, None);
        assert!(matches!(refused, Err(PeeringError::Rejected(_))), "{pop}");
    }
    assert_eq!(generations(&p), expected);
    assert_eq!(installs(&p), 2);
}

// ---------------------------------------------------------------------------
// Distributed rate ledger: partition, heal, prune — identical at any shard
// count.
// ---------------------------------------------------------------------------

const WIDE_LIMIT: u32 = 6;

/// Backbone links touching a router (ports 1..=2 in `tiny()`: port 0 is
/// the IXP fabric, tunnel ports come after the backbone).
fn backbone_links(p: &Peering, router: NodeId) -> Vec<LinkId> {
    p.sim
        .links_of(router)
        .into_iter()
        .filter(|(_, ((na, pa), (nb, pb)))| {
            (*na == router && (1..=2).contains(&pa.0)) || (*nb == router && (1..=2).contains(&pb.0))
        })
        .map(|(id, _)| id)
        .collect()
}

fn rate_limited(p: &Peering, router: NodeId) -> u64 {
    p.sim
        .node::<VbgpRouter>(router)
        .unwrap()
        .control
        .rejected
        .get(Rejection::RateLimited)
}

/// One full partition/heal scenario at a given shard count. Returns the
/// observable state the shard sweep compares.
fn run_ledger_scenario(shards: usize) -> (String, u64) {
    let mut p = Peering::build(paper_intent(&TopologyParams::tiny()), 77);
    p.set_shards(shards);
    let pops = p.pop_names();
    let mut proposal = Proposal::basic("budget");
    proposal.pops = pops.clone();
    let mut exp = p.submit(proposal).expect("proposal accepted");
    for pop in &pops[..2] {
        exp.toolkit.open_tunnel(&mut p.sim, pop).expect("tunnel");
        exp.toolkit.start_bgp(&mut p.sim, pop).expect("bgp");
    }
    p.run_for(SimDuration::from_secs(10));
    p.set_as_wide_update_limit(Some(WIDE_LIMIT));
    let prefix = exp.lease.v4[0];
    let routers: Vec<NodeId> = pops.iter().map(|n| p.router_node(n).unwrap()).collect();
    let pop_ids: Vec<PopId> = routers
        .iter()
        .map(|r| p.sim.node::<VbgpRouter>(*r).unwrap().control.pop_id())
        .collect();

    // Cut PoP 0 off from the rest of the backbone for ~400 s.
    let mut plan = ChaosPlan::new();
    plan.push(Incident::partition(
        backbone_links(&p, routers[0]),
        SimDuration::from_secs(1),
        SimDuration::from_secs(400),
    ));
    p.sim.schedule_chaos(&plan);
    p.run_for(SimDuration::from_secs(5));

    // Both attached PoPs flap the prefix past the AS-wide budget while the
    // backbone is down. Each PoP can only consult its own knowledge, so
    // each accepts up to the full budget: the documented worst case of
    // (announcing PoPs) × limit in total.
    for i in 0..(2 * WIDE_LIMIT) {
        for pop in &pops[..2] {
            if i % 2 == 0 {
                exp.toolkit
                    .announce(&mut p.sim, pop, prefix, &AnnounceOptions::default())
                    .expect("announce");
            } else {
                exp.toolkit
                    .withdraw(&mut p.sim, pop, prefix)
                    .expect("withdraw");
            }
        }
        p.run_for(SimDuration::from_secs(15));
    }

    // Partitioned bound: each PoP spent exactly its own view of the
    // budget, no more.
    let now = p.sim.now();
    for (i, pop) in pops[..2].iter().enumerate() {
        let ledger = p.ledger_at(pop).unwrap();
        let ledger = ledger.lock().unwrap();
        assert_eq!(
            ledger.used_today(exp.id, prefix, pop_ids[i], now),
            WIDE_LIMIT,
            "{pop}: local spend must stop at the budget even while partitioned"
        );
    }

    // Heal, give the backbone time to re-establish and gossip a few
    // rounds, then every PoP — attached or not — must know the AS-wide
    // spend reached 2× the budget during the partition.
    p.run_for(SimDuration::from_secs(420));
    let now = p.sim.now();
    for (i, pop) in pops.iter().enumerate() {
        let ledger = p.ledger_at(pop).unwrap();
        let ledger = ledger.lock().unwrap();
        assert_eq!(
            ledger.wide_today(exp.id, prefix, now),
            2 * WIDE_LIMIT,
            "{pop} (pop {i}): gossip must reconcile the platform-wide spend after heal"
        );
    }

    // With the budget visibly exhausted everywhere, further updates are
    // rate-limited at every attached PoP.
    for (i, pop) in pops[..2].iter().enumerate() {
        let before = rate_limited(&p, routers[i]);
        exp.toolkit
            .announce(&mut p.sim, pop, prefix, &AnnounceOptions::default())
            .expect("announce");
        p.run_for(SimDuration::from_secs(2));
        assert_eq!(
            rate_limited(&p, routers[i]),
            before + 1,
            "{pop}: post-heal announce must be rejected"
        );
    }

    // The quiescent state satisfies every oracle invariant, including the
    // gossip soundness bound (remote tallies never exceed origin truth).
    let problems = peering_testkit::oracle::check_convergence(&mut p);
    assert!(
        problems.is_empty(),
        "oracle violations at {shards} shards:\n{problems:#?}"
    );

    (p.obs_snapshot().to_text(), p.obs().journal_digest())
}

#[test]
fn ledger_partition_overshoot_bounded_and_reconverges() {
    let baseline = run_ledger_scenario(1);
    for shards in [2usize, 8] {
        let sharded = run_ledger_scenario(shards);
        assert_eq!(
            baseline.1, sharded.1,
            "journal digest diverged at {shards} shards"
        );
        assert_eq!(
            baseline.0, sharded.0,
            "metric snapshot diverged at {shards} shards"
        );
    }
}

/// Day-rollover housekeeping: the ledger timer prunes spent buckets when
/// the day changes, so the map cannot grow across days (the PR 9 leak
/// fix), and a fresh day gets a fresh budget.
#[test]
fn ledger_prunes_on_day_rollover() {
    let mut r = rig();
    let obs = Obs::new();
    r.sim.with_node_ctx::<VbgpRouter, _>(r.router, |rt, _| {
        rt.set_obs(obs.clone());
    });
    let flap = |r: &mut Rig, n: u32| {
        for i in 0..n {
            r.sim
                .with_node_ctx::<ExperimentNode, _>(r.experiment, |node, ctx| {
                    if i % 2 == 0 {
                        let attrs = node.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
                        node.announce_via(ctx, PeerId(0), prefix("184.164.224.0/24"), attrs);
                    } else {
                        node.withdraw_via(ctx, PeerId(0), prefix("184.164.224.0/24"));
                    }
                });
            r.sim.run_for(SimDuration::from_millis(200));
        }
    };
    let ledger_len = |r: &Rig| {
        let rt = r.sim.node::<VbgpRouter>(r.router).unwrap();
        let ledger = rt.control.ledger();
        let len = ledger.lock().unwrap().len();
        len
    };

    flap(&mut r, 10);
    assert_eq!(ledger_len(&r), 1, "one (exp, prefix, day) bucket charged");

    // Cross the day boundary; the armed ledger timer prunes yesterday.
    r.sim.run_for(SimDuration::from_secs(SECS_PER_DAY));
    assert_eq!(ledger_len(&r), 0, "day-0 bucket must be swept");
    assert!(
        obs.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::LedgerPrune { dropped: 1 })),
        "the sweep must be journaled"
    );

    // A new day charges into a fresh bucket — the map stays bounded.
    flap(&mut r, 10);
    assert_eq!(ledger_len(&r), 1, "the ledger must not grow across days");
    let rt = r.sim.node::<VbgpRouter>(r.router).unwrap();
    assert_eq!(
        rt.control.stats.get(ControlCounter::Accepted),
        20,
        "a fresh day gets a fresh per-PoP budget"
    );
}
