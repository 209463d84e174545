//! The paper's own security-testing methodology (§4.7 "Testing security
//! policies"): "For each capability, we deploy two (emulated) experiments
//! in our controlled environment: one that does not require the capability
//! and one that does. We execute both experiments twice, with and without
//! the capability. We check that the routes exported and traffic exchanged
//! in each execution match the configured policy."
//!
//! This suite runs that full capability × grant matrix end-to-end through
//! a live vBGP router and checks what actually reaches the neighbor.

use peering_repro::bgp::attrs::{PathAttributes, UnknownAttr};
use peering_repro::bgp::types::{prefix, Asn, Community, RouterId};
use peering_repro::bgp::PeerId;
use peering_repro::netsim::{LinkConfig, MacAddr, NodeId, PortId, SimDuration, Simulator};
use peering_repro::toolkit::node::ExperimentNode;
use peering_repro::vbgp::enforcement::control::ExperimentPolicy;
use peering_repro::vbgp::enforcement::data::ExperimentDataPolicy;
use peering_repro::vbgp::{
    CapabilityKind, CapabilitySet, ControlCommunities, ControlCounter, ControlEnforcer,
    DataEnforcer, ExperimentConfig, ExperimentId, Grant, NeighborConfig, NeighborId, NeighborKind,
    PopId, RouterCounter, VbgpRouter,
};

const PLATFORM_ASN: u32 = 47065;
const EXP_ASN: u32 = 61574;
const EXP_PREFIX: &str = "184.164.224.0/24";

struct Rig {
    sim: Simulator,
    router: NodeId,
    neighbor: NodeId,
    experiment: NodeId,
}

/// Build a 1-neighbor, 1-experiment rig with the given capability set.
fn rig(caps: CapabilitySet) -> Rig {
    let mut sim = Simulator::new(7);
    let control =
        ControlEnforcer::standalone(PopId(0), ControlCommunities::new(PLATFORM_ASN as u16));
    let mut router = VbgpRouter::new(
        PopId(0),
        Asn(PLATFORM_ASN),
        RouterId(1),
        control,
        DataEnforcer::new(),
    );
    router.set_port_mac(PortId(0), MacAddr::from_id(0x1000));
    router.set_port_mac(PortId(1), MacAddr::from_id(0x1001));
    router.add_neighbor(NeighborConfig {
        id: NeighborId(1),
        asn: Asn(100),
        kind: NeighborKind::Transit,
        port: PortId(0),
        remote_mac: MacAddr::from_id(0x100),
        local_addr: "10.0.1.2".parse().unwrap(),
        remote_addr: "1.1.1.1".parse().unwrap(),
        global_index: 1,
        passive: false,
    });
    router.add_experiment(ExperimentConfig {
        id: ExperimentId(1),
        asn: Asn(EXP_ASN),
        port: PortId(1),
        remote_mac: MacAddr::from_id(0x300),
        local_addr: "100.125.1.1".parse().unwrap(),
        remote_addr: "100.125.1.2".parse().unwrap(),
        global_index: None,
        policy: ExperimentPolicy {
            allocations: vec![prefix(EXP_PREFIX)],
            asns: vec![Asn(EXP_ASN)],
            caps,
        },
        data: ExperimentDataPolicy {
            allowed_sources: vec![prefix(EXP_PREFIX)],
            ..Default::default()
        },
    });
    let router = sim.add_node(Box::new(router));
    let mut nbr = ExperimentNode::new(Asn(100), RouterId(2));
    nbr.add_pop_session(
        PeerId(0),
        PortId(0),
        MacAddr::from_id(0x100),
        "1.1.1.1".parse().unwrap(),
        MacAddr::from_id(0x1000),
        "10.0.1.2".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let neighbor = sim.add_node(Box::new(nbr));
    let mut exp = ExperimentNode::new(Asn(EXP_ASN), RouterId(3));
    exp.add_pop_session(
        PeerId(0),
        PortId(0),
        MacAddr::from_id(0x300),
        "100.125.1.2".parse().unwrap(),
        MacAddr::from_id(0x1001),
        "100.125.1.1".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let experiment = sim.add_node(Box::new(exp));
    let link = LinkConfig::with_latency(SimDuration::from_millis(2));
    sim.connect(router, PortId(0), neighbor, PortId(0), link);
    sim.connect(router, PortId(1), experiment, PortId(0), link);
    sim.with_node_ctx::<VbgpRouter, _>(router, |r, ctx| r.start(ctx));
    for n in [neighbor, experiment] {
        sim.with_node_ctx::<ExperimentNode, _>(n, |node, ctx| node.start_session(ctx, PeerId(0)));
    }
    sim.run_for(SimDuration::from_secs(5));
    Rig {
        sim,
        router,
        neighbor,
        experiment,
    }
}

/// Announce with the given attribute transform and return what (if
/// anything) the neighbor learned.
fn announce_and_observe(
    rig: &mut Rig,
    mutate: impl FnOnce(&mut PathAttributes),
) -> Option<peering_repro::bgp::Route> {
    rig.sim
        .with_node_ctx::<ExperimentNode, _>(rig.experiment, |n, ctx| {
            let mut attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
            mutate(&mut attrs);
            n.announce_via(ctx, PeerId(0), prefix(EXP_PREFIX), attrs);
        });
    rig.sim.run_for(SimDuration::from_secs(3));
    rig.sim
        .node::<ExperimentNode>(rig.neighbor)
        .unwrap()
        .routes_for(&prefix(EXP_PREFIX))
        .first()
        .cloned()
}

/// One matrix row: execute the behaviour with and without the grant and
/// assert only the granted run exports.
fn run_matrix_row(
    grant: Grant,
    mutate: impl Fn(&mut PathAttributes),
    check_exported: impl Fn(&peering_repro::bgp::Route),
) {
    // Without the capability: blocked.
    let mut without = rig(CapabilitySet::basic());
    assert!(
        announce_and_observe(&mut without, &mutate).is_none(),
        "announcement must be blocked without the capability"
    );
    let router = without.sim.node::<VbgpRouter>(without.router).unwrap();
    assert!(router.stats.get(RouterCounter::UpdatesBlocked) >= 1);

    // With the capability: exported, and safely transformed.
    let mut with = rig(CapabilitySet::with(&[grant]));
    let route = announce_and_observe(&mut with, &mutate)
        .expect("announcement must export with the capability");
    check_exported(&route);

    // Control: a basic announcement works in BOTH configurations (the
    // experiment "that does not require the capability").
    for caps in [CapabilitySet::basic(), CapabilitySet::with(&[grant])] {
        let mut basic = rig(caps);
        assert!(
            announce_and_observe(&mut basic, |_| {}).is_some(),
            "basic announcements must always work"
        );
    }
}

#[test]
fn matrix_poisoning() {
    run_matrix_row(
        Grant::limited(CapabilityKind::AsPathPoisoning, 2),
        |attrs| {
            let asns: Vec<Asn> = vec![Asn(EXP_ASN), Asn(3356), Asn(EXP_ASN)];
            attrs.as_path = peering_repro::bgp::AsPath::from_asns(&asns);
        },
        |route| {
            assert!(route.attrs.as_path.contains(Asn(3356)), "poison preserved");
            assert_eq!(route.attrs.as_path.origin_as(), Some(Asn(EXP_ASN)));
        },
    );
}

#[test]
fn matrix_communities() {
    let c = Community::new(3356, 70);
    run_matrix_row(
        Grant::limited(CapabilityKind::AttachCommunities, 4),
        move |attrs| attrs.add_community(c),
        move |route| {
            assert!(route.attrs.has_community(c), "community preserved");
            // Control namespace still stripped.
            assert!(route
                .attrs
                .communities
                .iter()
                .all(|x| x.high() != PLATFORM_ASN as u16));
        },
    );
}

#[test]
fn matrix_transitive_attributes() {
    let attr = UnknownAttr {
        flags: 0xC0,
        type_code: 200,
        value: vec![0xde, 0xad],
    };
    run_matrix_row(
        Grant::unlimited(CapabilityKind::TransitiveAttributes),
        move |attrs| attrs.unknown.push(attr.clone()),
        move |route| {
            assert_eq!(route.attrs.unknown.len(), 1, "transitive attr preserved");
            assert_eq!(route.attrs.unknown[0].type_code, 200);
        },
    );
}

#[test]
fn matrix_transit() {
    run_matrix_row(
        Grant::unlimited(CapabilityKind::ProvideTransit),
        |attrs| {
            // Re-announce a route "learned" from AS174 — providing transit.
            let asns: Vec<Asn> = vec![Asn(EXP_ASN), Asn(174)];
            attrs.as_path = peering_repro::bgp::AsPath::from_asns(&asns);
        },
        |route| {
            assert_eq!(route.attrs.as_path.origin_as(), Some(Asn(174)));
        },
    );
}

#[test]
fn hijack_blocked_in_every_configuration() {
    // No capability unlocks announcing someone else's space.
    for caps in [
        CapabilitySet::basic(),
        CapabilitySet::with(&[
            Grant::unlimited(CapabilityKind::ProvideTransit),
            Grant::unlimited(CapabilityKind::TransitiveAttributes),
            Grant::limited(CapabilityKind::AsPathPoisoning, 10),
            Grant::limited(CapabilityKind::AttachCommunities, 10),
            Grant::unlimited(CapabilityKind::Announce6to4),
        ]),
    ] {
        let mut r = rig(caps);
        r.sim
            .with_node_ctx::<ExperimentNode, _>(r.experiment, |n, ctx| {
                let attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
                n.announce_via(ctx, PeerId(0), prefix("8.8.8.0/24"), attrs);
            });
        r.sim.run_for(SimDuration::from_secs(3));
        let nbr = r.sim.node::<ExperimentNode>(r.neighbor).unwrap();
        assert!(
            nbr.routes_for(&prefix("8.8.8.0/24")).is_empty(),
            "hijack must be blocked regardless of capabilities"
        );
    }
}

/// Build a 2-neighbor, 1-experiment rig (for announcement-steering cases).
fn rig2(caps: CapabilitySet) -> (Rig, NodeId) {
    let mut sim = Simulator::new(8);
    let control =
        ControlEnforcer::standalone(PopId(0), ControlCommunities::new(PLATFORM_ASN as u16));
    let mut router = VbgpRouter::new(
        PopId(0),
        Asn(PLATFORM_ASN),
        RouterId(1),
        control,
        DataEnforcer::new(),
    );
    router.set_port_mac(PortId(0), MacAddr::from_id(0x1000));
    router.set_port_mac(PortId(1), MacAddr::from_id(0x1001));
    router.set_port_mac(PortId(2), MacAddr::from_id(0x1002));
    for (nid, port, mac, laddr, raddr, gidx) in [
        (1u32, 0u16, 0x100u32, "10.0.1.2", "1.1.1.1", 1u16),
        (2, 2, 0x200, "10.0.2.2", "2.2.2.2", 2),
    ] {
        router.add_neighbor(NeighborConfig {
            id: NeighborId(nid),
            asn: Asn(100 + nid),
            kind: NeighborKind::Transit,
            port: PortId(port),
            remote_mac: MacAddr::from_id(mac),
            local_addr: laddr.parse().unwrap(),
            remote_addr: raddr.parse().unwrap(),
            global_index: gidx,
            passive: false,
        });
    }
    router.add_experiment(ExperimentConfig {
        id: ExperimentId(1),
        asn: Asn(EXP_ASN),
        port: PortId(1),
        remote_mac: MacAddr::from_id(0x300),
        local_addr: "100.125.1.1".parse().unwrap(),
        remote_addr: "100.125.1.2".parse().unwrap(),
        global_index: None,
        policy: ExperimentPolicy {
            allocations: vec![prefix(EXP_PREFIX)],
            asns: vec![Asn(EXP_ASN)],
            caps,
        },
        data: ExperimentDataPolicy {
            allowed_sources: vec![prefix(EXP_PREFIX)],
            ..Default::default()
        },
    });
    let router = sim.add_node(Box::new(router));
    let mut nbr1 = ExperimentNode::new(Asn(101), RouterId(2));
    nbr1.add_pop_session(
        PeerId(0),
        PortId(0),
        MacAddr::from_id(0x100),
        "1.1.1.1".parse().unwrap(),
        MacAddr::from_id(0x1000),
        "10.0.1.2".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let neighbor1 = sim.add_node(Box::new(nbr1));
    let mut nbr2 = ExperimentNode::new(Asn(102), RouterId(4));
    nbr2.add_pop_session(
        PeerId(0),
        PortId(0),
        MacAddr::from_id(0x200),
        "2.2.2.2".parse().unwrap(),
        MacAddr::from_id(0x1002),
        "10.0.2.2".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let neighbor2 = sim.add_node(Box::new(nbr2));
    let mut exp = ExperimentNode::new(Asn(EXP_ASN), RouterId(3));
    exp.add_pop_session(
        PeerId(0),
        PortId(0),
        MacAddr::from_id(0x300),
        "100.125.1.2".parse().unwrap(),
        MacAddr::from_id(0x1001),
        "100.125.1.1".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let experiment = sim.add_node(Box::new(exp));
    let link = LinkConfig::with_latency(SimDuration::from_millis(2));
    sim.connect(router, PortId(0), neighbor1, PortId(0), link);
    sim.connect(router, PortId(2), neighbor2, PortId(0), link);
    sim.connect(router, PortId(1), experiment, PortId(0), link);
    sim.with_node_ctx::<VbgpRouter, _>(router, |r, ctx| r.start(ctx));
    for n in [neighbor1, neighbor2, experiment] {
        sim.with_node_ctx::<ExperimentNode, _>(n, |node, ctx| node.start_session(ctx, PeerId(0)));
    }
    sim.run_for(SimDuration::from_secs(5));
    (
        Rig {
            sim,
            router,
            neighbor: neighbor1,
            experiment,
        },
        neighbor2,
    )
}

/// Batched-announcement steering: the experiment re-announces the same
/// prefix with *different* steering communities within one burst. The
/// speaker's update batching coalesces the per-neighbor fan-out, and every
/// announce-to / do-not-announce-to community must still be honored — the
/// coalesced wire state has to equal the per-update state.
#[test]
fn matrix_batched_steering_honors_every_community() {
    let cc = ControlCommunities::new(PLATFORM_ASN as u16);
    let (mut r, neighbor2) = rig2(CapabilitySet::basic());

    // Burst 1, two announcements in the same round: the prefix whitelisted
    // to neighbor 1, then immediately re-announced blacklisting neighbor 2
    // (equivalent steering, exercising both community directions).
    r.sim
        .with_node_ctx::<ExperimentNode, _>(r.experiment, |n, ctx| {
            let mut attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
            attrs.add_community(cc.announce_to(NeighborId(1)));
            n.announce_via(ctx, PeerId(0), prefix(EXP_PREFIX), attrs);
            let mut attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
            attrs.add_community(cc.do_not_announce_to(NeighborId(2)));
            n.announce_via(ctx, PeerId(0), prefix(EXP_PREFIX), attrs);
        });
    r.sim.run_for(SimDuration::from_secs(3));
    let n1_routes = r
        .sim
        .node::<ExperimentNode>(r.neighbor)
        .unwrap()
        .routes_for(&prefix(EXP_PREFIX));
    let n2_routes = r
        .sim
        .node::<ExperimentNode>(neighbor2)
        .unwrap()
        .routes_for(&prefix(EXP_PREFIX));
    assert_eq!(
        n1_routes.len(),
        1,
        "neighbor 1 must hold the coalesced announcement"
    );
    assert!(
        n2_routes.is_empty(),
        "do-not-announce-to(2) must hold after coalescing"
    );

    // Burst 2: flip the steering to whitelist neighbor 2 only. The batched
    // flush must pair the withdraw toward neighbor 1 with the announce
    // toward neighbor 2.
    r.sim
        .with_node_ctx::<ExperimentNode, _>(r.experiment, |n, ctx| {
            let mut attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
            attrs.add_community(cc.announce_to(NeighborId(2)));
            n.announce_via(ctx, PeerId(0), prefix(EXP_PREFIX), attrs);
        });
    r.sim.run_for(SimDuration::from_secs(3));
    let n1_routes = r
        .sim
        .node::<ExperimentNode>(r.neighbor)
        .unwrap()
        .routes_for(&prefix(EXP_PREFIX));
    let n2_routes = r
        .sim
        .node::<ExperimentNode>(neighbor2)
        .unwrap()
        .routes_for(&prefix(EXP_PREFIX));
    assert!(
        n1_routes.is_empty(),
        "flipping the whitelist must withdraw from neighbor 1"
    );
    assert_eq!(n2_routes.len(), 1, "neighbor 2 must now hold the route");
    // The steering namespace never leaks to the Internet side.
    assert!(n2_routes[0]
        .attrs
        .communities
        .iter()
        .all(|c| c.high() != PLATFORM_ASN as u16));
}

#[test]
fn rate_limit_enforced_through_the_session() {
    let mut r = rig(CapabilitySet::basic());
    // Flap the prefix far beyond the daily budget.
    for i in 0..200u32 {
        r.sim
            .with_node_ctx::<ExperimentNode, _>(r.experiment, |n, ctx| {
                if i % 2 == 0 {
                    let attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
                    n.announce_via(ctx, PeerId(0), prefix(EXP_PREFIX), attrs);
                } else {
                    n.withdraw_via(ctx, PeerId(0), prefix(EXP_PREFIX));
                }
            });
        r.sim.run_for(SimDuration::from_millis(100));
    }
    let router = r.sim.node::<VbgpRouter>(r.router).unwrap();
    let rate_limited = router
        .control
        .rejected
        .get(peering_repro::vbgp::Rejection::RateLimited);
    assert_eq!(
        router.control.stats.get(ControlCounter::Accepted),
        144,
        "exactly the daily budget passes"
    );
    assert_eq!(rate_limited, 200 - 144);
}
