//! End-to-end reproduction of the paper's core scenario (Figs. 1 and 2):
//! two parallel experiments (X1, X2) multiplexed over one vBGP edge router
//! (E1) with two Internet neighbors (N1, N2) that both announce the same
//! destination prefix.
//!
//! Verified behaviours, mapped to the paper:
//! * ADD-PATH fan-out: experiments see *both* neighbors' routes (§3.2.1);
//! * next-hop rewriting into the 127.65/16 virtual pool (Fig. 2a);
//! * per-packet egress control via destination MAC (Fig. 2b);
//! * source-MAC rewriting on inbound traffic (§3.2.2);
//! * community-steered announcements (§3.2.1);
//! * enforcement: hijacks and spoofed traffic are blocked (§4.7);
//! * parallel experiments are isolated from each other (§2.1).

use peering_repro::bgp::types::{prefix, Asn, RouterId};
use peering_repro::bgp::PeerId;
use peering_repro::netsim::{Bytes, LinkConfig, MacAddr, NodeId, PortId, SimDuration, Simulator};
use peering_repro::toolkit::node::ExperimentNode;
use peering_repro::vbgp::enforcement::control::ExperimentPolicy;
use peering_repro::vbgp::enforcement::data::ExperimentDataPolicy;
use peering_repro::vbgp::{
    CapabilitySet, ControlCommunities, ControlCounter, ControlEnforcer, DataEnforcer,
    ExperimentConfig, ExperimentId, NeighborConfig, NeighborId, NeighborKind, PopId, RouterCounter,
    VbgpRouter,
};

const PLATFORM_ASN: u32 = 47065;
const N1: NeighborId = NeighborId(1);
const N2: NeighborId = NeighborId(2);
const X1: ExperimentId = ExperimentId(1);
const X2: ExperimentId = ExperimentId(2);

struct Scenario {
    sim: Simulator,
    router: NodeId,
    n1: NodeId,
    n2: NodeId,
    x1: NodeId,
    x2: NodeId,
}

fn mac(id: u32) -> MacAddr {
    MacAddr::from_id(id)
}

fn build() -> Scenario {
    let mut sim = Simulator::new(99);

    let pop = PopId(0);
    let control = ControlEnforcer::standalone(pop, ControlCommunities::new(PLATFORM_ASN as u16));
    let data = DataEnforcer::new();
    let mut router = VbgpRouter::new(pop, Asn(PLATFORM_ASN), RouterId(10), control, data);
    for p in 0..4u16 {
        router.set_port_mac(PortId(p), mac(0x1000 + p as u32));
    }
    router.add_neighbor(NeighborConfig {
        id: N1,
        asn: Asn(100),
        kind: NeighborKind::Transit,
        port: PortId(0),
        remote_mac: mac(0x0100),
        local_addr: "10.0.1.2".parse().unwrap(),
        remote_addr: "1.1.1.1".parse().unwrap(),
        global_index: 1,
        passive: false,
    });
    router.add_neighbor(NeighborConfig {
        id: N2,
        asn: Asn(200),
        kind: NeighborKind::Peer,
        port: PortId(1),
        remote_mac: mac(0x0200),
        local_addr: "10.0.2.2".parse().unwrap(),
        remote_addr: "2.2.2.2".parse().unwrap(),
        global_index: 2,
        passive: false,
    });
    router.add_experiment(ExperimentConfig {
        id: X1,
        asn: Asn(61574),
        port: PortId(2),
        remote_mac: mac(0x0301),
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
    router.add_experiment(ExperimentConfig {
        id: X2,
        asn: Asn(61575),
        port: PortId(3),
        remote_mac: mac(0x0302),
        local_addr: "100.125.2.1".parse().unwrap(),
        remote_addr: "100.125.2.2".parse().unwrap(),
        global_index: None,
        policy: ExperimentPolicy {
            allocations: vec![prefix("184.164.225.0/24")],
            asns: vec![Asn(61575)],
            caps: CapabilitySet::basic(),
        },
        data: ExperimentDataPolicy {
            allowed_sources: vec![prefix("184.164.225.0/24")],
            ..Default::default()
        },
    });
    let router = sim.add_node(Box::new(router));

    // Neighbors are plain BGP routers on the Internet side.
    let mut n1_node = ExperimentNode::new(Asn(100), RouterId(1));
    n1_node.add_pop_session(
        PeerId(0),
        PortId(0),
        mac(0x0100),
        "1.1.1.1".parse().unwrap(),
        mac(0x1000),
        "10.0.1.2".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let n1 = sim.add_node(Box::new(n1_node));
    let mut n2_node = ExperimentNode::new(Asn(200), RouterId(2));
    n2_node.add_pop_session(
        PeerId(0),
        PortId(0),
        mac(0x0200),
        "2.2.2.2".parse().unwrap(),
        mac(0x1001),
        "10.0.2.2".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let n2 = sim.add_node(Box::new(n2_node));

    // Experiments dial in over tunnels.
    let mut x1_node = ExperimentNode::new(Asn(61574), RouterId(3));
    x1_node.add_pop_session(
        PeerId(0),
        PortId(0),
        mac(0x0301),
        "100.125.1.2".parse().unwrap(),
        mac(0x1002),
        "100.125.1.1".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let x1 = sim.add_node(Box::new(x1_node));
    let mut x2_node = ExperimentNode::new(Asn(61575), RouterId(4));
    x2_node.add_pop_session(
        PeerId(0),
        PortId(0),
        mac(0x0302),
        "100.125.2.2".parse().unwrap(),
        mac(0x1003),
        "100.125.2.1".parse().unwrap(),
        Asn(PLATFORM_ASN),
    );
    let x2 = sim.add_node(Box::new(x2_node));

    let link = LinkConfig::with_latency(SimDuration::from_millis(5));
    sim.connect(router, PortId(0), n1, PortId(0), link);
    sim.connect(router, PortId(1), n2, PortId(0), link);
    sim.connect(router, PortId(2), x1, PortId(0), link);
    sim.connect(router, PortId(3), x2, PortId(0), link);

    // Start everything.
    sim.with_node_ctx::<VbgpRouter, _>(router, |r, ctx| r.start(ctx));
    for node in [n1, n2, x1, x2] {
        sim.with_node_ctx::<ExperimentNode, _>(node, |n, ctx| n.start_session(ctx, PeerId(0)));
    }
    sim.run_for(SimDuration::from_secs(5));

    Scenario {
        sim,
        router,
        n1,
        n2,
        x1,
        x2,
    }
}

fn announce_internet_prefix(s: &mut Scenario) {
    // Both neighbors announce 192.168.0.0/24 (Fig. 1).
    for (node, addr, asn) in [(s.n1, "1.1.1.1", 100u32), (s.n2, "2.2.2.2", 200u32)] {
        s.sim.with_node_ctx::<ExperimentNode, _>(node, |n, ctx| {
            let attrs = n.build_attrs(addr.parse().unwrap(), 0, &[], &[]);
            n.announce_via(ctx, PeerId(0), prefix("192.168.0.0/24"), attrs);
        });
        let _ = asn;
    }
    s.sim.run_for(SimDuration::from_secs(2));
}

#[test]
fn sessions_establish() {
    let s = build();
    let router = s.sim.node::<VbgpRouter>(s.router).unwrap();
    for peer in router.host.speaker.peer_ids() {
        assert!(
            router.host.speaker.is_established(peer),
            "session {peer:?} not established"
        );
    }
}

#[test]
fn add_path_fanout_with_rewritten_next_hops() {
    let mut s = build();
    announce_internet_prefix(&mut s);
    let x1 = s.sim.node::<ExperimentNode>(s.x1).unwrap();
    let routes = x1.routes_for(&prefix("192.168.0.0/24"));
    assert_eq!(routes.len(), 2, "X1 must see both neighbors' routes");
    let mut next_hops: Vec<String> = routes
        .iter()
        .map(|r| r.attrs.next_hop.unwrap().to_string())
        .collect();
    next_hops.sort();
    assert_eq!(next_hops, vec!["127.65.0.1", "127.65.0.2"]);
    // The platform ASN is prepended; origins are the two neighbor ASes.
    let mut origins: Vec<u32> = routes
        .iter()
        .map(|r| r.attrs.as_path.origin_as().unwrap().0)
        .collect();
    origins.sort();
    assert_eq!(origins, vec![100, 200]);
    for r in &routes {
        assert_eq!(r.attrs.as_path.first_as(), Some(Asn(PLATFORM_ASN)));
    }
}

#[test]
fn experiment_announcement_reaches_both_neighbors() {
    let mut s = build();
    s.sim.with_node_ctx::<ExperimentNode, _>(s.x1, |n, ctx| {
        let attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
        n.announce_via(ctx, PeerId(0), prefix("184.164.224.0/24"), attrs);
    });
    s.sim.run_for(SimDuration::from_secs(2));
    for node in [s.n1, s.n2] {
        let n = s.sim.node::<ExperimentNode>(node).unwrap();
        let routes = n.routes_for(&prefix("184.164.224.0/24"));
        assert_eq!(routes.len(), 1, "neighbor should learn X1's prefix");
        assert_eq!(
            routes[0].attrs.as_path.asns(),
            vec![Asn(PLATFORM_ASN), Asn(61574)]
        );
        // Control communities never leak to the Internet.
        assert!(routes[0]
            .attrs
            .communities
            .iter()
            .all(|c| c.high() != PLATFORM_ASN as u16));
    }
}

#[test]
fn per_packet_egress_choice_by_destination_mac() {
    let mut s = build();
    announce_internet_prefix(&mut s);

    // X1 picks N2's route (origin AS200) for one packet, N1's for another.
    let routes = s
        .sim
        .node::<ExperimentNode>(s.x1)
        .unwrap()
        .routes_for(&prefix("192.168.0.0/24"));
    let via_n2 = routes
        .iter()
        .find(|r| r.attrs.as_path.contains(Asn(200)))
        .unwrap()
        .clone();
    let via_n1 = routes
        .iter()
        .find(|r| r.attrs.as_path.contains(Asn(100)))
        .unwrap()
        .clone();

    s.sim.with_node_ctx::<ExperimentNode, _>(s.x1, |n, ctx| {
        assert!(n.send_via_route(
            ctx,
            &via_n2,
            "184.164.224.5".parse().unwrap(),
            "192.168.0.1".parse().unwrap(),
            Bytes::from_static(b"via n2"),
        ));
    });
    s.sim.run_for(SimDuration::from_secs(3));
    s.sim.with_node_ctx::<ExperimentNode, _>(s.x1, |n, ctx| {
        assert!(n.send_via_route(
            ctx,
            &via_n1,
            "184.164.224.5".parse().unwrap(),
            "192.168.0.2".parse().unwrap(),
            Bytes::from_static(b"via n1"),
        ));
    });
    s.sim.run_for(SimDuration::from_secs(3));

    let n2 = s.sim.node::<ExperimentNode>(s.n2).unwrap();
    assert_eq!(n2.received.len(), 1, "exactly the steered packet at N2");
    assert_eq!(
        n2.received[0].packet.header.dst,
        "192.168.0.1".parse::<std::net::Ipv4Addr>().unwrap()
    );
    // TTL was decremented by the vBGP hop.
    assert_eq!(n2.received[0].packet.header.ttl, 63);

    let n1 = s.sim.node::<ExperimentNode>(s.n1).unwrap();
    assert_eq!(n1.received.len(), 1, "exactly the steered packet at N1");
    assert_eq!(
        n1.received[0].packet.header.dst,
        "192.168.0.2".parse::<std::net::Ipv4Addr>().unwrap()
    );
}

#[test]
fn inbound_traffic_carries_ingress_neighbor_in_source_mac() {
    let mut s = build();
    // X1 announces its prefix so neighbors can route to it.
    s.sim.with_node_ctx::<ExperimentNode, _>(s.x1, |n, ctx| {
        let attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
        n.announce_via(ctx, PeerId(0), prefix("184.164.224.0/24"), attrs);
    });
    s.sim.run_for(SimDuration::from_secs(2));

    // N1 sends a packet to the experiment prefix along its best route.
    s.sim.with_node_ctx::<ExperimentNode, _>(s.n1, |n, ctx| {
        assert!(n.send_best(
            ctx,
            "192.168.100.9".parse().unwrap(),
            "184.164.224.5".parse().unwrap(),
            Bytes::from_static(b"hello x1"),
        ));
    });
    s.sim.run_for(SimDuration::from_secs(3));

    let router = s.sim.node::<VbgpRouter>(s.router).unwrap();
    let n1_vnh = router.mux.vnh(N1).unwrap();
    let x1 = s.sim.node::<ExperimentNode>(s.x1).unwrap();
    assert_eq!(x1.received.len(), 1, "X1 should receive the packet");
    // The source MAC was rewritten to N1's virtual MAC so the experiment
    // knows which neighbor delivered it (§3.2.2).
    assert_eq!(x1.received[0].src_mac, n1_vnh.mac);
    assert_eq!(
        x1.received[0].packet.header.src,
        "192.168.100.9".parse::<std::net::Ipv4Addr>().unwrap()
    );
}

#[test]
fn community_steering_restricts_export() {
    let mut s = build();
    // X2 announces only to N1 using the whitelist community.
    let cc = ControlCommunities::new(PLATFORM_ASN as u16);
    s.sim.with_node_ctx::<ExperimentNode, _>(s.x2, |n, ctx| {
        let attrs = n.build_attrs(
            "100.125.2.2".parse().unwrap(),
            0,
            &[],
            &[cc.announce_to(N1)],
        );
        n.announce_via(ctx, PeerId(0), prefix("184.164.225.0/24"), attrs);
    });
    s.sim.run_for(SimDuration::from_secs(2));

    let n1 = s.sim.node::<ExperimentNode>(s.n1).unwrap();
    assert_eq!(n1.routes_for(&prefix("184.164.225.0/24")).len(), 1);
    let n2 = s.sim.node::<ExperimentNode>(s.n2).unwrap();
    assert!(
        n2.routes_for(&prefix("184.164.225.0/24")).is_empty(),
        "whitelist must exclude N2"
    );
}

#[test]
fn hijack_is_blocked_by_control_enforcement() {
    let mut s = build();
    // X2 tries to announce X1's prefix (and an Internet prefix).
    for hijack in ["184.164.224.0/24", "8.8.8.0/24"] {
        s.sim.with_node_ctx::<ExperimentNode, _>(s.x2, |n, ctx| {
            let attrs = n.build_attrs("100.125.2.2".parse().unwrap(), 0, &[], &[]);
            n.announce_via(ctx, PeerId(0), prefix(hijack), attrs);
        });
    }
    s.sim.run_for(SimDuration::from_secs(2));
    for node in [s.n1, s.n2] {
        let n = s.sim.node::<ExperimentNode>(node).unwrap();
        assert!(n.routes_for(&prefix("184.164.224.0/24")).is_empty());
        assert!(n.routes_for(&prefix("8.8.8.0/24")).is_empty());
    }
    let router = s.sim.node::<VbgpRouter>(s.router).unwrap();
    assert!(router.stats.get(RouterCounter::UpdatesBlocked) >= 2);
    assert_eq!(router.control.stats.get(ControlCounter::Accepted), 0);
}

#[test]
fn spoofed_traffic_is_blocked_by_data_enforcement() {
    let mut s = build();
    announce_internet_prefix(&mut s);
    let routes = s
        .sim
        .node::<ExperimentNode>(s.x1)
        .unwrap()
        .routes_for(&prefix("192.168.0.0/24"));
    let route = routes[0].clone();
    // X1 spoofs a source outside its allocation.
    s.sim.with_node_ctx::<ExperimentNode, _>(s.x1, |n, ctx| {
        assert!(n.send_via_route(
            ctx,
            &route,
            "9.9.9.9".parse().unwrap(),
            "192.168.0.1".parse().unwrap(),
            Bytes::from_static(b"spoofed"),
        ));
    });
    s.sim.run_for(SimDuration::from_secs(3));
    let router = s.sim.node::<VbgpRouter>(s.router).unwrap();
    assert_eq!(router.data.blocked.total(), 1);
    let n1 = s.sim.node::<ExperimentNode>(s.n1).unwrap();
    let n2 = s.sim.node::<ExperimentNode>(s.n2).unwrap();
    assert!(n1.received.is_empty() && n2.received.is_empty());
}

#[test]
fn experiments_are_isolated_from_each_other() {
    let mut s = build();
    // X1 announces its prefix.
    s.sim.with_node_ctx::<ExperimentNode, _>(s.x1, |n, ctx| {
        let attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
        n.announce_via(ctx, PeerId(0), prefix("184.164.224.0/24"), attrs);
    });
    s.sim.run_for(SimDuration::from_secs(2));
    // X2 must NOT see X1's announcement (experiments are isolated, §2.1).
    let x2 = s.sim.node::<ExperimentNode>(s.x2).unwrap();
    assert!(x2.routes_for(&prefix("184.164.224.0/24")).is_empty());
}

#[test]
fn withdrawal_propagates_to_neighbors() {
    let mut s = build();
    s.sim.with_node_ctx::<ExperimentNode, _>(s.x1, |n, ctx| {
        let attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 0, &[], &[]);
        n.announce_via(ctx, PeerId(0), prefix("184.164.224.0/24"), attrs);
    });
    s.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        s.sim
            .node::<ExperimentNode>(s.n1)
            .unwrap()
            .routes_for(&prefix("184.164.224.0/24"))
            .len(),
        1
    );
    s.sim.with_node_ctx::<ExperimentNode, _>(s.x1, |n, ctx| {
        n.withdraw_via(ctx, PeerId(0), prefix("184.164.224.0/24"));
    });
    s.sim.run_for(SimDuration::from_secs(2));
    for node in [s.n1, s.n2] {
        assert!(s
            .sim
            .node::<ExperimentNode>(node)
            .unwrap()
            .routes_for(&prefix("184.164.224.0/24"))
            .is_empty());
    }
}

#[test]
fn prepend_and_poison_survive_to_neighbors() {
    let mut s = build();
    // Poisoning requires the capability: grant it to X1 first.
    s.sim.with_node_ctx::<VbgpRouter, _>(s.router, |r, _ctx| {
        r.control.set_experiment(
            X1,
            ExperimentPolicy {
                allocations: vec![prefix("184.164.224.0/24")],
                asns: vec![Asn(61574)],
                caps: CapabilitySet::with(&[peering_repro::vbgp::Grant::limited(
                    peering_repro::vbgp::CapabilityKind::AsPathPoisoning,
                    2,
                )]),
            },
        );
    });
    s.sim.with_node_ctx::<ExperimentNode, _>(s.x1, |n, ctx| {
        let attrs = n.build_attrs("100.125.1.2".parse().unwrap(), 2, &[Asn(3356)], &[]);
        n.announce_via(ctx, PeerId(0), prefix("184.164.224.0/24"), attrs);
    });
    s.sim.run_for(SimDuration::from_secs(2));
    let n1 = s.sim.node::<ExperimentNode>(s.n1).unwrap();
    let routes = n1.routes_for(&prefix("184.164.224.0/24"));
    assert_eq!(routes.len(), 1);
    let asns: Vec<u32> = routes[0].attrs.as_path.asns().iter().map(|a| a.0).collect();
    assert_eq!(
        asns,
        vec![PLATFORM_ASN, 61574, 61574, 61574, 3356, 61574],
        "prepends and poison preserved through the platform"
    );
}

#[test]
fn neighbor_deconfiguration_withdraws_its_routes() {
    // §5 interconnection management: removing a neighbor at runtime takes
    // its routes (and only its routes) out of every experiment's view.
    let mut s = build();
    announce_internet_prefix(&mut s);
    assert_eq!(
        s.sim
            .node::<ExperimentNode>(s.x1)
            .unwrap()
            .routes_for(&prefix("192.168.0.0/24"))
            .len(),
        2
    );
    s.sim
        .with_node_ctx::<VbgpRouter, _>(s.router, |r, ctx| r.remove_neighbor(ctx, N2));
    s.sim.run_for(SimDuration::from_secs(3));
    let routes = s
        .sim
        .node::<ExperimentNode>(s.x1)
        .unwrap()
        .routes_for(&prefix("192.168.0.0/24"));
    assert_eq!(routes.len(), 1, "only N1's route remains");
    assert!(routes[0].attrs.as_path.contains(Asn(100)));
    // The virtual next hop is gone from the ARP responder and classifier.
    let router = s.sim.node::<VbgpRouter>(s.router).unwrap();
    assert!(router.mux.vnh(N2).is_none());
}
