//! Traceroute through the virtualized edge and the synthetic Internet.
//!
//! The paper's §5 explains why the network controller must manage primary
//! addresses: they source the ICMP TTL-exceeded replies traceroute relies
//! on. This test runs an actual traceroute from an experiment: TTL-limited
//! probes elicit time-exceeded replies first from the vBGP router, then
//! from each synthetic AS along the path — and the replies come back down
//! the tunnel because the experiment announced its prefix.

use peering_repro::netsim::{Bytes, SimDuration};
use peering_repro::platform::experiment::Proposal;
use peering_repro::platform::intent::NeighborRole;
use peering_repro::platform::internet::InternetAs;
use peering_repro::platform::platform::Peering;
use peering_repro::platform::topology::{paper_intent, TopologyParams};
use peering_repro::toolkit::client::AnnounceOptions;
use peering_repro::toolkit::node::ExperimentNode;

#[test]
fn traceroute_reveals_the_as_path_hop_by_hop() {
    let mut p = Peering::build(paper_intent(&TopologyParams::tiny()), 1212);
    let pops = p.pop_names();
    let pop_a = pops[0].clone();

    let mut proposal = Proposal::basic("traceroute");
    proposal.pops = vec![pop_a.clone()];
    let mut exp = p.submit(proposal).unwrap();
    exp.toolkit.open_tunnel(&mut p.sim, &pop_a).unwrap();
    exp.toolkit.start_bgp(&mut p.sim, &pop_a).unwrap();
    p.run_for(SimDuration::from_secs(10));

    // Announce our prefix so ICMP replies can route back to us.
    let exp_prefix = exp.lease.v4[0];
    exp.toolkit
        .announce(&mut p.sim, &pop_a, exp_prefix, &AnnounceOptions::default())
        .unwrap();
    p.run_for(SimDuration::from_secs(5));

    // Destination: a prefix originated by a transit at ANOTHER PoP, reached
    // through pop A's transit and the Internet core (2 AS hops past vBGP).
    let local_transit = p
        .neighbors_at(&pop_a)
        .into_iter()
        .find(|(_, r)| *r == NeighborRole::Transit)
        .map(|(id, _)| id)
        .unwrap();
    let remote_transit = p
        .neighbors_at(&pops[1])
        .into_iter()
        .find(|(_, r)| *r == NeighborRole::Transit)
        .map(|(id, _)| id)
        .unwrap();
    let remote_node = p.neighbor_node(remote_transit).unwrap();
    let target_prefix = p.sim.node::<InternetAs>(remote_node).unwrap().originated()[0];
    let dst = match target_prefix {
        peering_repro::bgp::Prefix::V4 { addr, .. } => {
            std::net::Ipv4Addr::from(u32::from(addr) + 1)
        }
        _ => unreachable!(),
    };
    let src = match exp_prefix {
        peering_repro::bgp::Prefix::V4 { addr, .. } => {
            std::net::Ipv4Addr::from(u32::from(addr) + 5)
        }
        _ => unreachable!(),
    };

    // Steer via the LOCAL transit's route (the one-AS-hop egress).
    let route = {
        let node = p.sim.node::<ExperimentNode>(exp.node).unwrap();
        let local_asn = {
            let n = p.neighbor_node(local_transit).unwrap();
            p.sim.node::<InternetAs>(n).unwrap().asn()
        };
        node.routes_for(&target_prefix)
            .into_iter()
            .find(|r| {
                r.attrs.as_path.first_as() == Some(peering_repro::bgp::Asn(47065))
                    && r.attrs.as_path.asns().get(1) == Some(&local_asn)
            })
            .expect("route via local transit")
    };

    // Classic traceroute: TTL 1, 2, 3…
    const IDENT_BASE: u16 = 33434;
    for ttl in 1u8..=3 {
        let route = route.clone();
        p.sim
            .with_node_ctx::<ExperimentNode, _>(exp.node, |n, ctx| {
                assert!(n.send_probe_with_ttl(ctx, &route, src, dst, ttl, IDENT_BASE + ttl as u16));
            });
        p.run_for(SimDuration::from_secs(3));
    }

    let node = p.sim.node::<ExperimentNode>(exp.node).unwrap();
    // TTL=1 expires at the vBGP router: the reply's source is the router's
    // session address on the experiment tunnel or fabric (an interface
    // primary address).
    let hop1 = node.traceroute_hops(IDENT_BASE + 1);
    assert_eq!(hop1.len(), 1, "vBGP router must answer TTL=1");
    assert_eq!(hop1[0].1, dst);
    // TTL=2 expires at pop A's transit.
    let hop2 = node.traceroute_hops(IDENT_BASE + 2);
    assert_eq!(hop2.len(), 1, "local transit must answer TTL=2");
    assert_ne!(hop1[0].0, hop2[0].0, "distinct hops");
    // TTL=3 reaches the destination AS (terminates, no time-exceeded).
    assert!(node.traceroute_hops(IDENT_BASE + 3).is_empty());
    let remote = p.sim.node::<InternetAs>(remote_node).unwrap();
    assert!(
        remote
            .received
            .iter()
            .any(|t| t.packet.header.dst == dst && t.packet.header.ident == IDENT_BASE + 3),
        "TTL=3 probe must arrive at the destination"
    );

    // Bonus: ping the destination (echo request/reply end to end).
    let icmp = peering_repro::netsim::IcmpPacket::EchoRequest {
        ident: 7,
        seq: 1,
        payload: Bytes::from_static(b"ping"),
    };
    let ping = {
        let mut pkt = peering_repro::netsim::IpPacket::new(
            src,
            dst,
            peering_repro::netsim::IpProto::Icmp,
            icmp.encode(),
        );
        pkt.header.ident = 99;
        pkt
    };
    let route2 = route.clone();
    p.sim
        .with_node_ctx::<ExperimentNode, _>(exp.node, |n, ctx| {
            let (port, nh) = n.host.egress(&route2).unwrap();
            n.send_to_next_hop(ctx, port, nh, ping);
        });
    p.run_for(SimDuration::from_secs(5));
    let node = p.sim.node::<ExperimentNode>(exp.node).unwrap();
    let pong = node.received.iter().any(|r| {
        r.packet.header.src == dst
            && matches!(
                peering_repro::netsim::IcmpPacket::decode(&r.packet.payload),
                Some(peering_repro::netsim::IcmpPacket::EchoReply {
                    ident: 7,
                    seq: 1,
                    ..
                })
            )
    });
    assert!(pong, "echo reply must come back down the tunnel");
}
