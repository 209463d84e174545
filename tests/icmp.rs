//! ICMP error-generation hygiene at the vBGP router and the synthetic ASes
//! behind it (RFC 1122 §3.2.2, RFC 1812 §4.3.2.8).
//!
//! A router must never answer an ICMP *error* with another ICMP error —
//! two buggy hops would otherwise ping-pong time-exceededs forever — and
//! the vBGP router's error generation must be rate-limited so a
//! TTL-expiring packet flood cannot be amplified into an ICMP flood.
//! Informational ICMP (echo requests) still elicits time-exceeded:
//! traceroute-over-ICMP depends on it. The vBGP router's behaviors are
//! observable: suppressions land in the router's counters (which are the
//! metrics registry's cells) and the event journal.

use std::net::Ipv4Addr;

use peering_repro::netsim::{Bytes, IcmpPacket, IpPacket, IpProto, SimDuration};
use peering_repro::platform::experiment::Proposal;
use peering_repro::platform::intent::NeighborRole;
use peering_repro::platform::internet::InternetAs;
use peering_repro::platform::platform::Peering;
use peering_repro::platform::topology::{paper_intent, TopologyParams};
use peering_repro::toolkit::client::AnnounceOptions;
use peering_repro::toolkit::node::ExperimentNode;
use peering_repro::vbgp::{RouterCounter, VbgpRouter};

/// Platform with one experiment attached at the first PoP, its prefix
/// announced (so replies can route back), and a destination address
/// reachable through the synthetic Internet.
struct IcmpRig {
    p: Peering,
    exp_node: peering_repro::netsim::NodeId,
    router: peering_repro::netsim::NodeId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    target: peering_repro::bgp::Prefix,
    tunnel_port: peering_repro::netsim::PortId,
    next_hop: Ipv4Addr,
}

fn build_rig(seed: u64) -> IcmpRig {
    let mut p = Peering::build(paper_intent(&TopologyParams::tiny()), seed);
    let pops = p.pop_names();
    let pop_a = pops[0].clone();

    let mut proposal = Proposal::basic("icmp-hygiene");
    proposal.pops = vec![pop_a.clone()];
    let mut exp = p.submit(proposal).unwrap();
    exp.toolkit.open_tunnel(&mut p.sim, &pop_a).unwrap();
    exp.toolkit.start_bgp(&mut p.sim, &pop_a).unwrap();
    p.run_for(SimDuration::from_secs(10));

    let exp_prefix = exp.lease.v4[0];
    exp.toolkit
        .announce(&mut p.sim, &pop_a, exp_prefix, &AnnounceOptions::default())
        .unwrap();
    p.run_for(SimDuration::from_secs(5));

    let remote_transit = p
        .neighbors_at(&pops[1])
        .into_iter()
        .find(|(_, r)| *r == NeighborRole::Transit)
        .map(|(id, _)| id)
        .unwrap();
    let remote_node = p.neighbor_node(remote_transit).unwrap();
    let target_prefix = p.sim.node::<InternetAs>(remote_node).unwrap().originated()[0];
    let dst = match target_prefix {
        peering_repro::bgp::Prefix::V4 { addr, .. } => Ipv4Addr::from(u32::from(addr) + 1),
        _ => unreachable!(),
    };
    let src = match exp_prefix {
        peering_repro::bgp::Prefix::V4 { addr, .. } => Ipv4Addr::from(u32::from(addr) + 5),
        _ => unreachable!(),
    };

    // Any route toward the destination gives us the tunnel port and the
    // virtual next hop the experiment forwards through.
    let (tunnel_port, next_hop) = {
        let node = p.sim.node::<ExperimentNode>(exp.node).unwrap();
        let route = node
            .routes_for(&target_prefix)
            .into_iter()
            .next()
            .expect("destination learned");
        node.host.egress(&route).unwrap()
    };

    let router = p.router_node(&pop_a).unwrap();
    IcmpRig {
        p,
        exp_node: exp.node,
        router,
        src,
        dst,
        target: target_prefix,
        tunnel_port,
        next_hop,
    }
}

/// Send one raw IP packet from the experiment toward the next hop.
fn send(rig: &mut IcmpRig, pkt: IpPacket) {
    let port = rig.tunnel_port;
    let nh = rig.next_hop;
    rig.p
        .sim
        .with_node_ctx::<ExperimentNode, _>(rig.exp_node, |n, ctx| {
            n.send_to_next_hop(ctx, port, nh, pkt);
        });
}

/// Count time-exceeded replies the experiment received.
fn time_exceeded_count(rig: &IcmpRig) -> usize {
    rig.p
        .sim
        .node::<ExperimentNode>(rig.exp_node)
        .unwrap()
        .received
        .iter()
        .filter(|r| {
            matches!(
                IcmpPacket::decode(&r.packet.payload),
                Some(IcmpPacket::TimeExceeded { .. })
            )
        })
        .count()
}

/// Send a `ttl`-limited packet that is itself an ICMP error
/// (time-exceeded), then a `ttl`-limited echo request, each followed by 3 s
/// of simulation. Returns the time-exceeded replies the experiment holds
/// after each: an error must get none, while informational ICMP is NOT an
/// error and still gets one (traceroute-over-ICMP relies on this).
fn error_then_echo(rig: &mut IcmpRig, ttl: u8) -> [usize; 2] {
    let inner = IpPacket::new(rig.src, rig.dst, IpProto::Udp, Bytes::from_static(b"orig"));
    let error_payload = IcmpPacket::time_exceeded_for(&inner).encode();
    let echo = IcmpPacket::EchoRequest {
        ident: 7,
        seq: 1,
        payload: Bytes::from_static(b"probe"),
    };
    [error_payload, echo.encode()].map(|payload| {
        let mut pkt = IpPacket::new(rig.src, rig.dst, IpProto::Icmp, payload);
        pkt.header.ttl = ttl;
        send(rig, pkt);
        rig.p.run_for(SimDuration::from_secs(3));
        time_exceeded_count(rig)
    })
}

#[test]
fn no_icmp_error_is_generated_for_an_icmp_error() {
    let mut rig = build_rig(4242);

    // TTL=1: the router drops the error silently — no reply, one
    // suppression — and answers the echo request.
    assert_eq!(
        error_then_echo(&mut rig, 1),
        [0, 1],
        "router answered an ICMP error with an ICMP error, or an expired echo request with nothing"
    );

    let stats = &rig.p.sim.node::<VbgpRouter>(rig.router).unwrap().stats;
    assert_eq!(stats.get(RouterCounter::IcmpSuppressedError), 1);
    assert_eq!(stats.get(RouterCounter::IcmpRateLimited), 0);
    assert!(stats.get(RouterCounter::IcmpSent) >= 1);

    // The suppression is observable: registry counter + journal event.
    let snap = rig.p.obs_snapshot();
    let suppressed: u64 = snap
        .names()
        .filter(|n| n.contains("router.icmp_suppressed_error"))
        .map(|n| snap.counter(n).unwrap_or(0))
        .sum();
    assert_eq!(suppressed, 1);
    assert!(
        rig.p
            .obs()
            .journal_tail(512)
            .contains("icmp-suppressed reason=error-for-error"),
        "journal must record the suppression"
    );
}

#[test]
fn no_icmp_error_is_generated_for_an_icmp_error_at_a_synthetic_as() {
    let mut rig = build_rig(4243);

    // Steer through the local transit: the vBGP router takes a TTL of 2
    // down to 1, and the packet expires at the transit AS.
    let pop_a = rig.p.pop_names()[0].clone();
    let transit = rig
        .p
        .neighbors_at(&pop_a)
        .into_iter()
        .find(|(_, r)| *r == NeighborRole::Transit)
        .and_then(|(id, _)| rig.p.neighbor_node(id))
        .unwrap();
    let transit_asn = rig.p.sim.node::<InternetAs>(transit).unwrap().asn();
    (rig.tunnel_port, rig.next_hop) = {
        let node = rig.p.sim.node::<ExperimentNode>(rig.exp_node).unwrap();
        let route = node
            .routes_for(&rig.target)
            .into_iter()
            .find(|r| r.attrs.as_path.asns().get(1) == Some(&transit_asn))
            .expect("route via the local transit");
        node.host.egress(&route).unwrap()
    };

    // TTL=2: both packets expire at the transit, which counts each, sends
    // nothing back for the error and answers the echo request.
    assert_eq!(
        error_then_echo(&mut rig, 2),
        [0, 1],
        "transit AS answered an ICMP error with an ICMP error, or an expired echo request with nothing"
    );
    let transit = rig.p.sim.node::<InternetAs>(transit).unwrap();
    assert_eq!(transit.ttl_expired, 2);

    // Neither expired at the vBGP router.
    let stats = &rig.p.sim.node::<VbgpRouter>(rig.router).unwrap().stats;
    assert_eq!(stats.get(RouterCounter::IcmpSent), 0);
    assert_eq!(stats.get(RouterCounter::IcmpSuppressedError), 0);
}

#[test]
fn icmp_errors_are_rate_limited_per_router() {
    let mut rig = build_rig(777);

    // Flood: 200 TTL-expiring UDP packets inside one second. The token
    // bucket (burst 50, refill 100/s) must clamp the replies.
    const FLOOD: usize = 200;
    for i in 0..FLOOD {
        let mut probe = IpPacket::new(
            rig.src,
            rig.dst,
            IpProto::Udp,
            Bytes::from_static(b"flooding"),
        );
        probe.header.ttl = 1;
        probe.header.ident = i as u16;
        send(&mut rig, probe);
    }
    rig.p.run_for(SimDuration::from_secs(5));

    let replies = time_exceeded_count(&rig);
    let stats = &rig.p.sim.node::<VbgpRouter>(rig.router).unwrap().stats;
    assert_eq!(
        replies as u64 + stats.get(RouterCounter::IcmpRateLimited),
        FLOOD as u64,
        "every expiry is either answered or counted as rate-limited"
    );
    assert!(
        stats.get(RouterCounter::IcmpRateLimited) > 0,
        "a {FLOOD}-packet burst must trip the rate limit"
    );
    assert!(
        replies < FLOOD,
        "rate limit let the whole flood through ({replies} replies)"
    );
    assert!(replies > 0, "rate limit must not silence ICMP entirely");
    assert!(
        rig.p
            .obs()
            .journal_tail(1024)
            .contains("icmp-suppressed reason=rate-limit"),
        "journal must record rate-limit suppressions"
    );
}
