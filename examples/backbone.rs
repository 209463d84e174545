//! The §4.4 / Fig. 5 walkthrough: vBGP across the backbone.
//!
//! An experiment connected at one PoP gains visibility into — and
//! per-packet control over — the neighbors of *every* PoP in the BGP mesh,
//! through hop-by-hop next-hop rewriting between the platform-global
//! `127.127/16` pool and each router's local `127.65/16` pool.
//!
//! Run with: `cargo run --example backbone`

use peering_repro::netsim::{Bytes, SimDuration};
use peering_repro::platform::experiment::Proposal;
use peering_repro::platform::intent::NeighborRole;
use peering_repro::platform::internet::InternetAs;
use peering_repro::platform::platform::Peering;
use peering_repro::platform::topology::{paper_intent, TopologyParams};
use peering_repro::toolkit::node::ExperimentNode;
use peering_repro::vbgp::{MuxCounter, VbgpRouter};

fn main() {
    println!("== vBGP across the backbone (paper §4.4, Fig. 5) ==\n");
    let mut p = Peering::build(paper_intent(&TopologyParams::tiny()), 2024);
    let pops = p.pop_names();
    println!("PoPs: {pops:?} (full backbone mesh)");

    // Attach an experiment at the first PoP only.
    let mut proposal = Proposal::basic("backbone-demo");
    proposal.pops = vec![pops[0].clone()];
    let mut exp = p.submit(proposal).unwrap();
    exp.toolkit.open_tunnel(&mut p.sim, &pops[0]).unwrap();
    exp.toolkit.start_bgp(&mut p.sim, &pops[0]).unwrap();
    p.run_for(SimDuration::from_secs(10));
    println!("experiment attached at {} only\n", pops[0]);

    // Pick a destination originated by a transit at the *second* PoP.
    let remote_transit = p
        .neighbors_at(&pops[1])
        .into_iter()
        .find(|(_, role)| *role == NeighborRole::Transit)
        .map(|(id, _)| id)
        .unwrap();
    let remote_node = p.neighbor_node(remote_transit).unwrap();
    let remote_asn = p.sim.node::<InternetAs>(remote_node).unwrap().asn();
    let target = p.sim.node::<InternetAs>(remote_node).unwrap().originated()[0];
    println!(
        "destination {target} is originated by {remote_asn} at {}",
        pops[1]
    );

    // The experiment sees multiple routes; one of them egresses at pop B.
    let routes = p
        .sim
        .node::<ExperimentNode>(exp.node)
        .unwrap()
        .routes_for(&target);
    println!("\nroutes visible at the experiment:");
    for r in &routes {
        println!(
            "  via {}  path [{}]",
            r.attrs.next_hop.unwrap(),
            r.attrs.as_path
        );
    }
    let via_remote = routes
        .iter()
        .find(|r| r.attrs.as_path.origin_as() == Some(remote_asn))
        .expect("route via the remote PoP's transit")
        .clone();
    println!(
        "\nsteering a packet via {} (the remote neighbor's LOCAL virtual next hop)",
        via_remote.attrs.next_hop.unwrap()
    );

    let src = match exp.lease.v4[0] {
        peering_repro::bgp::Prefix::V4 { addr, .. } => {
            std::net::Ipv4Addr::from(u32::from(addr) + 5)
        }
        _ => unreachable!(),
    };
    let dst = match target {
        peering_repro::bgp::Prefix::V4 { addr, .. } => {
            std::net::Ipv4Addr::from(u32::from(addr) + 1)
        }
        _ => unreachable!(),
    };
    p.sim
        .with_node_ctx::<ExperimentNode, _>(exp.node, |n, ctx| {
            assert!(n.send_via_route(ctx, &via_remote, src, dst, Bytes::from_static(b"fig5")));
        });
    p.run_for(SimDuration::from_secs(10));

    let nbr = p.sim.node::<InternetAs>(remote_node).unwrap();
    match nbr.received.iter().find(|t| t.packet.header.dst == dst) {
        Some(got) => println!(
            "delivered: {} -> {} (TTL {} after two vBGP hops)",
            got.packet.header.src, got.packet.header.dst, got.packet.header.ttl
        ),
        None => println!("packet NOT delivered — backbone forwarding failed"),
    }

    // Show the mux state that made it work.
    let router_a = p
        .sim
        .node::<VbgpRouter>(p.router_node(&pops[0]).unwrap())
        .unwrap();
    println!(
        "\npop {} mux: {} frames relayed over the backbone, {} FIB entries across {} per-neighbor tables",
        pops[0],
        router_a.mux.stats.get(MuxCounter::ToBackbone),
        router_a.mux.total_fib_entries(),
        p.neighbors_at(&pops[0]).len()
            + p.neighbors_at(&pops[1]).len()
            + p.neighbors_at(&pops[2]).len(),
    );
    let router_b = p
        .sim
        .node::<VbgpRouter>(p.router_node(&pops[1]).unwrap())
        .unwrap();
    println!(
        "pop {} mux: {} frames forwarded to local neighbors",
        pops[1],
        router_b.mux.stats.get(MuxCounter::ToNeighbor)
    );
}
