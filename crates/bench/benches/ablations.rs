//! Ablation benchmarks for the design decisions DESIGN.md calls out:
//!
//! * **Enforcement decoupling (§3.3)** — what does the interposed
//!   control-plane engine add per update, and the data-plane engine per
//!   packet? The paper's architecture bets both are cheap.
//! * **ADD-PATH fan-out (§3.2.1)** — the marginal export cost per attached
//!   experiment.
//! * **Per-neighbor tables (§3.2.2)** — classification + longest-prefix
//!   lookup through the mux versus a plain single-table lookup.

use peering_bench::{synth_prefix, timing, SpeakerPair};
use peering_bgp::policy::Policy;
use peering_bgp::speaker::PeerConfig;
use peering_bgp::types::Asn;
use peering_netsim::{MacAddr, PortId, SimTime};
use peering_vbgp::enforcement::control::{ControlEnforcer, ExperimentPolicy};
use peering_vbgp::enforcement::data::{DataEnforcer, ExperimentDataPolicy};
use peering_vbgp::enforcement::pprog::PacketView;
use peering_vbgp::ids::{ExperimentId, NeighborId, PopId};
use peering_vbgp::mux::VbgpMux;
use peering_vbgp::{CapabilitySet, ControlCommunities};

/// Control-plane enforcement: per-update evaluation cost.
fn control_enforcement() {
    let mut e = ControlEnforcer::standalone(PopId(0), ControlCommunities::new(47065));
    e.set_experiment(
        ExperimentId(1),
        ExperimentPolicy {
            allocations: vec!["184.164.224.0/19".parse().unwrap()],
            asns: vec![Asn(61574)],
            caps: CapabilitySet::basic(),
        },
    );
    let accepted = peering_bgp::message::UpdateMsg::announce(
        vec![("184.164.224.0/24".parse().unwrap(), None)],
        peering_bgp::attrs::PathAttributes {
            as_path: peering_bgp::attrs::AsPath::from_asns(&[Asn(61574)]),
            next_hop: Some("100.125.1.2".parse().unwrap()),
            ..Default::default()
        },
    );
    let rejected = peering_bgp::message::UpdateMsg::announce(
        vec![("8.8.8.0/24".parse().unwrap(), None)],
        accepted.attrs.clone().unwrap(),
    );
    timing::bench(
        "ablation/control_enforcement/compliant_update",
        10_000,
        || e.check_update(ExperimentId(1), &accepted, SimTime::ZERO),
    );
    timing::bench("ablation/control_enforcement/hijack_update", 10_000, || {
        e.check_update(ExperimentId(1), &rejected, SimTime::ZERO)
    });
}

/// Data-plane enforcement: per-packet verdict cost (the eBPF stand-in).
fn data_enforcement() {
    let mut e = DataEnforcer::new();
    e.set_experiment(
        ExperimentId(1),
        ExperimentDataPolicy {
            allowed_sources: vec!["184.164.224.0/19".parse().unwrap()],
            rate: Some((u64::MAX / 2, u64::MAX / 2)),
            ..Default::default()
        },
    );
    let pkt = PacketView::basic("184.164.224.9".parse().unwrap(), 1500);
    let mut verdicts = Vec::with_capacity(1);
    timing::bench(
        "ablation/data_enforcement/per_packet_verdict",
        100_000,
        || {
            e.check_egress_batch(
                ExperimentId(1),
                std::slice::from_ref(&pkt),
                Some(NeighborId(1)),
                SimTime::ZERO,
                &mut verdicts,
            );
            verdicts[0]
        },
    );
}

/// ADD-PATH fan-out: per-update cost with 0, 2, 8 attached experiments.
fn addpath_fanout() {
    for &n_exp in &[0usize, 2, 8] {
        timing::bench_batched(
            &format!("ablation/addpath_fanout/{n_exp} (500 updates)"),
            10,
            || {
                let exports = (0..n_exp)
                    .map(|i| {
                        PeerConfig::ebgp(
                            Asn(61574 + i as u32),
                            format!("100.125.{}.2", i + 1).parse().unwrap(),
                            format!("100.125.{}.1", i + 1).parse().unwrap(),
                        )
                        .with_all_paths()
                        .with_next_hop_unchanged()
                    })
                    .collect();
                let pair = SpeakerPair::establish(Policy::accept_all(), exports);
                let updates = pair.encoded_updates(500);
                (pair, updates)
            },
            |(mut pair, updates)| {
                for u in &updates {
                    pair.feed(u);
                }
                pair
            },
        );
    }
}

/// The mux data path: classify + per-neighbor LPM + egress resolution.
fn mux_forwarding() {
    let mut mux = VbgpMux::new();
    let vnh = mux.add_local_neighbor(NeighborId(1), PortId(0), MacAddr::from_id(0x11), None);
    for i in 0..100_000u64 {
        mux.install_route(NeighborId(1), synth_prefix(i));
    }
    let dst: std::net::Ipv4Addr = "10.1.2.3".parse().unwrap();
    mux.install_route(NeighborId(1), "10.0.0.0/8".parse().unwrap());
    let mut egress = Vec::with_capacity(1);
    timing::bench(
        "ablation/mux/classify_and_forward_100k_fib",
        100_000,
        || {
            let target = mux.classify(vnh.mac).unwrap();
            match target {
                peering_vbgp::MuxTarget::NeighborTable(n) => {
                    mux.egress_via_neighbor_batch(n, &[dst], &mut egress);
                    egress[0]
                }
                _ => None,
            }
        },
    );
}

fn main() {
    control_enforcement();
    data_enforcement();
    addpath_fanout();
    mux_forwarding();
}
