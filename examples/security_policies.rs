//! The §4.7 security-policy walkthrough: what the enforcement engines
//! block, what the capability framework unlocks, and the published rate
//! limits — exercised exactly the way the paper's own test methodology
//! does ("we deploy two (emulated) experiments … one that does not require
//! the capability and one that does. We execute both experiments twice,
//! with and without the capability.").
//!
//! Run with: `cargo run --example security_policies`

use peering_repro::bgp::attrs::{AsPath, PathAttributes, UnknownAttr};
use peering_repro::bgp::message::UpdateMsg;
use peering_repro::bgp::types::{prefix, Asn, Community};
use peering_repro::netsim::SimTime;
use peering_repro::obs::CounterKey;
use peering_repro::vbgp::enforcement::control::{
    ControlEnforcer, ExperimentPolicy, UPDATES_PER_DAY_LIMIT,
};
use peering_repro::vbgp::enforcement::data::{DataEnforcer, DataVerdict, ExperimentDataPolicy};
use peering_repro::vbgp::enforcement::pprog::{Field, Insn, PacketProgram, PacketView};
use peering_repro::vbgp::{
    CapabilityKind, CapabilitySet, ControlCommunities, ExperimentId, Grant, PopId,
};

const EXP: ExperimentId = ExperimentId(1);

fn announce(prefix_s: &str, asns: &[u32]) -> UpdateMsg {
    let attrs = PathAttributes {
        as_path: AsPath::from_asns(&asns.iter().map(|&a| Asn(a)).collect::<Vec<_>>()),
        next_hop: Some("100.125.1.2".parse().unwrap()),
        ..Default::default()
    };
    UpdateMsg::announce(vec![(prefix(prefix_s), None)], attrs)
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ALLOWED"
    } else {
        "BLOCKED"
    }
}

/// Run `pkts` from the experiment through the data-plane engine as one
/// batch, in order.
fn egress(d: &mut DataEnforcer, pkts: &[PacketView]) -> Vec<DataVerdict> {
    let mut verdicts = Vec::new();
    d.check_egress_batch(EXP, pkts, None, SimTime::ZERO, &mut verdicts);
    verdicts
}

fn check(e: &mut ControlEnforcer, label: &str, update: &UpdateMsg) {
    let (out, rejections) = e.check_update(EXP, update, SimTime::ZERO);
    let passed = !out.announce.is_empty() || !out.withdrawn.is_empty();
    print!("  {:<52} {}", label, verdict(passed));
    if let Some((_, reason)) = rejections.first() {
        print!("  ({reason:?})");
    }
    println!();
}

fn main() {
    println!("== PEERING security policies (paper §4.7) ==\n");
    let cc = ControlCommunities::new(47065);

    let basic_policy = ExperimentPolicy {
        allocations: vec![prefix("184.164.224.0/23")],
        asns: vec![Asn(61574)],
        caps: CapabilitySet::basic(),
    };

    // --- control plane, default (least-privilege) posture ---
    println!("control plane — default capabilities:");
    let mut e = ControlEnforcer::standalone(PopId(0), cc);
    e.set_experiment(EXP, basic_policy.clone());
    check(
        &mut e,
        "announce allocated 184.164.224.0/24",
        &announce("184.164.224.0/24", &[61574]),
    );
    check(
        &mut e,
        "hijack 8.8.8.0/24",
        &announce("8.8.8.0/24", &[61574]),
    );
    check(
        &mut e,
        "originate from unauthorized AS666",
        &announce("184.164.224.0/24", &[666]),
    );
    check(
        &mut e,
        "poison AS3356 without the capability",
        &announce("184.164.224.0/24", &[61574, 3356, 61574]),
    );
    let mut with_comm = announce("184.164.224.0/24", &[61574]);
    with_comm
        .attrs
        .as_mut()
        .unwrap()
        .add_community(Community::new(3356, 70));
    check(&mut e, "attach 3356:70 without the capability", &with_comm);
    let mut with_attr = announce("184.164.224.0/24", &[61574]);
    with_attr.attrs.as_mut().unwrap().unknown.push(UnknownAttr {
        flags: 0xC0,
        type_code: 99,
        value: vec![1],
    });
    check(&mut e, "unknown transitive attribute", &with_attr);
    let mut steering = announce("184.164.224.0/24", &[61574]);
    steering
        .attrs
        .as_mut()
        .unwrap()
        .add_community(cc.announce_to(peering_repro::vbgp::NeighborId(3)));
    check(
        &mut e,
        "steering community 47065:3 (always free)",
        &steering,
    );

    // --- capability framework: same announcements, capabilities granted ---
    println!("\ncontrol plane — with granted capabilities:");
    let mut caps = CapabilitySet::basic();
    caps.grant(Grant::limited(CapabilityKind::AsPathPoisoning, 2));
    caps.grant(Grant::limited(CapabilityKind::AttachCommunities, 4));
    caps.grant(Grant::unlimited(CapabilityKind::TransitiveAttributes));
    let mut e = ControlEnforcer::standalone(PopId(0), cc);
    e.set_experiment(
        EXP,
        ExperimentPolicy {
            caps,
            ..basic_policy.clone()
        },
    );
    check(
        &mut e,
        "poison AS3356 with poisoning<=2",
        &announce("184.164.224.0/24", &[61574, 3356, 61574]),
    );
    check(
        &mut e,
        "poison 3 ASes (exceeds the grant)",
        &announce("184.164.224.0/24", &[61574, 1, 2, 3, 61574]),
    );
    check(&mut e, "attach 3356:70 with communities<=4", &with_comm);
    check(
        &mut e,
        "unknown transitive attribute with the capability",
        &with_attr,
    );
    check(
        &mut e,
        "hijack 8.8.8.0/24 (no capability unlocks this)",
        &announce("8.8.8.0/24", &[61574]),
    );

    // --- rate limiting ---
    println!("\nupdate-rate policing ({UPDATES_PER_DAY_LIMIT} updates/day per prefix and PoP):");
    let mut e = ControlEnforcer::standalone(PopId(0), cc);
    e.set_experiment(EXP, basic_policy.clone());
    let u = announce("184.164.224.0/24", &[61574]);
    let mut allowed = 0;
    for _ in 0..200 {
        let (out, _) = e.check_update(EXP, &u, SimTime::ZERO);
        if !out.announce.is_empty() {
            allowed += 1;
        }
    }
    println!(
        "  200 announcements in one day -> {allowed} allowed, {} rate-limited",
        200 - allowed
    );
    let tomorrow = SimTime::from_nanos(86_401 * 1_000_000_000);
    let (out, _) = e.check_update(EXP, &u, tomorrow);
    println!(
        "  next day -> budget reset: {}",
        verdict(!out.announce.is_empty())
    );

    // --- fail closed ---
    println!("\nfail-closed behaviour:");
    let mut e = ControlEnforcer::standalone(PopId(0), cc);
    e.set_experiment(EXP, basic_policy.clone());
    e.set_fail_closed(true);
    check(
        &mut e,
        "any announcement while the engine is overloaded",
        &u,
    );

    // --- data plane ---
    println!("\ndata plane — eBPF-style packet policies:");
    let mut d = DataEnforcer::new();
    d.set_experiment(
        EXP,
        ExperimentDataPolicy {
            allowed_sources: vec![prefix("184.164.224.0/23")],
            rate: Some((1_000_000, 100_000)),
            ..Default::default()
        },
    );
    let good = PacketView::basic("184.164.224.9".parse().unwrap(), 1000);
    let spoofed = PacketView::basic("9.9.9.9".parse().unwrap(), 1000);
    let v = egress(&mut d, &[good, spoofed]);
    println!(
        "  packet from allocated source                        {}",
        verdict(v[0].is_allow())
    );
    println!(
        "  spoofed source 9.9.9.9                              {}",
        verdict(v[1].is_allow())
    );
    let blocked = egress(&mut d, &[good; 200])
        .iter()
        .filter(|v| !v.is_allow())
        .count();
    println!(
        "  200 kB burst against a 100 kB bucket                {} packets shaped",
        blocked
    );

    // --- sandboxed packet programs ---
    println!("\npacket programs — the sandboxed per-packet VM:");
    let mut d = DataEnforcer::new();
    d.set_experiment(
        EXP,
        ExperimentDataPolicy {
            allowed_sources: vec![prefix("184.164.224.0/23")],
            // Block everything except UDP to port 53; cap TTL at 32.
            program: Some(PacketProgram::new(vec![
                Insn::Ld(0, Field::Proto),
                Insn::JneImm(0, 17, 7), // not UDP -> Block
                Insn::Ld(1, Field::DstPort),
                Insn::JneImm(1, 53, 7), // not DNS -> Block
                Insn::LdImm(2, 32),
                Insn::SetTtl(2),
                Insn::Allow,
                Insn::Block,
            ])),
            ..Default::default()
        },
    );
    let dns = PacketView {
        proto: 17,
        dst_port: 53,
        ..good
    };
    let v = egress(&mut d, &[dns, good]);
    println!(
        "  UDP/53 from allocated source                        {}",
        verdict(v[0].is_allow())
    );
    println!(
        "  non-UDP traffic against the same program            {}",
        verdict(v[1].is_allow())
    );
    // A program that loops forever burns its fuel and fails closed.
    let mut d = DataEnforcer::new();
    d.set_experiment(
        EXP,
        ExperimentDataPolicy {
            allowed_sources: vec![prefix("184.164.224.0/23")],
            program: Some(PacketProgram::new(vec![Insn::Jmp(0)])),
            ..Default::default()
        },
    );
    let v = egress(&mut d, &[good]);
    println!(
        "  infinite loop (fuel exhausted, fails closed)        {}",
        verdict(v[0].is_allow())
    );
    let fired: std::collections::BTreeMap<&str, u64> = d
        .blocked
        .iter()
        .filter(|&(_, n)| n > 0)
        .map(|(reason, n)| (reason.name(), n))
        .collect();
    println!("\nstats: {fired:?}");
}
