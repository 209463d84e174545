//! Standalone replays of the busiest layers on the seed's own inputs.
//!
//! Each replay builds one layer's public object outside the platform,
//! feeds it the exact inputs the end-to-end run gave that layer, and
//! times the layer's calls in batches (one timer pair per quantum), so
//! the per-call cost can be set against the end-to-end time per packet
//! or per churn event. The inputs for each batch are built before its
//! timer starts.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};

use peering_bench::fig6b_configs;
use peering_bgp::message::Message;
use peering_bgp::rib::PeerId;
use peering_bgp::types::{Afi, Prefix};
use peering_bgp::{FlatFib, PrefixTrie, Speaker};
use peering_netsim::{MacAddr, PortId, SimDuration, SimTime};
use peering_vbgp::enforcement::control::RateLedger;
use peering_vbgp::enforcement::data::{DataEnforcer, ExperimentDataPolicy};
use peering_vbgp::enforcement::pprog::PacketView;
use peering_vbgp::{ExperimentId, NeighborId, PopId, VbgpMux};
use peering_workload::serving::syn_block_program;
use peering_workload::{Flow, FlowProto};

use crate::dfz;
use crate::report::median;
use crate::serve::{self, ServeCfg};
use crate::trace::Tracer;

/// Simulated second the serve phase starts at (after set-up), for the
/// flood ledger's window arithmetic.
const SERVE_START_SECS: u64 = 60;
/// Churn quanta the FIB sync replay samples per address family.
const SYNC_SAMPLES: usize = 40;

fn ns_per(secs: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        secs * 1e9 / n as f64
    }
}

/// Per-packet costs of the serving layers, from standalone replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCosts {
    /// `VbgpMux::source_routable`, ns per call.
    pub urpf_ns: f64,
    /// `VbgpMux::deliver_to_experiment_batch`, ns per packet.
    pub deliver_ns: f64,
    /// Packets the delivery replay looked up.
    pub delivered: u64,
    /// `DataEnforcer::check_ingress_batch`, ns per packet.
    pub ingress_ns: f64,
    /// `PacketProgram::run`, ns per run.
    pub prog_ns: f64,
    /// Fuel per program run.
    pub prog_fuel: f64,
    /// Packets replayed.
    pub packets: u64,
}

/// Replay the serve schedule through a standalone mux (uRPF over the
/// client cones, delivery to the anycast /24), per-PoP data enforcers
/// sharing one flood ledger, and the SYN-block program on every packet
/// that reaches the program stage.
pub fn serve(cfg: &ServeCfg, inp: &serve::Inputs, anycast: Prefix, t: &mut Tracer) -> ServeCosts {
    let Prefix::V4 { addr, .. } = anycast else {
        unreachable!("serving leases are IPv4")
    };
    let anycast_base = u32::from(addr);
    let (nbr, exp) = (NeighborId(1), ExperimentId(1));
    let mut mux = VbgpMux::new();
    mux.add_local_neighbor(nbr, PortId(1), MacAddr::from_id(1), None);
    for &cone in &inp.cones {
        mux.install_route(nbr, cone);
    }
    mux.add_experiment(exp, PortId(2), MacAddr::from_id(2), None);
    mux.install_delivery_local(anycast, exp);

    let program = syn_block_program(inp.gen.config().syn_port);
    let ledger = Arc::new(Mutex::new(RateLedger::default()));
    let mut enforcers: Vec<DataEnforcer> = (0..cfg.pops)
        .map(|pop| {
            let mut e = DataEnforcer::new();
            e.set_experiment(
                exp,
                ExperimentDataPolicy {
                    allowed_sources: vec![anycast],
                    ingress_urpf: true,
                    ingress_program: Some(program.clone()),
                    flood: Some(inp.flood),
                    ..Default::default()
                },
            );
            e.set_flood_ledger(PopId(pop as u32), ledger.clone());
            e
        })
        .collect();

    // Fill the lazily built tables outside the timers, as the
    // end-to-end warm-up does.
    let first = inp.warmup[0].src;
    mux.source_routable(nbr, first);
    let mut delivered = Vec::new();
    mux.deliver_to_experiment_batch(&[Ipv4Addr::from(anycast_base)], Some(nbr), &mut delivered);

    let mut c = ServeCosts::default();
    let (mut urpf_s, mut deliver_s, mut ingress_s, mut prog_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut prog_runs, mut fuel) = (0u64, 0u64);
    let (mut flows, mut views, mut urpf_ok, mut verdicts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut dsts: Vec<Ipv4Addr> = Vec::new();
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    let mut batches: Vec<(usize, usize)> = Vec::new();
    for (q, idxs) in inp.by_quantum.iter().enumerate() {
        flows.clear();
        views.clear();
        bounds.clear();
        flows.extend(idxs.iter().map(|&i| inp.gen.flow(i as usize)));
        for f in &flows {
            let start = views.len();
            let view = view(f, anycast_base);
            views.extend(std::iter::repeat_n(view, f.packets as usize));
            bounds.push((start, views.len()));
        }
        c.packets += views.len() as u64;

        // Every packet reaches delivery on an undefended PoP.
        let mut allowed: Vec<bool> = vec![true; views.len()];
        if cfg.defended {
            urpf_ok.clear();
            let open = t.enter("replay.mux.source_routable");
            for v in &views {
                let IpAddr::V4(src) = v.src else {
                    unreachable!()
                };
                urpf_ok.push(mux.source_routable(nbr, src));
            }
            urpf_s += t.exit(open);

            let now = SimTime::ZERO + SimDuration::from_secs(SERVE_START_SECS + q as u64);
            let open = t.enter("replay.data.check_ingress_batch");
            for (f, &(a, b)) in flows.iter().zip(&bounds) {
                enforcers[f.home_pop as usize].check_ingress_batch(
                    exp,
                    &views[a..b],
                    Some(&urpf_ok[a..b]),
                    now,
                    &mut verdicts,
                );
                for (slot, v) in allowed[a..b].iter_mut().zip(&verdicts) {
                    *slot = v.is_allow();
                }
            }
            ingress_s += t.exit(open);

            let open = t.enter("replay.pprog.run");
            for (v, _) in views.iter().zip(&urpf_ok).filter(|(_, &ok)| ok) {
                fuel += u64::from(program.run(v).1);
                prog_runs += 1;
            }
            prog_s += t.exit(open);
        }

        // One delivery batch per flow, of the packets enforcement let by.
        dsts.clear();
        batches.clear();
        for &(a, b) in &bounds {
            let start = dsts.len();
            for (v, _) in views[a..b].iter().zip(&allowed[a..b]).filter(|(_, &ok)| ok) {
                let IpAddr::V4(dst) = v.dst else {
                    unreachable!()
                };
                dsts.push(dst);
            }
            batches.push((start, dsts.len()));
        }
        c.delivered += dsts.len() as u64;
        let open = t.enter("replay.mux.deliver_to_experiment_batch");
        for &(a, b) in &batches {
            mux.deliver_to_experiment_batch(&dsts[a..b], Some(nbr), &mut delivered);
        }
        deliver_s += t.exit(open);
    }
    if cfg.defended {
        c.urpf_ns = ns_per(urpf_s, c.packets);
        c.ingress_ns = ns_per(ingress_s, c.packets);
        c.prog_ns = ns_per(prog_s, prog_runs);
        c.prog_fuel = fuel as f64 / prog_runs.max(1) as f64;
    }
    c.deliver_ns = ns_per(deliver_s, c.delivered);
    c
}

/// The header fields the ingress pipeline sees for one packet of `f`:
/// a 20-byte IPv4 header plus the 8-byte payload.
fn view(f: &Flow, anycast_base: u32) -> PacketView {
    PacketView {
        src: IpAddr::V4(f.src),
        dst: IpAddr::V4(Ipv4Addr::from(anycast_base + f.dst_host as u32)),
        proto: match f.proto {
            FlowProto::Udp => 17,
            FlowProto::Tcp => 6,
        },
        src_port: f.src_port,
        dst_port: f.dst_port,
        len: 28,
        ttl: 64,
    }
}

/// FIB costs on the DFZ table.
#[derive(Debug, Clone, Copy, Default)]
pub struct FibCosts {
    /// First `FlatFib::sync` of the full table, ms.
    pub build_ms: f64,
    /// Median `sync` after one quantum's IPv4 churn, ms.
    pub sync_v4_ms: f64,
    /// Median `sync` after one quantum's IPv6 churn, ms.
    pub sync_v6_ms: f64,
    /// `FlatFib::memory_bytes` of the compiled table.
    pub bytes: f64,
}

/// Compile the DFZ table into a `FlatFib`, then re-sync it after each
/// churn quantum's changes to one address family at a time.
pub fn flatfib(inp: &dfz::Inputs, t: &mut Tracer) -> FibCosts {
    let mut trie: PrefixTrie<u32> = PrefixTrie::new();
    for (i, &p) in inp.prefixes.iter().enumerate() {
        trie.insert(p, 1 + (i % 64) as u32);
    }
    let mut fib = FlatFib::new();
    let mut c = FibCosts::default();
    let (_, build_s) = t.time("replay.flatfib.build", || fib.sync(&trie));
    c.build_ms = build_s * 1e3;
    c.bytes = fib.memory_bytes() as f64;
    for (afi, out) in [
        (Afi::Ipv4, &mut c.sync_v4_ms),
        (Afi::Ipv6, &mut c.sync_v6_ms),
    ] {
        let mut samples = Vec::new();
        for ops in &inp.quanta {
            if samples.len() == SYNC_SAMPLES {
                break;
            }
            let mut dirty = false;
            for op in ops.iter().filter(|op| op.prefix.afi() == afi) {
                if op.attrs.is_some() {
                    trie.insert(op.prefix, 1);
                } else {
                    trie.remove(&op.prefix);
                }
                fib.mark_dirty(&op.prefix);
                dirty = true;
            }
            if dirty {
                let (_, s) = t.time("replay.flatfib.sync", || fib.sync(&trie));
                samples.push(s * 1e3);
            }
        }
        *out = median(&samples);
    }
    c
}

/// Speaker costs in the Fig. 6b single-router configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeakerCosts {
    /// `Message::decode` alone, ns per NLRI.
    pub decode_ns: f64,
    /// `Speaker::on_bytes`, ns per NLRI fed.
    pub feed_ns: f64,
    /// `Speaker::on_bytes` on the churn schedule, ns per event.
    pub churn_ns: f64,
    /// `Message::encode` of the UPDATEs the router emitted, ns per NLRI.
    pub encode_ns: f64,
    /// UPDATEs emitted per NLRI fed.
    pub updates_out_per_nlri: f64,
    /// `Speaker::rib_memory_bytes` per Loc-RIB prefix after the feed.
    pub rib_bytes_per_route: f64,
}

/// Split a byte stream into its messages (untimed bookkeeping).
fn messages(dut: &Speaker, peer: PeerId, wire: &[u8]) -> Vec<Message> {
    let ctx = dut.codec_ctx(peer);
    let mut out = Vec::new();
    let mut at = 0;
    while at < wire.len() {
        let (msg, used) =
            Message::decode(&wire[at..], &ctx).expect("speaker emitted a valid message");
        out.push(msg);
        at += used;
    }
    out
}

fn nlri(msgs: &[Message]) -> u64 {
    msgs.iter()
        .map(|m| match m {
            Message::Update(u) => (u.announce.len() + u.withdrawn.len()) as u64,
            _ => 0,
        })
        .sum()
}

/// Feed the DFZ table, packed by a feeder's `originate_many`, into a
/// standalone router speaker with three ADD-PATH experiment sessions,
/// then replay the churn schedule into it.
pub fn speaker(inp: &dfz::Inputs, t: &mut Tracer) -> SpeakerCosts {
    let mut pair = fig6b_configs::single_router();
    let feeder = PeerId(0);
    let routes: Vec<_> = inp.feed.iter().flatten().cloned().collect();
    let wire: Vec<Vec<u8>> = pair.feeders[0]
        .originate_many(routes)
        .send
        .into_iter()
        .map(|(_, bytes)| bytes)
        .collect();
    let fed: u64 = wire
        .iter()
        .map(|w| nlri(&messages(&pair.dut, feeder, w)))
        .sum();

    let ctx = pair.dut.codec_ctx(feeder);
    let (_, decode_s) = t.time("replay.speaker.decode", || {
        for w in &wire {
            let mut at = 0;
            while at < w.len() {
                let (msg, used) = Message::decode(&w[at..], &ctx).expect("valid UPDATE");
                std::hint::black_box(msg);
                at += used;
            }
        }
    });

    let (outputs, feed_s) = t.time("replay.speaker.on_bytes", || {
        wire.iter()
            .map(|w| pair.dut.on_bytes(feeder, w))
            .collect::<Vec<_>>()
    });
    let rib_bytes = pair.dut.rib_memory_bytes();
    let rib_routes = pair.dut.loc_rib().prefix_count();

    // Re-encode what the router emitted, per session codec.
    let emitted: Vec<(PeerId, Vec<Message>)> = outputs
        .into_iter()
        .flat_map(|o| o.send)
        .map(|(peer, bytes)| (peer, messages(&pair.dut, peer, &bytes)))
        .collect();
    let updates_out = emitted
        .iter()
        .flat_map(|(_, m)| m)
        .filter(|m| matches!(m, Message::Update(_)))
        .count();
    let encoded_nlri: u64 = emitted.iter().map(|(_, m)| nlri(m)).sum();
    let ctxs: Vec<_> = emitted
        .iter()
        .map(|(peer, _)| pair.dut.codec_ctx(*peer))
        .collect();
    let (_, encode_s) = t.time("replay.speaker.encode", || {
        for ((_, msgs), ctx) in emitted.iter().zip(&ctxs) {
            for m in msgs {
                std::hint::black_box(m.encode(ctx));
            }
        }
    });

    // Churn: the feeder's per-event UPDATEs, then the router's cost.
    let mut churn_wire: Vec<Vec<u8>> = Vec::new();
    let mut events = 0u64;
    for op in inp.quanta.iter().flatten() {
        let out = match &op.attrs {
            Some(attrs) => pair.feeders[0].originate(op.prefix, attrs.clone()),
            None => pair.feeders[0].withdraw_origin(op.prefix),
        };
        churn_wire.extend(out.send.into_iter().map(|(_, bytes)| bytes));
        events += 1;
    }
    let (_, churn_s) = t.time("replay.speaker.churn", || {
        for w in &churn_wire {
            std::hint::black_box(pair.dut.on_bytes(feeder, w));
        }
    });

    SpeakerCosts {
        decode_ns: ns_per(decode_s, fed),
        feed_ns: ns_per(feed_s, fed),
        churn_ns: ns_per(churn_s, events),
        encode_ns: ns_per(encode_s, encoded_nlri),
        updates_out_per_nlri: updates_out as f64 / fed.max(1) as f64,
        rib_bytes_per_route: rib_bytes as f64 / rib_routes.max(1) as f64,
    }
}
