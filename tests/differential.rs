//! Differential tests for update batching.
//!
//! The same scripted churn is driven through a hub speaker twice — the
//! reference delivers one message per `on_bytes` call, so every flush
//! carries one delta (per-delta emission); the batched run delivers each
//! round's wire traffic as one concatenated `on_bytes` burst, which the
//! speaker coalesces into one flush. The *observable* BGP state — the hub's
//! Adj-RIB-Out toward every receiver and what each receiver actually
//! installed — must be byte-for-byte identical, and in both runs every
//! receiver's Adj-RIB-In must equal the hub's Adj-RIB-Out toward it. Only
//! the number of UPDATE messages on the wire may differ, and given bursty
//! churn it must be strictly smaller in the batched run.

use std::collections::{HashMap, VecDeque};
use std::net::IpAddr;

use peering_repro::bgp::attrs::{AsPath, PathAttributes};
use peering_repro::bgp::speaker::{
    PeerConfig, PeerCounter, Speaker, SpeakerConfig, SpeakerEvent, SpeakerOutput,
};
use peering_repro::bgp::types::{Asn, Community, PathId, Prefix, RouterId};
use peering_repro::bgp::PeerId;

/// SplitMix64 — deterministic churn script generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// In-memory network over the public `Speaker` API. `burst` controls the
/// delivery discipline: off = one `on_bytes` call per wire message (the
/// reference), on = all bytes queued toward an endpoint within a round are
/// concatenated into a single `on_bytes` call, exercising the coalesced
/// flush.
struct Net {
    speakers: Vec<Speaker>,
    links: HashMap<(usize, u32), (usize, u32)>,
    queue: VecDeque<(usize, PeerId, Vec<u8>)>,
    transports_up: Vec<(usize, u32)>,
    burst: bool,
    /// Without bursts: how many (receiver, prefix) entries of the hub's
    /// Adj-RIB-Out the messages delivered to the hub changed.
    hub_deltas: u64,
}

impl Net {
    fn new(speakers: Vec<Speaker>, burst: bool) -> Self {
        Net {
            speakers,
            links: HashMap::new(),
            queue: VecDeque::new(),
            transports_up: Vec::new(),
            burst,
            hub_deltas: 0,
        }
    }

    fn link(&mut self, a: usize, a_pid: u32, b: usize, b_pid: u32) {
        self.links.insert((a, a_pid), (b, b_pid));
        self.links.insert((b, b_pid), (a, a_pid));
    }

    fn process(&mut self, idx: usize, out: SpeakerOutput) {
        for (pid, bytes) in out.send {
            let (di, dpid) = self.links[&(idx, pid.0)];
            self.queue.push_back((di, PeerId(dpid), bytes));
        }
        for ev in out.events {
            if let SpeakerEvent::TransportOpen(pid) = ev {
                let (di, dpid) = self.links[&(idx, pid.0)];
                if !self.transports_up.contains(&(idx, pid.0)) {
                    self.transports_up.push((idx, pid.0));
                    self.transports_up.push((di, dpid));
                    let o = self.speakers[idx].on_transport_up(pid);
                    self.process(idx, o);
                    let o = self.speakers[di].on_transport_up(PeerId(dpid));
                    self.process(di, o);
                }
            }
        }
    }

    /// Deliver queued bytes until the network is quiet.
    fn run(&mut self) {
        let mut steps = 0;
        loop {
            if self.queue.is_empty() {
                return;
            }
            if self.burst {
                // Concatenate this round's traffic per endpoint; a fresh
                // queue collects whatever the deliveries trigger.
                let round: Vec<_> = std::mem::take(&mut self.queue).into();
                let mut merged: Vec<((usize, PeerId), Vec<u8>)> = Vec::new();
                for (di, pid, bytes) in round {
                    match merged.iter_mut().find(|(k, _)| *k == (di, pid)) {
                        Some((_, buf)) => buf.extend_from_slice(&bytes),
                        None => merged.push(((di, pid), bytes)),
                    }
                }
                for ((di, pid), bytes) in merged {
                    let out = self.speakers[di].on_bytes(pid, &bytes);
                    self.process(di, out);
                }
            } else {
                let (di, pid, bytes) = self.queue.pop_front().unwrap();
                let before = (di == HUB).then(|| hub_rib_out(&self.speakers[HUB]));
                let out = self.speakers[di].on_bytes(pid, &bytes);
                if let Some(before) = before {
                    self.hub_deltas += deltas(&before, &hub_rib_out(&self.speakers[HUB]));
                }
                self.process(di, out);
            }
            steps += 1;
            assert!(steps < 100_000, "net livelock");
        }
    }

    fn start(&mut self, idx: usize, pid: u32) {
        let out = self.speakers[idx].start_peer(PeerId(pid));
        self.process(idx, out);
        self.run();
    }

    /// Queue an originate WITHOUT running the network — rounds batch ops.
    fn originate(&mut self, idx: usize, p: Prefix, attrs: PathAttributes) {
        let out = self.speakers[idx].originate(p, attrs);
        self.process(idx, out);
    }

    fn withdraw(&mut self, idx: usize, p: Prefix) {
        let out = self.speakers[idx].withdraw_origin(p);
        self.process(idx, out);
    }
}

const SRC: usize = 0;
const HUB: usize = 1;
const RCV1: usize = 2;
const RCV2: usize = 3;

fn addr(n: u32) -> IpAddr {
    format!("10.9.{}.{}", n / 256, n % 256).parse().unwrap()
}

/// src(AS100) — hub(AS200) — {rcv1(AS300), rcv2(AS400)}; the hub→receiver
/// sessions run ADD-PATH, mirroring the platform's experiment fan-out.
fn hub_net(burst: bool) -> Net {
    let mk = |asn: u32, id: u32| {
        Speaker::new(SpeakerConfig {
            asn: Asn(asn),
            router_id: RouterId(id),
        })
    };
    let mut net = Net::new(vec![mk(100, 1), mk(200, 2), mk(300, 3), mk(400, 4)], burst);
    net.link(SRC, 0, HUB, 0);
    net.link(HUB, 1, RCV1, 0);
    net.link(HUB, 2, RCV2, 0);
    net.speakers[SRC].add_peer(PeerId(0), PeerConfig::ebgp(Asn(200), addr(2), addr(1)));
    net.speakers[HUB].add_peer(
        PeerId(0),
        PeerConfig::ebgp(Asn(100), addr(1), addr(2)).with_passive(),
    );
    net.speakers[HUB].add_peer(
        PeerId(1),
        PeerConfig::ebgp(Asn(300), addr(3), addr(2)).with_all_paths(),
    );
    net.speakers[HUB].add_peer(
        PeerId(2),
        PeerConfig::ebgp(Asn(400), addr(4), addr(2)).with_all_paths(),
    );
    net.speakers[RCV1].add_peer(
        PeerId(0),
        PeerConfig::ebgp(Asn(200), addr(2), addr(3))
            .with_passive()
            .with_all_paths(),
    );
    net.speakers[RCV2].add_peer(
        PeerId(0),
        PeerConfig::ebgp(Asn(200), addr(2), addr(4))
            .with_passive()
            .with_all_paths(),
    );
    net.start(HUB, 0);
    net.start(RCV1, 0);
    net.start(RCV2, 0);
    net.start(SRC, 0);
    net.start(HUB, 1);
    net.start(HUB, 2);
    assert!(net.speakers[SRC].is_established(PeerId(0)));
    assert!(net.speakers[HUB].is_established(PeerId(1)));
    assert!(net.speakers[HUB].is_established(PeerId(2)));
    net
}

fn churn_prefix(i: u64) -> Prefix {
    peering_repro::bgp::types::prefix(&format!("184.164.{}.0/24", 224 + (i % 16)))
}

fn churn_attrs(variant: u64) -> PathAttributes {
    PathAttributes {
        as_path: AsPath::from_asns(&[Asn(100), Asn(65000 + (variant % 4) as u32)]),
        next_hop: Some(addr(1)),
        communities: if variant.is_multiple_of(3) {
            vec![Community::new(100, variant as u16 % 8)]
        } else {
            vec![]
        },
        ..Default::default()
    }
}

/// Drive the deterministic churn script; returns total rounds executed.
/// Each round queues several originate/withdraw ops at the source (bursty
/// by construction: repeated updates to the same prefix and shared
/// attribute variants) and then lets the network quiesce.
fn run_churn(net: &mut Net, seed: u64) -> usize {
    let mut gen = Gen(seed);
    let rounds = 40;
    for _ in 0..rounds {
        let ops = 1 + gen.below(6);
        for _ in 0..ops {
            let i = gen.below(16);
            match gen.below(4) {
                0 => net.withdraw(SRC, churn_prefix(i)),
                _ => {
                    let variant = gen.below(4);
                    net.originate(SRC, churn_prefix(i), churn_attrs(variant));
                }
            }
        }
        net.run();
    }
    rounds
}

/// One Adj-RIB as `(prefix, [(path-id, attrs)])`, sorted.
type Rib = Vec<(Prefix, Vec<(PathId, PathAttributes)>)>;

/// The hub's Adj-RIB-Out toward each receiver.
fn hub_rib_out(hub: &Speaker) -> [Rib; 2] {
    [1, 2].map(|pid| hub.adj_rib_out_snapshot(PeerId(pid)))
}

/// How many (receiver, prefix) entries differ between two snapshots.
fn deltas(a: &[Rib; 2], b: &[Rib; 2]) -> u64 {
    let entry = |rib: &Rib, p: &Prefix| rib.iter().find(|(q, _)| q == p).cloned();
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let mut prefixes: Vec<Prefix> = x.iter().chain(y).map(|(p, _)| *p).collect();
            prefixes.sort();
            prefixes.dedup();
            prefixes
                .iter()
                .filter(|p| entry(x, p) != entry(y, p))
                .count() as u64
        })
        .sum()
}

/// Observable state of one run: the hub's Adj-RIB-Out toward each
/// receiver, and each receiver's Adj-RIB-In (what actually landed).
type Snapshot = Vec<Rib>;

fn observe(net: &Net) -> Snapshot {
    let mut snap: Snapshot = hub_rib_out(&net.speakers[HUB]).into();
    for rcv in [RCV1, RCV2] {
        let mut routes: Rib = Vec::new();
        let rib = net.speakers[rcv].adj_rib_in(PeerId(0)).unwrap();
        for route in rib.iter() {
            match routes.iter_mut().find(|(p, _)| *p == route.prefix) {
                Some((_, paths)) => paths.push((route.path_id, (*route.attrs).clone())),
                None => routes.push((route.prefix, vec![(route.path_id, (*route.attrs).clone())])),
            }
        }
        routes.sort_by_key(|(p, _)| *p);
        for (_, paths) in &mut routes {
            paths.sort_by_key(|(pid, _)| *pid);
        }
        snap.push(routes);
    }
    snap
}

/// The Adj-RIB oracle: every receiver holds exactly what the hub's
/// Adj-RIB-Out says it was sent.
fn assert_receivers_match_hub(snap: &Snapshot, ctx: &str) {
    assert_eq!(
        snap[0], snap[2],
        "{ctx}: rcv1's Adj-RIB-In != hub's Adj-RIB-Out"
    );
    assert_eq!(
        snap[1], snap[3],
        "{ctx}: rcv2's Adj-RIB-In != hub's Adj-RIB-Out"
    );
}

fn hub_updates_out(net: &Net) -> u64 {
    [1u32, 2u32]
        .iter()
        .map(|&pid| {
            net.speakers[HUB]
                .peer_stats(PeerId(pid))
                .unwrap()
                .get(PeerCounter::UpdatesOut)
        })
        .sum()
}

#[test]
fn batched_and_unbatched_runs_are_observationally_identical() {
    for seed in [1u64, 7, 42] {
        let mut baseline = hub_net(false);
        run_churn(&mut baseline, seed);
        let mut batched = hub_net(true);
        run_churn(&mut batched, seed);

        let want = observe(&baseline);
        assert_receivers_match_hub(&want, &format!("seed {seed}, message at a time"));
        assert_receivers_match_hub(&observe(&batched), &format!("seed {seed}, bursts"));
        assert_eq!(
            want,
            observe(&batched),
            "seed {seed}: Adj-RIB-Out / receiver state must match exactly"
        );
        let (base_msgs, batched_msgs) = (hub_updates_out(&baseline), hub_updates_out(&batched));
        assert!(
            batched_msgs < base_msgs,
            "seed {seed}: bursty churn must coalesce ({batched_msgs} vs {base_msgs})"
        );
    }
}

/// Without bursts every `on_bytes` call carries one message, so the
/// coalescing flush degenerates to per-delta emission: the hub sends
/// exactly one UPDATE per Adj-RIB-Out entry a delivered message changed,
/// and the receivers still hold what the hub says it sent.
#[test]
fn batching_without_bursts_matches_per_delta_emission() {
    let mut net = hub_net(false);
    let before = hub_updates_out(&net);
    net.hub_deltas = 0;
    run_churn(&mut net, 99);
    assert_receivers_match_hub(&observe(&net), "seed 99");
    assert!(
        net.hub_deltas > 0,
        "the churn never changed the hub's export"
    );
    assert_eq!(hub_updates_out(&net) - before, net.hub_deltas);
}

/// N repeated updates to one prefix arriving in a single burst must emit
/// exactly one UPDATE toward each receiver — the dirty set collapses the
/// intermediate states.
#[test]
fn burst_of_rewrites_to_one_prefix_emits_one_update() {
    let mut net = hub_net(true);
    let before = hub_updates_out(&net);
    for variant in 0..4 {
        net.originate(SRC, churn_prefix(0), churn_attrs(variant));
    }
    net.run();
    let emitted = hub_updates_out(&net) - before;
    assert_eq!(
        emitted, 2,
        "one coalesced UPDATE per receiver, got {emitted}"
    );
    // And the surviving state is the LAST write.
    let snap = observe(&net);
    let want = churn_attrs(3);
    for routes in &snap[2..] {
        assert_eq!(routes.len(), 1);
        let got = &routes[0].1[0].1;
        assert_eq!(got.communities, want.communities);
    }
}
