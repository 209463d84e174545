//! Differential tests for the compiled data plane.
//!
//! The [`FlatFib`] is only correct if it is *indistinguishable* from the
//! binary trie it was compiled from, at every point of a churning
//! lifetime: after the initial build, after incremental patches, after
//! threshold-triggered full rebuilds, and with chunk spill/reclaim on the
//! IPv4 /25–/32 path. These tests drive seeded random install/remove
//! churn through both structures and compare longest-prefix-match answers
//! on random IPv4 probe addresses after every sync, with IPv6 prefixes
//! mixed into the churn (the FIB compiles only IPv4, so they must change
//! no answer). A second battery drives the same kind of churn through a
//! whole [`VbgpMux`] and checks its lookups (FIB + flow cache, whole runs
//! and runs of one) against a reference trie the test keeps.

use std::net::{Ipv4Addr, Ipv6Addr};

use peering_repro::bgp::flatfib::{FlatFib, CHURN_REBUILD_THRESHOLD};
use peering_repro::bgp::trie::PrefixTrie;
use peering_repro::bgp::types::Prefix;
use peering_repro::netsim::{MacAddr, PortId};
use peering_repro::vbgp::{Delivery, Egress, ExperimentId, MuxCounter, NeighborId, VbgpMux};

/// SplitMix64 — deterministic churn and probe generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random /8–/32 inside 10.0.0.0/12, so the level-1, level-2 and
    /// level-3 chunks under one root slot get exercised, with addresses
    /// drawn from a narrow pool so prefixes nest and collide.
    fn v4_prefix(&mut self) -> Prefix {
        let len = 8 + (self.next() % 25) as u8; // 8..=32
        let addr = 0x0a00_0000 | (self.next() as u32 & 0x000f_ffff);
        let masked = if len == 0 {
            0
        } else {
            addr & (u32::MAX << (32 - u32::from(len)))
        };
        Prefix::v4(Ipv4Addr::from(masked), len).unwrap()
    }

    /// A random /0–/32 inside 8.0.0.0/6 (four root slots), biased toward
    /// /8 and longer so most syncs patch, with each address byte drawn from
    /// a few values at both ends of its range so prefixes nest, collide and
    /// sit on chunk boundaries.
    fn wide_v4_prefix(&mut self) -> Prefix {
        let len = if self.next().is_multiple_of(8) {
            (self.next() % 8) as u8
        } else {
            8 + (self.next() % 25) as u8
        };
        let addr = 0x0800_0000 | (self.next() as u32 & 0x03c1_c3c3);
        let masked = if len == 0 {
            0
        } else {
            addr & (u32::MAX << (32 - u32::from(len)))
        };
        Prefix::v4(Ipv4Addr::from(masked), len).unwrap()
    }

    /// A random IPv6 prefix from a narrow pool (nesting, byte-aligned and
    /// unaligned lengths, host routes).
    fn v6_prefix(&mut self) -> Prefix {
        let len = 16 + (self.next() % 113) as u8; // 16..=128
        let addr = (0x2001_0db8u128 << 96) | (self.next() as u128 & 0xffff_ffff_ffff);
        let masked = if len == 128 {
            addr
        } else {
            addr & (u128::MAX << (128 - u32::from(len)))
        };
        Prefix::v6(Ipv6Addr::from(masked), len).unwrap()
    }

    /// A probe address near the churn pool (so most probes are covered).
    fn v4_addr(&mut self) -> Ipv4Addr {
        Ipv4Addr::from(0x0a00_0000 | (self.next() as u32 & 0x001f_ffff))
    }
}

fn assert_fib_matches(trie: &PrefixTrie<u32>, fib: &FlatFib, addr: Ipv4Addr, ctx: &str) {
    let want = trie.lookup(addr.into()).map(|(p, v)| (p, *v));
    assert_eq!(fib.lookup(addr), want, "{ctx}: diverged on {addr}");
    assert_eq!(
        fib.covers(addr),
        want.is_some(),
        "{ctx}: covers() on {addr}"
    );
}

/// The core differential property: under random install/remove churn with
/// syncs at random points, the compiled FIB answers every IPv4 lookup
/// exactly like the trie, on the incremental-patch and rebuild paths, and
/// IPv6 churn in the same trie changes none of those answers.
#[test]
fn flat_fib_matches_trie_under_random_churn() {
    for seed in 0..4u64 {
        let mut g = Gen(seed);
        let mut trie: PrefixTrie<u32> = PrefixTrie::new();
        let mut fib = FlatFib::new();
        let mut live: Vec<Prefix> = Vec::new();
        for round in 0..100 {
            // A burst of operations between syncs; size straddles the
            // rebuild threshold so both patch and rebuild paths run.
            let burst = 1 + (g.next() as usize % (CHURN_REBUILD_THRESHOLD + 8));
            for _ in 0..burst {
                let p = match g.next() % 4 {
                    0 => g.v6_prefix(),
                    _ => g.v4_prefix(),
                };
                let remove = !live.is_empty() && g.next().is_multiple_of(3);
                if remove {
                    let victim = live.swap_remove(g.next() as usize % live.len());
                    trie.remove(&victim);
                    fib.mark_dirty(&victim);
                } else {
                    trie.insert(p, g.next() as u32);
                    fib.mark_dirty(&p);
                    if !live.contains(&p) {
                        live.push(p);
                    }
                }
            }
            fib.sync(&trie);
            let ctx = format!("seed {seed} round {round}");
            for _ in 0..64 {
                assert_fib_matches(&trie, &fib, g.v4_addr(), &ctx);
            }
            // Default routes and family boundaries are the classic flat-FIB
            // off-by-ones; probe them every round.
            assert_fib_matches(&trie, &fib, Ipv4Addr::UNSPECIFIED, &ctx);
            assert_fib_matches(&trie, &fib, Ipv4Addr::BROADCAST, &ctx);
        }
    }
}

/// `addr` and the first and last addresses of each chunk on its path: its
/// /8, its /16 and its /24.
fn stride_probes(addr: Ipv4Addr) -> [Ipv4Addr; 6] {
    let a = u32::from(addr);
    [
        a,
        a & 0xff00_0000,
        a | 0x00ff_ffff,
        a & 0xffff_0000,
        a & 0xffff_ff00,
        a | 0xff,
    ]
    .map(Ipv4Addr::from)
}

/// The random-churn property over four root slots and every prefix length:
/// rebuilds for prefixes shorter than /8, patches at the /8, /16 and /24
/// levels, and chunks folding back across /8 boundaries, probed at random
/// addresses and at every stride boundary on their paths.
#[test]
fn flat_fib_matches_trie_at_every_stride_level() {
    for seed in 0..4u64 {
        let mut g = Gen(0x5_7de0 + seed);
        let mut trie: PrefixTrie<u32> = PrefixTrie::new();
        let mut fib = FlatFib::new();
        let mut live: Vec<Prefix> = Vec::new();
        for round in 0..200 {
            let burst = if g.next().is_multiple_of(8) {
                CHURN_REBUILD_THRESHOLD + 1 + g.next() as usize % 8
            } else {
                1 + g.next() as usize % 8
            };
            for _ in 0..burst {
                if !live.is_empty() && g.next().is_multiple_of(2) {
                    let victim = live.swap_remove(g.next() as usize % live.len());
                    trie.remove(&victim);
                    fib.mark_dirty(&victim);
                } else {
                    let p = g.wide_v4_prefix();
                    trie.insert(p, g.next() as u32);
                    fib.mark_dirty(&p);
                    if !live.contains(&p) {
                        live.push(p);
                    }
                }
            }
            fib.sync(&trie);
            let ctx = format!("seed {seed} round {round}");
            for _ in 0..64 {
                let addr = Ipv4Addr::from(0x0800_0000 | (g.next() as u32 & 0x03ff_ffff));
                for probe in stride_probes(addr) {
                    assert_fib_matches(&trie, &fib, probe, &ctx);
                }
            }
            for p in &live {
                let Prefix::V4 { addr, .. } = *p else {
                    unreachable!("only IPv4 in this churn");
                };
                for probe in stride_probes(addr) {
                    assert_fib_matches(&trie, &fib, probe, &ctx);
                }
            }
            assert_fib_matches(&trie, &fib, Ipv4Addr::UNSPECIFIED, &ctx);
            assert_fib_matches(&trie, &fib, Ipv4Addr::BROADCAST, &ctx);
        }
    }
}

/// A prefix that flaps at level 1, 2 or 3 under a /8 is patched in and
/// out, and every chunk its patches made folds back: the FIB returns to
/// its size after each flap.
#[test]
fn flaps_under_a_slash_8_leave_the_fib_its_size() {
    for flap in ["10.16.0.0/12", "10.1.16.0/20", "10.1.2.16/28"] {
        let flap: Prefix = flap.parse().unwrap();
        let mut trie: PrefixTrie<u32> = PrefixTrie::new();
        trie.insert("10.0.0.0/8".parse().unwrap(), 1);
        trie.insert("11.0.0.0/8".parse().unwrap(), 2);
        let mut fib = FlatFib::new();
        fib.sync(&trie);
        let bytes = fib.memory_bytes();
        let Prefix::V4 { addr, .. } = flap else {
            unreachable!("flaps are IPv4");
        };
        for i in 0..4u32 {
            trie.insert(flap, 10 + i);
            fib.mark_dirty(&flap);
            fib.sync(&trie);
            assert!(fib.memory_bytes() > bytes, "{flap} needs chunks");
            for probe in stride_probes(addr) {
                assert_fib_matches(&trie, &fib, probe, &format!("{flap} in"));
            }
            trie.remove(&flap);
            fib.mark_dirty(&flap);
            fib.sync(&trie);
            assert_eq!(fib.memory_bytes(), bytes, "{flap} flap {i} left chunks");
            for probe in stride_probes(addr) {
                assert_fib_matches(&trie, &fib, probe, &format!("{flap} out"));
            }
        }
        assert_eq!(fib.sync_totals().0, 1, "{flap}: every flap was a patch");
    }
}

/// A sync with no marked changes must not bump the generation (flow caches
/// key validity on it), and a sync after changes must.
#[test]
fn generation_bumps_exactly_on_change() {
    let mut g = Gen(7);
    let mut trie: PrefixTrie<u32> = PrefixTrie::new();
    let mut fib = FlatFib::new();
    let p = g.v4_prefix();
    trie.insert(p, 1);
    fib.mark_dirty(&p);
    assert!(fib.sync(&trie));
    let gen1 = fib.generation();
    assert!(!fib.sync(&trie));
    assert_eq!(fib.generation(), gen1);
    trie.remove(&p);
    fib.mark_dirty(&p);
    assert!(fib.sync(&trie));
    assert!(fib.generation() > gen1);
}

/// Drive churn through a whole mux and check its lookups against a
/// reference trie the test keeps equal to the live prefix sets: egress and
/// uRPF on a neighbor table, over whole probe runs and runs of one, and
/// delivery on the delivery table, where a local delivery outranks a
/// remote one. The flow caches are deliberately re-probed across churn
/// rounds so stale-entry invalidation is what's under test.
#[test]
fn mux_fast_path_matches_slow_path_under_churn() {
    const NBR: NeighborId = NeighborId(9);
    const EXP: ExperimentId = ExperimentId(4);
    let nbr_mac = MacAddr([2, 0, 0, 0, 0, 9]);
    let exp_mac = MacAddr([2, 0, 0, 0, 0, 4]);
    let remote_mac = MacAddr([2, 0, 0, 0, 0, 7]);
    let global: Ipv4Addr = "127.127.0.7".parse().unwrap();
    let mut g = Gen(0x5eed);
    let mut mux = VbgpMux::new();
    let vnh = mux.add_local_neighbor(NBR, PortId(1), nbr_mac, None);
    mux.add_experiment(EXP, PortId(2), exp_mac, None);
    mux.note_resolution(global, remote_mac);
    // Reference refcounts: per route prefix, and per delivery prefix
    // (local, remote).
    let mut routes: PrefixTrie<u32> = PrefixTrie::new();
    let mut deliveries: PrefixTrie<(u32, u32)> = PrefixTrie::new();
    let mut live_routes: Vec<Prefix> = Vec::new();
    let mut live_deliveries: Vec<(Prefix, Delivery)> = Vec::new();
    let (mut egress, mut delivered) = (Vec::new(), Vec::new());
    for round in 0..60 {
        for _ in 0..(1 + g.next() as usize % 40) {
            let p = g.v4_prefix();
            if !live_routes.is_empty() && g.next().is_multiple_of(3) {
                let victim = live_routes.swap_remove(g.next() as usize % live_routes.len());
                mux.remove_route(NBR, victim);
                let count = routes.get_mut(&victim).unwrap();
                *count -= 1;
                if *count == 0 {
                    routes.remove(&victim);
                }
            } else {
                mux.install_route(NBR, p);
                live_routes.push(p);
                let count = routes.get(&p).copied().unwrap_or(0);
                routes.insert(p, count + 1);
            }
            let p = g.v4_prefix();
            if !live_deliveries.is_empty() && g.next().is_multiple_of(3) {
                let i = g.next() as usize % live_deliveries.len();
                let (victim, d) = live_deliveries.swap_remove(i);
                mux.remove_delivery(victim, &d);
                let (local, remote) = deliveries.get_mut(&victim).unwrap();
                match d {
                    Delivery::Local(_) => *local -= 1,
                    Delivery::Remote { .. } => *remote -= 1,
                }
                if (*local, *remote) == (0, 0) {
                    deliveries.remove(&victim);
                }
            } else {
                let (local, remote) = deliveries.get(&p).copied().unwrap_or((0, 0));
                let d = if g.next().is_multiple_of(2) {
                    deliveries.insert(p, (local + 1, remote));
                    mux.install_delivery_local(p, EXP)
                } else {
                    deliveries.insert(p, (local, remote + 1));
                    mux.install_delivery_remote(p, PortId(3), global)
                };
                live_deliveries.push((p, d));
            }
        }
        let probes: Vec<Ipv4Addr> = (0..128).map(|_| g.v4_addr()).collect();

        // Egress and uRPF against the reference neighbor table.
        let want: Vec<Option<Egress>> = probes
            .iter()
            .map(|&ip| {
                routes.lookup(ip.into()).map(|_| Egress::Frame {
                    port: PortId(1),
                    dst_mac: nbr_mac,
                })
            })
            .collect();
        mux.egress_via_neighbor_batch(NBR, &probes, &mut egress);
        assert_eq!(egress, want, "round {round}: egress over the whole run");
        for (i, &ip) in probes.iter().enumerate() {
            mux.egress_via_neighbor_batch(NBR, &[ip], &mut egress);
            assert_eq!(egress, [want[i]], "round {round}: egress run of one, {ip}");
            assert_eq!(
                mux.source_routable(NBR, ip),
                want[i].is_some(),
                "round {round}: uRPF on {ip}"
            );
        }

        // Delivery against the reference delivery table.
        let want: Vec<_> = probes
            .iter()
            .map(|&ip| match deliveries.lookup(ip.into()) {
                None => None,
                Some((_, &(local, _))) if local > 0 => Some((
                    Egress::Frame {
                        port: PortId(2),
                        dst_mac: exp_mac,
                    },
                    Some(vnh.mac),
                    EXP,
                )),
                Some(_) => Some((
                    Egress::Frame {
                        port: PortId(3),
                        dst_mac: remote_mac,
                    },
                    None,
                    ExperimentId(u32::MAX),
                )),
            })
            .collect();
        mux.deliver_to_experiment_batch(&probes, Some(NBR), &mut delivered);
        assert_eq!(
            delivered, want,
            "round {round}: delivery over the whole run"
        );
        for (i, &ip) in probes.iter().enumerate() {
            mux.deliver_to_experiment_batch(&[ip], Some(NBR), &mut delivered);
            assert_eq!(delivered, [want[i]], "round {round}: delivery of one, {ip}");
        }

        // The oracle's own cross-check must also stay clean mid-churn.
        assert_eq!(mux.verify_fast_path(), Vec::<String>::new());
    }
    assert!(
        mux.stats.get(MuxCounter::FlowCacheHits) > 0,
        "churn test never exercised the flow cache"
    );
    assert!(
        mux.stats.get(MuxCounter::ToExperiment) > 0 && mux.stats.get(MuxCounter::ToBackbone) > 0,
        "churn test never delivered both locally and remotely"
    );
}

/// The observability layer sees exactly what the data plane did: cache
/// hits and misses, FIB patches vs rebuilds, and flow-cache invalidations
/// all land in the registry snapshot, and the sync/invalidation events
/// land in the journal.
#[test]
fn mux_observability_tracks_the_fast_path() {
    use peering_repro::obs::Obs;
    const NBR: NeighborId = NeighborId(3);
    let mut g = Gen(0x0b5);
    let obs = Obs::new();
    let mut mux = VbgpMux::new();
    mux.set_obs(obs.clone());
    mux.add_local_neighbor(NBR, PortId(1), MacAddr([2, 0, 0, 0, 0, 3]), None);
    for _ in 0..200 {
        let p = g.v4_prefix();
        mux.install_route(NBR, p);
    }
    let probes: Vec<Ipv4Addr> = (0..64).map(|_| g.v4_addr()).collect();
    // First pass compiles the FIB and misses the cold flow cache; the
    // second pass over the same stream hits it.
    let mut out = Vec::new();
    for _ in 0..2 {
        mux.egress_via_neighbor_batch(NBR, &probes, &mut out);
    }
    // A post-traffic route change invalidates the flow cache on the next
    // lookup (generation bump), via the incremental patch path.
    let extra = g.v4_prefix();
    mux.install_route(NBR, extra);
    mux.egress_via_neighbor_batch(NBR, &probes[..1], &mut out);

    let snap = obs.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(
        counter("mux.flow_cache_misses") > 0,
        "no cache misses counted"
    );
    assert!(counter("mux.flow_cache_hits") > 0, "no cache hits counted");
    assert_eq!(
        counter("mux.fib_rebuilds") + counter("mux.fib_patch_rounds"),
        counter("mux.flow_invalidations"),
        "every FIB sync must invalidate the flow caches exactly once"
    );
    assert!(
        counter("mux.flow_invalidations") >= 2,
        "initial compile + post-churn patch both sync"
    );
    assert_eq!(
        counter("mux.egress_pkts{nbr=3}"),
        2 * probes.len() as u64 + 1,
        "per-neighbor egress packet count"
    );
    assert!(snap.gauge("mux.table_routes{nbr=3}").unwrap_or(0) > 0);
    let tail = obs.journal_tail(16);
    assert!(
        tail.contains("fib-sync"),
        "journal lacks fib-sync events:\n{tail}"
    );
    assert!(
        tail.contains("flow-cache-invalidate"),
        "journal lacks invalidation events:\n{tail}"
    );
    // Snapshots of the same state render identically (the differential
    // artifact the bench bin writes is reproducible).
    assert_eq!(snap.to_text(), obs.snapshot().to_text());
}
