//! Property-based tests on the core invariants: wire-codec roundtrips,
//! trie correctness against a reference model, policy-engine totality,
//! and enforcement conservation.
//!
//! The generator is a seeded SplitMix64 stream (the registry is
//! unreachable offline, so no proptest): every case is reproducible from
//! its printed seed, and each test sweeps a fixed number of cases.

use std::net::{Ipv4Addr, Ipv6Addr};

use peering_repro::bgp::attrs::{AsPath, AsPathSegment, Origin, PathAttributes, UnknownAttr};
use peering_repro::bgp::message::{Message, SessionCodecCtx, UpdateMsg};
use peering_repro::bgp::trie::PrefixTrie;
use peering_repro::bgp::types::{Asn, Community, LargeCommunity, Prefix};

/// SplitMix64: the deterministic case generator.
pub struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn u128(&mut self) -> u128 {
        ((self.u64() as u128) << 64) | self.u64() as u128
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        ((self.u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }
}

/// Run `cases` seeded instances of `body`, printing the failing seed.
fn check(name: &str, cases: u64, mut body: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let seed = 0xA5A5_0000u64 ^ case;
        let mut g = Gen::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut g)));
        if let Err(payload) = result {
            eprintln!("property `{name}` failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

fn gen_prefix_v4(g: &mut Gen) -> Prefix {
    let len = g.below(33) as u8;
    let mask = if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    };
    Prefix::v4(Ipv4Addr::from(g.u32() & mask), len).unwrap()
}

fn gen_prefix_v6(g: &mut Gen) -> Prefix {
    let len = g.below(129) as u8;
    let mask = if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    };
    Prefix::v6(Ipv6Addr::from(g.u128() & mask), len).unwrap()
}

fn gen_prefix(g: &mut Gen) -> Prefix {
    if g.bool() {
        gen_prefix_v4(g)
    } else {
        gen_prefix_v6(g)
    }
}

fn gen_prefixes_v4(g: &mut Gen, lo: u64, hi: u64) -> Vec<Prefix> {
    (0..g.range(lo, hi)).map(|_| gen_prefix_v4(g)).collect()
}

fn gen_as_path(g: &mut Gen) -> AsPath {
    let segments = (0..g.below(4))
        .map(|_| {
            if g.bool() {
                AsPathSegment::Sequence((0..g.range(1, 8)).map(|_| Asn(g.u32())).collect())
            } else {
                AsPathSegment::Set((0..g.range(1, 5)).map(|_| Asn(g.u32())).collect())
            }
        })
        .collect();
    AsPath { segments }
}

fn gen_attrs(g: &mut Gen) -> PathAttributes {
    let origin = match g.below(3) {
        0 => Origin::Igp,
        1 => Origin::Egp,
        _ => Origin::Incomplete,
    };
    let mut communities: Vec<Community> = (0..g.below(6)).map(|_| Community(g.u32())).collect();
    communities.dedup();
    PathAttributes {
        origin,
        as_path: gen_as_path(g),
        next_hop: Some(Ipv4Addr::from(g.u32()).into()),
        med: g.opt(|g| g.u32()),
        local_pref: g.opt(|g| g.u32()),
        atomic_aggregate: g.bool(),
        aggregator: g.opt(|g| (Asn(g.u32()), Ipv4Addr::from(g.u32()))),
        communities,
        large_communities: (0..g.below(3))
            .map(|_| LargeCommunity {
                global: g.u32(),
                local1: g.u32(),
                local2: g.u32(),
            })
            .collect(),
        unknown: if g.bool() {
            vec![UnknownAttr {
                flags: 0xC0,
                type_code: 201,
                value: (0..g.below(16)).map(|_| g.u64() as u8).collect(),
            }]
        } else {
            Vec::new()
        },
    }
}

/// Any UPDATE survives a wire encode/decode roundtrip, with and without
/// ADD-PATH negotiated.
#[test]
fn update_roundtrip() {
    check("update_roundtrip", 192, |g| {
        let announce = gen_prefixes_v4(g, 0, 5);
        let withdraw = gen_prefixes_v4(g, 0, 5);
        let attrs = gen_attrs(g);
        let add_path = g.bool();
        let path_ids: Vec<u32> = (0..5).map(|_| g.u32()).collect();
        let ctx = if add_path {
            SessionCodecCtx::add_path_both()
        } else {
            SessionCodecCtx::default()
        };
        let pid = |i: usize| {
            if add_path {
                Some(path_ids[i % 5])
            } else {
                None
            }
        };
        let msg = UpdateMsg {
            withdrawn: withdraw
                .iter()
                .enumerate()
                .map(|(i, p)| (*p, pid(i)))
                .collect(),
            attrs: if announce.is_empty() {
                None
            } else {
                Some(attrs)
            },
            announce: announce
                .iter()
                .enumerate()
                .map(|(i, p)| (*p, pid(i)))
                .collect(),
        };
        let wire = Message::Update(msg.clone()).encode(&ctx);
        let (decoded, used) = Message::decode(&wire, &ctx).unwrap();
        assert_eq!(used, wire.len());
        match decoded {
            Message::Update(u) => {
                // Announce order is preserved; withdrawn order too (v4 only here).
                assert_eq!(u.announce, msg.announce);
                assert_eq!(u.withdrawn, msg.withdrawn);
                assert_eq!(u.attrs, msg.attrs);
            }
            other => panic!("decoded {other:?}"),
        }
    });
}

/// IPv6 NLRI also roundtrips, through the MP attributes.
#[test]
fn update_roundtrip_v6() {
    check("update_roundtrip_v6", 192, |g| {
        let announce: Vec<Prefix> = (0..g.range(1, 4)).map(|_| gen_prefix_v6(g)).collect();
        let mut attrs = gen_attrs(g);
        attrs.next_hop = Some("2001:db8::1".parse().unwrap());
        let ctx = SessionCodecCtx::default();
        let msg = UpdateMsg::announce(announce.iter().map(|p| (*p, None)).collect(), attrs);
        let wire = Message::Update(msg.clone()).encode(&ctx);
        let (decoded, _) = Message::decode(&wire, &ctx).unwrap();
        match decoded {
            Message::Update(u) => assert_eq!(u.announce, msg.announce),
            other => panic!("decoded {other:?}"),
        }
    });
}

/// Truncating a message never panics and never yields a phantom parse of
/// the full message.
#[test]
fn truncated_messages_never_panic() {
    check("truncated_messages_never_panic", 192, |g| {
        let announce: Vec<Prefix> = (0..g.range(1, 4)).map(|_| gen_prefix_v4(g)).collect();
        let attrs = gen_attrs(g);
        let ctx = SessionCodecCtx::default();
        let msg = UpdateMsg::announce(announce.iter().map(|p| (*p, None)).collect(), attrs);
        let wire = Message::Update(msg).encode(&ctx);
        let cut = g.below(wire.len() as u64) as usize;
        let _ = Message::decode(&wire[..cut], &ctx); // must not panic
    });
}

/// Flipping any single bit of an encoded message never panics the decoder
/// (it may still parse — BGP has no checksum; TCP provides integrity in
/// the real stack).
#[test]
fn corrupted_messages_never_panic() {
    check("corrupted_messages_never_panic", 192, |g| {
        let announce: Vec<Prefix> = (0..g.range(1, 4)).map(|_| gen_prefix_v4(g)).collect();
        let attrs = gen_attrs(g);
        let ctx = SessionCodecCtx::default();
        let msg = UpdateMsg::announce(announce.iter().map(|p| (*p, None)).collect(), attrs);
        let mut wire = Message::Update(msg).encode(&ctx);
        let pos = g.below(wire.len() as u64) as usize;
        wire[pos] ^= 1 << g.below(8);
        let _ = Message::decode(&wire, &ctx); // must not panic
    });
}

/// Any OPEN survives a wire encode/decode roundtrip, including unknown
/// capabilities preserved verbatim.
#[test]
fn open_roundtrip() {
    use peering_repro::bgp::message::{Capability, OpenMsg};
    use peering_repro::bgp::types::RouterId;
    check("open_roundtrip", 256, |g| {
        let mut msg = OpenMsg::standard(
            Asn(g.u32()),
            // Hold time 0 (keepalives off) or ≥ 3 per RFC 4271.
            if g.bool() { 0 } else { g.range(3, 400) as u16 },
            RouterId(g.u32()),
            g.bool(),
        );
        if g.bool() {
            msg.capabilities.push(Capability::Unknown {
                code: 200,
                value: (0..g.below(12)).map(|_| g.u64() as u8).collect(),
            });
        }
        let ctx = SessionCodecCtx::default();
        let wire = Message::Open(msg.clone()).encode(&ctx);
        let (decoded, used) = Message::decode(&wire, &ctx).unwrap();
        assert_eq!(used, wire.len());
        match decoded {
            Message::Open(o) => assert_eq!(o, msg),
            other => panic!("decoded {other:?}"),
        }
    });
}

/// Any NOTIFICATION survives a wire encode/decode roundtrip, with
/// arbitrary diagnostic data.
#[test]
fn notification_roundtrip() {
    use peering_repro::bgp::message::NotificationMsg;
    check("notification_roundtrip", 256, |g| {
        let msg = NotificationMsg {
            code: g.u64() as u8,
            subcode: g.u64() as u8,
            data: (0..g.below(24)).map(|_| g.u64() as u8).collect(),
        };
        let ctx = SessionCodecCtx::default();
        let wire = Message::Notification(msg.clone()).encode(&ctx);
        let (decoded, used) = Message::decode(&wire, &ctx).unwrap();
        assert_eq!(used, wire.len());
        match decoded {
            Message::Notification(n) => assert_eq!(n, msg),
            other => panic!("decoded {other:?}"),
        }
    });
}

/// Truncating or bit-flipping OPENs and NOTIFICATIONs errors cleanly —
/// the decoder must never panic on a damaged control message.
#[test]
fn corrupted_open_and_notification_never_panic() {
    use peering_repro::bgp::message::{NotificationMsg, OpenMsg};
    use peering_repro::bgp::types::RouterId;
    check("corrupted_open_and_notification_never_panic", 256, |g| {
        let ctx = SessionCodecCtx::default();
        let wire = if g.bool() {
            let msg = OpenMsg::standard(Asn(g.u32()), 90, RouterId(g.u32()), g.bool());
            Message::Open(msg).encode(&ctx)
        } else {
            let msg = NotificationMsg {
                code: g.u64() as u8,
                subcode: g.u64() as u8,
                data: (0..g.below(24)).map(|_| g.u64() as u8).collect(),
            };
            Message::Notification(msg).encode(&ctx)
        };
        if g.bool() {
            let cut = g.below(wire.len() as u64) as usize;
            let _ = Message::decode(&wire[..cut], &ctx); // must not panic
        } else {
            let mut wire = wire;
            let pos = g.below(wire.len() as u64) as usize;
            wire[pos] ^= 1 << g.below(8);
            let _ = Message::decode(&wire, &ctx); // must not panic
        }
    });
}

/// The prefix trie agrees with a naive reference model on inserts,
/// removals, exact gets and longest-prefix lookups.
#[test]
fn trie_matches_reference_model() {
    check("trie_matches_reference_model", 128, |g| {
        let ops: Vec<(Prefix, bool, u32)> = (0..g.range(1, 60))
            .map(|_| (gen_prefix_v4(g), g.bool(), g.u32()))
            .collect();
        let lookups: Vec<u32> = (0..20).map(|_| g.u32()).collect();
        let mut trie: PrefixTrie<u32> = PrefixTrie::new();
        let mut model: std::collections::HashMap<Prefix, u32> = std::collections::HashMap::new();
        for (p, insert, v) in &ops {
            if *insert {
                assert_eq!(trie.insert(*p, *v), model.insert(*p, *v));
            } else {
                assert_eq!(trie.remove(p), model.remove(p));
            }
            assert_eq!(trie.len(), model.len());
        }
        for (p, _, _) in &ops {
            assert_eq!(trie.get(p), model.get(p));
        }
        for addr_bits in lookups {
            let addr = Ipv4Addr::from(addr_bits);
            let expected = model
                .iter()
                .filter(|(p, _)| p.contains_addr(addr.into()))
                .max_by_key(|(p, _)| p.len());
            let got = trie.lookup(addr.into());
            match (expected, got) {
                (None, None) => {}
                (Some((ep, ev)), Some((gp, gv))) => {
                    assert_eq!(*ep, gp);
                    assert_eq!(ev, gv);
                }
                (e, g) => panic!("model {:?} trie {:?}", e, g.map(|(p, _)| p)),
            }
        }
    });
}

/// Prefix display/parse roundtrips.
#[test]
fn prefix_display_parse_roundtrip() {
    check("prefix_display_parse_roundtrip", 256, |g| {
        let p = gen_prefix(g);
        let s = p.to_string();
        assert_eq!(s.parse::<Prefix>().unwrap(), p);
    });
}

/// AS-path length and containment are stable under prepending.
#[test]
fn prepend_invariants() {
    check("prepend_invariants", 256, |g| {
        let path = gen_as_path(g);
        let asn = g.u32();
        let n = g.below(10) as usize;
        let mut p = path.clone();
        let before = p.path_len();
        p.prepend(Asn(asn), n);
        assert_eq!(p.path_len(), before + n);
        if n > 0 {
            assert!(p.contains(Asn(asn)));
            assert_eq!(p.first_as(), Some(Asn(asn)));
        }
    });
}

/// The control enforcer conserves NLRI: every announced prefix is either
/// in the compliant output or in the rejection list, never dropped
/// silently.
#[test]
fn enforcement_conserves_nlri() {
    use peering_repro::netsim::SimTime;
    use peering_repro::vbgp::enforcement::control::ExperimentPolicy;
    use peering_repro::vbgp::{
        CapabilitySet, ControlCommunities, ControlEnforcer, ExperimentId, PopId,
    };
    check("enforcement_conserves_nlri", 128, |g| {
        let prefixes = gen_prefixes_v4(g, 1, 8);
        let asns: Vec<Asn> = (0..g.range(1, 4)).map(|_| Asn(g.u32())).collect();
        let mut e = ControlEnforcer::standalone(PopId(0), ControlCommunities::new(47065));
        e.set_experiment(
            ExperimentId(1),
            ExperimentPolicy {
                allocations: vec!["184.164.224.0/19".parse().unwrap()],
                asns: vec![Asn(61574)],
                caps: CapabilitySet::basic(),
            },
        );
        let attrs = PathAttributes {
            as_path: AsPath::from_asns(&asns),
            next_hop: Some("100.125.1.2".parse().unwrap()),
            ..Default::default()
        };
        let update = UpdateMsg::announce(prefixes.iter().map(|p| (*p, None)).collect(), attrs);
        let (out, rejections) = e.check_update(ExperimentId(1), &update, SimTime::ZERO);
        assert_eq!(out.announce.len() + rejections.len(), prefixes.len());
    });
}

mod controller_props {
    use super::*;
    use peering_repro::platform::controller::NetworkController;
    use peering_repro::platform::netconf::{Address, Interface, NetState, RouteEntry, Rule};

    fn gen_interface(g: &mut Gen) -> Interface {
        let up = g.bool();
        let mut addresses: Vec<Address> = (0..g.below(4))
            .map(|_| Address {
                addr: Ipv4Addr::new(10, 0, g.below(4) as u8, g.range(1, 250) as u8),
                prefix_len: 24,
            })
            .collect();
        addresses.sort();
        addresses.dedup();
        Interface { up, addresses }
    }

    fn gen_netstate(g: &mut Gen) -> NetState {
        let mut st = NetState::new();
        for _ in 0..g.below(4) {
            let n = g.below(5);
            st.interfaces.insert(format!("tap{n}"), gen_interface(g));
        }
        for _ in 0..g.below(5) {
            let (a, b, table) = (g.below(8) as u8, g.below(4) as u8, g.range(100, 104) as u32);
            let r = RouteEntry {
                dst: format!("192.168.{}.0/24", a * 4 + b).parse().unwrap(),
                via: Ipv4Addr::new(127, 65, 0, b + 1),
                table,
            };
            if !st.routes.contains(&r) {
                st.routes.push(r);
            }
        }
        for _ in 0..g.below(4) {
            let r = Rule {
                selector: g.range(1, 6) as u32,
                table: g.range(100, 104) as u32,
            };
            if !st.rules.contains(&r) {
                st.rules.push(r);
            }
        }
        st
    }

    fn structurally_equal(a: &NetState, b: &NetState) -> bool {
        let sorted = |v: &Vec<RouteEntry>| {
            let mut v: Vec<String> = v.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        let sorted_rules = |v: &Vec<Rule>| {
            let mut v = v.clone();
            v.sort();
            v
        };
        a.interfaces == b.interfaces
            && sorted(&a.routes) == sorted(&b.routes)
            && sorted_rules(&a.rules) == sorted_rules(&b.rules)
    }

    /// The transactional controller always converges any actual state to
    /// any intended state, and a second apply is a no-op.
    #[test]
    fn controller_converges_any_pair() {
        check("controller_converges_any_pair", 96, |g| {
            let intended = gen_netstate(g);
            let mut actual = gen_netstate(g);
            let mut ctl = NetworkController::new();
            ctl.apply(&intended, &mut actual).unwrap();
            assert!(structurally_equal(&intended, &actual));
            let report = ctl.apply(&intended, &mut actual).unwrap();
            assert!(
                !report.changed,
                "steady state must be a no-op: {:?}",
                report.ops
            );
        });
    }

    /// A mid-transaction failure always rolls back to the exact prior
    /// structure, and the retry succeeds.
    #[test]
    fn controller_rolls_back_on_any_fault() {
        check("controller_rolls_back_on_any_fault", 96, |g| {
            let intended = gen_netstate(g);
            let mut actual = gen_netstate(g);
            let fail_at = g.below(12) as u32;
            let plan_len = NetworkController::plan(&intended, &actual).len() as u32;
            if plan_len == 0 {
                return; // nothing to fail; case vacuous
            }
            let snapshot = actual.clone();
            actual.fail_after = Some(fail_at % plan_len);
            let mut ctl = NetworkController::new();
            let result = ctl.apply(&intended, &mut actual);
            assert!(result.is_err());
            assert!(
                structurally_equal(&snapshot, &actual),
                "rollback must restore"
            );
            // Retry without the fault.
            actual.fail_after = None;
            ctl.apply(&intended, &mut actual).unwrap();
            assert!(structurally_equal(&intended, &actual));
        });
    }
}

mod decision_props {
    use super::*;
    use peering_repro::bgp::decision::compare;
    use peering_repro::bgp::rib::{PeerId, Route, RouteSource};
    use peering_repro::bgp::types::RouterId;
    use std::cmp::Ordering;

    fn gen_route(g: &mut Gen) -> Route {
        let path_len = g.below(5) as usize;
        let seed = g.u32();
        let router_id = g.range(1, 6) as u32;
        let asns: Vec<Asn> = (0..path_len)
            .map(|k| Asn(100 + ((seed as usize + k) % 7) as u32))
            .collect();
        // Mostly plain sequences, but also empty paths (locally originated)
        // and AS_SET-headed paths (aggregates) — the shapes that force the
        // RFC 4271 §9.1.2.2 "skip MED when neighbor AS is ambiguous" rule,
        // the classic source of decision-process intransitivity.
        let as_path = match g.below(6) {
            0 => AsPath {
                segments: Vec::new(),
            },
            1 => {
                let set: Vec<Asn> = (0..g.range(1, 4))
                    .map(|_| Asn(100 + g.below(7) as u32))
                    .collect();
                let mut segments = vec![AsPathSegment::Set(set)];
                if !asns.is_empty() {
                    segments.push(AsPathSegment::Sequence(asns.clone()));
                }
                AsPath { segments }
            }
            _ => AsPath::from_asns(&asns),
        };
        Route {
            prefix: "192.168.0.0/24".parse().unwrap(),
            path_id: g.below(3) as u32,
            attrs: PathAttributes {
                origin: Origin::from_u8(g.below(3) as u8).unwrap(),
                as_path,
                next_hop: Some(Ipv4Addr::new(10, 0, 0, 1).into()),
                med: g.opt(|g| g.below(100) as u32),
                local_pref: g.opt(|g| g.below(300) as u32),
                ..Default::default()
            }
            .into(),
            source: RouteSource::Peer {
                peer: PeerId(router_id),
                ebgp: g.bool(),
                router_id: RouterId(router_id),
                addr: Ipv4Addr::new(10, 0, 0, router_id as u8).into(),
            },
            stamp: g.below(10),
        }
    }

    /// The decision process is antisymmetric and transitive — a genuine
    /// total order — so sorting candidate lists is deterministic and never
    /// panics. (MED's same-neighbor-only comparison is a classic source of
    /// intransitivity in real BGP; the implementation must order its steps
    /// so that cannot happen.)
    #[test]
    fn decision_is_a_total_order() {
        check("decision_is_a_total_order", 512, |g| {
            let (a, b, c) = (gen_route(g), gen_route(g), gen_route(g));
            // Antisymmetry.
            assert_eq!(compare(&a, &b), compare(&b, &a).reverse());
            // Transitivity over this triple.
            if compare(&a, &b) != Ordering::Greater && compare(&b, &c) != Ordering::Greater {
                assert_ne!(compare(&a, &c), Ordering::Greater);
            }
        });
    }

    /// Sorting any candidate list yields a pairwise-consistent order: no
    /// earlier element compares Greater than a later one. With AS_SET and
    /// empty paths in the mix this would fail if MED were compared across
    /// ambiguous neighbor ASes.
    #[test]
    fn sort_is_pairwise_consistent() {
        check("sort_is_pairwise_consistent", 256, |g| {
            let mut routes: Vec<Route> = (0..g.range(2, 9)).map(|_| gen_route(g)).collect();
            peering_repro::bgp::decision::sort_candidates(&mut routes);
            for i in 0..routes.len() {
                for j in i + 1..routes.len() {
                    assert_ne!(
                        compare(&routes[i], &routes[j]),
                        Ordering::Greater,
                        "sorted[{i}] ranks below sorted[{j}]"
                    );
                }
            }
        });
    }

    /// best_path agrees with sorting.
    #[test]
    fn best_is_sort_head() {
        check("best_is_sort_head", 256, |g| {
            let routes: Vec<Route> = (0..g.range(1, 6)).map(|_| gen_route(g)).collect();
            let mut sorted = routes.clone();
            peering_repro::bgp::decision::sort_candidates(&mut sorted);
            let best = peering_repro::bgp::best_path(&routes).unwrap();
            assert_eq!(compare(best, &sorted[0]), Ordering::Equal);
        });
    }

    /// Decision outcomes are invariant under attribute interning: routing
    /// every candidate's attributes through a shared `AttrStore` must not
    /// change any pairwise comparison or the chosen best path.
    #[test]
    fn decision_invariant_under_interning() {
        use peering_repro::bgp::attrs::AttrStore;
        check("decision_invariant_under_interning", 256, |g| {
            let routes: Vec<Route> = (0..g.range(2, 7)).map(|_| gen_route(g)).collect();
            let mut store = AttrStore::default();
            let interned: Vec<Route> = routes
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.attrs = store.intern((*r.attrs).clone());
                    r
                })
                .collect();
            for (a, b) in routes.iter().zip(&interned) {
                assert_eq!(*a.attrs, *b.attrs, "interning must preserve value");
            }
            for i in 0..routes.len() {
                for j in 0..routes.len() {
                    assert_eq!(
                        compare(&routes[i], &routes[j]),
                        compare(&interned[i], &interned[j]),
                        "interning changed a decision outcome"
                    );
                }
            }
            let best_owned = peering_repro::bgp::best_path(&routes).unwrap();
            let best_interned = peering_repro::bgp::best_path(&interned).unwrap();
            assert_eq!(compare(best_owned, best_interned), Ordering::Equal);
        });
    }
}

mod interning_props {
    use super::*;
    use peering_repro::bgp::attrs::AttrStore;
    use std::sync::Arc;

    /// Soundness of hash-consing: two attribute sets intern to the SAME
    /// allocation iff they are equal — `intern(a) ptr_eq intern(b) ⟺
    /// a == b` — and interning never alters the value.
    #[test]
    fn interning_is_sound() {
        check("interning_is_sound", 512, |g| {
            let mut store = AttrStore::default();
            let a = gen_attrs(g);
            let b = gen_attrs(g);
            let ia = store.intern(a.clone());
            let ib = store.intern(b.clone());
            assert_eq!(*ia, a, "interning must be value-preserving");
            assert_eq!(*ib, b, "interning must be value-preserving");
            assert_eq!(
                a == b,
                Arc::ptr_eq(&ia, &ib),
                "pointer identity must coincide with value equality"
            );
            // Idempotence: re-interning an already-interned Arc is free.
            let ia2 = store.intern_arc(Arc::clone(&ia));
            assert!(Arc::ptr_eq(&ia, &ia2));
            let ia3 = store.intern(a.clone());
            assert!(Arc::ptr_eq(&ia, &ia3));
        });
    }

    /// Garbage collection only evicts entries with no outside holders:
    /// every Arc still alive stays interned, so pointer-equality keeps
    /// implying value-equality across a gc().
    #[test]
    fn gc_preserves_live_interned_attrs() {
        check("gc_preserves_live_interned_attrs", 128, |g| {
            let mut store = AttrStore::default();
            let n = g.range(1, 12) as usize;
            let mut live = Vec::new();
            for _ in 0..n {
                let attrs = gen_attrs(g);
                let arc = store.intern(attrs);
                if g.bool() {
                    live.push(arc);
                } // else: dropped immediately — gc fodder
            }
            store.gc();
            assert!(store.len() <= n);
            for arc in &live {
                // A live Arc must still be canonical: interning its value
                // again returns the very same allocation.
                let again = store.intern((**arc).clone());
                assert!(Arc::ptr_eq(arc, &again), "gc evicted a live attr set");
            }
        });
    }
}

mod tcp_props {
    use super::*;
    use peering_repro::netsim::{
        FaultInjector, LinkConfig, MacAddr, PortId, SimDuration, SimTime, Simulator, TcpFlowConfig,
        TcpReceiver, TcpSender,
    };

    /// The TCP flow model completes any transfer under ≤5% random loss,
    /// arbitrary seeds and a range of latencies — no deadlocks, no data
    /// corruption in the byte count.
    #[test]
    fn tcp_completes_under_loss() {
        check("tcp_completes_under_loss", 12, |g| {
            let seed = g.u64();
            let loss = g.below(6) as u8;
            let latency_ms = g.range(1, 30);
            let kb = g.range(50, 500);
            let mut sim = Simulator::new(seed);
            let total = kb * 1000;
            let cfg = TcpFlowConfig::new(
                MacAddr::from_id(1),
                MacAddr::from_id(2),
                "10.0.0.1".parse().unwrap(),
                "10.0.0.2".parse().unwrap(),
                total,
            );
            let tx = sim.add_node(Box::new(TcpSender::new(cfg)));
            let rx = sim.add_node(Box::new(TcpReceiver::new(
                MacAddr::from_id(2),
                "10.0.0.2".parse().unwrap(),
            )));
            let link = LinkConfig::provisioned(SimDuration::from_millis(latency_ms), 50_000_000)
                .with_queue_bytes(512 * 1024)
                .with_faults(FaultInjector::dropping(loss).data_plane_only());
            sim.connect(tx, PortId(0), rx, PortId(0), link);
            sim.set_timer(tx, SimDuration::ZERO, 0);
            sim.run_until(SimTime::from_nanos(900_000_000_000));
            let receiver = sim.node::<TcpReceiver>(rx).unwrap();
            assert_eq!(receiver.bytes_received, total, "transfer incomplete");
            let sender = sim.node::<TcpSender>(tx).unwrap();
            assert!(sender.completed.is_some());
        });
    }
}

mod packet_props {
    //! The data plane's decoders over arbitrary bytes, and the `Bytes`
    //! views they now decode from.
    use super::*;
    use peering_repro::netsim::{
        ArpOp, ArpPacket, Bytes, EtherFrame, EtherType, IcmpPacket, IpPacket, IpProto, MacAddr,
    };
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// One packet of each kind the data plane decodes.
    #[derive(Debug, PartialEq)]
    enum Packet {
        Ip(IpPacket),
        Icmp(IcmpPacket),
        Arp(ArpPacket),
        Frame(EtherFrame),
    }

    fn gen_bytes(g: &mut Gen, max: u64) -> Vec<u8> {
        (0..g.below(max + 1)).map(|_| g.u64() as u8).collect()
    }

    fn gen_mac(g: &mut Gen) -> MacAddr {
        let b = g.u64().to_be_bytes();
        MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    fn gen_packet(g: &mut Gen) -> Packet {
        let payload = Bytes::from(gen_bytes(g, 48));
        match g.below(4) {
            0 => {
                let proto = IpProto::from_u8(g.u64() as u8);
                let mut pkt = IpPacket::new(g.u32().into(), g.u32().into(), proto, payload);
                pkt.header.ttl = g.u64() as u8;
                pkt.header.ident = g.u64() as u16;
                Packet::Ip(pkt)
            }
            1 => {
                let (ident, seq) = (g.u64() as u16, g.u64() as u16);
                Packet::Icmp(match g.below(3) {
                    0 => IcmpPacket::EchoRequest {
                        ident,
                        seq,
                        payload,
                    },
                    1 => IcmpPacket::EchoReply {
                        ident,
                        seq,
                        payload,
                    },
                    _ => IcmpPacket::TimeExceeded { original: payload },
                })
            }
            2 => Packet::Arp(ArpPacket {
                op: if g.bool() {
                    ArpOp::Request
                } else {
                    ArpOp::Reply
                },
                sender_mac: gen_mac(g),
                sender_ip: g.u32().into(),
                target_mac: gen_mac(g),
                target_ip: g.u32().into(),
            }),
            _ => {
                let ethertype = EtherType::from_u16(g.u64() as u16);
                Packet::Frame(EtherFrame::new(gen_mac(g), gen_mac(g), ethertype, payload))
            }
        }
    }

    impl Packet {
        fn encode(&self) -> Bytes {
            match self {
                Packet::Ip(p) => p.encode(),
                Packet::Icmp(p) => p.encode(),
                Packet::Arp(p) => p.encode(),
                Packet::Frame(p) => p.encode().into(),
            }
        }

        /// Decode `wire` as a packet of this one's kind.
        fn decode_like(&self, wire: &Bytes) -> Option<Packet> {
            match self {
                Packet::Ip(_) => IpPacket::decode(wire).map(Packet::Ip),
                Packet::Icmp(_) => IcmpPacket::decode(wire).map(Packet::Icmp),
                Packet::Arp(_) => ArpPacket::decode(wire).map(Packet::Arp),
                Packet::Frame(_) => EtherFrame::decode(wire).map(Packet::Frame),
            }
        }
    }

    /// `wire` at a random offset inside a larger buffer of random bytes,
    /// as a view of it.
    fn embedded(g: &mut Gen, wire: &[u8]) -> Bytes {
        let mut buf = gen_bytes(g, 24);
        let at = buf.len();
        buf.extend_from_slice(wire);
        buf.extend(gen_bytes(g, 24));
        Bytes::from(buf).slice(at..at + wire.len())
    }

    fn hash_of(b: &Bytes) -> u64 {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    /// Every packet kind decodes back from its own encoding.
    #[test]
    fn packets_roundtrip() {
        check("packets_roundtrip", 512, |g| {
            let pkt = gen_packet(g);
            assert_eq!(pkt.decode_like(&pkt.encode()).as_ref(), Some(&pkt));
        });
    }

    /// A truncated or bit-flipped encoding never panics a decoder.
    #[test]
    fn damaged_packets_never_panic() {
        check("damaged_packets_never_panic", 1024, |g| {
            let pkt = gen_packet(g);
            let wire = pkt.encode();
            let cut = g.below(wire.len() as u64) as usize;
            let _ = pkt.decode_like(&wire.slice(..cut));
            let mut flipped = wire.to_vec();
            let pos = g.below(flipped.len() as u64) as usize;
            flipped[pos] ^= 1 << g.below(8);
            let _ = pkt.decode_like(&flipped.into());
        });
    }

    /// Decoding a view at a random offset inside a larger buffer, or a
    /// view of that view, reads what decoding a fresh copy of the same
    /// bytes reads, whether they parse or not.
    #[test]
    fn views_decode_like_copies() {
        check("views_decode_like_copies", 512, |g| {
            let pkt = gen_packet(g);
            let mut wire = pkt.encode().to_vec();
            if g.bool() {
                let pos = g.below(wire.len() as u64) as usize;
                wire[pos] ^= 1 << g.below(8);
            }
            let view = embedded(g, &wire);
            let copy = Bytes::copy_from_slice(&wire);
            assert_eq!(pkt.decode_like(&view), pkt.decode_like(&copy));
            let inner = embedded(g, &view).slice(..);
            assert_eq!(pkt.decode_like(&inner), pkt.decode_like(&copy));
        });
    }

    /// A view, and a slice of a view, equals, orders and hashes like a
    /// copy of its bytes.
    #[test]
    fn views_behave_like_copies() {
        check("views_behave_like_copies", 512, |g| {
            let buf = Bytes::from(gen_bytes(g, 64));
            let view = |g: &mut Gen| {
                let lo = g.below(buf.len() as u64 + 1) as usize;
                let hi = g.range(lo as u64, buf.len() as u64 + 1) as usize;
                let outer = buf.slice(lo..hi);
                let lo = g.below(outer.len() as u64 + 1) as usize;
                let hi = g.range(lo as u64, outer.len() as u64 + 1) as usize;
                if g.bool() {
                    outer
                } else {
                    outer.slice(lo..hi)
                }
            };
            let (a, b) = (view(g), view(g));
            let (ca, cb) = (Bytes::copy_from_slice(&a), Bytes::copy_from_slice(&b));
            assert_eq!(a, ca);
            assert_eq!(a.len(), ca.len());
            assert_eq!(hash_of(&a), hash_of(&ca));
            assert_eq!(a.cmp(&b), ca.cmp(&cb));
            assert_eq!(a == b, ca == cb);
            assert_eq!(format!("{a:?}"), format!("{ca:?}"));
        });
    }
}

mod fsm_props {
    use super::*;
    use peering_repro::bgp::fsm::{FsmConfig, FsmEvent, SessionFsm, TimerKind};
    use peering_repro::bgp::message::{NotificationMsg, OpenMsg};
    use peering_repro::bgp::types::RouterId;

    fn gen_event(g: &mut Gen) -> FsmEvent {
        match g.below(11) {
            0 => FsmEvent::ManualStart,
            1 => FsmEvent::ManualStop,
            2 => FsmEvent::TcpConnected,
            3 => FsmEvent::TcpClosed,
            4 => FsmEvent::Timer(TimerKind::ConnectRetry),
            5 => FsmEvent::Timer(TimerKind::Hold),
            6 => FsmEvent::Timer(TimerKind::Keepalive),
            7 => FsmEvent::Msg(Message::Keepalive),
            8 => FsmEvent::Msg(Message::Update(UpdateMsg::end_of_rib())),
            9 => FsmEvent::Msg(Message::Notification(NotificationMsg::cease())),
            _ => {
                if g.bool() {
                    FsmEvent::Msg(Message::Open(OpenMsg::standard(
                        Asn(g.u32()),
                        90,
                        RouterId(9),
                        g.bool(),
                    )))
                } else {
                    FsmEvent::Msg(Message::RouteRefresh { afi: 1, safi: 1 })
                }
            }
        }
    }

    /// The session FSM is total: any event sequence (including adversarial
    /// OPENs with wrong ASNs, stray timers and repeated stops) never
    /// panics, and UPDATEs are only ever delivered while Established.
    #[test]
    fn fsm_never_panics_and_gates_updates() {
        check("fsm_never_panics_and_gates_updates", 256, |g| {
            let mut fsm = SessionFsm::new(FsmConfig::ebgp(Asn(47065), RouterId(1), Asn(100)));
            for _ in 0..g.range(1, 60) {
                let event = gen_event(g);
                let established_before = fsm.is_established();
                let actions = fsm.handle(event);
                for action in &actions {
                    if matches!(action, peering_repro::bgp::fsm::FsmAction::DeliverUpdate(_)) {
                        assert!(
                            established_before,
                            "updates must only be delivered when Established"
                        );
                    }
                }
            }
        });
    }

    /// Idle refuses everything: no event handled while Idle may put a
    /// message on the wire (RFC 4271 §8.2.2 — Idle "refuses all incoming
    /// BGP connections").
    #[test]
    fn fsm_never_sends_from_idle() {
        use peering_repro::bgp::fsm::{FsmAction, FsmState};
        check("fsm_never_sends_from_idle", 256, |g| {
            let mut fsm = SessionFsm::new(FsmConfig::ebgp(Asn(47065), RouterId(1), Asn(100)));
            for _ in 0..g.range(1, 60) {
                let was_idle = fsm.state() == FsmState::Idle;
                let event = gen_event(g);
                let actions = fsm.handle(event);
                if was_idle {
                    assert!(
                        !actions.iter().any(|a| matches!(a, FsmAction::Send(_))),
                        "Idle emitted a message: {actions:?}"
                    );
                }
            }
        });
    }

    /// Every message that arrives on an Established session (and leaves it
    /// Established) re-arms the Hold timer — exactly once. Zero re-arms
    /// means the session dies of a phantom hold-timeout under steady
    /// keepalives; more than one is a latent double-arm bug.
    #[test]
    fn established_rearms_exactly_one_hold_timer() {
        use peering_repro::bgp::fsm::FsmAction;
        check("established_rearms_exactly_one_hold_timer", 128, |g| {
            let mut fsm = SessionFsm::new(FsmConfig::ebgp(Asn(47065), RouterId(1), Asn(100)));
            // Deterministic establishment handshake.
            fsm.handle(FsmEvent::ManualStart);
            fsm.handle(FsmEvent::TcpConnected);
            fsm.handle(FsmEvent::Msg(Message::Open(OpenMsg::standard(
                Asn(100),
                90,
                RouterId(9),
                false,
            ))));
            fsm.handle(FsmEvent::Msg(Message::Keepalive));
            assert!(fsm.is_established());
            for _ in 0..g.range(1, 40) {
                // Benign in-session traffic only: keepalives, updates,
                // refreshes, and our own keepalive timer.
                let event = match g.below(4) {
                    0 => FsmEvent::Msg(Message::Keepalive),
                    1 => FsmEvent::Msg(Message::Update(UpdateMsg::end_of_rib())),
                    2 => FsmEvent::Msg(Message::RouteRefresh { afi: 1, safi: 1 }),
                    _ => FsmEvent::Timer(TimerKind::Keepalive),
                };
                let from_peer = matches!(event, FsmEvent::Msg(_));
                let actions = fsm.handle(event);
                assert!(fsm.is_established());
                let hold_rearms = actions
                    .iter()
                    .filter(|a| matches!(a, FsmAction::ArmTimer(TimerKind::Hold, _)))
                    .count();
                if from_peer {
                    assert_eq!(
                        hold_rearms, 1,
                        "peer traffic must re-arm the Hold timer exactly once: {actions:?}"
                    );
                } else {
                    assert_eq!(
                        hold_rearms, 0,
                        "our own keepalive timer must not touch the Hold timer: {actions:?}"
                    );
                }
            }
        });
    }
}

mod obs_props {
    use super::*;
    use peering_repro::obs::{counter_keys, CounterKey, Counters, EventKind, Obs};
    use peering_repro::vbgp::NeighborCounter;

    counter_keys! {
        enum Layer {
            L0 = "layer0.metric",
            L1 = "layer1.metric",
            L2 = "layer2.metric",
            L3 = "layer3.metric",
        }
    }

    /// `Registry::snapshot()` renders a stable, name-sorted view:
    /// registration order never changes the output, rendering is
    /// deterministic, and the text lines really are sorted (tests and the
    /// convergence oracle diff these snapshots line-by-line).
    #[test]
    fn snapshot_ordering_is_stable() {
        check("snapshot_ordering_is_stable", 64, |g| {
            let series: Vec<(Layer, u32, u64)> = (0..g.range(1, 24) as u32)
                .map(|i| (Layer::ALL[g.below(4) as usize], i, g.below(1_000_000)))
                .collect();
            let forward = Obs::new();
            let reversed = Obs::new();
            let mut blocks: Vec<_> = series
                .iter()
                .map(|&(_, i, _)| Counters::<Layer>::labelled(&forward, "i", i))
                .collect();
            let mut later: Vec<_> = series
                .iter()
                .rev()
                .map(|&(_, i, _)| Counters::<Layer>::labelled(&reversed, "i", i))
                .collect();
            later.reverse();
            for (&(key, _, v), (f, r)) in series.iter().zip(blocks.iter_mut().zip(&mut later)) {
                f.add(key, v);
                r.add(key, v);
            }
            let text = forward.snapshot().to_text();
            assert_eq!(text, reversed.snapshot().to_text());
            assert_eq!(text, forward.snapshot().to_text(), "re-render must agree");
            assert_eq!(forward.snapshot().to_json(), reversed.snapshot().to_json());
            let lines: Vec<&str> = text.lines().collect();
            let mut sorted = lines.clone();
            sorted.sort_unstable();
            assert_eq!(lines, sorted, "snapshot text must be name-sorted");
        });
    }

    /// Labelled series (`name{dim=idx}`) sort stably alongside their plain
    /// neighbors, and a snapshot diff against an older snapshot reports
    /// exactly the series that changed.
    #[test]
    fn snapshot_diff_reports_exactly_the_changes() {
        check("snapshot_diff_reports_exactly_the_changes", 64, |g| {
            let obs = Obs::new();
            let n = g.range(2, 10) as u32;
            let mut blocks: Vec<_> = (0..n)
                .map(|i| Counters::<NeighborCounter>::labelled(&obs, "nbr", i))
                .collect();
            for block in &mut blocks {
                block.add(NeighborCounter::EgressPkts, g.below(50) + 1);
            }
            let before = obs.snapshot();
            let bump: Vec<u32> = (0..n).filter(|_| g.bool()).collect();
            for &i in &bump {
                blocks[i as usize].add(NeighborCounter::EgressPkts, 1 + g.below(9));
            }
            let diff = obs.snapshot().diff(&before);
            assert_eq!(diff.len(), bump.len(), "diff lines: {diff:?}");
            for &i in &bump {
                let needle = format!("mux.egress_pkts{{nbr={i}}}");
                assert!(
                    diff.iter().any(|d| d.contains(&needle)),
                    "missing {needle} in {diff:?}"
                );
            }
        });
    }

    /// The journal is a bounded ring: it never grows past its capacity,
    /// keeps the newest events, and reports exactly how many it shed.
    #[test]
    fn journal_is_bounded_and_keeps_newest() {
        check("journal_is_bounded_and_keeps_newest", 16, |g| {
            use peering_repro::obs::JOURNAL_CAPACITY;
            let obs = Obs::new();
            let total = JOURNAL_CAPACITY as u64 + g.range(1, 500);
            for i in 0..total {
                obs.set_now_nanos(i);
                obs.record(EventKind::SessionBackoff {
                    peer: i as u32,
                    level: 1,
                });
            }
            assert_eq!(obs.journal_len(), JOURNAL_CAPACITY);
            assert_eq!(obs.journal_dropped(), total - JOURNAL_CAPACITY as u64);
            let events = obs.events();
            assert_eq!(
                events.first().unwrap().t_nanos,
                total - JOURNAL_CAPACITY as u64
            );
            assert_eq!(events.last().unwrap().t_nanos, total - 1);
        });
    }
}

mod workload_props {
    use super::*;
    use peering_workload::dfz::{
        AS_PATH_LEN_PERMILLE, FIRST_PATH_ASN, PATH_ASN_SPAN, V4_LENGTH_PERMILLE, V6_LENGTH_PERMILLE,
    };
    use peering_workload::{ChurnConfig, ChurnSchedule, DfzConfig, DfzGenerator};
    use std::collections::{BTreeMap, HashSet};

    /// Same seed ⇒ bit-identical route stream; different seed ⇒ a
    /// different one (addresses and paths both move).
    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        check("generator_is_a_pure_function_of_the_seed", 12, |g| {
            let seed = g.u64();
            let v4 = g.range(100, 2_000) as usize;
            let v6 = g.range(10, 400) as usize;
            let a = DfzGenerator::new(DfzConfig::sized(seed, v4, v6));
            let b = DfzGenerator::new(DfzConfig::sized(seed, v4, v6));
            let sa: Vec<_> = a.iter().collect();
            let sb: Vec<_> = b.iter().collect();
            assert_eq!(sa, sb, "same seed must yield an identical stream");
            let c = DfzGenerator::new(DfzConfig::sized(seed ^ 1, v4, v6));
            assert!(
                c.iter().zip(&sa).any(|(x, y)| &x != y),
                "different seed should perturb the stream"
            );
        });
    }

    /// The generated prefix-length histogram tracks the configured
    /// permille tables (exactly, modulo the last-bucket remainder).
    #[test]
    fn prefix_length_histogram_matches_tables() {
        check("prefix_length_histogram_matches_tables", 6, |g| {
            let seed = g.u64();
            let v4_total = g.range(5_000, 20_000) as usize;
            let v6_total = g.range(1_000, 4_000) as usize;
            let gen = DfzGenerator::new(DfzConfig::sized(seed, v4_total, v6_total));
            let mut hist: BTreeMap<(bool, u8), usize> = BTreeMap::new();
            for r in gen.iter() {
                let key = (matches!(r.prefix, Prefix::V6 { .. }), r.prefix.len());
                *hist.entry(key).or_default() += 1;
            }
            for (v6, table, total) in [
                (false, &V4_LENGTH_PERMILLE[..], v4_total),
                (true, &V6_LENGTH_PERMILLE[..], v6_total),
            ] {
                for &(len, permille) in table {
                    let got = hist.get(&(v6, len)).copied().unwrap_or(0);
                    let want = total * permille as usize / 1000;
                    // Exact for all but the largest bucket, which absorbs
                    // the rounding remainder (< one slot per table row).
                    assert!(
                        got >= want && got <= want + table.len() * total.div_ceil(1000),
                        "len {len} (v6={v6}): got {got}, want ≈{want}"
                    );
                }
            }
        });
    }

    /// No duplicate NLRI anywhere in the table, and every address sits in
    /// the carved-out DFZ ranges.
    #[test]
    fn nlri_are_unique_and_in_range() {
        check("nlri_are_unique_and_in_range", 6, |g| {
            let gen = DfzGenerator::new(DfzConfig::sized(
                g.u64(),
                g.range(3_000, 12_000) as usize,
                g.range(500, 2_000) as usize,
            ));
            let mut seen = HashSet::new();
            for r in gen.iter() {
                assert!(seen.insert(r.prefix), "duplicate NLRI {}", r.prefix);
                match r.prefix {
                    Prefix::V4 { addr, .. } => {
                        let first = addr.octets()[0];
                        assert!((20..84).contains(&first), "v4 {} out of range", r.prefix);
                    }
                    Prefix::V6 { addr, .. } => {
                        assert_eq!(addr.segments()[0], 0x2610, "v6 {} out of range", r.prefix);
                    }
                }
            }
        });
    }

    /// Generated AS paths are loop-free (no repeated ASN), non-empty,
    /// within the table's length bounds, and drawn from the reserved span.
    #[test]
    fn as_paths_are_loop_free_and_in_span() {
        check("as_paths_are_loop_free_and_in_span", 6, |g| {
            let gen = DfzGenerator::new(DfzConfig::sized(
                g.u64(),
                g.range(2_000, 8_000) as usize,
                g.range(200, 1_000) as usize,
            ));
            let max_len = AS_PATH_LEN_PERMILLE.iter().map(|&(l, _)| l).max().unwrap();
            for r in gen.iter() {
                let hops: Vec<Asn> = match &r.attrs.as_path.segments[..] {
                    [AsPathSegment::Sequence(h)] => h.clone(),
                    other => panic!("unexpected path shape {other:?}"),
                };
                assert!(!hops.is_empty() && hops.len() <= max_len as usize);
                let distinct: HashSet<_> = hops.iter().collect();
                assert_eq!(distinct.len(), hops.len(), "AS loop in {hops:?}");
                for h in &hops {
                    assert!(
                        (FIRST_PATH_ASN..FIRST_PATH_ASN + PATH_ASN_SPAN).contains(&h.0),
                        "hop {h:?} outside reserved span"
                    );
                }
            }
        });
    }

    /// Withdraw/re-announce variants: a flap rotates the attribute variant
    /// (so churn exercises attr replacement), while the NLRI stays put.
    #[test]
    fn flap_variants_rotate_attrs_not_nlri() {
        check("flap_variants_rotate_attrs_not_nlri", 24, |g| {
            let gen = DfzGenerator::new(DfzConfig::sized(g.u64(), 2_000, 200));
            let i = g.below(gen.len() as u64) as usize;
            let base = gen.route(i);
            let flapped = gen.route_flapped(i, 1 + g.below(40) as u32);
            assert_eq!(base.prefix, flapped.prefix);
            assert_eq!(base.prefix, gen.prefix(i));
        });
    }

    /// Churn-rate calibration: over a long window the measured per-second
    /// p50 and p99 land within 10% of the configured targets.
    #[test]
    fn churn_quantiles_hit_targets() {
        check("churn_quantiles_hit_targets", 3, |g| {
            let cfg = ChurnConfig::amsix(g.u64(), 4_000, 1_000_000);
            let sched = ChurnSchedule::generate(cfg.clone());
            let (p50, p99) = sched.measured_quantiles();
            let close = |got: u64, want: f64| (got as f64 - want).abs() <= want * 0.10;
            assert!(
                close(p50, cfg.p50_per_sec),
                "p50 {p50} vs target {}",
                cfg.p50_per_sec
            );
            assert!(
                close(p99, cfg.p99_per_sec),
                "p99 {p99} vs target {}",
                cfg.p99_per_sec
            );
        });
    }
}

mod steering_props {
    use super::*;
    use peering_repro::vbgp::communities::{ControlCommunities, MAX_NEIGHBOR_ID};
    use peering_repro::vbgp::NeighborId;

    /// The §3.2.1 steering algebra: blacklist always wins; any whitelist
    /// restricts export to exactly the whitelisted set; no steering
    /// communities means export to everyone; unrelated communities are
    /// inert.
    #[test]
    fn steering_semantics() {
        check("steering_semantics", 256, |g| {
            let whitelist: Vec<u32> = (0..g.below(4)).map(|_| g.below(50) as u32).collect();
            let blacklist: Vec<u32> = (0..g.below(4)).map(|_| g.below(50) as u32).collect();
            let probe = g.below(50) as u32;
            let cc = ControlCommunities::new(47065);
            let mut communities: Vec<Community> = (0..g.below(3))
                .map(|_| Community(g.u32()))
                // Keep noise out of the control namespace.
                .filter(|c| c.high() != 47065)
                .collect();
            for &n in &whitelist {
                communities.push(cc.announce_to(NeighborId(n)));
            }
            for &n in &blacklist {
                communities.push(cc.do_not_announce_to(NeighborId(n)));
            }
            let nbr = NeighborId(probe);
            assert!(probe <= MAX_NEIGHBOR_ID);
            let allowed = cc.allows_export(&communities, nbr);
            let expected = if blacklist.contains(&probe) {
                false
            } else if !whitelist.is_empty() {
                whitelist.contains(&probe)
            } else {
                true
            };
            assert_eq!(allowed, expected);
            // Stripping removes every control community and nothing else.
            let mut stripped = communities.clone();
            cc.strip(&mut stripped);
            assert!(stripped.iter().all(|c| c.high() != 47065));
            assert_eq!(
                stripped.len(),
                communities.iter().filter(|c| c.high() != 47065).count()
            );
        });
    }
}

mod scenario_props {
    use super::*;
    use peering_repro::bgp::types::RouterId;
    use peering_repro::toolkit::node::ExperimentNode;

    /// `Display` and `FromStr` are exact inverses over the full `u32`
    /// community space (the "high:low" notation experimenters put in
    /// announce options and the scenario library puts in reports).
    #[test]
    fn community_display_parse_roundtrip() {
        check("community_display_parse_roundtrip", 512, |g| {
            let c = Community(g.u32());
            let text = c.to_string();
            let parsed: Community = text.parse().expect("rendered community parses");
            assert_eq!(parsed, c);
            assert_eq!(parsed.high(), c.high());
            assert_eq!(parsed.low(), c.low());
            // And the notation is canonical: re-rendering is stable.
            assert_eq!(parsed.to_string(), text);
        });
    }

    /// The toolkit's poisoned-path construction (`build_attrs`) upholds
    /// its sanitization contract for arbitrary poison lists: duplicates
    /// collapse to first occurrence, the experiment's own ASN never
    /// appears inside the sandwich, the path stays under the wire-format
    /// cap, and the origin remains the experiment.
    #[test]
    fn poisoned_path_construction_invariants() {
        check("poisoned_path_construction_invariants", 256, |g| {
            let exp = Asn(61000 + g.below(500) as u32);
            let node = ExperimentNode::new(exp, RouterId(9));
            let prepend = g.below(5) as usize;
            let poison: Vec<Asn> = (0..g.below(300))
                .map(|_| {
                    if g.below(10) == 0 {
                        exp // stray own-ASN copies must be dropped
                    } else {
                        Asn(g.below(400) as u32 + 1)
                    }
                })
                .collect();
            let attrs =
                node.build_attrs(std::net::Ipv4Addr::new(10, 0, 0, 1), prepend, &poison, &[]);
            let asns: Vec<Asn> = attrs.as_path.asns();

            assert!(asns.len() <= 255, "wire-format path cap");
            let head = (1 + prepend).min(255).min(asns.len());
            assert!(
                asns[..head].iter().all(|&a| a == exp),
                "prepends lead the path"
            );
            assert_eq!(*asns.last().expect("non-empty"), exp, "origin preserved");

            // The sandwich interior: first-occurrence dedup of the poison
            // list minus the experiment's ASN, order preserved, possibly
            // truncated to fit the cap.
            let mut expected: Vec<Asn> = Vec::new();
            for &p in &poison {
                if p != exp && !expected.contains(&p) {
                    expected.push(p);
                }
            }
            let interior: Vec<Asn> = if asns.len() > head {
                asns[head..asns.len() - 1].to_vec()
            } else {
                Vec::new()
            };
            assert!(
                interior.len() <= expected.len() && interior[..] == expected[..interior.len()],
                "sandwich is an order-preserving prefix of the deduped poisons"
            );
            assert!(
                !interior.contains(&exp),
                "own ASN never inside the sandwich"
            );
            let mut uniq = interior.clone();
            uniq.dedup();
            assert_eq!(uniq.len(), interior.len(), "no adjacent duplicates");
            let set: std::collections::BTreeSet<u32> = interior.iter().map(|a| a.0).collect();
            assert_eq!(set.len(), interior.len(), "no duplicates at all");
            if !expected.is_empty() && asns.len() < 255 {
                assert_eq!(
                    interior.len(),
                    expected.len(),
                    "no spurious truncation under the cap"
                );
            }
        });
    }
}
