//! # peering-bgp
//!
//! A complete, sans-IO BGP-4 implementation — the substrate the PEERING
//! platform runs its vBGP virtualization on top of (the paper deploys BIRD;
//! we build the equivalent from scratch).
//!
//! Scope:
//!
//! * **Wire codec** — OPEN (with capabilities: multiprotocol, 4-octet AS,
//!   ADD-PATH per RFC 7911, route refresh), UPDATE (withdrawals, path
//!   attributes, NLRI, ADD-PATH path identifiers), NOTIFICATION, KEEPALIVE
//!   and ROUTE-REFRESH, all encoded to and parsed from real wire bytes.
//! * **Path attributes** — ORIGIN, AS_PATH (sequences and sets, 4-byte),
//!   NEXT_HOP, MED, LOCAL_PREF, ATOMIC_AGGREGATE, AGGREGATOR, COMMUNITIES
//!   (RFC 1997), LARGE COMMUNITIES (RFC 8092), plus preservation of unknown
//!   optional-transitive attributes (needed for the paper's capability that
//!   lets experiments send them).
//! * **Session FSM** — RFC 4271 §8: Idle/Connect/Active/OpenSent/OpenConfirm/
//!   Established with hold, keepalive and connect-retry timers. (Update
//!   pacing/MRAI is enforced by the embedding — in PEERING's case by the
//!   vBGP control-plane enforcement engine's rate limits.)
//! * **RIBs** — Adj-RIB-In / Loc-RIB / Adj-RIB-Out keyed by (prefix, path id)
//!   over a longest-prefix-match trie.
//! * **Decision process** — RFC 4271 §9.1 tie-breaking.
//! * **Policy engine** — route-map-style match/action rules used both for
//!   ordinary import/export policy and as the substrate for vBGP's
//!   enforcement pipelines.
//! * **Speaker** — ties sessions, policy and RIBs together into the
//!   equivalent of a software router's BGP daemon.
//!
//! Everything is synchronous and deterministic: a [`speaker::Speaker`]
//! consumes timer ticks and inbound messages and returns the messages it
//! wants transmitted, so it can be embedded in the discrete-event simulator
//! or driven directly by tests.
//!
//! ```
//! use peering_bgp::message::{Message, SessionCodecCtx, UpdateMsg};
//! use peering_bgp::attrs::{AsPath, PathAttributes};
//! use peering_bgp::types::{prefix, Asn};
//!
//! // Encode an UPDATE to real wire bytes and decode it back.
//! let attrs = PathAttributes {
//!     as_path: AsPath::from_asns(&[Asn(47065), Asn(61574)]),
//!     next_hop: Some("127.65.0.1".parse().unwrap()),
//!     ..Default::default()
//! };
//! let update = UpdateMsg::announce(vec![(prefix("184.164.224.0/24"), None)], attrs);
//! let ctx = SessionCodecCtx::default();
//! let wire = Message::Update(update.clone()).encode(&ctx);
//! let (decoded, used) = Message::decode(&wire, &ctx).unwrap();
//! assert_eq!(used, wire.len());
//! assert_eq!(decoded, Message::Update(update));
//! ```

pub mod attrs;
pub mod decision;
pub mod flatfib;
pub mod fsm;
pub mod message;
pub mod policy;
pub mod rib;
pub mod speaker;
pub mod trie;
pub mod types;

pub use attrs::{AsPath, AsPathSegment, Origin, PathAttributes};
pub use decision::best_path;
pub use flatfib::FlatFib;
pub use fsm::{FsmEvent, FsmState, SessionFsm, TimerKind};
pub use message::{AddPathDirection, Capability, Message, NotificationMsg, OpenMsg, UpdateMsg};
pub use policy::{Action, Match, Policy, Rule, Verdict};
pub use rib::PeerId;
pub use rib::{AdjRibIn, LocRib, Route, RouteKey, RouteSource};
pub use speaker::{PeerConfig, PeerCounter, Speaker, SpeakerConfig, SpeakerOutput};
pub use trie::PrefixTrie;
pub use types::{Afi, Asn, Community, LargeCommunity, ParsePrefixError, PathId, Prefix, RouterId};
