//! The BGP speaker: sessions + RIBs + policy + decision process.
//!
//! This is the from-scratch equivalent of the BIRD daemon in the paper's
//! deployment. It is sans-IO and synchronous: the embedding feeds it
//! transport notifications, received bytes and timer expirations, and it
//! returns encoded bytes to transmit plus structural events (session
//! up/down, routes learned/withdrawn, timers to arm).
//!
//! Two advertisement modes exist per peer:
//!
//! * [`AdvertiseMode::BestOnly`] — standard BGP: advertise only the
//!   decision-process winner (the visibility limitation of §2.2.2).
//! * [`AdvertiseMode::AllPaths`] — advertise every Loc-RIB candidate with a
//!   distinct ADD-PATH id. This is what vBGP uses toward experiments
//!   (§3.2.1), with per-neighbor next-hop rewriting layered on via generated
//!   export policies.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::IpAddr;
use std::sync::Arc;

use peering_obs::{counter_keys, Counters, EventKind as ObsEvent, Histogram, Obs};

use crate::attrs::{AttrStore, PathAttributes};
use crate::decision::sort_candidates;
use crate::fsm::{FsmAction, FsmConfig, FsmEvent, FsmState, SessionFsm, TimerConfig, TimerKind};
use crate::message::{
    CodecError, Message, NotificationMsg, SessionCodecCtx, UpdateMsg, MAX_MESSAGE_LEN,
};
use crate::policy::Policy;
use crate::rib::{AdjRibIn, LocRib, PeerId, Route, RouteSource};
use crate::trie::PrefixTrie;
use crate::types::{Asn, PathId, Prefix, RouterId};

pub use crate::rib::PeerId as SpeakerPeerId;

/// Speaker-wide configuration.
#[derive(Debug, Clone)]
pub struct SpeakerConfig {
    /// Local ASN.
    pub asn: Asn,
    /// Local BGP identifier.
    pub router_id: RouterId,
}

/// How routes are advertised to a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvertiseMode {
    /// Only the best path per prefix.
    BestOnly,
    /// Every Loc-RIB candidate, with ADD-PATH ids.
    AllPaths,
}

/// Per-peer configuration.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// The peer's ASN.
    pub remote_asn: Asn,
    /// The peer's transport address (decision tie-break; diagnostics).
    pub remote_addr: IpAddr,
    /// Our address on this session; default next-hop for eBGP exports.
    pub local_addr: IpAddr,
    /// Proposed hold time (seconds).
    pub hold_time: u16,
    /// Negotiate ADD-PATH.
    pub add_path: bool,
    /// Passive transport establishment.
    pub passive: bool,
    /// Advertisement mode.
    pub mode: AdvertiseMode,
    /// Import policy (applied to routes learned from this peer).
    pub import: Policy,
    /// Export policy (applied to routes advertised to this peer).
    pub export: Policy,
    /// Accept routes whose AS path contains our own ASN (normally a loop).
    pub allow_own_asn_in: bool,
    /// Do not apply next-hop-self on eBGP export (BIRD's
    /// `next hop keep`): required by vBGP so rewritten virtual next hops
    /// survive export to experiments (§3.2.2).
    pub next_hop_unchanged: bool,
    /// Route-server transparency: do not prepend our ASN on eBGP export
    /// (IXP route servers are not part of the data path and stay out of
    /// the AS path — paper §4.2's multilateral peering).
    pub transparent: bool,
    /// Connect-retry timing (backoff, jitter, idle-hold damping).
    pub timers: TimerConfig,
    /// Route retention on session loss, in seconds. Zero (the default)
    /// flushes the Adj-RIB-In immediately; non-zero keeps the routes,
    /// marked stale, until the peer re-announces or replaces them, the
    /// re-established session's End-of-RIB arrives, or this deadline
    /// sweeps the leftovers — graceful-restart-style damping so a brief
    /// session flap does not ripple withdrawals platform-wide.
    pub retention_secs: u16,
}

impl PeerConfig {
    /// A standard eBGP peer with accept-all policies.
    pub fn ebgp(remote_asn: Asn, remote_addr: IpAddr, local_addr: IpAddr) -> Self {
        PeerConfig {
            remote_asn,
            remote_addr,
            local_addr,
            hold_time: 90,
            add_path: false,
            passive: false,
            mode: AdvertiseMode::BestOnly,
            import: Policy::accept_all(),
            export: Policy::accept_all(),
            allow_own_asn_in: false,
            next_hop_unchanged: false,
            transparent: false,
            timers: TimerConfig::default(),
            retention_secs: 0,
        }
    }

    /// Builder: route-server transparency (no ASN prepend on export).
    pub fn with_transparent(mut self) -> Self {
        self.transparent = true;
        self
    }

    /// Builder: keep next hops unchanged on eBGP export.
    pub fn with_next_hop_unchanged(mut self) -> Self {
        self.next_hop_unchanged = true;
        self
    }

    /// Builder: negotiate ADD-PATH and advertise all paths (vBGP's
    /// experiment-facing configuration).
    pub fn with_all_paths(mut self) -> Self {
        self.add_path = true;
        self.mode = AdvertiseMode::AllPaths;
        self
    }

    /// Builder: passive open.
    pub fn with_passive(mut self) -> Self {
        self.passive = true;
        self
    }

    /// Builder: import policy.
    pub fn with_import(mut self, import: Policy) -> Self {
        self.import = import;
        self
    }

    /// Builder: export policy.
    pub fn with_export(mut self, export: Policy) -> Self {
        self.export = export;
        self
    }

    /// Builder: ADD-PATH negotiation without all-paths advertisement.
    pub fn with_add_path(mut self) -> Self {
        self.add_path = true;
        self
    }

    /// Builder: connect-retry timing policy.
    pub fn with_timers(mut self, timers: TimerConfig) -> Self {
        self.timers = timers;
        self
    }

    /// Builder: retain routes for `secs` seconds after session loss.
    pub fn with_retention(mut self, secs: u16) -> Self {
        self.retention_secs = secs;
        self
    }
}

counter_keys! {
    /// Counters per peer, published as `name{peer=id}`.
    pub enum PeerCounter {
        /// Messages decoded.
        MsgsIn = "bgp.msgs_in",
        /// Messages sent.
        MsgsOut = "bgp.msgs_out",
        /// UPDATEs received.
        UpdatesIn = "bgp.updates_in",
        /// UPDATEs sent.
        UpdatesOut = "bgp.updates_out",
        /// Routes rejected by import policy.
        ImportRejected = "bgp.import_rejected",
        /// Routes rejected by AS-path loop detection.
        LoopRejected = "bgp.loop_rejected",
        /// Export-policy suppressions toward this peer (each time a Loc-RIB
        /// candidate was withheld by the session's export policy — the
        /// valley-free enforcement surface of the synthetic internet).
        ExportRejected = "bgp.export_rejected",
        /// Codec errors on this session.
        CodecErrors = "bgp.codec_errors",
        /// ADD-PATH re-announcements that replaced an already-held
        /// (prefix, path-id) entry in the Adj-RIB-In.
        AddpathDups = "bgp.addpath_dups",
        /// Paths held in this peer's Adj-RIB-In.
        AdjInPaths = level "bgp.adj_in_paths",
        /// The session FSM's consecutive failures (its backoff level).
        BackoffLevel = level "bgp.backoff_level",
    }
}

counter_keys! {
    /// The speaker's own counters and levels.
    enum SpeakerCounter {
        /// Adj-RIB-Out replays on session establishment.
        ResyncReplays = "bgp.resync_replays",
        /// Distinct attribute sets in the intern store.
        InternedAttrs = level "bgp.interned_attrs",
        /// Paths held across every Adj-RIB-In.
        AdjInPathsTotal = level "bgp.adj_in_paths_total",
    }
}

counter_keys! {
    /// Session FSM state changes, published as
    /// `bgp.fsm_transition{edge=From->To}`: every change
    /// [`SessionFsm::handle`] can make.
    enum FsmEdge {
        IdleConnect = "Idle->Connect",
        IdleActive = "Idle->Active",
        ConnectActive = "Connect->Active",
        ConnectOpenSent = "Connect->OpenSent",
        ConnectIdle = "Connect->Idle",
        ActiveConnect = "Active->Connect",
        ActiveOpenSent = "Active->OpenSent",
        ActiveOpenConfirm = "Active->OpenConfirm",
        ActiveIdle = "Active->Idle",
        OpenSentOpenConfirm = "OpenSent->OpenConfirm",
        OpenSentIdle = "OpenSent->Idle",
        OpenConfirmEstablished = "OpenConfirm->Established",
        OpenConfirmIdle = "OpenConfirm->Idle",
        EstablishedIdle = "Established->Idle",
    }
}

impl FsmEdge {
    /// The key of the change `from -> to`.
    fn between(from: FsmState, to: FsmState) -> Self {
        use FsmState as S;
        match (from, to) {
            (S::Idle, S::Connect) => FsmEdge::IdleConnect,
            (S::Idle, S::Active) => FsmEdge::IdleActive,
            (S::Connect, S::Active) => FsmEdge::ConnectActive,
            (S::Connect, S::OpenSent) => FsmEdge::ConnectOpenSent,
            (S::Connect, S::Idle) => FsmEdge::ConnectIdle,
            (S::Active, S::Connect) => FsmEdge::ActiveConnect,
            (S::Active, S::OpenSent) => FsmEdge::ActiveOpenSent,
            (S::Active, S::OpenConfirm) => FsmEdge::ActiveOpenConfirm,
            (S::Active, S::Idle) => FsmEdge::ActiveIdle,
            (S::OpenSent, S::OpenConfirm) => FsmEdge::OpenSentOpenConfirm,
            (S::OpenSent, S::Idle) => FsmEdge::OpenSentIdle,
            (S::OpenConfirm, S::Established) => FsmEdge::OpenConfirmEstablished,
            (S::OpenConfirm, S::Idle) => FsmEdge::OpenConfirmIdle,
            (S::Established, S::Idle) => FsmEdge::EstablishedIdle,
            _ => unreachable!("the FSM never changes {from:?} -> {to:?}"),
        }
    }
}

/// Per-peer dirty set of advertisements queued for the next flush. The
/// Adj-RIB-Out is updated eagerly at diff time; the wire lags until
/// [`Speaker`] flushes at the end of the public entry point, so N changes
/// to one prefix within a burst collapse into at most one emission.
#[derive(Debug, Default)]
struct PendingAdverts {
    /// (prefix, export path-id) → attributes to announce. Keys here are
    /// never simultaneously in `withdraw`.
    announce: BTreeMap<(Prefix, PathId), Arc<PathAttributes>>,
    /// (prefix, export path-id) pairs to withdraw.
    withdraw: BTreeSet<(Prefix, PathId)>,
}

impl PendingAdverts {
    fn is_empty(&self) -> bool {
        self.announce.is_empty() && self.withdraw.is_empty()
    }

    fn clear(&mut self) {
        self.announce.clear();
        self.withdraw.clear();
    }
}

struct Peer {
    cfg: PeerConfig,
    fsm: SessionFsm,
    adj_in: AdjRibIn,
    adj_out: PrefixTrie<BTreeMap<PathId, Arc<PathAttributes>>>,
    rx_buf: Vec<u8>,
    /// Stable export path-id per Loc-RIB route key.
    export_ids: HashMap<(Option<PeerId>, PathId), PathId>,
    next_export_id: PathId,
    pending: PendingAdverts,
    counters: Counters<PeerCounter>,
}

/// Structural events produced by the speaker.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeakerEvent {
    /// Initiate the transport toward this peer.
    TransportOpen(PeerId),
    /// Close the transport.
    TransportClose(PeerId),
    /// Arm (or re-arm) a timer for `secs` seconds.
    ArmTimer(PeerId, TimerKind, u16),
    /// Cancel a timer.
    StopTimer(PeerId, TimerKind),
    /// The session reached Established.
    SessionUp(PeerId),
    /// The session went down.
    SessionDown(PeerId, &'static str),
    /// A route passed import policy and entered the Adj-RIB-In.
    RouteLearned(PeerId, Route),
    /// A route left the Adj-RIB-In.
    RouteWithdrawn(PeerId, Prefix, PathId),
}

/// Accumulated output of one speaker call.
#[derive(Debug, Default)]
pub struct SpeakerOutput {
    /// Encoded wire bytes to transmit, in order.
    pub send: Vec<(PeerId, Vec<u8>)>,
    /// Structural events.
    pub events: Vec<SpeakerEvent>,
}

impl SpeakerOutput {
    /// Merge another output into this one.
    pub fn merge(&mut self, other: SpeakerOutput) {
        self.send.extend(other.send);
        self.events.extend(other.events);
    }
}

/// The speaker.
pub struct Speaker {
    cfg: SpeakerConfig,
    peers: BTreeMap<PeerId, Peer>,
    loc_rib: LocRib,
    local_routes: PrefixTrie<Route>,
    stamp: u64,
    /// Hash-consed attribute store: every attribute set held by the RIBs
    /// is one shared allocation per distinct value.
    attr_store: AttrStore,
    /// Intern-store GC watermark (amortized sweeping of dead entries).
    gc_watermark: usize,
    /// Fault-injection hook for the convergence oracle's self-test: when
    /// set, session re-establishment updates the Adj-RIB-Out bookkeeping
    /// but suppresses the wire replay — exactly the resync bug the oracle
    /// exists to catch. Never set outside tests.
    fault_skip_session_up_replay: bool,
    /// Observability handle: the registry every metric below and each
    /// peer's block is published in, and the journal.
    obs: Obs,
    stats: Counters<SpeakerCounter>,
    transitions: Counters<FsmEdge>,
    /// NLRI entries put on the wire by one flush.
    h_flush: Histogram,
    /// Journal every export-policy suppression (off by default: at a
    /// mid-tier AS the suppression is the steady state, so only nodes
    /// whose enforcement is under observation opt in).
    journal_export_rejects: bool,
    /// Reusable scratch: peer-id list for export fan-out (allocated once,
    /// refilled per recompute instead of collected fresh each time).
    scratch_ids: Vec<PeerId>,
    /// Reusable scratch: per-recompute export-transform memo. Keys are
    /// raw attribute pointers, so the map is cleared at the start of every
    /// recompute — entries never outlive the candidate set that keeps the
    /// pointed-at attributes alive.
    export_memo: HashMap<ExportMemoKey, Arc<PathAttributes>>,
}

/// Memo key for the per-route export transform: everything that
/// determines the transformed attribute set for an unconditional-accept
/// export policy. Two sessions sharing these fields advertise the same
/// (interned) attributes for a given source route, so the transform —
/// policy walk, copy-on-write edit, hash-consing — runs once per route
/// instead of once per peer.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct ExportMemoKey {
    /// Source attribute identity (interned ⇒ pointer equality is value
    /// equality), stored as an address so the key stays `Send`. Valid
    /// only within one recompute, while the candidate set holds the Arc
    /// alive.
    attrs: usize,
    ebgp: bool,
    transparent: bool,
    next_hop_unchanged: bool,
    local_addr: IpAddr,
}

/// Bucket bounds for the coalescing flush-size histogram (NLRI entries
/// put on the wire by one flush).
const FLUSH_NLRI_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Same route object: attribute identity (interned, so pointer equality is
/// value equality), provenance and arrival stamp. Used to prove a
/// recompute left the decision winner untouched.
fn routes_identical(a: &Route, b: &Route) -> bool {
    a.prefix == b.prefix
        && a.path_id == b.path_id
        && a.stamp == b.stamp
        && a.source == b.source
        && Arc::ptr_eq(&a.attrs, &b.attrs)
}

/// The standard eBGP export edits: prepend our ASN (unless the session is
/// route-server transparent), strip LOCAL_PREF, and apply next-hop-self
/// unless the export policy already rewrote the next hop or the peer is
/// configured next-hop-unchanged.
fn apply_ebgp_edits(
    attrs: &mut Arc<PathAttributes>,
    source_next_hop: Option<IpAddr>,
    local_asn: Asn,
    cfg: &PeerConfig,
) {
    let edited = Arc::make_mut(attrs);
    if !cfg.transparent {
        edited.as_path.prepend(local_asn, 1);
    }
    edited.local_pref = None;
    if !cfg.next_hop_unchanged && edited.next_hop == source_next_hop {
        edited.next_hop = Some(cfg.local_addr);
    }
}

impl Speaker {
    /// Create a speaker.
    pub fn new(cfg: SpeakerConfig) -> Self {
        let obs = Obs::new();
        Speaker {
            cfg,
            peers: BTreeMap::new(),
            loc_rib: LocRib::new(),
            local_routes: PrefixTrie::new(),
            stamp: 0,
            attr_store: AttrStore::new(),
            gc_watermark: 1024,
            fault_skip_session_up_replay: false,
            stats: Counters::new(&obs),
            transitions: Counters::family(&obs, "bgp.fsm_transition", "edge"),
            h_flush: Histogram::new(&obs, "bgp.flush_nlri", FLUSH_NLRI_BOUNDS),
            obs,
            journal_export_rejects: false,
            scratch_ids: Vec::new(),
            export_memo: HashMap::new(),
        }
    }

    /// Adopt a shared observability handle (replacing the speaker's
    /// private default registry): every metric moves to it, values
    /// included.
    pub fn set_obs(&mut self, obs: Obs) {
        self.stats.set_obs(&obs);
        self.transitions.set_obs(&obs);
        self.h_flush.set_obs(&obs);
        for peer in self.peers.values_mut() {
            peer.counters.set_obs(&obs);
        }
        self.obs = obs;
    }

    /// The speaker's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Enable the deliberate resync bug (skip the Adj-RIB-Out wire replay
    /// on session re-establishment). Oracle self-test only.
    pub fn set_fault_skip_session_up_replay(&mut self, on: bool) {
        self.fault_skip_session_up_replay = on;
    }

    /// Journal every export-policy suppression as an
    /// `ExportSuppressed` journal event. Off by default — at a
    /// mid-tier AS the suppression *is* the steady state, so only
    /// speakers whose enforcement surface is under observation (the
    /// adversarial-scenario nodes) should opt in. The per-peer
    /// `export_rejected` counter is maintained regardless.
    pub fn set_journal_export_rejects(&mut self, on: bool) {
        self.journal_export_rejects = on;
    }

    /// Local ASN.
    pub fn asn(&self) -> Asn {
        self.cfg.asn
    }

    /// Local router id.
    pub fn router_id(&self) -> RouterId {
        self.cfg.router_id
    }

    /// Register a peer. Ids must be unique.
    pub fn add_peer(&mut self, id: PeerId, cfg: PeerConfig) {
        // Mix the peer id into the jitter seed so sessions sharing one
        // config (and even one remote ASN) still de-synchronize.
        let timers = cfg
            .timers
            .with_jitter_seed(cfg.timers.jitter_seed ^ ((id.0 as u64 + 1) << 40));
        let fsm_cfg = FsmConfig {
            local_asn: self.cfg.asn,
            local_id: self.cfg.router_id,
            peer_asn: cfg.remote_asn,
            hold_time: cfg.hold_time,
            add_path: cfg.add_path,
            timers,
            passive: cfg.passive,
        };
        let peer = Peer {
            cfg,
            fsm: SessionFsm::new(fsm_cfg),
            adj_in: AdjRibIn::new(),
            adj_out: PrefixTrie::new(),
            rx_buf: Vec::new(),
            export_ids: HashMap::new(),
            next_export_id: 1,
            pending: PendingAdverts::default(),
            counters: Counters::labelled(&self.obs, "peer", id.0),
        };
        self.peers.insert(id, peer);
    }

    /// The hash-consed attribute store (interning stats; Fig. 6a).
    pub fn attr_store(&self) -> &AttrStore {
        &self.attr_store
    }

    /// Remove a peer entirely (used by the platform when an experiment
    /// disconnects); returns whether it existed.
    pub fn remove_peer(&mut self, id: PeerId) -> (bool, SpeakerOutput) {
        let mut out = SpeakerOutput::default();
        let existed = self.peers.contains_key(&id);
        if existed {
            self.drop_peer_routes(id, &mut out);
            self.peers.remove(&id);
            self.flush_all(&mut out);
        }
        (existed, out)
    }

    /// Session state for a peer.
    pub fn session_state(&self, id: PeerId) -> Option<FsmState> {
        self.peers.get(&id).map(|p| p.fsm.state())
    }

    /// Whether a session is Established.
    pub fn is_established(&self, id: PeerId) -> bool {
        self.session_state(id) == Some(FsmState::Established)
    }

    /// Per-peer counters.
    pub fn peer_stats(&self, id: PeerId) -> Option<&Counters<PeerCounter>> {
        self.peers.get(&id).map(|p| &p.counters)
    }

    /// Sessions dropped from Established over the speaker's lifetime, as
    /// `bgp.fsm_transition{edge=Established->Idle}` counts them.
    pub fn sessions_dropped(&self) -> u64 {
        self.transitions.get(FsmEdge::EstablishedIdle)
    }

    /// The negotiated codec context for a session.
    pub fn codec_ctx(&self, id: PeerId) -> SessionCodecCtx {
        self.peers
            .get(&id)
            .map(|p| p.fsm.codec_ctx())
            .unwrap_or_default()
    }

    /// Peer ids in deterministic order.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.peers.keys().copied().collect()
    }

    /// Access a peer's Adj-RIB-In.
    pub fn adj_rib_in(&self, id: PeerId) -> Option<&AdjRibIn> {
        self.peers.get(&id).map(|p| &p.adj_in)
    }

    /// The Loc-RIB.
    pub fn loc_rib(&self) -> &LocRib {
        &self.loc_rib
    }

    /// Replace a peer's import policy. Takes effect for routes received
    /// from now on; previously imported routes are re-evaluated on the next
    /// refresh or re-announcement (ask the peer with
    /// [`Speaker::request_route_refresh`] to force it).
    pub fn set_import_policy(&mut self, id: PeerId, import: Policy) {
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.cfg.import = import;
        }
    }

    /// Replace a peer's export policy (vBGP regenerates these as experiments
    /// connect/disconnect) and re-advertise accordingly.
    pub fn set_export_policy(&mut self, id: PeerId, export: Policy) -> SpeakerOutput {
        let mut out = SpeakerOutput::default();
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.cfg.export = export;
        }
        // Re-evaluate everything we may have advertised.
        let prefixes: Vec<Prefix> = self.loc_rib.iter().map(|(p, _)| p).collect();
        for prefix in prefixes {
            self.export_prefix_to(id, prefix);
        }
        self.flush_peer(id, &mut out);
        let attrs = self.attr_store.len() as u64;
        self.stats.set(SpeakerCounter::InternedAttrs, attrs);
        out
    }

    /// Start a peer's session.
    pub fn start_peer(&mut self, id: PeerId) -> SpeakerOutput {
        let mut out = self.drive(id, FsmEvent::ManualStart);
        self.flush_all(&mut out);
        out
    }

    /// Stop a peer's session (sends CEASE when established).
    pub fn stop_peer(&mut self, id: PeerId) -> SpeakerOutput {
        let mut out = self.drive(id, FsmEvent::ManualStop);
        self.flush_all(&mut out);
        out
    }

    /// Transport came up for a peer.
    pub fn on_transport_up(&mut self, id: PeerId) -> SpeakerOutput {
        let mut out = self.drive(id, FsmEvent::TcpConnected);
        self.flush_all(&mut out);
        out
    }

    /// Transport failed/closed.
    pub fn on_transport_down(&mut self, id: PeerId) -> SpeakerOutput {
        let mut out = self.drive(id, FsmEvent::TcpClosed);
        self.flush_all(&mut out);
        out
    }

    /// A timer armed via [`SpeakerEvent::ArmTimer`] fired.
    pub fn on_timer(&mut self, id: PeerId, kind: TimerKind) -> SpeakerOutput {
        // The stale sweep is the speaker's own timer, not an FSM input:
        // retained routes from a down session expire now.
        if kind == TimerKind::StaleSweep {
            let mut out = SpeakerOutput::default();
            self.sweep_stale_routes(id, &mut out);
            self.flush_all(&mut out);
            return out;
        }
        let mut out = self.drive(id, FsmEvent::Timer(kind));
        self.flush_all(&mut out);
        out
    }

    /// Bytes arrived from the peer's transport. Partial messages are
    /// buffered; complete ones are decoded and processed.
    pub fn on_bytes(&mut self, id: PeerId, bytes: &[u8]) -> SpeakerOutput {
        let mut out = SpeakerOutput::default();
        let Some(peer) = self.peers.get_mut(&id) else {
            return out;
        };
        peer.rx_buf.extend_from_slice(bytes);
        while let Some(peer) = self.peers.get_mut(&id) {
            let ctx = peer.fsm.codec_ctx();
            match Message::decode(&peer.rx_buf, &ctx) {
                Ok((msg, used)) => {
                    peer.rx_buf.drain(..used);
                    peer.counters.inc(PeerCounter::MsgsIn);
                    if matches!(msg, Message::Update(_)) {
                        peer.counters.inc(PeerCounter::UpdatesIn);
                    }
                    let o = self.drive(id, FsmEvent::Msg(msg));
                    out.merge(o);
                }
                Err(CodecError::Truncated) => break,
                Err(_) => {
                    // Corrupt stream: send a message-header-error
                    // NOTIFICATION (RFC 4271 §6.1) and drop the session —
                    // the paper's security engines count on sessions
                    // failing closed.
                    peer.counters.inc(PeerCounter::CodecErrors);
                    peer.rx_buf.clear();
                    let ctx = peer.fsm.codec_ctx();
                    let notify = Message::Notification(NotificationMsg::new(
                        crate::message::ERR_MSG_HEADER,
                        1, // connection not synchronized
                    ));
                    peer.counters.inc(PeerCounter::MsgsOut);
                    out.send.push((id, notify.encode(&ctx)));
                    let o = self.drive(id, FsmEvent::TcpClosed);
                    out.merge(o);
                    break;
                }
            }
        }
        self.flush_all(&mut out);
        out
    }

    /// Originate a route locally with the given attributes.
    pub fn originate(&mut self, prefix: Prefix, attrs: PathAttributes) -> SpeakerOutput {
        self.originate_many([(prefix, attrs)])
    }

    /// Originate many routes with one coalesced flush at the end.
    ///
    /// Semantically identical to calling [`Speaker::originate`] per route,
    /// but that flushes after every insertion — one UPDATE per route on the
    /// wire. Bulk feeds (a route-server member announcing its slice of a
    /// synthetic full table) want the multi-NLRI packing the flush exists
    /// for: insert and recompute everything first, then let a single flush
    /// group announcements by shared attribute set.
    pub fn originate_many(
        &mut self,
        routes: impl IntoIterator<Item = (Prefix, PathAttributes)>,
    ) -> SpeakerOutput {
        let mut out = SpeakerOutput::default();
        for (prefix, attrs) in routes {
            self.stamp += 1;
            let route = Route {
                prefix,
                path_id: 0,
                attrs: self.attr_store.intern(attrs),
                source: RouteSource::Local,
                stamp: self.stamp,
            };
            self.local_routes.insert(prefix, route);
            self.recompute(prefix);
        }
        self.flush_all(&mut out);
        out
    }

    /// Withdraw a locally-originated route.
    pub fn withdraw_origin(&mut self, prefix: Prefix) -> SpeakerOutput {
        let mut out = SpeakerOutput::default();
        if self.local_routes.remove(&prefix).is_some() {
            self.recompute(prefix);
            self.flush_all(&mut out);
        }
        out
    }

    /// Send a raw UPDATE to a specific established peer, bypassing Loc-RIB
    /// export (vBGP's mux uses this to steer announcements per neighbor).
    pub fn advertise_raw(&mut self, id: PeerId, update: UpdateMsg) -> SpeakerOutput {
        let mut out = SpeakerOutput::default();
        let Some(peer) = self.peers.get_mut(&id) else {
            return out;
        };
        if !peer.fsm.is_established() {
            return out;
        }
        let ctx = peer.fsm.codec_ctx();
        peer.counters.inc(PeerCounter::MsgsOut);
        peer.counters.inc(PeerCounter::UpdatesOut);
        out.send.push((id, Message::Update(update).encode(&ctx)));
        out
    }

    // ---- internals ----

    fn drive(&mut self, id: PeerId, event: FsmEvent) -> SpeakerOutput {
        let mut out = SpeakerOutput::default();
        let Some(peer) = self.peers.get_mut(&id) else {
            return out;
        };
        let was_established = peer.fsm.is_established();
        let state_before = peer.fsm.state();
        let actions = peer.fsm.handle(event);
        let state_after = peer.fsm.state();
        let failures = peer.fsm.consecutive_failures();
        peer.counters
            .set(PeerCounter::BackoffLevel, failures as u64);
        if state_after != state_before {
            self.transitions
                .inc(FsmEdge::between(state_before, state_after));
            self.obs.record(ObsEvent::SessionTransition {
                peer: id.0,
                from: state_before.name(),
                to: state_after.name(),
            });
            if state_after == FsmState::Idle && failures > 0 {
                self.obs.record(ObsEvent::SessionBackoff {
                    peer: id.0,
                    level: failures,
                });
            }
        }
        let mut updates = Vec::new();
        let mut refreshes = Vec::new();
        let mut session_up = false;
        let mut session_down: Option<&'static str> = None;
        for action in actions {
            match action {
                FsmAction::OpenTransport => out.events.push(SpeakerEvent::TransportOpen(id)),
                FsmAction::CloseTransport => out.events.push(SpeakerEvent::TransportClose(id)),
                FsmAction::ArmTimer(kind, secs) => {
                    out.events.push(SpeakerEvent::ArmTimer(id, kind, secs))
                }
                FsmAction::StopTimer(kind) => out.events.push(SpeakerEvent::StopTimer(id, kind)),
                FsmAction::Send(msg) => {
                    let peer = self.peers.get_mut(&id).unwrap();
                    let ctx = peer.fsm.codec_ctx();
                    peer.counters.inc(PeerCounter::MsgsOut);
                    if matches!(msg, Message::Update(_)) {
                        peer.counters.inc(PeerCounter::UpdatesOut);
                    }
                    out.send.push((id, msg.encode(&ctx)));
                }
                FsmAction::SessionUp => session_up = true,
                FsmAction::SessionDown(reason) => session_down = Some(reason),
                FsmAction::DeliverUpdate(update) => updates.push(update),
                FsmAction::DeliverRouteRefresh { afi, .. } => refreshes.push(afi),
            }
        }
        if session_up {
            out.events.push(SpeakerEvent::SessionUp(id));
            self.on_session_up(id, &mut out);
        }
        if let Some(reason) = session_down {
            out.events.push(SpeakerEvent::SessionDown(id, reason));
            if was_established {
                let retention = self
                    .peers
                    .get(&id)
                    .map(|p| p.cfg.retention_secs)
                    .unwrap_or(0);
                if retention > 0 {
                    self.retain_peer_routes(id, retention, &mut out);
                } else {
                    self.drop_peer_routes(id, &mut out);
                }
            }
        }
        for update in updates {
            self.process_update(id, update, &mut out);
        }
        for afi in refreshes {
            self.process_route_refresh(id, afi);
        }
        out
    }

    /// RFC 2918: re-send the entire Adj-RIB-Out for the requested family.
    fn process_route_refresh(&mut self, id: PeerId, afi: u16) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        // Forget what we advertised for the family so the export diff
        // re-sends everything current.
        let prefixes: Vec<Prefix> = peer
            .adj_out
            .iter()
            .map(|(p, _)| p)
            .filter(|p| match p {
                Prefix::V4 { .. } => afi == 1,
                Prefix::V6 { .. } => afi == 2,
            })
            .collect();
        for p in &prefixes {
            peer.adj_out.remove(p);
        }
        let all: Vec<Prefix> = self
            .loc_rib
            .iter()
            .map(|(p, _)| p)
            .filter(|p| match p {
                Prefix::V4 { .. } => afi == 1,
                Prefix::V6 { .. } => afi == 2,
            })
            .collect();
        for prefix in all {
            self.export_prefix_to(id, prefix);
        }
    }

    /// Ask a peer to re-send its routes (RFC 2918). Useful after a local
    /// policy change.
    pub fn request_route_refresh(&mut self, id: PeerId, afi: u16) -> SpeakerOutput {
        let mut out = SpeakerOutput::default();
        let Some(peer) = self.peers.get_mut(&id) else {
            return out;
        };
        if !peer.fsm.is_established() {
            return out;
        }
        let ctx = peer.fsm.codec_ctx();
        peer.counters.inc(PeerCounter::MsgsOut);
        out.send
            .push((id, Message::RouteRefresh { afi, safi: 1 }.encode(&ctx)));
        out
    }

    fn on_session_up(&mut self, id: PeerId, out: &mut SpeakerOutput) {
        // Advertise the current table to the new peer, then End-of-RIB.
        // (Re-establishment resynchronizes the Adj-RIB-Out from scratch: it
        // was cleared when the session dropped, so the diff below replays
        // the full table.)
        let prefixes: Vec<Prefix> = self.loc_rib.iter().map(|(p, _)| p).collect();
        let routes = prefixes.len() as u64;
        for prefix in prefixes {
            self.export_prefix_to(id, prefix);
        }
        if self.fault_skip_session_up_replay {
            // Deliberate resync bug (oracle self-test): keep the Adj-RIB-Out
            // bookkeeping but never let the replay reach the wire.
            if let Some(peer) = self.peers.get_mut(&id) {
                peer.pending.clear();
            }
        } else {
            // The initial table must hit the wire before the End-of-RIB marker.
            self.flush_peer(id, out);
            self.stats.inc(SpeakerCounter::ResyncReplays);
            self.obs
                .record(ObsEvent::ResyncReplay { peer: id.0, routes });
        }
        if let Some(peer) = self.peers.get_mut(&id) {
            let ctx = peer.fsm.codec_ctx();
            peer.counters.inc(PeerCounter::MsgsOut);
            peer.counters.inc(PeerCounter::UpdatesOut);
            out.send
                .push((id, Message::Update(UpdateMsg::end_of_rib()).encode(&ctx)));
        }
    }

    /// Session loss with retention: keep the Adj-RIB-In, marked stale, so
    /// the routes survive a brief flap; clear everything outbound so
    /// re-establishment replays a fresh Adj-RIB-Out. The armed
    /// [`TimerKind::StaleSweep`] bounds how long leftovers may linger.
    fn retain_peer_routes(&mut self, id: PeerId, retention_secs: u16, out: &mut SpeakerOutput) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        peer.rx_buf.clear();
        peer.adj_out = PrefixTrie::new();
        peer.export_ids.clear();
        peer.pending.clear();
        peer.adj_in.mark_all_stale();
        out.events.push(SpeakerEvent::ArmTimer(
            id,
            TimerKind::StaleSweep,
            retention_secs,
        ));
    }

    /// Withdraw every route still marked stale for `id` (retention deadline
    /// passed, or the re-established session's End-of-RIB said the peer is
    /// done re-announcing).
    fn sweep_stale_routes(&mut self, id: PeerId, out: &mut SpeakerOutput) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        let swept = peer.adj_in.sweep_stale();
        if swept.is_empty() {
            return;
        }
        self.note_adj_in(id);
        let mut prefixes: Vec<Prefix> = swept.iter().map(|r| r.prefix).collect();
        prefixes.sort();
        prefixes.dedup();
        for r in &swept {
            out.events
                .push(SpeakerEvent::RouteWithdrawn(id, r.prefix, r.path_id));
        }
        for prefix in prefixes {
            self.recompute(prefix);
        }
        self.attr_store.gc();
    }

    fn drop_peer_routes(&mut self, id: PeerId, out: &mut SpeakerOutput) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        peer.rx_buf.clear();
        peer.adj_out = PrefixTrie::new();
        peer.export_ids.clear();
        peer.pending.clear();
        let dropped = peer.adj_in.clear();
        self.note_adj_in(id);
        let mut prefixes: Vec<Prefix> = dropped.iter().map(|r| r.prefix).collect();
        prefixes.sort();
        prefixes.dedup();
        for r in &dropped {
            out.events
                .push(SpeakerEvent::RouteWithdrawn(id, r.prefix, r.path_id));
        }
        for prefix in prefixes {
            self.recompute(prefix);
        }
        self.attr_store.gc();
    }

    fn process_update(&mut self, id: PeerId, mut update: UpdateMsg, out: &mut SpeakerOutput) {
        if update.is_end_of_rib() {
            // The peer finished (re-)announcing: any retained route it did
            // not refresh is gone for real. The retention timer becomes
            // redundant once the sweep runs here.
            let retained = self
                .peers
                .get(&id)
                .is_some_and(|p| p.cfg.retention_secs > 0);
            if retained {
                self.sweep_stale_routes(id, out);
                out.events
                    .push(SpeakerEvent::StopTimer(id, TimerKind::StaleSweep));
            }
            return;
        }
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        let negotiated = *peer.fsm.negotiated();
        let ebgp = peer.cfg.remote_asn != self.cfg.asn;
        let mut touched: Vec<Prefix> = Vec::new();
        // Every NLRI in the update shares one attribute set: intern it once
        // so all resulting Adj-RIB-In entries share one allocation. The
        // message is ours, so move the attributes out instead of cloning.
        let shared_attrs = update.attrs.take().map(|a| self.attr_store.intern(a));

        for (prefix, path_id) in &update.withdrawn {
            let peer = self.peers.get_mut(&id).unwrap();
            let removed = match path_id {
                Some(pid) => peer.adj_in.remove(prefix, *pid).into_iter().collect(),
                None => peer.adj_in.remove_prefix(prefix),
            };
            for r in removed {
                out.events
                    .push(SpeakerEvent::RouteWithdrawn(id, r.prefix, r.path_id));
                touched.push(r.prefix);
            }
        }

        if let Some(attrs) = &shared_attrs {
            for (prefix, path_id) in &update.announce {
                let peer = self.peers.get_mut(&id).unwrap();
                let path_id = path_id.unwrap_or(0);
                // Loop detection on eBGP sessions.
                if ebgp && !peer.cfg.allow_own_asn_in && attrs.as_path.contains(self.cfg.asn) {
                    peer.counters.inc(PeerCounter::LoopRejected);
                    continue;
                }
                self.stamp += 1;
                let candidate = Route {
                    prefix: *prefix,
                    path_id,
                    attrs: Arc::clone(attrs),
                    source: RouteSource::Peer {
                        peer: id,
                        ebgp,
                        router_id: negotiated.peer_id,
                        addr: peer.cfg.remote_addr,
                    },
                    stamp: self.stamp,
                };
                match peer.cfg.import.evaluate(&candidate) {
                    Some(imported_attrs) => {
                        let mut imported = candidate;
                        imported.attrs = self.attr_store.intern_arc(imported_attrs);
                        // Replacing an existing path keeps the old stamp so
                        // re-announcement does not look "newer" to decision.
                        if let Some(old) = peer.adj_in.insert(imported.clone()) {
                            peer.counters.inc(PeerCounter::AddpathDups);
                            let refreshed = Route {
                                stamp: old.stamp,
                                ..imported.clone()
                            };
                            peer.adj_in.insert(refreshed.clone());
                            out.events.push(SpeakerEvent::RouteLearned(id, refreshed));
                        } else {
                            out.events.push(SpeakerEvent::RouteLearned(id, imported));
                        }
                        touched.push(*prefix);
                    }
                    None => {
                        peer.counters.inc(PeerCounter::ImportRejected);
                        // An import-rejected re-announcement implicitly
                        // withdraws any previously accepted path.
                        if peer.adj_in.remove(prefix, path_id).is_some() {
                            out.events
                                .push(SpeakerEvent::RouteWithdrawn(id, *prefix, path_id));
                            touched.push(*prefix);
                        }
                    }
                }
            }
        }

        self.note_adj_in(id);
        touched.sort();
        touched.dedup();
        for prefix in touched {
            self.recompute(prefix);
        }
        // Amortized sweep of interned sets that churn has orphaned.
        if self.attr_store.len() >= self.gc_watermark {
            self.attr_store.gc();
            self.gc_watermark = (self.attr_store.len() * 2).max(1024);
        }
    }

    fn recompute(&mut self, prefix: Prefix) {
        let mut candidates: Vec<Route> = Vec::new();
        if let Some(local) = self.local_routes.get(&prefix) {
            candidates.push(local.clone());
        }
        for peer in self.peers.values() {
            candidates.extend(peer.adj_in.paths(&prefix).cloned());
        }
        sort_candidates(&mut candidates);
        let (old_best, new_best) = self.loc_rib.set_candidates(prefix, candidates.clone());
        // If the decision winner is the exact same route object as before
        // (attribute identity, source, stamp), every best-only export is a
        // provable no-op: identical inputs reproduce the identical desired
        // set, so the diff against Adj-RIB-Out is empty. Skipping them
        // collapses the dominant convergence fan-out — during mesh
        // flooding most arrivals add a losing candidate without moving the
        // best. All-paths peers still see the full candidate set change.
        let best_unchanged = match (&old_best, &new_best) {
            (None, None) => true,
            (Some(a), Some(b)) => routes_identical(a, b),
            _ => false,
        };
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        ids.extend(self.peers.keys().copied());
        let mut memo = std::mem::take(&mut self.export_memo);
        memo.clear();
        for &id in &ids {
            self.export_prefix_with(id, prefix, &candidates, best_unchanged, &mut memo);
        }
        self.scratch_ids = ids;
        self.export_memo = memo;
    }

    /// Queue for the next flush the delta between what `id` should see
    /// for `prefix` and what we previously advertised.
    fn export_prefix_to(&mut self, id: PeerId, prefix: Prefix) {
        let candidates: Vec<Route> = self.loc_rib.candidates(&prefix).to_vec();
        let mut memo = std::mem::take(&mut self.export_memo);
        memo.clear();
        self.export_prefix_with(id, prefix, &candidates, false, &mut memo);
        self.export_memo = memo;
    }

    /// [`Self::export_prefix_to`] with the candidate set and transform
    /// memo supplied by the caller: a recompute fanning one prefix out to
    /// every peer collects candidates once and runs each distinct export
    /// transform — policy walk, copy-on-write edit, hash-consing — once
    /// per route instead of once per peer (see [`ExportMemoKey`]).
    fn export_prefix_with(
        &mut self,
        id: PeerId,
        prefix: Prefix,
        candidates: &[Route],
        best_unchanged: bool,
        memo: &mut HashMap<ExportMemoKey, Arc<PathAttributes>>,
    ) {
        let Some(peer) = self.peers.get(&id) else {
            return;
        };
        if !peer.fsm.is_established() {
            return;
        }
        // A best-only peer's desired set is a pure function of the (same)
        // winning route and the (same) session config — recomputing it
        // would diff to nothing.
        if best_unchanged && peer.cfg.mode == AdvertiseMode::BestOnly {
            return;
        }
        // Feed-only sessions (reject-all export, nothing previously
        // advertised for this prefix) skip candidate collection and policy
        // evaluation outright. A route server carrying a full table for
        // hundreds of members would otherwise spend O(prefixes × members)
        // in this function computing empty advertisement sets.
        if peer.cfg.export.is_reject_all() && peer.adj_out.get(&prefix).is_none() {
            return;
        }
        let mode = peer.cfg.mode;
        let ebgp = peer.cfg.remote_asn != self.cfg.asn;
        // BestOnly considers exactly the decision winner (and advertises
        // nothing when the winner is filtered) — never the runner-up.
        let cands: &[Route] = match mode {
            AdvertiseMode::BestOnly => &candidates[..candidates.len().min(1)],
            AdvertiseMode::AllPaths => candidates,
        };

        // Desired advertisement set: path-id -> interned attrs.
        let mut desired: BTreeMap<PathId, Arc<PathAttributes>> = BTreeMap::new();
        {
            let peer = self.peers.get_mut(&id).unwrap();
            let use_add_path = peer.fsm.codec_ctx().add_path_v4 || peer.fsm.codec_ctx().add_path_v6;
            let memoizable = peer.cfg.export.is_pure_filter();
            for route in cands {
                // Split horizon: never advertise a route back to its source.
                if route.source.peer() == Some(id) {
                    continue;
                }
                // Sender-side loop avoidance on eBGP.
                if ebgp && route.attrs.as_path.contains(peer.cfg.remote_asn) {
                    continue;
                }
                let attrs = if memoizable {
                    // Pure-filter export: decide per peer (cheap walk, no
                    // route clone), but the accepted transform is fully
                    // determined by the memo key, so equal sessions reuse
                    // one computation (and one interned allocation).
                    if !peer.cfg.export.accepts(route) {
                        peer.counters.inc(PeerCounter::ExportRejected);
                        if self.journal_export_rejects {
                            self.obs.record(ObsEvent::ExportSuppressed { peer: id.0 });
                        }
                        continue;
                    }
                    let key = ExportMemoKey {
                        attrs: Arc::as_ptr(&route.attrs) as usize,
                        ebgp,
                        transparent: peer.cfg.transparent,
                        next_hop_unchanged: peer.cfg.next_hop_unchanged,
                        local_addr: peer.cfg.local_addr,
                    };
                    if let Some(hit) = memo.get(&key) {
                        Arc::clone(hit)
                    } else {
                        let mut attrs = Arc::clone(&route.attrs);
                        if ebgp {
                            apply_ebgp_edits(
                                &mut attrs,
                                route.attrs.next_hop,
                                self.cfg.asn,
                                &peer.cfg,
                            );
                        }
                        // Re-intern so equal exports share one allocation,
                        // and so pointer equality below means value
                        // equality.
                        let attrs = self.attr_store.intern_arc(attrs);
                        memo.insert(key, Arc::clone(&attrs));
                        attrs
                    }
                } else {
                    let Some(mut attrs) = peer.cfg.export.evaluate(route) else {
                        peer.counters.inc(PeerCounter::ExportRejected);
                        if self.journal_export_rejects {
                            self.obs.record(ObsEvent::ExportSuppressed { peer: id.0 });
                        }
                        continue;
                    };
                    if ebgp {
                        apply_ebgp_edits(&mut attrs, route.attrs.next_hop, self.cfg.asn, &peer.cfg);
                    }
                    // Re-intern so equal exports (e.g. one route fanned out
                    // to many experiment sessions) share one allocation, and
                    // so pointer equality below means value equality.
                    self.attr_store.intern_arc(attrs)
                };
                let export_id = if use_add_path && mode == AdvertiseMode::AllPaths {
                    let key = (route.source.peer(), route.path_id);
                    if let Some(&eid) = peer.export_ids.get(&key) {
                        eid
                    } else {
                        let eid = peer.next_export_id;
                        peer.next_export_id += 1;
                        peer.export_ids.insert(key, eid);
                        eid
                    }
                } else {
                    0
                };
                desired.insert(export_id, attrs);
                if mode == AdvertiseMode::BestOnly {
                    break;
                }
            }
        }

        // Diff against adj-out (the previously *desired* state; the wire
        // lags it until the flush). Take (not clone) it: it is either
        // replaced by `desired` below or dropped, so cloning the map per
        // export call would be pure overhead.
        let peer = self.peers.get_mut(&id).unwrap();
        let current: BTreeMap<PathId, Arc<PathAttributes>> =
            peer.adj_out.remove(&prefix).unwrap_or_default();
        for pid in current.keys() {
            if !desired.contains_key(pid) {
                peer.pending.announce.remove(&(prefix, *pid));
                peer.pending.withdraw.insert((prefix, *pid));
            }
        }
        for (pid, attrs) in &desired {
            // Both sides are interned, so pointer equality is value
            // equality (stale entries stay live in the store while the
            // Adj-RIB-Out holds them).
            if !current.get(pid).is_some_and(|cur| Arc::ptr_eq(cur, attrs)) {
                peer.pending.withdraw.remove(&(prefix, *pid));
                peer.pending
                    .announce
                    .insert((prefix, *pid), Arc::clone(attrs));
            }
        }
        if !desired.is_empty() {
            peer.adj_out.insert(prefix, desired);
        }
    }

    /// Flush one peer's pending dirty set as packed multi-NLRI UPDATEs:
    /// withdrawals first (one message), then announcements grouped by
    /// shared attribute set, each split as needed to fit the 4096-byte
    /// message limit.
    fn flush_peer(&mut self, id: PeerId, out: &mut SpeakerOutput) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        if peer.pending.is_empty() {
            return;
        }
        if !peer.fsm.is_established() {
            peer.pending.clear();
            return;
        }
        let ctx = peer.fsm.codec_ctx();
        let nlri = |p: Prefix, pid: PathId| {
            let add_path = match p {
                Prefix::V4 { .. } => ctx.add_path_v4,
                Prefix::V6 { .. } => ctx.add_path_v6,
            };
            (p, add_path.then_some(pid))
        };
        let withdraw = std::mem::take(&mut peer.pending.withdraw);
        let announce = std::mem::take(&mut peer.pending.announce);
        self.h_flush
            .observe((withdraw.len() + announce.len()) as u64);

        let mut msgs: Vec<UpdateMsg> = Vec::new();
        if !withdraw.is_empty() {
            let entries = withdraw.iter().map(|&(p, pid)| nlri(p, pid)).collect();
            push_chunked(&mut msgs, UpdateMsg::withdraw(entries), &ctx);
        }
        // Group announcements by attribute identity (interned, so pointer
        // identity suffices) AND address family, preserving
        // first-appearance order. The family split matters: one UPDATE
        // carries a single next-hop per family slot (classic NEXT_HOP for
        // v4, MP_REACH for v6), so packing both families under one shared
        // attribute set would ship the wrong next-hop to one of them.
        type AttrGroup = (Arc<PathAttributes>, Vec<(Prefix, Option<PathId>)>);
        let mut groups: Vec<AttrGroup> = Vec::new();
        let mut index: HashMap<(*const PathAttributes, bool), usize> = HashMap::new();
        for (&(p, pid), attrs) in &announce {
            let v6 = matches!(p, Prefix::V6 { .. });
            let slot = *index.entry((Arc::as_ptr(attrs), v6)).or_insert_with(|| {
                groups.push((Arc::clone(attrs), Vec::new()));
                groups.len() - 1
            });
            groups[slot].1.push(nlri(p, pid));
        }
        for (attrs, entries) in groups {
            push_chunked(
                &mut msgs,
                UpdateMsg::announce(entries, (*attrs).clone()),
                &ctx,
            );
        }
        for msg in msgs {
            peer.counters.inc(PeerCounter::MsgsOut);
            peer.counters.inc(PeerCounter::UpdatesOut);
            out.send.push((id, Message::Update(msg).encode(&ctx)));
        }
    }

    /// Flush every peer's pending advertisements (deterministic order).
    /// Every entry point that can intern or collect attribute sets ends
    /// here or in [`Speaker::set_export_policy`], so both set
    /// `bgp.interned_attrs`.
    fn flush_all(&mut self, out: &mut SpeakerOutput) {
        let ids: Vec<PeerId> = self.peers.keys().copied().collect();
        for id in ids {
            self.flush_peer(id, out);
        }
        let attrs = self.attr_store.len() as u64;
        self.stats.set(SpeakerCounter::InternedAttrs, attrs);
    }

    /// Set `bgp.adj_in_paths{peer=id}` and the total after `id`'s
    /// Adj-RIB-In changed.
    fn note_adj_in(&mut self, id: PeerId) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return;
        };
        let paths = peer.adj_in.path_count as u64;
        let before = peer.counters.get(PeerCounter::AdjInPaths);
        peer.counters.set(PeerCounter::AdjInPaths, paths);
        let total = self.stats.get(SpeakerCounter::AdjInPathsTotal) - before + paths;
        self.stats.set(SpeakerCounter::AdjInPathsTotal, total);
    }

    /// Number of routes held across all Adj-RIBs-In (Fig. 6a's x-axis).
    pub fn total_adj_in_paths(&self) -> usize {
        self.peers.values().map(|p| p.adj_in.path_count).sum()
    }

    /// Approximate memory footprint of all RIBs, in bytes (Fig. 6a's
    /// y-axis): Adj-RIB-In + Loc-RIB candidates + Adj-RIB-Out entries.
    /// Attribute bodies are hash-consed, so each distinct set is charged
    /// once no matter how many RIB views reference it.
    pub fn rib_memory_bytes(&self) -> usize {
        let mut seen: std::collections::HashSet<*const PathAttributes> =
            std::collections::HashSet::new();
        let mut bytes = 0;
        let mut charge = |attrs: &Arc<PathAttributes>, bytes: &mut usize| {
            if seen.insert(Arc::as_ptr(attrs)) {
                *bytes += crate::rib::attr_body_bytes(attrs);
            }
        };
        for peer in self.peers.values() {
            for route in peer.adj_in.iter() {
                bytes += crate::rib::route_overhead_bytes();
                charge(&route.attrs, &mut bytes);
            }
            for (_, m) in peer.adj_out.iter() {
                bytes += 48 + m.len() * 40;
                for attrs in m.values() {
                    charge(attrs, &mut bytes);
                }
            }
        }
        for (_, candidates) in self.loc_rib.iter() {
            for route in candidates {
                bytes += crate::rib::route_overhead_bytes();
                charge(&route.attrs, &mut bytes);
            }
        }
        bytes
    }

    /// What the same tables would cost with per-route owned attribute
    /// copies (the pre-interning layout) — the Fig. 6a baseline.
    pub fn naive_rib_memory_bytes(&self) -> usize {
        let mut bytes = 0;
        for peer in self.peers.values() {
            for route in peer.adj_in.iter() {
                bytes += crate::rib::route_memory_bytes(route);
            }
            for (_, m) in peer.adj_out.iter() {
                bytes += 48 + m.len() * 64;
                for attrs in m.values() {
                    bytes += crate::rib::attr_body_bytes(attrs);
                }
            }
        }
        for (_, candidates) in self.loc_rib.iter() {
            for route in candidates {
                bytes += crate::rib::route_memory_bytes(route);
            }
        }
        bytes
    }

    /// Snapshot of a peer's Adj-RIB-Out as `(prefix, [(path-id, attrs)])`
    /// in deterministic order (differential-testing observability).
    pub fn adj_rib_out_snapshot(&self, id: PeerId) -> Vec<(Prefix, Vec<(PathId, PathAttributes)>)> {
        let Some(peer) = self.peers.get(&id) else {
            return Vec::new();
        };
        let mut entries: Vec<(Prefix, Vec<(PathId, PathAttributes)>)> = peer
            .adj_out
            .iter()
            .map(|(p, m)| (p, m.iter().map(|(pid, a)| (*pid, (**a).clone())).collect()))
            .collect();
        entries.sort_by_key(|(p, _)| *p);
        entries
    }

    /// Snapshot of a peer's Adj-RIB-In as `(prefix, [(path-id, attrs)])` in
    /// deterministic order (convergence-oracle observability).
    pub fn adj_rib_in_snapshot(&self, id: PeerId) -> Vec<(Prefix, Vec<(PathId, PathAttributes)>)> {
        let Some(peer) = self.peers.get(&id) else {
            return Vec::new();
        };
        let mut by_prefix: BTreeMap<Prefix, Vec<(PathId, PathAttributes)>> = BTreeMap::new();
        for route in peer.adj_in.iter() {
            by_prefix
                .entry(route.prefix)
                .or_default()
                .push((route.path_id, (*route.attrs).clone()));
        }
        for paths in by_prefix.values_mut() {
            paths.sort_by_key(|(pid, _)| *pid);
        }
        by_prefix.into_iter().collect()
    }

    /// Number of retained (stale) paths for a peer.
    pub fn stale_path_count(&self, id: PeerId) -> usize {
        self.peers.get(&id).map_or(0, |p| p.adj_in.stale_count())
    }

    /// What the import pipeline would do with an announcement of `attrs`
    /// for `prefix` from peer `id`: `None` if the AS-path loop check or the
    /// import policy rejects it, otherwise the post-import attributes.
    /// Convergence-oracle support: the oracle compares one side's
    /// Adj-RIB-Out against the other side's Adj-RIB-In, and legitimate
    /// differences (loop drops, next-hop rewrites, local-pref stamping)
    /// are exactly what this function predicts.
    pub fn would_accept(
        &self,
        id: PeerId,
        prefix: Prefix,
        path_id: PathId,
        attrs: &PathAttributes,
    ) -> Option<PathAttributes> {
        let peer = self.peers.get(&id)?;
        let ebgp = peer.cfg.remote_asn != self.cfg.asn;
        if ebgp && !peer.cfg.allow_own_asn_in && attrs.as_path.contains(self.cfg.asn) {
            return None;
        }
        let negotiated = *peer.fsm.negotiated();
        let candidate = Route {
            prefix,
            path_id,
            attrs: Arc::new(attrs.clone()),
            source: RouteSource::Peer {
                peer: id,
                ebgp,
                router_id: negotiated.peer_id,
                addr: peer.cfg.remote_addr,
            },
            stamp: 0,
        };
        peer.cfg.import.evaluate(&candidate).map(|a| (*a).clone())
    }
}

/// Append `msg` to `msgs`, recursively halving its NLRI list until each
/// piece encodes within [`MAX_MESSAGE_LEN`].
fn push_chunked(msgs: &mut Vec<UpdateMsg>, msg: UpdateMsg, ctx: &SessionCodecCtx) {
    let nlri_count = msg.withdrawn.len().max(msg.announce.len());
    if nlri_count <= 1 || Message::Update(msg.clone()).encode(ctx).len() <= MAX_MESSAGE_LEN {
        msgs.push(msg);
        return;
    }
    let mid = nlri_count / 2;
    if msg.announce.is_empty() {
        let (a, b) = msg.withdrawn.split_at(mid);
        push_chunked(msgs, UpdateMsg::withdraw(a.to_vec()), ctx);
        push_chunked(msgs, UpdateMsg::withdraw(b.to_vec()), ctx);
    } else {
        let attrs = msg.attrs.clone().unwrap_or_default();
        let (a, b) = msg.announce.split_at(mid);
        push_chunked(msgs, UpdateMsg::announce(a.to_vec(), attrs.clone()), ctx);
        push_chunked(msgs, UpdateMsg::announce(b.to_vec(), attrs), ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::policy::Verdict;
    use crate::types::prefix;
    use std::collections::VecDeque;

    /// In-memory multi-speaker harness: wires (speaker, peer-id) endpoints
    /// together and delivers bytes until the network is quiet.
    struct Harness {
        speakers: Vec<Speaker>,
        links: HashMap<(usize, u32), (usize, u32)>,
        queue: VecDeque<(usize, PeerId, Vec<u8>)>,
        transports_up: Vec<(usize, u32)>,
    }

    impl Harness {
        fn new(speakers: Vec<Speaker>) -> Self {
            Harness {
                speakers,
                links: HashMap::new(),
                queue: VecDeque::new(),
                transports_up: Vec::new(),
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

        fn run(&mut self) {
            let mut steps = 0;
            while let Some((di, pid, bytes)) = self.queue.pop_front() {
                let out = self.speakers[di].on_bytes(pid, &bytes);
                self.process(di, out);
                steps += 1;
                assert!(steps < 100_000, "harness livelock");
            }
        }

        fn start(&mut self, idx: usize, pid: u32) {
            let out = self.speakers[idx].start_peer(PeerId(pid));
            self.process(idx, out);
            self.run();
        }

        fn originate(&mut self, idx: usize, p: Prefix, attrs: PathAttributes) {
            let out = self.speakers[idx].originate(p, attrs);
            self.process(idx, out);
            self.run();
        }

        fn withdraw(&mut self, idx: usize, p: Prefix) {
            let out = self.speakers[idx].withdraw_origin(p);
            self.process(idx, out);
            self.run();
        }
    }

    fn speaker(asn: u32, id: u32) -> Speaker {
        Speaker::new(SpeakerConfig {
            asn: Asn(asn),
            router_id: RouterId(id),
        })
    }

    fn addr(n: u32) -> IpAddr {
        format!("10.0.{}.{}", n / 256, n % 256).parse().unwrap()
    }

    /// Two speakers, one session. Returns harness; session ids are 0/0.
    fn pair(add_path: bool) -> Harness {
        let a = speaker(100, 1);
        let b = speaker(200, 2);
        let mut h = Harness::new(vec![a, b]);
        h.link(0, 0, 1, 0);
        let mut cfg_a = PeerConfig::ebgp(Asn(200), addr(2), addr(1));
        let mut cfg_b = PeerConfig::ebgp(Asn(100), addr(1), addr(2)).with_passive();
        if add_path {
            cfg_a = cfg_a.with_all_paths();
            cfg_b = cfg_b.with_all_paths();
        }
        h.speakers[0].add_peer(PeerId(0), cfg_a);
        h.speakers[1].add_peer(PeerId(0), cfg_b);
        h.start(1, 0);
        h.start(0, 0);
        assert!(h.speakers[0].is_established(PeerId(0)));
        assert!(h.speakers[1].is_established(PeerId(0)));
        h
    }

    #[test]
    fn establish_and_propagate_route() {
        let mut h = pair(false);
        h.originate(
            0,
            prefix("184.164.224.0/24"),
            PathAttributes::originated(addr(1)),
        );
        let best = h.speakers[1]
            .loc_rib()
            .best(&prefix("184.164.224.0/24"))
            .unwrap();
        assert_eq!(best.attrs.as_path.asns(), vec![Asn(100)]);
        assert_eq!(best.attrs.next_hop, Some(addr(1)));
        assert_eq!(h.speakers[1].total_adj_in_paths(), 1);
    }

    #[test]
    fn withdraw_propagates() {
        let mut h = pair(false);
        let p = prefix("184.164.224.0/24");
        h.originate(0, p, PathAttributes::originated(addr(1)));
        assert!(h.speakers[1].loc_rib().best(&p).is_some());
        h.withdraw(0, p);
        assert!(h.speakers[1].loc_rib().best(&p).is_none());
        assert_eq!(h.speakers[1].total_adj_in_paths(), 0);
    }

    #[test]
    fn routes_learned_before_session_are_advertised_on_up() {
        let a = speaker(100, 1);
        let b = speaker(200, 2);
        let mut h = Harness::new(vec![a, b]);
        h.link(0, 0, 1, 0);
        h.speakers[0].add_peer(PeerId(0), PeerConfig::ebgp(Asn(200), addr(2), addr(1)));
        h.speakers[1].add_peer(
            PeerId(0),
            PeerConfig::ebgp(Asn(100), addr(1), addr(2)).with_passive(),
        );
        let out =
            h.speakers[0].originate(prefix("10.10.0.0/16"), PathAttributes::originated(addr(1)));
        h.process(0, out);
        h.run();
        h.start(1, 0);
        h.start(0, 0);
        assert!(h.speakers[1]
            .loc_rib()
            .best(&prefix("10.10.0.0/16"))
            .is_some());
    }

    #[test]
    fn session_down_flushes_learned_routes() {
        let mut h = pair(false);
        h.originate(
            0,
            prefix("10.10.0.0/16"),
            PathAttributes::originated(addr(1)),
        );
        assert_eq!(h.speakers[1].loc_rib().prefix_count(), 1);
        let out = h.speakers[1].on_transport_down(PeerId(0));
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, SpeakerEvent::SessionDown(_, _))));
        assert_eq!(h.speakers[1].loc_rib().prefix_count(), 0);
        assert_eq!(h.speakers[1].total_adj_in_paths(), 0);
    }

    #[test]
    fn loop_detection_sender_side_suppresses() {
        // Sender-side avoidance: a never exports a path containing b's ASN.
        let mut h = pair(false);
        let mut attrs = PathAttributes::originated(addr(1));
        attrs.as_path = AsPath::from_asns(&[Asn(200)]); // poison b's ASN
        h.originate(0, prefix("10.66.0.0/16"), attrs);
        assert!(h.speakers[1]
            .loc_rib()
            .best(&prefix("10.66.0.0/16"))
            .is_none());
        assert_eq!(h.speakers[1].total_adj_in_paths(), 0);
        // Only the End-of-RIB from session establishment arrived.
        assert_eq!(
            h.speakers[1]
                .peer_stats(PeerId(0))
                .unwrap()
                .get(PeerCounter::UpdatesIn),
            1
        );
    }

    #[test]
    fn loop_detection_receiver_side_rejects() {
        // Receiver-side detection: a raw update (bypassing export filters)
        // whose AS path contains the receiver's own ASN is discarded.
        let mut h = pair(false);
        let mut attrs = PathAttributes::originated(addr(1));
        attrs.as_path = AsPath::from_asns(&[Asn(100), Asn(200)]);
        let update = UpdateMsg::announce(vec![(prefix("10.66.0.0/16"), None)], attrs);
        let out = h.speakers[0].advertise_raw(PeerId(0), update);
        h.process(0, out);
        h.run();
        assert!(h.speakers[1]
            .loc_rib()
            .best(&prefix("10.66.0.0/16"))
            .is_none());
        assert_eq!(
            h.speakers[1]
                .peer_stats(PeerId(0))
                .unwrap()
                .get(PeerCounter::LoopRejected),
            1
        );
    }

    #[test]
    fn import_policy_rejects() {
        use crate::policy::{Match, Rule};
        let mut h = pair(false);
        let import = Policy::new(
            vec![Rule::reject(Match::PrefixIn {
                within: prefix("10.0.0.0/8"),
                ge: 8,
                le: 32,
            })],
            Verdict::Accept,
        );
        h.speakers[1].peers.get_mut(&PeerId(0)).unwrap().cfg.import = import;
        h.originate(
            0,
            prefix("10.1.0.0/16"),
            PathAttributes::originated(addr(1)),
        );
        h.originate(
            0,
            prefix("172.16.0.0/16"),
            PathAttributes::originated(addr(1)),
        );
        assert!(h.speakers[1]
            .loc_rib()
            .best(&prefix("10.1.0.0/16"))
            .is_none());
        assert!(h.speakers[1]
            .loc_rib()
            .best(&prefix("172.16.0.0/16"))
            .is_some());
        assert_eq!(
            h.speakers[1]
                .peer_stats(PeerId(0))
                .unwrap()
                .get(PeerCounter::ImportRejected),
            1
        );
    }

    #[test]
    fn export_policy_transforms_on_export() {
        use crate::policy::{Action, Match, Rule};
        let mut h = pair(false);
        let export = Policy::new(
            vec![Rule::transform(
                Match::Any,
                vec![Action::Prepend(Asn(100), 3)],
            )],
            Verdict::Accept,
        );
        let out = h.speakers[0].set_export_policy(PeerId(0), export);
        h.process(0, out);
        h.run();
        h.originate(
            0,
            prefix("184.164.224.0/24"),
            PathAttributes::originated(addr(1)),
        );
        let best = h.speakers[1]
            .loc_rib()
            .best(&prefix("184.164.224.0/24"))
            .unwrap();
        // 3 prepends + the normal eBGP prepend = path length 4.
        assert_eq!(best.attrs.as_path.path_len(), 4);
    }

    /// Hub-and-spokes: c1, c2 announce to hub; hub relays all paths to x.
    fn hub_topology() -> Harness {
        let hub = speaker(47065, 10);
        let c1 = speaker(101, 11);
        let c2 = speaker(102, 12);
        let x = speaker(61574, 13);
        let mut h = Harness::new(vec![hub, c1, c2, x]);
        h.link(0, 0, 1, 0);
        h.link(0, 1, 2, 0);
        h.link(0, 2, 3, 0);
        h.speakers[0].add_peer(PeerId(0), PeerConfig::ebgp(Asn(101), addr(11), addr(10)));
        h.speakers[0].add_peer(PeerId(1), PeerConfig::ebgp(Asn(102), addr(12), addr(10)));
        h.speakers[0].add_peer(
            PeerId(2),
            PeerConfig::ebgp(Asn(61574), addr(13), addr(10)).with_all_paths(),
        );
        h.speakers[1].add_peer(
            PeerId(0),
            PeerConfig::ebgp(Asn(47065), addr(10), addr(11)).with_passive(),
        );
        h.speakers[2].add_peer(
            PeerId(0),
            PeerConfig::ebgp(Asn(47065), addr(10), addr(12)).with_passive(),
        );
        h.speakers[3].add_peer(
            PeerId(0),
            PeerConfig::ebgp(Asn(47065), addr(10), addr(13))
                .with_all_paths()
                .with_passive(),
        );
        for i in 1..4 {
            h.start(i, 0);
        }
        for pid in 0..3 {
            h.start(0, pid);
        }
        h
    }

    #[test]
    fn add_path_advertises_all_candidates() {
        let mut h = hub_topology();
        assert!(h.speakers[3].codec_ctx(PeerId(0)).add_path_v4);
        let p = prefix("192.168.0.0/24");
        h.originate(1, p, PathAttributes::originated(addr(11)));
        h.originate(2, p, PathAttributes::originated(addr(12)));
        assert_eq!(h.speakers[0].loc_rib().candidates(&p).len(), 2);
        let candidates = h.speakers[3].loc_rib().candidates(&p);
        assert_eq!(candidates.len(), 2, "x should see both paths via ADD-PATH");
        let origins: Vec<Option<Asn>> = candidates
            .iter()
            .map(|r| r.attrs.as_path.origin_as())
            .collect();
        assert!(origins.contains(&Some(Asn(101))));
        assert!(origins.contains(&Some(Asn(102))));
        // Distinct path ids on the wire.
        assert_ne!(candidates[0].path_id, candidates[1].path_id);
    }

    #[test]
    fn add_path_withdraw_removes_one_path() {
        let mut h = hub_topology();
        let p = prefix("192.168.0.0/24");
        h.originate(1, p, PathAttributes::originated(addr(11)));
        h.originate(2, p, PathAttributes::originated(addr(12)));
        assert_eq!(h.speakers[3].loc_rib().candidates(&p).len(), 2);
        h.withdraw(1, p);
        let candidates = h.speakers[3].loc_rib().candidates(&p);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].attrs.as_path.origin_as(), Some(Asn(102)));
    }

    #[test]
    fn best_only_peer_sees_single_path() {
        let mut h = hub_topology();
        let p = prefix("192.168.0.0/24");
        h.originate(1, p, PathAttributes::originated(addr(11)));
        h.originate(2, p, PathAttributes::originated(addr(12)));
        // c2 is a BestOnly peer of the hub: it learns exactly one path (not
        // its own, due to split horizon: it learns c1's). Its Loc-RIB also
        // holds its own origination, hence 2 candidates but 1 learned.
        assert_eq!(h.speakers[2].total_adj_in_paths(), 1);
        let learned: Vec<&Route> = h.speakers[2]
            .loc_rib()
            .candidates(&p)
            .iter()
            .filter(|r| r.source.peer().is_some())
            .collect();
        assert_eq!(learned.len(), 1);
        assert_eq!(learned[0].attrs.as_path.origin_as(), Some(Asn(101)));
    }

    #[test]
    fn best_path_switch_readvertises() {
        let mut h = hub_topology();
        let p = prefix("192.168.0.0/24");
        // c2 announces with a longer path first -> c1's route (shorter) wins
        // when it arrives; x's best must track hub's best ordering.
        let mut long = PathAttributes::originated(addr(12));
        long.as_path = AsPath::from_asns(&[Asn(900), Asn(901)]);
        h.originate(2, p, long);
        let best = h.speakers[0].loc_rib().best(&p).unwrap().clone();
        assert_eq!(best.attrs.as_path.origin_as(), Some(Asn(901)));
        h.originate(1, p, PathAttributes::originated(addr(11)));
        let best = h.speakers[0].loc_rib().best(&p).unwrap().clone();
        assert_eq!(best.attrs.as_path.origin_as(), Some(Asn(101)));
    }

    #[test]
    fn route_propagation_is_transitive() {
        // a(100) -- b(200) -- c(300).
        let a = speaker(100, 1);
        let b = speaker(200, 2);
        let c = speaker(300, 3);
        let mut h = Harness::new(vec![a, b, c]);
        h.link(0, 0, 1, 0);
        h.link(1, 1, 2, 0);
        h.speakers[0].add_peer(PeerId(0), PeerConfig::ebgp(Asn(200), addr(2), addr(1)));
        h.speakers[1].add_peer(
            PeerId(0),
            PeerConfig::ebgp(Asn(100), addr(1), addr(2)).with_passive(),
        );
        h.speakers[1].add_peer(PeerId(1), PeerConfig::ebgp(Asn(300), addr(3), addr(22)));
        h.speakers[2].add_peer(
            PeerId(0),
            PeerConfig::ebgp(Asn(200), addr(22), addr(3)).with_passive(),
        );
        h.start(1, 0);
        h.start(0, 0);
        h.start(2, 0);
        h.start(1, 1);
        h.originate(
            0,
            prefix("184.164.224.0/24"),
            PathAttributes::originated(addr(1)),
        );
        let best = h.speakers[2]
            .loc_rib()
            .best(&prefix("184.164.224.0/24"))
            .unwrap();
        assert_eq!(best.attrs.as_path.asns(), vec![Asn(200), Asn(100)]);
        // Next-hop rewritten to b's address on the b--c session.
        assert_eq!(best.attrs.next_hop, Some(addr(22)));
    }

    #[test]
    fn remove_peer_withdraws_its_routes() {
        let mut h = hub_topology();
        let p = prefix("192.168.0.0/24");
        h.originate(1, p, PathAttributes::originated(addr(11)));
        h.originate(2, p, PathAttributes::originated(addr(12)));
        assert_eq!(h.speakers[3].loc_rib().candidates(&p).len(), 2);
        let (existed, out) = h.speakers[0].remove_peer(PeerId(0));
        assert!(existed);
        h.process(0, out);
        h.run();
        assert_eq!(h.speakers[3].loc_rib().candidates(&p).len(), 1);
    }

    #[test]
    fn corrupt_stream_drops_session() {
        let mut h = pair(false);
        let out = h.speakers[1].on_bytes(PeerId(0), &[0u8; 19]);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, SpeakerEvent::SessionDown(_, _))));
        assert_eq!(
            h.speakers[1]
                .peer_stats(PeerId(0))
                .unwrap()
                .get(PeerCounter::CodecErrors),
            1
        );
    }

    #[test]
    fn raw_advertise_reaches_specific_peer() {
        let mut h = hub_topology();
        let p = prefix("184.164.230.0/24");
        let mut attrs = PathAttributes::originated(addr(10));
        attrs.as_path = AsPath::from_asns(&[Asn(47065)]);
        let update = UpdateMsg::announce(vec![(p, None)], attrs);
        // Send only to c1 (peer 0), not c2.
        let out = h.speakers[0].advertise_raw(PeerId(0), update);
        h.process(0, out);
        h.run();
        assert!(h.speakers[1].loc_rib().best(&p).is_some());
        assert!(h.speakers[2].loc_rib().best(&p).is_none());
    }

    #[test]
    fn memory_accounting_grows_with_routes() {
        let mut h = pair(false);
        let before = h.speakers[1].rib_memory_bytes();
        for i in 0..100u32 {
            h.originate(
                0,
                Prefix::v4(
                    std::net::Ipv4Addr::new(10, (i / 256) as u8, (i % 256) as u8, 0),
                    24,
                )
                .unwrap(),
                PathAttributes::originated(addr(1)),
            );
        }
        let after = h.speakers[1].rib_memory_bytes();
        assert!(after > before + 100 * 100, "memory should grow per route");
        assert_eq!(h.speakers[1].total_adj_in_paths(), 100);
    }

    #[test]
    fn retention_keeps_routes_until_sweep_timer() {
        let mut h = pair(false);
        h.speakers[1]
            .peers
            .get_mut(&PeerId(0))
            .unwrap()
            .cfg
            .retention_secs = 30;
        let p = prefix("184.164.224.0/24");
        h.originate(0, p, PathAttributes::originated(addr(1)));
        assert!(h.speakers[1].loc_rib().best(&p).is_some());

        let out = h.speakers[1].on_transport_down(PeerId(0));
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, SpeakerEvent::SessionDown(_, _))));
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, SpeakerEvent::ArmTimer(_, TimerKind::StaleSweep, 30))));
        // The route survives the flap, marked stale.
        assert!(h.speakers[1].loc_rib().best(&p).is_some());
        assert_eq!(h.speakers[1].stale_path_count(PeerId(0)), 1);

        // Retention deadline: the leftover is withdrawn for real.
        let out = h.speakers[1].on_timer(PeerId(0), TimerKind::StaleSweep);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, SpeakerEvent::RouteWithdrawn(_, _, _))));
        assert!(h.speakers[1].loc_rib().best(&p).is_none());
        assert_eq!(h.speakers[1].stale_path_count(PeerId(0)), 0);
    }

    /// A speaker moved to a new registry takes every metric with it,
    /// values included: counters, levels, the FSM transition family and
    /// the flush histogram.
    #[test]
    fn set_obs_keeps_every_value() {
        let mut h = pair(false);
        for (idx, p) in [
            (0, "184.164.224.0/24"),
            (0, "184.164.225.0/24"),
            (1, "10.1.0.0/16"),
        ] {
            h.originate(
                idx,
                prefix(p),
                PathAttributes::originated(addr(idx as u32 + 1)),
            );
        }
        let out = h.speakers[0].on_transport_down(PeerId(0));
        h.process(0, out);
        let out = h.speakers[1].on_transport_down(PeerId(0));
        h.process(1, out);
        h.transports_up.clear();
        h.run();
        h.start(1, 0);
        h.start(0, 0);
        for s in &mut h.speakers {
            let before = s.obs().snapshot().to_text();
            for line in [
                "bgp.fsm_transition{edge=OpenConfirm->Established} 2",
                "bgp.fsm_transition{edge=Established->Idle} 1",
                "bgp.resync_replays 2",
            ] {
                assert!(
                    before.lines().any(|l| l == line),
                    "no `{line}` in\n{before}"
                );
            }
            assert!(!before.contains("bgp.flush_nlri_count 0"), "{before}");
            let moved = Obs::new();
            s.set_obs(moved.clone());
            let after = moved.snapshot().to_text();
            for line in before.lines().filter(|l| !l.ends_with(" 0")) {
                assert!(after.lines().any(|l| l == line), "lost `{line}`:\n{after}");
            }
        }
    }

    #[test]
    fn reestablishment_refreshes_retained_routes() {
        let mut h = pair(false);
        h.speakers[1]
            .peers
            .get_mut(&PeerId(0))
            .unwrap()
            .cfg
            .retention_secs = 30;
        let p = prefix("184.164.224.0/24");
        h.originate(0, p, PathAttributes::originated(addr(1)));

        // Flap both ends of the transport.
        let out = h.speakers[0].on_transport_down(PeerId(0));
        h.process(0, out);
        let out = h.speakers[1].on_transport_down(PeerId(0));
        h.process(1, out);
        h.transports_up.clear();
        h.run();
        assert!(!h.speakers[1].is_established(PeerId(0)));
        assert!(
            h.speakers[1].loc_rib().best(&p).is_some(),
            "route retained across the flap"
        );
        assert_eq!(h.speakers[1].stale_path_count(PeerId(0)), 1);

        // Re-establish: the peer's replay + End-of-RIB resynchronize the
        // table; nothing is withdrawn, nothing stays stale.
        h.start(1, 0);
        h.start(0, 0);
        assert!(h.speakers[1].is_established(PeerId(0)));
        assert!(h.speakers[1].loc_rib().best(&p).is_some());
        assert_eq!(h.speakers[1].stale_path_count(PeerId(0)), 0);
        assert_eq!(h.speakers[1].total_adj_in_paths(), 1);
    }

    #[test]
    fn mixed_family_batch_keeps_per_family_next_hops() {
        // Two prefixes of different families sharing ONE interned
        // attribute set (the DFZ-workload shape) must not be packed into
        // a single UPDATE: one message carries one next-hop per family
        // slot, so family-blind attr grouping would ship the v6 MP_REACH
        // next-hop to the v4 routes (or vice versa). Regression for the
        // flush grouping key.
        let mut h = pair(false);
        let p4 = prefix("20.0.12.0/24");
        let p6 = prefix("2610:e0::/32");
        let shared = PathAttributes {
            as_path: AsPath::from_asns(&[Asn(777)]),
            ..Default::default()
        };
        let out = h.speakers[0].originate_many(vec![(p4, shared.clone()), (p6, shared)]);
        h.process(0, out);
        h.run();
        for (prefix, paths) in h.speakers[1].adj_rib_in_snapshot(PeerId(0)) {
            for (_, attrs) in paths {
                assert_eq!(
                    attrs.next_hop,
                    Some(addr(1)),
                    "wrong next-hop for {prefix} after mixed-family flush"
                );
            }
        }
        assert!(h.speakers[1].loc_rib().best(&p4).is_some());
        assert!(h.speakers[1].loc_rib().best(&p6).is_some());
    }

    #[test]
    fn stale_route_dropped_when_not_reannounced() {
        let mut h = pair(false);
        h.speakers[1]
            .peers
            .get_mut(&PeerId(0))
            .unwrap()
            .cfg
            .retention_secs = 30;
        let p = prefix("184.164.224.0/24");
        h.originate(0, p, PathAttributes::originated(addr(1)));

        // a withdraws the origin while b's view of the session is down: b
        // must not resurrect the route after resync.
        let out = h.speakers[1].on_transport_down(PeerId(0));
        h.process(1, out);
        let out = h.speakers[0].on_transport_down(PeerId(0));
        h.process(0, out);
        h.transports_up.clear();
        h.run();
        let out = h.speakers[0].withdraw_origin(p);
        h.process(0, out);
        h.run();
        assert!(h.speakers[1].loc_rib().best(&p).is_some(), "still retained");

        h.start(1, 0);
        h.start(0, 0);
        // End-of-RIB from a's replay sweeps the unrefreshed leftover.
        assert!(
            h.speakers[1].loc_rib().best(&p).is_none(),
            "stale route must not survive resync"
        );
        assert_eq!(h.speakers[1].stale_path_count(PeerId(0)), 0);
    }

    #[test]
    fn fault_skip_replay_desyncs_adj_out_from_peer() {
        let mut h = pair(false);
        let p = prefix("184.164.224.0/24");
        h.originate(0, p, PathAttributes::originated(addr(1)));
        h.speakers[0].set_fault_skip_session_up_replay(true);

        let out = h.speakers[0].on_transport_down(PeerId(0));
        h.process(0, out);
        let out = h.speakers[1].on_transport_down(PeerId(0));
        h.process(1, out);
        h.transports_up.clear();
        h.run();
        h.start(1, 0);
        h.start(0, 0);
        assert!(h.speakers[0].is_established(PeerId(0)));
        // The bug: a's Adj-RIB-Out says the route was advertised...
        assert_eq!(h.speakers[0].adj_rib_out_snapshot(PeerId(0)).len(), 1);
        // ...but it never hit the wire, so b has nothing — the exact
        // divergence the convergence oracle asserts against.
        assert_eq!(h.speakers[1].total_adj_in_paths(), 0);
        assert!(h.speakers[1].loc_rib().best(&p).is_none());
    }
}

#[cfg(test)]
mod refresh_tests {
    use super::*;
    use crate::attrs::PathAttributes;
    use crate::types::prefix;

    /// Minimal two-speaker wiring for refresh tests.
    fn wired() -> (Speaker, Speaker) {
        let mut a = Speaker::new(SpeakerConfig {
            asn: Asn(100),
            router_id: RouterId(1),
        });
        let mut b = Speaker::new(SpeakerConfig {
            asn: Asn(200),
            router_id: RouterId(2),
        });
        a.add_peer(
            PeerId(0),
            PeerConfig::ebgp(
                Asn(200),
                "10.0.0.2".parse().unwrap(),
                "10.0.0.1".parse().unwrap(),
            ),
        );
        b.add_peer(
            PeerId(0),
            PeerConfig::ebgp(
                Asn(100),
                "10.0.0.1".parse().unwrap(),
                "10.0.0.2".parse().unwrap(),
            )
            .with_passive(),
        );
        (a, b)
    }

    /// Deliver `init` (produced by `a`) to `b`, then relay until quiet.
    fn pump2(a: &mut Speaker, b: &mut Speaker, mut init: SpeakerOutput) {
        let mut to_b: Vec<Vec<u8>> = Vec::new();
        let mut to_a: Vec<Vec<u8>> = Vec::new();
        if init
            .events
            .iter()
            .any(|e| matches!(e, SpeakerEvent::TransportOpen(_)))
        {
            init.merge(a.on_transport_up(PeerId(0)));
            let out_b = b.on_transport_up(PeerId(0));
            to_a.extend(out_b.send.into_iter().map(|(_, bytes)| bytes));
        }
        to_b.extend(init.send.drain(..).map(|(_, bytes)| bytes));
        for _ in 0..50 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            for bytes in std::mem::take(&mut to_b) {
                let out = b.on_bytes(PeerId(0), &bytes);
                to_a.extend(out.send.into_iter().map(|(_, x)| x));
            }
            for bytes in std::mem::take(&mut to_a) {
                let out = a.on_bytes(PeerId(0), &bytes);
                to_b.extend(out.send.into_iter().map(|(_, x)| x));
            }
        }
    }

    #[test]
    fn route_refresh_resends_adj_out() {
        let (mut a, mut b) = wired();
        b.start_peer(PeerId(0));
        let init = a.start_peer(PeerId(0));
        pump2(&mut a, &mut b, init);
        assert!(a.is_established(PeerId(0)));
        let out = a.originate(
            prefix("184.164.224.0/24"),
            PathAttributes::originated("10.0.0.1".parse().unwrap()),
        );
        pump2(&mut a, &mut b, out);
        let updates_before = a
            .peer_stats(PeerId(0))
            .unwrap()
            .get(PeerCounter::UpdatesOut);

        // b asks for a refresh; a must re-send the route.
        let req = b.request_route_refresh(PeerId(0), 1);
        pump2(&mut b, &mut a, req);
        let after = a
            .peer_stats(PeerId(0))
            .unwrap()
            .get(PeerCounter::UpdatesOut);
        assert!(after > updates_before, "refresh must re-send routes");
        // And b still has exactly one copy (implicit replace).
        assert_eq!(b.total_adj_in_paths(), 1);
    }

    #[test]
    fn refresh_for_other_family_resends_nothing() {
        let (mut a, mut b) = wired();
        b.start_peer(PeerId(0));
        let init = a.start_peer(PeerId(0));
        pump2(&mut a, &mut b, init);
        let out = a.originate(
            prefix("184.164.224.0/24"),
            PathAttributes::originated("10.0.0.1".parse().unwrap()),
        );
        pump2(&mut a, &mut b, out);
        let before = a
            .peer_stats(PeerId(0))
            .unwrap()
            .get(PeerCounter::UpdatesOut);
        // IPv6 refresh: nothing to re-send.
        let req = b.request_route_refresh(PeerId(0), 2);
        pump2(&mut b, &mut a, req);
        assert_eq!(
            a.peer_stats(PeerId(0))
                .unwrap()
                .get(PeerCounter::UpdatesOut),
            before
        );
    }

    #[test]
    fn refresh_request_requires_established() {
        let (mut a, _) = wired();
        let out = a.request_route_refresh(PeerId(0), 1);
        assert!(out.send.is_empty());
    }
}
