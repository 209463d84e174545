//! BGP-over-simulated-Ethernet transport.
//!
//! In the paper's deployment BGP runs over TCP between the vBGP router and
//! its neighbors / experiments. In the reproduction, sessions run over
//! simulated Ethernet frames carrying a minimal connection protocol
//! (SYN/SYN-ACK/FIN/DATA) plus the real, byte-exact BGP wire encoding.
//! [`BgpHost`] adapts a sans-IO [`Speaker`] to the event-driven simulator:
//! it owns the per-session endpoints, translates speaker actions into
//! frames and timers, and surfaces structural events to its embedder.
//!
//! Crucially for vBGP, a session can be marked **interposed**: its decoded
//! UPDATEs are handed to the embedder instead of the speaker, which is how
//! the control-plane enforcement engine sits in the BGP pipeline exactly
//! like the paper's ExaBGP process (§3.3). The embedder re-injects the
//! compliant subset via [`BgpHost::deliver`].

use std::collections::{HashMap, HashSet};
use std::net::{IpAddr, Ipv4Addr};

use peering_bgp::fsm::TimerKind;
use peering_bgp::message::{CodecError, Message, UpdateMsg};
use peering_bgp::rib::{PeerId, Route};
use peering_bgp::speaker::{PeerConfig, Speaker, SpeakerEvent, SpeakerOutput};
use peering_bgp::types::{PathId, Prefix};
use peering_netsim::fasthash::FastHashMap;
use peering_netsim::{Ctx, EtherFrame, EtherType, MacAddr, PortId, SimDuration};
use peering_obs::{counter_keys, Counters, EventKind as ObsEvent, Obs};

use crate::mux::FlowCache;

/// EtherType used for the simulated BGP transport.
pub const ETHERTYPE_BGP: EtherType = EtherType::Other(0x0B69);

const OP_SYN: u8 = 0;
const OP_SYNACK: u8 = 1;
const OP_FIN: u8 = 2;
const OP_DATA: u8 = 3;

/// High bit marking a timer token as owned by the BGP transport (the
/// embedding node may use the rest of the token space freely).
pub const BGP_TIMER_BIT: u64 = 1 << 63;

/// Where a session's frames go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// The simulator port this session uses.
    pub port: PortId,
    /// Our MAC on that port.
    pub local_mac: MacAddr,
    /// The peer's MAC.
    pub remote_mac: MacAddr,
}

/// Structural events surfaced to the embedding node.
#[derive(Debug, Clone, PartialEq)]
pub enum HostEvent {
    /// Session reached Established.
    SessionUp(PeerId),
    /// Session went down.
    SessionDown(PeerId, &'static str),
    /// A route entered the Adj-RIB-In.
    RouteLearned(PeerId, Route),
    /// A route left the Adj-RIB-In.
    RouteWithdrawn(PeerId, Prefix, PathId),
    /// A decoded UPDATE from an **interposed** session, awaiting the
    /// embedder's enforcement decision (paper §3.3).
    InterposedUpdate(PeerId, UpdateMsg),
}

/// The transport adapter around a [`Speaker`].
pub struct BgpHost {
    /// The BGP engine.
    pub speaker: Speaker,
    endpoints: FastHashMap<PeerId, Endpoint>,
    by_addr: FastHashMap<(PortId, MacAddr), PeerId>,
    timer_gen: HashMap<(PeerId, u8), u64>,
    interposed: HashSet<PeerId>,
    rx_buf: HashMap<PeerId, Vec<u8>>,
    transport_up: HashSet<PeerId>,
    /// Next sequence number to send / expect per session. Real BGP rides
    /// TCP, which either delivers the byte stream intact or kills the
    /// connection; these counters give the frame transport the same
    /// property. A gap (lost or reordered frame) resets the connection, so
    /// a session can never silently diverge from its peer — it dies and
    /// resynchronizes through the FSM instead.
    tx_seq: HashMap<PeerId, u32>,
    rx_seq: HashMap<PeerId, u32>,
    /// Remembered [`BgpHost::next_hop`] answers, one slot per destination
    /// low byte so the 256 hosts of one /24 never evict each other;
    /// allocated on first use.
    next_hops: Option<FlowCache<Option<(PortId, Ipv4Addr)>, 256>>,
    /// Counters.
    pub stats: Counters<TransportCounter>,
    obs: Obs,
}

counter_keys! {
    /// Transport counters.
    pub enum TransportCounter {
        /// Connections reset after a sequence gap (a frame lost or
        /// reordered under the byte stream).
        GapResets = "transport.gap_resets",
        /// Connections reset after an undecodable BGP message on an
        /// interposed session.
        DecodeResets = "transport.decode_resets",
    }
}

fn timer_kind_index(kind: TimerKind) -> u8 {
    match kind {
        TimerKind::ConnectRetry => 0,
        TimerKind::Hold => 1,
        TimerKind::Keepalive => 2,
        TimerKind::StaleSweep => 3,
    }
}

fn timer_kind_from_index(idx: u8) -> Option<TimerKind> {
    match idx {
        0 => Some(TimerKind::ConnectRetry),
        1 => Some(TimerKind::Hold),
        2 => Some(TimerKind::Keepalive),
        3 => Some(TimerKind::StaleSweep),
        _ => None,
    }
}

/// Timer-token layout: bit 63 the ownership flag, bits 39..63 the peer
/// id, bits 37..39 the timer kind, bits 0..37 the arm generation.
///
/// The generation field must be wide. Hold timers are re-armed on every
/// received message and stale arms are only *invalidated*, never
/// cancelled — each one stays queued in the simulator for its full 90 s.
/// A full-table feed re-arms a session's hold timer millions of times,
/// so a 16-bit generation wraps while stale timers are still queued and
/// a 90-second-old hold expiry fires with a colliding generation,
/// killing a perfectly live session. 37 bits needs ~10^11 re-arms to
/// wrap within one hold interval.
const GEN_MASK: u64 = (1 << 37) - 1;

fn encode_token(peer: PeerId, kind: TimerKind, gen: u64) -> u64 {
    BGP_TIMER_BIT
        | ((peer.0 as u64) << 39)
        | ((timer_kind_index(kind) as u64) << 37)
        | (gen & GEN_MASK)
}

impl BgpHost {
    /// Wrap a speaker.
    pub fn new(speaker: Speaker) -> Self {
        let obs = Obs::new();
        BgpHost {
            speaker,
            endpoints: FastHashMap::default(),
            by_addr: FastHashMap::default(),
            timer_gen: HashMap::new(),
            interposed: HashSet::new(),
            rx_buf: HashMap::new(),
            transport_up: HashSet::new(),
            tx_seq: HashMap::new(),
            rx_seq: HashMap::new(),
            next_hops: None,
            stats: Counters::new(&obs),
            obs,
        }
    }

    /// Attach a shared observability handle and cascade it to the speaker.
    pub fn set_obs(&mut self, obs: Obs) {
        self.speaker.set_obs(obs.clone());
        self.stats.set_obs(&obs);
        self.obs = obs;
    }

    /// Register a session: speaker peer config plus its transport endpoint.
    /// `interposed` routes the session's UPDATEs through the embedder.
    pub fn add_session(
        &mut self,
        id: PeerId,
        cfg: PeerConfig,
        endpoint: Endpoint,
        interposed: bool,
    ) {
        self.speaker.add_peer(id, cfg);
        self.next_hops = None;
        self.by_addr
            .insert((endpoint.port, endpoint.remote_mac), id);
        self.endpoints.insert(id, endpoint);
        if interposed {
            self.interposed.insert(id);
        }
    }

    /// Remove a session entirely.
    pub fn remove_session(&mut self, ctx: &mut Ctx<'_>, id: PeerId) -> Vec<HostEvent> {
        let mut events = Vec::new();
        self.next_hops = None;
        if let Some(ep) = self.endpoints.remove(&id) {
            self.by_addr.remove(&(ep.port, ep.remote_mac));
            self.send_op(ctx, &ep, OP_FIN, &[]);
        }
        self.interposed.remove(&id);
        self.rx_buf.remove(&id);
        self.transport_up.remove(&id);
        self.tx_seq.remove(&id);
        self.rx_seq.remove(&id);
        let (_, out) = self.speaker.remove_peer(id);
        self.handle_output(ctx, out, &mut events);
        events
    }

    /// The endpoint of a session.
    pub fn endpoint(&self, id: PeerId) -> Option<Endpoint> {
        self.endpoints.get(&id).copied()
    }

    /// Where traffic following `route` leaves: its session's endpoint port
    /// and the route's IPv4 next hop. `None` for a locally originated
    /// route, a non-IPv4 next hop or a session without an endpoint.
    pub fn egress(&self, route: &Route) -> Option<(PortId, Ipv4Addr)> {
        let Some(IpAddr::V4(next_hop)) = route.attrs.next_hop else {
            return None;
        };
        let ep = self.endpoints.get(&route.source.peer()?)?;
        Some((ep.port, next_hop))
    }

    /// [`BgpHost::egress`] of the Loc-RIB's best route for `dst`.
    ///
    /// Answers are remembered per destination in a table indexed by its
    /// low byte, and one stands while the Loc-RIB's generation is the one
    /// it was computed at, so a host forwarding to a stable set of
    /// destinations walks the Loc-RIB only when it changes.
    pub fn next_hop(&mut self, dst: Ipv4Addr) -> Option<(PortId, Ipv4Addr)> {
        // The Loc-RIB generation a remembered answer must carry.
        let at = self.speaker.loc_rib().generation();
        let (key, slot) = (u32::from(dst), usize::from(dst.octets()[3]));
        if let Some(answer) = self.next_hops.as_ref().and_then(|c| c.get(slot, key, at)) {
            return answer;
        }
        let route = self.speaker.loc_rib().lookup(dst.into());
        let answer = route.and_then(|route| self.egress(route));
        let cache = self.next_hops.get_or_insert_with(FlowCache::new);
        cache.put(slot, key, at, answer);
        answer
    }

    /// Start a session (active or passive per its config).
    pub fn start(&mut self, ctx: &mut Ctx<'_>, id: PeerId) -> Vec<HostEvent> {
        let mut events = Vec::new();
        let out = self.speaker.start_peer(id);
        self.handle_output(ctx, out, &mut events);
        events
    }

    /// Stop a session gracefully.
    pub fn stop(&mut self, ctx: &mut Ctx<'_>, id: PeerId) -> Vec<HostEvent> {
        let mut events = Vec::new();
        let out = self.speaker.stop_peer(id);
        self.handle_output(ctx, out, &mut events);
        events
    }

    /// Whether a timer token belongs to this transport.
    pub fn owns_timer(token: u64) -> bool {
        token & BGP_TIMER_BIT != 0
    }

    /// Handle a timer previously armed by this host.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> Vec<HostEvent> {
        let mut events = Vec::new();
        if !Self::owns_timer(token) {
            return events;
        }
        let peer = PeerId(((token >> 39) & 0xff_ffff) as u32);
        let Some(kind) = timer_kind_from_index(((token >> 37) & 0x3) as u8) else {
            return events;
        };
        let gen = token & GEN_MASK;
        let current = self
            .timer_gen
            .get(&(peer, timer_kind_index(kind)))
            .map(|g| g & GEN_MASK);
        if current != Some(gen) {
            return events; // stale timer
        }
        let out = self.speaker.on_timer(peer, kind);
        self.handle_output(ctx, out, &mut events);
        events
    }

    /// Handle a frame; returns structural events. Non-BGP frames yield no
    /// events (`handled == false` via returning `None`).
    pub fn on_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        frame: &EtherFrame,
    ) -> Option<Vec<HostEvent>> {
        if frame.ethertype != ETHERTYPE_BGP {
            return None;
        }
        let mut events = Vec::new();
        let Some(&peer) = self.by_addr.get(&(port, frame.src)) else {
            // Unknown speaker on this segment: ignore (frames to the IXP
            // fabric reach every member).
            return Some(events);
        };
        let Some((&op, data)) = frame.payload.split_first() else {
            return Some(events);
        };
        match op {
            OP_SYN | OP_SYNACK => {
                if op == OP_SYN {
                    let ep = self.endpoints[&peer];
                    self.send_op(ctx, &ep, OP_SYNACK, &[]);
                }
                if self.transport_up.insert(peer) {
                    // The handshake that actually brings the transport up
                    // begins a fresh byte stream on both directions. A
                    // duplicate SYN on an already-up transport (e.g. from
                    // simultaneous open) must NOT reset the counters — the
                    // stream it belongs to is the one already running.
                    self.tx_seq.insert(peer, 0);
                    self.rx_seq.insert(peer, 0);
                    self.rx_buf.remove(&peer);
                    let out = self.speaker.on_transport_up(peer);
                    self.handle_output(ctx, out, &mut events);
                }
            }
            OP_FIN if self.transport_up.remove(&peer) => {
                self.rx_buf.remove(&peer);
                let out = self.speaker.on_transport_down(peer);
                self.handle_output(ctx, out, &mut events);
            }
            OP_DATA => {
                if data.len() < 4 {
                    return Some(events);
                }
                let (seq_bytes, payload) = data.split_at(4);
                let seq = u32::from_be_bytes(seq_bytes.try_into().expect("4 bytes"));
                let expected = self.rx_seq.get(&peer).copied().unwrap_or(0);
                if seq < expected {
                    // A stale duplicate; the stream already moved past it.
                    return Some(events);
                }
                if seq > expected {
                    // A frame went missing or arrived out of order. TCP
                    // would retransmit or kill the connection; the frame
                    // transport has no retransmission, so reset — the FSM
                    // reconnects (with backoff) and resynchronizes rather
                    // than silently diverging from its peer.
                    self.stats.inc(TransportCounter::GapResets);
                    self.obs.record(ObsEvent::TransportReset {
                        peer: peer.0,
                        reason: "sequence-gap",
                    });
                    self.reset_transport(ctx, peer, &mut events);
                    return Some(events);
                }
                self.rx_seq.insert(peer, expected.wrapping_add(1));
                if self.interposed.contains(&peer) {
                    self.on_interposed_bytes(ctx, peer, payload, &mut events);
                } else {
                    let out = self.speaker.on_bytes(peer, payload);
                    self.handle_output(ctx, out, &mut events);
                }
            }
            _ => {}
        }
        Some(events)
    }

    /// Decode interposed bytes: UPDATEs go to the embedder, everything else
    /// (OPEN, KEEPALIVE, NOTIFICATION…) feeds the speaker directly.
    fn on_interposed_bytes(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer: PeerId,
        data: &[u8],
        events: &mut Vec<HostEvent>,
    ) {
        let buf = self.rx_buf.entry(peer).or_default();
        buf.extend_from_slice(data);
        loop {
            let ctx_codec = self.speaker.codec_ctx(peer);
            let buf = self.rx_buf.entry(peer).or_default();
            match Message::decode(buf, &ctx_codec) {
                Ok((msg, used)) => {
                    buf.drain(..used);
                    match msg {
                        Message::Update(update) => {
                            events.push(HostEvent::InterposedUpdate(peer, update));
                        }
                        other => {
                            let wire = other.encode(&ctx_codec);
                            let out = self.speaker.on_bytes(peer, &wire);
                            self.handle_output(ctx, out, events);
                        }
                    }
                }
                Err(CodecError::Truncated) => break,
                Err(_) => {
                    buf.clear();
                    self.stats.inc(TransportCounter::DecodeResets);
                    self.obs.record(ObsEvent::TransportReset {
                        peer: peer.0,
                        reason: "decode-error",
                    });
                    let out = self.speaker.on_transport_down(peer);
                    self.handle_output(ctx, out, events);
                    break;
                }
            }
        }
    }

    /// Inject an (enforcement-approved) UPDATE into the speaker as if it
    /// had arrived on the session — the ExaBGP "announce compliant routes
    /// back to the router" step.
    pub fn deliver(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer: PeerId,
        update: UpdateMsg,
    ) -> Vec<HostEvent> {
        let mut events = Vec::new();
        let codec = self.speaker.codec_ctx(peer);
        let wire = Message::Update(update).encode(&codec);
        let out = self.speaker.on_bytes(peer, &wire);
        self.handle_output(ctx, out, &mut events);
        events
    }

    /// Send a raw UPDATE toward a specific peer (vBGP steering).
    pub fn advertise_raw(&mut self, ctx: &mut Ctx<'_>, peer: PeerId, update: UpdateMsg) {
        let mut events = Vec::new();
        let out = self.speaker.advertise_raw(peer, update);
        self.handle_output(ctx, out, &mut events);
    }

    /// Apply a speaker output produced outside this host (e.g. after
    /// calling a speaker method directly).
    pub fn apply(&mut self, ctx: &mut Ctx<'_>, out: SpeakerOutput) -> Vec<HostEvent> {
        let mut events = Vec::new();
        self.handle_output(ctx, out, &mut events);
        events
    }

    /// Tear a session's transport down after a sequence gap: notify the
    /// peer (best effort, like a RST) and let the speaker's FSM retry.
    fn reset_transport(&mut self, ctx: &mut Ctx<'_>, peer: PeerId, events: &mut Vec<HostEvent>) {
        if let Some(ep) = self.endpoints.get(&peer).copied() {
            self.send_op(ctx, &ep, OP_FIN, &[]);
        }
        self.transport_up.remove(&peer);
        self.rx_buf.remove(&peer);
        let out = self.speaker.on_transport_down(peer);
        self.handle_output(ctx, out, events);
    }

    fn send_op(&self, ctx: &mut Ctx<'_>, ep: &Endpoint, op: u8, data: &[u8]) {
        let mut payload = Vec::with_capacity(1 + data.len());
        payload.push(op);
        payload.extend_from_slice(data);
        ctx.send_frame(
            ep.port,
            EtherFrame::new(ep.remote_mac, ep.local_mac, ETHERTYPE_BGP, payload.into()),
        );
    }

    fn handle_output(
        &mut self,
        ctx: &mut Ctx<'_>,
        out: SpeakerOutput,
        events: &mut Vec<HostEvent>,
    ) {
        for (peer, bytes) in out.send {
            if let Some(ep) = self.endpoints.get(&peer).copied() {
                let seq = self.tx_seq.entry(peer).or_insert(0);
                let mut payload = Vec::with_capacity(5 + bytes.len());
                payload.push(OP_DATA);
                payload.extend_from_slice(&seq.to_be_bytes());
                *seq = seq.wrapping_add(1);
                payload.extend_from_slice(&bytes);
                ctx.send_frame(
                    ep.port,
                    EtherFrame::new(ep.remote_mac, ep.local_mac, ETHERTYPE_BGP, payload.into()),
                );
            }
        }
        for ev in out.events {
            match ev {
                SpeakerEvent::TransportOpen(peer) => {
                    self.tx_seq.insert(peer, 0);
                    self.rx_seq.insert(peer, 0);
                    if let Some(ep) = self.endpoints.get(&peer).copied() {
                        self.send_op(ctx, &ep, OP_SYN, &[]);
                    }
                }
                SpeakerEvent::TransportClose(peer) => {
                    if self.transport_up.remove(&peer) {
                        if let Some(ep) = self.endpoints.get(&peer).copied() {
                            self.send_op(ctx, &ep, OP_FIN, &[]);
                        }
                    }
                    self.rx_buf.remove(&peer);
                    self.tx_seq.remove(&peer);
                    self.rx_seq.remove(&peer);
                }
                SpeakerEvent::ArmTimer(peer, kind, secs) => {
                    let gen = self
                        .timer_gen
                        .entry((peer, timer_kind_index(kind)))
                        .or_insert(0);
                    *gen = gen.wrapping_add(1);
                    ctx.set_timer(
                        SimDuration::from_secs(secs as u64),
                        encode_token(peer, kind, *gen),
                    );
                }
                SpeakerEvent::StopTimer(peer, kind) => {
                    // Invalidate by bumping the generation.
                    let gen = self
                        .timer_gen
                        .entry((peer, timer_kind_index(kind)))
                        .or_insert(0);
                    *gen = gen.wrapping_add(1);
                }
                SpeakerEvent::SessionUp(peer) => events.push(HostEvent::SessionUp(peer)),
                SpeakerEvent::SessionDown(peer, reason) => {
                    events.push(HostEvent::SessionDown(peer, reason))
                }
                SpeakerEvent::RouteLearned(peer, route) => {
                    events.push(HostEvent::RouteLearned(peer, route))
                }
                SpeakerEvent::RouteWithdrawn(peer, prefix, path_id) => {
                    events.push(HostEvent::RouteWithdrawn(peer, prefix, path_id))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_bgp::attrs::PathAttributes;
    use peering_bgp::speaker::SpeakerConfig;
    use peering_bgp::types::{prefix, Asn, RouterId};
    use peering_netsim::{LinkConfig, Node, Simulator};

    /// A plain BGP speaker node for tests: collects host events.
    struct SpeakerNode {
        host: BgpHost,
        events: Vec<HostEvent>,
    }

    impl Node for SpeakerNode {
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
            if let Some(evs) = self.host.on_frame(ctx, port, &frame) {
                self.events.extend(evs);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let evs = self.host.on_timer(ctx, token);
            self.events.extend(evs);
        }
    }

    fn mk_speaker(asn: u32, id: u32) -> Speaker {
        Speaker::new(SpeakerConfig {
            asn: Asn(asn),
            router_id: RouterId(id),
        })
    }

    fn setup(interpose_b: bool) -> (Simulator, peering_netsim::NodeId, peering_netsim::NodeId) {
        let mut sim = Simulator::new(11);
        let mac_a = MacAddr::from_id(1);
        let mac_b = MacAddr::from_id(2);
        let mut host_a = BgpHost::new(mk_speaker(100, 1));
        let mut host_b = BgpHost::new(mk_speaker(200, 2));
        host_a.add_session(
            PeerId(0),
            PeerConfig::ebgp(
                Asn(200),
                "10.0.0.2".parse().unwrap(),
                "10.0.0.1".parse().unwrap(),
            ),
            Endpoint {
                port: PortId(0),
                local_mac: mac_a,
                remote_mac: mac_b,
            },
            false,
        );
        host_b.add_session(
            PeerId(0),
            PeerConfig::ebgp(
                Asn(100),
                "10.0.0.1".parse().unwrap(),
                "10.0.0.2".parse().unwrap(),
            )
            .with_passive(),
            Endpoint {
                port: PortId(0),
                local_mac: mac_b,
                remote_mac: mac_a,
            },
            interpose_b,
        );
        let a = sim.add_node(Box::new(SpeakerNode {
            host: host_a,
            events: Vec::new(),
        }));
        let b = sim.add_node(Box::new(SpeakerNode {
            host: host_b,
            events: Vec::new(),
        }));
        sim.connect(a, PortId(0), b, PortId(0), LinkConfig::default());
        sim.with_node_ctx::<SpeakerNode, _>(b, |node, ctx| {
            let evs = node.host.start(ctx, PeerId(0));
            node.events.extend(evs);
        });
        sim.with_node_ctx::<SpeakerNode, _>(a, |node, ctx| {
            let evs = node.host.start(ctx, PeerId(0));
            node.events.extend(evs);
        });
        (sim, a, b)
    }

    #[test]
    fn sessions_establish_over_simulated_ethernet() {
        let (mut sim, a, b) = setup(false);
        sim.run_for(SimDuration::from_secs(2));
        let node_a = sim.node::<SpeakerNode>(a).unwrap();
        let node_b = sim.node::<SpeakerNode>(b).unwrap();
        assert!(node_a.host.speaker.is_established(PeerId(0)));
        assert!(node_b.host.speaker.is_established(PeerId(0)));
        assert!(node_a.events.contains(&HostEvent::SessionUp(PeerId(0))));
    }

    #[test]
    fn routes_flow_and_events_surface() {
        let (mut sim, a, b) = setup(false);
        sim.run_for(SimDuration::from_secs(2));
        sim.with_node_ctx::<SpeakerNode, _>(a, |node, ctx| {
            let out = node.host.speaker.originate(
                prefix("184.164.224.0/24"),
                PathAttributes::originated("10.0.0.1".parse().unwrap()),
            );
            let evs = node.host.apply(ctx, out);
            node.events.extend(evs);
        });
        sim.run_for(SimDuration::from_secs(1));
        let node_b = sim.node::<SpeakerNode>(b).unwrap();
        assert!(node_b
            .host
            .speaker
            .loc_rib()
            .best(&prefix("184.164.224.0/24"))
            .is_some());
        assert!(node_b
            .events
            .iter()
            .any(|e| matches!(e, HostEvent::RouteLearned(_, _))));
    }

    #[test]
    fn interposed_session_surfaces_updates_instead_of_feeding_speaker() {
        let (mut sim, a, b) = setup(true);
        sim.run_for(SimDuration::from_secs(2));
        assert!(sim
            .node::<SpeakerNode>(b)
            .unwrap()
            .host
            .speaker
            .is_established(PeerId(0)));
        sim.with_node_ctx::<SpeakerNode, _>(a, |node, ctx| {
            let out = node.host.speaker.originate(
                prefix("184.164.224.0/24"),
                PathAttributes::originated("10.0.0.1".parse().unwrap()),
            );
            node.host.apply(ctx, out);
        });
        sim.run_for(SimDuration::from_secs(1));
        // b's speaker did NOT import the route...
        let node_b = sim.node::<SpeakerNode>(b).unwrap();
        assert!(node_b
            .host
            .speaker
            .loc_rib()
            .best(&prefix("184.164.224.0/24"))
            .is_none());
        // ...but the embedder saw the update.
        let update = node_b
            .events
            .iter()
            .find_map(|e| match e {
                HostEvent::InterposedUpdate(_, u) if !u.is_end_of_rib() => Some(u.clone()),
                _ => None,
            })
            .expect("interposed update surfaced");
        // Re-inject it (enforcement approved) and confirm import.
        sim.with_node_ctx::<SpeakerNode, _>(b, |node, ctx| {
            node.host.deliver(ctx, PeerId(0), update);
        });
        sim.run_for(SimDuration::from_secs(1));
        let node_b = sim.node::<SpeakerNode>(b).unwrap();
        assert!(node_b
            .host
            .speaker
            .loc_rib()
            .best(&prefix("184.164.224.0/24"))
            .is_some());
    }

    #[test]
    fn hold_timer_recovers_session_after_silence() {
        let (mut sim, a, _b) = setup(false);
        sim.run_for(SimDuration::from_secs(2));
        // Keepalives keep the session alive well past the hold time.
        sim.run_for(SimDuration::from_secs(300));
        let node_a = sim.node::<SpeakerNode>(a).unwrap();
        assert!(node_a.host.speaker.is_established(PeerId(0)));
        assert!(!node_a
            .events
            .iter()
            .any(|e| matches!(e, HostEvent::SessionDown(_, _))));
    }

    #[test]
    fn remove_session_sends_fin_and_peer_recovers_to_idle() {
        let (mut sim, a, b) = setup(false);
        sim.run_for(SimDuration::from_secs(2));
        sim.with_node_ctx::<SpeakerNode, _>(a, |node, ctx| {
            let evs = node.host.remove_session(ctx, PeerId(0));
            node.events.extend(evs);
        });
        sim.run_for(SimDuration::from_secs(1));
        let node_b = sim.node::<SpeakerNode>(b).unwrap();
        assert!(!node_b.host.speaker.is_established(PeerId(0)));
        assert!(node_b
            .events
            .iter()
            .any(|e| matches!(e, HostEvent::SessionDown(_, _))));
    }

    #[test]
    fn sequence_gap_resets_and_session_recovers() {
        let (mut sim, a, b) = setup(false);
        sim.run_for(SimDuration::from_secs(2));
        assert!(sim
            .node::<SpeakerNode>(b)
            .unwrap()
            .host
            .speaker
            .is_established(PeerId(0)));
        // Forge a DATA frame from a with a future sequence number, as if
        // the frames in between were lost on the wire.
        let mut payload = vec![OP_DATA];
        payload.extend_from_slice(&99u32.to_be_bytes());
        payload.extend_from_slice(&[0u8; 19]);
        sim.with_node_ctx::<SpeakerNode, _>(b, |node, ctx| {
            let frame = EtherFrame::new(
                MacAddr::from_id(2),
                MacAddr::from_id(1),
                ETHERTYPE_BGP,
                payload.into(),
            );
            let evs = node.host.on_frame(ctx, PortId(0), &frame).unwrap();
            node.events.extend(evs);
        });
        let node_b = sim.node::<SpeakerNode>(b).unwrap();
        assert!(!node_b.host.speaker.is_established(PeerId(0)));
        assert!(node_b
            .events
            .iter()
            .any(|e| matches!(e, HostEvent::SessionDown(_, _))));
        // The gap acted like a connection reset: the peer saw the FIN and
        // both sides re-establish through the FSM's retry path.
        sim.run_for(SimDuration::from_secs(120));
        assert!(sim
            .node::<SpeakerNode>(a)
            .unwrap()
            .host
            .speaker
            .is_established(PeerId(0)));
        assert!(sim
            .node::<SpeakerNode>(b)
            .unwrap()
            .host
            .speaker
            .is_established(PeerId(0)));
    }

    /// `b` (AS 200) learning from `a1` (AS 100, b's port 0, next hop
    /// 10.0.0.1) and `a2` (AS 300, b's port 1, next hop 10.0.1.1), both
    /// sessions established.
    fn fan_in() -> (Simulator, [peering_netsim::NodeId; 3]) {
        let mut sim = Simulator::new(12);
        let addr = |s: &str| -> IpAddr { s.parse().unwrap() };
        let mut b = BgpHost::new(mk_speaker(200, 2));
        let mut nodes = Vec::new();
        for (i, asn) in [(0u8, 100u32), (1, 300)] {
            let (theirs, ours) = (addr(&format!("10.0.{i}.1")), addr(&format!("10.0.{i}.2")));
            let (their_mac, our_mac) = (MacAddr::from_id(10 + u32::from(i)), MacAddr::from_id(2));
            let mut a = BgpHost::new(mk_speaker(asn, 10 + u32::from(i)));
            let cfg = PeerConfig::ebgp(Asn(200), ours, theirs);
            let ep = Endpoint {
                port: PortId(0),
                local_mac: their_mac,
                remote_mac: our_mac,
            };
            a.add_session(PeerId(0), cfg, ep, false);
            let cfg = PeerConfig::ebgp(Asn(asn), theirs, ours).with_passive();
            let ep = Endpoint {
                port: PortId(u16::from(i)),
                local_mac: our_mac,
                remote_mac: their_mac,
            };
            b.add_session(PeerId(u32::from(i)), cfg, ep, false);
            nodes.push(sim.add_node(Box::new(SpeakerNode {
                host: a,
                events: Vec::new(),
            })));
        }
        let b = sim.add_node(Box::new(SpeakerNode {
            host: b,
            events: Vec::new(),
        }));
        for (i, &a) in nodes.iter().enumerate() {
            sim.connect(a, PortId(0), b, PortId(i as u16), LinkConfig::default());
        }
        sim.with_node_ctx::<SpeakerNode, _>(b, |node, ctx| {
            node.host.start(ctx, PeerId(0));
            node.host.start(ctx, PeerId(1));
        });
        for &a in &nodes {
            sim.with_node_ctx::<SpeakerNode, _>(a, |node, ctx| {
                node.host.start(ctx, PeerId(0));
            });
        }
        sim.run_for(SimDuration::from_secs(2));
        (sim, [nodes[0], nodes[1], b])
    }

    /// Announce (or withdraw) `p` at `node` and let it propagate.
    fn originate(sim: &mut Simulator, node: peering_netsim::NodeId, p: &str, announce: bool) {
        sim.with_node_ctx::<SpeakerNode, _>(node, |node, ctx| {
            let out = if announce {
                let attrs = PathAttributes::originated("10.9.9.9".parse().unwrap());
                node.host.speaker.originate(prefix(p), attrs)
            } else {
                node.host.speaker.withdraw_origin(prefix(p))
            };
            node.host.apply(ctx, out);
        });
        sim.run_for(SimDuration::from_millis(50));
    }

    /// An egress port and next hop, if there is a route.
    type Hop = Option<(PortId, Ipv4Addr)>;

    /// `next_hop` at `node`, and what an uncached Loc-RIB walk answers.
    fn next_hop_and_walk(
        sim: &mut Simulator,
        node: peering_netsim::NodeId,
        dst: &str,
    ) -> (Hop, Hop) {
        let dst: Ipv4Addr = dst.parse().unwrap();
        let host = &mut sim.node_mut::<SpeakerNode>(node).unwrap().host;
        let cached = host.next_hop(dst);
        let walked = host.speaker.loc_rib().lookup(dst.into());
        (cached, walked.and_then(|r| host.egress(r)))
    }

    fn hop(port: u16, next_hop: &str) -> Hop {
        Some((PortId(port), next_hop.parse().unwrap()))
    }

    #[test]
    fn next_hop_follows_withdrawals_and_more_specifics() {
        let (mut sim, [a1, a2, b]) = fan_in();
        let dst = "10.1.2.3";
        assert_eq!(next_hop_and_walk(&mut sim, b, dst), (None, None));
        originate(&mut sim, a1, "10.0.0.0/8", true);
        assert_eq!(next_hop_and_walk(&mut sim, b, dst).0, hop(0, "10.0.0.1"));
        // A more-specific learned from a2 takes the next packet.
        originate(&mut sim, a2, "10.1.0.0/16", true);
        assert_eq!(next_hop_and_walk(&mut sim, b, dst).0, hop(1, "10.0.1.1"));
        // Withdrawing it falls back to the covering route; withdrawing
        // that leaves no route.
        originate(&mut sim, a2, "10.1.0.0/16", false);
        assert_eq!(next_hop_and_walk(&mut sim, b, dst).0, hop(0, "10.0.0.1"));
        originate(&mut sim, a1, "10.0.0.0/8", false);
        assert_eq!(next_hop_and_walk(&mut sim, b, dst), (None, None));
    }

    #[test]
    fn next_hop_never_names_a_removed_session() {
        let (mut sim, [a1, a2, b]) = fan_in();
        originate(&mut sim, a1, "10.0.0.0/8", true);
        originate(&mut sim, a2, "10.1.0.0/16", true);
        assert_eq!(
            next_hop_and_walk(&mut sim, b, "10.1.2.3").0,
            hop(1, "10.0.1.1")
        );
        sim.with_node_ctx::<SpeakerNode, _>(b, |node, ctx| {
            node.host.remove_session(ctx, PeerId(1));
        });
        let (cached, walked) = next_hop_and_walk(&mut sim, b, "10.1.2.3");
        assert_eq!(cached, walked);
        assert_ne!(cached.map(|(port, _)| port), Some(PortId(1)));
    }

    #[test]
    fn destinations_sharing_a_low_byte_keep_their_own_answers() {
        let (mut sim, [a1, a2, b]) = fan_in();
        originate(&mut sim, a1, "10.0.0.0/16", true);
        originate(&mut sim, a2, "10.1.0.0/16", true);
        for _ in 0..3 {
            assert_eq!(
                next_hop_and_walk(&mut sim, b, "10.0.7.5").0,
                hop(0, "10.0.0.1")
            );
            assert_eq!(
                next_hop_and_walk(&mut sim, b, "10.1.7.5").0,
                hop(1, "10.0.1.1")
            );
            assert_eq!(next_hop_and_walk(&mut sim, b, "10.2.7.5").0, None);
        }
    }

    /// Under seeded announce and withdraw churn on two sessions,
    /// `next_hop` answers what an uncached Loc-RIB walk answers, for
    /// destinations asked before the change and for fresh ones.
    #[test]
    fn next_hop_matches_the_loc_rib_under_churn() {
        let pool = [
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.128/25",
            "10.2.0.0/16",
            "10.2.5.0/24",
            "10.2.0.0/15",
        ];
        let repeated = [
            "10.1.2.5",
            "10.1.2.133",
            "10.2.5.5",
            "10.3.9.133",
            "10.4.0.1",
        ];
        for seed in 1..=3u64 {
            let (mut sim, [a1, a2, b]) = fan_in();
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            for step in 0..40 {
                let node = if next() & 1 == 0 { a1 } else { a2 };
                let p = pool[next() as usize % pool.len()];
                originate(&mut sim, node, p, next() % 3 != 0);
                let fresh: Vec<String> = (0..6)
                    .map(|_| {
                        let r = next();
                        format!("10.{}.{}.{}", r % 5, (r >> 8) % 10, (r >> 16) as u8)
                    })
                    .collect();
                for dst in repeated
                    .iter()
                    .copied()
                    .chain(fresh.iter().map(String::as_str))
                {
                    let (cached, walked) = next_hop_and_walk(&mut sim, b, dst);
                    assert_eq!(cached, walked, "seed {seed} step {step}: {dst} after {p}");
                }
            }
        }
    }

    #[test]
    fn timer_token_roundtrip() {
        let token = encode_token(PeerId(0xabcd), TimerKind::Hold, 7);
        assert!(BgpHost::owns_timer(token));
        assert_eq!(((token >> 39) & 0xff_ffff) as u32, 0xabcd);
        assert_eq!(((token >> 37) & 0x3) as u8, 1);
        assert_eq!(token & GEN_MASK, 7);
        assert!(!BgpHost::owns_timer(42));
    }

    #[test]
    fn timer_generations_distinct_beyond_u16() {
        // Regression: hold timers are re-armed per received message and a
        // full-table feed re-arms them >65 536 times while stale arms are
        // still queued. Generations one u16-wrap apart must NOT collide.
        let a = encode_token(PeerId(3), TimerKind::Hold, 5);
        let b = encode_token(PeerId(3), TimerKind::Hold, 5 + (1 << 16));
        assert_ne!(a, b);
        // Still distinct a few billion arms later.
        let c = encode_token(PeerId(3), TimerKind::Hold, 5 + (1 << 32));
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn session_survives_u16_generation_wrap_of_hold_timer() {
        // Regression for a live-session kill at full-DFZ scale: 65 536
        // hold re-arms in one burst leave 65 536 stale 90 s timers
        // queued; with a 16-bit generation the current counter wraps to
        // meet one of them, the stale expiry is taken as genuine, and an
        // actively-trafficked session dies. Drive exactly that shape:
        // one burst of arms, then normal keepalive traffic across the
        // 90 s mark where the stale burst fires.
        let (mut sim, a, _b) = setup(false);
        sim.run_for(SimDuration::from_secs(2));
        sim.with_node_ctx::<SpeakerNode, _>(a, |node, ctx| {
            let mut out = SpeakerOutput::default();
            for _ in 0..(1 << 16) {
                out.events
                    .push(SpeakerEvent::ArmTimer(PeerId(0), TimerKind::Hold, 90));
            }
            let evs = node.host.apply(ctx, out);
            node.events.extend(evs);
        });
        // Cross t+90 s, when the burst's stale timers all fire. Keepalives
        // continue to re-arm legitimately throughout.
        sim.run_for(SimDuration::from_secs(120));
        let node_a = sim.node::<SpeakerNode>(a).unwrap();
        assert!(
            node_a.host.speaker.is_established(PeerId(0)),
            "stale hold timer from a wrapped generation killed a live session"
        );
        assert!(!node_a
            .events
            .iter()
            .any(|e| matches!(e, HostEvent::SessionDown(_, _))));
    }
}
