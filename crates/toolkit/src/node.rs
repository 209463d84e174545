//! The experiment router node.
//!
//! From the paper (§3.2.2): "the experiment can use a standard software or
//! hardware router (X1) or a more sophisticated controller that uses BGP to
//! interface with the Internet (X2)". [`ExperimentNode`] plays both roles:
//! by default it forwards along its decision-process best route; callers
//! can instead pick any received route (or raw next hop) per packet, which
//! is the Espresso-style fine-grained control the paper motivates.

use std::net::Ipv4Addr;

use peering_bgp::attrs::{AsPath, PathAttributes};
use peering_bgp::message::UpdateMsg;
use peering_bgp::rib::{PeerId, Route};
use peering_bgp::speaker::{PeerConfig, Speaker, SpeakerConfig};
use peering_bgp::types::{Asn, Community, Prefix, RouterId};
use peering_netsim::host::traceroute_hops;
use peering_netsim::{Bytes, Ctx, EtherFrame, IpHost, IpPacket, IpProto, MacAddr, Node, PortId};
use peering_obs::{counter_keys, Counters, Obs};
use peering_vbgp::transport::{BgpHost, Endpoint};

/// Re-export for convenience in examples.
pub use peering_netsim::ip::IPV4_HEADER_LEN;
/// What [`ExperimentNode::received`] holds.
pub use peering_netsim::ReceivedPacket;

counter_keys! {
    /// Packets delivered on one PoP attachment, published as
    /// `catchment{pop=k}` for the k-th attachment.
    enum Delivered {
        Packets = "catchment",
    }
}

/// A standard experiment router attached to one or more PoPs.
///
/// Its BGP state is read from `host.speaker`: the sessions, the routes
/// each PoP offers and the speaker's counters (session drops included, as
/// [`Speaker::sessions_dropped`]). The node keeps no log of BGP events.
pub struct ExperimentNode {
    /// The BGP machinery (sessions over tunnel ports).
    pub host: BgpHost,
    /// Addressing, ARP and framing on the tunnel ports.
    ip: IpHost,
    asn: Asn,
    /// Packets delivered to this experiment. Only populated while
    /// recording is on (the default) — serving experiments that take
    /// millions of packets switch to counters via
    /// [`ExperimentNode::set_record_received`].
    pub received: Vec<ReceivedPacket>,
    /// Each PoP attachment's tunnel port and the packets delivered on it
    /// (the per-PoP catchment observable), in attachment order.
    attachments: Vec<(PortId, Counters<Delivered>)>,
    /// The registry the attachment counters are published in.
    obs: Obs,
    /// Packets delivered per payload tag byte, indexed by tag, while a
    /// tag offset is set (see [`ExperimentNode::set_tag_offset`]).
    by_tag: [u64; 256],
    record_received: bool,
    tag_offset: Option<usize>,
}

impl ExperimentNode {
    /// Create an experiment router with its own ASN and router id.
    pub fn new(asn: Asn, router_id: RouterId) -> Self {
        ExperimentNode {
            host: BgpHost::new(Speaker::new(SpeakerConfig { asn, router_id })),
            ip: IpHost::new(),
            asn,
            received: Vec::new(),
            attachments: Vec::new(),
            obs: Obs::new(),
            by_tag: [0; 256],
            record_received: true,
            tag_offset: None,
        }
    }

    /// Keep (or stop keeping) every delivered packet in
    /// [`ExperimentNode::received`]. The per-attachment counters always
    /// run; serving experiments turn recording off so a million-packet
    /// run doesn't hold a million packets.
    pub fn set_record_received(&mut self, record: bool) {
        self.record_received = record;
    }

    /// Count delivered packets by the payload byte at `offset` (`None`
    /// disables tag counting). Packets whose payload is shorter than
    /// `offset + 1` are not tagged. Serving experiments stamp a
    /// flow-class tag into each packet's payload so per-class delivery
    /// can be counted without recording packets.
    pub fn set_tag_offset(&mut self, offset: Option<usize>) {
        self.tag_offset = offset;
    }

    /// Publish the per-attachment delivery counters in `obs`, values
    /// included: the k-th attachment's as `catchment{pop=k}`. Until
    /// called they live in a private registry.
    pub fn set_delivery_obs(&mut self, obs: Obs) {
        for (_, delivered) in &mut self.attachments {
            delivered.set_obs(&obs);
        }
        self.obs = obs;
    }

    /// Packets delivered on each attachment, in attachment order.
    pub fn delivered_by_attachment(&self) -> impl Iterator<Item = u64> + '_ {
        self.attachments
            .iter()
            .map(|(_, delivered)| delivered.get(Delivered::Packets))
    }

    /// Packets delivered per payload tag byte (see
    /// [`ExperimentNode::set_tag_offset`]), for every tag seen.
    pub fn delivered_by_tag(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        (0..=u8::MAX)
            .zip(self.by_tag)
            .filter(|&(_, count)| count > 0)
    }

    /// The experiment's ASN.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Attach a tunnel to a PoP: our MAC/address on the tunnel port plus a
    /// BGP session to the vBGP router. Returns the session id.
    #[allow(clippy::too_many_arguments)] // mirrors the session 5-tuple + ids
    pub fn add_pop_session(
        &mut self,
        session: PeerId,
        port: PortId,
        local_mac: MacAddr,
        local_addr: Ipv4Addr,
        remote_mac: MacAddr,
        remote_addr: Ipv4Addr,
        platform_asn: Asn,
    ) -> PeerId {
        self.ip.add_port(port, local_mac, local_addr);
        if !self.attachments.iter().any(|(p, _)| *p == port) {
            let k = self.attachments.len() as u32;
            let delivered = Counters::labelled(&self.obs, "pop", k);
            self.attachments.push((port, delivered));
        }
        let cfg = PeerConfig::ebgp(platform_asn, remote_addr.into(), local_addr.into())
            .with_all_paths()
            .with_next_hop_unchanged();
        self.host.add_session(
            session,
            cfg,
            Endpoint {
                port,
                local_mac,
                remote_mac,
            },
            false,
        );
        session
    }

    /// Start the session toward a PoP.
    pub fn start_session(&mut self, ctx: &mut Ctx<'_>, session: PeerId) {
        self.host.start(ctx, session);
    }

    /// Stop the session toward a PoP.
    pub fn stop_session(&mut self, ctx: &mut Ctx<'_>, session: PeerId) {
        self.host.stop(ctx, session);
    }

    /// Build the attribute set for an announcement originated here.
    ///
    /// The poison list is sanitized before it enters the path: duplicates
    /// are dropped (first occurrence wins — poisoning an AS twice buys
    /// nothing and inflates the path), the experiment's own ASN is dropped
    /// (it already brackets the poison run; a stray copy in the middle
    /// would trip *other* ASes' own-ASN filters unpredictably), and the
    /// total path is capped at 255 hops (the wire-format segment limit) by
    /// truncating the poison run.
    pub fn build_attrs(
        &self,
        next_hop: Ipv4Addr,
        prepend: usize,
        poison: &[Asn],
        communities: &[Community],
    ) -> PathAttributes {
        // Path shape: [exp ×(1+prepend)] poisons… [exp]. The origin stays
        // the experiment's ASN so the announcement remains attributable.
        const MAX_PATH: usize = 255;
        let mut asns = vec![self.asn; (1 + prepend).min(MAX_PATH)];
        let mut seen: Vec<Asn> = Vec::new();
        let mut poisons: Vec<Asn> = Vec::new();
        for &p in poison {
            if p != self.asn && !seen.contains(&p) {
                seen.push(p);
                poisons.push(p);
            }
        }
        if !poisons.is_empty() {
            // Leave room for the closing origin ASN.
            let budget = MAX_PATH.saturating_sub(asns.len() + 1);
            poisons.truncate(budget);
        }
        if !poisons.is_empty() {
            asns.extend_from_slice(&poisons);
            asns.push(self.asn);
        }
        PathAttributes {
            as_path: AsPath::from_asns(&asns),
            next_hop: Some(next_hop.into()),
            communities: communities.to_vec(),
            ..Default::default()
        }
    }

    /// Announce a prefix on one specific PoP session (the toolkit's
    /// per-mux announcements). Raw per-session control is what lets an
    /// experiment send *different* announcements for the same prefix to
    /// different PoPs or neighbors (§2.2.2).
    pub fn announce_via(
        &mut self,
        ctx: &mut Ctx<'_>,
        session: PeerId,
        prefix: Prefix,
        attrs: PathAttributes,
    ) {
        let update = UpdateMsg::announce(vec![(prefix, None)], attrs);
        self.host.advertise_raw(ctx, session, update);
    }

    /// Withdraw a prefix on one PoP session.
    pub fn withdraw_via(&mut self, ctx: &mut Ctx<'_>, session: PeerId, prefix: Prefix) {
        let update = UpdateMsg::withdraw(vec![(prefix, None)]);
        self.host.advertise_raw(ctx, session, update);
    }

    /// All routes currently known for a prefix (the ADD-PATH fan-out from
    /// vBGP means this includes every neighbor's route, not just one).
    pub fn routes_for(&self, prefix: &Prefix) -> Vec<Route> {
        self.host.speaker.loc_rib().candidates(prefix).to_vec()
    }

    /// Send an IP packet toward `dst` along the current best route.
    pub fn send_best(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: Bytes,
    ) -> bool {
        let Some((port, next_hop)) = self.host.next_hop(dst) else {
            return false;
        };
        let pkt = IpPacket::new(src, dst, IpProto::Udp, payload);
        self.ip.send(ctx, port, next_hop, pkt);
        true
    }

    /// Send an IP packet steering it via a specific received route — the
    /// per-packet, per-route control that standard BGP cannot express and
    /// vBGP delegates (§3.2.2). The routing decision travels in the
    /// frame's destination MAC.
    pub fn send_via_route(
        &mut self,
        ctx: &mut Ctx<'_>,
        route: &Route,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: Bytes,
    ) -> bool {
        self.send_along(ctx, route, IpPacket::new(src, dst, IpProto::Udp, payload))
    }

    /// Send a TTL-limited traceroute probe via a specific route. `ident`
    /// tags the probe's IP identification field so the time-exceeded reply
    /// (which embeds the original header, RFC 792) can be matched.
    pub fn send_probe_with_ttl(
        &mut self,
        ctx: &mut Ctx<'_>,
        route: &Route,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ttl: u8,
        ident: u16,
    ) -> bool {
        self.send_along(ctx, route, IpPacket::probe(src, dst, ttl, ident))
    }

    fn send_along(&mut self, ctx: &mut Ctx<'_>, route: &Route, pkt: IpPacket) -> bool {
        let Some((port, next_hop)) = self.host.egress(route) else {
            return false;
        };
        self.ip.send(ctx, port, next_hop, pkt);
        true
    }

    /// Time-exceeded replies received for probes tagged `ident`, as
    /// (replying hop address, original destination) pairs in arrival order
    /// — a traceroute result.
    pub fn traceroute_hops(&self, ident: u16) -> Vec<(Ipv4Addr, Ipv4Addr)> {
        traceroute_hops(&self.received, ident)
    }

    /// Lower-level: send a packet out `port` toward `next_hop`, resolving
    /// the MAC by ARP exactly as a real router would (Fig. 2b steps 5–8).
    pub fn send_to_next_hop(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        next_hop: Ipv4Addr,
        pkt: IpPacket,
    ) {
        self.ip.send(ctx, port, next_hop, pkt);
    }
}

impl Node for ExperimentNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
        if self.host.on_frame(ctx, port, &frame).is_some() {
            return;
        }
        let Some(received) = self.ip.on_frame(ctx, port, &frame) else {
            return;
        };
        if let Some((_, delivered)) = self.attachments.iter_mut().find(|(p, _)| *p == port) {
            delivered.inc(Delivered::Packets);
        }
        if let Some(off) = self.tag_offset {
            if let Some(&tag) = received.packet.payload.get(off) {
                self.by_tag[tag as usize] += 1;
            }
        }
        if self.record_received {
            self.received.push(received);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if BgpHost::owns_timer(token) {
            self.host.on_timer(ctx, token);
        }
    }

    fn label(&self) -> String {
        format!("experiment {}", self.asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_builder_shapes_paths() {
        let node = ExperimentNode::new(Asn(61574), RouterId(1));
        let nh: Ipv4Addr = "10.0.0.1".parse().unwrap();
        // Plain origination.
        let attrs = node.build_attrs(nh, 0, &[], &[]);
        assert_eq!(attrs.as_path.asns(), vec![Asn(61574)]);
        // Prepend ×2.
        let attrs = node.build_attrs(nh, 2, &[], &[]);
        assert_eq!(attrs.as_path.asns(), vec![Asn(61574); 3]);
        // Poisoning AS3356: origin stays the experiment.
        let attrs = node.build_attrs(nh, 0, &[Asn(3356)], &[]);
        assert_eq!(
            attrs.as_path.asns(),
            vec![Asn(61574), Asn(3356), Asn(61574)]
        );
        assert_eq!(attrs.as_path.origin_as(), Some(Asn(61574)));
        // Communities attach.
        let c = Community::new(47065, 2);
        let attrs = node.build_attrs(nh, 0, &[], &[c]);
        assert!(attrs.has_community(c));
    }

    #[test]
    fn attrs_builder_sanitizes_poisons() {
        let node = ExperimentNode::new(Asn(61574), RouterId(1));
        let nh: Ipv4Addr = "10.0.0.1".parse().unwrap();
        // Duplicates collapse to the first occurrence.
        let attrs = node.build_attrs(nh, 0, &[Asn(3356), Asn(174), Asn(3356)], &[]);
        assert_eq!(
            attrs.as_path.asns(),
            vec![Asn(61574), Asn(3356), Asn(174), Asn(61574)]
        );
        // The experiment's own ASN never appears inside the poison run.
        let attrs = node.build_attrs(nh, 0, &[Asn(61574)], &[]);
        assert_eq!(attrs.as_path.asns(), vec![Asn(61574)]);
        let attrs = node.build_attrs(nh, 0, &[Asn(3356), Asn(61574), Asn(174)], &[]);
        assert_eq!(
            attrs.as_path.asns(),
            vec![Asn(61574), Asn(3356), Asn(174), Asn(61574)]
        );
        // Total path length is capped at 255 hops.
        let many: Vec<Asn> = (1..=300).map(Asn).collect();
        let attrs = node.build_attrs(nh, 0, &many, &[]);
        assert_eq!(attrs.as_path.path_len(), 255);
        assert_eq!(attrs.as_path.origin_as(), Some(Asn(61574)));
        // Prepend alone is also bounded.
        let attrs = node.build_attrs(nh, 400, &[], &[]);
        assert_eq!(attrs.as_path.path_len(), 255);
    }
}
