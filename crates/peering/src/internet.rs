//! Synthetic Internet ASes (the substrate the real platform gets for free
//! by peering with the actual Internet).
//!
//! Each [`InternetAs`] is a full router node: it speaks BGP with
//! relationship-aware Gao–Rexford policies (customer routes exported
//! everywhere; peer/provider routes only to customers; local preference
//! customer > peer > provider), originates its own prefixes (its "customer
//! cone"), forwards transit traffic hop by hop with real ARP resolution and
//! TTL handling, and records traffic it terminates. A flag turns a node
//! into a transparent IXP route server (§4.2's multilateral peering).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use peering_bgp::attrs::PathAttributes;
use peering_bgp::policy::{Action, Match, Policy, Rule, Verdict};
use peering_bgp::rib::PeerId;
use peering_bgp::speaker::{PeerConfig, Speaker, SpeakerConfig};
use peering_bgp::types::{Asn, Community, Prefix, RouterId};
use peering_netsim::host::traceroute_hops;
use peering_netsim::{
    Bytes, Ctx, EtherFrame, IcmpPacket, IpHost, IpPacket, IpProto, MacAddr, Node, PortId,
    ReceivedPacket,
};
use peering_obs::Obs;
use peering_vbgp::transport::{BgpHost, Endpoint};

/// What the remote on a session is to us.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relationship {
    /// They pay us; we give them everything and take everything.
    Customer,
    /// Settlement-free peer: we exchange customer cones.
    Peer,
    /// We pay them: they give us everything, we give them our cone.
    Provider,
    /// Route-server client (when we are the route server).
    RsClient,
}

impl Relationship {
    fn local_pref(self) -> u32 {
        match self {
            Relationship::Customer => 200,
            Relationship::Peer | Relationship::RsClient => 100,
            Relationship::Provider => 50,
        }
    }
}

/// A synthetic Internet AS.
///
/// Its BGP state is read from `host.speaker`: the sessions, the RIBs and
/// the speaker's counters (session drops included, as
/// [`Speaker::sessions_dropped`]). The node keeps no log of BGP events.
pub struct InternetAs {
    /// BGP machinery.
    pub host: BgpHost,
    /// Addressing, ARP and framing on the session ports.
    ip: IpHost,
    asn: Asn,
    route_server: bool,
    te_communities: bool,
    relationships: HashMap<PeerId, Relationship>,
    originated: Vec<Prefix>,
    origin_communities: HashMap<Prefix, Vec<Community>>,
    /// Packets terminated here (destination in an originated prefix or
    /// one of our own addresses).
    pub received: Vec<ReceivedPacket>,
    /// Packets forwarded onward.
    pub forwarded: u64,
    /// Packets dropped: no route.
    pub no_route: u64,
    /// Packets dropped: TTL expired.
    pub ttl_expired: u64,
}

impl InternetAs {
    /// A regular AS.
    pub fn new(asn: Asn, router_id: RouterId) -> Self {
        InternetAs {
            host: BgpHost::new(Speaker::new(SpeakerConfig { asn, router_id })),
            ip: IpHost::new(),
            asn,
            route_server: false,
            te_communities: false,
            relationships: HashMap::new(),
            originated: Vec::new(),
            origin_communities: HashMap::new(),
            received: Vec::new(),
            forwarded: 0,
            no_route: 0,
            ttl_expired: 0,
        }
    }

    /// A transparent IXP route server: no prepend, next hops preserved,
    /// everything re-advertised to every client.
    pub fn route_server(asn: Asn, router_id: RouterId) -> Self {
        let mut this = Self::new(asn, router_id);
        this.route_server = true;
        this
    }

    /// The AS number.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// What the remote on `session` is to us, if the session exists.
    pub fn relationship(&self, session: PeerId) -> Option<Relationship> {
        self.relationships.get(&session).copied()
    }

    /// Adopt a shared observability handle and start journaling export
    /// suppressions (the valley-free enforcement firing). Meant for
    /// scenario nodes whose policy surface is under measurement — the
    /// platform's DFZ-scale fabrics keep the speaker's private registry.
    pub fn set_obs(&mut self, obs: Obs) {
        self.host.speaker.set_obs(obs);
        self.host.speaker.set_journal_export_rejects(true);
    }

    /// Honor TE action communities (`asn16:50` do-not-announce-regional,
    /// `asn16:61..=63` prepend-to-peer) on exports toward settlement-free
    /// peers. Existing peer sessions are re-compiled and their Adj-RIB-Out
    /// re-advertised immediately, so this is safe to flip on a running AS.
    pub fn enable_te_communities(&mut self, ctx: &mut Ctx<'_>) {
        self.te_communities = true;
        let refresh: Vec<(PeerId, Relationship)> = self
            .relationships
            .iter()
            .filter(|(_, r)| matches!(r, Relationship::Peer))
            .map(|(p, r)| (*p, *r))
            .collect();
        for (peer, rel) in refresh {
            let policy = self.export_policy(rel);
            let out = self.host.speaker.set_export_policy(peer, policy);
            self.host.apply(ctx, out);
        }
    }

    /// Install extra import rules (e.g. Peerlock `AsPathContains` rejects
    /// or `AsPathLenAtLeast` caps) ahead of the relationship's local-pref
    /// transform on one session, then ask the peer to re-send its routes
    /// (RFC 2918) so already-imported paths are re-evaluated. Routes the
    /// new rules reject are implicitly withdrawn on the refresh. Safe to
    /// call before the session is up — the refresh is a no-op and the
    /// policy applies to everything the session ever imports.
    pub fn install_import_filter(&mut self, ctx: &mut Ctx<'_>, session: PeerId, extra: Vec<Rule>) {
        let Some(&rel) = self.relationships.get(&session) else {
            return;
        };
        let mut rules = extra;
        rules.push(Rule::transform(
            Match::Any,
            vec![Action::SetLocalPref(rel.local_pref())],
        ));
        self.host
            .speaker
            .set_import_policy(session, Policy::new(rules, Verdict::Reject));
        let out = self.host.speaker.request_route_refresh(session, 1);
        self.host.apply(ctx, out);
    }

    /// Turn this AS into a route leaker: export the FULL table (peer- and
    /// provider-learned routes included) to every peer and provider,
    /// violating valley-free export — the classic type-1..4 route leak of
    /// RFC 7908 that Peerlock is designed to contain. Re-advertises
    /// immediately if sessions are already up.
    pub fn become_leaker(&mut self, ctx: &mut Ctx<'_>) {
        let upstreams: Vec<PeerId> = self
            .relationships
            .iter()
            .filter(|(_, r)| matches!(r, Relationship::Peer | Relationship::Provider))
            .map(|(p, _)| *p)
            .collect();
        for peer in upstreams {
            let out = self
                .host
                .speaker
                .set_export_policy(peer, Policy::accept_all());
            self.host.apply(ctx, out);
        }
    }

    /// Originate a prefix (announced to every session per policy).
    pub fn originate(&mut self, prefix: Prefix) {
        self.originated.push(prefix);
    }

    /// Originate a prefix tagged with communities — how a customer cone
    /// signals TE intent (e.g. `asn16:50` / `asn16:61..=63`) to upstream
    /// ASes that honor action communities.
    pub fn originate_with(&mut self, prefix: Prefix, communities: Vec<Community>) {
        self.originated.push(prefix);
        self.origin_communities.insert(prefix, communities);
    }

    /// Prefixes originated here.
    pub fn originated(&self) -> &[Prefix] {
        &self.originated
    }

    fn export_policy(&self, relationship: Relationship) -> Policy {
        if self.route_server {
            // Transparent: relay everything (split horizon in the speaker
            // keeps a client from hearing its own routes back).
            return Policy::accept_all();
        }
        match relationship {
            // Customers get the full table.
            Relationship::Customer | Relationship::RsClient => Policy::accept_all(),
            // Peers/providers get only our cone: local + customer routes.
            Relationship::Peer | Relationship::Provider => {
                let mut rules = Vec::new();
                if self.te_communities && relationship == Relationship::Peer {
                    rules.extend(self.te_rules());
                }
                rules.push(Rule::accept(Match::LocalOrigin));
                for (&peer, &rel) in &self.relationships {
                    if rel == Relationship::Customer {
                        rules.push(Rule::accept(Match::FromPeer(peer)));
                    }
                }
                Policy::new(rules, Verdict::Reject)
            }
        }
    }

    /// Action-community rules this AS honors on exports to settlement-free
    /// peers when [`InternetAs::enable_te_communities`] is on (§7.1's
    /// inbound-TE building blocks, interpreted by the Gao–Rexford engine):
    ///
    /// - `asn16:50` — do-not-announce-regional: suppress the route toward
    ///   peers entirely (it stays inside the customer cone).
    /// - `asn16:61..=63` — prepend-to-peer: prepend this AS n more times on
    ///   peer exports, lengthening the path seen beyond the peering edge.
    ///
    /// `asn16` is the low 16 bits of this AS's ASN, so an originator can
    /// target individual transit ASes.
    fn te_rules(&self) -> Vec<Rule> {
        let asn16 = (self.asn.0 & 0xFFFF) as u16;
        let mut rules = vec![Rule::reject(Match::HasCommunity(Community::new(asn16, 50)))];
        for n in 1..=3usize {
            rules.push(Rule::amend(
                Match::HasCommunity(Community::new(asn16, 60 + n as u16)),
                vec![Action::Prepend(self.asn, n)],
            ));
        }
        rules
    }

    fn import_policy(relationship: Relationship) -> Policy {
        Policy::new(
            vec![Rule::transform(
                Match::Any,
                vec![Action::SetLocalPref(relationship.local_pref())],
            )],
            Verdict::Reject,
        )
    }

    /// Add a BGP session on `port`. Returns the session id.
    #[allow(clippy::too_many_arguments)]
    pub fn add_session(
        &mut self,
        session: PeerId,
        relationship: Relationship,
        remote_asn: Asn,
        port: PortId,
        local_mac: MacAddr,
        local_addr: Ipv4Addr,
        remote_mac: MacAddr,
        remote_addr: Ipv4Addr,
        passive: bool,
    ) -> PeerId {
        self.ip.add_port(port, local_mac, local_addr);
        self.relationships.insert(session, relationship);
        let mut cfg = PeerConfig::ebgp(remote_asn, remote_addr.into(), local_addr.into())
            .with_import(Self::import_policy(relationship))
            .with_export(self.export_policy(relationship));
        if passive {
            cfg = cfg.with_passive();
        }
        if self.route_server {
            cfg = cfg.with_transparent().with_next_hop_unchanged();
        }
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
        // Existing peer/provider export policies may need to include the
        // new customer.
        if relationship == Relationship::Customer {
            let refresh: Vec<(PeerId, Relationship)> = self
                .relationships
                .iter()
                .filter(|(_, r)| matches!(r, Relationship::Peer | Relationship::Provider))
                .map(|(p, r)| (*p, *r))
                .collect();
            for (peer, rel) in refresh {
                let policy = self.export_policy(rel);
                let _ = self.host.speaker.set_export_policy(peer, policy);
            }
        }
        session
    }

    /// Start every session and announce originated prefixes.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        for session in self.host.speaker.peer_ids() {
            self.host.start(ctx, session);
        }
        // The lowest port's address is the next hop; export rewrites it per
        // session (next-hop-self).
        let nh = self.ip.first_addr().unwrap_or(Ipv4Addr::UNSPECIFIED);
        let prefixes = self.originated.clone();
        for prefix in prefixes {
            let mut attrs = PathAttributes::originated(nh.into());
            if let Some(communities) = self.origin_communities.get(&prefix) {
                attrs.communities = communities.clone();
            }
            let out = self.host.speaker.originate(prefix, attrs);
            self.host.apply(ctx, out);
        }
    }

    /// Originate a prefix on a *running* AS: register it and announce it
    /// immediately over every established session. [`InternetAs::originate`]
    /// only takes effect at [`InternetAs::start`]; serving experiments that
    /// seed customer-cone prefixes after the platform's convergence run need
    /// this live path.
    pub fn originate_now(&mut self, ctx: &mut Ctx<'_>, prefix: Prefix) {
        self.originated.push(prefix);
        let nh = self.ip.first_addr().unwrap_or(Ipv4Addr::UNSPECIFIED);
        let attrs = PathAttributes::originated(nh.into());
        let out = self.host.speaker.originate(prefix, attrs);
        self.host.apply(ctx, out);
    }

    /// Send a probe packet toward `dst` along the best route (vantage-point
    /// measurements).
    pub fn send_probe(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: Bytes,
    ) -> bool {
        let pkt = IpPacket::new(src, dst, IpProto::Udp, payload);
        self.forward(ctx, pkt, true)
    }

    /// Send an arbitrary, fully-formed packet along the best route toward
    /// its destination — the traffic-generator entry point (client flows
    /// injected at their home AS). Unlike [`InternetAs::send_probe`] the
    /// caller controls the protocol and transport header bytes, so
    /// TCP-shaped attack flows can be synthesized. Returns `false` (and
    /// counts `no_route`) when the AS holds no route for the destination.
    pub fn send_packet(&mut self, ctx: &mut Ctx<'_>, pkt: IpPacket) -> bool {
        self.forward(ctx, pkt, true)
    }

    /// Send a TTL-limited probe toward `dst` along the best route. `ident`
    /// tags the probe's IP identification field so the time-exceeded reply
    /// (which embeds the original header, RFC 792) can be matched by
    /// [`InternetAs::traceroute_hops`] — the vantage-point traceroute the
    /// poisoning scenarios use to verify return-path steering.
    pub fn send_probe_with_ttl(
        &mut self,
        ctx: &mut Ctx<'_>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ttl: u8,
        ident: u16,
    ) -> bool {
        self.forward(ctx, IpPacket::probe(src, dst, ttl, ident), true)
    }

    /// Time-exceeded replies received for probes tagged `ident`, as
    /// (replying hop address, original destination) pairs in arrival
    /// order — a traceroute result.
    pub fn traceroute_hops(&self, ident: u16) -> Vec<(Ipv4Addr, Ipv4Addr)> {
        traceroute_hops(&self.received, ident)
    }

    /// Best route next hop for a destination (looking-glass surface, §8).
    pub fn best_route(&self, dst: Ipv4Addr) -> Option<peering_bgp::rib::Route> {
        self.host.speaker.loc_rib().lookup(dst.into()).cloned()
    }

    fn terminates(&self, dst: Ipv4Addr) -> bool {
        self.originated.iter().any(|p| p.contains_addr(dst.into())) || self.ip.owns(dst)
    }

    fn forward(&mut self, ctx: &mut Ctx<'_>, pkt: IpPacket, local_origin: bool) -> bool {
        let Some((port, next_hop)) = self.host.next_hop(pkt.header.dst) else {
            self.no_route += 1;
            return false;
        };
        if !local_origin {
            self.forwarded += 1;
        }
        self.ip.send(ctx, port, next_hop, pkt);
        true
    }

    fn send_time_exceeded(&mut self, ctx: &mut Ctx<'_>, expired: &IpPacket, ingress: PortId) {
        // RFC 1122 §3.2.2: never answer an ICMP error with another one —
        // two hops could otherwise trade time-exceededs forever. An echo
        // request still gets one, which traceroute over ICMP needs.
        if IcmpPacket::is_error(expired) {
            return;
        }
        let Some(our_addr) = self.ip.addr(ingress) else {
            return;
        };
        let te = IcmpPacket::time_exceeded_for(expired);
        let out = IpPacket::new(our_addr, expired.header.src, IpProto::Icmp, te.encode());
        self.forward(ctx, out, true);
    }
}

/// The echo reply answering `pkt`, if it is an ICMP echo request.
fn echo_reply(pkt: &IpPacket) -> Option<IpPacket> {
    if pkt.header.proto != IpProto::Icmp {
        return None;
    }
    let Some(IcmpPacket::EchoRequest {
        ident,
        seq,
        payload,
    }) = IcmpPacket::decode(&pkt.payload)
    else {
        return None;
    };
    let reply = IcmpPacket::EchoReply {
        ident,
        seq,
        payload,
    };
    let (src, dst) = (pkt.header.dst, pkt.header.src);
    Some(IpPacket::new(src, dst, IpProto::Icmp, reply.encode()))
}

impl Node for InternetAs {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
        if self.host.on_frame(ctx, port, &frame).is_some() {
            return;
        }
        let Some(mut received) = self.ip.on_frame(ctx, port, &frame) else {
            return;
        };
        let pkt = &mut received.packet;
        if self.terminates(pkt.header.dst) {
            // Answer pings (ICMP sockets are part of the synthetic
            // Internet's measurement surface).
            let reply = echo_reply(pkt);
            self.received.push(received);
            if let Some(reply) = reply {
                self.forward(ctx, reply, true);
            }
            return;
        }
        if !pkt.decrement_ttl() {
            self.ttl_expired += 1;
            // RFC 792: time-exceeded back to the source, from OUR
            // address (the primary-address story of §5).
            self.send_time_exceeded(ctx, &received.packet, port);
            return;
        }
        self.forward(ctx, received.packet, false);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if BgpHost::owns_timer(token) {
            self.host.on_timer(ctx, token);
        }
    }

    fn label(&self) -> String {
        if self.route_server {
            format!("route-server {}", self.asn)
        } else {
            format!("internet-as {}", self.asn)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_bgp::speaker::PeerCounter;
    use peering_bgp::types::prefix;
    use peering_netsim::{LinkConfig, NodeId, SimDuration, Simulator};

    /// Build a 4-AS chain: stub(65001) -- provider(65002) == peer (65003) -- stub-customer(65004)
    /// where == is a settlement-free peering. GR predicts 65001's prefix is
    /// visible at 65004 (customer→provider→peer→customer) — and that a
    /// prefix of 65003 is NOT exported by 65002 to 65001?? (it is: 65001 is
    /// a customer and gets everything). The classic *invisibility* is:
    /// peer routes are not re-exported to other peers/providers.
    struct Net {
        sim: Simulator,
        nodes: Vec<NodeId>,
    }

    fn addr(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 200, n, 1)
    }

    fn mk(asn: u32) -> InternetAs {
        InternetAs::new(Asn(asn), RouterId(asn))
    }

    /// Link two ASes: `rel_ab` is what B is to A.
    fn link(
        sim: &mut Simulator,
        a: NodeId,
        b: NodeId,
        a_port: u16,
        b_port: u16,
        rel_ab: Relationship,
        seq: u8,
    ) {
        let rel_ba = match rel_ab {
            Relationship::Customer => Relationship::Provider,
            Relationship::Provider => Relationship::Customer,
            Relationship::Peer => Relationship::Peer,
            Relationship::RsClient => Relationship::RsClient,
        };
        let mac_a = MacAddr::from_id(0xA0000 + (seq as u32) * 2);
        let mac_b = MacAddr::from_id(0xA0001 + (seq as u32) * 2);
        let addr_a = addr(seq * 2);
        let addr_b = addr(seq * 2 + 1);
        let (asn_a, asn_b) = {
            let na = sim.node::<InternetAs>(a).unwrap().asn();
            let nb = sim.node::<InternetAs>(b).unwrap().asn();
            (na, nb)
        };
        sim.with_node_ctx::<InternetAs, _>(a, |n, _| {
            n.add_session(
                PeerId(seq as u32),
                rel_ab,
                asn_b,
                PortId(a_port),
                mac_a,
                addr_a,
                mac_b,
                addr_b,
                false,
            );
        });
        sim.with_node_ctx::<InternetAs, _>(b, |n, _| {
            n.add_session(
                PeerId(seq as u32),
                rel_ba,
                asn_a,
                PortId(b_port),
                mac_b,
                addr_b,
                mac_a,
                addr_a,
                true,
            );
        });
        sim.connect(
            a,
            PortId(a_port),
            b,
            PortId(b_port),
            LinkConfig::with_latency(SimDuration::from_millis(5)),
        );
    }

    fn start_all(net: &mut Net) {
        for &node in &net.nodes {
            net.sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| n.start(ctx));
        }
        net.sim.run_for(SimDuration::from_secs(10));
    }

    /// stub(0) is customer of t1(1); t1 peers with t2(2); stub2(3) is
    /// customer of t2; t1 is also customer of big(4).
    fn diamond() -> Net {
        let mut sim = Simulator::new(5);
        let mut stub = mk(65001);
        stub.originate(prefix("198.18.0.0/24"));
        let t1 = mk(65002);
        let mut t2 = mk(65003);
        t2.originate(prefix("198.18.3.0/24"));
        let mut stub2 = mk(65004);
        stub2.originate(prefix("198.18.4.0/24"));
        let mut big = mk(65005);
        big.originate(prefix("198.18.5.0/24"));
        let nodes = vec![
            sim.add_node(Box::new(stub)),
            sim.add_node(Box::new(t1)),
            sim.add_node(Box::new(t2)),
            sim.add_node(Box::new(stub2)),
            sim.add_node(Box::new(big)),
        ];
        let mut net = Net { sim, nodes };
        // stub -- t1: t1 is stub's provider.
        link(
            &mut net.sim,
            net.nodes[0],
            net.nodes[1],
            0,
            0,
            Relationship::Provider,
            1,
        );
        // t1 == t2 peering.
        link(
            &mut net.sim,
            net.nodes[1],
            net.nodes[2],
            1,
            0,
            Relationship::Peer,
            2,
        );
        // stub2 -- t2: t2 is stub2's provider.
        link(
            &mut net.sim,
            net.nodes[3],
            net.nodes[2],
            0,
            1,
            Relationship::Provider,
            3,
        );
        // t1 -- big: big is t1's provider.
        link(
            &mut net.sim,
            net.nodes[1],
            net.nodes[4],
            2,
            0,
            Relationship::Provider,
            4,
        );
        net
    }

    #[test]
    fn customer_routes_propagate_through_peering() {
        let mut net = diamond();
        start_all(&mut net);
        // stub's prefix: customer of t1 → exported to peer t2 → customer
        // stub2 sees it.
        let stub2 = net.sim.node::<InternetAs>(net.nodes[3]).unwrap();
        let route = stub2.best_route("198.18.0.1".parse().unwrap());
        assert!(route.is_some(), "customer cone crosses the peering link");
        assert_eq!(
            route.unwrap().attrs.as_path.asns(),
            vec![Asn(65003), Asn(65002), Asn(65001)]
        );
    }

    #[test]
    fn peer_routes_do_not_reach_providers() {
        let mut net = diamond();
        start_all(&mut net);
        // t2's own prefix crosses the peering to t1, but t1 must NOT export
        // it upward to its provider big (valley-free routing).
        let t1 = net.sim.node::<InternetAs>(net.nodes[1]).unwrap();
        assert!(t1.best_route("198.18.3.1".parse().unwrap()).is_some());
        let big = net.sim.node::<InternetAs>(net.nodes[4]).unwrap();
        assert!(
            big.best_route("198.18.3.1".parse().unwrap()).is_none(),
            "peer-learned route leaked to a provider"
        );
        // But t1's customer routes DO go up.
        assert!(big.best_route("198.18.0.1".parse().unwrap()).is_some());
    }

    #[test]
    fn customer_route_preferred_over_peer_and_provider() {
        // big announces a prefix; t1 hears it via provider. If stub also
        // announces it (anycast-style), t1 prefers the customer route.
        let mut net = diamond();
        net.sim
            .with_node_ctx::<InternetAs, _>(net.nodes[0], |n, _| {
                n.originate(prefix("198.18.5.0/24"))
            });
        start_all(&mut net);
        let t1 = net.sim.node::<InternetAs>(net.nodes[1]).unwrap();
        let best = t1.best_route("198.18.5.1".parse().unwrap()).unwrap();
        assert_eq!(
            best.attrs.as_path.origin_as(),
            Some(Asn(65001)),
            "customer wins by local preference"
        );
        assert_eq!(best.attrs.local_pref, Some(200));
    }

    #[test]
    fn data_plane_forwards_end_to_end() {
        let mut net = diamond();
        start_all(&mut net);
        // stub2 probes stub's prefix: path stub2 → t2 → t1 → stub.
        net.sim
            .with_node_ctx::<InternetAs, _>(net.nodes[3], |n, ctx| {
                assert!(n.send_probe(
                    ctx,
                    "198.18.4.9".parse().unwrap(),
                    "198.18.0.7".parse().unwrap(),
                    Bytes::from_static(b"probe"),
                ));
            });
        net.sim.run_for(SimDuration::from_secs(5));
        let stub = net.sim.node::<InternetAs>(net.nodes[0]).unwrap();
        assert_eq!(stub.received.len(), 1);
        assert_eq!(
            stub.received[0].packet.header.src,
            "198.18.4.9".parse::<Ipv4Addr>().unwrap()
        );
        // Two intermediate hops decremented TTL: 64 - 2 = 62.
        assert_eq!(stub.received[0].packet.header.ttl, 62);
        let t1 = net.sim.node::<InternetAs>(net.nodes[1]).unwrap();
        let t2 = net.sim.node::<InternetAs>(net.nodes[2]).unwrap();
        assert_eq!(t1.forwarded, 1);
        assert_eq!(t2.forwarded, 1);
    }

    #[test]
    fn no_route_probe_fails() {
        let mut net = diamond();
        start_all(&mut net);
        net.sim
            .with_node_ctx::<InternetAs, _>(net.nodes[0], |n, ctx| {
                assert!(!n.send_probe(
                    ctx,
                    "198.18.0.1".parse().unwrap(),
                    "203.0.113.1".parse().unwrap(),
                    Bytes::new(),
                ));
                assert_eq!(n.no_route, 1);
            });
    }

    #[test]
    fn route_server_is_transparent() {
        // Two clients + RS on a shared switch; the RS relays routes without
        // entering the AS path.
        let mut sim = Simulator::new(9);
        let sw = sim.add_node(Box::new(peering_netsim::LearningSwitch::new(3)));
        let mut rs = InternetAs::route_server(Asn(64600), RouterId(64600));
        let mut c1 = mk(65101);
        c1.originate(prefix("198.19.1.0/24"));
        let c2 = mk(65102);

        let rs_mac = MacAddr::from_id(0xE0);
        let c1_mac = MacAddr::from_id(0xE1);
        let c2_mac = MacAddr::from_id(0xE2);
        let rs_addr: Ipv4Addr = "10.210.0.1".parse().unwrap();
        let c1_addr: Ipv4Addr = "10.210.0.2".parse().unwrap();
        let c2_addr: Ipv4Addr = "10.210.0.3".parse().unwrap();

        rs.add_session(
            PeerId(0),
            Relationship::RsClient,
            Asn(65101),
            PortId(0),
            rs_mac,
            rs_addr,
            c1_mac,
            c1_addr,
            true,
        );
        rs.add_session(
            PeerId(1),
            Relationship::RsClient,
            Asn(65102),
            PortId(0),
            rs_mac,
            rs_addr,
            c2_mac,
            c2_addr,
            true,
        );
        let mut c1_node = c1;
        c1_node.add_session(
            PeerId(0),
            Relationship::Peer,
            Asn(64600),
            PortId(0),
            c1_mac,
            c1_addr,
            rs_mac,
            rs_addr,
            false,
        );
        let mut c2_node = c2;
        c2_node.add_session(
            PeerId(0),
            Relationship::Peer,
            Asn(64600),
            PortId(0),
            c2_mac,
            c2_addr,
            rs_mac,
            rs_addr,
            false,
        );

        let rs = sim.add_node(Box::new(rs));
        let c1 = sim.add_node(Box::new(c1_node));
        let c2 = sim.add_node(Box::new(c2_node));
        let cfg = LinkConfig::with_latency(SimDuration::from_millis(1));
        sim.connect(sw, PortId(0), rs, PortId(0), cfg);
        sim.connect(sw, PortId(1), c1, PortId(0), cfg);
        sim.connect(sw, PortId(2), c2, PortId(0), cfg);
        for node in [rs, c1, c2] {
            sim.with_node_ctx::<InternetAs, _>(node, |n, ctx| n.start(ctx));
        }
        sim.run_for(SimDuration::from_secs(10));

        let c2_node = sim.node::<InternetAs>(c2).unwrap();
        let route = c2_node.best_route("198.19.1.1".parse().unwrap());
        assert!(route.is_some(), "route server relays client routes");
        // Transparent: the RS ASN is absent from the path.
        assert_eq!(route.unwrap().attrs.as_path.asns(), vec![Asn(65101)]);
    }

    #[test]
    fn valley_free_suppression_is_counted_and_journaled() {
        // The enforcement behind `peer_routes_do_not_reach_providers`,
        // observed from the inside: t1 withholding t2's peer-learned prefix
        // from its provider `big` increments the session's export_rejected
        // counter and (with journaling opted in) lands in the journal.
        let mut net = diamond();
        let obs = peering_obs::Obs::new();
        let handle = obs.clone();
        net.sim
            .with_node_ctx::<InternetAs, _>(net.nodes[1], |n, _| n.set_obs(handle));
        start_all(&mut net);
        let t1 = net.sim.node::<InternetAs>(net.nodes[1]).unwrap();
        // Sanity: the leak really was suppressed.
        let big = net.sim.node::<InternetAs>(net.nodes[4]).unwrap();
        assert!(big.best_route("198.18.3.1".parse().unwrap()).is_none());
        // t1's session toward big is PeerId(4) (link seq 4).
        let stats = t1.host.speaker.peer_stats(PeerId(4)).unwrap();
        let rejected = stats.get(PeerCounter::ExportRejected);
        assert!(rejected > 0, "valley-free suppression must be counted");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("bgp.export_rejected{peer=4}"), Some(rejected));
        let journaled = obs
            .events()
            .iter()
            .filter(|e| matches!(e.kind, peering_obs::EventKind::ExportSuppressed { peer: 4 }))
            .count();
        assert!(journaled > 0, "suppression must be journaled when opted in");
    }

    #[test]
    fn te_do_not_announce_community_blackholes_peers() {
        // stub tags its prefix with t1's do-not-announce-regional community
        // (65002 & 0xffff = 65002, low 50). With TE enabled at t1, the
        // prefix must not cross the t1==t2 peering — but still climbs to
        // t1's provider big (the community only gates peer exports).
        let mut net = diamond();
        net.sim
            .with_node_ctx::<InternetAs, _>(net.nodes[1], |n, ctx| n.enable_te_communities(ctx));
        net.sim
            .with_node_ctx::<InternetAs, _>(net.nodes[0], |n, _| {
                n.originate_with(prefix("198.18.100.0/24"), vec![Community::new(65002, 50)]);
            });
        start_all(&mut net);
        let t2 = net.sim.node::<InternetAs>(net.nodes[2]).unwrap();
        assert!(
            t2.best_route("198.18.100.1".parse().unwrap()).is_none(),
            "do-not-announce community must gate the peer export"
        );
        let big = net.sim.node::<InternetAs>(net.nodes[4]).unwrap();
        assert!(
            big.best_route("198.18.100.1".parse().unwrap()).is_some(),
            "provider export is unaffected"
        );
        // The untagged baseline prefix still crosses the peering.
        assert!(t2.best_route("198.18.0.1".parse().unwrap()).is_some());
    }

    #[test]
    fn te_prepend_community_lengthens_peer_path() {
        // stub asks t1 for one extra prepend toward peers (65002:61). t2
        // sees the path lengthened by exactly one extra 65002 hop.
        let mut net = diamond();
        net.sim
            .with_node_ctx::<InternetAs, _>(net.nodes[1], |n, ctx| n.enable_te_communities(ctx));
        net.sim
            .with_node_ctx::<InternetAs, _>(net.nodes[0], |n, _| {
                n.originate_with(prefix("198.18.100.0/24"), vec![Community::new(65002, 61)]);
            });
        start_all(&mut net);
        let t2 = net.sim.node::<InternetAs>(net.nodes[2]).unwrap();
        let tagged = t2.best_route("198.18.100.1".parse().unwrap()).unwrap();
        assert_eq!(
            tagged.attrs.as_path.asns(),
            vec![Asn(65002), Asn(65002), Asn(65001)],
            "prepend-to-peer adds one extra 65002"
        );
        let baseline = t2.best_route("198.18.0.1".parse().unwrap()).unwrap();
        assert_eq!(baseline.attrs.as_path.asns(), vec![Asn(65002), Asn(65001)]);
        // The provider path is NOT prepended (community targets peers).
        let big = net.sim.node::<InternetAs>(net.nodes[4]).unwrap();
        let up = big.best_route("198.18.100.1".parse().unwrap()).unwrap();
        assert_eq!(up.attrs.as_path.asns(), vec![Asn(65002), Asn(65001)]);
    }

    #[test]
    fn origination_next_hop_is_lowest_port() {
        // t1 has three ports (0, 1, 2 from link seqs 1, 2, 4). Its
        // originated attributes must pin the next hop to port 0's address.
        let mut net = diamond();
        net.sim
            .with_node_ctx::<InternetAs, _>(net.nodes[1], |n, _| {
                n.originate(prefix("198.18.2.0/24"))
            });
        start_all(&mut net);
        let t1 = net.sim.node::<InternetAs>(net.nodes[1]).unwrap();
        let route = t1.best_route("198.18.2.1".parse().unwrap()).unwrap();
        assert_eq!(
            route.attrs.next_hop,
            Some("10.200.3.1".parse::<Ipv4Addr>().unwrap().into()),
            "originated next hop must come from the lowest port"
        );
    }
}
