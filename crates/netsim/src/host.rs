//! An IPv4 host stack: what a simulated host needs to put IP packets on
//! the wire.
//!
//! A host gives each of its ports its own MAC and address, answers ARP for
//! those addresses, resolves next hops by ARP — queueing packets behind an
//! unresolved next hop and sending them in arrival order once it answers
//! (paper §3.2.2, Fig. 2b steps 5–8) — frames what it sends, and hands the
//! IPv4 packets it receives to the node that embeds it. The experiment
//! router and every synthetic AS embed one. The vBGP router does not: it
//! answers ARP for virtual next hops and resolves neighbors through its
//! mux, a different role.

use std::net::Ipv4Addr;

use crate::arp::{ArpCache, ArpOp, ArpPacket};
use crate::fasthash::FastHashMap;
use crate::frame::{EtherFrame, EtherType};
use crate::icmp::IcmpPacket;
use crate::ip::{IpPacket, IpProto};
use crate::mac::MacAddr;
use crate::sim::{Ctx, PortId};

/// An IPv4 packet a host received, with the delivery metadata of its frame.
#[derive(Debug, Clone)]
pub struct ReceivedPacket {
    /// The IP packet.
    pub packet: IpPacket,
    /// Source MAC as delivered — a virtual neighbor MAC when the packet
    /// came through vBGP (§3.2.2 "Routing traffic to experiments").
    pub src_mac: MacAddr,
    /// Port it arrived on.
    pub port: PortId,
}

/// Time-exceeded replies among `received` for probes tagged `ident`, as
/// (replying hop address, original destination) pairs in arrival order —
/// a traceroute result.
pub fn traceroute_hops(received: &[ReceivedPacket], ident: u16) -> Vec<(Ipv4Addr, Ipv4Addr)> {
    received
        .iter()
        .filter(|r| r.packet.header.proto == IpProto::Icmp)
        .filter_map(|r| {
            let (probe, original_dst) = IcmpPacket::decode(&r.packet.payload)?.original_probe()?;
            (probe == ident).then_some((r.packet.header.src, original_dst))
        })
        .collect()
}

/// A port's own addresses.
#[derive(Debug, Clone, Copy)]
struct Port {
    mac: MacAddr,
    addr: Ipv4Addr,
}

/// A host's IPv4 stack over its Ethernet ports.
#[derive(Debug, Default)]
pub struct IpHost {
    /// Indexed by port number; `None` for a port never given addresses.
    ports: Vec<Option<Port>>,
    arp: ArpCache,
    /// Packets waiting for their next hop to resolve, in arrival order.
    pending: FastHashMap<Ipv4Addr, Vec<(PortId, IpPacket)>>,
}

impl IpHost {
    /// A host with no ports.
    pub fn new() -> Self {
        Self::default()
    }

    /// Give `port` its own MAC and address. Adding a port again replaces
    /// both.
    pub fn add_port(&mut self, port: PortId, mac: MacAddr, addr: Ipv4Addr) {
        let i = usize::from(port.0);
        if self.ports.len() <= i {
            self.ports.resize(i + 1, None);
        }
        self.ports[i] = Some(Port { mac, addr });
    }

    /// The address of `port`, if it has one.
    pub fn addr(&self, port: PortId) -> Option<Ipv4Addr> {
        self.port(port).map(|p| p.addr)
    }

    /// The address of the lowest-numbered port that has one.
    pub fn first_addr(&self) -> Option<Ipv4Addr> {
        self.ports.iter().flatten().next().map(|p| p.addr)
    }

    /// Whether `addr` is the address of one of this host's ports.
    pub fn owns(&self, addr: Ipv4Addr) -> bool {
        self.ports.iter().flatten().any(|p| p.addr == addr)
    }

    /// Send `pkt` out `port` toward `next_hop`: at once if the next hop is
    /// resolved, otherwise queued behind an ARP request from the port's own
    /// addresses (at most one a second per next hop).
    ///
    /// # Panics
    ///
    /// If `port` has no addresses.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, port: PortId, next_hop: Ipv4Addr, pkt: IpPacket) {
        let now = ctx.now();
        if let Some(mac) = self.arp.lookup(next_hop, now) {
            return self.transmit(ctx, port, mac, &pkt);
        }
        self.pending.entry(next_hop).or_default().push((port, pkt));
        if self.arp.may_request(next_hop, now) {
            let own = self.own(port);
            let request = ArpPacket::request(own.mac, own.addr, next_hop);
            ctx.send_frame(
                port,
                EtherFrame::new(
                    MacAddr::BROADCAST,
                    own.mac,
                    EtherType::Arp,
                    request.encode(),
                ),
            );
        }
    }

    /// Take a frame that is not BGP: answer an ARP request for the
    /// receiving port's own address, learn an ARP reply and send what was
    /// waiting for it, and return an IPv4 packet for the embedding node.
    pub fn on_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        frame: &EtherFrame,
    ) -> Option<ReceivedPacket> {
        match frame.ethertype {
            EtherType::Ipv4 => IpPacket::decode(&frame.payload).map(|packet| ReceivedPacket {
                packet,
                src_mac: frame.src,
                port,
            }),
            EtherType::Arp => {
                self.on_arp(ctx, port, &frame.payload);
                None
            }
            _ => None,
        }
    }

    fn on_arp(&mut self, ctx: &mut Ctx<'_>, port: PortId, payload: &[u8]) {
        let Some(arp) = ArpPacket::decode(payload) else {
            return;
        };
        match arp.op {
            ArpOp::Request => {
                let Some(own) = self.port(port).filter(|own| own.addr == arp.target_ip) else {
                    return;
                };
                let reply = ArpPacket::reply_to(&arp, own.mac);
                ctx.send_frame(
                    port,
                    EtherFrame::new(arp.sender_mac, own.mac, EtherType::Arp, reply.encode()),
                );
            }
            ArpOp::Reply => {
                self.arp.insert(arp.sender_ip, arp.sender_mac, ctx.now());
                for (port, pkt) in self.pending.remove(&arp.sender_ip).unwrap_or_default() {
                    self.transmit(ctx, port, arp.sender_mac, &pkt);
                }
            }
        }
    }

    fn transmit(&self, ctx: &mut Ctx<'_>, port: PortId, dst_mac: MacAddr, pkt: &IpPacket) {
        let src_mac = self.own(port).mac;
        ctx.send_frame(
            port,
            EtherFrame::new(dst_mac, src_mac, EtherType::Ipv4, pkt.encode()),
        );
    }

    fn port(&self, port: PortId) -> Option<Port> {
        self.ports.get(usize::from(port.0)).copied().flatten()
    }

    fn own(&self, port: PortId) -> Port {
        self.port(port)
            .unwrap_or_else(|| panic!("{port:?} has no addresses"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;
    use crate::link::LinkConfig;
    use crate::sim::{Node, NodeId, Simulator};
    use crate::time::SimDuration;

    /// A host that keeps everything it receives.
    struct Host {
        ip: IpHost,
        received: Vec<ReceivedPacket>,
    }

    impl Node for Host {
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
            self.received.extend(self.ip.on_frame(ctx, port, &frame));
        }
    }

    fn addr(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    /// Hosts 10.0.0.1 and 10.0.0.2 on one link.
    fn pair() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        let mut host = |n: u8| {
            let mut ip = IpHost::new();
            ip.add_port(PortId(0), MacAddr::from_id(u32::from(n)), addr(n));
            sim.add_node(Box::new(Host {
                ip,
                received: Vec::new(),
            }))
        };
        let (a, b) = (host(1), host(2));
        sim.connect(a, PortId(0), b, PortId(0), LinkConfig::default());
        (sim, a, b)
    }

    fn udp(dst: Ipv4Addr, ident: u16) -> IpPacket {
        let mut pkt = IpPacket::new(addr(1), dst, IpProto::Udp, Bytes::from_static(b"x"));
        pkt.header.ident = ident;
        pkt
    }

    fn send(sim: &mut Simulator, node: NodeId, next_hop: Ipv4Addr, idents: &[u16]) {
        sim.with_node_ctx::<Host, _>(node, |h, ctx| {
            for &i in idents {
                h.ip.send(ctx, PortId(0), next_hop, udp(addr(2), i));
            }
        });
        sim.run_for(SimDuration::from_millis(10));
    }

    fn idents(sim: &Simulator, node: NodeId) -> Vec<u16> {
        let host = sim.node::<Host>(node).unwrap();
        host.received
            .iter()
            .map(|r| r.packet.header.ident)
            .collect()
    }

    #[test]
    fn queued_packets_flush_in_order_behind_one_request() {
        let (mut sim, a, b) = pair();
        send(&mut sim, a, addr(2), &[1, 2, 3]);
        assert_eq!(idents(&sim, b), [1, 2, 3]);
        let host = sim.node::<Host>(b).unwrap();
        assert_eq!(host.received[0].src_mac, MacAddr::from_id(1));
        // Resolved now: the next packet goes straight out.
        send(&mut sim, a, addr(2), &[4]);
        assert_eq!(idents(&sim, b), [1, 2, 3, 4]);
    }

    #[test]
    fn ports_and_addresses() {
        let mut ip = IpHost::new();
        assert_eq!(ip.first_addr(), None);
        ip.add_port(PortId(3), MacAddr::from_id(3), addr(3));
        ip.add_port(PortId(1), MacAddr::from_id(1), addr(5));
        ip.add_port(PortId(1), MacAddr::from_id(1), addr(1));
        assert_eq!(ip.first_addr(), Some(addr(1)));
        assert_eq!(ip.addr(PortId(2)), None);
        assert!(ip.owns(addr(3)) && !ip.owns(addr(5)));
    }
}
