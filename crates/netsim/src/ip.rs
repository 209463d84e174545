//! IPv4 packets with wire-level encode/decode.
//!
//! The vBGP data plane forwards IP packets between experiments and neighbors;
//! the enforcement engine inspects source addresses (anti-spoofing) and the
//! forwarding path decrements TTL like a real router. Headers are encoded to
//! and parsed from real wire bytes (including the header checksum) so tests
//! exercise the same paths a kernel would.
//!
//! A hop pays for one copy of a packet, not three: [`IpPacket::decode`]
//! returns a payload that is a view of the frame's buffer, and
//! [`IpPacket::encode`] writes the header and payload straight into one new
//! shared buffer.

use crate::bytes::Bytes;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// IP protocol numbers carried in the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProto {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// Parse from wire value.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// Length of the fixed IPv4 header (no options) in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// A parsed IPv4 header (options unsupported, like smoltcp).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: IpProto,
    /// Identification field (used by traceroute-style probing in tests).
    pub ident: u16,
}

impl Ipv4Header {
    /// Compute the Internet checksum over a header buffer with its checksum
    /// field zeroed or populated (RFC 1071).
    fn checksum(buf: &[u8]) -> u16 {
        let mut sum: u32 = 0;
        let mut chunks = buf.chunks_exact(2);
        for chunk in &mut chunks {
            sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Encode this header (for a payload of `payload_len` bytes) to wire
    /// bytes including a valid checksum.
    pub fn encode(&self, payload_len: usize) -> [u8; IPV4_HEADER_LEN] {
        let total_len = (IPV4_HEADER_LEN + payload_len) as u16;
        let mut buf = [0u8; IPV4_HEADER_LEN];
        buf[0] = 0x45; // version 4, IHL 5
        buf[2..4].copy_from_slice(&total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[8] = self.ttl;
        buf[9] = self.proto.to_u8();
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let csum = Self::checksum(&buf);
        buf[10..12].copy_from_slice(&csum.to_be_bytes());
        buf
    }

    /// Parse a header from wire bytes, validating version, IHL, length and
    /// checksum. Returns the header and the declared total length.
    pub fn decode(buf: &[u8]) -> Option<(Ipv4Header, usize)> {
        if buf.len() < IPV4_HEADER_LEN {
            return None;
        }
        if buf[0] != 0x45 {
            return None; // options / other versions unsupported
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total_len < IPV4_HEADER_LEN || total_len > buf.len() {
            return None;
        }
        if Self::checksum(&buf[..IPV4_HEADER_LEN]) != 0 {
            return None;
        }
        let header = Ipv4Header {
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            ttl: buf[8],
            proto: IpProto::from_u8(buf[9]),
            ident: u16::from_be_bytes([buf[4], buf[5]]),
        };
        Some((header, total_len))
    }
}

/// A full IPv4 packet: header plus payload.
#[derive(Clone, PartialEq, Eq)]
pub struct IpPacket {
    /// The IPv4 header.
    pub header: Ipv4Header,
    /// Payload bytes (e.g. an encoded [`crate::tcp::TcpSegment`]).
    pub payload: Bytes,
}

impl IpPacket {
    /// Build a packet with a default TTL of 64 (smoltcp's default).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, payload: Bytes) -> Self {
        IpPacket {
            header: Ipv4Header {
                src,
                dst,
                ttl: 64,
                proto,
                ident: 0,
            },
            payload,
        }
    }

    /// A TTL-limited UDP traceroute probe. `ident` tags the IP
    /// identification field so the time-exceeded reply, which embeds the
    /// probe's header (RFC 792), can be matched to it.
    pub fn probe(src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, ident: u16) -> Self {
        let mut pkt = Self::new(src, dst, IpProto::Udp, Bytes::from_static(b"traceroute"));
        pkt.header.ttl = ttl;
        pkt.header.ident = ident;
        pkt
    }

    /// Serialize to wire bytes: one allocation, header and payload each
    /// copied once.
    pub fn encode(&self) -> Bytes {
        let mut out = Arc::<[u8]>::new_uninit_slice(self.wire_len());
        let buf = Arc::get_mut(&mut out).expect("a new buffer has one owner");
        let (head, body) = buf.split_at_mut(IPV4_HEADER_LEN);
        head.write_copy_of_slice(&self.header.encode(self.payload.len()));
        body.write_copy_of_slice(&self.payload);
        // SAFETY: the two writes above initialized every byte.
        Bytes::from(unsafe { out.assume_init() })
    }

    /// Parse from wire bytes; drops trailing garbage beyond the declared
    /// total length, rejects malformed or checksum-failing headers. The
    /// payload is a view of `buf`, not a copy.
    pub fn decode(buf: &Bytes) -> Option<Self> {
        let (header, total_len) = Ipv4Header::decode(buf)?;
        Some(IpPacket {
            header,
            payload: buf.slice(IPV4_HEADER_LEN..total_len),
        })
    }

    /// Decrement TTL, returning `false` if the packet must be dropped
    /// (TTL reached zero) — the forwarding-plane hop behaviour.
    pub fn decrement_ttl(&mut self) -> bool {
        if self.header.ttl <= 1 {
            self.header.ttl = 0;
            false
        } else {
            self.header.ttl -= 1;
            true
        }
    }

    /// Total wire length.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }
}

impl fmt::Debug for IpPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IpPacket {{ {} -> {}, {:?}, ttl {}, {} bytes }}",
            self.header.src,
            self.header.dst,
            self.header.proto,
            self.header.ttl,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proto_roundtrip() {
        for p in [
            IpProto::Icmp,
            IpProto::Tcp,
            IpProto::Udp,
            IpProto::Other(89),
        ] {
            assert_eq!(IpProto::from_u8(p.to_u8()), p);
        }
    }

    #[test]
    fn packet_roundtrip() {
        let pkt = IpPacket::new(
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(192, 168, 0, 1),
            IpProto::Udp,
            Bytes::from_static(b"payload"),
        );
        let wire = pkt.encode();
        let parsed = IpPacket::decode(&wire).unwrap();
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let pkt = IpPacket::new(
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(192, 168, 0, 1),
            IpProto::Tcp,
            Bytes::from_static(b"x"),
        );
        let mut wire = pkt.encode().to_vec();
        wire[12] ^= 0xff; // flip a source-address octet
        assert!(IpPacket::decode(&wire.into()).is_none());
    }

    #[test]
    fn short_and_bogus_buffers_rejected() {
        assert!(IpPacket::decode(&Bytes::new()).is_none());
        assert!(IpPacket::decode(&Bytes::from_static(&[0x45; 10])).is_none());
        let pkt = IpPacket::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProto::Icmp,
            Bytes::new(),
        );
        let mut wire = pkt.encode().to_vec();
        wire[0] = 0x46; // IHL 6: options unsupported
        assert!(IpPacket::decode(&wire.into()).is_none());
    }

    #[test]
    fn ttl_decrement() {
        let mut pkt = IpPacket::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProto::Icmp,
            Bytes::new(),
        );
        pkt.header.ttl = 2;
        assert!(pkt.decrement_ttl());
        assert_eq!(pkt.header.ttl, 1);
        assert!(!pkt.decrement_ttl());
        assert_eq!(pkt.header.ttl, 0);
    }

    #[test]
    fn trailing_garbage_dropped() {
        let pkt = IpPacket::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProto::Udp,
            Bytes::from_static(b"ab"),
        );
        let mut wire = pkt.encode().to_vec();
        wire.extend_from_slice(b"JUNK");
        let parsed = IpPacket::decode(&wire.into()).unwrap();
        assert_eq!(&parsed.payload[..], b"ab");
    }

    #[test]
    fn decoded_payload_points_into_the_frame() {
        let pkt = IpPacket::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProto::Udp,
            Bytes::from_static(b"payload"),
        );
        let wire = pkt.encode();
        let parsed = IpPacket::decode(&wire).unwrap();
        assert_eq!(parsed.payload.as_ptr(), wire[IPV4_HEADER_LEN..].as_ptr());
    }
}
