//! ICMP: echo and time-exceeded.
//!
//! The paper's network controller goes out of its way to manage interface
//! *primary* addresses because they are "used when generating ICMP error
//! messages, particularly TTL Exceeded replies to traceroute probes" (§5).
//! This module provides the two message types that matter for that story:
//! echo request/reply (ping) and time-exceeded (traceroute), with wire
//! encode/decode and the RFC 792 checksum.

use crate::bytes::Bytes;

use crate::ip::{IpPacket, IpProto, IPV4_HEADER_LEN};

/// An ICMP message the simulator models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpPacket {
    /// Echo request (type 8) with identifier/sequence.
    EchoRequest {
        /// Identifier (conventionally the sender's "process id").
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Probe payload.
        payload: Bytes,
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier echoed back.
        ident: u16,
        /// Sequence echoed back.
        seq: u16,
        /// Payload echoed back.
        payload: Bytes,
    },
    /// Time exceeded in transit (type 11, code 0): carries the original
    /// packet's IP header + 8 bytes, which is how traceroute matches
    /// replies to probes.
    TimeExceeded {
        /// The offending packet's header + leading payload bytes.
        original: Bytes,
    },
}

fn checksum(buf: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = buf.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

impl IcmpPacket {
    /// Whether `packet` carries an ICMP error report (destination
    /// unreachable, source quench, redirect, time exceeded, parameter
    /// problem). RFC 1122 §3.2.2: an ICMP error message must never be sent
    /// in response to one of these. A raw type-byte peek suffices — a
    /// packet too mangled to classify gets no error either way.
    pub fn is_error(packet: &IpPacket) -> bool {
        packet.header.proto == IpProto::Icmp
            && matches!(packet.payload.first(), Some(3 | 4 | 5 | 11 | 12))
    }

    /// Build the time-exceeded body for a packet whose TTL just expired:
    /// its IP header plus the first 8 payload bytes (RFC 792).
    pub fn time_exceeded_for(expired: &IpPacket) -> IcmpPacket {
        let mut original = Vec::with_capacity(IPV4_HEADER_LEN + 8);
        original.extend_from_slice(&expired.header.encode(expired.payload.len()));
        original.extend_from_slice(&expired.payload[..expired.payload.len().min(8)]);
        IcmpPacket::TimeExceeded {
            original: original.into(),
        }
    }

    /// Serialize with a valid checksum.
    pub fn encode(&self) -> Bytes {
        let (ty, rest): (u8, Vec<u8>) = match self {
            IcmpPacket::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                let mut v = Vec::with_capacity(4 + payload.len());
                v.extend_from_slice(&ident.to_be_bytes());
                v.extend_from_slice(&seq.to_be_bytes());
                v.extend_from_slice(payload);
                (8, v)
            }
            IcmpPacket::EchoReply {
                ident,
                seq,
                payload,
            } => {
                let mut v = Vec::with_capacity(4 + payload.len());
                v.extend_from_slice(&ident.to_be_bytes());
                v.extend_from_slice(&seq.to_be_bytes());
                v.extend_from_slice(payload);
                (0, v)
            }
            IcmpPacket::TimeExceeded { original } => {
                let mut v = vec![0u8; 4]; // unused field
                v.extend_from_slice(original);
                (11, v)
            }
        };
        let mut out = Vec::with_capacity(4 + rest.len());
        out.push(ty);
        out.push(0); // code
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&rest);
        let csum = checksum(&out);
        out[2..4].copy_from_slice(&csum.to_be_bytes());
        Bytes::from(out)
    }

    /// Parse, validating the checksum.
    pub fn decode(buf: &[u8]) -> Option<IcmpPacket> {
        if buf.len() < 8 || checksum(buf) != 0 {
            return None;
        }
        match (buf[0], buf[1]) {
            (8, 0) => Some(IcmpPacket::EchoRequest {
                ident: u16::from_be_bytes([buf[4], buf[5]]),
                seq: u16::from_be_bytes([buf[6], buf[7]]),
                payload: Bytes::copy_from_slice(&buf[8..]),
            }),
            (0, 0) => Some(IcmpPacket::EchoReply {
                ident: u16::from_be_bytes([buf[4], buf[5]]),
                seq: u16::from_be_bytes([buf[6], buf[7]]),
                payload: Bytes::copy_from_slice(&buf[8..]),
            }),
            (11, 0) => Some(IcmpPacket::TimeExceeded {
                original: Bytes::copy_from_slice(&buf[8..]),
            }),
            _ => None,
        }
    }

    /// For a time-exceeded message: recover the original probe's
    /// (ident-field, destination) so a traceroute driver can match it.
    pub fn original_probe(&self) -> Option<(u16, std::net::Ipv4Addr)> {
        let IcmpPacket::TimeExceeded { original } = self else {
            return None;
        };
        let (header, _) = crate::ip::Ipv4Header::decode(original).or_else(|| {
            // The embedded header's total-length may exceed the embedded
            // bytes (only header+8 are included); re-parse leniently.
            if original.len() < IPV4_HEADER_LEN {
                return None;
            }
            let mut padded = original.to_vec();
            let total = u16::from_be_bytes([padded[2], padded[3]]) as usize;
            padded.resize(total.max(IPV4_HEADER_LEN), 0);
            crate::ip::Ipv4Header::decode(&padded)
        })?;
        Some((header.ident, header.dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn echo_roundtrip() {
        let req = IcmpPacket::EchoRequest {
            ident: 42,
            seq: 7,
            payload: Bytes::from_static(b"probe"),
        };
        assert_eq!(IcmpPacket::decode(&req.encode()), Some(req));
        let rep = IcmpPacket::EchoReply {
            ident: 42,
            seq: 7,
            payload: Bytes::from_static(b"probe"),
        };
        assert_eq!(IcmpPacket::decode(&rep.encode()), Some(rep));
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let req = IcmpPacket::EchoRequest {
            ident: 1,
            seq: 1,
            payload: Bytes::new(),
        };
        let mut wire = req.encode().to_vec();
        wire[5] ^= 0xff;
        assert_eq!(IcmpPacket::decode(&wire), None);
        assert_eq!(IcmpPacket::decode(&wire[..6]), None);
    }

    #[test]
    fn time_exceeded_embeds_original_probe() {
        let mut probe = IpPacket::new(
            Ipv4Addr::new(184, 164, 224, 5),
            Ipv4Addr::new(198, 18, 1, 1),
            IpProto::Udp,
            Bytes::from_static(b"0123456789abcdef"),
        );
        probe.header.ident = 33434;
        probe.header.ttl = 1;
        let te = IcmpPacket::time_exceeded_for(&probe);
        let wire = te.encode();
        let decoded = IcmpPacket::decode(&wire).unwrap();
        let (ident, dst) = decoded.original_probe().unwrap();
        assert_eq!(ident, 33434);
        assert_eq!(dst, Ipv4Addr::new(198, 18, 1, 1));
    }
}
