//! ARP: address resolution over Ethernet.
//!
//! ARP is load-bearing in vBGP: when an experiment selects a route, it ARPs
//! for the route's (virtual) next-hop IP and the vBGP router answers with the
//! per-neighbor MAC it allocated (paper §3.2.2, Fig. 2b steps 6–7). The cache
//! mirrors smoltcp's behaviour: entries expire after one minute and requests
//! for the same address are paced.

use crate::bytes::Bytes;
use std::net::Ipv4Addr;

use crate::fasthash::FastHashMap;
use crate::mac::MacAddr;
use crate::time::{SimDuration, SimTime};

/// ARP operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArpOp {
    /// Who-has request (1).
    Request,
    /// Is-at reply (2).
    Reply,
}

/// An ARP packet for IPv4 over Ethernet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

/// Wire length of an IPv4-over-Ethernet ARP packet.
pub const ARP_PACKET_LEN: usize = 28;

impl ArpPacket {
    /// Build a who-has request for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Build the reply answering `request`, claiming `our_mac` owns
    /// `request.target_ip`.
    pub fn reply_to(request: &ArpPacket, our_mac: MacAddr) -> Self {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: our_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Serialize to wire bytes (HTYPE=1, PTYPE=0x0800, HLEN=6, PLEN=4).
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(ARP_PACKET_LEN);
        out.extend_from_slice(&1u16.to_be_bytes()); // HTYPE Ethernet
        out.extend_from_slice(&0x0800u16.to_be_bytes()); // PTYPE IPv4
        out.push(6);
        out.push(4);
        let op: u16 = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        out.extend_from_slice(&op.to_be_bytes());
        out.extend_from_slice(&self.sender_mac.octets());
        out.extend_from_slice(&self.sender_ip.octets());
        out.extend_from_slice(&self.target_mac.octets());
        out.extend_from_slice(&self.target_ip.octets());
        Bytes::from(out)
    }

    /// Parse from wire bytes, rejecting non-Ethernet/IPv4 ARP.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < ARP_PACKET_LEN {
            return None;
        }
        if buf[0..2] != [0, 1] || buf[2..4] != [0x08, 0x00] || buf[4] != 6 || buf[5] != 4 {
            return None;
        }
        let op = match u16::from_be_bytes([buf[6], buf[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return None,
        };
        let mac_at = |i: usize| {
            let mut m = [0u8; 6];
            m.copy_from_slice(&buf[i..i + 6]);
            MacAddr(m)
        };
        let ip_at = |i: usize| Ipv4Addr::new(buf[i], buf[i + 1], buf[i + 2], buf[i + 3]);
        Some(ArpPacket {
            op,
            sender_mac: mac_at(8),
            sender_ip: ip_at(14),
            target_mac: mac_at(18),
            target_ip: ip_at(24),
        })
    }
}

/// How long a learned entry stays valid (smoltcp: one minute).
pub const ARP_ENTRY_LIFETIME: SimDuration = SimDuration::from_secs(60);

/// Minimum interval between requests for the same address (smoltcp: 1 s).
pub const ARP_REQUEST_PACING: SimDuration = SimDuration::from_secs(1);

#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    mac: MacAddr,
    expires: SimTime,
}

/// An ARP cache with expiry and request pacing.
#[derive(Debug, Default)]
pub struct ArpCache {
    entries: FastHashMap<Ipv4Addr, CacheEntry>,
    last_request: FastHashMap<Ipv4Addr, SimTime>,
}

impl ArpCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a (IP, MAC) binding learned at `now`.
    pub fn insert(&mut self, ip: Ipv4Addr, mac: MacAddr, now: SimTime) {
        self.entries.insert(
            ip,
            CacheEntry {
                mac,
                expires: now + ARP_ENTRY_LIFETIME,
            },
        );
        self.last_request.remove(&ip);
    }

    /// Look up a non-expired binding.
    pub fn lookup(&self, ip: Ipv4Addr, now: SimTime) -> Option<MacAddr> {
        self.entries
            .get(&ip)
            .filter(|e| e.expires > now)
            .map(|e| e.mac)
    }

    /// Whether a request for `ip` may be sent now (pacing), recording the
    /// attempt if so.
    pub fn may_request(&mut self, ip: Ipv4Addr, now: SimTime) -> bool {
        match self.last_request.get(&ip) {
            Some(&last) if now.saturating_since(last) < ARP_REQUEST_PACING => false,
            _ => {
                self.last_request.insert(ip, now);
                true
            }
        }
    }

    /// Drop expired entries; returns how many were evicted.
    pub fn evict_expired(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.expires > now);
        before - self.entries.len()
    }

    /// Number of live entries (including possibly-expired ones not yet
    /// evicted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u32) -> MacAddr {
        MacAddr::from_id(n)
    }

    #[test]
    fn packet_roundtrip() {
        let req = ArpPacket::request(
            mac(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let parsed = ArpPacket::decode(&req.encode()).unwrap();
        assert_eq!(parsed, req);

        let rep = ArpPacket::reply_to(&req, mac(2));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(rep.target_mac, mac(1));
        let parsed = ArpPacket::decode(&rep.encode()).unwrap();
        assert_eq!(parsed, rep);
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(ArpPacket::decode(&[0u8; 27]).is_none());
        let req = ArpPacket::request(mac(1), Ipv4Addr::UNSPECIFIED, Ipv4Addr::LOCALHOST);
        let mut wire = req.encode().to_vec();
        wire[7] = 9; // bogus op
        assert!(ArpPacket::decode(&wire).is_none());
        let mut wire = req.encode().to_vec();
        wire[1] = 2; // not Ethernet
        assert!(ArpPacket::decode(&wire).is_none());
    }

    #[test]
    fn cache_expiry() {
        let mut cache = ArpCache::new();
        let ip = Ipv4Addr::new(127, 65, 0, 1);
        let t0 = SimTime::ZERO;
        cache.insert(ip, mac(9), t0);
        assert_eq!(
            cache.lookup(ip, t0 + SimDuration::from_secs(59)),
            Some(mac(9))
        );
        assert_eq!(cache.lookup(ip, t0 + SimDuration::from_secs(61)), None);
        assert_eq!(cache.evict_expired(t0 + SimDuration::from_secs(61)), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn request_pacing() {
        let mut cache = ArpCache::new();
        let ip = Ipv4Addr::new(127, 65, 0, 2);
        let t0 = SimTime::ZERO;
        assert!(cache.may_request(ip, t0));
        assert!(!cache.may_request(ip, t0 + SimDuration::from_millis(500)));
        assert!(cache.may_request(ip, t0 + SimDuration::from_secs(2)));
    }

    #[test]
    fn insert_resets_pacing() {
        let mut cache = ArpCache::new();
        let ip = Ipv4Addr::new(127, 65, 0, 3);
        assert!(cache.may_request(ip, SimTime::ZERO));
        cache.insert(ip, mac(5), SimTime::ZERO);
        // Binding learned; a fresh request is allowed immediately if it
        // expires later.
        assert!(cache.may_request(ip, SimTime::from_nanos(1)));
    }
}
