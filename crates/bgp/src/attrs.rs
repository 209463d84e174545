//! Path attributes (RFC 4271 §5) with wire codec.
//!
//! Covers every attribute PEERING's deployment handles: ORIGIN, AS_PATH
//! (4-octet, sequences and sets — sets appear when experiments poison paths
//! through aggregating networks), NEXT_HOP (which vBGP systematically
//! rewrites, §3.2.2), MED, LOCAL_PREF, ATOMIC_AGGREGATE, AGGREGATOR,
//! COMMUNITIES (the control channel for vBGP export steering, §3.2.1),
//! LARGE COMMUNITIES, multiprotocol reach/unreach (RFC 4760) and unknown
//! optional-transitive attributes (a PEERING per-experiment capability,
//! §4.7).
//!
//! AS_PATH is always encoded with 4-octet ASNs: every session in this
//! implementation negotiates the 4-octet-AS capability (as modern BGP stacks
//! do), so the legacy 2-octet encoding and AS4_PATH never appear.

use crate::message::nlri::{decode_nlri, encode_nlri, NlriEntry};
use crate::message::{CodecError, SessionCodecCtx};
use crate::types::{Afi, Asn, Community, LargeCommunity};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// ORIGIN attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Origin {
    /// Learned from an IGP (0) — lowest, most preferred.
    #[default]
    Igp,
    /// Learned via EGP (1).
    Egp,
    /// Incomplete (2) — e.g. redistributed statics.
    Incomplete,
}

impl Origin {
    /// Wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    /// Parse the wire value.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsPathSegment {
    /// Ordered AS_SEQUENCE.
    Sequence(Vec<Asn>),
    /// Unordered AS_SET (counts as one hop in path length).
    Set(Vec<Asn>),
}

/// The AS_PATH attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    /// Segments, first segment nearest the sender.
    pub segments: Vec<AsPathSegment>,
}

impl AsPath {
    /// Empty path (locally originated routes on iBGP sessions).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// A single sequence of ASNs.
    pub fn from_asns(asns: &[Asn]) -> Self {
        if asns.is_empty() {
            return AsPath::empty();
        }
        AsPath {
            segments: vec![AsPathSegment::Sequence(asns.to_vec())],
        }
    }

    /// RFC 4271 §9.1.2.2 path length: each sequence member counts 1, each
    /// set counts 1 regardless of size.
    pub fn path_len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                AsPathSegment::Sequence(v) => v.len(),
                AsPathSegment::Set(_) => 1,
            })
            .sum()
    }

    /// Prepend `asn` `count` times (the traffic-engineering primitive
    /// experiments use, paper §7.1).
    pub fn prepend(&mut self, asn: Asn, count: usize) {
        if count == 0 {
            return;
        }
        match self.segments.first_mut() {
            Some(AsPathSegment::Sequence(seq)) => {
                for _ in 0..count {
                    seq.insert(0, asn);
                }
            }
            _ => {
                self.segments
                    .insert(0, AsPathSegment::Sequence(vec![asn; count]));
            }
        }
    }

    /// Whether `asn` appears anywhere in the path (loop detection, and how
    /// BGP poisoning works: the poisoned AS drops the route).
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| match s {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v.contains(&asn),
        })
    }

    /// The origin AS (last ASN of the last sequence), if unambiguous.
    pub fn origin_as(&self) -> Option<Asn> {
        match self.segments.last()? {
            AsPathSegment::Sequence(v) => v.last().copied(),
            AsPathSegment::Set(_) => None,
        }
    }

    /// The neighbor AS (first ASN), if any.
    pub fn first_as(&self) -> Option<Asn> {
        match self.segments.first()? {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v.first().copied(),
        }
    }

    /// All ASNs in order of appearance (sets flattened).
    pub fn asns(&self) -> Vec<Asn> {
        let mut out = Vec::new();
        for seg in &self.segments {
            match seg {
                AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => out.extend_from_slice(v),
            }
        }
        out
    }

    fn encode(&self, out: &mut Vec<u8>) {
        for seg in &self.segments {
            let (ty, asns) = match seg {
                AsPathSegment::Set(v) => (1u8, v),
                AsPathSegment::Sequence(v) => (2u8, v),
            };
            // Wire segment length field is a u8 count; split long sequences.
            for chunk in asns.chunks(255) {
                out.push(ty);
                out.push(chunk.len() as u8);
                for asn in chunk {
                    out.extend_from_slice(&asn.0.to_be_bytes());
                }
            }
        }
    }

    fn decode(buf: &[u8]) -> Result<AsPath, CodecError> {
        let mut segments = Vec::new();
        let mut pos = 0;
        while pos < buf.len() {
            if pos + 2 > buf.len() {
                return Err(CodecError::Malformed("as-path segment header"));
            }
            let ty = buf[pos];
            let count = buf[pos + 1] as usize;
            pos += 2;
            if pos + count * 4 > buf.len() {
                return Err(CodecError::Malformed("as-path segment truncated"));
            }
            let mut asns = Vec::with_capacity(count);
            for _ in 0..count {
                asns.push(Asn(u32::from_be_bytes(
                    buf[pos..pos + 4].try_into().unwrap(),
                )));
                pos += 4;
            }
            segments.push(match ty {
                1 => AsPathSegment::Set(asns),
                2 => AsPathSegment::Sequence(asns),
                _ => return Err(CodecError::Malformed("as-path segment type")),
            });
        }
        Ok(AsPath { segments })
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsPathSegment::Sequence(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{}", parts.join(" "))?;
                }
                AsPathSegment::Set(v) => {
                    let parts: Vec<String> = v.iter().map(|a| a.0.to_string()).collect();
                    write!(f, "{{{}}}", parts.join(","))?;
                }
            }
        }
        Ok(())
    }
}

/// An attribute we do not model, preserved byte-for-byte. PEERING's
/// capability framework decides per experiment whether these may pass (§4.7).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnknownAttr {
    /// Attribute flags as received (partial bit may be set in transit).
    pub flags: u8,
    /// Type code.
    pub type_code: u8,
    /// Raw value.
    pub value: Vec<u8>,
}

impl UnknownAttr {
    /// Whether the optional bit is set.
    pub fn is_optional(&self) -> bool {
        self.flags & 0x80 != 0
    }

    /// Whether the transitive bit is set.
    pub fn is_transitive(&self) -> bool {
        self.flags & 0x40 != 0
    }
}

// Attribute type codes.
const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MED: u8 = 4;
const ATTR_LOCAL_PREF: u8 = 5;
const ATTR_ATOMIC_AGGREGATE: u8 = 6;
const ATTR_AGGREGATOR: u8 = 7;
const ATTR_COMMUNITIES: u8 = 8;
const ATTR_MP_REACH: u8 = 14;
const ATTR_MP_UNREACH: u8 = 15;
const ATTR_LARGE_COMMUNITIES: u8 = 32;

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXT_LEN: u8 = 0x10;

/// The parsed attribute set of a route.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PathAttributes {
    /// ORIGIN (well-known mandatory).
    pub origin: Origin,
    /// AS_PATH (well-known mandatory).
    pub as_path: AsPath,
    /// NEXT_HOP. For IPv4 routes this is the NEXT_HOP attribute; for IPv6
    /// routes it is carried inside MP_REACH_NLRI. vBGP rewrites this field.
    pub next_hop: Option<IpAddr>,
    /// MULTI_EXIT_DISC.
    pub med: Option<u32>,
    /// LOCAL_PREF (iBGP only).
    pub local_pref: Option<u32>,
    /// ATOMIC_AGGREGATE presence.
    pub atomic_aggregate: bool,
    /// AGGREGATOR (ASN, router id).
    pub aggregator: Option<(Asn, Ipv4Addr)>,
    /// RFC 1997 communities.
    pub communities: Vec<Community>,
    /// RFC 8092 large communities.
    pub large_communities: Vec<LargeCommunity>,
    /// Unmodeled attributes, preserved for transit.
    pub unknown: Vec<UnknownAttr>,
}

impl PathAttributes {
    /// Attributes for a locally-originated route.
    pub fn originated(next_hop: IpAddr) -> Self {
        PathAttributes {
            next_hop: Some(next_hop),
            ..Default::default()
        }
    }

    /// Add a community if not already present.
    pub fn add_community(&mut self, c: Community) {
        if !self.communities.contains(&c) {
            self.communities.push(c);
        }
    }

    /// Whether a community is attached.
    pub fn has_community(&self, c: Community) -> bool {
        self.communities.contains(&c)
    }

    /// Remove a community.
    pub fn remove_community(&mut self, c: Community) {
        self.communities.retain(|x| *x != c);
    }
}

fn push_attr(out: &mut Vec<u8>, flags: u8, type_code: u8, value: &[u8]) {
    if value.len() > 255 {
        out.push(flags | FLAG_EXT_LEN);
        out.push(type_code);
        out.extend_from_slice(&(value.len() as u16).to_be_bytes());
    } else {
        out.push(flags);
        out.push(type_code);
        out.push(value.len() as u8);
    }
    out.extend_from_slice(value);
}

/// Encode the attribute set for an UPDATE. `v4_has_nlri` controls whether a
/// NEXT_HOP attribute is emitted (it accompanies IPv4 NLRI only);
/// `mp_announce` / `mp_withdraw` carry IPv6 NLRI in MP attributes.
pub fn encode_attrs(
    attrs: &PathAttributes,
    v4_has_nlri: bool,
    mp_announce: &[NlriEntry],
    mp_withdraw: &[NlriEntry],
    ctx: &SessionCodecCtx,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    push_attr(
        &mut out,
        FLAG_TRANSITIVE,
        ATTR_ORIGIN,
        &[attrs.origin.to_u8()],
    );
    let mut path_buf = Vec::new();
    attrs.as_path.encode(&mut path_buf);
    push_attr(&mut out, FLAG_TRANSITIVE, ATTR_AS_PATH, &path_buf);
    if v4_has_nlri {
        if let Some(IpAddr::V4(nh)) = attrs.next_hop {
            push_attr(&mut out, FLAG_TRANSITIVE, ATTR_NEXT_HOP, &nh.octets());
        }
    }
    if let Some(med) = attrs.med {
        push_attr(&mut out, FLAG_OPTIONAL, ATTR_MED, &med.to_be_bytes());
    }
    if let Some(lp) = attrs.local_pref {
        push_attr(
            &mut out,
            FLAG_TRANSITIVE,
            ATTR_LOCAL_PREF,
            &lp.to_be_bytes(),
        );
    }
    if attrs.atomic_aggregate {
        push_attr(&mut out, FLAG_TRANSITIVE, ATTR_ATOMIC_AGGREGATE, &[]);
    }
    if let Some((asn, id)) = attrs.aggregator {
        let mut v = Vec::with_capacity(8);
        v.extend_from_slice(&asn.0.to_be_bytes());
        v.extend_from_slice(&id.octets());
        push_attr(
            &mut out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_AGGREGATOR,
            &v,
        );
    }
    if !attrs.communities.is_empty() {
        let mut v = Vec::with_capacity(attrs.communities.len() * 4);
        for c in &attrs.communities {
            v.extend_from_slice(&c.0.to_be_bytes());
        }
        push_attr(
            &mut out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_COMMUNITIES,
            &v,
        );
    }
    if !attrs.large_communities.is_empty() {
        let mut v = Vec::with_capacity(attrs.large_communities.len() * 12);
        for lc in &attrs.large_communities {
            v.extend_from_slice(&lc.global.to_be_bytes());
            v.extend_from_slice(&lc.local1.to_be_bytes());
            v.extend_from_slice(&lc.local2.to_be_bytes());
        }
        push_attr(
            &mut out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_LARGE_COMMUNITIES,
            &v,
        );
    }
    if !mp_announce.is_empty() {
        let nh = match attrs.next_hop {
            Some(IpAddr::V6(nh)) => nh,
            // A v4 next-hop over a v4-addressed fabric still has to ride
            // in the (16-byte) MP_REACH next-hop slot: use the v4-mapped
            // form, which the decoder folds back to V4 so the attribute
            // round-trips losslessly (the RFC 5549 situation, simplified).
            Some(IpAddr::V4(nh)) => nh.to_ipv6_mapped(),
            None => Ipv6Addr::UNSPECIFIED,
        };
        let mut v = Vec::new();
        v.extend_from_slice(&Afi::Ipv6.to_u16().to_be_bytes());
        v.push(1); // SAFI unicast
        v.push(16); // next-hop length
        v.extend_from_slice(&nh.octets());
        v.push(0); // reserved
        for e in mp_announce {
            encode_nlri(&mut v, e, ctx.add_path_v6);
        }
        push_attr(&mut out, FLAG_OPTIONAL, ATTR_MP_REACH, &v);
    }
    if !mp_withdraw.is_empty() {
        let mut v = Vec::new();
        v.extend_from_slice(&Afi::Ipv6.to_u16().to_be_bytes());
        v.push(1);
        for e in mp_withdraw {
            encode_nlri(&mut v, e, ctx.add_path_v6);
        }
        push_attr(&mut out, FLAG_OPTIONAL, ATTR_MP_UNREACH, &v);
    }
    for u in &attrs.unknown {
        push_attr(&mut out, u.flags & !FLAG_EXT_LEN, u.type_code, &u.value);
    }
    out
}

/// Result of decoding a path-attribute block.
pub struct DecodedAttrs {
    /// The structured attributes.
    pub attrs: PathAttributes,
    /// IPv6 NLRI announced via MP_REACH.
    pub mp_announce: Vec<NlriEntry>,
    /// IPv6 NLRI withdrawn via MP_UNREACH.
    pub mp_withdraw: Vec<NlriEntry>,
}

/// Decode a path-attribute block.
pub fn decode_attrs(buf: &[u8], ctx: &SessionCodecCtx) -> Result<DecodedAttrs, CodecError> {
    let mut attrs = PathAttributes::default();
    let mut mp_announce = Vec::new();
    let mut mp_withdraw = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        if pos + 3 > buf.len() {
            return Err(CodecError::Malformed("attribute header"));
        }
        let flags = buf[pos];
        let type_code = buf[pos + 1];
        let (len, header) = if flags & FLAG_EXT_LEN != 0 {
            if pos + 4 > buf.len() {
                return Err(CodecError::Malformed("attribute ext header"));
            }
            (u16::from_be_bytes([buf[pos + 2], buf[pos + 3]]) as usize, 4)
        } else {
            (buf[pos + 2] as usize, 3)
        };
        pos += header;
        if pos + len > buf.len() {
            return Err(CodecError::Malformed("attribute truncated"));
        }
        let value = &buf[pos..pos + len];
        pos += len;
        match type_code {
            ATTR_ORIGIN => {
                if len != 1 {
                    return Err(CodecError::Malformed("origin length"));
                }
                attrs.origin =
                    Origin::from_u8(value[0]).ok_or(CodecError::Malformed("origin value"))?;
            }
            ATTR_AS_PATH => attrs.as_path = AsPath::decode(value)?,
            ATTR_NEXT_HOP => {
                if len != 4 {
                    return Err(CodecError::Malformed("next-hop length"));
                }
                attrs.next_hop = Some(IpAddr::V4(Ipv4Addr::new(
                    value[0], value[1], value[2], value[3],
                )));
            }
            ATTR_MED => {
                if len != 4 {
                    return Err(CodecError::Malformed("med length"));
                }
                attrs.med = Some(u32::from_be_bytes(value.try_into().unwrap()));
            }
            ATTR_LOCAL_PREF => {
                if len != 4 {
                    return Err(CodecError::Malformed("local-pref length"));
                }
                attrs.local_pref = Some(u32::from_be_bytes(value.try_into().unwrap()));
            }
            ATTR_ATOMIC_AGGREGATE => {
                if len != 0 {
                    return Err(CodecError::Malformed("atomic-aggregate length"));
                }
                attrs.atomic_aggregate = true;
            }
            ATTR_AGGREGATOR => {
                if len != 8 {
                    return Err(CodecError::Malformed("aggregator length"));
                }
                let asn = Asn(u32::from_be_bytes(value[0..4].try_into().unwrap()));
                let id = Ipv4Addr::new(value[4], value[5], value[6], value[7]);
                attrs.aggregator = Some((asn, id));
            }
            ATTR_COMMUNITIES => {
                if len % 4 != 0 {
                    return Err(CodecError::Malformed("communities length"));
                }
                for chunk in value.chunks_exact(4) {
                    attrs
                        .communities
                        .push(Community(u32::from_be_bytes(chunk.try_into().unwrap())));
                }
            }
            ATTR_LARGE_COMMUNITIES => {
                if len % 12 != 0 {
                    return Err(CodecError::Malformed("large-communities length"));
                }
                for chunk in value.chunks_exact(12) {
                    attrs.large_communities.push(LargeCommunity {
                        global: u32::from_be_bytes(chunk[0..4].try_into().unwrap()),
                        local1: u32::from_be_bytes(chunk[4..8].try_into().unwrap()),
                        local2: u32::from_be_bytes(chunk[8..12].try_into().unwrap()),
                    });
                }
            }
            ATTR_MP_REACH => {
                if len < 5 {
                    return Err(CodecError::Malformed("mp-reach header"));
                }
                let afi = Afi::from_u16(u16::from_be_bytes([value[0], value[1]]))
                    .ok_or(CodecError::Malformed("mp-reach afi"))?;
                let nh_len = value[3] as usize;
                if 4 + nh_len + 1 > len {
                    return Err(CodecError::Malformed("mp-reach next-hop"));
                }
                if afi == Afi::Ipv6 && nh_len >= 16 {
                    let mut octets = [0u8; 16];
                    octets.copy_from_slice(&value[4..20]);
                    let nh = Ipv6Addr::from(octets);
                    // Fold a v4-mapped next-hop back to V4 (the encoder's
                    // RFC 5549-style carriage of v4 next-hops for v6 NLRI).
                    attrs.next_hop = Some(match nh.to_ipv4_mapped() {
                        Some(v4) => IpAddr::V4(v4),
                        None => IpAddr::V6(nh),
                    });
                }
                let nlri_start = 4 + nh_len + 1;
                let add_path = match afi {
                    Afi::Ipv4 => ctx.add_path_v4,
                    Afi::Ipv6 => ctx.add_path_v6,
                };
                mp_announce.extend(decode_nlri(&value[nlri_start..], afi, add_path)?);
            }
            ATTR_MP_UNREACH => {
                if len < 3 {
                    return Err(CodecError::Malformed("mp-unreach header"));
                }
                let afi = Afi::from_u16(u16::from_be_bytes([value[0], value[1]]))
                    .ok_or(CodecError::Malformed("mp-unreach afi"))?;
                let add_path = match afi {
                    Afi::Ipv4 => ctx.add_path_v4,
                    Afi::Ipv6 => ctx.add_path_v6,
                };
                mp_withdraw.extend(decode_nlri(&value[3..], afi, add_path)?);
            }
            _ => attrs.unknown.push(UnknownAttr {
                flags,
                type_code,
                value: value.to_vec(),
            }),
        }
    }
    Ok(DecodedAttrs {
        attrs,
        mp_announce,
        mp_withdraw,
    })
}

/// A hash-consing store for [`PathAttributes`].
///
/// BGP tables are massively redundant in attribute space: a full feed of
/// ~800k routes carries only tens of thousands of distinct attribute sets,
/// and PEERING's 240-interconnection fan-in re-announces the *same* paths
/// across sessions (§6, Fig. 6a). Interning gives every RIB — Adj-RIB-In,
/// Loc-RIB, Adj-RIB-Out and the enforcement views — one shared allocation
/// per distinct set instead of a deep copy per route.
///
/// `intern` is the only way attribute sets enter the RIBs; equality of the
/// returned `Arc`s (pointer equality) then coincides with value equality,
/// which the update batcher exploits to group NLRI by attribute set in
/// O(1) per route.
#[derive(Debug, Default)]
pub struct AttrStore {
    set: std::collections::HashSet<std::sync::Arc<PathAttributes>>,
    /// Interning calls that found an existing allocation.
    pub hits: u64,
    /// Interning calls that had to allocate.
    pub misses: u64,
}

impl AttrStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the canonical shared allocation for `attrs`.
    pub fn intern(&mut self, attrs: PathAttributes) -> std::sync::Arc<PathAttributes> {
        if let Some(existing) = self.set.get(&attrs) {
            self.hits += 1;
            return std::sync::Arc::clone(existing);
        }
        self.misses += 1;
        let arc = std::sync::Arc::new(attrs);
        self.set.insert(std::sync::Arc::clone(&arc));
        arc
    }

    /// Canonicalize an already-shared allocation (e.g. one produced by a
    /// policy engine that did not consult the store). If an equal set is
    /// already interned the canonical one is returned and `attrs` dropped.
    pub fn intern_arc(
        &mut self,
        attrs: std::sync::Arc<PathAttributes>,
    ) -> std::sync::Arc<PathAttributes> {
        if let Some(existing) = self.set.get(&*attrs) {
            self.hits += 1;
            return std::sync::Arc::clone(existing);
        }
        self.misses += 1;
        self.set.insert(std::sync::Arc::clone(&attrs));
        attrs
    }

    /// Number of distinct attribute sets held.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Drop every set no RIB references any more (strong count 1 = only
    /// the store's own reference). Returns how many were released. Called
    /// after withdraw churn; O(distinct sets).
    pub fn gc(&mut self) -> usize {
        let before = self.set.len();
        self.set.retain(|arc| std::sync::Arc::strong_count(arc) > 1);
        before - self.set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::prefix;

    fn asns(v: &[u32]) -> Vec<Asn> {
        v.iter().map(|&a| Asn(a)).collect()
    }

    #[test]
    fn as_path_length_counts_sets_once() {
        let path = AsPath {
            segments: vec![
                AsPathSegment::Sequence(asns(&[1, 2, 3])),
                AsPathSegment::Set(asns(&[4, 5, 6, 7])),
            ],
        };
        assert_eq!(path.path_len(), 4);
    }

    #[test]
    fn as_path_prepend() {
        let mut path = AsPath::from_asns(&asns(&[100]));
        path.prepend(Asn(47065), 3);
        assert_eq!(path.asns(), asns(&[47065, 47065, 47065, 100]));
        assert_eq!(path.path_len(), 4);
        // Prepending onto a set-headed path creates a new sequence segment.
        let mut path = AsPath {
            segments: vec![AsPathSegment::Set(asns(&[9]))],
        };
        path.prepend(Asn(1), 1);
        assert_eq!(path.segments.len(), 2);
        path.prepend(Asn(1), 0);
        assert_eq!(path.path_len(), 2);
    }

    #[test]
    fn as_path_queries() {
        let path = AsPath::from_asns(&asns(&[10, 20, 30]));
        assert!(path.contains(Asn(20)));
        assert!(!path.contains(Asn(99)));
        assert_eq!(path.origin_as(), Some(Asn(30)));
        assert_eq!(path.first_as(), Some(Asn(10)));
        assert_eq!(AsPath::empty().origin_as(), None);
        assert_eq!(path.to_string(), "10 20 30");
        let set_path = AsPath {
            segments: vec![AsPathSegment::Set(asns(&[1, 2]))],
        };
        assert_eq!(set_path.to_string(), "{1,2}");
        assert_eq!(set_path.origin_as(), None);
    }

    #[test]
    fn as_path_wire_roundtrip() {
        let path = AsPath {
            segments: vec![
                AsPathSegment::Sequence(asns(&[47065, 4_200_000_001, 3356])),
                AsPathSegment::Set(asns(&[1, 2])),
            ],
        };
        let mut buf = Vec::new();
        path.encode(&mut buf);
        assert_eq!(AsPath::decode(&buf).unwrap(), path);
    }

    #[test]
    fn long_sequence_chunks_at_255() {
        let path = AsPath::from_asns(&vec![Asn(7); 300]);
        let mut buf = Vec::new();
        path.encode(&mut buf);
        let decoded = AsPath::decode(&buf).unwrap();
        // Two wire segments, but identical flattened content and length 300.
        assert_eq!(decoded.asns().len(), 300);
        assert_eq!(decoded.path_len(), 300);
    }

    fn roundtrip(attrs: &PathAttributes) -> PathAttributes {
        let ctx = SessionCodecCtx::default();
        let wire = encode_attrs(attrs, true, &[], &[], &ctx);
        decode_attrs(&wire, &ctx).unwrap().attrs
    }

    #[test]
    fn full_attribute_roundtrip() {
        let attrs = PathAttributes {
            origin: Origin::Egp,
            as_path: AsPath::from_asns(&asns(&[47065, 3356])),
            next_hop: Some("100.65.0.1".parse().unwrap()),
            med: Some(50),
            local_pref: Some(200),
            atomic_aggregate: true,
            aggregator: Some((Asn(47065), "10.0.0.1".parse().unwrap())),
            communities: vec![Community::new(47065, 1000), Community::NO_EXPORT],
            large_communities: vec![LargeCommunity {
                global: 47065,
                local1: 5,
                local2: 6,
            }],
            unknown: vec![UnknownAttr {
                flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
                type_code: 200,
                value: vec![9, 9, 9],
            }],
        };
        assert_eq!(roundtrip(&attrs), attrs);
    }

    #[test]
    fn minimal_attrs_roundtrip() {
        let attrs = PathAttributes {
            next_hop: Some("1.2.3.4".parse().unwrap()),
            ..Default::default()
        };
        assert_eq!(roundtrip(&attrs), attrs);
    }

    #[test]
    fn mp_reach_v6_roundtrip() {
        let ctx = SessionCodecCtx::add_path_both();
        let attrs = PathAttributes {
            as_path: AsPath::from_asns(&asns(&[47065])),
            next_hop: Some("2001:db8::1".parse().unwrap()),
            ..Default::default()
        };
        let announce = vec![(prefix("2804:269c::/32"), Some(4u32))];
        let withdraw = vec![(prefix("2001:db8:f00::/48"), Some(7u32))];
        let wire = encode_attrs(&attrs, false, &announce, &withdraw, &ctx);
        let decoded = decode_attrs(&wire, &ctx).unwrap();
        assert_eq!(decoded.attrs.next_hop, attrs.next_hop);
        assert_eq!(decoded.mp_announce, announce);
        assert_eq!(decoded.mp_withdraw, withdraw);
    }

    #[test]
    fn community_helpers() {
        let mut attrs = PathAttributes::default();
        let c = Community::new(47065, 2001);
        attrs.add_community(c);
        attrs.add_community(c);
        assert_eq!(attrs.communities.len(), 1);
        assert!(attrs.has_community(c));
        attrs.remove_community(c);
        assert!(!attrs.has_community(c));
    }

    #[test]
    fn extended_length_attributes() {
        // A path long enough that AS_PATH exceeds 255 bytes → extended length.
        let attrs = PathAttributes {
            as_path: AsPath::from_asns(&vec![Asn(65000); 100]),
            next_hop: Some("1.2.3.4".parse().unwrap()),
            ..Default::default()
        };
        assert_eq!(roundtrip(&attrs), attrs);
    }

    #[test]
    fn malformed_attributes_rejected() {
        let ctx = SessionCodecCtx::default();
        assert!(decode_attrs(&[0x40], &ctx).is_err()); // truncated header
        assert!(decode_attrs(&[0x40, 1, 2, 0], &ctx).is_err()); // origin len 2
        assert!(decode_attrs(&[0x40, 1, 1, 7], &ctx).is_err()); // origin value 7
        assert!(decode_attrs(&[0x40, 3, 2, 1, 2], &ctx).is_err()); // nexthop len 2
        assert!(decode_attrs(&[0x40, 5, 4, 1, 2], &ctx).is_err()); // truncated value
    }

    #[test]
    fn unknown_attr_flag_predicates() {
        let attr = UnknownAttr {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            type_code: 99,
            value: vec![],
        };
        assert!(attr.is_optional());
        assert!(attr.is_transitive());
        let attr = UnknownAttr {
            flags: FLAG_OPTIONAL,
            type_code: 99,
            value: vec![],
        };
        assert!(!attr.is_transitive());
    }
}
