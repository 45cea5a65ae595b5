//! BGP path attributes: model and wire format.
//!
//! Implements the attributes Prefix2Org's origin extraction needs — ORIGIN
//! (type 1), AS_PATH (type 2, 4-byte ASNs per RFC 6793), NEXT_HOP (type 3) —
//! plus transparent carriage of unrecognized attributes, as any robust BGP
//! speaker must.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Attribute-level parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrError {
    /// Input ended before the structure was complete.
    Truncated(&'static str),
    /// A length or enum value is structurally impossible.
    Malformed(&'static str),
}

impl core::fmt::Display for AttrError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttrError::Truncated(what) => write!(f, "truncated {what}"),
            AttrError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for AttrError {}

/// The ORIGIN attribute (RFC 4271 §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Learned from an IGP.
    Igp,
    /// Learned from EGP.
    Egp,
    /// Incomplete (redistributed).
    Incomplete,
}

impl Origin {
    fn code(self) -> u8 {
        match self {
            Origin::Igp => 0,
            Origin::Egp => 1,
            Origin::Incomplete => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self, AttrError> {
        match code {
            0 => Ok(Origin::Igp),
            1 => Ok(Origin::Egp),
            2 => Ok(Origin::Incomplete),
            _ => Err(AttrError::Malformed("ORIGIN code")),
        }
    }
}

/// One AS_PATH segment (RFC 4271 §4.3, 4-byte ASNs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsPathSegment {
    /// Ordered sequence of traversed ASes.
    Sequence(Vec<u32>),
    /// Unordered set (route aggregation).
    Set(Vec<u32>),
}

impl AsPathSegment {
    fn type_code(&self) -> u8 {
        match self {
            AsPathSegment::Set(_) => 1,
            AsPathSegment::Sequence(_) => 2,
        }
    }

    fn asns(&self) -> &[u32] {
        match self {
            AsPathSegment::Set(v) | AsPathSegment::Sequence(v) => v,
        }
    }
}

/// An AS_PATH: a list of segments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsPath {
    /// The segments in path order (neighbor first, origin last).
    pub segments: Vec<AsPathSegment>,
}

impl AsPath {
    /// A plain sequence path.
    pub fn sequence(asns: impl Into<Vec<u32>>) -> Self {
        AsPath {
            segments: vec![AsPathSegment::Sequence(asns.into())],
        }
    }

    /// The origin ASNs of the path: the rightmost element of a trailing
    /// SEQUENCE, or every member of a trailing SET (aggregated routes have a
    /// set of possible origins — BGPStream-style tooling reports them all).
    pub fn origin_asns(&self) -> Vec<u32> {
        match self.segments.last() {
            None => Vec::new(),
            Some(AsPathSegment::Sequence(seq)) => seq.last().map(|&a| vec![a]).unwrap_or_default(),
            Some(AsPathSegment::Set(set)) => set.clone(),
        }
    }

    /// Total number of ASNs across segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.asns().len()).sum()
    }

    /// Whether the path has no ASNs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn encode(&self, out: &mut BytesMut) {
        for seg in &self.segments {
            out.put_u8(seg.type_code());
            let asns = seg.asns();
            assert!(asns.len() <= 255, "AS_PATH segment too long");
            out.put_u8(asns.len() as u8);
            for &a in asns {
                out.put_u32(a);
            }
        }
    }

    fn decode(mut buf: Bytes) -> Result<Self, AttrError> {
        let mut segments = Vec::new();
        while buf.has_remaining() {
            if buf.remaining() < 2 {
                return Err(AttrError::Truncated("AS_PATH segment header"));
            }
            let seg_type = buf.get_u8();
            let count = buf.get_u8() as usize;
            if buf.remaining() < count * 4 {
                return Err(AttrError::Truncated("AS_PATH segment body"));
            }
            let asns: Vec<u32> = (0..count).map(|_| buf.get_u32()).collect();
            segments.push(match seg_type {
                1 => AsPathSegment::Set(asns),
                2 => AsPathSegment::Sequence(asns),
                _ => return Err(AttrError::Malformed("AS_PATH segment type")),
            });
        }
        Ok(AsPath { segments })
    }
}

/// An attribute this implementation does not interpret, carried verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAttr {
    /// Attribute flags byte.
    pub flags: u8,
    /// Attribute type code.
    pub type_code: u8,
    /// Raw value bytes.
    pub value: Bytes,
}

/// The parsed path attributes of a route.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathAttributes {
    /// ORIGIN (type 1).
    pub origin: Option<Origin>,
    /// AS_PATH (type 2).
    pub as_path: Option<AsPath>,
    /// NEXT_HOP (type 3), as a raw IPv4 address.
    pub next_hop: Option<u32>,
    /// Everything else, preserved for re-encoding.
    pub unknown: Vec<UnknownAttr>,
}

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXT_LEN: u8 = 0x10;

impl PathAttributes {
    /// A typical eBGP attribute set.
    pub fn ebgp(as_path: AsPath, next_hop: u32) -> Self {
        PathAttributes {
            origin: Some(Origin::Igp),
            as_path: Some(as_path),
            next_hop: Some(next_hop),
            unknown: Vec::new(),
        }
    }

    /// The route's origin ASNs (empty when AS_PATH is absent).
    pub fn origin_asns(&self) -> Vec<u32> {
        self.as_path
            .as_ref()
            .map(|p| p.origin_asns())
            .unwrap_or_default()
    }

    /// Encodes the attributes to wire form (without the 2-byte total-length
    /// prefix that frames them in an MRT RIB entry).
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::new();
        if let Some(origin) = self.origin {
            put_attr(&mut out, FLAG_TRANSITIVE, 1, &[origin.code()]);
        }
        if let Some(as_path) = &self.as_path {
            let mut body = BytesMut::new();
            as_path.encode(&mut body);
            put_attr(&mut out, FLAG_TRANSITIVE, 2, &body);
        }
        if let Some(nh) = self.next_hop {
            put_attr(&mut out, FLAG_TRANSITIVE, 3, &nh.to_be_bytes());
        }
        for u in &self.unknown {
            put_attr(&mut out, u.flags | FLAG_OPTIONAL, u.type_code, &u.value);
        }
        out.freeze()
    }

    /// Decodes attributes from wire form.
    pub fn decode(mut buf: Bytes) -> Result<Self, AttrError> {
        let mut attrs = PathAttributes::default();
        while buf.has_remaining() {
            if buf.remaining() < 3 {
                return Err(AttrError::Truncated("attribute header"));
            }
            let flags = buf.get_u8();
            let type_code = buf.get_u8();
            let len = if flags & FLAG_EXT_LEN != 0 {
                if buf.remaining() < 2 {
                    return Err(AttrError::Truncated("extended length"));
                }
                buf.get_u16() as usize
            } else {
                buf.get_u8() as usize
            };
            if buf.remaining() < len {
                return Err(AttrError::Truncated("attribute value"));
            }
            let value = buf.copy_to_bytes(len);
            match type_code {
                1 => {
                    if value.len() != 1 {
                        return Err(AttrError::Malformed("ORIGIN length"));
                    }
                    attrs.origin = Some(Origin::from_code(value[0])?);
                }
                2 => attrs.as_path = Some(AsPath::decode(value)?),
                3 => {
                    if value.len() != 4 {
                        return Err(AttrError::Malformed("NEXT_HOP length"));
                    }
                    attrs.next_hop =
                        Some(u32::from_be_bytes([value[0], value[1], value[2], value[3]]));
                }
                _ => attrs.unknown.push(UnknownAttr {
                    flags,
                    type_code,
                    value,
                }),
            }
        }
        Ok(attrs)
    }
}

fn put_attr(out: &mut BytesMut, flags: u8, type_code: u8, value: &[u8]) {
    if value.len() > 255 {
        out.put_u8(flags | FLAG_EXT_LEN);
        out.put_u8(type_code);
        out.put_u16(value.len() as u16);
    } else {
        out.put_u8(flags);
        out.put_u8(type_code);
        out.put_u8(value.len() as u8);
    }
    out.put_slice(value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_util::check::run_cases;

    #[test]
    fn origin_extraction_sequence() {
        let path = AsPath::sequence(vec![3356, 701, 18692]);
        assert_eq!(path.origin_asns(), vec![18692]);
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn origin_extraction_trailing_set() {
        let path = AsPath {
            segments: vec![
                AsPathSegment::Sequence(vec![3356, 701]),
                AsPathSegment::Set(vec![64512, 64513]),
            ],
        };
        assert_eq!(path.origin_asns(), vec![64512, 64513]);
    }

    #[test]
    fn empty_path_has_no_origin() {
        assert!(AsPath::default().origin_asns().is_empty());
        assert!(AsPath::default().is_empty());
        assert!(AsPath::sequence(Vec::<u32>::new()).origin_asns().is_empty());
    }

    #[test]
    fn encode_decode_round_trip() {
        let attrs = PathAttributes::ebgp(AsPath::sequence(vec![65000, 395753]), 0xC0000201);
        let wire = attrs.encode();
        let decoded = PathAttributes::decode(wire).unwrap();
        assert_eq!(decoded, attrs);
        assert_eq!(decoded.origin_asns(), vec![395753]);
    }

    #[test]
    fn unknown_attributes_survive_round_trip() {
        let mut attrs = PathAttributes::ebgp(AsPath::sequence(vec![1]), 0);
        attrs.unknown.push(UnknownAttr {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            type_code: 32, // LARGE_COMMUNITY
            value: Bytes::from_static(&[0; 12]),
        });
        let decoded = PathAttributes::decode(attrs.encode()).unwrap();
        assert_eq!(decoded.unknown.len(), 1);
        assert_eq!(decoded.unknown[0].type_code, 32);
    }

    #[test]
    fn extended_length_attributes() {
        // An AS_PATH with 100 ASNs exceeds 255 bytes and needs extended length.
        let long: Vec<u32> = (1..=100).collect();
        let attrs = PathAttributes::ebgp(AsPath::sequence(long.clone()), 1);
        let decoded = PathAttributes::decode(attrs.encode()).unwrap();
        assert_eq!(decoded.as_path.unwrap(), AsPath::sequence(long));
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        // Wire layout: ORIGIN = 4 bytes, AS_PATH = 3 + 2 + 4 = 9 bytes,
        // NEXT_HOP = 7 bytes. Cuts at attribute boundaries yield a valid
        // shorter list (framing is the caller's job: a RIB entry's attribute
        // length bounds the attribute run); cuts *inside* an attribute must
        // error.
        let attrs = PathAttributes::ebgp(AsPath::sequence(vec![65000]), 0);
        let wire = attrs.encode();
        assert_eq!(wire.len(), 20);
        let boundaries = [4usize, 13];
        for cut in 1..wire.len() {
            let r = PathAttributes::decode(wire.slice(..cut));
            if boundaries.contains(&cut) {
                assert!(r.is_ok(), "cut at boundary {cut} parses a prefix");
            } else {
                assert!(r.is_err(), "cut at {cut} should fail");
            }
        }
    }

    #[test]
    fn malformed_values_error() {
        // ORIGIN with bad code.
        let mut out = BytesMut::new();
        put_attr(&mut out, FLAG_TRANSITIVE, 1, &[9]);
        assert_eq!(
            PathAttributes::decode(out.freeze()),
            Err(AttrError::Malformed("ORIGIN code"))
        );
        // NEXT_HOP with wrong length.
        let mut out = BytesMut::new();
        put_attr(&mut out, FLAG_TRANSITIVE, 3, &[1, 2]);
        assert!(PathAttributes::decode(out.freeze()).is_err());
        // AS_PATH with bad segment type.
        let mut out = BytesMut::new();
        put_attr(&mut out, FLAG_TRANSITIVE, 2, &[7, 0]);
        assert!(PathAttributes::decode(out.freeze()).is_err());
    }

    #[test]
    fn round_trip_random_paths() {
        run_cases(256, |g| {
            let path = AsPath {
                segments: (0..g.below(5))
                    .map(|_| {
                        let asns: Vec<u32> = (0..g.range(1, 9)).map(|_| g.u32()).collect();
                        if g.bool() {
                            AsPathSegment::Set(asns)
                        } else {
                            AsPathSegment::Sequence(asns)
                        }
                    })
                    .collect(),
            };
            let attrs = PathAttributes::ebgp(path, g.u32());
            assert_eq!(PathAttributes::decode(attrs.encode()).unwrap(), attrs);
        });
    }
}
