//! BGP path attributes: model and wire format.
//!
//! Implements the attributes Prefix2Org's origin extraction needs — ORIGIN
//! (type 1), AS_PATH (type 2, 4-byte ASNs per RFC 6793), NEXT_HOP (type 3) —
//! plus transparent carriage of unrecognized attributes, as any robust BGP
//! speaker must.

use crate::reader::Reader;

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

    fn encode(&self, out: &mut Vec<u8>) {
        for seg in &self.segments {
            let asns = seg.asns();
            assert!(asns.len() <= 255, "AS_PATH segment too long");
            out.extend_from_slice(&[seg.type_code(), asns.len() as u8]);
            for &a in asns {
                out.extend_from_slice(&a.to_be_bytes());
            }
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, AttrError> {
        let mut r = Reader::new(bytes);
        let mut segments = Vec::new();
        while !r.is_empty() {
            let [seg_type, count] = r
                .array()
                .ok_or(AttrError::Truncated("AS_PATH segment header"))?;
            let body = r
                .take(count as usize * 4)
                .ok_or(AttrError::Truncated("AS_PATH segment body"))?;
            let asns: Vec<u32> = body
                .chunks_exact(4)
                .map(|a| u32::from_be_bytes([a[0], a[1], a[2], a[3]]))
                .collect();
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
    pub value: Vec<u8>,
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
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(origin) = self.origin {
            put_attr(&mut out, FLAG_TRANSITIVE, 1, &[origin.code()]);
        }
        if let Some(as_path) = &self.as_path {
            let mut body = Vec::new();
            as_path.encode(&mut body);
            put_attr(&mut out, FLAG_TRANSITIVE, 2, &body);
        }
        if let Some(nh) = self.next_hop {
            put_attr(&mut out, FLAG_TRANSITIVE, 3, &nh.to_be_bytes());
        }
        for u in &self.unknown {
            put_attr(&mut out, u.flags | FLAG_OPTIONAL, u.type_code, &u.value);
        }
        out
    }

    /// Decodes attributes from wire form.
    pub fn decode(bytes: &[u8]) -> Result<Self, AttrError> {
        let mut r = Reader::new(bytes);
        let mut attrs = PathAttributes::default();
        while !r.is_empty() {
            // The third byte is the length, or the first byte of an
            // extended one.
            let [flags, type_code, len] =
                r.array().ok_or(AttrError::Truncated("attribute header"))?;
            let len = if flags & FLAG_EXT_LEN != 0 {
                let low = r.u8().ok_or(AttrError::Truncated("extended length"))?;
                u16::from_be_bytes([len, low]) as usize
            } else {
                len as usize
            };
            let value = r.take(len).ok_or(AttrError::Truncated("attribute value"))?;
            match type_code {
                1 => match *value {
                    [code] => attrs.origin = Some(Origin::from_code(code)?),
                    _ => return Err(AttrError::Malformed("ORIGIN length")),
                },
                2 => attrs.as_path = Some(AsPath::decode(value)?),
                3 => match *value {
                    [a, b, c, d] => attrs.next_hop = Some(u32::from_be_bytes([a, b, c, d])),
                    _ => return Err(AttrError::Malformed("NEXT_HOP length")),
                },
                _ => attrs.unknown.push(UnknownAttr {
                    flags,
                    type_code,
                    value: value.to_vec(),
                }),
            }
        }
        Ok(attrs)
    }
}

fn put_attr(out: &mut Vec<u8>, flags: u8, type_code: u8, value: &[u8]) {
    if value.len() > 255 {
        out.extend_from_slice(&[flags | FLAG_EXT_LEN, type_code]);
        out.extend_from_slice(&(value.len() as u16).to_be_bytes());
    } else {
        out.extend_from_slice(&[flags, type_code, value.len() as u8]);
    }
    out.extend_from_slice(value);
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
        let decoded = PathAttributes::decode(&wire).unwrap();
        assert_eq!(decoded, attrs);
        assert_eq!(decoded.origin_asns(), vec![395753]);
    }

    #[test]
    fn unknown_attributes_survive_round_trip() {
        let mut attrs = PathAttributes::ebgp(AsPath::sequence(vec![1]), 0);
        attrs.unknown.push(UnknownAttr {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            type_code: 32, // LARGE_COMMUNITY
            value: vec![0; 12],
        });
        let decoded = PathAttributes::decode(&attrs.encode()).unwrap();
        assert_eq!(decoded.unknown.len(), 1);
        assert_eq!(decoded.unknown[0].type_code, 32);
    }

    #[test]
    fn extended_length_attributes() {
        // An AS_PATH with 100 ASNs exceeds 255 bytes and needs extended length.
        let long: Vec<u32> = (1..=100).collect();
        let attrs = PathAttributes::ebgp(AsPath::sequence(long.clone()), 1);
        let decoded = PathAttributes::decode(&attrs.encode()).unwrap();
        assert_eq!(decoded.as_path.unwrap(), AsPath::sequence(long));
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        // Cuts at attribute boundaries yield a valid shorter list (framing is
        // the caller's job: a RIB entry's attribute length bounds the
        // attribute run); cuts *inside* an attribute must error. Values over
        // 255 bytes take the extended-length form, whose two-byte length is
        // cut as well.
        let mut extended = 0;
        run_cases(128, |g| {
            let full = PathAttributes {
                origin: g
                    .bool()
                    .then(|| *g.pick(&[Origin::Igp, Origin::Egp, Origin::Incomplete])),
                as_path: g.bool().then(|| AsPath {
                    segments: (0..g.below(3))
                        .map(|_| {
                            AsPathSegment::Sequence((0..g.below(70)).map(|_| g.u32()).collect())
                        })
                        .collect(),
                }),
                next_hop: g.bool().then(|| g.u32()),
                unknown: (0..g.below(4))
                    .map(|_| UnknownAttr {
                        flags: *g.pick(&[0, FLAG_TRANSITIVE]),
                        type_code: g.range(4, 255) as u8,
                        value: vec![0xA5; *g.pick(&[0, 1, 12, 255, 256, 300])],
                    })
                    .collect(),
            };
            // The wire length after each attribute, in encoding order.
            let mut partial = PathAttributes::default();
            let mut boundaries = vec![0];
            for step in 0..3 + full.unknown.len() {
                match step {
                    0 => partial.origin = full.origin,
                    1 => partial.as_path = full.as_path.clone(),
                    2 => partial.next_hop = full.next_hop,
                    k => partial.unknown.push(full.unknown[k - 3].clone()),
                }
                boundaries.push(partial.encode().len());
            }
            let wire = full.encode();
            extended += usize::from(full.unknown.iter().any(|u| u.value.len() > 255));
            for cut in 0..=wire.len() {
                let r = PathAttributes::decode(&wire[..cut]);
                assert_eq!(
                    r.is_ok(),
                    boundaries.contains(&cut),
                    "cut at {cut} of {}: {r:?}",
                    wire.len()
                );
            }
        });
        assert!(extended > 0);
    }

    #[test]
    fn malformed_values_error() {
        // ORIGIN with bad code.
        let mut out = Vec::new();
        put_attr(&mut out, FLAG_TRANSITIVE, 1, &[9]);
        assert_eq!(
            PathAttributes::decode(&out),
            Err(AttrError::Malformed("ORIGIN code"))
        );
        // NEXT_HOP with wrong length.
        let mut out = Vec::new();
        put_attr(&mut out, FLAG_TRANSITIVE, 3, &[1, 2]);
        assert!(PathAttributes::decode(&out).is_err());
        // AS_PATH with bad segment type.
        let mut out = Vec::new();
        put_attr(&mut out, FLAG_TRANSITIVE, 2, &[7, 0]);
        assert!(PathAttributes::decode(&out).is_err());
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
            assert_eq!(PathAttributes::decode(&attrs.encode()).unwrap(), attrs);
        });
    }
}
