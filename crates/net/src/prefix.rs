//! Family-agnostic prefix wrapper.

use core::cmp::Ordering;
use core::fmt;
use core::ops::Deref;
use core::str::FromStr;

use crate::error::ParseError;
use crate::text::AsciiBuf;
use crate::v4::Prefix4;
use crate::v6::Prefix6;

/// The IP address family of a prefix or range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressFamily {
    /// IPv4.
    V4,
    /// IPv6.
    V6,
}

impl fmt::Display for AddressFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressFamily::V4 => f.write_str("IPv4"),
            AddressFamily::V6 => f.write_str("IPv6"),
        }
    }
}

/// An IPv4 or IPv6 CIDR prefix.
///
/// Most of the pipeline is family-agnostic and works on this enum; the radix
/// trees and hot loops work directly on [`Prefix4`]/[`Prefix6`].
///
/// ```
/// use p2o_net::{Prefix, AddressFamily};
/// let p: Prefix = "2001:db8::/32".parse().unwrap();
/// assert_eq!(p.family(), AddressFamily::V6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prefix {
    /// An IPv4 prefix.
    V4(Prefix4),
    /// An IPv6 prefix.
    V6(Prefix6),
}

#[allow(clippy::len_without_is_empty)] // `len` is the prefix length, not a container size
impl Prefix {
    /// The address family of this prefix.
    #[inline]
    pub fn family(&self) -> AddressFamily {
        match self {
            Prefix::V4(_) => AddressFamily::V4,
            Prefix::V6(_) => AddressFamily::V6,
        }
    }

    /// The prefix length.
    #[inline]
    pub fn len(&self) -> u8 {
        match self {
            Prefix::V4(p) => p.len(),
            Prefix::V6(p) => p.len(),
        }
    }

    /// `true` only for a default route of either family.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len() == 0
    }

    /// Whether this prefix covers `other`. Always `false` across families.
    pub fn contains(&self, other: &Prefix) -> bool {
        match (self, other) {
            (Prefix::V4(a), Prefix::V4(b)) => a.contains(b),
            (Prefix::V6(a), Prefix::V6(b)) => a.contains(b),
            _ => false,
        }
    }

    /// Whether the prefixes share any address. Always `false` across families.
    pub fn overlaps(&self, other: &Prefix) -> bool {
        match (self, other) {
            (Prefix::V4(a), Prefix::V4(b)) => a.overlaps(b),
            (Prefix::V6(a), Prefix::V6(b)) => a.overlaps(b),
            _ => false,
        }
    }

    /// The inner IPv4 prefix, if this is one.
    pub fn as_v4(&self) -> Option<Prefix4> {
        match self {
            Prefix::V4(p) => Some(*p),
            Prefix::V6(_) => None,
        }
    }

    /// The inner IPv6 prefix, if this is one.
    pub fn as_v6(&self) -> Option<Prefix6> {
        match self {
            Prefix::V4(_) => None,
            Prefix::V6(p) => Some(*p),
        }
    }
}

impl From<Prefix4> for Prefix {
    fn from(p: Prefix4) -> Self {
        Prefix::V4(p)
    }
}

impl From<Prefix6> for Prefix {
    fn from(p: Prefix6) -> Self {
        Prefix::V6(p)
    }
}

impl Prefix {
    /// Writes the prefix as `Display` prints it, in one `write_str` and
    /// without the formatting machinery.
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str(&self.text())
    }

    /// The prefix as `Display` prints it, assembled on the stack: for a
    /// writer that takes a `&str`.
    pub fn text(&self) -> PrefixText {
        let mut buf = AsciiBuf::new();
        match self {
            Prefix::V4(p) => p.push_text(&mut buf),
            Prefix::V6(p) => p.push_text(&mut buf),
        }
        PrefixText(buf)
    }
}

/// A prefix's text held on the stack ([`Prefix::text`]); it derefs to
/// `str`. 43 bytes hold the longest IPv6 prefix.
pub struct PrefixText(AsciiBuf<43>);

impl Deref for PrefixText {
    type Target = str;

    fn deref(&self) -> &str {
        self.0.as_str()
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl FromStr for Prefix {
    type Err = ParseError;

    /// Parses either family; the presence of `:` selects IPv6.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.contains(':') {
            s.parse::<Prefix6>().map(Prefix::V6)
        } else {
            s.parse::<Prefix4>().map(Prefix::V4)
        }
    }
}

impl Ord for Prefix {
    /// Orders all IPv4 prefixes before all IPv6 prefixes, then by address and
    /// length within a family.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Prefix::V4(a), Prefix::V4(b)) => a.cmp(b),
            (Prefix::V6(a), Prefix::V6(b)) => a.cmp(b),
            (Prefix::V4(_), Prefix::V6(_)) => Ordering::Less,
            (Prefix::V6(_), Prefix::V4(_)) => Ordering::Greater,
        }
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_detection_on_parse() {
        assert_eq!(
            "10.0.0.0/8".parse::<Prefix>().unwrap().family(),
            AddressFamily::V4
        );
        assert_eq!(
            "2001:db8::/32".parse::<Prefix>().unwrap().family(),
            AddressFamily::V6
        );
    }

    #[test]
    fn cross_family_never_contains() {
        let a: Prefix = "0.0.0.0/0".parse().unwrap();
        let b: Prefix = "::/0".parse().unwrap();
        assert!(!a.contains(&b));
        assert!(!b.contains(&a));
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn ordering_puts_v4_first() {
        let a: Prefix = "255.0.0.0/8".parse().unwrap();
        let b: Prefix = "::/0".parse().unwrap();
        assert!(a < b);
    }

    #[test]
    fn accessors() {
        let a: Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(a.as_v4().is_some());
        assert!(a.as_v6().is_none());
        assert_eq!(a.len(), 8);
        assert!(!a.is_default());
        let d: Prefix = "::/0".parse().unwrap();
        assert!(d.is_default());
    }

    #[test]
    fn display_matches_inner() {
        let a: Prefix = "2404:e8:100::/40".parse().unwrap();
        assert_eq!(a.to_string(), "2404:e8:100::/40");
    }

    #[test]
    fn json_string_round_trip_both_families() {
        for s in ["10.0.0.0/8", "2001:db8::/32"] {
            let p: Prefix = s.parse().unwrap();
            let j = p2o_util::Json::str(p.to_string()).to_string();
            let back = p2o_util::Json::parse(&j).unwrap();
            assert_eq!(back.as_str().unwrap().parse::<Prefix>().unwrap(), p);
        }
    }
}
