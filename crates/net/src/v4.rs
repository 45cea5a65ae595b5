//! Canonical IPv4 CIDR prefixes.

use core::cmp::Ordering;
use core::fmt;
use core::str::FromStr;

use crate::error::ParseError;
use crate::text::AsciiBuf;

/// A canonical IPv4 CIDR prefix: a 32-bit network address plus a length in
/// `0..=32`, with all host bits guaranteed zero.
///
/// ```
/// use p2o_net::Prefix4;
/// let p: Prefix4 = "203.0.113.0/24".parse().unwrap();
/// assert!(p.contains_addr(0xCB007142)); // 203.0.113.66
/// assert_eq!(p.to_string(), "203.0.113.0/24");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix4 {
    bits: u32,
    len: u8,
}

#[allow(clippy::len_without_is_empty)] // `len` is the prefix length, not a container size
impl Prefix4 {
    /// The default route, `0.0.0.0/0`.
    pub const DEFAULT: Prefix4 = Prefix4 { bits: 0, len: 0 };

    /// Maximum prefix length for IPv4.
    pub const MAX_LEN: u8 = 32;

    /// Creates a prefix, rejecting non-canonical input.
    ///
    /// Returns an error if `len > 32` or if `bits` has any bit set below the
    /// prefix length (host bits).
    pub fn new(bits: u32, len: u8) -> Result<Self, ParseError> {
        if len > Self::MAX_LEN {
            return Err(ParseError::LengthOutOfRange {
                len: len as u32,
                max: Self::MAX_LEN,
            });
        }
        let canonical = bits & mask(len);
        if canonical != bits {
            return Err(ParseError::HostBitsSet(format!("{}/{len}", fmt_addr(bits))));
        }
        Ok(Prefix4 { bits, len })
    }

    /// Creates a prefix, silently zeroing any host bits. Panics if `len > 32`.
    pub fn new_truncated(bits: u32, len: u8) -> Self {
        assert!(len <= Self::MAX_LEN, "IPv4 prefix length {len} > 32");
        Prefix4 {
            bits: bits & mask(len),
            len,
        }
    }

    /// The network address as a big-endian `u32`.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The prefix length.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// `true` only for the default route `0.0.0.0/0`.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// First address covered by the prefix (the network address).
    #[inline]
    pub fn first_addr(&self) -> u32 {
        self.bits
    }

    /// Last address covered by the prefix (the broadcast address for /len).
    #[inline]
    pub fn last_addr(&self) -> u32 {
        self.bits | !mask(self.len)
    }

    /// Number of addresses covered, as a `u64` (a /0 covers 2^32).
    #[inline]
    pub fn num_addrs(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// Whether this prefix covers the given address.
    #[inline]
    pub fn contains_addr(&self, addr: u32) -> bool {
        addr & mask(self.len) == self.bits
    }

    /// Whether this prefix covers `other` (is equal to it or a supernet of it).
    #[inline]
    pub fn contains(&self, other: &Prefix4) -> bool {
        self.len <= other.len && other.bits & mask(self.len) == self.bits
    }

    /// Whether the two prefixes share any address.
    #[inline]
    pub fn overlaps(&self, other: &Prefix4) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The immediate parent (one bit shorter), or `None` for the default route.
    pub fn supernet(&self) -> Option<Prefix4> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix4::new_truncated(self.bits, self.len - 1))
        }
    }

    /// The two immediate children (one bit longer), or `None` for a /32.
    pub fn subnets(&self) -> Option<(Prefix4, Prefix4)> {
        if self.len >= Self::MAX_LEN {
            return None;
        }
        let len = self.len + 1;
        let lo = Prefix4 {
            bits: self.bits,
            len,
        };
        let hi = Prefix4 {
            bits: self.bits | (1u32 << (32 - len as u32)),
            len,
        };
        Some((lo, hi))
    }

    /// The value of bit `index` (0 = most significant) of the network address.
    ///
    /// Used by the radix tree to branch; `index` must be `< 32`.
    #[inline]
    pub fn bit(&self, index: u8) -> bool {
        debug_assert!(index < 32);
        self.bits & (1u32 << (31 - index as u32)) != 0
    }

    /// Formats the network address in dotted-quad form without the length.
    pub fn addr_string(&self) -> String {
        fmt_addr(self.bits)
    }
}

#[inline]
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

/// Appends `bits` in dotted-quad form: the one IPv4 address formatter.
fn push_addr<const N: usize>(buf: &mut AsciiBuf<N>, bits: u32) {
    for (i, octet) in bits.to_be_bytes().into_iter().enumerate() {
        if i > 0 {
            buf.push(b'.');
        }
        buf.push_dec(octet);
    }
}

fn fmt_addr(bits: u32) -> String {
    let mut buf = AsciiBuf::<15>::new();
    push_addr(&mut buf, bits);
    buf.to_text()
}

/// Parses a dotted-quad IPv4 address into a big-endian `u32`.
pub fn parse_addr(s: &str) -> Result<u32, ParseError> {
    let mut out: u32 = 0;
    let mut groups = 0;
    for part in s.split('.') {
        if groups == 4 {
            return Err(ParseError::Malformed(s.to_string()));
        }
        if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseError::Malformed(s.to_string()));
        }
        let v: u32 = part
            .parse()
            .map_err(|_| ParseError::Malformed(s.to_string()))?;
        if v > 255 {
            return Err(ParseError::Malformed(s.to_string()));
        }
        out = (out << 8) | v;
        groups += 1;
    }
    if groups != 4 {
        return Err(ParseError::Malformed(s.to_string()));
    }
    Ok(out)
}

impl Prefix4 {
    /// The network address as a [`std::net::Ipv4Addr`].
    pub fn network(&self) -> std::net::Ipv4Addr {
        std::net::Ipv4Addr::from(self.bits())
    }

    /// Builds a prefix from a standard address and length, truncating host
    /// bits. Panics if `len > 32`.
    pub fn from_addr(addr: std::net::Ipv4Addr, len: u8) -> Self {
        Prefix4::new_truncated(u32::from(addr), len)
    }

    /// Whether the prefix covers a standard address.
    pub fn contains_ip(&self, addr: std::net::Ipv4Addr) -> bool {
        self.contains_addr(u32::from(addr))
    }
}

impl Prefix4 {
    /// Writes the prefix as `Display` prints it, in one `write_str` and
    /// without the formatting machinery.
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let mut buf = AsciiBuf::<18>::new();
        push_addr(&mut buf, self.bits);
        buf.push_len(self.len);
        buf.write_to(out)
    }
}

impl fmt::Display for Prefix4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Debug for Prefix4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix4({self})")
    }
}

impl FromStr for Prefix4 {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ParseError::Malformed(s.to_string()))?;
        let len: u32 = len
            .parse()
            .map_err(|_| ParseError::Malformed(s.to_string()))?;
        if len > Self::MAX_LEN as u32 {
            return Err(ParseError::LengthOutOfRange {
                len,
                max: Self::MAX_LEN,
            });
        }
        Prefix4::new(parse_addr(addr)?, len as u8)
    }
}

impl Ord for Prefix4 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bits
            .cmp(&other.bits)
            .then_with(|| self.len.cmp(&other.len))
    }
}

impl PartialOrd for Prefix4 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "203.0.113.0/24", "192.0.2.1/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!("10.0.0.0".parse::<Prefix4>().is_err());
        assert!("10.0.0/8".parse::<Prefix4>().is_err());
        assert!("10.0.0.0.0/8".parse::<Prefix4>().is_err());
        assert!("256.0.0.0/8".parse::<Prefix4>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix4>().is_err());
        assert!("10.0.0.0/-1".parse::<Prefix4>().is_err());
        assert!("10.0.0.0/ 8".parse::<Prefix4>().is_err());
        assert!("a.b.c.d/8".parse::<Prefix4>().is_err());
        assert!("".parse::<Prefix4>().is_err());
    }

    #[test]
    fn rejects_host_bits() {
        assert_eq!(
            "10.0.0.1/8".parse::<Prefix4>(),
            Err(ParseError::HostBitsSet("10.0.0.1/8".into()))
        );
    }

    #[test]
    fn truncation_zeroes_host_bits() {
        let t = Prefix4::new_truncated(0x0A0000FF, 8);
        assert_eq!(t, p("10.0.0.0/8"));
    }

    #[test]
    fn containment_and_overlap() {
        let a = p("10.0.0.0/8");
        let b = p("10.20.0.0/16");
        let c = p("11.0.0.0/8");
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(a.contains(&a));
        assert!(!a.contains(&c));
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(Prefix4::DEFAULT.contains(&a));
    }

    #[test]
    fn address_bounds_and_count() {
        let a = p("10.0.0.0/8");
        assert_eq!(a.first_addr(), 0x0A000000);
        assert_eq!(a.last_addr(), 0x0AFFFFFF);
        assert_eq!(a.num_addrs(), 1 << 24);
        assert_eq!(Prefix4::DEFAULT.num_addrs(), 1u64 << 32);
        assert_eq!(p("192.0.2.1/32").num_addrs(), 1);
    }

    #[test]
    fn supernet_and_subnets() {
        let a = p("10.0.0.0/8");
        assert_eq!(a.supernet().unwrap(), p("10.0.0.0/7"));
        assert_eq!(Prefix4::DEFAULT.supernet(), None);
        let (lo, hi) = a.subnets().unwrap();
        assert_eq!(lo, p("10.0.0.0/9"));
        assert_eq!(hi, p("10.128.0.0/9"));
        assert_eq!(p("1.2.3.4/32").subnets(), None);
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let a = p("128.0.0.0/1");
        assert!(a.bit(0));
        let b = p("64.0.0.0/2");
        assert!(!b.bit(0));
        assert!(b.bit(1));
    }

    #[test]
    fn ordering_sorts_supernet_first() {
        let mut v = vec![p("10.0.0.0/16"), p("10.0.0.0/8"), p("9.0.0.0/8")];
        v.sort();
        assert_eq!(v, vec![p("9.0.0.0/8"), p("10.0.0.0/8"), p("10.0.0.0/16")]);
    }

    #[test]
    fn std_net_interop() {
        use std::net::Ipv4Addr;
        let p = Prefix4::from_addr(Ipv4Addr::new(203, 0, 113, 99), 24);
        assert_eq!(p, "203.0.113.0/24".parse().unwrap());
        assert_eq!(p.network(), Ipv4Addr::new(203, 0, 113, 0));
        assert!(p.contains_ip(Ipv4Addr::new(203, 0, 113, 200)));
        assert!(!p.contains_ip(Ipv4Addr::new(203, 0, 114, 1)));
    }

    #[test]
    fn json_string_round_trip() {
        let a = p("203.0.113.0/24");
        let j = p2o_util::Json::str(a.to_string()).to_string();
        assert_eq!(j, "\"203.0.113.0/24\"");
        let back = p2o_util::Json::parse(&j).unwrap();
        assert_eq!(back.as_str().unwrap().parse::<Prefix4>().unwrap(), a);
    }
}
