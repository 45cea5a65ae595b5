//! Canonical IPv6 CIDR prefixes.

use core::cmp::Ordering;
use core::fmt;
use core::str::FromStr;

use crate::error::ParseError;
use crate::text::AsciiBuf;

/// A canonical IPv6 CIDR prefix: a 128-bit network address plus a length in
/// `0..=128`, with all host bits guaranteed zero.
///
/// ```
/// use p2o_net::Prefix6;
/// let p: Prefix6 = "2001:db8::/32".parse().unwrap();
/// assert_eq!(p.to_string(), "2001:db8::/32");
/// assert!(p.contains(&"2001:db8:100::/40".parse().unwrap()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix6 {
    bits: u128,
    len: u8,
}

#[allow(clippy::len_without_is_empty)] // `len` is the prefix length, not a container size
impl Prefix6 {
    /// The default route, `::/0`.
    pub const DEFAULT: Prefix6 = Prefix6 { bits: 0, len: 0 };

    /// Maximum prefix length for IPv6.
    pub const MAX_LEN: u8 = 128;

    /// Creates a prefix, rejecting non-canonical input (host bits set or
    /// `len > 128`).
    pub fn new(bits: u128, len: u8) -> Result<Self, ParseError> {
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
        Ok(Prefix6 { bits, len })
    }

    /// Creates a prefix, silently zeroing any host bits. Panics if `len > 128`.
    pub fn new_truncated(bits: u128, len: u8) -> Self {
        assert!(len <= Self::MAX_LEN, "IPv6 prefix length {len} > 128");
        Prefix6 {
            bits: bits & mask(len),
            len,
        }
    }

    /// The network address as a big-endian `u128`.
    #[inline]
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// The prefix length.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// `true` only for the default route `::/0`.
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// First address covered by the prefix.
    #[inline]
    pub fn first_addr(&self) -> u128 {
        self.bits
    }

    /// Last address covered by the prefix.
    #[inline]
    pub fn last_addr(&self) -> u128 {
        self.bits | !mask(self.len)
    }

    /// Number of /64-equivalents covered, saturating for very short prefixes.
    ///
    /// IPv6 space is conventionally accounted in /64 subnets rather than
    /// single addresses (a /48 holds 2^16 /64s). Prefixes longer than /64
    /// count as one.
    #[inline]
    pub fn num_slash64(&self) -> u128 {
        if self.len >= 64 {
            1
        } else {
            1u128 << (64 - self.len as u32)
        }
    }

    /// Whether this prefix covers the given address.
    #[inline]
    pub fn contains_addr(&self, addr: u128) -> bool {
        addr & mask(self.len) == self.bits
    }

    /// Whether this prefix covers `other` (is equal to it or a supernet of it).
    #[inline]
    pub fn contains(&self, other: &Prefix6) -> bool {
        self.len <= other.len && other.bits & mask(self.len) == self.bits
    }

    /// Whether the two prefixes share any address.
    #[inline]
    pub fn overlaps(&self, other: &Prefix6) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The immediate parent (one bit shorter), or `None` for the default route.
    pub fn supernet(&self) -> Option<Prefix6> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix6::new_truncated(self.bits, self.len - 1))
        }
    }

    /// The two immediate children (one bit longer), or `None` for a /128.
    pub fn subnets(&self) -> Option<(Prefix6, Prefix6)> {
        if self.len >= Self::MAX_LEN {
            return None;
        }
        let len = self.len + 1;
        let lo = Prefix6 {
            bits: self.bits,
            len,
        };
        let hi = Prefix6 {
            bits: self.bits | (1u128 << (128 - len as u32)),
            len,
        };
        Some((lo, hi))
    }

    /// The value of bit `index` (0 = most significant) of the network address.
    #[inline]
    pub fn bit(&self, index: u8) -> bool {
        debug_assert!(index < 128);
        self.bits & (1u128 << (127 - index as u32)) != 0
    }

    /// Formats the network address in RFC 5952 compressed form.
    pub fn addr_string(&self) -> String {
        fmt_addr(self.bits)
    }
}

#[inline]
fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

/// Appends `bits` in RFC 5952 form: the one IPv6 address formatter.
fn push_addr<const N: usize>(buf: &mut AsciiBuf<N>, bits: u128) {
    let groups: [u16; 8] = core::array::from_fn(|i| (bits >> (112 - 16 * i)) as u16);
    // Find the longest run of zero groups (length >= 2), leftmost on ties.
    let (mut best_start, mut best_len) = (0usize, 0usize);
    let mut i = 0;
    while i < 8 {
        if groups[i] == 0 {
            let start = i;
            while i < 8 && groups[i] == 0 {
                i += 1;
            }
            let run = i - start;
            if run > best_len {
                best_start = start;
                best_len = run;
            }
        } else {
            i += 1;
        }
    }
    if best_len < 2 {
        best_start = 8; // no run to compress
    }
    let mut i = 0;
    while i < 8 {
        if i == best_start {
            buf.push(b':');
            buf.push(b':');
            i += best_len;
            continue;
        }
        if i > 0 && i != best_start + best_len {
            buf.push(b':');
        }
        buf.push_hex(groups[i]);
        i += 1;
    }
}

/// Formats a 128-bit address in RFC 5952 form: lowercase hex groups with the
/// single longest run of two or more zero groups compressed to `::`.
pub fn fmt_addr(bits: u128) -> String {
    let mut buf = AsciiBuf::<39>::new();
    push_addr(&mut buf, bits);
    buf.to_text()
}

/// Parses an IPv6 address (RFC 4291 textual form, without embedded IPv4
/// dotted-quad tails) into a big-endian `u128`.
pub fn parse_addr(s: &str) -> Result<u128, ParseError> {
    let malformed = || ParseError::Malformed(s.to_string());
    if s.is_empty() {
        return Err(malformed());
    }
    let (head, tail) = match s.find("::") {
        Some(pos) => {
            // Reject more than one "::".
            if s[pos + 2..].contains("::") {
                return Err(malformed());
            }
            (&s[..pos], &s[pos + 2..])
        }
        None => (s, ""),
    };
    let parse_groups = |part: &str| -> Result<Vec<u16>, ParseError> {
        if part.is_empty() {
            return Ok(Vec::new());
        }
        part.split(':')
            .map(|g| {
                if g.is_empty() || g.len() > 4 || !g.bytes().all(|b| b.is_ascii_hexdigit()) {
                    Err(malformed())
                } else {
                    u16::from_str_radix(g, 16).map_err(|_| malformed())
                }
            })
            .collect()
    };
    let head_groups = parse_groups(head)?;
    let has_compression = s.contains("::");
    let tail_groups = if has_compression {
        parse_groups(tail)?
    } else {
        Vec::new()
    };
    let total = head_groups.len() + tail_groups.len();
    if has_compression {
        if total > 7 {
            return Err(malformed());
        }
    } else if total != 8 {
        return Err(malformed());
    }
    let mut groups = [0u16; 8];
    for (i, g) in head_groups.iter().enumerate() {
        groups[i] = *g;
    }
    for (i, g) in tail_groups.iter().enumerate() {
        groups[8 - tail_groups.len() + i] = *g;
    }
    let mut out: u128 = 0;
    for g in groups {
        out = (out << 16) | g as u128;
    }
    Ok(out)
}

impl Prefix6 {
    /// The network address as a [`std::net::Ipv6Addr`].
    pub fn network(&self) -> std::net::Ipv6Addr {
        std::net::Ipv6Addr::from(self.bits())
    }

    /// Builds a prefix from a standard address and length, truncating host
    /// bits. Panics if `len > 128`.
    pub fn from_addr(addr: std::net::Ipv6Addr, len: u8) -> Self {
        Prefix6::new_truncated(u128::from(addr), len)
    }

    /// Whether the prefix covers a standard address.
    pub fn contains_ip(&self, addr: std::net::Ipv6Addr) -> bool {
        self.contains_addr(u128::from(addr))
    }
}

impl Prefix6 {
    /// Writes the prefix as `Display` prints it, in one `write_str` and
    /// without the formatting machinery.
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let mut buf = AsciiBuf::<43>::new();
        push_addr(&mut buf, self.bits);
        buf.push_len(self.len);
        buf.write_to(out)
    }
}

impl fmt::Display for Prefix6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Debug for Prefix6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix6({self})")
    }
}

impl FromStr for Prefix6 {
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
        Prefix6::new(parse_addr(addr)?, len as u8)
    }
}

impl Ord for Prefix6 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bits
            .cmp(&other.bits)
            .then_with(|| self.len.cmp(&other.len))
    }
}

impl PartialOrd for Prefix6 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix6 {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "::/0",
            "2001:db8::/32",
            "2404:e8:100::/40",
            "2a04:4e40:8440::/48",
            "fe80::1/128",
        ] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn parse_uncompressed_form() {
        let a = p("2001:0db8:0000:0000:0000:0000:0000:0000/32");
        assert_eq!(a, p("2001:db8::/32"));
    }

    #[test]
    fn compression_picks_longest_zero_run() {
        let a =
            Prefix6::new_truncated((0x2001u128 << 112) | (0x1u128 << 64) | (0x1u128 << 16), 128);
        // 2001:0:0:1:0:0:1:0 -> longest run is the left one of length 2... both
        // are length 2; leftmost wins per RFC 5952 when equal.
        assert_eq!(a.to_string(), "2001::1:0:0:1:0/128");
    }

    #[test]
    fn rejects_malformed_input() {
        for s in [
            "2001:db8::",
            "2001:db8:::1/48",
            "2001:db8::1::2/64",
            "2001:db8::12345/64",
            "2001:db8::g/64",
            "1:2:3:4:5:6:7:8:9/64",
            "1:2:3:4:5:6:7/64",
            "/64",
            "",
        ] {
            assert!(s.parse::<Prefix6>().is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn rejects_host_bits_and_long_len() {
        assert!(matches!(
            "2001:db8::1/32".parse::<Prefix6>(),
            Err(ParseError::HostBitsSet(_))
        ));
        assert!(matches!(
            "2001:db8::/129".parse::<Prefix6>(),
            Err(ParseError::LengthOutOfRange { .. })
        ));
    }

    #[test]
    fn containment() {
        let a = p("2001:db8::/32");
        let b = p("2001:db8:100::/40");
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(Prefix6::DEFAULT.contains(&a));
        assert!(!a.contains(&p("2001:db9::/32")));
    }

    #[test]
    fn slash64_accounting() {
        assert_eq!(p("2001:db8::/32").num_slash64(), 1u128 << 32);
        assert_eq!(p("2001:db8::/64").num_slash64(), 1);
        assert_eq!(p("2001:db8::/120").num_slash64(), 1);
    }

    #[test]
    fn subnets_and_supernet() {
        let a = p("2001:db8::/32");
        let (lo, hi) = a.subnets().unwrap();
        assert_eq!(lo, p("2001:db8::/33"));
        assert_eq!(hi, p("2001:db8:8000::/33"));
        assert_eq!(lo.supernet().unwrap(), a);
        assert_eq!(Prefix6::DEFAULT.supernet(), None);
    }

    #[test]
    fn std_net_interop() {
        use std::net::Ipv6Addr;
        let addr: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let p = Prefix6::from_addr(addr, 32);
        assert_eq!(p, "2001:db8::/32".parse().unwrap());
        assert_eq!(p.network(), "2001:db8::".parse::<Ipv6Addr>().unwrap());
        assert!(p.contains_ip(addr));
        assert!(!p.contains_ip("2001:db9::1".parse().unwrap()));
        // Our formatter agrees with std's RFC 5952 output.
        assert_eq!(p.addr_string(), p.network().to_string());
    }

    #[test]
    fn json_string_round_trip() {
        let a = p("2404:e8:100::/40");
        let j = p2o_util::Json::str(a.to_string()).to_string();
        let back = p2o_util::Json::parse(&j).unwrap();
        assert_eq!(back.as_str().unwrap().parse::<Prefix6>().unwrap(), a);
    }
}
