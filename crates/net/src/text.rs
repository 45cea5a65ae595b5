//! A fixed-capacity ASCII buffer for address formatting: a prefix's text
//! is assembled on the stack and handed to the writer in one `write_str`,
//! with no heap allocation and no `format!` round trip.

use core::fmt;

/// Up to `N` ASCII bytes, filled left to right.
pub(crate) struct AsciiBuf<const N: usize> {
    bytes: [u8; N],
    len: usize,
}

impl<const N: usize> AsciiBuf<N> {
    pub(crate) fn new() -> Self {
        AsciiBuf {
            bytes: [0; N],
            len: 0,
        }
    }

    /// Appends one ASCII byte.
    #[inline]
    pub(crate) fn push(&mut self, b: u8) {
        self.bytes[self.len] = b;
        self.len += 1;
    }

    /// Appends `v` in decimal.
    #[inline]
    pub(crate) fn push_dec(&mut self, v: u8) {
        if v >= 100 {
            self.push(b'0' + v / 100);
        }
        if v >= 10 {
            self.push(b'0' + v / 10 % 10);
        }
        self.push(b'0' + v % 10);
    }

    /// Appends `v` in lowercase hex without leading zeros.
    #[inline]
    pub(crate) fn push_hex(&mut self, v: u16) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let nibbles = (16 - v.leading_zeros()).div_ceil(4).max(1);
        for i in (0..nibbles).rev() {
            self.push(DIGITS[(v >> (4 * i)) as usize & 0xF]);
        }
    }

    /// Appends `/len`, the CIDR length suffix.
    #[inline]
    pub(crate) fn push_len(&mut self, len: u8) {
        self.push(b'/');
        self.push_dec(len);
    }

    /// The assembled text.
    pub(crate) fn as_str(&self) -> &str {
        core::str::from_utf8(&self.bytes[..self.len]).expect("ASCII only")
    }

    /// Hands the assembled text to `out`.
    pub(crate) fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        out.write_str(self.as_str())
    }

    /// The assembled text as an owned `String`.
    pub(crate) fn to_text(&self) -> String {
        String::from_utf8(self.bytes[..self.len].to_vec()).expect("ASCII only")
    }
}
