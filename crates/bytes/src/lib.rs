//! Vendored stand-in for the `bytes` crate.
//!
//! The workspace must build with no registry access at all, so this crate
//! re-implements the (small) slice of the real `bytes` API the BGP wire
//! codecs use: a cheaply-cloneable immutable [`Bytes`] view backed by an
//! `Arc`, an append-only [`BytesMut`], and the [`Buf`]/[`BufMut`] cursor traits.
//! Semantics match the upstream crate for every operation exercised here;
//! anything outside that subset is intentionally absent.

use std::ops::{Bound, Deref, Index, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable view into shared byte storage.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a static slice without copying.
    pub fn from_static(slice: &'static [u8]) -> Self {
        // A shim cannot hold `&'static` without an allocation path anyway;
        // copying once keeps the representation uniform.
        Self::copy_from_slice(slice)
    }

    /// Copies `slice` into a fresh buffer.
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        let data: Arc<[u8]> = Arc::from(slice);
        let end = data.len();
        Self {
            data,
            start: 0,
            end,
        }
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view sharing the same storage.
    ///
    /// Panics when the range is out of bounds, like upstream.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let (lo, hi) = resolve_bounds(&range, self.len());
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Self {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = Arc::from(v.into_boxed_slice());
        let end = data.len();
        Self {
            data,
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl Index<usize> for Bytes {
    type Output = u8;
    fn index(&self, i: usize) -> &u8 {
        &self.as_slice()[i]
    }
}

impl std::iter::FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable, append-only byte buffer: [`BufMut`] writes append at the
/// back, and [`freeze`](Self::freeze) hands the bytes over as [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reserves space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Appends `slice` to the buffer.
    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        Self { data: v.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

macro_rules! impl_range_index {
    ($($range:ty),*) => {$(
        impl Index<$range> for Bytes {
            type Output = [u8];
            fn index(&self, r: $range) -> &[u8] {
                &self.as_slice()[r]
            }
        }
    )*};
}

impl_range_index!(
    std::ops::Range<usize>,
    std::ops::RangeTo<usize>,
    std::ops::RangeFrom<usize>,
    std::ops::RangeFull,
    std::ops::RangeInclusive<usize>,
    std::ops::RangeToInclusive<usize>
);

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Bytes::copy_from_slice(&self.data).fmt(f)
    }
}

fn resolve_bounds(range: &impl RangeBounds<usize>, len: usize) -> (usize, usize) {
    let lo = match range.start_bound() {
        Bound::Included(&n) => n,
        Bound::Excluded(&n) => n + 1,
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(&n) => n + 1,
        Bound::Excluded(&n) => n,
        Bound::Unbounded => len,
    };
    (lo, hi)
}

/// Read cursor over a byte source; panics on underflow like upstream.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The readable contiguous slice at the cursor.
    fn chunk(&self) -> &[u8];

    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&c[..8]);
        self.advance(8);
        u64::from_be_bytes(raw)
    }

    /// Copies the next `len` bytes out and advances past them.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.remaining(), "copy_to_bytes out of bounds");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(len <= self.len(), "copy_to_bytes out of bounds");
        let out = self.slice(..len);
        self.start += len;
        out
    }
}

/// Write cursor appending big-endian integers and slices.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, slice: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, slice: &[u8]) {
        self.extend_from_slice(slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_slice_shares_storage_and_reads() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(b.len(), 5);
        let mut cur = s;
        assert_eq!(cur.get_u8(), 2);
        assert_eq!(cur.remaining(), 2);
        assert_eq!(&cur.copy_to_bytes(2)[..], &[3, 4]);
        assert!(!cur.has_remaining());
    }

    #[test]
    fn bytesmut_round_trips_integers() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u16(0x0102);
        m.put_u32(0xDEAD_BEEF);
        m.put_slice(b"xy");
        assert_eq!(m.len(), 9);
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16(), 0x0102);
        assert_eq!(b.get_u32(), 0xDEAD_BEEF);
        assert_eq!(&b[..], b"xy");
    }

    #[test]
    #[should_panic]
    fn advance_past_end_panics() {
        let mut b = Bytes::from(vec![1]);
        b.advance(2);
    }
}
