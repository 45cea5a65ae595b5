//! The checked cursor every decoder in this crate reads through.

/// A read cursor over borrowed bytes. Each read returns `None` when fewer
/// bytes remain than it needs, and then leaves the cursor where it was,
/// so a decoder's bounds check is the read itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Whether every byte has been read.
    pub(crate) fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    /// The next `N` bytes, by value.
    pub(crate) fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// One byte.
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    /// A big-endian `u16`.
    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_be_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_past_the_end_are_none_and_leave_the_cursor() {
        let mut r = Reader::new(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(r.u8(), Some(1));
        assert_eq!(r.u16(), Some(0x0203));
        assert_eq!(r.u32(), None);
        assert_eq!(r.take(4), None);
        assert_eq!(r.take(2), Some(&[4, 5][..]));
        assert_eq!(r.u16(), None);
        assert_eq!(r.array::<1>(), Some([6]));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None);
        assert_eq!(r.take(0), Some(&[][..]));
    }
}
