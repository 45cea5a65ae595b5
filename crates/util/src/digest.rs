//! Deterministic content digests.
//!
//! The offline crate set has no cryptographic hash, so the RPKI substrate
//! simulates key identifiers and signatures with 64-bit FNV-1a digests. This
//! is a *modelling* substitution (documented in DESIGN.md §1): Prefix2Org only
//! uses certificates to group prefixes under a management key, so collision
//! resistance at cryptographic strength is not required — determinism and
//! good dispersion are.

use core::fmt;

/// A 64-bit content digest, displayed in the `AB:CD:EF:...` colon-hex style
/// the paper uses for RPKI key identifiers (Table 3, Listing 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64);

impl Digest {
    /// Digest of a byte string.
    pub fn of_bytes(data: &[u8]) -> Self {
        Digest(fnv1a_64(data))
    }

    /// Digest of several byte strings, with length framing so that
    /// `("ab","c")` and `("a","bc")` differ.
    pub fn of_parts<'a, I: IntoIterator<Item = &'a [u8]>>(parts: I) -> Self {
        Digest(parts.into_iter().fold(FNV_OFFSET, |h, part| {
            fnv1a_64_update(frame(h, part.len() as u64), part)
        }))
    }

    /// [`Digest::of_parts`] of `[name, content]` and [`fnv1a_64`] of
    /// `content`, from one pass over `content` that advances both states
    /// (a two-state update): an input's files-digest part and manifest
    /// digest. [`NamedContent`] computes the same over content streamed in
    /// pieces.
    pub fn of_named_content(name: &[u8], content: &[u8]) -> (Digest, u64) {
        let mut streamed = NamedContent::new(name, content.len() as u64);
        streamed.update(content);
        streamed.finish().expect("fed the declared length")
    }

    /// Combines this digest with another (order-sensitive).
    pub fn chain(self, other: Digest) -> Digest {
        let mut h = self.0;
        for b in other.0.to_be_bytes() {
            h = fnv1a_step(h, b);
        }
        Digest(h)
    }

    /// Short 3-byte colon-hex form like `0E:65:A4` (as in paper Table 3).
    pub fn short(&self) -> String {
        let b = self.0.to_be_bytes();
        format!("{:02X}:{:02X}:{:02X}", b[0], b[1], b[2])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(
            f,
            "{:02X}:{:02X}:{:02X}:{:02X}:{:02X}:{:02X}:{:02X}:{:02X}",
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
        )
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv1a_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Folds the length framing of a `len`-byte part into `h`, as
/// [`Digest::of_parts`] frames each part before its bytes.
fn frame(h: u64, len: u64) -> u64 {
    fnv1a_64_update(h, &len.to_be_bytes())
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a_64(data: &[u8]) -> u64 {
    fnv1a_64_update(FNV1A_INIT, data)
}

/// Initial state for the streaming form of [`fnv1a_64`].
pub const FNV1A_INIT: u64 = FNV_OFFSET;

/// Streaming FNV-1a: folds `data` into running state `h`. Feeding a byte
/// string in any block split, starting from [`FNV1A_INIT`], produces the
/// same value as [`fnv1a_64`] of the whole — `ManifestEntry::of_parts`
/// digests a frame header and its payload without joining them.
pub fn fnv1a_64_update(h: u64, data: &[u8]) -> u64 {
    let mut h = h;
    for &b in data {
        h = fnv1a_step(h, b);
    }
    h
}

/// Two streaming FNV-1a states folded over the same `data` in one loop:
/// `[fnv1a_64_update(h[0], data), fnv1a_64_update(h[1], data)]`. Each
/// state's step waits on its own multiply, so the two chains overlap and
/// cost about as much as one.
pub fn fnv1a_64_update2(h: [u64; 2], data: &[u8]) -> [u64; 2] {
    let [mut a, mut b] = h;
    for &byte in data {
        a = fnv1a_step(a, byte);
        b = fnv1a_step(b, byte);
    }
    [a, b]
}

/// The lockstep kernel: [`fnv1a_64_update2`] of `h[0]` over `data[0]` and
/// of `h[1]` over `data[1]`, in one loop that takes a byte of each slice
/// per step. The four chains wait on four independent multiplies, so one
/// step costs about what a step of one chain does: two files hash in the
/// time of one.
///
/// # Panics
///
/// If the two slices differ in length.
pub fn fnv1a_64_lockstep(h: [[u64; 2]; 2], data: [&[u8]; 2]) -> [[u64; 2]; 2] {
    let [[mut a0, mut a1], [mut b0, mut b1]] = h;
    let [x, y] = data;
    assert_eq!(x.len(), y.len(), "lockstep slices of equal length");
    for (&p, &q) in x.iter().zip(y) {
        a0 = fnv1a_step(a0, p);
        a1 = fnv1a_step(a1, p);
        b0 = fnv1a_step(b0, q);
        b1 = fnv1a_step(b1, q);
    }
    [[a0, a1], [b0, b1]]
}

/// [`Digest::of_named_content`] over content that arrives in pieces. The
/// content's length frame is hashed before any of its bytes, so the length
/// is declared up front (for a file, the length it had when it was
/// opened), and [`finish`](Self::finish) yields the digests only when
/// exactly that many bytes were fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamedContent {
    /// The `[named, plain]` chain states.
    state: [u64; 2],
    len: u64,
    fed: u64,
}

impl NamedContent {
    /// Starts the digests of `len` bytes of content named `name`.
    pub fn new(name: &[u8], len: u64) -> NamedContent {
        let named = frame(
            fnv1a_64_update(frame(FNV_OFFSET, name.len() as u64), name),
            len,
        );
        NamedContent {
            state: [named, FNV_OFFSET],
            len,
            fed: 0,
        }
    }

    /// Feeds the next bytes of the content.
    pub fn update(&mut self, data: &[u8]) {
        self.state = fnv1a_64_update2(self.state, data);
        self.fed += data.len() as u64;
    }

    /// Feeds `data[0]` to `h[0]` and `data[1]` to `h[1]` through
    /// [`fnv1a_64_lockstep`].
    ///
    /// # Panics
    ///
    /// If the two slices differ in length.
    pub fn update_lockstep(h: [&mut NamedContent; 2], data: [&[u8]; 2]) {
        let [a, b] = h;
        [a.state, b.state] = fnv1a_64_lockstep([a.state, b.state], data);
        a.fed += data[0].len() as u64;
        b.fed += data[1].len() as u64;
    }

    /// The declared content length.
    pub fn declared_len(&self) -> u64 {
        self.len
    }

    /// Bytes fed so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// What [`Digest::of_named_content`] returns for the content fed, or
    /// `None` when its length is not the declared one.
    pub fn finish(self) -> Option<(Digest, u64)> {
        (self.fed == self.len).then_some((Digest(self.state[0]), self.state[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn parts_framing_distinguishes_boundaries() {
        let a = Digest::of_parts([b"ab".as_slice(), b"c".as_slice()]);
        let b = Digest::of_parts([b"a".as_slice(), b"bc".as_slice()]);
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic() {
        assert_eq!(Digest::of_bytes(b"verizon"), Digest::of_bytes(b"verizon"));
        assert_ne!(Digest::of_bytes(b"verizon"), Digest::of_bytes(b"fastly"));
    }

    #[test]
    fn chain_is_order_sensitive() {
        let a = Digest::of_bytes(b"a");
        let b = Digest::of_bytes(b"b");
        assert_ne!(a.chain(b), b.chain(a));
    }

    /// The two-state update is two one-state updates, over any split of
    /// the input into blocks; the named-content pair is `of_parts` plus the
    /// plain digest.
    #[test]
    fn two_state_update_is_two_one_state_updates_over_random_splits() {
        crate::check::run_cases(512, |g| {
            let data: Vec<u8> = (0..g.below(300)).map(|_| g.u32() as u8).collect();
            let start = [g.u64(), g.u64()];
            let (mut pair, mut one, mut two) = (start, start[0], start[1]);
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                let (block, tail) = rest.split_at(g.below(rest.len() + 1));
                pair = fnv1a_64_update2(pair, block);
                one = fnv1a_64_update(one, block);
                two = fnv1a_64_update(two, block);
                rest = tail;
            }
            assert_eq!(pair, [one, two]);

            let name = g.unicode_string(10);
            assert_eq!(
                Digest::of_named_content(name.as_bytes(), &data),
                (Digest::of_parts([name.as_bytes(), &data]), fnv1a_64(&data))
            );
        });
    }

    /// The lockstep kernel is two two-state updates, over any split of the
    /// two slices into blocks of equal length.
    #[test]
    fn lockstep_kernel_is_two_two_state_updates_over_random_splits() {
        crate::check::run_cases(512, |g| {
            let len = g.below(300);
            let x: Vec<u8> = (0..len).map(|_| g.u32() as u8).collect();
            let y: Vec<u8> = (0..len).map(|_| g.u32() as u8).collect();
            let start = [[g.u64(), g.u64()], [g.u64(), g.u64()]];
            let (mut four, mut a, mut b) = (start, start[0], start[1]);
            let mut at = 0;
            while at < len {
                let end = at + g.below(len - at + 1);
                four = fnv1a_64_lockstep(four, [&x[at..end], &y[at..end]]);
                a = fnv1a_64_update2(a, &x[at..end]);
                b = fnv1a_64_update2(b, &y[at..end]);
                at = end;
            }
            assert_eq!(four, [a, b]);
        });
    }

    /// The streamed named digest, fed in random blocks, some of them in
    /// lockstep with a second stream, is `of_parts([name, content])` plus
    /// the plain digest; a length other than the declared one yields none.
    #[test]
    fn streamed_named_digest_is_of_parts_over_random_splits() {
        crate::check::run_cases(512, |g| {
            let name = g.unicode_string(10);
            let data: Vec<u8> = (0..g.below(600)).map(|_| g.u32() as u8).collect();
            let other: Vec<u8> = (0..g.below(600)).map(|_| g.u32() as u8).collect();
            let mut streamed = NamedContent::new(name.as_bytes(), data.len() as u64);
            let mut partner = NamedContent::new(b"partner", other.len() as u64);
            let (mut rest, mut partner_rest) = (data.as_slice(), other.as_slice());
            while !rest.is_empty() {
                let (block, tail) = rest.split_at(g.below(rest.len() + 1));
                if g.bool() && partner_rest.len() >= block.len() {
                    let (paired, partner_tail) = partner_rest.split_at(block.len());
                    NamedContent::update_lockstep([&mut streamed, &mut partner], [block, paired]);
                    partner_rest = partner_tail;
                } else {
                    streamed.update(block);
                }
                rest = tail;
            }
            partner.update(partner_rest);
            assert_eq!(streamed.fed(), data.len() as u64);
            assert_eq!(
                streamed.finish(),
                Some((Digest::of_parts([name.as_bytes(), &data]), fnv1a_64(&data)))
            );
            assert_eq!(
                partner.finish(),
                Some((Digest::of_parts([b"partner", &other[..]]), fnv1a_64(&other)))
            );

            let mut short = NamedContent::new(name.as_bytes(), data.len() as u64 + 1);
            short.update(&data);
            assert_eq!(short.finish(), None);
            if let Some(declared) = (data.len() as u64).checked_sub(1) {
                let mut long = NamedContent::new(name.as_bytes(), declared);
                long.update(&data);
                assert_eq!(long.finish(), None);
            }
        });
    }

    #[test]
    fn display_forms() {
        let d = Digest(0x0E65A4FF00112233);
        assert_eq!(d.short(), "0E:65:A4");
        assert_eq!(d.to_string(), "0E:65:A4:FF:00:11:22:33");
    }
}
