//! Address-span accounting.
//!
//! The paper repeatedly reports "fraction of routed address space" — for IPv4
//! this is counted in /32 addresses and for IPv6 (where raw address counts are
//! meaningless) in routed prefixes or /64 subnets. [`AddressSpan`] accumulates
//! both, de-duplicating overlapping prefixes so that a /16 plus one of its
//! /24s counts the /16 only once.

use std::collections::BTreeSet;

use crate::prefix::Prefix;
use crate::v4::Prefix4;
use crate::v6::Prefix6;

/// Accumulates a set of prefixes and reports the exact number of unique
/// IPv4 addresses and IPv6 /64 subnets they cover.
///
/// Internally keeps a disjoint set of intervals per family, so overlapping or
/// duplicate prefixes never double count.
///
/// ```
/// use p2o_net::AddressSpan;
/// let mut span = AddressSpan::new();
/// span.add(&"10.0.0.0/16".parse().unwrap());
/// span.add(&"10.0.1.0/24".parse().unwrap()); // nested: no extra addresses
/// assert_eq!(span.v4_addresses(), 65536);
/// ```
#[derive(Debug, Default, Clone)]
pub struct AddressSpan {
    // Disjoint, sorted, non-adjacent-merged intervals (first, last).
    v4: BTreeSet<(u32, u32)>,
    v6: BTreeSet<(u128, u128)>,
}

impl AddressSpan {
    /// Creates an empty span.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a prefix of either family.
    pub fn add(&mut self, prefix: &Prefix) {
        match prefix {
            Prefix::V4(p) => self.add_v4(p),
            Prefix::V6(p) => self.add_v6(p),
        }
    }

    /// Adds an IPv4 prefix.
    pub fn add_v4(&mut self, p: &Prefix4) {
        insert_interval(&mut self.v4, p.first_addr(), p.last_addr(), 0u32, u32::MAX);
    }

    /// Adds an IPv6 prefix.
    pub fn add_v6(&mut self, p: &Prefix6) {
        insert_interval(
            &mut self.v6,
            p.first_addr(),
            p.last_addr(),
            0u128,
            u128::MAX,
        );
    }

    /// Number of unique IPv4 addresses covered.
    pub fn v4_addresses(&self) -> u64 {
        self.v4.iter().map(|(a, b)| (*b - *a) as u64 + 1).sum()
    }

    /// Number of unique IPv6 /64 subnets covered (partial /64s round up).
    pub fn v6_slash64(&self) -> u128 {
        self.v6.iter().map(|(a, b)| (b >> 64) - (a >> 64) + 1).sum()
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.v4.is_empty() && self.v6.is_empty()
    }
}

/// Inserts `[first, last]` into a disjoint interval set, merging overlaps and
/// adjacency. `min`/`max` are the domain bounds (used for safe adjacency
/// checks without overflow).
///
/// The intervals are disjoint, so sorting by start also sorts by end: only
/// the last interval starting at or before `first - 1` can reach back over
/// the new one, and the walk starts there instead of at the first interval.
/// An insert therefore costs O(log n) plus the intervals it absorbs.
fn insert_interval<T>(set: &mut BTreeSet<(T, T)>, first: T, last: T, min: T, max: T)
where
    T: Copy + Ord + num_like::NumLike,
{
    let mut new_first = first;
    let mut new_last = last;
    // Candidate overlapping/adjacent intervals: those starting at or before
    // last+1 and ending at or after first-1. Collect then remove.
    let lo_probe = if first == min { min } else { first.dec() };
    let hi_probe = if last == max { max } else { last.inc() };
    let from = set
        .range(..=(lo_probe, max))
        .next_back()
        .copied()
        .unwrap_or((min, min));
    let to_merge: Vec<(T, T)> = set
        .range(from..)
        .copied()
        .skip_while(|(_, b)| *b < lo_probe)
        .take_while(|(a, _)| *a <= hi_probe)
        .collect();
    for iv in &to_merge {
        set.remove(iv);
        if iv.0 < new_first {
            new_first = iv.0;
        }
        if iv.1 > new_last {
            new_last = iv.1;
        }
    }
    set.insert((new_first, new_last));
}

/// Minimal numeric-like trait so the interval merge works for both `u32` and
/// `u128` without pulling in a numerics crate.
mod num_like {
    pub trait NumLike {
        fn inc(self) -> Self;
        fn dec(self) -> Self;
    }
    impl NumLike for u32 {
        fn inc(self) -> Self {
            self + 1
        }
        fn dec(self) -> Self {
            self - 1
        }
    }
    impl NumLike for u128 {
        fn inc(self) -> Self {
            self + 1
        }
        fn dec(self) -> Self {
            self - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_util::check::{run_cases, Gen};
    use std::cell::Cell;
    use std::cmp::Ordering;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn empty_span() {
        let span = AddressSpan::new();
        assert!(span.is_empty());
        assert_eq!(span.v4_addresses(), 0);
        assert_eq!(span.v6_slash64(), 0);
    }

    #[test]
    fn disjoint_prefixes_sum() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.0.0/24"));
        span.add(&p("192.0.2.0/24"));
        assert_eq!(span.v4_addresses(), 512);
    }

    #[test]
    fn nested_prefixes_do_not_double_count() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.0.0/16"));
        span.add(&p("10.0.1.0/24"));
        span.add(&p("10.0.0.0/16"));
        assert_eq!(span.v4_addresses(), 65536);
    }

    #[test]
    fn subnet_added_before_supernet() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.1.0/24"));
        span.add(&p("10.0.0.0/16"));
        assert_eq!(span.v4_addresses(), 65536);
    }

    #[test]
    fn adjacent_prefixes_merge() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.0.0/25"));
        span.add(&p("10.0.0.128/25"));
        assert_eq!(span.v4_addresses(), 256);
        // Internally merged to a single interval: adding the covering /24 is a
        // no-op.
        span.add(&p("10.0.0.0/24"));
        assert_eq!(span.v4_addresses(), 256);
    }

    #[test]
    fn merge_spanning_many_existing_intervals() {
        let mut span = AddressSpan::new();
        for i in 0u32..8 {
            span.add(&Prefix4::new_truncated(i << 9, 24).into()); // every other /24
        }
        assert_eq!(span.v4_addresses(), 8 * 256);
        span.add(&p("0.0.0.0/20")); // covers all 8 and the gaps
        assert_eq!(span.v4_addresses(), 4096);
    }

    #[test]
    fn full_v4_space() {
        let mut span = AddressSpan::new();
        span.add(&p("0.0.0.0/1"));
        span.add(&p("128.0.0.0/1"));
        assert_eq!(span.v4_addresses(), 1u64 << 32);
    }

    #[test]
    fn v6_slash64_accounting() {
        let mut span = AddressSpan::new();
        span.add(&p("2001:db8::/32"));
        assert_eq!(span.v6_slash64(), 1u128 << 32);
        // A nested /48 adds nothing.
        span.add(&p("2001:db8:1::/48"));
        assert_eq!(span.v6_slash64(), 1u128 << 32);
        // A /128 still counts as one /64.
        span.add(&p("2002::1/128"));
        assert_eq!(span.v6_slash64(), (1u128 << 32) + 1);
    }

    #[test]
    fn families_are_independent() {
        let mut span = AddressSpan::new();
        span.add(&p("10.0.0.0/8"));
        span.add(&p("2001:db8::/32"));
        assert_eq!(span.v4_addresses(), 1 << 24);
        assert_eq!(span.v6_slash64(), 1u128 << 32);
    }

    /// The merge before the predecessor start: the overlap walk begins at
    /// the first interval on every insert. Kept as the oracle.
    fn insert_interval_walk<T>(set: &mut BTreeSet<(T, T)>, first: T, last: T, min: T, max: T)
    where
        T: Copy + Ord + num_like::NumLike,
    {
        let mut new_first = first;
        let mut new_last = last;
        let lo_probe = if first == min { min } else { first.dec() };
        let hi_probe = if last == max { max } else { last.inc() };
        let to_merge: Vec<(T, T)> = set
            .iter()
            .copied()
            .skip_while(|(_, b)| *b < lo_probe)
            .take_while(|(a, _)| *a <= hi_probe)
            .collect();
        for iv in &to_merge {
            set.remove(iv);
            if iv.0 < new_first {
                new_first = iv.0;
            }
            if iv.1 > new_last {
                new_last = iv.1;
            }
        }
        set.insert((new_first, new_last));
    }

    /// A random `(bits, len)` list over a `width`-bit family, rich in the
    /// shapes the merge must get right: prefixes at the zero and all-ones
    /// addresses, exact duplicates, subnets and supernets of earlier
    /// prefixes, and the adjacent sibling of an earlier prefix.
    fn gen_prefixes(g: &mut Gen, width: u8) -> Vec<(u128, u8)> {
        let ones = u128::MAX >> (128 - width as u32);
        let host = |len: u8| ones.checked_shr(len as u32).unwrap_or(0);
        // One random region per case, so unrelated prefixes still collide.
        let region = g.u128() & ones & !0xFFFF;
        let mut out: Vec<(u128, u8)> = Vec::new();
        for _ in 0..g.range(1, 48) {
            let fresh_len = if g.chance(0.2) {
                g.range(0, width as usize) as u8
            } else {
                g.range(width as usize - 16, width as usize) as u8
            };
            let prefix = match (out.is_empty(), g.below(8)) {
                (_, 0) => (0, fresh_len),
                (_, 1) => (ones, fresh_len),
                (false, 2) => *g.pick(&out),
                (false, 3) => {
                    let (bits, len) = *g.pick(&out);
                    (bits, g.range(0, len as usize) as u8)
                }
                (false, 4) => {
                    let (bits, len) = *g.pick(&out);
                    (
                        bits | (g.u128() & host(len)),
                        g.range(len as usize, width as usize) as u8,
                    )
                }
                (false, 5) => {
                    let (bits, len) = *g.pick(&out);
                    let first = bits & !host(len);
                    let next = host(len)
                        .checked_add(1)
                        .and_then(|size| first.checked_add(size));
                    match next.filter(|&next| next <= ones) {
                        Some(next) => (next, len),
                        None => (first, len),
                    }
                }
                _ => (region | (g.u128() & 0xFFFF), fresh_len),
            };
            out.push(prefix);
        }
        out
    }

    #[test]
    fn predecessor_merge_matches_the_full_walk_on_random_prefix_sets() {
        run_cases(512, |g| {
            let mut span = AddressSpan::new();
            let mut oracle = BTreeSet::new();
            for (bits, len) in gen_prefixes(g, 32) {
                let p = Prefix4::new_truncated(bits as u32, len);
                span.add_v4(&p);
                insert_interval_walk(&mut oracle, p.first_addr(), p.last_addr(), 0, u32::MAX);
                assert_eq!(span.v4, oracle, "after adding {p}");
            }
        });
        run_cases(512, |g| {
            let mut span = AddressSpan::new();
            let mut oracle = BTreeSet::new();
            for (bits, len) in gen_prefixes(g, 128) {
                let p = Prefix6::new_truncated(bits, len);
                span.add_v6(&p);
                insert_interval_walk(&mut oracle, p.first_addr(), p.last_addr(), 0, u128::MAX);
                assert_eq!(span.v6, oracle, "after adding {p}");
            }
        });
    }

    thread_local! {
        static COMPARISONS: Cell<u64> = const { Cell::new(0) };
    }

    /// A `u32` that counts every ordering comparison made on it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Counted(u32);

    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> Ordering {
            COMPARISONS.with(|c| c.set(c.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl num_like::NumLike for Counted {
        fn inc(self) -> Self {
            Counted(self.0 + 1)
        }
        fn dec(self) -> Self {
            Counted(self.0 - 1)
        }
    }

    /// The work bound, counted rather than timed: inserting n ascending
    /// disjoint intervals costs O(log n) comparisons each. The full walk
    /// from the first interval made about n/2 per insert (10,033 here).
    #[test]
    fn ascending_inserts_make_logarithmic_comparisons() {
        const N: u32 = 20_000;
        let mut set = BTreeSet::new();
        COMPARISONS.with(|c| c.set(0));
        for i in 0..N {
            // Gaps of one keep neighbours from merging.
            let (first, last) = (Counted(3 * i), Counted(3 * i + 1));
            insert_interval(&mut set, first, last, Counted(0), Counted(u32::MAX));
        }
        let per_insert = COMPARISONS.with(Cell::get) / N as u64;
        assert_eq!(set.len(), N as usize);
        assert!(per_insert < 500, "{per_insert} comparisons per insert");
    }
}
