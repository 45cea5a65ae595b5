//! Frozen, flattened longest-prefix-match structures.
//!
//! [`RadixTree`](crate::RadixTree) is the right shape for *building* — it
//! takes inserts and removals in any order — but its nodes live behind a
//! `Vec` arena and every lookup hops node-to-node, one branch bit at a
//! time. A built dataset never changes, so the serving path can trade all
//! of that for a flat, sorted, cache-friendly form:
//!
//! The address line `0 .. MAX` is cut into **disjoint half-open spans** at
//! every point where the most specific stored prefix changes. Each span
//! records which stored entry (if any) is the innermost prefix covering
//! every address in the span. A lookup is then one binary search over the
//! sorted span starts, plus a short climb up stored `parents` links when
//! the query is *shorter* than the innermost covering entry.
//!
//! There is one search, [`LpmView4::lookup_many`]: it searches up to
//! [`LPM_LANES`] queries in lockstep, probing every lane's span start at
//! each level before the next, so on a table larger than the cache their
//! misses overlap instead of queuing. [`LpmView4::lookup`] is its
//! one-query case.
//!
//! Why this beats a frozen level-compressed trie here: the span table is a
//! single contiguous array scanned with `log2(spans)` well-predicted
//! probes, while a trie — even level-compressed — still chases child
//! pointers with data-dependent loads. Measured numbers live in
//! DESIGN.md §4h and `BENCH_pipeline.json`'s `lookup` group.
//!
//! Correctness sketch (canonical CIDR prefixes cannot partially overlap):
//! the stored prefixes covering an address `a` always form a chain — they
//! are exactly the entries "open" at `a` during a left-to-right sweep in
//! `(address, length)` order. The freeze records, per span, the innermost
//! open entry, and per entry, its innermost strict ancestor. A stored
//! prefix `p` contains a query `q` iff `p` contains `q`'s first address
//! and `p.len() <= q.len()`, so the longest match for `q` is the first
//! entry on the span's chain whose length does not exceed `q.len()` —
//! which is what [`LpmView4::lookup`] returns.
//!
//! The serialized form is a self-contained little-endian blob per family;
//! see [`freeze_v4`] for the layout. Everything is bounds- and
//! invariant-checked at [`LpmView4::parse`] time so `fsck` can audit a
//! frozen artifact without trusting it.

use p2o_net::{Prefix4, Prefix6};

/// Sentinel for "no entry": an absent parent or an uncovered span.
pub const LPM_NONE: u32 = u32::MAX;

/// Blob header length: entry count + span count.
const HEADER: usize = 8;

/// The most queries one lockstep pass of [`LpmView4::lookup_many`]
/// searches together; longer inputs run in passes of this many.
pub const LPM_LANES: usize = 16;

#[inline]
fn u32_at(bytes: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(
        bytes.get(off..off + 4)?.try_into().ok()?,
    ))
}

#[inline]
fn u128_at(bytes: &[u8], off: usize) -> Option<u128> {
    Some(u128::from_le_bytes(
        bytes.get(off..off + 16)?.try_into().ok()?,
    ))
}

macro_rules! lpm_family {
    ($freeze:ident, $view:ident, $prefix:ty, $addr:ty, $addr_bytes:expr, $read_addr:ident,
     $doc_family:literal) => {
        /// Flattens `(prefix, value)` entries of the
        #[doc = $doc_family]
        /// family into the frozen span-table blob.
        ///
        /// Duplicate prefixes keep the **last** value, matching
        /// [`RadixTree::insert`](crate::RadixTree::insert) replace
        /// semantics. Layout (little-endian throughout):
        ///
        /// ```text
        /// entry_count: u32 | span_count: u32
        /// key_bits:    entry_count × address bytes   (sorted (bits, len))
        /// key_lens:    entry_count × u8
        /// parents:     entry_count × u32             (LPM_NONE = root)
        /// values:      entry_count × u32
        /// span_starts: span_count × address bytes    (strictly increasing, first = 0)
        /// span_entry:  span_count × u32              (LPM_NONE = uncovered)
        /// ```
        pub fn $freeze(entries: &[($prefix, u32)]) -> Vec<u8> {
            // Sort by (bits, len); stable, then keep the last of each
            // duplicate run (replace-on-reinsert semantics).
            let mut sorted: Vec<($prefix, u32)> = entries.to_vec();
            sorted.sort_by_key(|(p, _)| *p);
            let mut deduped: Vec<($prefix, u32)> = Vec::with_capacity(sorted.len());
            for (p, v) in sorted {
                match deduped.last_mut() {
                    Some(last) if last.0 == p => last.1 = v,
                    _ => deduped.push((p, v)),
                }
            }

            // Sweep the address line; the stack holds the open (covering)
            // entries, outermost first.
            let mut parents: Vec<u32> = vec![LPM_NONE; deduped.len()];
            let mut spans: Vec<($addr, u32)> = vec![(0, LPM_NONE)];
            let push_span = |spans: &mut Vec<($addr, u32)>, addr: $addr, entry: u32| {
                let last = spans.last_mut().expect("spans start non-empty");
                if last.0 == addr {
                    last.1 = entry;
                } else {
                    debug_assert!(last.0 < addr, "span starts must increase");
                    spans.push((addr, entry));
                }
            };
            let mut stack: Vec<usize> = Vec::new();
            for (i, (p, _)) in deduped.iter().enumerate() {
                // Close every open entry that ends before this one starts.
                while let Some(&top) = stack.last() {
                    let top_last = deduped[top].0.last_addr();
                    if top_last >= p.first_addr() {
                        break;
                    }
                    stack.pop();
                    let outer = stack.last().map(|&o| o as u32).unwrap_or(LPM_NONE);
                    // `top_last < p.first_addr() <= MAX`, so +1 cannot wrap.
                    push_span(&mut spans, top_last + 1, outer);
                }
                parents[i] = stack.last().map(|&o| o as u32).unwrap_or(LPM_NONE);
                push_span(&mut spans, p.first_addr(), i as u32);
                stack.push(i);
            }
            while let Some(top) = stack.pop() {
                let top_last = deduped[top].0.last_addr();
                if top_last < <$addr>::MAX {
                    let outer = stack.last().map(|&o| o as u32).unwrap_or(LPM_NONE);
                    push_span(&mut spans, top_last + 1, outer);
                }
            }

            // Serialize.
            assert!(
                deduped.len() < LPM_NONE as usize,
                "entry count overflows u32"
            );
            let mut out = Vec::with_capacity(
                HEADER + deduped.len() * ($addr_bytes + 9) + spans.len() * ($addr_bytes + 4),
            );
            out.extend_from_slice(&(deduped.len() as u32).to_le_bytes());
            out.extend_from_slice(&(spans.len() as u32).to_le_bytes());
            for (p, _) in &deduped {
                out.extend_from_slice(&p.bits().to_le_bytes());
            }
            for (p, _) in &deduped {
                out.push(p.len());
            }
            for parent in &parents {
                out.extend_from_slice(&parent.to_le_bytes());
            }
            for (_, v) in &deduped {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for (start, _) in &spans {
                out.extend_from_slice(&start.to_le_bytes());
            }
            for (_, entry) in &spans {
                out.extend_from_slice(&entry.to_le_bytes());
            }
            out
        }

        /// A zero-copy lookup view over a frozen
        #[doc = $doc_family]
        /// LPM blob.
        #[derive(Debug, Clone, Copy)]
        pub struct $view<'a> {
            bytes: &'a [u8],
            entries: usize,
            spans: usize,
        }

        impl<'a> $view<'a> {
            const BITS_OFF: usize = HEADER;

            #[inline]
            fn lens_off(&self) -> usize {
                Self::BITS_OFF + self.entries * $addr_bytes
            }

            #[inline]
            fn parents_off(&self) -> usize {
                self.lens_off() + self.entries
            }

            #[inline]
            fn values_off(&self) -> usize {
                self.parents_off() + self.entries * 4
            }

            #[inline]
            fn span_starts_off(&self) -> usize {
                self.values_off() + self.entries * 4
            }

            #[inline]
            fn span_entries_off(&self) -> usize {
                self.span_starts_off() + self.spans * $addr_bytes
            }

            /// Attaches a view to an **already-validated** blob: header and
            /// exact-length checks only, O(1). Every accessor stays
            /// memory-safe on arbitrary bytes, but lookups over a blob that
            /// never passed [`parse`](Self::parse) may panic or return
            /// nonsense — use `parse` for untrusted input and `attach` to
            /// cheaply re-enter bytes a prior `parse` (e.g. at `fsck` or
            /// load time) has vouched for.
            pub fn attach(bytes: &'a [u8]) -> Result<$view<'a>, String> {
                let entries = u32_at(bytes, 0)
                    .ok_or_else(|| "LPM blob truncated before header".to_string())?
                    as usize;
                let spans = u32_at(bytes, 4)
                    .ok_or_else(|| "LPM blob truncated before header".to_string())?
                    as usize;
                let view = $view {
                    bytes,
                    entries,
                    spans,
                };
                let want = view.span_entries_off() + spans * 4;
                if bytes.len() != want {
                    return Err(format!(
                        "LPM blob length {} disagrees with counts ({} entries, {} spans => {want})",
                        bytes.len(),
                        entries,
                        spans
                    ));
                }
                if entries > 0 && entries as u32 == LPM_NONE {
                    return Err("entry count collides with the NONE sentinel".into());
                }
                if entries > 0 && spans == 0 {
                    return Err("non-empty entry set with no spans".into());
                }
                Ok(view)
            }

            /// The `(entry_count, span_count)` pair of this view, for
            /// handing back to [`from_parts`](Self::from_parts).
            pub fn parts(&self) -> (usize, usize) {
                (self.entries, self.spans)
            }

            /// Rebuilds a view from counts a prior [`attach`](Self::attach)
            /// or [`parse`](Self::parse) over the **same bytes** returned —
            /// the zero-cost re-entry for hot paths that attach once per
            /// lookup. Memory-safe on any input (every accessor stays
            /// bounds-checked) but skips even the O(1) header checks, so
            /// pairing it with bytes that never passed `attach` yields
            /// panics or nonsense, not UB.
            #[inline]
            pub fn from_parts(bytes: &'a [u8], entries: usize, spans: usize) -> $view<'a> {
                let view = $view {
                    bytes,
                    entries,
                    spans,
                };
                debug_assert_eq!(bytes.len(), view.span_entries_off() + spans * 4);
                view
            }

            /// Parses and fully validates a frozen blob: exact length,
            /// canonical sorted keys, parent links that are true strict
            /// ancestors, and strictly increasing spans starting at 0
            /// with in-range entry ids.
            pub fn parse(bytes: &'a [u8]) -> Result<$view<'a>, String> {
                let view = Self::attach(bytes)?;
                let entries = view.entries;
                let spans = view.spans;
                let mut prev: Option<$prefix> = None;
                for i in 0..entries {
                    let key = view
                        .key(i as u32)
                        .ok_or_else(|| format!("entry {i}: non-canonical or overlong key"))?;
                    if let Some(p) = prev {
                        if key <= p {
                            return Err(format!("entry {i}: keys not strictly sorted"));
                        }
                    }
                    prev = Some(key);
                    let parent = view.parent(i as u32);
                    if parent != LPM_NONE {
                        if parent as usize >= entries {
                            return Err(format!("entry {i}: parent {parent} out of range"));
                        }
                        let pkey = view.key(parent).expect("parent key validated in its turn");
                        if !(pkey.contains(&key) && pkey.len() < key.len()) {
                            return Err(format!(
                                "entry {i}: parent {parent} is not a strict ancestor"
                            ));
                        }
                    }
                }
                let mut prev_start: Option<$addr> = None;
                for s in 0..spans {
                    let start = view.span_start(s);
                    match prev_start {
                        None if start != 0 => {
                            return Err("first span must start at address 0".into())
                        }
                        Some(p) if start <= p => {
                            return Err(format!("span {s}: starts not strictly increasing"));
                        }
                        _ => {}
                    }
                    prev_start = Some(start);
                    let entry = view.span_entry(s);
                    if entry != LPM_NONE && entry as usize >= entries {
                        return Err(format!("span {s}: entry {entry} out of range"));
                    }
                }
                Ok(view)
            }

            /// Number of stored prefixes.
            pub fn len(&self) -> usize {
                self.entries
            }

            /// Whether no prefixes are stored.
            pub fn is_empty(&self) -> bool {
                self.entries == 0
            }

            /// Number of address spans.
            pub fn span_count(&self) -> usize {
                self.spans
            }

            /// The stored key of entry `i`, if canonical and in range.
            pub fn key(&self, i: u32) -> Option<$prefix> {
                if i as usize >= self.entries {
                    return None;
                }
                let bits = $read_addr(self.bytes, Self::BITS_OFF + i as usize * $addr_bytes)
                    .expect("entry range validated");
                let len = self.bytes[self.lens_off() + i as usize];
                <$prefix>::new(bits, len).ok()
            }

            #[inline]
            fn key_len(&self, i: u32) -> u8 {
                self.bytes[self.lens_off() + i as usize]
            }

            #[inline]
            fn parent(&self, i: u32) -> u32 {
                u32_at(self.bytes, self.parents_off() + i as usize * 4)
                    .expect("entry range validated")
            }

            /// The stored value of entry `i`.
            #[inline]
            pub fn value(&self, i: u32) -> u32 {
                u32_at(self.bytes, self.values_off() + i as usize * 4)
                    .expect("entry range validated")
            }

            #[inline]
            fn span_start(&self, s: usize) -> $addr {
                $read_addr(self.bytes, self.span_starts_off() + s * $addr_bytes)
                    .expect("span range validated")
            }

            #[inline]
            fn span_entry(&self, s: usize) -> u32 {
                u32_at(self.bytes, self.span_entries_off() + s * 4).expect("span range validated")
            }

            /// The most specific stored prefix equal to or covering `q`,
            /// with its value — the frozen counterpart of
            /// [`RadixTree::longest_match`](crate::RadixTree::longest_match):
            /// the one-query case of [`lookup_many`](Self::lookup_many).
            pub fn lookup(&self, q: &$prefix) -> Option<($prefix, u32)> {
                let [hit] = self.search([q]);
                hit
            }

            /// [`lookup`](Self::lookup) for every query of `queries`, into
            /// the same position of `out`.
            ///
            /// The queries are searched [`LPM_LANES`] at a time, in
            /// lockstep: each level of the binary search over the span
            /// starts probes every lane before the next level, so the
            /// lanes' loads do not wait on one another. Then each lane
            /// climbs its entry chain.
            ///
            /// # Panics
            ///
            /// If `out` is not as long as `queries`.
            pub fn lookup_many(&self, queries: &[$prefix], out: &mut [Option<($prefix, u32)>]) {
                assert_eq!(queries.len(), out.len(), "one answer slot per query");
                for (queries, out) in queries.chunks(LPM_LANES).zip(out.chunks_mut(LPM_LANES)) {
                    match queries.len() {
                        1 => self.search_into::<1>(queries, out),
                        2 => self.search_into::<2>(queries, out),
                        3..=4 => self.search_into::<4>(queries, out),
                        5..=8 => self.search_into::<8>(queries, out),
                        _ => self.search_into::<LPM_LANES>(queries, out),
                    }
                }
            }

            /// Searches up to `N` queries in `N` lanes: a short pass repeats
            /// its last query in the spare lanes, whose probes then hit the
            /// lines it loads.
            fn search_into<const N: usize>(
                &self,
                queries: &[$prefix],
                out: &mut [Option<($prefix, u32)>],
            ) {
                let last = queries.len() - 1;
                let hits = self.search::<N>(std::array::from_fn(|lane| &queries[lane.min(last)]));
                out.copy_from_slice(&hits[..out.len()]);
            }

            /// The one search behind [`lookup`](Self::lookup) (one lane)
            /// and [`lookup_many`](Self::lookup_many) (up to `LPM_LANES`): per
            /// lane, a branch-free binary search for the rightmost span
            /// whose start is at most the query's first address, every
            /// level probing all lanes, then the climb up its entry chain.
            #[inline(always)]
            fn search<const N: usize>(
                &self,
                queries: [&$prefix; N],
            ) -> [Option<($prefix, u32)>; N] {
                // The starts array is re-sliced as fixed-width chunks once:
                // const-size chunks give each probe one cheap bounds check.
                let so = self.span_starts_off();
                let starts = &self.bytes[so..so + self.spans * $addr_bytes];
                let (starts, rest) = starts.as_chunks::<$addr_bytes>();
                debug_assert!(rest.is_empty(), "starts slice is chunk-aligned");
                if starts.is_empty() {
                    return [None; N];
                }
                let start = |s: usize| <$addr>::from_le_bytes(starts[s]);
                let addrs = queries.map(|q| q.first_addr());
                // Each lane's span lies in [base, base + size); each level
                // halves every lane's window.
                let mut base = [0usize; N];
                let mut size = starts.len();
                while size > 1 {
                    let half = size / 2;
                    for (b, &addr) in base.iter_mut().zip(&addrs) {
                        let mid = *b + half;
                        *b = std::hint::select_unpredictable(start(mid) <= addr, mid, *b);
                    }
                    size -= half;
                }
                std::array::from_fn(|lane| {
                    let (b, addr) = (base[lane], addrs[lane]);
                    // The first span starts at 0 <= addr on any parsed
                    // blob; the check keeps attach-only blobs panic-free.
                    if start(b) <= addr {
                        self.climb(self.span_entry(b), queries[lane].len())
                    } else {
                        None
                    }
                })
            }

            /// Climbs from entry `e`, the innermost one covering a query's
            /// first address, to the first one at least as short as the
            /// query: every link on the chain covers that address, so
            /// covering + len <= the query's ⇒ contains the query.
            #[inline]
            fn climb(&self, mut e: u32, len: u8) -> Option<($prefix, u32)> {
                while e != LPM_NONE && self.key_len(e) > len {
                    e = self.parent(e);
                }
                if e == LPM_NONE {
                    None
                } else {
                    Some((self.key(e).expect("validated at parse"), self.value(e)))
                }
            }
        }
    };
}

lpm_family!(freeze_v4, LpmView4, Prefix4, u32, 4, u32_at, "IPv4");
lpm_family!(freeze_v6, LpmView6, Prefix6, u128, 16, u128_at, "IPv6");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RadixTree;

    fn p4(s: &str) -> Prefix4 {
        s.parse().unwrap()
    }

    fn frozen(entries: &[(Prefix4, u32)]) -> Vec<u8> {
        freeze_v4(entries)
    }

    #[test]
    fn empty_set() {
        let blob = frozen(&[]);
        let v = LpmView4::parse(&blob).unwrap();
        assert!(v.is_empty());
        assert_eq!(v.lookup(&p4("10.0.0.0/8")), None);
    }

    #[test]
    fn nested_and_adjacent() {
        let entries = [
            (p4("10.0.0.0/8"), 0),
            (p4("10.0.0.0/16"), 1),
            (p4("10.0.1.0/24"), 2),
            (p4("10.1.0.0/16"), 3),
            (p4("11.0.0.0/8"), 4),
        ];
        let blob = frozen(&entries);
        let v = LpmView4::parse(&blob).unwrap();
        assert_eq!(v.len(), 5);
        assert_eq!(v.lookup(&p4("10.0.1.0/24")), Some((p4("10.0.1.0/24"), 2)));
        assert_eq!(v.lookup(&p4("10.0.1.128/25")), Some((p4("10.0.1.0/24"), 2)));
        assert_eq!(v.lookup(&p4("10.0.2.0/24")), Some((p4("10.0.0.0/16"), 1)));
        assert_eq!(v.lookup(&p4("10.2.0.0/16")), Some((p4("10.0.0.0/8"), 0)));
        // Shorter query than the innermost covering entry: climb.
        assert_eq!(v.lookup(&p4("10.0.0.0/12")), Some((p4("10.0.0.0/8"), 0)));
        assert_eq!(v.lookup(&p4("11.5.0.0/16")), Some((p4("11.0.0.0/8"), 4)));
        assert_eq!(v.lookup(&p4("12.0.0.0/8")), None);
        assert_eq!(v.lookup(&p4("0.0.0.0/0")), None);
    }

    #[test]
    fn default_route_and_full_width() {
        let entries = [
            (p4("0.0.0.0/0"), 0),
            (p4("255.255.255.255/32"), 1),
            (p4("0.0.0.0/32"), 2),
        ];
        let blob = frozen(&entries);
        let v = LpmView4::parse(&blob).unwrap();
        assert_eq!(v.lookup(&p4("0.0.0.0/32")), Some((p4("0.0.0.0/32"), 2)));
        assert_eq!(
            v.lookup(&p4("255.255.255.255/32")),
            Some((p4("255.255.255.255/32"), 1))
        );
        assert_eq!(v.lookup(&p4("128.0.0.0/1")), Some((p4("0.0.0.0/0"), 0)));
        assert_eq!(v.lookup(&p4("0.0.0.0/0")), Some((p4("0.0.0.0/0"), 0)));
    }

    #[test]
    fn duplicates_keep_last_value_like_tree_insert() {
        let entries = [(p4("10.0.0.0/8"), 7), (p4("10.0.0.0/8"), 9)];
        let blob = frozen(&entries);
        let v = LpmView4::parse(&blob).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.lookup(&p4("10.1.0.0/16")), Some((p4("10.0.0.0/8"), 9)));
    }

    #[test]
    fn agrees_with_radix_tree_on_fixed_corpus() {
        let entries: Vec<(Prefix4, u32)> = [
            "0.0.0.0/5",
            "8.0.0.0/7",
            "10.0.0.0/8",
            "10.0.0.0/9",
            "10.128.0.0/9",
            "10.64.0.0/10",
            "10.64.32.0/19",
            "172.16.0.0/12",
            "192.168.0.0/16",
            "192.168.1.0/24",
            "192.168.1.128/25",
        ]
        .iter()
        .enumerate()
        .map(|(i, s)| (p4(s), i as u32))
        .collect();
        let tree: RadixTree<Prefix4, u32> = entries.iter().copied().collect();
        let blob = frozen(&entries);
        let v = LpmView4::parse(&blob).unwrap();
        for q in [
            "10.64.32.5/32",
            "10.64.0.0/10",
            "10.0.0.0/9",
            "10.200.0.0/16",
            "192.168.1.200/31",
            "192.168.2.0/24",
            "8.8.8.8/32",
            "9.255.255.255/32",
            "4.0.0.0/6",
            "1.1.1.1/32",
            "200.0.0.0/8",
        ] {
            let q = p4(q);
            assert_eq!(
                v.lookup(&q),
                tree.longest_match(&q).map(|(k, val)| (k, *val)),
                "query {q}"
            );
        }
    }

    #[test]
    fn v6_basics() {
        let p = |s: &str| s.parse::<Prefix6>().unwrap();
        let entries = [
            (p("2001:db8::/32"), 0),
            (p("2001:db8:1::/48"), 1),
            (p("::/0"), 2),
        ];
        let blob = freeze_v6(&entries);
        let v = LpmView6::parse(&blob).unwrap();
        assert_eq!(
            v.lookup(&p("2001:db8:1:2::/64")),
            Some((p("2001:db8:1::/48"), 1))
        );
        assert_eq!(
            v.lookup(&p("2001:db8:2::/48")),
            Some((p("2001:db8::/32"), 0))
        );
        assert_eq!(v.lookup(&p("2600::/16")), Some((p("::/0"), 2)));
        assert_eq!(v.lookup(&p("::/0")), Some((p("::/0"), 2)));
    }

    #[test]
    fn parse_rejects_damage() {
        let entries = [(p4("10.0.0.0/8"), 0), (p4("10.0.0.0/16"), 1)];
        let blob = frozen(&entries);
        assert!(LpmView4::parse(&blob).is_ok());

        // Truncation.
        let err = LpmView4::parse(&blob[..blob.len() - 1]).unwrap_err();
        assert!(err.contains("disagrees with counts"), "{err}");
        let err = LpmView4::parse(&blob[..3]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // Non-canonical key: set a host bit (LSB) in entry 0's /8 bits.
        let mut bad = blob.clone();
        bad[HEADER] |= 0x01;
        let err = LpmView4::parse(&bad).unwrap_err();
        assert!(err.contains("non-canonical"), "{err}");

        // Overlong prefix length.
        let mut bad = blob.clone();
        bad[HEADER + 2 * 4] = 33;
        let err = LpmView4::parse(&bad).unwrap_err();
        assert!(err.contains("non-canonical or overlong"), "{err}");

        // Broken sort order: swap the two keys' lengths.
        let mut bad = blob.clone();
        bad[HEADER + 2 * 4] = 16;
        bad[HEADER + 2 * 4 + 1] = 8;
        let err = LpmView4::parse(&bad).unwrap_err();
        assert!(err.contains("sorted") || err.contains("ancestor"), "{err}");

        // Parent out of range.
        let mut bad = blob.clone();
        let parents_off = HEADER + 2 * 4 + 2;
        bad[parents_off + 4..parents_off + 8].copy_from_slice(&7u32.to_le_bytes());
        let err = LpmView4::parse(&bad).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}
