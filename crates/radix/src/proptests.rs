//! Property-based tests: the radix tree must agree with a naive model on
//! every operation.

use p2o_util::check::{run_cases, Gen};

use p2o_net::Prefix4;

use crate::tree::RadixTree;

/// A constrained universe (top bits in `0..64`, lengths 8..=24) so
/// collisions/nesting actually happen.
fn gen_prefix(g: &mut Gen) -> Prefix4 {
    Prefix4::new_truncated((g.below(64) as u32) << 24, g.range(8, 24) as u8)
}

/// The full 32-bit universe.
fn gen_dense_prefix(g: &mut Gen) -> Prefix4 {
    Prefix4::new_truncated(g.u32(), g.range(0, 32) as u8)
}

/// Naive reference: a vector of (prefix, value) pairs.
#[derive(Default)]
struct Model {
    entries: Vec<(Prefix4, u32)>,
}

impl Model {
    fn insert(&mut self, p: Prefix4, v: u32) -> Option<u32> {
        for e in self.entries.iter_mut() {
            if e.0 == p {
                return Some(std::mem::replace(&mut e.1, v));
            }
        }
        self.entries.push((p, v));
        None
    }

    fn remove(&mut self, p: &Prefix4) -> Option<u32> {
        let idx = self.entries.iter().position(|e| e.0 == *p)?;
        Some(self.entries.swap_remove(idx).1)
    }

    fn get(&self, p: &Prefix4) -> Option<u32> {
        self.entries.iter().find(|e| e.0 == *p).map(|e| e.1)
    }

    fn covering(&self, p: &Prefix4) -> Vec<(Prefix4, u32)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .filter(|e| e.0.contains(p))
            .copied()
            .collect();
        // Most specific first.
        v.sort_by_key(|e| core::cmp::Reverse(e.0.len()));
        v
    }

    fn subtree(&self, p: &Prefix4) -> Vec<(Prefix4, u32)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .filter(|e| p.contains(&e.0))
            .copied()
            .collect();
        v.sort();
        v
    }
}

/// Random operation sequences: tree and naive model agree on every
/// observable result.
#[test]
fn tree_matches_model() {
    run_cases(128, |g| {
        let mut tree: RadixTree<Prefix4, u32> = RadixTree::new();
        let mut model = Model::default();
        for _ in 0..g.range(1, 199) {
            let p = gen_prefix(g);
            match g.below(6) {
                0 => {
                    let v = g.u32();
                    assert_eq!(tree.insert(p, v), model.insert(p, v));
                }
                1 => {
                    assert_eq!(tree.remove(&p), model.remove(&p));
                }
                2 => {
                    assert_eq!(tree.get(&p).copied(), model.get(&p));
                }
                3 => {
                    let got = tree.longest_match(&p).map(|(k, v)| (k, *v));
                    let want = model.covering(&p).first().copied();
                    assert_eq!(got, want);
                }
                4 => {
                    let got: Vec<_> = tree.covering(&p).map(|(k, v)| (k, *v)).collect();
                    assert_eq!(got, model.covering(&p));
                }
                _ => {
                    let got: Vec<_> = tree.subtree(&p).map(|(k, v)| (k, *v)).collect();
                    assert_eq!(got, model.subtree(&p));
                }
            }
            assert_eq!(tree.len(), model.entries.len());
        }
    });
}

/// Iteration yields exactly the stored set, sorted, for arbitrary dense
/// prefixes (full 32-bit universe).
#[test]
fn iteration_sorted_and_complete() {
    run_cases(128, |g| {
        let prefixes: std::collections::BTreeSet<Prefix4> =
            (0..g.below(100)).map(|_| gen_dense_prefix(g)).collect();
        let tree: RadixTree<Prefix4, u32> = prefixes.iter().map(|p| (*p, 0u32)).collect();
        let keys: Vec<_> = tree.keys().collect();
        let want: Vec<_> = prefixes.into_iter().collect(); // BTreeSet is sorted
        assert_eq!(keys, want);
    });
}

/// The covering chain is always sorted most-specific-first and every
/// element contains the query.
#[test]
fn covering_chain_invariants() {
    run_cases(128, |g| {
        let prefixes: Vec<Prefix4> = (0..g.below(100)).map(|_| gen_dense_prefix(g)).collect();
        let query = gen_dense_prefix(g);
        let tree: RadixTree<Prefix4, u32> = prefixes.into_iter().map(|p| (p, 0u32)).collect();
        let chain: Vec<_> = tree.covering(&query).map(|(k, _)| k).collect();
        for w in chain.windows(2) {
            assert!(w[0].len() > w[1].len());
            assert!(w[1].contains(&w[0]));
        }
        for k in &chain {
            assert!(k.contains(&query));
        }
    });
}

/// Longest-prefix match against a naive linear scan over random prefix
/// sets — the routing-table query the whole pipeline leans on, checked on
/// both the clustered and the dense universe.
#[test]
fn longest_match_agrees_with_linear_scan_v4() {
    run_cases(256, |g| {
        let dense = g.bool();
        let draw = |g: &mut Gen| {
            if dense {
                gen_dense_prefix(g)
            } else {
                gen_prefix(g)
            }
        };
        let prefixes: Vec<Prefix4> = (0..g.range(1, 80)).map(|_| draw(g)).collect();
        let tree: RadixTree<Prefix4, usize> =
            prefixes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        for _ in 0..32 {
            let query = draw(g);
            let got = tree.longest_match(&query).map(|(k, _)| k);
            // Naive scan: the longest stored prefix containing the query.
            let want = prefixes
                .iter()
                .filter(|p| p.contains(&query))
                .max_by_key(|p| p.len())
                .copied();
            assert_eq!(got, want, "query {query}");
        }
    });
}

/// Freeze→thaw→lookup: the flattened span-table LPM must agree with the
/// live radix tree on arbitrary prefix sets and arbitrary queries, both
/// clustered (nesting-heavy) and dense universes.
#[test]
fn frozen_lpm_agrees_with_tree_v4() {
    use crate::freeze::{freeze_v4, LpmView4};
    run_cases(256, |g| {
        let dense = g.bool();
        let draw = |g: &mut Gen| {
            if dense {
                gen_dense_prefix(g)
            } else {
                gen_prefix(g)
            }
        };
        // Include duplicates on purpose: freeze must keep the last value
        // exactly like repeated tree inserts do.
        let entries: Vec<(Prefix4, u32)> =
            (0..g.range(0, 120)).map(|i| (draw(g), i as u32)).collect();
        let tree: RadixTree<Prefix4, u32> = entries.iter().copied().collect();
        let blob = freeze_v4(&entries);
        let view = LpmView4::parse(&blob).expect("freshly frozen blob validates");
        assert_eq!(view.len(), tree.len());
        for _ in 0..48 {
            let q = draw(g);
            assert_eq!(
                view.lookup(&q),
                tree.longest_match(&q).map(|(k, v)| (k, *v)),
                "query {q}"
            );
        }
        // Every stored key is its own longest match.
        for (k, v) in tree.iter() {
            assert_eq!(view.lookup(&k), Some((k, *v)));
        }
    });
}

/// A frozen table for the `lookup_many` properties: empty (one uncovered
/// span), the default route alone (one covered span), or random entries
/// around a nested chain on `chain`'s address, whose shorter queries climb
/// to a parent.
fn lanes_table<P: Copy>(
    g: &mut Gen,
    chain: P,
    nest: impl Fn(P, u8) -> P,
    max_len: usize,
    draw: impl Fn(&mut Gen) -> P,
) -> Vec<(P, u32)> {
    match g.below(4) {
        0 => Vec::new(),
        1 => vec![(nest(chain, 0), 0)],
        _ => {
            let mut prefixes: Vec<P> = Vec::new();
            for _ in 0..g.range(2, 6) {
                prefixes.push(nest(chain, g.range(1, max_len) as u8));
            }
            for _ in 0..g.range(0, 100) {
                prefixes.push(draw(g));
            }
            prefixes.into_iter().zip(0..).collect()
        }
    }
}

/// `lookup_many` answers every lane as `lookup` answers that query alone,
/// and as the live tree does, for every group size from 0 to
/// [`LPM_LANES`](crate::LPM_LANES) and for a run of several passes: over
/// empty and one-span tables, nested chains, and exact, shorter (climbing),
/// host and uncovered queries.
#[test]
fn lookup_many_matches_lookup_lane_by_lane_v4() {
    use crate::freeze::{freeze_v4, LpmView4, LPM_LANES};
    run_cases(192, |g| {
        let chain = Prefix4::new_truncated(g.u32(), 32);
        let nest = |p: Prefix4, len: u8| Prefix4::new_truncated(p.bits(), len);
        let entries = lanes_table(g, chain, nest, 32, gen_prefix);
        let tree: RadixTree<Prefix4, u32> = entries.iter().copied().collect();
        let blob = freeze_v4(&entries);
        let view = LpmView4::parse(&blob).expect("freshly frozen blob validates");
        let queries: Vec<Prefix4> = (0..3 * LPM_LANES)
            .map(|_| match g.below(5) {
                0 => nest(chain, g.range(0, 32) as u8),
                1 if !entries.is_empty() => g.pick(&entries).0,
                2 if !entries.is_empty() => {
                    let e = g.pick(&entries).0;
                    let low = g.u32().checked_shr(e.len() as u32).unwrap_or(0);
                    Prefix4::new_truncated(e.bits() | low, 32)
                }
                2 => Prefix4::new_truncated(g.u32(), 32),
                3 => gen_prefix(g),
                _ => gen_dense_prefix(g),
            })
            .collect();
        let mut out = vec![Some((chain, u32::MAX)); queries.len()];
        for n in (0..=LPM_LANES).chain([queries.len()]) {
            view.lookup_many(&queries[..n], &mut out[..n]);
            for (q, got) in queries[..n].iter().zip(&out[..n]) {
                assert_eq!(*got, view.lookup(q), "query {q} in a group of {n}");
                assert_eq!(
                    *got,
                    tree.longest_match(q).map(|(k, v)| (k, *v)),
                    "query {q}"
                );
            }
        }
    });
}

/// The same model-equivalence properties for IPv6 keys (128-bit paths
/// exercise different glue-node geometry than 32-bit ones).
mod v6 {
    use super::*;
    use p2o_net::Prefix6;

    /// A constrained universe under 2001:db8::/28 so nesting happens.
    fn gen_prefix6(g: &mut Gen) -> Prefix6 {
        Prefix6::new_truncated(
            (0x2001_0db8u128 << 96) | ((g.below(64) as u128) << 60),
            g.range(32, 64) as u8,
        )
    }

    /// The full 128-bit universe.
    fn gen_dense_prefix6(g: &mut Gen) -> Prefix6 {
        Prefix6::new_truncated(g.u128(), g.range(0, 128) as u8)
    }

    #[test]
    fn v6_tree_matches_naive_filter() {
        run_cases(128, |g| {
            let prefixes: Vec<Prefix6> = (0..g.below(60)).map(|_| gen_prefix6(g)).collect();
            let query = gen_prefix6(g);
            let tree: RadixTree<Prefix6, usize> =
                prefixes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
            // Deduplicate like the tree does (later value wins).
            let mut entries: Vec<(Prefix6, usize)> = Vec::new();
            for (i, p) in prefixes.iter().enumerate() {
                if let Some(e) = entries.iter_mut().find(|e| e.0 == *p) {
                    e.1 = i;
                } else {
                    entries.push((*p, i));
                }
            }
            // Covering chain.
            let got: Vec<_> = tree.covering(&query).map(|(k, v)| (k, *v)).collect();
            let mut want: Vec<_> = entries
                .iter()
                .filter(|(k, _)| k.contains(&query))
                .copied()
                .collect();
            want.sort_by_key(|(k, _)| core::cmp::Reverse(k.len()));
            assert_eq!(got, want);
            // Subtree.
            let got: Vec<_> = tree.subtree(&query).map(|(k, v)| (k, *v)).collect();
            let mut want: Vec<_> = entries
                .iter()
                .filter(|(k, _)| query.contains(k))
                .copied()
                .collect();
            want.sort();
            assert_eq!(got, want);
            // Exact membership.
            for (k, v) in &entries {
                assert_eq!(tree.get(k), Some(v));
            }
        });
    }

    /// Freeze→thaw→lookup agreement for IPv6 prefix sets.
    #[test]
    fn frozen_lpm_agrees_with_tree_v6() {
        use crate::freeze::{freeze_v6, LpmView6};
        run_cases(192, |g| {
            let dense = g.bool();
            let draw = |g: &mut Gen| {
                if dense {
                    gen_dense_prefix6(g)
                } else {
                    gen_prefix6(g)
                }
            };
            let entries: Vec<(Prefix6, u32)> =
                (0..g.range(0, 90)).map(|i| (draw(g), i as u32)).collect();
            let tree: RadixTree<Prefix6, u32> = entries.iter().copied().collect();
            let blob = freeze_v6(&entries);
            let view = LpmView6::parse(&blob).expect("freshly frozen blob validates");
            assert_eq!(view.len(), tree.len());
            for _ in 0..48 {
                let q = draw(g);
                assert_eq!(
                    view.lookup(&q),
                    tree.longest_match(&q).map(|(k, v)| (k, *v)),
                    "query {q}"
                );
            }
        });
    }

    /// `lookup_many` equals `lookup` lane by lane, IPv6.
    #[test]
    fn lookup_many_matches_lookup_lane_by_lane_v6() {
        use crate::freeze::{freeze_v6, LpmView6, LPM_LANES};
        run_cases(128, |g| {
            let chain =
                Prefix6::new_truncated(gen_prefix6(g).bits() | g.below(1 << 20) as u128, 128);
            let nest = |p: Prefix6, len: u8| Prefix6::new_truncated(p.bits(), len);
            let entries = lanes_table(g, chain, nest, 128, gen_prefix6);
            let tree: RadixTree<Prefix6, u32> = entries.iter().copied().collect();
            let blob = freeze_v6(&entries);
            let view = LpmView6::parse(&blob).expect("freshly frozen blob validates");
            let queries: Vec<Prefix6> = (0..3 * LPM_LANES)
                .map(|_| match g.below(5) {
                    0 => nest(chain, g.range(0, 128) as u8),
                    1 if !entries.is_empty() => g.pick(&entries).0,
                    2 if !entries.is_empty() => {
                        let e = g.pick(&entries).0;
                        let low = g.u128().checked_shr(e.len() as u32).unwrap_or(0);
                        Prefix6::new_truncated(e.bits() | low, 128)
                    }
                    2 => Prefix6::new_truncated(g.u128(), 128),
                    3 => gen_prefix6(g),
                    _ => gen_dense_prefix6(g),
                })
                .collect();
            let mut out = vec![Some((chain, u32::MAX)); queries.len()];
            for n in (0..=LPM_LANES).chain([queries.len()]) {
                view.lookup_many(&queries[..n], &mut out[..n]);
                for (q, got) in queries[..n].iter().zip(&out[..n]) {
                    assert_eq!(*got, view.lookup(q), "query {q} in a group of {n}");
                    assert_eq!(
                        *got,
                        tree.longest_match(q).map(|(k, v)| (k, *v)),
                        "query {q}"
                    );
                }
            }
        });
    }

    /// Longest-prefix match against a naive linear scan, IPv6.
    #[test]
    fn longest_match_agrees_with_linear_scan_v6() {
        run_cases(256, |g| {
            let dense = g.bool();
            let draw = |g: &mut Gen| {
                if dense {
                    gen_dense_prefix6(g)
                } else {
                    gen_prefix6(g)
                }
            };
            let prefixes: Vec<Prefix6> = (0..g.range(1, 80)).map(|_| draw(g)).collect();
            let tree: RadixTree<Prefix6, usize> =
                prefixes.iter().enumerate().map(|(i, p)| (*p, i)).collect();
            for _ in 0..32 {
                let query = draw(g);
                let got = tree.longest_match(&query).map(|(k, _)| k);
                let want = prefixes
                    .iter()
                    .filter(|p| p.contains(&query))
                    .max_by_key(|p| p.len())
                    .copied();
                assert_eq!(got, want, "query {query}");
            }
        });
    }
}
