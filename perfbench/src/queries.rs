//! The seeded query mix and the benchmark's own longest-prefix match.
//!
//! Queries are drawn from the record prefixes of a built `dataset.jsonl`:
//! 70% exact record prefixes, 20% host-length more-specifics inside a record
//! prefix, and 10% addresses no record covers (a 404 is the right answer).
//! The expected covering record of every query comes from [`Coverage`], a
//! hash-per-length match that shares no code with the program's LPM.

use std::collections::HashSet;

use p2o_net::v4::Prefix4;
use p2o_net::v6::Prefix6;
use p2o_net::Prefix;

/// SplitMix64: a small, fully specified generator, so a seed means the same
/// inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_b0a7_f00d_cafe)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// What a query is meant to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A record prefix itself.
    Exact,
    /// A host address inside a record prefix.
    MoreSpecific,
    /// An address no record covers.
    Uncovered,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 3] = [Class::Exact, Class::MoreSpecific, Class::Uncovered];
}

/// One query with the answer the benchmark expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The queried prefix.
    pub prefix: Prefix,
    /// Its class in the mix.
    pub class: Class,
    /// The record prefix that must answer it; `None` means 404.
    pub expected: Option<Prefix>,
}

/// Longest-prefix match by one hash probe per record length present.
pub struct Coverage {
    set: HashSet<Prefix>,
    v4_lens: Vec<u8>,
    v6_lens: Vec<u8>,
}

impl Coverage {
    /// Indexes `records`.
    pub fn new(records: &[Prefix]) -> Coverage {
        let set: HashSet<Prefix> = records.iter().copied().collect();
        let lens = |v6: bool| {
            let mut l: Vec<u8> = set
                .iter()
                .filter(|p| matches!(p, Prefix::V6(_)) == v6)
                .map(|p| p.len())
                .collect::<HashSet<u8>>()
                .into_iter()
                .collect();
            l.sort_unstable_by(|a, b| b.cmp(a));
            l
        };
        Coverage {
            v4_lens: lens(false),
            v6_lens: lens(true),
            set,
        }
    }

    /// The longest record prefix covering `q`, if any.
    pub fn longest_match(&self, q: &Prefix) -> Option<Prefix> {
        match q {
            Prefix::V4(p) => self
                .v4_lens
                .iter()
                .filter(|&&l| l <= p.len())
                .find_map(|&l| {
                    let cand = Prefix::V4(Prefix4::new_truncated(p.bits(), l));
                    self.set.contains(&cand).then_some(cand)
                }),
            Prefix::V6(p) => self
                .v6_lens
                .iter()
                .filter(|&&l| l <= p.len())
                .find_map(|&l| {
                    let cand = Prefix::V6(Prefix6::new_truncated(p.bits(), l));
                    self.set.contains(&cand).then_some(cand)
                }),
        }
    }
}

/// A random host inside `p`.
fn host_inside(p: &Prefix, rng: &mut Rng) -> Prefix {
    match p {
        Prefix::V4(p4) => {
            let offset = rng.below(p4.num_addrs()) as u32;
            Prefix::V4(Prefix4::new_truncated(p4.first_addr() | offset, 32))
        }
        Prefix::V6(p6) => {
            let host_bits = 128 - u32::from(p6.len());
            let random = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            let offset = if host_bits == 0 {
                0
            } else {
                random >> (128 - host_bits)
            };
            Prefix::V6(Prefix6::new_truncated(p6.first_addr() | offset, 128))
        }
    }
}

/// A random host no record covers: IPv4 first, IPv6 if the IPv4 space is
/// (nearly) full.
fn uncovered_host(cov: &Coverage, rng: &mut Rng) -> Prefix {
    for attempt in 0..10_000u32 {
        let cand = if attempt < 5_000 {
            Prefix::V4(Prefix4::new_truncated(rng.next_u64() as u32, 32))
        } else {
            let bits = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            Prefix::V6(Prefix6::new_truncated(bits, 128))
        };
        if cov.longest_match(&cand).is_none() {
            return cand;
        }
    }
    panic!("no uncovered address found in 10000 draws");
}

/// `n` queries in the 70/20/10 mix over `records`, in a seeded order. The
/// class counts are exact (rounded down, remainder uncovered).
pub fn mix(records: &[Prefix], cov: &Coverage, n: usize, rng: &mut Rng) -> Vec<Query> {
    assert!(!records.is_empty(), "query mix needs at least one record");
    let n_exact = n * 70 / 100;
    let n_more = n * 20 / 100;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let class = if i < n_exact {
            Class::Exact
        } else if i < n_exact + n_more {
            Class::MoreSpecific
        } else {
            Class::Uncovered
        };
        let prefix = match class {
            Class::Exact => records[rng.below(records.len() as u64) as usize],
            Class::MoreSpecific => {
                host_inside(&records[rng.below(records.len() as u64) as usize], rng)
            }
            Class::Uncovered => uncovered_host(cov, rng),
        };
        out.push(Query {
            prefix,
            class,
            expected: cov.longest_match(&prefix),
        });
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn records() -> Vec<Prefix> {
        [
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "192.0.2.0/24",
            "2001:db8::/32",
            "2001:db8:1::/48",
        ]
        .iter()
        .map(|s| p(s))
        .collect()
    }

    #[test]
    fn longest_match_prefers_the_most_specific_record() {
        let cov = Coverage::new(&records());
        assert_eq!(cov.longest_match(&p("10.1.2.3/32")), Some(p("10.1.2.0/24")));
        assert_eq!(cov.longest_match(&p("10.1.3.3/32")), Some(p("10.1.0.0/16")));
        assert_eq!(cov.longest_match(&p("10.9.0.0/16")), Some(p("10.0.0.0/8")));
        assert_eq!(cov.longest_match(&p("10.1.0.0/16")), Some(p("10.1.0.0/16")));
        // A query shorter than every covering record is not covered.
        assert_eq!(cov.longest_match(&p("10.0.0.0/7")), None);
        assert_eq!(cov.longest_match(&p("11.0.0.1/32")), None);
        assert_eq!(
            cov.longest_match(&p("2001:db8:1:2::1/128")),
            Some(p("2001:db8:1::/48"))
        );
        assert_eq!(cov.longest_match(&p("2001:db9::1/128")), None);
    }

    #[test]
    fn mix_has_exact_class_shares() {
        let recs = records();
        let cov = Coverage::new(&recs);
        let q = mix(&recs, &cov, 1000, &mut Rng::new(1));
        let count = |c| q.iter().filter(|x| x.class == c).count();
        assert_eq!(count(Class::Exact), 700);
        assert_eq!(count(Class::MoreSpecific), 200);
        assert_eq!(count(Class::Uncovered), 100);
        // Shuffled: the first hundred are not all one class.
        assert!(q[..100].iter().any(|x| x.class != Class::Exact));
    }

    #[test]
    fn every_query_has_the_answer_its_class_promises() {
        let recs = records();
        let cov = Coverage::new(&recs);
        for x in mix(&recs, &cov, 500, &mut Rng::new(7)) {
            match x.class {
                Class::Exact => {
                    assert!(recs.contains(&x.prefix));
                    assert_eq!(x.expected, Some(x.prefix));
                }
                Class::MoreSpecific => {
                    let host = if matches!(x.prefix, Prefix::V4(_)) {
                        32
                    } else {
                        128
                    };
                    assert_eq!(x.prefix.len(), host);
                    let cover = x.expected.expect("inside a record");
                    assert!(cover.contains(&x.prefix));
                }
                Class::Uncovered => {
                    assert_eq!(x.expected, None);
                    assert!(recs.iter().all(|r| !r.contains(&x.prefix)));
                }
            }
        }
    }

    #[test]
    fn the_seed_fixes_the_mix() {
        let recs = records();
        let cov = Coverage::new(&recs);
        let a = mix(&recs, &cov, 200, &mut Rng::new(3));
        let b = mix(&recs, &cov, 200, &mut Rng::new(3));
        let c = mix(&recs, &cov, 200, &mut Rng::new(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut r = Rng::new(9);
        for n in [1u64, 2, 3, 1000, u64::MAX] {
            for _ in 0..100 {
                assert!(r.below(n) < n);
            }
        }
    }
}
