//! Property-based tests for prefix and range arithmetic.

use p2o_util::check::{run_cases, Gen};

use crate::range::{Range4, Range6};
use crate::v4::Prefix4;
use crate::v6::Prefix6;
use crate::{AddressSpan, Prefix};

fn gen_prefix4(g: &mut Gen) -> Prefix4 {
    Prefix4::new_truncated(g.u32(), g.range(0, 32) as u8)
}

fn gen_prefix6(g: &mut Gen) -> Prefix6 {
    Prefix6::new_truncated(g.u128(), g.range(0, 128) as u8)
}

#[test]
fn v4_display_parse_round_trip() {
    run_cases(256, |g| {
        let p = gen_prefix4(g);
        assert_eq!(p.to_string().parse::<Prefix4>().unwrap(), p);
    });
}

#[test]
fn v6_display_parse_round_trip() {
    run_cases(256, |g| {
        let p = gen_prefix6(g);
        assert_eq!(p.to_string().parse::<Prefix6>().unwrap(), p);
    });
}

#[test]
fn family_enum_round_trip() {
    run_cases(256, |g| {
        let p = if g.bool() {
            Prefix::V4(gen_prefix4(g))
        } else {
            Prefix::V6(gen_prefix6(g))
        };
        assert_eq!(p.to_string().parse::<Prefix>().unwrap(), p);
    });
}

#[test]
fn v4_containment_is_reflexive_and_antisymmetric() {
    run_cases(256, |g| {
        let a = gen_prefix4(g);
        let b = gen_prefix4(g);
        assert!(a.contains(&a));
        if a.contains(&b) && b.contains(&a) {
            assert_eq!(a, b);
        }
    });
}

#[test]
fn v4_supernet_contains() {
    run_cases(256, |g| {
        let p = gen_prefix4(g);
        if let Some(s) = p.supernet() {
            assert!(s.contains(&p));
        }
    });
}

#[test]
fn v4_subnets_partition() {
    run_cases(256, |g| {
        let p = gen_prefix4(g);
        if let Some((lo, hi)) = p.subnets() {
            assert!(p.contains(&lo) && p.contains(&hi));
            assert!(!lo.overlaps(&hi));
            assert_eq!(lo.num_addrs() + hi.num_addrs(), p.num_addrs());
        }
    });
}

/// CIDR decomposition of a range covers it exactly: blocks are sorted,
/// contiguous, start at first, end at last.
#[test]
fn v4_range_decomposition_exact_cover() {
    run_cases(256, |g| {
        let (a, b) = (g.u32(), g.u32());
        let (first, last) = if a <= b { (a, b) } else { (b, a) };
        let r = Range4::new(first, last).unwrap();
        let blocks = r.to_prefixes();
        assert!(!blocks.is_empty());
        assert_eq!(blocks.first().unwrap().first_addr(), first);
        assert_eq!(blocks.last().unwrap().last_addr(), last);
        for w in blocks.windows(2) {
            assert_eq!(w[0].last_addr() as u64 + 1, w[1].first_addr() as u64);
        }
        let total: u64 = blocks.iter().map(|p| p.num_addrs()).sum();
        assert_eq!(total, r.num_addrs());
    });
}

/// Decomposition is minimal: no two consecutive blocks could merge into
/// a single aligned block.
#[test]
fn v4_range_decomposition_minimal() {
    run_cases(256, |g| {
        let (a, b) = (g.u32(), g.u32());
        let (first, last) = if a <= b { (a, b) } else { (b, a) };
        let blocks = Range4::new(first, last).unwrap().to_prefixes();
        for w in blocks.windows(2) {
            if w[0].len() == w[1].len() {
                if let Some(sup) = w[0].supernet() {
                    // If both fit in the same supernet they should have merged.
                    assert!(!(sup.contains(&w[0]) && sup.contains(&w[1])));
                }
            }
        }
    });
}

#[test]
fn v4_range_prefix_round_trip() {
    run_cases(256, |g| {
        let p = gen_prefix4(g);
        let r = Range4::from_prefix(&p);
        assert_eq!(r.as_prefix(), Some(p));
        assert_eq!(r.to_prefixes(), vec![p]);
    });
}

#[test]
fn v6_range_prefix_round_trip() {
    run_cases(256, |g| {
        let p = gen_prefix6(g);
        let r = Range6::from_prefix(&p);
        assert_eq!(r.as_prefix(), Some(p));
        assert_eq!(r.to_prefixes(), vec![p]);
    });
}

#[test]
fn v6_range_decomposition_exact_cover() {
    run_cases(256, |g| {
        let (a, b) = (g.u128(), g.u128());
        let (first, last) = if a <= b { (a, b) } else { (b, a) };
        let r = Range6::new(first, last).unwrap();
        let blocks = r.to_prefixes();
        assert!(!blocks.is_empty());
        assert_eq!(blocks.first().unwrap().first_addr(), first);
        assert_eq!(blocks.last().unwrap().last_addr(), last);
        for w in blocks.windows(2) {
            assert_eq!(w[0].last_addr().wrapping_add(1), w[1].first_addr());
        }
    });
}

/// The span of a set of prefixes equals the brute-force union size on a
/// constrained 16-bit sub-universe (so brute force is feasible).
#[test]
fn span_matches_brute_force() {
    run_cases(128, |g| {
        let prefixes: Vec<Prefix4> = (0..g.range(1, 19))
            .map(|_| {
                let hi = g.u32() >> 16;
                Prefix4::new_truncated(hi << 16, g.range(18, 32) as u8)
            })
            .collect();
        let mut span = AddressSpan::new();
        let mut brute = std::collections::HashSet::new();
        for p in &prefixes {
            span.add_v4(p);
            // len >= 18 keeps each prefix to at most 16384 addresses, so
            // exhaustive enumeration stays cheap.
            for a in p.first_addr()..=p.last_addr() {
                brute.insert(a);
            }
        }
        assert_eq!(span.v4_addresses(), brute.len() as u64);
    });
}

/// IPv4 `Display` prints the address exactly as `std::net::Ipv4Addr` does.
#[test]
fn v4_display_matches_std() {
    run_cases(2048, |g| {
        for p in [Prefix4::new_truncated(g.u32(), 32), gen_prefix4(g)] {
            let std_addr = std::net::Ipv4Addr::from(p.bits());
            assert_eq!(p.to_string(), format!("{std_addr}/{}", p.len()));
        }
    });
}

/// IPv6 `Display` prints the address exactly as `std::net::Ipv6Addr` does,
/// outside `::ffff:0:0/96`, where std switches to the dotted IPv4 tail.
/// Addresses are drawn with random runs of zero groups so that `::`
/// placement (longest run, leftmost on ties, never a single group) is
/// exercised.
#[test]
fn v6_display_matches_std_outside_v4_mapped() {
    let v4_mapped = Prefix6::new(0xffff_u128 << 32, 96).unwrap();
    run_cases(4096, |g| {
        let mut groups: [u16; 8] = core::array::from_fn(|_| g.u32() as u16);
        for _ in 0..g.below(4) {
            let start = g.below(8);
            let end = (start + g.range(1, 8)).min(8);
            groups[start..end].fill(0);
        }
        let bits = groups
            .iter()
            .fold(0u128, |acc, &gr| (acc << 16) | gr as u128);
        if v4_mapped.contains_addr(bits) {
            return;
        }
        let p = Prefix6::new_truncated(bits, 128);
        let std_addr = std::net::Ipv6Addr::from(bits);
        assert_eq!(p.to_string(), format!("{std_addr}/128"));
        assert_eq!(crate::v6::fmt_addr(bits), std_addr.to_string());
    });
}
