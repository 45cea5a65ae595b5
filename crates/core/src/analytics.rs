//! Figures 4–5 and the case-study views (§8).

use std::collections::{BTreeMap, HashMap, HashSet};

use p2o_as2org::As2OrgDb;
use p2o_net::{AddressSpan, Prefix};
use p2o_strings::clean::basic_clean;

use crate::dataset::Prefix2OrgDataset;

/// The three prefix-grouping methods compared in Figures 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingMethod {
    /// Final Prefix2Org clusters (the paper's contribution).
    Prefix2Org,
    /// Exact WHOIS Direct Owner names (the default/naïve method).
    WhoisOrgName,
    /// Origin-AS sibling clusters (the AS2Org-based method the paper shows
    /// over-aggregates).
    As2OrgSiblings,
}

/// One cumulative curve: for each k in `1..=k_max`, the cumulative fraction
/// of routed IPv4 address space (Figure 4) and the cumulative number of
/// unique WHOIS names (Figure 5) covered by the top-k groups.
#[derive(Debug, Clone, PartialEq)]
pub struct TopClusterCurve {
    /// The grouping method.
    pub method: GroupingMethod,
    /// Cumulative fraction of routed IPv4 address space, `curve[k-1]` = top
    /// k groups.
    pub space_fraction: Vec<f64>,
    /// Cumulative count of distinct WHOIS Direct Owner names.
    pub unique_names: Vec<usize>,
}

/// Computes the Figure 4/5 curves for one grouping method.
///
/// Groups are ranked by the IPv4 address space they hold (deduplicated per
/// group via [`AddressSpan`]); fractions are of the total routed IPv4 space
/// in the dataset.
pub fn top_cluster_curve(
    dataset: &Prefix2OrgDataset,
    method: GroupingMethod,
    k_max: usize,
) -> TopClusterCurve {
    // Assign each record to a group key.
    let mut groups: HashMap<u64, (AddressSpan, HashSet<&str>)> = HashMap::new();
    let mut total_space = AddressSpan::new();
    for rec in dataset.records() {
        if let Prefix::V4(p) = rec.prefix {
            total_space.add_v4(&p);
        }
        let key = match method {
            GroupingMethod::Prefix2Org => rec.cluster.0 as u64,
            GroupingMethod::WhoisOrgName => {
                p2o_util::fnv1a_64(basic_clean(&rec.direct_owner).as_bytes())
            }
            GroupingMethod::As2OrgSiblings => rec
                .origin_asn_clusters
                .first()
                .map(|&c| 0x8000_0000_0000_0000 | c as u64)
                .unwrap_or(u64::MAX),
        };
        let entry = groups.entry(key).or_default();
        if let Prefix::V4(p) = rec.prefix {
            entry.0.add_v4(&p);
        }
        entry.1.insert(rec.direct_owner.as_str());
    }

    let total = total_space.v4_addresses().max(1);
    let mut ranked: Vec<(u64, u64, HashSet<&str>)> = groups
        .into_iter()
        .map(|(k, (span, names))| (k, span.v4_addresses(), names))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k_max);

    let mut space_fraction = Vec::with_capacity(ranked.len());
    let mut unique_names = Vec::with_capacity(ranked.len());
    let mut cum_space = 0u64;
    let mut seen_names: HashSet<&str> = HashSet::new();
    for (_, space, names) in &ranked {
        cum_space += space;
        seen_names.extend(names.iter().copied());
        space_fraction.push(cum_space as f64 / total as f64);
        unique_names.push(seen_names.len());
    }
    TopClusterCurve {
        method,
        space_fraction,
        unique_names,
    }
}

/// One row of the "largest clusters" table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopCluster {
    /// The cluster label.
    pub label: String,
    /// IPv4 addresses held (deduplicated).
    pub v4_addresses: u64,
    /// Prefix count (both families).
    pub prefixes: usize,
    /// Distinct WHOIS names in the cluster.
    pub names: usize,
    /// Distinct Delegated Customer names under the cluster's prefixes.
    pub delegated_customers: usize,
}

/// The top-k Prefix2Org clusters by IPv4 address space (§6 "Top 100
/// Clusters").
pub fn top_clusters(dataset: &Prefix2OrgDataset, k: usize) -> Vec<TopCluster> {
    let mut rows: Vec<TopCluster> = dataset
        .clusters()
        .map(|(id, recs)| {
            let mut span = AddressSpan::new();
            let mut dcs: HashSet<&str> = HashSet::new();
            for rec in &recs {
                if let Prefix::V4(p) = rec.prefix {
                    span.add_v4(&p);
                }
                for step in &rec.delegated_customers {
                    if step.org_name != rec.direct_owner {
                        dcs.insert(step.org_name.as_str());
                    }
                }
            }
            TopCluster {
                label: dataset.cluster_label(id).to_string(),
                v4_addresses: span.v4_addresses(),
                prefixes: recs.len(),
                names: dataset.cluster_names(id).len(),
                delegated_customers: dcs.len(),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.v4_addresses
            .cmp(&a.v4_addresses)
            .then(a.label.cmp(&b.label))
    });
    rows.truncate(k);
    rows
}

/// Per-registry statistics of a dataset (the paper's regional observations:
/// legacy space concentrated in ARIN and RIPE, NIR-mediated space in APNIC
/// and LACNIC).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// IPv4 prefixes whose Direct Owner record came from this registry.
    pub v4_prefixes: usize,
    /// IPv6 prefixes.
    pub v6_prefixes: usize,
    /// Deduplicated IPv4 addresses.
    pub v4_addresses: u64,
    /// Prefixes whose Direct Owner delegation is legacy-typed.
    pub legacy_prefixes: usize,
}

/// Breaks the dataset down by the registry of the Direct Owner record.
pub fn registry_breakdown(
    dataset: &Prefix2OrgDataset,
) -> BTreeMap<p2o_whois::Registry, RegistryStats> {
    let mut out: BTreeMap<p2o_whois::Registry, (RegistryStats, AddressSpan)> = BTreeMap::new();
    for rec in dataset.records() {
        let entry = out.entry(rec.registry).or_default();
        match rec.prefix {
            Prefix::V4(p) => {
                entry.0.v4_prefixes += 1;
                entry.1.add_v4(&p);
            }
            Prefix::V6(_) => entry.0.v6_prefixes += 1,
        }
        if rec.do_alloc.is_legacy() {
            entry.0.legacy_prefixes += 1;
        }
    }
    out.into_iter()
        .map(|(reg, (mut stats, span))| {
            stats.v4_addresses = span.v4_addresses();
            (reg, stats)
        })
        .collect()
}

/// §8.1 — organizations holding address space without operating an ASN.
#[derive(Debug, Clone, PartialEq)]
pub struct NoAsnReport {
    /// Total organizations (final clusters) in the dataset.
    pub total_orgs: usize,
    /// Organizations with no name match in AS2Org.
    pub orgs_without_asn: usize,
    /// Percent of routed IPv4 prefixes they hold.
    pub pct_v4_prefixes: f64,
    /// Percent of routed IPv6 prefixes they hold.
    pub pct_v6_prefixes: f64,
    /// Largest such organizations: `(label, prefix count, v4 addresses,
    /// distinct origin ASN count)`.
    pub top: Vec<(String, usize, u64, usize)>,
}

/// Identifies organizations absent from AS2Org (§8.1): a final cluster is
/// "without ASN" when none of its WHOIS names appears (basic-cleaned) among
/// AS2Org organization names.
pub fn orgs_without_asn(
    dataset: &Prefix2OrgDataset,
    as2org: &As2OrgDb,
    top_k: usize,
) -> NoAsnReport {
    let known: HashSet<String> = as2org.all_org_names().map(basic_clean).collect();
    let mut total_orgs = 0usize;
    let mut without = 0usize;
    let mut v4_prefixes = 0usize;
    let mut v6_prefixes = 0usize;
    let mut v4_total = 0usize;
    let mut v6_total = 0usize;
    let mut top: Vec<(String, usize, u64, usize)> = Vec::new();

    for (id, recs) in dataset.clusters() {
        total_orgs += 1;
        let v4_len = recs.iter().filter(|r| r.prefix.as_v4().is_some()).count();
        let v6_len = recs.len() - v4_len;
        v4_total += v4_len;
        v6_total += v6_len;
        let has_asn = dataset
            .cluster_names(id)
            .iter()
            .any(|n| known.contains(&basic_clean(n)));
        if has_asn {
            continue;
        }
        without += 1;
        v4_prefixes += v4_len;
        v6_prefixes += v6_len;
        let mut span = AddressSpan::new();
        let mut origins: BTreeMap<u32, ()> = BTreeMap::new();
        for rec in &recs {
            if let Prefix::V4(p) = rec.prefix {
                span.add_v4(&p);
            }
            for &c in &rec.origin_asn_clusters {
                origins.insert(c, ());
            }
        }
        top.push((
            dataset.cluster_label(id).to_string(),
            recs.len(),
            span.v4_addresses(),
            origins.len(),
        ));
    }
    top.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    top.truncate(top_k);

    let pct = |part: usize, whole: usize| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    NoAsnReport {
        total_orgs,
        orgs_without_asn: without,
        pct_v4_prefixes: pct(v4_prefixes, v4_total),
        pct_v6_prefixes: pct(v6_prefixes, v6_total),
        top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterOptions, Clusterer};
    use crate::dataset::Prefix2OrgDataset;
    use crate::resolve::OwnershipRecord;
    use p2o_bgp::RouteTable;
    use p2o_net::Prefix;
    use p2o_rpki::RpkiRepository;
    use p2o_util::Interner;
    use p2o_whois::alloc::AllocationType;
    use p2o_whois::{Registry, Rir};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rec(names: &mut Interner, prefix: &str, owner: &str) -> OwnershipRecord {
        OwnershipRecord {
            prefix: p(prefix),
            direct_owner: names.intern(owner),
            do_prefix: p(prefix),
            do_alloc: AllocationType::Allocation,
            do_registry: Registry::Rir(Rir::Arin),
            delegated_customers: Vec::new(),
            lpm: Default::default(),
        }
    }

    fn dataset(
        records: Vec<OwnershipRecord>,
        routes: &RouteTable,
        names: &Interner,
    ) -> Prefix2OrgDataset {
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let clustering = Clusterer::new(ClusterOptions::default())
            .cluster(&records, routes, &clusters, &rpki, names);
        Prefix2OrgDataset::assemble(records, clustering, 0, 4, names)
    }

    fn fixture() -> Prefix2OrgDataset {
        let mut names = Interner::new();
        let records = vec![
            rec(&mut names, "10.0.0.0/8", "Big Carrier Inc"), // 2^24 addrs
            rec(&mut names, "20.0.0.0/16", "Mid Corp"),       // 2^16
            rec(&mut names, "30.0.0.0/24", "Small LLC"),      // 2^8
            rec(&mut names, "2001:db8::/32", "Big Carrier Inc"), // v6
        ];
        let mut routes = RouteTable::new();
        routes.add_route(p("10.0.0.0/8"), 100);
        routes.add_route(p("20.0.0.0/16"), 200);
        routes.add_route(p("30.0.0.0/24"), 300);
        routes.add_route(p("2001:db8::/32"), 100);
        dataset(records, &routes, &names)
    }

    #[test]
    fn space_curve_is_monotone_and_ordered() {
        let ds = fixture();
        let curve = top_cluster_curve(&ds, GroupingMethod::Prefix2Org, 10);
        assert_eq!(curve.space_fraction.len(), 3); // 3 clusters
                                                   // Monotone non-decreasing, ends at 1.0 (all space covered).
        for w in curve.space_fraction.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!((curve.space_fraction.last().unwrap() - 1.0).abs() < 1e-12);
        // The first group is the biggest: /8 dominates.
        assert!(curve.space_fraction[0] > 0.99);
        // Unique names accumulate.
        assert_eq!(*curve.unique_names.last().unwrap(), 3);
    }

    #[test]
    fn methods_agree_on_this_simple_world() {
        // With unique names and one origin per org, all three methods rank
        // identically.
        let ds = fixture();
        let a = top_cluster_curve(&ds, GroupingMethod::Prefix2Org, 10);
        let b = top_cluster_curve(&ds, GroupingMethod::WhoisOrgName, 10);
        let c = top_cluster_curve(&ds, GroupingMethod::As2OrgSiblings, 10);
        assert_eq!(a.space_fraction, b.space_fraction);
        assert_eq!(b.space_fraction, c.space_fraction);
    }

    #[test]
    fn as2org_method_overaggregates_customer_prefixes() {
        // Two different orgs' prefixes originated by the same ASN: the
        // AS2Org method lumps them; Prefix2Org keeps them apart.
        let mut names = Interner::new();
        let records = vec![
            rec(&mut names, "10.0.0.0/8", "Carrier"),
            rec(&mut names, "20.0.0.0/8", "Customer Co"),
        ];
        let mut routes = RouteTable::new();
        routes.add_route(p("10.0.0.0/8"), 100);
        routes.add_route(p("20.0.0.0/8"), 100); // same origin!
        let ds = dataset(records, &routes, &names);
        let p2o = top_cluster_curve(&ds, GroupingMethod::Prefix2Org, 10);
        let as2org = top_cluster_curve(&ds, GroupingMethod::As2OrgSiblings, 10);
        assert_eq!(p2o.space_fraction.len(), 2);
        assert_eq!(as2org.space_fraction.len(), 1);
        // The AS-based top-1 covers everything; Prefix2Org's top-1 covers half.
        assert!(as2org.space_fraction[0] > p2o.space_fraction[0]);
        // Fig 5 shape: the AS2Org curve accumulates *names* faster.
        assert_eq!(as2org.unique_names[0], 2);
        assert_eq!(p2o.unique_names[0], 1);
    }

    #[test]
    fn top_clusters_ranked_by_space() {
        let ds = fixture();
        let rows = top_clusters(&ds, 2);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].label.starts_with("big carrier"));
        assert!(rows[0].v4_addresses >= rows[1].v4_addresses);
        assert_eq!(rows[0].prefixes, 2); // /8 + v6 /32
    }

    #[test]
    fn no_asn_report() {
        let ds = fixture();
        let mut as2org = As2OrgDb::new();
        as2org.add_record(p2o_as2org::AsOrgRecord {
            asn: 100,
            org_id: "BC".into(),
            org_name: "Big Carrier Inc".into(),
            country: "US".into(),
        });
        let report = orgs_without_asn(&ds, &as2org, 10);
        assert_eq!(report.total_orgs, 3);
        assert_eq!(report.orgs_without_asn, 2); // Mid Corp, Small LLC
        assert!(report.pct_v4_prefixes > 0.0);
        assert_eq!(report.top.len(), 2);
        assert!(report.top[0].0.starts_with("mid")); // /16 > /24
    }

    #[test]
    fn registry_breakdown_counts() {
        let ds = fixture();
        let breakdown = registry_breakdown(&ds);
        use p2o_whois::{Registry, Rir};
        let arin = &breakdown[&Registry::Rir(Rir::Arin)];
        assert_eq!(arin.v4_prefixes, 3);
        assert_eq!(arin.v6_prefixes, 1);
        assert_eq!(arin.v4_addresses, (1 << 24) + (1 << 16) + (1 << 8));
        assert_eq!(arin.legacy_prefixes, 0);
        assert_eq!(breakdown.len(), 1);
    }

    #[test]
    fn empty_dataset_curves() {
        let routes = RouteTable::new();
        let ds = dataset(Vec::new(), &routes, &Interner::new());
        let curve = top_cluster_curve(&ds, GroupingMethod::Prefix2Org, 10);
        assert!(curve.space_fraction.is_empty());
        assert!(top_clusters(&ds, 5).is_empty());
    }
}
