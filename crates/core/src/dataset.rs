//! The Prefix2Org dataset: per-prefix records (paper Listing 1) and the
//! Table 4 metrics.

use std::collections::{BTreeMap, HashMap, HashSet};

use p2o_bgp::RouteTable;
use p2o_net::{AddressFamily, AddressSpan, Prefix};
use p2o_rpki::{RovStatus, ValidatedRepo};
use p2o_util::{Interner, Json};
use p2o_whois::alloc::AllocationType;
use p2o_whois::Registry;

use crate::cluster::{ClusterId, ClusteringOutput};
use crate::resolve::{LpmWalk, OwnershipRecord};

/// One materialized step in a prefix's delegation chain — the dataset-side
/// counterpart of [`crate::resolve::DelegationStep`], with the organization
/// name resolved from its [`p2o_util::Symbol`] to a string at assembly time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomerStep {
    /// The Delegated Customer's organization name.
    pub org_name: String,
    /// The registered block of this sub-delegation.
    pub prefix: Prefix,
    /// Its allocation type.
    pub alloc: AllocationType,
}

impl CustomerStep {
    /// The step as a JSON object (Listing 1 chain element).
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("org_name", self.org_name.as_str());
        o.set("prefix", self.prefix.to_string());
        o.set("alloc", self.alloc.keyword().to_uppercase());
        o
    }
}

/// One dataset record — the fields of paper Listing 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixRecord {
    /// The routed prefix.
    pub prefix: Prefix,
    /// The registry of the Direct Owner record ("RIR" in Listing 1).
    pub registry: Registry,
    /// The Direct Owner's WHOIS organization name.
    pub direct_owner: String,
    /// The Direct Owner delegation's block.
    pub do_prefix: Prefix,
    /// The Direct Owner delegation's allocation type.
    pub do_alloc: AllocationType,
    /// The Delegated Customers in hierarchical order.
    pub delegated_customers: Vec<CustomerStep>,
    /// The Direct Owner's base name.
    pub base_name: String,
    /// The child-most Resource Certificate, rendered paper-style.
    pub rpki_certificate: Option<String>,
    /// The origin ASN cluster id(s).
    pub origin_asn_clusters: Vec<u32>,
    /// The final cluster label (e.g. `verizon-I`).
    pub final_cluster_label: String,
    /// The final cluster id (for programmatic grouping).
    pub cluster: ClusterId,
    /// RFC 6811 validation state of the prefix's announcements: the best
    /// state across its observed origins (see
    /// [`Prefix2OrgDataset::apply_rov`]).
    pub rov: RovStatus,
    /// The asserted organization when a local operator exception overrode
    /// this record's attribution (RFC 8416-style); equals
    /// `final_cluster_label` by construction.
    pub local_exception: Option<String>,
    /// The radix walk that resolved the prefix (its `radix.lpm` trace
    /// step); not part of the export.
    pub lpm: LpmWalk,
}

impl PrefixRecord {
    /// The record body as a Listing 1 JSON object, with the paper's display
    /// field names (the prefix itself is the enclosing key, see
    /// [`Prefix2OrgDataset::record_json`]).
    pub fn listing1_json(&self) -> Json {
        let mut o = Json::object();
        o.set("RIR", self.registry.to_string());
        o.set("Direct Owner (DO)", self.direct_owner.as_str());
        o.set("DO Prefix", self.do_prefix.to_string());
        o.set("DO Allocation Type", self.do_alloc.keyword().to_uppercase());
        o.set(
            "Delegated Customer(s) (DC)",
            self.delegated_customers
                .iter()
                .map(|step| step.to_json())
                .collect::<Vec<Json>>(),
        );
        o.set("Base name", self.base_name.as_str());
        o.set(
            "RPKI Certificate",
            match &self.rpki_certificate {
                Some(id) => Json::from(id.as_str()),
                None => Json::Null,
            },
        );
        o.set(
            "Origin ASN Cluster",
            self.origin_asn_clusters
                .iter()
                .map(|&c| Json::from(c))
                .collect::<Vec<Json>>(),
        );
        o.set("RPKI ROV", self.rov.as_str());
        o.set("Final Cluster", self.final_cluster_label.as_str());
        if let Some(org) = &self.local_exception {
            o.set("Local Exception", org.as_str());
        }
        o
    }
}

/// The Table 4 key metrics of a dataset build.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetMetrics {
    /// Routed IPv4 prefixes mapped.
    pub ipv4_prefixes: usize,
    /// Routed IPv6 prefixes mapped.
    pub ipv6_prefixes: usize,
    /// Routed prefixes with no covering Direct Owner record.
    pub unresolved_prefixes: usize,
    /// Distinct Direct Owner names (= 𝒲 "Base Clusters").
    pub direct_owners: usize,
    /// Distinct Delegated Customer names.
    pub delegated_customers: usize,
    /// Distinct base names.
    pub base_names: usize,
    /// Distinct origin ASNs in the routing table.
    pub origin_asns: usize,
    /// Number of 𝓡 groups ("Prefix RPKI Groups").
    pub prefix_rpki_groups: usize,
    /// Number of 𝓐 groups ("Prefix ASN Groups").
    pub prefix_asn_groups: usize,
    /// 𝒲 clusters with at least one 𝓡 group membership.
    pub base_clusters_with_rpki: usize,
    /// 𝒲 clusters with at least one 𝓐 group membership.
    pub base_clusters_with_asn: usize,
    /// Final clusters.
    pub final_clusters: usize,
    /// Final clusters holding more than one exact WHOIS name.
    pub multi_name_clusters: usize,
    /// Percent of IPv4 prefixes in multi-name clusters.
    pub pct_v4_prefixes_multi_name: f64,
    /// Percent of IPv6 prefixes in multi-name clusters.
    pub pct_v6_prefixes_multi_name: f64,
    /// Percent of routed IPv4 address space in multi-name clusters.
    pub pct_v4_space_multi_name: f64,
    /// Fraction of routed IPv4 prefixes covered by a valid RC (§5.3.2
    /// reports 88% / 96.7%).
    pub pct_prefixes_rpki_covered: f64,
    /// Prefixes whose most specific Delegated Customer differs from the
    /// Direct Owner (IPv4).
    pub v4_external_customer_prefixes: usize,
    /// Same, IPv6.
    pub v6_external_customer_prefixes: usize,
}

impl core::fmt::Display for DatasetMetrics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "IPv4 prefixes         : {}", self.ipv4_prefixes)?;
        writeln!(f, "IPv6 prefixes         : {}", self.ipv6_prefixes)?;
        writeln!(f, "Unresolved prefixes   : {}", self.unresolved_prefixes)?;
        writeln!(f, "Direct Owners         : {}", self.direct_owners)?;
        writeln!(f, "Delegated Customers   : {}", self.delegated_customers)?;
        writeln!(f, "Base names            : {}", self.base_names)?;
        writeln!(f, "Origin ASNs           : {}", self.origin_asns)?;
        writeln!(f, "Prefix RPKI groups    : {}", self.prefix_rpki_groups)?;
        writeln!(f, "Prefix ASN groups     : {}", self.prefix_asn_groups)?;
        writeln!(f, "Final clusters        : {}", self.final_clusters)?;
        writeln!(f, "Multi-name clusters   : {}", self.multi_name_clusters)?;
        write!(
            f,
            "v4 space in multi-name: {:.1}%",
            self.pct_v4_space_multi_name
        )
    }
}

/// The RFC 6811 state attribution reports for `prefix`: the best state
/// across its observed origins — any authorized origin makes the prefix
/// `Valid`, otherwise any covering VRP makes it `Invalid`; unrouted or
/// uncovered prefixes are `NotFound`.
pub fn rov_for(routes: &RouteTable, rpki: &ValidatedRepo, prefix: &Prefix) -> RovStatus {
    let mut best = RovStatus::NotFound;
    for &origin in routes.origins(prefix).into_iter().flatten() {
        match rpki.rov(prefix, origin) {
            RovStatus::Valid => return RovStatus::Valid,
            RovStatus::Invalid => best = RovStatus::Invalid,
            RovStatus::NotFound => {}
        }
    }
    best
}

/// The complete Prefix2Org dataset: per-prefix records plus cluster and
/// organization indexes.
#[derive(Debug)]
pub struct Prefix2OrgDataset {
    records: Vec<PrefixRecord>,
    by_prefix: HashMap<Prefix, usize>,
    by_cluster: BTreeMap<ClusterId, Vec<usize>>,
    labels: Vec<String>,
    cluster_org_names: Vec<Vec<String>>,
    metrics: DatasetMetrics,
}

impl Prefix2OrgDataset {
    /// Assembles the dataset from resolution and clustering outputs.
    /// `unresolved` is the count of routed prefixes with no covering record;
    /// `names` is the interner behind the ownership records' symbols (the
    /// delegation tree's) — this is the boundary where symbols become
    /// strings.
    pub fn assemble(
        ownership: Vec<OwnershipRecord>,
        clustering: ClusteringOutput,
        unresolved: usize,
        origin_asns: usize,
        names: &Interner,
    ) -> Self {
        assert_eq!(ownership.len(), clustering.info.len());
        let mut records = Vec::with_capacity(ownership.len());
        let mut by_prefix = HashMap::with_capacity(ownership.len());
        let mut by_cluster: BTreeMap<ClusterId, Vec<usize>> = BTreeMap::new();
        // Symbols from one interner biject with names, so counting distinct
        // symbols counts distinct names.
        let mut dc_names: HashSet<p2o_util::Symbol> = HashSet::new();

        let mut v4 = 0usize;
        let mut v6 = 0usize;
        let mut v4_ext = 0usize;
        let mut v6_ext = 0usize;
        for (rec, info) in ownership.iter().zip(clustering.info.iter()) {
            match rec.prefix.family() {
                AddressFamily::V4 => {
                    v4 += 1;
                    if rec.has_external_customer() {
                        v4_ext += 1;
                    }
                }
                AddressFamily::V6 => {
                    v6 += 1;
                    if rec.has_external_customer() {
                        v6_ext += 1;
                    }
                }
            }
            let idx = records.len();
            by_prefix.insert(rec.prefix, idx);
            by_cluster.entry(info.cluster).or_default().push(idx);
            records.push(PrefixRecord {
                prefix: rec.prefix,
                registry: rec.do_registry,
                direct_owner: names.resolve(rec.direct_owner).to_string(),
                do_prefix: rec.do_prefix,
                do_alloc: rec.do_alloc,
                delegated_customers: rec
                    .delegated_customers
                    .iter()
                    .map(|step| CustomerStep {
                        org_name: names.resolve(step.org_name).to_string(),
                        prefix: step.prefix,
                        alloc: step.alloc,
                    })
                    .collect(),
                base_name: info.base_name.clone(),
                rpki_certificate: info.rpki_cert.map(|c| c.to_string()),
                origin_asn_clusters: info.asn_clusters.clone(),
                final_cluster_label: clustering.labels[info.cluster.0 as usize].clone(),
                cluster: info.cluster,
                rov: RovStatus::NotFound,
                local_exception: None,
                lpm: rec.lpm,
            });
        }
        for rec in &ownership {
            for step in &rec.delegated_customers {
                dc_names.insert(step.org_name);
            }
            // A Direct Owner with no sub-delegation is also the prefix's
            // Delegated Customer (§5.2), so DO names count too.
            if rec.delegated_customers.is_empty() {
                dc_names.insert(rec.direct_owner);
            }
        }

        // Multi-name cluster statistics.
        let multi: HashSet<ClusterId> = clustering
            .cluster_org_names
            .iter()
            .enumerate()
            .filter(|(_, names)| names.len() > 1)
            .map(|(i, _)| ClusterId(i as u32))
            .collect();
        let mut v4_multi = 0usize;
        let mut v6_multi = 0usize;
        let mut v4_space_all = AddressSpan::new();
        let mut v4_space_multi = AddressSpan::new();
        for rec in &records {
            let in_multi = multi.contains(&rec.cluster);
            match rec.prefix {
                Prefix::V4(p) => {
                    v4_space_all.add_v4(&p);
                    if in_multi {
                        v4_multi += 1;
                        v4_space_multi.add_v4(&p);
                    }
                }
                Prefix::V6(_) => {
                    if in_multi {
                        v6_multi += 1;
                    }
                }
            }
        }
        let pct = |part: usize, whole: usize| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        let metrics = DatasetMetrics {
            ipv4_prefixes: v4,
            ipv6_prefixes: v6,
            unresolved_prefixes: unresolved,
            direct_owners: clustering.w_clusters,
            delegated_customers: dc_names.len(),
            base_names: clustering.base_names,
            origin_asns,
            prefix_rpki_groups: clustering.r_groups,
            prefix_asn_groups: clustering.a_groups,
            base_clusters_with_rpki: clustering.w_with_r,
            base_clusters_with_asn: clustering.w_with_a,
            final_clusters: clustering.final_clusters,
            multi_name_clusters: multi.len(),
            pct_v4_prefixes_multi_name: pct(v4_multi, v4),
            pct_v6_prefixes_multi_name: pct(v6_multi, v6),
            pct_v4_space_multi_name: if v4_space_all.v4_addresses() == 0 {
                0.0
            } else {
                100.0 * v4_space_multi.v4_addresses() as f64 / v4_space_all.v4_addresses() as f64
            },
            pct_prefixes_rpki_covered: pct(clustering.rpki_covered_prefixes, records.len()),
            v4_external_customer_prefixes: v4_ext,
            v6_external_customer_prefixes: v6_ext,
        };

        Prefix2OrgDataset {
            records,
            by_prefix,
            by_cluster,
            labels: clustering.labels,
            cluster_org_names: clustering.cluster_org_names,
            metrics,
        }
    }

    /// Stamps every record's `rov` field from the routing table and the
    /// validated RPKI repository (see [`rov_for`]). Runs as a post-pass so
    /// resolution and clustering stay ROV-agnostic.
    pub fn apply_rov(&mut self, routes: &RouteTable, rpki: &ValidatedRepo) {
        for rec in &mut self.records {
            rec.rov = rov_for(routes, rpki, &rec.prefix);
        }
    }

    /// `[valid, invalid, not_found]` record counts, indexed by
    /// [`RovStatus::as_u8`].
    pub fn rov_tallies(&self) -> [u64; 3] {
        let mut tallies = [0u64; 3];
        for rec in &self.records {
            tallies[rec.rov.as_u8() as usize] += 1;
        }
        tallies
    }

    /// Number of records overridden by local operator exceptions.
    pub fn exception_count(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.local_exception.is_some())
            .count() as u64
    }

    /// Overrides one record's final attribution with an operator-asserted
    /// organization (RFC 8416-style `assert` rule). Only the final label is
    /// replaced — the inferred DO/DC chain, registry, certificate, and ROV
    /// state stay visible under the override. Returns `false` when the
    /// prefix is not in the dataset.
    pub(crate) fn assert_exception(&mut self, prefix: &Prefix, org: &str) -> bool {
        match self.by_prefix.get(prefix) {
            Some(&i) => {
                let rec = &mut self.records[i];
                rec.final_cluster_label = org.to_string();
                rec.local_exception = Some(org.to_string());
                true
            }
            None => false,
        }
    }

    /// Removes one record (operator `filter` rule) and rebuilds the prefix
    /// and cluster indexes; exact-match lookups then miss and LPM queries
    /// fall back to any covering record. Returns `false` when the prefix is
    /// not in the dataset.
    pub(crate) fn remove_record(&mut self, prefix: &Prefix) -> bool {
        let Some(idx) = self.by_prefix.remove(prefix) else {
            return false;
        };
        self.records.remove(idx);
        self.by_prefix.clear();
        self.by_cluster.clear();
        for (i, rec) in self.records.iter().enumerate() {
            self.by_prefix.insert(rec.prefix, i);
            self.by_cluster.entry(rec.cluster).or_default().push(i);
        }
        true
    }

    /// The record for a routed prefix.
    pub fn record(&self, prefix: &Prefix) -> Option<&PrefixRecord> {
        self.by_prefix.get(prefix).map(|&i| &self.records[i])
    }

    /// All records (prefix order = input order).
    pub fn records(&self) -> &[PrefixRecord] {
        &self.records
    }

    /// The records, for tests that hand-edit fields in place.
    #[cfg(test)]
    pub(crate) fn records_mut(&mut self) -> &mut [PrefixRecord] {
        &mut self.records
    }

    /// Number of mapped prefixes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The Table 4 metrics.
    pub fn metrics(&self) -> &DatasetMetrics {
        &self.metrics
    }

    /// Cluster label by id.
    pub fn cluster_label(&self, cluster: ClusterId) -> &str {
        &self.labels[cluster.0 as usize]
    }

    /// The exact WHOIS organization names of a cluster.
    pub fn cluster_names(&self, cluster: ClusterId) -> &[String] {
        &self.cluster_org_names[cluster.0 as usize]
    }

    /// Number of final clusters.
    pub fn cluster_count(&self) -> usize {
        self.labels.len()
    }

    /// The records of a cluster.
    pub fn cluster_records(&self, cluster: ClusterId) -> impl Iterator<Item = &PrefixRecord> {
        self.by_cluster
            .get(&cluster)
            .into_iter()
            .flatten()
            .map(move |&i| &self.records[i])
    }

    /// Iterates `(cluster, records)` pairs.
    pub fn clusters(&self) -> impl Iterator<Item = (ClusterId, Vec<&PrefixRecord>)> {
        self.by_cluster
            .iter()
            .map(move |(id, idxs)| (*id, idxs.iter().map(|&i| &self.records[i]).collect()))
    }

    /// The prefixes attributed to the cluster that owns `org_name_fragment`
    /// — the validation query "extract the set of prefixes attributed to
    /// these organizations" (§7.1). Matches clusters whose label or any
    /// member WHOIS name contains the (basic-cleaned) fragment.
    pub fn prefixes_of_org(&self, org_name_fragment: &str) -> Vec<Prefix> {
        let needle = p2o_strings::clean::basic_clean(org_name_fragment);
        let mut out = Vec::new();
        for (id, idxs) in &self.by_cluster {
            let label_hit = self.labels[id.0 as usize].starts_with(&format!("{needle}-"))
                || self.labels[id.0 as usize] == needle;
            let name_hit = self.cluster_org_names[id.0 as usize]
                .iter()
                .any(|n| n.contains(&needle));
            if label_hit || name_hit {
                out.extend(idxs.iter().map(|&i| self.records[i].prefix));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Serializes one record as the Listing 1 JSON object (keyed by prefix).
    pub fn record_json(&self, prefix: &Prefix) -> Option<String> {
        let rec = self.record(prefix)?;
        let mut root = Json::object();
        root.set(prefix.to_string(), rec.listing1_json());
        Some(root.to_string_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterOptions, Clusterer};
    use crate::resolve::Resolver;
    use p2o_bgp::RouteTable;
    use p2o_rpki::RpkiRepository;
    use p2o_whois::{Registry, Rir, WhoisDb};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn build() -> Prefix2OrgDataset {
        let mut db = WhoisDb::new();
        db.add_arin(
            "\
NetRange:       63.64.0.0 - 63.127.255.255
NetType:        Allocation
OrgName:        Verizon Business
Updated:        2024-05-20

NetRange:       63.80.52.0 - 63.80.52.255
NetType:        Reallocation
OrgName:        Bandwidth.com Inc.
Updated:        2024-06-01

NetRange:       63.80.52.0 - 63.80.52.255
NetType:        Reassignment
OrgName:        Ceva Inc
Updated:        2024-06-02
",
        );
        let (tree, _) = db.build();
        let mut routes = RouteTable::new();
        routes.add_route(p("63.80.52.0/24"), 701);
        routes.add_route(p("63.64.0.0/10"), 701);
        let prefixes: Vec<Prefix> = routes.iter().map(|(p, _)| *p).collect();
        let (ownership, unresolved) = Resolver.resolve_all(&tree, prefixes.iter());
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let clustering = Clusterer::new(ClusterOptions::default()).cluster(
            &ownership,
            &routes,
            &clusters,
            &rpki,
            tree.names(),
        );
        Prefix2OrgDataset::assemble(ownership, clustering, unresolved, 1, tree.names())
    }

    #[test]
    fn listing1_record_content() {
        let ds = build();
        let rec = ds.record(&p("63.80.52.0/24")).unwrap();
        assert_eq!(rec.direct_owner, "Verizon Business");
        assert_eq!(rec.do_prefix, p("63.64.0.0/10"));
        assert_eq!(rec.do_alloc.keyword(), "Allocation");
        let names: Vec<_> = rec
            .delegated_customers
            .iter()
            .map(|s| s.org_name.as_str())
            .collect();
        assert_eq!(names, vec!["Bandwidth.com Inc.", "Ceva Inc"]);
        assert_eq!(rec.base_name, "verizon business");
        assert!(rec.final_cluster_label.starts_with("verizon business-"));
        assert_eq!(rec.registry, Registry::Rir(Rir::Arin));
    }

    #[test]
    fn listing1_json_shape() {
        let ds = build();
        let json = ds.record_json(&p("63.80.52.0/24")).unwrap();
        for needle in [
            "\"63.80.52.0/24\"",
            "\"RIR\": \"ARIN\"",
            "\"Direct Owner (DO)\": \"Verizon Business\"",
            "\"DO Prefix\": \"63.64.0.0/10\"",
            "\"DO Allocation Type\": \"ALLOCATION\"",
            "\"Bandwidth.com Inc.\"",
            "\"REASSIGNMENT\"",
            "\"Base name\": \"verizon business\"",
            "\"Final Cluster\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn metrics_basics() {
        let ds = build();
        let m = ds.metrics();
        assert_eq!(m.ipv4_prefixes, 2);
        assert_eq!(m.ipv6_prefixes, 0);
        assert_eq!(m.direct_owners, 1);
        // DC names: Bandwidth.com, Ceva, plus Verizon itself (the /10 has no
        // sub-delegation below the covering chain end... the /10 routed
        // prefix has DCs from the /24? No: covering chain of /10 sees only
        // the /10's own records).
        assert!(m.delegated_customers >= 2);
        assert_eq!(m.final_clusters, 1);
        assert_eq!(m.unresolved_prefixes, 0);
        assert_eq!(m.v4_external_customer_prefixes, 1);
    }

    #[test]
    fn org_prefix_lookup() {
        let ds = build();
        let got = ds.prefixes_of_org("Verizon Business");
        assert_eq!(got, vec![p("63.64.0.0/10"), p("63.80.52.0/24")]);
        assert!(ds.prefixes_of_org("Nonexistent Org").is_empty());
    }

    #[test]
    fn metrics_display_is_complete() {
        let ds = build();
        let text = ds.metrics().to_string();
        for needle in [
            "IPv4 prefixes",
            "Direct Owners",
            "Final clusters",
            "multi-name",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn cluster_indexes_consistent() {
        let ds = build();
        assert_eq!(ds.cluster_count(), 1);
        let (id, recs) = ds.clusters().next().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(ds.cluster_records(id).count(), 2);
        assert!(!ds.cluster_names(id).is_empty());
        assert_eq!(ds.cluster_label(id), recs[0].final_cluster_label);
        assert_eq!(ds.len(), 2);
        assert!(!ds.is_empty());
    }
}
