//! `p2o explain <prefix>` — the provenance rule chain behind one mapping.
//!
//! [`Pipeline::explain`] replays the decision a full run would make for a
//! single prefix and records every rule consulted along the way in a
//! [`DecisionTrace`]: the routing-table lookup, the radix LPM walk over the
//! delegation tree, each WHOIS delegation matched (Direct Owner and
//! Delegated Customers), and the clustering evidence (base name, RPKI
//! certificate, origin-ASN clusters, merge edges) behind its final cluster.
//!
//! The trace construction is split in two layers so a long-running service
//! can reuse it without re-running the pipeline per query:
//! [`attribution_trace`] builds the chain against an *already computed*
//! dataset and merge-edge list (the serve snapshot holds both), while
//! [`Pipeline::explain`] computes them on the fly and then delegates —
//! guaranteeing the two paths render byte-identical attributions for any
//! prefix the dataset covers.

use std::collections::HashMap;

use p2o_net::Prefix;
use p2o_obs::DecisionTrace;

use crate::cluster::MergeEdge;
use crate::dataset::Prefix2OrgDataset;
use crate::exceptions::{ExceptionAction, ExceptionSet};
use crate::pipeline::{Pipeline, PipelineInputs};
use crate::resolve::Resolver;

/// The shared trace prelude: routing-table consultation plus the traced
/// resolution walk. Returns the trace and whether resolution found a
/// covering Direct Owner (when it did not, the chain already ends at the
/// `whois.unresolved` step and no cluster steps apply).
fn trace_prelude(inputs: &PipelineInputs<'_>, prefix: &Prefix) -> (DecisionTrace, bool) {
    let mut trace = DecisionTrace::new(prefix.to_string());
    match inputs.routes.origins(prefix) {
        Some(origins) => {
            let list = origins
                .iter()
                .map(|a| format!("AS{a}"))
                .collect::<Vec<_>>()
                .join(", ");
            trace.push("bgp.origins", format!("routed, announced by {list}"));
        }
        None => trace.push(
            "bgp.origins",
            "not in the routing table (hypothetical mapping)",
        ),
    }
    let resolved = Resolver
        .resolve_traced(inputs.delegations, prefix, &mut trace)
        .is_some();
    (trace, resolved)
}

/// Merge edges indexed by endpoint name: for each name, the edges naming
/// it as `a` or `b`, in list order. Built once per freeze or `explain`, so
/// a record's merge steps cost one hash lookup instead of a scan of every
/// edge.
pub(crate) struct MergeIndex<'e> {
    by_name: HashMap<&'e str, Vec<&'e MergeEdge>>,
}

impl<'e> MergeIndex<'e> {
    pub(crate) fn new(edges: &'e [MergeEdge]) -> Self {
        let mut by_name: HashMap<&str, Vec<&MergeEdge>> = HashMap::new();
        for edge in edges {
            by_name.entry(&edge.a).or_default().push(edge);
            // An edge joining a name to itself is listed once.
            if edge.b != edge.a {
                by_name.entry(&edge.b).or_default().push(edge);
            }
        }
        MergeIndex { by_name }
    }

    /// The edges with `name` as an endpoint (exact string match), in list
    /// order.
    fn touching(&self, name: &str) -> impl Iterator<Item = &'e MergeEdge> + '_ {
        self.by_name.get(name).into_iter().flatten().copied()
    }
}

/// Appends the clustering evidence steps for `prefix`'s record in
/// `dataset`: base name, RPKI certificate, origin-ASN clusters, every merge
/// edge touching the Direct Owner, and the final cluster label.
///
/// Merge edges name basic-cleaned 𝒲 clusters while the match is on the raw
/// Direct Owner, so an owner whose WHOIS name is not already lowercase and
/// single-spaced gets no merge steps. Kept as is for now: matching on the
/// cleaned name adds merge steps to most stored traces and grows the frozen
/// artifact by more than a third.
fn push_cluster_steps(
    trace: &mut DecisionTrace,
    dataset: &Prefix2OrgDataset,
    merge_edges: &MergeIndex<'_>,
    prefix: &Prefix,
) {
    let Some(record) = dataset.record(prefix) else {
        return;
    };
    trace.push(
        "cluster.base_name",
        format!(
            "\"{}\" reduces to base name \"{}\"",
            record.direct_owner, record.base_name
        ),
    );
    match &record.rpki_certificate {
        Some(cert) => trace.push("rpki.certificate", format!("covered by {cert}")),
        None => trace.push(
            "rpki.certificate",
            "no covering validated Resource Certificate",
        ),
    }
    trace.push(
        "rpki.rov",
        format!("route origin validation: {}", record.rov.as_str()),
    );
    if record.origin_asn_clusters.is_empty() {
        trace.push("as2org.clusters", "origin ASNs map to no sibling cluster");
    } else {
        let list = record
            .origin_asn_clusters
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        trace.push("as2org.clusters", format!("origin ASN cluster(s) {list}"));
    }
    for edge in merge_edges.touching(&record.direct_owner) {
        let other = if edge.a == record.direct_owner {
            &edge.b
        } else {
            &edge.a
        };
        trace.push(
            "cluster.merge",
            format!("merged with \"{other}\": {}", edge.evidence),
        );
    }
    // The inferred label by cluster id: under an operator override the
    // record's own label carries the asserted org, while this step keeps
    // showing what the pipeline concluded.
    trace.push(
        "cluster.final",
        format!(
            "final cluster \"{}\" ({} WHOIS name(s))",
            dataset.cluster_label(record.cluster),
            dataset.cluster_names(record.cluster).len()
        ),
    );
    if let Some(org) = &record.local_exception {
        trace.push(
            "local_exception",
            format!("operator rule overrides attribution to \"{org}\""),
        );
    }
}

/// Builds the full decision trace for `prefix` against an already-computed
/// `dataset` and `merge_edges`, as [`Pipeline::dataset_with_evidence`]
/// returns them.
///
/// For any prefix with a record in `dataset`, the result is byte-identical
/// to [`Pipeline::explain`] on the same inputs — the serve snapshot relies
/// on this to answer per-lookup provenance without re-running the pipeline.
/// Prefixes the dataset does not cover still get the routing and resolution
/// steps; the chain simply ends there.
pub fn attribution_trace(
    inputs: &PipelineInputs<'_>,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    prefix: &Prefix,
) -> DecisionTrace {
    attribution_trace_with(inputs, dataset, merge_edges, None, prefix)
}

/// [`attribution_trace`] with local operator exceptions in view.
///
/// `dataset` must already have the exceptions applied (asserted overrides
/// render from the record itself); the set is only consulted to explain
/// prefixes a `filter` rule removed — without it a filtered prefix is
/// indistinguishable from one the pipeline never attributed.
pub fn attribution_trace_with(
    inputs: &PipelineInputs<'_>,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    exceptions: Option<&ExceptionSet>,
    prefix: &Prefix,
) -> DecisionTrace {
    indexed_trace(
        inputs,
        dataset,
        &MergeIndex::new(merge_edges),
        exceptions,
        prefix,
    )
}

/// [`attribution_trace_with`] against merge edges already indexed, for
/// callers that trace many prefixes against one edge list.
pub(crate) fn indexed_trace(
    inputs: &PipelineInputs<'_>,
    dataset: &Prefix2OrgDataset,
    merge_edges: &MergeIndex<'_>,
    exceptions: Option<&ExceptionSet>,
    prefix: &Prefix,
) -> DecisionTrace {
    let (mut trace, resolved) = trace_prelude(inputs, prefix);
    if !resolved {
        return trace;
    }
    if let Some(set) = exceptions {
        if matches!(set.rule(prefix), Some(ExceptionAction::Filter)) {
            trace.push(
                "local_exception",
                "filtered as bogus by operator rule: no attribution",
            );
            return trace;
        }
    }
    push_cluster_steps(&mut trace, dataset, merge_edges, prefix);
    trace
}

impl Pipeline {
    /// Explains how `prefix` would be mapped by this pipeline: every rule
    /// consulted, in application order.
    ///
    /// The chain is deterministic — it carries no timestamps, thread ids or
    /// iteration-order artifacts, so identical inputs render the identical
    /// explanation at any thread count. Prefixes absent from the routing
    /// table are still explained (as a hypothetical mapping); prefixes with
    /// no covering Direct Owner delegation end at a `whois.unresolved` step.
    pub fn explain(&self, inputs: &PipelineInputs<'_>, prefix: &Prefix) -> DecisionTrace {
        self.explain_with(inputs, None, prefix)
    }

    /// [`Pipeline::explain`] with local operator exceptions applied, so the
    /// trace reports overridden attributions (`local_exception` step) and
    /// filtered prefixes exactly as a build with `--exceptions` would.
    pub fn explain_with(
        &self,
        inputs: &PipelineInputs<'_>,
        exceptions: Option<&ExceptionSet>,
        prefix: &Prefix,
    ) -> DecisionTrace {
        let (trace, resolved) = trace_prelude(inputs, prefix);
        if !resolved {
            return trace;
        }

        // Re-run resolution over the routed table (plus this prefix, when it
        // is not routed) and cluster with merge evidence, so the final label
        // and every merge touching this owner can be reported.
        let (mut dataset, merge_edges) = self.dataset_with_evidence(inputs, Some(prefix), None);
        if let Some(set) = exceptions {
            set.apply(&mut dataset);
        }
        attribution_trace_with(inputs, &dataset, &merge_edges, exceptions, prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterOptions;
    use crate::frozen::{freeze, FrozenDataset};
    use p2o_rpki::{IpResourceSet, RpkiRepository, ValidatedRepo};
    use p2o_whois::WhoisDb;

    fn fixture() -> (p2o_whois::DelegationTree, p2o_bgp::RouteTable) {
        let mut whois = WhoisDb::new();
        whois.add_arin(
            "NetRange: 63.64.0.0 - 63.127.255.255\nNetType: Allocation\n\
             OrgName: Verizon Business\nUpdated: 2024-05-20\n",
        );
        whois.add_arin(
            "NetRange: 63.80.52.0 - 63.80.52.255\nNetType: Reallocation\n\
             OrgName: Bandwidth.com Inc.\nUpdated: 2024-03-11\n",
        );
        let (tree, _) = whois.build();
        let mut routes = p2o_bgp::RouteTable::new();
        routes.add_route("63.80.52.0/24".parse().unwrap(), 701);
        routes.add_route("63.64.0.0/16".parse().unwrap(), 701);
        (tree, routes)
    }

    #[test]
    fn explain_is_deterministic_and_names_every_rule() {
        let (tree, routes) = fixture();
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };
        let prefix: Prefix = "63.80.52.0/24".parse().unwrap();
        let seq = Pipeline::with_threads(1).explain(&inputs, &prefix);
        for rule in [
            "bgp.origins",
            "radix.lpm",
            "whois.delegated_customer",
            "whois.direct_owner",
            "cluster.base_name",
            "rpki.certificate",
            "cluster.final",
        ] {
            assert!(seq.used(rule), "missing rule {rule}:\n{}", seq.render());
        }
        assert_eq!(seq, Pipeline::with_threads(4).explain(&inputs, &prefix));
    }

    #[test]
    fn explain_covers_unrouted_and_unresolved_prefixes() {
        let (tree, routes) = fixture();
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };

        // Covered by WHOIS but not routed: hypothetical, still resolved.
        let unrouted =
            Pipeline::with_threads(1).explain(&inputs, &"63.100.0.0/16".parse().unwrap());
        assert!(unrouted.used("bgp.origins"));
        assert!(unrouted.used("whois.direct_owner"));
        assert!(unrouted.used("cluster.final"));

        // No covering delegation at all: the chain ends at the miss.
        let miss = Pipeline::with_threads(1).explain(&inputs, &"198.51.100.0/24".parse().unwrap());
        assert!(miss.used("whois.unresolved"));
        assert!(!miss.used("cluster.final"));
    }

    #[test]
    fn precomputed_attribution_is_byte_identical_to_explain() {
        let (tree, routes) = fixture();
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };
        let pipeline = Pipeline::with_threads(2);
        // The snapshot precomputation: one dataset + merge-edge list.
        let (dataset, edges) = pipeline.dataset_with_evidence(&inputs, None, None);
        for q in ["63.80.52.0/24", "63.64.0.0/16", "198.51.100.0/24"] {
            let prefix: Prefix = q.parse().unwrap();
            let live = pipeline.explain(&inputs, &prefix);
            let precomputed = attribution_trace(&inputs, &dataset, &edges, &prefix);
            assert_eq!(
                live.render(),
                precomputed.render(),
                "trace divergence for {q}"
            );
        }
    }

    /// The trace before the merge-edge index: every edge is
    /// string-compared with the record's Direct Owner. Kept as the oracle.
    fn filter_trace(
        inputs: &PipelineInputs<'_>,
        dataset: &Prefix2OrgDataset,
        merge_edges: &[MergeEdge],
        prefix: &Prefix,
    ) -> DecisionTrace {
        let (mut trace, resolved) = trace_prelude(inputs, prefix);
        let Some(record) = dataset.record(prefix).filter(|_| resolved) else {
            return trace;
        };
        trace.push(
            "cluster.base_name",
            format!(
                "\"{}\" reduces to base name \"{}\"",
                record.direct_owner, record.base_name
            ),
        );
        match &record.rpki_certificate {
            Some(cert) => trace.push("rpki.certificate", format!("covered by {cert}")),
            None => trace.push(
                "rpki.certificate",
                "no covering validated Resource Certificate",
            ),
        }
        trace.push(
            "rpki.rov",
            format!("route origin validation: {}", record.rov.as_str()),
        );
        if record.origin_asn_clusters.is_empty() {
            trace.push("as2org.clusters", "origin ASNs map to no sibling cluster");
        } else {
            let list = record
                .origin_asn_clusters
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            trace.push("as2org.clusters", format!("origin ASN cluster(s) {list}"));
        }
        for edge in merge_edges
            .iter()
            .filter(|e| e.a == record.direct_owner || e.b == record.direct_owner)
        {
            let other = if edge.a == record.direct_owner {
                &edge.b
            } else {
                &edge.a
            };
            trace.push(
                "cluster.merge",
                format!("merged with \"{other}\": {}", edge.evidence),
            );
        }
        trace.push(
            "cluster.final",
            format!(
                "final cluster \"{}\" ({} WHOIS name(s))",
                dataset.cluster_label(record.cluster),
                dataset.cluster_names(record.cluster).len()
            ),
        );
        if let Some(org) = &record.local_exception {
            trace.push(
                "local_exception",
                format!("operator rule overrides attribution to \"{org}\""),
            );
        }
        trace
    }

    /// Direct Owner names that are already lowercase and single-spaced,
    /// so they equal the cleaned names the merge edges carry. "verizon hong
    /// kong ltd" shares a certificate with "verizon japan ltd" and origin
    /// AS395753 with "verizon business".
    fn merge_fixture() -> (
        p2o_whois::DelegationTree,
        p2o_bgp::RouteTable,
        ValidatedRepo,
    ) {
        let mut whois = WhoisDb::new();
        for (range, org) in [
            ("210.80.198.0 - 210.80.198.255", "verizon japan ltd"),
            ("203.193.92.0 - 203.193.92.255", "verizon hong kong ltd"),
            ("65.196.14.0 - 65.196.14.255", "verizon business"),
        ] {
            whois.add_arin(&format!(
                "NetRange: {range}\nNetType: Allocation\nOrgName: {org}\nUpdated: 2024-05-20\n"
            ));
        }
        let (tree, _) = whois.build();
        let mut routes = p2o_bgp::RouteTable::new();
        routes.add_route("210.80.198.0/24".parse().unwrap(), 18692);
        routes.add_route("203.193.92.0/24".parse().unwrap(), 395753);
        routes.add_route("65.196.14.0/24".parse().unwrap(), 395753);

        let mut repo = RpkiRepository::new();
        let ta = repo.issue_trust_anchor("IANA", IpResourceSet::everything(), 20200101, 20991231);
        for (subject, prefixes) in [
            (
                "verizon-apac-account",
                &["210.80.198.0/24", "203.193.92.0/24"][..],
            ),
            ("verizon-us-account", &["65.196.14.0/24"][..]),
        ] {
            let resources: IpResourceSet = prefixes
                .iter()
                .map(|p| p.parse::<Prefix>().unwrap())
                .collect();
            repo.issue_cert(ta, subject, resources, 20200101, 20991231)
                .unwrap();
        }
        let (rpki, problems) = repo.validate(20240901);
        assert!(problems.is_empty(), "{problems:?}");
        (tree, routes, rpki)
    }

    #[test]
    fn indexed_merge_steps_match_the_filter_oracle_in_edge_order() {
        let (tree, routes, rpki) = merge_fixture();
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };
        let hong_kong: Prefix = "203.193.92.0/24".parse().unwrap();
        for threads in [1, 4] {
            // Three names are far too few for the corpus-frequency
            // threshold, so every repeated-position token drops.
            let pipeline = Pipeline {
                cluster_options: ClusterOptions {
                    frequency_threshold: 0,
                    ..ClusterOptions::default()
                },
                ..Pipeline::with_threads(threads)
            };
            let (dataset, edges) = pipeline.dataset_with_evidence(&inputs, None, None);
            assert_eq!(dataset.len(), 3);
            let frozen = FrozenDataset::from_payload(freeze(&inputs, &dataset, &edges, 0)).unwrap();
            for (idx, rec) in dataset.records().iter().enumerate() {
                let trace = attribution_trace(&inputs, &dataset, &edges, &rec.prefix);
                assert_eq!(
                    trace,
                    filter_trace(&inputs, &dataset, &edges, &rec.prefix),
                    "threads={threads}"
                );
                assert_eq!(frozen.provenance(idx as u32), trace.render());
            }

            let trace = pipeline.explain(&inputs, &hong_kong);
            let merges: Vec<&str> = trace
                .steps
                .iter()
                .filter(|s| s.rule == "cluster.merge")
                .map(|s| s.detail.as_str())
                .collect();
            // Both edges touch this record, and its steps follow the edge
            // list: the origin-ASN edge sorts first by its endpoint names.
            assert_eq!(edges.len(), 2, "{edges:?}");
            assert_eq!(
                merges,
                [
                    format!("merged with \"verizon business\": {}", edges[0].evidence),
                    format!("merged with \"verizon japan ltd\": {}", edges[1].evidence),
                ],
                "{}",
                trace.render()
            );
            assert!(edges[0]
                .evidence
                .starts_with("shared origin-ASN cluster 395753"));
            assert!(edges[1].evidence.starts_with("shared RPKI certificate"));
        }
    }
}
