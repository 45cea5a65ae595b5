//! `p2o explain <prefix>` — the provenance rule chain behind one mapping.
//!
//! [`Pipeline::explain`] replays the decision a full run would make for a
//! single prefix and records every rule consulted along the way in a
//! [`Trace`]: the routing-table lookup, the radix LPM walk over the
//! delegation tree, each WHOIS delegation matched (Direct Owner and
//! Delegated Customers), and the clustering evidence (base name, RPKI
//! certificate, origin-ASN clusters, merge edges) behind its final cluster.
//!
//! Each step is a typed [`Step`]: the facts a rule matched, not a rendered
//! sentence. Its [`TraceStep::write_detail`] is the one writer of each
//! rule's detail, so the live paths here and the frozen artifact, which
//! builds the same steps from a record's stored fields, print the same
//! text.
//!
//! The trace construction is split in two layers so a long-running service
//! can reuse it without re-running the pipeline per query:
//! [`attribution_trace`] builds the chain against an *already computed*
//! dataset and merge-edge list, while [`Pipeline::explain`] computes them
//! on the fly and then delegates — guaranteeing the two paths render
//! byte-identical attributions for any prefix the dataset covers.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use p2o_net::Prefix;
use p2o_obs::{DecisionTrace, TraceStep};
use p2o_rpki::RovStatus;
use p2o_whois::alloc::AllocationType;
use p2o_whois::Registry;

use crate::cluster::MergeEdge;
use crate::dataset::Prefix2OrgDataset;
use crate::exceptions::{ExceptionAction, ExceptionSet};
use crate::pipeline::{Pipeline, PipelineInputs};
use crate::resolve::{LpmWalk, Resolver};

/// A decision trace of typed [`Step`]s.
pub type Trace<'a> = DecisionTrace<Step<'a>>;

/// The numbers a step lists (origin ASNs, origin-ASN cluster ids) as
/// little-endian `u32`s: borrowed from a frozen artifact's pool, where they
/// are stored that way, or encoded from values in memory.
#[derive(Clone, PartialEq, Eq)]
pub struct Numbers<'a>(Cow<'a, [u8]>);

impl<'a> Numbers<'a> {
    /// Little-endian `u32`s, as the frozen pool stores them.
    pub(crate) fn le(bytes: &'a [u8]) -> Numbers<'a> {
        debug_assert_eq!(bytes.len() % 4, 0);
        Numbers(Cow::Borrowed(bytes))
    }

    /// `values`, in order.
    pub fn of(values: impl IntoIterator<Item = u32>) -> Numbers<'static> {
        Numbers(Cow::Owned(
            values.into_iter().flat_map(u32::to_le_bytes).collect(),
        ))
    }

    /// The values, in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn into_owned(self) -> Numbers<'static> {
        Numbers(Cow::Owned(self.0.into_owned()))
    }

    /// Writes the values joined by `", "`, each after `tag`.
    fn write_list<W: fmt::Write + ?Sized>(&self, out: &mut W, tag: &str) -> fmt::Result {
        for (i, value) in self.iter().enumerate() {
            write_all(out, &[if i > 0 { ", " } else { "" }, tag])?;
            write_u32(out, value)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Numbers<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One rule applied on the way to an attribution, holding the facts it
/// matched. The live paths build steps from the pipeline's own structures;
/// the frozen artifact builds them from a record's fields, its chain steps,
/// its pool slices, its cluster row and its owner's merge rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<'a> {
    /// `bgp.origins`: the prefix's origin ASNs, ascending; none when the
    /// prefix is not in the routing table.
    Origins(Numbers<'a>),
    /// `radix.lpm`: the walk over the delegation tree.
    Lpm(LpmWalk),
    /// `whois.delegated_customer`: one sub-delegation on the chain.
    Customer {
        /// The Delegated Customer's organization name.
        org: Cow<'a, str>,
        /// Its allocation type.
        alloc: AllocationType,
        /// The registered block.
        block: Prefix,
    },
    /// `whois.direct_owner`: the delegation naming the Direct Owner.
    Owner {
        /// The Direct Owner's organization name.
        org: Cow<'a, str>,
        /// Its allocation type.
        alloc: AllocationType,
        /// The registered block.
        block: Prefix,
        /// The registry holding the delegation.
        registry: Registry,
    },
    /// `whois.unresolved`: no covering Direct Owner delegation.
    Unresolved,
    /// `cluster.base_name`: the owner's name and the base name it reduces to.
    BaseName {
        /// The Direct Owner's WHOIS name.
        owner: Cow<'a, str>,
        /// Its base name.
        base: Cow<'a, str>,
    },
    /// `rpki.certificate`: the child-most covering Resource Certificate.
    Certificate(Option<Cow<'a, str>>),
    /// `rpki.rov`: the route origin validation state.
    Rov(RovStatus),
    /// `as2org.clusters`: the origin ASNs' sibling-cluster ids.
    AsnClusters(Numbers<'a>),
    /// `cluster.merge`: one merge edge touching the owner's exact-name
    /// cluster.
    Merge {
        /// The cleaned name at the edge's other end.
        other: Cow<'a, str>,
        /// The edge's evidence.
        evidence: Cow<'a, str>,
    },
    /// `cluster.final`: the inferred final cluster. Under an operator
    /// override it still names what the pipeline concluded.
    Final {
        /// The inferred cluster label.
        label: Cow<'a, str>,
        /// How many WHOIS names the cluster holds.
        names: u32,
    },
    /// `local_exception`: an operator `assert` rule's organization.
    Asserted(Cow<'a, str>),
    /// `local_exception`: an operator `filter` rule removed the record.
    Filtered,
}

impl Step<'_> {
    /// The step with every borrowed field copied.
    fn into_owned(self) -> Step<'static> {
        let own = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        match self {
            Step::Origins(asns) => Step::Origins(asns.into_owned()),
            Step::Lpm(walk) => Step::Lpm(walk),
            Step::Customer { org, alloc, block } => Step::Customer {
                org: own(org),
                alloc,
                block,
            },
            Step::Owner {
                org,
                alloc,
                block,
                registry,
            } => Step::Owner {
                org: own(org),
                alloc,
                block,
                registry,
            },
            Step::Unresolved => Step::Unresolved,
            Step::BaseName { owner, base } => Step::BaseName {
                owner: own(owner),
                base: own(base),
            },
            Step::Certificate(cert) => Step::Certificate(cert.map(own)),
            Step::Rov(rov) => Step::Rov(rov),
            Step::AsnClusters(ids) => Step::AsnClusters(ids.into_owned()),
            Step::Merge { other, evidence } => Step::Merge {
                other: own(other),
                evidence: own(evidence),
            },
            Step::Final { label, names } => Step::Final {
                label: own(label),
                names,
            },
            Step::Asserted(org) => Step::Asserted(own(org)),
            Step::Filtered => Step::Filtered,
        }
    }
}

impl TraceStep for Step<'_> {
    fn rule(&self) -> &str {
        match self {
            Step::Origins(_) => "bgp.origins",
            Step::Lpm(_) => "radix.lpm",
            Step::Customer { .. } => "whois.delegated_customer",
            Step::Owner { .. } => "whois.direct_owner",
            Step::Unresolved => "whois.unresolved",
            Step::BaseName { .. } => "cluster.base_name",
            Step::Certificate(_) => "rpki.certificate",
            Step::Rov(_) => "rpki.rov",
            Step::AsnClusters(_) => "as2org.clusters",
            Step::Merge { .. } => "cluster.merge",
            Step::Final { .. } => "cluster.final",
            Step::Asserted(_) | Step::Filtered => "local_exception",
        }
    }

    /// The one writer of each rule's detail. A trace is written once per
    /// served answer, so each detail is appended from its pieces with no
    /// formatting machinery.
    fn write_detail<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            Step::Origins(asns) if asns.0.is_empty() => {
                out.write_str("not in the routing table (hypothetical mapping)")
            }
            Step::Origins(asns) => {
                out.write_str("routed, announced by ")?;
                asns.write_list(out, "AS")
            }
            Step::Lpm(walk) => {
                out.write_str("covering chain has ")?;
                write_u32(out, walk.blocks.into())?;
                out.write_str(" registered block(s) (")?;
                write_u32(out, walk.nodes.into())?;
                out.write_str(" radix nodes walked)")
            }
            Step::Customer { org, alloc, block } => {
                write_all(out, &[org, " via ", alloc.keyword(), " on "])?;
                block.write_to(out)
            }
            Step::Owner {
                org,
                alloc,
                block,
                registry,
            } => {
                write_all(out, &[org, " via ", alloc.keyword(), " on "])?;
                block.write_to(out)?;
                write_all(out, &[" [", registry.name(), "]"])
            }
            Step::Unresolved => {
                out.write_str("no covering Direct Owner delegation — prefix stays unmapped")
            }
            Step::BaseName { owner, base } => write_all(
                out,
                &["\"", owner, "\" reduces to base name \"", base, "\""],
            ),
            Step::Certificate(Some(cert)) => write_all(out, &["covered by ", cert]),
            Step::Certificate(None) => out.write_str("no covering validated Resource Certificate"),
            Step::Rov(rov) => write_all(out, &["route origin validation: ", rov.as_str()]),
            Step::AsnClusters(ids) if ids.0.is_empty() => {
                out.write_str("origin ASNs map to no sibling cluster")
            }
            Step::AsnClusters(ids) => {
                out.write_str("origin ASN cluster(s) ")?;
                ids.write_list(out, "")
            }
            Step::Merge { other, evidence } => {
                write_all(out, &["merged with \"", other, "\": ", evidence])
            }
            Step::Final { label, names } => {
                write_all(out, &["final cluster \"", label, "\" ("])?;
                write_u32(out, *names)?;
                out.write_str(" WHOIS name(s))")
            }
            Step::Asserted(org) => write_all(
                out,
                &["operator rule overrides attribution to \"", org, "\""],
            ),
            Step::Filtered => out.write_str("filtered as bogus by operator rule: no attribution"),
        }
    }
}

/// Writes `parts` in order.
fn write_all<W: fmt::Write + ?Sized>(out: &mut W, parts: &[&str]) -> fmt::Result {
    parts.iter().try_for_each(|part| out.write_str(part))
}

/// Writes `value` in decimal.
fn write_u32<W: fmt::Write + ?Sized>(out: &mut W, mut value: u32) -> fmt::Result {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"))
}

/// The shared trace prelude: routing-table consultation plus the traced
/// resolution walk. Returns the trace and whether resolution found a
/// covering Direct Owner (when it did not, the chain already ends at the
/// `whois.unresolved` step and no cluster steps apply).
fn trace_prelude<'a>(inputs: &PipelineInputs<'a>, prefix: &Prefix) -> (Trace<'a>, bool) {
    let mut trace = Trace::new(prefix.to_string());
    let origins = inputs.routes.origins(prefix).into_iter().flatten();
    trace.push(Step::Origins(Numbers::of(origins.copied())));
    let resolved = Resolver
        .resolve_traced(inputs.delegations, prefix, &mut trace)
        .is_some();
    (trace, resolved)
}

/// Merge edges indexed by endpoint name: for each name, the edges naming
/// it as `a` or `b`, in list order. Built once per freeze or `explain`, so
/// an owner's merge steps cost one hash lookup instead of a scan of every
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

    /// The merges naming `name` as an endpoint (exact string match): the
    /// name at each edge's other end and the edge's evidence, in list
    /// order.
    pub(crate) fn merges<'s>(
        &'s self,
        name: &'s str,
    ) -> impl Iterator<Item = (&'e str, &'e str)> + 's {
        self.by_name
            .get(name)
            .into_iter()
            .flatten()
            .map(move |edge| {
                let other = if edge.a == name { &edge.b } else { &edge.a };
                (other.as_str(), edge.evidence.as_str())
            })
    }
}

/// Appends the clustering evidence steps for `prefix`'s record in
/// `dataset`: base name, RPKI certificate, origin-ASN clusters, every merge
/// edge touching the Direct Owner, and the final cluster label.
///
/// Merge edges name basic-cleaned 𝒲 clusters while the match is on the raw
/// Direct Owner, so an owner whose WHOIS name is not already lowercase and
/// single-spaced gets no merge steps. Kept as is: matching on the cleaned
/// name gives 7,392 merge steps to 1,649 of the 3,154 default seed-7
/// records, which makes the mean `/batch` answer 28% longer (990 → 1,268
/// B) and perfbench's `lookup-default` `batch_p50_ms` 33–36% slower, past
/// its 25% bound.
fn push_cluster_steps<'a>(
    trace: &mut Trace<'a>,
    dataset: &'a Prefix2OrgDataset,
    merge_edges: &MergeIndex<'a>,
    prefix: &Prefix,
) {
    let Some(record) = dataset.record(prefix) else {
        return;
    };
    trace.push(Step::BaseName {
        owner: Cow::Borrowed(&record.direct_owner),
        base: Cow::Borrowed(&record.base_name),
    });
    trace.push(Step::Certificate(
        record.rpki_certificate.as_deref().map(Cow::Borrowed),
    ));
    trace.push(Step::Rov(record.rov));
    trace.push(Step::AsnClusters(Numbers::of(
        record.origin_asn_clusters.iter().copied(),
    )));
    for (other, evidence) in merge_edges.merges(&record.direct_owner) {
        trace.push(Step::Merge {
            other: Cow::Borrowed(other),
            evidence: Cow::Borrowed(evidence),
        });
    }
    // The inferred label by cluster id: under an operator override the
    // record's own label carries the asserted org, while this step keeps
    // showing what the pipeline concluded.
    trace.push(Step::Final {
        label: Cow::Borrowed(dataset.cluster_label(record.cluster)),
        names: dataset.cluster_names(record.cluster).len() as u32,
    });
    if let Some(org) = &record.local_exception {
        trace.push(Step::Asserted(Cow::Borrowed(org)));
    }
}

/// Builds the full decision trace for `prefix` against an already-computed
/// `dataset` and `merge_edges`, as [`Pipeline::dataset_with_evidence`]
/// returns them.
///
/// For any prefix with a record in `dataset`, the result is byte-identical
/// to [`Pipeline::explain`] on the same inputs, and to what the frozen
/// artifact renders for the record. Prefixes the dataset does not cover
/// still get the routing and resolution steps; the chain simply ends
/// there.
pub fn attribution_trace<'a>(
    inputs: &PipelineInputs<'a>,
    dataset: &'a Prefix2OrgDataset,
    merge_edges: &'a [MergeEdge],
    prefix: &Prefix,
) -> Trace<'a> {
    attribution_trace_with(inputs, dataset, merge_edges, None, prefix)
}

/// [`attribution_trace`] with local operator exceptions in view.
///
/// `dataset` must already have the exceptions applied (asserted overrides
/// render from the record itself); the set is only consulted to explain
/// prefixes a `filter` rule removed — without it a filtered prefix is
/// indistinguishable from one the pipeline never attributed.
pub fn attribution_trace_with<'a>(
    inputs: &PipelineInputs<'a>,
    dataset: &'a Prefix2OrgDataset,
    merge_edges: &'a [MergeEdge],
    exceptions: Option<&ExceptionSet>,
    prefix: &Prefix,
) -> Trace<'a> {
    let (mut trace, resolved) = trace_prelude(inputs, prefix);
    if !resolved {
        return trace;
    }
    if let Some(set) = exceptions {
        if matches!(set.rule(prefix), Some(ExceptionAction::Filter)) {
            trace.push(Step::Filtered);
            return trace;
        }
    }
    push_cluster_steps(&mut trace, dataset, &MergeIndex::new(merge_edges), prefix);
    trace
}

/// `trace` with every step's borrowed fields copied.
fn owned(trace: Trace<'_>) -> Trace<'static> {
    DecisionTrace {
        subject: trace.subject,
        steps: trace.steps.into_iter().map(Step::into_owned).collect(),
    }
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
    pub fn explain(&self, inputs: &PipelineInputs<'_>, prefix: &Prefix) -> Trace<'static> {
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
    ) -> Trace<'static> {
        let (trace, resolved) = trace_prelude(inputs, prefix);
        if !resolved {
            return owned(trace);
        }

        // Re-run resolution over the routed table (plus this prefix, when it
        // is not routed) and cluster with merge evidence, so the final label
        // and every merge touching this owner can be reported.
        let (mut dataset, merge_edges) = self.dataset_with_evidence(inputs, Some(prefix), None);
        if let Some(set) = exceptions {
            set.apply(&mut dataset);
        }
        owned(attribution_trace_with(
            inputs,
            &dataset,
            &merge_edges,
            exceptions,
            prefix,
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// The trace as it was built before typed steps: each cluster detail a
    /// `format!` string, every merge edge string-compared with the record's
    /// Direct Owner. Kept as the oracle for the detail text and the merge
    /// order.
    fn filter_trace(
        inputs: &PipelineInputs<'_>,
        dataset: &Prefix2OrgDataset,
        merge_edges: &[MergeEdge],
        prefix: &Prefix,
    ) -> DecisionTrace<(String, String)> {
        let (prelude, resolved) = trace_prelude(inputs, prefix);
        let mut trace = DecisionTrace::new(prelude.subject.clone());
        for step in &prelude.steps {
            trace.push((step.rule().to_string(), detail(step)));
        }
        let Some(record) = dataset.record(prefix).filter(|_| resolved) else {
            return trace;
        };
        let mut push = |rule: &str, detail: String| trace.push((rule.to_string(), detail));
        push(
            "cluster.base_name",
            format!(
                "\"{}\" reduces to base name \"{}\"",
                record.direct_owner, record.base_name
            ),
        );
        match &record.rpki_certificate {
            Some(cert) => push("rpki.certificate", format!("covered by {cert}")),
            None => push(
                "rpki.certificate",
                "no covering validated Resource Certificate".to_string(),
            ),
        }
        push(
            "rpki.rov",
            format!("route origin validation: {}", record.rov.as_str()),
        );
        if record.origin_asn_clusters.is_empty() {
            push(
                "as2org.clusters",
                "origin ASNs map to no sibling cluster".to_string(),
            );
        } else {
            let list = record
                .origin_asn_clusters
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            push("as2org.clusters", format!("origin ASN cluster(s) {list}"));
        }
        let owner = &record.direct_owner;
        for edge in merge_edges
            .iter()
            .filter(|e| e.a == *owner || e.b == *owner)
        {
            let other = if edge.a == *owner { &edge.b } else { &edge.a };
            push(
                "cluster.merge",
                format!("merged with \"{other}\": {}", edge.evidence),
            );
        }
        push(
            "cluster.final",
            format!(
                "final cluster \"{}\" ({} WHOIS name(s))",
                dataset.cluster_label(record.cluster),
                dataset.cluster_names(record.cluster).len()
            ),
        );
        if let Some(org) = &record.local_exception {
            push(
                "local_exception",
                format!("operator rule overrides attribution to \"{org}\""),
            );
        }
        trace
    }

    fn detail(step: &Step<'_>) -> String {
        let mut out = String::new();
        step.write_detail(&mut out).unwrap();
        out
    }

    /// Direct Owner names that are already lowercase and single-spaced,
    /// so they equal the cleaned names the merge edges carry. "verizon hong
    /// kong ltd" shares a certificate with "verizon japan ltd" and origin
    /// AS395753 with "verizon business".
    pub(crate) fn merge_fixture() -> (
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
                    trace.render(),
                    filter_trace(&inputs, &dataset, &edges, &rec.prefix).render(),
                    "threads={threads}"
                );
                assert_eq!(frozen.provenance(idx as u32), trace.render());
            }

            let trace = pipeline.explain(&inputs, &hong_kong);
            let merges: Vec<String> = trace
                .steps
                .iter()
                .filter(|s| s.rule() == "cluster.merge")
                .map(detail)
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
