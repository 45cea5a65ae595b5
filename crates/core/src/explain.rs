//! `p2o explain <prefix>` — the provenance rule chain behind one mapping.
//!
//! A [`Trace`] records every rule consulted on the way to a record's
//! attribution: the routing-table lookup, the radix LPM walk over the
//! delegation tree, each WHOIS delegation matched (Direct Owner and
//! Delegated Customers), and the clustering evidence (base name, RPKI
//! certificate, origin-ASN clusters, merge edges) behind its final cluster.
//!
//! Each step is a typed [`Step`]: the facts a rule matched, not a rendered
//! sentence. Its [`TraceStep::write_detail`] is the one writer of each
//! rule's detail. Every surface answers from the frozen artifact, which
//! builds a record's steps from its stored fields
//! ([`FrozenDataset::provenance`](crate::FrozenDataset::provenance)).
//! [`attribution_trace`] builds the same steps from the pipeline's own
//! structures; it is the reference the frozen traces are tested against.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};

use p2o_net::Prefix;
use p2o_obs::{DecisionTrace, DetailSink, TraceStep};
use p2o_rpki::RovStatus;
use p2o_util::json::write_u64;
use p2o_whois::alloc::AllocationType;
use p2o_whois::Registry;

use crate::cluster::MergeEdge;
use crate::dataset::{Prefix2OrgDataset, PrefixRecord};
use crate::pipeline::PipelineInputs;
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

    /// Writes the values joined by `", "`, each after `tag`.
    fn write_list<W: fmt::Write + ?Sized>(&self, out: &mut W, tag: &str) -> fmt::Result {
        for (i, value) in self.iter().enumerate() {
            write_all(out, &[if i > 0 { ", " } else { "" }, tag])?;
            write_u64(out, value.into())?;
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
/// matched. The frozen artifact builds steps from a record's fields, its
/// chain steps, its pool slices, its cluster row and its owner's merge
/// rows; [`attribution_trace`] builds them from the pipeline's own
/// structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<'a> {
    /// `bgp.origins`: the routed prefix's origin ASNs, ascending.
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
}

impl TraceStep for Step<'_> {
    fn rule(&self) -> &str {
        match self {
            Step::Origins(_) => "bgp.origins",
            Step::Lpm(_) => "radix.lpm",
            Step::Customer { .. } => "whois.delegated_customer",
            Step::Owner { .. } => "whois.direct_owner",
            Step::BaseName { .. } => "cluster.base_name",
            Step::Certificate(_) => "rpki.certificate",
            Step::Rov(_) => "rpki.rov",
            Step::AsnClusters(_) => "as2org.clusters",
            Step::Merge { .. } => "cluster.merge",
            Step::Final { .. } => "cluster.final",
            Step::Asserted(_) => "local_exception",
        }
    }

    /// The one writer of each rule's detail. A trace is written once per
    /// served answer, so each detail is appended from its pieces with no
    /// formatting machinery: the rule's own text, and each name between
    /// quote marks or after its lead-in, through the sink.
    fn write_detail<W: fmt::Write + ?Sized>(&self, out: &mut DetailSink<'_, W>) -> fmt::Result {
        match self {
            Step::Origins(asns) => {
                out.write_str("routed, announced by ")?;
                asns.write_list(out, "AS")
            }
            Step::Lpm(walk) => {
                out.write_str("covering chain has ")?;
                write_u64(out, walk.blocks.into())?;
                out.write_str(" registered block(s) (")?;
                write_u64(out, walk.nodes.into())?;
                out.write_str(" radix nodes walked)")
            }
            Step::Customer { org, alloc, block } => {
                out.name(org)?;
                write_all(out, &[" via ", alloc.keyword(), " on "])?;
                block.write_to(out)
            }
            Step::Owner {
                org,
                alloc,
                block,
                registry,
            } => {
                out.name(org)?;
                write_all(out, &[" via ", alloc.keyword(), " on "])?;
                block.write_to(out)?;
                write_all(out, &[" [", registry.name(), "]"])
            }
            Step::BaseName { owner, base } => {
                out.quoted(owner)?;
                out.write_str(" reduces to base name ")?;
                out.quoted(base)
            }
            Step::Certificate(Some(cert)) => {
                out.write_str("covered by ")?;
                out.name(cert)
            }
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
                out.write_str("merged with ")?;
                out.quoted(other)?;
                out.write_str(": ")?;
                out.name(evidence)
            }
            Step::Final { label, names } => {
                out.write_str("final cluster ")?;
                out.quoted(label)?;
                out.write_str(" (")?;
                write_u64(out, (*names).into())?;
                out.write_str(" WHOIS name(s))")
            }
            Step::Asserted(org) => {
                out.write_str("operator rule overrides attribution to ")?;
                out.quoted(org)
            }
        }
    }
}

/// Writes `parts` in order.
fn write_all<W: fmt::Write + ?Sized>(out: &mut W, parts: &[&str]) -> fmt::Result {
    parts.iter().try_for_each(|part| out.write_str(part))
}

/// The routing and resolution steps of a record prefix's trace: its origin
/// ASNs, then the traced resolution walk down to the Direct Owner.
fn trace_prelude<'a>(inputs: &PipelineInputs<'a>, prefix: &Prefix) -> Trace<'a> {
    let mut trace = Trace::new(prefix.to_string());
    let origins = inputs.routes.origins(prefix).into_iter().flatten();
    trace.push(Step::Origins(Numbers::of(origins.copied())));
    Resolver
        .resolve_traced(inputs.delegations, prefix, &mut trace)
        .expect("a record prefix has a covering Direct Owner");
    trace
}

/// Merge edges indexed by endpoint name: for each name, the edges naming
/// it as `a` or `b`, in list order. Built once per freeze, so an owner's
/// merge steps cost one hash lookup instead of a scan of every edge.
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

/// Appends the clustering evidence steps for `record` of `dataset`: base
/// name, RPKI certificate, ROV state, origin-ASN clusters, every merge edge
/// touching the Direct Owner, the final cluster label, and the operator
/// override if any.
///
/// Merge edges name basic-cleaned 𝒲 clusters while the match is on the raw
/// Direct Owner, so an owner whose WHOIS name is not already lowercase and
/// single-spaced gets no merge steps. Kept as is: matching on the cleaned
/// name gives 7,392 merge steps to 1,649 of the 3,154 default seed-7
/// records, which makes the mean `/batch` answer 28% longer (990 → 1,268
/// B) and perfbench's `lookup-default` `batch_p90_ms` 24% slower, just
/// inside its 25% bound; it changes what every surface answers, so it is
/// a change of its own.
fn push_cluster_steps<'a>(
    trace: &mut Trace<'a>,
    dataset: &'a Prefix2OrgDataset,
    merge_edges: &MergeIndex<'a>,
    record: &'a PrefixRecord,
) {
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

/// The decision trace of `prefix`'s record, built from the pipeline's own
/// structures: `dataset` and `merge_edges` as
/// [`Pipeline::dataset_with_evidence`](crate::Pipeline::dataset_with_evidence)
/// returns them, with any operator exceptions already applied. It is the
/// reference the frozen artifact is held to:
/// [`FrozenDataset::provenance`](crate::FrozenDataset::provenance) renders
/// the record's trace as this one renders.
///
/// # Panics
///
/// When `prefix` is not a record prefix of `dataset`.
pub fn attribution_trace<'a>(
    inputs: &PipelineInputs<'a>,
    dataset: &'a Prefix2OrgDataset,
    merge_edges: &'a [MergeEdge],
    prefix: &Prefix,
) -> Trace<'a> {
    let record = dataset
        .record(prefix)
        .unwrap_or_else(|| panic!("{prefix} is not a record prefix"));
    let mut trace = trace_prelude(inputs, prefix);
    push_cluster_steps(&mut trace, dataset, &MergeIndex::new(merge_edges), record);
    trace
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::ClusterOptions;
    use crate::frozen::{freeze, FrozenDataset};
    use crate::Pipeline;
    use p2o_rpki::{IpResourceSet, RpkiRepository, ValidatedRepo};
    use p2o_util::check::Gen;
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

    /// The trace names every rule it consults and is the same whatever
    /// thread count built the dataset.
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
        let [seq, par] = [1, 4].map(|threads| {
            let (dataset, edges) =
                Pipeline::with_threads(threads).dataset_with_evidence(&inputs, None);
            let trace = attribution_trace(&inputs, &dataset, &edges, &prefix);
            for rule in [
                "bgp.origins",
                "radix.lpm",
                "whois.delegated_customer",
                "whois.direct_owner",
                "cluster.base_name",
                "rpki.certificate",
                "rpki.rov",
                "as2org.clusters",
                "cluster.final",
            ] {
                assert!(trace.used(rule), "missing rule {rule}:\n{}", trace.render());
            }
            trace.render()
        });
        assert_eq!(seq, par);
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
        let prelude = trace_prelude(inputs, prefix);
        let mut trace = DecisionTrace::new(prelude.subject.clone());
        for step in &prelude.steps {
            trace.push((step.rule().to_string(), detail(step)));
        }
        let record = dataset.record(prefix).expect("a record prefix");
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
        step.write_detail(&mut DetailSink::text(&mut out)).unwrap();
        out
    }

    /// A name that needs every kind of care: quotes, backslashes, C0
    /// controls, non-ASCII text, or nothing at all.
    fn awkward_name(g: &mut Gen) -> Cow<'static, str> {
        let mut name = String::new();
        for _ in 0..g.below(6) {
            match g.below(4) {
                0 => name.push(char::from(g.below(0x20) as u8)),
                1 => name.push(*g.pick(&['"', '\\', '\u{7f}'])),
                _ => name.push_str(&g.unicode_string(6)),
            }
        }
        Cow::Owned(name)
    }

    fn any_prefix(g: &mut Gen) -> Prefix {
        if g.bool() {
            Prefix::V4(p2o_net::Prefix4::new_truncated(g.u32(), g.below(33) as u8))
        } else {
            Prefix::V6(p2o_net::Prefix6::new_truncated(
                g.u128(),
                g.below(129) as u8,
            ))
        }
    }

    /// A random step of kind `kind`: one of the eleven variants, with an
    /// absent certificate and an empty cluster list as kinds of their own.
    fn any_step(g: &mut Gen, kind: usize) -> Step<'static> {
        let numbers = |g: &mut Gen| Numbers::of((0..g.range(1, 4)).map(|_| g.u32() >> g.below(32)));
        match kind {
            0 => Step::Origins(numbers(g)),
            1 => Step::Lpm(LpmWalk {
                blocks: g.u32() as u8,
                nodes: g.u32() as u8,
            }),
            2 => Step::Customer {
                org: awkward_name(g),
                alloc: *g.pick(&AllocationType::ALL),
                block: any_prefix(g),
            },
            3 => Step::Owner {
                org: awkward_name(g),
                alloc: *g.pick(&AllocationType::ALL),
                block: any_prefix(g),
                registry: *g.pick(&Registry::ALL),
            },
            4 => Step::BaseName {
                owner: awkward_name(g),
                base: awkward_name(g),
            },
            5 => Step::Certificate(Some(awkward_name(g))),
            6 => Step::Certificate(None),
            7 => Step::Rov(*g.pick(&RovStatus::ALL)),
            8 => Step::AsnClusters(numbers(g)),
            9 => Step::AsnClusters(Numbers::of([])),
            10 => Step::Merge {
                other: awkward_name(g),
                evidence: awkward_name(g),
            },
            11 => Step::Final {
                label: awkward_name(g),
                names: g.u32() >> g.below(32),
            },
            _ => Step::Asserted(awkward_name(g)),
        }
    }

    /// Property: over every step variant, with names that need escaping,
    /// the JSON sink writes exactly the escaped text of the text sink, one
    /// detail at a time and as a whole trace. So the step's own text (every
    /// allocation type, registry and ROV word included) needs no escaping,
    /// and every name is marked as one.
    #[test]
    fn json_sink_is_the_escaped_text_sink_for_every_step_variant() {
        const KINDS: usize = 13;
        let mut seen = [0usize; KINDS];
        p2o_util::check::run_cases(2000, |g| {
            let steps: Vec<Step<'static>> = (0..g.range(1, 6))
                .map(|_| {
                    let kind = g.below(KINDS);
                    seen[kind] += 1;
                    any_step(g, kind)
                })
                .collect();
            for step in &steps {
                let mut json = String::from("\"");
                step.write_detail(&mut DetailSink::json(&mut json)).unwrap();
                json.push('"');
                let mut escaped = String::new();
                p2o_util::json::write_escaped(&mut escaped, &detail(step)).unwrap();
                assert_eq!(json, escaped, "{step:?}");
            }
            let subject = any_prefix(g).text();
            let mut text = String::new();
            p2o_obs::provenance::write_trace(&mut text, &subject, steps.iter()).unwrap();
            let mut json = String::new();
            p2o_obs::provenance::write_trace_json(&mut json, &subject, steps.iter()).unwrap();
            let mut escaped = String::new();
            p2o_util::json::write_escaped(&mut escaped, &text).unwrap();
            assert_eq!(json, escaped);
        });
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
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
            let (dataset, edges) = pipeline.dataset_with_evidence(&inputs, None);
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

            let trace = attribution_trace(&inputs, &dataset, &edges, &hong_kong);
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
