//! RFC 8416-style local operator exceptions (SLURM for attribution).
//!
//! Operators who know better than the inference pipeline — a prefix leased
//! to a customer WHOIS never recorded, a hijacked announcement that must
//! not be attributed at all — express that knowledge as a JSONL file of
//! rules:
//!
//! ```text
//! {"prefix": "10.0.0.0/24", "action": "assert", "org": "Acme Corp"}
//! {"prefix": "192.0.2.0/24", "action": "filter"}
//! ```
//!
//! - `assert` overrides the record's **final attribution** with the given
//!   organization. The inferred DO/DC chain, registry, RPKI certificate,
//!   and ROV state stay visible under the override so the operator can
//!   still see what the pipeline would have said.
//! - `filter` removes the record entirely (bogus/hijacked announcements);
//!   lookups then fall back to any covering record.
//!
//! Rules are parsed through the lenient-ingest machinery
//! ([`p2o_util::ingest`]): malformed lines are quarantined with a typed
//! reason, valid rules survive, and the **last rule per prefix wins**
//! (deterministic regardless of interleaving). Application is a
//! deterministic post-resolution pass over the dataset, so the same world
//! plus the same exception file always yields the same records.

use std::collections::{BTreeMap, HashSet};

use p2o_net::Prefix;
use p2o_util::ingest::{IngestErrorKind, QuarantinedRecord};
use p2o_util::Json;

use crate::dataset::Prefix2OrgDataset;

/// What one exception rule does to its prefix's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExceptionAction {
    /// Override the final attribution with this organization.
    Assert(String),
    /// Drop the record entirely (bogus/hijacked announcement).
    Filter,
}

impl ExceptionAction {
    /// The rule's `action` keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            ExceptionAction::Assert(_) => "assert",
            ExceptionAction::Filter => "filter",
        }
    }
}

/// A parsed exception file: at most one winning rule per prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExceptionSet {
    rules: BTreeMap<Prefix, ExceptionAction>,
}

/// What applying an [`ExceptionSet`] did, for counters and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExceptionSummary {
    /// Records whose attribution was overridden by an `assert` rule.
    pub asserted: u64,
    /// Records removed by a `filter` rule.
    pub filtered: u64,
    /// Rules whose prefix had no record in the dataset.
    pub unmatched: u64,
}

impl ExceptionSet {
    /// An empty set (no file given).
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses exception JSONL leniently: every malformed line becomes a
    /// [`QuarantinedRecord`] (file name left for the caller to stamp),
    /// valid rules survive, and the last rule per prefix wins.
    pub fn parse_lenient(text: &str) -> (ExceptionSet, Vec<QuarantinedRecord>) {
        let mut set = ExceptionSet::new();
        let mut quarantined = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let offset = (idx + 1) as u64;
            match parse_rule(line) {
                Ok((prefix, action)) => {
                    set.rules.insert(prefix, action);
                }
                Err((kind, message)) => {
                    quarantined.push(QuarantinedRecord::new(
                        kind,
                        offset,
                        line.as_bytes(),
                        message,
                    ));
                }
            }
        }
        (set, quarantined)
    }

    /// Number of winning rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates `(prefix, action)` in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &ExceptionAction)> {
        self.rules.iter()
    }

    /// Applies every rule to the dataset: `assert` overrides the record's
    /// final attribution, `filter` removes the record. Rules whose prefix is
    /// not in the dataset are counted as unmatched and ignored. A prefix has
    /// one rule, so the order rules apply in cannot matter: the filtered
    /// records are removed together, after the asserts.
    pub fn apply(&self, dataset: &mut Prefix2OrgDataset) -> ExceptionSummary {
        let mut summary = ExceptionSummary::default();
        let mut filtered = HashSet::new();
        for (prefix, action) in &self.rules {
            match action {
                ExceptionAction::Assert(org) if dataset.assert_exception(prefix, org) => {
                    summary.asserted += 1
                }
                ExceptionAction::Filter if dataset.record(prefix).is_some() => {
                    filtered.insert(*prefix);
                }
                _ => summary.unmatched += 1,
            }
        }
        summary.filtered = filtered.len() as u64;
        dataset.remove_records(&filtered);
        summary
    }
}

/// Parses one JSONL rule line into `(prefix, action)`.
fn parse_rule(line: &str) -> Result<(Prefix, ExceptionAction), (IngestErrorKind, String)> {
    let doc = Json::parse(line)
        .map_err(|e| (IngestErrorKind::ExceptionBadLine, format!("not JSON: {e}")))?;
    if doc.as_object().is_none() {
        return Err((
            IngestErrorKind::ExceptionBadLine,
            "rule is not a JSON object".to_string(),
        ));
    }
    let prefix_text = doc.get("prefix").and_then(Json::as_str).ok_or((
        IngestErrorKind::ExceptionBadLine,
        "missing \"prefix\" field".to_string(),
    ))?;
    let action_text = doc.get("action").and_then(Json::as_str).ok_or((
        IngestErrorKind::ExceptionBadLine,
        "missing \"action\" field".to_string(),
    ))?;
    let prefix: Prefix = prefix_text.parse().map_err(|e| {
        (
            IngestErrorKind::ExceptionBadRule,
            format!("bad prefix {prefix_text:?}: {e}"),
        )
    })?;
    let action = match action_text {
        "assert" => {
            let org = doc
                .get("org")
                .and_then(Json::as_str)
                .filter(|o| !o.trim().is_empty())
                .ok_or((
                    IngestErrorKind::ExceptionBadRule,
                    "assert rule without an \"org\"".to_string(),
                ))?;
            ExceptionAction::Assert(org.to_string())
        }
        "filter" => ExceptionAction::Filter,
        other => {
            return Err((
                IngestErrorKind::ExceptionBadRule,
                format!("unknown action {other:?}"),
            ))
        }
    };
    Ok((prefix, action))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterId;
    use crate::pipeline::{Pipeline, PipelineInputs};
    use p2o_strings::clean::basic_clean;
    use p2o_synth::{World, WorldConfig};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The winning rules, in prefix order.
    fn rules(set: &ExceptionSet) -> Vec<(Prefix, &ExceptionAction)> {
        set.iter()
            .map(|(prefix, action)| (*prefix, action))
            .collect()
    }

    #[test]
    fn parses_assert_and_filter_rules() {
        let text = "\
{\"prefix\": \"10.0.0.0/24\", \"action\": \"assert\", \"org\": \"Acme Corp\"}\n\
\n\
{\"prefix\": \"192.0.2.0/24\", \"action\": \"filter\"}\n";
        let (set, quarantined) = ExceptionSet::parse_lenient(text);
        assert!(quarantined.is_empty());
        assert_eq!(set.len(), 2);
        assert_eq!(
            rules(&set),
            [
                (
                    p("10.0.0.0/24"),
                    &ExceptionAction::Assert("Acme Corp".to_string())
                ),
                (p("192.0.2.0/24"), &ExceptionAction::Filter),
            ]
        );
    }

    #[test]
    fn last_rule_per_prefix_wins() {
        let text = "\
{\"prefix\": \"10.0.0.0/24\", \"action\": \"filter\"}\n\
{\"prefix\": \"10.0.0.0/24\", \"action\": \"assert\", \"org\": \"Acme Corp\"}\n";
        let (set, quarantined) = ExceptionSet::parse_lenient(text);
        assert!(quarantined.is_empty());
        assert_eq!(
            rules(&set),
            [(
                p("10.0.0.0/24"),
                &ExceptionAction::Assert("Acme Corp".to_string())
            )]
        );
    }

    #[test]
    fn malformed_lines_are_quarantined_with_typed_reasons() {
        let text = "\
this is not json\n\
[1, 2, 3]\n\
{\"action\": \"assert\", \"org\": \"No Prefix Inc\"}\n\
{\"prefix\": \"10.0.0.0/24\"}\n\
{\"prefix\": \"not-a-prefix\", \"action\": \"filter\"}\n\
{\"prefix\": \"10.0.0.0/24\", \"action\": \"frobnicate\"}\n\
{\"prefix\": \"10.0.0.0/24\", \"action\": \"assert\"}\n\
{\"prefix\": \"10.0.0.0/24\", \"action\": \"assert\", \"org\": \"  \"}\n\
{\"prefix\": \"10.9.0.0/16\", \"action\": \"assert\", \"org\": \"Survivor LLC\"}\n";
        let (set, quarantined) = ExceptionSet::parse_lenient(text);
        // Only the last line is a valid rule; every bad line is captured.
        assert_eq!(
            rules(&set),
            [(
                p("10.9.0.0/16"),
                &ExceptionAction::Assert("Survivor LLC".to_string())
            )]
        );
        let kinds: Vec<IngestErrorKind> = quarantined.iter().map(|q| q.kind).collect();
        assert_eq!(
            kinds,
            vec![
                IngestErrorKind::ExceptionBadLine,
                IngestErrorKind::ExceptionBadLine,
                IngestErrorKind::ExceptionBadLine,
                IngestErrorKind::ExceptionBadLine,
                IngestErrorKind::ExceptionBadRule,
                IngestErrorKind::ExceptionBadRule,
                IngestErrorKind::ExceptionBadRule,
                IngestErrorKind::ExceptionBadRule,
            ]
        );
        // Offsets are 1-based line numbers of the bad lines.
        assert_eq!(quarantined[0].offset, 1);
        assert_eq!(quarantined[4].offset, 5);
        assert!(quarantined[4].message.contains("not-a-prefix"));
    }

    /// A mixed rule set removes its filtered records together: the records
    /// left, the `record` and `cluster_records` answers and the summary are
    /// those of applying each rule as a set of its own, one after another.
    #[test]
    fn a_rule_set_applies_as_its_rules_one_at_a_time() {
        let world = World::generate(WorldConfig::tiny(7));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let pipeline = Pipeline::with_threads(1);
        let original = pipeline.run(&inputs);
        let mut text = String::new();
        for (i, rec) in original.records().iter().enumerate() {
            if i % 3 == 0 {
                text += &format!("{{\"prefix\":\"{}\",\"action\":\"filter\"}}\n", rec.prefix);
            } else if i % 5 == 0 {
                text += &format!(
                    "{{\"prefix\":\"{}\",\"action\":\"assert\",\"org\":\"Org {i}\"}}\n",
                    rec.prefix
                );
            }
        }
        text += "{\"prefix\":\"192.0.2.0/24\",\"action\":\"filter\"}\n\
                 {\"prefix\":\"198.51.100.0/24\",\"action\":\"assert\",\"org\":\"None\"}\n";
        let (set, rejects) = ExceptionSet::parse_lenient(&text);
        assert!(rejects.is_empty(), "{rejects:?}");

        let mut batch = pipeline.run(&inputs);
        let summary = set.apply(&mut batch);
        let mut single = pipeline.run(&inputs);
        let mut want = ExceptionSummary::default();
        for (prefix, action) in set.iter() {
            let one = ExceptionSet {
                rules: BTreeMap::from([(*prefix, action.clone())]),
            };
            let s = one.apply(&mut single);
            want.asserted += s.asserted;
            want.filtered += s.filtered;
            want.unmatched += s.unmatched;
        }
        assert_eq!(summary, want);
        assert_eq!(summary.unmatched, 2);
        assert!(summary.asserted > 0 && summary.filtered > 0, "{summary:?}");
        assert_eq!(batch.len(), original.len() - summary.filtered as usize);
        assert_eq!(batch.records(), single.records());
        for rec in original.records() {
            assert_eq!(batch.record(&rec.prefix), single.record(&rec.prefix));
        }
        for id in (0..original.cluster_count() as u32).map(ClusterId) {
            assert!(
                batch.cluster_records(id).eq(single.cluster_records(id)),
                "cluster {id:?}"
            );
        }
        assert!(batch.clusters().eq(single.clusters()));
    }

    /// The organization match follows exception edits: after a rule set
    /// asserts and filters records of a dataset whose index was already
    /// built, `prefixes_of_org` answers from the edited records, as a scan
    /// of the rule over them and the index of their export do.
    #[test]
    fn the_org_match_follows_exception_edits() {
        let world = World::generate(WorldConfig::tiny(7));
        let built = world.build_inputs();
        let mut dataset = Pipeline::with_threads(1).run(&PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        });
        let taken = dataset.records()[0].final_cluster_label.clone();
        let mut text = String::new();
        for (i, rec) in dataset.records().iter().enumerate() {
            let org = match i % 4 {
                0 => "filter".to_string(),
                1 => format!("acme-{i}"),
                2 => taken.clone(),
                _ => continue,
            };
            text += &match org.as_str() {
                "filter" => format!("{{\"prefix\":\"{}\",\"action\":\"filter\"}}\n", rec.prefix),
                org => format!(
                    "{{\"prefix\":\"{}\",\"action\":\"assert\",\"org\":\"{org}\"}}\n",
                    rec.prefix
                ),
            };
        }
        let (set, rejects) = ExceptionSet::parse_lenient(&text);
        assert!(rejects.is_empty(), "{rejects:?}");
        let base = taken
            .rsplit_once('-')
            .expect("a roman suffix")
            .0
            .to_string();
        // The first four answers change: the base's cluster loses record 0
        // and gains the records asserted into it, `acme` names every
        // `acme-N` assert, and the empty fragment names every record.
        let fragments = [base.as_str(), "ACME", "Acme-5", "", "net", "o"];
        let before: Vec<Vec<Prefix>> = fragments
            .iter()
            .map(|f| dataset.prefixes_of_org(f))
            .collect();
        set.apply(&mut dataset);

        let exported: Vec<crate::ExportRecord> = dataset
            .records()
            .iter()
            .map(crate::ExportRecord::from)
            .collect();
        let index = crate::OrgIndex::of_export(&exported);
        for (i, (fragment, before)) in fragments.iter().zip(&before).enumerate() {
            let needle = basic_clean(fragment);
            let labels: std::collections::HashSet<&str> = dataset
                .records()
                .iter()
                .filter(|r| {
                    r.final_cluster_label == needle
                        || r.final_cluster_label.starts_with(&format!("{needle}-"))
                        || basic_clean(&r.direct_owner).contains(&needle)
                })
                .map(|r| r.final_cluster_label.as_str())
                .collect();
            let mut want: Vec<Prefix> = dataset
                .records()
                .iter()
                .filter(|r| labels.contains(r.final_cluster_label.as_str()))
                .map(|r| r.prefix)
                .collect();
            want.sort();
            let got = dataset.prefixes_of_org(fragment);
            assert_eq!(got, want, "fragment {fragment:?}");
            assert_eq!(index.prefixes_of(fragment), want, "fragment {fragment:?}");
            assert!(i >= 4 || got != *before, "fragment {fragment:?}");
        }
    }

    #[test]
    fn empty_input_is_an_empty_set() {
        let (set, quarantined) = ExceptionSet::parse_lenient("");
        assert!(set.is_empty());
        assert!(quarantined.is_empty());
        assert!(ExceptionSet::new().is_empty());
    }
}
