//! Dataset export/import — the "public dataset" surface of the paper
//! (the authors publish Prefix2Org on Zenodo as per-prefix JSON records;
//! Listing 1 shows the shape).
//!
//! The export format is JSON Lines: one self-contained object per routed
//! prefix, with stable machine-friendly field names (the pretty Listing-1
//! rendering with display names lives in
//! [`Prefix2OrgDataset::record_json`]). Import round-trips every field
//! needed to query a snapshot without re-running the pipeline.
//!
//! One writer lays out every export line: `write_export_json`, from
//! borrowed field values through the one JSON escaper. [`to_jsonl`] feeds
//! it each [`PrefixRecord`]; the frozen artifact feeds it straight from its
//! arena ([`crate::FrozenDataset::write_export_json`]), both for its own
//! export and for the thaw check that proves the two agree.
//! [`ExportRecord::to_json`] builds the same object as a [`Json`] tree and
//! is the writer's test oracle.

use std::fmt;

use p2o_net::Prefix;
use p2o_rpki::RovStatus;
use p2o_util::json::{write_escaped, write_u32_array};
use p2o_util::Json;
use p2o_whois::alloc::AllocationType;
use p2o_whois::Registry;

use crate::dataset::{Prefix2OrgDataset, PrefixRecord};

/// One exported record, with plain machine-friendly field names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportRecord {
    /// The routed prefix.
    pub prefix: Prefix,
    /// The registry of the Direct Owner record.
    pub registry: Registry,
    /// The Direct Owner's WHOIS organization name.
    pub direct_owner: String,
    /// The Direct Owner delegation's block.
    pub do_prefix: Prefix,
    /// The Direct Owner delegation's allocation type.
    pub do_alloc: AllocationType,
    /// Delegated Customer chain: `(name, prefix, allocation type)`.
    pub delegated_customers: Vec<(String, Prefix, AllocationType)>,
    /// The Direct Owner's base name.
    pub base_name: String,
    /// The child-most Resource Certificate id, colon-hex.
    pub rpki_certificate: Option<String>,
    /// The origin ASN cluster ids.
    pub origin_asn_clusters: Vec<u32>,
    /// RFC 6811 validation state of the prefix's announcements.
    pub rov: RovStatus,
    /// The final cluster label.
    pub final_cluster: String,
    /// The asserted organization when a local operator exception overrode
    /// the attribution.
    pub local_exception: Option<String>,
}

impl From<&PrefixRecord> for ExportRecord {
    fn from(rec: &PrefixRecord) -> Self {
        ExportRecord {
            prefix: rec.prefix,
            registry: rec.registry,
            direct_owner: rec.direct_owner.clone(),
            do_prefix: rec.do_prefix,
            do_alloc: rec.do_alloc,
            delegated_customers: rec
                .delegated_customers
                .iter()
                .map(|s| (s.org_name.clone(), s.prefix, s.alloc))
                .collect(),
            base_name: rec.base_name.clone(),
            rpki_certificate: rec.rpki_certificate.clone(),
            origin_asn_clusters: rec.origin_asn_clusters.clone(),
            rov: rec.rov,
            final_cluster: rec.final_cluster_label.clone(),
            local_exception: rec.local_exception.clone(),
        }
    }
}

fn alloc_name(t: AllocationType) -> String {
    format!("{t:?}")
}

fn parse_alloc(s: &str) -> Option<AllocationType> {
    AllocationType::ALL
        .into_iter()
        .find(|t| format!("{t:?}") == s)
}

impl ExportRecord {
    /// The record as one JSON object (prefixes and the registry as their
    /// display strings, allocation types as their variant names): the
    /// export writer's test oracle. The export itself is written without
    /// building a tree, by `write_export_json`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("prefix", self.prefix.to_string());
        o.set("registry", self.registry.to_string());
        o.set("direct_owner", self.direct_owner.as_str());
        o.set("do_prefix", self.do_prefix.to_string());
        o.set("do_alloc", alloc_name(self.do_alloc));
        o.set(
            "delegated_customers",
            self.delegated_customers
                .iter()
                .map(|(name, prefix, alloc)| {
                    Json::Arr(vec![
                        Json::from(name.as_str()),
                        Json::from(prefix.to_string()),
                        Json::from(alloc_name(*alloc)),
                    ])
                })
                .collect::<Vec<Json>>(),
        );
        o.set("base_name", self.base_name.as_str());
        o.set(
            "rpki_certificate",
            match &self.rpki_certificate {
                Some(id) => Json::from(id.as_str()),
                None => Json::Null,
            },
        );
        o.set(
            "origin_asn_clusters",
            self.origin_asn_clusters
                .iter()
                .map(|&c| Json::from(c))
                .collect::<Vec<Json>>(),
        );
        o.set("rov", self.rov.as_str());
        o.set("final_cluster", self.final_cluster.as_str());
        if let Some(org) = &self.local_exception {
            o.set("local_exception", org.as_str());
        }
        o
    }

    /// Parses one JSON object back into a record.
    pub fn from_json(doc: &Json) -> Result<ExportRecord, String> {
        fn str_field<'a>(doc: &'a Json, name: &str) -> Result<&'a str, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing or non-string field {name:?}"))
        }
        fn prefix_field(doc: &Json, name: &str) -> Result<Prefix, String> {
            str_field(doc, name)?
                .parse()
                .map_err(|e| format!("field {name:?}: {e}"))
        }
        let delegated_customers = doc
            .get("delegated_customers")
            .and_then(Json::as_array)
            .ok_or("missing delegated_customers")?
            .iter()
            .map(|step| {
                let items = step
                    .as_array()
                    .filter(|a| a.len() == 3)
                    .ok_or("bad delegated customer step")?;
                let name = items[0].as_str().ok_or("bad customer name")?.to_string();
                let prefix: Prefix = items[1]
                    .as_str()
                    .and_then(|s| s.parse().ok())
                    .ok_or("bad customer prefix")?;
                let alloc = items[2]
                    .as_str()
                    .and_then(parse_alloc)
                    .ok_or("bad customer alloc")?;
                Ok((name, prefix, alloc))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ExportRecord {
            prefix: prefix_field(doc, "prefix")?,
            registry: str_field(doc, "registry")?
                .parse()
                .map_err(|e| format!("field \"registry\": {e}"))?,
            direct_owner: str_field(doc, "direct_owner")?.to_string(),
            do_prefix: prefix_field(doc, "do_prefix")?,
            do_alloc: parse_alloc(str_field(doc, "do_alloc")?).ok_or("bad do_alloc")?,
            delegated_customers,
            base_name: str_field(doc, "base_name")?.to_string(),
            rpki_certificate: match doc.get("rpki_certificate") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_str().ok_or("bad rpki_certificate")?.to_string()),
            },
            origin_asn_clusters: doc
                .get("origin_asn_clusters")
                .and_then(Json::as_array)
                .ok_or("missing origin_asn_clusters")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| "bad cluster id".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()?,
            // Absent in pre-ROV exports: default NotFound.
            rov: match doc.get("rov") {
                Some(Json::Null) | None => RovStatus::NotFound,
                Some(v) => v
                    .as_str()
                    .and_then(RovStatus::parse)
                    .ok_or("bad rov state")?,
            },
            final_cluster: str_field(doc, "final_cluster")?.to_string(),
            local_exception: match doc.get("local_exception") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.as_str().ok_or("bad local_exception")?.to_string()),
            },
        })
    }
}

/// One record's export field values, borrowed from wherever the record
/// lives: a [`PrefixRecord`] or a frozen arena.
pub(crate) struct ExportFields<'a, D, C> {
    /// The routed prefix.
    pub(crate) prefix: Prefix,
    /// The registry's display name.
    pub(crate) registry: &'a str,
    /// The Direct Owner's WHOIS organization name.
    pub(crate) direct_owner: &'a str,
    /// The Direct Owner delegation's block.
    pub(crate) do_prefix: Prefix,
    /// The Direct Owner delegation's allocation type.
    pub(crate) do_alloc: AllocationType,
    /// The Delegated Customer chain: `(name, prefix, allocation type)`.
    pub(crate) delegated_customers: D,
    /// The Direct Owner's base name.
    pub(crate) base_name: &'a str,
    /// The child-most Resource Certificate id, colon-hex.
    pub(crate) rpki_certificate: Option<&'a str>,
    /// The origin ASN cluster ids.
    pub(crate) origin_asn_clusters: C,
    /// RFC 6811 validation state.
    pub(crate) rov: RovStatus,
    /// The final cluster label.
    pub(crate) final_cluster: &'a str,
    /// The asserted organization of a local operator exception.
    pub(crate) local_exception: Option<&'a str>,
}

/// The export fields of a live dataset record.
fn fields_of(
    rec: &PrefixRecord,
) -> ExportFields<
    '_,
    impl Iterator<Item = (&str, Prefix, AllocationType)>,
    impl Iterator<Item = u32> + '_,
> {
    ExportFields {
        prefix: rec.prefix,
        registry: rec.registry.name(),
        direct_owner: &rec.direct_owner,
        do_prefix: rec.do_prefix,
        do_alloc: rec.do_alloc,
        delegated_customers: rec
            .delegated_customers
            .iter()
            .map(|s| (s.org_name.as_str(), s.prefix, s.alloc)),
        base_name: &rec.base_name,
        rpki_certificate: rec.rpki_certificate.as_deref(),
        origin_asn_clusters: rec.origin_asn_clusters.iter().copied(),
        rov: rec.rov,
        final_cluster: &rec.final_cluster_label,
        local_exception: rec.local_exception.as_deref(),
    }
}

/// Writes one record's export object: one JSONL line without its
/// newline, byte-identical to [`ExportRecord::to_json`] rendered compact.
/// Strings go through the one JSON escaper; prefixes and allocation-type
/// names never need escaping and are written as they display.
pub(crate) fn write_export_json<'a, W, D, C>(
    out: &mut W,
    rec: ExportFields<'a, D, C>,
) -> fmt::Result
where
    W: fmt::Write + ?Sized,
    D: IntoIterator<Item = (&'a str, Prefix, AllocationType)>,
    C: IntoIterator<Item = u32>,
{
    write!(out, "{{\"prefix\":\"{}\",\"registry\":", rec.prefix)?;
    write_escaped(out, rec.registry)?;
    out.write_str(",\"direct_owner\":")?;
    write_escaped(out, rec.direct_owner)?;
    write!(
        out,
        ",\"do_prefix\":\"{}\",\"do_alloc\":\"{:?}\",\"delegated_customers\":[",
        rec.do_prefix, rec.do_alloc
    )?;
    for (n, (name, prefix, alloc)) in rec.delegated_customers.into_iter().enumerate() {
        out.write_str(if n == 0 { "[" } else { ",[" })?;
        write_escaped(out, name)?;
        write!(out, ",\"{prefix}\",\"{alloc:?}\"]")?;
    }
    out.write_str("],\"base_name\":")?;
    write_escaped(out, rec.base_name)?;
    out.write_str(",\"rpki_certificate\":")?;
    match rec.rpki_certificate {
        Some(id) => write_escaped(out, id)?,
        None => out.write_str("null")?,
    }
    out.write_str(",\"origin_asn_clusters\":")?;
    write_u32_array(out, rec.origin_asn_clusters)?;
    out.write_str(",\"rov\":")?;
    write_escaped(out, rec.rov.as_str())?;
    out.write_str(",\"final_cluster\":")?;
    write_escaped(out, rec.final_cluster)?;
    if let Some(org) = rec.local_exception {
        out.write_str(",\"local_exception\":")?;
        write_escaped(out, org)?;
    }
    out.write_char('}')
}

/// Serializes the whole dataset as JSON Lines.
pub fn to_jsonl(dataset: &Prefix2OrgDataset) -> String {
    let mut out = String::new();
    for rec in dataset.records() {
        write_export_json(&mut out, fields_of(rec)).expect("String writes succeed");
        out.push('\n');
    }
    out
}

/// Parses a JSON Lines export back into records.
///
/// Blank lines are skipped; the first malformed line aborts with its line
/// number.
pub fn from_jsonl(text: &str) -> Result<Vec<ExportRecord>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let rec = ExportRecord::from_json(&doc).map_err(|e| format!("line {}: {e}", idx + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineInputs};
    use p2o_bgp::RouteTable;
    use p2o_rpki::RpkiRepository;
    use p2o_whois::WhoisDb;

    fn dataset() -> Prefix2OrgDataset {
        let mut db = WhoisDb::new();
        db.add_arin(
            "\
NetRange: 63.64.0.0 - 63.127.255.255\nNetType: Allocation\nOrgName: Verizon Business\nUpdated: 2024-05-20\n\n\
NetRange: 63.80.52.0 - 63.80.52.255\nNetType: Reassignment\nOrgName: Ceva Inc\nUpdated: 2024-06-02\n",
        );
        db.add_rpsl(
            "inet6num: 2001:db8::/32\ndescr: Verizon Business\nstatus: ALLOCATED-BY-RIR\nsource: RIPE\n",
            p2o_whois::Registry::Rir(p2o_whois::Rir::Ripe),
        );
        let (tree, _) = db.build();
        let mut routes = RouteTable::new();
        routes.add_route("63.80.52.0/24".parse().unwrap(), 701);
        routes.add_route("2001:db8::/32".parse().unwrap(), 701);
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = RpkiRepository::new().validate(20240901);
        Pipeline::default().run(&PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        })
    }

    #[test]
    fn jsonl_round_trip() {
        let ds = dataset();
        let text = to_jsonl(&ds);
        assert_eq!(text.lines().count(), ds.len());
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), ds.len());
        for (exp, rec) in parsed.iter().zip(ds.records()) {
            assert_eq!(exp, &ExportRecord::from(rec));
        }
    }

    #[test]
    fn exported_fields_are_complete() {
        let ds = dataset();
        let parsed = from_jsonl(&to_jsonl(&ds)).unwrap();
        let v4 = parsed
            .iter()
            .find(|r| r.prefix == "63.80.52.0/24".parse().unwrap())
            .unwrap();
        assert_eq!(v4.direct_owner, "Verizon Business");
        assert_eq!(v4.do_alloc, AllocationType::Allocation);
        assert_eq!(v4.delegated_customers.len(), 1);
        assert_eq!(v4.delegated_customers[0].0, "Ceva Inc");
        assert_eq!(v4.origin_asn_clusters, vec![701]);
        assert!(!v4.final_cluster.is_empty());
    }

    #[test]
    fn import_rejects_garbage_with_line_number() {
        let err = from_jsonl("{\"not\": \"a record\"}\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let ds = dataset();
        let mut text = to_jsonl(&ds);
        text.push_str("this is not json\n");
        let err = from_jsonl(&text).unwrap_err();
        assert!(err.contains(&format!("line {}", ds.len() + 1)), "{err}");
    }

    /// Every record's export line, written directly from the live record
    /// and from the frozen arena, equals the `Json`-tree oracle's
    /// rendering; and the whole export is those lines.
    fn assert_lines_match_the_oracle(
        inputs: &PipelineInputs<'_>,
        dataset: &Prefix2OrgDataset,
        edges: &[crate::MergeEdge],
    ) {
        let frozen =
            crate::FrozenDataset::from_payload(crate::freeze(inputs, dataset, edges, 0)).unwrap();
        let mut oracle = String::new();
        for (idx, rec) in dataset.records().iter().enumerate() {
            let want = ExportRecord::from(rec).to_json().to_string();
            let mut direct = String::new();
            write_export_json(&mut direct, fields_of(rec)).unwrap();
            assert_eq!(direct, want, "record {idx}, live");
            let mut thawed = String::new();
            frozen.write_export_json(idx as u32, &mut thawed).unwrap();
            assert_eq!(thawed, want, "record {idx}, frozen");
            oracle.push_str(&want);
            oracle.push('\n');
        }
        assert_eq!(to_jsonl(dataset), oracle);
        assert_eq!(frozen.to_jsonl(), oracle);
    }

    #[test]
    fn export_writer_matches_the_json_tree_oracle() {
        use p2o_synth::{World, WorldConfig};
        use p2o_whois::alloc::AllocationType as A;

        for seed in [7, 42] {
            let world = World::generate(WorldConfig::tiny(seed));
            let built = world.build_inputs();
            let inputs = PipelineInputs {
                delegations: &built.tree,
                routes: &built.routes,
                asn_clusters: &built.clusters,
                rpki: &built.rpki,
            };
            let (mut dataset, edges) =
                Pipeline::default().dataset_with_evidence(&inputs, None, None);
            assert_lines_match_the_oracle(&inputs, &dataset, &edges);
            if seed != 7 {
                continue;
            }

            // Hand-edited records: every field the pipeline never fills
            // with awkward text.
            let awkward = [
                "quote \" and back\\slash",
                "controls \u{1}\u{8}\u{c}\u{1f}\r\n end",
                "tab\there",
                "Telefônica 网络 😀",
                "",
            ];
            let v6 = dataset
                .records()
                .iter()
                .position(|r| matches!(r.prefix, Prefix::V6(_)))
                .expect("the tiny world routes IPv6");
            let step = |n: usize| crate::CustomerStep {
                org_name: awkward[n % awkward.len()].to_string(),
                prefix: "10.0.0.0/8".parse().unwrap(),
                alloc: A::ALL[n % A::ALL.len()],
            };
            let records = dataset.records_mut();
            for (n, idx) in [0, 1, 2, 3, 4, v6].into_iter().enumerate() {
                let rec = &mut records[idx];
                rec.direct_owner = awkward[n % awkward.len()].to_string();
                rec.base_name = awkward[(n + 1) % awkward.len()].to_string();
                rec.final_cluster_label = awkward[(n + 2) % awkward.len()].to_string();
                rec.rpki_certificate = match n % 3 {
                    0 => None,
                    1 => Some(awkward[n % awkward.len()].to_string()),
                    _ => Some("0a:1b:2c".to_string()),
                };
                rec.delegated_customers = match n % 3 {
                    0 => Vec::new(),
                    1 => vec![step(n)],
                    _ => (n..n + 3).map(step).collect(),
                };
                rec.origin_asn_clusters = (0..n as u32).map(|c| c * 70_000).collect();
                // An asserted exception names the label it replaced it
                // with.
                rec.local_exception = (n % 2 == 1).then(|| rec.final_cluster_label.clone());
            }
            assert_lines_match_the_oracle(&inputs, &dataset, &edges);
        }
    }

    #[test]
    fn blank_lines_skipped() {
        let ds = dataset();
        let text = to_jsonl(&ds).replace('\n', "\n\n");
        assert_eq!(from_jsonl(&text).unwrap().len(), ds.len());
    }
}
