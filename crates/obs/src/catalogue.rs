//! The metric catalogue: one row per metric the build and the server
//! emit, naming its kind, unit and help text.
//!
//! A row's name is the registry name (`whois.records`). Its Prometheus
//! family is `p2o_` plus the name with every character outside
//! `[A-Za-z0-9]` mapped to `_`, plus `_total` for a counter (see
//! [`promexpo::family_name`](crate::promexpo::family_name)). A name
//! holding `{layer}`, `{kind}` or `{endpoint}` stands for one family per
//! member of [`IngestLayer::ALL`] (by name), [`IngestErrorKind::ALL`] (by
//! counter suffix) or [`ENDPOINTS`], and its help text names the member
//! in the same place.
//!
//! Rows are in exposition order. A build registers its
//! [`Source::BuildSetup`] rows at zero before it reads anything, so clean
//! and faulty runs report the same series; the server registers its
//! [`Source::ServeSpawn`] rows at spawn; and both Prometheus renderers
//! write each family's `# HELP` line from its row. DESIGN.md carries the
//! same table, and a CLI test holds the table, the series a build and a
//! server emit, and DESIGN.md to each other.

use p2o_util::ingest::{IngestErrorKind, IngestLayer};

use crate::Obs;
use Kind::{Counter, Gauge, Histogram};
use Source::{Build, BuildSetup, ServeScrape, ServeSpawn};

/// What a metric family is, as Prometheus `# TYPE` names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotone event count (`_total` series).
    Counter,
    /// A bucketed distribution (`_bucket`/`_sum`/`_count` series).
    Histogram,
    /// A value rendered fresh for each exposition.
    Gauge,
}

impl Kind {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Histogram => "histogram",
            Kind::Gauge => "gauge",
        }
    }
}

/// Where a row's series come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Registered at zero when a build sets up its registry.
    BuildSetup,
    /// Registered by the build code that first records it.
    Build,
    /// Registered at zero when the server spawns.
    ServeSpawn,
    /// Rendered by the server from live state on each scrape.
    ServeScrape,
}

impl Source {
    /// The label DESIGN.md's metric table uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::BuildSetup => "build setup",
            Source::Build => "build",
            Source::ServeSpawn => "serve spawn",
            Source::ServeScrape => "serve scrape",
        }
    }
}

/// One catalogue row.
#[derive(Debug)]
pub struct Metric {
    /// Registry name, possibly holding one `{layer}`/`{kind}`/`{endpoint}`.
    pub name: &'static str,
    /// Counter, histogram or gauge.
    pub kind: Kind,
    /// What one unit of the value is.
    pub unit: &'static str,
    /// One-line help text, possibly naming the row's placeholder.
    pub help: &'static str,
    /// Where the series come from.
    pub source: Source,
}

/// The endpoint labels every per-endpoint serve series is registered
/// under. `other` collects unroutable paths, parse errors, and overflow
/// rejects.
pub const ENDPOINTS: &[&str] = &[
    "prefix",
    "batch",
    "dump",
    "metrics",
    "health",
    "status",
    "debug.requests",
    "debug.trace",
    "reload",
    "quit",
    "other",
];

const fn row(
    name: &'static str,
    kind: Kind,
    unit: &'static str,
    help: &'static str,
    source: Source,
) -> Metric {
    Metric {
        name,
        kind,
        unit,
        help,
        source,
    }
}

/// Every metric the build and the server emit, in exposition order.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    row("ingest.quarantined", Counter, "records", "Input records quarantined by the lenient parsers.", BuildSetup),
    row("ingest.quarantined.{layer}", Counter, "records", "Input records quarantined by the {layer} parser.", BuildSetup),
    row("ingest.quarantined.{kind}", Counter, "records", "Input records quarantined as {kind}.", BuildSetup),
    row("store.torn_detected", Counter, "artifacts", "Torn or altered artifacts detected by manifest or frame verification.", BuildSetup),
    row("checkpoint.recomputed", Counter, "builds", "Builds whose checkpoint was stale or torn and were recomputed.", BuildSetup),
    row("checkpoint.artifacts_verified", Counter, "artifacts", "Artifacts verified against a checkpoint or manifest digest.", BuildSetup),
    row("io.fault.injected", Counter, "faults", "Injected I/O faults of any kind (nonzero only under fault injection).", BuildSetup),
    row("io.fault.short_write", Counter, "faults", "Injected short (torn) writes.", BuildSetup),
    row("io.fault.enospc", Counter, "faults", "Injected out-of-space failures.", BuildSetup),
    row("io.fault.eio", Counter, "faults", "Injected I/O errors.", BuildSetup),
    row("rov.valid", Counter, "prefixes", "Attributed prefixes whose announced routes validated as RPKI-valid.", BuildSetup),
    row("rov.invalid", Counter, "prefixes", "Attributed prefixes with covering VRPs but no authorizing one.", BuildSetup),
    row("rov.not_found", Counter, "prefixes", "Attributed prefixes with no covering VRP at all.", BuildSetup),
    row("exceptions.asserted", Counter, "records", "Records whose attribution an operator assert rule overrode.", BuildSetup),
    row("exceptions.filtered", Counter, "records", "Records removed from the dataset by operator filter rules.", BuildSetup),
    row("exceptions.unmatched", Counter, "rules", "Exception rules that matched no attributed prefix.", BuildSetup),
    row("whois.records", Counter, "records", "WHOIS records parsed.", Build),
    row("whois.malformed", Counter, "records", "WHOIS records rejected as malformed.", Build),
    row("mrt.records", Counter, "records", "MRT records decoded.", Build),
    row("mrt.entries", Counter, "entries", "RIB entries decoded from MRT records.", Build),
    row("mrt.bytes", Counter, "bytes", "MRT record bytes decoded, peer table excluded.", Build),
    row("radix.inserts", Counter, "inserts", "Radix-tree inserts into the delegation tree.", Build),
    row("radix.lookups", Counter, "lookups", "Radix-tree lookups into the delegation tree.", Build),
    row("whois.unresolved_handles", Counter, "records", "WHOIS records whose org handle named no organisation object.", Build),
    row("whois.superseded", Counter, "records", "WHOIS records dropped as older duplicates of the same prefix and type.", Build),
    row("whois.missing_alloc", Counter, "records", "WHOIS records left without an allocation type and excluded from the tree.", Build),
    row("whois.prefixes", Counter, "prefixes", "Distinct prefixes in the WHOIS delegation tree.", Build),
    row("interner.symbols", Counter, "names", "Distinct organisation names interned.", Build),
    row("interner.hits", Counter, "names", "Name interns answered by an existing symbol.", Build),
    row("pipeline.routed_prefixes", Counter, "prefixes", "Routed prefixes in the BGP view.", Build),
    row("pipeline.moas_prefixes", Counter, "prefixes", "Routed prefixes announced by more than one origin AS.", Build),
    row("pipeline.resolved", Counter, "prefixes", "Routed prefixes resolved to a Direct Owner.", Build),
    row("pipeline.unresolved", Counter, "prefixes", "Routed prefixes with no Direct Owner.", Build),
    row("cluster.w_clusters", Counter, "clusters", "Exact-name clusters (W).", Build),
    row("cluster.r_groups", Counter, "groups", "Resource-certificate groups (R).", Build),
    row("cluster.a_groups", Counter, "groups", "Origin-ASN groups (A).", Build),
    row("cluster.merged_w_clusters", Counter, "clusters", "Exact-name clusters merged away by certificate or origin-ASN evidence.", Build),
    row("cluster.final_clusters", Counter, "clusters", "Final organisation clusters.", Build),
    row("cluster.rpki_covered_prefixes", Counter, "prefixes", "Routed prefixes covered by a valid resource certificate.", Build),
    row("mrt.entries_per_record", Histogram, "entries", "RIB entries per MRT record.", Build),
    row("whois.entries_per_prefix", Histogram, "records", "Delegation entries per prefix of the WHOIS tree.", Build),
    row("stage.wall_seconds", Gauge, "seconds", "Wall time per build stage, summed over its runs.", Build),
    row("stage.items", Gauge, "items", "Items per build stage, summed over its runs.", Build),
    row("stage.runs", Gauge, "runs", "Runs per build stage.", Build),
    row("serve.connections", Counter, "connections", "Connections accepted under the connection cap.", ServeSpawn),
    row("serve.requests", Counter, "requests", "Responses sent, early rejects included.", ServeSpawn),
    row("serve.http_4xx", Counter, "requests", "Responses with a 4xx status.", ServeSpawn),
    row("serve.http_5xx", Counter, "requests", "Responses with a 5xx status.", ServeSpawn),
    row("serve.reloads", Counter, "reloads", "Snapshot reloads that swapped in a new snapshot.", ServeSpawn),
    row("serve.reload_failures", Counter, "reloads", "Reloads rejected while the old snapshot kept serving.", ServeSpawn),
    row("serve.batch_prefixes", Counter, "prefixes", "Non-blank /batch lines answered.", ServeSpawn),
    row("serve.access_log_failures", Counter, "lines", "Access-log lines that could not be written.", ServeSpawn),
    row("serve.requests.{endpoint}", Counter, "requests", "Responses from the {endpoint} endpoint.", ServeSpawn),
    row("serve.lookup_ns", Histogram, "nanoseconds", "Lookup and render time per /prefix query and /batch line.", ServeSpawn),
    row("serve.latency.{endpoint}", Histogram, "nanoseconds", "Service time of requests to the {endpoint} endpoint since boot.", ServeSpawn),
    row("serve.uptime_seconds", Gauge, "seconds", "Seconds since the server started.", ServeScrape),
    row("serve.connections_active", Gauge, "connections", "Currently open connections.", ServeScrape),
    row("serve.rss_bytes", Gauge, "bytes", "Resident set size of the serving process (0 where the platform offers no cheap probe).", ServeScrape),
    row("serve.window_latency_ns", Gauge, "nanoseconds", "Rolling-window latency quantiles per endpoint.", ServeScrape),
    row("serve.window_rate", Gauge, "requests per second", "Rolling-window request rate per endpoint.", ServeScrape),
    row("serve.snapshot_rov", Gauge, "records", "Served records per RPKI route origin validation state.", ServeScrape),
    row("serve.snapshot_exceptions", Gauge, "records", "Served records overridden by a local exception.", ServeScrape),
];

/// The members a `{placeholder}` expands over.
fn members(placeholder: &str) -> Vec<&'static str> {
    match placeholder {
        "layer" => IngestLayer::ALL.iter().map(|l| l.name()).collect(),
        "kind" => IngestErrorKind::ALL
            .iter()
            .map(|k| k.counter_suffix())
            .collect(),
        "endpoint" => ENDPOINTS.to_vec(),
        other => panic!("catalogue placeholder {{{other}}} has no label set"),
    }
}

impl Metric {
    /// `(head, placeholder, tail)` when the name expands, e.g.
    /// `("serve.latency.", "endpoint", "")`.
    fn template(&self) -> Option<(&'static str, &'static str, &'static str)> {
        let (head, rest) = self.name.split_once('{')?;
        let (placeholder, tail) = rest.split_once('}')?;
        Some((head, placeholder, tail))
    }

    /// Every registry name this row stands for, with its help text, in
    /// exposition order.
    pub fn series(&self) -> Vec<(String, String)> {
        match self.template() {
            None => vec![(self.name.to_string(), self.help.to_string())],
            Some((head, placeholder, tail)) => members(placeholder)
                .into_iter()
                .map(|m| (format!("{head}{m}{tail}"), self.expand_help(placeholder, m)))
                .collect(),
        }
    }

    fn expand_help(&self, placeholder: &str, member: &str) -> String {
        self.help.replace(&format!("{{{placeholder}}}"), member)
    }

    /// The help text for registry name `name` when this row stands for it.
    fn help_for(&self, name: &str) -> Option<String> {
        match self.template() {
            None => (self.name == name).then(|| self.help.to_string()),
            Some((head, placeholder, tail)) => {
                let member = name.strip_prefix(head)?.strip_suffix(tail)?;
                members(placeholder)
                    .contains(&member)
                    .then(|| self.expand_help(placeholder, member))
            }
        }
    }
}

/// The row standing for registry name `name` and its help text, when
/// the name is catalogued.
pub fn lookup(name: &str) -> Option<(&'static Metric, String)> {
    METRICS
        .iter()
        .find_map(|m| m.help_for(name).map(|help| (m, help)))
}

/// Registers every counter and histogram row from `source` at zero, in
/// table order, so a run that never ticks them still reports them.
pub fn register(obs: &Obs, source: Source) {
    for metric in METRICS.iter().filter(|m| m.source == source) {
        for (name, _) in metric.series() {
            match metric.kind {
                Kind::Counter => {
                    obs.counter(&name);
                }
                Kind::Histogram => {
                    obs.histogram(&name);
                }
                Kind::Gauge => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_every_placeholder_expands() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in METRICS {
            for (name, help) in metric.series() {
                assert!(seen.insert(name.clone()), "{name} listed twice");
                assert!(!help.contains('{'), "{name}: unexpanded help {help:?}");
                let (row, found) = lookup(&name).expect("every series looks up");
                assert_eq!((row.name, found), (metric.name, help));
            }
        }
        assert!(lookup("serve.latency.nowhere").is_none());
        assert!(lookup("x.y").is_none());
    }

    #[test]
    fn register_creates_zeroed_series_in_table_order() {
        let obs = Obs::new();
        register(&obs, Source::ServeSpawn);
        let report = obs.report();
        assert_eq!(report.counters[0], ("serve.connections".to_string(), 0));
        assert_eq!(
            report.counter("serve.requests.debug.requests"),
            Some(0),
            "endpoint rows expand"
        );
        assert_eq!(report.histograms[0].name, "serve.lookup_ns");
        assert_eq!(report.histograms.len(), 1 + ENDPOINTS.len());
    }
}
