//! Prometheus text-exposition rendering of a [`RunReport`].
//!
//! `--metrics <path>` dumps the end-of-run registry in the Prometheus
//! text format (version 0.0.4) so the same numbers the JSON report pins
//! can be scraped, diffed, or pushed to a gateway:
//!
//! - counters become `<name>_total` series of TYPE `counter`;
//! - histograms become cumulative `_bucket{le="..."}` series plus `_sum`
//!   and `_count`, with `le` boundaries at the power-of-two bucket upper
//!   bounds (`2^i - 1` for bucket `i`, then `+Inf`);
//! - stage timers become `p2o_stage_wall_seconds` / `p2o_stage_items` /
//!   `p2o_stage_runs` gauges labelled by stage name, with any repeats of
//!   one stage aggregated into a single series — Prometheus forbids
//!   duplicate series, so repeats sum.
//!
//! Dotted registry names (`whois.records`) are sanitized to the metric
//! grammar (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and prefixed `p2o_`, e.g.
//! `p2o_whois_records_total`. Every family whose registry name is in the
//! [`catalogue`] gets one `# HELP` line from its row before its `# TYPE`
//! line.

use crate::catalogue::{self, Kind};
use crate::{bucket_upper, HistogramReport, RunReport, StageReport};

/// Renders `report` in the Prometheus text exposition format.
pub fn to_prometheus(report: &RunReport) -> String {
    let mut out = String::new();
    for (name, value) in &report.counters {
        let metric = family_name(name, Kind::Counter);
        write_header(&mut out, name, &metric, Kind::Counter);
        out.push_str(&format!("{metric} {value}\n"));
    }
    for hist in &report.histograms {
        render_histogram(&mut out, hist);
    }
    render_stages(&mut out, &report.stages);
    out
}

/// The exposition name of registry name `name`: sanitized, prefixed
/// `p2o_`, and suffixed `_total` for a counter.
pub fn family_name(name: &str, kind: Kind) -> String {
    let mut out = metric_name(name);
    if kind == Kind::Counter {
        out.push_str("_total");
    }
    out
}

/// Writes a family's `# HELP` line, when `name` is catalogued, and its
/// `# TYPE` line.
fn write_header(out: &mut String, name: &str, family: &str, kind: Kind) {
    if let Some((_, help)) = catalogue::lookup(name) {
        out.push_str(&format!("# HELP {family} {help}\n"));
    }
    out.push_str(&format!("# TYPE {family} {}\n", kind.as_str()));
}

/// A catalogued family resolved once for repeated rendering: its
/// exposition name and its `# HELP`/`# TYPE` header.
#[derive(Clone, Debug)]
pub struct Family {
    /// The exposition name, e.g. `p2o_serve_uptime_seconds`.
    pub name: String,
    /// The `# HELP` and `# TYPE` lines.
    pub header: String,
}

impl Family {
    /// Resolves registry name `name` against the catalogue.
    ///
    /// # Panics
    ///
    /// When `name` has no catalogue row.
    pub fn of(name: &str) -> Family {
        let (row, _) = catalogue::lookup(name)
            .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"));
        let family = family_name(name, row.kind);
        let mut header = String::new();
        write_header(&mut header, name, &family, row.kind);
        Family {
            name: family,
            header,
        }
    }
}

fn render_histogram(out: &mut String, hist: &HistogramReport) {
    let metric = metric_name(&hist.name);
    write_header(out, &hist.name, &metric, Kind::Histogram);
    // Emit boundaries up to the highest non-empty bucket.
    let top = hist
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .map_or(0, |i| i + 1);
    let mut cumulative = 0u64;
    for (i, &n) in hist.buckets.iter().take(top).enumerate() {
        cumulative += n;
        let le = bucket_upper(i);
        out.push_str(&format!("{metric}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{metric}_bucket{{le=\"+Inf\"}} {}\n", hist.count));
    out.push_str(&format!("{metric}_sum {}\n", hist.sum));
    out.push_str(&format!("{metric}_count {}\n", hist.count));
}

fn render_stages(out: &mut String, stages: &[StageReport]) {
    if stages.is_empty() {
        return;
    }
    // Aggregate by stage name in first-seen order: a stage timed more than
    // once repeats, but each Prometheus series must be unique.
    let mut agg: Vec<(String, u64, u64, u64)> = Vec::new(); // name, wall, items, runs
    for s in stages {
        match agg.iter_mut().find(|(n, ..)| *n == s.name) {
            Some((_, wall, items, runs)) => {
                *wall += s.wall_ns;
                *items += s.items.unwrap_or(0);
                *runs += 1;
            }
            None => agg.push((s.name.clone(), s.wall_ns, s.items.unwrap_or(0), 1)),
        }
    }
    let columns: [(&str, Vec<String>); 3] = [
        (
            "stage.wall_seconds",
            agg.iter().map(|s| (s.1 as f64 / 1e9).to_string()).collect(),
        ),
        ("stage.items", agg.iter().map(|s| s.2.to_string()).collect()),
        ("stage.runs", agg.iter().map(|s| s.3.to_string()).collect()),
    ];
    for (name, values) in columns {
        let family = Family::of(name);
        out.push_str(&family.header);
        for (stage, value) in agg.iter().zip(values) {
            out.push_str(&format!(
                "{}{{stage=\"{}\"}} {value}\n",
                family.name,
                label_value(&stage.0)
            ));
        }
    }
}

/// Maps a dotted registry name onto the Prometheus metric-name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`) with a `p2o_` namespace prefix.
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("p2o_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    fn is_metric_name(s: &str) -> bool {
        let mut chars = s.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Minimal exposition-grammar check: every non-comment line is
    /// `name[{label="value"}] value`.
    fn assert_valid_exposition(text: &str) {
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let name = match series.split_once('{') {
                Some((name, rest)) => {
                    assert!(rest.ends_with('}'), "unclosed labels: {line}");
                    for pair in rest[..rest.len() - 1].split(',') {
                        let (k, v) = pair.split_once('=').expect("label pair");
                        assert!(is_metric_name(k), "bad label name in: {line}");
                        assert!(v.starts_with('"') && v.ends_with('"'), "unquoted: {line}");
                    }
                    name
                }
                None => series,
            };
            assert!(is_metric_name(name), "bad metric name in: {line}");
        }
    }

    #[test]
    fn counters_render_as_total_series() {
        let obs = Obs::new();
        obs.counter("whois.records").add(293);
        obs.counter("pipeline.resolved").add(300);
        let text = to_prometheus(&obs.report());
        assert_valid_exposition(&text);
        assert!(text.contains("# TYPE p2o_whois_records_total counter\n"));
        assert!(text.contains("p2o_whois_records_total 293\n"));
        assert!(text.contains("p2o_pipeline_resolved_total 300\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let obs = Obs::new();
        let h = obs.histogram("bgp.entry_bytes");
        for v in [0u64, 1, 2, 3, 9] {
            h.record(v);
        }
        let text = to_prometheus(&obs.report());
        assert_valid_exposition(&text);
        assert!(text.contains("# TYPE p2o_bgp_entry_bytes histogram\n"));
        // value 0 → bucket 0 (le 0); 1 → le 1; 2,3 → le 3; 9 → le 15.
        assert!(text.contains("p2o_bgp_entry_bytes_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("p2o_bgp_entry_bytes_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("p2o_bgp_entry_bytes_bucket{le=\"3\"} 4\n"));
        assert!(text.contains("p2o_bgp_entry_bytes_bucket{le=\"15\"} 5\n"));
        assert!(text.contains("p2o_bgp_entry_bytes_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("p2o_bgp_entry_bytes_sum 15\n"));
        assert!(text.contains("p2o_bgp_entry_bytes_count 5\n"));
    }

    #[test]
    fn parallel_stage_repeats_aggregate_into_one_series() {
        let obs = Obs::new();
        for items in [10u64, 20, 30] {
            let mut t = obs.stage("whois.parse");
            t.items(items);
        }
        obs.time("pipeline.resolve", || ());
        let text = to_prometheus(&obs.report());
        assert_valid_exposition(&text);
        assert_eq!(
            text.matches("p2o_stage_items{stage=\"whois.parse\"}")
                .count(),
            1,
            "shard repeats must collapse into one series"
        );
        assert!(text.contains("p2o_stage_items{stage=\"whois.parse\"} 60\n"));
        assert!(text.contains("p2o_stage_runs{stage=\"whois.parse\"} 3\n"));
        assert!(text.contains("p2o_stage_runs{stage=\"pipeline.resolve\"} 1\n"));
    }

    #[test]
    fn empty_report_renders_empty() {
        assert_eq!(to_prometheus(&Obs::new().report()), "");
    }
}
