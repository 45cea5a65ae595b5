//! End-to-end tests of the `prefix2org` binary: generate → build → query →
//! diff → validate, via real process invocations on a temp directory.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_prefix2org")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs")
}

fn run_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "command {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p2o-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn generate_and_build(dir: &Path, transfers: Option<&str>) -> PathBuf {
    let dataset = dir.join("dataset.jsonl");
    let dir_s = dir.to_str().unwrap();
    let mut args = vec![
        "generate", "--out", dir_s, "--scale", "tiny", "--seed", "99",
    ];
    if let Some(t) = transfers {
        args.extend_from_slice(&["--transfers", t]);
    }
    run_ok(&args);
    run_ok(&[
        "build",
        "--in",
        dir_s,
        "--out",
        dataset.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    dataset
}

#[test]
fn generate_build_lookup_org_validate() {
    let dir = temp_dir("main");
    let dataset = generate_and_build(&dir, None);
    let dataset = dataset.to_str().unwrap();

    // The snapshot directory has the documented layout.
    for file in ["rib.mrt", "as2org.tsv", "rpki.jsonl", "meta.tsv"] {
        assert!(dir.join(file).exists(), "missing {file}");
    }
    assert!(dir.join("whois").join("ARIN.txt").exists());

    // Lookup: a covered address resolves, a bogus one reports cleanly.
    let out = run_ok(&[
        "lookup",
        "--dataset",
        dataset,
        "63.0.0.1/32",
        "198.51.100.0/24",
    ]);
    assert!(out.contains("Direct Owner"), "{out}");
    assert!(out.contains("no covering routed prefix"), "{out}");

    // Lookup is a longest match: the last address of every IPv4 record
    // resolves to the most specific record covering it.
    let text = std::fs::read_to_string(dataset).unwrap();
    let records = prefix2org::from_jsonl(&text).expect("export parses");
    let queries: Vec<p2o_net::Prefix> = records
        .iter()
        .filter_map(|r| r.prefix.as_v4())
        .map(|p| p2o_net::Prefix4::new(p.last_addr(), 32).unwrap().into())
        .collect();
    let query_strings: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
    let mut args = vec!["lookup", "--dataset", dataset];
    args.extend(query_strings.iter().map(String::as_str));
    let out = run_ok(&args);
    for q in &queries {
        let want = records
            .iter()
            .map(|r| r.prefix)
            .filter(|p| p.contains(q))
            .max_by_key(p2o_net::Prefix::len)
            .expect("a record covers its own last address");
        assert!(
            out.contains(&format!("{q} -> routed as {want}\n")),
            "{q} must resolve to {want}:\n{out}"
        );
    }

    // Org query: grab an owner name from the dataset itself.
    let first = p2o_util::Json::parse(text.lines().next().unwrap()).unwrap();
    let owner = first
        .get("direct_owner")
        .and_then(p2o_util::Json::as_str)
        .unwrap();
    let out = run_ok(&["org", "--dataset", dataset, owner]);
    let prefix = first
        .get("prefix")
        .and_then(p2o_util::Json::as_str)
        .unwrap();
    assert!(out.contains(prefix), "{out}");

    // Stats summary.
    let out = run_ok(&["stats", "--dataset", dataset]);
    assert!(out.contains("direct owners"), "{out}");
    assert!(out.contains("per registry"), "{out}");

    // Validate against the generated ground truth: total recall line.
    let out = run_ok(&[
        "validate",
        "--in",
        dir.to_str().unwrap(),
        "--dataset",
        dataset,
    ]);
    assert!(out.contains("Total"), "{out}");
    assert!(out.lines().count() > 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The rows of the emit tail's two forks, each nested in its enclosing
/// row in the order a one-thread build records them.
const FORK_ROWS: [(&str, &[&str]); 2] = [
    (
        "emit.export_freeze",
        &["build.release_inputs", "core.export", "core.freeze"],
    ),
    (
        "emit.verify_frame",
        &["core.thaw_verify", "util.frame_digest"],
    ),
];

/// The ingest rows, nested in `build.load` in the order the one-lane
/// load recorded them.
const LOAD_ROWS: [&str; 7] = [
    "bgp.parse",
    "whois.parse",
    "rpki.load",
    "whois.build",
    "as2org.cluster",
    "rpki.validate",
    "whois.delegated",
];

#[test]
fn build_report_emits_run_report() {
    let dir = temp_dir("report");
    let dir_s = dir.to_str().unwrap();
    run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
    let dataset = dir.join("dataset.jsonl");
    let report = dir.join("run.json");
    let build = |threads: &str| {
        let out = run(&[
            "build",
            "--in",
            dir_s,
            "--out",
            dataset.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
            "--threads",
            threads,
        ]);
        assert!(out.status.success());
        let text = std::fs::read_to_string(&report).unwrap();
        let doc = p2o_util::Json::parse(&text).unwrap();
        (out, p2o_obs::RunReport::from_json(&doc).unwrap())
    };

    // The ingest rows sit inside `build.load`, right after it, in the
    // one-lane order at any thread count, and each fork's rows inside its
    // enclosing row. Only top-level rows add up to the wall time, so what
    // none of them saw stays above 0; at one thread the lanes run one
    // after the other, within `build.load`.
    for threads in ["1", "4"] {
        let (_, parsed) = build(threads);
        let load = parsed
            .stages
            .iter()
            .position(|s| s.name == "build.load")
            .expect("build.load row");
        let nested: Vec<&p2o_obs::StageReport> = parsed.stages[load + 1..]
            .iter()
            .take_while(|s| s.within.is_some())
            .collect();
        let names: Vec<&str> = nested.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, LOAD_ROWS, "threads {threads}");
        assert!(nested
            .iter()
            .all(|s| s.within.as_deref() == Some("build.load")));
        for (fork, rows) in FORK_ROWS {
            let at = parsed
                .stages
                .iter()
                .position(|s| s.name == fork)
                .unwrap_or_else(|| panic!("{fork} row"));
            let parts: Vec<(&str, Option<&str>)> = parsed.stages[at + 1..]
                .iter()
                .take(rows.len())
                .map(|s| (s.name.as_str(), s.within.as_deref()))
                .collect();
            let want: Vec<(&str, Option<&str>)> = rows.iter().map(|&r| (r, Some(fork))).collect();
            assert_eq!(parts, want, "threads {threads}");
        }
        let fork_rows: usize = FORK_ROWS.iter().map(|(_, rows)| rows.len()).sum();
        assert_eq!(
            parsed.stages.iter().filter(|s| s.within.is_some()).count(),
            LOAD_ROWS.len() + fork_rows,
            "threads {threads}: only the ingest and fork rows nest"
        );
        let unattributed = parsed.stage("build.unattributed").unwrap().wall_ns;
        assert!(unattributed > 0, "threads {threads}");
        if threads == "1" {
            let inside: u64 = nested.iter().map(|s| s.wall_ns).sum();
            let load_ns = parsed.stages[load].wall_ns;
            assert!(
                inside <= load_ns,
                "nested rows {inside} ns > build.load {load_ns} ns"
            );
        }
    }

    // The report file is a valid RunReport with stages and counters.
    let (out, parsed) = build("2");
    assert!(!parsed.stages.is_empty(), "report has no stages");
    for stage in [
        "util.digest",
        "build.load",
        "whois.parse",
        "bgp.parse",
        "rpki.load",
        "whois.build",
        "as2org.cluster",
        "rpki.validate",
        "whois.delegated",
        "pipeline.resolve",
        "pipeline.cluster",
        "core.exceptions",
        "emit.export_freeze",
        "build.release_inputs",
        "core.export",
        "core.freeze",
        "emit.verify_frame",
        "core.thaw_verify",
        "util.frame_digest",
        "util.write_frozen",
        "build.unattributed",
    ] {
        let s = parsed
            .stage(stage)
            .unwrap_or_else(|| panic!("missing stage {stage}"));
        assert!(s.wall_ns > 0, "stage {stage} has no wall time");
    }
    // Each row names one layer: no two stage rows share a name.
    for (i, s) in parsed.stages.iter().enumerate() {
        assert!(
            parsed.stages[..i].iter().all(|t| t.name != s.name),
            "stage {} is reported twice",
            s.name
        );
    }
    assert!(
        parsed.counters.len() >= 10,
        "expected >= 10 counters, got {}",
        parsed.counters.len()
    );
    assert!(parsed.counter("whois.records").unwrap() > 0);
    assert!(parsed.counter("mrt.entries").unwrap() > 0);
    assert_eq!(
        parsed.counter("pipeline.resolved").unwrap()
            + parsed.counter("pipeline.unresolved").unwrap(),
        parsed.counter("pipeline.routed_prefixes").unwrap()
    );

    // The memory section gives the process's peak RSS, and each stage row
    // the RSS when it ended, which the peak bounds (all 0 off Linux).
    let peak_rss = parsed.memory.expect("memory section").peak_rss_bytes;
    if cfg!(target_os = "linux") {
        assert!(peak_rss > 0, "peak_rss_bytes is 0 on Linux");
        for s in &parsed.stages {
            assert!(
                s.rss_bytes > 0 && s.rss_bytes <= peak_rss,
                "stage {} ended at {} B RSS, peak {peak_rss} B",
                s.name,
                s.rss_bytes
            );
        }
    }

    // The stderr summary table lists the stages, the ingest rows indented
    // under `build.load`, the counters and peak RSS.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stages"), "{stderr}");
    assert!(stderr.contains("\n  build.load  "), "{stderr}");
    assert!(stderr.contains("\n    bgp.parse  "), "{stderr}");
    assert!(stderr.contains("pipeline.resolve"), "{stderr}");
    assert!(stderr.contains("whois.records"), "{stderr}");
    assert!(stderr.contains("peak_rss_bytes"), "{stderr}");
    assert!(stderr.contains(" MB rss"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A build over a torn input is lenient: it warns about the manifest
/// mismatch, parses what is left, and counts the torn file in both the
/// `store.torn_detected` counter and the report's durability section.
#[test]
fn build_on_a_torn_input_warns_and_counts_it() {
    let dir = temp_dir("torn-input");
    let dir_s = dir.to_str().unwrap();
    run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
    let rib = dir.join("rib.mrt");
    let bytes = std::fs::read(&rib).unwrap();
    std::fs::write(&rib, &bytes[..bytes.len() / 2]).unwrap();

    let report = dir.join("run.json");
    let out = run(&[
        "build",
        "--in",
        dir_s,
        "--out",
        dir.join("dataset.jsonl").to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "lenient build exits 0:\n{stderr}"
    );
    assert!(
        stderr.contains(&format!(
            "warning: manifest: rib.mrt: length mismatch: manifest says {} B, file is {} B",
            bytes.len(),
            bytes.len() / 2
        )),
        "{stderr}"
    );
    let doc = p2o_util::Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let parsed = p2o_obs::RunReport::from_json(&doc).unwrap();
    assert_eq!(parsed.counter("store.torn_detected"), Some(1));
    let durability = parsed.durability.expect("durability section");
    assert_eq!(durability.torn_detected, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The §4.1 delegation-file check names a `delegated/*.txt` it cannot
/// read and passes only when it read every file; the build goes on.
#[test]
fn delegation_check_names_an_unreadable_file_and_does_not_pass() {
    let dir = temp_dir("delegated");
    let dir_s = dir.to_str().unwrap();
    run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
    let dataset = dir.join("dataset.jsonl");
    let build = || {
        let out = run(&["build", "--in", dir_s, "--out", dataset.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stderr).unwrap()
    };
    const PASS: &str = "delegation-file check: no delegation larger than /8 or /16";
    let clean = build();
    assert!(clean.contains(PASS), "{clean}");
    assert!(!clean.contains("not checked"), "{clean}");

    let unreadable = dir.join("delegated").join("ZZZ.txt");
    std::fs::create_dir(&unreadable).unwrap();
    let stderr = build();
    assert!(
        stderr.contains(&format!(
            "warning: delegation-file check: cannot read {}",
            unreadable.display()
        )),
        "{stderr}"
    );
    assert!(
        stderr.contains("delegation-file check incomplete: 1 file(s) not checked"),
        "{stderr}"
    );
    assert!(!stderr.contains(PASS), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn build_trace_and_metrics_emit_valid_artifacts() {
    let dir = temp_dir("trace");
    let dir_s = dir.to_str().unwrap();
    run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
    let dataset = dir.join("dataset.jsonl");
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.prom");
    let report = dir.join("run.json");
    let out = run(&[
        "build",
        "--in",
        dir_s,
        "--out",
        dataset.to_str().unwrap(),
        "--threads",
        "2",
        "--trace",
        trace.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace is a Chrome trace-event JSON array with B/E span events
    // carrying tid/ts and C counter events carrying ts, and covers every
    // instrumented parallel stage.
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = p2o_util::Json::parse(&text).unwrap();
    let events = doc.as_array().expect("trace is a JSON array");
    assert!(!events.is_empty());
    let phase_of = |e: &p2o_util::Json| {
        e.get("ph")
            .and_then(p2o_util::Json::as_str)
            .expect("event has ph")
            .to_string()
    };
    for e in events {
        let ph = phase_of(e);
        assert!(
            ["M", "B", "E", "C"].contains(&ph.as_str()),
            "unknown phase {ph}"
        );
        assert!(ph == "C" || e.get("tid").is_some(), "event without tid");
        if ph != "M" {
            assert!(e.get("ts").is_some(), "{ph} event without ts");
            assert!(e.get("name").is_some(), "{ph} event without name");
        }
    }
    // One `rss` counter point per stage row of the run report, each with
    // the row's RSS.
    let doc = p2o_util::Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let parsed = p2o_obs::RunReport::from_json(&doc).unwrap();
    let mut samples: Vec<u64> = events
        .iter()
        .filter(|e| phase_of(e) == "C")
        .map(|e| {
            assert_eq!(e.get("name").and_then(p2o_util::Json::as_str), Some("rss"));
            e.get("args")
                .and_then(|a| a.get("value"))
                .and_then(p2o_util::Json::as_u64)
                .expect("counter value")
        })
        .collect();
    let mut rows: Vec<u64> = parsed.stages.iter().map(|s| s.rss_bytes).collect();
    samples.sort_unstable();
    rows.sort_unstable();
    assert_eq!(samples, rows, "one rss counter event per stage row");
    for stage in [
        "load.lane",
        "whois.parse",
        "mrt.decode",
        "resolve",
        "cluster.group_build",
    ] {
        let begins = events
            .iter()
            .filter(|e| {
                phase_of(e) == "B" && e.get("name").and_then(p2o_util::Json::as_str) == Some(stage)
            })
            .count();
        assert!(begins >= 1, "no {stage} span in trace");
    }

    // The metrics dump follows the Prometheus text exposition grammar.
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("# TYPE"), "{text}");
    assert!(text.contains("p2o_pipeline_resolved_total"), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in {line:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The run report accounts for the build's wall time once: at one thread
/// and at four, the top-level rows follow one another without overlapping
/// (every overlapping row nests in an enclosing one and lies within it),
/// and with `build.unattributed` they add up to the time from the build's
/// start to its report, which ends after the last of them and before the
/// process exits.
#[test]
fn top_level_rows_never_overlap_and_add_up_to_the_wall() {
    let dir = temp_dir("wall");
    let dir_s = dir.to_str().unwrap();
    run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
    let dataset = dir.join("dataset.jsonl");
    let report = dir.join("run.json");
    for threads in ["1", "4"] {
        let started = std::time::Instant::now();
        run_ok(&[
            "build",
            "--in",
            dir_s,
            "--out",
            dataset.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
            "--threads",
            threads,
        ]);
        let process_ns = started.elapsed().as_nanos() as u64;
        let doc = p2o_util::Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let parsed = p2o_obs::RunReport::from_json(&doc).unwrap();
        let end = |s: &p2o_obs::StageReport| s.start_ns + s.wall_ns;
        let (unattributed, top): (Vec<_>, Vec<_>) = parsed
            .stages
            .iter()
            .filter(|s| s.within.is_none())
            .partition(|s| s.name == "build.unattributed");
        for pair in top.windows(2) {
            assert!(
                pair[1].start_ns >= end(pair[0]),
                "threads {threads}: {} starts before {} ends",
                pair[1].name,
                pair[0].name
            );
        }
        for part in parsed.stages.iter().filter(|s| s.within.is_some()) {
            let parent = parsed.stage(part.within.as_deref().unwrap()).unwrap();
            assert!(
                part.start_ns >= parent.start_ns && end(part) <= end(parent),
                "threads {threads}: {} lies outside {}",
                part.name,
                parent.name
            );
        }
        let [unattributed] = unattributed[..] else {
            panic!("threads {threads}: one build.unattributed row");
        };
        let accounted = parsed.top_level_wall_ns();
        assert_eq!(
            accounted,
            top.iter().map(|s| s.wall_ns).sum::<u64>() + unattributed.wall_ns
        );
        let last_end = end(top.last().unwrap());
        assert!(
            last_end <= accounted && accounted <= process_ns,
            "threads {threads}: rows end at {last_end} ns, account for {accounted} ns, \
             the process took {process_ns} ns"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--threads` changes timing and nothing else: the export, the frozen
/// artifact, the run report's stage rows (in report order, nesting
/// included) and the set of span names are the same at one thread and at
/// four. Per-shard timing lives only in the trace, as extra spans of the
/// same names; the two load lanes, the four lanes of the emit tail's two
/// forks, resolution and the freeze keep their span count at any thread
/// count.
#[test]
fn thread_count_changes_only_timing() {
    let dir = temp_dir("threads");
    let dir_s = dir.to_str().unwrap();
    run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
    let build = |threads: &str| {
        let export = dir.join(format!("dataset-{threads}.jsonl"));
        let report = dir.join(format!("run-{threads}.json"));
        let trace = dir.join(format!("trace-{threads}.json"));
        run_ok(&[
            "build",
            "--in",
            dir_s,
            "--out",
            export.to_str().unwrap(),
            "--threads",
            threads,
            "--report",
            report.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]);
        let report = p2o_util::Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let stages: Vec<(String, Option<String>)> = p2o_obs::RunReport::from_json(&report)
            .unwrap()
            .stages
            .into_iter()
            .map(|s| (s.name, s.within))
            .collect();
        let trace = p2o_util::Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let spans: Vec<String> = trace
            .as_array()
            .expect("trace is a JSON array")
            .iter()
            .filter(|e| e.get("ph").and_then(p2o_util::Json::as_str) == Some("B"))
            .map(|e| {
                e.get("name")
                    .and_then(p2o_util::Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let frozen = std::fs::read(dir.join("world.p2ob")).unwrap();
        (std::fs::read(&export).unwrap(), frozen, stages, spans)
    };
    let (export1, frozen1, stages1, spans1) = build("1");
    let (export4, frozen4, stages4, spans4) = build("4");
    assert!(!export1.is_empty());
    assert_eq!(export1, export4, "export differs between 1 and 4 threads");
    assert_eq!(
        frozen1, frozen4,
        "world.p2ob differs between 1 and 4 threads"
    );
    assert_eq!(
        stages1, stages4,
        "stage rows differ between 1 and 4 threads"
    );
    let set = |spans: &[String]| {
        spans
            .iter()
            .cloned()
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_eq!(set(&spans1), set(&spans4), "span names differ");
    let count = |spans: &[String], name: &str| spans.iter().filter(|s| *s == name).count();
    for name in ["whois.parse", "mrt.decode", "cluster.group_build"] {
        assert!(
            count(&spans4, name) > count(&spans1, name),
            "{name}: four threads trace no extra shard spans"
        );
    }
    for (name, spans) in [
        ("load.lane", 2),
        ("emit.lane", 4),
        ("resolve", 1),
        ("frozen.freeze", 1),
    ] {
        assert_eq!(
            (count(&spans1, name), count(&spans4, name)),
            (spans, spans),
            "{name}: not {spans} span(s) at 1 and 4 threads"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Where an input falls in the load's input order: the WHOIS dumps, then
/// `rib.mrt`, then `rpki.jsonl`.
fn input_rank(file: &str) -> usize {
    match file {
        "rib.mrt" => 1,
        "rpki.jsonl" => 2,
        _ => {
            assert!(file.starts_with("whois/"), "unexpected file {file}");
            0
        }
    }
}

/// The two load lanes fold in input order, not in the order they end: on
/// a world damaged in its WHOIS dumps, its RIB and its RPKI, a strict
/// build names the same first damaged WHOIS dump at one thread and at
/// four, and lenient builds report the same data quality section, with
/// the rejects in input order, and the same counters.
#[test]
fn load_lanes_fold_in_input_order_on_a_corrupt_world() {
    let dir = temp_dir("fold-corrupt");
    let dir_s = dir.to_str().unwrap();
    let out = run(&[
        "generate",
        "--out",
        dir_s,
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--corrupt-rate",
        "0.1",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let faults = stderr
        .lines()
        .find(|l| l.starts_with("injected "))
        .expect("fault summary line");
    for layer in ["mrt", "whois", "rpki"] {
        let count: u64 = faults
            .split(&format!("{layer} "))
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0);
        assert!(count > 0, "no {layer} damage: {faults}");
    }
    let dataset = dir.join("dataset.jsonl");
    let report = dir.join("run.json");
    let build = |threads: &str, strict: bool| {
        let mut args = vec![
            "build",
            "--in",
            dir_s,
            "--out",
            dataset.to_str().unwrap(),
            "--threads",
            threads,
            "--quarantine-samples",
            "100000",
        ];
        if strict {
            args.push("--strict");
        }
        args.extend(["--report", report.to_str().unwrap()]);
        run(&args)
    };
    let strict: Vec<String> = ["1", "4"]
        .iter()
        .map(|t| {
            let out = build(t, true);
            assert_eq!(out.status.code(), Some(2), "strict build at {t} threads");
            String::from_utf8(out.stderr).unwrap()
        })
        .collect();
    assert_eq!(strict[0], strict[1], "strict diagnostic differs");
    let diagnostic = strict[0].lines().last().unwrap();
    assert!(
        diagnostic.starts_with("prefix2org: ingest error: whois/"),
        "the first damaged input is a WHOIS dump: {diagnostic}"
    );

    let lenient: Vec<p2o_obs::RunReport> = ["1", "4"]
        .iter()
        .map(|t| {
            let out = build(t, false);
            assert!(out.status.success(), "lenient build at {t} threads");
            let text = std::fs::read_to_string(&report).unwrap();
            p2o_obs::RunReport::from_json(&p2o_util::Json::parse(&text).unwrap()).unwrap()
        })
        .collect();
    let quality = lenient[0].data_quality.clone().expect("data_quality");
    assert_eq!(lenient[1].data_quality.as_ref(), Some(&quality));
    assert_eq!(lenient[0].counters, lenient[1].counters);
    assert_eq!(quality.samples.len() as u64, quality.quarantined);
    let ranks: Vec<usize> = quality
        .samples
        .iter()
        .map(|r| input_rank(&r.file))
        .collect();
    assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "{ranks:?}");
    assert_eq!(
        (ranks.first(), ranks.last()),
        (Some(&0), Some(&2)),
        "rejects from the dumps through rpki.jsonl"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failure in `rpki.jsonl` comes before one in `jpnic_alloc.tsv` in input
/// order, though the lanes meet their inputs in the other order: with one
/// bad RPKI line and one malformed JPNIC row, a strict build names
/// `rpki.jsonl` and a lenient one (which quarantines the RPKI line) fails
/// on `jpnic_alloc.tsv`, at one thread and at four.
#[test]
fn load_lanes_report_the_first_failure_in_input_order() {
    let dir = temp_dir("fold-first-error");
    let dir_s = dir.to_str().unwrap();
    run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
    let append = |file: &str, line: &str| {
        let path = dir.join(file);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(line);
        std::fs::write(&path, text).unwrap();
    };
    append("rpki.jsonl", "{\"type\":\"bogus\"}\n");
    append("jpnic_alloc.tsv", "not-a-prefix\tallocated\n");
    let dataset = dir.join("dataset.jsonl");
    for threads in ["1", "4"] {
        for (strict, code, want) in [
            (
                true,
                2,
                "prefix2org: ingest error: rpki.jsonl: RpkiBadObject at line ",
            ),
            (
                false,
                1,
                "prefix2org: error: jpnic_alloc.tsv: malformed input",
            ),
        ] {
            let mut args = vec![
                "build",
                "--in",
                dir_s,
                "--out",
                dataset.to_str().unwrap(),
                "--threads",
                threads,
            ];
            if strict {
                args.push("--strict");
            }
            let out = run(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(code), "{stderr}");
            let last = stderr.lines().last().unwrap_or_default();
            assert!(
                last.starts_with(want),
                "threads {threads}, strict {strict}: {last}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn build_report_dash_writes_json_to_stdout() {
    let dir = temp_dir("report-dash");
    let dir_s = dir.to_str().unwrap();
    run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
    let dataset = dir.join("dataset.jsonl");
    let out = run(&[
        "build",
        "--in",
        dir_s,
        "--out",
        dataset.to_str().unwrap(),
        "--report",
        "-",
    ]);
    assert!(out.status.success());
    // stdout is exactly the JSON report (the human summary moves to
    // stderr so stdout stays machine-parseable).
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = p2o_util::Json::parse(stdout.trim()).unwrap();
    let parsed = p2o_obs::RunReport::from_json(&doc).unwrap();
    assert!(!parsed.stages.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("dataset:"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `explain` prints a record's stored trace, naming every rule, and the
/// bytes do not depend on how the dataset was obtained: an unbuilt copy of
/// the world, frozen in memory on one thread or on four, prints what the
/// built copy's artifact prints. A prefix no record covers says so, and a
/// reader that closes the pipe early (`| head -1`) ends it quietly, as it
/// ends `validate`, `diff`, `fsck` and `help`.
#[test]
fn explain_prints_deterministic_rule_chain() {
    let dir = temp_dir("explain");
    let unbuilt = temp_dir("explain-unbuilt");
    let dataset = generate_and_build(&dir, None);
    let dir_s = dir.to_str().unwrap();
    let unbuilt_s = unbuilt.to_str().unwrap();
    run_ok(&[
        "generate", "--out", unbuilt_s, "--scale", "tiny", "--seed", "99",
    ]);

    // Explain a prefix straight out of the built dataset.
    let text = std::fs::read_to_string(&dataset).unwrap();
    let first = p2o_util::Json::parse(text.lines().next().unwrap()).unwrap();
    let prefix = first
        .get("prefix")
        .and_then(p2o_util::Json::as_str)
        .unwrap();
    let out = run_ok(&["explain", "--in", dir_s, prefix]);
    assert!(out.starts_with(prefix), "{out}");
    for rule in [
        "bgp.origins",
        "radix.lpm",
        "whois.direct_owner",
        "cluster.final",
    ] {
        assert!(out.contains(rule), "missing {rule}:\n{out}");
    }
    for threads in ["1", "4"] {
        assert_eq!(
            run_ok(&["explain", "--in", unbuilt_s, prefix, "--threads", threads]),
            out,
            "unbuilt copy at --threads {threads}"
        );
    }

    let out = run_ok(&["explain", "--in", dir_s, "198.51.100.0/24"]);
    assert_eq!(
        out,
        "198.51.100.0/24: no covering record in the frozen dataset\n"
    );

    // Every record prefix in one call, with the reader gone after one
    // line: far more output than a pipe buffers, so the writes after the
    // close fail, and `explain` must still exit 0 without a panic.
    let prefixes: Vec<String> = text
        .lines()
        .map(|line| {
            let record = p2o_util::Json::parse(line).unwrap();
            let prefix = record.get("prefix").and_then(p2o_util::Json::as_str);
            prefix.unwrap().to_string()
        })
        .collect();
    let mut child = Command::new(bin())
        .args(["explain", "--in", dir_s])
        .args(&prefixes)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with(prefix), "{first}");
    let closed = child.wait_with_output().expect("explain exits");
    let stderr = String::from_utf8_lossy(&closed.stderr);
    assert_eq!(closed.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Every other command prints through the same writer: with stdout
    // closed before its first line, each also exits 0 without a panic.
    let dataset_s = dataset.to_str().unwrap();
    for args in [
        &["validate", "--in", dir_s, "--dataset", dataset_s][..],
        &["diff", "--old", dataset_s, "--new", dataset_s],
        &["fsck", dir_s],
        &["help"],
    ] {
        let mut child = Command::new(bin())
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let closed = child.wait_with_output().expect("command exits");
        let stderr = String::from_utf8_lossy(&closed.stderr);
        assert_eq!(closed.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&unbuilt);
}

/// A misspelt or retired option is refused by name, with exit 1, before
/// it can take the next argument as its value: `explain --frozen P1 P2`
/// fails instead of answering only `P2`, and a script still passing the
/// retired `build --spill`, `--mem-budget` or `--strict-mem` fails loudly.
#[test]
fn unknown_options_are_refused_by_name() {
    for (args, key) in [
        (
            &["explain", "--in", "/nonexistent", "--frozen", "41.0.0.0/22"][..],
            "--frozen",
        ),
        (
            &[
                "explain",
                "--in",
                "/nonexistent",
                "--frozn",
                "41.0.0.0/22",
                "10.1.0.0/16",
            ],
            "--frozn",
        ),
        (
            &[
                "build",
                "--in",
                "/nonexistent",
                "--out",
                "/nonexistent/x.jsonl",
                "--thread",
                "4",
            ],
            "--thread",
        ),
        (
            &[
                "build",
                "--in",
                "/nonexistent",
                "--out",
                "/nonexistent/x.jsonl",
                "--spill",
            ],
            "--spill",
        ),
        (
            &[
                "build",
                "--in",
                "/nonexistent",
                "--out",
                "/nonexistent/x.jsonl",
                "--mem-budget",
                "8388608",
            ],
            "--mem-budget",
        ),
        (
            &[
                "build",
                "--in",
                "/nonexistent",
                "--out",
                "/nonexistent/x.jsonl",
                "--strict-mem",
            ],
            "--strict-mem",
        ),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("prefix2org: error: unknown option {key} for {}\n", args[0])
        );
    }
}

/// `diff` prints exactly what `prefix2org::diff` finds between the two
/// exports, transfers included.
#[test]
fn diff_detects_transfers() {
    let dir_a = temp_dir("diff-a");
    let dir_b = temp_dir("diff-b");
    let ds_a = generate_and_build(&dir_a, None);
    let ds_b = generate_and_build(&dir_b, Some("3"));
    let out = run_ok(&[
        "diff",
        "--old",
        ds_a.to_str().unwrap(),
        "--new",
        ds_b.to_str().unwrap(),
    ]);
    let (old, new) = (export_of(&ds_a), export_of(&ds_b));
    let delta = prefix2org::diff(&old, &new);
    assert!(!delta.owner_changes.is_empty(), "{delta:?}");
    let mut want = format!(
        "snapshots: {} -> {} prefixes; {} unchanged\n\
         added {} / removed {} / owner changes {} / customer churn {}\n",
        old.len(),
        new.len(),
        delta.unchanged,
        delta.added.len(),
        delta.removed.len(),
        delta.owner_changes.len(),
        delta.customer_changes.len()
    );
    for change in delta.owner_changes.iter().take(20) {
        want += &format!(
            "  transfer {}: {} -> {}\n",
            change.prefix, change.from, change.to
        );
    }
    if delta.owner_changes.len() > 20 {
        want += &format!("  ... {} more\n", delta.owner_changes.len() - 20);
    }
    assert_eq!(out, want);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

fn export_of(dataset: &Path) -> Vec<prefix2org::ExportRecord> {
    prefix2org::from_jsonl(&std::fs::read_to_string(dataset).unwrap()).expect("export parses")
}

/// `org`'s answer by a scan of the export: every final cluster whose label
/// is the cleaned fragment or starts with it plus `-`, or that holds a
/// record whose cleaned Direct Owner contains it, in label order, each
/// with its records in export order.
fn org_by_scan(records: &[prefix2org::ExportRecord], fragment: &str) -> String {
    let needle = p2o_strings::clean::basic_clean(fragment);
    let labels: std::collections::BTreeSet<&str> = records
        .iter()
        .filter(|r| {
            r.final_cluster == needle
                || r.final_cluster.starts_with(&format!("{needle}-"))
                || p2o_strings::clean::basic_clean(&r.direct_owner).contains(&needle)
        })
        .map(|r| r.final_cluster.as_str())
        .collect();
    if labels.is_empty() {
        return format!("no organization matching {needle:?}\n");
    }
    let mut out = String::new();
    for label in labels {
        out += &format!("{label}:\n");
        for r in records.iter().filter(|r| r.final_cluster == label) {
            out += &format!(
                "  {}  {} [{}]\n",
                r.prefix,
                r.direct_owner,
                r.do_alloc.keyword()
            );
        }
    }
    out
}

/// On one tiny world, the organization questions get one answer on every
/// surface: `org` equals a scan of the export, `validate`'s rows and
/// totals equal `p2o_validate::evaluate_org` over the same dataset built
/// in process, and `stats` counts the Direct Owners `build` reports.
#[test]
fn org_validate_and_stats_answer_as_the_library_does() {
    let dir = temp_dir("org-answers");
    let dir_s = dir.to_str().unwrap();
    let dataset = dir.join("dataset.jsonl");
    let dataset_s = dataset.to_str().unwrap();
    run_ok(&[
        "generate", "--out", dir_s, "--scale", "tiny", "--seed", "99",
    ]);
    let built = run_ok(&["build", "--in", dir_s, "--out", dataset_s]);
    let records = export_of(&dataset);

    // stats: the distinct cleaned Direct Owners, as build reports them.
    let owners = built
        .split(" Direct Owners")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .expect("build summary names the Direct Owners");
    let stats = run_ok(&["stats", "--dataset", dataset_s]);
    assert!(
        stats.contains(&format!("\ndirect owners   : {owners}\n")),
        "build says {owners}:\n{stats}"
    );

    // org: a full owner name, a label's base, short fragments, one that
    // names nothing, and the empty one, which names every cluster.
    let base = records[0].final_cluster.rsplit_once('-').unwrap().0;
    for fragment in [
        records[0].direct_owner.as_str(),
        base,
        "net",
        "o",
        "zz qq",
        "",
    ] {
        let out = run_ok(&["org", "--dataset", dataset_s, fragment]);
        assert_eq!(
            out,
            org_by_scan(&records, fragment),
            "fragment {fragment:?}"
        );
    }
    let labels: std::collections::BTreeSet<&str> =
        records.iter().map(|r| r.final_cluster.as_str()).collect();
    let out = run_ok(&["org", "--dataset", dataset_s, ""]);
    assert_eq!(
        out.lines().filter(|l| !l.starts_with(' ')).count(),
        labels.len()
    );

    // validate: the same dataset in process, scored list by list.
    let world = p2o_synth::World::generate(p2o_synth::WorldConfig::tiny(99));
    let inputs = world.build_inputs();
    let ds = prefix2org::Pipeline::default().run(&prefix2org::PipelineInputs {
        delegations: &inputs.tree,
        routes: &inputs.routes,
        asn_clusters: &inputs.clusters,
        rpki: &inputs.rpki,
    });
    assert_eq!(
        prefix2org::to_jsonl(&ds),
        std::fs::read_to_string(&dataset).unwrap()
    );
    let lists = std::fs::read_to_string(dir.join("truth").join("lists.tsv")).unwrap();
    let mut by_org: std::collections::BTreeMap<(String, bool), Vec<p2o_net::Prefix>> =
        Default::default();
    for line in lists.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        by_org
            .entry((cols[0].to_string(), cols[1] == "true"))
            .or_default()
            .push(cols[2].parse().unwrap());
    }
    let out = run_ok(&["validate", "--in", dir_s, "--dataset", dataset_s]);
    let mut rows = out.lines().skip(1);
    let numbers = |row: &str| -> Vec<String> {
        let fields: Vec<&str> = row.split_whitespace().collect();
        fields[fields.len() - 7..]
            .iter()
            .map(|f| f.to_string())
            .collect()
    };
    let mut report = p2o_validate::ValidationReport::default();
    for ((org, exhaustive), prefixes) in &by_org {
        for family in [p2o_net::AddressFamily::V4, p2o_net::AddressFamily::V6] {
            let v = p2o_validate::evaluate_org(&ds, org, prefixes, family);
            if v.true_prefixes == 0 {
                continue;
            }
            let row = rows.next().expect("a row per list and family");
            let kind = if *exhaustive { "exhaustive" } else { "public" };
            assert!(
                row.starts_with(&format!("{org} ({family}, {kind}) ")),
                "{row}"
            );
            assert_eq!(
                numbers(row),
                [
                    v.true_prefixes.to_string(),
                    v.predicted_prefixes.to_string(),
                    v.true_positives.to_string(),
                    v.false_positives.to_string(),
                    v.false_negatives.to_string(),
                    format!("{:.2}", v.precision()),
                    format!("{:.2}", v.recall()),
                ],
                "{row}"
            );
            report.push(v);
        }
    }
    assert!(!report.rows.is_empty());
    let total = rows.next().expect("a Total row");
    assert!(total.starts_with("Total "), "{total}");
    assert_eq!(
        numbers(total),
        [
            report.total_true().to_string(),
            report.total_predicted().to_string(),
            report.total_tp().to_string(),
            report.total_fp().to_string(),
            report.total_fn().to_string(),
            format!("{:.2}", report.precision()),
            format!("{:.2}", report.recall()),
        ]
    );
    assert_eq!(rows.next(), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_rate_zero_is_byte_identical_to_clean_generate() {
    let clean = temp_dir("corrupt-zero-a");
    let zeroed = temp_dir("corrupt-zero-b");
    run_ok(&[
        "generate",
        "--out",
        clean.to_str().unwrap(),
        "--scale",
        "tiny",
        "--seed",
        "42",
    ]);
    run_ok(&[
        "generate",
        "--out",
        zeroed.to_str().unwrap(),
        "--scale",
        "tiny",
        "--seed",
        "42",
        "--corrupt-rate",
        "0",
    ]);
    let files = |root: &Path| {
        let mut files = Vec::new();
        let mut dirs = vec![root.to_path_buf()];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    files.push(path.strip_prefix(root).unwrap().to_path_buf());
                }
            }
        }
        files.sort();
        files
    };
    let generated = files(&clean);
    assert!(generated.len() > 10, "{generated:?}");
    assert_eq!(
        generated,
        files(&zeroed),
        "--corrupt-rate 0 changed the file set"
    );
    for file in &generated {
        assert_eq!(
            std::fs::read(clean.join(file)).unwrap(),
            std::fs::read(zeroed.join(file)).unwrap(),
            "--corrupt-rate 0 changed {}",
            file.display()
        );
    }
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&zeroed);
}

#[test]
fn lenient_build_survives_corruption_and_reports_data_quality() {
    for rate in ["0", "0.01", "0.1"] {
        let dir = temp_dir(&format!("corrupt-lenient-{rate}"));
        let dir_s = dir.to_str().unwrap();
        run_ok(&[
            "generate",
            "--out",
            dir_s,
            "--scale",
            "tiny",
            "--seed",
            "42",
            "--corrupt-rate",
            rate,
            "--corrupt-seed",
            "7",
        ]);
        let dataset = dir.join("dataset.jsonl");
        let report = dir.join("run.json");
        let out = run(&[
            "build",
            "--in",
            dir_s,
            "--out",
            dataset.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ]);
        // Lenient is the default: the build completes (exit 0) at any rate.
        assert!(
            out.status.success(),
            "lenient build failed at rate {rate}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!std::fs::read_to_string(&dataset).unwrap().is_empty());

        // The report carries a data_quality section whose per-layer and
        // per-kind counts add up to the ingest.quarantined total, which is
        // zero exactly when nothing was corrupted.
        let doc = p2o_util::Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let parsed = p2o_obs::RunReport::from_json(&doc).unwrap();
        let dq = parsed.data_quality.as_ref().expect("data_quality present");
        assert_eq!(dq.quarantined == 0, rate == "0", "rate {rate}: {dq:?}");
        assert_eq!(parsed.counter("ingest.quarantined"), Some(dq.quarantined));
        let per_layer_sum: u64 = dq.per_layer.iter().map(|(_, n)| n).sum();
        let per_kind_sum: u64 = dq.per_kind.iter().map(|(_, n)| n).sum();
        assert_eq!(per_layer_sum, dq.quarantined, "rate {rate}");
        assert_eq!(per_kind_sum, dq.quarantined, "rate {rate}");
        // The warning and the samples appear exactly when records were lost.
        let stderr = String::from_utf8_lossy(&out.stderr);
        let warned = stderr.contains("corrupt records quarantined");
        assert_eq!(warned, rate != "0", "rate {rate}: {stderr}");
        assert_eq!(dq.samples.is_empty(), rate == "0", "rate {rate}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn strict_build_on_corrupt_input_exits_2_with_diagnostic() {
    let dir = temp_dir("corrupt-strict");
    let dir_s = dir.to_str().unwrap();
    run_ok(&[
        "generate",
        "--out",
        dir_s,
        "--scale",
        "tiny",
        "--seed",
        "42",
        "--corrupt-rate",
        "0.1",
        "--corrupt-seed",
        "7",
    ]);
    let dataset = dir.join("dataset.jsonl");
    let out = run(&[
        "build",
        "--in",
        dir_s,
        "--out",
        dataset.to_str().unwrap(),
        "--strict",
    ]);
    assert_eq!(out.status.code(), Some(2), "strict mode must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The one-line diagnostic names the file, the offset, and the variant.
    assert!(stderr.contains("prefix2org: ingest error: "), "{stderr}");
    assert!(
        stderr.contains("rib.mrt") || stderr.contains("whois/") || stderr.contains("rpki.jsonl"),
        "diagnostic names no file:\n{stderr}"
    );
    assert!(
        stderr.contains(" at byte ") || stderr.contains(" at line "),
        "diagnostic has no offset:\n{stderr}"
    );
    assert!(
        stderr.contains("Mrt") || stderr.contains("Rpsl") || stderr.contains("Rpki"),
        "diagnostic names no error variant:\n{stderr}"
    );

    // The same directory builds fine without --strict.
    let out = run(&["build", "--in", dir_s, "--out", dataset.to_str().unwrap()]);
    assert!(out.status.success());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_when_current_and_recomputes_when_stale() {
    let dir = temp_dir("resume");
    let dir_s = dir.to_str().unwrap();
    run_ok(&[
        "generate", "--out", dir_s, "--scale", "tiny", "--seed", "21",
    ]);
    let dataset = dir.join("dataset.jsonl");
    let ds = dataset.to_str().unwrap();

    // First build writes the checkpoint stamp next to the export.
    run_ok(&["build", "--in", dir_s, "--out", ds]);
    let stamp = dir.join("dataset.jsonl.ckpt");
    assert!(stamp.exists(), "no checkpoint stamp written");
    let golden = std::fs::read(&dataset).unwrap();

    // --resume with everything current: skipped, export untouched.
    let out = run(&["build", "--in", dir_s, "--out", ds, "--resume"]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("resumed"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(std::fs::read(&dataset).unwrap(), golden);

    // Changed options invalidate the stamp (the inputs digest covers
    // them): the build recomputes with a warning, never aborts.
    let out = run(&[
        "build",
        "--in",
        dir_s,
        "--out",
        ds,
        "--resume",
        "--quarantine-samples",
        "3",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("inputs or options changed"), "{stderr}");
    assert_eq!(std::fs::read(&dataset).unwrap(), golden);

    // A damaged export likewise recomputes (and heals the file).
    std::fs::write(&dataset, b"torn").unwrap();
    let out = run(&[
        "build",
        "--in",
        dir_s,
        "--out",
        ds,
        "--resume",
        "--quarantine-samples",
        "3",
    ]);
    assert!(out.status.success());
    assert_eq!(std::fs::read(&dataset).unwrap(), golden);

    // Without --resume a valid stamp is ignored: the build always runs.
    let out = run(&["build", "--in", dir_s, "--out", ds]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("resumed"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_passes_clean_directories_and_exits_2_on_damage() {
    let dir = temp_dir("fsck");
    let dir_s = dir.to_str().unwrap();
    run_ok(&[
        "generate", "--out", dir_s, "--scale", "tiny", "--seed", "22",
    ]);

    let out = run(&["fsck", dir_s]);
    assert!(
        out.status.success(),
        "clean directory failed fsck:\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("ok ("),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Tear an artifact the manifest covers: fsck names it and exits 2.
    let mrt = std::fs::read(dir.join("rib.mrt")).unwrap();
    std::fs::write(dir.join("rib.mrt"), &mrt[..mrt.len() / 2]).unwrap();
    std::fs::write(dir.join("whois").join("X.txt.p2o-tmp"), b"debris").unwrap();
    let out = run(&["fsck", dir_s]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rib.mrt"), "{stdout}");
    assert!(stdout.contains("leftover tmp"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("integrity error"), "{stderr}");

    // A directory that is not there is a general error (exit 1), not an
    // integrity finding.
    let out = run(&["fsck", "/nonexistent-p2o"]);
    assert_eq!(out.status.code(), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn future_format_version_is_rejected_with_actionable_error() {
    let dir = temp_dir("format-version");
    let dir_s = dir.to_str().unwrap();
    run_ok(&[
        "generate", "--out", dir_s, "--scale", "tiny", "--seed", "23",
    ]);

    let meta = std::fs::read_to_string(dir.join("meta.tsv")).unwrap();
    assert!(meta.contains("format_version\t1"), "{meta}");
    let bumped = meta.replace("format_version\t1", "format_version\t99");
    std::fs::write(dir.join("meta.tsv"), &bumped).unwrap();

    let dataset = dir.join("dataset.jsonl");
    let out = run(&["build", "--in", dir_s, "--out", dataset.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("format_version 99"), "{stderr}");
    assert!(stderr.contains("newer than this binary"), "{stderr}");
    assert!(stderr.contains("upgrade"), "{stderr}");
    assert!(!dataset.exists(), "build must not write on a rejected load");

    // fsck reports the same problem as a finding.
    let out = run(&["fsck", dir_s]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("format_version 99"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_samples_flag_caps_report_samples() {
    let dir = temp_dir("qsamples");
    let dir_s = dir.to_str().unwrap();
    run_ok(&[
        "generate",
        "--out",
        dir_s,
        "--scale",
        "tiny",
        "--seed",
        "42",
        "--corrupt-rate",
        "0.2",
        "--corrupt-seed",
        "7",
    ]);
    let dataset = dir.join("dataset.jsonl");
    let report = dir.join("run.json");
    let samples_with = |cap: &str| -> (u64, usize) {
        let out = run(&[
            "build",
            "--in",
            dir_s,
            "--out",
            dataset.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
            "--quarantine-samples",
            cap,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = p2o_util::Json::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let parsed = p2o_obs::RunReport::from_json(&doc).unwrap();
        let dq = parsed.data_quality.expect("data_quality present");
        (dq.quarantined, dq.samples.len())
    };

    let (quarantined, at_two) = samples_with("2");
    assert!(quarantined > 2, "need >2 quarantined records for the cap");
    assert_eq!(at_two, 2, "--quarantine-samples 2 must cap the samples");
    let (_, at_zero) = samples_with("0");
    assert_eq!(at_zero, 0);
    let (q, uncapped) = samples_with("100000");
    assert_eq!(uncapped as u64, q, "a huge cap keeps every sample");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn errors_are_reported_not_panicked() {
    // Unknown command.
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required option.
    let out = run(&["build", "--in", "/nonexistent"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    // Nonexistent input directory.
    let out = run(&["build", "--in", "/nonexistent", "--out", "/tmp/x.jsonl"]);
    assert!(!out.status.success());

    // Bad dataset path for lookup.
    let out = run(&["lookup", "--dataset", "/nonexistent.jsonl", "10.0.0.0/8"]);
    assert!(!out.status.success());

    // Help succeeds.
    let out = run(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
