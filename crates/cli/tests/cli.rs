//! End-to-end tests of the `prefix2org` binary: generate → build → query →
//! diff → validate, via real process invocations on a temp directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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

#[test]
fn build_report_emits_run_report() {
    let dir = temp_dir("report");
    let dir_s = dir.to_str().unwrap();
    run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
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
    assert!(out.status.success());

    // The report file is a valid RunReport with stages and counters.
    let text = std::fs::read_to_string(&report).unwrap();
    let doc = p2o_util::Json::parse(&text).unwrap();
    let parsed = p2o_obs::RunReport::from_json(&doc).unwrap();
    assert!(!parsed.stages.is_empty(), "report has no stages");
    for stage in [
        "util.digest",
        "whois.parse",
        "bgp.parse",
        "rpki.load",
        "whois.build",
        "as2org.cluster",
        "rpki.validate",
        "whois.delegated",
        "pipeline.resolve",
        "pipeline.cluster",
        "core.export",
        "core.freeze",
        "core.thaw_verify",
        "util.write_export",
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

    // The stderr summary table lists the stages and counters.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stages"), "{stderr}");
    assert!(stderr.contains("pipeline.resolve"), "{stderr}");
    assert!(stderr.contains("whois.records"), "{stderr}");

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
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace is a Chrome trace-event JSON array with B/E span events
    // carrying tid/ts, and covers every instrumented parallel stage.
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
        assert!(["M", "B", "E"].contains(&ph.as_str()), "unknown phase {ph}");
        assert!(e.get("tid").is_some(), "event without tid");
        if ph != "M" {
            assert!(e.get("ts").is_some(), "span event without ts");
            assert!(e.get("name").is_some(), "span event without name");
        }
    }
    for stage in [
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

/// `--threads` changes timing and nothing else: the export, the frozen
/// artifact, the run report's stage rows and the set of span names are
/// the same at one thread and at four. Per-shard timing lives only in the
/// trace, as extra spans of the same names.
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
        let mut stages: Vec<String> = p2o_obs::RunReport::from_json(&report)
            .unwrap()
            .stages
            .into_iter()
            .map(|s| s.name)
            .collect();
        stages.sort();
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
    for name in [
        "whois.parse",
        "mrt.decode",
        "resolve",
        "cluster.group_build",
    ] {
        assert!(
            count(&spans4, name) > count(&spans1, name),
            "{name}: four threads trace no extra shard spans"
        );
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

#[test]
fn explain_prints_deterministic_rule_chain() {
    let dir = temp_dir("explain");
    let dataset = generate_and_build(&dir, None);
    let dir_s = dir.to_str().unwrap();

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
    // The chain is deterministic across thread counts.
    let seq = run_ok(&["explain", "--in", dir_s, prefix, "--threads", "1"]);
    let par = run_ok(&["explain", "--in", dir_s, prefix, "--threads", "4"]);
    assert_eq!(seq, par);

    // A prefix with no covering delegation ends at the miss.
    let out = run_ok(&["explain", "--in", dir_s, "198.51.100.0/24"]);
    assert!(out.contains("whois.unresolved"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

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
    assert!(out.contains("owner changes"), "{out}");
    assert!(out.contains("transfer "), "expected transfer lines:\n{out}");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
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
