//! Bounded-memory streaming build: the `--spill` / `--mem-budget` /
//! `--strict-mem` surface of `prefix2org build`.
//!
//! The tentpole property: **the spill path is an implementation detail of
//! memory, not of meaning** — a build streamed through on-disk spill runs
//! under any budget, at any thread count, exports byte-identical output to
//! the plain in-memory build, and the budget is honestly accounted (the
//! reported peak stays under it).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_prefix2org")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .env_remove(p2o_util::vfs::ENV_FAULT)
        .output()
        .expect("binary runs")
}

fn run_ok(args: &[&str]) -> (String, String) {
    let out = run(args);
    assert!(
        out.status.success(),
        "command {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p2o-spill-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn generate(dir: &Path, seed: &str) {
    generate_with(dir, &["--scale", "tiny", "--seed", seed]);
}

fn generate_with(dir: &Path, args: &[&str]) {
    let mut argv = vec!["generate", "--out", dir.to_str().unwrap()];
    argv.extend_from_slice(args);
    run_ok(&argv);
}

/// Pull one `"key": N` value out of a JSON report without a parser.
fn json_u64(text: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = text
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in report"));
    let rest = &text[at + needle.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap_or_else(|_| panic!("numeric {key}"))
}

/// Spill builds export byte-identically to the in-memory build for every
/// combination of thread count and budget, the reported peak honors the
/// budget, and the spill directory is cleaned up on success.
#[test]
fn spill_export_is_byte_identical_across_threads_and_budgets() {
    let dir = temp_dir("identity");
    let dir_s = dir.to_str().unwrap().to_string();
    generate(&dir, "4801");

    let golden_path = dir.join("golden.jsonl");
    run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        golden_path.to_str().unwrap(),
    ]);
    let golden = std::fs::read(&golden_path).expect("golden export");
    assert!(!golden.is_empty());

    for threads in ["1", "4"] {
        for budget in [None, Some("262144"), Some("65536")] {
            let out_path = dir.join(format!(
                "spill-{threads}-{}.jsonl",
                budget.unwrap_or("unlimited")
            ));
            let report_path = dir.join("run.json");
            let mut args = vec![
                "build",
                "--in",
                &dir_s,
                "--out",
                out_path.to_str().unwrap(),
                "--threads",
                threads,
                "--spill",
                "--report",
                report_path.to_str().unwrap(),
            ];
            if let Some(b) = budget {
                args.extend(["--mem-budget", b]);
            }
            let (_, stderr) = run_ok(&args);
            assert_eq!(
                std::fs::read(&out_path).expect("spill export"),
                golden,
                "spill export diverged (threads {threads}, budget {budget:?})"
            );
            assert!(
                stderr.contains("mem: spill build"),
                "missing mem summary line:\n{stderr}"
            );
            assert!(
                !p2o_util::spill::spill_dir(&dir).exists(),
                "spill dir must be cleaned after success"
            );

            let report = std::fs::read_to_string(&report_path).expect("report");
            assert!(report.contains("\"mode\": \"spill\""), "{report}");
            let peak = json_u64(&report, "peak_bytes");
            assert!(peak > 0, "accounted peak must be nonzero");
            if let Some(b) = budget {
                let b: u64 = b.parse().unwrap();
                assert!(
                    peak <= b,
                    "peak {peak} exceeds budget {b} (threads {threads})"
                );
                assert_eq!(json_u64(&report, "budget_exceeded"), 0);
            }
            assert!(json_u64(&report, "spill_runs_created") >= 1);
            assert_eq!(
                json_u64(&report, "spill_runs_created"),
                json_u64(&report, "spill_runs_merged"),
                "every run written must be merged"
            );
        }
    }
}

/// Builds `dir` with `extra` flags and returns the export bytes plus the
/// run report's `data_quality` and `memory` sections.
fn build_report(
    dir: &Path,
    name: &str,
    extra: &[&str],
) -> (Vec<u8>, p2o_util::json::Json, p2o_util::json::Json) {
    let out = dir.join(format!("{name}.jsonl"));
    let report = dir.join(format!("{name}.json"));
    let mut args = vec![
        "build",
        "--in",
        dir.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    run_ok(&args);
    let text = std::fs::read_to_string(&report).expect("report");
    let json = p2o_util::json::Json::parse(&text).expect("report parses");
    let section = |key: &str| {
        json.get(key)
            .unwrap_or_else(|| panic!("{key} section"))
            .clone()
    };
    (
        std::fs::read(&out).expect("export"),
        section("data_quality"),
        section("memory"),
    )
}

/// The `prefix2org: ingest error: ...` line a `--strict` build exits with.
fn strict_diagnostic(dir: &Path, extra: &[&str]) -> String {
    let out = dir.join("strict.jsonl");
    let mut args = vec![
        "build",
        "--in",
        dir.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--strict",
    ];
    args.extend_from_slice(extra);
    let result = run(&args);
    assert_eq!(
        result.status.code(),
        Some(2),
        "--strict {extra:?} must abort"
    );
    let stderr = String::from_utf8_lossy(&result.stderr);
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("ingest error"))
        .collect();
    assert_eq!(lines.len(), 1, "one diagnostic line:\n{stderr}");
    lines[0].to_string()
}

/// On corrupt input the spill build is still the in-memory build: the
/// same export bytes, the same `data_quality` section (counts, per-kind
/// tallies, every sample with its whole-file offset), and the same
/// `--strict` diagnostic, at one thread and at four. Chunks are cut only
/// where the whole-file parsers find a boundary, and damaged MRT ranges
/// are quarantined once by the framing pass, never split by a chunk cut.
#[test]
fn spill_matches_in_memory_on_corrupt_input() {
    let cases: &[(&str, &str, &str, &str, &str)] = &[
        ("default", "99", "0.02", "1", "262144"),
        ("default", "99", "0.02", "2", "262144"),
        ("default", "99", "0.02", "3", "262144"),
        ("default", "99", "0.02", "4", "262144"),
        ("tiny", "7", "0.10", "21", "16384"),
    ];
    for &(scale, seed, rate, corrupt_seed, budget) in cases {
        let dir = temp_dir(&format!("corrupt-{scale}-{corrupt_seed}"));
        generate_with(
            &dir,
            &[
                "--scale",
                scale,
                "--seed",
                seed,
                "--corrupt-rate",
                rate,
                "--corrupt-seed",
                corrupt_seed,
            ],
        );
        for threads in ["1", "4"] {
            let case = format!("{scale} corrupt seed {corrupt_seed}, threads {threads}");
            let common = ["--threads", threads, "--quarantine-samples", "4096"];
            let (golden, golden_quality, _) = build_report(&dir, "inmem", &common);
            let spill = [&common[..], &["--spill", "--mem-budget", budget]].concat();
            let (export, quality, memory) = build_report(&dir, "spill", &spill);
            assert_eq!(memory.get("mode").and_then(|m| m.as_str()), Some("spill"));
            assert!(
                export == golden,
                "spill export diverged from the in-memory export ({case})"
            );
            assert_eq!(quality, golden_quality, "data_quality diverged ({case})");
            assert_eq!(
                strict_diagnostic(
                    &dir,
                    &["--threads", threads, "--spill", "--mem-budget", budget]
                ),
                strict_diagnostic(&dir, &["--threads", threads]),
                "strict diagnostic diverged ({case})"
            );
        }
    }
}

/// A RIB whose leading PEER_INDEX_TABLE is unreadable is one quarantined
/// record covering the whole file in memory; the spill build must report
/// exactly that record and export the same bytes, not a record per chunk.
#[test]
fn spill_matches_in_memory_on_unreadable_peer_table() {
    let dir = temp_dir("peer-table");
    generate(&dir, "4805");
    let rib = std::fs::read(dir.join("rib.mrt")).expect("rib");
    let mut wrong_subtype = rib.clone();
    wrong_subtype[6..8].copy_from_slice(&2u16.to_be_bytes());
    let variants: [(&str, Vec<u8>); 4] = [
        ("garbage", b"not an MRT dump at all".to_vec()),
        ("empty", Vec::new()),
        ("torn peer table", rib[..30].to_vec()),
        ("wrong subtype", wrong_subtype),
    ];
    for (name, bytes) in variants {
        std::fs::write(dir.join("rib.mrt"), bytes).expect("write rib");
        let common = ["--quarantine-samples", "4096"];
        let (golden, golden_quality, _) = build_report(&dir, "inmem", &common);
        let spill = [&common[..], &["--spill", "--mem-budget", "16384"]].concat();
        let (export, quality, _) = build_report(&dir, "spill", &spill);
        assert!(export == golden, "spill export diverged ({name})");
        assert_eq!(quality, golden_quality, "data_quality diverged ({name})");
    }
}

/// The budget bites at default scale: the in-memory build's accounted
/// peak (the largest input file, held whole) is above a budget that the
/// spill build stays under, across several spill runs, with identical
/// export bytes. At tiny scale no budget shows this: the in-memory peak
/// is below the spill path's floor.
#[test]
fn spill_stays_under_a_budget_the_in_memory_build_exceeds() {
    const BUDGET: u64 = 262_144;
    let dir = temp_dir("bites");
    generate_with(&dir, &["--scale", "default", "--seed", "99"]);
    let (golden, _, inmem) = build_report(&dir, "inmem", &[]);
    let budget = BUDGET.to_string();
    let (export, _, spill) = build_report(&dir, "spill", &["--spill", "--mem-budget", &budget]);
    let field = |section: &p2o_util::json::Json, key: &str| {
        section
            .get(key)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("memory.{key}"))
    };
    assert_eq!(
        inmem.get("mode").and_then(|m| m.as_str()),
        Some("in-memory")
    );
    assert_eq!(spill.get("mode").and_then(|m| m.as_str()), Some("spill"));
    let inmem_peak = field(&inmem, "peak_bytes");
    let spill_peak = field(&spill, "peak_bytes");
    assert!(
        inmem_peak > BUDGET,
        "in-memory peak {inmem_peak} no longer exceeds the budget {BUDGET}"
    );
    assert!(
        spill_peak <= BUDGET,
        "spill peak {spill_peak} broke the budget {BUDGET}"
    );
    assert_eq!(field(&spill, "budget_exceeded"), 0);
    assert!(field(&spill, "spill_runs_created") >= 2, "{spill:?}");
    assert_eq!(
        field(&spill, "spill_runs_created"),
        field(&spill, "spill_runs_merged")
    );
    assert!(
        export == golden,
        "spill export diverged from the in-memory export"
    );
}

/// The `mem.*` counter family flows through to the Prometheus exposition
/// with the same values the report's memory section carries.
#[test]
fn mem_counters_reach_prometheus_exposition() {
    let dir = temp_dir("prom");
    let dir_s = dir.to_str().unwrap().to_string();
    generate(&dir, "4802");
    let metrics_path = dir.join("metrics.prom");
    run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        dir.join("out.jsonl").to_str().unwrap(),
        "--spill",
        "--mem-budget",
        "262144",
        "--metrics",
        metrics_path.to_str().unwrap(),
    ]);
    let prom = std::fs::read_to_string(&metrics_path).expect("metrics");
    assert!(prom.contains("p2o_mem_budget_bytes_total 262144"), "{prom}");
    for series in [
        "p2o_mem_peak_bytes_total",
        "p2o_mem_budget_exceeded_total",
        "p2o_mem_spill_runs_created_total",
        "p2o_mem_spill_runs_merged_total",
        "p2o_mem_spill_bytes_written_total",
        "p2o_mem_spill_bytes_read_total",
    ] {
        assert!(prom.contains(series), "missing {series}:\n{prom}");
    }
    let peak_line = prom
        .lines()
        .find(|l| l.starts_with("p2o_mem_peak_bytes_total "))
        .unwrap();
    let peak: u64 = peak_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(peak > 0 && peak <= 262144, "{peak_line}");
}

/// A budget the inputs cannot fit degrades gracefully: the build warns,
/// switches to the spill path, still exports byte-identically, and the
/// report says `degraded` with a nonzero exceeded tally. `--strict-mem`
/// turns the same situation into an exit-2 abort with a one-line
/// diagnostic; without `--mem-budget` it is a usage error.
#[test]
fn budget_overrun_degrades_and_strict_mem_aborts() {
    let dir = temp_dir("degrade");
    let dir_s = dir.to_str().unwrap().to_string();
    generate(&dir, "4803");

    let golden_path = dir.join("golden.jsonl");
    run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        golden_path.to_str().unwrap(),
    ]);
    let golden = std::fs::read(&golden_path).expect("golden export");

    // A budget below the largest input file: degrade, warn, still correct.
    let out_path = dir.join("degraded.jsonl");
    let report_path = dir.join("run.json");
    let (_, stderr) = run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        out_path.to_str().unwrap(),
        "--mem-budget",
        "16384",
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert!(
        stderr.contains("degrading to the spill path"),
        "missing degradation warning:\n{stderr}"
    );
    assert!(stderr.contains("mem: degraded build"), "{stderr}");
    assert_eq!(std::fs::read(&out_path).expect("degraded export"), golden);
    let report = std::fs::read_to_string(&report_path).expect("report");
    assert!(report.contains("\"mode\": \"degraded\""), "{report}");
    assert!(json_u64(&report, "budget_exceeded") >= 1, "{report}");

    // --strict-mem: same overrun is a typed ingest failure, exit code 2,
    // one diagnostic line naming the deficit and the way out.
    let out = run(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        dir.join("strict.jsonl").to_str().unwrap(),
        "--mem-budget",
        "16384",
        "--strict-mem",
    ]);
    assert_eq!(out.status.code(), Some(2), "--strict-mem must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let diag: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("ingest error"))
        .collect();
    assert_eq!(diag.len(), 1, "one diagnostic line:\n{stderr}");
    assert!(
        diag[0].contains("--mem-budget is 16384") && diag[0].contains("--spill"),
        "{stderr}"
    );
    assert!(
        !dir.join("strict.jsonl").exists(),
        "strict abort must not write the export"
    );

    // --strict-mem without a budget is a usage error (exit 1), not a
    // silently ignored flag.
    let out = run(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        dir.join("x.jsonl").to_str().unwrap(),
        "--strict-mem",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--strict-mem needs --mem-budget"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A spill build under the same hostile budget also stays identical
    // (the degraded path and the explicit path are the same machinery).
    let spill_path = dir.join("spill.jsonl");
    run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        spill_path.to_str().unwrap(),
        "--spill",
        "--mem-budget",
        "16384",
    ]);
    assert_eq!(std::fs::read(&spill_path).expect("spill export"), golden);
}

/// `--resume` checkpoints are keyed on the memory options: flipping
/// `--spill` or changing the budget invalidates the stamp and recomputes,
/// while an unchanged invocation (and a `--strict-mem`-only change) skips.
#[test]
fn resume_checkpoint_tracks_memory_options() {
    let dir = temp_dir("resume");
    let dir_s = dir.to_str().unwrap().to_string();
    generate(&dir, "4804");
    let out_path = dir.join("out.jsonl").to_str().unwrap().to_string();

    run_ok(&["build", "--in", &dir_s, "--out", &out_path]);

    // Unchanged options: the stamp holds and the build is skipped.
    let (_, stderr) = run_ok(&["build", "--in", &dir_s, "--out", &out_path, "--resume"]);
    assert!(stderr.contains("skipping build"), "{stderr}");

    // Turning --spill on is a different ingest: recompute.
    let (_, stderr) = run_ok(&[
        "build", "--in", &dir_s, "--out", &out_path, "--resume", "--spill",
    ]);
    assert!(stderr.contains("recomputing"), "{stderr}");

    // Same spill options again: skip.
    let (_, stderr) = run_ok(&[
        "build", "--in", &dir_s, "--out", &out_path, "--resume", "--spill",
    ]);
    assert!(stderr.contains("skipping build"), "{stderr}");

    // A different budget: recompute.
    let (_, stderr) = run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        &out_path,
        "--resume",
        "--spill",
        "--mem-budget",
        "262144",
    ]);
    assert!(stderr.contains("recomputing"), "{stderr}");

    // --strict-mem changes failure policy, not ingest output: still a skip.
    let (_, stderr) = run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        &out_path,
        "--resume",
        "--spill",
        "--mem-budget",
        "262144",
        "--strict-mem",
    ]);
    assert!(stderr.contains("skipping build"), "{stderr}");
}
