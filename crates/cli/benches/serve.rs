//! `bench serve` — the load harness for the long-running lookup service.
//!
//! Spawns the real `prefix2org serve` binary as a subprocess over a
//! fixed-seed generated world, then measures sustained lookups/sec from
//! 1, 4, and 16 concurrent keep-alive clients cycling `GET /prefix/<cidr>`
//! over the snapshot's own routed prefixes. With `--json` the results are
//! persisted to `BENCH_serve.json` at the repository root.
//!
//! Also times cold start — process spawn to an answered `/health` — for
//! the frozen zero-copy artifact of a built directory against a generated
//! but unbuilt copy of the same world, which pays the full load plus an
//! in-memory freeze (`P2O_BENCH_SERVE_SCALE` picks the world size;
//! default `default`, CI smoke uses `tiny`).
//!
//! ```text
//! cargo bench -p p2o-cli --bench serve            # human-readable
//! cargo bench -p p2o-cli --bench serve -- --json  # + BENCH_serve.json
//! P2O_BENCH_MS=50 P2O_BENCH_SERVE_CLIENTS=1,4 \
//!     P2O_BENCH_SERVE_SCALE=tiny cargo bench ...   # CI smoke
//! ```
//!
//! Lives in `p2o-cli` (not `p2o-bench`) because `CARGO_BIN_EXE_prefix2org`
//! is only provided to the binary-defining crate's own benches.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2o_serve::HttpClient;
use p2o_util::Json;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_prefix2org")
}

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills the serve subprocess even when the bench panics mid-run.
struct ServerProc(Child);

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn generate_world(dir: &std::path::Path) {
    generate_world_scale(dir, "tiny");
}

fn generate_world_scale(dir: &std::path::Path, scale: &str) {
    let status = Command::new(bin())
        .args([
            "generate",
            "--out",
            &dir.display().to_string(),
            "--seed",
            "42",
            "--scale",
            scale,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("running generate");
    assert!(status.success(), "generate failed");
}

/// Runs `prefix2org build` over the directory so it carries both the
/// JSONL export and the frozen `world.p2ob` artifact.
fn build_world(dir: &std::path::Path) {
    let status = Command::new(bin())
        .args([
            "build",
            "--in",
            &dir.display().to_string(),
            "--out",
            &dir.join("dataset.jsonl").display().to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("running build");
    assert!(status.success(), "build failed");
}

/// Starts `prefix2org serve DIR` and waits for its readiness line.
fn start_server(dir: &std::path::Path) -> (ServerProc, String) {
    start_server_with(dir, &[])
}

fn start_server_with(dir: &std::path::Path, extra: &[&str]) -> (ServerProc, String) {
    let mut child = Command::new(bin())
        .args(["serve", &dir.display().to_string(), "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut lines = BufReader::new(stdout).lines();
    let line = lines
        .next()
        .expect("serve printed a line")
        .expect("readable stdout");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line {line:?}"))
        .to_string();
    (ServerProc(child), addr)
}

/// Every response carries a monotonic `X-P2O-Request-Id`; a few
/// sequential requests on one connection must see strictly increasing
/// ids.
fn assert_request_ids_increase(addr: &str) {
    let mut client = HttpClient::connect(addr).expect("connect for id check");
    let mut last = 0u64;
    for _ in 0..3 {
        let resp = client.get("/health").expect("health response");
        let id: u64 = resp
            .header("x-p2o-request-id")
            .expect("X-P2O-Request-Id header present")
            .parse()
            .expect("numeric request id");
        assert!(id > last, "request ids must be strictly increasing");
        last = id;
    }
}

/// The `prefix` endpoint's windowed latency percentiles from `/status`.
fn status_latency(addr: &str, window: &str) -> (u64, u64) {
    let mut client = HttpClient::connect(addr).expect("connect for status");
    let resp = client.get("/status").expect("status response");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.text()).expect("status parses");
    let w = doc
        .get("endpoints")
        .and_then(|e| e.get("prefix"))
        .and_then(|e| e.get("windows"))
        .and_then(|w| w.get(window))
        .expect("prefix endpoint window in /status");
    (
        w.get("p50_ns").and_then(Json::as_u64).expect("p50_ns"),
        w.get("p99_ns").and_then(Json::as_u64).expect("p99_ns"),
    )
}

/// Pulls the routed prefixes to query from the server's own `/dump`.
fn fetch_prefixes(addr: &str) -> Vec<String> {
    let mut client = HttpClient::connect(addr).expect("connect for dump");
    let dump = client.get("/dump").expect("dump response");
    assert_eq!(dump.status, 200);
    let text = dump.text();
    let mut prefixes = Vec::new();
    for line in text.lines().skip(1) {
        let record = Json::parse(line).expect("dump record parses");
        let prefix = record
            .get("prefix")
            .and_then(|p| p.as_str())
            .expect("record has a prefix");
        prefixes.push(prefix.replace('/', "%2f"));
    }
    assert!(!prefixes.is_empty(), "dump returned no records");
    prefixes
}

/// One load level: `clients` concurrent keep-alive connections cycling
/// lookups for `budget`; returns (lookups, wall seconds).
fn run_level(addr: &str, prefixes: &[String], clients: usize, budget: Duration) -> (u64, f64) {
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut threads = Vec::new();
    for c in 0..clients {
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let addr = addr.to_string();
        let prefixes: Vec<String> = prefixes.to_vec();
        threads.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(&addr).expect("client connect");
            let mut i = c; // stagger starting offsets across clients
            let mut done = 0u64;
            while !stop.load(Ordering::Acquire) {
                let path = format!("/prefix/{}", prefixes[i % prefixes.len()]);
                let resp = client.get(&path).expect("lookup response");
                assert_eq!(resp.status, 200, "lookup failed: {}", resp.text());
                done += 1;
                i += 1;
            }
            total.fetch_add(done, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(budget);
    stop.store(true, Ordering::Release);
    for t in threads {
        t.join().expect("client thread");
    }
    let wall = started.elapsed().as_secs_f64();
    (total.load(Ordering::Relaxed), wall)
}

/// One cold boot: process spawn to an answered `/health`, in
/// milliseconds. Asserts the server actually booted in the expected mode
/// (artifact attach vs in-memory freeze), so the two timings can't
/// silently measure the same path. Also returns the parsed `/health` body so
/// callers can record the snapshot posture (override count, ROV tallies).
fn boot_once(dir: &std::path::Path, extra: &[&str], expect_frozen: bool) -> (f64, Json) {
    let started = Instant::now();
    let (_server, addr) = start_server_with(dir, extra);
    let mut client = HttpClient::connect(&addr).expect("connect for health");
    let health = client.get("/health").expect("health response");
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(health.status, 200);
    let doc = Json::parse(&health.text()).expect("health parses");
    assert_eq!(
        doc.get("frozen").and_then(Json::as_bool),
        Some(expect_frozen),
        "boot mode mismatch for extra args {extra:?}"
    );
    (ms, doc)
}

fn boot_once_ms(dir: &std::path::Path, extra: &[&str], expect_frozen: bool) -> f64 {
    boot_once(dir, extra, expect_frozen).0
}

/// The snapshot-posture section carried into `BENCH_serve.json`: the
/// served prefix count, operator-override count, and ROV state tallies as
/// `/health` reports them — so a baseline diff surfaces attribution-
/// posture drift alongside throughput drift.
fn snapshot_posture(health: &Json) -> Json {
    let mut o = Json::object();
    o.set(
        "prefixes",
        health
            .get("prefixes")
            .and_then(Json::as_u64)
            .expect("prefixes"),
    );
    o.set(
        "exceptions",
        health
            .get("exceptions")
            .and_then(Json::as_u64)
            .expect("exception count in /health"),
    );
    let rov = health.get("rov").expect("rov tallies in /health");
    let mut tallies = Json::object();
    for state in ["valid", "invalid", "not_found"] {
        tallies.set(
            state,
            rov.get(state).and_then(Json::as_u64).expect("rov tally"),
        );
    }
    o.set("rov", tallies);
    o
}

fn best_boot_ms(dir: &std::path::Path, extra: &[&str], expect_frozen: bool) -> f64 {
    (0..3)
        .map(|_| boot_once_ms(dir, extra, expect_frozen))
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let budget_ms: u64 = std::env::var("P2O_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    let client_counts: Vec<usize> = std::env::var("P2O_BENCH_SERVE_CLIENTS")
        .ok()
        .map(|v| {
            v.split(',')
                .map(|c| c.trim().parse().expect("client count"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 4, 16]);

    let dir = TempDir(std::env::temp_dir().join(format!("p2o-bench-serve-{}", std::process::id())));
    generate_world(&dir.0);
    let (_server, addr) = start_server(&dir.0);
    assert_request_ids_increase(&addr);
    let prefixes = fetch_prefixes(&addr);
    println!(
        "serve bench: {} prefixes, {}ms per level, clients {:?}",
        prefixes.len(),
        budget_ms,
        client_counts
    );

    let mut levels: Vec<Json> = Vec::new();
    for &clients in &client_counts {
        let (lookups, wall) =
            run_level(&addr, &prefixes, clients, Duration::from_millis(budget_ms));
        let rate = lookups as f64 / wall;
        // Tail latency straight off the server's own rolling window. The
        // 10 s window is read right after the level, so it covers this
        // level's samples (plus any still-rolling tail of the previous
        // one — a trend signal, not an isolated measurement).
        let (p50_ns, p99_ns) = status_latency(&addr, "10s");
        assert!(
            p50_ns > 0 && p99_ns >= p50_ns,
            "windowed percentiles must be populated after load (p50={p50_ns}, p99={p99_ns})"
        );
        println!(
            "  clients {clients:>2}: {lookups:>8} lookups in {wall:.3}s = {rate:>10.0} \
             lookups/sec  p50 {:>6.1}us p99 {:>6.1}us",
            p50_ns as f64 / 1e3,
            p99_ns as f64 / 1e3,
        );
        let mut level = Json::object();
        level.set("clients", clients);
        level.set("lookups", lookups);
        level.set("wall_s", wall);
        level.set("lookups_per_sec", rate);
        level.set("p50_ns", p50_ns);
        level.set("p99_ns", p99_ns);
        levels.push(level);
    }

    // Cold-start: spawn-to-/health, the frozen zero-copy attach of a built
    // directory against a generated-but-unbuilt copy of the same world,
    // whose boot pays the full parse-and-run load plus the in-memory
    // freeze and thaw check; best of three each. `P2O_BENCH_SERVE_SCALE`
    // picks the world size (CI smoke uses tiny; the committed baseline
    // records default).
    let cold_scale =
        std::env::var("P2O_BENCH_SERVE_SCALE").unwrap_or_else(|_| "default".to_string());
    let cold_dir =
        TempDir(std::env::temp_dir().join(format!("p2o-bench-cold-{}", std::process::id())));
    generate_world_scale(&cold_dir.0, &cold_scale);
    build_world(&cold_dir.0);
    let unbuilt_dir = TempDir(
        std::env::temp_dir().join(format!("p2o-bench-cold-unbuilt-{}", std::process::id())),
    );
    generate_world_scale(&unbuilt_dir.0, &cold_scale);
    let frozen_ms = best_boot_ms(&cold_dir.0, &[], true);
    let full_ms = best_boot_ms(&unbuilt_dir.0, &[], false);
    println!(
        "  cold start ({cold_scale}): frozen {frozen_ms:.1}ms vs full load + in-memory freeze \
         {full_ms:.1}ms = {:.1}x",
        full_ms / frozen_ms
    );

    // Operator-exception boot: a one-rule file asserting the first routed
    // prefix. The frozen artifact was built without rules, so the digest
    // reads stale and this measures the full load with rules, frozen in
    // memory — the price an operator pays for running overrides without
    // rebuilding.
    let first_prefix = {
        let (_server, cold_addr) = start_server_with(&cold_dir.0, &[]);
        fetch_prefixes(&cold_addr)[0].replace("%2f", "/")
    };
    let rules_path = cold_dir.0.join("exceptions.jsonl");
    std::fs::write(
        &rules_path,
        format!("{{\"prefix\":\"{first_prefix}\",\"action\":\"assert\",\"org\":\"Bench Override LLC\"}}\n"),
    )
    .expect("writing exceptions file");
    let (exceptions_ms, exceptions_health) = boot_once(
        &cold_dir.0,
        &["--exceptions", &rules_path.display().to_string()],
        false,
    );
    let exceptions_posture = snapshot_posture(&exceptions_health);
    assert_eq!(
        exceptions_posture.get("exceptions").and_then(Json::as_u64),
        Some(1),
        "the one-rule file must land as exactly one override"
    );
    println!("  cold start with exceptions ({cold_scale}): {exceptions_ms:.1}ms (1 override rule)");

    // Snapshot posture of the load-level server, straight off /health.
    let level_health = {
        let mut client = HttpClient::connect(&addr).expect("connect for health");
        Json::parse(&client.get("/health").expect("health response").text()).expect("health parses")
    };

    if json {
        let mut doc = Json::object();
        doc.set("bench", "serve");
        doc.set("cpus", prefix2org::default_threads());
        doc.set("seed", "42");
        doc.set("scale", "tiny");
        doc.set("budget_ms", budget_ms);
        doc.set("levels", Json::Arr(levels));
        doc.set("snapshot", snapshot_posture(&level_health));
        let mut cold = Json::object();
        cold.set("scale", cold_scale.as_str());
        cold.set("frozen_ms", frozen_ms);
        cold.set("full_ms", full_ms);
        cold.set("exceptions_ms", exceptions_ms);
        cold.set("exceptions_overrides", 1u64);
        cold.set(
            "speedup_frozen_vs_full",
            if frozen_ms > 0.0 {
                full_ms / frozen_ms
            } else {
                0.0
            },
        );
        doc.set("cold_start", cold);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let vfs = p2o_util::vfs::Vfs::real();
        p2o_util::atomic::write_atomic(
            &vfs,
            std::path::Path::new(path),
            "bench",
            (doc.to_string_pretty() + "\n").as_bytes(),
        )
        .expect("writing BENCH_serve.json");
        println!("\nwrote {path}");
    }
}
