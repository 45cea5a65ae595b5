//! End-to-end tests for `prefix2org serve`: the acceptance criterion that
//! batch lookups on a loaded artifact return **byte-identical**
//! attributions to `prefix2org explain` for the same prefixes, plus the
//! endpoint surface (`/prefix`, `/batch`, `/dump` serial/reset semantics,
//! `/metrics` exposition, `/reload`).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

use p2o_net::{Prefix, Prefix4, Prefix6};
use p2o_serve::HttpClient;
use p2o_util::Json;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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
    let dir = std::env::temp_dir().join(format!("p2o-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn generate(dir: &Path, seed: &str) {
    run_ok(&[
        "generate",
        "--out",
        dir.to_str().unwrap(),
        "--scale",
        "tiny",
        "--seed",
        seed,
    ]);
}

/// A serve subprocess that is killed when the test ends.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(dir: &Path) -> Server {
        Self::start_with(dir, &[])
    }

    fn start_with(dir: &Path, extra: &[&str]) -> Server {
        Self::spawn(dir, extra, Stdio::null())
    }

    /// A test that reads the boot line sends `stderr` to a file: a pipe
    /// nobody drains would make the server's `eprintln!` panic once closed.
    fn spawn(dir: &Path, extra: &[&str], stderr: Stdio) -> Server {
        let mut child = Command::new(bin())
            .args(["serve", dir.to_str().unwrap(), "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawning serve");
        let stdout = child.stdout.take().expect("serve stdout");
        let line = BufReader::new(stdout)
            .lines()
            .next()
            .expect("serve printed its readiness line")
            .expect("readable stdout");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected readiness line {line:?}"))
            .to_string();
        Server { child, addr }
    }

    fn client(&self) -> HttpClient {
        HttpClient::connect(&self.addr).expect("connect")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The first `n` routed prefixes of the served snapshot, via `/dump`.
fn served_prefixes(client: &mut HttpClient, n: usize) -> Vec<String> {
    let dump = client.get("/dump").expect("dump");
    assert_eq!(dump.status, 200);
    dump.text()
        .lines()
        .skip(1)
        .take(n)
        .map(|line| {
            Json::parse(line)
                .expect("dump record parses")
                .get("prefix")
                .and_then(|p| p.as_str())
                .expect("record has a prefix")
                .to_string()
        })
        .collect()
}

/// The served snapshot's posture as `/health`, `/status` and `/metrics`
/// each report it, which must agree: ROV tallies `[valid, invalid,
/// not_found]`, the local-exception override count, and the prefix count.
fn posture(client: &mut HttpClient) -> ([u64; 3], u64, u64) {
    let mut get_json = |path: &str| {
        let resp = client.get(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Json::parse(&resp.text()).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let health = get_json("/health");
    let status = get_json("/status");
    let snapshot = status.get("snapshot").expect("status snapshot");
    let metrics = client.get("/metrics").expect("metrics").text();
    let gauge = |series: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {series} in /metrics"))
            .parse()
            .expect("gauge value")
    };
    let states = ["valid", "invalid", "not_found"];
    let tallies = |o: &Json| {
        states.map(|s| {
            o.get("rov")
                .and_then(|rov| rov.get(s))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("no rov.{s} in {o:?}"))
        })
    };
    let surfaces = [
        (
            tallies(&health),
            health.get("exceptions").and_then(Json::as_u64),
        ),
        (
            tallies(snapshot),
            snapshot.get("exceptions").and_then(Json::as_u64),
        ),
        (
            states.map(|s| gauge(&format!("p2o_serve_snapshot_rov{{state=\"{s}\"}}"))),
            Some(gauge("p2o_serve_snapshot_exceptions")),
        ),
    ];
    assert!(
        surfaces.iter().all(|s| *s == surfaces[0]),
        "/health, /status and /metrics disagree: {surfaces:?}"
    );
    let prefixes = health
        .get("prefixes")
        .and_then(Json::as_u64)
        .expect("prefixes");
    assert_eq!(
        snapshot.get("prefixes").and_then(Json::as_u64),
        Some(prefixes)
    );
    let (rov, exceptions) = surfaces[0];
    (rov, exceptions.expect("exceptions"), prefixes)
}

/// The acceptance criterion: for the same artifact directory and the same
/// prefixes, the serve `provenance` field and the `prefix2org explain`
/// stdout are byte-identical.
#[test]
fn batch_attributions_are_byte_identical_to_explain() {
    let dir = temp_dir("identity");
    generate(&dir, "4242");
    let server = Server::start(&dir);
    let mut client = server.client();
    let prefixes = served_prefixes(&mut client, 5);
    assert_eq!(prefixes.len(), 5, "tiny world has at least 5 prefixes");

    // One explain call: one rendered decision trace per record prefix.
    let mut args = vec!["explain", "--in", dir.to_str().unwrap()];
    args.extend(prefixes.iter().map(String::as_str));
    let explained = explain_entries(&run_ok(&args));
    assert_eq!(explained.len(), prefixes.len());

    // The same prefixes through POST /batch, one JSONL response per line.
    let body = prefixes.join("\n");
    let batch = client.post("/batch", body.as_bytes()).expect("batch");
    assert_eq!(batch.status, 200);
    let lines: Vec<String> = batch.text().lines().map(String::from).collect();
    assert_eq!(lines.len(), prefixes.len());
    for ((line, expected), prefix) in lines.iter().zip(&explained).zip(&prefixes) {
        let response = Json::parse(line).expect("batch line parses");
        assert_eq!(
            response.get("query").and_then(|q| q.as_str()),
            Some(prefix.as_str())
        );
        let provenance = response
            .get("provenance")
            .and_then(|p| p.as_str())
            .unwrap_or_else(|| panic!("no provenance for {prefix}: {line}"));
        assert_eq!(
            provenance, expected,
            "serve provenance diverges from explain for {prefix}"
        );
    }

    // And the single-lookup endpoint agrees with batch.
    let single = client
        .get(&format!("/prefix/{}", prefixes[0].replace('/', "%2f")))
        .expect("lookup");
    assert_eq!(single.status, 200);
    let single_json = Json::parse(&single.text()).expect("lookup parses");
    assert_eq!(
        single_json.get("provenance").and_then(|p| p.as_str()),
        Some(explained[0].as_str())
    );
}

#[test]
fn endpoint_surface_dump_metrics_health_and_reload() {
    let dir = temp_dir("surface");
    generate(&dir, "77");
    let server = Server::start(&dir);
    let mut client = server.client();

    // /health names the boot serial and a digest.
    let health = client.get("/health").expect("health");
    assert_eq!(health.status, 200);
    let health_json = Json::parse(&health.text()).expect("health parses");
    assert_eq!(health_json.get("serial").and_then(|s| s.as_u64()), Some(0));
    let digest = health_json
        .get("snapshot")
        .and_then(|s| s.as_str())
        .expect("digest")
        .to_string();
    assert_eq!(health.header("x-p2o-snapshot"), Some(digest.as_str()));

    // /dump without a serial is a reset carrying the full table.
    let dump = client.get("/dump").expect("dump");
    let text = dump.text();
    let header = Json::parse(text.lines().next().unwrap()).expect("header");
    assert_eq!(header.get("type").and_then(|t| t.as_str()), Some("reset"));
    assert_eq!(header.get("serial").and_then(|s| s.as_u64()), Some(0));
    let records = header.get("records").and_then(|r| r.as_u64()).unwrap();
    assert_eq!(text.lines().count() as u64, records + 1);

    // /dump at the current serial is an empty delta.
    let delta = client.get("/dump?serial=0").expect("dump at serial");
    let delta_text = delta.text();
    let delta_header = Json::parse(delta_text.lines().next().unwrap()).expect("header");
    assert_eq!(
        delta_header.get("type").and_then(|t| t.as_str()),
        Some("delta")
    );
    assert_eq!(delta_text.lines().count(), 1, "no ops at the same serial");

    // /dump at an unknown (future) serial falls back to a reset.
    let future = client.get("/dump?serial=99").expect("dump future");
    let future_header = Json::parse(future.text().lines().next().unwrap()).expect("header");
    assert_eq!(
        future_header.get("type").and_then(|t| t.as_str()),
        Some("reset")
    );

    // /reload (same dir) swaps to serial 1 with an identical digest, and
    // the delta from serial 0 is then empty.
    let reload = client.post("/reload", b"").expect("reload");
    assert_eq!(reload.status, 200, "{}", reload.text());
    let reload_json = Json::parse(&reload.text()).expect("reload parses");
    assert_eq!(reload_json.get("serial").and_then(|s| s.as_u64()), Some(1));
    assert_eq!(
        reload_json.get("snapshot").and_then(|s| s.as_str()),
        Some(digest.as_str()),
        "same dir reloads to the same content digest"
    );
    let bridged = client.get("/dump?serial=0").expect("dump bridged");
    let bridged_text = bridged.text();
    let bridged_header = Json::parse(bridged_text.lines().next().unwrap()).expect("header");
    assert_eq!(
        bridged_header.get("type").and_then(|t| t.as_str()),
        Some("delta")
    );
    assert_eq!(bridged_header.get("from").and_then(|s| s.as_u64()), Some(0));
    assert_eq!(
        bridged_header.get("serial").and_then(|s| s.as_u64()),
        Some(1)
    );
    assert_eq!(
        bridged_text.lines().count(),
        1,
        "identical content, empty delta ops"
    );

    // /metrics is valid Prometheus text exposition and carries the serve
    // counter family.
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let metrics_text = metrics.text();
    for series in [
        "p2o_serve_connections_total",
        "p2o_serve_requests_total",
        "p2o_serve_http_4xx_total",
        "p2o_serve_http_5xx_total",
        "p2o_serve_reloads_total",
        "p2o_serve_lookup_ns",
    ] {
        assert!(
            metrics_text.contains(series),
            "missing {series} in:\n{metrics_text}"
        );
    }
    assert!(metrics_text.contains("p2o_serve_reloads_total 1"));
    // The process RSS gauge is always present; on Linux (where CI runs)
    // the /proc/self/statm probe must report a live, nonzero footprint.
    let rss = metrics_text
        .lines()
        .find_map(|l| l.strip_prefix("p2o_serve_rss_bytes "))
        .expect("p2o_serve_rss_bytes series")
        .parse::<u64>()
        .expect("rss value");
    if cfg!(target_os = "linux") {
        assert!(rss > 0, "statm-backed RSS gauge must be nonzero on linux");
    }
    let status = client.get("/status").expect("status");
    assert_eq!(status.status, 200);
    let status_text = status.text();
    assert!(
        status_text.contains("\"rss_bytes\""),
        "status must carry rss_bytes:\n{status_text}"
    );
    for line in metrics_text.lines() {
        if line.starts_with('#') {
            assert!(line.starts_with("# TYPE ") || line.starts_with("# HELP "));
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("series value");
        assert!(value.parse::<f64>().is_ok(), "bad value: {line}");
    }

    // The snapshot posture agrees across surfaces: the ROV tallies
    // partition the served prefixes, which are the /dump records, and a
    // server without rules overrides nothing.
    let (rov, exceptions, prefixes) = posture(&mut client);
    assert_eq!(rov.iter().sum::<u64>(), prefixes, "ROV tallies {rov:?}");
    assert_eq!(prefixes, records, "/health prefixes vs /dump records");
    assert_eq!(exceptions, 0, "no rules, no overrides");
}

/// The served table as a client holds it after a `/dump` reset: prefix to
/// record JSON.
fn reset_table(client: &mut HttpClient) -> BTreeMap<String, String> {
    let dump = client.get("/dump").expect("dump");
    assert_eq!(dump.status, 200);
    dump.text()
        .lines()
        .skip(1)
        .map(|line| {
            let record = Json::parse(line).expect("dump record parses");
            let prefix = record.get("prefix").and_then(Json::as_str).expect("prefix");
            (prefix.to_string(), record.to_string())
        })
        .collect()
}

/// A rule edit changes a record's cluster label and override flag but
/// neither its owner nor its customer chain. The reload delta still
/// carries it: the serial-0 reset with `/dump?serial=0` applied is the
/// serial-1 reset.
#[test]
fn reload_delta_applied_to_the_old_reset_is_the_new_reset() {
    let dir = temp_dir("delta-rule");
    generate(&dir, "7");
    let rules = dir.join("rules.jsonl");
    std::fs::write(&rules, b"").unwrap();
    let server = Server::start_with(&dir, &["--exceptions", rules.to_str().unwrap()]);
    let mut client = server.client();
    let mut table = reset_table(&mut client);
    let target = table.keys().next().expect("a served record").clone();
    std::fs::write(
        &rules,
        format!("{{\"prefix\":\"{target}\",\"action\":\"assert\",\"org\":\"Acme Override\"}}\n"),
    )
    .unwrap();
    let reload = client.post("/reload", b"").expect("reload");
    assert_eq!(reload.status, 200, "{}", reload.text());

    let delta = client.get("/dump?serial=0").expect("delta");
    let text = delta.text();
    let mut lines = text.lines();
    let header = Json::parse(lines.next().expect("header")).expect("header parses");
    assert_eq!(header.get("type").and_then(Json::as_str), Some("delta"));
    assert_eq!(header.get("serial").and_then(Json::as_u64), Some(1));
    let mut changed = Vec::new();
    for line in lines {
        let op = Json::parse(line).expect("op parses");
        match op.get("op").and_then(Json::as_str) {
            Some(kind @ ("add" | "change")) => {
                let record = op.get("record").expect("op record");
                let prefix = record.get("prefix").and_then(Json::as_str).expect("prefix");
                if kind == "change" {
                    changed.push(prefix.to_string());
                }
                table.insert(prefix.to_string(), record.to_string());
            }
            Some("remove") => {
                let prefix = op.get("prefix").and_then(Json::as_str).expect("prefix");
                table.remove(prefix);
            }
            other => panic!("unknown op {other:?} in {line}"),
        }
    }
    assert_eq!(changed, vec![target], "the asserted record is a change op");
    assert_eq!(
        table,
        reset_table(&mut client),
        "serial-0 reset plus the delta must equal the serial-1 reset"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rule file kept ready to edit before a `/reload` holds no rule while
/// it is empty or blank, so it leaves a built directory's artifact fresh:
/// the boot attaches `world.p2ob` and warns about nothing stale.
#[test]
fn a_rule_file_without_rules_keeps_the_frozen_artifact_attached() {
    let dir = temp_dir("empty-rules");
    let dir_s = dir.to_str().unwrap();
    generate(&dir, "7");
    run_ok(&[
        "build",
        "--in",
        dir_s,
        "--out",
        dir.join("dataset.jsonl").to_str().unwrap(),
    ]);
    for (name, text) in [("empty", ""), ("blank", "\n  \n\t\r\n")] {
        let rules = dir.join(format!("{name}.jsonl"));
        std::fs::write(&rules, text).unwrap();
        let log = dir.join(format!("{name}.stderr"));
        let server = Server::spawn(
            &dir,
            &["--exceptions", rules.to_str().unwrap()],
            Stdio::from(std::fs::File::create(&log).expect("stderr file")),
        );
        let health = Json::parse(&server.client().get("/health").expect("health").text())
            .expect("health parses");
        assert_eq!(
            health.get("frozen").and_then(Json::as_bool),
            Some(true),
            "{name} rule file: {health:?}"
        );
        let stderr = std::fs::read_to_string(&log).expect("stderr log");
        assert!(!stderr.contains("stale"), "{name} rule file:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `build --resume` keeps a stamped artifact only when this binary can
/// serve it. A `world.p2ob` of the previous format, under a valid frame
/// and stamped as the older build that wrote it would have stamped it,
/// passes the stamp's length and digest check, yet `serve` refuses it, so
/// resume rebuilds it and `serve` then attaches the new artifact.
#[test]
fn resume_rebuilds_an_artifact_of_an_older_format() {
    let dir = temp_dir("resume-old-format");
    let dir_s = dir.to_str().unwrap();
    generate(&dir, "7");
    let dataset = dir.join("dataset.jsonl");
    let build = ["build", "--in", dir_s, "--out", dataset.to_str().unwrap()];
    run_ok(&build);

    let p2ob = dir.join("world.p2ob");
    let current = std::fs::read(&p2ob).unwrap();
    let mut payload = p2o_util::atomic::unframe(&current).expect("artifact unframes");
    let meta = p2o_util::arena::ArenaIndex::parse(&payload)
        .expect("arena parses")
        .get("meta")
        .expect("meta section");
    let older = (prefix2org::FROZEN_FORMAT_VERSION - 1).to_le_bytes();
    payload[meta.start..meta.start + 4].copy_from_slice(&older);
    let old = p2o_util::atomic::frame(&payload);
    std::fs::write(&p2ob, &old).unwrap();
    let stamp_path = dir.join("dataset.jsonl.ckpt");
    let stamp =
        String::from_utf8(p2o_util::atomic::unframe(&std::fs::read(&stamp_path).unwrap()).unwrap())
            .unwrap();
    let restamped: String = stamp
        .lines()
        .map(|line| match line.split('\t').collect::<Vec<_>>()[..] {
            ["artifact", "frozen", path, _, _] => format!(
                "artifact\tfrozen\t{path}\t{}\t{:016X}\n",
                old.len(),
                p2o_util::fnv1a_64(&old)
            ),
            _ => format!("{line}\n"),
        })
        .collect();
    assert_ne!(restamped, stamp, "the stamp has a frozen row");
    std::fs::write(&stamp_path, p2o_util::atomic::frame(restamped.as_bytes())).unwrap();

    let out = run(&[&build[..], &["--resume"]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("resumed"),
        "resume kept an artifact serve refuses:\n{stderr}"
    );
    let want = format!(
        "has format_version {}, but this binary reads format_version {}; recomputing",
        prefix2org::FROZEN_FORMAT_VERSION - 1,
        prefix2org::FROZEN_FORMAT_VERSION
    );
    assert!(stderr.contains(&want), "{stderr}");
    assert_eq!(std::fs::read(&p2ob).unwrap(), current);

    let server = Server::start(&dir);
    let health = Json::parse(&server.client().get("/health").expect("health").text())
        .expect("health parses");
    assert_eq!(
        health.get("frozen").and_then(Json::as_bool),
        Some(true),
        "{health:?}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A built directory passes `fsck`, boots from the frozen artifact
/// (`/health` reports `frozen: true`, the boot line ends `, frozen)`, and
/// the first `/health` answers within 2 s of spawn), and answers
/// byte-identically to `explain`. A twin
/// directory without the artifact freezes the same world in memory to the
/// same digest, and a stale artifact (inputs regenerated after the freeze)
/// is not served.
#[test]
fn frozen_boot_serves_identically_and_stale_artifact_falls_back() {
    let dir = temp_dir("frozen-boot");
    let dir_s = dir.to_str().unwrap().to_string();
    generate(&dir, "4243");
    run_ok(&[
        "build",
        "--in",
        &dir_s,
        "--out",
        dir.join("dataset.jsonl").to_str().unwrap(),
    ]);
    assert!(
        dir.join("world.p2ob").is_file(),
        "build writes the frozen artifact"
    );
    let fsck = run(&["fsck", &dir_s]);
    assert_eq!(
        fsck.status.code(),
        Some(0),
        "fsck must pass the built directory:\n{}",
        String::from_utf8_lossy(&fsck.stdout)
    );

    let digest;
    {
        let log = std::env::temp_dir().join(format!(
            "p2o-serve-frozen-boot-{}.stderr",
            std::process::id()
        ));
        let spawned = std::time::Instant::now();
        let server = Server::spawn(
            &dir,
            &[],
            Stdio::from(std::fs::File::create(&log).expect("stderr file")),
        );
        let mut client = server.client();
        let first = client.get("/health").expect("health");
        let boot_ms = spawned.elapsed().as_millis();
        assert_eq!(first.status, 200);
        assert!(
            boot_ms < 2000,
            "frozen boot answered /health after {boot_ms} ms (budget 2000 ms)"
        );
        let boot_line = std::fs::read_to_string(&log)
            .expect("stderr log")
            .lines()
            .find(|l| l.starts_with("loaded "))
            .map(String::from)
            .expect("boot line on stderr");
        let _ = std::fs::remove_file(&log);
        assert!(
            boot_line.ends_with(", frozen)"),
            "boot line must say frozen: {boot_line:?}"
        );
        let health = Json::parse(&first.text()).expect("parses");
        assert_eq!(
            health.get("frozen").and_then(Json::as_bool),
            Some(true),
            "boot must attach the frozen artifact: {health:?}"
        );
        digest = health
            .get("snapshot")
            .and_then(|s| s.as_str())
            .expect("digest")
            .to_string();
        let prefixes = served_prefixes(&mut client, 3);
        assert_eq!(prefixes.len(), 3);
        let mut args = vec!["explain", "--in", &dir_s];
        args.extend(prefixes.iter().map(String::as_str));
        let explained = explain_entries(&run_ok(&args));
        assert_eq!(explained.len(), prefixes.len());
        for (p, explained) in prefixes.iter().zip(&explained) {
            let single = client
                .get(&format!("/prefix/{}", p.replace('/', "%2f")))
                .expect("lookup");
            assert_eq!(single.status, 200);
            let json = Json::parse(&single.text()).expect("lookup parses");
            let provenance = json
                .get("provenance")
                .and_then(|x| x.as_str())
                .unwrap_or_else(|| panic!("no provenance for {p}"));
            assert_eq!(
                provenance, explained,
                "frozen serve diverges from explain for {p}"
            );
        }
    }

    // `(frozen, snapshot digest)` from a fresh boot's `/health`.
    let boot = |d: &Path| {
        let server = Server::start(d);
        let mut client = server.client();
        let health = Json::parse(&client.get("/health").expect("health").text()).expect("parses");
        let frozen = health.get("frozen").and_then(Json::as_bool);
        let snapshot = health.get("snapshot").and_then(|s| s.as_str());
        (frozen, snapshot.expect("digest").to_string())
    };

    // The same world without its artifact freezes in memory at boot:
    // same content, same digest.
    let twin = temp_dir("frozen-boot-twin");
    generate(&twin, "4243");
    assert_eq!(
        boot(&twin),
        (Some(false), digest.clone()),
        "in-memory freeze and artifact attach must agree on the content digest"
    );

    // Regenerating the inputs strands the old artifact; boot detects the
    // stale inputs digest and freezes the new inputs in memory instead,
    // serving exactly what an unbuilt copy of the new world serves.
    generate(&twin, "4244");
    let (_, new_digest) = boot(&twin);
    assert_ne!(new_digest, digest, "seeds 4243 and 4244 differ");
    generate(&dir, "4244");
    assert_eq!(
        boot(&dir),
        (Some(false), new_digest),
        "a stale artifact must not be served; the regenerated world is"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&twin);
}

/// What only the binary shows: `serve --access-log FILE --allow-quit`
/// answers every endpoint with an `X-P2O-Request-Id`, exposes the serve
/// series on `/metrics`, exits 0 after `POST /quit` with its drain report
/// on stderr, and leaves an access log naming every probed endpoint in
/// request-id order.
#[test]
fn serve_binary_probes_every_endpoint_then_drains_on_quit() {
    let dir = temp_dir("smoke");
    generate(&dir, "42");
    let access = dir.join("access.jsonl");
    let stderr_log = dir.join("serve.stderr");
    let mut server = Server::spawn(
        &dir,
        &["--access-log", access.to_str().unwrap(), "--allow-quit"],
        Stdio::from(std::fs::File::create(&stderr_log).expect("stderr file")),
    );
    let mut client = server.client();
    let prefix = served_prefixes(&mut client, 1).remove(0);
    let mut probe = |method: &str, path: &str, body: &[u8]| {
        let resp = if method == "GET" {
            client.get(path)
        } else {
            client.post(path, body)
        }
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
        assert_eq!(resp.status, 200, "{method} {path}: {}", resp.text());
        let id = resp.header("x-p2o-request-id").unwrap_or("");
        assert!(
            id.parse::<u64>().is_ok(),
            "{method} {path}: request id {id:?}"
        );
        resp
    };
    probe("GET", "/health", b"");
    let lookup = probe(
        "GET",
        &format!("/prefix/{}", prefix.replace('/', "%2f")),
        b"",
    );
    let answer = Json::parse(&lookup.text()).expect("lookup parses");
    assert_eq!(
        answer.get("query").and_then(Json::as_str),
        Some(prefix.as_str())
    );
    let batch = probe("POST", "/batch", format!("{prefix}\n").as_bytes()).text();
    assert_eq!(batch, lookup.text(), "one /batch line == the /prefix body");
    let metrics = probe("GET", "/metrics", b"").text();
    probe("GET", "/status", b"");
    probe("GET", "/debug/requests?n=20", b"");
    probe("GET", "/debug/trace?ms=50", b"");
    let series: std::collections::BTreeSet<&str> = metrics
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split(['{', ' ']).next().unwrap())
        .collect();
    for name in [
        "p2o_serve_connections_total",
        "p2o_serve_requests_total",
        "p2o_serve_http_4xx_total",
        "p2o_serve_http_5xx_total",
        "p2o_serve_reloads_total",
        "p2o_serve_uptime_seconds",
        "p2o_serve_connections_active",
        "p2o_serve_window_latency_ns",
        "p2o_serve_window_rate",
    ] {
        assert!(series.contains(name), "missing {name}; saw {series:?}");
    }
    probe("POST", "/quit", b"");
    drop(client);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("wait on serve") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve never exited after /quit"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let stderr = std::fs::read_to_string(&stderr_log).expect("stderr log");
    assert!(
        status.success(),
        "serve exited {status} after /quit:\n{stderr}"
    );
    assert!(
        stderr.contains("serve: drained after"),
        "no drain report:\n{stderr}"
    );

    let records: Vec<Json> = std::fs::read_to_string(&access)
        .expect("access log")
        .lines()
        .map(|l| Json::parse(l).expect("access line parses"))
        .collect();
    assert!(!records.is_empty(), "access log is empty after the drain");
    let ids: Vec<u64> = records
        .iter()
        .map(|r| r.get("id").and_then(Json::as_u64).expect("id"))
        .collect();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids not increasing: {ids:?}"
    );
    let mut endpoints = std::collections::BTreeSet::new();
    for r in &records {
        assert_eq!(r.get("status").and_then(Json::as_u64), Some(200), "{r:?}");
        endpoints.insert(r.get("endpoint").and_then(Json::as_str).expect("endpoint"));
    }
    for name in [
        "health",
        "dump",
        "prefix",
        "batch",
        "metrics",
        "status",
        "debug.requests",
        "debug.trace",
        "quit",
    ] {
        assert!(
            endpoints.contains(name),
            "access log never names {name}: {endpoints:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve` refuses a damaged directory with exit 2 and one diagnostic
/// line, and `explain`, which loads the directory the same way, refuses it
/// with the same line. Both refuse a rule file with a rejected line alike.
#[test]
fn serve_refuses_an_unhealthy_directory_with_exit_2() {
    let dir = temp_dir("unhealthy");
    generate(&dir, "99");
    let dir_s = dir.to_str().unwrap();
    let refusal = |args: &[&str]| {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?} answered");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let diag: Vec<&str> = stderr.lines().collect();
        assert_eq!(diag.len(), 1, "one-line diagnostic, got:\n{stderr}");
        assert!(diag[0].contains("integrity error"), "{stderr}");
        stderr
    };
    let rules = dir.join("rules.jsonl");
    std::fs::write(
        &rules,
        "{\"prefix\":\"10.0.0.0/8\",\"action\":\"assert\"}\n",
    )
    .unwrap();
    let rules_s = rules.to_str().unwrap();
    assert_eq!(
        refusal(&[
            "serve",
            dir_s,
            "--addr",
            "127.0.0.1:0",
            "--exceptions",
            rules_s
        ]),
        refusal(&[
            "explain",
            "--in",
            dir_s,
            "--exceptions",
            rules_s,
            "10.0.0.0/8"
        ]),
    );
    // A leftover tmp file is exactly the damage fsck flags.
    std::fs::write(dir.join("whois_arin.txt.p2o-tmp"), b"partial").expect("write tmp");
    assert_eq!(
        refusal(&["serve", dir_s, "--addr", "127.0.0.1:0"]),
        refusal(&["explain", "--in", dir_s, "10.0.0.0/8"]),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exported records of a `build --out` JSONL file.
fn export_records(path: &Path) -> Vec<prefix2org::ExportRecord> {
    prefix2org::from_jsonl(&std::fs::read_to_string(path).expect("export")).expect("parses")
}

/// The most specific record prefix covering `q` — the answer every
/// surface must agree on.
fn covering(records: &[prefix2org::ExportRecord], q: &Prefix) -> Option<Prefix> {
    records
        .iter()
        .map(|r| r.prefix)
        .filter(|p| p.contains(q))
        .max_by_key(Prefix::len)
}

/// A host-length query inside `p`: random host bits under its network.
fn host_in(p: &Prefix, rng: &mut StdRng) -> Prefix {
    match p {
        Prefix::V4(p4) => {
            let host = if p4.len() == 32 {
                0
            } else {
                (rng.next_u64() as u32) >> p4.len()
            };
            Prefix::V4(Prefix4::new(p4.bits() | host, 32).expect("host route"))
        }
        Prefix::V6(p6) => {
            let r = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            let host = if p6.len() == 128 { 0 } else { r >> p6.len() };
            Prefix::V6(Prefix6::new(p6.bits() | host, 128).expect("host route"))
        }
    }
}

/// `explain` stdout for several prefixes, one entry per argument: entries
/// are separated by a blank line and a trace never contains one.
fn explain_entries(out: &str) -> Vec<String> {
    out.split("\n\n")
        .map(|e| format!("{}\n", e.trim_end_matches('\n')))
        .collect()
}

/// A less-specific query over `p`: its network cut to a shorter length,
/// at most 8 bits shorter.
fn supernet_of(p: &Prefix, rng: &mut StdRng) -> Prefix {
    let shorter = |len: u8, rng: &mut StdRng| rng.random_range(len.saturating_sub(8)..len);
    match p {
        Prefix::V4(p4) => Prefix::V4(Prefix4::new_truncated(p4.bits(), shorter(p4.len(), rng))),
        Prefix::V6(p6) => Prefix::V6(Prefix6::new_truncated(p6.bits(), shorter(p6.len(), rng))),
    }
}

/// One pass of the one-answer property over `queries`. `built` holds the
/// artifact of the current export and `unbuilt` the same world without
/// one; both are served and explained under `rules` (or none). Every query
/// must get the same `/prefix` body and `/batch` line from both servers
/// and the same `explain` bytes from both copies. Each surface names the
/// export's most specific covering record: `/prefix` and `/batch` with
/// that record's provenance, `explain` with the same bytes (after a
/// `covered by` note for a more specific query), and `lookup --dataset`
/// with `routed as` that record. A query no record covers is a 404, `no
/// covering record` and no covering routed prefix alike.
fn assert_one_answer(
    built: &Path,
    unbuilt: &Path,
    rules: Option<&str>,
    queries: &[Prefix],
    asserted: Option<Prefix>,
) {
    let export = built.join("dataset.jsonl");
    let records = export_records(&export);
    let expected: Vec<Option<Prefix>> = queries.iter().map(|q| covering(&records, q)).collect();
    let rule_args: Vec<&str> = rules.map_or(vec![], |r| vec!["--exceptions", r]);
    let texts: Vec<String> = queries.iter().map(Prefix::to_string).collect();

    // Both boots, both surfaces.
    let servers = [
        Server::start_with(built, &rule_args),
        Server::start_with(unbuilt, &rule_args),
    ];
    let mut answers: Vec<(Vec<(u16, String)>, String)> = Vec::new();
    for (server, frozen) in servers.iter().zip([true, false]) {
        let mut client = server.client();
        let health = Json::parse(&client.get("/health").expect("health").text()).expect("parses");
        assert_eq!(
            health.get("frozen").and_then(Json::as_bool),
            Some(frozen),
            "{health:?}"
        );
        let singles = texts
            .iter()
            .map(|q| {
                let resp = client
                    .get(&format!("/prefix/{}", q.replace('/', "%2f")))
                    .expect("lookup");
                (resp.status, resp.text())
            })
            .collect();
        let batch = client
            .post("/batch", texts.join("\n").as_bytes())
            .expect("batch");
        assert_eq!(batch.status, 200);
        answers.push((singles, batch.text()));
    }
    drop(servers);
    // The artifact and in-memory boots answer byte-for-byte alike.
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            answers[0].0[i], answers[1].0[i],
            "{q}: /prefix by boot path"
        );
    }
    assert_eq!(answers[0].1, answers[1].1, "/batch by boot path");
    let (singles, batch) = &answers[0];
    let lines: Vec<&str> = batch.lines().collect();
    assert_eq!(lines.len(), queries.len());

    // One explain call per copy, one entry per query.
    let explain = |dir: &Path| {
        let mut args = vec!["explain", "--in", dir.to_str().unwrap()];
        args.extend(&rule_args);
        args.extend(texts.iter().map(String::as_str));
        run_ok(&args)
    };
    let explained = explain(built);
    assert_eq!(explained, explain(unbuilt), "explain by boot path");
    let explained = explain_entries(&explained);
    assert_eq!(explained.len(), queries.len());

    // One lookup call over the export: one heading line per query, its
    // record's fields indented below it.
    let mut args = vec!["lookup", "--dataset", export.to_str().unwrap()];
    args.extend(texts.iter().map(String::as_str));
    let looked_up = run_ok(&args);
    let looked_up: Vec<&str> = looked_up.lines().filter(|l| !l.starts_with(' ')).collect();
    assert_eq!(looked_up.len(), queries.len());

    for (i, q) in queries.iter().enumerate() {
        let (status, body) = &singles[i];
        let line = Json::parse(lines[i]).expect("batch line parses");
        assert_eq!(
            line.get("query").and_then(Json::as_str),
            Some(texts[i].as_str())
        );
        let Some(matched) = expected[i] else {
            assert_eq!(*status, 404, "{q} is uncovered: {body}");
            assert!(line.get("error").is_some(), "{q}: {line:?}");
            assert_eq!(
                explained[i],
                format!("{q}: no covering record in the frozen dataset\n")
            );
            assert_eq!(
                looked_up[i],
                format!("{q}: no covering routed prefix in the snapshot")
            );
            continue;
        };
        assert_eq!(*status, 200, "{q}: {body}");
        assert_eq!(*body, format!("{}\n", lines[i]), "{q}: /prefix vs /batch");
        assert_eq!(
            line.get("matched").and_then(Json::as_str),
            Some(matched.to_string().as_str()),
            "{q}"
        );
        let provenance = line
            .get("provenance")
            .and_then(Json::as_str)
            .expect("provenance");
        let note = if matched == *q {
            String::new()
        } else {
            format!("{q}: covered by {matched}; its stored trace follows\n")
        };
        assert_eq!(
            explained[i],
            format!("{note}{provenance}"),
            "{q}: serve vs explain"
        );
        assert_eq!(
            looked_up[i],
            format!("{q} -> routed as {matched}"),
            "{q}: lookup"
        );
        if Some(*q) == asserted {
            assert_eq!(
                line.get("rule").and_then(Json::as_str),
                Some("local_exception")
            );
        }
    }
}

/// One answer per question, whatever surface asks it and however the
/// server booted. The same world is generated twice; only one copy is
/// built, so one server attaches `world.p2ob` and the other freezes the
/// full load in memory. Seeded queries cover record prefixes, host-length
/// more-specifics, less-specifics of records, uncovered space, and a
/// prefix a `filter` rule removed; they run once with no rule file and
/// once with one that asserts one record and filters another
/// ([`assert_one_answer`] holds every surface to the same record).
#[test]
fn every_query_gets_one_answer_across_surfaces_and_boot_paths() {
    let seed = "7";
    let built = temp_dir("one-answer-built");
    let unbuilt = temp_dir("one-answer-unbuilt");
    generate(&built, seed);
    generate(&unbuilt, seed);
    let built_s = built.to_str().unwrap().to_string();
    let export = built.join("dataset.jsonl");
    let export_s = export.to_str().unwrap().to_string();

    // Pick the rule targets from a plain build: an assert on one record
    // and a filter on a record that another record covers.
    run_ok(&["build", "--in", &built_s, "--out", &export_s]);
    let plain = export_records(&export);
    let mut rng = StdRng::seed_from_u64(0x0123_4567_89AB_CDEF);
    let covered: Vec<Prefix> = plain
        .iter()
        .map(|r| r.prefix)
        .filter(|p| plain.iter().any(|o| o.prefix != *p && o.prefix.contains(p)))
        .collect();
    assert!(covered.len() > 1, "seed {seed} has covered records");
    let filtered = covered[rng.random_range(0..covered.len())];
    let asserted = loop {
        let p = plain[rng.random_range(0..plain.len())].prefix;
        if p != filtered {
            break p;
        }
    };
    let rules_dir = temp_dir("one-answer-rules");
    let rules = rules_dir.join("exceptions.jsonl");
    std::fs::write(
        &rules,
        format!(
            "{{\"prefix\":\"{asserted}\",\"action\":\"assert\",\"org\":\"One Answer LLC\"}}\n\
             {{\"prefix\":\"{filtered}\",\"action\":\"filter\"}}\n"
        ),
    )
    .expect("writing exceptions");
    let rules_s = rules.to_str().unwrap().to_string();

    // Seeded queries from the five classes.
    let random_record = |rng: &mut StdRng| plain[rng.random_range(0..plain.len())].prefix;
    let mut queries: Vec<Prefix> = vec![asserted];
    queries.extend((0..12).map(|_| random_record(&mut rng)));
    queries.extend((0..24).map(|_| {
        let p = random_record(&mut rng);
        host_in(&p, &mut rng)
    }));
    let supernets: Vec<Prefix> = (0..16)
        .map(|_| {
            let p = random_record(&mut rng);
            supernet_of(&p, &mut rng)
        })
        .collect();
    // The less-specifics reach both answers: a shorter covering record,
    // and none.
    assert!(supernets
        .iter()
        .any(|q| covering(&plain, q).is_some_and(|m| m != *q)));
    assert!(supernets.iter().any(|q| covering(&plain, q).is_none()));
    queries.extend(supernets);
    let mut uncovered = 0;
    while uncovered < 8 {
        let q = if uncovered % 4 == 3 {
            let bits = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            Prefix::V6(Prefix6::new(bits, 128).unwrap())
        } else {
            Prefix::V4(Prefix4::new(rng.next_u64() as u32, 32).unwrap())
        };
        if covering(&plain, &q).is_none() {
            queries.push(q);
            uncovered += 1;
        }
    }
    queries.push(filtered);

    assert_one_answer(&built, &unbuilt, None, &queries, None);

    run_ok(&[
        "build",
        "--in",
        &built_s,
        "--out",
        &export_s,
        "--exceptions",
        &rules_s,
    ]);
    let records = export_records(&export);
    assert_eq!(
        records.len() + 1,
        plain.len(),
        "the filter drops one record"
    );
    assert!(
        covering(&records, &filtered).is_some(),
        "a covering record answers the filtered prefix"
    );
    assert_one_answer(&built, &unbuilt, Some(&rules_s), &queries, Some(asserted));

    for dir in [&built, &unbuilt, &rules_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `(rov, final cluster)` per record prefix of a `build --out` export.
fn rov_and_cluster(path: &Path) -> std::collections::BTreeMap<String, (String, String)> {
    export_records(path)
        .into_iter()
        .map(|r| {
            (
                r.prefix.to_string(),
                (r.rov.as_str().to_string(), r.final_cluster),
            )
        })
        .collect()
}

/// The first `prefix` of the pin's `key` list.
fn first_pinned_prefix(pin: &Json, key: &str) -> String {
    let list = pin.get(key).and_then(Json::as_array).expect("pin list");
    let first = list.first().unwrap_or_else(|| panic!("pin has no {key}"));
    first
        .get("prefix")
        .and_then(Json::as_str)
        .expect("prefix")
        .to_string()
}

/// The semantic-adversary pins under `tests/expectations/` hold through the
/// binary: each generated world passes fsck, its build moves exactly the
/// pinned prefixes away from the clean build, exception rules written from
/// the expired-TA pin restore the clean attribution, and `serve` reports
/// the overrides and the degraded ROV states.
#[test]
fn adversarial_worlds_degrade_as_pinned_through_the_binary() {
    let root = temp_dir("adversarial");
    let pins = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/expectations");
    let world = |dir: &Path, extra: &[&str]| {
        let mut args = vec![
            "generate",
            "--out",
            dir.to_str().unwrap(),
            "--scale",
            "tiny",
            "--seed",
            "41",
        ];
        args.extend_from_slice(extra);
        run_ok(&args);
    };
    let build = |dir: &Path, out: &str, extra: &[&str]| {
        let export = dir.join(out);
        let mut args = vec!["build", "--in", dir.to_str().unwrap()];
        args.extend_from_slice(&["--out", export.to_str().unwrap()]);
        args.extend_from_slice(extra);
        run_ok(&args);
        rov_and_cluster(&export)
    };
    let clean_dir = root.join("clean");
    world(&clean_dir, &[]);
    let clean = build(&clean_dir, "dataset.jsonl", &[]);

    let cells = [
        ("expired-cert", "7"),
        ("resource-overclaim", "7"),
        ("conflicting-roas", "7"),
        ("orphaned-delegation", "7"),
        ("expired-cert", "45"),
    ];
    for (class, seed) in cells {
        let dir = root.join(format!("{class}-{seed}"));
        world(&dir, &["--adversarial", class, "--adversarial-seed", seed]);
        assert!(dir.join("adversary.json").exists(), "{class} {seed}");
        // The mutation is semantic: every file is whole.
        run_ok(&["fsck", dir.to_str().unwrap()]);
        let adv = build(&dir, "dataset.jsonl", &[]);

        let pin_path = pins.join(format!("{class}-s{seed}.json"));
        let pin = Json::parse(&std::fs::read_to_string(&pin_path).expect("pin")).expect("pin");
        let mut expected = clean.clone();
        for (key, is_rov) in [("rov_transitions", true), ("attribution_changes", false)] {
            for t in pin.get(key).and_then(Json::as_array).expect("pin list") {
                let prefix = t.get("prefix").and_then(Json::as_str).expect("prefix");
                let from = t.get("clean").and_then(Json::as_str).expect("clean");
                let to = t
                    .get("adversarial")
                    .and_then(Json::as_str)
                    .expect("adversarial");
                let slot = expected.get_mut(prefix).expect("pinned prefix is routed");
                let value = if is_rov { &mut slot.0 } else { &mut slot.1 };
                assert_eq!(value, from, "{class} {seed} {prefix}: clean side");
                *value = to.to_string();
            }
        }
        assert_eq!(adv, expected, "{class} {seed}: build drifted from its pin");
        let tally = pin.get("rov_adversarial").expect("rov_adversarial");
        for state in ["valid", "invalid", "not_found"] {
            let n = adv.values().filter(|(rov, _)| rov == state).count() as u64;
            assert_eq!(
                Some(n),
                tally.get(state).and_then(Json::as_u64),
                "{class} {seed} {state}"
            );
        }
    }

    // The expired ARIN trust anchor splits clusters; asserting each moved
    // prefix back to its clean label restores the clean projection.
    let dir = root.join("expired-cert-45");
    let pin =
        Json::parse(&std::fs::read_to_string(pins.join("expired-cert-s45.json")).unwrap()).unwrap();
    let changes = pin
        .get("attribution_changes")
        .and_then(Json::as_array)
        .unwrap();
    assert!(!changes.is_empty(), "seed 45 must change attributions");
    let rules: String = changes
        .iter()
        .map(|c| {
            let mut rule = Json::object();
            rule.set("prefix", c.get("prefix").and_then(Json::as_str).unwrap());
            rule.set("action", "assert");
            rule.set("org", c.get("clean").and_then(Json::as_str).unwrap());
            format!("{rule}\n")
        })
        .collect();
    let exceptions = dir.join("exceptions.jsonl");
    std::fs::write(&exceptions, rules).unwrap();
    let exceptions = exceptions.to_str().unwrap();
    let restored = build(&dir, "restored.jsonl", &["--exceptions", exceptions]);
    let labels = |m: &std::collections::BTreeMap<String, (String, String)>| {
        m.iter()
            .map(|(p, (_, c))| (p.clone(), c.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        labels(&restored),
        labels(&clean),
        "exceptions did not restore"
    );

    // Served with the rules, the overrides and the degraded ROV show.
    let server = Server::start_with(&dir, &["--exceptions", exceptions]);
    let mut client = server.client();
    let lookup = |client: &mut HttpClient, prefix: &str| {
        let resp = client.get(&format!("/prefix/{}", prefix.replace('/', "%2f")));
        let resp = resp.expect("lookup");
        assert_eq!(resp.status, 200, "{prefix}: {}", resp.text());
        Json::parse(&resp.text()).expect("answer parses")
    };
    let overridden = lookup(
        &mut client,
        &first_pinned_prefix(&pin, "attribution_changes"),
    );
    assert_eq!(
        overridden.get("rule").and_then(Json::as_str),
        Some("local_exception")
    );
    let record = overridden.get("record").expect("record");
    let exception = record.get("Local Exception").and_then(Json::as_str);
    assert!(!exception.unwrap_or_default().is_empty(), "{record:?}");
    let degraded = lookup(&mut client, &first_pinned_prefix(&pin, "rov_transitions"));
    assert_eq!(
        degraded.get("rov").and_then(Json::as_str),
        Some("not_found")
    );
    let asserted: std::collections::BTreeSet<&str> = changes
        .iter()
        .map(|c| c.get("prefix").and_then(Json::as_str).unwrap())
        .collect();
    let (_, overrides, _) = posture(&mut client);
    assert_eq!(
        overrides,
        asserted.len() as u64,
        "one override per asserted prefix"
    );
    drop(server);

    // A misissued hijacker ROA turns real announcements invalid.
    let dir = root.join("conflicting-roas-7");
    let pin = Json::parse(&std::fs::read_to_string(pins.join("conflicting-roas-s7.json")).unwrap())
        .unwrap();
    let server = Server::start(&dir);
    let mut client = server.client();
    let hijacked = lookup(&mut client, &first_pinned_prefix(&pin, "rov_transitions"));
    assert_eq!(hijacked.get("rov").and_then(Json::as_str), Some("invalid"));
    drop(server);

    let _ = std::fs::remove_dir_all(&root);
}

/// The families one Prometheus exposition declares, as `family -> (TYPE,
/// HELP texts)`, after checking that every sample belongs to a declared
/// family.
fn families(text: &str) -> BTreeMap<String, (String, Vec<String>)> {
    let mut out: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (family, kind) = rest.split_once(' ').expect("TYPE names a kind");
            out.entry(family.to_string()).or_default().0 = kind.to_string();
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, help) = rest.split_once(' ').expect("HELP has text");
            out.entry(family.to_string())
                .or_default()
                .1
                .push(help.to_string());
        }
    }
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let name = line.split(['{', ' ']).next().unwrap();
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s).filter(|b| out.contains_key(*b)))
            .unwrap_or(name);
        assert!(
            out.contains_key(base),
            "sample of undeclared family: {line}"
        );
    }
    out
}

/// One metric catalogue: every family `build --metrics` and serve's
/// `/metrics` emit on a tiny world matches a `p2o_obs::catalogue` row of
/// its side with the same TYPE and carries exactly one `# HELP` line, the
/// row's help text; every row is emitted; and DESIGN.md's metric table
/// lists exactly the catalogue's rows.
#[test]
fn metric_catalogue_matches_emitted_families_and_design_table() {
    use p2o_obs::catalogue::{Source, METRICS};
    use p2o_obs::promexpo::family_name;

    let dir = temp_dir("catalogue");
    generate(&dir, "7");
    let prom = dir.join("build.prom");
    run_ok(&[
        "build",
        "--in",
        dir.to_str().unwrap(),
        "--out",
        dir.join("dataset.jsonl").to_str().unwrap(),
        "--metrics",
        prom.to_str().unwrap(),
    ]);
    let build = std::fs::read_to_string(&prom).expect("metrics file");
    let server = Server::start(&dir);
    let serve = server.client().get("/metrics").expect("metrics").text();
    drop(server);

    for (side, text) in [("build", &build), ("serve", &serve)] {
        let mut expected: BTreeMap<String, (&str, String)> = BTreeMap::new();
        for row in METRICS {
            let row_side = match row.source {
                Source::BuildSetup | Source::Build => "build",
                Source::ServeSpawn | Source::ServeScrape => "serve",
            };
            if row_side == side {
                for (name, help) in row.series() {
                    expected.insert(family_name(&name, row.kind), (row.kind.as_str(), help));
                }
            }
        }
        let emitted = families(text);
        for (family, (kind, helps)) in &emitted {
            let (want_kind, want_help) = expected
                .get(family)
                .unwrap_or_else(|| panic!("{side} emits {family}, which no catalogue row names"));
            assert_eq!(kind, want_kind, "{side} {family}: TYPE");
            assert_eq!(
                helps,
                std::slice::from_ref(want_help),
                "{side} {family}: HELP"
            );
        }
        for family in expected.keys() {
            assert!(
                emitted.contains_key(family),
                "catalogue row for {family} is never emitted by {side}"
            );
        }
    }

    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md");
    let listed: Vec<&str> = design
        .lines()
        .skip_while(|l| *l != "<!-- metric catalogue: begin -->")
        .skip(3)
        .take_while(|l| *l != "<!-- metric catalogue: end -->")
        .collect();
    let rows: Vec<String> = METRICS
        .iter()
        .map(|m| {
            format!(
                "| `{}` | {} | {} | {} | {} |",
                m.name,
                m.kind.as_str(),
                m.unit,
                m.source.as_str(),
                m.help
            )
        })
        .collect();
    assert_eq!(
        listed,
        rows,
        "DESIGN.md's metric table must list the catalogue's rows in order:\n{}",
        rows.join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
