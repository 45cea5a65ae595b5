//! Live observability battery for the serve path (ISSUE 8).
//!
//! End-to-end over real sockets, these tests pin the PR's acceptance
//! criteria: every response carries a monotonically increasing
//! `X-P2O-Request-Id`; `/status` and `/metrics` expose populated
//! rolling-window latency series under load (with explicit zeros for
//! untouched endpoints); `/debug/requests` dumps the flight recorder as
//! parseable JSONL; `/debug/trace` captures live `serve.request` spans
//! into a loadable Chrome trace; early rejects (parse-error 400s,
//! overflow 503s) land in the same windowed series as routed requests
//! and carry the snapshot stamps; a request's recorded latency runs from
//! its first byte read to its last byte written; a graceful drain
//! answers every request the server accepted (counter equality:
//! client-received responses == server-counted requests); and the access
//! log survives a drain as ordered, parseable JSONL.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use p2o_serve::{spawn, AccessLog, HttpClient, ServerConfig, Snapshot, SnapshotLoader};
use p2o_util::vfs::Vfs;
use p2o_util::Json;

fn snapshot_from_seed(seed: u64, serial: u64) -> Snapshot {
    let world = p2o_synth::World::generate(p2o_synth::WorldConfig::tiny(seed));
    let built = world.build_inputs();
    let inputs = prefix2org::PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    };
    Snapshot::freeze_in_memory(
        PathBuf::from(format!("seed-{seed}")),
        serial,
        &inputs,
        &prefix2org::ExceptionSet::new(),
        1,
    )
    .expect("fresh freeze verifies")
}

fn seed_loader() -> SnapshotLoader {
    Arc::new(|dir: &std::path::Path| {
        let name = dir.display().to_string();
        let seed: u64 = name
            .strip_prefix("seed-")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unknown dir {name}"))?;
        Ok(snapshot_from_seed(seed, 0))
    })
}

/// Pulls the `X-P2O-Request-Id` stamp off a response, asserting presence.
fn request_id(resp: &p2o_serve::HttpResponse) -> u64 {
    resp.header("x-p2o-request-id")
        .expect("every response carries X-P2O-Request-Id")
        .parse()
        .expect("request id is numeric")
}

/// Navigates `root.a.b.c` through nested JSON objects.
fn walk<'a>(root: &'a Json, path: &[&str]) -> &'a Json {
    let mut cur = root;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing key {key:?} in {cur}"));
    }
    cur
}

fn walk_u64(root: &Json, path: &[&str]) -> u64 {
    walk(root, path)
        .as_u64()
        .unwrap_or_else(|| panic!("{path:?} is not a u64"))
}

/// Minimal Prometheus exposition-grammar check (mirrors the promexpo unit
/// test): every non-comment line is `name[{label="value"}] value`.
fn assert_valid_exposition(text: &str) {
    fn is_metric_name(s: &str) -> bool {
        let mut chars = s.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
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
fn request_ids_echo_on_every_response_and_strictly_increase() {
    let initial = snapshot_from_seed(41, 0);
    let query = initial.frozen().record_prefix(0).to_string();
    let server = spawn(ServerConfig::default(), initial, seed_loader()).expect("server spawns");
    let mut client = HttpClient::connect(server.addr).expect("connect");

    let lookup = format!("/prefix/{}", query.replace('/', "%2f"));
    let mut ids = Vec::new();
    for (path, expect) in [
        ("/health", 200),
        (lookup.as_str(), 200),
        ("/status", 200),
        ("/no/such/route", 404),
        ("/prefix/not-a-cidr", 400),
    ] {
        let resp = client.get(path).expect("response");
        assert_eq!(resp.status, expect, "{path}: {}", resp.text());
        ids.push(request_id(&resp));
    }
    let resp = client.post("/batch", query.as_bytes()).expect("batch");
    assert_eq!(resp.status, 200);
    ids.push(request_id(&resp));

    for pair in ids.windows(2) {
        assert!(
            pair[1] > pair[0],
            "request ids must strictly increase: {ids:?}"
        );
    }
    server.shutdown();
}

#[test]
fn status_health_and_metrics_expose_windowed_series_under_load() {
    let initial = snapshot_from_seed(42, 0);
    let query = initial.frozen().record_prefix(0).to_string();
    let server = spawn(ServerConfig::default(), initial, seed_loader()).expect("server spawns");
    let mut client = HttpClient::connect(server.addr).expect("connect");

    let lookup = format!("/prefix/{}", query.replace('/', "%2f"));
    for _ in 0..60 {
        assert_eq!(client.get(&lookup).expect("lookup").status, 200);
    }

    // /health: liveness plus uptime and the 60 s request volume.
    let health = Json::parse(&client.get("/health").expect("health").text()).expect("json");
    assert_eq!(walk(&health, &["status"]).as_str(), Some("ok"));
    assert!(health.get("uptime_seconds").is_some());
    assert!(walk_u64(&health, &["requests_60s"]) >= 60);
    assert!(walk(&health, &["rate_60s"]).as_f64().expect("rate") > 0.0);

    // /status: populated windows for the hammered endpoint...
    let status = Json::parse(&client.get("/status").expect("status").text()).expect("json");
    let w10 = walk(&status, &["endpoints", "prefix", "windows", "10s"]);
    assert!(walk_u64(w10, &["count"]) >= 60);
    let (p50, p90, p99) = (
        walk_u64(w10, &["p50_ns"]),
        walk_u64(w10, &["p90_ns"]),
        walk_u64(w10, &["p99_ns"]),
    );
    assert!(p50 > 0, "p50 must be populated under load");
    assert!(p50 <= p90 && p90 <= p99, "quantiles must be monotone");
    assert!(walk_u64(w10, &["max_ns"]) > 0);
    assert!(walk(w10, &["rate_per_sec"]).as_f64().expect("rate") > 0.0);
    // ...explicit zeros for untouched endpoints (registered up front)...
    assert_eq!(
        walk_u64(&status, &["endpoints", "quit", "windows", "10s", "count"]),
        0
    );
    assert_eq!(
        walk_u64(&status, &["endpoints", "quit", "requests_total"]),
        0
    );
    // ...snapshot identity, connection gauge, flight-recorder occupancy.
    assert_eq!(
        walk(&status, &["snapshot", "backing"]).as_str(),
        Some("memory")
    );
    assert_eq!(walk_u64(&status, &["snapshot", "serial"]), 0);
    assert!(walk_u64(&status, &["connections", "active"]) >= 1);
    assert!(walk_u64(&status, &["requests_total"]) >= 61);
    assert_eq!(walk_u64(&status, &["flight_recorder", "capacity"]), 512);
    assert!(walk_u64(&status, &["flight_recorder", "occupied"]) >= 60);
    assert!(walk_u64(&status, &["flight_recorder", "recorded"]) >= 60);

    // /metrics: still valid exposition grammar with the windowed gauges
    // appended, cumulative zeros for untouched endpoints, and populated
    // windowed series for the hammered one.
    let metrics = client.get("/metrics").expect("metrics").text();
    assert_valid_exposition(&metrics);
    assert!(metrics.contains("p2o_serve_requests_quit_total 0\n"));
    assert!(metrics.contains("p2o_serve_uptime_seconds "));
    assert!(metrics.contains("p2o_serve_connections_active "));
    assert!(metrics.contains(
        "p2o_serve_window_latency_ns{endpoint=\"prefix\",window=\"10s\",quantile=\"p50\"}"
    ));
    assert!(metrics.contains("p2o_serve_window_rate{endpoint=\"prefix\",window=\"10s\"}"));
    let windowed_p50 = metrics
        .lines()
        .find(|l| {
            l.starts_with(
                "p2o_serve_window_latency_ns{endpoint=\"prefix\",window=\"10s\",quantile=\"p50\"}",
            )
        })
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .expect("windowed p50 sample");
    assert!(windowed_p50 > 0, "windowed p50 gauge must be populated");
    server.shutdown();
}

#[test]
fn debug_requests_dumps_flight_recorder_as_jsonl() {
    let initial = snapshot_from_seed(43, 0);
    let query = initial.frozen().record_prefix(0).to_string();
    let server = spawn(ServerConfig::default(), initial, seed_loader()).expect("server spawns");
    let mut client = HttpClient::connect(server.addr).expect("connect");

    let lookup = format!("/prefix/{}", query.replace('/', "%2f"));
    for _ in 0..20 {
        assert_eq!(client.get(&lookup).expect("lookup").status, 200);
    }
    assert_eq!(client.get("/no/such/route").expect("404").status, 404);

    let resp = client.get("/debug/requests?n=10").expect("debug");
    assert_eq!(resp.status, 200);
    let body = resp.text();
    let mut kinds = (0usize, 0usize); // (recent, slowest)
    let mut recent_ids = Vec::new();
    for line in body.lines() {
        let rec = Json::parse(line).expect("flight record parses");
        let id = walk_u64(&rec, &["id"]);
        assert!(id >= 1);
        assert!(walk_u64(&rec, &["latency_ns"]) > 0);
        assert!(!walk(&rec, &["endpoint"])
            .as_str()
            .expect("endpoint")
            .is_empty());
        let status = walk_u64(&rec, &["status"]);
        assert!((200..600).contains(&status), "odd status {status}");
        match walk(&rec, &["kind"]).as_str().expect("kind") {
            "recent" => {
                kinds.0 += 1;
                recent_ids.push(id);
            }
            "slowest" => kinds.1 += 1,
            other => panic!("unknown kind {other:?}"),
        }
    }
    assert_eq!(kinds.0, 10, "asked for n=10 recent records");
    assert!(kinds.1 >= 1, "slowest leaderboard must be populated");
    // Recent records come back oldest-first with strictly increasing ids
    // (single sequential client: completion order == id order).
    for pair in recent_ids.windows(2) {
        assert!(pair[1] > pair[0], "recent ids out of order: {recent_ids:?}");
    }
    // The 404 is in the ring too — error latencies are never invisible.
    assert!(
        body.lines().any(|l| {
            let rec = Json::parse(l).expect("parses");
            walk_u64(&rec, &["status"]) == 404
        }),
        "the 404 must land in the flight recorder"
    );

    let resp = client.get("/debug/requests?n=zap").expect("bad n");
    assert_eq!(resp.status, 400);
    server.shutdown();
}

#[test]
fn debug_trace_captures_live_request_spans_as_chrome_trace() {
    let initial = snapshot_from_seed(44, 0);
    let query = initial.frozen().record_prefix(0).to_string();
    let server = spawn(ServerConfig::default(), initial, seed_loader()).expect("server spawns");
    let addr = server.addr;

    // Background load so the capture window sees real traffic.
    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let stop = Arc::clone(&stop);
        let path = format!("/prefix/{}", query.replace('/', "%2f"));
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            while !stop.load(Ordering::Acquire) {
                if client.get(&path).is_err() {
                    break;
                }
            }
        })
    };

    let mut client = HttpClient::connect(addr).expect("connect");
    let resp = client.get("/debug/trace?ms=200").expect("trace");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let trace = Json::parse(&resp.text()).expect("chrome trace parses");
    let events = trace.as_array().expect("trace is a flat event array");
    let begins = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("B")
                && e.get("name").and_then(Json::as_str) == Some("serve.request")
        })
        .count();
    assert!(
        begins >= 1,
        "capture under load must contain serve.request spans ({} events)",
        events.len()
    );
    // Span args carry the request id and endpoint for correlation.
    assert!(events.iter().any(|e| {
        e.get("name").and_then(Json::as_str) == Some("serve.request")
            && e.get("args")
                .and_then(|a| a.get("endpoint"))
                .and_then(Json::as_str)
                == Some("prefix")
    }));

    // The gate releases: a second sequential capture works.
    let resp = client.get("/debug/trace?ms=10").expect("second trace");
    assert_eq!(resp.status, 200);
    // A concurrent capture is refused while one is running.
    let racer = std::thread::spawn(move || {
        let mut c = HttpClient::connect(addr).expect("connect");
        c.get("/debug/trace?ms=800").expect("long trace").status
    });
    std::thread::sleep(Duration::from_millis(250));
    let resp = client.get("/debug/trace?ms=10").expect("refused trace");
    assert_eq!(resp.status, 409, "one capture at a time");
    assert_eq!(racer.join().unwrap(), 200);

    let resp = client.get("/debug/trace?ms=zap").expect("bad ms");
    assert_eq!(resp.status, 400);

    stop.store(true, Ordering::Release);
    load.join().unwrap();
    server.shutdown();
}

#[test]
fn quit_is_refused_without_allow_quit() {
    let initial = snapshot_from_seed(45, 0);
    let server = spawn(ServerConfig::default(), initial, seed_loader()).expect("server spawns");
    let mut client = HttpClient::connect(server.addr).expect("connect");

    let resp = client.post("/quit", b"").expect("quit response");
    assert_eq!(resp.status, 403);
    assert!(resp.text().contains("--allow-quit"), "{}", resp.text());
    // The server keeps serving.
    assert_eq!(client.get("/health").expect("health").status, 200);
    server.shutdown();
}

/// The drain acceptance criterion, as counter equality: every request the
/// server *accepted* (counted into `serve.requests`) produced a response
/// some client *received*. Hammer clients count only responses that fully
/// arrived; the server counts every request it admitted. If a drain
/// dropped an accepted request, the two sides diverge.
#[test]
fn graceful_drain_answers_every_accepted_request() {
    const CLIENTS: usize = 4;

    let initial = snapshot_from_seed(46, 0);
    let query = initial.frozen().record_prefix(0).to_string();
    let config = ServerConfig {
        allow_quit: true,
        ..ServerConfig::default()
    };
    let server = spawn(config, initial, seed_loader()).expect("server spawns");
    let addr = server.addr;
    let obs = Arc::clone(server.obs());

    let mut hammers = Vec::new();
    for _ in 0..CLIENTS {
        let path = format!("/prefix/{}", query.replace('/', "%2f"));
        hammers.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let mut received = 0u64;
            loop {
                match client.get(&path) {
                    Ok(resp) => {
                        assert_eq!(resp.status, 200, "{}", resp.text());
                        received += 1;
                    }
                    Err(_) => return received, // drained: connection closed
                }
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(150));
    let mut admin = HttpClient::connect(addr).expect("connect");
    let resp = admin.post("/quit", b"").expect("quit accepted");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert!(request_id(&resp) >= 1);
    let quit_received = 1u64;

    let client_received: u64 = hammers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(
        client_received > 0,
        "hammers made progress before the drain"
    );
    server.join();

    let accepted = obs.counter("serve.requests").get();
    assert_eq!(
        client_received + quit_received,
        accepted,
        "drain lost accepted requests: clients received {} of {}",
        client_received + quit_received,
        accepted
    );
}

/// Deterministic pipelined variant: a burst of keep-alive requests
/// written back-to-back is fully answered even when `/quit` lands while
/// the burst is in flight — requests already on the wire get the grace
/// read and a response before the connection closes.
#[test]
fn drain_answers_a_pipelined_burst_already_on_the_wire() {
    const BURST: usize = 24;

    let initial = snapshot_from_seed(47, 0);
    let config = ServerConfig {
        allow_quit: true,
        ..ServerConfig::default()
    };
    let server = spawn(config, initial, seed_loader()).expect("server spawns");
    let addr = server.addr;

    let mut burst = TcpStream::connect(addr).expect("connect");
    let mut wire = Vec::new();
    for _ in 0..BURST {
        wire.extend_from_slice(b"GET /health HTTP/1.1\r\nHost: p2o\r\n\r\n");
    }
    burst.write_all(&wire).expect("burst written");
    std::thread::sleep(Duration::from_millis(50));

    let mut admin = HttpClient::connect(addr).expect("connect");
    assert_eq!(admin.post("/quit", b"").expect("quit").status, 200);

    // Read the burst connection to EOF: the drain must have answered all
    // BURST requests before closing it.
    let mut all = Vec::new();
    burst.read_to_end(&mut all).expect("read to close");
    let text = String::from_utf8_lossy(&all);
    let answered = text.matches("HTTP/1.1 200 OK").count();
    assert_eq!(
        answered, BURST,
        "drain must answer every pipelined request already received"
    );
    server.join();
}

/// The exact bytes of an early reject: the stamped head, then the body.
fn early_reject(status: &str, snapshot: &str, id: u64, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         X-P2O-Serial: 0\r\nX-P2O-Snapshot: {snapshot}\r\nX-P2O-Request-Id: {id}\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn early_rejects_land_in_windowed_series_and_flight_recorder() {
    let initial = snapshot_from_seed(48, 0);
    let digest = initial.digest.clone();
    let server = spawn(ServerConfig::default(), initial, seed_loader()).expect("server spawns");
    let addr = server.addr;

    // A parse-error 400: lowercase method fails the request-line check.
    let mut bad = TcpStream::connect(addr).expect("connect");
    bad.write_all(b"garbage / HTTP/1.1\r\n\r\n").expect("write");
    let mut raw = Vec::new();
    bad.read_to_end(&mut raw).expect("read 400 + close");
    let text = String::from_utf8_lossy(&raw);
    // Every response carries the request id and the snapshot stamps, the
    // parse-error 400 included.
    let body = "{\"error\":\"bad method in request line \\\"garbage / HTTP/1.1\\\"\"}\n";
    assert_eq!(text, early_reject("400 Bad Request", &digest, 1, body));

    let mut client = HttpClient::connect(addr).expect("connect");
    let status = Json::parse(&client.get("/status").expect("status").text()).expect("json");
    assert!(
        walk_u64(&status, &["endpoints", "other", "windows", "10s", "count"]) >= 1,
        "the 400 must land in the `other` windowed series"
    );
    assert!(walk_u64(&status, &["endpoints", "other", "requests_total"]) >= 1);
    let debug = client.get("/debug/requests").expect("debug").text();
    assert!(
        debug.lines().any(|l| {
            let rec = Json::parse(l).expect("parses");
            walk(&rec, &["endpoint"]).as_str() == Some("other")
                && walk_u64(&rec, &["status"]) == 400
        }),
        "the 400 must land in the flight recorder"
    );
    let metrics = client.get("/metrics").expect("metrics").text();
    assert!(metrics.contains("p2o_serve_http_4xx_total 1\n"));
    server.shutdown();

    // An overflow 503: with max_connections = 1, a second connection is
    // rejected with a response (not a silent close) and recorded.
    let initial = snapshot_from_seed(48, 0);
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = spawn(config, initial, seed_loader()).expect("server spawns");
    let mut first = HttpClient::connect(server.addr).expect("connect");
    assert_eq!(first.get("/health").expect("health").status, 200);
    let mut second = TcpStream::connect(server.addr).expect("connect");
    let mut raw = Vec::new();
    second.read_to_end(&mut raw).expect("read 503 + close");
    let text = String::from_utf8_lossy(&raw);
    let body = "{\"error\":\"connection limit reached\"}\n";
    assert_eq!(
        text,
        early_reject("503 Service Unavailable", &digest, 2, body)
    );
    let status = Json::parse(&first.get("/status").expect("status").text()).expect("json");
    assert!(
        walk_u64(&status, &["endpoints", "other", "windows", "10s", "count"]) >= 1,
        "the 503 must land in the `other` windowed series"
    );
    let metrics = first.get("/metrics").expect("metrics").text();
    assert!(metrics.contains("p2o_serve_http_5xx_total 1\n"));
    server.shutdown();
}

/// A request's latency runs from the read that delivered its first byte to
/// the last byte written: a `/batch` whose body is written 60 ms after its
/// head is recorded at 50 ms or more, in the flight recorder and the
/// windowed series alike. (The 10 ms margin covers the server's wake-up
/// for the head; a clock started once the request is whole reads
/// microseconds.)
#[test]
fn latency_runs_from_the_first_byte_read_to_the_last_byte_written() {
    const GAP: Duration = Duration::from_millis(50);

    let initial = snapshot_from_seed(50, 0);
    let query = format!("{}\n", initial.frozen().record_prefix(0));
    let server = spawn(ServerConfig::default(), initial, seed_loader()).expect("server spawns");

    // A first request parks the connection's thread in its next read.
    let mut slow = TcpStream::connect(server.addr).expect("connect");
    slow.write_all(b"GET /health HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .expect("health written");
    let mut seen = Vec::new();
    let mut byte = [0u8; 1];
    while !seen.ends_with(b"}\n") {
        slow.read_exact(&mut byte).expect("health answered");
        seen.push(byte[0]);
    }
    let head = format!(
        "POST /batch HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        query.len()
    );
    slow.write_all(head.as_bytes()).expect("head written");
    std::thread::sleep(GAP + Duration::from_millis(10));
    slow.write_all(query.as_bytes()).expect("body written");
    // The server closes once the response is written and recorded.
    let mut raw = Vec::new();
    slow.read_to_end(&mut raw).expect("read 200 + close");
    assert!(raw.starts_with(b"HTTP/1.1 200 OK\r\n"));

    let mut client = HttpClient::connect(server.addr).expect("connect");
    let debug = client.get("/debug/requests").expect("debug").text();
    let batch = debug
        .lines()
        .map(|l| Json::parse(l).expect("flight record parses"))
        .find(|rec| walk(rec, &["endpoint"]).as_str() == Some("batch"))
        .expect("the batch is in the flight recorder");
    let latency = walk_u64(&batch, &["latency_ns"]);
    assert!(
        latency >= GAP.as_nanos() as u64,
        "latency {latency} ns starts before the body's 50 ms wait"
    );
    let status = Json::parse(&client.get("/status").expect("status").text()).expect("json");
    let window = walk(&status, &["endpoints", "batch", "windows", "10s"]);
    assert_eq!(walk_u64(window, &["count"]), 1);
    assert!(walk_u64(window, &["max_ns"]) >= GAP.as_nanos() as u64);
    server.shutdown();
}

#[test]
fn access_log_survives_drain_as_ordered_parseable_jsonl() {
    let dir = std::env::temp_dir().join(format!("p2o-obs-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.jsonl");

    let initial = snapshot_from_seed(49, 0);
    let query = initial.frozen().record_prefix(0).to_string();
    let config = ServerConfig {
        access_log: Some(AccessLog::new(Vfs::real(), &log_path)),
        ..ServerConfig::default()
    };
    let server = spawn(config, initial, seed_loader()).expect("server spawns");
    let mut client = HttpClient::connect(server.addr).expect("connect");

    // Sequential traffic (one client): completion order == id order, so
    // the log must come back strictly increasing.
    let lookup = format!("/prefix/{}", query.replace('/', "%2f"));
    let mut expected = Vec::new(); // (endpoint, status)
    for _ in 0..5 {
        assert_eq!(client.get(&lookup).expect("lookup").status, 200);
        expected.push(("prefix", 200u64));
    }
    assert_eq!(client.get("/health").expect("health").status, 200);
    expected.push(("health", 200));
    assert_eq!(client.get("/no/such/route").expect("404").status, 404);
    expected.push(("other", 404));
    // The drain flushes the buffered tail (fewer lines than FLUSH_EVERY).
    server.shutdown();

    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let records: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("access line parses"))
        .collect();
    assert_eq!(records.len(), expected.len(), "one line per request");
    let mut last_id = 0u64;
    for (rec, (endpoint, status)) in records.iter().zip(&expected) {
        assert_eq!(walk(rec, &["type"]).as_str(), Some("access"));
        let id = walk_u64(rec, &["id"]);
        assert!(id > last_id, "ids must strictly increase in the log");
        last_id = id;
        assert_eq!(walk(rec, &["endpoint"]).as_str(), Some(*endpoint));
        assert_eq!(walk_u64(rec, &["status"]), *status);
        assert_eq!(walk(rec, &["method"]).as_str(), Some("GET"));
        assert!(rec.get("latency_ns").is_some());
        assert!(rec.get("ts_unix_ms").is_some());
        assert!(rec.get("snapshot").is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}
