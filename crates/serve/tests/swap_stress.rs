//! Concurrency battery for the snapshot swap cell (ISSUE 6 satellite 2).
//!
//! N reader threads hammer lookups through per-thread [`SnapshotReader`]s
//! while a swapper thread reloads in a loop. Two invariants are pinned:
//!
//! - **No torn reads.** Every "response" a reader assembles (digest +
//!   serial + a lookup result) must be internally consistent with exactly
//!   one snapshot — the two test worlds are built so the same query
//!   resolves to observably different answers, and a response mixing
//!   snapshot A's digest with snapshot B's answer fails the check.
//! - **No lock on the read path.** The cell counts slow-path lock
//!   acquisitions; with R readers and S swaps the count must stay within
//!   R × (S + 1) + R (reader construction) — i.e. readers lock at most
//!   once per swap, never per request.
//!
//! The same battery runs end-to-end over sockets: concurrent HTTP clients
//! assert every response's `X-P2O-Snapshot` header matches the `snapshot`
//! field inside its body while `/reload` swaps underneath them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use p2o_serve::{Snapshot, SnapshotCell};

fn snapshot_from_seed(seed: u64, serial: u64) -> Snapshot {
    snapshot_with(seed, serial, &prefix2org::ExceptionSet::new())
}

/// The tiny world at `seed`, frozen in memory with `exceptions` applied.
fn snapshot_with(seed: u64, serial: u64, exceptions: &prefix2org::ExceptionSet) -> Snapshot {
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
        exceptions,
        1,
    )
    .expect("fresh freeze verifies")
}

#[test]
fn readers_see_exactly_one_snapshot_and_never_lock_in_steady_state() {
    const READERS: usize = 8;
    const SWAPS: u64 = 40;

    let a = Arc::new(snapshot_from_seed(21, 0));
    let b = Arc::new(snapshot_from_seed(22, 1));
    assert_ne!(a.digest, b.digest, "worlds must be distinguishable");
    let cell = Arc::new(SnapshotCell::new(Arc::clone(&a)));
    let stop = Arc::new(AtomicBool::new(false));
    let swaps_done = Arc::new(AtomicU64::new(0));
    let locks_before = cell.read_locks();

    let mut readers = Vec::new();
    for _ in 0..READERS {
        let cell = Arc::clone(&cell);
        let stop = Arc::clone(&stop);
        let digest_a = a.digest.clone();
        let digest_b = b.digest.clone();
        readers.push(std::thread::spawn(move || {
            let mut reader = cell.reader();
            let mut reads = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snap = reader.get();
                // Assemble a "response" from several fields of the Arc and
                // assert they all belong to the same snapshot.
                let digest = snap.digest.clone();
                let serial = snap.serial;
                let query = snap.frozen().record_prefix(0);
                let hit = snap.lookup(&query).expect("own prefix resolves");
                let hit = p2o_util::Json::parse(&hit.to_string()).expect("answer parses");
                let body_digest = hit.get("snapshot").unwrap().as_str().unwrap().to_string();
                let body_serial = hit.get("serial").unwrap().as_u64().unwrap();
                assert_eq!(digest, body_digest, "torn read: digest mismatch");
                assert_eq!(serial, body_serial, "torn read: serial mismatch");
                assert!(
                    (digest == digest_a && serial.is_multiple_of(2))
                        || (digest == digest_b && serial % 2 == 1),
                    "response mixes snapshots: {digest} at serial {serial}"
                );
                reads += 1;
            }
            reads
        }));
    }

    // Swap a ↔ b in a loop; serial parity tracks which world is live.
    // Snapshots are rebuilt from their seeds rather than cloned: Snapshot
    // is intentionally not Clone (it is meant to be load-once), and the
    // digest is deterministic per seed so identity still matches.
    for i in 0..SWAPS {
        let seed = if i % 2 == 0 { 22 } else { 21 };
        let next = snapshot_from_seed(seed, i + 1);
        cell.swap(Arc::new(next));
        swaps_done.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    stop.store(true, Ordering::Release);
    let total_reads: u64 = readers.into_iter().map(|t| t.join().unwrap()).sum();

    // Lock budget: one per reader at construction plus at most one per
    // reader per swap. Anything above means the hot path took the mutex.
    let lock_budget = locks_before + (READERS as u64) * (SWAPS + 1);
    let locks = cell.read_locks();
    assert!(
        locks <= lock_budget,
        "read path locked: {locks} acquisitions > budget {lock_budget} \
         ({total_reads} reads, {SWAPS} swaps)"
    );
    assert!(
        total_reads > SWAPS,
        "readers made progress ({total_reads} reads)"
    );
}

/// `/reload` with a changed exceptions file (ISSUE 9 satellite): a good
/// reload makes operator overrides visible atomically — response `rule`,
/// record fields, provenance, `/health` tallies all at once — while a
/// damaged rule file is rejected with 503 and the old snapshot (overrides
/// included) keeps serving.
#[test]
fn reload_applies_and_rejects_exception_files() {
    use std::fs;

    let tmp = std::env::temp_dir().join(format!("p2o-swap-exc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    fs::create_dir_all(&tmp).unwrap();
    let exc_path = tmp.join("exceptions.jsonl");

    let initial = snapshot_from_seed(41, 0);
    let prefixes_before = initial.len() as u64;
    let victim = initial.frozen().record_prefix(0);
    // Mirrors the CLI's serve loader: re-read the rule file on every load
    // and refuse it wholesale when any line is rejected, so a torn file
    // can delay an update but never changes an answer.
    let exc_for_loader = exc_path.clone();
    let loader: p2o_serve::SnapshotLoader = Arc::new(move |_dir: &std::path::Path| {
        let text = std::fs::read_to_string(&exc_for_loader)
            .map_err(|e| format!("reading exceptions: {e}"))?;
        let (set, rejected) = prefix2org::ExceptionSet::parse_lenient(&text);
        if !rejected.is_empty() {
            return Err(format!(
                "exceptions file: {} rejected line(s)",
                rejected.len()
            ));
        }
        Ok(snapshot_with(41, 0, &set))
    });
    let server = p2o_serve::spawn(p2o_serve::ServerConfig::default(), initial, loader)
        .expect("server spawns");
    let mut client = p2o_serve::HttpClient::connect(server.addr).expect("connect");
    let path = format!("/prefix/{}", victim.to_string().replace('/', "%2f"));

    // Boot snapshot: no overrides, but the rov key is always present.
    let resp = client.get(&path).expect("lookup");
    assert_eq!(resp.status, 200);
    let body = p2o_util::Json::parse(&resp.text()).expect("json body");
    assert!(body.get("rule").is_none(), "no override before reload");
    assert!(body.get("rov").and_then(|j| j.as_str()).is_some());
    let health = p2o_util::Json::parse(&client.get("/health").expect("health").text()).unwrap();
    assert_eq!(
        health.get("exceptions").and_then(p2o_util::Json::as_u64),
        Some(0)
    );

    // A good rule file: the reload lands the override atomically.
    fs::write(
        &exc_path,
        format!(
            "{{\"prefix\":\"{victim}\",\"action\":\"assert\",\"org\":\"Operator Override LLC\"}}\n"
        ),
    )
    .unwrap();
    let resp = client.post("/reload", b"").expect("reload");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let resp = client.get(&path).expect("lookup");
    assert_eq!(resp.status, 200);
    let body = p2o_util::Json::parse(&resp.text()).expect("json body");
    assert_eq!(body.get("serial").and_then(p2o_util::Json::as_u64), Some(1));
    assert_eq!(
        body.get("rule").and_then(|j| j.as_str()),
        Some("local_exception")
    );
    let record = body.get("record").expect("record");
    assert_eq!(
        record.get("Final Cluster").and_then(|j| j.as_str()),
        Some("Operator Override LLC")
    );
    assert_eq!(
        record.get("Local Exception").and_then(|j| j.as_str()),
        Some("Operator Override LLC")
    );
    let provenance = body.get("provenance").and_then(|j| j.as_str()).unwrap();
    assert!(provenance.contains("local_exception"), "{provenance}");
    let health = p2o_util::Json::parse(&client.get("/health").expect("health").text()).unwrap();
    assert_eq!(
        health.get("exceptions").and_then(p2o_util::Json::as_u64),
        Some(1)
    );
    assert!(health.get("rov").and_then(|r| r.get("not_found")).is_some());
    let metrics = client.get("/metrics").expect("metrics").text();
    assert!(
        metrics.contains("p2o_serve_snapshot_exceptions 1"),
        "{metrics}"
    );

    // A damaged rule file: 503, reload_failures counts it, and the old
    // snapshot — override included — keeps serving at the same serial.
    fs::write(&exc_path, b"{\"prefix\":\"10.9.9.0/24\",\"act\n").unwrap();
    let resp = client.post("/reload", b"").expect("reload");
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(resp.text().contains("rejected"), "{}", resp.text());
    let resp = client.get(&path).expect("lookup");
    let body = p2o_util::Json::parse(&resp.text()).expect("json body");
    assert_eq!(body.get("serial").and_then(p2o_util::Json::as_u64), Some(1));
    assert_eq!(
        body.get("rule").and_then(|j| j.as_str()),
        Some("local_exception")
    );
    let metrics = client.get("/metrics").expect("metrics").text();
    assert!(
        metrics.contains("p2o_serve_reload_failures_total 1"),
        "{metrics}"
    );

    // A filter rule: the record disappears from the served table.
    fs::write(
        &exc_path,
        format!("{{\"prefix\":\"{victim}\",\"action\":\"filter\"}}\n"),
    )
    .unwrap();
    let resp = client.post("/reload", b"").expect("reload");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let health = p2o_util::Json::parse(&client.get("/health").expect("health").text()).unwrap();
    assert_eq!(
        health.get("prefixes").and_then(p2o_util::Json::as_u64),
        Some(prefixes_before - 1)
    );
    let resp = client.get(&path).expect("lookup");
    if resp.status == 200 {
        let body = p2o_util::Json::parse(&resp.text()).expect("json body");
        let matched = body.get("matched").and_then(|j| j.as_str()).unwrap();
        assert_ne!(matched, victim.to_string(), "filtered record still served");
    }
    server.shutdown();
    let _ = fs::remove_dir_all(&tmp);
}

/// The same invariant end-to-end: concurrent HTTP clients vs `/reload`.
#[test]
fn http_responses_stay_snapshot_consistent_across_reloads() {
    const CLIENTS: usize = 4;
    const RELOADS: usize = 12;

    let initial = snapshot_from_seed(31, 0);
    let query = initial.frozen().record_prefix(0).to_string();
    // The loader maps the requested "directory" name back to a seed, so
    // `/reload` with body `seed-32` swaps in a genuinely different world.
    let loader: p2o_serve::SnapshotLoader = Arc::new(|dir: &std::path::Path| {
        let name = dir.display().to_string();
        let seed: u64 = name
            .strip_prefix("seed-")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unknown dir {name}"))?;
        Ok(snapshot_from_seed(seed, 0))
    });
    let server = p2o_serve::spawn(p2o_serve::ServerConfig::default(), initial, loader)
        .expect("server spawns");
    let addr = server.addr;

    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let stop = Arc::clone(&stop);
        let query = query.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = p2o_serve::HttpClient::connect(addr).expect("connect");
            let path = format!("/prefix/{}", query.replace('/', "%2f"));
            let mut ok = 0u64;
            let mut last_id = 0u64;
            while !stop.load(Ordering::Acquire) {
                let resp = client.get(&path).expect("lookup response");
                // Request ids are assigned from one server-wide monotonic
                // counter, so each connection must see them strictly
                // increase even while other clients interleave.
                let id: u64 = resp
                    .header("x-p2o-request-id")
                    .expect("request id stamp")
                    .parse()
                    .expect("numeric request id");
                assert!(id > last_id, "request id went backwards: {last_id} -> {id}");
                last_id = id;
                // 200 or 404 depending on which world is live; either way
                // the header stamp and the body must agree.
                let header_digest = resp
                    .header("x-p2o-snapshot")
                    .expect("snapshot stamp")
                    .to_string();
                let body = resp.text();
                let json = p2o_util::Json::parse(&body).expect("json body");
                if resp.status == 200 {
                    let body_digest = json.get("snapshot").unwrap().as_str().unwrap();
                    assert_eq!(header_digest, body_digest, "torn HTTP response");
                }
                ok += 1;
            }
            ok
        }));
    }

    let mut admin = p2o_serve::HttpClient::connect(addr).expect("connect");
    for i in 0..RELOADS {
        let seed = 31 + (i % 2) as u64;
        let resp = admin
            .post("/reload", format!("seed-{seed}").as_bytes())
            .expect("reload response");
        assert_eq!(resp.status, 200, "reload failed: {}", resp.text());
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    stop.store(true, Ordering::Release);
    let reads: u64 = clients.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(reads > 0);

    // The reload counter observed every swap.
    let metrics = admin.get("/metrics").expect("metrics");
    assert!(metrics
        .text()
        .contains(&format!("p2o_serve_reloads_total {RELOADS}")));
    // /status agrees: the cell generation counted every swap, and the
    // hammered endpoint's rolling windows saw the load. A response's
    // latency is recorded once its last byte is written, so wait until the
    // clients' connections have closed (each records before it closes).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let json = loop {
        let status = admin.get("/status").expect("status");
        let json = p2o_util::Json::parse(&status.text()).expect("status json");
        let active = json
            .get("connections")
            .and_then(|c| c.get("active"))
            .and_then(p2o_util::Json::as_u64)
            .expect("connections.active");
        if active == 1 || std::time::Instant::now() > deadline {
            break json;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let generation = json
        .get("snapshot")
        .and_then(|s| s.get("generation"))
        .and_then(p2o_util::Json::as_u64)
        .expect("snapshot.generation");
    assert_eq!(generation, RELOADS as u64, "one generation per reload");
    let window = json
        .get("endpoints")
        .and_then(|e| e.get("prefix"))
        .and_then(|p| p.get("windows"))
        .and_then(|w| w.get("60s"))
        .expect("prefix 60s window");
    let count = window
        .get("count")
        .and_then(p2o_util::Json::as_u64)
        .unwrap();
    let p50 = window
        .get("p50_ns")
        .and_then(p2o_util::Json::as_u64)
        .unwrap();
    assert!(count >= reads, "window missed requests: {count} < {reads}");
    assert!(p50 > 0, "windowed p50 must be populated under load");
    server.shutdown();
}
