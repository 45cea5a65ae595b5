//! `perfbench`: the prefix2org benchmark.
//!
//! ```text
//! perfbench --bin PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload generates a world from `--seed`, builds it with the real
//! `prefix2org` binary, serves it with `prefix2org serve`, and drives one
//! keep-alive connection in a closed loop. `setup_s` is spawn to first
//! `/health` 200. The workloads differ in scale and in where the measured
//! time goes:
//!
//! - `lookup-default`: a default-scale world whose artifact fits in L2;
//!   `GET /prefix/<q>` takes most of the loop time, so HTTP parse, render,
//!   framing and the socket dominate;
//! - `batch-xl`: an xl world; `POST /batch` of 1,000 queries takes most of
//!   the loop time, so per-record LPM and render dominate, and the xl CLI
//!   builds give `build_s` its superlinear ingest, clustering and freeze
//!   costs.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics from in-process replays
//! with the benchmark's own spans (see `inproc`). Every response is checked
//! against the benchmark's own longest-prefix match and the in-process
//! frozen dataset; a failed check makes the run exit 1.

mod calib;
mod client;
mod inproc;
mod proc;
mod queries;
mod stats;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use p2o_net::Prefix;
use p2o_util::json::Json;
use p2o_util::vfs::Vfs;
use prefix2org::FrozenDataset;

use client::{encode_request, prefix_target, Conn};
use proc::Server;
use queries::{Class, Coverage, Query, Rng};
use trace::Tracer;

/// Queries in the `/prefix` pool, cycled through by the lookup loop.
const LOOKUP_POOL: usize = 4096;
/// Queries per `/batch` body.
const BATCH_LINES: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LookupDefault,
    BatchXl,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup-default" => Some(Workload::LookupDefault),
            "batch-xl" => Some(Workload::BatchXl),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LookupDefault => "lookup-default",
            Workload::BatchXl => "batch-xl",
        }
    }

    fn scale(self) -> &'static str {
        match self {
            Workload::LookupDefault => "default",
            Workload::BatchXl => "xl",
        }
    }

    /// CLI builds per run; `build_s` is their median.
    fn builds(self) -> usize {
        match self {
            Workload::LookupDefault => 50,
            Workload::BatchXl => 2,
        }
    }

    /// Server boots per run; `setup_s` is their median.
    fn boots(self) -> usize {
        match self {
            Workload::LookupDefault => 15,
            Workload::BatchXl => 5,
        }
    }

    /// Distinct `/batch` bodies cycled through.
    fn batch_bodies(self) -> usize {
        match self {
            Workload::LookupDefault => 8,
            Workload::BatchXl => 32,
        }
    }

    /// Shares of `--seconds` spent in the timed lookup and batch loops.
    fn loop_shares(self) -> (f64, f64) {
        match self {
            Workload::LookupDefault => (0.6, 0.4),
            Workload::BatchXl => (0.4, 0.6),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", map["workload"]))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bin: PathBuf::from(get("bin")?),
        work: PathBuf::from(get("work")?),
    })
}

/// Operations attempted and failed; the first few failures are printed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {e}");
            }
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
    /// The uncalibrated value, for times divided by the host's slowness.
    raw: Option<f64>,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    context: Vec<(String, String)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            raw: None,
        });
    }

    /// Puts the median of calibrated `(seconds, slowness)` samples, with
    /// the median of the raw seconds beside it.
    fn timed(&mut self, name: &'static str, samples: &[(f64, f64)], unit: &'static str) {
        let calibrated: Vec<f64> = samples.iter().map(|&(s, k)| s / k).collect();
        let raw: Vec<f64> = samples.iter().map(|&(s, _)| s).collect();
        self.put(
            name,
            stats::median(&calibrated).unwrap_or(0.0),
            unit,
            samples.len(),
        );
        self.metrics.last_mut().expect("just put").raw = stats::median(&raw);
    }

    fn ctx(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }
}

/// A fast 64-bit digest of response bytes (8 bytes per step), used to
/// compare every timed response with its verified first answer.
fn body_hash(bytes: &[u8]) -> u64 {
    let mut h = 0x243f_6a88_85a3_08d3u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
    h
}

/// A generated and built world on disk.
struct World {
    dir: PathBuf,
    jsonl: String,
    /// Byte range of each record's line in `jsonl`.
    lines: HashMap<Prefix, (usize, usize)>,
    records: Vec<Prefix>,
}

impl World {
    /// Parses the record for `prefix` out of the export.
    fn record(&self, prefix: &Prefix) -> Result<Json, String> {
        let &(a, b) = self
            .lines
            .get(prefix)
            .ok_or_else(|| format!("{prefix} is not an exported record"))?;
        Json::parse(&self.jsonl[a..b]).map_err(|e| format!("export line for {prefix}: {e}"))
    }
}

/// The `"prefix"` value of one export line, read without a JSON parse.
fn line_prefix(line: &str) -> Option<Prefix> {
    let rest = line.strip_prefix("{\"prefix\":\"")?;
    rest[..rest.find('"')?].parse().ok()
}

fn load_world(dir: &Path) -> Result<World, String> {
    let path = dir.join("dataset.jsonl");
    let jsonl =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut lines = HashMap::new();
    let mut records = Vec::new();
    let mut start = 0;
    for line in jsonl.split_inclusive('\n') {
        let p =
            line_prefix(line).ok_or_else(|| format!("export line without prefix: {line:.80}"))?;
        records.push(p);
        lines.insert(p, (start, start + line.len()));
        start += line.len();
    }
    Ok(World {
        dir: dir.to_path_buf(),
        jsonl,
        lines,
        records,
    })
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("response lacks string field {key:?}"))
}

/// Checks one `/prefix` answer (or one `/batch` line) for query `q`.
/// Covered queries must name the expected covering record, which the
/// in-process frozen dataset must agree on, and carry that record's owner,
/// DO prefix, ROV state and stored provenance. Uncovered queries must be
/// errors. `status` is `None` for a batch line.
fn check_answer(
    q: &Query,
    status: Option<u16>,
    body: &[u8],
    world: &World,
    frozen: &FrozenDataset,
) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| format!("{}: body is not UTF-8", q.prefix))?;
    let doc = Json::parse(text.trim_end()).map_err(|e| format!("{}: bad JSON: {e}", q.prefix))?;
    let in_process = frozen.lookup(&q.prefix);
    if in_process.map(|(p, _)| p) != q.expected {
        return Err(format!(
            "{}: frozen lookup gives {:?}, the benchmark's LPM {:?}",
            q.prefix,
            in_process.map(|(p, _)| p),
            q.expected
        ));
    }
    let Some((expected, idx)) = in_process else {
        let ok_status = status.is_none_or(|s| s == 404);
        if !ok_status || doc.get("error").is_none() {
            return Err(format!(
                "{}: uncovered query answered {status:?} {text:.120}",
                q.prefix
            ));
        }
        if status.is_none() && str_field(&doc, "query")? != q.prefix.to_string() {
            return Err(format!("{}: batch error line out of order", q.prefix));
        }
        return Ok(());
    };
    if status.is_some_and(|s| s != 200) || doc.get("error").is_some() {
        return Err(format!(
            "{}: covered query answered {status:?} {text:.120}",
            q.prefix
        ));
    }
    if str_field(&doc, "query")? != q.prefix.to_string() {
        return Err(format!("{}: answer is for another query", q.prefix));
    }
    let matched = str_field(&doc, "matched")?;
    if matched != expected.to_string() {
        return Err(format!(
            "{}: matched {matched}, expected {expected}",
            q.prefix
        ));
    }
    let record = doc.get("record").ok_or("answer lacks record")?;
    let exported = world.record(&expected)?;
    for (served, export) in [
        ("Direct Owner (DO)", "direct_owner"),
        ("DO Prefix", "do_prefix"),
        ("RPKI ROV", "rov"),
    ] {
        if str_field(record, served)? != str_field(&exported, export)? {
            return Err(format!(
                "{}: record field {served:?} differs from the export",
                q.prefix
            ));
        }
    }
    if str_field(&doc, "provenance")? != frozen.provenance(idx) {
        return Err(format!(
            "{}: provenance differs from the frozen record",
            q.prefix
        ));
    }
    Ok(())
}

/// Samples from one timed closed loop.
#[derive(Default)]
struct LoopStats {
    /// Per-operation latency, seconds.
    latencies: Vec<f64>,
    /// Items answered (queries, for batch).
    items: u64,
    elapsed: f64,
}

impl LoopStats {
    /// Divides every time by the slowness measured around the loop.
    fn calibrate(&mut self, slowness: f64) {
        for t in &mut self.latencies {
            *t /= slowness;
        }
        self.elapsed /= slowness;
    }
}

/// The pools one server is driven with, plus what each must answer.
struct Pools {
    lookups: Vec<Query>,
    lookup_reqs: Vec<Vec<u8>>,
    /// `(status, body hash)` of each lookup, from the verified first pass.
    lookup_expect: Vec<(u16, u64)>,
    batches: Vec<Vec<Query>>,
    batch_reqs: Vec<Vec<u8>>,
    /// `(status, body hash)` of each batch, from the verified first pass.
    batch_expect: Vec<(u16, u64)>,
}

impl Pools {
    fn new(world: &World, wl: Workload, seed: u64) -> Pools {
        let cov = Coverage::new(&world.records);
        let mut rng = Rng::new(seed);
        let lookups = queries::mix(&world.records, &cov, LOOKUP_POOL, &mut rng);
        let lookup_reqs = lookups
            .iter()
            .map(|q| encode_request("GET", &prefix_target(&q.prefix.to_string()), b""))
            .collect();
        let batches: Vec<Vec<Query>> = (0..wl.batch_bodies())
            .map(|_| queries::mix(&world.records, &cov, BATCH_LINES, &mut rng))
            .collect();
        let batch_reqs = batches
            .iter()
            .map(|b| {
                let mut body = String::new();
                for q in b {
                    let _ = writeln!(body, "{}", q.prefix);
                }
                encode_request("POST", "/batch", body.as_bytes())
            })
            .collect();
        Pools {
            lookups,
            lookup_reqs,
            lookup_expect: Vec::new(),
            batches,
            batch_reqs,
            batch_expect: Vec::new(),
        }
    }

    /// The untimed first pass: sends every pooled request once, checks each
    /// answer in full, and records its status and digest for the timed
    /// loops. Doubles as the warm-up.
    fn verify(
        &mut self,
        conn: &mut Conn,
        world: &World,
        frozen: &FrozenDataset,
        tally: &mut Tally,
    ) -> Result<(), String> {
        self.lookup_expect.clear();
        for (q, req) in self.lookups.iter().zip(&self.lookup_reqs) {
            let (status, body) = conn.roundtrip(req)?;
            self.lookup_expect.push((status, body_hash(body)));
            tally.check(check_answer(q, Some(status), body, world, frozen));
        }
        self.batch_expect.clear();
        for (batch, req) in self.batches.iter().zip(&self.batch_reqs) {
            let (status, body) = conn.roundtrip(req)?;
            self.batch_expect.push((status, body_hash(body)));
            let lines: Vec<&[u8]> = body
                .split(|&b| b == b'\n')
                .filter(|l| !l.is_empty())
                .collect();
            tally.check(if status != 200 || lines.len() != batch.len() {
                Err(format!(
                    "/batch of {} answered {status} with {} lines",
                    batch.len(),
                    lines.len()
                ))
            } else {
                batch
                    .iter()
                    .zip(&lines)
                    .try_for_each(|(q, line)| check_answer(q, None, line, world, frozen))
            });
        }
        Ok(())
    }
}

/// One closed-loop round: cycles through `reqs` on `conn` from `*next` for
/// `secs`, timing every round trip and comparing each answer with the
/// `(status, body hash)` of its verified first answer.
fn round(
    conn: &mut Conn,
    reqs: &[Vec<u8>],
    expect: &[(u16, u64)],
    next: &mut usize,
    items_per_req: u64,
    secs: f64,
    tally: &mut Tally,
) -> Result<LoopStats, String> {
    let mut out = LoopStats::default();
    let limit = Duration::from_secs_f64(secs);
    let started = Instant::now();
    while started.elapsed() < limit {
        let idx = *next % reqs.len();
        *next += 1;
        let t0 = Instant::now();
        let (status, body) = conn.roundtrip(&reqs[idx])?;
        let dt = t0.elapsed().as_secs_f64();
        tally.check(if (status, body_hash(body)) == expect[idx] {
            Ok(())
        } else {
            Err(format!(
                "timed answer {idx} changed since the verified pass"
            ))
        });
        out.latencies.push(dt);
        out.items += items_per_req;
    }
    out.elapsed = started.elapsed().as_secs_f64();
    Ok(out)
}

/// A loop's summary over every round of the run, from samples already
/// divided by the slowness around their round: the median and the `tail`
/// percentile of the pooled samples, and the median of the rounds' own
/// throughputs. Rounds are spread through the whole run, so a slow stretch
/// the calibration misses moves a median little. The tail is p90: on a
/// shared host, rarer latencies follow the neighbours (the xl lookup p99
/// spread 0.17-0.27 over six seeds where p90 spread 0.03).
struct Summary {
    p50: f64,
    tail: f64,
    rate: f64,
    samples: usize,
}

fn summarize(rounds: &[LoopStats], unit: f64, tail: f64) -> Summary {
    let pooled = stats::sorted(
        &rounds
            .iter()
            .flat_map(|r| r.latencies.iter().map(|s| s * unit))
            .collect::<Vec<_>>(),
    );
    let rates: Vec<f64> = rounds
        .iter()
        .filter(|r| r.elapsed > 0.0)
        .map(|r| r.items as f64 / r.elapsed)
        .collect();
    Summary {
        p50: stats::percentile(&pooled, 50.0).unwrap_or(0.0),
        tail: stats::percentile(&pooled, tail).unwrap_or(0.0),
        rate: stats::median(&rates).unwrap_or(0.0),
        samples: pooled.len(),
    }
}

/// The two request loops over one connection.
struct Loops<'a> {
    conn: Conn,
    pools: &'a Pools,
    next_lookup: usize,
    next_batch: usize,
}

impl<'a> Loops<'a> {
    fn new(conn: Conn, pools: &'a Pools) -> Loops<'a> {
        Loops {
            conn,
            pools,
            next_lookup: 0,
            next_batch: 0,
        }
    }

    fn lookups(&mut self, secs: f64, tally: &mut Tally) -> Result<LoopStats, String> {
        let p = self.pools;
        round(
            &mut self.conn,
            &p.lookup_reqs,
            &p.lookup_expect,
            &mut self.next_lookup,
            1,
            secs,
            tally,
        )
    }

    fn batches(&mut self, secs: f64, tally: &mut Tally) -> Result<LoopStats, String> {
        let p = self.pools;
        let items = BATCH_LINES as u64;
        round(
            &mut self.conn,
            &p.batch_reqs,
            &p.batch_expect,
            &mut self.next_batch,
            items,
            secs,
            tally,
        )
    }
}

/// The server's own `serve.requests` counter from `/metrics`, which must
/// equal every response the benchmark received from it (this `/metrics`
/// request included: it is counted before it renders).
fn reconcile_requests(server: &Server, conn: &mut Conn) -> Result<u64, String> {
    let received = server.responses + conn.responses + 1;
    let (status, body) = conn.roundtrip(&encode_request("GET", "/metrics", b""))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = String::from_utf8_lossy(body);
    let counted = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (name, value) = l.split_once(' ')?;
            matches!(name, "p2o_serve_requests_total" | "p2o_serve_requests")
                .then(|| value.trim().parse::<f64>().ok())
                .flatten()
        })
        .ok_or("/metrics has no serve.requests counter")? as u64;
    if counted != received {
        return Err(format!(
            "server counted {counted} requests, the benchmark received {received} responses"
        ));
    }
    Ok(counted)
}

/// A generated world and its CLI builds.
struct Built {
    world: World,
    generate_s: f64,
    /// Wall seconds of each build, with the slowness around it.
    builds: Vec<(f64, f64)>,
    build_rss_mb: Vec<f64>,
    frozen_bytes: u64,
    routed: usize,
    digest: u64,
}

impl Built {
    /// Runs `prefix2org build` over the world once more, checking that the
    /// export has one line per routed prefix and the same digest as every
    /// earlier build of this world.
    fn rebuild(&mut self, args: &Args, run_dir: &Path, tally: &mut Tally) -> Result<(), String> {
        let (timed, rss_mb, digest) = cli_build(
            args,
            &self.world.dir,
            run_dir,
            self.builds.len(),
            self.routed,
            tally,
        )?;
        self.builds.push(timed);
        self.build_rss_mb.push(rss_mb);
        tally.check(if digest == self.digest {
            Ok(())
        } else {
            Err("export digest changed between builds of one world".to_string())
        });
        Ok(())
    }
}

/// One timed CLI build of `dir` on every CPU: wall seconds with the
/// slowness around them, peak RSS in MB, export digest.
fn cli_build(
    args: &Args,
    dir: &Path,
    run_dir: &Path,
    n: usize,
    routed: usize,
    tally: &mut Tally,
) -> Result<((f64, f64), f64, u64), String> {
    let dir_s = dir.to_str().ok_or("non-UTF-8 work path")?;
    let export = dir.join("dataset.jsonl");
    let export_s = export.to_str().ok_or("non-UTF-8 work path")?;
    let (run, k) = calib::throughout(|| {
        proc::run_cli(
            &args.bin,
            &["build", "--in", dir_s, "--out", export_s],
            &run_dir.join(format!("build{n}.log")),
        )
    });
    let run = run?;
    let bytes = std::fs::read(&export).map_err(|e| format!("reading export: {e}"))?;
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    tally.check(if lines == routed {
        Ok(())
    } else {
        Err(format!(
            "export has {lines} lines for {routed} routed prefixes"
        ))
    });
    Ok((
        (run.wall.as_secs_f64(), k),
        run.max_rss_kib as f64 / 1024.0,
        body_hash(&bytes),
    ))
}

/// Generates the world for the run's seed and builds it once.
fn generate_and_build(
    args: &Args,
    run_dir: &Path,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<Built, String> {
    let wl = args.workload;
    let dir = run_dir.join("world");
    let dir_s = dir.to_str().ok_or("non-UTF-8 work path")?;
    // The generator gives up on some seeds (an address pool runs out at xl
    // scale); the next world seed in a fixed sequence is tried instead, so a
    // run seed still always means the same world.
    let mut attempt = 0u64;
    let (gen, world_seed) = loop {
        let world_seed = args.seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9));
        let seed = world_seed.to_string();
        let outcome = proc::run_cli(
            &args.bin,
            &[
                "generate",
                "--out",
                dir_s,
                "--scale",
                wl.scale(),
                "--seed",
                &seed,
            ],
            &run_dir.join("generate.log"),
        );
        match outcome {
            Ok(gen) => break (gen, world_seed),
            Err(e) if attempt >= 7 => return Err(e),
            Err(e) => {
                eprintln!("perfbench: world seed {world_seed} skipped: {e:.160}");
                let _ = std::fs::remove_dir_all(&dir);
                attempt += 1;
            }
        }
    };
    report.ctx("world_seed", world_seed);
    let routed = std::fs::read_to_string(dir.join("pfx2as.txt"))
        .map_err(|e| format!("reading pfx2as.txt: {e}"))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();
    let (timed, rss_mb, digest) = cli_build(args, &dir, run_dir, 0, routed, tally)?;
    tally.check(check_digest_registry(
        &args.work,
        wl.scale(),
        args.seed,
        digest,
    ));
    let frozen_bytes = std::fs::metadata(dir.join(prefix2org::FROZEN_FILE))
        .map_err(|e| format!("stat world.p2ob: {e}"))?
        .len();
    report.ctx("export_digest", format!("{digest:016x}"));
    report.ctx("routed_prefixes", routed);
    report.ctx("frozen_bytes", frozen_bytes);
    report.ctx(
        "input_bytes",
        dir_bytes(&dir, &["dataset.jsonl", "dataset.jsonl.ckpt", "world.p2ob"]),
    );
    Ok(Built {
        world: load_world(&dir)?,
        generate_s: gen.wall.as_secs_f64(),
        builds: vec![timed],
        build_rss_mb: vec![rss_mb],
        frozen_bytes,
        routed,
        digest,
    })
}

/// Export digests seen in this checkout, per scale and seed: a seed must
/// build the same export in every run.
fn check_digest_registry(work: &Path, scale: &str, seed: u64, digest: u64) -> Result<(), String> {
    let path = work.join("export-digests.tsv");
    let key = format!("{scale}\t{seed}\t");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(line) = text.lines().find(|l| l.starts_with(&key)) {
        let seen = &line[key.len()..];
        return if seen == format!("{digest:016x}") {
            Ok(())
        } else {
            Err(format!(
                "seed {seed} built export {digest:016x}, an earlier run built {seen}"
            ))
        };
    }
    let mut text = text;
    let _ = writeln!(text, "{key}{digest:016x}");
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Total size of the regular files under `dir`, minus the named outputs.
fn dir_bytes(dir: &Path, skip: &[&str]) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for e in entries.flatten() {
        let path = e.path();
        let name = e.file_name();
        if path.is_dir() {
            total += dir_bytes(&path, &[]);
        } else if !skip.iter().any(|s| name == *s) {
            total += e.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    total
}

/// Boots the server `n` times; returns the last (still running) and the
/// boot times of all.
fn boot_servers(
    args: &Args,
    world: &World,
    run_dir: &Path,
    n: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut boots = Vec::new();
    let mut last = None;
    for i in 0..n {
        if let Some(prev) = last.take() {
            Server::stop(prev);
        }
        let s = Server::start(
            &args.bin,
            &world.dir,
            &run_dir.join(format!("serve{i}.log")),
            proc::serve_cpu(0),
        )?;
        boots.push(s.boot.as_secs_f64());
        last = Some(s);
    }
    Ok((last.expect("at least one boot"), boots))
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

/// Rounds per second of `--seconds`: short rounds interleave the two loops
/// and the extra builds and boots through the whole run, so a slow stretch
/// of the machine touches every metric a little rather than one a lot.
const ROUNDS_PER_SEC: f64 = 8.0;

/// Evenly spread round indices at which to take `n` extra samples.
fn spread(n: usize, rounds: usize) -> Vec<usize> {
    (0..n)
        .map(|i| (2 * i + 1) * rounds / (2 * n.max(1)))
        .collect()
}

/// The untraced run: end-to-end metrics.
fn run_untraced(
    args: &Args,
    run_dir: &Path,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<(), String> {
    let wl = args.workload;
    let mut built = generate_and_build(args, run_dir, tally, report)?;
    let mut pools = Pools::new(&built.world, wl, args.seed);
    let frozen = FrozenDataset::load(&Vfs::real(), &built.world.dir.join(prefix2org::FROZEN_FILE))?;

    let server = Server::start(
        &args.bin,
        &built.world.dir,
        &run_dir.join("serve.log"),
        proc::serve_cpu(0),
    )?;
    let mut boots = vec![server.boot.as_secs_f64()];
    tally.attempted += 1;
    if let Some(cpu) = proc::serve_cpu(0) {
        proc::pin_current_thread(&[cpu]);
    }
    let mut conn = Conn::connect(&server.addr)?;
    pools.verify(&mut conn, &built.world, &frozen, tally)?;
    drop(frozen);
    let mut loops = Loops::new(conn, &pools);
    // Untimed warm-up: caches, allocator, and CPU frequency settle.
    let warm = (0.1 * args.seconds).clamp(0.5, 2.0);
    loops.lookups(warm / 2.0, tally)?;
    loops.batches(warm / 2.0, tally)?;
    let rss_mb = server.rss_kib()? as f64 / 1024.0;

    let (lookup_share, batch_share) = wl.loop_shares();
    let rounds = (args.seconds * ROUNDS_PER_SEC).round().max(1.0) as usize;
    let build_at = spread(wl.builds() - 1, rounds);
    let boot_at = spread(wl.boots() - 1, rounds);
    let mut lookups = Vec::with_capacity(rounds);
    let mut batches = Vec::with_capacity(rounds);
    let mut slowness = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let cpus: Vec<usize> = proc::serve_cpu(r).into_iter().collect();
        if let Some(cpu) = proc::serve_cpu(r) {
            server.pin(cpu);
        }
        let (timed, k) = calib::around(&cpus, || -> Result<_, String> {
            let lk = loops.lookups(lookup_share * args.seconds / rounds as f64, tally)?;
            let bt = loops.batches(batch_share * args.seconds / rounds as f64, tally)?;
            Ok((lk, bt))
        });
        let (mut lk, mut bt) = timed?;
        lk.calibrate(k);
        bt.calibrate(k);
        lookups.push(lk);
        batches.push(bt);
        slowness.push(k);
        for _ in build_at.iter().filter(|&&at| at == r) {
            built.rebuild(args, run_dir, tally)?;
        }
        for _ in boot_at.iter().filter(|&&at| at == r) {
            let extra = Server::start(
                &args.bin,
                &built.world.dir,
                &run_dir.join(format!("serve{}.log", boots.len())),
                proc::serve_cpu(r),
            )?;
            boots.push(extra.boot.as_secs_f64());
            tally.attempted += 1;
            extra.stop();
        }
    }
    let mut conn = loops.conn;
    let counted = reconcile_requests(&server, &mut conn);
    tally.check(counted.map(|_| ()));
    drop(conn);
    server.stop();
    proc::pin_current_thread(&[]);

    let lk = summarize(&lookups, 1e6, 90.0);
    let bt = summarize(&batches, 1e3, 90.0);
    let n_prefixes = built.world.records.len() as f64;
    report.put(
        "setup_s",
        stats::median(&boots).unwrap_or(0.0),
        "s",
        boots.len(),
    );
    report.timed("build_s", &built.builds, "s");
    report.put(
        "build_peak_rss_mb",
        stats::median(&built.build_rss_mb).unwrap_or(0.0),
        "MB",
        built.build_rss_mb.len(),
    );
    report.put(
        "frozen_bytes_per_prefix",
        built.frozen_bytes as f64 / n_prefixes,
        "B",
        1,
    );
    report.put("lookup_p50_us", lk.p50, "us", lk.samples);
    report.put("lookup_p90_us", lk.tail, "us", lk.samples);
    report.put("lookup_rps", lk.rate, "1/s", lk.samples);
    report.put("batch_prefixes_per_s", bt.rate, "1/s", bt.samples);
    report.put("batch_p50_ms", bt.p50, "ms", bt.samples);
    report.put("batch_p90_ms", bt.tail, "ms", bt.samples);
    report.put("serve_rss_mb", rss_mb, "MB", 1);

    report.ctx("generate_s", format!("{:.3}", built.generate_s));
    report.ctx("rounds", rounds);
    report.ctx(
        "slowness_median",
        format!("{:.3}", stats::median(&slowness).unwrap_or(0.0)),
    );
    report.ctx("lookup_supported_percentile", fmt_supported(lk.samples));
    report.ctx("batch_supported_percentile", fmt_supported(bt.samples));
    Ok(())
}

fn fmt_supported(n: usize) -> String {
    stats::highest_supported(n).map_or("none".to_string(), |p| format!("p{p}"))
}

/// Mean nanoseconds per call of `f` over `items`, repeated until at least
/// `min` has elapsed.
fn ns_per<T>(items: &[T], min: Duration, mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || started.elapsed() < min {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// The traced run: per-layer metrics.
fn run_traced(
    args: &Args,
    run_dir: &Path,
    tally: &mut Tally,
    report: &mut Report,
) -> Result<Tracer, String> {
    let wl = args.workload;
    let built = generate_and_build(args, run_dir, tally, report)?;
    let world = &built.world;
    let cli_build_ms = ms(built.builds[0].0);
    let threads = proc::nproc();
    let mut tr = Tracer::new();

    // Build replay, then the byte-identity check against the CLI's output.
    let out_dir = run_dir.join("replay");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let (outputs, counts) = inproc::build(&mut tr, &world.dir, &out_dir, threads)?;
    for (mine, cli) in [
        (&outputs.export, world.dir.join("dataset.jsonl")),
        (&outputs.frozen, world.dir.join(prefix2org::FROZEN_FILE)),
    ] {
        let same = std::fs::read(mine).ok() == std::fs::read(&cli).ok();
        tally.check(same.then_some(()).ok_or_else(|| {
            format!(
                "replayed {} differs from the CLI's",
                cli.file_name().unwrap_or_default().to_string_lossy()
            )
        }));
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    let build_wall = tr.span(outputs.root).dur_ns() as f64 / 1e6;
    let layers = tr.children_ns(outputs.root);
    for (&name, &metric) in inproc::BUILD_LAYERS.iter().zip(BUILD_LAYER_METRICS.iter()) {
        report.put(
            metric,
            layers.get(name).copied().unwrap_or(0) as f64 / 1e6,
            "ms",
            1,
        );
    }
    let attributed: f64 = layers.values().map(|&ns| ns as f64 / 1e6).sum();
    report.put("build.unattributed_ms", build_wall - attributed, "ms", 1);
    report.put(
        "build.trace_overhead_ms",
        build_wall - cli_build_ms,
        "ms",
        1,
    );
    report.put("whois.records", counts.whois_records as f64, "count", 1);
    report.put(
        "bgp.routed_prefixes",
        counts.routed_prefixes as f64,
        "count",
        1,
    );
    report.put("rpki.objects", counts.rpki_objects as f64, "count", 1);
    report.put(
        "core.final_clusters",
        counts.final_clusters as f64,
        "count",
        1,
    );
    report.put("core.export_bytes", counts.export_bytes as f64, "B", 1);
    report.put("core.frozen_bytes", counts.frozen_bytes as f64, "B", 1);
    tally.check(if counts.routed_prefixes as usize == world.records.len() {
        Ok(())
    } else {
        Err("replayed routed prefixes differ from the export".to_string())
    });
    report.ctx("build_traced_wall_ms", format!("{build_wall:.1}"));
    report.ctx("build_cli_wall_ms", format!("{cli_build_ms:.1}"));

    // Boot replays, then the real boots they reconcile against.
    let boots_n = wl.boots().max(3);
    let mut phase_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut snapshot = None;
    for _ in 0..boots_n {
        let (snap, root) = inproc::boot(&mut tr, &world.dir)?;
        for (name, ns) in tr.children_ns(root) {
            phase_ms.entry(name).or_default().push(ns as f64 / 1e6);
        }
        snapshot = Some(snap);
    }
    let snapshot = snapshot.expect("at least one boot");
    let (server, boots) = boot_servers(args, world, run_dir, boots_n)?;
    tally.attempted += boots.len() as u64;
    let setup_ms = ms(stats::median(&boots).unwrap_or(0.0));
    let mut boot_sum = 0.0;
    for (phase, metric) in BOOT_PHASES {
        let v = stats::median(phase_ms.get(phase).map_or(&[][..], |v| v)).unwrap_or(0.0);
        boot_sum += v;
        report.put(metric, v, "ms", boots_n);
    }
    report.put(
        "serve.boot.unattributed_ms",
        setup_ms - boot_sum,
        "ms",
        boots_n,
    );
    report.ctx("setup_ms", format!("{setup_ms:.3}"));

    // A short client pass over the live server for latency and counts.
    let frozen = FrozenDataset::load(&Vfs::real(), &world.dir.join(prefix2org::FROZEN_FILE))?;
    let mut pools = Pools::new(world, wl, args.seed);
    if let Some(cpu) = proc::serve_cpu(0) {
        proc::pin_current_thread(&[cpu]);
    }
    let mut conn = Conn::connect(&server.addr)?;
    pools.verify(&mut conn, world, &frozen, tally)?;
    let secs = (0.1 * args.seconds).clamp(0.5, 2.0);
    let mut loops = Loops::new(conn, &pools);
    let lookups = loops.lookups(secs, tally)?.latencies;
    loops.batches(secs, tally)?;
    let mut conn = loops.conn;
    report.put("serve.response_bytes", conn.bytes_received as f64, "B", 1);
    let counted = reconcile_requests(&server, &mut conn);
    tally.check(counted.as_ref().map(|_| ()).map_err(Clone::clone));
    report.put("serve.requests", counted.unwrap_or(0) as f64, "count", 1);
    drop(conn);
    server.stop();

    // In-process request path over the same pools.
    let min = Duration::from_millis(300);
    let parse_ns = ns_per(&pools.lookup_reqs, min, |req| {
        let mut parser = p2o_serve::RequestParser::new();
        parser.feed(req);
        std::hint::black_box(parser.poll().ok());
    });
    let lpm_ns = ns_per(&pools.lookups, min, |q| {
        std::hint::black_box(frozen.lookup(&q.prefix));
    });
    let lookup_render_ns = ns_per(&pools.lookups, min, |q| {
        std::hint::black_box(snapshot.lookup(&q.prefix).map(|j| format!("{j}\n")));
    });
    let bodies: Vec<(u16, Vec<u8>)> = pools
        .lookups
        .iter()
        .map(|q| match snapshot.lookup(&q.prefix) {
            Some(j) => (200, format!("{j}\n").into_bytes()),
            None => (
                404,
                b"{\"error\":\"no covering routed prefix in the snapshot\"}\n".to_vec(),
            ),
        })
        .collect();
    let stamp = [
        ("X-P2O-Serial".to_string(), "0".to_string()),
        ("X-P2O-Snapshot".to_string(), snapshot.digest.clone()),
        ("X-P2O-Request-Id".to_string(), "1".to_string()),
    ];
    let frame_ns = ns_per(&bodies, min, |(status, body)| {
        std::hint::black_box(p2o_serve::http::response(
            *status,
            "application/json",
            &stamp,
            body,
        ));
    });
    let batch_texts: Vec<&[u8]> = pools
        .batch_reqs
        .iter()
        .map(|r| {
            let head = r
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map_or(0, |i| i + 4);
            &r[head..]
        })
        .collect();
    let batch_body_ns = ns_per(&batch_texts, min, |body| {
        let text = std::str::from_utf8(body).expect("batch bodies are ASCII");
        let mut out = String::new();
        for line in text.lines() {
            match line
                .trim()
                .parse::<Prefix>()
                .ok()
                .and_then(|p| snapshot.lookup(&p))
            {
                Some(j) => {
                    let _ = writeln!(out, "{j}");
                }
                None => out.push_str("{\"error\":\"no covering routed prefix in the snapshot\"}\n"),
            }
        }
        std::hint::black_box(out);
    });
    let client_mean_ns = stats::mean(&lookups).unwrap_or(0.0) * 1e9;
    let render_ns = lookup_render_ns - lpm_ns;
    report.put(
        "serve.http_parse_ns",
        parse_ns,
        "ns",
        pools.lookup_reqs.len(),
    );
    report.put("serve.lpm_ns", lpm_ns, "ns", pools.lookups.len());
    report.put("serve.render_ns", render_ns, "ns", pools.lookups.len());
    report.put("serve.frame_ns", frame_ns, "ns", bodies.len());
    report.put(
        "serve.socket_ns",
        client_mean_ns - (parse_ns + lpm_ns + render_ns + frame_ns),
        "ns",
        lookups.len(),
    );
    report.put(
        "serve.batch_line_ns",
        batch_body_ns / BATCH_LINES as f64,
        "ns",
        batch_texts.len(),
    );
    for class in Class::ALL {
        let n = pools.lookups.iter().filter(|q| q.class == class).count()
            + pools
                .batches
                .iter()
                .flatten()
                .filter(|q| q.class == class)
                .count();
        let name = match class {
            Class::Exact => "serve.queries.exact",
            Class::MoreSpecific => "serve.queries.more_specific",
            Class::Uncovered => "serve.queries.uncovered",
        };
        report.put(name, n as f64, "count", 1);
    }
    report.ctx("client_mean_ns", format!("{client_mean_ns:.0}"));
    Ok(tr)
}

/// Metric names of [`inproc::BUILD_LAYERS`], in the same order.
const BUILD_LAYER_METRICS: [&str; 20] = [
    "util.read_ms",
    "util.digest_ms",
    "whois.parse_ms",
    "whois.delegated_ms",
    "whois.build_ms",
    "bgp.mrt_decode_ms",
    "rpki.load_ms",
    "as2org.cluster_ms",
    "rpki.validate_ms",
    "core.resolve_ms",
    "core.cluster_ms",
    "core.assemble_ms",
    "core.rov_ms",
    "core.exceptions_ms",
    "core.export_ms",
    "core.freeze_ms",
    "core.thaw_verify_ms",
    "util.frame_ms",
    "util.write_ms",
    "build.teardown_ms",
];

/// Boot span names and their metrics.
const BOOT_PHASES: [(&str, &str); 4] = [
    (
        "serve.boot.manifest_verify",
        "serve.boot.manifest_verify_ms",
    ),
    (
        "serve.boot.frozen_validate",
        "serve.boot.frozen_validate_ms",
    ),
    ("serve.boot.frozen_load", "serve.boot.frozen_load_ms"),
    ("serve.boot.inputs_digest", "serve.boot.inputs_digest_ms"),
];

/// The commit when the checkout is a git repository, else a digest of the
/// sources the program is built from.
fn source_stamp() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                    files.push(p);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0u64;
    for f in files {
        let content = std::fs::read(&f).unwrap_or_default();
        h = body_hash(
            &[
                &h.to_le_bytes()[..],
                f.to_string_lossy().as_bytes(),
                &content,
            ]
            .concat(),
        );
    }
    format!("tree-{h:016x}")
}

fn json_escape(s: &str) -> String {
    Json::from(s).to_string()
}

fn main() {
    // Counted before any thread is pinned.
    proc::nproc();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = args.work.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let mut tally = Tally::default();
    let mut report = Report::default();
    let outcome = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))
        .and_then(|()| {
            if args.trace {
                let tr = run_traced(&args, &run_dir, &mut tally, &mut report)?;
                let path =
                    args.work
                        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
                std::fs::write(&path, tr.to_chrome_json())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                report.ctx("trace_file", path.display());
            } else {
                run_untraced(&args, &run_dir, &mut tally, &mut report)?;
            }
            Ok(())
        });
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = outcome {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        std::process::exit(1);
    }

    let mut context = vec![
        ("workload".to_string(), args.workload.name().to_string()),
        ("seed".to_string(), args.seed.to_string()),
        ("scale".to_string(), args.workload.scale().to_string()),
        ("nproc".to_string(), proc::nproc().to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("commit".to_string(), source_stamp()),
    ];
    context.append(&mut report.context);
    let ctx: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}:{}", json_escape(k), json_escape(v)))
        .collect();
    println!("context {{{}}}", ctx.join(","));
    for m in &report.metrics {
        let raw = m.raw.map_or(String::new(), |r| format!("  raw {r:.4}"));
        println!(
            "{:<34} {:>16.4} {:<6} n={}{raw}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_escape(m.name),
                m.value,
                json_escape(m.unit)
            )
        })
        .collect();
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
