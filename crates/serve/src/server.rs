//! The lookup service runtime: a thread-per-connection HTTP/1.1 server
//! over `std::net` with keep-alive, pipelining, an atomically reloadable
//! snapshot, and a Prometheus-scrapable metrics registry.
//!
//! Endpoints:
//!
//! | route                     | behavior                                     |
//! |---------------------------|----------------------------------------------|
//! | `GET /prefix/<cidr>`      | longest-match lookup: DO, DC chain, cluster, MOAS origin set, provenance |
//! | `POST /batch`             | one CIDR per body line; JSONL responses in order |
//! | `GET /dump[?serial=N]`    | full table as reset, or delta since serial `N` |
//! | `GET /metrics`            | Prometheus text exposition of the catalogued `serve.*` counters, histograms and gauges |
//! | `POST /reload`            | re-verify and atomically swap to an artifact dir |
//! | `GET /health`             | liveness + serial/digest + uptime + 60 s request rate |
//! | `GET /status`             | ops view: per-endpoint windowed percentiles/rates, snapshot generation, connection gauge, flight-recorder occupancy |
//! | `GET /debug/requests?n=K` | flight-recorder dump: recent + slowest, as JSONL |
//! | `GET /debug/trace?ms=N`   | attach a live tracer for N ms, return a Chrome trace |
//! | `POST /quit`              | graceful drain (gated behind `allow_quit`)    |
//!
//! Every response carries `X-P2O-Serial` and `X-P2O-Snapshot` headers so a
//! client can detect mid-session reloads, plus a monotonically assigned
//! `X-P2O-Request-Id`; a single response is always built from exactly one
//! snapshot `Arc` (no torn reads by construction).
//!
//! Every request — including early rejects (parse-error 400s, overflow
//! 503s) — lands in the per-endpoint windowed latency series, the
//! cumulative `serve.latency.*` histograms, the flight recorder, and (when
//! configured) the JSONL access log, so error latencies are never
//! invisible. Recording is lock-free on the request path; the snapshot
//! read stays a single generation load.
//!
//! The reload path delegates verification to a caller-supplied
//! [`SnapshotLoader`] — the CLI wires the fsck audit plus the crash-safe
//! store loader in, so a torn or damaged directory is rejected *before*
//! the swap and the old snapshot keeps serving.
//!
//! Shutdown is a graceful drain: accepting stops, in-flight connections
//! get a grace window to finish (bounded by `drain_deadline`), the access
//! log flushes, and a final `RunReport` lands on stderr.

use std::borrow::Cow;
use std::fmt::{self, Write};
use std::io::{self, IoSlice, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use p2o_net::{ParseError, Prefix, Prefix4};
use p2o_obs::catalogue::{self, Source};
use p2o_obs::promexpo::{self, Family};
use p2o_obs::{
    process_rss_bytes, Counter, FlightRecorder, FlightSample, Histogram, Obs, WindowedHistogram,
    WINDOWS,
};
use p2o_util::json::{write_escaped, write_u64, Escaper, Json};
use prefix2org::FrozenDataset;

use crate::access::AccessLog;
use crate::http::{self, Request, RequestParser};
use crate::snapshot::{Answer, Snapshot, SnapshotCell, SnapshotReader};

/// Re-verifies and loads an artifact directory into a [`Snapshot`]. The
/// returned snapshot's `serial` is overwritten by the server (boot = 0,
/// each successful reload +1).
pub type SnapshotLoader = Arc<dyn Fn(&Path) -> Result<Snapshot, String> + Send + Sync>;

/// How many delta generations `/dump?serial=N` can bridge before a client
/// is told to reset.
const DELTA_WINDOW: usize = 8;

/// Flight-recorder ring capacity (most recent requests retained).
const FLIGHT_CAPACITY: usize = 512;
/// Flight-recorder slowest-N leaderboard size.
const FLIGHT_SLOW: usize = 16;
/// Default number of recent records `/debug/requests` returns.
const DEBUG_REQUESTS_DEFAULT: usize = 50;
/// Cap on `/debug/trace?ms=N` capture windows.
const TRACE_MS_CAP: u64 = 10_000;
/// Read timeout for connections once a drain has started: long enough to
/// pick up a request already on the wire, short enough to not stall the
/// drain deadline.
const DRAIN_GRACE: Duration = Duration::from_millis(100);
/// Tick between stop-flag checks while a connection is parked waiting for
/// its next request. Keeps drain latency bounded by the tick instead of
/// the full idle timeout, without any cross-thread socket plumbing.
const STOP_POLL: Duration = Duration::from_millis(50);
/// The body capacity a connection keeps between responses: above a
/// 1,000-line `/batch` answer (~1.1 MB). A larger response gives the
/// excess back once it is written, so at the default cap of 64
/// connections the kept body buffers total at most 256 MiB.
const KEPT_CAPACITY: usize = 4 << 20;
/// Body of the connection-limit 503.
const OVERFLOW_BODY: &[u8] = b"{\"error\":\"connection limit reached\"}\n";
/// Non-blank `/batch` lines answered as one group: matched together and
/// read ahead before any is written, so that at a scale where each answer
/// waits on memory their cache misses overlap (DESIGN.md §4g).
const BATCH_GROUP: usize = 16;

pub use p2o_obs::catalogue::ENDPOINTS;

/// What answers a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handler {
    Lookup,
    Batch,
    Dump,
    Metrics,
    Health,
    Status,
    DebugRequests,
    DebugTrace,
    Reload,
    Quit,
    /// A route takes the path, with another method: 405.
    NotAllowed,
    /// No route takes the path: 404.
    NotFound,
}

/// The route table: `(method, path, endpoint label, handler)`, matched in
/// order, so `/prefix/` and `/batch`, the benchmark's hot routes, come
/// first. A path ending in `/` takes every path under it.
const ROUTES: &[(&str, &str, &str, Handler)] = &[
    ("GET", "/prefix/", "prefix", Handler::Lookup),
    ("POST", "/batch", "batch", Handler::Batch),
    ("GET", "/prefix", "prefix", Handler::Lookup),
    ("GET", "/dump", "dump", Handler::Dump),
    ("GET", "/metrics", "metrics", Handler::Metrics),
    ("GET", "/health", "health", Handler::Health),
    ("GET", "/status", "status", Handler::Status),
    (
        "GET",
        "/debug/requests",
        "debug.requests",
        Handler::DebugRequests,
    ),
    ("GET", "/debug/trace", "debug.trace", Handler::DebugTrace),
    ("POST", "/reload", "reload", Handler::Reload),
    ("POST", "/quit", "quit", Handler::Quit),
];

/// Matches a request against [`ROUTES`]: the index into [`ENDPOINTS`] it
/// counts under, and its handler. A path some route takes with another
/// method counts under that route's endpoint; any other path, under
/// `other`.
fn match_route(method: &str, path: &str) -> (usize, Handler) {
    let mut on_path = None;
    for &(taken, pattern, endpoint, handler) in ROUTES {
        let matches = path == pattern || pattern.ends_with('/') && path.starts_with(pattern);
        if matches && taken == method {
            return (endpoint_index(endpoint), handler);
        }
        on_path = on_path.or(matches.then_some(endpoint));
    }
    match on_path {
        Some(endpoint) => (endpoint_index(endpoint), Handler::NotAllowed),
        None => (endpoint_index("other"), Handler::NotFound),
    }
}

/// Index into [`ENDPOINTS`] of an endpoint label.
fn endpoint_index(name: &str) -> usize {
    ENDPOINTS
        .iter()
        .position(|&e| e == name)
        .expect("known label")
}

/// Server tunables.
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Concurrent-connection cap; excess connections get 503 and close.
    pub max_connections: usize,
    /// Per-connection idle read timeout.
    pub read_timeout: Duration,
    /// Structured JSONL access log (one object per request), written
    /// through the Vfs/atomic machinery. `None` disables logging.
    pub access_log: Option<AccessLog>,
    /// Whether `POST /quit` may trigger a graceful drain.
    pub allow_quit: bool,
    /// How long shutdown waits for in-flight connections to finish.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
            access_log: None,
            allow_quit: false,
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// One delta between consecutive snapshot serials, pre-rendered as
/// `/dump` op lines.
struct DeltaEntry {
    /// The serial this delta starts from (applies on top of `from`).
    from: u64,
    /// The serial this delta produces.
    to: u64,
    /// Rendered JSONL ops: `add` / `remove` / `change` lines.
    ops: String,
}

/// Per-endpoint recording handles, registered up front so `/metrics` and
/// `/status` show explicit zeros on a fresh server.
struct EndpointStat {
    name: &'static str,
    /// Rolling 10s/60s/5m latency windows (lock-free recording).
    windowed: WindowedHistogram,
    /// Cumulative-since-boot latency histogram (`serve.latency.<name>`).
    cumulative: Histogram,
    /// Cumulative request count (`serve.requests.<name>`).
    requests: Counter,
}

/// Every metric handle the server records into or renders, registered
/// from the catalogue and taken once at spawn, so that nothing after spawn
/// takes the registry lock to find a handle or looks one up by name.
struct ServeMetrics {
    connections: Counter,
    /// `serve.requests`: every response, early rejects included.
    requests: Counter,
    http_4xx: Counter,
    http_5xx: Counter,
    reloads: Counter,
    reload_failures: Counter,
    /// `serve.batch_prefixes`: non-blank `/batch` lines answered.
    batch_prefixes: Counter,
    access_log_failures: Counter,
    /// `serve.lookup_ns`: one sample per `/prefix` lookup and `/batch` line.
    lookup_ns: Histogram,
    /// Parallel to [`ENDPOINTS`].
    endpoints: Vec<EndpointStat>,
    gauges: Gauges,
}

/// The gauge families `/metrics` renders from live state on each scrape.
struct Gauges {
    uptime: Family,
    connections_active: Family,
    rss: Family,
    window_latency: Family,
    window_rate: Family,
    snapshot_rov: Family,
    snapshot_exceptions: Family,
}

impl ServeMetrics {
    /// Registers the catalogue's `serve spawn` rows at zero, in table
    /// order, so a fresh server's `/metrics` shows explicit zeros, then
    /// takes the handles.
    fn new(obs: &Obs) -> ServeMetrics {
        catalogue::register(obs, Source::ServeSpawn);
        ServeMetrics {
            connections: obs.counter("serve.connections"),
            requests: obs.counter("serve.requests"),
            http_4xx: obs.counter("serve.http_4xx"),
            http_5xx: obs.counter("serve.http_5xx"),
            reloads: obs.counter("serve.reloads"),
            reload_failures: obs.counter("serve.reload_failures"),
            batch_prefixes: obs.counter("serve.batch_prefixes"),
            access_log_failures: obs.counter("serve.access_log_failures"),
            lookup_ns: obs.histogram("serve.lookup_ns"),
            endpoints: ENDPOINTS
                .iter()
                .map(|&name| EndpointStat {
                    name,
                    windowed: WindowedHistogram::new(),
                    cumulative: obs.histogram(&format!("serve.latency.{name}")),
                    requests: obs.counter(&format!("serve.requests.{name}")),
                })
                .collect(),
            gauges: Gauges {
                uptime: Family::of("serve.uptime_seconds"),
                connections_active: Family::of("serve.connections_active"),
                rss: Family::of("serve.rss_bytes"),
                window_latency: Family::of("serve.window_latency_ns"),
                window_rate: Family::of("serve.window_rate"),
                snapshot_rov: Family::of("serve.snapshot_rov"),
                snapshot_exceptions: Family::of("serve.snapshot_exceptions"),
            },
        }
    }
}

/// Shared server state: the snapshot cell, metrics, loader, delta log.
struct ServerState {
    cell: Arc<SnapshotCell>,
    obs: Arc<Obs>,
    loader: SnapshotLoader,
    /// Bounded history of reload deltas, oldest first. Guarded by a mutex:
    /// written only on reload, read only by `/dump` — never on the
    /// per-lookup path.
    deltas: Mutex<Vec<DeltaEntry>>,
    /// Serializes reloads so concurrent `/reload`s cannot interleave
    /// serial assignment.
    reload_gate: Mutex<()>,
    stop: AtomicBool,
    active: AtomicUsize,
    max_connections: usize,
    read_timeout: Duration,
    /// The bound address (used to self-wake the accept loop on `/quit`).
    addr: SocketAddr,
    started: Instant,
    /// Monotonic request-id source; ids start at 1.
    request_ids: AtomicU64,
    metrics: ServeMetrics,
    flight: FlightRecorder,
    access: Option<AccessLog>,
    allow_quit: bool,
    drain_deadline: Duration,
    /// Serializes `/debug/trace` captures (one live tracer at a time).
    trace_gate: AtomicBool,
}

impl ServerState {
    /// The state of a server bound to `addr`, serving `initial`.
    fn new(
        config: ServerConfig,
        initial: Snapshot,
        loader: SnapshotLoader,
        addr: SocketAddr,
    ) -> ServerState {
        let obs = Arc::new(Obs::new());
        let metrics = ServeMetrics::new(&obs);
        ServerState {
            cell: Arc::new(SnapshotCell::new(Arc::new(initial))),
            obs,
            loader,
            deltas: Mutex::new(Vec::new()),
            reload_gate: Mutex::new(()),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_connections: config.max_connections,
            read_timeout: config.read_timeout,
            addr,
            started: Instant::now(),
            request_ids: AtomicU64::new(0),
            metrics,
            flight: FlightRecorder::new(FLIGHT_CAPACITY, FLIGHT_SLOW),
            access: config.access_log,
            allow_quit: config.allow_quit,
            drain_deadline: config.drain_deadline,
            trace_gate: AtomicBool::new(false),
        }
    }

    fn next_request_id(&self) -> u64 {
        self.request_ids.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Everything one written response reports into the observability layer.
struct RequestOutcome<'a> {
    id: u64,
    endpoint_idx: usize,
    method: &'a str,
    target: &'a str,
    status: u16,
    latency_ns: u64,
    serial: u64,
    snapshot: &'a str,
    family: char,
}

/// Counts one response before it is written: its endpoint's request count
/// and its status class. (`serve.requests` counts the request when it is
/// taken.) Every response — routed requests, parse-error 400s, and
/// overflow 503s alike — is counted here, so a client that has read a
/// response always finds it counted.
fn count_response(state: &ServerState, endpoint_idx: usize, status: u16) {
    if (400..500).contains(&status) {
        state.metrics.http_4xx.incr();
    } else if status >= 500 {
        state.metrics.http_5xx.incr();
    }
    state.metrics.endpoints[endpoint_idx].requests.incr();
}

/// The single recording sink for *every* written response — routed
/// requests, parse-error 400s, and overflow 503s alike — so no latency is
/// invisible to the windowed series, the flight recorder, or the access
/// log. The latency runs from the read that delivered the request's first
/// byte (the accept, for a 503) to the last byte written.
fn record_response(state: &ServerState, out: &RequestOutcome<'_>) {
    let stat = &state.metrics.endpoints[out.endpoint_idx];
    stat.windowed.record(out.latency_ns);
    stat.cumulative.record(out.latency_ns);
    state.flight.record(FlightSample {
        id: out.id,
        endpoint: stat.name,
        status: out.status,
        latency_ns: out.latency_ns,
        serial: out.serial,
        family: out.family,
        target: out.target,
    });
    if let Some(access) = &state.access {
        let ts_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let uptime_ms = state.started.elapsed().as_millis() as u64;
        let pushed = access.push(|line| {
            write_access_line(line, out, stat.name, ts_unix_ms, uptime_ms)
                .expect("String writes succeed")
        });
        if pushed.is_err() {
            state.metrics.access_log_failures.incr();
        }
    }
}

/// Writes one access-log line, without its newline, straight into `line`:
/// the response's id, times, request line, endpoint, status, latency,
/// snapshot and address family, as the compact JSON of an object of those
/// fields in that order (every number below 2^53 exactly as
/// [`Json`] renders it).
fn write_access_line(
    line: &mut String,
    out: &RequestOutcome<'_>,
    endpoint: &str,
    ts_unix_ms: u64,
    uptime_ms: u64,
) -> fmt::Result {
    let number = |line: &mut String, key: &str, value: u64| {
        line.push_str(",\"");
        line.push_str(key);
        line.push_str("\":");
        write_u64(line, value)
    };
    let text = |line: &mut String, key: &str, value: &str| {
        line.push_str(",\"");
        line.push_str(key);
        line.push_str("\":");
        write_escaped(line, value)
    };
    line.push_str("{\"type\":\"access\"");
    number(line, "id", out.id)?;
    number(line, "ts_unix_ms", ts_unix_ms)?;
    number(line, "uptime_ms", uptime_ms)?;
    text(line, "method", out.method)?;
    text(line, "target", out.target)?;
    text(line, "endpoint", endpoint)?;
    number(line, "status", u64::from(out.status))?;
    number(line, "latency_ns", out.latency_ns)?;
    number(line, "serial", out.serial)?;
    text(line, "snapshot", out.snapshot)?;
    text(line, "family", out.family.encode_utf8(&mut [0; 4]))?;
    line.push('}');
    Ok(())
}

/// A running server: its bound address and shutdown control.
pub struct ServerHandle {
    /// The actually bound address (resolves port 0).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    finished: bool,
}

impl ServerHandle {
    /// The snapshot cell (tests swap/inspect through it).
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.state.cell
    }

    /// The metrics registry.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.state.obs
    }

    /// Stops accepting, drains in-flight connections under the configured
    /// deadline, flushes the access log, and emits a final `RunReport` to
    /// stderr. Connections mid-request get a grace window to finish;
    /// requests already accepted are answered, idle keep-alive
    /// connections are closed.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::Release);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.finish();
    }

    /// Blocks until the accept loop exits (the CLI foreground mode —
    /// `POST /quit` is what ends it), then runs the same drain/flush/
    /// report sequence as [`shutdown`](ServerHandle::shutdown).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.state.stop.store(true, Ordering::Release);
        self.finish();
    }

    /// Drain + flush + final report. Idempotent.
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let deadline = Instant::now() + self.state.drain_deadline;
        while self.state.active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stranded = self.state.active.load(Ordering::Relaxed);
        if let Some(access) = &self.state.access {
            if let Err(e) = access.flush() {
                eprintln!("warning: {e}");
            }
        }
        let report = self.state.obs.report();
        eprintln!(
            "serve: drained after {} request(s) over {:.1}s{}",
            self.state.request_ids.load(Ordering::Relaxed),
            self.state.started.elapsed().as_secs_f64(),
            if stranded > 0 {
                format!("; {stranded} connection(s) exceeded the drain deadline")
            } else {
                String::new()
            }
        );
        eprint!("{}", report.summary_table());
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A handle dropped without shutdown/join (e.g. a panicking test)
        // must not emit a report or block on a drain; just stop accepting.
        self.state.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Binds and spawns the accept loop; returns immediately.
pub fn spawn(
    config: ServerConfig,
    initial: Snapshot,
    loader: SnapshotLoader,
) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("resolving bound address: {e}"))?;
    let state = Arc::new(ServerState::new(config, initial, loader, addr));
    let accept_state = Arc::clone(&state);
    let accept_thread = std::thread::Builder::new()
        .name("p2o-serve-accept".into())
        .spawn(move || accept_loop(listener, accept_state))
        .map_err(|e| format!("spawning accept thread: {e}"))?;
    Ok(ServerHandle {
        addr,
        state,
        accept_thread: Some(accept_thread),
        finished: false,
    })
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    // The loop's own reader stamps each 503 with the served snapshot, so a
    // swap costs it at most one lock, as it costs each connection.
    let mut reader = state.cell.reader();
    let mut head = String::new();
    loop {
        let conn = listener.accept();
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok((mut stream, _)) = conn else { continue };
        if state.active.load(Ordering::Relaxed) >= state.max_connections {
            // Overflow reject: no connection thread, but still a response
            // — recorded like any other so 503 latencies are visible.
            let accepted = Instant::now();
            let _ = reject(
                &state,
                &mut stream,
                &mut reader,
                &mut head,
                503,
                OVERFLOW_BODY,
                accepted,
            );
            continue;
        }
        state.active.fetch_add(1, Ordering::Relaxed);
        state.metrics.connections.incr();
        let conn_state = Arc::clone(&state);
        let _ = std::thread::Builder::new()
            .name("p2o-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &conn_state);
                conn_state.active.fetch_sub(1, Ordering::Relaxed);
            });
    }
}

/// The buffers one connection keeps across its requests. Each response's
/// head and body are written into them, so a steady stream of requests
/// allocates nothing.
#[derive(Default)]
struct Buffers {
    head: String,
    body: String,
    /// The percent-decoded query of a `/prefix/` target.
    query: Vec<u8>,
}

impl Buffers {
    /// Gives back the body capacity above [`KEPT_CAPACITY`]; called once
    /// each response is written.
    fn release(&mut self) {
        if self.body.capacity() > KEPT_CAPACITY {
            self.body.clear();
            self.body.shrink_to(KEPT_CAPACITY);
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut parser = RequestParser::new();
    let mut reader = state.cell.reader();
    let mut buffers = Buffers::default();
    let mut chunk = [0u8; 16 * 1024];
    let mut draining = false;
    // The read timeout last set on the socket: it is set again only when
    // the wanted one differs.
    let mut timeout = None;
    let mut last_read = Instant::now();
    let mut idle_deadline = last_read + state.read_timeout;
    // When the read that delivered the first byte of the buffered request
    // returned; `None` while nothing is buffered.
    let mut first_byte: Option<Instant> = None;
    loop {
        // Drain any already-buffered pipelined requests before reading.
        loop {
            match parser.poll() {
                Ok(Some(request)) => {
                    let started = first_byte.unwrap_or(last_read);
                    // Whatever is buffered behind it came with the last read.
                    first_byte = Some(last_read);
                    let keep_alive = request.keep_alive;
                    let quit = respond(
                        state,
                        &mut stream,
                        &mut reader,
                        &mut buffers,
                        &request,
                        started,
                    )?;
                    parser.release();
                    if quit {
                        initiate_drain(state);
                    }
                    if !keep_alive {
                        return Ok(());
                    }
                }
                Ok(None) => {
                    if parser.buffered() == 0 {
                        first_byte = None;
                    }
                    break;
                }
                Err(bad) => {
                    let Buffers { head, body, .. } = &mut buffers;
                    body.clear();
                    write_error(body, format_args!("{bad}"));
                    let started = first_byte.unwrap_or(last_read);
                    let body = body.as_bytes();
                    return reject(state, &mut stream, &mut reader, head, 400, body, started);
                }
            }
        }
        let wanted = if state.stop.load(Ordering::Acquire) {
            if draining {
                // The one grace read has been consumed and everything it
                // completed was answered above; whatever was not fully
                // received was never accepted. Close — a continuously
                // sending client must not be able to extend the drain
                // forever.
                return Ok(());
            }
            // A drain has started: give this connection one short grace
            // read so requests already on the wire still get answered,
            // then close.
            draining = true;
            DRAIN_GRACE
        } else {
            // Park for the next request in short ticks so a drain started
            // while this connection is idle is noticed within STOP_POLL,
            // not after the full idle timeout (which would stall the
            // drain).
            let now = Instant::now();
            if now >= idle_deadline {
                return Ok(()); // idle timeout: close the keep-alive connection
            }
            STOP_POLL.min(idle_deadline - now)
        };
        if timeout != Some(wanted) {
            stream.set_read_timeout(Some(wanted))?;
            timeout = Some(wanted);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => {
                last_read = Instant::now();
                first_byte.get_or_insert(last_read);
                parser.feed(&chunk[..n]);
                idle_deadline = last_read + state.read_timeout;
            }
            Err(e)
                if !draining
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {} // tick expired: loop to re-check the stop flag
            // A drain's grace read timed out, or a reset: close.
            Err(_) => return Ok(()),
        }
    }
}

/// Starts a graceful drain from inside a request (`POST /quit`): stop
/// accepting and wake the blocked accept call. The CLI's `join()` (or a
/// harness's `shutdown()`) then finishes the drain.
fn initiate_drain(state: &Arc<ServerState>) {
    state.stop.store(true, Ordering::Release);
    let _ = TcpStream::connect(state.addr);
}

/// Appends the `{"error":…}` body line, its message escaped as it is
/// written.
fn write_error(out: &mut String, message: fmt::Arguments<'_>) {
    out.push_str("{\"error\":\"");
    let _ = Escaper::new(out).write_fmt(message);
    out.push_str("\"}\n");
}

/// Nanoseconds since `started`.
fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// Writes one response: its head, stamped with `stamp`, into `head`, then
/// the head and `parts` in one vectored write.
fn send(
    stream: &mut impl io::Write,
    head: &mut String,
    status: u16,
    content_type: &str,
    stamp: [(&str, http::HeaderValue<'_>); 3],
    parts: [&[u8]; 2],
) -> io::Result<()> {
    head.clear();
    let content_length = parts.iter().map(|p| p.len()).sum();
    http::write_head(head, status, content_type, content_length, stamp);
    let [body, tail] = parts;
    let mut slices = [
        IoSlice::new(head.as_bytes()),
        IoSlice::new(body),
        IoSlice::new(tail),
    ];
    http::write_parts(stream, &mut slices)
}

/// Answers an early reject — a parse-error 400 or a connection-limit 503
/// — stamped with the served snapshot like any response, counted and
/// recorded under the `other` endpoint. The connection closes after it.
fn reject(
    state: &ServerState,
    stream: &mut impl io::Write,
    reader: &mut SnapshotReader,
    head: &mut String,
    status: u16,
    body: &[u8],
    started: Instant,
) -> io::Result<()> {
    state.metrics.requests.incr();
    let id = state.next_request_id();
    let snap = reader.get();
    let endpoint_idx = endpoint_index("other");
    count_response(state, endpoint_idx, status);
    let stamp = http::stamp(snap.serial, &snap.digest, id);
    let written = send(stream, head, status, "application/json", stamp, [body, &[]]);
    record_response(
        state,
        &RequestOutcome {
            id,
            endpoint_idx,
            method: "-",
            target: "-",
            status,
            latency_ns: elapsed_ns(started),
            serial: snap.serial,
            snapshot: &snap.digest,
            family: '-',
        },
    );
    written
}

/// What `route` hands back to `respond`, beyond the body it wrote.
struct Routed<'s> {
    status: u16,
    content_type: &'static str,
    /// Sent after the body: `/dump`'s cached JSONL, borrowed from the
    /// pinned snapshot.
    tail: &'s str,
    /// `POST /quit` was accepted: initiate the drain after writing.
    quit: bool,
}

impl Routed<'_> {
    fn new(status: u16, content_type: &'static str) -> Routed<'static> {
        Routed {
            status,
            content_type,
            tail: "",
            quit: false,
        }
    }
}

/// Answers one request: routes it into the connection's body buffer,
/// then sends the stamped head, the body and any tail in one write.
///
/// The snapshot `Arc` is cloned exactly once per request and every byte of
/// the response — body, tail and the `X-P2O-Serial` / `X-P2O-Snapshot`
/// stamp — is derived from it and held until the last byte is written, so
/// a concurrent swap can never produce a response mixing two snapshots.
/// Every route is counted through [`count_response`] before the write and
/// recorded through [`record_response`] after it.
///
/// Returns whether a drain must start.
fn respond(
    state: &Arc<ServerState>,
    stream: &mut impl io::Write,
    reader: &mut SnapshotReader,
    buffers: &mut Buffers,
    request: &Request<'_>,
    started: Instant,
) -> io::Result<bool> {
    state.metrics.requests.incr();
    let id = state.next_request_id();
    let snap = Arc::clone(reader.get());
    let path = request.path();
    let (endpoint_idx, handler) = match_route(request.method, path);
    let Buffers { head, body, query } = buffers;
    body.clear();
    // Decoded once, for the lookup and for the address family.
    let cidr = path
        .strip_prefix("/prefix/")
        .map(|rest| percent_decode(rest, query));
    // Span capture is two relaxed loads when no tracer is attached; the
    // per-request thread log only exists during a live capture window.
    let tlog = if state.obs.tracing_attached() {
        state.obs.thread_log("serve.conn")
    } else {
        None
    };
    let routed = {
        let span = tlog.as_ref().map(|log| {
            let span = log.span("serve.request");
            span.arg("id", id);
            span.arg("endpoint", ENDPOINTS[endpoint_idx]);
            span.arg("target", request.target);
            span
        });
        let routed = route(state, &snap, request, handler, cidr.as_deref(), body);
        if let Some(span) = &span {
            span.arg("status", routed.status);
        }
        routed
    };
    count_response(state, endpoint_idx, routed.status);
    let stamp = http::stamp(snap.serial, &snap.digest, id);
    let parts = [body.as_bytes(), routed.tail.as_bytes()];
    let written = send(
        stream,
        head,
        routed.status,
        routed.content_type,
        stamp,
        parts,
    );
    record_response(
        state,
        &RequestOutcome {
            id,
            endpoint_idx,
            method: request.method,
            target: request.target,
            status: routed.status,
            latency_ns: elapsed_ns(started),
            serial: snap.serial,
            snapshot: &snap.digest,
            family: cidr.as_deref().map_or('-', address_family),
        },
    );
    buffers.release();
    written.map(|()| routed.quit)
}

/// Address family of a `/prefix/<cidr>` query: `'4'`, `'6'`, or `'-'` for
/// an unparseable one.
fn address_family(cidr: &str) -> char {
    if cidr.contains(':') {
        '6'
    } else if cidr.contains('.') {
        '4'
    } else {
        '-'
    }
}

/// Runs the request's handler, writing its body into `out`. `cidr` is the
/// decoded query of a `/prefix/` target.
fn route<'s>(
    state: &Arc<ServerState>,
    snap: &'s Arc<Snapshot>,
    request: &Request<'_>,
    handler: Handler,
    cidr: Option<&str>,
    out: &mut String,
) -> Routed<'s> {
    let (status, content_type) = match handler {
        Handler::Lookup => match cidr {
            Some(cidr) if !cidr.is_empty() => lookup_one(state, snap, cidr, out),
            _ => {
                write_error(out, format_args!("usage: GET /prefix/<cidr>"));
                (400, "application/json")
            }
        },
        Handler::Batch => batch(state, snap, request.body, out),
        Handler::Dump => return dump(state, snap, request.query_param("serial"), out),
        Handler::Metrics => {
            out.push_str(&promexpo::to_prometheus(&state.obs.report()));
            windowed_exposition(state, out);
            snapshot_exposition(&state.metrics.gauges, snap, out);
            (200, "text/plain; version=0.0.4")
        }
        Handler::Health => health(state, snap, out),
        Handler::Status => status_page(state, snap, out),
        Handler::DebugRequests => debug_requests(state, request.query_param("n"), out),
        Handler::DebugTrace => debug_trace(state, request.query_param("ms"), out),
        Handler::Reload => reload(state, request.body, out),
        Handler::Quit => return quit(state, out),
        Handler::NotAllowed => {
            let (method, path) = (request.method, request.path());
            write_error(out, format_args!("method {method} not allowed on {path}"));
            (405, "application/json")
        }
        Handler::NotFound => {
            let path = request.path();
            write_error(out, format_args!("no such route {path}"));
            (404, "application/json")
        }
    };
    Routed::new(status, content_type)
}

/// `GET /health`: liveness plus enough to tell whether the server is
/// actually doing work — uptime and the 60 s request rate across all
/// endpoints.
fn health(state: &Arc<ServerState>, snap: &Arc<Snapshot>, out: &mut String) -> (u16, &'static str) {
    let (count_60s, rate_60s) = state
        .metrics
        .endpoints
        .iter()
        .map(|s| s.windowed.window(60))
        .fold((0u64, 0f64), |(c, r), w| (c + w.count, r + w.rate_per_sec));
    let mut o = Json::object();
    o.set("status", "ok");
    o.set("serial", snap.serial);
    o.set("snapshot", snap.digest.clone());
    o.set("prefixes", snap.len() as u64);
    o.set("frozen", snap.from_artifact());
    o.set("exceptions", snap.exception_count());
    o.set("rov", rov_json(snap));
    o.set("uptime_seconds", state.started.elapsed().as_secs());
    o.set("requests_60s", count_60s);
    o.set("rate_60s", round3(rate_60s));
    let _ = writeln!(out, "{o}");
    (200, "application/json")
}

/// The `{valid, invalid, not_found}` ROV tally object `/health` and
/// `/status` embed.
fn rov_json(snap: &Arc<Snapshot>) -> Json {
    let [valid, invalid, not_found] = snap.rov_tallies();
    let mut o = Json::object();
    o.set("valid", valid);
    o.set("invalid", invalid);
    o.set("not_found", not_found);
    o
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// `d` in milliseconds, to the microsecond.
fn millis(d: Duration) -> f64 {
    round3(d.as_secs_f64() * 1000.0)
}

/// `GET /status`: the human/ops twin of `/metrics` — uptime, snapshot
/// identity, per-endpoint windowed percentiles and rates, the connection
/// gauge, and flight-recorder occupancy.
fn status_page(
    state: &Arc<ServerState>,
    snap: &Arc<Snapshot>,
    out: &mut String,
) -> (u16, &'static str) {
    let mut o = Json::object();
    o.set("status", "ok");
    o.set("uptime_seconds", state.started.elapsed().as_secs());
    o.set("rss_bytes", process_rss_bytes());
    let mut snapshot = Json::object();
    snapshot.set("serial", snap.serial);
    snapshot.set("digest", snap.digest.clone());
    snapshot.set("generation", state.cell.generation());
    snapshot.set(
        "backing",
        if snap.from_artifact() {
            "artifact"
        } else {
            "memory"
        },
    );
    snapshot.set("prefixes", snap.len() as u64);
    snapshot.set("exceptions", snap.exception_count());
    snapshot.set("rov", rov_json(snap));
    snapshot.set("dir", snap.dir.display().to_string());
    snapshot.set("load_ms", millis(snap.timing.load));
    snapshot.set("integrity_ms", millis(snap.timing.integrity));
    o.set("snapshot", snapshot);
    let mut conns = Json::object();
    conns.set("active", state.active.load(Ordering::Relaxed) as u64);
    conns.set("total", state.metrics.connections.get());
    conns.set("max", state.max_connections as u64);
    o.set("connections", conns);
    o.set("requests_total", state.request_ids.load(Ordering::Relaxed));
    let mut endpoints = Json::object();
    for stat in &state.metrics.endpoints {
        let mut ep = Json::object();
        ep.set("requests_total", stat.requests.get());
        let mut windows = Json::object();
        for &(label, secs) in WINDOWS {
            let w = stat.windowed.window(secs);
            let mut wo = Json::object();
            wo.set("count", w.count);
            wo.set("rate_per_sec", round3(w.rate_per_sec));
            wo.set("p50_ns", w.quantile(0.50));
            wo.set("p90_ns", w.quantile(0.90));
            wo.set("p99_ns", w.quantile(0.99));
            wo.set("max_ns", w.max);
            windows.set(label, wo);
        }
        ep.set("windows", windows);
        endpoints.set(stat.name, ep);
    }
    o.set("endpoints", endpoints);
    let mut flight = Json::object();
    flight.set("capacity", state.flight.capacity() as u64);
    flight.set("occupied", state.flight.occupied() as u64);
    flight.set("recorded", state.flight.recorded());
    flight.set("slowest_tracked", state.flight.slowest().len() as u64);
    o.set("flight_recorder", flight);
    out.push_str(&o.to_string_pretty());
    out.push('\n');
    (200, "application/json")
}

/// `GET /debug/requests?n=K`: the flight-recorder rings as JSONL — the
/// `n` most recent records (default 50), then the slowest leaderboard.
/// Draining does not stop recording.
fn debug_requests(
    state: &Arc<ServerState>,
    n: Option<&str>,
    out: &mut String,
) -> (u16, &'static str) {
    let n = match n {
        None => DEBUG_REQUESTS_DEFAULT,
        Some(raw) => match raw.parse::<usize>() {
            Ok(v) => v.min(state.flight.capacity()),
            Err(_) => {
                write_error(out, format_args!("bad n {raw:?}"));
                return (400, "application/json");
            }
        },
    };
    for rec in state.flight.recent(n) {
        let mut o = rec.to_json();
        o.set("kind", "recent");
        let _ = writeln!(out, "{o}");
    }
    for rec in state.flight.slowest() {
        let mut o = rec.to_json();
        o.set("kind", "slowest");
        let _ = writeln!(out, "{o}");
    }
    (200, "application/jsonl")
}

/// `GET /debug/trace?ms=N`: attach a fresh tracer, let the serve path
/// record spans for `N` milliseconds (default 100, capped), then detach
/// and return the capture as a loadable Chrome trace. One capture at a
/// time; a concurrent request gets 409.
fn debug_trace(
    state: &Arc<ServerState>,
    ms: Option<&str>,
    out: &mut String,
) -> (u16, &'static str) {
    let ms = match ms {
        None => 100,
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => v.min(TRACE_MS_CAP),
            Err(_) => {
                write_error(out, format_args!("bad ms {raw:?}"));
                return (400, "application/json");
            }
        },
    };
    if state
        .trace_gate
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        write_error(out, format_args!("a trace capture is already running"));
        return (409, "application/json");
    }
    state.obs.attach_tracer();
    std::thread::sleep(Duration::from_millis(ms));
    let tracer = state.obs.detach_tracer();
    state.trace_gate.store(false, Ordering::Release);
    let trace = tracer.map(|t| t.drain()).unwrap_or_default();
    out.push_str(&trace.to_chrome_json_string());
    (200, "application/json")
}

/// `POST /quit`: graceful drain, gated behind `allow_quit`.
fn quit(state: &Arc<ServerState>, out: &mut String) -> Routed<'static> {
    if !state.allow_quit {
        write_error(
            out,
            format_args!("quit is disabled (start the server with --allow-quit)"),
        );
        return Routed::new(403, "application/json");
    }
    let mut o = Json::object();
    o.set("status", "draining");
    o.set("requests_served", state.request_ids.load(Ordering::Relaxed));
    let _ = writeln!(out, "{o}");
    Routed {
        quit: true,
        ..Routed::new(200, "application/json")
    }
}

/// Appends the windowed gauges to `/metrics` after the registry
/// exposition: per-endpoint latency quantiles and request rates for each
/// window, plus uptime and the connection gauge. Rendered fresh per
/// scrape (gauges over rolling windows cannot live in the cumulative
/// registry).
fn windowed_exposition(state: &Arc<ServerState>, out: &mut String) {
    let gauges = &state.metrics.gauges;
    for (family, value) in [
        (&gauges.uptime, state.started.elapsed().as_secs()),
        (
            &gauges.connections_active,
            state.active.load(Ordering::Relaxed) as u64,
        ),
        (&gauges.rss, process_rss_bytes()),
    ] {
        out.push_str(&family.header);
        let _ = writeln!(out, "{} {value}", family.name);
    }
    out.push_str(&gauges.window_latency.header);
    let mut rates = gauges.window_rate.header.clone();
    for stat in &state.metrics.endpoints {
        for &(label, secs) in WINDOWS {
            let w = stat.windowed.window(secs);
            for (q, v) in [
                ("p50", w.quantile(0.50)),
                ("p90", w.quantile(0.90)),
                ("p99", w.quantile(0.99)),
                ("max", w.max),
            ] {
                let _ = writeln!(
                    out,
                    "{}{{endpoint=\"{}\",window=\"{label}\",quantile=\"{q}\"}} {v}",
                    gauges.window_latency.name, stat.name
                );
            }
            let _ = writeln!(
                rates,
                "{}{{endpoint=\"{}\",window=\"{label}\"}} {:.3}",
                gauges.window_rate.name, stat.name, w.rate_per_sec
            );
        }
    }
    out.push_str(&rates);
}

/// Appends the gauges describing the currently served snapshot: ROV
/// state tallies and the local-exception override count. Rendered per
/// scrape from the snapshot `Arc` the request pinned, so the series always
/// describe one consistent snapshot (never a mid-reload mix).
fn snapshot_exposition(gauges: &Gauges, snap: &Arc<Snapshot>, out: &mut String) {
    let [valid, invalid, not_found] = snap.rov_tallies();
    out.push_str(&gauges.snapshot_rov.header);
    for (label, v) in [
        ("valid", valid),
        ("invalid", invalid),
        ("not_found", not_found),
    ] {
        let _ = writeln!(out, "{}{{state=\"{label}\"}} {v}", gauges.snapshot_rov.name);
    }
    out.push_str(&gauges.snapshot_exceptions.header);
    let _ = writeln!(
        out,
        "{} {}",
        gauges.snapshot_exceptions.name,
        snap.exception_count()
    );
}

/// Undoes the `%XX` escapes a URL-safe client may apply to `/` in CIDRs,
/// decoding into `out`; the text borrows it unless the decoded bytes are
/// not UTF-8.
fn percent_decode<'o>(s: &str, out: &'o mut Vec<u8>) -> Cow<'o, str> {
    let bytes = s.as_bytes();
    out.clear();
    let mut i = 0;
    // Only two ASCII hex digits make an escape: `u8::from_str_radix`
    // would also take a sign, decoding `%+F` to 0x0F.
    let hex = |b: u8| (b as char).to_digit(16);
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                out.push((hi << 4 | lo) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(out)
}

fn lookup_one(
    state: &Arc<ServerState>,
    snap: &Arc<Snapshot>,
    cidr: &str,
    out: &mut String,
) -> (u16, &'static str) {
    let started = Instant::now();
    let status = match cidr.parse::<Prefix>() {
        Err(e) => {
            write_error(out, format_args!("{cidr:?}: {e}"));
            400
        }
        Ok(prefix) => match snap.lookup(&prefix) {
            None => {
                let message = "no covering routed prefix in the snapshot";
                write_error(out, format_args!("{prefix}: {message}"));
                404
            }
            Some(answer) => {
                write_line(out, &answer);
                200
            }
        },
    };
    state.metrics.lookup_ns.record(elapsed_ns(started));
    (status, "application/json")
}

/// Appends `answer` and its newline to `out`. (Writes into a `String`
/// cannot fail, here and in [`write_line_error`].)
fn write_line(out: &mut String, answer: &Answer<'_>) {
    let _ = answer.write_to(out);
    out.push('\n');
}

/// `POST /batch`: one CIDR per line in, one JSON object per line out, in
/// input order. Per-line failures (`error` objects) don't fail the batch.
/// Every line is written straight into the one response body.
///
/// The lines are answered in groups of up to [`BATCH_GROUP`]: each group
/// is parsed, matched by [`Snapshot::lookup_many`] (which also reads its
/// answers ahead), and only then written, line by line. Each line's
/// `serve.lookup_ns` sample is its even share of its group's parse and
/// match time plus its own write.
fn batch(
    state: &Arc<ServerState>,
    snap: &Arc<Snapshot>,
    body: &[u8],
    out: &mut String,
) -> (u16, &'static str) {
    let Ok(text) = std::str::from_utf8(body) else {
        write_error(out, format_args!("batch body is not UTF-8"));
        return (400, "application/json");
    };
    let mut lines = text.lines().map(str::trim).filter(|line| !line.is_empty());
    let mut queries = [""; BATCH_GROUP];
    let mut parsed: [Result<Prefix, ParseError>; BATCH_GROUP] =
        std::array::from_fn(|_| Ok(Prefix::V4(Prefix4::DEFAULT)));
    let mut prefixes = [Prefix::V4(Prefix4::DEFAULT); BATCH_GROUP];
    let mut answers = [None; BATCH_GROUP];
    let mut count = 0u64;
    loop {
        let started = Instant::now();
        let mut n = 0;
        // The slots come first, so a full group takes no line past it.
        for (slot, line) in queries.iter_mut().zip(lines.by_ref()) {
            *slot = line;
            n += 1;
        }
        if n == 0 {
            break;
        }
        let mut found = 0;
        for (query, result) in queries[..n].iter().zip(&mut parsed) {
            *result = query.parse();
            if let Ok(prefix) = result {
                prefixes[found] = *prefix;
                found += 1;
            }
        }
        snap.lookup_many(&prefixes[..found], &mut answers[..found]);
        let share = elapsed_ns(started) / n as u64;
        let mut answers = answers[..found].iter();
        for (query, result) in queries[..n].iter().zip(&parsed) {
            let started = Instant::now();
            match result {
                Err(e) => write_line_error(out, query, format_args!("{e}")),
                Ok(_) => match answers.next().expect("one slot per parsed line") {
                    Some(answer) => write_line(out, answer),
                    None => write_line_error(
                        out,
                        query,
                        format_args!("no covering routed prefix in the snapshot"),
                    ),
                },
            }
            state.metrics.lookup_ns.record(share + elapsed_ns(started));
        }
        count += n as u64;
    }
    state.metrics.batch_prefixes.add(count);
    (200, "application/jsonl")
}

/// Appends a `/batch` line's `{"query":…,"error":…}` object and newline.
fn write_line_error(out: &mut String, query: &str, error: fmt::Arguments<'_>) {
    out.push_str("{\"query\":");
    let _ = write_escaped(out, query);
    out.push_str(",\"error\":\"");
    let _ = Escaper::new(out).write_fmt(error);
    out.push_str("\"}\n");
}

/// `GET /dump[?serial=N]`: RTR-style reset/delta semantics. Without a
/// serial (or with one outside the retained window) the full table is
/// returned under a `reset` header line; a serial inside the window gets
/// the concatenated per-reload deltas under a `delta` header line.
fn dump<'s>(
    state: &Arc<ServerState>,
    snap: &'s Arc<Snapshot>,
    serial: Option<&str>,
    out: &mut String,
) -> Routed<'s> {
    let requested = match serial {
        None => None,
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => {
                write_error(out, format_args!("bad serial {raw:?}"));
                return Routed::new(400, "application/json");
            }
        },
    };
    if let Some(from) = requested {
        if from == snap.serial {
            let _ = writeln!(out, "{}", dump_header("delta", snap, Some(from)));
            return Routed::new(200, "application/jsonl");
        }
        if from < snap.serial {
            let deltas = state.deltas.lock().expect("delta log poisoned");
            let chain: Vec<&DeltaEntry> = deltas
                .iter()
                .filter(|d| d.from >= from && d.to <= snap.serial)
                .collect();
            let contiguous = chain.first().is_some_and(|d| d.from == from)
                && chain.last().is_some_and(|d| d.to == snap.serial)
                && chain.windows(2).all(|w| w[0].to == w[1].from);
            if contiguous {
                let _ = writeln!(out, "{}", dump_header("delta", snap, Some(from)));
                for d in &chain {
                    out.push_str(&d.ops);
                }
                return Routed::new(200, "application/jsonl");
            }
        }
        // Unknown/future serial or a gap in the retained window: reset.
    }
    let _ = writeln!(out, "{}", dump_header("reset", snap, None));
    Routed {
        tail: snap.jsonl(),
        ..Routed::new(200, "application/jsonl")
    }
}

fn dump_header(kind: &str, snap: &Arc<Snapshot>, from: Option<u64>) -> Json {
    let mut o = Json::object();
    o.set("type", kind);
    if let Some(f) = from {
        o.set("from", f);
    }
    o.set("serial", snap.serial);
    o.set("snapshot", snap.digest.clone());
    o.set("records", snap.len() as u64);
    o
}

/// `POST /reload`: re-verify and load (body = directory path, or the
/// current snapshot's directory when empty), then atomically swap. On any
/// failure the old snapshot keeps serving and the response says why.
fn reload(state: &Arc<ServerState>, body: &[u8], out: &mut String) -> (u16, &'static str) {
    let _gate = state.reload_gate.lock().expect("reload gate poisoned");
    // Serial chaining must start from the snapshot actually being served
    // *now* (another reload may have landed since this request's Arc was
    // pinned), so load through the cell under the gate.
    let old = state.cell.load();
    let dir = match std::str::from_utf8(body) {
        Ok(s) if !s.trim().is_empty() => PathBuf::from(s.trim()),
        _ => old.dir.clone(),
    };
    match (state.loader)(&dir) {
        Err(e) => {
            state.metrics.reload_failures.incr();
            let mut o = Json::object();
            o.set("error", format!("reload rejected: {e}"));
            o.set("serial", old.serial);
            o.set("snapshot", old.digest.clone());
            let _ = writeln!(out, "{o}");
            (503, "application/json")
        }
        Ok(mut snapshot) => {
            snapshot.serial = old.serial + 1;
            let ops = render_delta_ops(old.frozen(), snapshot.frozen());
            let entry = DeltaEntry {
                from: old.serial,
                to: snapshot.serial,
                ops,
            };
            let new = Arc::new(snapshot);
            {
                let mut deltas = state.deltas.lock().expect("delta log poisoned");
                deltas.push(entry);
                let excess = deltas.len().saturating_sub(DELTA_WINDOW);
                if excess > 0 {
                    deltas.drain(..excess);
                }
            }
            state.cell.swap(Arc::clone(&new));
            state.metrics.reloads.incr();
            let mut o = Json::object();
            o.set("status", "reloaded");
            o.set("dir", new.dir.display().to_string());
            o.set("serial", new.serial);
            o.set("snapshot", new.digest.clone());
            o.set("records", new.len() as u64);
            let _ = writeln!(out, "{o}");
            (200, "application/json")
        }
    }
}

/// Renders one reload's delta as `/dump` op lines, compared record by
/// record between the two frozen datasets: `add` for a prefix only the new
/// one maps and `change` for one whose export line differs, each carrying
/// the full new record, then `remove`, with just the prefix, for one only
/// the old one maps. Applied to the old snapshot's `/dump` reset, the ops
/// yield the new one's. Records are written by the export's one writer.
fn render_delta_ops(old: &FrozenDataset, new: &FrozenDataset) -> String {
    let mut out = String::new();
    let (mut record, mut was) = (String::new(), String::new());
    for idx in 0..new.len() as u32 {
        record.clear();
        new.write_export_json(idx, &mut record)
            .expect("String writes succeed");
        let op = match old.exact(&new.record_prefix(idx)) {
            None => "add",
            Some(old_idx) => {
                was.clear();
                old.write_export_json(old_idx, &mut was)
                    .expect("String writes succeed");
                if was == record {
                    continue;
                }
                "change"
            }
        };
        out.push_str("{\"op\":\"");
        out.push_str(op);
        out.push_str("\",\"record\":");
        out.push_str(&record);
        out.push_str("}\n");
    }
    for prefix in (0..old.len() as u32).map(|idx| old.record_prefix(idx)) {
        if new.exact(&prefix).is_none() {
            let mut o = Json::object();
            o.set("op", "remove");
            o.set("prefix", prefix.to_string());
            let _ = writeln!(out, "{o}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::LoadTiming;
    use p2o_synth::{World, WorldConfig};
    use std::collections::HashMap;

    /// The access-log line as a `Json` object of the same fields renders
    /// it: what every line was before it was written straight into the
    /// log's batch.
    fn access_line_json(
        out: &RequestOutcome<'_>,
        endpoint: &str,
        ts_unix_ms: u64,
        uptime_ms: u64,
    ) -> String {
        let mut o = Json::object();
        o.set("type", "access");
        o.set("id", out.id);
        o.set("ts_unix_ms", ts_unix_ms);
        o.set("uptime_ms", uptime_ms);
        o.set("method", out.method);
        o.set("target", out.target);
        o.set("endpoint", endpoint);
        o.set("status", out.status as u64);
        o.set("latency_ns", out.latency_ns);
        o.set("serial", out.serial);
        o.set("snapshot", out.snapshot);
        o.set("family", out.family.to_string());
        o.to_string()
    }

    /// The line written straight into the batch is the `Json` rendering,
    /// over targets and snapshots that need escaping and times and ids
    /// above 2^32.
    #[test]
    fn access_line_is_the_json_rendering() {
        let targets = [
            "/prefix/41.0.0.0%2f13",
            "/prefix/\"quoted\"\\back",
            "/batch\u{1}\t\n\r\u{1f}",
            "/ünïcode/→",
            "",
        ];
        let big = [0, 1, (1 << 32) + 7, 1_760_000_000_000, (1 << 53) - 1];
        for (i, target) in targets.into_iter().enumerate() {
            for (j, &value) in big.iter().enumerate() {
                let out = RequestOutcome {
                    id: value ^ i as u64,
                    endpoint_idx: 0,
                    method: ["GET", "POST"][j % 2],
                    target,
                    status: [200, 400, 404, 503][(i + j) % 4],
                    latency_ns: value,
                    serial: big[(i + j) % big.len()],
                    snapshot: ["12:7B:12", "a\"b"][i % 2],
                    family: ['4', '6', '-', 'é'][(i + j) % 4],
                };
                let mut line = String::new();
                write_access_line(&mut line, &out, "prefix", value, value / 3).unwrap();
                assert_eq!(line, access_line_json(&out, "prefix", value, value / 3));
            }
        }
    }

    /// The tiny seed-7 world, frozen in memory.
    fn tiny_snapshot() -> Snapshot {
        let world = World::generate(WorldConfig::tiny(7));
        let built = world.build_inputs();
        let inputs = prefix2org::PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let dir = PathBuf::from("seed-7");
        let exceptions = prefix2org::ExceptionSet::new();
        Snapshot::freeze_in_memory(dir, 0, &inputs, &exceptions, 1).expect("fresh freeze verifies")
    }

    fn state_with(snapshot: Snapshot, loader: SnapshotLoader) -> Arc<ServerState> {
        let addr = "127.0.0.1:0".parse().expect("address");
        Arc::new(ServerState::new(
            ServerConfig::default(),
            snapshot,
            loader,
            addr,
        ))
    }

    fn tiny_state() -> Arc<ServerState> {
        let loader: SnapshotLoader = Arc::new(|_: &Path| Err("no reload".to_string()));
        state_with(tiny_snapshot(), loader)
    }

    /// Answers `raw`, one whole request, through `buffers` and returns
    /// the bytes sent.
    fn answer(state: &Arc<ServerState>, buffers: &mut Buffers, raw: &[u8]) -> Vec<u8> {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        let request = parser.poll().expect("parses").expect("whole");
        let mut reader = state.cell.reader();
        let mut sent = Vec::new();
        let quit = respond(
            state,
            &mut sent,
            &mut reader,
            buffers,
            &request,
            Instant::now(),
        )
        .expect("writes to a Vec succeed");
        assert!(!quit);
        sent
    }

    /// The body of an HTTP response `answer` sent.
    fn body_of(sent: &[u8]) -> &str {
        let text = std::str::from_utf8(sent).expect("UTF-8 response");
        text.split_once("\r\n\r\n").expect("a head and a body").1
    }

    /// `/batch` bodies of 0, 1, 15, 16, 17, 33 and 1,000 non-blank lines,
    /// across the group boundaries: blank and padded lines, malformed
    /// CIDRs, uncovered v4 and v6 hosts, exact and more-specific queries.
    /// Each answer line equals its query's `/prefix` body, or its per-line
    /// error object, and the batch counter and the `serve.lookup_ns`
    /// sample count grow by the number of non-blank lines.
    #[test]
    fn batch_lines_answer_as_prefix_does_across_group_boundaries() {
        let state = tiny_state();
        let snap = state.cell.load();
        let mut buffers = Buffers::default();
        let mut pool: Vec<String> = [
            "not-a-cidr",
            "10.0.0.1/8",
            "1.2.3.0/33",
            "2001:db8::g/32",
            "127.0.0.1/32",
            "3fff::1/128",
            "10.1.0.0/16",
        ]
        .map(String::from)
        .to_vec();
        for idx in 0..snap.len() as u32 {
            let prefix = snap.frozen().record_prefix(idx);
            pool.push(prefix.to_string());
            pool.push(match prefix {
                Prefix::V4(p) => Prefix4::new_truncated(p.bits() | 1, 32).to_string(),
                Prefix::V6(p) => p2o_net::Prefix6::new_truncated(p.bits() | 1, 128).to_string(),
            });
        }
        // Each distinct query's expected line, from `/prefix`.
        let mut expected: HashMap<String, String> = HashMap::new();
        let (mut found, mut uncovered_v4, mut uncovered_v6, mut malformed) = (0, 0, 0, 0);
        for query in &pool {
            let target = format!("/prefix/{}", query.replace('/', "%2f"));
            let sent = answer(
                &state,
                &mut buffers,
                format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes(),
            );
            let line = match query.parse::<Prefix>() {
                _ if sent.starts_with(b"HTTP/1.1 200 ") => {
                    found += 1;
                    body_of(&sent).to_string()
                }
                Err(e) => {
                    malformed += 1;
                    format!(
                        "{{\"query\":{},\"error\":{}}}\n",
                        Json::from(query.as_str()),
                        Json::from(e.to_string())
                    )
                }
                Ok(prefix) => {
                    assert!(sent.starts_with(b"HTTP/1.1 404 "));
                    match prefix {
                        Prefix::V4(_) => uncovered_v4 += 1,
                        Prefix::V6(_) => uncovered_v6 += 1,
                    }
                    format!("{{\"query\":{},\"error\":\"no covering routed prefix in the snapshot\"}}\n", Json::from(query.as_str()))
                }
            };
            expected.insert(query.clone(), line);
        }
        assert!(found > 0 && uncovered_v4 > 0 && uncovered_v6 > 0 && malformed == 4);
        let mut next = 0usize;
        for lines in [0, 1, 15, 16, 17, 33, 1000] {
            let mut body = String::new();
            let mut want = String::new();
            for k in 0..lines {
                // A blank, padded or CRLF-ended line now and then.
                match k % 7 {
                    0 => body.push_str("\n   \n"),
                    3 => body.push_str(" \t"),
                    _ => {}
                }
                next = (next * 31 + 17) % pool.len();
                let query = &pool[next];
                body.push_str(query);
                body.push_str(if k % 5 == 2 { "  \r\n" } else { "\n" });
                want.push_str(&expected[query]);
            }
            let batch_prefixes = state.metrics.batch_prefixes.get();
            let samples = state.metrics.lookup_ns.count();
            let raw = format!(
                "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let sent = answer(&state, &mut buffers, raw.as_bytes());
            assert!(sent.starts_with(b"HTTP/1.1 200 "), "{lines} lines");
            assert_eq!(body_of(&sent), want, "{lines} lines");
            assert_eq!(
                state.metrics.batch_prefixes.get() - batch_prefixes,
                lines as u64
            );
            assert_eq!(state.metrics.lookup_ns.count() - samples, lines as u64);
        }
    }

    /// Requests `respond` has counted under the endpoint `name`.
    fn counted(state: &ServerState, name: &str) -> u64 {
        let idx = ENDPOINTS.iter().position(|&e| e == name).expect("known");
        state.metrics.endpoints[idx].requests.get()
    }

    #[test]
    fn only_prefix_routes_count_under_the_prefix_endpoint() {
        let state = tiny_state();
        let mut buffers = Buffers::default();
        for (target, status, endpoint) in [
            ("/prefixes", "404", "other"),
            ("/prefix/10.0.0.0%2f8", "404", "prefix"),
            ("/prefix", "400", "prefix"),
        ] {
            let counts = || (counted(&state, "prefix"), counted(&state, "other"));
            let before = counts();
            let sent = answer(
                &state,
                &mut buffers,
                format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes(),
            );
            let status_line = format!("HTTP/1.1 {status} ");
            assert!(sent.starts_with(status_line.as_bytes()), "{target}");
            let after = counts();
            let want = if endpoint == "prefix" { (1, 0) } else { (0, 1) };
            assert_eq!((after.0 - before.0, after.1 - before.1), want, "{target}");
        }
    }

    /// The bare `/prefix` routes: both `GET` forms answer the usage text,
    /// and another method is a 405 like on any `/prefix/<cidr>`.
    #[test]
    fn bare_prefix_routes_answer_the_usage_text_or_a_405() {
        let state = tiny_state();
        let digest = state.cell.load().digest.clone();
        let mut buffers = Buffers::default();
        let usage = "{\"error\":\"usage: GET /prefix/<cidr>\"}\n";
        let not_allowed = "{\"error\":\"method POST not allowed on /prefix\"}\n";
        for (id, (request, status, body)) in [
            ("GET /prefix", "400 Bad Request", usage),
            ("GET /prefix/", "400 Bad Request", usage),
            ("POST /prefix", "405 Method Not Allowed", not_allowed),
        ]
        .into_iter()
        .enumerate()
        {
            let sent = answer(
                &state,
                &mut buffers,
                format!("{request} HTTP/1.1\r\n\r\n").as_bytes(),
            );
            let want = format!(
                "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nX-P2O-Serial: 0\r\nX-P2O-Snapshot: {digest}\r\n\
                 X-P2O-Request-Id: {}\r\n\r\n{body}",
                body.len(),
                id + 1
            );
            assert_eq!(String::from_utf8_lossy(&sent), want, "{request}");
        }
    }

    /// Each method of the grid against every route and its near misses,
    /// through `respond`: the status, the body of every 400, 404 and 405,
    /// and the one `serve.requests.<endpoint>` counter that moved.
    #[test]
    fn route_grid_pins_status_body_and_endpoint() {
        let state = tiny_state();
        let mut buffers = Buffers::default();
        let usage = "{\"error\":\"usage: GET /prefix/<cidr>\"}\n";
        let uncovered = "{\"error\":\"10.0.0.0/8: no covering routed prefix in the snapshot\"}\n";
        // (target, endpoint, the one method a route takes on the path with
        // its status and any 4xx body), or no method for a path no route
        // takes.
        let grid = [
            (
                "/prefix/10.0.0.0%2f8",
                "prefix",
                Some(("GET", 404, Some(uncovered))),
            ),
            ("/prefix", "prefix", Some(("GET", 400, Some(usage)))),
            ("/prefix/", "prefix", Some(("GET", 400, Some(usage)))),
            ("/batch", "batch", Some(("POST", 200, None))),
            ("/dump", "dump", Some(("GET", 200, None))),
            ("/metrics", "metrics", Some(("GET", 200, None))),
            ("/health", "health", Some(("GET", 200, None))),
            ("/status", "status", Some(("GET", 200, None))),
            (
                "/debug/requests",
                "debug.requests",
                Some(("GET", 200, None)),
            ),
            ("/debug/trace?ms=1", "debug.trace", Some(("GET", 200, None))),
            ("/reload", "reload", Some(("POST", 503, None))),
            ("/quit", "quit", Some(("POST", 403, None))),
            ("/prefixes", "other", None),
            ("/batch/", "other", None),
            ("/nope", "other", None),
        ];
        for method in ["GET", "POST", "PUT", "HEAD"] {
            for (target, endpoint, taken) in grid {
                let path = target.split('?').next().expect("a path");
                let (status, body) = match taken {
                    Some((taker, status, body)) if taker == method => {
                        (status, body.map(String::from))
                    }
                    Some(_) => (
                        405,
                        Some(format!(
                            "{{\"error\":\"method {method} not allowed on {path}\"}}\n"
                        )),
                    ),
                    None => (
                        404,
                        Some(format!("{{\"error\":\"no such route {path}\"}}\n")),
                    ),
                };
                let counts =
                    || -> Vec<u64> { ENDPOINTS.iter().map(|name| counted(&state, name)).collect() };
                let before = counts();
                let raw = format!("{method} {target} HTTP/1.1\r\n\r\n");
                let sent = answer(&state, &mut buffers, raw.as_bytes());
                let cell = format!("{method} {target}");
                let status_line = format!("HTTP/1.1 {status} ");
                assert!(sent.starts_with(status_line.as_bytes()), "{cell}");
                if let Some(body) = body {
                    assert_eq!(body_of(&sent), body, "{cell}");
                }
                let after = counts();
                let moved: Vec<&str> = (0..ENDPOINTS.len())
                    .filter(|&i| after[i] != before[i])
                    .map(|i| ENDPOINTS[i])
                    .collect();
                assert_eq!(moved, [endpoint], "{cell}");
                assert_eq!(after.iter().sum::<u64>(), before.iter().sum::<u64>() + 1);
            }
        }
    }

    /// `/status` reports how long the served snapshot's load took and how
    /// much of it was the integrity pass, and a `/reload` replaces both
    /// with the new load's.
    #[test]
    fn status_reports_the_served_snapshots_load_timing() {
        let timed = |load_us, integrity_us| {
            let mut snapshot = tiny_snapshot();
            snapshot.timing = LoadTiming {
                load: Duration::from_micros(load_us),
                integrity: Duration::from_micros(integrity_us),
            };
            snapshot
        };
        let loader: SnapshotLoader = Arc::new(move |_: &Path| Ok(timed(7_500, 2_250)));
        let state = state_with(timed(3_000, 1_000), loader);
        let mut buffers = Buffers::default();
        let mut timing = || {
            let sent = answer(&state, &mut buffers, b"GET /status HTTP/1.1\r\n\r\n");
            let status = Json::parse(body_of(&sent)).expect("/status parses");
            let snapshot = status.get("snapshot").expect("a snapshot object");
            let field = |name| snapshot.get(name).and_then(Json::as_f64);
            (field("serial"), field("load_ms"), field("integrity_ms"))
        };
        assert_eq!(timing(), (Some(0.0), Some(3.0), Some(1.0)));
        let reloaded = answer(
            &state,
            &mut Buffers::default(),
            b"POST /reload HTTP/1.1\r\n\r\n",
        );
        assert!(reloaded.starts_with(b"HTTP/1.1 200 "));
        assert_eq!(timing(), (Some(1.0), Some(7.5), Some(2.25)));
    }

    #[test]
    fn percent_decode_takes_only_two_hex_digits() {
        let mut out = Vec::new();
        for (raw, want) in [
            ("10.0.0.0%2f8", "10.0.0.0/8"),
            ("10.0.0.0%2F8", "10.0.0.0/8"),
            ("10.0.0.0%+F24", "10.0.0.0%+F24"),
            ("10.0.0.0%zz8", "10.0.0.0%zz8"),
            ("10.0.0.0%2", "10.0.0.0%2"),
            ("10.0.0.0%", "10.0.0.0%"),
        ] {
            assert_eq!(percent_decode(raw, &mut out), want, "{raw}");
        }
        // The 400 quotes what the client sent, not a decoded control byte.
        let state = tiny_state();
        let sent = answer(
            &state,
            &mut Buffers::default(),
            b"GET /prefix/10.0.0.0%+F24 HTTP/1.1\r\n\r\n",
        );
        assert!(sent.starts_with(b"HTTP/1.1 400 "));
        let body = body_of(&sent);
        assert!(body.contains("10.0.0.0%+F24"), "{body}");
    }

    #[test]
    fn a_response_above_the_kept_capacity_gives_the_excess_back() {
        let state = tiny_state();
        let prefix = state.cell.load().frozen().record_prefix(0).to_string();
        let mut buffers = Buffers::default();
        let target = format!("/prefix/{}", prefix.replace('/', "%2f"));
        let one = answer(
            &state,
            &mut buffers,
            format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes(),
        );
        let kept = buffers.body.capacity();
        assert!(kept > 0 && kept <= KEPT_CAPACITY);
        // A /batch whose answer outgrows the kept capacity.
        let lines = KEPT_CAPACITY / (one.len() / 2) + 1;
        let body = format!("{prefix}\n").repeat(lines);
        let raw = format!(
            "POST /batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let sent = answer(&state, &mut buffers, raw.as_bytes());
        assert!(sent.len() > KEPT_CAPACITY, "{} bytes sent", sent.len());
        assert!(sent.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(
            buffers.body.capacity() <= KEPT_CAPACITY,
            "kept {} bytes",
            buffers.body.capacity()
        );
        // Below the constant, the buffer keeps its capacity for the next
        // response, and the next response is written whole.
        let again = answer(
            &state,
            &mut buffers,
            format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes(),
        );
        let capacity = buffers.body.capacity();
        let next = answer(
            &state,
            &mut buffers,
            format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes(),
        );
        assert_eq!(buffers.body.capacity(), capacity);
        assert_eq!(again.len(), next.len());
    }
}
