#![warn(missing_docs)]

//! Pipeline observability for the Prefix2Org workspace.
//!
//! The pipeline (WHOIS → radix delegation tree → BGP route table → DO/DC
//! resolution → clustering) used to run as an opaque batch job. This crate
//! gives every stage cheap, structured introspection without any tracing
//! dependency:
//!
//! - [`Counter`] — a relaxed `AtomicU64`; one add per event, lock-free on
//!   the hot path and safe to bump from worker threads.
//! - [`Histogram`] — power-of-two bucketed value distribution (latencies,
//!   record sizes) with count/sum/min/max, all atomics.
//! - [`StageTimer`] — RAII wall-clock timer; attach an item count and the
//!   report derives a rate (records/s, entries/s).
//! - [`Obs`] — the registry handle. Cloning is cheap (`Arc`); every clone
//!   feeds the same registry, so a pipeline can hand one to each substrate.
//! - [`RunReport`] — an ordered snapshot of everything above,
//!   serializable to JSON (via [`p2o_util::json`]) for `--report` and
//!   renderable as an aligned summary table for stderr.
//!
//! Counters and histograms are deterministic for a deterministic input,
//! which turns the report into a regression-detection surface: the
//! golden-snapshot test pins exact counter values for a fixed-seed world.
//! Wall-clock fields are the only nondeterministic part.
//!
//! Six companion modules extend the registry:
//!
//! - [`catalogue`] — the one table naming every metric the build and the
//!   server emit, with its kind, unit and help text;
//! - [`trace`] — hierarchical spans in per-thread lock-free buffers with a
//!   Chrome trace-event (Perfetto) export, enabled via
//!   [`Obs::enable_tracing`] for build-scoped runs or attached and
//!   detached mid-flight via [`Obs::attach_tracer`] /
//!   [`Obs::detach_tracer`] for live capture windows;
//! - [`runtime`] — serve-path primitives: [`WindowedHistogram`] rolling
//!   latency windows and the [`FlightRecorder`] per-request ring;
//! - [`shards`] — the ordered shard runner every parallel build stage
//!   fans out through, one trace span per shard;
//! - [`promexpo`] — Prometheus text exposition of a [`RunReport`];
//! - [`provenance`] — deterministic per-answer decision traces for
//!   `p2o explain`.

pub mod catalogue;
pub mod promexpo;
pub mod provenance;
pub mod runtime;
pub mod shards;
pub mod trace;

pub use provenance::{DecisionTrace, DetailSink, TraceStep};
pub use runtime::{
    FlightRecord, FlightRecorder, FlightSample, WindowSnapshot, WindowedHistogram, WINDOWS,
};
pub use shards::{run_beside, run_shards, shard_count, split_shards, traced, LaneOrder};
pub use trace::{
    CounterSample, Span, ThreadLog, ThreadTrace, Trace, TraceEvent, TracePhase, Tracer,
};

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use p2o_util::ingest::{IngestErrorKind, IngestLayer, Quarantine, QuarantineSummary};
use p2o_util::json::Json;

/// A monotonically increasing event counter.
///
/// Increments are relaxed atomic adds: safe from any thread, no ordering
/// obligations, no locks. Clones share the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// The bucket layout every histogram shares: bucket `i` holds the samples
/// whose bit length is `i` (bucket 0 is the value zero), so 65 buckets
/// span the full `u64` range with one `leading_zeros` per record. The
/// cells, the Prometheus `le` bounds and the quantile estimator all read
/// the layout from here.
pub(crate) const BUCKETS: usize = 65;

/// The bucket a sample lands in.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The largest value bucket `i` holds: `2^i - 1`.
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The value a quantile landing in bucket `i` reports: the middle of the
/// bucket's `[2^(i-1), 2^i)` range (0 for bucket 0).
pub(crate) fn bucket_midpoint(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << (i - 1)).saturating_add(1 << (i - 1) >> 1)
    }
}

/// The atomic cells of one histogram: bucket counts plus count, sum, min
/// and max. [`Histogram`] holds one set; each [`WindowedHistogram`] slot
/// holds another.
#[derive(Debug)]
pub(crate) struct HistogramCells {
    pub(crate) buckets: [AtomicU64; BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistogramCells {
    pub(crate) fn new() -> HistogramCells {
        HistogramCells {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: a handful of relaxed atomic updates.
    #[inline]
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Resets every cell to the empty state.
    pub(crate) fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A power-of-two bucketed distribution of `u64` samples: bucket `i`
/// holds the samples of bit length `i`. Quantiles read from bucket
/// midpoints — coarse, but plenty to tell a 2 µs lookup from a 2 ms one.
#[derive(Clone, Debug)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            cells: Arc::new(HistogramCells::new()),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.cells.record(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self, name: &str) -> HistogramReport {
        let c = &self.cells;
        let buckets: Vec<u64> = c
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = c.count.load(Ordering::Relaxed);
        HistogramReport {
            name: name.to_string(),
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                c.min.load(Ordering::Relaxed)
            },
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// RAII wall-clock timer for one pipeline stage.
///
/// Records elapsed time into the registry on drop (or [`finish`]). Attach
/// an item count with [`items`] and the report derives a throughput rate.
///
/// [`finish`]: StageTimer::finish
/// [`items`]: StageTimer::items
pub struct StageTimer {
    obs: Obs,
    name: String,
    started: Instant,
    items: Option<u64>,
    done: bool,
}

impl StageTimer {
    /// Associates an item count (records parsed, prefixes resolved…) so the
    /// report can derive items/second.
    pub fn items(&mut self, n: u64) {
        self.items = Some(n);
    }

    /// Stops the timer now and records the stage.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let stage = StageReport {
            name: std::mem::take(&mut self.name),
            start_ns: self.obs.offset_ns(self.started),
            wall_ns: self.started.elapsed().as_nanos() as u64,
            items: self.items,
            rss_bytes: process_rss_bytes(),
            within: None,
        };
        self.obs.push_stage(stage);
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        self.record();
    }
}

/// RAII timer for a stage whose work runs as other stages, some of them
/// side by side: the rows recorded while it runs are its parts.
///
/// When it drops (or on [`finish`]) it records its own row and marks
/// every row recorded since it started as `within` it. Those rows follow
/// its own in the order its `order` list names them, however their work
/// interleaved; a name the list leaves out goes last. Its wall time
/// spans its parts, so only rows outside any enclosing stage add up to
/// the run's wall time.
///
/// [`finish`]: EnclosingStage::finish
pub struct EnclosingStage {
    obs: Obs,
    name: String,
    started: Instant,
    order: &'static [&'static str],
    first: usize,
    done: bool,
}

impl EnclosingStage {
    /// Stops the timer now and records the stage and its parts.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        let rss_bytes = process_rss_bytes();
        let rank = |s: &StageReport| {
            let found = self.order.iter().position(|&name| name == s.name);
            found.unwrap_or(self.order.len())
        };
        {
            let mut stages = self.obs.inner.stages.lock().expect("obs stages lock");
            let mut parts = stages.split_off(self.first);
            parts.sort_by_key(rank);
            for part in &mut parts {
                part.within = Some(self.name.clone());
            }
            stages.push(StageReport {
                name: std::mem::take(&mut self.name),
                start_ns: self.obs.offset_ns(self.started),
                wall_ns,
                items: None,
                rss_bytes,
                within: None,
            });
            stages.extend(parts);
        }
        self.obs.sample_rss(rss_bytes);
    }
}

impl Drop for EnclosingStage {
    fn drop(&mut self) {
        self.record();
    }
}

struct ObsInner {
    /// When the registry was created: every stage row's start is an
    /// offset from it.
    origin: Instant,
    counters: Mutex<Vec<(String, Counter)>>,
    histograms: Mutex<Vec<(String, Histogram)>>,
    stages: Mutex<Vec<StageReport>>,
    tracer: Mutex<Option<Tracer>>,
    /// Mirrors `tracer.is_some()` so hot paths can ask "is tracing on?"
    /// with one relaxed load instead of a mutex acquisition.
    tracing_on: AtomicBool,
}

impl Default for ObsInner {
    fn default() -> Self {
        ObsInner {
            origin: Instant::now(),
            counters: Mutex::default(),
            histograms: Mutex::default(),
            stages: Mutex::default(),
            tracer: Mutex::default(),
            tracing_on: AtomicBool::default(),
        }
    }
}

/// The observability registry handle.
///
/// Cheap to clone; all clones share one registry. Registration (the
/// `counter`/`histogram` lookups) takes a mutex and is meant for stage
/// setup; the returned handles are lock-free for recording.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let counters = self.inner.counters.lock().expect("obs lock").len();
        let stages = self.inner.stages.lock().expect("obs lock").len();
        f.debug_struct("Obs")
            .field("counters", &counters)
            .field("stages", &stages)
            .finish()
    }
}

impl Obs {
    /// A fresh, empty registry.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// The counter registered under `name`, creating it at zero on first
    /// use. Repeated calls with the same name share one cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().expect("obs counters lock");
        if let Some((_, c)) = counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        counters.push((name.to_string(), c.clone()));
        c
    }

    /// The histogram registered under `name`, creating it empty on first
    /// use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut hists = self.inner.histograms.lock().expect("obs histograms lock");
        if let Some((_, h)) = hists.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::default();
        hists.push((name.to_string(), h.clone()));
        h
    }

    /// Starts a wall-clock timer for stage `name`; the stage is recorded
    /// when the returned guard drops.
    pub fn stage(&self, name: &str) -> StageTimer {
        StageTimer {
            obs: self.clone(),
            name: name.to_string(),
            started: Instant::now(),
            items: None,
            done: false,
        }
    }

    /// Starts stage `name` as the parent of the rows recorded until the
    /// returned guard drops, listed after it in `order`'s order; see
    /// [`EnclosingStage`].
    pub fn enclosing_stage(&self, name: &str, order: &'static [&'static str]) -> EnclosingStage {
        EnclosingStage {
            obs: self.clone(),
            name: name.to_string(),
            started: Instant::now(),
            order,
            first: self.inner.stages.lock().expect("obs stages lock").len(),
            done: false,
        }
    }

    /// Records stage `name` with a wall time the caller measured: a phase
    /// timed in pieces and summed, ending now.
    pub fn record_stage(&self, name: &str, wall: Duration) {
        let now = Instant::now();
        self.push_stage(StageReport {
            name: name.to_string(),
            start_ns: self.offset_ns(now.checked_sub(wall).unwrap_or(now)),
            wall_ns: wall.as_nanos() as u64,
            items: None,
            rss_bytes: process_rss_bytes(),
            within: None,
        });
    }

    /// Nanoseconds from the registry's creation to `at`.
    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.inner.origin).as_nanos() as u64
    }

    fn push_stage(&self, stage: StageReport) {
        let rss_bytes = stage.rss_bytes;
        self.inner
            .stages
            .lock()
            .expect("obs stages lock")
            .push(stage);
        self.sample_rss(rss_bytes);
    }

    /// With tracing on, adds a stage row's RSS to the trace's `rss`
    /// counter track.
    fn sample_rss(&self, rss_bytes: u64) {
        if !self.tracing_attached() {
            return;
        }
        if let Some(tracer) = self.tracer() {
            tracer.sample("rss", rss_bytes);
        }
    }

    /// Turns on span tracing: subsequent [`thread_log`] calls hand out
    /// recording buffers instead of `None`. Idempotent; returns the
    /// tracer so callers can keep a handle.
    ///
    /// [`thread_log`]: Obs::thread_log
    pub fn enable_tracing(&self) -> Tracer {
        let mut slot = self.inner.tracer.lock().expect("obs tracer lock");
        let tracer = slot.get_or_insert_with(Tracer::new).clone();
        self.inner.tracing_on.store(true, Ordering::Release);
        tracer
    }

    /// Attaches a *fresh* tracer mid-flight, replacing any tracer already
    /// in the slot, and returns it. Unlike [`enable_tracing`] (idempotent,
    /// build-scoped), this is the live-capture entry point: attach, let
    /// instrumented code record for a window, then [`detach_tracer`] and
    /// drain. Spans recorded into a replaced tracer stay with that tracer.
    ///
    /// [`enable_tracing`]: Obs::enable_tracing
    /// [`detach_tracer`]: Obs::detach_tracer
    pub fn attach_tracer(&self) -> Tracer {
        let tracer = Tracer::new();
        let mut slot = self.inner.tracer.lock().expect("obs tracer lock");
        *slot = Some(tracer.clone());
        self.inner.tracing_on.store(true, Ordering::Release);
        tracer
    }

    /// Removes and returns the attached tracer, turning tracing off.
    /// Thread logs still alive keep a handle to the detached tracer and
    /// flush into it when they drop — events from requests in flight at
    /// detach time land in the tracer only if their log drops before the
    /// caller drains it.
    pub fn detach_tracer(&self) -> Option<Tracer> {
        let mut slot = self.inner.tracer.lock().expect("obs tracer lock");
        self.inner.tracing_on.store(false, Ordering::Release);
        slot.take()
    }

    /// Whether a tracer is currently attached — one relaxed atomic load,
    /// cheap enough for a per-request check on the serve hot path.
    #[inline]
    pub fn tracing_attached(&self) -> bool {
        self.inner.tracing_on.load(Ordering::Relaxed)
    }

    /// The active tracer, when [`enable_tracing`] has been called.
    ///
    /// [`enable_tracing`]: Obs::enable_tracing
    pub fn tracer(&self) -> Option<Tracer> {
        self.inner.tracer.lock().expect("obs tracer lock").clone()
    }

    /// A per-thread span buffer labelled `name`, or `None` when tracing
    /// is off. Instrumented code threads the `Option` through so the
    /// untraced hot path stays span-free.
    pub fn thread_log(&self, name: &str) -> Option<ThreadLog> {
        self.tracer().map(|t| t.thread_log(name))
    }

    /// Drains the recorded trace (empty when tracing was never enabled).
    /// Worker `ThreadLog`s must have been dropped first — live buffers
    /// are not included.
    pub fn take_trace(&self) -> Trace {
        self.tracer().map(|t| t.drain()).unwrap_or_default()
    }

    /// Times `f` as stage `name` and returns its value.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let timer = self.stage(name);
        let out = f();
        timer.finish();
        out
    }

    /// An ordered snapshot of every stage, counter, and histogram.
    pub fn report(&self) -> RunReport {
        let stages = self.inner.stages.lock().expect("obs stages lock").clone();
        let counters: Vec<(String, u64)> = self
            .inner
            .counters
            .lock()
            .expect("obs counters lock")
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let histograms: Vec<HistogramReport> = self
            .inner
            .histograms
            .lock()
            .expect("obs histograms lock")
            .iter()
            .map(|(n, h)| h.snapshot(n))
            .collect();
        RunReport {
            stages,
            counters,
            histograms,
            data_quality: None,
            durability: None,
            memory: None,
        }
    }
}

/// Adds a quarantine store's counts onto the `ingest.quarantined*`
/// family a build registers at zero from the [`catalogue`].
pub fn record_quarantine(obs: &Obs, quarantine: &Quarantine) {
    obs.counter("ingest.quarantined").add(quarantine.len());
    for layer in IngestLayer::ALL {
        obs.counter(&format!("ingest.quarantined.{}", layer.name()))
            .add(quarantine.count_for_layer(layer));
    }
    for kind in IngestErrorKind::ALL {
        obs.counter(&format!("ingest.quarantined.{}", kind.counter_suffix()))
            .add(quarantine.count_for_kind(kind));
    }
}

/// The `memory` section of a run report: the process's peak resident set
/// size when the report was assembled.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MemorySummary {
    /// Peak RSS in bytes ([`process_peak_rss_bytes`]; 0 off Linux).
    pub peak_rss_bytes: u64,
}

impl MemorySummary {
    /// Serializes to the `memory` JSON object.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.set("peak_rss_bytes", self.peak_rss_bytes);
        root
    }

    /// Parses a `memory` JSON object back into a summary.
    pub fn from_json(json: &Json) -> Result<MemorySummary, String> {
        Ok(MemorySummary {
            peak_rss_bytes: json
                .get("peak_rss_bytes")
                .and_then(Json::as_u64)
                .ok_or("memory: missing peak_rss_bytes")?,
        })
    }
}

/// A `kB` field of `/proc/self/status` in bytes: the one procfs read
/// behind the process memory figures. 0 where procfs is unavailable (off
/// Linux), so a series is present-but-zero rather than missing.
fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|value| value.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Resident set size of this process in bytes (`VmRSS`).
pub fn process_rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

/// Peak resident set size of this process in bytes (`VmHWM`, the high
/// water mark a wrapper's `ru_maxrss` also reports).
pub fn process_peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// The `durability` section of a run report: what the crash-safety layer
/// did this run — atomic writes performed, artifacts verified against the
/// manifest, torn writes detected, checkpoint decision, injected faults.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DurabilitySummary {
    /// Completed atomic (tmp + fsync + rename) writes.
    pub atomic_writes: u64,
    /// Artifacts whose digests were verified against a manifest/checkpoint.
    pub artifacts_verified: u64,
    /// Torn, truncated, or altered artifacts detected (and recovered from).
    pub torn_detected: u64,
    /// Checkpoint decision: `none`, `created`, `skipped`, or `recomputed`.
    pub checkpoint: String,
    /// Injected I/O faults (nonzero only under fault injection).
    pub faults_injected: u64,
}

impl DurabilitySummary {
    /// Serializes to the `durability` JSON object.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        root.set("atomic_writes", self.atomic_writes);
        root.set("artifacts_verified", self.artifacts_verified);
        root.set("torn_detected", self.torn_detected);
        root.set(
            "checkpoint",
            if self.checkpoint.is_empty() {
                "none"
            } else {
                self.checkpoint.as_str()
            },
        );
        root.set("faults_injected", self.faults_injected);
        root
    }

    /// Parses a `durability` JSON object back into a summary.
    pub fn from_json(json: &Json) -> Result<DurabilitySummary, String> {
        let num = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("durability: missing {key}"))
        };
        Ok(DurabilitySummary {
            atomic_writes: num("atomic_writes")?,
            artifacts_verified: num("artifacts_verified")?,
            torn_detected: num("torn_detected")?,
            checkpoint: json
                .get("checkpoint")
                .and_then(Json::as_str)
                .unwrap_or("none")
                .to_string(),
            faults_injected: num("faults_injected")?,
        })
    }
}

/// One completed stage in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stage name (e.g. `whois.parse`).
    pub name: String,
    /// When the stage started, in nanoseconds from the registry's
    /// creation; a row recorded with [`Obs::record_stage`] starts its
    /// wall time before it was recorded. 0 in a report written before
    /// rows carried it.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Items processed, when the stage attached a count.
    pub items: Option<u64>,
    /// The process's resident set size when the stage ended
    /// ([`process_rss_bytes`]; 0 off Linux).
    pub rss_bytes: u64,
    /// The [`EnclosingStage`] this row is part of (`build.load` for the
    /// ingest rows), or `None` for a top-level row. Only top-level rows
    /// add up to the run's wall time.
    pub within: Option<String>,
}

impl StageReport {
    /// Items per second, when an item count was attached and time elapsed.
    pub fn rate(&self) -> Option<f64> {
        let items = self.items?;
        if self.wall_ns == 0 {
            return None;
        }
        Some(items as f64 * 1e9 / self.wall_ns as f64)
    }
}

/// One histogram's snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramReport {
    /// Histogram name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Power-of-two bucket counts; bucket `i` holds values of bit length `i`.
    pub buckets: Vec<u64>,
}

impl HistogramReport {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` from bucket midpoints.
    pub fn quantile(&self, q: f64) -> u64 {
        midpoint_quantile(&self.buckets, self.count, self.min, self.max, q)
    }
}

/// The shared midpoint-quantile walk over power-of-two buckets, used by
/// both [`HistogramReport::quantile`] and
/// [`runtime::WindowSnapshot::quantile`]: returns the midpoint of the
/// first bucket whose cumulative count reaches `ceil(q * count)`
/// (clamped to at least one sample), `0` for an empty histogram, and
/// `max` if the bucket counts race behind `count`. A midpoint can lie
/// outside the samples seen (one sample of 300 sits in the bucket whose
/// midpoint is 384), so the result is clamped to the observed
/// `[min, max]`; `max` wins should a racing reader see `min > max`.
pub(crate) fn midpoint_quantile(buckets: &[u64], count: u64, min: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return bucket_midpoint(i).max(min).min(max);
        }
    }
    max
}

/// A full observability snapshot of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Stages in completion order, but for the parts of an
    /// [`EnclosingStage`], which follow it in its order.
    pub stages: Vec<StageReport>,
    /// Counters in registration order.
    pub counters: Vec<(String, u64)>,
    /// Histograms in registration order.
    pub histograms: Vec<HistogramReport>,
    /// Ingest quarantine summary, when the run parsed external inputs
    /// leniently (`None` for runs without an ingest phase).
    pub data_quality: Option<QuarantineSummary>,
    /// Crash-safety summary, when the run wrote artifacts through the
    /// durability layer (`None` for in-memory runs).
    pub durability: Option<DurabilitySummary>,
    /// The process's peak RSS, when the run reports it (`build` does).
    pub memory: Option<MemorySummary>,
}

impl RunReport {
    /// The value of counter `name`, when registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The stage named `name`, when recorded.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The wall time of the top-level stage rows: the share of the run
    /// they account for, each nested row counted once inside its parent.
    pub fn top_level_wall_ns(&self) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.within.is_none())
            .map(|s| s.wall_ns)
            .sum()
    }

    /// The histogram named `name`, when registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramReport> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut root = Json::object();
        let mut stages = Vec::with_capacity(self.stages.len());
        for s in &self.stages {
            let mut obj = Json::object();
            obj.set("name", s.name.as_str());
            obj.set("start_ns", s.start_ns);
            obj.set("wall_ns", s.wall_ns);
            obj.set("rss_bytes", s.rss_bytes);
            if let Some(within) = &s.within {
                obj.set("within", within.as_str());
            }
            if let Some(items) = s.items {
                obj.set("items", items);
                if let Some(rate) = s.rate() {
                    obj.set("per_second", (rate * 10.0).round() / 10.0);
                }
            }
            stages.push(obj);
        }
        root.set("stages", Json::Arr(stages));

        let mut counters = Json::object();
        for (name, value) in &self.counters {
            counters.set(name.as_str(), *value);
        }
        root.set("counters", counters);

        let mut hists = Vec::with_capacity(self.histograms.len());
        for h in &self.histograms {
            let mut obj = Json::object();
            obj.set("name", h.name.as_str());
            obj.set("count", h.count);
            obj.set("sum", h.sum);
            obj.set("min", h.min);
            obj.set("max", h.max);
            obj.set("p50", h.quantile(0.50));
            obj.set("p99", h.quantile(0.99));
            hists.push(obj);
        }
        root.set("histograms", Json::Arr(hists));
        if let Some(dq) = &self.data_quality {
            root.set("data_quality", dq.to_json());
        }
        if let Some(d) = &self.durability {
            root.set("durability", d.to_json());
        }
        if let Some(m) = &self.memory {
            root.set("memory", m.to_json());
        }
        root
    }

    /// Pretty JSON text, ready to write to a `--report` file.
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
    }

    /// Reads back the deterministic fields of a report written by
    /// [`to_json_string`] (wall times and rates come back verbatim too).
    ///
    /// [`to_json_string`]: RunReport::to_json_string
    pub fn from_json(doc: &Json) -> Result<RunReport, String> {
        let stages = doc
            .get("stages")
            .and_then(Json::as_array)
            .ok_or("report missing stages")?
            .iter()
            .map(|s| {
                Ok(StageReport {
                    name: s
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("stage missing name")?
                        .to_string(),
                    start_ns: s.get("start_ns").and_then(Json::as_u64).unwrap_or(0),
                    wall_ns: s
                        .get("wall_ns")
                        .and_then(Json::as_u64)
                        .ok_or("stage missing wall_ns")?,
                    items: s.get("items").and_then(Json::as_u64),
                    rss_bytes: s
                        .get("rss_bytes")
                        .and_then(Json::as_u64)
                        .ok_or("stage missing rss_bytes")?,
                    within: s.get("within").and_then(Json::as_str).map(str::to_string),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let counters = doc
            .get("counters")
            .and_then(Json::as_object)
            .ok_or("report missing counters")?
            .iter()
            .map(|(name, v)| {
                v.as_u64()
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("counter {name} not an integer"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let histograms = doc
            .get("histograms")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|h| {
                Ok(HistogramReport {
                    name: h
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("histogram missing name")?
                        .to_string(),
                    count: h.get("count").and_then(Json::as_u64).unwrap_or(0),
                    sum: h.get("sum").and_then(Json::as_u64).unwrap_or(0),
                    min: h.get("min").and_then(Json::as_u64).unwrap_or(0),
                    max: h.get("max").and_then(Json::as_u64).unwrap_or(0),
                    buckets: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let data_quality = doc
            .get("data_quality")
            .map(QuarantineSummary::from_json)
            .transpose()?;
        let durability = doc
            .get("durability")
            .map(DurabilitySummary::from_json)
            .transpose()?;
        let memory = doc
            .get("memory")
            .map(MemorySummary::from_json)
            .transpose()?;
        Ok(RunReport {
            stages,
            counters,
            histograms,
            data_quality,
            durability,
            memory,
        })
    }

    /// An aligned, human-readable summary (one stage/counter/histogram per
    /// line) for stderr. A nested stage row is indented under its parent.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let labels: Vec<String> = self
            .stages
            .iter()
            .map(|s| match s.within {
                Some(_) => format!("  {}", s.name),
                None => s.name.clone(),
            })
            .collect();
        let width = labels
            .iter()
            .map(String::len)
            .chain(self.counters.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0)
            .max(5);
        out.push_str("stages\n");
        for (s, label) in self.stages.iter().zip(&labels) {
            let ms = s.wall_ns as f64 / 1e6;
            let rss_mb = s.rss_bytes as f64 / (1024.0 * 1024.0);
            out.push_str(&format!(
                "  {label:width$}  {ms:>10.2} ms  {rss_mb:>8.1} MB rss"
            ));
            if let Some(rate) = s.rate() {
                out.push_str(&format!(
                    "  {:>12} items  {:>14}/s",
                    s.items.unwrap_or(0),
                    format_rate(rate)
                ));
            }
            out.push('\n');
        }
        out.push_str("counters\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name:width$}  {value:>10}\n"));
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:width$}  n={} min={} mean={:.1} p50~{} p99~{} max={}\n",
                    h.name,
                    h.count,
                    h.min,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max,
                ));
            }
        }
        if let Some(dq) = &self.data_quality {
            out.push_str("data quality\n");
            out.push_str(&format!(
                "  {:width$}  {:>10}\n",
                "quarantined", dq.quarantined
            ));
            for (layer, count) in &dq.per_layer {
                if *count > 0 {
                    out.push_str(&format!("  {layer:width$}  {count:>10}\n"));
                }
            }
        }
        if let Some(d) = &self.durability {
            out.push_str("durability\n");
            out.push_str(&format!(
                "  {:width$}  {:>10}\n",
                "atomic_writes", d.atomic_writes
            ));
            out.push_str(&format!(
                "  {:width$}  {:>10}\n",
                "artifacts_verified", d.artifacts_verified
            ));
            out.push_str(&format!(
                "  {:width$}  {:>10}\n",
                "torn_detected", d.torn_detected
            ));
            out.push_str(&format!(
                "  {:width$}  {:>10}\n",
                "checkpoint", d.checkpoint
            ));
            if d.faults_injected > 0 {
                out.push_str(&format!(
                    "  {:width$}  {:>10}\n",
                    "faults_injected", d.faults_injected
                ));
            }
        }
        if let Some(m) = &self.memory {
            out.push_str("memory\n");
            out.push_str(&format!(
                "  {:width$}  {:>10}\n",
                "peak_rss_bytes", m.peak_rss_bytes
            ));
        }
        out
    }
}

fn format_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name() {
        let obs = Obs::new();
        let a = obs.counter("x");
        let b = obs.counter("x");
        a.add(2);
        b.incr();
        assert_eq!(obs.counter("x").get(), 3);
        assert_eq!(obs.report().counter("x"), Some(3));
        assert_eq!(obs.report().counter("y"), None);
    }

    #[test]
    fn counters_survive_threads() {
        let obs = Obs::new();
        let c = obs.counter("n");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn stage_timer_records_on_drop_with_items() {
        let obs = Obs::new();
        {
            let mut t = obs.stage("parse");
            t.items(500);
        }
        let report = obs.report();
        let stage = report.stage("parse").expect("stage recorded");
        assert_eq!(stage.items, Some(500));
        assert!(stage.rate().is_none() || stage.rate().unwrap() > 0.0);
        let value = obs.time("compute", || 7);
        assert_eq!(value, 7);
        assert!(obs.report().stage("compute").is_some());
    }

    /// An enclosing stage lists the rows recorded while it ran after its
    /// own, in its order whatever order they ended in, marks them as
    /// within it, and only top-level rows add up to the wall time.
    #[test]
    fn enclosing_stage_nests_its_rows_in_its_order() {
        let obs = Obs::new();
        obs.record_stage("before", Duration::from_millis(1));
        let load = obs.enclosing_stage("load", &["a", "b", "c"]);
        std::thread::scope(|s| {
            s.spawn(|| obs.record_stage("c", Duration::from_millis(3)));
        });
        obs.record_stage("stray", Duration::from_millis(5));
        obs.record_stage("a", Duration::from_millis(2));
        obs.time("b", || ());
        load.finish();
        obs.record_stage("after", Duration::from_millis(4));
        let report = obs.report();
        let rows: Vec<(&str, Option<&str>)> = report
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.within.as_deref()))
            .collect();
        assert_eq!(
            rows,
            [
                ("before", None),
                ("load", None),
                ("a", Some("load")),
                ("b", Some("load")),
                ("c", Some("load")),
                ("stray", Some("load")),
                ("after", None),
            ]
        );
        let wall = |name: &str| report.stage(name).unwrap().wall_ns;
        assert_eq!(
            report.top_level_wall_ns(),
            wall("before") + wall("load") + wall("after")
        );
        let table = report.summary_table();
        assert!(table.contains("\n  load  "), "{table}");
        assert!(table.contains("\n    a   "), "{table}");
        let doc = p2o_util::Json::parse(&report.to_json_string()).unwrap();
        assert_eq!(RunReport::from_json(&doc).unwrap().stages, report.stages);
    }

    /// A report written before rows could nest has no `within` or
    /// `start_ns` fields and still parses, every row top-level and
    /// starting at 0.
    #[test]
    fn a_report_without_within_fields_parses() {
        let text = r#"{"stages":[{"name":"whois.parse","wall_ns":5,"rss_bytes":7}],"counters":{}}"#;
        let report = RunReport::from_json(&p2o_util::Json::parse(text).unwrap()).unwrap();
        assert_eq!(report.stages[0].within, None);
        assert_eq!(report.stages[0].start_ns, 0);
        assert_eq!(report.top_level_wall_ns(), 5);
    }

    /// Each row carries its start: rows timed one after another do not
    /// overlap, an enclosing row holds its parts, and a row recorded with
    /// a measured wall time starts that long before it was recorded.
    #[test]
    fn stage_rows_carry_their_start() {
        let obs = Obs::new();
        let sleep = || std::thread::sleep(Duration::from_millis(2));
        obs.time("first", sleep);
        let fork = obs.enclosing_stage("fork", &[]);
        obs.time("part", sleep);
        fork.finish();
        let started = Instant::now();
        sleep();
        obs.record_stage("measured", started.elapsed());
        let report = obs.report();
        let end = |s: &StageReport| s.start_ns + s.wall_ns;
        let [first, fork, part, measured] =
            ["first", "fork", "part", "measured"].map(|name| report.stage(name).unwrap().clone());
        assert!(fork.start_ns >= end(&first), "{first:?} {fork:?}");
        assert!(part.start_ns >= fork.start_ns && end(&part) <= end(&fork));
        assert!(measured.start_ns >= end(&fork), "{fork:?} {measured:?}");
        let doc = p2o_util::Json::parse(&report.to_json_string()).unwrap();
        assert_eq!(RunReport::from_json(&doc).unwrap().stages, report.stages);
    }

    /// With tracing on, every stage row ends with one point on the trace's
    /// `rss` counter track carrying the row's RSS.
    #[test]
    fn each_stage_row_samples_rss_into_the_trace() {
        let obs = Obs::new();
        obs.time("untraced", || ());
        obs.enable_tracing();
        let load = obs.enclosing_stage("load", &["a"]);
        obs.time("a", || ());
        drop(load);
        obs.record_stage("b", Duration::ZERO);
        let report = obs.report();
        let trace = obs.take_trace();
        assert_eq!(trace.counters.len(), report.stages.len() - 1);
        assert!(trace.counters.iter().all(|c| c.name == "rss"));
        assert!(trace.counters.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let rows = ["a", "load", "b"].map(|name| report.stage(name).unwrap().rss_bytes);
        let samples: Vec<u64> = trace.counters.iter().map(|c| c.value).collect();
        assert_eq!(samples, rows);
        let chrome = trace.to_chrome_json();
        let counters: Vec<&p2o_util::Json> = chrome
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(p2o_util::Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 3);
        assert_eq!(
            counters[0]
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(p2o_util::Json::as_u64),
            Some(rows[0])
        );
    }

    #[test]
    fn histogram_tracks_distribution() {
        let obs = Obs::new();
        let h = obs.histogram("sizes");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let r = obs.report();
        let snap = r.histogram("sizes").unwrap();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1106);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert!(snap.mean() > 200.0);
        assert!(snap.quantile(0.0) <= snap.quantile(1.0));
    }

    #[test]
    fn report_json_round_trips_deterministic_fields() {
        let obs = Obs::new();
        obs.counter("resolved").add(12);
        obs.counter("unresolved").add(3);
        obs.histogram("h").record(9);
        obs.time("stage-a", || ());
        let report = obs.report();
        let text = report.to_json_string();
        let doc = p2o_util::Json::parse(&text).expect("valid json");
        let back = RunReport::from_json(&doc).expect("parses");
        assert_eq!(back.counter("resolved"), Some(12));
        assert_eq!(back.counter("unresolved"), Some(3));
        assert_eq!(back.stages.len(), 1);
        assert_eq!(back.stages[0].name, "stage-a");
        assert_eq!(back.histograms.len(), 1);
        assert_eq!(back.histograms[0].count, 1);
        assert_eq!(back.data_quality, None);
    }

    #[test]
    fn data_quality_round_trips_and_ticks_counters() {
        use p2o_util::ingest::QuarantinedRecord;
        let obs = Obs::new();
        catalogue::register(&obs, catalogue::Source::BuildSetup);
        let mut q = Quarantine::default();
        q.push(QuarantinedRecord::new(
            IngestErrorKind::MrtBadType,
            24,
            &[0xDE, 0xAD],
            "record type 0x2222 is not TABLE_DUMP_V2",
        ));
        record_quarantine(&obs, &q);
        let mut report = obs.report();
        assert_eq!(report.counter("ingest.quarantined"), Some(1));
        assert_eq!(report.counter("ingest.quarantined.mrt"), Some(1));
        assert_eq!(report.counter("ingest.quarantined.whois"), Some(0));
        assert_eq!(report.counter("ingest.quarantined.mrt_bad_type"), Some(1));
        report.data_quality = Some(q.summary(4));
        let text = report.to_json_string();
        let doc = p2o_util::Json::parse(&text).expect("valid json");
        let back = RunReport::from_json(&doc).expect("parses");
        let dq = back.data_quality.expect("data_quality present");
        assert_eq!(dq.quarantined, 1);
        assert_eq!(dq.samples.len(), 1);
        assert!(report.summary_table().contains("data quality"));
    }

    #[test]
    fn durability_round_trips_and_registers_zeroed_counters() {
        let obs = Obs::new();
        catalogue::register(&obs, catalogue::Source::BuildSetup);
        let mut report = obs.report();
        assert_eq!(report.counter("store.torn_detected"), Some(0));
        assert_eq!(report.counter("io.fault.injected"), Some(0));
        report.durability = Some(DurabilitySummary {
            atomic_writes: 14,
            artifacts_verified: 12,
            torn_detected: 1,
            checkpoint: "recomputed".to_string(),
            faults_injected: 2,
        });
        let text = report.to_json_string();
        let doc = p2o_util::Json::parse(&text).expect("valid json");
        let back = RunReport::from_json(&doc).expect("parses");
        let d = back.durability.expect("durability present");
        assert_eq!(d, *report.durability.as_ref().unwrap());
        let table = report.summary_table();
        assert!(table.contains("durability"), "{table}");
        assert!(table.contains("recomputed"), "{table}");
        assert!(table.contains("faults_injected"), "{table}");
        // Empty checkpoint serializes as the explicit "none".
        let none = DurabilitySummary::default().to_json().to_string_pretty();
        assert!(none.contains("\"none\""), "{none}");
    }

    #[test]
    fn summary_table_lists_everything() {
        let obs = Obs::new();
        obs.counter("whois.records").add(10);
        obs.histogram("bgp.bytes").record(64);
        {
            let mut t = obs.stage("whois.parse");
            t.items(10);
        }
        let table = obs.report().summary_table();
        assert!(table.contains("whois.parse"));
        assert!(table.contains("whois.records"));
        assert!(table.contains("bgp.bytes"));
    }

    #[test]
    fn summary_table_renders_empty_histogram() {
        let obs = Obs::new();
        obs.histogram("empty.latency");
        let report = obs.report();
        let snap = report.histogram("empty.latency").unwrap();
        assert_eq!((snap.count, snap.min, snap.max), (0, 0, 0));
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.quantile(0.5), 0);
        let table = report.summary_table();
        assert!(
            table.contains("empty.latency  n=0 min=0 mean=0.0 p50~0 p99~0 max=0"),
            "empty histogram must render zeros, got:\n{table}"
        );
        // A registry with nothing at all still renders its section headers.
        let blank = Obs::new().report().summary_table();
        assert!(blank.contains("stages\n"));
        assert!(blank.contains("counters\n"));
    }

    #[test]
    fn quantile_edge_cases_empty_bounds_and_single_sample() {
        let obs = Obs::new();
        // Empty histogram: every quantile is 0, including the bounds.
        let h = obs.histogram("edge");
        let empty = obs.report().histogram("edge").unwrap().clone();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.quantile(1.0), 0);
        // Single sample: every quantile lands in its bucket. 300 has bit
        // length 9, so the bucket midpoint is 256 + 128, clamped to the one
        // sample seen.
        h.record(300);
        let one = obs.report().histogram("edge").unwrap().clone();
        assert_eq!(one.count, 1);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 300, "q={q}");
        }
        // q outside [0, 1] clamps instead of panicking or overshooting.
        assert_eq!(one.quantile(-3.0), one.quantile(0.0));
        assert_eq!(one.quantile(7.0), one.quantile(1.0));
        // The zero value occupies bucket 0 with midpoint 0.
        h.record(0);
        let two = obs.report().histogram("edge").unwrap().clone();
        assert_eq!(two.quantile(0.0), 0, "q=0 is the smallest sample's bucket");
        assert_eq!(
            two.quantile(1.0),
            300,
            "q=1 is the largest sample's bucket, clamped to the largest sample"
        );
    }

    #[test]
    fn tracer_attach_detach_cycles_capture_disjoint_windows() {
        let obs = Obs::new();
        assert!(!obs.tracing_attached());
        assert!(obs.thread_log("idle").is_none(), "no tracer, no log");

        let t1 = obs.attach_tracer();
        assert!(obs.tracing_attached());
        {
            let log = obs.thread_log("w").expect("tracing attached");
            let _span = log.span("first");
        }
        let detached = obs.detach_tracer().expect("tracer was attached");
        assert!(!obs.tracing_attached());
        assert!(obs.thread_log("idle").is_none(), "detached means off");
        let trace1 = detached.drain();
        assert_eq!(trace1.span_count("first"), 1);
        // t1 and the detached handle are the same tracer.
        assert_eq!(t1.drain().event_count(), 0, "already drained");

        // A second attach starts from a clean tracer.
        let _t2 = obs.attach_tracer();
        {
            let log = obs.thread_log("w").expect("tracing re-attached");
            let _span = log.span("second");
        }
        let trace2 = obs.detach_tracer().expect("attached").drain();
        assert_eq!(trace2.span_count("first"), 0);
        assert_eq!(trace2.span_count("second"), 1);
        assert!(obs.detach_tracer().is_none(), "double detach is None");

        // A log alive across detach flushes into the *detached* tracer.
        let t3 = obs.attach_tracer();
        let straggler = obs.thread_log("late").expect("attached");
        {
            let _span = straggler.span("in-flight");
        }
        let t3_again = obs.detach_tracer().expect("attached");
        drop(straggler);
        assert_eq!(t3_again.drain().span_count("in-flight"), 1);
        drop(t3);
    }

    #[test]
    fn histogram_concurrent_recording_is_lossless() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        let obs = Obs::new();
        let h = obs.histogram("stress");
        // Each thread records a disjoint, known slice of values so the
        // aggregate count/sum/min/max are all predictable.
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i + 1);
                    }
                });
            }
        });
        let report = obs.report();
        let snap = report.histogram("stress").unwrap();
        let n = THREADS * PER_THREAD;
        assert_eq!(snap.count, n, "count == sum of per-thread records");
        assert_eq!(snap.sum, n * (n + 1) / 2);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, n);
        assert_eq!(snap.buckets.iter().sum::<u64>(), n);
    }
}
