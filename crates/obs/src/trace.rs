//! Hierarchical span tracing with per-thread lock-free buffers and a
//! Chrome trace-event export.
//!
//! The counters and stage timers in the crate root answer *how much* and
//! *how long*; they cannot show *when* the parallel shards of a stage ran
//! or how the WHOIS/MRT/cluster fan-out overlapped. This module adds that
//! timeline view:
//!
//! - A [`Tracer`] owns the run's epoch and collects finished per-thread
//!   buffers behind one mutex that is touched only at thread registration
//!   and drain time.
//! - Each worker registers a [`ThreadLog`] (one cheap atomic `fetch_add`
//!   for the thread id, one mutex lock when the log drops); recording a
//!   [`Span`] is two `Vec` pushes into the thread-owned buffer — no
//!   atomics, no locks, nothing shared on the hot path.
//! - Spans nest: a span opened while another is alive records the open
//!   span as its parent, giving Perfetto a per-thread flame graph.
//! - [`Tracer::sample`] adds a point to a counter track: the build samples
//!   its RSS into the `rss` track as each stage row ends.
//! - [`Trace::to_chrome_json`] renders the drained buffers as a Chrome
//!   trace-event array (`ph`/`ts`/`tid`/`pid` fields, timestamps in
//!   microseconds) loadable in Perfetto or `chrome://tracing`.
//!
//! Timestamps are the only nondeterministic content; the *structure*
//! (which spans exist, their names, args and nesting) is deterministic
//! for a deterministic run, which the span property tests rely on.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use p2o_util::json::Json;

/// Whether an event opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Span begin (Chrome `ph: "B"`).
    Begin,
    /// Span end (Chrome `ph: "E"`).
    End,
}

/// One begin or end event recorded by a thread.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name (e.g. `whois.parse`). Begin and end carry the same name.
    pub name: String,
    /// Begin or end.
    pub phase: TracePhase,
    /// Nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// Span id, unique across the whole trace (thread id in the high bits).
    pub span_id: u64,
    /// Id of the enclosing span on the same thread, or `0` for a root span.
    pub parent: u64,
    /// Key/value annotations (shard index, item counts, ...). Begin events
    /// carry the args; end events leave this empty.
    pub args: Vec<(String, String)>,
}

/// The events of one finished [`ThreadLog`], in recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTrace {
    /// Dense thread id assigned at registration.
    pub tid: u64,
    /// The label the thread registered under (e.g. `whois.parse`).
    pub name: String,
    /// Begin/end events in the order they were recorded.
    pub events: Vec<TraceEvent>,
}

/// One point of a counter track (Chrome `ph: "C"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Track name (e.g. `rss`).
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// The counter's value from this point on.
    pub value: u64,
}

struct TracerInner {
    epoch: Instant,
    next_tid: AtomicU64,
    finished: Mutex<Vec<ThreadTrace>>,
    samples: Mutex<Vec<CounterSample>>,
}

/// The shared trace collector. Cloning is cheap (`Arc`); all clones feed
/// one event store.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let finished = self.inner.finished.lock().expect("tracer lock").len();
        f.debug_struct("Tracer")
            .field("finished_threads", &finished)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh tracer; the epoch (timestamp zero) is now.
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                next_tid: AtomicU64::new(1),
                finished: Mutex::new(Vec::new()),
                samples: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Registers a per-thread recording buffer labelled `name`. The
    /// returned log is single-owner (move it into the worker); its events
    /// flush into the tracer when it drops.
    pub fn thread_log(&self, name: &str) -> ThreadLog {
        ThreadLog {
            tracer: self.clone(),
            tid: self.inner.next_tid.fetch_add(1, Ordering::Relaxed),
            name: name.to_string(),
            events: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_seq: Cell::new(0),
        }
    }

    /// Adds a point to counter track `name`, timestamped now. Samples
    /// are rare (one per build stage), so they share one lock.
    pub fn sample(&self, name: &str, value: u64) {
        let ts_ns = self.inner.epoch.elapsed().as_nanos() as u64;
        self.inner
            .samples
            .lock()
            .expect("tracer lock")
            .push(CounterSample {
                name: name.to_string(),
                ts_ns,
                value,
            });
    }

    /// Drains every flushed thread buffer into a [`Trace`], ordered by
    /// thread id, and every counter sample in recording order. Logs still
    /// alive are not included — drop them first.
    pub fn drain(&self) -> Trace {
        let mut threads = std::mem::take(&mut *self.inner.finished.lock().expect("tracer lock"));
        threads.sort_by_key(|t| t.tid);
        let counters = std::mem::take(&mut *self.inner.samples.lock().expect("tracer lock"));
        Trace { threads, counters }
    }
}

/// A per-thread span buffer. Recording is lock-free: events append to a
/// thread-owned `Vec`; the shared collector is locked exactly once, when
/// the log drops.
#[derive(Debug)]
pub struct ThreadLog {
    tracer: Tracer,
    tid: u64,
    name: String,
    events: RefCell<Vec<TraceEvent>>,
    stack: RefCell<Vec<u64>>,
    next_seq: Cell<u64>,
}

impl ThreadLog {
    /// Opens a span. It closes (records its end event) when the returned
    /// guard drops; spans opened while it is alive become its children.
    pub fn span(&self, name: &str) -> Span<'_> {
        let seq = self.next_seq.get() + 1;
        self.next_seq.set(seq);
        let id = (self.tid << 32) | seq;
        let parent = self.stack.borrow().last().copied().unwrap_or(0);
        let begin_idx = {
            let mut events = self.events.borrow_mut();
            events.push(TraceEvent {
                name: name.to_string(),
                phase: TracePhase::Begin,
                ts_ns: self.now(),
                span_id: id,
                parent,
                args: Vec::new(),
            });
            events.len() - 1
        };
        self.stack.borrow_mut().push(id);
        Span {
            log: self,
            id,
            begin_idx,
        }
    }

    fn now(&self) -> u64 {
        self.tracer.inner.epoch.elapsed().as_nanos() as u64
    }
}

impl Drop for ThreadLog {
    fn drop(&mut self) {
        let events = std::mem::take(&mut *self.events.borrow_mut());
        if events.is_empty() {
            return;
        }
        self.tracer
            .inner
            .finished
            .lock()
            .expect("tracer lock")
            .push(ThreadTrace {
                tid: self.tid,
                name: std::mem::take(&mut self.name),
                events,
            });
    }
}

/// An open span; recording the end event on drop (RAII, like
/// [`StageTimer`](crate::StageTimer)).
#[derive(Debug)]
pub struct Span<'a> {
    log: &'a ThreadLog,
    id: u64,
    begin_idx: usize,
}

impl Span<'_> {
    /// Attaches a key/value annotation to the span's begin event.
    pub fn arg(&self, key: &str, value: impl std::fmt::Display) {
        let mut events = self.log.events.borrow_mut();
        events[self.begin_idx]
            .args
            .push((key.to_string(), value.to_string()));
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        // Normal use is strictly nested (guards drop in reverse creation
        // order), so this pops the top; out-of-order drops just remove
        // this span from wherever it sits so later spans re-parent onto
        // the still-open enclosing span.
        self.log.stack.borrow_mut().retain(|&id| id != self.id);
        let (name, parent) = {
            let events = self.log.events.borrow();
            let begin = &events[self.begin_idx];
            (begin.name.clone(), begin.parent)
        };
        self.log.events.borrow_mut().push(TraceEvent {
            name,
            phase: TracePhase::End,
            ts_ns: self.log.now(),
            span_id: self.id,
            parent,
            args: Vec::new(),
        });
    }
}

/// A drained trace: every finished thread's events, ordered by thread id,
/// and the counter samples.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-thread event buffers.
    pub threads: Vec<ThreadTrace>,
    /// Counter-track points, in recording order.
    pub counters: Vec<CounterSample>,
}

impl Trace {
    /// Number of spans named `name` across all threads (begin events).
    pub fn span_count(&self, name: &str) -> usize {
        self.threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.phase == TracePhase::Begin && e.name == name)
            .count()
    }

    /// Total number of begin/end events and counter samples.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum::<usize>() + self.counters.len()
    }

    /// The trace as a Chrome trace-event JSON array: one `ph: "M"` thread
    /// metadata event per thread, then the `ph: "B"`/`ph: "E"` span events
    /// with microsecond timestamps, then one `ph: "C"` event per counter
    /// sample (its value under `args.value`) — the format Perfetto and
    /// `chrome://tracing` load directly.
    pub fn to_chrome_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        for thread in &self.threads {
            let mut meta = Json::object();
            meta.set("name", "thread_name");
            meta.set("ph", "M");
            meta.set("pid", 1u64);
            meta.set("tid", thread.tid);
            let mut args = Json::object();
            args.set("name", thread.name.as_str());
            meta.set("args", args);
            events.push(meta);
            for event in &thread.events {
                let mut obj = Json::object();
                obj.set("name", event.name.as_str());
                obj.set(
                    "ph",
                    match event.phase {
                        TracePhase::Begin => "B",
                        TracePhase::End => "E",
                    },
                );
                obj.set("pid", 1u64);
                obj.set("tid", thread.tid);
                obj.set("ts", event.ts_ns as f64 / 1000.0);
                if event.phase == TracePhase::Begin {
                    let mut args = Json::object();
                    args.set("span_id", event.span_id);
                    if event.parent != 0 {
                        args.set("parent", event.parent);
                    }
                    for (k, v) in &event.args {
                        args.set(k.as_str(), v.as_str());
                    }
                    obj.set("args", args);
                }
                events.push(obj);
            }
        }
        for sample in &self.counters {
            let mut obj = Json::object();
            obj.set("name", sample.name.as_str());
            obj.set("ph", "C");
            obj.set("pid", 1u64);
            obj.set("ts", sample.ts_ns as f64 / 1000.0);
            let mut args = Json::object();
            args.set("value", sample.value);
            obj.set("args", args);
            events.push(obj);
        }
        Json::Arr(events)
    }

    /// Pretty Chrome trace JSON text, ready to write to a `--trace` file.
    pub fn to_chrome_json_string(&self) -> String {
        let mut s = self.to_chrome_json().to_string_pretty();
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_util::check::run_cases;
    use std::collections::HashMap;

    #[test]
    fn spans_nest_and_flush_on_drop() {
        let tracer = Tracer::new();
        {
            let log = tracer.thread_log("worker");
            let outer = log.span("stage");
            outer.arg("shard", 0);
            {
                let inner = log.span("step");
                inner.arg("items", 42);
            }
            drop(outer);
        }
        let trace = tracer.drain();
        assert_eq!(trace.threads.len(), 1);
        let events = &trace.threads[0].events;
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].name, "stage");
        assert_eq!(events[0].phase, TracePhase::Begin);
        assert_eq!(events[0].parent, 0);
        assert_eq!(events[1].name, "step");
        assert_eq!(events[1].parent, events[0].span_id);
        assert_eq!(events[2].phase, TracePhase::End);
        assert_eq!(events[2].span_id, events[1].span_id);
        assert_eq!(events[3].span_id, events[0].span_id);
        assert_eq!(events[0].args, vec![("shard".into(), "0".into())]);
        assert_eq!(trace.span_count("stage"), 1);
        assert_eq!(trace.span_count("step"), 1);
        // A second drain is empty — the buffers moved out.
        assert_eq!(tracer.drain().event_count(), 0);
    }

    #[test]
    fn threads_get_distinct_tids_and_ids_never_collide() {
        let tracer = Tracer::new();
        std::thread::scope(|scope| {
            for i in 0..8 {
                let log = tracer.thread_log(&format!("w{i}"));
                scope.spawn(move || {
                    for _ in 0..10 {
                        let s = log.span("work");
                        drop(s);
                    }
                });
            }
        });
        let trace = tracer.drain();
        assert_eq!(trace.threads.len(), 8);
        let mut seen = std::collections::HashSet::new();
        for t in &trace.threads {
            for e in &t.events {
                if e.phase == TracePhase::Begin {
                    assert!(seen.insert(e.span_id), "duplicate span id");
                }
            }
        }
        assert_eq!(seen.len(), 80);
    }

    #[test]
    fn chrome_json_shape() {
        let tracer = Tracer::new();
        {
            let log = tracer.thread_log("worker");
            let s = log.span("whois.parse");
            s.arg("records", 7);
        }
        let json = tracer.drain().to_chrome_json();
        let text = json.to_string_pretty();
        let doc = Json::parse(&text).expect("trace JSON parses");
        let events = doc.as_array().expect("array of events");
        // Metadata + begin + end.
        assert_eq!(events.len(), 3);
        for e in events {
            assert!(e.get("ph").and_then(Json::as_str).is_some());
            assert!(e.get("tid").and_then(Json::as_u64).is_some());
        }
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("B"));
        assert!(events[1].get("ts").is_some());
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("records"))
                .and_then(Json::as_str),
            Some("7")
        );
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("E"));
    }

    /// Replays a drained trace and asserts the structural invariants every
    /// well-nested trace must satisfy.
    fn assert_trace_invariants(trace: &Trace) {
        for thread in &trace.threads {
            let mut open: Vec<u64> = Vec::new(); // stack of span ids
            let mut begin_of: HashMap<u64, &TraceEvent> = HashMap::new();
            let mut last_ts = 0u64;
            for event in &thread.events {
                assert!(
                    event.ts_ns >= last_ts,
                    "per-thread event order must be monotone in timestamp"
                );
                last_ts = event.ts_ns;
                match event.phase {
                    TracePhase::Begin => {
                        assert_eq!(
                            event.parent,
                            open.last().copied().unwrap_or(0),
                            "a span's parent must be the innermost open span"
                        );
                        assert!(begin_of.insert(event.span_id, event).is_none());
                        open.push(event.span_id);
                    }
                    TracePhase::End => {
                        let top = open.pop().expect("end without matching begin");
                        assert_eq!(
                            top, event.span_id,
                            "parents must close after their children"
                        );
                        let begin = begin_of[&event.span_id];
                        assert_eq!(begin.name, event.name);
                        assert!(event.ts_ns >= begin.ts_ns);
                    }
                }
            }
            assert!(open.is_empty(), "every begun span must end");
        }
    }

    /// Property: random well-nested span programs on random thread counts
    /// always drain to traces with matched begin/end events, stack-ordered
    /// closes, and per-thread monotone timestamps.
    #[test]
    fn random_span_forests_preserve_nesting_invariants() {
        run_cases(40, |g| {
            let tracer = Tracer::new();
            let threads = g.range(1, 4);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let log = tracer.thread_log(&format!("worker-{t}"));
                    // Each thread runs an independent random program drawn
                    // from the shared deterministic stream.
                    let ops = g.range(1, 30);
                    let seed = g.u64();
                    scope.spawn(move || {
                        let mut g = p2o_util::check::Gen::new(seed);
                        let mut stack: Vec<Span<'_>> = Vec::new();
                        for _ in 0..ops {
                            if stack.is_empty() || g.bool() {
                                let depth = stack.len();
                                let span = log.span(&format!("level-{depth}"));
                                if g.bool() {
                                    span.arg("depth", depth);
                                }
                                stack.push(span);
                            } else {
                                stack.pop();
                            }
                        }
                        // Close innermost-first (a plain Vec drop would
                        // close front-to-back, i.e. parents before
                        // children).
                        while stack.pop().is_some() {}
                    });
                }
            });
            let trace = tracer.drain();
            assert_eq!(trace.threads.len(), threads);
            assert_trace_invariants(&trace);
            // The Chrome rendering must parse and keep one B and one E per
            // span plus one metadata row per thread.
            let doc = Json::parse(&trace.to_chrome_json_string()).expect("valid JSON");
            let events = doc.as_array().expect("array");
            assert_eq!(events.len(), trace.event_count() + threads);
        });
    }
}
