//! Live-serving runtime primitives: rolling-window latency and a request
//! flight recorder.
//!
//! The crate root's [`Histogram`](crate::Histogram) is cumulative since
//! boot — perfect for a batch run's final report, useless for answering
//! "what is the p99 *right now*" on a server that has been up for a week.
//! This module adds the two structures a long-lived serve path needs,
//! both recordable from any number of threads without a lock:
//!
//! - [`WindowedHistogram`] — a ring of fixed-duration slots, each holding
//!   the cells of one cumulative histogram. Recording picks the slot for the
//!   current time and does a handful of relaxed atomic adds; reading
//!   merges the last N slots into p50/p90/p99/max plus a request rate
//!   over 10s/60s/5m windows. Slots are recycled in place with an epoch
//!   CAS — the winner clears the slot *before* publishing the new epoch,
//!   so a rollover can drop at most the few samples that race the clear
//!   (counted in [`WindowedHistogram::rollover_drops`]) and can never
//!   corrupt a neighboring slot.
//! - [`FlightRecorder`] — a fixed-capacity ring of per-request records
//!   (id, endpoint, status, latency, snapshot serial, address family,
//!   truncated target). Each slot is a seqlock over plain `AtomicU64`
//!   words with a lap-stamped sequence: a writer CASes the sequence to
//!   the odd stamp for its ring lap, stores the payload words, then
//!   publishes the even stamp; a drain copies a slot and discards the
//!   copy unless the stamp matches that position's lap before *and*
//!   after — so draining never stops recording and a torn record is
//!   *detected*, not returned. A "slowest N" leaderboard rides along
//!   behind an atomic latency floor, so the common case (request is not
//!   a new tail record) never takes its mutex.
//!
//! Both structures accept an explicit nanosecond timestamp
//! (`record_at` / `window_at`) so tests can pin rollover behavior
//! deterministically; the `Instant`-based wrappers are what servers use.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use p2o_util::json::Json;

use crate::{midpoint_quantile, HistogramCells, BUCKETS};

/// Duration of one ring slot, in seconds.
pub const SLOT_SECS: u64 = 5;
const SLOT_NS: u64 = SLOT_SECS * 1_000_000_000;
/// Ring length: the longest window (5 m = 60 slots) plus the active slot.
const SLOTS: usize = 61;

/// The reporting windows every [`WindowedHistogram`] serves, as
/// `(label, seconds)` pairs: 10 s, 60 s, 5 m.
pub const WINDOWS: &[(&str, u64)] = &[("10s", 10), ("60s", 60), ("5m", 300)];

/// One ring slot: the cumulative histogram's cells plus the epoch (slot
/// period index) they currently hold samples for.
struct Slot {
    /// Published epoch: samples in this slot belong to this period.
    epoch: AtomicU64,
    /// Highest epoch any thread has claimed this slot for; the claim
    /// winner clears the cells and then publishes `epoch`.
    claim: AtomicU64,
    cells: HistogramCells,
}

impl Slot {
    fn new(epoch: u64) -> Slot {
        Slot {
            epoch: AtomicU64::new(epoch),
            claim: AtomicU64::new(epoch),
            cells: HistogramCells::new(),
        }
    }
}

struct WindowedInner {
    epoch0: Instant,
    slots: Vec<Slot>,
    rollover_drops: AtomicU64,
}

/// A rolling-window histogram: a ring of [`SLOT_SECS`]-long slots over
/// the crate's power-of-two value buckets.
///
/// Recording is lock-free (relaxed atomic adds into the current slot;
/// an epoch CAS only at slot rollover). Reading merges the newest slots
/// covering the requested window into a [`WindowSnapshot`].
#[derive(Clone)]
pub struct WindowedHistogram {
    inner: Arc<WindowedInner>,
}

impl Default for WindowedHistogram {
    fn default() -> Self {
        WindowedHistogram::new()
    }
}

impl std::fmt::Debug for WindowedHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedHistogram")
            .field("slots", &SLOTS)
            .field("slot_secs", &SLOT_SECS)
            .finish()
    }
}

impl WindowedHistogram {
    /// A fresh histogram whose time zero is now.
    pub fn new() -> WindowedHistogram {
        WindowedHistogram {
            inner: Arc::new(WindowedInner {
                epoch0: Instant::now(),
                // Slot i starts owning epoch i, so the very first pass
                // around the ring needs no reset and a reader never sees
                // a slot published for an epoch that has not happened.
                slots: (0..SLOTS as u64).map(Slot::new).collect(),
                rollover_drops: AtomicU64::new(0),
            }),
        }
    }

    /// Nanoseconds since this histogram's time zero.
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.epoch0.elapsed().as_nanos() as u64
    }

    /// Records one sample at the current time.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_at(value, self.elapsed_ns());
    }

    /// Records one sample at an explicit time (nanoseconds since time
    /// zero). Tests use this to pin rollover behavior.
    pub fn record_at(&self, value: u64, now_ns: u64) {
        let e = now_ns / SLOT_NS;
        let slot = &self.inner.slots[(e % SLOTS as u64) as usize];
        let cur = slot.epoch.load(Ordering::Acquire);
        if cur == e {
            slot.cells.record(value);
            return;
        }
        if cur > e {
            // A stale recorder: the ring already lapped this period.
            self.inner.rollover_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // The slot still holds a lapped period. Race to recycle it: the
        // claim winner clears the cells, then publishes the epoch.
        let claim = slot.claim.load(Ordering::Acquire);
        if claim < e
            && slot
                .claim
                .compare_exchange(claim, e, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            slot.cells.clear();
            slot.epoch.store(e, Ordering::Release);
            slot.cells.record(value);
            return;
        }
        // Another thread is mid-reset; give it a short moment.
        for _ in 0..64 {
            if slot.epoch.load(Ordering::Acquire) >= e {
                if slot.epoch.load(Ordering::Acquire) == e {
                    slot.cells.record(value);
                } else {
                    self.inner.rollover_drops.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            std::hint::spin_loop();
        }
        // Still resetting: drop the sample rather than block or tear.
        self.inner.rollover_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples dropped at slot rollover (racing a concurrent recycle).
    pub fn rollover_drops(&self) -> u64 {
        self.inner.rollover_drops.load(Ordering::Relaxed)
    }

    /// The merged view of the last `window_secs` seconds, ending now.
    pub fn window(&self, window_secs: u64) -> WindowSnapshot {
        self.window_at(window_secs, self.elapsed_ns())
    }

    /// The merged view of the last `window_secs` seconds ending at an
    /// explicit time (nanoseconds since time zero).
    pub fn window_at(&self, window_secs: u64, now_ns: u64) -> WindowSnapshot {
        let cur = now_ns / SLOT_NS;
        let span_slots = window_secs.div_ceil(SLOT_SECS).clamp(1, SLOTS as u64 - 1);
        let lo = cur.saturating_sub(span_slots - 1);
        let mut buckets = vec![0u64; BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for slot in &self.inner.slots {
            let epoch = slot.epoch.load(Ordering::Acquire);
            if epoch < lo || epoch > cur {
                continue;
            }
            // Counter loads are relaxed: a reader racing a writer may see
            // a count that is one ahead of the buckets (or vice versa);
            // quantiles tolerate that by construction.
            let cells = &slot.cells;
            count += cells.count.load(Ordering::Relaxed);
            sum += cells.sum.load(Ordering::Relaxed);
            max = max.max(cells.max.load(Ordering::Relaxed));
            for (acc, b) in buckets.iter_mut().zip(&cells.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        // Rate denominator: the window, clipped to how long the histogram
        // has actually existed, so a 10-second-old server reports a
        // meaningful 60 s rate instead of a 6× underestimate.
        let elapsed_s = now_ns as f64 / 1e9;
        let covered_s = (window_secs as f64).min(elapsed_s).max(1e-9);
        WindowSnapshot {
            window_secs,
            count,
            sum,
            max,
            rate_per_sec: count as f64 / covered_s,
            buckets,
        }
    }
}

/// The merged samples of one reporting window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// The window length this snapshot merged, in seconds.
    pub window_secs: u64,
    /// Samples inside the window.
    pub count: u64,
    /// Sum of the samples inside the window.
    pub sum: u64,
    /// Largest sample inside the window (0 when empty).
    pub max: u64,
    /// Samples per second over the window (denominator clipped to the
    /// histogram's age while it is younger than the window).
    pub rate_per_sec: f64,
    /// Merged power-of-two bucket counts.
    pub buckets: Vec<u64>,
}

impl WindowSnapshot {
    /// Approximate quantile `q` in `[0, 1]` from bucket midpoints (same
    /// estimator as [`HistogramReport::quantile`](crate::HistogramReport::quantile)).
    pub fn quantile(&self, q: f64) -> u64 {
        midpoint_quantile(&self.buckets, self.count, self.max, q)
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// How many bytes of the request target a flight record retains.
pub const FLIGHT_TARGET_BYTES: usize = 48;
/// How many bytes of the endpoint label a flight record retains.
pub const FLIGHT_ENDPOINT_BYTES: usize = 16;
/// Payload words per slot: id, ts, latency, serial, packed scalars,
/// 2 endpoint words, 6 target words.
const FLIGHT_WORDS: usize = 5 + FLIGHT_ENDPOINT_BYTES / 8 + FLIGHT_TARGET_BYTES / 8;

/// One request as the flight recorder stores it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// The server-assigned monotonic request id.
    pub id: u64,
    /// Nanoseconds since the recorder was created.
    pub ts_ns: u64,
    /// Endpoint label (truncated to [`FLIGHT_ENDPOINT_BYTES`]).
    pub endpoint: String,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Wall-clock service latency in nanoseconds.
    pub latency_ns: u64,
    /// Snapshot serial the response was built from.
    pub serial: u64,
    /// Address family of the queried prefix: `'4'`, `'6'`, or `'-'`.
    pub family: char,
    /// Request target (truncated to [`FLIGHT_TARGET_BYTES`]).
    pub target: String,
}

impl FlightRecord {
    /// The record as a self-describing JSON object.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("id", self.id);
        o.set("ts_ns", self.ts_ns);
        o.set("endpoint", self.endpoint.as_str());
        o.set("status", self.status as u64);
        o.set("latency_ns", self.latency_ns);
        o.set("serial", self.serial);
        o.set("family", self.family.to_string());
        o.set("target", self.target.as_str());
        o
    }
}

/// Borrowed request fields handed to [`FlightRecorder::record`]; the
/// recorder packs them into fixed-width slot words without allocating.
#[derive(Debug, Clone, Copy)]
pub struct FlightSample<'a> {
    /// Monotonic request id (0 is reserved for "empty slot").
    pub id: u64,
    /// Endpoint label, e.g. `prefix`.
    pub endpoint: &'a str,
    /// HTTP status.
    pub status: u16,
    /// Service latency in nanoseconds.
    pub latency_ns: u64,
    /// Snapshot serial.
    pub serial: u64,
    /// Address family: `'4'`, `'6'`, or `'-'`.
    pub family: char,
    /// Request target.
    pub target: &'a str,
}

/// One seqlock slot. `seq` is lap-stamped: a slot last written for ring
/// position `pos` holds `2 * (pos / capacity) + 2`; it is odd while a
/// writer is mid-store. Stamping the lap (instead of a plain counter)
/// means two writers lapping onto the same slot cannot both "complete"
/// and leave interleaved words under a stable even sequence — the second
/// writer's CAS fails and the record is dropped (and counted) instead.
struct FlightSlot {
    seq: AtomicU64,
    words: [AtomicU64; FLIGHT_WORDS],
}

impl FlightSlot {
    fn new() -> FlightSlot {
        FlightSlot {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; FLIGHT_WORDS],
        }
    }
}

struct FlightInner {
    epoch0: Instant,
    slots: Vec<FlightSlot>,
    /// Total records ever written; `head % slots.len()` is the next slot.
    head: AtomicU64,
    /// Records dropped because a lapped writer still held the slot.
    write_drops: AtomicU64,
    /// Smallest latency currently on a *full* leaderboard (0 while the
    /// board has room) — the lock-free admission check.
    slow_floor: AtomicU64,
    slow_cap: usize,
    /// Sorted descending by latency; touched only when a record beats
    /// the floor.
    slow: Mutex<Vec<FlightRecord>>,
}

/// A fixed-capacity, lock-free ring of per-request [`FlightRecord`]s
/// with a "slowest N" leaderboard.
///
/// See the module docs for the seqlock discipline. Draining
/// ([`recent`](FlightRecorder::recent), [`slowest`](FlightRecorder::slowest))
/// never blocks recording.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` requests and the
    /// `slow_cap` slowest ones.
    pub fn new(capacity: usize, slow_cap: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                epoch0: Instant::now(),
                slots: (0..capacity.max(1)).map(|_| FlightSlot::new()).collect(),
                head: AtomicU64::new(0),
                write_drops: AtomicU64::new(0),
                slow_floor: AtomicU64::new(0),
                slow_cap: slow_cap.max(1),
                slow: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Total records ever written (not capped by capacity).
    pub fn recorded(&self) -> u64 {
        self.inner.head.load(Ordering::Relaxed)
    }

    /// Records currently held in the ring.
    pub fn occupied(&self) -> usize {
        (self.recorded() as usize).min(self.capacity())
    }

    /// Records one request. Lock-free except when the latency beats the
    /// current slowest-N floor (then one short leaderboard lock).
    pub fn record(&self, sample: FlightSample<'_>) {
        let ts_ns = self.inner.epoch0.elapsed().as_nanos() as u64;
        let inner = &self.inner;
        let cap = inner.slots.len() as u64;
        let pos = inner.head.fetch_add(1, Ordering::AcqRel);
        let slot = &inner.slots[(pos % cap) as usize];
        // Claim the slot for this lap: CAS any *older even* stamp (a
        // completed or skipped earlier lap) to this lap's odd stamp. An
        // odd stamp means a lapped writer is *still* mid-store, and a
        // newer stamp means a later lap already claimed the slot — in
        // both cases drop the record rather than interleave words (only
        // possible when the ring is overrun faster than one store).
        let prev = 2 * (pos / cap);
        let mut cur = slot.seq.load(Ordering::Acquire);
        loop {
            if cur % 2 == 1 || cur > prev {
                inner.write_drops.fetch_add(1, Ordering::Relaxed);
                return;
            }
            match slot
                .seq
                .compare_exchange(cur, prev + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let ep = sample.endpoint.as_bytes();
        let ep_len = ep.len().min(FLIGHT_ENDPOINT_BYTES);
        let tg = sample.target.as_bytes();
        let tg_len = truncate_len(tg, FLIGHT_TARGET_BYTES);
        let packed = (sample.status as u64)
            | ((sample.family as u32 as u64 & 0xFF) << 16)
            | ((ep_len as u64) << 24)
            | ((tg_len as u64) << 32);
        let w = &slot.words;
        w[0].store(sample.id, Ordering::Relaxed);
        w[1].store(ts_ns, Ordering::Relaxed);
        w[2].store(sample.latency_ns, Ordering::Relaxed);
        w[3].store(sample.serial, Ordering::Relaxed);
        w[4].store(packed, Ordering::Relaxed);
        store_bytes(&w[5..5 + FLIGHT_ENDPOINT_BYTES / 8], &ep[..ep_len]);
        store_bytes(&w[5 + FLIGHT_ENDPOINT_BYTES / 8..], &tg[..tg_len]);
        slot.seq.store(prev + 2, Ordering::Release);

        // Slowest-N admission: one relaxed load in the common case.
        let floor = inner.slow_floor.load(Ordering::Relaxed);
        if sample.latency_ns > floor || floor == 0 {
            let mut slow = inner.slow.lock().expect("flight slow lock");
            if slow.len() < inner.slow_cap
                || slow
                    .last()
                    .is_some_and(|r| r.latency_ns < sample.latency_ns)
            {
                let rec = FlightRecord {
                    id: sample.id,
                    ts_ns,
                    endpoint: sample.endpoint[..ep_len].to_string(),
                    status: sample.status,
                    latency_ns: sample.latency_ns,
                    serial: sample.serial,
                    family: sample.family,
                    target: String::from_utf8_lossy(&tg[..tg_len]).into_owned(),
                };
                let at = slow
                    .binary_search_by(|r: &FlightRecord| {
                        rec.latency_ns.cmp(&r.latency_ns).then(r.id.cmp(&rec.id))
                    })
                    .unwrap_or_else(|i| i);
                slow.insert(at, rec);
                slow.truncate(inner.slow_cap);
                if slow.len() == inner.slow_cap {
                    inner
                        .slow_floor
                        .store(slow.last().map_or(0, |r| r.latency_ns), Ordering::Relaxed);
                }
            }
        }
    }

    /// The most recent `n` consistent records, oldest first. Slots a
    /// writer is mid-store in (or that got lapped during the copy) are
    /// skipped, never returned torn.
    pub fn recent(&self, n: usize) -> Vec<FlightRecord> {
        let inner = &self.inner;
        let cap = inner.slots.len() as u64;
        let head = inner.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(cap.min(n as u64));
        let mut out = Vec::with_capacity((head - lo) as usize);
        for pos in lo..head {
            let slot = &inner.slots[(pos % cap) as usize];
            // A complete write for this position carries this lap stamp;
            // anything else means mid-store, dropped, or already lapped.
            let want = 2 * (pos / cap) + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let words: Vec<u64> = slot
                .words
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect();
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // torn: a writer moved underneath the copy
            }
            if let Some(rec) = decode_record(&words) {
                out.push(rec);
            }
        }
        out
    }

    /// Records dropped because the ring lapped onto a slot whose previous
    /// writer was still mid-store (only possible under extreme overrun).
    pub fn write_drops(&self) -> u64 {
        self.inner.write_drops.load(Ordering::Relaxed)
    }

    /// The slowest-N leaderboard, slowest first.
    pub fn slowest(&self) -> Vec<FlightRecord> {
        self.inner.slow.lock().expect("flight slow lock").clone()
    }
}

/// Packs up to 8 bytes per word, little-endian, zero-padded.
fn store_bytes(words: &[AtomicU64], bytes: &[u8]) {
    for (i, word) in words.iter().enumerate() {
        let mut v = [0u8; 8];
        let lo = i * 8;
        if lo < bytes.len() {
            let hi = (lo + 8).min(bytes.len());
            v[..hi - lo].copy_from_slice(&bytes[lo..hi]);
        }
        word.store(u64::from_le_bytes(v), Ordering::Relaxed);
    }
}

fn load_bytes(words: &[u64], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for (i, word) in words.iter().enumerate() {
        let bytes = word.to_le_bytes();
        let lo = i * 8;
        if lo >= len {
            break;
        }
        out.extend_from_slice(&bytes[..(len - lo).min(8)]);
    }
    out
}

/// The longest prefix of `bytes` ≤ `max` that does not split a UTF-8
/// character (targets are user-controlled strings).
fn truncate_len(bytes: &[u8], max: usize) -> usize {
    if bytes.len() <= max {
        return bytes.len();
    }
    let mut len = max;
    while len > 0 && bytes[len] & 0xC0 == 0x80 {
        len -= 1;
    }
    len
}

fn decode_record(words: &[u64]) -> Option<FlightRecord> {
    let id = words[0];
    if id == 0 {
        return None; // never-written slot
    }
    let packed = words[4];
    let status = (packed & 0xFFFF) as u16;
    let family = char::from_u32((packed >> 16) as u32 & 0xFF).unwrap_or('-');
    let ep_len = ((packed >> 24) & 0xFF) as usize;
    let tg_len = ((packed >> 32) & 0xFF) as usize;
    if ep_len > FLIGHT_ENDPOINT_BYTES || tg_len > FLIGHT_TARGET_BYTES {
        return None; // torn beyond seqlock detection; refuse to decode
    }
    let ep_words = FLIGHT_ENDPOINT_BYTES / 8;
    Some(FlightRecord {
        id,
        ts_ns: words[1],
        latency_ns: words[2],
        serial: words[3],
        status,
        family,
        endpoint: String::from_utf8_lossy(&load_bytes(&words[5..5 + ep_words], ep_len))
            .into_owned(),
        target: String::from_utf8_lossy(&load_bytes(&words[5 + ep_words..], tg_len)).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: u64 = 1_000_000_000;

    #[test]
    fn empty_window_reports_zeros() {
        let w = WindowedHistogram::new();
        for &(_, secs) in WINDOWS {
            let snap = w.window_at(secs, 0);
            assert_eq!(snap.count, 0);
            assert_eq!(snap.max, 0);
            assert_eq!(snap.quantile(0.5), 0);
            assert_eq!(snap.quantile(0.0), 0);
            assert_eq!(snap.quantile(1.0), 0);
            assert_eq!(snap.rate_per_sec, 0.0);
            assert_eq!(snap.mean(), 0.0);
        }
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let w = WindowedHistogram::new();
        w.record_at(1000, 0);
        let snap = w.window_at(60, NS);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.quantile(0.0), snap.quantile(1.0));
        // 1000 has bit length 10; the bucket midpoint is 512 + 256.
        assert_eq!(snap.quantile(0.5), 768);
        // Rate denominator clips to the histogram's 1 s age.
        assert!(
            (snap.rate_per_sec - 1.0).abs() < 1e-9,
            "{}",
            snap.rate_per_sec
        );
    }

    #[test]
    fn windows_separate_old_from_new_samples() {
        let w = WindowedHistogram::new();
        // 100 samples in the first slot, 5 samples two minutes later.
        for _ in 0..100 {
            w.record_at(100, 1);
        }
        for _ in 0..5 {
            w.record_at(1_000_000, 120 * NS);
        }
        let now = 121 * NS;
        let w10 = w.window_at(10, now);
        assert_eq!(w10.count, 5, "10 s window must exclude the old burst");
        let w5m = w.window_at(300, now);
        assert_eq!(w5m.count, 105, "5 m window sees both");
        assert!(w5m.max >= 1_000_000);
    }

    #[test]
    fn rollover_at_slot_boundary_recycles_lapped_slots() {
        let w = WindowedHistogram::new();
        w.record_at(7, 0);
        assert_eq!(w.window_at(10, 0).count, 1);
        // One full ring later the same slot index must recycle: the old
        // sample is gone, the new one is present, neighbors untouched.
        let lap = SLOTS as u64 * SLOT_NS;
        w.record_at(9, lap);
        let snap = w.window_at(10, lap);
        assert_eq!(snap.count, 1, "recycled slot holds only the new sample");
        assert_eq!(snap.max, 9);
        // The old epoch's sample is out of every window now.
        assert_eq!(w.window_at(300, lap + 301 * NS).count, 0);
        assert_eq!(w.rollover_drops(), 0);
        // A stale recorder (timestamp from a lapped period) is dropped,
        // not misfiled into the current period.
        w.record_at(1, 0);
        assert_eq!(w.rollover_drops(), 1);
        assert_eq!(w.window_at(10, lap).count, 1);
    }

    #[test]
    fn boundary_sample_lands_in_the_new_slot() {
        let w = WindowedHistogram::new();
        // Exactly at the slot boundary: epoch = 1, not 0.
        w.record_at(3, SLOT_NS);
        assert_eq!(w.window_at(SLOT_SECS, SLOT_NS).count, 1);
        // A window ending just before the boundary must not see it.
        assert_eq!(w.window_at(SLOT_SECS, SLOT_NS - 1).count, 0);
    }

    #[test]
    fn concurrent_record_while_snapshot_never_tears_totals() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 20_000;
        let w = WindowedHistogram::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let w = w.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        // All into the same slot: contention on one slot's
                        // atomics while the main thread snapshots.
                        w.record_at(t * PER_THREAD + i + 1, 1);
                    }
                });
            }
            // Snapshot continuously while writers run: counts must be
            // monotone and internally plausible (never above the final
            // total, bucket sum never above count by more than the
            // documented one-sample read skew per writer).
            let mut last = 0u64;
            for _ in 0..50 {
                let snap = w.window_at(60, NS);
                assert!(snap.count >= last, "window count went backwards");
                assert!(snap.count <= THREADS * PER_THREAD);
                last = snap.count;
            }
        });
        let snap = w.window_at(60, NS);
        assert_eq!(snap.count, THREADS * PER_THREAD);
        assert_eq!(snap.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
        assert_eq!(snap.max, THREADS * PER_THREAD);
        assert_eq!(w.rollover_drops(), 0);
    }

    fn sample(id: u64, latency: u64) -> FlightSample<'static> {
        FlightSample {
            id,
            endpoint: "prefix",
            status: 200,
            latency_ns: latency,
            serial: 3,
            family: '4',
            target: "/prefix/10.0.0.0%2f8",
        }
    }

    #[test]
    fn flight_ring_keeps_the_newest_records() {
        let fr = FlightRecorder::new(8, 4);
        for id in 1..=20u64 {
            fr.record(sample(id, id * 10));
        }
        assert_eq!(fr.recorded(), 20);
        assert_eq!(fr.occupied(), 8);
        let recent = fr.recent(8);
        assert_eq!(
            recent.iter().map(|r| r.id).collect::<Vec<_>>(),
            (13..=20).collect::<Vec<_>>(),
            "ring holds the newest 8, oldest first"
        );
        let r = &recent[0];
        assert_eq!(r.endpoint, "prefix");
        assert_eq!(r.status, 200);
        assert_eq!(r.family, '4');
        assert_eq!(r.target, "/prefix/10.0.0.0%2f8");
        assert_eq!(r.serial, 3);
        // recent(n) honors n.
        assert_eq!(fr.recent(3).len(), 3);
        assert_eq!(fr.recent(3)[0].id, 18);
    }

    #[test]
    fn slowest_leaderboard_is_sorted_and_capped() {
        let fr = FlightRecorder::new(64, 3);
        // Latencies 1..=10 in shuffled order.
        for (id, lat) in [5u64, 2, 9, 1, 7, 10, 3, 8, 4, 6].iter().enumerate() {
            fr.record(sample(id as u64 + 1, *lat));
        }
        let slow = fr.slowest();
        assert_eq!(
            slow.iter().map(|r| r.latency_ns).collect::<Vec<_>>(),
            vec![10, 9, 8]
        );
        // A fast request after the board is full never displaces a slow one.
        fr.record(sample(99, 1));
        assert_eq!(fr.slowest().len(), 3);
        assert_eq!(fr.slowest()[2].latency_ns, 8);
    }

    #[test]
    fn truncation_respects_utf8_and_lengths() {
        let fr = FlightRecorder::new(4, 2);
        let long_target = format!("/prefix/{}", "é".repeat(40));
        fr.record(FlightSample {
            id: 1,
            endpoint: "debug.requests.extremely.long.label",
            status: 404,
            latency_ns: 5,
            serial: 0,
            family: '-',
            target: &long_target,
        });
        let rec = &fr.recent(1)[0];
        assert!(rec.endpoint.len() <= FLIGHT_ENDPOINT_BYTES);
        assert!(rec.target.len() <= FLIGHT_TARGET_BYTES);
        assert!(rec
            .target
            .chars()
            .all(|c| c == '/' || c.is_alphanumeric() || c == 'é'));
        assert_eq!(rec.status, 404);
        assert_eq!(rec.family, '-');
        let json = rec.to_json().to_string_pretty();
        assert!(p2o_util::Json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn drain_while_recording_returns_only_consistent_records() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 10_000;
        let fr = FlightRecorder::new(128, 8);
        let next_id = Arc::new(AtomicU64::new(1));
        std::thread::scope(|s| {
            for _ in 0..WRITERS {
                let fr = fr.clone();
                let next_id = Arc::clone(&next_id);
                s.spawn(move || {
                    for _ in 0..PER_WRITER {
                        let id = next_id.fetch_add(1, Ordering::Relaxed);
                        fr.record(sample(id, id % 1000 + 1));
                    }
                });
            }
            // Drain continuously while writers hammer the ring: every
            // record that comes out must be internally consistent.
            for _ in 0..200 {
                for rec in fr.recent(128) {
                    assert!(rec.id >= 1 && rec.id <= WRITERS * PER_WRITER);
                    assert_eq!(rec.endpoint, "prefix");
                    assert_eq!(rec.status, 200);
                    assert_eq!(rec.latency_ns, rec.id % 1000 + 1);
                    assert_eq!(rec.target, "/prefix/10.0.0.0%2f8");
                }
            }
        });
        assert_eq!(fr.recorded(), WRITERS * PER_WRITER);
        // Quiescent drain: every slot whose write completed decodes, and
        // ids are distinct. (A slot whose last claim was dropped — the
        // ring lapped a mid-store writer — stays at its previous stamp
        // and is skipped.)
        let recent = fr.recent(128);
        // Only a slot whose *last* claim was dropped can be missing, so
        // the drop counter bounds the gap.
        assert!(recent.len() as u64 + fr.write_drops() >= 128);
        let mut ids: Vec<u64> = recent.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), recent.len());
        let slow = fr.slowest();
        assert_eq!(slow.len(), 8);
        assert!(slow.windows(2).all(|w| w[0].latency_ns >= w[1].latency_ns));
    }
}
