//! The served snapshot: one immutable, query-ready view of a built
//! artifact directory, and the swap cell that readers go through.
//!
//! A [`Snapshot`] serves exactly one representation: a validated
//! [`FrozenDataset`] — fixed-width records, flattened LPM span tables, and
//! every record's decision trace, stored at freeze time as its steps. It
//! comes from one of two places. [`Snapshot::from_frozen`] attaches the
//! directory's `world.p2ob` when that artifact is fresh;
//! [`Snapshot::freeze_in_memory`] runs the pipeline over a full load and
//! freezes the result at boot, through the same
//! [`prefix2org::freeze_verified`] call `build` uses before it writes the
//! artifact. Either way a query is answered by slicing
//! the arena: no filesystem access, no pipeline stage, and the same bytes
//! for the same question no matter how the snapshot was obtained.
//!
//! [`SnapshotCell`] is the reload point. The workspace has no `arc-swap`
//! crate, so the lock-free read path is built from two primitives: a
//! generation counter (`AtomicU64`) and a mutex-guarded `Arc` that only
//! swaps and cache-misses take. Each connection holds a [`SnapshotReader`]
//! caching `(generation, Arc)`; the hot path is a single `Acquire` load —
//! a lock is taken only on the first read after a swap. The cell counts
//! those slow-path acquisitions so the stress test can assert the read
//! path stayed lock-free between reloads.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use p2o_net::Prefix;
use p2o_util::json::{write_escaped, write_u32_array, write_u64};
use prefix2org::{
    freeze_verified, to_jsonl, ExceptionSet, ExportBytes, FrozenDataset, Pipeline, PipelineInputs,
    LPM_LANES,
};

/// One immutable, query-ready view of a built artifact directory: a
/// validated frozen dataset, pinned for the snapshot's lifetime behind the
/// cell's `Arc`. The JSONL text — only needed by `/dump`, not by lookups —
/// is thawed lazily on first use.
pub struct Snapshot {
    /// The artifact directory this snapshot was loaded from.
    pub dir: PathBuf,
    /// Monotonic snapshot serial (0 for the boot snapshot; +1 per reload).
    pub serial: u64,
    /// Content digest of the JSONL export — the identity readers see.
    /// Identical whether the dataset was attached or frozen in memory.
    pub digest: String,
    /// How long the load that produced this snapshot took; zero until
    /// the loader records it.
    pub timing: LoadTiming,
    frozen: FrozenDataset,
    /// Whether `frozen` was attached from the on-disk `world.p2ob` rather
    /// than frozen in memory at load.
    from_artifact: bool,
    jsonl: OnceLock<String>,
}

/// How long a snapshot's load took, as its loader measured it; `/status`
/// reports both for the snapshot being served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadTiming {
    /// The whole load: the integrity audit, then the frozen dataset
    /// attached or frozen in memory.
    pub load: Duration,
    /// The part of `load` the integrity pass took.
    pub integrity: Duration,
}

impl Snapshot {
    /// Wraps a frozen dataset already loaded and validated from the
    /// directory's `world.p2ob`. No pipeline stage runs; the arena buffer
    /// is pinned for the snapshot's lifetime and lookups are answered
    /// straight out of it.
    pub fn from_frozen(dir: PathBuf, serial: u64, frozen: FrozenDataset) -> Snapshot {
        Self::attach(dir, serial, frozen, true)
    }

    /// Runs the pipeline over `inputs`, applies the local operator
    /// `exceptions`, and freezes the dataset in memory with
    /// [`freeze_verified`] — the freeze, audit and thaw check `build` runs
    /// before it writes `world.p2ob`, here against the export rendered in
    /// memory. Nothing checks an in-memory freeze for staleness, so its
    /// inputs digest is stamped 0. The parsed inputs are not kept: the
    /// snapshot holds only the payload.
    pub fn freeze_in_memory(
        dir: PathBuf,
        serial: u64,
        inputs: &PipelineInputs<'_>,
        exceptions: &ExceptionSet,
        threads: usize,
    ) -> Result<Snapshot, String> {
        let (mut dataset, merge_edges) =
            Pipeline::with_threads(threads.max(1)).dataset_with_evidence(inputs, None);
        exceptions.apply(&mut dataset);
        let jsonl = to_jsonl(&dataset);
        let export = ExportBytes::in_memory(&jsonl);
        let frozen = freeze_verified(inputs.routes, &dataset, &merge_edges, 0, export, None)?;
        Ok(Self::attach(dir, serial, frozen, false))
    }

    fn attach(dir: PathBuf, serial: u64, frozen: FrozenDataset, from_artifact: bool) -> Snapshot {
        Snapshot {
            dir,
            serial,
            digest: frozen.digest_short(),
            timing: LoadTiming::default(),
            frozen,
            from_artifact,
            jsonl: OnceLock::new(),
        }
    }

    /// Whether this snapshot attached the directory's on-disk artifact
    /// (`false`: the dataset was frozen in memory at load).
    pub fn from_artifact(&self) -> bool {
        self.from_artifact
    }

    /// Number of mapped prefixes.
    pub fn len(&self) -> usize {
        self.frozen.len()
    }

    /// Whether the snapshot maps no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical JSONL export, thawed (and cached) on first use — the
    /// digests are guaranteed equal by the freeze-time thaw check.
    pub fn jsonl(&self) -> &str {
        self.jsonl.get_or_init(|| self.frozen.to_jsonl())
    }

    /// The served frozen dataset (reload deltas compare two of them).
    pub fn frozen(&self) -> &FrozenDataset {
        &self.frozen
    }

    /// ROV state tallies of the served dataset: `[valid, invalid,
    /// not_found]`.
    pub fn rov_tallies(&self) -> [u64; 3] {
        self.frozen.rov_tallies()
    }

    /// How many served records carry a local operator override.
    pub fn exception_count(&self) -> u64 {
        self.frozen.exception_count()
    }

    /// Answers one lookup: longest-match `query` against the dataset, or
    /// `None` when no routed prefix in the snapshot covers the query. The
    /// [`Answer`] renders the full response object `{query, matched,
    /// serial, snapshot, record, rov, origins, moas, provenance}` — plus
    /// `rule: "local_exception"` when the matched attribution was
    /// overridden by an operator rule — when it is written.
    ///
    /// One provenance rule holds for every query: `provenance` is the
    /// *matched record's* trace, stored at freeze time. That is what
    /// `prefix2org explain` prints for the query (after its `covered by`
    /// note when the query is strictly more specific). A prefix a `filter`
    /// rule removed is no record, so a query for it is answered like any
    /// other: by the record covering it, if one does.
    pub fn lookup(&self, query: &Prefix) -> Option<Answer<'_>> {
        let (matched, idx) = self.frozen.lookup(query)?;
        Some(Answer {
            snapshot: self,
            query: *query,
            matched,
            idx,
        })
    }

    /// [`lookup`](Self::lookup) for every query of `queries`, into the
    /// same position of `out`, for a group of answers that is written
    /// next. Each pass of up to [`LPM_LANES`] queries is matched by one
    /// lockstep search per address family
    /// ([`FrozenDataset::lookup_many`]), and then every answer it found is
    /// read ahead ([`FrozenDataset::touch_answers`]): the answers' cache
    /// misses overlap, and their writes find the lines cached.
    ///
    /// # Panics
    ///
    /// If `out` is not as long as `queries`.
    pub fn lookup_many<'s>(&'s self, queries: &[Prefix], out: &mut [Option<Answer<'s>>]) {
        assert_eq!(queries.len(), out.len(), "one answer slot per query");
        for (queries, out) in queries.chunks(LPM_LANES).zip(out.chunks_mut(LPM_LANES)) {
            let mut hits = [None; LPM_LANES];
            let hits = &mut hits[..queries.len()];
            self.frozen.lookup_many(queries, hits);
            let (mut found, mut n) = ([0; LPM_LANES], 0);
            for ((slot, query), hit) in out.iter_mut().zip(queries).zip(hits.iter()) {
                *slot = hit.map(|(matched, idx)| {
                    found[n] = idx;
                    n += 1;
                    Answer {
                        snapshot: self,
                        query: *query,
                        matched,
                        idx,
                    }
                });
            }
            self.frozen.touch_answers(&found[..n]);
        }
    }
}

/// One `/prefix` answer: the query, the record that covers it, and the
/// snapshot that answered. Nothing is rendered until it is written, and
/// then [`write_to`](Answer::write_to) (or `Display`) writes the object
/// straight from the frozen arena: no record is thawed and no `Json` value
/// is built.
#[derive(Clone, Copy)]
pub struct Answer<'a> {
    snapshot: &'a Snapshot,
    query: Prefix,
    matched: Prefix,
    idx: u32,
}

impl Answer<'_> {
    /// Writes the answer's JSON object (no trailing newline) into `out`.
    pub fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let snap = self.snapshot;
        let (frozen, idx) = (&snap.frozen, self.idx);
        out.write_str("{\"query\":\"")?;
        self.query.write_to(out)?;
        out.write_str("\",\"matched\":\"")?;
        self.matched.write_to(out)?;
        out.write_str("\",\"serial\":")?;
        write_u64(out, snap.serial)?;
        out.write_str(",\"snapshot\":")?;
        write_escaped(out, &snap.digest)?;
        out.write_str(",\"record\":")?;
        frozen.write_listing1(idx, out)?;
        out.write_str(",\"rov\":\"")?;
        out.write_str(frozen.rov(idx).as_str())?;
        out.write_char('"')?;
        if frozen.has_local_exception(idx) {
            out.write_str(",\"rule\":\"local_exception\"")?;
        }
        out.write_str(",\"origins\":")?;
        let origins = frozen.origins(idx);
        let moas = origins.len() > 1;
        write_u32_array(out, origins)?;
        out.write_str(if moas {
            ",\"moas\":true,\"provenance\":"
        } else {
            ",\"moas\":false,\"provenance\":"
        })?;
        frozen.write_provenance_json(idx, out)?;
        out.write_char('}')
    }
}

impl fmt::Display for Answer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// The reload point: a mutex-guarded current `Arc<Snapshot>` plus a
/// generation counter that lets readers skip the lock entirely while no
/// swap has happened.
pub struct SnapshotCell {
    current: Mutex<Arc<Snapshot>>,
    generation: AtomicU64,
    read_locks: AtomicU64,
}

impl SnapshotCell {
    /// A cell serving `initial`.
    pub fn new(initial: Arc<Snapshot>) -> SnapshotCell {
        SnapshotCell {
            current: Mutex::new(initial),
            generation: AtomicU64::new(0),
            read_locks: AtomicU64::new(0),
        }
    }

    /// Atomically replaces the served snapshot. Readers that already hold
    /// the old `Arc` finish their in-flight responses against it; new
    /// reads see the replacement. Returns the new generation.
    pub fn swap(&self, snapshot: Arc<Snapshot>) -> u64 {
        let mut current = self.current.lock().expect("snapshot cell poisoned");
        *current = snapshot;
        // The store is inside the lock so a reader that observes the new
        // generation and then locks always finds the new Arc.
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        self.generation.store(generation, Ordering::Release);
        generation
    }

    /// The current generation (bumped once per [`swap`]).
    ///
    /// [`swap`]: SnapshotCell::swap
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// How many reads had to take the lock (first read after a swap). The
    /// concurrency battery asserts this stays ≤ readers × (swaps + 1) —
    /// i.e. the steady-state read path never locks.
    pub fn read_locks(&self) -> u64 {
        self.read_locks.load(Ordering::Relaxed)
    }

    /// Clones the current snapshot through the lock (slow path; used by
    /// readers on generation change and by non-hot endpoints).
    pub fn load(&self) -> Arc<Snapshot> {
        self.read_locks.fetch_add(1, Ordering::Relaxed);
        self.current.lock().expect("snapshot cell poisoned").clone()
    }

    /// A per-connection reader caching `(generation, Arc)`.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(self),
            generation: self.generation(),
            cached: self.load(),
        }
    }
}

/// A connection-local snapshot handle: one `Acquire` load per request in
/// steady state, one lock acquisition after each reload.
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
    generation: u64,
    cached: Arc<Snapshot>,
}

impl SnapshotReader {
    /// The snapshot to serve this request from. Every field read off the
    /// returned `Arc` within one response is consistent — the swap
    /// replaces the whole `Arc`, never mutates in place.
    pub fn get(&mut self) -> &Arc<Snapshot> {
        let generation = self.cell.generation.load(Ordering::Acquire);
        if generation != self.generation {
            self.cached = self.cell.load();
            // Re-read under the published value: load() locked, so cached
            // is at least as new as `generation`.
            self.generation = generation;
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_synth::{World, WorldConfig};
    use p2o_util::Json;

    fn snapshot_from_seed(seed: u64, serial: u64) -> Snapshot {
        let world = World::generate(WorldConfig::tiny(seed));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        Snapshot::freeze_in_memory(
            PathBuf::from(format!("seed-{seed}")),
            serial,
            &inputs,
            &ExceptionSet::new(),
            1,
        )
        .expect("fresh freeze verifies")
    }

    #[test]
    fn lookup_hits_misses_and_provenance() {
        let snap = snapshot_from_seed(7, 0);
        assert!(!snap.from_artifact(), "frozen in memory, not attached");
        assert!(!snap.is_empty(), "tiny world exports records");
        let first = snap.frozen().record_prefix(0);
        let hit = snap.lookup(&first).expect("exported prefix resolves");
        let hit = Json::parse(&hit.to_string()).expect("answer is one JSON object");
        assert_eq!(
            hit.get("matched").unwrap().as_str().unwrap(),
            first.to_string()
        );
        let provenance = hit.get("provenance").unwrap().as_str().unwrap();
        assert!(provenance.starts_with(&first.to_string()));
        assert!(provenance.contains("cluster.final"));
        // A prefix outside every delegation: no covering routed prefix.
        assert!(snap
            .lookup(&"255.255.255.255/32".parse().unwrap())
            .is_none());
    }

    /// The `/prefix` object the answer must reproduce, built with [`Json`]
    /// from the live dataset the snapshot was frozen from: the record's
    /// `listing1_json`, its freshly rendered trace, and its routed origins.
    fn expected_answer(
        snap: &Snapshot,
        inputs: &PipelineInputs<'_>,
        dataset: &prefix2org::Prefix2OrgDataset,
        edges: &[prefix2org::MergeEdge],
        query: &Prefix,
    ) -> Option<Json> {
        let rec = dataset
            .records()
            .iter()
            .filter(|r| r.prefix.contains(query))
            .max_by_key(|r| r.prefix.len())?;
        let origins: Vec<u32> = inputs
            .routes
            .origins(&rec.prefix)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        let mut out = Json::object();
        out.set("query", query.to_string());
        out.set("matched", rec.prefix.to_string());
        out.set("serial", snap.serial);
        out.set("snapshot", snap.digest.clone());
        out.set("record", rec.listing1_json());
        out.set("rov", rec.rov.as_str());
        if rec.local_exception.is_some() {
            out.set("rule", "local_exception");
        }
        out.set(
            "origins",
            Json::Arr(origins.iter().map(|&a| Json::from(a)).collect()),
        );
        out.set("moas", origins.len() > 1);
        out.set(
            "provenance",
            prefix2org::attribution_trace(inputs, dataset, edges, &rec.prefix).render(),
        );
        Some(out)
    }

    /// Every answer the arena writer renders is byte-identical to the
    /// `Json` build of the same object from the live dataset — for every
    /// record, the last host of every IPv4 record, and uncovered space —
    /// including an asserted org name that needs every kind of escape.
    #[test]
    fn answers_are_byte_identical_to_a_json_build_from_the_live_dataset() {
        // Seed 6: its tiny world has records with no RPKI certificate.
        let world = World::generate(WorldConfig::tiny(6));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (mut dataset, edges) = Pipeline::with_threads(1).dataset_with_evidence(&inputs, None);
        let target = dataset.records()[dataset.len() / 2].prefix;
        let mut rule = Json::object();
        rule.set("prefix", target.to_string());
        rule.set("action", "assert");
        rule.set("org", "Acme \"Q\" \\ Ctl\u{1}\tTab Ünïcødé 直営");
        let (exceptions, quarantined) = ExceptionSet::parse_lenient(&rule.to_string());
        assert!(quarantined.is_empty() && exceptions.len() == 1);
        let snap = Snapshot::freeze_in_memory(PathBuf::from("t"), 3, &inputs, &exceptions, 1)
            .expect("fresh freeze verifies");
        exceptions.apply(&mut dataset);

        let mut queries: Vec<Prefix> = dataset.records().iter().map(|r| r.prefix).collect();
        for rec in dataset.records() {
            if let Prefix::V4(p) = rec.prefix {
                queries.push(Prefix::V4(p2o_net::Prefix4::new_truncated(
                    p.last_addr(),
                    32,
                )));
            }
        }
        for uncovered in ["255.255.255.255/32", "0.0.0.0/0", "::/0", "ff00::/8"] {
            queries.push(uncovered.parse().unwrap());
        }
        let (mut rules, mut null_certs, mut empty_chains, mut moas, mut misses) = (0, 0, 0, 0, 0);
        for q in &queries {
            let want = expected_answer(&snap, &inputs, &dataset, &edges, q);
            let got = snap.lookup(q).map(|answer| answer.to_string());
            assert_eq!(got, want.as_ref().map(Json::to_string), "query {q}");
            let Some(want) = want else {
                misses += 1;
                continue;
            };
            let record = want.get("record").unwrap();
            rules += want.get("rule").is_some() as u32;
            null_certs += record.get("RPKI Certificate").unwrap().is_null() as u32;
            empty_chains += record
                .get("Delegated Customer(s) (DC)")
                .and_then(Json::as_array)
                .unwrap()
                .is_empty() as u32;
            moas += want.get("moas").and_then(Json::as_bool).unwrap() as u32;
        }
        for (what, n) in [
            ("a local-exception rule", rules),
            ("a null RPKI certificate", null_certs),
            ("an empty DC chain", empty_chains),
            ("a MOAS record", moas),
            ("an uncovered query", misses),
        ] {
            assert!(n > 0, "the query set must cover {what}");
        }
    }

    #[test]
    fn cell_swap_bumps_generation_and_readers_follow() {
        let a = Arc::new(snapshot_from_seed(7, 0));
        let b = Arc::new(snapshot_from_seed(8, 1));
        let cell = Arc::new(SnapshotCell::new(Arc::clone(&a)));
        let mut reader = cell.reader();
        let locks_after_setup = cell.read_locks();
        assert_eq!(reader.get().digest, a.digest);
        assert_eq!(reader.get().digest, a.digest);
        // Steady state: no further lock acquisitions.
        assert_eq!(cell.read_locks(), locks_after_setup);
        cell.swap(Arc::clone(&b));
        assert_eq!(cell.generation(), 1);
        assert_eq!(reader.get().digest, b.digest);
        // Exactly one slow-path acquisition for the swap.
        assert_eq!(cell.read_locks(), locks_after_setup + 1);
    }
}
