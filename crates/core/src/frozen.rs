//! The frozen dataset artifact — `world.p2ob`.
//!
//! `build` exports the dataset as canonical JSONL, which is portable but
//! slow to serve: every boot re-parses every line and re-builds the radix
//! tree. The frozen artifact trades that for a **single-read, zero-copy**
//! form: one arena buffer ([`p2o_util::arena`]) holding fixed-width
//! records, one interned-string table ([`p2o_util::interner::StringBlob`]),
//! flattened per-family LPM span tables ([`p2o_radix::freeze`]), and the
//! few facts a record's decision trace needs beyond its own fields — so
//! `prefix2org serve` answers its first lookup milliseconds after exec,
//! with no per-record allocation.
//!
//! **Byte-identical derivation.** Freezing is defined against the canonical
//! JSONL export: [`FrozenDataset::to_jsonl`] must reproduce
//! [`crate::export::to_jsonl`] exactly, and [`freeze_verified`] checks it
//! on every freeze — against the export `build` wrote, read back, before
//! it writes the artifact, and against the export `serve` renders before it
//! answers from one frozen in memory. Both sides write their lines with
//! the export's one writer: the frozen side feeds it straight from the
//! arena ([`FrozenDataset::write_export_json`]). The meta section carries
//! both the JSONL digest (identity) and the inputs digest (staleness:
//! serve recomputes the input digest and, when they disagree, freezes a
//! full load in memory instead).
//!
//! **One pass.** The freeze lays out every record in order against one
//! string table, so every string keeps the id of its first occurrence and
//! the payload does not depend on the build's thread count. The cluster
//! and merge rows are interned after every record.
//!
//! Layout (arena sections, byte offsets in DESIGN.md §4h):
//!
//! ```text
//! meta      32 B    format_version, record/DC-step/pool counts, digests
//! strings   var     StringBlob: count | offsets | UTF-8 blob
//! recs      n×96 B  fixed-width records (string ids, cluster index, radix
//!                   walk counts, chain, pool and merge slices)
//! dcsteps   k×24 B  delegated-customer chain steps
//! clusters  c×8 B   final clusters: inferred label string id, WHOIS-name
//!                   count
//! merges    e×8 B   merge rows: other-name and evidence string ids, one
//!                   slice per basic-cleaned Direct Owner name
//! u32pool   m×4 B   shared u32 arrays (ASN clusters, BGP origins)
//! lpm4      var     frozen IPv4 span table, values = record indices
//! lpm6      var     frozen IPv6 span table, values = record indices
//! ```
//!
//! No trace text is stored: [`FrozenDataset::provenance`] builds each
//! record's typed [`Step`]s from the record, its chain steps, its pool
//! slices, its cluster row and its owner's merge rows, and
//! [`p2o_obs::provenance::write_trace`] lays them out. The trace's subject
//! line is the record's prefix.
//!
//! Everything is little-endian. The artifact on disk is this payload
//! wrapped in the standard checksummed frame ([`p2o_util::atomic`]), so
//! torn writes and bit rot are caught before any of the above is trusted;
//! [`FrozenDataset::validate_payload`] then audits the interior for `fsck`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead};
use std::path::Path;

use p2o_bgp::RouteTable;
use p2o_net::{Prefix, Prefix4, Prefix6};
use p2o_obs::provenance::{write_trace, write_trace_json};
use p2o_obs::{run_beside, traced, LaneOrder, Obs};
use p2o_radix::{freeze_v4, freeze_v6, LpmView4, LpmView6, LPM_LANES};
use p2o_rpki::RovStatus;
use p2o_util::arena::{u128_at, u32_at, u64_at, ArenaIndex, ArenaWriter};
use p2o_util::atomic::read_framed;
use p2o_util::interner::{Interner, StringBlob};
use p2o_util::json::{write_escaped, write_u32_array};
use p2o_util::vfs::Vfs;
use p2o_util::Digest;
use p2o_whois::alloc::AllocationType;
use p2o_whois::Registry;

use crate::cluster::{ClusterId, MergeEdge};
use crate::dataset::{Prefix2OrgDataset, PrefixRecord};
use crate::explain::{MergeIndex, Numbers, Step};
use crate::export::{to_jsonl, write_export_json, ExportFields};
use crate::pipeline::PipelineInputs;
use crate::resolve::LpmWalk;

/// The frozen artifact's file name inside a build directory.
pub const FROZEN_FILE: &str = "world.p2ob";

/// Interior format version; readers require an exact match. v2 repurposed
/// two record pad bytes for the ROV state and the local-exception flag (a
/// v1 artifact's zeroed pads would silently read as `rov: valid`); v3
/// stored each trace as `(rule, detail)` string-id steps; v4 stores no
/// trace at all, only the facts its steps are built from (a registry
/// index, the radix walk counts, a cluster index and a merge slice per
/// record, plus the cluster and merge tables).
pub const FROZEN_FORMAT_VERSION: u32 = 4;

/// The kill-point / frame label the artifact is written under.
pub const FROZEN_LABEL: &str = "frozen";

/// Sentinel string id for "absent" (`rpki_certificate: null`).
const NONE_ID: u32 = u32::MAX;

/// Fixed-width record size.
const REC_SIZE: usize = 96;
/// Fixed-width delegated-customer step size.
const DC_SIZE: usize = 24;
/// Cluster row size: label string id u32 | WHOIS-name count u32.
const CLUSTER_SIZE: usize = 8;
/// Merge row size: other-name string id u32 | evidence string id u32.
const MERGE_SIZE: usize = 8;
/// Serialized prefix size: family u8 | len u8 | bits u128 LE.
const PFX_SIZE: usize = 18;
/// Meta section size.
const META_SIZE: usize = 32;

fn push_prefix(out: &mut Vec<u8>, p: &Prefix) {
    match p {
        Prefix::V4(p4) => {
            out.push(4);
            out.push(p4.len());
            out.extend_from_slice(&(p4.bits() as u128).to_le_bytes());
        }
        Prefix::V6(p6) => {
            out.push(6);
            out.push(p6.len());
            out.extend_from_slice(&p6.bits().to_le_bytes());
        }
    }
}

fn read_prefix(bytes: &[u8], off: usize) -> Result<Prefix, String> {
    let fam = *bytes
        .get(off)
        .ok_or_else(|| "prefix field out of bounds".to_string())?;
    let len = bytes[off + 1];
    let bits = u128_at(bytes, off + 2).ok_or_else(|| "prefix bits out of bounds".to_string())?;
    match fam {
        4 => {
            let bits32 =
                u32::try_from(bits).map_err(|_| "IPv4 prefix bits exceed 32 bits".to_string())?;
            Prefix4::new(bits32, len)
                .map(Prefix::V4)
                .map_err(|_| format!("non-canonical IPv4 prefix ({bits32:#x}/{len})"))
        }
        6 => Prefix6::new(bits, len)
            .map(Prefix::V6)
            .map_err(|_| format!("non-canonical IPv6 prefix ({bits:#x}/{len})")),
        other => Err(format!("unknown address family tag {other}")),
    }
}

fn alloc_index(t: AllocationType) -> u8 {
    AllocationType::ALL
        .iter()
        .position(|a| *a == t)
        .expect("every allocation type is in ALL") as u8
}

fn registry_index(r: Registry) -> u8 {
    Registry::ALL
        .iter()
        .position(|a| *a == r)
        .expect("every registry is in ALL") as u8
}

/// Writes the allocation type at `index` as Listing 1 prints it: the
/// registry keyword upper-cased, as a JSON string. Every keyword is short
/// ASCII, so it is upper-cased in a stack buffer.
fn write_alloc<W: fmt::Write>(out: &mut W, index: u8) -> fmt::Result {
    let keyword = AllocationType::ALL[index as usize].keyword().as_bytes();
    let mut buf = [0u8; 32];
    let upper = &mut buf[..keyword.len()];
    upper.copy_from_slice(keyword);
    upper.make_ascii_uppercase();
    write_escaped(out, std::str::from_utf8(upper).expect("keywords are ASCII"))
}

/// Flattens an already-built dataset (plus the evidence needed for
/// provenance) into the frozen arena payload. The caller wraps the payload
/// in a checksummed frame and writes it atomically.
///
/// `inputs` must be the same inputs the dataset was built from — the
/// per-record BGP origins are taken from `inputs.routes`, the one input
/// the freeze reads — and `merge_edges` the clustering's merge evidence:
/// each Direct Owner's `cluster.merge` steps are the edges its name
/// touches.
/// `inputs_digest` is the canonical digest of the build directory's input
/// files, stored for staleness detection at serve time.
pub fn freeze(
    inputs: &PipelineInputs<'_>,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    inputs_digest: u64,
) -> Vec<u8> {
    let mut payload = freeze_records(inputs.routes, dataset, merge_edges, inputs_digest);
    stamp_jsonl_digest(
        &mut payload,
        Digest::of_bytes(to_jsonl(dataset).as_bytes()).0,
    );
    payload
}

/// The merge rows of every Direct Owner: the edges the owner's name
/// touches (as [`attribution_trace`](crate::attribution_trace) matches
/// them), the name each edge names at its other end and its evidence, in
/// edge-list order. Each distinct owner's rows are stored once, in the
/// order records first name it, and every record of the owner points at
/// them.
struct OwnerMerges<'d> {
    /// `(first row, row count)` by Direct Owner name.
    slices: HashMap<&'d str, (u32, u32)>,
    rows: Vec<(&'d str, &'d str)>,
}

impl<'d> OwnerMerges<'d> {
    fn new(records: &'d [PrefixRecord], edges: &'d [MergeEdge]) -> Self {
        let index = MergeIndex::new(edges);
        let mut slices: HashMap<&str, (u32, u32)> = HashMap::new();
        let mut rows: Vec<(&str, &str)> = Vec::new();
        for rec in records {
            slices.entry(&rec.direct_owner).or_insert_with(|| {
                let first = rows.len() as u32;
                rows.extend(index.merges(&rec.direct_owner));
                (first, rows.len() as u32 - first)
            });
        }
        OwnerMerges { slices, rows }
    }
}

/// [`freeze`] but for the digest of the dataset's canonical export: META's
/// `jsonl_digest` slot is left 0 for [`stamp_jsonl_digest`] to fill.
///
/// One pass over the records, in order, lays out the record, chain-step
/// and pool sections against one string table, so every string keeps the
/// id of its first occurrence in record order. The cluster and merge rows
/// are interned last, in cluster-id and row order.
fn freeze_records(
    routes: &RouteTable,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    inputs_digest: u64,
) -> Vec<u8> {
    let merges = OwnerMerges::new(dataset.records(), merge_edges);
    let mut strings = Interner::new();
    let mut recs: Vec<u8> = Vec::with_capacity(dataset.len() * REC_SIZE);
    let mut dcsteps: Vec<u8> = Vec::new();
    let mut pool: Vec<u8> = Vec::new();
    let mut dc_count = 0u32;
    let mut pool_count = 0u32;
    let mut v4_entries: Vec<(Prefix4, u32)> = Vec::with_capacity(dataset.len());
    let mut v6_entries: Vec<(Prefix6, u32)> = Vec::new();

    let push_pool = |pool: &mut Vec<u8>, pool_count: &mut u32, vals: &[u32]| -> (u32, u32) {
        let off = *pool_count;
        for v in vals {
            pool.extend_from_slice(&v.to_le_bytes());
        }
        *pool_count += vals.len() as u32;
        (off, vals.len() as u32)
    };

    for (idx, rec) in (0u32..).zip(dataset.records()) {
        match rec.prefix {
            Prefix::V4(p) => v4_entries.push((p, idx)),
            Prefix::V6(p) => v6_entries.push((p, idx)),
        }

        let origins: Vec<u32> = routes
            .origins(&rec.prefix)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();

        let dc_off = dc_count;
        for step in &rec.delegated_customers {
            push_prefix(&mut dcsteps, &step.prefix);
            dcsteps.extend_from_slice(&strings.intern(&step.org_name).0.to_le_bytes());
            dcsteps.push(alloc_index(step.alloc));
            dcsteps.push(0); // pad to 24 bytes
        }
        dc_count += rec.delegated_customers.len() as u32;

        let (asnc_off, asnc_len) = push_pool(&mut pool, &mut pool_count, &rec.origin_asn_clusters);
        let (org_off, org_len) = push_pool(&mut pool, &mut pool_count, &origins);
        let (merge_off, merge_len) = merges.slices[rec.direct_owner.as_str()];

        push_prefix(&mut recs, &rec.prefix);
        push_prefix(&mut recs, &rec.do_prefix);
        recs.extend_from_slice(&[
            registry_index(rec.registry),
            rec.lpm.blocks,
            rec.lpm.nodes,
            0,
        ]);
        recs.extend_from_slice(&strings.intern(&rec.direct_owner).0.to_le_bytes());
        recs.extend_from_slice(&strings.intern(&rec.base_name).0.to_le_bytes());
        let rpki_id = match &rec.rpki_certificate {
            Some(id) => strings.intern(id).0,
            None => NONE_ID,
        };
        recs.extend_from_slice(&rpki_id.to_le_bytes());
        recs.extend_from_slice(&strings.intern(&rec.final_cluster_label).0.to_le_bytes());
        recs.extend_from_slice(&rec.cluster.0.to_le_bytes());
        recs.extend_from_slice(&[
            alloc_index(rec.do_alloc),
            rec.rov.as_u8(),
            rec.local_exception.is_some() as u8,
            0, // pad to 8-byte field alignment
        ]);
        for value in [
            dc_off,
            rec.delegated_customers.len() as u32,
            asnc_off,
            asnc_len,
            org_off,
            org_len,
            merge_off,
            merge_len,
        ] {
            recs.extend_from_slice(&value.to_le_bytes());
        }
    }

    let mut clusters = Vec::with_capacity(dataset.cluster_count() * CLUSTER_SIZE);
    for id in (0..dataset.cluster_count() as u32).map(ClusterId) {
        clusters.extend_from_slice(&strings.intern(dataset.cluster_label(id)).0.to_le_bytes());
        clusters.extend_from_slice(&(dataset.cluster_names(id).len() as u32).to_le_bytes());
    }
    let mut merge_rows = Vec::with_capacity(merges.rows.len() * MERGE_SIZE);
    for (other, evidence) in &merges.rows {
        merge_rows.extend_from_slice(&strings.intern(other).0.to_le_bytes());
        merge_rows.extend_from_slice(&strings.intern(evidence).0.to_le_bytes());
    }

    let mut meta = Vec::with_capacity(META_SIZE);
    meta.extend_from_slice(&FROZEN_FORMAT_VERSION.to_le_bytes());
    meta.extend_from_slice(&(dataset.len() as u32).to_le_bytes());
    meta.extend_from_slice(&0u64.to_le_bytes()); // jsonl_digest, stamped after
    meta.extend_from_slice(&inputs_digest.to_le_bytes());
    meta.extend_from_slice(&dc_count.to_le_bytes());
    meta.extend_from_slice(&pool_count.to_le_bytes());

    let mut w = ArenaWriter::new();
    w.section("meta", meta);
    w.section_parts("strings", strings.into_parts());
    w.section("recs", recs);
    w.section("dcsteps", dcsteps);
    w.section("clusters", clusters);
    w.section("merges", merge_rows);
    w.section("u32pool", pool);
    w.section("lpm4", freeze_v4(&v4_entries));
    w.section("lpm6", freeze_v6(&v6_entries));
    w.finish()
}

/// The canonical export a freeze is checked against: the FNV-1a digest of
/// its bytes, stored as the artifact's JSONL digest, and the bytes
/// themselves, read through `reader`.
pub struct ExportBytes<R> {
    /// [`Digest::of_bytes`] of the export, taken as it was written.
    pub digest: u64,
    /// The export's bytes.
    pub reader: R,
}

impl<T: AsRef<[u8]>> ExportBytes<io::Cursor<T>> {
    /// An export held in memory.
    pub fn in_memory(jsonl: T) -> Self {
        ExportBytes {
            digest: Digest::of_bytes(jsonl.as_ref()).0,
            reader: io::Cursor::new(jsonl),
        }
    }
}

/// The work a verified freeze runs beside ([`freeze_verified`]).
pub struct FreezeLanes<E, P> {
    /// Produces the dataset's canonical export beside the freeze — `build`
    /// streams it to disk and opens it again, `serve` renders it in memory
    /// — and hands back its digest and bytes, or why it could not.
    pub export: E,
    /// Reads the verified payload beside the thaw check; `build` takes the
    /// artifact's frame header here.
    pub payload: P,
}

/// The rows of the fork that runs the freeze beside the export, in the
/// order a one-thread build records them: the export lane's (`build`
/// releases its parsed inputs first), then the freeze.
const EXPORT_FREEZE_ROWS: &[&str] = &["build.release_inputs", "core.export", "core.freeze"];

/// The rows of the fork that runs the thaw check beside the payload lane
/// (`build`'s frame digest), in the order a one-thread build records them.
const VERIFY_FRAME_ROWS: &[&str] = &["core.thaw_verify", "util.frame_digest"];

/// [`freeze`] beside the export, then prove the result before anyone uses
/// it: the payload must pass the full [`FrozenDataset::from_payload`]
/// audit and thaw back to the export — the canonical export of `dataset`
/// — byte for byte.
///
/// The one freeze sequence in the system: `build` streams the export to
/// disk in `lanes.export` and frames the verified
/// [`payload`](FrozenDataset::payload) as `world.p2ob`; `serve` renders
/// the export in memory and serves the returned dataset directly when
/// that file is missing or stale. It forks twice through
/// [`p2o_obs::run_beside`], one `emit.lane` span per lane (tagged `lane`):
/// the freeze on the calling thread beside `lanes.export`, then the thaw
/// check on the calling thread beside `lanes.payload`, which reads the
/// payload the check reads. The freeze stays on the calling thread for
/// its allocations: they reuse the memory the dataset's assembly freed in
/// that thread's malloc arena. At one thread each fork runs its lanes
/// inline: the export before the freeze, the check before the payload
/// lane. The export's digest is known only
/// at the first join, so it is stamped into META's `jsonl_digest` slot
/// then, before the audit. An export error is returned once the freeze
/// has finished, and an audit failure before the second fork; a thaw
/// mismatch is returned once both lanes of the second fork have finished.
///
/// The freeze reads only `routes` of the dataset's inputs. The payload is
/// moved, never copied; each thawed line is written by the export's own
/// writer and compared with the next bytes of the export, so neither side
/// of the check is held whole. A mismatch names the first record whose
/// line differs. An observed build times the freeze as stage
/// `core.freeze` within `emit.export_freeze`, and the audit plus thaw
/// check as `core.thaw_verify` within `emit.verify_frame`; the lanes add
/// their own rows to the same enclosing rows.
pub fn freeze_verified<R, T, E, P>(
    routes: &RouteTable,
    dataset: &Prefix2OrgDataset,
    merge_edges: &[MergeEdge],
    inputs_digest: u64,
    lanes: FreezeLanes<E, P>,
    threads: usize,
    obs: Option<&Obs>,
) -> Result<(FrozenDataset, T), String>
where
    R: BufRead + Send,
    T: Send,
    E: FnOnce() -> Result<ExportBytes<R>, String> + Send,
    P: FnOnce(&[u8]) -> T + Send,
{
    let stage = |name: &str| obs.map(|o| o.stage(name));
    let fork = obs.map(|o| o.enclosing_stage("emit.export_freeze", EXPORT_FREEZE_ROWS));
    let (mut payload, export) = run_beside(
        obs,
        "emit.lane",
        threads,
        LaneOrder::OtherFirst,
        ("freeze", || {
            let _timer = stage("core.freeze");
            traced(obs, "frozen.freeze", |span| {
                if let Some(s) = span {
                    s.arg("records", dataset.len());
                }
                freeze_records(routes, dataset, merge_edges, inputs_digest)
            })
        }),
        ("export", lanes.export),
    );
    drop(fork);
    let export = export?;
    stamp_jsonl_digest(&mut payload, export.digest);

    let fork = obs.map(|o| o.enclosing_stage("emit.verify_frame", VERIFY_FRAME_ROWS));
    let timer = stage("core.thaw_verify");
    let frozen = FrozenDataset::from_payload(payload)
        .map_err(|e| format!("frozen artifact failed self-validation: {e}"))?;
    let (thawed, read) = run_beside(
        obs,
        "emit.lane",
        threads,
        LaneOrder::CallerFirst,
        ("thaw_check", || {
            let _timer = timer;
            frozen.check_thaws_to(export.reader)
        }),
        ("payload", || (lanes.payload)(frozen.payload())),
    );
    drop(fork);
    thawed
        .map_err(|e| format!("frozen artifact does not thaw back to the canonical export: {e}"))?;
    Ok((frozen, read))
}

/// Writes `digest` into the `jsonl_digest` slot of a freshly laid-out
/// payload's META section (bytes 8..16); the arena holds no checksum of
/// its own, so nothing else changes.
fn stamp_jsonl_digest(payload: &mut [u8], digest: u64) {
    let meta = ArenaIndex::parse(payload)
        .and_then(|arena| arena.require("meta"))
        .expect("a fresh payload has a meta section");
    payload[meta.start + 8..meta.start + 16].copy_from_slice(&digest.to_le_bytes());
}

/// Whether the next bytes of `export` are `line`, consuming them while
/// they match.
fn next_bytes_are(export: &mut impl BufRead, mut line: &[u8]) -> io::Result<bool> {
    while !line.is_empty() {
        let buf = export.fill_buf()?;
        if buf.is_empty() {
            return Ok(false);
        }
        let n = buf.len().min(line.len());
        if buf[..n] != line[..n] {
            return Ok(false);
        }
        export.consume(n);
        line = &line[n..];
    }
    Ok(true)
}

/// The parsed section geometry of a frozen payload.
struct Sections {
    strings: core::ops::Range<usize>,
    recs: core::ops::Range<usize>,
    dcsteps: core::ops::Range<usize>,
    clusters: core::ops::Range<usize>,
    merges: core::ops::Range<usize>,
    pool: core::ops::Range<usize>,
    lpm4: core::ops::Range<usize>,
    lpm6: core::ops::Range<usize>,
    /// `(entry_count, span_count)` of each LPM blob, captured at index
    /// time so the lookup hot path can rebuild its view without re-reading
    /// the blob header on every call.
    lpm4_parts: (usize, usize),
    lpm6_parts: (usize, usize),
    record_count: u32,
    dc_count: u32,
    cluster_count: u32,
    merge_count: u32,
    pool_count: u32,
    jsonl_digest: u64,
    inputs_digest: u64,
}

/// The arena index of a frozen payload and its meta section, checked for
/// size only.
fn parse_meta(payload: &[u8]) -> Result<(ArenaIndex, &[u8]), String> {
    let arena = ArenaIndex::parse(payload)?;
    let meta = arena.require("meta")?;
    if meta.len() != META_SIZE {
        return Err(format!(
            "meta section is {} bytes, expected {META_SIZE}",
            meta.len()
        ));
    }
    Ok((arena, &payload[meta]))
}

/// The `format_version` an unframed payload declares, read without
/// auditing anything else: what `build --resume` checks before it keeps an
/// artifact.
pub fn payload_format_version(payload: &[u8]) -> Result<u32, String> {
    let (_, meta) = parse_meta(payload)?;
    Ok(u32_at(meta, 0).expect("meta length checked"))
}

/// Arena parse + meta decode + section-size arithmetic. Shared by the
/// cheap loader and the deep validator.
fn index_sections(payload: &[u8]) -> Result<Sections, String> {
    let (arena, m) = parse_meta(payload)?;
    let format_version = u32_at(m, 0).expect("meta length checked");
    if format_version > FROZEN_FORMAT_VERSION {
        return Err(format!(
            "frozen format_version {format_version} is newer than this reader \
             (max {FROZEN_FORMAT_VERSION})"
        ));
    }
    if format_version < FROZEN_FORMAT_VERSION {
        return Err(format!(
            "frozen format_version {format_version} is older than this reader \
             (want {FROZEN_FORMAT_VERSION}); rebuild the artifact"
        ));
    }
    let record_count = u32_at(m, 4).expect("meta length checked");
    let jsonl_digest = u64_at(m, 8).expect("meta length checked");
    let inputs_digest = u64_at(m, 16).expect("meta length checked");
    let dc_count = u32_at(m, 24).expect("meta length checked");
    let pool_count = u32_at(m, 28).expect("meta length checked");

    let recs = arena.require("recs")?;
    if recs.len() != record_count as usize * REC_SIZE {
        return Err(format!(
            "recs section is {} bytes, expected {} for {record_count} records",
            recs.len(),
            record_count as usize * REC_SIZE
        ));
    }
    let dcsteps = arena.require("dcsteps")?;
    if dcsteps.len() != dc_count as usize * DC_SIZE {
        return Err(format!(
            "dcsteps section is {} bytes, expected {} for {dc_count} steps",
            dcsteps.len(),
            dc_count as usize * DC_SIZE
        ));
    }
    let (clusters, cluster_count) = rows(&arena, "clusters", CLUSTER_SIZE)?;
    let (merges, merge_count) = rows(&arena, "merges", MERGE_SIZE)?;
    let pool = arena.require("u32pool")?;
    if pool.len() != pool_count as usize * 4 {
        return Err(format!(
            "u32pool section is {} bytes, expected {} for {pool_count} values",
            pool.len(),
            pool_count as usize * 4
        ));
    }
    let lpm4 = arena.require("lpm4")?;
    let lpm6 = arena.require("lpm6")?;
    let lpm4_parts = LpmView4::attach(&payload[lpm4.clone()])
        .map_err(|e| format!("lpm4: {e}"))?
        .parts();
    let lpm6_parts = LpmView6::attach(&payload[lpm6.clone()])
        .map_err(|e| format!("lpm6: {e}"))?
        .parts();
    Ok(Sections {
        strings: arena.require("strings")?,
        recs,
        dcsteps,
        clusters,
        merges,
        pool,
        lpm4,
        lpm6,
        lpm4_parts,
        lpm6_parts,
        record_count,
        dc_count,
        cluster_count,
        merge_count,
        pool_count,
        jsonl_digest,
        inputs_digest,
    })
}

/// The range of section `name`, a table of `size`-byte rows, and its row
/// count.
fn rows(
    arena: &ArenaIndex,
    name: &str,
    size: usize,
) -> Result<(core::ops::Range<usize>, u32), String> {
    let range = arena.require(name)?;
    if range.len() % size != 0 || range.len() / size > u32::MAX as usize {
        return Err(format!(
            "{name} section is {} bytes, not a whole number of {size}-byte rows",
            range.len()
        ));
    }
    let count = (range.len() / size) as u32;
    Ok((range, count))
}

/// A loaded frozen dataset: one owned arena buffer, all answers served by
/// slicing into it.
///
/// Construction runs the full [`validate_payload`] audit once; after that
/// every accessor re-enters the buffer through cheap `attach` views, so a
/// longest-prefix lookup is one binary search plus O(depth) parent climbs
/// with **zero allocation**.
///
/// [`validate_payload`]: FrozenDataset::validate_payload
pub struct FrozenDataset {
    payload: Vec<u8>,
    /// The string table's blob, copied out of `payload` once it validated,
    /// so a string read slices a `str`. Re-checking each string's UTF-8 on
    /// every read made `/batch` at xl scale about 10% slower (2-vCPU VM).
    text: String,
    sections: Sections,
}

impl core::fmt::Debug for FrozenDataset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FrozenDataset")
            .field("records", &self.sections.record_count)
            .field("jsonl_digest", &Digest(self.sections.jsonl_digest).short())
            .finish()
    }
}

impl FrozenDataset {
    /// Reads `path` through the checksummed frame and validates the interior.
    pub fn load(vfs: &Vfs, path: &Path) -> Result<FrozenDataset, String> {
        let payload = read_framed(vfs, path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_payload(payload).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Validates an unframed payload and takes ownership of it.
    pub fn from_payload(payload: Vec<u8>) -> Result<FrozenDataset, String> {
        let text = Self::audit(&payload)?.to_string();
        let sections = index_sections(&payload).expect("validated");
        Ok(FrozenDataset {
            payload,
            text,
            sections,
        })
    }

    /// The full interior audit behind [`load`](Self::load) — also what
    /// `fsck` runs against a suspect artifact. Checks, in order: the arena
    /// container (magic, endianness marker, container version, TOC bounds),
    /// the meta section (size, `format_version` gate, section-size
    /// arithmetic), the string table (monotone offsets, UTF-8), both LPM
    /// blobs (sorted canonical keys, ancestor links, span invariants), every
    /// record and chain step (string ids, allocation-type and pool ranges,
    /// prefix canonicality, LPM keys ↔ record prefixes bijection; registry,
    /// cluster and merge-slice ranges), and every cluster and merge row
    /// (string ids).
    pub fn validate_payload(payload: &[u8]) -> Result<(), String> {
        Self::audit(payload).map(drop)
    }

    /// [`validate_payload`](Self::validate_payload), returning the string
    /// table's validated text.
    fn audit(payload: &[u8]) -> Result<&str, String> {
        let s = index_sections(payload)?;
        let strings =
            StringBlob::parse(&payload[s.strings.clone()]).map_err(|e| format!("strings: {e}"))?;
        let lpm4 = LpmView4::parse(&payload[s.lpm4.clone()]).map_err(|e| format!("lpm4: {e}"))?;
        let lpm6 = LpmView6::parse(&payload[s.lpm6.clone()]).map_err(|e| format!("lpm6: {e}"))?;

        let str_ok = |id: u32| (id as usize) < strings.len();
        let recs = &payload[s.recs.clone()];
        let mut v4_seen = 0usize;
        let mut v6_seen = 0usize;
        for i in 0..s.record_count as usize {
            let base = i * REC_SIZE;
            let err = |what: &str| format!("record {i}: {what}");
            let prefix = read_prefix(recs, base).map_err(|e| err(&format!("prefix: {e}")))?;
            read_prefix(recs, base + PFX_SIZE).map_err(|e| err(&format!("do_prefix: {e}")))?;
            let at = |off: usize| u32_at(recs, base + off).expect("recs sized above");
            for (name, off) in [
                ("direct_owner", 40),
                ("base_name", 44),
                ("final_cluster", 52),
            ] {
                if !str_ok(at(off)) {
                    return Err(err(&format!("{name} string id out of range")));
                }
            }
            if at(48) != NONE_ID && !str_ok(at(48)) {
                return Err(err("rpki_certificate string id out of range"));
            }
            if recs[base + 36] as usize >= Registry::ALL.len() {
                return Err(err("registry index out of range"));
            }
            if at(56) >= s.cluster_count {
                return Err(err("cluster index past the cluster table"));
            }
            if at(88) as u64 + at(92) as u64 > s.merge_count as u64 {
                return Err(err("merge slice past the merge table"));
            }
            if recs[base + 60] as usize >= AllocationType::ALL.len() {
                return Err(err("allocation type index out of range"));
            }
            if RovStatus::from_u8(recs[base + 61]).is_none() {
                return Err(err("rov state byte out of range"));
            }
            if recs[base + 62] > 1 {
                return Err(err("local-exception flag byte out of range"));
            }
            if at(64) as u64 + at(68) as u64 > s.dc_count as u64 {
                return Err(err("delegated-customer slice out of range"));
            }
            if at(72) as u64 + at(76) as u64 > s.pool_count as u64
                || at(80) as u64 + at(84) as u64 > s.pool_count as u64
            {
                return Err(err("u32 pool slice out of range"));
            }
            // The LPM tables must map this record's prefix back to it.
            let hit = match prefix {
                Prefix::V4(p) => {
                    v4_seen += 1;
                    lpm4.lookup(&p).map(|(k, v)| (Prefix::V4(k), v))
                }
                Prefix::V6(p) => {
                    v6_seen += 1;
                    lpm6.lookup(&p).map(|(k, v)| (Prefix::V6(k), v))
                }
            };
            if hit != Some((prefix, i as u32)) {
                return Err(err("LPM table does not map the record's own prefix to it"));
            }
        }
        if lpm4.len() != v4_seen || lpm6.len() != v6_seen {
            return Err(format!(
                "LPM entry counts ({}, {}) disagree with record families ({v4_seen}, {v6_seen})",
                lpm4.len(),
                lpm6.len()
            ));
        }

        let dcsteps = &payload[s.dcsteps.clone()];
        for i in 0..s.dc_count as usize {
            let base = i * DC_SIZE;
            read_prefix(dcsteps, base).map_err(|e| format!("step {i}: prefix: {e}"))?;
            let org = u32_at(dcsteps, base + PFX_SIZE).expect("dcsteps sized above");
            if !str_ok(org) {
                return Err(format!("step {i}: org string id out of range"));
            }
            if dcsteps[base + 22] as usize >= AllocationType::ALL.len() {
                return Err(format!("step {i}: allocation type index out of range"));
            }
        }

        let clusters = &payload[s.clusters.clone()];
        for i in 0..s.cluster_count as usize {
            if !str_ok(u32_at(clusters, i * CLUSTER_SIZE).expect("clusters sized above")) {
                return Err(format!("cluster {i}: label string id out of range"));
            }
        }
        let merges = &payload[s.merges.clone()];
        for i in 0..s.merge_count as usize {
            for (name, off) in [("other-name", 0), ("evidence", 4)] {
                if !str_ok(u32_at(merges, i * MERGE_SIZE + off).expect("merges sized above")) {
                    return Err(format!("merge row {i}: {name} string id out of range"));
                }
            }
        }
        Ok(strings.text())
    }

    fn strings(&self) -> StringBlob<'_> {
        StringBlob::attach(&self.payload[self.sections.strings.clone()], &self.text)
            .expect("validated")
    }

    #[inline]
    fn lpm4(&self) -> LpmView4<'_> {
        let (entries, spans) = self.sections.lpm4_parts;
        LpmView4::from_parts(&self.payload[self.sections.lpm4.clone()], entries, spans)
    }

    #[inline]
    fn lpm6(&self) -> LpmView6<'_> {
        let (entries, spans) = self.sections.lpm6_parts;
        LpmView6::from_parts(&self.payload[self.sections.lpm6.clone()], entries, spans)
    }

    fn rec_u32(&self, idx: u32, off: usize) -> u32 {
        u32_at(self.rec_row(idx), off).expect("validated")
    }

    /// Record `idx`'s fixed-width row.
    #[inline]
    fn rec_row(&self, idx: u32) -> &[u8] {
        self.rows(&self.sections.recs, idx, 1, REC_SIZE)
    }

    /// Rows `first..first + count` of the `size`-byte rows of `section`.
    #[inline]
    fn rows(
        &self,
        section: &core::ops::Range<usize>,
        first: u32,
        count: u32,
        size: usize,
    ) -> &[u8] {
        let rows = &self.payload[section.clone()];
        &rows[first as usize * size..(first as usize + count as usize) * size]
    }

    fn pool_slice(&self, off: u32, len: u32) -> impl ExactSizeIterator<Item = u32> + '_ {
        let pool = &self.payload[self.sections.pool.clone()];
        (off..off + len).map(move |i| u32_at(pool, i as usize * 4).expect("validated"))
    }

    fn pool_numbers(&self, off: u32, len: u32) -> Numbers<'_> {
        let pool = &self.payload[self.sections.pool.clone()];
        Numbers::le(&pool[off as usize * 4..(off + len) as usize * 4])
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.sections.record_count as usize
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.sections.record_count == 0
    }

    /// The digest of the canonical JSONL export this artifact derives from.
    pub fn jsonl_digest(&self) -> u64 {
        self.sections.jsonl_digest
    }

    /// [`jsonl_digest`](Self::jsonl_digest) in the short display form the
    /// rest of the tooling prints.
    pub fn digest_short(&self) -> String {
        Digest(self.sections.jsonl_digest).short()
    }

    /// The digest of the build inputs the artifact was frozen from.
    pub fn inputs_digest(&self) -> u64 {
        self.sections.inputs_digest
    }

    /// The validated, unframed payload — the bytes `build` frames and
    /// writes as `world.p2ob`.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Longest-prefix match over the frozen record set: the most specific
    /// record prefix covering `q`, with the record index. Zero allocation.
    pub fn lookup(&self, q: &Prefix) -> Option<(Prefix, u32)> {
        match q {
            Prefix::V4(p) => self.lpm4().lookup(p).map(|(k, v)| (Prefix::V4(k), v)),
            Prefix::V6(p) => self.lpm6().lookup(p).map(|(k, v)| (Prefix::V6(k), v)),
        }
    }

    /// [`lookup`](Self::lookup) for every query of `queries`, into the
    /// same position of `out`: each pass of up to [`LPM_LANES`] queries
    /// is one lockstep search per address family
    /// ([`LpmView4::lookup_many`]).
    ///
    /// # Panics
    ///
    /// If `out` is not as long as `queries`.
    pub fn lookup_many(&self, queries: &[Prefix], out: &mut [Option<(Prefix, u32)>]) {
        assert_eq!(queries.len(), out.len(), "one answer slot per query");
        let (lpm4, lpm6) = (self.lpm4(), self.lpm6());
        for (queries, out) in queries.chunks(LPM_LANES).zip(out.chunks_mut(LPM_LANES)) {
            // Each family's queries, with the positions they answer.
            let (mut v4, mut at4, mut n4) = ([Prefix4::DEFAULT; LPM_LANES], [0; LPM_LANES], 0);
            let (mut v6, mut at6, mut n6) = ([Prefix6::DEFAULT; LPM_LANES], [0; LPM_LANES], 0);
            for (at, q) in queries.iter().enumerate() {
                match q {
                    Prefix::V4(p) => {
                        (v4[n4], at4[n4]) = (*p, at);
                        n4 += 1;
                    }
                    Prefix::V6(p) => {
                        (v6[n6], at6[n6]) = (*p, at);
                        n6 += 1;
                    }
                }
            }
            let mut hits4 = [None; LPM_LANES];
            lpm4.lookup_many(&v4[..n4], &mut hits4[..n4]);
            for (&at, hit) in at4[..n4].iter().zip(&hits4) {
                out[at] = hit.map(|(k, v)| (Prefix::V4(k), v));
            }
            let mut hits6 = [None; LPM_LANES];
            lpm6.lookup_many(&v6[..n6], &mut hits6[..n6]);
            for (&at, hit) in at6[..n6].iter().zip(&hits6) {
                out[at] = hit.map(|(k, v)| (Prefix::V6(k), v));
            }
        }
    }

    /// Reads every cache line that writing the answers of records `idxs`
    /// will read ([`write_listing1`](Self::write_listing1), the pool
    /// slices, [`write_provenance_json`](Self::write_provenance_json)), so
    /// that the answers' cache misses overlap instead of queuing one
    /// behind another, and the writes that follow find their lines cached.
    /// It reads in three stages, each over every record before the next:
    /// the record rows; then the offsets of the strings those rows name
    /// and their chain-step, pool, merge and cluster rows; then the bytes
    /// of every string the answers write. No load in a stage depends on
    /// another in the same stage. The loads are plain reads whose bytes
    /// are folded into a [`black_box`](std::hint::black_box); nothing is
    /// written.
    pub fn touch_answers(&self, idxs: &[u32]) {
        let mut folded = 0u8;
        self.visit_answers(idxs, |bytes| {
            // One byte of every 64-byte cache line the run spans.
            folded ^= bytes.last().copied().unwrap_or(0);
            for b in bytes.iter().step_by(64) {
                folded ^= b;
            }
        });
        std::hint::black_box(folded);
    }

    /// The byte runs [`touch_answers`](Self::touch_answers) reads, passed
    /// to `visit` stage by stage.
    fn visit_answers<'s>(&'s self, idxs: &[u32], mut visit: impl FnMut(&'s [u8])) {
        for &idx in idxs {
            visit(self.rec_row(idx));
        }
        let strings = self.strings();
        for &idx in idxs {
            let rec = self.rec_row(idx);
            let at = |off: usize| u32_at(rec, off).expect("validated");
            for off in [40, 44, 48, 52] {
                visit(strings.offset_bytes(at(off)));
            }
            let s = &self.sections;
            visit(self.rows(&s.dcsteps, at(64), at(68), DC_SIZE));
            visit(self.rows(&s.pool, at(72), at(76), 4));
            visit(self.rows(&s.pool, at(80), at(84), 4));
            visit(self.rows(&s.merges, at(88), at(92), MERGE_SIZE));
            visit(self.rows(&s.clusters, at(56), 1, CLUSTER_SIZE));
        }
        for &idx in idxs {
            self.each_answer_string(&strings, idx, |text| visit(text.as_bytes()));
        }
    }

    /// Passes `visit` every string of the string table `strings` that
    /// record `idx`'s answer writes: the
    /// record's own (Direct Owner, base name, certificate, final label),
    /// its chain steps' organizations, its owner's merge rows' names and
    /// evidence, and its cluster's label.
    fn each_answer_string<'s>(
        &'s self,
        strings: &StringBlob<'s>,
        idx: u32,
        mut visit: impl FnMut(&'s str),
    ) {
        let rec = self.rec_row(idx);
        let at = |off: usize| u32_at(rec, off).expect("validated");
        let mut id = |id: u32| visit(strings.get(id).expect("validated"));
        for off in [40, 44, 52] {
            id(at(off));
        }
        if at(48) != NONE_ID {
            id(at(48));
        }
        let s = &self.sections;
        for row in self
            .rows(&s.dcsteps, at(64), at(68), DC_SIZE)
            .chunks(DC_SIZE)
        {
            id(u32_at(row, PFX_SIZE).expect("validated"));
        }
        for row in self
            .rows(&s.merges, at(88), at(92), MERGE_SIZE)
            .chunks(MERGE_SIZE)
        {
            id(u32_at(row, 0).expect("validated"));
            id(u32_at(row, 4).expect("validated"));
        }
        id(u32_at(self.rows(&s.clusters, at(56), 1, CLUSTER_SIZE), 0).expect("validated"));
    }

    /// The record index holding exactly `prefix`, if any.
    pub fn exact(&self, prefix: &Prefix) -> Option<u32> {
        match self.lookup(prefix) {
            Some((matched, idx)) if matched == *prefix => Some(idx),
            _ => None,
        }
    }

    /// The routed prefix of record `idx`.
    pub fn record_prefix(&self, idx: u32) -> Prefix {
        let recs = &self.payload[self.sections.recs.clone()];
        read_prefix(recs, idx as usize * REC_SIZE).expect("validated")
    }

    /// Passes record `idx`'s decision-trace steps to `push` in order, each
    /// built once from the record's fields, its chain steps (most specific
    /// first, as the resolution walk meets them), its pool slices, its
    /// cluster row and its owner's merge rows. The trace's subject is the
    /// record's prefix.
    fn each_step<'s>(&'s self, idx: u32, mut push: impl FnMut(Step<'s>)) {
        let recs = &self.payload[self.sections.recs.clone()];
        let rec = &recs[idx as usize * REC_SIZE..(idx as usize + 1) * REC_SIZE];
        let at = |off: usize| u32_at(rec, off).expect("validated");
        let strings = self.strings();
        let text = |id: u32| Cow::Borrowed(strings.get(id).expect("validated"));
        push(Step::Origins(self.pool_numbers(at(80), at(84))));
        push(Step::Lpm(LpmWalk {
            blocks: rec[37],
            nodes: rec[38],
        }));
        let dcsteps = &self.payload[self.sections.dcsteps.clone()];
        for step in (at(64)..at(64) + at(68)).rev() {
            let row = &dcsteps[step as usize * DC_SIZE..(step as usize + 1) * DC_SIZE];
            push(Step::Customer {
                org: text(u32_at(row, PFX_SIZE).expect("validated")),
                alloc: AllocationType::ALL[row[22] as usize],
                block: read_prefix(row, 0).expect("validated"),
            });
        }
        let owner = text(at(40));
        push(Step::Owner {
            org: owner.clone(),
            alloc: AllocationType::ALL[rec[60] as usize],
            block: read_prefix(rec, PFX_SIZE).expect("validated"),
            registry: Registry::ALL[rec[36] as usize],
        });
        push(Step::BaseName {
            owner,
            base: text(at(44)),
        });
        push(Step::Certificate((at(48) != NONE_ID).then(|| text(at(48)))));
        push(Step::Rov(RovStatus::from_u8(rec[61]).expect("validated")));
        push(Step::AsnClusters(self.pool_numbers(at(72), at(76))));
        let merges = &self.payload[self.sections.merges.clone()];
        for row in (at(88)..at(88) + at(92)).map(|i| i as usize * MERGE_SIZE) {
            push(Step::Merge {
                other: text(u32_at(merges, row).expect("validated")),
                evidence: text(u32_at(merges, row + 4).expect("validated")),
            });
        }
        let clusters = &self.payload[self.sections.clusters.clone()];
        let cluster = at(56) as usize * CLUSTER_SIZE;
        push(Step::Final {
            label: text(u32_at(clusters, cluster).expect("validated")),
            names: u32_at(clusters, cluster + 4).expect("validated"),
        });
        // An asserted override replaces the final label with the asserted
        // org, so the flag byte plus the label name it.
        if rec[62] == 1 {
            push(Step::Asserted(text(at(52))));
        }
    }

    /// Record `idx`'s decision trace as text, laid out by [`write_trace`]:
    /// byte-identical to what [`attribution_trace`](crate::attribution_trace)
    /// renders for the record's prefix against the inputs it was frozen
    /// from.
    pub fn provenance(&self, idx: u32) -> String {
        let mut out = String::new();
        self.with_record_steps(idx, |steps| {
            write_trace(&mut out, &self.record_prefix(idx).text(), steps.iter())
        })
        .expect("String writes succeed");
        out
    }

    /// Writes record `idx`'s [`provenance`](Self::provenance) as a JSON
    /// string literal.
    pub fn write_provenance_json<W: fmt::Write + ?Sized>(
        &self,
        idx: u32,
        out: &mut W,
    ) -> fmt::Result {
        self.with_record_steps(idx, |steps| {
            write_trace_json(out, &self.record_prefix(idx).text(), steps.iter())
        })
    }

    /// Calls `f` with record `idx`'s steps, each built once: the layout
    /// writer walks them twice (widths, then lines). They are held on the
    /// stack when they fit, as nearly every record's do, and on the heap
    /// otherwise.
    fn with_record_steps<R>(&self, idx: u32, f: impl FnOnce(&[Step<'_>]) -> R) -> R {
        const INLINE: usize = 32;
        // Any step with nothing to drop fills the unused slots.
        let filler = || Step::Rov(RovStatus::NotFound);
        let mut inline: [Step<'_>; INLINE] = std::array::from_fn(|_| filler());
        let mut heap: Vec<Step<'_>> = Vec::new();
        let mut n = 0;
        self.each_step(idx, |step| {
            if n < INLINE {
                inline[n] = step;
            } else {
                if heap.is_empty() {
                    heap.extend(inline.iter_mut().map(|s| std::mem::replace(s, filler())));
                }
                heap.push(step);
            }
            n += 1;
        });
        if n <= INLINE {
            f(&inline[..n])
        } else {
            f(&heap)
        }
    }

    /// The BGP origin ASNs observed for record `idx` at freeze time,
    /// ascending.
    pub fn origins(&self, idx: u32) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.pool_slice(self.rec_u32(idx, 80), self.rec_u32(idx, 84))
    }

    /// The ROV state of record `idx`.
    pub fn rov(&self, idx: u32) -> RovStatus {
        let recs = &self.payload[self.sections.recs.clone()];
        RovStatus::from_u8(recs[idx as usize * REC_SIZE + 61]).expect("validated")
    }

    /// Whether record `idx` carries a local operator override.
    pub fn has_local_exception(&self, idx: u32) -> bool {
        let recs = &self.payload[self.sections.recs.clone()];
        recs[idx as usize * REC_SIZE + 62] == 1
    }

    /// `[valid, invalid, not_found]` record counts, indexed by
    /// [`RovStatus::as_u8`] — the frozen counterpart of
    /// [`Prefix2OrgDataset::rov_tallies`].
    pub fn rov_tallies(&self) -> [u64; 3] {
        let mut tallies = [0u64; 3];
        for idx in 0..self.sections.record_count {
            tallies[self.rov(idx).as_u8() as usize] += 1;
        }
        tallies
    }

    /// Number of records overridden by local operator exceptions.
    pub fn exception_count(&self) -> u64 {
        (0..self.sections.record_count)
            .filter(|&idx| self.has_local_exception(idx))
            .count() as u64
    }

    /// Writes record `idx`'s Listing-1 object into `out`, byte-identical
    /// to [`PrefixRecord::listing1_json`] on the live dataset. It reads the
    /// fixed-width record, the string blob, the chain-step table and the
    /// u32 pool in place: nothing is thawed and nothing is allocated.
    pub fn write_listing1<W: fmt::Write>(&self, idx: u32, out: &mut W) -> fmt::Result {
        let recs = &self.payload[self.sections.recs.clone()];
        let base = idx as usize * REC_SIZE;
        let at = |off: usize| u32_at(recs, base + off).expect("validated");
        let strings = self.strings();
        let text = |id: u32| strings.get(id).expect("validated");
        out.write_str("{\"RIR\":")?;
        write_escaped(out, Registry::ALL[recs[base + 36] as usize].name())?;
        out.write_str(",\"Direct Owner (DO)\":")?;
        write_escaped(out, text(at(40)))?;
        out.write_str(",\"DO Prefix\":\"")?;
        read_prefix(recs, base + PFX_SIZE)
            .expect("validated")
            .write_to(out)?;
        out.write_str("\",\"DO Allocation Type\":")?;
        write_alloc(out, recs[base + 60])?;
        out.write_str(",\"Delegated Customer(s) (DC)\":[")?;
        let dcsteps = &self.payload[self.sections.dcsteps.clone()];
        for (n, step) in (at(64)..at(64) + at(68)).enumerate() {
            let sbase = step as usize * DC_SIZE;
            out.write_str(if n == 0 {
                "{\"org_name\":"
            } else {
                ",{\"org_name\":"
            })?;
            write_escaped(
                out,
                text(u32_at(dcsteps, sbase + PFX_SIZE).expect("validated")),
            )?;
            out.write_str(",\"prefix\":\"")?;
            read_prefix(dcsteps, sbase)
                .expect("validated")
                .write_to(out)?;
            out.write_str("\",\"alloc\":")?;
            write_alloc(out, dcsteps[sbase + 22])?;
            out.write_char('}')?;
        }
        out.write_str("],\"Base name\":")?;
        write_escaped(out, text(at(44)))?;
        out.write_str(",\"RPKI Certificate\":")?;
        match at(48) {
            NONE_ID => out.write_str("null")?,
            id => write_escaped(out, text(id))?,
        }
        out.write_str(",\"Origin ASN Cluster\":")?;
        write_u32_array(out, self.pool_slice(at(72), at(76)))?;
        let rov = RovStatus::from_u8(recs[base + 61]).expect("validated");
        out.write_str(",\"RPKI ROV\":\"")?;
        out.write_str(rov.as_str())?;
        out.write_str("\",\"Final Cluster\":")?;
        write_escaped(out, text(at(52)))?;
        // An asserted override replaces the final label with the asserted
        // org, so the flag byte plus the label reconstruct it.
        if recs[base + 62] == 1 {
            out.write_str(",\"Local Exception\":")?;
            write_escaped(out, text(at(52)))?;
        }
        out.write_char('}')
    }

    /// Writes record `idx`'s canonical export object — its JSONL line
    /// without the newline — straight from the arena through the export's
    /// one writer: nothing is thawed.
    pub fn write_export_json<W: fmt::Write + ?Sized>(&self, idx: u32, out: &mut W) -> fmt::Result {
        let recs = &self.payload[self.sections.recs.clone()];
        let base = idx as usize * REC_SIZE;
        let at = |off: usize| u32_at(recs, base + off).expect("validated");
        let strings = self.strings();
        let text = |id: u32| strings.get(id).expect("validated");
        let dcsteps = &self.payload[self.sections.dcsteps.clone()];
        write_export_json(
            out,
            ExportFields {
                prefix: self.record_prefix(idx),
                registry: Registry::ALL[recs[base + 36] as usize].name(),
                direct_owner: text(at(40)),
                do_prefix: read_prefix(recs, base + PFX_SIZE).expect("validated"),
                do_alloc: AllocationType::ALL[recs[base + 60] as usize],
                delegated_customers: (at(64)..at(64) + at(68)).map(|step| {
                    let sbase = step as usize * DC_SIZE;
                    (
                        text(u32_at(dcsteps, sbase + PFX_SIZE).expect("validated")),
                        read_prefix(dcsteps, sbase).expect("validated"),
                        AllocationType::ALL[dcsteps[sbase + 22] as usize],
                    )
                }),
                base_name: text(at(44)),
                rpki_certificate: match at(48) {
                    NONE_ID => None,
                    id => Some(text(id)),
                },
                origin_asn_clusters: self.pool_slice(at(72), at(76)),
                rov: RovStatus::from_u8(recs[base + 61]).expect("validated"),
                final_cluster: text(at(52)),
                // An asserted override replaces the final label with the
                // asserted org, so the flag byte plus the label reconstruct
                // it.
                local_exception: (recs[base + 62] == 1).then(|| text(at(52))),
            },
        )
    }

    /// Re-derives the canonical JSONL export. Must reproduce the original
    /// byte-for-byte; [`jsonl_digest`](Self::jsonl_digest) pins the claim.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for idx in 0..self.sections.record_count {
            self.write_export_json(idx, &mut out)
                .expect("String writes succeed");
            out.push('\n');
        }
        out
    }

    /// Checks that [`to_jsonl`](Self::to_jsonl) would equal the bytes
    /// `export` reads, one line at a time without holding either whole. A
    /// mismatch names the first record whose line differs, by index and
    /// prefix, with the byte offset where its line starts in the export;
    /// or the count of bytes the export holds past the last record.
    fn check_thaws_to(&self, mut export: impl BufRead) -> Result<(), String> {
        let read_err = |e: io::Error| format!("reading the export: {e}");
        let mut at = 0;
        let mut line = String::new();
        for idx in 0..self.sections.record_count {
            line.clear();
            self.write_export_json(idx, &mut line)
                .expect("String writes succeed");
            line.push('\n');
            if !next_bytes_are(&mut export, line.as_bytes()).map_err(read_err)? {
                return Err(format!(
                    "record {idx} ({}) differs from the export line at byte {at}",
                    self.record_prefix(idx)
                ));
            }
            at += line.len();
        }
        match io::copy(&mut export, &mut io::sink()).map_err(read_err)? {
            0 => Ok(()),
            extra => Err(format!(
                "the export has {extra} more byte(s) after the last record"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exceptions::ExceptionSet;
    use crate::explain::attribution_trace;
    use crate::pipeline::Pipeline;
    use p2o_synth::{World, WorldConfig};

    fn frozen_from_seed(seed: u64) -> (FrozenDataset, String) {
        let world = World::generate(WorldConfig::tiny(seed));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        let jsonl = to_jsonl(&dataset);
        let payload = freeze(&inputs, &dataset, &edges, 0xDEAD_BEEF);
        (FrozenDataset::from_payload(payload).unwrap(), jsonl)
    }

    #[test]
    fn freeze_thaw_reproduces_canonical_jsonl() {
        let (frozen, jsonl) = frozen_from_seed(42);
        assert!(!frozen.is_empty(), "tiny world has records");
        assert_eq!(frozen.to_jsonl(), jsonl);
        assert_eq!(frozen.jsonl_digest(), Digest::of_bytes(jsonl.as_bytes()).0);
        assert_eq!(frozen.inputs_digest(), 0xDEAD_BEEF);
    }

    /// The check reads the export back from disk: the export as written
    /// passes, and a copy with an altered first line, without its last
    /// line, or with a trailing byte fails, naming the first record whose
    /// line differs and where that line starts, or the bytes past the last
    /// record. At one thread and at two the payload is the plain freeze
    /// with the export's digest stamped in, and the payload lane reads
    /// exactly it.
    #[test]
    fn freeze_verified_returns_the_plain_freeze_and_rejects_a_thaw_mismatch() {
        let world = World::generate(WorldConfig::tiny(42));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        let dir = std::env::temp_dir().join(format!("p2o-frozen-thaw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let vfs = Vfs::real();
        let path = dir.join("dataset.jsonl");
        let written = |bytes: &[u8]| {
            let entry =
                p2o_util::atomic::write_atomic_parts(&vfs, &path, "export", &[bytes]).unwrap();
            ExportBytes {
                digest: entry.digest,
                reader: io::BufReader::new(vfs.open(&path).unwrap()),
            }
        };
        let verified = |bytes: &[u8], threads: usize| {
            freeze_verified(
                &built.routes,
                &dataset,
                &edges,
                7,
                FreezeLanes {
                    export: || Ok(written(bytes)),
                    payload: |payload: &[u8]| payload.to_vec(),
                },
                threads,
                None,
            )
        };
        let entry = p2o_util::atomic::write_atomic_with(&vfs, &path, "export", |out| {
            crate::export::write_jsonl(&dataset, out)
        })
        .unwrap();
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert_eq!(jsonl, to_jsonl(&dataset));
        assert_eq!(entry.digest, Digest::of_bytes(jsonl.as_bytes()).0);
        for threads in [1, 2] {
            let (frozen, read) = verified(jsonl.as_bytes(), threads).unwrap();
            assert_eq!(frozen.payload(), &freeze(&inputs, &dataset, &edges, 7)[..]);
            assert_eq!(read, frozen.payload(), "threads {threads}");
        }
        let first_line_end = jsonl.find('\n').unwrap();
        let last_line_start = jsonl[..jsonl.len() - 1].rfind('\n').unwrap() + 1;
        let last = dataset.len() - 1;
        for (other, names) in [
            (
                format!("{jsonl}\n"),
                "the export has 1 more byte(s) after the last record".to_string(),
            ),
            (
                jsonl[..last_line_start].to_string(),
                format!(
                    "record {last} ({}) differs from the export line at byte {last_line_start}",
                    dataset.records()[last].prefix
                ),
            ),
            (
                format!(
                    "{} \n{}",
                    &jsonl[..first_line_end],
                    &jsonl[first_line_end + 1..]
                ),
                format!(
                    "record 0 ({}) differs from the export line at byte 0",
                    dataset.records()[0].prefix
                ),
            ),
        ] {
            for threads in [1, 2] {
                let err = verified(other.as_bytes(), threads).unwrap_err();
                assert_eq!(
                    err,
                    format!("frozen artifact does not thaw back to the canonical export: {names}"),
                    "threads {threads}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The export lane's error is the freeze's, once the freeze beside it
    /// has finished, and a panic in either lane reaches the caller, at one
    /// thread and at two; an observed freeze nests each fork's rows in
    /// its enclosing row, in the one-thread order.
    #[test]
    fn lane_failures_reach_the_caller_and_rows_nest_per_fork() {
        let world = World::generate(WorldConfig::tiny(7));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        type Export<'a> = &'a (dyn Fn() -> Result<String, String> + Sync);
        type Payload<'a> = &'a (dyn Fn(&[u8]) + Sync);
        let freeze_beside =
            |export: Export<'_>, payload: Payload<'_>, threads: usize, obs: Option<&Obs>| {
                freeze_verified(
                    &built.routes,
                    &dataset,
                    &edges,
                    0,
                    FreezeLanes {
                        export: || export().map(ExportBytes::in_memory),
                        payload,
                    },
                    threads,
                    obs,
                )
                .map(drop)
            };
        let render = || Ok(to_jsonl(&dataset));
        for threads in [1, 2] {
            let failed = freeze_beside(&|| Err("disk full".into()), &|_| (), threads, None);
            assert_eq!(failed.unwrap_err(), "disk full", "threads {threads}");
            for (export, payload) in [
                (
                    &(|| -> Result<String, String> { panic!("the export lane panicked") })
                        as Export<'_>,
                    &(|_: &[u8]| ()) as Payload<'_>,
                ),
                (&render, &|_: &[u8]| panic!("the payload lane panicked")),
            ] {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    freeze_beside(export, payload, threads, None)
                }));
                let message = caught.expect_err("the panic must reach the caller");
                assert!(
                    message
                        .downcast_ref::<&str>()
                        .is_some_and(|m| m.ends_with("lane panicked")),
                    "threads {threads}"
                );
            }
            let obs = Obs::new();
            let timed = |name: &str| obs.time(name, || ());
            freeze_beside(
                &|| {
                    timed("core.export");
                    render()
                },
                &|_| timed("util.frame_digest"),
                threads,
                Some(&obs),
            )
            .unwrap();
            let rows: Vec<(String, Option<String>)> = obs
                .report()
                .stages
                .into_iter()
                .map(|s| (s.name, s.within))
                .collect();
            let row =
                |name: &str, within: Option<&str>| (name.to_string(), within.map(str::to_string));
            assert_eq!(
                rows,
                [
                    row("emit.export_freeze", None),
                    row("core.export", Some("emit.export_freeze")),
                    row("core.freeze", Some("emit.export_freeze")),
                    row("emit.verify_frame", None),
                    row("core.thaw_verify", Some("emit.verify_frame")),
                    row("util.frame_digest", Some("emit.verify_frame")),
                ],
                "threads {threads}"
            );
        }
    }

    #[test]
    fn lookup_and_listing1_agree_with_live_dataset() {
        let world = World::generate(WorldConfig::tiny(7));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        let payload = freeze(&inputs, &dataset, &edges, 1);
        let frozen = FrozenDataset::from_payload(payload).unwrap();
        assert_eq!(frozen.len(), dataset.len());
        for (idx, rec) in dataset.records().iter().enumerate() {
            let idx = idx as u32;
            assert_eq!(frozen.lookup(&rec.prefix), Some((rec.prefix, idx)));
            assert_eq!(frozen.exact(&rec.prefix), Some(idx));
            assert_eq!(frozen.record_prefix(idx), rec.prefix);
            let mut listing1 = String::new();
            frozen.write_listing1(idx, &mut listing1).unwrap();
            assert_eq!(listing1, rec.listing1_json().to_string());
            assert_eq!(
                frozen.provenance(idx),
                attribution_trace(&inputs, &dataset, &edges, &rec.prefix).render()
            );
            let want: Vec<u32> = built
                .routes
                .origins(&rec.prefix)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            assert_eq!(frozen.origins(idx).collect::<Vec<_>>(), want);
        }
    }

    /// `lookup_many` answers every query as `lookup` does, over a run of
    /// v4 and v6 record prefixes, more-specifics and uncovered queries
    /// that spans several passes, interleaved so that each pass splits
    /// unevenly between the families.
    #[test]
    fn lookup_many_answers_each_query_as_lookup_does() {
        let (frozen, _) = frozen_from_seed(7);
        let mut queries: Vec<Prefix> = Vec::new();
        for idx in 0..frozen.len() as u32 {
            let prefix = frozen.record_prefix(idx);
            queries.push(prefix);
            queries.push(match prefix {
                Prefix::V4(p) => Prefix::V4(Prefix4::new_truncated(p.bits() | 1, 32)),
                Prefix::V6(p) => Prefix::V6(Prefix6::new_truncated(p.bits() | 1, 128)),
            });
            if idx % 3 == 0 {
                queries.push("10.1.0.0/16".parse().unwrap());
                queries.push("3fff::/20".parse().unwrap());
            }
        }
        assert!(queries.iter().any(|q| matches!(q, Prefix::V6(_))));
        let mut out = vec![None; queries.len()];
        frozen.lookup_many(&queries, &mut out);
        for (q, got) in queries.iter().zip(&out) {
            assert_eq!(*got, frozen.lookup(q), "{q}");
        }
    }

    /// The read-ahead reaches every string an answer writes: for every
    /// record of tiny seed 42 and default seed 7, each under a rule file
    /// that asserts one record, and of the merge fixture, each string of
    /// the record's trace steps and of its Listing-1 object lies inside a
    /// byte run that `touch_answers` reads for that record.
    #[test]
    fn touch_answers_reads_every_string_an_answer_writes() {
        let mut merges = 0;
        for config in [WorldConfig::tiny(42), WorldConfig::default_scale(7)] {
            let world = World::generate(config);
            let built = world.build_inputs();
            let inputs = PipelineInputs {
                delegations: &built.tree,
                routes: &built.routes,
                asn_clusters: &built.clusters,
                rpki: &built.rpki,
            };
            let (mut dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
            let rule = format!(
                "{{\"prefix\":\"{}\",\"action\":\"assert\",\"org\":\"Operator Org\"}}\n",
                dataset.records()[1].prefix
            );
            let (rules, rejects) = ExceptionSet::parse_lenient(&rule);
            assert!(rejects.is_empty(), "{rejects:?}");
            rules.apply(&mut dataset);
            let frozen = FrozenDataset::from_payload(freeze(&inputs, &dataset, &edges, 0)).unwrap();
            assert_eq!(frozen.exception_count(), 1);
            merges += assert_touch_reads_every_written_string(&frozen);
        }
        let fixture = FrozenDataset::from_payload(merge_fixture_payload()).unwrap();
        merges += assert_touch_reads_every_written_string(&fixture);
        assert!(merges > 0, "some answer writes merge steps");
    }

    /// Checks, for every record of `frozen`, that every string its answer
    /// writes is read ahead; returns how many merge steps the answers
    /// write.
    fn assert_touch_reads_every_written_string(frozen: &FrozenDataset) -> usize {
        let mut merges = 0;
        for idx in 0..frozen.len() as u32 {
            let mut read: Vec<std::ops::Range<usize>> = Vec::new();
            frozen.visit_answers(&[idx], |bytes| {
                let span = bytes.as_ptr_range();
                read.push(span.start as usize..span.end as usize);
            });
            let mut written: Vec<&str> = Vec::new();
            frozen.each_step(idx, |step| match step {
                Step::Customer { org, .. } | Step::Owner { org, .. } => written.push(text_of(org)),
                Step::BaseName { owner, base } => written.extend([text_of(owner), text_of(base)]),
                Step::Certificate(Some(cert)) => written.push(text_of(cert)),
                Step::Merge { other, evidence } => {
                    merges += 1;
                    written.extend([text_of(other), text_of(evidence)]);
                }
                Step::Final { label, .. } | Step::Asserted(label) => written.push(text_of(label)),
                _ => {}
            });
            // The Listing-1 object's final cluster: the one string of the
            // record's own that no step writes unless it is asserted.
            written.push(frozen.strings().get(frozen.rec_u32(idx, 52)).unwrap());
            for text in written.into_iter().filter(|t| !t.is_empty()) {
                let span = text.as_bytes().as_ptr_range();
                let (start, end) = (span.start as usize, span.end as usize);
                assert!(
                    read.iter().any(|r| r.start <= start && end <= r.end),
                    "record {idx}: {text:?} is not read ahead"
                );
            }
        }
        frozen.touch_answers(&(0..frozen.len() as u32).collect::<Vec<_>>());
        merges
    }

    /// A step's borrowed string: the frozen steps borrow every name from
    /// the string table.
    fn text_of<'a>(text: Cow<'a, str>) -> &'a str {
        match text {
            Cow::Borrowed(text) => text,
            Cow::Owned(text) => panic!("{text:?} is not borrowed from the string table"),
        }
    }

    /// Property: for every record of tiny seeds 7 and 42 and default seed
    /// 7, with no rule file and with one that
    /// asserts one record (to an org name holding quotes) and filters
    /// another, the frozen trace is the live trace's text, and its JSON
    /// form is that text escaped.
    #[test]
    fn frozen_provenance_is_the_live_trace_for_every_record() {
        for config in [
            WorldConfig::tiny(7),
            WorldConfig::tiny(42),
            WorldConfig::default_scale(7),
        ] {
            let world = World::generate(config);
            let built = world.build_inputs();
            let inputs = PipelineInputs {
                delegations: &built.tree,
                routes: &built.routes,
                asn_clusters: &built.clusters,
                rpki: &built.rpki,
            };
            let pipeline = Pipeline::default();
            let records = pipeline.run(&inputs).records().to_vec();
            let rules = format!(
                "{{\"prefix\":\"{}\",\"action\":\"assert\",\"org\":\"Operator \\\"Quoted\\\" Org\"}}\n\
                 {{\"prefix\":\"{}\",\"action\":\"filter\"}}\n",
                records[1].prefix, records[2].prefix
            );
            let (rules, rejects) = ExceptionSet::parse_lenient(&rules);
            assert!(rejects.is_empty(), "{rejects:?}");
            for exceptions in [None, Some(&rules)] {
                let (mut dataset, edges) = pipeline.dataset_with_evidence(&inputs, None);
                if let Some(set) = exceptions {
                    let summary = set.apply(&mut dataset);
                    assert_eq!((summary.asserted, summary.filtered), (1, 1));
                }
                let (frozen, ()) = freeze_verified(
                    &built.routes,
                    &dataset,
                    &edges,
                    0,
                    FreezeLanes {
                        export: || Ok(ExportBytes::in_memory(to_jsonl(&dataset))),
                        payload: |_: &[u8]| (),
                    },
                    1,
                    None,
                )
                .unwrap();
                for (idx, rec) in (0u32..).zip(dataset.records()) {
                    let trace = attribution_trace(&inputs, &dataset, &edges, &rec.prefix);
                    let text = trace.render();
                    assert_eq!(frozen.provenance(idx), text, "{}", rec.prefix);
                    let mut json = String::new();
                    frozen.write_provenance_json(idx, &mut json).unwrap();
                    let mut escaped = String::new();
                    write_escaped(&mut escaped, &text).unwrap();
                    assert_eq!(json, escaped, "{}", rec.prefix);
                }
            }
        }
    }

    /// A record whose trace has more steps than the stack array holds (a
    /// Direct Owner /8 with a reassignment on every longer block down to
    /// the routed /32, two on the /16) renders as the live trace does.
    #[test]
    fn a_trace_longer_than_the_step_array_renders_as_live() {
        use p2o_net::{IpRange, Range4};
        use p2o_whois::record::{OrgRef, RawWhoisRecord};
        use p2o_whois::{Rir, WhoisDb};

        let mut db = WhoisDb::new();
        let mut add = |len: u8, org: String, alloc: AllocationType| {
            let block = Prefix4::new_truncated(0x0A00_0000, len);
            db.add_record(RawWhoisRecord {
                net: IpRange::V4(Range4::from_prefix(&block)),
                org: OrgRef::Name(org),
                alloc: Some(alloc),
                source: Registry::Rir(Rir::Arin),
                last_modified: 20240101,
            });
        };
        add(8, "Carrier".into(), AllocationType::Allocation);
        for len in 9..=32 {
            add(len, format!("Customer {len}"), AllocationType::Reassignment);
        }
        add(16, "Regional ISP".into(), AllocationType::Reallocation);
        let (tree, _) = db.build();
        let mut routes = p2o_bgp::RouteTable::new();
        routes.add_route("10.0.0.0/32".parse().unwrap(), 64512);
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let (rpki, _) = p2o_rpki::RpkiRepository::new().validate(20240901);
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };
        let (dataset, edges) = Pipeline::with_threads(1).dataset_with_evidence(&inputs, None);
        let frozen = FrozenDataset::from_payload(freeze(&inputs, &dataset, &edges, 0)).unwrap();
        let trace = attribution_trace(&inputs, &dataset, &edges, &dataset.records()[0].prefix);
        assert!(trace.steps.len() > 32, "{} steps", trace.steps.len());
        assert_eq!(frozen.provenance(0), trace.render());
        let mut json = String::new();
        frozen.write_provenance_json(0, &mut json).unwrap();
        let mut escaped = String::new();
        write_escaped(&mut escaped, &trace.render()).unwrap();
        assert_eq!(json, escaped);
    }

    #[test]
    fn every_allocation_type_prints_as_listing1_does() {
        for (index, t) in AllocationType::ALL.iter().enumerate() {
            let mut out = String::new();
            write_alloc(&mut out, index as u8).unwrap();
            assert_eq!(
                out,
                p2o_util::Json::from(t.keyword().to_uppercase()).to_string()
            );
        }
    }

    #[test]
    fn freezing_is_deterministic() {
        let world = World::generate(WorldConfig::tiny(42));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        let a = freeze(&inputs, &dataset, &edges, 5);
        let b = freeze(&inputs, &dataset, &edges, 5);
        assert_eq!(a, b, "same inputs must freeze to identical bytes");
    }

    /// Golden pin: the frozen payload at a fixed seed and fixed inputs
    /// digest hashes to a known value. Any change to the byte layout —
    /// section order, record width, string-intern order, LPM span
    /// encoding — trips this and must come with a FROZEN_FORMAT_VERSION
    /// bump and a re-pin.
    #[test]
    fn frozen_payload_digest_is_pinned_at_fixed_seed() {
        let (frozen, _) = frozen_from_seed(42);
        let digest = Digest::of_bytes(&frozen.payload).0;
        assert_eq!(
            digest, GOLDEN_FROZEN_DIGEST,
            "frozen byte layout changed: bump FROZEN_FORMAT_VERSION and re-pin \
             (got {digest:#018x})"
        );
    }

    const GOLDEN_FROZEN_DIGEST: u64 = 0x4a21_41fa_72fc_c4e4;

    /// Size guard: no trace text is stored, only the facts its steps are
    /// built from, so the tiny seed-42 payload stays near its v4 size.
    /// Format v2 stored rendered traces (835.5 B per record), v3 their
    /// `(rule, detail)` string ids (315.5 B); v4 measures 164.7 B per
    /// record. The bound is that plus 5%.
    #[test]
    fn frozen_payload_stays_under_its_v4_size_per_record() {
        let (frozen, _) = frozen_from_seed(42);
        let per_record = frozen.payload.len() as f64 / frozen.len() as f64;
        assert!(
            per_record <= 164.7 * 1.05,
            "{per_record:.1} B per record: the frozen artifact grew"
        );
    }

    /// The frozen payload of the explain tests' merge fixture.
    fn merge_fixture_payload() -> Vec<u8> {
        let (tree, routes, rpki) = crate::explain::tests::merge_fixture();
        let clusters = p2o_as2org::As2OrgDb::new().cluster();
        let inputs = PipelineInputs {
            delegations: &tree,
            routes: &routes,
            asn_clusters: &clusters,
            rpki: &rpki,
        };
        let pipeline = Pipeline {
            cluster_options: crate::cluster::ClusterOptions {
                frequency_threshold: 0,
                ..Default::default()
            },
            ..Pipeline::with_threads(1)
        };
        let (dataset, edges) = pipeline.dataset_with_evidence(&inputs, None);
        freeze(&inputs, &dataset, &edges, 0)
    }

    #[test]
    fn validate_rejects_damage() {
        let (frozen, _) = frozen_from_seed(42);
        let payload = frozen.payload.clone();
        assert!(FrozenDataset::validate_payload(&payload).is_ok());

        // Truncation.
        let err = FrozenDataset::validate_payload(&payload[..payload.len() - 1]).unwrap_err();
        assert!(!err.is_empty());

        // Future interior format version.
        let meta = index_sections(&payload).unwrap();
        let _ = meta; // meta offset located below by section lookup
        let arena = ArenaIndex::parse(&payload).unwrap();
        let meta_range = arena.require("meta").unwrap();
        let mut bad = payload.clone();
        bad[meta_range.start..meta_range.start + 4]
            .copy_from_slice(&(FROZEN_FORMAT_VERSION + 1).to_le_bytes());
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(err.contains("newer than this reader"), "{err}");

        // An artifact of the previous format (rendered traces) is refused
        // and must be rebuilt.
        let mut bad = payload.clone();
        bad[meta_range.start..meta_range.start + 4]
            .copy_from_slice(&(FROZEN_FORMAT_VERSION - 1).to_le_bytes());
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(
            err.contains("older than this reader") && err.contains("rebuild the artifact"),
            "{err}"
        );
        assert_eq!(payload_format_version(&bad), Ok(FROZEN_FORMAT_VERSION - 1));

        // Corrupt record count: section arithmetic breaks.
        let mut bad = payload.clone();
        bad[meta_range.start + 4..meta_range.start + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(err.contains("recs section"), "{err}");

        // Corrupt a string id in record 0 (direct owner).
        let recs_range = arena.require("recs").unwrap();
        let mut bad = payload.clone();
        bad[recs_range.start + 40..recs_range.start + 44]
            .copy_from_slice(&0xFFFF_FF00u32.to_le_bytes());
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(err.contains("string id out of range"), "{err}");

        // A registry index past the registry list.
        let mut bad = payload.clone();
        bad[recs_range.start + 36] = Registry::ALL.len() as u8;
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(
            err.contains("record 0: registry index out of range"),
            "{err}"
        );

        // A cluster index past the cluster table.
        let clusters_range = arena.require("clusters").unwrap();
        let cluster_count = (clusters_range.len() / CLUSTER_SIZE) as u32;
        let mut bad = payload.clone();
        bad[recs_range.start + 56..recs_range.start + 60]
            .copy_from_slice(&cluster_count.to_le_bytes());
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(
            err.contains("record 0: cluster index past the cluster table"),
            "{err}"
        );

        // A merge slice running past the merge table.
        let merge_count = (arena.require("merges").unwrap().len() / MERGE_SIZE) as u32;
        let mut bad = payload.clone();
        bad[recs_range.start + 88..recs_range.start + 92].copy_from_slice(&0u32.to_le_bytes());
        bad[recs_range.start + 92..recs_range.start + 96]
            .copy_from_slice(&(merge_count + 1).to_le_bytes());
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(
            err.contains("record 0: merge slice past the merge table"),
            "{err}"
        );

        // An out-of-range label string id in a cluster row.
        let mut bad = payload.clone();
        bad[clusters_range.start..clusters_range.start + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let err = FrozenDataset::validate_payload(&bad).unwrap_err();
        assert!(
            err.contains("cluster 0: label string id out of range"),
            "{err}"
        );

        // Out-of-range string ids in a merge row, in a world whose owners
        // carry merge steps.
        let fixture = merge_fixture_payload();
        let merges = ArenaIndex::parse(&fixture)
            .unwrap()
            .require("merges")
            .unwrap();
        assert!(!merges.is_empty(), "the fixture has merge rows");
        for (off, what) in [
            (0, "merge row 0: other-name string id out of range"),
            (4, "merge row 0: evidence string id out of range"),
        ] {
            let mut bad = fixture.clone();
            bad[merges.start + off..merges.start + off + 4]
                .copy_from_slice(&u32::MAX.to_le_bytes());
            let err = FrozenDataset::validate_payload(&bad).unwrap_err();
            assert!(err.contains(what), "{err}");
        }

        // Flip a bit inside the LPM section.
        let lpm_range = arena.require("lpm4").unwrap();
        if lpm_range.len() > 12 {
            let mut bad = payload.clone();
            bad[lpm_range.start + 8] ^= 0x01;
            assert!(FrozenDataset::validate_payload(&bad).is_err());
        }
    }
}
