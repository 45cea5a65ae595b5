//! The on-disk layout shared by `generate` and `build`:
//!
//! ```text
//! DIR/
//!   whois/<REGISTRY>.txt   bulk dumps in each registry's native flavour
//!   rib.mrt                MRT TABLE_DUMP_V2 RIB snapshot
//!   as2org.tsv             asn, org_id, org_name, country
//!   siblings.tsv           asn_a, asn_b (as2org+/IIL-style edges)
//!   jpnic_alloc.tsv        prefix, allocation-type keyword (the JPNIC
//!                          per-prefix query service, §4.2)
//!   rpki.jsonl             certificates and ROAs (p2o-rpki persist format)
//!   delegated/<RIR>.txt    NRO delegated-extended statistics per RIR
//!   pfx2as.txt             CAIDA routeviews-prefix2as view of the RIB
//!   truth/lists.tsv        org_name, exhaustive, prefix (ground truth;
//!                          parsed only by `validate`)
//!   meta.tsv               key, value (snapshot date, seed)
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Read;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use p2o_bgp::RouteTable;
use p2o_net::Prefix;
use p2o_synth::World;
use p2o_util::digest::NamedContent;
use p2o_util::ingest::{IngestError, Quarantine, QuarantinedRecord};
use p2o_util::manifest::{Manifest, ManifestEntry, VerifyIssue};
use p2o_util::vfs::Vfs;
use p2o_util::{atomic, tsv, Digest};
use p2o_whois::alloc::AllocationType;
use p2o_whois::{DelegationTree, Registry, Rir, WhoisDb};
use prefix2org::FROZEN_FILE;

use crate::checkpoint;

/// Version of the on-disk directory layout, written into `meta.tsv` as
/// `format_version`. Bump when the layout changes incompatibly; loaders
/// reject anything newer than they understand with a one-line error
/// instead of a confusing downstream parse failure.
pub const FORMAT_VERSION: u32 = 1;

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Writes a generated world to `dir` — every artifact atomically (tmp +
/// fsync + rename through `vfs`), each one recorded in the returned
/// [`Manifest`]. The caller saves the manifest *last*, after any further
/// overwrites (e.g. corruption injection), so it always describes the
/// final on-disk bytes.
pub fn write_world(vfs: &Vfs, world: &World, dir: &Path) -> Result<Manifest, String> {
    let whois_dir = dir.join("whois");
    vfs.create_dir_all(&whois_dir)
        .map_err(|e| io_err("creating", &whois_dir, e))?;
    let truth_dir = dir.join("truth");
    vfs.create_dir_all(&truth_dir)
        .map_err(|e| io_err("creating", &truth_dir, e))?;

    let mut manifest = Manifest::new();
    let put = |manifest: &mut Manifest, relpath: String, bytes: &[u8]| -> Result<(), String> {
        let path = dir.join(&relpath);
        let written = atomic::write_atomic_parts(vfs, &path, "store", &[bytes])
            .map_err(|e| io_err("writing", &path, e))?;
        manifest.record_entry(&relpath, written);
        Ok(())
    };

    for dump in &world.whois_dumps {
        put(
            &mut manifest,
            format!("whois/{}.txt", dump.registry),
            dump.text.as_bytes(),
        )?;
    }
    put(&mut manifest, "rib.mrt".to_string(), &world.mrt)?;
    put(
        &mut manifest,
        "as2org.tsv".to_string(),
        world.as2org.records_tsv().as_bytes(),
    )?;

    // Sibling edges are not exposed by As2OrgDb directly; regenerate them
    // from the cluster structure: spanning edges per cluster are enough to
    // reproduce identical clustering.
    let clusters = world.as2org.cluster();
    let mut edges: Vec<Vec<String>> = Vec::new();
    for (_, members) in clusters.iter() {
        for pair in members.windows(2) {
            edges.push(vec![pair[0].to_string(), pair[1].to_string()]);
        }
    }
    put(
        &mut manifest,
        "siblings.tsv".to_string(),
        tsv::write_rows(&edges).as_bytes(),
    )?;

    let mut rows: Vec<Vec<String>> = world
        .jpnic_alloc
        .iter()
        .map(|(p, t)| vec![p.to_string(), t.keyword().to_string()])
        .collect();
    rows.sort();
    put(
        &mut manifest,
        "jpnic_alloc.tsv".to_string(),
        tsv::write_rows(&rows).as_bytes(),
    )?;

    // RPKI goes through the persist crate's own atomic writer; record the
    // same serialization in the manifest.
    let rpki_path = dir.join("rpki.jsonl");
    p2o_rpki::persist::save_jsonl(vfs, &rpki_path, &world.rpki)
        .map_err(|e| io_err("writing", &rpki_path, e))?;
    manifest.record(
        "rpki.jsonl",
        p2o_rpki::persist::to_jsonl(&world.rpki).as_bytes(),
    );

    // Delegated-extended statistics (the paper's §4.1 footnote source).
    let delegated_dir = dir.join("delegated");
    vfs.create_dir_all(&delegated_dir)
        .map_err(|e| io_err("creating", &delegated_dir, e))?;
    for (rir, text) in world.delegated_files() {
        put(
            &mut manifest,
            format!("delegated/{}.txt", rir.name()),
            text.as_bytes(),
        )?;
    }

    // A CAIDA prefix2as rendering of the RIB for interchange with existing
    // tooling.
    let routes =
        RouteTable::from_mrt(&world.mrt).map_err(|e| format!("generated MRT must parse: {e}"))?;
    put(
        &mut manifest,
        "pfx2as.txt".to_string(),
        p2o_bgp::pfx2as::write(&routes).as_bytes(),
    )?;

    let mut rows: Vec<Vec<String>> = Vec::new();
    for list in &world.truth.published_lists {
        for prefix in &list.prefixes {
            rows.push(vec![
                list.org_name.clone(),
                list.exhaustive.to_string(),
                prefix.to_string(),
            ]);
        }
    }
    put(
        &mut manifest,
        "truth/lists.tsv".to_string(),
        tsv::write_rows(&rows).as_bytes(),
    )?;

    let meta = vec![
        vec!["format_version".to_string(), FORMAT_VERSION.to_string()],
        vec![
            "snapshot_date".to_string(),
            world.config.snapshot_date.to_string(),
        ],
        vec!["seed".to_string(), world.config.seed.to_string()],
        vec!["transfers".to_string(), world.config.transfers.to_string()],
    ];
    put(
        &mut manifest,
        "meta.tsv".to_string(),
        tsv::write_rows(&meta).as_bytes(),
    )?;
    Ok(manifest)
}

/// The snapshot date in `meta.tsv`'s text (20240901 when it names none),
/// once its `format_version` is one this binary reads: the gate `build`
/// and `fsck` share.
pub fn parse_meta(text: &str) -> Result<u32, String> {
    let mut snapshot_date = 20240901;
    for row in tsv::parse_rows(text, 2).map_err(|e| format!("meta.tsv: {e}"))? {
        let bad = || format!("meta.tsv: bad {} {:?}", row[0], row[1]);
        match row[0].as_str() {
            "format_version" => {
                let version: u32 = row[1].parse().map_err(|_| bad())?;
                if version > FORMAT_VERSION {
                    return Err(format!(
                        "meta.tsv: format_version {version} is newer than this binary \
                         supports (max {FORMAT_VERSION}); upgrade prefix2org or regenerate \
                         the directory with this version"
                    ));
                }
            }
            "snapshot_date" => snapshot_date = row[1].parse().map_err(|_| bad())?,
            _ => {}
        }
    }
    Ok(snapshot_date)
}

/// What the integrity scan of a data directory found.
#[derive(Debug)]
pub struct IntegrityScan {
    /// Digest over every input file, relative path plus content, in
    /// [`checkpoint::input_files`] order: the part of every inputs digest
    /// that reads the disk (the `.ckpt` stamp's and the frozen META's).
    pub files_digest: Digest,
    /// `MANIFEST.tsv` rows whose file failed the check, sorted by path.
    pub torn: Vec<(String, VerifyIssue)>,
    /// `MANIFEST.tsv` rows whose file matched.
    pub verified: u64,
    /// FNV-1a of the artifact payload the scan was handed, if any.
    pub artifact_digest: Option<u64>,
}

/// `path` relative to `dir`, with `/` separators: how `MANIFEST.tsv`, the
/// inputs digest and `fsck` name a file.
pub fn relpath(dir: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(dir).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// The one integrity read of a data directory: one streamed pass over
/// every input file, in [`checkpoint::input_files`] order, each hashed
/// for the files digest and for its `MANIFEST.tsv` row; the rows left over
/// (`pfx2as.txt`, `adversary.json`), each hashed for its row; and
/// `artifact`, a frame payload the caller read, hashed for its frame
/// digest. Rows for framed files (`world.p2ob`, `.ckpt` stamps) are left
/// to the frame check. Fails on an unreadable manifest or input file, and
/// on a file whose length changes while it is read.
pub fn scan_integrity(
    vfs: &Vfs,
    dir: &Path,
    artifact: Option<&[u8]>,
) -> Result<IntegrityScan, String> {
    Scan::open(vfs, dir, artifact)?.finish()
}

/// Bytes each lane of the integrity pass reads from a file at a time.
pub(crate) const LANE_BUFFER: usize = 256 * 1024;

/// What a source of the integrity pass is hashed for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// An input file: the files digest and its manifest row.
    Input,
    /// A manifest row no input file checks.
    Row,
    /// The artifact payload: its frame digest.
    Artifact,
}

/// An integrity scan whose sources are open, each with the length its
/// digest frames fixed from the opened file; [`finish`](Self::finish)
/// streams them. A source's outcome is folded in the order of `sources`:
/// the inputs, the rows left over, then the artifact.
struct Scan<'a> {
    /// The `MANIFEST.tsv` rows to check, by relative path.
    rows: BTreeMap<String, ManifestEntry>,
    /// Every source's relative path, path on disk and role, in fold order.
    sources: Vec<(String, PathBuf, Role)>,
    /// The sources that opened.
    streams: Vec<Stream<'a>>,
    /// Each source's outcome by fold index; one that failed to open has
    /// it already.
    outcomes: Vec<Option<Outcome>>,
}

/// A source's named digest and its identity, or why it has none.
type Outcome = Result<(Digest, ManifestEntry), Unread>;

/// Why a source of the integrity pass yielded no digest.
#[derive(Debug)]
enum Unread {
    /// Opening or reading it failed.
    Io(std::io::Error),
    /// It ended after `got` of the `len` bytes it held when opened.
    Shrank { len: u64, got: u64 },
    /// It ran past the `len` bytes it held when opened.
    Grew { len: u64 },
}

impl Unread {
    /// The scan's error for source `path`.
    fn describe(self, path: &Path) -> String {
        match self {
            Unread::Io(e) => io_err("reading", path, e),
            Unread::Shrank { len, got } => format!(
                "reading {}: the file ended after {got} of the {len} bytes it held when opened",
                path.display()
            ),
            Unread::Grew { len } => format!(
                "reading {}: the file ran past the {len} bytes it held when opened",
                path.display()
            ),
        }
    }
}

/// Where a source's bytes come from.
enum Body<'a> {
    /// A file, read in pieces.
    File(std::fs::File),
    /// Bytes already in memory, hashed in place; `taken` once handed out.
    Memory { data: &'a [u8], taken: bool },
}

/// One open source and its digests so far.
struct Stream<'a> {
    /// The source's fold index.
    idx: usize,
    body: Body<'a>,
    hash: NamedContent,
}

impl Stream<'_> {
    /// The source's next bytes: a range of `buf` for a file, of the data
    /// for a memory body; `None` at its end.
    fn refill(&mut self, buf: &mut [u8]) -> Result<Option<Range<usize>>, Unread> {
        let n = match &mut self.body {
            Body::Memory { data, taken } => {
                let n = if *taken { 0 } else { data.len() };
                *taken = true;
                n
            }
            Body::File(file) => loop {
                match file.read(buf) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(Unread::Io(e)),
                }
            },
        };
        let len = self.hash.declared_len();
        if self.hash.fed() + n as u64 > len {
            return Err(Unread::Grew { len });
        }
        Ok((n > 0).then_some(0..n))
    }

    /// The digests of a source read to its end.
    fn finish(self) -> Outcome {
        let (len, got) = (self.hash.declared_len(), self.hash.fed());
        let (named, digest) = self.hash.finish().ok_or(Unread::Shrank { len, got })?;
        Ok((named, ManifestEntry { bytes: len, digest }))
    }
}

/// One lane of the integrity pass: the streams dealt to it, read in turn
/// through its one buffer.
struct Lane<'a> {
    streams: VecDeque<Stream<'a>>,
    buf: Vec<u8>,
    /// The front stream's bytes read but not yet hashed.
    window: Range<usize>,
}

impl Lane<'_> {
    /// Reads until the front stream has bytes to hash, finishing into
    /// `outcomes` each stream that ends first; `false` once the lane has
    /// none left.
    fn ready(&mut self, outcomes: &mut [Option<Outcome>]) -> bool {
        while self.window.is_empty() {
            let Some(stream) = self.streams.front_mut() else {
                return false;
            };
            match stream.refill(&mut self.buf) {
                Ok(Some(window)) => self.window = window,
                end => {
                    let stream = self.streams.pop_front().expect("the front stream");
                    let idx = stream.idx;
                    outcomes[idx] = Some(end.and_then(|_| stream.finish()));
                }
            }
        }
        true
    }

    /// The front stream's bytes to hash, and its digests.
    fn pending(&mut self) -> (&[u8], &mut NamedContent) {
        let stream = self.streams.front_mut().expect("a ready lane's stream");
        let bytes = match stream.body {
            Body::File(_) => &self.buf[self.window.clone()],
            Body::Memory { data, .. } => &data[self.window.clone()],
        };
        (bytes, &mut stream.hash)
    }

    /// Hashes the whole window alone, once the other lane is done.
    fn hash_alone(&mut self) {
        let (bytes, hash) = self.pending();
        hash.update(bytes);
        self.window.start = self.window.end;
    }
}

impl<'a> Scan<'a> {
    /// Reads the manifest and opens every source, fixing each one's
    /// length from the opened file.
    fn open(vfs: &Vfs, dir: &Path, artifact: Option<&'a [u8]>) -> Result<Scan<'a>, String> {
        let manifest = Manifest::load(vfs, dir)
            .map_err(|e| format!("manifest unreadable: {e}"))?
            .unwrap_or_default();
        let rows: BTreeMap<String, ManifestEntry> = manifest
            .iter()
            .filter(|(rel, _)| !rel.ends_with(".p2ob") && !rel.ends_with(".ckpt"))
            .map(|(rel, entry)| (rel.to_string(), entry))
            .collect();
        let mut sources: Vec<(String, PathBuf, Role)> = checkpoint::input_files(dir)
            .into_iter()
            .map(|path| (relpath(dir, &path), path, Role::Input))
            .collect();
        let left_over: Vec<String> = rows
            .keys()
            .filter(|rel| !sources.iter().any(|(input, ..)| input == *rel))
            .cloned()
            .collect();
        sources.extend(
            left_over
                .into_iter()
                .map(|rel| (rel.clone(), dir.join(&rel), Role::Row)),
        );
        let mut streams = Vec::with_capacity(sources.len() + 1);
        let mut outcomes: Vec<Option<Outcome>> = Vec::with_capacity(sources.len() + 1);
        for (idx, (rel, path, _)) in sources.iter().enumerate() {
            let opened = vfs
                .open(path)
                .and_then(|file| Ok((file.metadata()?.len(), file)));
            outcomes.push(match opened {
                Ok((len, file)) => {
                    streams.push(Stream {
                        idx,
                        body: Body::File(file),
                        hash: NamedContent::new(rel.as_bytes(), len),
                    });
                    None
                }
                Err(e) => Some(Err(Unread::Io(e))),
            });
        }
        if let Some(data) = artifact {
            streams.push(Stream {
                idx: sources.len(),
                body: Body::Memory { data, taken: false },
                hash: NamedContent::new(b"", data.len() as u64),
            });
            outcomes.push(None);
            sources.push((
                FROZEN_FILE.to_string(),
                dir.join(FROZEN_FILE),
                Role::Artifact,
            ));
        }
        Ok(Scan {
            rows,
            sources,
            streams,
            outcomes,
        })
    }

    /// Streams every open source, two at each step, and folds the
    /// outcomes in order. The sources are dealt largest first to the
    /// lane with fewer bytes; while both lanes have bytes, one loop step
    /// hashes a byte of each ([`NamedContent::update_lockstep`]).
    fn finish(self) -> Result<IntegrityScan, String> {
        let Scan {
            mut rows,
            sources,
            mut streams,
            mut outcomes,
        } = self;
        streams.sort_by_key(|stream| std::cmp::Reverse(stream.hash.declared_len()));
        let mut lanes = [0, 1].map(|_| Lane {
            streams: VecDeque::new(),
            buf: vec![0; LANE_BUFFER],
            window: 0..0,
        });
        let mut load = [0u64; 2];
        for stream in streams {
            let lighter = usize::from(load[1] < load[0]);
            load[lighter] += stream.hash.declared_len();
            lanes[lighter].streams.push_back(stream);
        }
        let [a, b] = &mut lanes;
        loop {
            match (a.ready(&mut outcomes), b.ready(&mut outcomes)) {
                (true, true) => {
                    let ((x, x_hash), (y, y_hash)) = (a.pending(), b.pending());
                    let n = x.len().min(y.len());
                    NamedContent::update_lockstep([x_hash, y_hash], [&x[..n], &y[..n]]);
                    a.window.start += n;
                    b.window.start += n;
                }
                (true, false) => a.hash_alone(),
                (false, true) => b.hash_alone(),
                (false, false) => break,
            }
        }

        let mut files_digest = Digest::of_bytes(b"p2o-build-inputs-v1");
        let mut checked = BTreeMap::new();
        let mut artifact_digest = None;
        for ((rel, path, role), outcome) in sources.into_iter().zip(outcomes) {
            let outcome = outcome.expect("every source is read to its end");
            match role {
                Role::Input => {
                    let (part, found) = outcome.map_err(|e| e.describe(&path))?;
                    files_digest = files_digest.chain(part);
                    if let Some(entry) = rows.remove(&rel) {
                        checked.insert(rel, entry.compare(found));
                    }
                }
                Role::Row => {
                    let issue = match outcome {
                        Ok((_, found)) => rows[&rel].compare(found),
                        Err(Unread::Io(_)) => Some(VerifyIssue::Missing),
                        Err(changed) => return Err(changed.describe(&path)),
                    };
                    checked.insert(rel, issue);
                }
                Role::Artifact => {
                    artifact_digest = Some(outcome.map_err(|e| e.describe(&path))?.1.digest);
                }
            }
        }
        let verified = checked.values().filter(|issue| issue.is_none()).count() as u64;
        let torn = checked
            .into_iter()
            .filter_map(|(rel, issue)| Some((rel, issue?)))
            .collect();
        Ok(IntegrityScan {
            files_digest,
            torn,
            verified,
            artifact_digest,
        })
    }
}

/// One ground-truth list loaded from disk.
pub struct TruthList {
    /// The organization's display name.
    pub org_name: String,
    /// Whether the list is exhaustive.
    pub exhaustive: bool,
    /// The listed prefixes.
    pub prefixes: Vec<Prefix>,
}

/// The ground-truth lists in `DIR/truth/lists.tsv`, one per organization
/// name and exhaustiveness, in that order; empty when the directory has
/// none. `validate` reads nothing else of the inputs.
pub fn load_truth(vfs: &Vfs, dir: &Path) -> Result<Vec<TruthList>, String> {
    let Ok(text) = vfs.read_to_string(&dir.join("truth").join("lists.tsv")) else {
        return Ok(Vec::new());
    };
    let mut by_org: BTreeMap<(String, bool), Vec<Prefix>> = BTreeMap::new();
    for mut row in tsv::parse_rows(&text, 3).map_err(|e| e.to_string())? {
        let exhaustive = row[1] == "true";
        let prefix: Prefix = row[2].parse().map_err(|e| format!("lists.tsv: {e}"))?;
        by_org
            .entry((std::mem::take(&mut row[0]), exhaustive))
            .or_default()
            .push(prefix);
    }
    Ok(by_org
        .into_iter()
        .map(|((org_name, exhaustive), prefixes)| TruthList {
            org_name,
            exhaustive,
            prefixes,
        })
        .collect())
}

/// Everything `build` and serve's full load parse from a snapshot
/// directory.
pub struct LoadedInputs {
    /// WHOIS delegation tree.
    pub tree: DelegationTree,
    /// WHOIS build statistics.
    pub whois_stats: p2o_whois::db::BuildStats,
    /// Routed prefixes with origins.
    pub routes: RouteTable,
    /// ASN sibling clusters.
    pub clusters: p2o_as2org::AsnClusters,
    /// Validated RPKI view.
    pub rpki: p2o_rpki::ValidatedRepo,
    /// RPKI validation problems.
    pub rpki_problems: Vec<p2o_rpki::RepoProblem>,
    /// Snapshot date from `meta.tsv` (defaults to 20240901).
    pub snapshot_date: u32,
}

/// How record-level corruption in the inputs is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Abort on the first corrupt record with a precise diagnostic
    /// (file, offset, error variant). `build --strict`.
    Strict,
    /// Skip corrupt records, quarantining each one. The default.
    Lenient,
}

/// A load failure: a typed ingest abort (strict mode hitting a corrupt
/// record) or any other I/O / format error.
#[derive(Debug)]
pub enum LoadError {
    /// Strict mode rejected a record; carries the full diagnostic.
    Ingest(IngestError),
    /// Everything else (missing files, unreadable TSVs, ...).
    Other(String),
}

impl From<String> for LoadError {
    fn from(e: String) -> Self {
        LoadError::Other(e)
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Ingest(e) => write!(f, "{e}"),
            LoadError::Other(e) => write!(f, "{e}"),
        }
    }
}

/// What [`load_inputs`] returns: the parsed inputs plus every record the
/// lenient parsers rejected (empty on clean input, and always empty in
/// strict mode — strict aborts instead).
pub struct LoadOutcome {
    /// The parsed snapshot inputs.
    pub inputs: LoadedInputs,
    /// Every rejected record, with file names stamped.
    pub quarantine: Quarantine,
    /// The stderr lines of the delegation-file check, in order (empty
    /// when the load was not asked to run it).
    pub delegation_notes: Vec<String>,
}

/// Which parser a WHOIS/MRT lane input goes through.
#[derive(Clone, Copy)]
enum InputKind {
    /// `whois/<REGISTRY>.txt`, parsed with the registry's parser.
    Whois(Registry),
    /// `rib.mrt`.
    Mrt,
}

/// One large input of the WHOIS/MRT lane, in processing order.
struct Input {
    path: PathBuf,
    /// The file name quarantine records carry (`whois/ARIN.txt`, ...).
    label: String,
    kind: InputKind,
}

/// A text input's bytes as text; invalid UTF-8 fails the load.
fn input_text<'a>(bytes: &'a [u8], path: &Path) -> Result<&'a str, LoadError> {
    std::str::from_utf8(bytes)
        .map_err(|e| LoadError::Other(format!("reading {}: {e}", path.display())))
}

/// A strict load's abort on the first of an input's rejected records,
/// which arrive sorted by offset.
fn strict_abort(label: &str, mut rejected: Vec<QuarantinedRecord>) -> LoadError {
    let mut first = rejected.swap_remove(0);
    first.file = label.to_string();
    LoadError::Ingest(first.to_error())
}

/// The stage rows the two lanes record, as `build.load` lists them
/// whichever lane ends first, so the report reads the same at any thread
/// count: the order a serial load of the inputs in input order ends them.
const LOAD_STAGES: &[&str] = &[
    "bgp.parse",
    "whois.parse",
    "rpki.load",
    "whois.build",
    "as2org.cluster",
    "rpki.validate",
    "whois.delegated",
];

struct RpkiLane {
    rpki: p2o_rpki::ValidatedRepo,
    problems: Vec<p2o_rpki::RepoProblem>,
    /// `rpki.jsonl`'s rejected lines, in offset order.
    rejected: Vec<QuarantinedRecord>,
    delegation_notes: Vec<String>,
}

struct WhoisMrtLane {
    tree: DelegationTree,
    whois_stats: p2o_whois::db::BuildStats,
    routes: RouteTable,
    clusters: p2o_as2org::AsnClusters,
    /// The dumps' and the RIB's rejected records, in input order.
    quarantine: Quarantine,
}

/// Where a WHOIS/MRT lane failure falls in the input order: the dumps
/// and the RIB come before `rpki.jsonl`, the JPNIC and AS2Org tables
/// after it.
enum WhoisMrtError {
    Inputs(LoadError),
    Tables(LoadError),
}

/// Loads and parses a snapshot directory: every input through the lenient
/// (resyncing) parsers, rejected records quarantined. In
/// [`IngestMode::Strict`] the first rejected record of any file aborts the
/// load with its typed diagnostic instead. The load checks no digest:
/// [`scan_integrity`] is the integrity read. With `check_delegations` it
/// also runs the §4.1 delegation-file check and returns its lines.
///
/// The load runs in two lanes through [`p2o_obs::run_beside`], one
/// `load.lane` trace span each: RPKI (shard 0, on the calling thread)
/// beside WHOIS/MRT (on a thread of its own). Where each lane runs is a
/// memory choice: glibc gives every thread its own malloc arena, and
/// what the calling thread allocates is reused by the freeze. At one
/// thread the lanes run inline, WHOIS/MRT first. The join
/// folds the lanes in input order — WHOIS dumps, `rib.mrt`, `rpki.jsonl`,
/// then `jpnic_alloc.tsv` and the AS2Org tables: the first failure in
/// that order is the load's, and the quarantine lists the rejects in it.
///
/// With `obs`, the parsers tick their `whois.*` / `mrt.*` / `bgp.parse`
/// counters and stages into it, and the load times its own phases as the
/// stages `whois.parse` (summed over the dumps), `rpki.load`,
/// `as2org.cluster`, `rpki.validate` and `whois.delegated`, all within
/// one `build.load` row from the fork to the join; with `threads > 1`,
/// WHOIS text is parsed in object-boundary shards and MRT bodies are
/// decoded on that many threads (identical outputs either way).
pub fn load_inputs(
    vfs: &Vfs,
    dir: &Path,
    obs: Option<&p2o_obs::Obs>,
    threads: usize,
    mode: IngestMode,
    check_delegations: bool,
) -> Result<LoadOutcome, LoadError> {
    if let Some(o) = obs {
        // Register the whole counter families up front so clean runs report
        // explicit zeros rather than missing series.
        p2o_obs::catalogue::register(o, p2o_obs::catalogue::Source::BuildSetup);
    }

    // Meta first: the format version gate, then the snapshot date (which
    // drives RPKI validation).
    let meta = vfs
        .read_to_string(&dir.join("meta.tsv"))
        .unwrap_or_default();
    let snapshot_date = parse_meta(&meta).map_err(|e| format!("{}: {e}", dir.display()))?;

    // The WHOIS/MRT lane's inputs in processing order: the WHOIS dumps
    // (the file stem names the registry, the registry picks the parser),
    // then the RIB.
    let whois_dir = dir.join("whois");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&whois_dir)
        .map_err(|e| io_err("listing", &whois_dir, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    entries.sort();
    let mut inputs: Vec<Input> = Vec::with_capacity(entries.len() + 1);
    for path in entries {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("bad whois file name {}", path.display()))?;
        let registry: Registry = stem
            .parse()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let label = format!("whois/{stem}.txt");
        inputs.push(Input {
            path,
            label,
            kind: InputKind::Whois(registry),
        });
    }
    inputs.push(Input {
        path: dir.join("rib.mrt"),
        label: "rib.mrt".to_string(),
        kind: InputKind::Mrt,
    });

    // The inputs meet only in the pipeline: RPKI on this thread beside
    // WHOIS/MRT, or at one thread both inline, in input order.
    let load = obs.map(|o| o.enclosing_stage("build.load", LOAD_STAGES));
    let (rpki, whois_mrt) = p2o_obs::run_beside(
        obs,
        "load.lane",
        threads,
        p2o_obs::LaneOrder::OtherFirst,
        ("rpki", || {
            rpki_lane(vfs, dir, obs, snapshot_date, mode, check_delegations)
        }),
        ("whois+mrt", || {
            whois_mrt_lane(vfs, dir, inputs, obs, threads, mode)
        }),
    );
    drop(load);

    // The first failure in input order is the load's, and the rejects
    // join the quarantine in input order.
    let whois_mrt = match whois_mrt {
        Err(WhoisMrtError::Inputs(e)) => return Err(e),
        Err(WhoisMrtError::Tables(e)) => Err(e),
        Ok(lane) => Ok(lane),
    };
    let RpkiLane {
        rpki,
        problems,
        rejected,
        delegation_notes,
    } = rpki?;
    let WhoisMrtLane {
        tree,
        whois_stats,
        routes,
        clusters,
        mut quarantine,
    } = whois_mrt?;
    quarantine.extend_from_file("rpki.jsonl", rejected);
    if let Some(o) = obs {
        p2o_obs::record_quarantine(o, &quarantine);
    }

    Ok(LoadOutcome {
        inputs: LoadedInputs {
            tree,
            whois_stats,
            routes,
            clusters,
            rpki,
            rpki_problems: problems,
            snapshot_date,
        },
        quarantine,
        delegation_notes,
    })
}

/// The RPKI lane: reads and parses `rpki.jsonl` (stage `rpki.load`),
/// aborts a strict load on its first rejected line, validates the
/// repository (`rpki.validate`) and, when asked, runs the delegation-file
/// check (`whois.delegated`).
fn rpki_lane(
    vfs: &Vfs,
    dir: &Path,
    obs: Option<&p2o_obs::Obs>,
    snapshot_date: u32,
    mode: IngestMode,
    check_delegations: bool,
) -> Result<RpkiLane, LoadError> {
    let path = dir.join("rpki.jsonl");
    let (repo, mut rejected) = {
        let bytes = vfs.read(&path).map_err(|e| io_err("reading", &path, e))?;
        let text = input_text(&bytes, &path)?;
        let started = Instant::now();
        let parsed = p2o_rpki::persist::from_jsonl_lenient(text);
        if let Some(o) = obs {
            o.record_stage("rpki.load", started.elapsed());
        }
        parsed
    };
    rejected.sort_by_key(|r| r.offset);
    if mode == IngestMode::Strict && !rejected.is_empty() {
        return Err(strict_abort("rpki.jsonl", rejected));
    }
    let timer = obs.map(|o| o.stage("rpki.validate"));
    let (rpki, problems) = repo.validate(snapshot_date);
    drop(timer);
    let delegation_notes = if check_delegations {
        let _timer = obs.map(|o| o.stage("whois.delegated"));
        check_delegation_files(vfs, dir)
    } else {
        Vec::new()
    };
    Ok(RpkiLane {
        rpki,
        problems,
        rejected,
        delegation_notes,
    })
}

/// The WHOIS/MRT lane: each input read whole, parsed and released before
/// the next, its rejected records (in offset order) aborting a strict
/// load or joining the quarantine; then the JPNIC back-fill, the
/// delegation tree and the AS2Org clusters (`as2org.cluster`).
fn whois_mrt_lane(
    vfs: &Vfs,
    dir: &Path,
    inputs: Vec<Input>,
    obs: Option<&p2o_obs::Obs>,
    threads: usize,
    mode: IngestMode,
) -> Result<WhoisMrtLane, WhoisMrtError> {
    let mut db = WhoisDb::new();
    if let Some(o) = obs {
        db.instrument(o);
    }
    let mut routes = RouteTable::new();
    let mut quarantine = Quarantine::new();
    let mut whois_parse = Duration::ZERO;
    for Input { path, label, kind } in inputs {
        let bytes = vfs
            .read(&path)
            .map_err(|e| WhoisMrtError::Inputs(io_err("reading", &path, e).into()))?;
        let mut rejected: Vec<QuarantinedRecord> = match kind {
            InputKind::Whois(registry) => {
                let text = input_text(&bytes, &path).map_err(WhoisMrtError::Inputs)?;
                let before = db.problems().len();
                let started = Instant::now();
                db.add_dump(text, registry, threads);
                whois_parse += started.elapsed();
                db.problems()[before..]
                    .iter()
                    .map(|p| p.to_quarantined())
                    .collect()
            }
            InputKind::Mrt => {
                let lenient = RouteTable::from_mrt_lenient(bytes, obs, threads);
                routes = lenient.table;
                lenient.quarantined
            }
        };
        if rejected.is_empty() {
            continue;
        }
        rejected.sort_by_key(|r| r.offset);
        if mode == IngestMode::Strict {
            return Err(WhoisMrtError::Inputs(strict_abort(&label, rejected)));
        }
        quarantine.extend_from_file(&label, rejected);
    }
    if let Some(o) = obs {
        o.record_stage("whois.parse", whois_parse);
    }
    let (tree, whois_stats, clusters) =
        whois_tables(vfs, dir, db, obs).map_err(|e| WhoisMrtError::Tables(LoadError::Other(e)))?;
    Ok(WhoisMrtLane {
        tree,
        whois_stats,
        routes,
        clusters,
        quarantine,
    })
}

/// The JPNIC back-fill, the delegation tree and the AS2Org clusters.
fn whois_tables(
    vfs: &Vfs,
    dir: &Path,
    mut db: WhoisDb,
    obs: Option<&p2o_obs::Obs>,
) -> Result<
    (
        DelegationTree,
        p2o_whois::db::BuildStats,
        p2o_as2org::AsnClusters,
    ),
    String,
> {
    let read = |path: PathBuf| -> Result<String, String> {
        vfs.read_to_string(&path)
            .map_err(|e| io_err("reading", &path, e))
    };
    if let Ok(text) = read(dir.join("jpnic_alloc.tsv")) {
        let mut map: HashMap<Prefix, AllocationType> = HashMap::new();
        for row in tsv::parse_rows(&text, 2).map_err(|e| e.to_string())? {
            let prefix: Prefix = row[0]
                .parse()
                .map_err(|e| format!("jpnic_alloc.tsv: {e}"))?;
            let alloc = AllocationType::parse_keyword(Rir::Apnic, &row[1])
                .ok_or_else(|| format!("jpnic_alloc.tsv: unknown type {:?}", row[1]))?;
            map.insert(prefix, alloc);
        }
        db.fill_jpnic_alloc(|p| map.get(p).copied());
    }
    let (tree, whois_stats) = db.build();

    // AS2Org + siblings.
    let timer = obs.map(|o| o.stage("as2org.cluster"));
    let mut as2org = p2o_as2org::As2OrgDb::new();
    as2org.load_records_tsv(&read(dir.join("as2org.tsv"))?)?;
    if let Ok(text) = read(dir.join("siblings.tsv")) {
        as2org.load_siblings_tsv(&text)?;
    }
    let clusters = as2org.cluster();
    drop(timer);
    Ok((tree, whois_stats, clusters))
}

/// The paper's §4.1 footnote check against the delegation files, when
/// present: no delegation larger than /8 (IPv4) or /16 (IPv6). Each
/// `delegated/*.txt` is read through `vfs`; one that cannot be read is
/// named in a warning, and the check passes only when every file was read.
/// Returns the lines for stderr, in order.
fn check_delegation_files(vfs: &Vfs, dir: &Path) -> Vec<String> {
    let delegated_dir = dir.join("delegated");
    let mut notes = Vec::new();
    if !delegated_dir.is_dir() {
        return notes;
    }
    let mut oversized = 0usize;
    let mut unread = 0usize;
    for path in checkpoint::txt_entries(&delegated_dir) {
        match vfs.read_to_string(&path) {
            Ok(text) => {
                let (records, _) = p2o_whois::delegated::parse(&text);
                oversized += p2o_whois::delegated::oversized_delegations(&records).len();
            }
            Err(e) => {
                notes.push(format!(
                    "warning: delegation-file check: cannot read {}: {e}",
                    path.display()
                ));
                unread += 1;
            }
        }
    }
    if oversized > 0 {
        notes.push(format!(
            "warning: {oversized} delegations exceed /8 (v4) or /16 (v6)"
        ));
    }
    if unread > 0 {
        notes.push(format!(
            "warning: delegation-file check incomplete: {unread} file(s) not checked"
        ));
    } else if oversized == 0 {
        notes.push(
            "delegation-file check: no delegation larger than /8 or /16 (paper §4.1)".to_string(),
        );
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::io::Write;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p2o-store-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The digest the scan replaced: every input file's relative path and
    /// content, chained in input order, read on its own.
    fn files_digest_oracle(vfs: &Vfs, dir: &Path) -> Digest {
        let mut d = Digest::of_bytes(b"p2o-build-inputs-v1");
        for path in checkpoint::input_files(dir) {
            let rel = path.strip_prefix(dir).unwrap().to_string_lossy();
            let content = vfs.read(&path).unwrap();
            d = d.chain(Digest::of_parts([rel.as_bytes(), content.as_slice()]));
        }
        d
    }

    /// A file whose length changes between the open that fixed its length
    /// frame and the end of its read fails the scan with an error naming
    /// it: an input or a leftover row, cut short or grown, across a lane
    /// buffer boundary or not.
    #[test]
    fn a_file_that_changes_length_while_scanned_fails_naming_it() {
        let dir = tmp_dir("changed");
        let vfs = Vfs::real();
        fs::create_dir_all(dir.join("whois")).unwrap();
        let big = vec![b'x'; LANE_BUFFER + 10];
        for (rel, content) in [
            ("whois/ARIN.txt", &big[..]),
            ("rpki.jsonl", &b"{}\n"[..]),
            ("pfx2as.txt", &big[..]),
        ] {
            for cut in [Some(0), Some(LANE_BUFFER + 1), None] {
                let mut manifest = Manifest::new();
                for (other, bytes) in [("meta.tsv", &b"seed\t1\n"[..]), (rel, content)] {
                    fs::write(dir.join(other), bytes).unwrap();
                    manifest.record(other, bytes);
                }
                manifest.save(&vfs, &dir).unwrap();
                let scan = Scan::open(&vfs, &dir, None).unwrap();
                let path = dir.join(rel);
                let file = fs::OpenOptions::new().append(true).open(&path).unwrap();
                let cut = cut.map(|at| at.min(content.len() - 1));
                match cut {
                    Some(at) => file.set_len(at as u64).unwrap(),
                    None => (&file).write_all(b"+").unwrap(),
                }
                let held = content.len();
                let want = match cut {
                    Some(at) => format!(
                        "reading {}: the file ended after {at} of the {held} bytes it held when opened",
                        path.display()
                    ),
                    None => format!(
                        "reading {}: the file ran past the {held} bytes it held when opened",
                        path.display()
                    ),
                };
                assert_eq!(scan.finish().unwrap_err(), want, "{rel} {cut:?}");
                // The unchanged file scans clean.
                fs::write(&path, content).unwrap();
                assert!(scan_integrity(&vfs, &dir, None).unwrap().torn.is_empty());
                fs::remove_file(&path).unwrap();
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// One scan agrees with the separate digest pass and with
    /// `Manifest::verify_all` minus the frame-checked `world.p2ob` row, on
    /// a clean directory and after each kind of damage.
    #[test]
    fn scan_matches_the_digest_and_manifest_oracles() {
        let dir = tmp_dir("scan");
        let vfs = Vfs::real();
        fs::create_dir_all(dir.join("whois")).unwrap();
        fs::create_dir_all(dir.join("delegated")).unwrap();
        let files: [(&str, &[u8]); 7] = [
            ("meta.tsv", b"format_version\t1\n"),
            ("rib.mrt", b"mrt bytes"),
            ("as2org.tsv", b"1\tORG-1\tAcme\tUS\n"),
            ("whois/ARIN.txt", b"NetRange: 10.0.0.0 - 10.0.0.255\n"),
            (
                "delegated/ARIN.txt",
                b"arin|US|ipv4|10.0.0.0|256|20240901|allocated\n",
            ),
            ("pfx2as.txt", b"10.0.0.0\t24\t64512\n"),
            ("adversary.json", b"{}\n"),
        ];
        let mut manifest = Manifest::new();
        for (rel, bytes) in files {
            fs::write(dir.join(rel), bytes).unwrap();
            manifest.record(rel, bytes);
        }
        // A row an older build wrote for its artifact, now stale.
        fs::write(dir.join("world.p2ob"), b"framed artifact").unwrap();
        manifest.record("world.p2ob", b"an older artifact");

        let check = |case: &str| {
            let scan = scan_integrity(&vfs, &dir, None).unwrap();
            assert_eq!(
                scan.files_digest,
                files_digest_oracle(&vfs, &dir),
                "{case}: files digest"
            );
            let (torn, rows) = match Manifest::load(&vfs, &dir).unwrap() {
                None => (Vec::new(), 0),
                Some(m) => {
                    let torn: Vec<_> = m
                        .verify_all(&vfs, &dir)
                        .into_iter()
                        .filter(|(rel, _)| !rel.ends_with(".p2ob"))
                        .collect();
                    let rows = m.iter().filter(|(rel, _)| !rel.ends_with(".p2ob")).count();
                    (torn, rows as u64)
                }
            };
            assert_eq!(scan.torn, torn, "{case}: torn rows");
            assert_eq!(scan.verified, rows - torn.len() as u64, "{case}: verified");
            scan
        };

        manifest.save(&vfs, &dir).unwrap();
        let clean = check("clean");
        assert!(clean.torn.is_empty());
        assert_eq!(clean.verified, files.len() as u64);

        fs::write(dir.join("rib.mrt"), b"mrt").unwrap();
        let torn = check("truncated input");
        assert!(matches!(
            torn.torn[..],
            [(ref rel, VerifyIssue::LengthMismatch { .. })] if rel == "rib.mrt"
        ));
        assert_ne!(torn.files_digest, clean.files_digest);

        fs::write(dir.join("rib.mrt"), b"MRT bytes").unwrap();
        let edited = check("same-length edit");
        assert!(matches!(
            edited.torn[..],
            [(_, VerifyIssue::DigestMismatch { .. })]
        ));

        fs::write(dir.join("rib.mrt"), b"mrt bytes").unwrap();
        fs::remove_file(dir.join("pfx2as.txt")).unwrap();
        let missing = check("missing listed file");
        assert_eq!(
            missing.torn,
            vec![("pfx2as.txt".to_string(), VerifyIssue::Missing)]
        );
        assert_eq!(missing.files_digest, clean.files_digest);

        // A directory where a listed delegation file should be: not an
        // input, so the digest skips it and the row says it is missing.
        fs::write(dir.join("pfx2as.txt"), b"10.0.0.0\t24\t64512\n").unwrap();
        fs::create_dir(dir.join("delegated/x.txt")).unwrap();
        manifest.record("delegated/x.txt", b"was a file");
        manifest.save(&vfs, &dir).unwrap();
        let listed_dir = check("delegated/x.txt directory");
        assert_eq!(
            listed_dir.torn,
            vec![("delegated/x.txt".to_string(), VerifyIssue::Missing)]
        );
        assert_eq!(listed_dir.files_digest, clean.files_digest);

        fs::remove_file(dir.join(p2o_util::manifest::MANIFEST_FILE)).unwrap();
        let bare = check("no manifest");
        assert_eq!((bare.torn.len(), bare.verified), (0, 0));
        assert_eq!(bare.files_digest, clean.files_digest);
        let _ = fs::remove_dir_all(&dir);
    }
}
