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

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use p2o_bgp::RouteTable;
use p2o_net::Prefix;
use p2o_synth::World;
use p2o_util::ingest::{IngestError, Quarantine, QuarantinedRecord};
use p2o_util::manifest::{Manifest, ManifestEntry, VerifyIssue};
use p2o_util::vfs::Vfs;
use p2o_util::{atomic, tsv, Digest};
use p2o_whois::alloc::AllocationType;
use p2o_whois::{DelegationTree, Registry, Rir, WhoisDb};

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
    let routes = RouteTable::from_mrt(world.mrt.clone())
        .map_err(|e| format!("generated MRT must parse: {e}"))?;
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
pub struct IntegrityScan {
    /// Digest over every input file, relative path plus content, in
    /// [`checkpoint::input_files`] order: the part of every inputs digest
    /// that reads the disk (the `.ckpt` stamp's and the frozen META's).
    pub files_digest: Digest,
    /// `MANIFEST.tsv` rows whose file failed the check, sorted by path.
    pub torn: Vec<(String, VerifyIssue)>,
    /// `MANIFEST.tsv` rows whose file matched.
    pub verified: u64,
}

/// `path` relative to `dir`, with `/` separators: how `MANIFEST.tsv`, the
/// inputs digest and `fsck` name a file.
pub fn relpath(dir: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(dir).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// The one integrity read of a data directory. Each input file is read
/// once, in [`checkpoint::input_files`] order, and hashed once: one loop
/// over its bytes advances both the files digest and the digest checked
/// against its `MANIFEST.tsv` row; the rows left over
/// (`pfx2as.txt`, `adversary.json`) are checked after. Rows for framed
/// files (`world.p2ob`, `.ckpt` stamps) are left to the frame check.
/// Fails on an unreadable manifest or input file.
pub fn scan_integrity(vfs: &Vfs, dir: &Path) -> Result<IntegrityScan, String> {
    let manifest = Manifest::load(vfs, dir)
        .map_err(|e| format!("manifest unreadable: {e}"))?
        .unwrap_or_default();
    let mut rows: BTreeMap<&str, ManifestEntry> = manifest
        .iter()
        .filter(|(rel, _)| !rel.ends_with(".p2ob") && !rel.ends_with(".ckpt"))
        .collect();
    let mut files_digest = Digest::of_bytes(b"p2o-build-inputs-v1");
    let mut checked = BTreeMap::new();
    for path in checkpoint::input_files(dir) {
        let rel = relpath(dir, &path);
        let content = vfs.read(&path).map_err(|e| io_err("reading", &path, e))?;
        let (part, digest) = Digest::of_named_content(rel.as_bytes(), &content);
        files_digest = files_digest.chain(part);
        if let Some(entry) = rows.remove(rel.as_str()) {
            let found = ManifestEntry {
                bytes: content.len() as u64,
                digest,
            };
            checked.insert(rel, entry.compare(found));
        }
    }
    for rel in rows.into_keys() {
        checked.insert(rel.to_string(), manifest.verify_file(vfs, dir, rel));
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
    })
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

impl LoadedInputs {
    /// The route table, the one input the freeze reads; every other
    /// parsed input is dropped here.
    pub fn into_routes(self) -> RouteTable {
        self.routes
    }
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
}

/// Which parser an input file goes through.
#[derive(Clone, Copy)]
enum InputKind {
    /// `whois/<REGISTRY>.txt`, parsed with the registry's parser.
    Whois(Registry),
    /// `rib.mrt`.
    Mrt,
    /// `rpki.jsonl`.
    Rpki,
}

/// One large input file, in processing order.
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

/// Loads and parses a snapshot directory: every input through the lenient
/// (resyncing) parsers, rejected records quarantined. In
/// [`IngestMode::Strict`] the first rejected record of any file aborts the
/// load with its typed diagnostic instead. The load checks no digest:
/// [`scan_integrity`] is the integrity read.
///
/// With `obs`, the parsers tick their `whois.*` / `mrt.*` / `bgp.parse`
/// counters and stages into it, and the load times its own phases as the
/// stages `whois.parse` (summed over the dumps), `rpki.load`,
/// `as2org.cluster` and `rpki.validate`; with `threads > 1`, WHOIS text
/// is parsed in object-boundary shards and MRT bodies are decoded on that
/// many threads (identical outputs either way).
pub fn load_inputs(
    vfs: &Vfs,
    dir: &Path,
    obs: Option<&p2o_obs::Obs>,
    threads: usize,
    mode: IngestMode,
) -> Result<LoadOutcome, LoadError> {
    let read = |path: PathBuf| -> Result<String, String> {
        vfs.read_to_string(&path)
            .map_err(|e| io_err("reading", &path, e))
    };
    if let Some(o) = obs {
        // Register the whole counter families up front so clean runs report
        // explicit zeros rather than missing series.
        p2o_obs::catalogue::register(o, p2o_obs::catalogue::Source::BuildSetup);
    }

    // Meta first: the format version gate, then the snapshot date (which
    // drives RPKI validation).
    let meta = read(dir.join("meta.tsv")).unwrap_or_default();
    let snapshot_date = parse_meta(&meta).map_err(|e| format!("{}: {e}", dir.display()))?;

    // The large inputs in processing order: WHOIS dumps (the file stem
    // names the registry, the registry picks the parser), the RIB, RPKI.
    let whois_dir = dir.join("whois");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&whois_dir)
        .map_err(|e| io_err("listing", &whois_dir, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    entries.sort();
    let mut inputs: Vec<Input> = Vec::with_capacity(entries.len() + 2);
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
    for (name, kind) in [("rib.mrt", InputKind::Mrt), ("rpki.jsonl", InputKind::Rpki)] {
        inputs.push(Input {
            path: dir.join(name),
            label: name.to_string(),
            kind,
        });
    }

    // Each input is read whole, parsed, and released before the next. Its
    // rejected records, in offset order, abort a strict load with the
    // first one or join the quarantine.
    let mut db = WhoisDb::new();
    if let Some(o) = obs {
        db.instrument(o);
    }
    let mut routes = RouteTable::new();
    let mut repo = p2o_rpki::RpkiRepository::new();
    let mut quarantine = Quarantine::new();
    let mut whois_parse = Duration::ZERO;
    let mut rpki_load = Duration::ZERO;
    for Input { path, label, kind } in inputs {
        let bytes = vfs.read(&path).map_err(|e| io_err("reading", &path, e))?;
        let mut rejected: Vec<QuarantinedRecord> = match kind {
            InputKind::Whois(registry) => {
                let text = input_text(&bytes, &path)?;
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
                let lenient = RouteTable::from_mrt_lenient(bytes::Bytes::from(bytes), obs, threads);
                routes = lenient.table;
                lenient.quarantined
            }
            InputKind::Rpki => {
                let text = input_text(&bytes, &path)?;
                let started = Instant::now();
                let (loaded, rejected) = p2o_rpki::persist::from_jsonl_lenient(text);
                rpki_load += started.elapsed();
                repo = loaded;
                rejected
            }
        };
        if rejected.is_empty() {
            continue;
        }
        rejected.sort_by_key(|r| r.offset);
        if mode == IngestMode::Strict {
            let mut first = rejected.swap_remove(0);
            first.file = label;
            return Err(LoadError::Ingest(first.to_error()));
        }
        quarantine.extend_from_file(&label, rejected);
    }
    if let Some(o) = obs {
        o.record_stage("whois.parse", whois_parse);
        o.record_stage("rpki.load", rpki_load);
    }
    let stage = |name: &str| obs.map(|o| o.stage(name));

    // JPNIC back-fill.
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
    let timer = stage("as2org.cluster");
    let mut as2org = p2o_as2org::As2OrgDb::new();
    as2org.load_records_tsv(&read(dir.join("as2org.tsv"))?)?;
    if let Ok(text) = read(dir.join("siblings.tsv")) {
        as2org.load_siblings_tsv(&text)?;
    }
    let clusters = as2org.cluster();
    drop(timer);

    let timer = stage("rpki.validate");
    let (rpki, rpki_problems) = repo.validate(snapshot_date);
    drop(timer);

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
            rpki_problems,
            snapshot_date,
        },
        quarantine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

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
            let scan = scan_integrity(&vfs, &dir).unwrap();
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
