//! The traced run's in-process replays: the `build` pipeline and the `serve`
//! boot path rebuilt from each crate's public functions, with a benchmark
//! span around every call. Nothing here is instrumented inside the program.
//! The replay must reproduce the CLI's export and frozen artifact byte for
//! byte, which the caller checks.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use p2o_bgp::RouteTable;
use p2o_net::Prefix;
use p2o_util::atomic;
use p2o_util::manifest::Manifest;
use p2o_util::vfs::Vfs;
use p2o_util::{tsv, Digest};
use p2o_whois::alloc::AllocationType;
use p2o_whois::{Nir, Registry, Rir, WhoisDb};
use prefix2org::{Clusterer, FrozenDataset, Pipeline, PipelineInputs, Prefix2OrgDataset};

use crate::trace::Tracer;

/// The layer spans of the replayed build, in pipeline order. Each is a
/// direct child of the `build` root span.
pub const BUILD_LAYERS: [&str; 20] = [
    "util.read",
    "util.digest",
    "whois.parse",
    "whois.delegated",
    "whois.build",
    "bgp.mrt_decode",
    "rpki.load",
    "as2org.cluster",
    "rpki.validate",
    "core.resolve",
    "core.cluster",
    "core.assemble",
    "core.rov",
    "core.exceptions",
    "core.export",
    "core.freeze",
    "core.thaw_verify",
    "util.frame",
    "util.write",
    "build.teardown",
];

/// Exact work counts of the replayed build.
pub struct BuildCounts {
    /// Raw WHOIS records ingested.
    pub whois_records: u64,
    /// Routed prefixes decoded from the RIB.
    pub routed_prefixes: u64,
    /// RPKI certificates plus ROAs loaded.
    pub rpki_objects: u64,
    /// Final organization clusters.
    pub final_clusters: u64,
    /// Bytes of the JSONL export.
    pub export_bytes: u64,
    /// Bytes of the framed frozen artifact.
    pub frozen_bytes: u64,
}

/// What the replayed build wrote, for the byte-identity check.
pub struct BuildOutputs {
    /// The JSONL export.
    pub export: PathBuf,
    /// The framed frozen artifact.
    pub frozen: PathBuf,
    /// Index of the `build` root span.
    pub root: usize,
}

fn io(what: &str, path: &Path, e: impl std::fmt::Display) -> String {
    format!("{what} {}: {e}", path.display())
}

/// Input files the CLI digests, in its order: the fixed top-level files,
/// then `whois/*.txt` and `delegated/*.txt` sorted by name.
fn digest_inputs(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = [
        "meta.tsv",
        "rib.mrt",
        "as2org.tsv",
        "siblings.tsv",
        "jpnic_alloc.tsv",
        "rpki.jsonl",
        "truth/lists.tsv",
    ]
    .iter()
    .map(|rel| dir.join(rel))
    .filter(|p| p.is_file())
    .collect();
    for sub in ["whois", "delegated"] {
        files.extend(sorted_txt(&dir.join(sub)));
    }
    files
}

fn sorted_txt(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "txt"))
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// The canonical inputs digest a default-option `build` stamps into the
/// frozen artifact and `serve` recomputes at boot: FNV-chained over every
/// input file's relative path and content, then the default options.
pub fn inputs_digest(vfs: &Vfs, dir: &Path) -> Result<u64, String> {
    let mut d = Digest::of_bytes(b"p2o-build-inputs-v1");
    for path in digest_inputs(dir) {
        let rel = path
            .strip_prefix(dir)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = vfs.read(&path).map_err(|e| io("reading", &path, e))?;
        d = d.chain(Digest::of_parts([rel.as_bytes(), content.as_slice()]));
    }
    d = d.chain(Digest::of_parts([
        &[0u8][..],
        &(p2o_util::ingest::DEFAULT_QUARANTINE_SAMPLES as u64).to_le_bytes(),
    ]));
    Ok(d.0)
}

/// Replays `prefix2org build --in dir` (default options, `threads`
/// workers) under a `build` root span, writing the export and frozen
/// artifact into `out_dir`.
pub fn build(
    tr: &mut Tracer,
    dir: &Path,
    out_dir: &Path,
    threads: usize,
) -> Result<(BuildOutputs, BuildCounts), String> {
    let vfs = Vfs::real();
    let read = |path: &Path| vfs.read_to_string(path).map_err(|e| io("reading", path, e));
    let root = tr.open("build");

    // The CLI digests the inputs twice: once for the checkpoint stamp, once
    // (option-independent) for the frozen artifact; with default options
    // the two are equal.
    let stamp_digest = tr.time("util.digest", || inputs_digest(&vfs, dir))?;
    let digest = tr.time("util.digest", || inputs_digest(&vfs, dir))?;
    if stamp_digest != digest {
        return Err("inputs changed during the build".to_string());
    }
    let meta = tr.time("util.read", || read(&dir.join("meta.tsv")))?;
    let mut snapshot_date = 20240901u32;
    for row in tsv::parse_rows(&meta, 2).map_err(|e| e.to_string())? {
        if row[0] == "snapshot_date" {
            snapshot_date = row[1].parse().map_err(|_| "bad snapshot_date")?;
        }
    }
    // The CLI verifies the manifest before parsing anything.
    tr.time("util.read", || -> Result<(), String> {
        if let Some(m) = Manifest::load(&vfs, dir)? {
            let torn = m.verify_all(&vfs, dir);
            if !torn.is_empty() {
                return Err(format!("manifest: {} torn artifact(s)", torn.len()));
            }
        }
        Ok(())
    })?;

    let mut db = WhoisDb::new();
    for path in sorted_txt(&dir.join("whois")) {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let registry: Registry = stem.parse().map_err(|e| io("whois file", &path, e))?;
        let text = tr.time("util.read", || read(&path))?;
        tr.time("whois.parse", || match registry {
            Registry::Rir(Rir::Arin) => db.add_arin_parallel(&text, threads),
            Registry::Rir(Rir::Lacnic) | Registry::Nir(Nir::NicBr) | Registry::Nir(Nir::NicMx) => {
                db.add_lacnic_parallel(&text, registry, threads)
            }
            reg => db.add_rpsl_parallel(&text, reg, threads),
        });
    }
    if !db.problems().is_empty() {
        return Err(format!("{} WHOIS records rejected", db.problems().len()));
    }
    // The CLI's delegation-file sanity check (paper §4.1).
    for path in sorted_txt(&dir.join("delegated")) {
        let text = tr.time("util.read", || read(&path))?;
        tr.time("whois.delegated", || {
            let (records, _) = p2o_whois::delegated::parse(&text);
            p2o_whois::delegated::oversized_delegations(&records).len()
        });
    }

    let mrt_path = dir.join("rib.mrt");
    let mrt = tr.time("util.read", || {
        vfs.read(&mrt_path).map_err(|e| io("reading", &mrt_path, e))
    })?;
    let lenient = tr.time("bgp.mrt_decode", || {
        RouteTable::from_mrt_lenient(bytes::Bytes::from(mrt), None, threads)
    });
    if !lenient.quarantined.is_empty() {
        return Err(format!(
            "{} MRT records rejected",
            lenient.quarantined.len()
        ));
    }
    let routes = lenient.table;

    let rpki_path = dir.join("rpki.jsonl");
    let (repo, rejected) = tr
        .time("rpki.load", || {
            p2o_rpki::persist::load_jsonl_lenient(&vfs, &rpki_path)
        })
        .map_err(|e| io("reading", &rpki_path, e))?;
    if !rejected.is_empty() {
        return Err(format!("{} RPKI lines rejected", rejected.len()));
    }

    let jpnic = tr.time("util.read", || read(&dir.join("jpnic_alloc.tsv")))?;
    let (tree, whois_stats) = tr.time("whois.build", || -> Result<_, String> {
        let mut map: HashMap<Prefix, AllocationType> = HashMap::new();
        for row in tsv::parse_rows(&jpnic, 2).map_err(|e| e.to_string())? {
            let prefix: Prefix = row[0]
                .parse()
                .map_err(|e| format!("jpnic_alloc.tsv: {e}"))?;
            let alloc = AllocationType::parse_keyword(Rir::Apnic, &row[1])
                .ok_or_else(|| format!("jpnic_alloc.tsv: unknown type {:?}", row[1]))?;
            map.insert(prefix, alloc);
        }
        db.fill_jpnic_alloc(|p| map.get(p).copied());
        Ok(db.build())
    })?;

    let as2org_text = tr.time("util.read", || read(&dir.join("as2org.tsv")))?;
    let siblings_text = tr.time("util.read", || read(&dir.join("siblings.tsv")))?;
    let clusters = tr.time("as2org.cluster", || -> Result<_, String> {
        let mut as2org = p2o_as2org::As2OrgDb::new();
        as2org.load_records_tsv(&as2org_text)?;
        as2org.load_siblings_tsv(&siblings_text)?;
        Ok(as2org.cluster())
    })?;
    let (rpki, _problems) = tr.time("rpki.validate", || repo.validate(snapshot_date));

    let pipeline = Pipeline::with_threads(threads);
    let inputs = PipelineInputs {
        delegations: &tree,
        routes: &routes,
        asn_clusters: &clusters,
        rpki: &rpki,
    };
    let (ownership, unresolved) = tr.time("core.resolve", || {
        let prefixes: Vec<Prefix> = routes.iter().map(|(p, _)| *p).collect();
        pipeline.resolve_stage(&tree, &prefixes)
    });
    let clustering = tr.time("core.cluster", || {
        Clusterer::new(pipeline.cluster_options)
            .with_threads(threads)
            .with_merge_evidence()
            .cluster(&ownership, &routes, &clusters, &rpki, tree.names())
    });
    let merge_edges = clustering.merge_edges.clone();
    let final_clusters = clustering.final_clusters as u64;
    let mut dataset = tr.time("core.assemble", || {
        Prefix2OrgDataset::assemble(
            ownership,
            clustering,
            unresolved,
            routes.all_origins().len(),
            tree.names(),
        )
    });
    tr.time("core.rov", || dataset.apply_rov(&routes, &rpki));
    tr.time("core.exceptions", || {
        prefix2org::ExceptionSet::new().apply(&mut dataset)
    });
    let jsonl = tr.time("core.export", || prefix2org::to_jsonl(&dataset));
    let export = out_dir.join("dataset.jsonl");
    tr.time("util.write", || {
        atomic::write_atomic(&vfs, &export, "export", jsonl.as_bytes())
    })
    .map_err(|e| io("writing", &export, e))?;

    let payload = tr.time("core.freeze", || {
        prefix2org::freeze(&inputs, &dataset, &merge_edges, digest)
    });
    tr.time("core.thaw_verify", || -> Result<(), String> {
        let thawed = FrozenDataset::from_payload(payload.clone())?;
        if thawed.to_jsonl() != jsonl {
            return Err("frozen artifact does not thaw back to the export".to_string());
        }
        Ok(())
    })?;
    let framed = tr.time("util.frame", || atomic::frame(&payload));
    let frozen = out_dir.join(prefix2org::FROZEN_FILE);
    tr.time("util.write", || -> Result<(), String> {
        atomic::write_atomic(&vfs, &frozen, prefix2org::FROZEN_LABEL, &framed)
            .map_err(|e| io("writing", &frozen, e))?;
        // The manifest update and the checkpoint stamp, written beside the
        // replay's outputs so the world directory stays as the CLI left it.
        let mut manifest = Manifest::load(&vfs, dir)?.unwrap_or_default();
        manifest.record(prefix2org::FROZEN_FILE, &framed);
        manifest
            .save(&vfs, out_dir)
            .map_err(|e| io("writing manifest in", out_dir, e))?;
        let stamp = format!(
            "inputs\t{digest:016X}\t\t\t\nartifact\texport\t{}\t{}\t{:016X}\n\
             artifact\tfrozen\t{}\t{}\t{:016X}\n",
            export.display(),
            jsonl.len(),
            p2o_util::fnv1a_64(jsonl.as_bytes()),
            frozen.display(),
            framed.len(),
            p2o_util::fnv1a_64(&framed),
        );
        let stamp_path = out_dir.join("dataset.jsonl.ckpt");
        atomic::write_framed(&vfs, &stamp_path, "ckpt", stamp.as_bytes())
            .map_err(|e| io("writing", &stamp_path, e))
    })?;
    let counts = BuildCounts {
        whois_records: whois_stats.raw_records as u64,
        routed_prefixes: routes.len() as u64,
        rpki_objects: (repo.cert_count() + repo.roa_count()) as u64,
        final_clusters,
        export_bytes: jsonl.len() as u64,
        frozen_bytes: framed.len() as u64,
    };
    // Freeing the pipeline's structures is part of what a build costs.
    tr.time("build.teardown", || {
        drop((dataset, merge_edges, payload, framed, jsonl));
        drop((tree, routes, clusters, rpki, repo));
    });
    tr.close("build");

    Ok((
        BuildOutputs {
            export,
            frozen,
            root,
        },
        counts,
    ))
}

/// The boot phases `serve` runs before it listens, replayed under spans:
/// manifest verification, the fsck pass over the framed artifacts, the
/// frozen attach, and the staleness digest. Returns the loaded snapshot and
/// the index of the `boot` root span.
pub fn boot(tr: &mut Tracer, dir: &Path) -> Result<(p2o_serve::Snapshot, usize), String> {
    let vfs = Vfs::real();
    let root = tr.open("boot");
    tr.time("serve.boot.manifest_verify", || -> Result<(), String> {
        let m = Manifest::load(&vfs, dir)?.ok_or("no MANIFEST.tsv")?;
        match m.verify_all(&vfs, dir).first() {
            Some((path, issue)) => Err(format!("manifest: {path}: {issue:?}")),
            None => Ok(()),
        }
    })?;
    tr.time("serve.boot.frozen_validate", || -> Result<(), String> {
        let entries = std::fs::read_dir(dir).map_err(|e| io("listing", dir, e))?;
        for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
            let ext = path
                .extension()
                .and_then(|x| x.to_str())
                .unwrap_or_default();
            if ext == "ckpt" || ext == "p2ob" {
                let payload =
                    atomic::read_framed(&vfs, &path).map_err(|e| io("frame", &path, e))?;
                if ext == "p2ob" {
                    FrozenDataset::validate_payload(&payload)?;
                }
            }
        }
        Ok(())
    })?;
    let frozen = tr.time("serve.boot.frozen_load", || {
        FrozenDataset::load(&vfs, &dir.join(prefix2org::FROZEN_FILE))
    })?;
    let digest = tr.time("serve.boot.inputs_digest", || inputs_digest(&vfs, dir))?;
    tr.close("boot");
    if frozen.inputs_digest() != digest {
        return Err("replayed inputs digest differs from the artifact's".to_string());
    }
    Ok((
        p2o_serve::Snapshot::from_frozen(dir.to_path_buf(), 0, frozen),
        root,
    ))
}
