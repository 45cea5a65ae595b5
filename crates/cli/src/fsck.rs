//! `prefix2org fsck` — audit a data directory for durability damage.
//!
//! Six checks, all read-only:
//!
//! 1. **Leftover tmp files** — any `*.p2o-tmp` anywhere under the
//!    directory is the debris of an interrupted atomic write (a `*.spill`
//!    run is the debris of an older binary's interrupted `build --spill`);
//! 2. **Manifest verification** — every file `MANIFEST.tsv` records must
//!    exist with its recorded length and digest (a short file is a torn
//!    write, a same-length mismatch is bit-rot or tampering). This is
//!    [`store::scan_integrity`], the one read of the inputs, which also
//!    yields the digest `serve` compares with the frozen artifact's;
//! 3. **Checkpoint frames** — every `*.ckpt` must unframe cleanly (the
//!    frame layer names the exact damage mode otherwise);
//! 4. **Frozen datasets** — every `*.p2ob` must unframe cleanly AND pass
//!    the full [`prefix2org::FrozenDataset`] payload audit (arena layout,
//!    format_version gate, string/LPM table invariants, per-record bounds).
//!    The frame is the artifact's one integrity record: a `MANIFEST.tsv`
//!    row an older build wrote for it is not checked;
//! 5. **Format version** — `meta.tsv` must pass the gate `build` applies
//!    ([`store::parse_meta`]): a supported `format_version` and a
//!    parseable `snapshot_date`;
//! 6. **Exception files** — any `exceptions.jsonl` must parse rule-clean
//!    (a rejected line in an operator override file is damage: `serve`
//!    refuses to boot from it, and a reload onto it is rejected).
//!
//! Directories from before the durability layer have no manifest; that is
//! reported as a note, not damage.

use std::path::{Path, PathBuf};

use p2o_util::atomic;
use p2o_util::manifest::MANIFEST_FILE;
use p2o_util::vfs::Vfs;
use p2o_util::Digest;

use crate::store;

/// What an audit found.
#[derive(Default)]
pub struct FsckReport {
    /// Damage findings, one line each. Empty = the directory is healthy.
    pub findings: Vec<String>,
    /// Artifacts that verified clean against the manifest.
    pub verified: u64,
    /// Non-damage observations (e.g. "no MANIFEST.tsv").
    pub notes: Vec<String>,
    /// The directory's own `world.p2ob` as the audit validated it, so
    /// `serve` attaches it without unframing and validating it again.
    pub frozen: Option<prefix2org::FrozenDataset>,
    /// The files digest of the inputs as the audit read them (`None` on a
    /// read failure, which is a finding).
    pub files_digest: Option<Digest>,
}

/// Whether `path` is a run file an older binary's `build --spill` wrote
/// under `DIR/spill/`. This binary writes none, but an interrupted spill
/// build stranded them, so they stay nameable, removable debris.
fn is_spill_path(path: &Path) -> bool {
    path.to_string_lossy().ends_with(".spill")
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Audits `dir` and returns everything found. Errors only on a missing or
/// unreadable directory — damage inside it is a finding, not an error.
pub fn audit(vfs: &Vfs, dir: &Path) -> Result<FsckReport, String> {
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    let mut report = FsckReport::default();
    let rel = |path: &Path| store::relpath(dir, path);

    let mut files = Vec::new();
    walk(dir, &mut files);
    for path in &files {
        if atomic::is_tmp_path(path) {
            report.findings.push(format!(
                "{}: leftover tmp file from an interrupted atomic write",
                rel(path)
            ));
        } else if is_spill_path(path) {
            report.findings.push(format!(
                "{}: orphaned spill run from an older binary's interrupted --spill build",
                rel(path)
            ));
        } else if path.extension().is_some_and(|x| x == "ckpt") {
            if let Err(e) = atomic::read_framed(vfs, path) {
                report
                    .findings
                    .push(format!("{}: checkpoint stamp damaged: {e}", rel(path)));
            } else {
                report.verified += 1;
            }
        } else if path.extension().is_some_and(|x| x == "p2ob") {
            match atomic::read_framed(vfs, path) {
                Err(e) => report
                    .findings
                    .push(format!("{}: frozen dataset frame damaged: {e}", rel(path))),
                Ok(payload) => match prefix2org::FrozenDataset::from_payload(payload) {
                    Err(e) => report
                        .findings
                        .push(format!("{}: frozen dataset invalid: {e}", rel(path))),
                    Ok(frozen) => {
                        report.verified += 1;
                        if *path == dir.join(prefix2org::FROZEN_FILE) {
                            report.frozen = Some(frozen);
                        }
                    }
                },
            }
        } else if path.file_name().is_some_and(|n| n == "exceptions.jsonl") {
            match vfs.read_to_string(path) {
                Err(e) => report
                    .findings
                    .push(format!("{}: exceptions file unreadable: {e}", rel(path))),
                Ok(text) => {
                    let (_, rejected) = prefix2org::ExceptionSet::parse_lenient(&text);
                    if rejected.is_empty() {
                        report.verified += 1;
                    } else {
                        const SHOWN: usize = 8;
                        for r in rejected.iter().take(SHOWN) {
                            report.findings.push(format!(
                                "{}: line {}: {} ({})",
                                rel(path),
                                r.offset,
                                r.message,
                                r.kind.counter_suffix()
                            ));
                        }
                        if rejected.len() > SHOWN {
                            report.findings.push(format!(
                                "{}: ... {} more rejected line(s)",
                                rel(path),
                                rejected.len() - SHOWN
                            ));
                        }
                    }
                }
            }
        }
    }

    if !dir.join(MANIFEST_FILE).exists() {
        report
            .notes
            .push("no MANIFEST.tsv (pre-durability directory; nothing to verify)".to_string());
    }
    match store::scan_integrity(vfs, dir) {
        Err(e) => report.findings.push(e),
        Ok(scan) => {
            report.verified += scan.verified;
            for (path, issue) in scan.torn {
                report.findings.push(format!("{path}: {issue}"));
            }
            report.files_digest = Some(scan.files_digest);
        }
    }

    if let Ok(text) = vfs.read_to_string(&dir.join("meta.tsv")) {
        if let Err(e) = store::parse_meta(&text) {
            report.findings.push(e);
        }
    }

    Ok(report)
}

/// `fsck --gc`: delete the *removable* debris classes — leftover
/// `*.p2o-tmp` files and orphaned `*.spill` runs — and return the
/// relative paths removed, sorted. Both classes are by construction
/// never the only copy of anything (a tmp never replaced its target, a
/// spill run was re-derivable from the inputs), so deleting them is safe.
/// Damage that needs judgement (torn artifacts, bad stamps, manifest
/// mismatches) is left alone for the audit to keep reporting.
pub fn gc(vfs: &Vfs, dir: &Path) -> Result<Vec<String>, String> {
    if !dir.is_dir() {
        return Err(format!("{} is not a directory", dir.display()));
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    let mut removed = Vec::new();
    for path in &files {
        if atomic::is_tmp_path(path) || is_spill_path(path) {
            vfs.remove_file(path)
                .map_err(|e| format!("removing {}: {e}", path.display()))?;
            removed.push(store::relpath(dir, path));
        }
    }
    // Drop the spill directory itself once nothing is left inside.
    let sdir = dir.join("spill");
    if sdir.is_dir()
        && std::fs::read_dir(&sdir)
            .map(|mut d| d.next().is_none())
            .unwrap_or(false)
    {
        let _ = vfs.remove_dir(&sdir);
    }
    removed.sort();
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2o_util::manifest::Manifest;
    use std::fs;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p2o-fsck-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_directory_audits_clean() {
        let dir = tmp_dir("clean");
        let vfs = Vfs::real();
        fs::write(dir.join("a.tsv"), b"x\ty\n").unwrap();
        let mut m = Manifest::new();
        m.record("a.tsv", b"x\ty\n");
        m.save(&vfs, &dir).unwrap();
        let report = audit(&vfs, &dir).unwrap();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.verified, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_damage_class_is_found() {
        let dir = tmp_dir("damage");
        let vfs = Vfs::real();
        fs::create_dir_all(dir.join("whois")).unwrap();
        fs::create_dir_all(dir.join("spill")).unwrap();
        // A torn manifest-listed artifact, a leftover tmp, an orphaned
        // spill run, a torn stamp, and a future format version.
        fs::write(dir.join("rib.mrt"), b"full mrt bytes").unwrap();
        let mut m = Manifest::new();
        m.record("rib.mrt", b"full mrt bytes");
        m.save(&vfs, &dir).unwrap();
        fs::write(dir.join("rib.mrt"), b"full").unwrap();
        fs::write(dir.join("whois/ARIN.txt.p2o-tmp"), b"partial").unwrap();
        fs::write(dir.join("spill/run-0000.spill"), b"orphan run").unwrap();
        let framed = atomic::frame(b"inputs\t0\t\t\t\n");
        fs::write(dir.join("dataset.jsonl.ckpt"), &framed[..framed.len() - 2]).unwrap();
        fs::write(dir.join("meta.tsv"), b"format_version\t99\n").unwrap();

        let report = audit(&vfs, &dir).unwrap();
        let all = report.findings.join("\n");
        assert!(all.contains("rib.mrt: length mismatch"), "{all}");
        assert!(
            all.contains("whois/ARIN.txt.p2o-tmp: leftover tmp"),
            "{all}"
        );
        assert!(
            all.contains("spill/run-0000.spill: orphaned spill run"),
            "{all}"
        );
        assert!(
            all.contains("dataset.jsonl.ckpt: checkpoint stamp damaged"),
            "{all}"
        );
        assert!(all.contains("format_version 99"), "{all}");
        assert_eq!(report.findings.len(), 5, "{all}");

        // --gc removes exactly the removable classes (tmp + spill) and the
        // emptied spill directory; the torn artifact and stamp remain.
        let removed = gc(&vfs, &dir).unwrap();
        assert_eq!(
            removed,
            vec![
                "spill/run-0000.spill".to_string(),
                "whois/ARIN.txt.p2o-tmp".to_string(),
            ]
        );
        assert!(!dir.join("spill").exists());
        let after = audit(&vfs, &dir).unwrap();
        let all = after.findings.join("\n");
        assert!(!all.contains("leftover tmp"), "{all}");
        assert!(!all.contains("orphaned spill run"), "{all}");
        assert_eq!(after.findings.len(), 3, "{all}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frozen_artifact_damage_is_found() {
        use p2o_synth::{World, WorldConfig};
        use prefix2org::{Pipeline, PipelineInputs};

        let dir = tmp_dir("frozen");
        let vfs = Vfs::real();
        let world = World::generate(WorldConfig::tiny(9));
        let built = world.build_inputs();
        let inputs = PipelineInputs {
            delegations: &built.tree,
            routes: &built.routes,
            asn_clusters: &built.clusters,
            rpki: &built.rpki,
        };
        let (dataset, edges) = Pipeline::default().dataset_with_evidence(&inputs, None);
        let payload = prefix2org::freeze(&inputs, &dataset, &edges, 7);
        let framed = atomic::frame(&payload);
        let p2ob = dir.join("world.p2ob");

        fs::write(&p2ob, &framed).unwrap();
        let report = audit(&vfs, &dir).unwrap();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.verified, 1);
        assert_eq!(
            report.frozen.expect("audited artifact kept").payload(),
            payload
        );

        // Truncation and bit flips both break the outer frame.
        fs::write(&p2ob, &framed[..framed.len() - 3]).unwrap();
        let all = audit(&vfs, &dir).unwrap().findings.join("\n");
        assert!(
            all.contains("world.p2ob: frozen dataset frame damaged"),
            "{all}"
        );
        let mut flipped = framed.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&p2ob, &flipped).unwrap();
        let all = audit(&vfs, &dir).unwrap().findings.join("\n");
        assert!(
            all.contains("world.p2ob: frozen dataset frame damaged"),
            "{all}"
        );

        // A future format_version inside an intact frame is caught by the
        // payload validator, not the frame layer.
        let meta = p2o_util::arena::ArenaIndex::parse(&payload)
            .unwrap()
            .get("meta")
            .unwrap();
        let mut future = payload.clone();
        future[meta.start] = 0xFF;
        fs::write(&p2ob, atomic::frame(&future)).unwrap();
        let all = audit(&vfs, &dir).unwrap().findings.join("\n");
        assert!(
            all.contains("world.p2ob: frozen dataset invalid")
                && all.contains("newer than this reader"),
            "{all}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn exceptions_file_damage_is_found() {
        let dir = tmp_dir("exceptions");
        let vfs = Vfs::real();
        // A clean rule file verifies; a truncated/garbled one is a finding
        // naming each rejected line.
        fs::write(
            dir.join("exceptions.jsonl"),
            b"{\"prefix\":\"10.0.0.0/24\",\"action\":\"assert\",\"org\":\"Acme\"}\n",
        )
        .unwrap();
        let report = audit(&vfs, &dir).unwrap();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.verified, 1);

        fs::write(
            dir.join("exceptions.jsonl"),
            b"{\"prefix\":\"10.0.0.0/24\",\"action\":\"assert\",\"org\":\"Acme\"}\n\
              {\"prefix\":\"10.0.1.0/24\",\"act\n",
        )
        .unwrap();
        let report = audit(&vfs, &dir).unwrap();
        let all = report.findings.join("\n");
        assert!(
            all.contains("exceptions.jsonl: line 2") && all.contains("exception_bad_line"),
            "{all}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_a_note_not_a_finding() {
        let dir = tmp_dir("nomanifest");
        let vfs = Vfs::real();
        fs::write(dir.join("data.txt"), b"x").unwrap();
        let report = audit(&vfs, &dir).unwrap();
        assert!(report.findings.is_empty());
        assert_eq!(report.notes.len(), 1);
        assert!(audit(&vfs, &dir.join("absent")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
