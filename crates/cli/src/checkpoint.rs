//! The build checkpoint stamp and resume decision.
//!
//! A successful `build` finishes by writing `<out>.ckpt`: a checksummed
//! frame (see `p2o_util::atomic`) whose payload is a small TSV recording
//!
//! - the **inputs digest** — one FNV-1a digest chained over every input
//!   file in the snapshot directory (path + content) plus the
//!   output-affecting options (`--strict`, `--quarantine-samples`); thread
//!   count is deliberately excluded because the pipeline is byte-identical
//!   at any parallelism (property-tested since the parallelization PR);
//! - one row per **artifact written** — role (`export` / `report` /
//!   `metrics` / `trace`), the path as given on the command line, byte
//!   length, and content digest.
//!
//! `build --resume` reads the stamp and skips the whole build iff the
//! inputs digest matches *and* every artifact the current invocation asks
//! for is recorded with a matching path and still verifies on disk.
//! Anything else — no stamp, torn stamp (the frame layer says exactly
//! how), changed inputs, missing or altered artifact, newly requested
//! artifact — downgrades to a warning plus a full recompute, never an
//! abort. The stamp is written last, so a kill anywhere mid-build simply
//! leaves no (or a stale) stamp and resume recomputes.

use std::path::{Path, PathBuf};

use p2o_util::atomic;
use p2o_util::manifest::ManifestEntry;
use p2o_util::vfs::Vfs;
use p2o_util::{tsv, Digest};

/// Suffix appended to the export path to name the stamp file.
pub const STAMP_SUFFIX: &str = ".ckpt";

/// The stamp file path for an export path (`dataset.jsonl` →
/// `dataset.jsonl.ckpt`).
pub fn stamp_path(out: &Path) -> PathBuf {
    let mut name = out.as_os_str().to_os_string();
    name.push(STAMP_SUFFIX);
    PathBuf::from(name)
}

/// One artifact recorded in a stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampArtifact {
    /// Artifact role: `export`, `report`, `metrics`, or `trace`.
    pub role: String,
    /// The output path exactly as given on the command line.
    pub path: String,
    /// Byte length as written.
    pub bytes: u64,
    /// FNV-1a digest of the written content.
    pub digest: u64,
}

/// A build checkpoint stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// Digest over all input files and output-affecting options.
    pub inputs_digest: u64,
    /// Every artifact the stamped build wrote, in write order.
    pub artifacts: Vec<StampArtifact>,
}

impl Stamp {
    /// A stamp for the given inputs digest with no artifacts yet.
    pub fn new(inputs_digest: u64) -> Stamp {
        Stamp {
            inputs_digest,
            artifacts: Vec::new(),
        }
    }

    /// Records an artifact written with `content` to `path`.
    pub fn record(&mut self, role: &str, path: &str, content: &[u8]) {
        self.record_entry(role, path, ManifestEntry::of_parts(&[content]));
    }

    /// Records an artifact written to `path` whose length and digest are
    /// already known.
    pub fn record_entry(&mut self, role: &str, path: &str, entry: ManifestEntry) {
        self.artifacts.push(StampArtifact {
            role: role.to_string(),
            path: path.to_string(),
            bytes: entry.bytes,
            digest: entry.digest,
        });
    }

    /// The recorded artifact with the given role, if any.
    pub fn artifact(&self, role: &str) -> Option<&StampArtifact> {
        self.artifacts.iter().find(|a| a.role == role)
    }

    fn to_tsv(&self) -> String {
        let mut rows: Vec<Vec<String>> = vec![vec![
            "inputs".to_string(),
            format!("{:016X}", self.inputs_digest),
            String::new(),
            String::new(),
            String::new(),
        ]];
        for a in &self.artifacts {
            rows.push(vec![
                "artifact".to_string(),
                a.role.clone(),
                a.path.clone(),
                a.bytes.to_string(),
                format!("{:016X}", a.digest),
            ]);
        }
        tsv::write_rows(&rows)
    }

    fn from_tsv(text: &str) -> Result<Stamp, String> {
        let mut inputs_digest = None;
        let mut artifacts = Vec::new();
        for row in tsv::parse_rows(text, 5).map_err(|e| format!("stamp: {e}"))? {
            match row[0].as_str() {
                "inputs" => {
                    inputs_digest = Some(
                        u64::from_str_radix(&row[1], 16)
                            .map_err(|_| format!("stamp: bad inputs digest {:?}", row[1]))?,
                    );
                }
                "artifact" => artifacts.push(StampArtifact {
                    role: row[1].clone(),
                    path: row[2].clone(),
                    bytes: row[3]
                        .parse()
                        .map_err(|_| format!("stamp: bad byte count {:?}", row[3]))?,
                    digest: u64::from_str_radix(&row[4], 16)
                        .map_err(|_| format!("stamp: bad digest {:?}", row[4]))?,
                }),
                other => return Err(format!("stamp: unknown row kind {other:?}")),
            }
        }
        Ok(Stamp {
            inputs_digest: inputs_digest.ok_or("stamp: missing inputs row")?,
            artifacts,
        })
    }

    /// Atomically writes the stamp for export path `out` as a checksummed
    /// frame (kill-point label `ckpt`).
    pub fn save(&self, vfs: &Vfs, out: &Path) -> std::io::Result<()> {
        atomic::write_framed(vfs, &stamp_path(out), "ckpt", self.to_tsv().as_bytes())
    }

    /// Loads the stamp for export path `out`. `Ok(None)` when there is no
    /// stamp (first build); `Err` names the damage (torn frame, digest
    /// mismatch, unparsable payload) — callers warn and recompute.
    pub fn load(vfs: &Vfs, out: &Path) -> Result<Option<Stamp>, String> {
        let path = stamp_path(out);
        if !path.exists() {
            return Ok(None);
        }
        let payload =
            atomic::read_framed(vfs, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        let text = String::from_utf8(payload)
            .map_err(|_| format!("{}: stamp payload is not UTF-8", path.display()))?;
        Stamp::from_tsv(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The `*.txt` entries of `dir` sorted by name, whatever their kind, so a
/// caller that reads them can name one it cannot read. Empty when `dir`
/// cannot be listed.
pub fn txt_entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "txt"))
                .collect()
        })
        .unwrap_or_default();
    paths.sort();
    paths
}

/// Input files hashed into the inputs digest, in deterministic order:
/// the fixed top-level artifacts, then the `whois/*.txt` and
/// `delegated/*.txt` files sorted by name.
pub fn input_files(dir: &Path) -> Vec<PathBuf> {
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
        files.extend(
            txt_entries(&dir.join(sub))
                .into_iter()
                .filter(|p| p.is_file()),
        );
    }
    files
}

/// The checkpoint digest: the files digest of
/// [`scan_integrity`](crate::store::scan_integrity) with the
/// output-affecting options chained on, then the content of a local
/// exceptions file when it holds a non-blank line. Any changed, added, or
/// removed input file — or changed option or exception rule — changes the
/// digest and forces a recompute. Exceptions are hashed by content only
/// (not path), so moving the rule file without editing it (or keeping it
/// empty) does not invalidate a checkpoint or mark a frozen artifact stale.
pub fn inputs_digest(
    files: Digest,
    strict: bool,
    quarantine_samples: usize,
    exceptions: Option<&[u8]>,
) -> u64 {
    let mut d = files.chain(Digest::of_parts([
        &[strict as u8][..],
        &(quarantine_samples as u64).to_le_bytes(),
    ]));
    // Only whitespace means no line `ExceptionSet::parse_lenient` reads.
    if let Some(content) = exceptions.filter(|c| !String::from_utf8_lossy(c).trim().is_empty()) {
        d = d.chain(Digest::of_parts([b"exceptions".as_slice(), content]));
    }
    d.0
}

/// The option-independent digest of a directory's input files: what
/// [`inputs_digest`] yields for the default build options. The frozen
/// dataset stamps this into its META section so `serve` can detect a
/// stale artifact no matter which flags the original build ran with. A
/// build with `--exceptions` chains the rule-file content in, so a `serve`
/// run with a different (or no) exceptions file sees the artifact as stale
/// and falls back to a full load applying its own rules.
pub fn canonical_inputs_digest(files: Digest, exceptions: Option<&[u8]>) -> u64 {
    inputs_digest(
        files,
        false,
        p2o_util::ingest::DEFAULT_QUARANTINE_SAMPLES,
        exceptions,
    )
}

/// The bytes on disk of a recorded artifact, when they still match the
/// record.
pub fn verified_bytes(vfs: &Vfs, artifact: &StampArtifact) -> Option<Vec<u8>> {
    let entry = ManifestEntry {
        bytes: artifact.bytes,
        digest: artifact.digest,
    };
    vfs.read(Path::new(&artifact.path))
        .ok()
        .filter(|bytes| entry.check(bytes).is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p2o-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stamp_round_trips_through_the_frame() {
        let dir = tmp_dir("roundtrip");
        let vfs = Vfs::real();
        let out = dir.join("dataset.jsonl");
        let mut stamp = Stamp::new(0xDEAD_BEEF_0BAD_F00D);
        stamp.record("export", out.to_str().unwrap(), b"{\"a\":1}\n");
        stamp.record("report", "run.json", b"{}\n");
        stamp.save(&vfs, &out).unwrap();
        let back = Stamp::load(&vfs, &out).unwrap().expect("stamp present");
        assert_eq!(back, stamp);
        assert_eq!(back.artifact("report").unwrap().bytes, 3);
        assert!(back.artifact("trace").is_none());
        // No stamp at all is Ok(None), not an error.
        assert_eq!(Stamp::load(&vfs, &dir.join("other.jsonl")).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_stamp_is_an_error_naming_the_damage() {
        let dir = tmp_dir("torn");
        let vfs = Vfs::real();
        let out = dir.join("dataset.jsonl");
        Stamp::new(1).save(&vfs, &out).unwrap();
        let path = stamp_path(&out);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = Stamp::load(&vfs, &out).unwrap_err();
        assert!(err.contains("torn payload"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inputs_digest_tracks_files_and_options() {
        let dir = tmp_dir("digest");
        let vfs = Vfs::real();
        fs::create_dir_all(dir.join("whois")).unwrap();
        fs::write(dir.join("meta.tsv"), b"seed\t1\n").unwrap();
        fs::write(dir.join("whois/ARIN.txt"), b"NetRange: x\n").unwrap();

        let digest = |strict, samples, exceptions| {
            inputs_digest(
                crate::store::scan_integrity(&vfs, &dir, None)
                    .unwrap()
                    .files_digest,
                strict,
                samples,
                exceptions,
            )
        };
        // The chain itself is pinned: every `.ckpt` stamp and every
        // `world.p2ob` META digest already on disk was computed with it,
        // so a change here would mark them all stale.
        let files = crate::store::scan_integrity(&vfs, &dir, None)
            .unwrap()
            .files_digest;
        assert_eq!(inputs_digest(files, false, 8, None), 0x3AB0_B0D6_F859_8603);
        assert_eq!(canonical_inputs_digest(files, None), 0x3AB0_B0D6_F859_8603);
        let base = digest(false, 8, None);
        assert_eq!(base, digest(false, 8, None));
        // Content change, new file, and option changes all move the digest.
        fs::write(dir.join("meta.tsv"), b"seed\t2\n").unwrap();
        let changed = digest(false, 8, None);
        assert_ne!(base, changed);
        fs::write(dir.join("whois/RIPE.txt"), b"inetnum: y\n").unwrap();
        let added = digest(false, 8, None);
        assert_ne!(changed, added);
        assert_ne!(added, digest(true, 8, None));
        assert_ne!(added, digest(false, 9, None));
        // Exceptions content participates: presence and edits both move
        // the digest; the same content always digests the same.
        let rule = br#"{"prefix":"10.0.0.0/24","action":"filter"}"#;
        let with_exc = digest(false, 8, Some(rule));
        assert_ne!(added, with_exc);
        assert_eq!(with_exc, digest(false, 8, Some(rule)));
        assert_ne!(with_exc, digest(false, 8, Some(b"other")));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A rule file with no non-blank line holds no rule, so it digests
    /// like no file: an empty rule file kept ready for a later edit marks
    /// nothing stale. A file with a line, even a rejected one, does not.
    #[test]
    fn a_rule_file_without_rules_digests_like_none() {
        let files = Digest::of_bytes(b"files");
        let digest = |exceptions| inputs_digest(files, false, 8, exceptions);
        for blank in ["", "\n", " \t\n\n", "\r\n"] {
            assert_eq!(digest(None), digest(Some(blank.as_bytes())), "{blank:?}");
        }
        assert_ne!(digest(None), digest(Some(b"\nnot a rule\n")));
    }

    #[test]
    fn artifact_verification_catches_tears_and_edits() {
        let dir = tmp_dir("verify");
        let vfs = Vfs::real();
        let path = dir.join("dataset.jsonl");
        fs::write(&path, b"line one\n").unwrap();
        let mut stamp = Stamp::new(0);
        stamp.record("export", path.to_str().unwrap(), b"line one\n");
        let a = stamp.artifact("export").unwrap();
        assert_eq!(verified_bytes(&vfs, a).as_deref(), Some(&b"line one\n"[..]));
        fs::write(&path, b"line on").unwrap();
        assert!(verified_bytes(&vfs, a).is_none());
        fs::write(&path, b"line two\n").unwrap();
        assert!(verified_bytes(&vfs, a).is_none());
        fs::remove_file(&path).unwrap();
        assert!(verified_bytes(&vfs, a).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
