//! The one-file-at-a-time integrity scan and audit the lockstep pass
//! replaced, kept as the oracle the pass is checked against: each input
//! read whole and hashed alone, the rows left over read whole after them,
//! and every framed file read whole and stripped in place.

use std::collections::BTreeMap;
use std::path::Path;

use p2o_util::atomic::{self, FrameError, FRAME_HEADER_LEN, FRAME_MAGIC, FRAME_VERSION};
use p2o_util::manifest::{Manifest, ManifestEntry, VerifyIssue, MANIFEST_FILE};
use p2o_util::vfs::Vfs;
use p2o_util::{fnv1a_64, Digest};

use super::{is_spill_path, walk, FsckReport};
use crate::checkpoint;
use crate::store::{self, relpath};

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
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
            if let Err(e) = read_framed(vfs, path) {
                report
                    .findings
                    .push(format!("{}: checkpoint stamp damaged: {e}", rel(path)));
            } else {
                report.verified += 1;
            }
        } else if path.extension().is_some_and(|x| x == "p2ob") {
            match read_framed(vfs, path) {
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
    match scan_integrity(vfs, dir) {
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

fn strip_frame(mut bytes: Vec<u8>) -> Result<Vec<u8>, FrameError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::TruncatedHeader { got: bytes.len() });
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&bytes[0..4]);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version > FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion { found: version });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let expected_digest = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload = &bytes[FRAME_HEADER_LEN..];
    let got = payload.len() as u64;
    if got < len {
        return Err(FrameError::TruncatedPayload { expected: len, got });
    }
    if got > len {
        return Err(FrameError::TrailingBytes { expected: len, got });
    }
    let got_digest = fnv1a_64(payload);
    if got_digest != expected_digest {
        return Err(FrameError::DigestMismatch {
            expected: expected_digest,
            got: got_digest,
        });
    }
    bytes.drain(..FRAME_HEADER_LEN);
    Ok(bytes)
}

/// Reads a framed artifact, verifying magic, version, length, and digest;
/// the header is stripped in place, so the payload is never copied.
pub fn read_framed(vfs: &Vfs, path: &Path) -> Result<Vec<u8>, FrameError> {
    strip_frame(vfs.read(path).map_err(|e| FrameError::Io(e.to_string()))?)
}
