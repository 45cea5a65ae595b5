//! Per-artifact content manifest (`MANIFEST.tsv`).
//!
//! `generate` records every artifact it writes — relative path, byte
//! length, FNV-1a digest — into a `MANIFEST.tsv` sidecar at the root of the
//! data directory, written last (and atomically) so it describes the final
//! on-disk state. The manifest is `generate`'s alone: the files `build`
//! writes into the directory (`world.p2ob`, checkpoint stamps) carry their
//! own checksummed frame (see [`atomic`](crate::atomic)) and get no row.
//!
//! The CLI checks the rows in one integrity scan, which reads each listed
//! file once and [`check`](ManifestEntry::check)s it against its row:
//!
//! - `build` reports (never aborts on) any mismatch before parsing — a
//!   torn or bit-rotted file is *detected* durably rather than surfacing as
//!   a confusing parse error deep in a substrate;
//! - `prefix2org fsck` audits an entire directory and exits nonzero when
//!   anything is missing, truncated, or altered, and `serve` refuses to
//!   boot from such a directory.
//!
//! The manifest is plain TSV (`path`, `bytes`, 16-hex `digest`) with a `#`
//! comment header, so it is diffable and greppable like every other
//! artifact in the store. Directories produced by older versions have no
//! manifest; loaders treat that as "nothing to verify", not an error.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use crate::digest::{fnv1a_64_update, FNV1A_INIT};
use crate::vfs::Vfs;
use crate::{atomic, tsv};

/// File name of the manifest sidecar inside a data directory.
pub const MANIFEST_FILE: &str = "MANIFEST.tsv";

/// One artifact's recorded identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Byte length of the artifact as written.
    pub bytes: u64,
    /// FNV-1a 64-bit digest of the artifact's content.
    pub digest: u64,
}

impl ManifestEntry {
    /// The identity of the concatenated `parts`, hashed in one pass
    /// without joining them — what an atomic write of the same parts
    /// leaves on disk.
    pub fn of_parts(parts: &[&[u8]]) -> ManifestEntry {
        ManifestEntry {
            bytes: parts.iter().map(|p| p.len() as u64).sum(),
            digest: parts.iter().fold(FNV1A_INIT, |h, p| fnv1a_64_update(h, p)),
        }
    }

    /// Checks `content` against this identity; `None` means it matches.
    pub fn check(&self, content: &[u8]) -> Option<VerifyIssue> {
        self.compare(ManifestEntry::of_parts(&[content]))
    }

    /// Checks the identity `found` of a file already hashed against this
    /// one, as [`check`](Self::check) checks its content: a length
    /// mismatch first, then a digest mismatch.
    pub fn compare(&self, found: ManifestEntry) -> Option<VerifyIssue> {
        if found.bytes != self.bytes {
            return Some(VerifyIssue::LengthMismatch {
                expected: self.bytes,
                got: found.bytes,
            });
        }
        (found.digest != self.digest).then_some(VerifyIssue::DigestMismatch {
            expected: self.digest,
            got: found.digest,
        })
    }
}

/// How a single artifact failed verification against its manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyIssue {
    /// The manifest lists the file but it is gone.
    Missing,
    /// The file is a different length than recorded (short = torn write).
    LengthMismatch {
        /// Length the manifest recorded.
        expected: u64,
        /// Length found on disk.
        got: u64,
    },
    /// Same length, different content.
    DigestMismatch {
        /// Digest the manifest recorded.
        expected: u64,
        /// Digest of the bytes on disk.
        got: u64,
    },
}

impl fmt::Display for VerifyIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyIssue::Missing => write!(f, "missing"),
            VerifyIssue::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "length mismatch: manifest says {expected} B, file is {got} B"
                )
            }
            VerifyIssue::DigestMismatch { expected, got } => write!(
                f,
                "digest mismatch: manifest says {expected:016X}, file is {got:016X}"
            ),
        }
    }
}

/// The manifest: artifact relpath → recorded identity. Iteration order is
/// sorted (BTreeMap), so the written file is deterministic.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Manifest {
    entries: BTreeMap<String, ManifestEntry>,
}

impl Manifest {
    /// An empty manifest.
    pub fn new() -> Manifest {
        Manifest::default()
    }

    /// Records (or re-records) an artifact's content.
    pub fn record(&mut self, relpath: &str, content: &[u8]) {
        self.record_entry(relpath, ManifestEntry::of_parts(&[content]));
    }

    /// Records (or re-records) an artifact whose identity is already known.
    pub fn record_entry(&mut self, relpath: &str, entry: ManifestEntry) {
        self.entries.insert(relpath.to_string(), entry);
    }

    /// Iterates entries in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ManifestEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Serializes to the TSV sidecar format.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("# path\tbytes\tdigest\n");
        let rows: Vec<Vec<String>> = self
            .entries
            .iter()
            .map(|(path, e)| {
                vec![
                    path.clone(),
                    e.bytes.to_string(),
                    format!("{:016X}", e.digest),
                ]
            })
            .collect();
        out.push_str(&tsv::write_rows(&rows));
        out
    }

    /// Parses the TSV sidecar format.
    pub fn from_tsv(text: &str) -> Result<Manifest, String> {
        let mut m = Manifest::new();
        for row in tsv::parse_rows(text, 3).map_err(|e| format!("{MANIFEST_FILE}: {e}"))? {
            let (path, bytes, digest) = (&row[0], &row[1], &row[2]);
            let parsed_bytes: u64 = bytes
                .parse()
                .map_err(|_| format!("{MANIFEST_FILE}: bad byte count {bytes:?} for {path}"))?;
            let parsed_digest = u64::from_str_radix(digest, 16)
                .map_err(|_| format!("{MANIFEST_FILE}: bad digest {digest:?} for {path}"))?;
            m.entries.insert(
                path.clone(),
                ManifestEntry {
                    bytes: parsed_bytes,
                    digest: parsed_digest,
                },
            );
        }
        Ok(m)
    }

    /// Atomically writes the manifest into `dir`.
    pub fn save(&self, vfs: &Vfs, dir: &Path) -> std::io::Result<()> {
        atomic::write_atomic(
            vfs,
            &dir.join(MANIFEST_FILE),
            "manifest",
            self.to_tsv().as_bytes(),
        )
    }

    /// Loads the manifest from `dir`; `Ok(None)` when the directory has no
    /// manifest (pre-durability layout — nothing to verify).
    pub fn load(vfs: &Vfs, dir: &Path) -> Result<Option<Manifest>, String> {
        let path = dir.join(MANIFEST_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let text = vfs
            .read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::from_tsv(&text).map(Some)
    }

    /// Verifies one artifact on disk against its manifest entry; `None`
    /// means the artifact is not listed (nothing to check).
    pub fn verify_file(&self, vfs: &Vfs, dir: &Path, relpath: &str) -> Option<VerifyIssue> {
        let entry = self.entries.get(relpath)?;
        match vfs.read(&dir.join(relpath)) {
            Ok(bytes) => entry.check(&bytes),
            Err(_) => Some(VerifyIssue::Missing),
        }
    }

    /// Verifies every recorded artifact; returns `(relpath, issue)` pairs in
    /// sorted path order (empty = everything checks out).
    pub fn verify_all(&self, vfs: &Vfs, dir: &Path) -> Vec<(String, VerifyIssue)> {
        self.entries
            .keys()
            .filter_map(|path| {
                self.verify_file(vfs, dir, path)
                    .map(|issue| (path.clone(), issue))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p2o-manifest-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parts_record_as_their_concatenation() {
        let mut joined = Manifest::new();
        joined.record("world.p2ob", b"header+payload");
        let mut split = Manifest::new();
        split.record_entry(
            "world.p2ob",
            ManifestEntry::of_parts(&[b"header", b"", b"+payload"]),
        );
        assert_eq!(split, joined);
    }

    #[test]
    fn tsv_round_trip_is_sorted_and_lossless() {
        let mut m = Manifest::new();
        m.record("rib.mrt", b"mrt-bytes");
        m.record("whois/arin.txt", b"arin");
        m.record("meta.tsv", b"meta");
        let text = m.to_tsv();
        // Sorted path order, deterministic.
        let paths: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| l.split('\t').next().unwrap())
            .collect();
        assert_eq!(paths, ["meta.tsv", "rib.mrt", "whois/arin.txt"]);
        assert_eq!(Manifest::from_tsv(&text).unwrap(), m);
        assert!(Manifest::from_tsv("# h\nonly-two\tcols\n").is_err());
        assert!(Manifest::from_tsv("a\tnot-a-number\tFFFF\n").is_err());
    }

    #[test]
    fn verify_detects_every_mismatch_kind() {
        let dir = tmp_dir("verify");
        let vfs = Vfs::real();
        fs::write(dir.join("good.txt"), b"good").unwrap();
        fs::write(dir.join("torn.txt"), b"full content here").unwrap();
        fs::write(dir.join("rotted.txt"), b"abcd").unwrap();

        let mut m = Manifest::new();
        m.record("good.txt", b"good");
        m.record("torn.txt", b"full content here");
        m.record("rotted.txt", b"abcd");
        m.record("gone.txt", b"was here");

        // Damage two of them.
        fs::write(dir.join("torn.txt"), b"full co").unwrap();
        fs::write(dir.join("rotted.txt"), b"abce").unwrap();

        assert_eq!(m.verify_file(&vfs, &dir, "good.txt"), None);
        assert_eq!(m.verify_file(&vfs, &dir, "unlisted.txt"), None);
        assert_eq!(
            m.verify_file(&vfs, &dir, "gone.txt"),
            Some(VerifyIssue::Missing)
        );
        assert_eq!(
            m.verify_file(&vfs, &dir, "torn.txt"),
            Some(VerifyIssue::LengthMismatch {
                expected: 17,
                got: 7
            })
        );
        assert!(matches!(
            m.verify_file(&vfs, &dir, "rotted.txt"),
            Some(VerifyIssue::DigestMismatch { .. })
        ));

        let issues = m.verify_all(&vfs, &dir);
        let paths: Vec<&str> = issues.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["gone.txt", "rotted.txt", "torn.txt"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_round_trip_and_missing_is_none() {
        let dir = tmp_dir("saveload");
        let vfs = Vfs::real();
        assert_eq!(Manifest::load(&vfs, &dir).unwrap(), None);
        let mut m = Manifest::new();
        m.record("a.tsv", b"a");
        m.save(&vfs, &dir).unwrap();
        assert_eq!(Manifest::load(&vfs, &dir).unwrap(), Some(m));
        let _ = fs::remove_dir_all(&dir);
    }
}
