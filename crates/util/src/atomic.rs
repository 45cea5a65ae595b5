//! Atomic, torn-write-detectable artifact writes.
//!
//! The protocol is the classic tmp + fsync + rename dance, driven through a
//! [`Vfs`] so faults and kill-points can be injected at every step:
//!
//! 1. (kill-point `label@partial`) — simulates dying *before* any bytes of
//!    the new artifact land; the destination keeps its old content (or stays
//!    absent);
//! 2. stream the payload into `<path>.p2o-tmp` through a [`VfsFile`],
//!    hashing it on the way (short writes / ENOSPC / EIO, applied to the
//!    finished length, tear the tmp file, never the destination);
//! 3. (kill-point `label@tmp`) — simulates dying after the tmp write but
//!    before the rename; the destination is untouched, a stray tmp file is
//!    left for `fsck` to find;
//! 4. fsync the tmp file, rename it over the destination, fsync the parent
//!    directory (best-effort);
//! 5. (kill-point `label@final`) — simulates dying right after the rename;
//!    the destination is complete, and resume must *detect* that and skip.
//!
//! Because every artifact is replaced by rename, readers never observe a
//! half-written destination from this protocol alone. Torn-write *detection*
//! for files that were corrupted out-of-band (or whose write was injected
//! to fail) comes from two layers, one per file: the digests `generate`
//! records in `MANIFEST.tsv` (see [`manifest`](crate::manifest)), and —
//! for the checkpoint stamp and `world.p2ob` that `build` writes — the
//! checksummed frame format in this module ([`write_framed`] /
//! [`read_framed`]): a 24-byte header carrying magic, version, payload
//! length and FNV-1a digest, so a reader can tell *exactly* how a file is
//! damaged ([`FrameError`]).

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::digest::{fnv1a_64, fnv1a_64_update, FNV1A_INIT};
use crate::manifest::ManifestEntry;
use crate::vfs::{Vfs, VfsFile};

/// Suffix appended to a destination path to form its tmp sibling. Chosen so
/// the tmp file changes *extension* — directory scans that filter on `.txt`
/// or `.jsonl` will never pick up a stray tmp as data.
pub const TMP_SUFFIX: &str = ".p2o-tmp";

/// Magic bytes opening every framed artifact.
pub const FRAME_MAGIC: [u8; 4] = *b"P2OF";

/// Current frame format version.
pub const FRAME_VERSION: u16 = 1;

/// Frame header length: magic(4) + version(2) + reserved(2) + len(8) + digest(8).
pub const FRAME_HEADER_LEN: usize = 24;

/// The tmp sibling for `path` (e.g. `meta.tsv` → `meta.tsv.p2o-tmp`).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// Whether `path` is a leftover tmp file from an interrupted atomic write.
pub fn is_tmp_path(path: &Path) -> bool {
    path.to_string_lossy().ends_with(TMP_SUFFIX)
}

/// Writes `bytes` to `path` atomically: tmp sibling + fsync + rename +
/// parent-dir sync, with `label`-named kill-points armed at each phase.
/// On success the destination holds exactly `bytes`; on failure (injected
/// or real) the destination is untouched and at worst a tmp sibling is
/// left behind for `fsck` to report.
pub fn write_atomic(vfs: &Vfs, path: &Path, label: &str, bytes: &[u8]) -> io::Result<()> {
    write_atomic_parts(vfs, path, label, &[bytes]).map(drop)
}

/// [`write_atomic`] of the concatenated `parts`, written one after another
/// without joining them; returns their identity.
pub fn write_atomic_parts(
    vfs: &Vfs,
    path: &Path,
    label: &str,
    parts: &[&[u8]],
) -> io::Result<ManifestEntry> {
    write_atomic_with(vfs, path, label, |out| {
        parts.iter().try_for_each(|part| out.write_all(part))
    })
}

/// The one atomic writer: [`write_atomic`] of the bytes `write` streams
/// into the tmp sibling, so the caller need not hold them whole. They are
/// hashed as they pass, and the identity of what was written (length and
/// FNV-1a digest) is returned. The [`Vfs`] fault plan applies to the finished
/// length, so every kill-point, fault op and torn length is where a
/// [`write_atomic`] of the same bytes puts it. When `write` fails, its
/// error is returned and the partial tmp sibling is left for `fsck`.
pub fn write_atomic_with(
    vfs: &Vfs,
    path: &Path,
    label: &str,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<ManifestEntry> {
    vfs.kill_check(label, "partial");
    let tmp = tmp_path(path);
    let mut out = Hashed {
        file: vfs.create(&tmp)?,
        digest: FNV1A_INIT,
    };
    write(&mut out)?;
    let digest = out.digest;
    let bytes = out.file.finish()?;
    vfs.kill_check(label, "tmp");
    vfs.fsync(&tmp)?;
    vfs.rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        vfs.fsync_dir(dir);
    }
    vfs.kill_check(label, "final");
    Ok(ManifestEntry { bytes, digest })
}

/// A tmp file that hashes the bytes written into it.
struct Hashed {
    file: VfsFile,
    digest: u64,
}

impl Write for Hashed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.digest = fnv1a_64_update(self.digest, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// How a framed read failed — each variant names a distinct damage mode so
/// callers (resume, `fsck`) can report precisely what they found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The file could not be read at all.
    Io(String),
    /// Shorter than the frame header: torn during the header write.
    TruncatedHeader {
        /// Bytes actually present.
        got: usize,
    },
    /// The magic bytes do not open the file: not a framed artifact.
    BadMagic {
        /// The first bytes found instead.
        found: [u8; 4],
    },
    /// The frame version is newer than this binary understands.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The payload is shorter than the header promised: torn mid-payload.
    TruncatedPayload {
        /// Length the header declared.
        expected: u64,
        /// Bytes actually present after the header.
        got: u64,
    },
    /// More bytes follow the header than it declared: an append or a
    /// partial overwrite past the end of the payload.
    TrailingBytes {
        /// Length the header declared.
        expected: u64,
        /// Bytes actually present after the header.
        got: u64,
    },
    /// Payload length matches but the digest does not: bit-rot or a
    /// partially overwritten file.
    DigestMismatch {
        /// Digest the header declared.
        expected: u64,
        /// Digest of the payload as read.
        got: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "read failed: {e}"),
            FrameError::TruncatedHeader { got } => {
                write!(f, "torn header: {got} of {FRAME_HEADER_LEN} header bytes")
            }
            FrameError::BadMagic { found } => {
                write!(
                    f,
                    "bad magic {:02X?} (expected {:02X?})",
                    found, FRAME_MAGIC
                )
            }
            FrameError::UnsupportedVersion { found } => {
                write!(f, "unsupported frame version {found} (max {FRAME_VERSION})")
            }
            FrameError::TruncatedPayload { expected, got } => {
                write!(f, "torn payload: {got} of {expected} bytes")
            }
            FrameError::TrailingBytes { expected, got } => {
                write!(
                    f,
                    "trailing bytes: {got} payload bytes, {expected} declared"
                )
            }
            FrameError::DigestMismatch { expected, got } => write!(
                f,
                "digest mismatch: header says {expected:016X}, payload is {got:016X}"
            ),
        }
    }
}

/// The checksummed frame header for `payload`: the bytes [`frame`] puts
/// in front of it.
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[0..4].copy_from_slice(&FRAME_MAGIC);
    header[4..6].copy_from_slice(&FRAME_VERSION.to_le_bytes());
    // Bytes 6..8 are reserved and stay zero.
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&fnv1a_64(payload).to_le_bytes());
    header
}

/// Wraps `payload` in a checksummed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    [&frame_header(payload)[..], payload].concat()
}

/// Parses a framed byte string back into its payload, detecting every
/// damage mode as a distinct [`FrameError`].
pub fn unframe(bytes: &[u8]) -> Result<Vec<u8>, FrameError> {
    strip_frame(bytes.to_vec())
}

/// Checks that `bytes` is exactly one intact frame (the header, then a
/// payload of the declared length and digest, and nothing after it) and
/// strips the header in place.
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

/// Atomically writes `payload` wrapped in a checksummed frame. The header
/// is written in front of the payload without copying it.
pub fn write_framed(vfs: &Vfs, path: &Path, label: &str, payload: &[u8]) -> io::Result<()> {
    write_atomic_parts(vfs, path, label, &[&frame_header(payload), payload]).map(drop)
}

/// Reads a framed artifact, verifying magic, version, length, and digest;
/// the header is stripped in place, so the payload is never copied.
pub fn read_framed(vfs: &Vfs, path: &Path) -> Result<Vec<u8>, FrameError> {
    strip_frame(vfs.read(path).map_err(|e| FrameError::Io(e.to_string()))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultPlan;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p2o-atomic-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tmp_path_changes_extension() {
        let t = tmp_path(Path::new("/d/arin.txt"));
        assert_eq!(t, PathBuf::from("/d/arin.txt.p2o-tmp"));
        assert!(is_tmp_path(&t));
        assert!(!is_tmp_path(Path::new("/d/arin.txt")));
        assert_eq!(t.extension().unwrap(), "p2o-tmp");
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_tmp() {
        let dir = tmp_dir("ok");
        let vfs = Vfs::real();
        let path = dir.join("data.tsv");
        write_atomic(&vfs, &path, "test", b"a\tb\n").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"a\tb\n");
        assert!(!tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_destination_untouched() {
        let dir = tmp_dir("fail");
        let path = dir.join("data.tsv");
        fs::write(&path, b"old content").unwrap();
        let vfs = Vfs::with_faults(FaultPlan {
            eio_substring: Some("data.tsv".to_string()),
            ..FaultPlan::default()
        });
        let err = write_atomic(&vfs, &path, "test", b"new content").unwrap_err();
        assert!(err.to_string().contains("EIO"), "{err}");
        // The destination still holds the old bytes; only the tmp is torn.
        assert_eq!(fs::read(&path).unwrap(), b"old content");
        assert!(tmp_path(&path).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Under each fault plan, a streamed write leaves the tmp sibling at
    /// the length, and fails with the error, that a `write_atomic` of the
    /// same bytes gets; a clean one returns the bytes' identity.
    #[test]
    fn a_streamed_write_fails_like_write_atomic_of_its_bytes() {
        let dir = tmp_dir("streamed");
        let lines: Vec<String> = (0..500).map(|i| format!("{{\"line\":{i}}}\n")).collect();
        let whole = lines.concat();
        for plan in [
            FaultPlan::default(),
            FaultPlan {
                seed: 5,
                short_write_one_in: Some(1),
                ..FaultPlan::default()
            },
            FaultPlan {
                enospc_after: Some(1000),
                ..FaultPlan::default()
            },
            FaultPlan {
                eio_substring: Some("export".to_string()),
                ..FaultPlan::default()
            },
        ] {
            let (streamed, whole_path) = (dir.join("export-a.jsonl"), dir.join("export-b.jsonl"));
            let a = Vfs::with_faults(plan.clone());
            let b = Vfs::with_faults(plan.clone());
            let got = write_atomic_with(&a, &streamed, "export", |out| {
                lines
                    .iter()
                    .try_for_each(|line| out.write_all(line.as_bytes()))
            });
            let want = write_atomic(&b, &whole_path, "export", whole.as_bytes());
            match (&got, &want) {
                (Ok(entry), Ok(())) => {
                    assert_eq!(*entry, ManifestEntry::of_parts(&[whole.as_bytes()]));
                    assert_eq!(fs::read(&streamed).unwrap(), whole.as_bytes());
                }
                (Err(got), Err(want)) => {
                    assert_eq!(
                        got.to_string().replace("export-a", "export-b"),
                        want.to_string(),
                        "{plan:?}"
                    );
                    let torn = |path: &Path| fs::read(tmp_path(path)).unwrap();
                    assert_eq!(torn(&streamed), torn(&whole_path), "{plan:?}");
                    assert!(torn(&streamed).len() < whole.len(), "{plan:?}");
                }
                _ => panic!("{plan:?}: streamed {got:?}, whole {want:?}"),
            }
            assert_eq!(a.stats(), b.stats(), "{plan:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_round_trip() {
        let payload = b"the quick brown fox";
        let framed = frame(payload);
        assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());
        assert_eq!(framed[..FRAME_HEADER_LEN], frame_header(payload));
        assert_eq!(unframe(&framed).unwrap(), payload);
        // Empty payload is legal.
        assert_eq!(unframe(&frame(b"")).unwrap(), b"");
    }

    #[test]
    fn every_damage_mode_is_distinguished() {
        let framed = frame(b"payload-bytes");

        // Torn during the header.
        assert_eq!(
            unframe(&framed[..10]),
            Err(FrameError::TruncatedHeader { got: 10 })
        );

        // Not a framed file at all.
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert!(matches!(unframe(&bad), Err(FrameError::BadMagic { .. })));

        // A future version.
        let mut future = framed.clone();
        future[4] = 0xFF;
        future[5] = 0xFF;
        assert_eq!(
            unframe(&future),
            Err(FrameError::UnsupportedVersion { found: 0xFFFF })
        );

        // Torn mid-payload.
        let torn = &framed[..framed.len() - 4];
        assert!(matches!(
            unframe(torn),
            Err(FrameError::TruncatedPayload {
                expected: 13,
                got: 9
            })
        ));

        // Full length, flipped bit.
        let mut rot = framed.clone();
        let last = rot.len() - 1;
        rot[last] ^= 0x01;
        assert!(matches!(
            unframe(&rot),
            Err(FrameError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn bytes_past_the_declared_payload_are_damage() {
        let framed = frame(b"payload-bytes");
        let long = [&framed[..], b"tail"].concat();
        assert_eq!(
            unframe(&long),
            Err(FrameError::TrailingBytes {
                expected: 13,
                got: 17
            })
        );

        let dir = tmp_dir("trailing");
        let path = dir.join("world.p2ob");
        fs::write(&path, &long).unwrap();
        let err = read_framed(&Vfs::real(), &path).unwrap_err();
        assert_eq!(
            err.to_string(),
            "trailing bytes: 17 payload bytes, 13 declared"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn framed_file_round_trip_and_torn_detection_on_disk() {
        let dir = tmp_dir("framed");
        let vfs = Vfs::real();
        let path = dir.join("stamp.ckpt");
        write_framed(&vfs, &path, "ckpt", b"stage\tdigest\n").unwrap();
        assert_eq!(read_framed(&vfs, &path).unwrap(), b"stage\tdigest\n");

        // Tear the file on disk; the read must say "torn payload".
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            read_framed(&vfs, &path),
            Err(FrameError::TruncatedPayload { .. })
        ));

        // A missing file is an Io error, not a panic.
        assert!(matches!(
            read_framed(&vfs, &dir.join("absent.ckpt")),
            Err(FrameError::Io(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
