//! Injectable filesystem backend with deterministic fault injection.
//!
//! Every artifact writer in the workspace goes through a [`Vfs`] handle
//! instead of bare `std::fs`, which gives the repo exactly one seam where
//! process- and environment-level failures can be simulated:
//!
//! - **short writes** — a seeded, deterministic schedule tears selected
//!   writes after a prefix of the bytes, the way an interrupted `write(2)`
//!   or a crashing filesystem would;
//! - **ENOSPC after N bytes** — a byte budget across the whole handle,
//!   modelling a disk that fills mid-run;
//! - **EIO on matching paths** — unconditional I/O errors for paths whose
//!   name contains a substring;
//! - **named kill-points** — `label@phase` markers consulted by
//!   [`atomic`](crate::atomic) writes; when armed (via the
//!   [`P2O_VFS_FAULT`](ENV_FAULT) environment variable) the process exits
//!   mid-protocol with [`KILL_EXIT_CODE`], simulating a `kill -9` at the
//!   worst possible instant.
//!
//! Production code uses [`Vfs::real`]; the chaos harness and CI arm faults
//! through the environment so subprocess `build` runs can be killed and
//! resumed without any test-only CLI flags. All fault decisions are pure
//! functions of the plan (seed, budgets, op index), so a failing run
//! replays identically.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Exit code used when a kill-point fires (distinctive, so tests can tell
/// an injected kill from a genuine failure).
pub const KILL_EXIT_CODE: i32 = 86;

/// Environment variable holding a [`FaultPlan`] spec; see
/// [`FaultPlan::parse`]. Absent or empty means no faults.
pub const ENV_FAULT: &str = "P2O_VFS_FAULT";

/// A deterministic fault-injection plan.
///
/// Parsed from a `;`-separated spec (see [`parse`](FaultPlan::parse)):
///
/// ```text
/// short:<seed>:<k>   every write where splitmix64(seed ^ op) % k == 0 tears
/// enospc:<bytes>     writes fail once <bytes> total bytes have been written
/// eio:<substring>    writes to paths containing <substring> fail mid-write
/// kill:<label>@<phase>   the named atomic-write kill-point exits the process
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the short-write schedule.
    pub seed: u64,
    /// Tear roughly one in `k` writes (deterministically); `None` = never.
    pub short_write_one_in: Option<u64>,
    /// Total byte budget before writes fail with a no-space error.
    pub enospc_after: Option<u64>,
    /// Paths containing this substring fail with an I/O error mid-write.
    pub eio_substring: Option<String>,
    /// Armed kill-point, as `label@phase`.
    pub kill_point: Option<String>,
}

impl FaultPlan {
    /// Parses the `;`-separated fault spec documented on the type.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            let (kind, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault spec {part:?}: expected kind:args"))?;
            match kind {
                "short" => {
                    let (seed, k) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("short fault {rest:?}: expected seed:k"))?;
                    plan.seed = seed
                        .parse()
                        .map_err(|_| format!("short fault: bad seed {seed:?}"))?;
                    let k: u64 = k.parse().map_err(|_| format!("short fault: bad k {k:?}"))?;
                    if k == 0 {
                        return Err("short fault: k must be >= 1".to_string());
                    }
                    plan.short_write_one_in = Some(k);
                }
                "enospc" => {
                    plan.enospc_after = Some(
                        rest.parse()
                            .map_err(|_| format!("enospc fault: bad byte count {rest:?}"))?,
                    );
                }
                "eio" => plan.eio_substring = Some(rest.to_string()),
                "kill" => {
                    if !rest.contains('@') {
                        return Err(format!("kill point {rest:?}: expected label@phase"));
                    }
                    plan.kill_point = Some(rest.to_string());
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(plan)
    }

    fn is_empty(&self) -> bool {
        self.short_write_one_in.is_none()
            && self.enospc_after.is_none()
            && self.eio_substring.is_none()
            && self.kill_point.is_none()
    }
}

/// Snapshot of a handle's I/O and fault statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VfsStats {
    /// Completed (untorn) writes.
    pub writes: u64,
    /// Bytes successfully written (including torn prefixes).
    pub bytes_written: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Renames performed.
    pub renames: u64,
    /// Injected short writes.
    pub faults_short_write: u64,
    /// Injected no-space failures.
    pub faults_enospc: u64,
    /// Injected I/O errors.
    pub faults_eio: u64,
}

impl VfsStats {
    /// Total injected faults of any kind.
    pub fn faults_injected(&self) -> u64 {
        self.faults_short_write + self.faults_enospc + self.faults_eio
    }
}

#[derive(Default)]
struct Cells {
    writes: AtomicU64,
    bytes_written: AtomicU64,
    fsyncs: AtomicU64,
    renames: AtomicU64,
    faults_short_write: AtomicU64,
    faults_enospc: AtomicU64,
    faults_eio: AtomicU64,
    op: AtomicU64,
    budget_used: AtomicU64,
}

struct VfsInner {
    fault: Option<FaultPlan>,
    cells: Cells,
}

/// The injectable filesystem handle. Cloning is cheap; clones share the
/// fault budgets, op counter, and statistics.
#[derive(Clone)]
pub struct Vfs {
    inner: Arc<VfsInner>,
}

impl fmt::Debug for Vfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vfs")
            .field("fault", &self.inner.fault)
            .finish()
    }
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::real()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Vfs {
    /// The production backend: plain `std::fs`, no faults.
    pub fn real() -> Vfs {
        Vfs {
            inner: Arc::new(VfsInner {
                fault: None,
                cells: Cells::default(),
            }),
        }
    }

    /// A backend with the given fault plan armed.
    pub fn with_faults(plan: FaultPlan) -> Vfs {
        let fault = if plan.is_empty() { None } else { Some(plan) };
        Vfs {
            inner: Arc::new(VfsInner {
                fault,
                cells: Cells::default(),
            }),
        }
    }

    /// Builds a handle from the [`ENV_FAULT`] environment variable: the
    /// production backend when unset, the parsed fault plan otherwise.
    pub fn from_env() -> Result<Vfs, String> {
        match std::env::var(ENV_FAULT) {
            Err(_) => Ok(Vfs::real()),
            Ok(spec) if spec.trim().is_empty() => Ok(Vfs::real()),
            Ok(spec) => Ok(Vfs::with_faults(FaultPlan::parse(&spec)?)),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> VfsStats {
        let c = &self.inner.cells;
        VfsStats {
            writes: c.writes.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            renames: c.renames.load(Ordering::Relaxed),
            faults_short_write: c.faults_short_write.load(Ordering::Relaxed),
            faults_enospc: c.faults_enospc.load(Ordering::Relaxed),
            faults_eio: c.faults_eio.load(Ordering::Relaxed),
        }
    }

    /// Writes `bytes` to `path`, applying any armed faults. A torn write
    /// leaves a prefix of the bytes on disk and returns an error, exactly
    /// like an interrupted write or a filling disk would.
    pub fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = self.create(path)?;
        file.write_all(bytes)?;
        file.finish().map(drop)
    }

    /// Writes `bytes` into the existing file `path` at offset `at`, after
    /// cutting off whatever lay past `at`: an append after the last good
    /// write that drops a torn one. The fault plan applies as it does to
    /// [`write`](Self::write): a torn append leaves a prefix of `bytes`
    /// past `at`, and only the bytes it wrote count as written.
    pub fn append(&self, path: &Path, at: u64, bytes: &[u8]) -> io::Result<()> {
        let file = fs::OpenOptions::new().append(true).open(path)?;
        file.set_len(at)?;
        let mut file = self.file_at(path, file, at);
        file.write_all(bytes)?;
        file.finish().map(drop)
    }

    /// Creates (or truncates) `path` for a write in pieces: see
    /// [`VfsFile`]. The write takes its fault-plan op now, as
    /// [`write`](Self::write) does.
    pub fn create(&self, path: &Path) -> io::Result<VfsFile> {
        Ok(self.file_at(path, fs::File::create(path)?, 0))
    }

    /// A write into `file` from offset `at`, taking its fault-plan op.
    fn file_at(&self, path: &Path, file: fs::File, at: u64) -> VfsFile {
        let op = match &self.inner.fault {
            Some(_) => self.inner.cells.op.fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        VfsFile {
            file: io::BufWriter::with_capacity(WRITE_BUFFER, file),
            vfs: self.clone(),
            path: path.to_path_buf(),
            op,
            at,
            len: 0,
        }
    }

    /// The torn length and error the fault plan gives write `op` of `total`
    /// bytes to `path`, counting the fault; `None` lets the write stand.
    fn tear(&self, path: &Path, op: u64, total: u64) -> Option<(u64, io::Error)> {
        let plan = self.inner.fault.as_ref()?;
        let c = &self.inner.cells;
        if let Some(sub) = &plan.eio_substring {
            if path.to_string_lossy().contains(sub.as_str()) {
                c.faults_eio.fetch_add(1, Ordering::Relaxed);
                let error = format!("injected EIO writing {} (op {op})", path.display());
                return Some((total / 2, io::Error::other(error)));
            }
        }
        if let Some(budget) = plan.enospc_after {
            let before = c.budget_used.fetch_add(total, Ordering::Relaxed);
            if before.saturating_add(total) > budget {
                let room = budget.saturating_sub(before).min(total);
                c.faults_enospc.fetch_add(1, Ordering::Relaxed);
                let error = format!(
                    "injected ENOSPC writing {} ({room} of {total} bytes fit, op {op})",
                    path.display()
                );
                return Some((room, io::Error::other(error)));
            }
        }
        if let Some(k) = plan.short_write_one_in {
            let h = splitmix64(plan.seed ^ op);
            if h.is_multiple_of(k) && total > 0 {
                // Deterministic torn length: at least 1 byte short.
                let keep = (h >> 8) % total;
                c.faults_short_write.fetch_add(1, Ordering::Relaxed);
                let error = format!(
                    "injected short write to {} ({keep} of {total} bytes, op {op})",
                    path.display()
                );
                return Some((keep, io::Error::other(error)));
            }
        }
        None
    }

    /// Reads a file's bytes.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    /// Opens a file to read it in pieces.
    pub fn open(&self, path: &Path) -> io::Result<fs::File> {
        fs::File::open(path)
    }

    /// Removes a file (`fsck --gc`).
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    /// Removes an empty directory; a missing directory is not an error.
    pub fn remove_dir(&self, path: &Path) -> io::Result<()> {
        match fs::remove_dir(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    /// Reads a file as UTF-8 text.
    pub fn read_to_string(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    /// Creates a directory and its parents.
    pub fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    /// Renames `from` to `to` (atomic within a filesystem).
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)?;
        self.inner.cells.renames.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Forces a file's contents to stable storage.
    pub fn fsync(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()?;
        self.inner.cells.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Best-effort directory sync after a rename (some platforms refuse
    /// `sync_all` on directories; losing only the rename on power loss is
    /// the acceptable failure mode, so errors are swallowed).
    pub fn fsync_dir(&self, dir: &Path) {
        if let Ok(d) = fs::File::open(dir) {
            if d.sync_all().is_ok() {
                self.inner.cells.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Whether the kill-point `label@phase` is armed on this handle.
    pub fn kill_armed(&self, label: &str, phase: &str) -> bool {
        self.inner
            .fault
            .as_ref()
            .and_then(|p| p.kill_point.as_deref())
            .is_some_and(|kp| {
                kp.split_once('@')
                    .is_some_and(|(l, p)| l == label && p == phase)
            })
    }

    /// Exits the process immediately (simulated `kill -9`) when the
    /// kill-point `label@phase` is armed; otherwise a no-op.
    pub fn kill_check(&self, label: &str, phase: &str) {
        if self.kill_armed(label, phase) {
            eprintln!("vfs: kill-point {label}@{phase} fired; exiting {KILL_EXIT_CODE}");
            std::process::exit(KILL_EXIT_CODE);
        }
    }
}

/// Buffer size of a [`VfsFile`]; larger writes go straight to the file.
const WRITE_BUFFER: usize = 64 * 1024;

/// A file written through a [`Vfs`] in pieces, so no caller has to hold
/// its bytes whole. They reach the disk as they come, and
/// [`finish`](Self::finish) applies the handle's fault plan to the finished
/// length: a streamed write tears at the length, with the error, that one
/// [`Vfs::write`] of the same bytes gets.
pub struct VfsFile {
    file: io::BufWriter<fs::File>,
    vfs: Vfs,
    path: std::path::PathBuf,
    op: u64,
    /// The offset the write started at: 0, or where an append began.
    at: u64,
    len: u64,
}

impl Write for VfsFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl VfsFile {
    /// Ends the write and returns its length. A write the fault plan tears
    /// is cut back to the prefix the plan keeps, and its error returned.
    pub fn finish(self) -> io::Result<u64> {
        let file = self
            .file
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        let c = &self.vfs.inner.cells;
        let (written, torn) = match self.vfs.tear(&self.path, self.op, self.len) {
            Some((keep, error)) => {
                let _ = file.set_len(self.at + keep);
                (keep, Some(error))
            }
            None => (self.len, None),
        };
        c.bytes_written.fetch_add(written, Ordering::Relaxed);
        match torn {
            Some(error) => Err(error),
            None => {
                c.writes.fetch_add(1, Ordering::Relaxed);
                Ok(written)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p2o-vfs-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("short:7:3;enospc:1024;eio:rib;kill:export@tmp").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.short_write_one_in, Some(3));
        assert_eq!(plan.enospc_after, Some(1024));
        assert_eq!(plan.eio_substring.as_deref(), Some("rib"));
        assert_eq!(plan.kill_point.as_deref(), Some("export@tmp"));
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("bogus:1").is_err());
        assert!(FaultPlan::parse("short:1:0").is_err());
        assert!(FaultPlan::parse("kill:nophase").is_err());
    }

    #[test]
    fn real_backend_round_trips() {
        let dir = tmp("real");
        let vfs = Vfs::real();
        let path = dir.join("a.txt");
        vfs.write(&path, b"hello").unwrap();
        vfs.fsync(&path).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        let dest = dir.join("b.txt");
        vfs.rename(&path, &dest).unwrap();
        assert_eq!(vfs.read_to_string(&dest).unwrap(), "hello");
        let s = vfs.stats();
        assert_eq!((s.writes, s.renames, s.fsyncs), (1, 1, 1));
        assert_eq!(s.bytes_written, 5);
        assert_eq!(s.faults_injected(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_tears_the_overflowing_write() {
        let dir = tmp("enospc");
        let vfs = Vfs::with_faults(FaultPlan {
            enospc_after: Some(10),
            ..FaultPlan::default()
        });
        vfs.write(&dir.join("a"), b"12345678").unwrap();
        let err = vfs.write(&dir.join("b"), b"12345678").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        // The torn file holds exactly the bytes that fit in the budget.
        assert_eq!(fs::read(dir.join("b")).unwrap(), b"12");
        assert_eq!(vfs.stats().faults_enospc, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eio_matches_by_substring_and_leaves_a_torn_file() {
        let dir = tmp("eio");
        let vfs = Vfs::with_faults(FaultPlan {
            eio_substring: Some("rib".to_string()),
            ..FaultPlan::default()
        });
        vfs.write(&dir.join("meta.tsv"), b"ok").unwrap();
        let err = vfs.write(&dir.join("rib.mrt"), b"0123456789").unwrap_err();
        assert!(err.to_string().contains("EIO"), "{err}");
        assert_eq!(fs::read(dir.join("rib.mrt")).unwrap().len(), 5);
        assert_eq!(vfs.stats().faults_eio, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_streamed_write_tears_like_one_write_of_its_bytes() {
        let dir = tmp("stream");
        let pieces: [&[u8]; 3] = [b"head", b"", b"payload-bytes"];
        let whole = pieces.concat();
        for plan in [
            FaultPlan::default(),
            FaultPlan {
                seed: 9,
                short_write_one_in: Some(1),
                ..FaultPlan::default()
            },
            FaultPlan {
                enospc_after: Some(6),
                ..FaultPlan::default()
            },
            FaultPlan {
                eio_substring: Some("out".to_string()),
                ..FaultPlan::default()
            },
        ] {
            let (streamed, joined) = (dir.join("out-streamed"), dir.join("out-joined"));
            let a = Vfs::with_faults(plan.clone());
            let b = Vfs::with_faults(plan.clone());
            let res_a = a
                .create(&streamed)
                .and_then(|mut file| {
                    for piece in pieces {
                        file.write_all(piece)?;
                    }
                    file.finish()
                })
                .map_err(|e| e.to_string().replace("out-streamed", "out-joined"));
            let res_b = b.write(&joined, &whole).map_err(|e| e.to_string());
            assert_eq!(res_a.as_ref().err(), res_b.as_ref().err(), "{plan:?}");
            assert_eq!(
                fs::read(&streamed).unwrap(),
                fs::read(&joined).unwrap(),
                "{plan:?}"
            );
            assert_eq!(a.stats(), b.stats(), "{plan:?}");
        }
        assert_eq!(
            fs::read(dir.join("out-streamed")).unwrap().len(),
            whole.len() / 2
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_append_cuts_back_to_its_offset_and_tears_like_a_write() {
        let dir = tmp("append");
        let path = dir.join("log");
        let vfs = Vfs::real();
        vfs.write(&path, b"line 1\ntorn li").unwrap();
        vfs.append(&path, 7, b"line 2\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"line 1\nline 2\n");
        assert_eq!(vfs.stats().bytes_written, 14 + 7);
        assert!(vfs.append(&dir.join("missing"), 0, b"x").is_err());
        // Every op tears: the append keeps a prefix of its bytes past the
        // offset, with the error one write of the same bytes gets.
        let plan = FaultPlan {
            seed: 3,
            short_write_one_in: Some(1),
            ..FaultPlan::default()
        };
        let (a, b) = (Vfs::with_faults(plan.clone()), Vfs::with_faults(plan));
        let err = a.append(&path, 7, b"line 3\n").unwrap_err().to_string();
        let other = dir.join("other");
        let want = b.write(&other, b"line 3\n").unwrap_err().to_string();
        let err = err.replace(&*path.to_string_lossy(), &other.to_string_lossy());
        assert_eq!(err, want);
        assert_eq!(a.stats(), b.stats());
        let kept = a.stats().bytes_written as usize;
        assert_eq!(
            fs::read(&path).unwrap(),
            [&b"line 1\n"[..], &b"line 3\n"[..kept]].concat()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_writes_are_deterministic_per_seed() {
        let dir = tmp("short");
        let run = |seed: u64| -> Vec<bool> {
            let vfs = Vfs::with_faults(FaultPlan {
                seed,
                short_write_one_in: Some(2),
                ..FaultPlan::default()
            });
            (0..16)
                .map(|i| {
                    vfs.write(&dir.join(format!("f{i}")), b"payload-bytes")
                        .is_err()
                })
                .collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must inject the same schedule");
        assert_ne!(a, c, "different seeds must differ");
        assert!(a.iter().any(|&torn| torn), "one-in-2 must tear something");
        assert!(a.iter().any(|&torn| !torn), "one-in-2 must pass something");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_point_arming_matches_exactly() {
        let vfs = Vfs::with_faults(FaultPlan {
            kill_point: Some("export@tmp".to_string()),
            ..FaultPlan::default()
        });
        assert!(vfs.kill_armed("export", "tmp"));
        assert!(!vfs.kill_armed("export", "partial"));
        assert!(!vfs.kill_armed("report", "tmp"));
        assert!(!Vfs::real().kill_armed("export", "tmp"));
        // kill_check on an unarmed point must be a no-op (we're still alive
        // to assert it).
        Vfs::real().kill_check("export", "tmp");
    }
}
