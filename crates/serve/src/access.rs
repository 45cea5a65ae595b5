//! The structured JSONL access log.
//!
//! One self-describing JSON object per request. The log holds only the
//! lines not yet flushed; it flushes every [`FLUSH_EVERY`] lines and on
//! graceful drain. The first flush creates the file through
//! [`p2o_util::atomic::write_atomic`] (replacing any older log, with the
//! kill-points at label `access_log`); each later one appends its batch
//! through [`Vfs::append`] and fsyncs, so the chaos harness's fault plans
//! (short writes, ENOSPC, EIO) cover every flush. A failed flush keeps
//! its lines, and the next append first cuts the file back to the end of
//! the last good batch, so a torn batch is never followed by another.
//! Line ordering follows *completion* order — under concurrent load a
//! larger request id can complete (and log) before a smaller one, which
//! is why the CI shape check validates id monotonicity only over
//! sequential traffic.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use p2o_util::atomic::write_atomic;
use p2o_util::vfs::Vfs;

/// Buffered lines between automatic flushes.
pub const FLUSH_EVERY: usize = 64;

/// The kill-point / fault-injection label access-log writes carry.
pub const ACCESS_LOG_LABEL: &str = "access_log";

#[derive(Default)]
struct AccessBuf {
    /// The lines pushed since the last successful flush.
    pending: String,
    /// How many lines `pending` holds.
    lines: usize,
    /// The file's length after the last successful flush; `None` until
    /// the first flush has created it.
    flushed: Option<u64>,
}

/// A structured JSONL access log bound to one output path.
pub struct AccessLog {
    vfs: Vfs,
    path: PathBuf,
    buf: Mutex<AccessBuf>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog")
            .field("path", &self.path)
            .finish()
    }
}

impl AccessLog {
    /// A log writing to `path` through `vfs`. The file is created (or
    /// replaced) on the first flush.
    pub fn new(vfs: Vfs, path: impl Into<PathBuf>) -> AccessLog {
        AccessLog {
            vfs,
            path: path.into(),
            buf: Mutex::default(),
        }
    }

    /// The output path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one JSON line, which `line` writes straight into the
    /// pending batch (without its newline), and flushes if the batch is
    /// full. Returns a flush error, if one happened; the line itself is
    /// always retained for the next attempt.
    pub fn push(&self, line: impl FnOnce(&mut String)) -> Result<(), String> {
        let mut buf = self.buf.lock().expect("access log lock");
        line(&mut buf.pending);
        buf.pending.push('\n');
        buf.lines += 1;
        if buf.lines >= FLUSH_EVERY {
            return self.flush_locked(&mut buf);
        }
        Ok(())
    }

    /// Writes the pending lines to disk: creates the file on the first
    /// flush, appends to it after.
    pub fn flush(&self) -> Result<(), String> {
        let mut buf = self.buf.lock().expect("access log lock");
        self.flush_locked(&mut buf)
    }

    fn flush_locked(&self, buf: &mut AccessBuf) -> Result<(), String> {
        // A log removed while serving starts again with this batch.
        if buf.flushed.is_some() && !self.path.exists() {
            buf.flushed = None;
        }
        let batch = buf.pending.as_bytes();
        let written = match buf.flushed {
            Some(_) if batch.is_empty() => return Ok(()), // nothing new since the last flush
            None => write_atomic(&self.vfs, &self.path, ACCESS_LOG_LABEL, batch),
            Some(len) => self
                .vfs
                .append(&self.path, len, batch)
                .and_then(|()| self.vfs.fsync(&self.path)),
        };
        written.map_err(|e| format!("access log {}: {e}", self.path.display()))?;
        buf.flushed = Some(buf.flushed.unwrap_or(0) + batch.len() as u64);
        buf.pending.clear();
        buf.lines = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_flush_produces_parseable_jsonl() {
        let dir = std::env::temp_dir().join(format!("p2o-access-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let log = AccessLog::new(Vfs::real(), &path);
        for i in 0..3 {
            let mut o = p2o_util::Json::object();
            o.set("id", i as u64 + 1);
            o.set("endpoint", "prefix");
            log.push(|line| line.push_str(&o.to_string())).unwrap();
        }
        log.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let ids: Vec<u64> = text
            .lines()
            .map(|l| {
                p2o_util::Json::parse(l)
                    .expect("line parses")
                    .get("id")
                    .and_then(p2o_util::Json::as_u64)
                    .expect("id present")
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // A second flush with nothing pending is a no-op, not a truncate.
        log.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        // A log removed between flushes is created again.
        std::fs::remove_file(&path).unwrap();
        log.push(|line| line.push_str("{\"id\":4}")).unwrap();
        log.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"id\":4}\n");
        // No leftover tmp debris from the atomic protocol.
        let debris: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| p2o_util::atomic::is_tmp_path(&e.path()))
            .collect();
        assert!(debris.is_empty(), "{debris:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_flush_after_batch_and_crash_keeps_prefix() {
        let dir = std::env::temp_dir().join(format!("p2o-access-auto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let log = AccessLog::new(Vfs::real(), &path);
        for i in 0..FLUSH_EVERY {
            log.push(|line| line.push_str(&format!("{{\"id\":{}}}", i + 1)))
                .unwrap();
        }
        // The FLUSH_EVERY-th push flushed without an explicit flush().
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), FLUSH_EVERY);
        // An unflushed tail is absent from disk (the "crash" image is the
        // last flush), but never torn.
        log.push(|line| line.push_str("{\"id\":9999}")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), FLUSH_EVERY);
        assert!(text.lines().all(|l| p2o_util::Json::parse(l).is_ok()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each flush writes its own batch once: after ten batches the bytes
    /// written equal the file's length, not the sum of ten growing images.
    #[test]
    fn each_flush_writes_only_its_batch() {
        let dir = std::env::temp_dir().join(format!("p2o-access-flat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let vfs = Vfs::real();
        let log = AccessLog::new(vfs.clone(), &path);
        for i in 0..10 * FLUSH_EVERY {
            log.push(|line| line.push_str(&format!("{{\"id\":{}}}", i + 1)))
                .unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(vfs.stats().bytes_written, len);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap().lines().count(),
            10 * FLUSH_EVERY
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Under torn writes, every successful flush leaves the file ending on
    /// a line boundary and holding each pushed line once, in order: a
    /// failed batch is cut off before it is written again.
    #[test]
    fn torn_flushes_are_cut_back_before_the_next_append() {
        let dir = std::env::temp_dir().join(format!("p2o-access-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let vfs = Vfs::with_faults(p2o_util::vfs::FaultPlan {
            seed: 11,
            short_write_one_in: Some(3),
            ..Default::default()
        });
        let log = AccessLog::new(vfs.clone(), &path);
        let mut pushed = String::new();
        let (mut good, mut torn) = (0, 0);
        for batch in 0..40 {
            for i in 0..batch % 5 + 1 {
                let line = format!("{{\"batch\":{batch},\"line\":{i}}}");
                // A batch stays below FLUSH_EVERY: only `flush` writes.
                log.push(|pending| pending.push_str(&line)).unwrap();
                pushed.push_str(&line);
                pushed.push('\n');
            }
            match log.flush() {
                Ok(()) => {
                    good += 1;
                    assert_eq!(
                        std::fs::read_to_string(&path).unwrap(),
                        pushed,
                        "batch {batch}"
                    );
                }
                Err(e) => {
                    torn += 1;
                    assert!(e.contains("injected short write"), "{e}");
                }
            }
        }
        assert!(good > 5 && torn > 5, "{good} good, {torn} torn flushes");
        assert_eq!(vfs.stats().faults_short_write, torn);
        std::fs::remove_dir_all(&dir).ok();
    }
}
