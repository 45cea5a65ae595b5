//! Child processes: timed CLI runs with their peak resident memory, and the
//! `prefix2org serve` process under test.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::{encode_request, Conn};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    fields: [i64; 18],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts thread `tid` (0: the calling thread; a thread passes its mask
/// on to what it later spawns or execs) to the CPUs in `cpus`; an empty list
/// means every CPU. Errors are ignored: pinning only steadies the numbers,
/// it never changes an answer.
fn set_affinity(tid: i32, cpus: &[usize]) {
    let mut mask = [0u64; 16];
    if cpus.is_empty() {
        mask = [u64::MAX; 16];
    }
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live 128-byte buffer and the size passed matches
    // it; the kernel only reads it.
    unsafe {
        sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// [`set_affinity`] for the calling thread.
pub fn pin_current_thread(cpus: &[usize]) {
    set_affinity(0, cpus);
}

/// The CPU that round slot `slot` of the serve loops runs on, client and
/// server alike, when there is more than one. The closed loop never runs
/// both sides at once, so one CPU costs no parallelism and saves the
/// cross-CPU wake-up on every round trip. Slots alternate between CPUs 0
/// and 1: the two virtual CPUs of a shared host are slowed by different
/// neighbours at different times, so every run samples both, and each
/// slot is calibrated against the CPU it ran on.
pub fn serve_cpu(slot: usize) -> Option<usize> {
    (nproc() >= 2).then_some(slot % 2)
}

/// CPUs available to the benchmark, counted once before any pinning (a
/// pinned thread would count only its own CPU).
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(prefix2org::default_threads)
}

/// A finished CLI run.
pub struct Finished {
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// Peak resident memory of the process, in KiB.
    pub max_rss_kib: u64,
}

/// Reaps `child` with `wait4`, returning its exit code (`None` when killed
/// by a signal) and peak RSS.
fn reap(child: Child) -> Result<(Option<i32>, u64), String> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = RUsage { fields: [0; 18] };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and sized as the
        // kernel's `int` and `struct rusage`; `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    // The process is reaped; `Child` has no destructor that waits or kills.
    drop(child);
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, usage.fields[4].max(0) as u64))
}

/// Runs `bin args...` to completion with stdout and stderr sent to
/// `log`, timing it and taking its peak RSS. A non-zero exit is an error
/// quoting the log's tail.
pub fn run_cli(bin: &Path, args: &[&str], log: &Path) -> Result<Finished, String> {
    let out = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
    let err = out
        .try_clone()
        .map_err(|e| format!("cloning log handle: {e}"))?;
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let (code, max_rss_kib) = reap(child)?;
    let wall = started.elapsed();
    if code != Some(0) {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        let tail: Vec<&str> = text.lines().rev().take(5).collect();
        return Err(format!(
            "{} {} exited with {code:?}: {}",
            bin.display(),
            args.join(" "),
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    Ok(Finished { wall, max_rss_kib })
}

/// A running `prefix2org serve`.
pub struct Server {
    child: Option<Child>,
    /// `host:port` it listens on.
    pub addr: String,
    /// Spawn to first `/health` 200.
    pub boot: Duration,
    /// Responses the benchmark has received from this server so far.
    pub responses: u64,
}

impl Server {
    /// Spawns `bin serve dir` on an ephemeral port and waits until
    /// `/health` answers 200.
    pub fn start(bin: &Path, dir: &Path, log: &Path, cpu: Option<usize>) -> Result<Server, String> {
        let err = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err);
        if let Some(cpu) = cpu {
            // SAFETY: the hook runs in the forked child before exec and
            // only makes the async-signal-safe sched_setaffinity call.
            unsafe {
                cmd.pre_exec(move || {
                    pin_current_thread(&[cpu]);
                    Ok(())
                });
            }
        }
        let started = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawning serve: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            boot: Duration::ZERO,
            responses: 0,
        };
        let mut line = String::new();
        let mut reader = BufReader::new(stdout);
        loop {
            line.clear();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("reading serve stdout: {e}"))?;
            if n == 0 {
                let text = std::fs::read_to_string(log).unwrap_or_default();
                return Err(format!("serve exited before listening: {}", text.trim()));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.to_string();
                break;
            }
        }
        // The server never writes to stdout again; dropping the reader
        // closes our end of the pipe.
        drop(reader);
        let health = encode_request("GET", "/health", b"");
        loop {
            if let Ok(mut conn) = Conn::connect(&server.addr) {
                if let Ok((200, _)) = conn.roundtrip(&health) {
                    server.responses += 1;
                    break;
                }
            }
            if started.elapsed() > Duration::from_secs(60) {
                return Err("serve did not answer /health within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.boot = started.elapsed();
        Ok(server)
    }

    /// Moves every thread of the server to `cpu`.
    pub fn pin(&self, cpu: usize) {
        let pid = self.child.as_ref().expect("server is running").id();
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
            for tid in tasks
                .flatten()
                .filter_map(|t| t.file_name().to_str()?.parse().ok())
            {
                set_affinity(tid, &[cpu]);
            }
        }
    }

    /// The server's resident memory in KiB, from `/proc`.
    pub fn rss_kib(&self) -> Result<u64, String> {
        let pid = self.child.as_ref().expect("server is running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmRSS line".to_string())
    }

    /// Kills the server and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
