//! Host-speed calibration.
//!
//! The benchmark runs on a few virtual CPUs of a shared host. Other tenants
//! slow a CPU by up to 2x, in stretches of seconds to minutes, and slow the
//! CPUs at different times. A fixed piece of the benchmark's own work, the
//! probe, is timed on the CPUs right before and right after each measured
//! stretch of requests and each build. The probe's time over its time on
//! the reference machine ([`REP_REF_S`] per repetition) is that stretch's
//! slowness, and the stretch's times are divided by it. They then read as
//! they would on the reference machine with quiet neighbours, so runs made
//! in busy and quiet hours compare. The raw values are printed next to
//! them.
//!
//! Builds run for seconds, so their slowness is also read every
//! [`SAMPLE_PERIOD`] while they run, with a short probe. A thread that
//! wakes from sleep gets a full scheduler time slice even on a busy CPU, so
//! a probe shorter than the slice does not feel the build: on the reference
//! machine a 0.65 ms CPU-bound loop, woken every 250 ms, read the same with
//! a CPU-bound process on its own CPU, on the other CPU, on both or on
//! neither, while a 2.5 ms loop read 1.75x slow next to one on its own CPU. Loops of requests are read
//! only before and after, where a probe would delay no request.
//!
//! The probe runs none of the program's code, so a change to the program
//! cannot move it, with one exception: a server that keeps a CPU busy while
//! idle between requests also slows the probe, which then hides part of
//! that cost. Server boots are not calibrated: they mostly move and
//! checksum memory, which the probe does not track.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::proc;

/// One probe repetition's time on the reference machine (a 2-vCPU Intel
/// Xeon virtual machine, release build) in a quiet stretch.
const REP_REF_S: f64 = 0.625e-3;

/// Probe repetitions in a reading taken while nothing else runs.
const LONG: u32 = 4;
/// Probe repetitions in a reading taken while a build runs: well under the
/// scheduler's time slice.
const SHORT: u32 = 1;

/// Times `reps` probe repetitions, each formatting 1,500 address-like text
/// lines and hashing them, the kind of work that rendering and framing
/// answers does.
fn probe(reps: u32) -> f64 {
    let started = Instant::now();
    let mut h = 0u64;
    for rep in 0..reps {
        let mut text = String::with_capacity(64 * 1024);
        for i in 0..1500u32 {
            let _ = writeln!(
                text,
                "{}.{}.{rep}.0/{} AS{} {:.3}",
                (i >> 8) & 255,
                i & 255,
                16 + i % 9,
                64_500 + i,
                f64::from(i) / 7.0
            );
        }
        h ^= crate::body_hash(text.as_bytes());
    }
    std::hint::black_box(h);
    started.elapsed().as_secs_f64()
}

/// The slowness of `cpus` right now (every CPU when empty): the mean over
/// them of a `reps`-repetition probe's time, over its reference time.
/// Leaves the calling thread pinned to `cpus`.
fn slowness(cpus: &[usize], reps: u32) -> f64 {
    let all: Vec<usize> = (0..proc::nproc()).collect();
    let list = if cpus.is_empty() { &all[..] } else { cpus };
    let mut total = 0.0;
    for &cpu in list {
        proc::pin_current_thread(&[cpu]);
        total += probe(reps);
    }
    proc::pin_current_thread(cpus);
    total / list.len() as f64 / (REP_REF_S * f64::from(reps))
}

/// Runs `f` on `cpus` (every CPU when empty; the calling thread stays
/// pinned there, and what it spawns inherits that) between two slowness
/// readings, and returns `f`'s result with the mean of the two.
pub fn around<T>(cpus: &[usize], f: impl FnOnce() -> T) -> (T, f64) {
    let before = slowness(cpus, LONG);
    let out = f();
    let after = slowness(cpus, LONG);
    (out, (before + after) / 2.0)
}

/// Seconds between the readings [`throughout`] takes while its work runs.
const SAMPLE_PERIOD: Duration = Duration::from_millis(250);

/// Runs `f` on every CPU, reading every CPU's slowness with short probes
/// before, after, and each [`SAMPLE_PERIOD`] while it runs (from a second
/// thread that sleeps in between and takes under 1% of a CPU), and returns
/// `f`'s result with the mean of all readings.
pub fn throughout<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    let before = slowness(&[], SHORT);
    let (out, during) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut readings = Vec::new();
            let mut next = Instant::now() + SAMPLE_PERIOD;
            while !stop.load(Ordering::Relaxed) {
                if Instant::now() >= next {
                    readings.push(slowness(&[], SHORT));
                    next += SAMPLE_PERIOD;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            readings
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("the sampler does not panic"))
    });
    let after = slowness(&[], SHORT);
    let all: Vec<f64> = [before, after].into_iter().chain(during).collect();
    (out, all.iter().sum::<f64>() / all.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_positive_and_finite() {
        let ((), k) = around(&[], || ());
        assert!(k.is_finite() && k > 0.0, "slowness {k}");
        let ((), k) = throughout(|| std::thread::sleep(SAMPLE_PERIOD * 3));
        assert!(k.is_finite() && k > 0.0, "slowness {k}");
    }
}
