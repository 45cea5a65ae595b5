//! Shared plumbing for the experiment binaries and benches.
//!
//! Every `exp_*` binary regenerates one table or figure of the paper from
//! the **standard world** — the default-scale synthetic Internet at a fixed
//! seed — so the numbers across experiments are mutually consistent, the way
//! the paper's all derive from one September 2024 snapshot. See
//! EXPERIMENTS.md for the recorded outputs and the paper-vs-measured
//! comparison.

use p2o_synth::{BuiltInputs, World, WorldConfig};
use prefix2org::{Pipeline, PipelineInputs, Prefix2OrgDataset};

/// The fixed seed all experiments share.
pub const STANDARD_SEED: u64 = 0x20240901;

/// Generates the standard world and runs the full pipeline on it.
pub fn standard() -> (World, BuiltInputs, Prefix2OrgDataset) {
    world_at(WorldConfig::default_scale(STANDARD_SEED))
}

/// Generates a world at any config and runs the pipeline.
pub fn world_at(config: WorldConfig) -> (World, BuiltInputs, Prefix2OrgDataset) {
    let world = World::generate(config);
    let built = world.build_inputs();
    assert!(
        built.rpki_problems.is_empty(),
        "synthetic RPKI must validate cleanly: {:?}",
        built.rpki_problems
    );
    let dataset = Pipeline::with_threads(4).run(&PipelineInputs {
        delegations: &built.tree,
        routes: &built.routes,
        asn_clusters: &built.clusters,
        rpki: &built.rpki,
    });
    (world, built, dataset)
}

/// Renders rows as a fixed-width text table with a header rule.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        line(row.clone());
    }
}

/// Percentage formatting used across tables.
pub fn pct(x: f64) -> String {
    format!("{x:.2}")
}

pub mod timing {
    //! A minimal wall-clock bench harness for the `[[bench]]` targets
    //! (`harness = false`; no bench framework offline).
    //!
    //! Each case warms up, then repeats until a time budget is spent and
    //! prints mean wall time per iteration. `P2O_BENCH_MS` overrides the
    //! per-case budget (milliseconds) — set it to `1` for a smoke run.

    use std::hint::black_box;
    use std::time::{Duration, Instant};

    fn budget() -> Duration {
        let ms = std::env::var("P2O_BENCH_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300u64);
        Duration::from_millis(ms.max(1))
    }

    fn human_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.0} ns")
        }
    }

    /// Times `f` and prints `label  <iters> iters  <mean>/iter`. Returns the
    /// mean nanoseconds per iteration.
    pub fn bench<T>(label: &str, mut f: impl FnMut() -> T) -> f64 {
        bench_with_input(label, || (), |()| f())
    }

    /// [`bench`] for a routine that consumes its input: `setup` builds a
    /// fresh input before every iteration, outside the timed region.
    pub fn bench_with_input<I, T>(
        label: &str,
        mut setup: impl FnMut() -> I,
        mut f: impl FnMut(I) -> T,
    ) -> f64 {
        black_box(f(setup()));
        let budget = budget();
        let started = Instant::now();
        let mut iters = 0u64;
        let mut spent = Duration::ZERO;
        while (spent < budget && started.elapsed() < budget * 4) || iters == 0 {
            let input = setup();
            let t = Instant::now();
            black_box(f(input));
            spent += t.elapsed();
            iters += 1;
        }
        let per = spent.as_nanos() as f64 / iters as f64;
        println!("{label:<44} {iters:>7} iters  {:>12}/iter", human_ns(per));
        per
    }

    /// [`bench`] plus a MB/s throughput column derived from `bytes` of input
    /// processed per iteration.
    pub fn bench_throughput<T>(label: &str, bytes: u64, f: impl FnMut() -> T) {
        let per_ns = bench(label, f);
        if per_ns > 0.0 {
            let mbps = bytes as f64 / (per_ns / 1e9) / 1e6;
            println!("{:<44} {mbps:>28.1} MB/s", format!("{label} (throughput)"));
        }
    }

    /// Prints a group heading.
    pub fn group(name: &str) {
        println!("\n=== {name} ===");
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn standard_world_builds() {
        // Smoke: the shared fixture the binaries depend on stays healthy.
        let (_, built, dataset) =
            super::world_at(p2o_synth::WorldConfig::tiny(super::STANDARD_SEED));
        assert!(!dataset.is_empty());
        assert!(built.routes.len() >= dataset.len());
    }
}
