//! `prefix2org` — the command-line front end of the reproduction.
//!
//! ```text
//! prefix2org generate --out DIR [--seed N] [--scale tiny|default|bench|xl] [--transfers N]
//!                     [--corrupt-rate R] [--corrupt-seed N]
//!                     [--adversarial CLASS] [--adversarial-seed N]
//! prefix2org build    --in DIR --out FILE.jsonl [--strict] [--resume] [--threads N]
//!                     [--quarantine-samples N] [--exceptions FILE.jsonl]
//!                     [--report RUN.json|-] [--trace TRACE.json] [--metrics METRICS.prom]
//! prefix2org fsck     DIR [--gc]
//! prefix2org serve    DIR [--addr HOST:PORT] [--threads N] [--access-log FILE] [--allow-quit]
//!                     [--exceptions FILE.jsonl]
//! prefix2org explain  --in DIR PREFIX... [--exceptions FILE.jsonl] [--threads N]
//! prefix2org lookup   --dataset FILE.jsonl PREFIX...
//! prefix2org stats    --dataset FILE.jsonl
//! prefix2org org      --dataset FILE.jsonl NAME
//! prefix2org diff     --old A.jsonl --new B.jsonl
//! prefix2org validate --in DIR --dataset FILE.jsonl
//! ```
//!
//! `generate` materializes a synthetic Internet as *files in each source's
//! native format* (WHOIS bulk dumps, an MRT RIB, AS2Org TSVs, ground-truth
//! lists); `build` runs the full Prefix2Org pipeline over such a directory
//! and writes the dataset as JSON Lines; `serve` and `explain` answer from
//! the directory's frozen dataset, and the other query commands operate on
//! the JSONL snapshot alone — the adoption workflow a downstream user of
//! the published dataset would follow. `fsck` and `serve` also take their
//! directory as `--in DIR`; `explain`'s `--threads` is used only when the
//! dataset is frozen in memory.

mod args;
mod checkpoint;
mod commands;
mod fsck;
mod store;

use std::process::ExitCode;

/// A command failure, split by what exit code it maps to.
pub enum CliError {
    /// Usage / I/O / any other error: exit code 1.
    General(String),
    /// A typed ingest failure (strict-mode abort on a corrupt record, or a
    /// lenient run where nothing at all parsed): exit code 2. The message
    /// is the one-line diagnostic naming file, offset, and error variant.
    Ingest(String),
    /// `fsck` found durability damage (torn writes, leftover tmp files,
    /// damaged checkpoint stamps): exit code 2.
    Integrity(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::General(e)
    }
}

impl From<store::LoadError> for CliError {
    fn from(e: store::LoadError) -> Self {
        match e {
            store::LoadError::Ingest(err) => CliError::Ingest(err.to_string()),
            store::LoadError::Other(msg) => CliError::General(msg),
        }
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> Self {
        CliError::General(e.to_string())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::General(e)) => {
            eprintln!("prefix2org: error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Ingest(e)) => {
            eprintln!("prefix2org: ingest error: {e}");
            ExitCode::from(2)
        }
        Err(CliError::Integrity(e)) => {
            eprintln!("prefix2org: integrity error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One command: its name, the `--key value` options and value-less
/// `--key` switches it accepts, and the function that runs it.
struct Command {
    name: &'static str,
    options: &'static [&'static str],
    switches: &'static [&'static str],
    run: fn(&args::Parsed) -> Result<(), CliError>,
}

/// Every command, as dispatched and as its [`USAGE`] entry must list it.
const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        options: &[
            "out",
            "seed",
            "scale",
            "transfers",
            "corrupt-rate",
            "corrupt-seed",
            "adversarial",
            "adversarial-seed",
        ],
        switches: &[],
        run: commands::generate,
    },
    Command {
        name: "build",
        options: &[
            "in",
            "out",
            "threads",
            "quarantine-samples",
            "exceptions",
            "report",
            "trace",
            "metrics",
        ],
        switches: &["strict", "resume"],
        run: commands::build,
    },
    Command {
        name: "fsck",
        options: &["in"],
        switches: &["gc"],
        run: commands::fsck,
    },
    Command {
        name: "serve",
        options: &["in", "addr", "threads", "access-log", "exceptions"],
        switches: &["allow-quit"],
        run: commands::serve,
    },
    Command {
        name: "explain",
        options: &["in", "threads", "exceptions"],
        switches: &[],
        run: commands::explain,
    },
    Command {
        name: "lookup",
        options: &["dataset"],
        switches: &[],
        run: commands::lookup,
    },
    Command {
        name: "org",
        options: &["dataset"],
        switches: &[],
        run: commands::org,
    },
    Command {
        name: "diff",
        options: &["old", "new"],
        switches: &[],
        run: commands::diff,
    },
    Command {
        name: "stats",
        options: &["dataset"],
        switches: &[],
        run: commands::stats,
    },
    Command {
        name: "validate",
        options: &["in", "dataset"],
        switches: &[],
        run: commands::validate,
    },
];

fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(name) = argv.first() else {
        print_usage()?;
        return Err("no command given".into());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return print_usage();
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; try `prefix2org help`"))?;
    let args = args::Parsed::new(&argv[1..], command.name, command.options, command.switches)?;
    (command.run)(&args)
}

/// The `prefix2org help` text: one entry per command, headed by its
/// usage line.
const USAGE: &str = "\
prefix2org — map BGP prefixes to organizations (IMC'25 reproduction)

USAGE:
  prefix2org generate --out DIR [--seed N] [--scale tiny|default|bench|xl] [--transfers N]
                      [--corrupt-rate R] [--corrupt-seed N]
                      [--adversarial CLASS] [--adversarial-seed N]
      Materialize a synthetic Internet: WHOIS bulk dumps (native formats),
      an MRT RIB snapshot, AS2Org + sibling TSVs, RPKI objects, ground truth.
      --scale xl is the stress world (>=10x bench, ~64 MB of inputs).
      --corrupt-rate injects seeded record-level corruption (truncation,
      bit-flips, length-field lies, junk records) into the written WHOIS,
      MRT and RPKI artifacts at the given per-record rate (0..=1);
      --corrupt-seed decouples the fault pattern from the world seed.
      --adversarial applies one seeded *semantic* RPKI mutation before
      writing: every object still parses and its signature verifies, but
      relying-party validation (or ROV) rejects it. Classes: expired-cert
      (a member cert — or a whole trust anchor — re-signed with an
      elapsed window), resource-overclaim
      (cert re-signed claiming 192.0.2.0/24 it was never delegated),
      conflicting-roas (a valid ROA authorizing hijacker AS64666 over
      uncovered routed space, MOAS sets first), orphaned-delegation (a
      mid-chain cert withdrawn, stranding its subtree and ROAs). The
      mutation manifest is written to DIR/adversary.json;
      --adversarial-seed decouples victim selection from the world seed.

  prefix2org build --in DIR --out FILE.jsonl [--strict] [--resume] [--threads N]
                   [--quarantine-samples N] [--exceptions FILE.jsonl]
                   [--report RUN.json|-] [--trace TRACE.json] [--metrics METRICS.prom]
      Parse a generated (or compatible) directory and run the full pipeline;
      write the per-prefix dataset as JSON Lines and print Table-4 metrics.
      Every artifact is written atomically (tmp + fsync + rename), and a
      checksummed checkpoint stamp FILE.jsonl.ckpt is written last.
      Alongside the export, a frozen zero-copy artifact DIR/world.p2ob is
      written (flattened LPM tables, interned strings, fixed-width
      records); `serve` boots from it in milliseconds and `explain`
      prints each record's trace from it. The freeze is verified to thaw
      back to the export byte-for-byte before it is written.
      Corrupt input records are skipped and quarantined by default (counts
      go to stderr and the report's data_quality section); exit code 2 is
      reserved for ingest failures. --strict aborts on the first corrupt
      record instead, naming its file, byte/line offset and error variant.
      --resume skips the whole build when the checkpoint stamp proves the
      inputs are unchanged and every requested artifact still verifies;
      anything torn or stale recomputes with a warning, never an abort.
      --quarantine-samples caps the sample records carried into the
      report's data_quality section (default 8).
      --threads defaults to the number of available cores; 1 runs every
      stage on one thread (the output and the report's stage rows are
      identical either way; per-shard timing is in the --trace file).
      --report writes a JSON run report (per-stage wall times, counters,
      histograms, the process's peak RSS) and prints its summary table
      to stderr; `--report -` writes the JSON to stdout (the human
      summary moves to stderr).
      --trace writes a Chrome trace-event file (load it in Perfetto or
      chrome://tracing) with per-thread span timelines for the WHOIS
      parse, MRT decode, resolution and cluster group-build shards.
      --metrics writes every counter and histogram in Prometheus text
      exposition format.
      --exceptions applies SLURM-style local operator rules (RFC 8416
      spirit) after resolution: one JSON object per line, either
      {\"prefix\":P,\"action\":\"assert\",\"org\":NAME} to override a
      prefix's attribution or {\"prefix\":P,\"action\":\"filter\"} to drop a bogus
      record entirely. The last rule per prefix wins. Overrides keep the
      inferred evidence and are marked in the export (local_exception),
      the frozen artifact, and every provenance trace. Rule-file content
      participates in the checkpoint and frozen-staleness digests (a
      file with no non-blank line holds no rule and digests like none). A
      damaged line warns and is quarantined (--strict aborts instead).
      Each input is read whole and the parsed inputs, the dataset, the
      export and the frozen artifact are held in memory, so the inputs
      must fit in RAM.

  prefix2org fsck DIR [--gc]
      Audit a data directory (DIR may also be given as --in DIR): verify
      every file `generate` recorded in MANIFEST.tsv, flag leftover
      .p2o-tmp files from interrupted writes and the .spill runs an
      older binary's interrupted spill build left behind, check that
      checkpoint stamps unframe cleanly, audit frozen .p2ob datasets
      (frame length, trailing bytes and digest, arena layout,
      format_version, string/LPM table invariants), and reject
      unsupported format_versions. Exits 2 when anything is damaged.
      --gc deletes the removable debris (tmp files and orphaned spill
      runs) after the audit, then re-audits; the exit code reflects the
      state after collection.

  prefix2org serve DIR [--addr HOST:PORT] [--threads N]
                   [--access-log FILE] [--allow-quit] [--exceptions FILE.jsonl]
      Serve the directory as a long-running lookup service (default
      address 127.0.0.1:8642; DIR may also be given as --in DIR). The
      directory is fsck-audited before loading; damage refuses to start
      with exit 2. Every snapshot serves a frozen dataset: when
      DIR/world.p2ob matches the directory's current inputs it is
      attached in milliseconds; when it is missing or stale, the full
      load is frozen in memory at boot (with a warning if stale),
      answering identically; --threads is used only for that in-memory
      freeze.
      Endpoints: GET /prefix/<cidr> (longest-match lookup with DO, DC
      chain, cluster, MOAS origin set, and the matched record's stored
      provenance chain, as `explain` prints it), POST /batch
      (one CIDR per line, JSONL out), GET /dump
      [?serial=N] (full table as a reset, or the delta since serial N),
      GET /metrics (Prometheus text exposition incl. serve.* cumulative
      counters and rolling-window latency/rate gauges), POST /reload
      (re-verify and atomically swap; body = new dir path, empty =
      reload the same dir), GET /health (liveness + uptime + 60s request
      rate), GET /status (per-endpoint windowed p50/p90/p99/max + rates,
      snapshot generation/serial/backing, connection gauge, flight-
      recorder occupancy), GET /debug/requests?n=K (recent + slowest
      requests as JSONL), GET /debug/trace?ms=N (attach a live tracer
      for N ms and return a Chrome trace), POST /quit (graceful drain;
      gated behind --allow-quit). Every response carries a monotonic
      X-P2O-Request-Id. --access-log FILE appends one JSON object per
      request, in batches of 64 and on drain, each appended and fsynced. Shutdown drains
      in-flight connections and prints a final run report to stderr.
      --exceptions applies the rule file to every served snapshot and
      re-reads it on each /reload, so edited rules land without a
      restart. Serving is strict where build is lenient: a rejected
      line refuses to boot (exit 2), and on /reload it is rejected
      with 503 while the old snapshot keeps serving. /health, /status
      and /metrics report the override count and ROV state tallies.

  prefix2org explain --in DIR PREFIX... [--exceptions FILE.jsonl] [--threads N]
      Print the rule chain behind each prefix's answer: routing-table
      lookup, radix LPM walk, WHOIS delegation matches, base name, RPKI
      certificate, ROV state, origin-ASN clusters, cluster merges, final
      cluster label. DIR is loaded exactly as `serve` boots it: audited,
      then DIR/world.p2ob when it is fresh, else a full load frozen in
      memory. Each prefix is answered by the record /prefix would
      match: that record's stored trace, after a `covered by` note when
      the prefix is more specific than the record, or `no covering
      record`. An unrouted or unresolved prefix answers like any other
      prefix that is not a record. Damage or a rejected rule line exits
      2, as it refuses a `serve` boot. --exceptions applies a local rule
      file as `serve --exceptions` does, so the trace shows operator
      overrides (local_exception) and a filtered prefix answers by its
      covering record. --threads is used only for an in-memory freeze.

  prefix2org lookup --dataset FILE.jsonl PREFIX...
      Longest-match lookup of prefixes in a built snapshot.

  prefix2org org --dataset FILE.jsonl NAME
      List the prefixes attributed to an organization.

  prefix2org diff --old A.jsonl --new B.jsonl
      Compare two snapshots: added/removed prefixes, ownership transfers,
      customer churn.

  prefix2org stats --dataset FILE.jsonl
      Summarize a snapshot: per-registry and per-family counts, owners,
      clusters, largest organizations.

  prefix2org validate --in DIR --dataset FILE.jsonl
      Evaluate the snapshot against the directory's ground-truth lists
      (per-organization precision/recall, paper Tables 5-6).";

fn print_usage() -> Result<(), CliError> {
    commands::print_answers(|out| writeln!(out, "{USAGE}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Each command's [`USAGE`] entry: from its `  prefix2org NAME` usage
    /// line up to the next command's.
    fn entries() -> Vec<(&'static str, &'static str)> {
        let starts: Vec<(usize, &'static str)> = USAGE
            .match_indices("\n  prefix2org ")
            .map(|(at, heading)| {
                let name = USAGE[at + heading.len()..].split(' ').next().unwrap();
                (at, name)
            })
            .collect();
        starts
            .iter()
            .enumerate()
            .map(|(i, &(at, name))| {
                let end = starts.get(i + 1).map_or(USAGE.len(), |&(next, _)| next);
                (name, &USAGE[at..end])
            })
            .collect()
    }

    /// The `--flags` an entry names, each with the command it belongs to:
    /// the entry's own, except inside a backtick span that opens with
    /// another command's name (`build --resume`), whose flags are that
    /// command's.
    fn named_flags(own: &'static str, entry: &'static str) -> Vec<(&'static str, &'static str)> {
        let mut named = Vec::new();
        for (i, span) in entry.split('`').enumerate() {
            let mut words = span.split_whitespace().skip_while(|w| *w == "prefix2org");
            let quoted = words
                .next()
                .filter(|_| i % 2 == 1)
                .and_then(|first| COMMANDS.iter().find(|c| c.name == first));
            let owner = quoted.map_or(own, |c| c.name);
            for word in span.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                match word.strip_prefix("--") {
                    Some(flag) if !flag.is_empty() => named.push((owner, flag)),
                    _ => {}
                }
            }
        }
        named
    }

    /// Whether `command`'s parser takes `--flag` (with a value, if it is
    /// an option).
    fn accepts(command: &Command, flag: &str) -> bool {
        let argv = [format!("--{flag}"), "value".to_string()];
        args::Parsed::new(&argv, command.name, command.options, command.switches).is_ok()
    }

    /// The help text and the parser stay in step: each command's entry
    /// names every option and switch the command accepts, and every flag
    /// an entry names is accepted by the command it belongs to.
    #[test]
    fn help_names_exactly_the_options_each_command_accepts() {
        let entries = entries();
        let names: Vec<&str> = entries.iter().map(|&(name, _)| name).collect();
        let commands: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(names, commands, "one help entry per command, in order");
        for (command, (name, entry)) in COMMANDS.iter().zip(entries) {
            let mut own = BTreeSet::new();
            for (owner, flag) in named_flags(name, entry) {
                let owner = COMMANDS.iter().find(|c| c.name == owner).unwrap();
                assert!(
                    accepts(owner, flag),
                    "the {name} entry names --{flag}, which {} does not accept",
                    owner.name
                );
                if owner.name == name {
                    own.insert(flag);
                }
            }
            for flag in command.options.iter().chain(command.switches) {
                assert!(
                    own.contains(flag),
                    "{name} accepts --{flag}, but its help entry never names it"
                );
            }
        }
        // The parser really refuses what no entry names.
        let explain = COMMANDS.iter().find(|c| c.name == "explain").unwrap();
        assert!(!accepts(explain, "frozen"));
    }
}
