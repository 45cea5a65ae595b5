//! The `prefix2org` subcommand implementations.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use p2o_net::{AddressFamily, Prefix};
use p2o_synth::corrupt::{corrupt_world, CorruptionConfig};
use p2o_synth::{World, WorldConfig};
use p2o_util::atomic;
use p2o_util::ingest::{IngestLayer, DEFAULT_QUARANTINE_SAMPLES};
use p2o_util::vfs::Vfs;
use prefix2org::{ExportBytes, ExportRecord, Pipeline, PipelineInputs};

use crate::args::Parsed;
use crate::checkpoint;
use crate::fsck;
use crate::store;
use crate::CliError;

/// `generate`: materialize a synthetic Internet on disk.
pub fn generate(args: &Parsed) -> Result<(), CliError> {
    let out = Path::new(args.require("out")?);
    let seed = args.get_num::<u64>("seed")?.unwrap_or(0x2024_0901);
    let transfers = args.get_num::<usize>("transfers")?.unwrap_or(0);
    let corrupt_rate = args.get_num::<f64>("corrupt-rate")?.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&corrupt_rate) {
        return Err(format!("--corrupt-rate must be in 0..=1, got {corrupt_rate}").into());
    }
    let corrupt_seed = args.get_num::<u64>("corrupt-seed")?.unwrap_or(seed);
    let adversarial = match args.get("adversarial") {
        None => None,
        Some(spec) => {
            let class = p2o_synth::adversary::FaultClass::parse(spec).ok_or_else(|| {
                let known: Vec<&str> = p2o_synth::adversary::FaultClass::ALL
                    .iter()
                    .map(|c| c.as_str())
                    .collect();
                format!(
                    "unknown adversarial class {spec:?} (one of: {})",
                    known.join(", ")
                )
            })?;
            let adv_seed = args.get_num::<u64>("adversarial-seed")?.unwrap_or(seed);
            Some((class, adv_seed))
        }
    };
    let config = match args.get("scale").unwrap_or("default") {
        "tiny" => WorldConfig::tiny(seed),
        "default" => WorldConfig::default_scale(seed),
        "bench" => WorldConfig::bench_scale(seed),
        "xl" => WorldConfig::xl_scale(seed),
        other => return Err(format!("unknown scale {other:?} (tiny|default|bench|xl)").into()),
    }
    .with_transfers(transfers);

    eprintln!(
        "generating world (seed {seed:#x}, {} orgs)...",
        config.total_orgs()
    );
    let vfs = Vfs::from_env().map_err(CliError::General)?;
    let mut world = World::generate(config);
    let outcome = adversarial
        .map(|(class, adv_seed)| p2o_synth::adversary::apply(&mut world, class, adv_seed));
    let mut manifest = store::write_world(&vfs, &world, out)?;
    if let Some(outcome) = &outcome {
        // The mutation is already baked into rpki.jsonl; adversary.json is
        // the manifest of what was done — CI and the degradation tests read
        // it to know which prefixes to probe.
        let text = outcome.to_json().to_string_pretty();
        let path = out.join("adversary.json");
        let written = atomic::write_atomic_parts(&vfs, &path, "adversary", &[text.as_bytes()])
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        manifest.record_entry("adversary.json", written);
        eprintln!(
            "applied adversarial mutation {} (seed {:#x}): {} victim cert(s), {} affected prefix(es)",
            outcome.class,
            outcome.seed,
            outcome.victim_subjects.len(),
            outcome.affected_prefixes.len(),
        );
    }
    if corrupt_rate > 0.0 {
        // Corruption injection deliberately alters record *content*; the
        // overwrites still go through the atomic writer and re-record their
        // bytes, so the manifest describes the final (corrupted) files and
        // `fsck` distinguishes durable-but-dirty data from torn writes.
        let corrupted = corrupt_world(
            &world,
            &CorruptionConfig::uniform(corrupt_seed, corrupt_rate),
        );
        let mut rewrite = |relpath: String, data: &[u8]| -> Result<(), CliError> {
            let path = out.join(&relpath);
            let written = atomic::write_atomic_parts(&vfs, &path, "corrupt", &[data])
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            manifest.record_entry(&relpath, written);
            Ok(())
        };
        for (registry, dump) in &corrupted.whois {
            rewrite(format!("whois/{registry}.txt"), dump.data.as_bytes())?;
        }
        rewrite("rib.mrt".to_string(), &corrupted.mrt.data)?;
        rewrite(
            "rpki.jsonl".to_string(),
            corrupted.rpki_jsonl.data.as_bytes(),
        )?;
        eprintln!(
            "injected {} faults (seed {corrupt_seed:#x}, rate {corrupt_rate}): \
             mrt {}, whois {}, rpki {}",
            corrupted.total_faults(),
            corrupted.mrt.faults,
            corrupted.whois_faults(),
            corrupted.rpki_jsonl.faults,
        );
    }
    // Written last, so it always describes the final on-disk bytes.
    manifest
        .save(&vfs, out)
        .map_err(|e| format!("writing manifest: {e}"))?;
    print_answers(|stdout| {
        writeln!(
            stdout,
            "wrote {} WHOIS dumps, {} RPKI objects, {} byte RIB, {} truth lists to {}",
            world.whois_dumps.len(),
            world.rpki.cert_count() + world.rpki.roa_count(),
            world.mrt.len(),
            world.truth.published_lists.len(),
            out.display()
        )
    })
}

/// Outcome of the `--resume` checkpoint evaluation.
enum ResumeDecision {
    /// Everything verifies; the build is skipped entirely.
    Skip {
        /// Artifacts that verified against the stamp.
        verified: u64,
    },
    /// Run the build; `checkpoint` is the durability-report decision label
    /// (`created` for a fresh build, `recomputed` when a stamp existed but
    /// did not verify) and `stamp_torn` marks a damaged stamp frame.
    Run {
        checkpoint: &'static str,
        stamp_torn: bool,
    },
}

/// Evaluates `build --resume`: skip iff the stamp exists, its inputs
/// digest matches, and every artifact this invocation asks for is recorded
/// (same path) and verifies on disk — the frozen artifact only in the
/// format this binary reads. Anything else recomputes with a warning —
/// never an abort.
fn evaluate_resume(
    vfs: &Vfs,
    out: &Path,
    inputs_digest: u64,
    requested: &[(&str, &str)],
    report_to_stdout: bool,
) -> ResumeDecision {
    let recompute = |reason: &str, stamp_torn: bool| {
        eprintln!("warning: resume: {reason}; recomputing");
        ResumeDecision::Run {
            checkpoint: "recomputed",
            stamp_torn,
        }
    };
    match checkpoint::Stamp::load(vfs, out) {
        Err(damage) => recompute(&format!("checkpoint stamp unusable ({damage})"), true),
        Ok(None) => {
            eprintln!(
                "resume: no checkpoint at {}; running a full build",
                checkpoint::stamp_path(out).display()
            );
            ResumeDecision::Run {
                checkpoint: "created",
                stamp_torn: false,
            }
        }
        Ok(Some(stamp)) => {
            if report_to_stdout {
                return recompute(
                    "`--report -` streams to stdout and cannot be skipped",
                    false,
                );
            }
            if stamp.inputs_digest != inputs_digest {
                return recompute("inputs or options changed since the checkpoint", false);
            }
            let mut verified = 0u64;
            for (role, path) in requested {
                match stamp.artifact(role) {
                    Some(a) if a.path == *path => {
                        let Some(bytes) = checkpoint::verified_bytes(vfs, a) else {
                            return recompute(
                                &format!("{role} artifact {path} is missing or altered"),
                                false,
                            );
                        };
                        if *role == "frozen" {
                            if let Some(why) = unreadable_frozen(&bytes) {
                                return recompute(&format!("frozen artifact {path} {why}"), false);
                            }
                        }
                        verified += 1;
                    }
                    _ => {
                        return recompute(
                            &format!("{role} artifact {path} is not covered by the checkpoint"),
                            false,
                        )
                    }
                }
            }
            ResumeDecision::Skip { verified }
        }
    }
}

/// Why this binary cannot serve the framed `world.p2ob` bytes a stamp
/// vouched for, judged by the `format_version` they carry: `None` when it
/// can. The stamp's digest already covers the frame, so only its header
/// is skipped.
fn unreadable_frozen(framed: &[u8]) -> Option<String> {
    let payload = framed.get(atomic::FRAME_HEADER_LEN..).unwrap_or_default();
    match prefix2org::frozen::payload_format_version(payload) {
        Ok(prefix2org::FROZEN_FORMAT_VERSION) => None,
        Ok(version) => Some(format!(
            "has format_version {version}, but this binary reads format_version {}",
            prefix2org::FROZEN_FORMAT_VERSION
        )),
        Err(e) => Some(format!("does not parse ({e})")),
    }
}

/// The paper's §4.1 footnote check against the delegation files, when
/// present: no delegation larger than /8 (IPv4) or /16 (IPv6). Each
/// `delegated/*.txt` is read through `vfs`; one that cannot be read is
/// named in a warning, and the check passes only when every file was read.
fn check_delegation_files(vfs: &Vfs, dir: &Path) {
    let delegated_dir = dir.join("delegated");
    if !delegated_dir.is_dir() {
        return;
    }
    let mut oversized = 0usize;
    let mut unread = 0usize;
    for path in checkpoint::txt_entries(&delegated_dir) {
        match vfs.read_to_string(&path) {
            Ok(text) => {
                let (records, _) = p2o_whois::delegated::parse(&text);
                oversized += p2o_whois::delegated::oversized_delegations(&records).len();
            }
            Err(e) => {
                eprintln!(
                    "warning: delegation-file check: cannot read {}: {e}",
                    path.display()
                );
                unread += 1;
            }
        }
    }
    if oversized > 0 {
        eprintln!("warning: {oversized} delegations exceed /8 (v4) or /16 (v6)");
    }
    if unread > 0 {
        eprintln!("warning: delegation-file check incomplete: {unread} file(s) not checked");
    } else if oversized == 0 {
        eprintln!("delegation-file check: no delegation larger than /8 or /16 (paper §4.1)");
    }
}

/// `build`: parse a snapshot directory, run the pipeline, write JSONL.
pub fn build(args: &Parsed) -> Result<(), CliError> {
    let started = std::time::Instant::now();
    let dir = Path::new(args.require("in")?);
    let out_str = args.require("out")?;
    let out = Path::new(out_str);
    let threads = args
        .get_num::<usize>("threads")?
        .unwrap_or_else(prefix2org::default_threads)
        .max(1);
    let strict = args.has("strict");
    let mode = if strict {
        store::IngestMode::Strict
    } else {
        store::IngestMode::Lenient
    };
    let quarantine_samples = args
        .get_num::<usize>("quarantine-samples")?
        .unwrap_or(DEFAULT_QUARANTINE_SAMPLES);
    let report_path = args.get("report");
    let trace_path = args.get("trace");
    let metrics_path = args.get("metrics");
    let report_to_stdout = report_path == Some("-");
    let vfs = Vfs::from_env().map_err(CliError::General)?;

    // Local operator exceptions (SLURM-style assert/filter rules). The file
    // is read once up front: its content participates in both checkpoint
    // digests, and the parsed rules are applied to the dataset after
    // resolution. Lenient by default — a damaged line is quarantined and
    // the rest of the file still applies; --strict aborts on the first.
    let exceptions_path = args.get("exceptions");
    let exceptions_text = exceptions_path
        .map(|p| {
            vfs.read_to_string(Path::new(p))
                .map_err(|e| format!("reading exceptions {p}: {e}"))
        })
        .transpose()?;
    let (exception_set, exception_rejects) = match &exceptions_text {
        Some(text) => prefix2org::ExceptionSet::parse_lenient(text),
        None => (prefix2org::ExceptionSet::new(), Vec::new()),
    };
    if strict {
        if let Some(first) = exception_rejects.first() {
            return Err(CliError::Ingest(format!(
                "{}: line {}: {} ({})",
                exceptions_path.unwrap_or("exceptions"),
                first.offset,
                first.message,
                first.kind.counter_suffix(),
            )));
        }
    }

    // The checkpoint covers the export plus every file-bound artifact this
    // invocation asks for.
    let frozen_path = dir.join(prefix2org::FROZEN_FILE);
    let frozen_path_str = frozen_path.display().to_string();
    let mut requested: Vec<(&str, &str)> =
        vec![("export", out_str), ("frozen", frozen_path_str.as_str())];
    if let Some(p) = report_path {
        if p != "-" {
            requested.push(("report", p));
        }
    }
    if let Some(p) = metrics_path {
        requested.push(("metrics", p));
    }
    if let Some(p) = trace_path {
        requested.push(("trace", p));
    }

    let obs = (report_path.is_some() || trace_path.is_some() || metrics_path.is_some())
        .then(p2o_obs::Obs::new);
    if trace_path.is_some() {
        // Must be on before loading: the WHOIS/MRT parse shards trace too.
        obs.as_ref().expect("obs created above").enable_tracing();
    }
    // Every phase below runs under a stage timer when the build is
    // observed; a plain build creates none.
    let stage = |name: &str| obs.as_ref().map(|o| o.stage(name));

    // The one integrity read of the inputs (digest and manifest check);
    // the checkpoint digest chains this invocation's options onto the
    // files digest, the frozen artifact's digest the default options.
    let timer = stage("util.digest");
    let scan = store::scan_integrity(&vfs, dir, None)?;
    drop(timer);
    let exceptions_bytes = exceptions_text.as_deref().map(str::as_bytes);
    let inputs_digest = checkpoint::inputs_digest(
        scan.files_digest,
        strict,
        quarantine_samples,
        exceptions_bytes,
    );
    let (ckpt_decision, stamp_torn) = if args.has("resume") {
        match evaluate_resume(&vfs, out, inputs_digest, &requested, report_to_stdout) {
            ResumeDecision::Skip { verified } => {
                eprintln!(
                    "resume: inputs unchanged, all {verified} requested artifacts verify; \
                     skipping build"
                );
                return print_answers(|stdout| {
                    writeln!(
                        stdout,
                        "dataset already current at {} (resumed)",
                        out.display()
                    )
                });
            }
            ResumeDecision::Run {
                checkpoint,
                stamp_torn,
            } => (checkpoint, stamp_torn),
        }
    } else {
        ("created", false)
    };

    let store::LoadOutcome {
        inputs,
        mut quarantine,
    } = store::load_inputs(&vfs, dir, obs.as_ref(), threads, mode)?;
    if !exception_rejects.is_empty() {
        let file = exceptions_path.unwrap_or("exceptions");
        eprintln!(
            "warning: exceptions {file}: {} rejected line(s) ignored (run with --strict to abort)",
            exception_rejects.len()
        );
        if let Some(o) = &obs {
            // The store's own quarantine was already folded into the
            // counters inside the load; add only the exception delta.
            let mut delta = p2o_util::ingest::Quarantine::new();
            for rec in &exception_rejects {
                delta.push(rec.clone());
            }
            p2o_obs::record_quarantine(o, &delta);
        }
        quarantine.extend_from_file(file, exception_rejects);
    }
    // Detection, not enforcement: the lenient parsers handle a torn input.
    for (path, issue) in &scan.torn {
        eprintln!("warning: manifest: {path}: {issue}");
    }
    let torn_detected = scan.torn.len() as u64 + u64::from(stamp_torn);
    if let Some(o) = &obs {
        o.counter("store.torn_detected").add(torn_detected);
        o.counter("checkpoint.artifacts_verified")
            .add(scan.verified);
        if ckpt_decision == "recomputed" {
            o.counter("checkpoint.recomputed").incr();
        }
    }
    if !quarantine.is_empty() {
        eprintln!(
            "warning: {} corrupt records quarantined (mrt {}, whois {}, rpki {}, exception {})",
            quarantine.len(),
            quarantine.count_for_layer(IngestLayer::Mrt),
            quarantine.count_for_layer(IngestLayer::Whois),
            quarantine.count_for_layer(IngestLayer::Rpki),
            quarantine.count_for_layer(IngestLayer::Exception),
        );
        if inputs.whois_stats.raw_records == 0 && inputs.routes.is_empty() {
            return Err(CliError::Ingest(format!(
                "nothing survived ingest: all {} records quarantined",
                quarantine.len()
            )));
        }
    }
    let timer = stage("whois.delegated");
    check_delegation_files(&vfs, dir);
    drop(timer);
    if !inputs.rpki_problems.is_empty() {
        eprintln!(
            "warning: {} invalid RPKI objects excluded (first: {:?})",
            inputs.rpki_problems.len(),
            inputs.rpki_problems[0]
        );
    }
    eprintln!(
        "loaded: {} WHOIS records -> {} blocks ({} superseded, {} unresolved handles), \
         {} routed prefixes, snapshot {}; clustering with {threads} threads...",
        inputs.whois_stats.raw_records,
        inputs.tree.len(),
        inputs.whois_stats.superseded,
        inputs.whois_stats.unresolved_handles,
        inputs.routes.len(),
        inputs.snapshot_date,
    );
    // One pipeline run yields the dataset and the merge evidence the frozen
    // artifact needs; an observed build records its counters and stages.
    let (mut dataset, merge_edges) = Pipeline::with_threads(threads).dataset_with_evidence(
        &PipelineInputs {
            delegations: &inputs.tree,
            routes: &inputs.routes,
            asn_clusters: &inputs.clusters,
            rpki: &inputs.rpki,
        },
        obs.as_ref(),
    );
    // The freeze reads only the route table: the other parsed inputs are
    // released before the export and the freeze.
    let timer = stage("build.release_inputs");
    let routes = inputs.into_routes();
    drop(timer);
    // Operator exceptions apply after resolution and clustering, so an
    // assert overrides the inferred attribution (keeping its evidence) and
    // a filter drops the record entirely — from the export, the frozen
    // artifact, and every index built from them.
    let timer = stage("core.exceptions");
    let exception_summary = exception_set.apply(&mut dataset);
    drop(timer);
    if let Some(o) = &obs {
        o.counter("exceptions.asserted")
            .add(exception_summary.asserted);
        o.counter("exceptions.filtered")
            .add(exception_summary.filtered);
        o.counter("exceptions.unmatched")
            .add(exception_summary.unmatched);
    }
    if exceptions_path.is_some() {
        eprintln!(
            "exceptions: {} rule(s): {} asserted, {} filtered, {} unmatched",
            exception_set.len(),
            exception_summary.asserted,
            exception_summary.filtered,
            exception_summary.unmatched,
        );
    }
    // The export streams line by line into its tmp file and is hashed on
    // the way, so it is never held whole.
    let timer = stage("core.export");
    let export = atomic::write_atomic_with(&vfs, out, "export", |lines| {
        prefix2org::write_jsonl(&dataset, lines)
    })
    .map_err(|e| format!("writing {}: {e}", out.display()))?;
    drop(timer);

    // Freeze the same dataset into the zero-copy serve artifact. The META
    // section stamps the option-independent inputs digest so a later
    // `serve` can detect staleness no matter which flags this build ran
    // with, and the thaw check proves the artifact reproduces the export
    // just written, read back, byte for byte before anything touches disk.
    let canonical_digest = checkpoint::canonical_inputs_digest(scan.files_digest, exceptions_bytes);
    let written = vfs
        .open(out)
        .map_err(|e| format!("reading {} back: {e}", out.display()))?;
    let frozen = prefix2org::freeze_verified(
        &routes,
        &dataset,
        &merge_edges,
        canonical_digest,
        ExportBytes {
            digest: export.digest,
            reader: io::BufReader::new(written),
        },
        obs.as_ref(),
    )?;
    let mut stamp = checkpoint::Stamp::new(inputs_digest);
    stamp.record_entry("export", out_str, export);
    if let (Some(p), Some(text)) = (exceptions_path, &exceptions_text) {
        // Recorded for the audit trail (which rules shaped this build);
        // the content already participates in the inputs digest.
        stamp.record("exceptions", p, text.as_bytes());
    }

    // The frame header goes in front of the payload without copying it;
    // the frame is the artifact's one integrity record (no manifest row).
    let timer = stage("util.write_frozen");
    let payload = frozen.payload();
    let framed = atomic::write_atomic_parts(
        &vfs,
        &frozen_path,
        prefix2org::FROZEN_LABEL,
        &[&atomic::frame_header(payload), payload],
    )
    .map_err(|e| format!("writing {}: {e}", frozen_path.display()))?;
    drop(frozen);
    stamp.record_entry("frozen", &frozen_path_str, framed);
    drop(timer);
    let frozen_bytes = framed.bytes;

    if let Some(o) = &obs {
        // Fold the I/O layer's own statistics into the counter families
        // before rendering, so the report and Prometheus export carry them.
        let io = vfs.stats();
        o.counter("io.fault.injected").add(io.faults_injected());
        o.counter("io.fault.short_write").add(io.faults_short_write);
        o.counter("io.fault.enospc").add(io.faults_enospc);
        o.counter("io.fault.eio").add(io.faults_eio);

        let mut report = o.report();
        // What no stage row saw, from the start of the build to here: the
        // report, metrics, trace and stamp writes follow at once.
        let attributed: u64 = report.stages.iter().map(|s| s.wall_ns).sum();
        report.stages.push(p2o_obs::StageReport {
            name: "build.unattributed".to_string(),
            wall_ns: (started.elapsed().as_nanos() as u64).saturating_sub(attributed),
            items: None,
            rss_bytes: p2o_obs::process_rss_bytes(),
        });
        // Always present, all-zero on clean input: consumers can rely on
        // the sections existing.
        report.data_quality = Some(quarantine.summary(quarantine_samples));
        report.durability = Some(p2o_obs::DurabilitySummary {
            atomic_writes: io.writes,
            artifacts_verified: scan.verified,
            torn_detected,
            checkpoint: ckpt_decision.to_string(),
            faults_injected: io.faults_injected(),
        });
        report.memory = Some(p2o_obs::MemorySummary {
            peak_rss_bytes: p2o_obs::process_peak_rss_bytes(),
        });
        if let Some(path) = report_path {
            let text = report.to_json_string();
            if report_to_stdout {
                print_answers(|stdout| writeln!(stdout, "{text}"))?;
            } else {
                let written =
                    atomic::write_atomic_parts(&vfs, Path::new(path), "report", &[text.as_bytes()])
                        .map_err(|e| format!("writing report {path}: {e}"))?;
                stamp.record_entry("report", path, written);
            }
            eprint!("{}", report.summary_table());
            if !report_to_stdout {
                eprintln!("run report written to {path}");
            }
        }
        if let Some(path) = metrics_path {
            let text = p2o_obs::promexpo::to_prometheus(&report);
            let written =
                atomic::write_atomic_parts(&vfs, Path::new(path), "metrics", &[text.as_bytes()])
                    .map_err(|e| format!("writing metrics {path}: {e}"))?;
            stamp.record_entry("metrics", path, written);
            eprintln!("Prometheus metrics written to {path}");
        }
        if let Some(path) = trace_path {
            let trace = o.take_trace();
            let text = trace.to_chrome_json_string();
            let written =
                atomic::write_atomic_parts(&vfs, Path::new(path), "trace", &[text.as_bytes()])
                    .map_err(|e| format!("writing trace {path}: {e}"))?;
            stamp.record_entry("trace", path, written);
            eprintln!(
                "Chrome trace ({} events across {} threads) written to {path}",
                trace.event_count(),
                trace.threads.len()
            );
        }
    }

    // The stamp is written last: a kill anywhere above leaves no (or a
    // stale) stamp, and `--resume` recomputes.
    stamp.save(&vfs, out).map_err(|e| {
        format!(
            "writing checkpoint {}: {e}",
            checkpoint::stamp_path(out).display()
        )
    })?;

    let m = dataset.metrics();
    let summary = [
        format!("dataset: {} prefixes -> {}", dataset.len(), out.display()),
        format!(
            "  frozen dataset: {frozen_bytes} bytes -> {}",
            frozen_path.display()
        ),
        format!(
            "  IPv4 {} / IPv6 {}; {} Direct Owners, {} base names, {} final clusters",
            m.ipv4_prefixes, m.ipv6_prefixes, m.direct_owners, m.base_names, m.final_clusters
        ),
        format!(
            "  multi-name clusters: {} holding {:.1}% of routed IPv4 space",
            m.multi_name_clusters, m.pct_v4_space_multi_name
        ),
        format!(
            "  unresolved prefixes: {} ({:.3}%)",
            m.unresolved_prefixes,
            100.0 * m.unresolved_prefixes as f64 / routes.len().max(1) as f64
        ),
    ];
    // When the JSON report goes to stdout, the human summary must not
    // corrupt it — divert the summary to stderr.
    if report_to_stdout {
        summary.iter().for_each(|line| eprintln!("{line}"));
        return Ok(());
    }
    print_answers(|stdout| {
        summary
            .iter()
            .try_for_each(|line| writeln!(stdout, "{line}"))
    })
}

/// `fsck`: audit a data directory for torn writes, leftover tmp files,
/// damaged checkpoint stamps, and unsupported format versions.
pub fn fsck(args: &Parsed) -> Result<(), CliError> {
    let dir = args
        .positional()
        .first()
        .map(String::as_str)
        .or_else(|| args.get("in"))
        .ok_or("fsck needs a directory argument (fsck DIR)")?;
    let vfs = Vfs::from_env().map_err(CliError::General)?;
    let mut report = fsck::audit(&vfs, Path::new(dir))?;
    for note in &report.notes {
        eprintln!("note: {note}");
    }
    print_answers(|out| {
        report
            .findings
            .iter()
            .try_for_each(|finding| writeln!(out, "{finding}"))
    })?;
    if args.has("gc") {
        let removed = fsck::gc(&vfs, Path::new(dir))?;
        print_answers(|out| {
            removed
                .iter()
                .try_for_each(|path| writeln!(out, "gc: removed {path}"))
        })?;
        eprintln!("gc: removed {} debris file(s)", removed.len());
        // The exit code reflects the directory *after* collection: debris
        // that --gc swept is no longer damage, anything else still is.
        report = fsck::audit(&vfs, Path::new(dir))?;
    }
    if report.findings.is_empty() {
        print_answers(|out| writeln!(out, "{dir}: ok ({} artifacts verified)", report.verified))
    } else {
        Err(CliError::Integrity(format!(
            "{} integrity finding(s) in {dir}",
            report.findings.len()
        )))
    }
}

/// `explain`: print the provenance rule chain behind each query's answer.
///
/// The directory is loaded exactly as `serve` boots it
/// ([`load_snapshot`]), and each query is answered by the record `/prefix`
/// would match: its stored trace, after a `covered by` note when the query
/// is more specific than the record.
pub fn explain(args: &Parsed) -> Result<(), CliError> {
    let dir = Path::new(args.require("in")?);
    let threads = args
        .get_num::<usize>("threads")?
        .unwrap_or_else(prefix2org::default_threads)
        .max(1);
    let queries = prefix_args(args, "explain")?;
    let snapshot = load_snapshot(dir, args.get("exceptions").map(Path::new), threads)
        .map_err(CliError::Integrity)?;
    let frozen = snapshot.frozen();
    print_answers(|out| {
        for (i, prefix) in queries.iter().enumerate() {
            if i > 0 {
                writeln!(out)?;
            }
            match frozen.lookup(prefix) {
                None => writeln!(out, "{prefix}: no covering record in the frozen dataset")?,
                Some((matched, idx)) => {
                    if matched != *prefix {
                        writeln!(
                            out,
                            "{prefix}: covered by {matched}; its stored trace follows"
                        )?;
                    }
                    write!(out, "{}", frozen.provenance(idx))?;
                }
            }
        }
        Ok(())
    })
}

/// A query command's prefix arguments, parsed; at least one is required.
fn prefix_args(args: &Parsed, command: &str) -> Result<Vec<Prefix>, CliError> {
    let queries = args
        .positional()
        .iter()
        .map(|q| q.parse::<Prefix>().map_err(|e| format!("{q:?}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    if queries.is_empty() {
        return Err(format!("{command} needs at least one prefix argument").into());
    }
    Ok(queries)
}

/// Writes a command's output through one locked, buffered stdout: every
/// line the CLI prints goes through here. A closed stdout (`| head`) ends
/// the output quietly, with success; any other write failure is an error.
pub(crate) fn print_answers(
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), CliError> {
    let mut out = io::BufWriter::new(io::stdout().lock());
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        written => written.map_err(|e| format!("writing to stdout: {e}").into()),
    }
}

fn load_dataset(path: &str) -> Result<Vec<ExportRecord>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    prefix2org::from_jsonl(&text)
}

/// `lookup`: longest-match queries against a JSONL snapshot.
pub fn lookup(args: &Parsed) -> Result<(), CliError> {
    let records = load_dataset(args.require("dataset")?)?;
    let queries = prefix_args(args, "lookup")?;
    let by_prefix: std::collections::HashMap<Prefix, &ExportRecord> =
        records.iter().map(|rec| (rec.prefix, rec)).collect();
    // Longest match: probe the query, then each shorter supernet, and stop
    // at the first that is a record.
    let supernet = |p: &Prefix| match p {
        Prefix::V4(p) => p.supernet().map(Prefix::V4),
        Prefix::V6(p) => p.supernet().map(Prefix::V6),
    };
    print_answers(|out| {
        for prefix in queries {
            let covering = std::iter::successors(Some(prefix), supernet)
                .find_map(|p| by_prefix.get(&p).copied());
            match covering {
                None => writeln!(out, "{prefix}: no covering routed prefix in the snapshot")?,
                Some(rec) => {
                    writeln!(out, "{prefix} -> routed as {}", rec.prefix)?;
                    writeln!(
                        out,
                        "  Direct Owner : {} ({})",
                        rec.direct_owner, rec.do_alloc
                    )?;
                    writeln!(
                        out,
                        "  DO block     : {} via {}",
                        rec.do_prefix, rec.registry
                    )?;
                    for (name, block, alloc) in &rec.delegated_customers {
                        writeln!(
                            out,
                            "  Customer     : {name} ({} on {block})",
                            alloc.keyword()
                        )?;
                    }
                    writeln!(out, "  Cluster      : {}", rec.final_cluster)?;
                }
            }
        }
        Ok(())
    })
}

/// `org`: list the prefixes attributed to an organization name fragment.
pub fn org(args: &Parsed) -> Result<(), CliError> {
    let records = load_dataset(args.require("dataset")?)?;
    let needle = args
        .positional()
        .first()
        .ok_or("org needs a NAME argument")?;
    let needle = p2o_strings::clean::basic_clean(needle);
    // Match cluster labels and owner names, like the validation path.
    let mut clusters: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for rec in &records {
        if p2o_strings::clean::basic_clean(&rec.direct_owner).contains(&needle)
            || rec.final_cluster == needle
            || rec.final_cluster.starts_with(&format!("{needle}-"))
        {
            clusters.insert(&rec.final_cluster);
        }
    }
    print_answers(|out| {
        if clusters.is_empty() {
            return writeln!(out, "no organization matching {needle:?}");
        }
        for cluster in clusters {
            writeln!(out, "{cluster}:")?;
            for rec in records.iter().filter(|r| r.final_cluster == cluster) {
                writeln!(
                    out,
                    "  {}  {} [{}]",
                    rec.prefix,
                    rec.direct_owner,
                    rec.do_alloc.keyword()
                )?;
            }
        }
        Ok(())
    })
}

/// `stats`: summarize a JSONL snapshot.
pub fn stats(args: &Parsed) -> Result<(), CliError> {
    let records = load_dataset(args.require("dataset")?)?;
    let mut v4 = 0usize;
    let mut v6 = 0usize;
    let mut owners = std::collections::BTreeSet::new();
    let mut clusters: std::collections::BTreeMap<&str, (usize, u64)> =
        std::collections::BTreeMap::new();
    let mut per_registry: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let mut legacy = 0usize;
    let mut with_customers = 0usize;
    for rec in &records {
        match rec.prefix {
            Prefix::V4(p) => {
                v4 += 1;
                let slot = clusters.entry(&rec.final_cluster).or_default();
                slot.0 += 1;
                slot.1 += p.num_addrs();
            }
            Prefix::V6(_) => {
                v6 += 1;
                clusters.entry(&rec.final_cluster).or_default().0 += 1;
            }
        }
        owners.insert(rec.direct_owner.as_str());
        *per_registry.entry(rec.registry.to_string()).or_default() += 1;
        if rec.do_alloc.is_legacy() {
            legacy += 1;
        }
        if !rec.delegated_customers.is_empty() {
            with_customers += 1;
        }
    }
    let mut ranked: Vec<(&&str, &(usize, u64))> = clusters.iter().collect();
    ranked.sort_by_key(|e| std::cmp::Reverse(e.1 .1));
    print_answers(|out| {
        writeln!(
            out,
            "prefixes        : {} ({v4} IPv4, {v6} IPv6)",
            records.len()
        )?;
        writeln!(out, "direct owners   : {}", owners.len())?;
        writeln!(out, "final clusters  : {}", clusters.len())?;
        writeln!(out, "legacy-typed    : {legacy}")?;
        writeln!(out, "with customers  : {with_customers}")?;
        writeln!(out, "per registry    :")?;
        for (registry, count) in &per_registry {
            writeln!(out, "  {registry:<8} {count}")?;
        }
        writeln!(out, "largest clusters by IPv4 addresses:")?;
        for (label, (prefixes, addrs)) in ranked.into_iter().take(10) {
            writeln!(
                out,
                "  {label:<24} {prefixes:>5} prefixes  {addrs:>12} addresses"
            )?;
        }
        Ok(())
    })
}

/// `diff`: compare two JSONL snapshots.
pub fn diff(args: &Parsed) -> Result<(), CliError> {
    let old = load_dataset(args.require("old")?)?;
    let new = load_dataset(args.require("new")?)?;
    let delta = prefix2org::delta::diff_exports(&old, &new);
    print_answers(|out| {
        writeln!(
            out,
            "snapshots: {} -> {} prefixes; {} unchanged",
            old.len(),
            new.len(),
            delta.unchanged
        )?;
        writeln!(
            out,
            "added {} / removed {} / owner changes {} / customer churn {}",
            delta.added.len(),
            delta.removed.len(),
            delta.owner_changes.len(),
            delta.customer_changes.len()
        )?;
        for change in delta.owner_changes.iter().take(20) {
            writeln!(
                out,
                "  transfer {}: {} -> {}",
                change.prefix, change.from, change.to
            )?;
        }
        if delta.owner_changes.len() > 20 {
            writeln!(out, "  ... {} more", delta.owner_changes.len() - 20)?;
        }
        Ok(())
    })
}

/// `validate`: evaluate a snapshot against a directory's ground truth.
///
/// An organization's predicted prefixes are those of every final cluster
/// holding a record whose cleaned Direct Owner contains the list's cleaned
/// name. Each distinct owner name is cleaned once and indexed by trigram,
/// so a list checks only the names that can contain its own, and each
/// list's prediction is taken once and split by family.
pub fn validate(args: &Parsed) -> Result<(), CliError> {
    let dir = Path::new(args.require("in")?);
    let records = load_dataset(args.require("dataset")?)?;
    let truth = store::load_truth(&Vfs::real(), dir)?;
    if truth.is_empty() {
        return Err(format!("{} has no truth/lists.tsv", dir.display()).into());
    }

    // Rebuild a queryable dataset view from the export: org -> prefixes via
    // cluster labels, and each distinct cleaned owner name -> the clusters
    // of its records.
    let mut by_cluster: HashMap<&str, Vec<Prefix>> = HashMap::new();
    let mut routed: HashSet<Prefix> = HashSet::new();
    let mut by_owner: HashMap<&str, HashSet<&str>> = HashMap::new();
    for rec in &records {
        by_cluster
            .entry(&rec.final_cluster)
            .or_default()
            .push(rec.prefix);
        routed.insert(rec.prefix);
        by_owner
            .entry(&rec.direct_owner)
            .or_default()
            .insert(&rec.final_cluster);
    }
    let owners: Vec<(String, HashSet<&str>)> = by_owner
        .into_iter()
        .map(|(owner, clusters)| (p2o_strings::clean::basic_clean(owner), clusters))
        .collect();
    let index = TrigramIndex::new(owners.iter().map(|(name, _)| name.as_str()));
    let predicted_for = |org_name: &str| -> Vec<Prefix> {
        let needle = p2o_strings::clean::basic_clean(org_name);
        let clusters: HashSet<&str> = index
            .candidates(&needle)
            .map(|i| &owners[i])
            .filter(|(name, _)| name.contains(&needle))
            .flat_map(|(_, clusters)| clusters.iter().copied())
            .collect();
        let mut out: Vec<Prefix> = clusters
            .into_iter()
            .flat_map(|cluster| by_cluster[cluster].iter().copied())
            .collect();
        out.sort();
        out.dedup();
        out
    };

    print_answers(|out| {
        writeln!(
            out,
            "{:<40} {:>5} {:>5} {:>5} {:>5} {:>5} {:>9} {:>7}",
            "Organization", "True", "Pred", "TP", "FP", "FN", "Precision", "Recall"
        )?;
        let mut tot = (0usize, 0usize, 0usize, 0usize, 0usize);
        for list in &truth {
            let predicted_all = predicted_for(&list.org_name);
            for family in [AddressFamily::V4, AddressFamily::V6] {
                let truth: Vec<Prefix> = list
                    .prefixes
                    .iter()
                    .filter(|p| p.family() == family && routed.contains(p))
                    .copied()
                    .collect();
                if truth.is_empty() {
                    continue;
                }
                let predicted: Vec<Prefix> = predicted_all
                    .iter()
                    .filter(|p| p.family() == family)
                    .copied()
                    .collect();
                let tp = predicted
                    .iter()
                    .filter(|p| truth.iter().any(|t| t.contains(p)))
                    .count();
                let fp = predicted.len() - tp;
                let fnn = truth
                    .iter()
                    .filter(|t| !predicted.iter().any(|p| t.contains(p) || p.contains(t)))
                    .count();
                let precision = if tp + fp == 0 {
                    100.0
                } else {
                    100.0 * tp as f64 / (tp + fp) as f64
                };
                let recall = 100.0 * (truth.len() - fnn) as f64 / truth.len() as f64;
                let kind = if list.exhaustive {
                    "exhaustive"
                } else {
                    "public"
                };
                writeln!(
                    out,
                    "{:<40} {:>5} {:>5} {:>5} {:>5} {:>5} {:>9.2} {:>7.2}",
                    format!("{} ({family}, {kind})", list.org_name),
                    truth.len(),
                    predicted.len(),
                    tp,
                    fp,
                    fnn,
                    precision,
                    recall
                )?;
                tot = (
                    tot.0 + truth.len(),
                    tot.1 + predicted.len(),
                    tot.2 + tp,
                    tot.3 + fp,
                    tot.4 + fnn,
                );
            }
        }
        let precision = if tot.2 + tot.3 == 0 {
            100.0
        } else {
            100.0 * tot.2 as f64 / (tot.2 + tot.3) as f64
        };
        let recall = if tot.0 == 0 {
            100.0
        } else {
            100.0 * (tot.0 - tot.4) as f64 / tot.0 as f64
        };
        writeln!(
            out,
            "{:<40} {:>5} {:>5} {:>5} {:>5} {:>5} {:>9.2} {:>7.2}",
            "Total", tot.0, tot.1, tot.2, tot.3, tot.4, precision, recall
        )
    })
}

/// Names indexed by the byte trigrams they hold. A name that contains a
/// needle holds every trigram of the needle, so a substring search need
/// only check the names holding the needle's rarest trigram.
struct TrigramIndex {
    names: usize,
    /// For each trigram, the indices of the names holding it, ascending.
    postings: HashMap<[u8; 3], Vec<u32>>,
}

impl TrigramIndex {
    fn new<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> TrigramIndex {
        let count = names.len();
        let mut postings: HashMap<[u8; 3], Vec<u32>> = HashMap::new();
        for (i, name) in names.enumerate() {
            for trigram in name.as_bytes().windows(3) {
                let posting = postings
                    .entry(trigram.try_into().expect("3 bytes"))
                    .or_default();
                if posting.last() != Some(&(i as u32)) {
                    posting.push(i as u32);
                }
            }
        }
        TrigramIndex {
            names: count,
            postings,
        }
    }

    /// The indices of the names that may contain `needle`, ascending: those
    /// holding its rarest trigram, or every name when the needle is shorter
    /// than a trigram.
    fn candidates<'s>(&'s self, needle: &str) -> Box<dyn Iterator<Item = usize> + 's> {
        if needle.len() < 3 {
            return Box::new(0..self.names);
        }
        let rarest = needle
            .as_bytes()
            .windows(3)
            .map(|trigram| self.postings.get(trigram).map_or(&[][..], Vec::as_slice))
            .min_by_key(|posting| posting.len())
            .unwrap_or_default();
        Box::new(rarest.iter().map(|&i| i as usize))
    }
}

/// Loads `dir` the one way `serve` and `explain` answer from it: the fsck
/// audit, the rule file at `exceptions_path` parsed strictly, then the
/// directory's `world.p2ob` attached when its stamped inputs digest is
/// current, and otherwise a full load on `threads` threads frozen in
/// memory. An error refuses the directory: `serve` exits 2 at boot and
/// answers 503 on `/reload`, `explain` exits 2. The snapshot records how
/// long the load took and how much of it was the integrity pass.
fn load_snapshot(
    dir: &Path,
    exceptions_path: Option<&Path>,
    threads: usize,
) -> Result<p2o_serve::Snapshot, String> {
    let started = std::time::Instant::now();
    let vfs = Vfs::from_env()?;
    let report = fsck::audit(&vfs, dir)?;
    if !report.findings.is_empty() {
        return Err(format!(
            "{} integrity finding(s) in {} (run `prefix2org fsck` for details)",
            report.findings.len(),
            dir.display()
        ));
    }
    // The exceptions file is re-read on every load — boot and each
    // /reload — so edited rules land with a reload, no restart. Answering
    // is strict where build is lenient: any rejected line refuses the
    // load (exit 2 at boot, 503 on reload) and, on reload, the old
    // snapshot keeps serving — a torn rule file can delay an update but
    // never changes an answer.
    let exceptions_text = match exceptions_path {
        None => None,
        Some(p) => Some(
            vfs.read_to_string(p)
                .map_err(|e| format!("reading exceptions {}: {e}", p.display()))?,
        ),
    };
    let exceptions = match &exceptions_text {
        None => prefix2org::ExceptionSet::new(),
        Some(text) => {
            let (set, rejected) = prefix2org::ExceptionSet::parse_lenient(text);
            if let Some(first) = rejected.first() {
                return Err(format!(
                    "exceptions file {}: {} rejected line(s); first: line {}: {} ({})",
                    exceptions_path.expect("text implies path").display(),
                    rejected.len(),
                    first.offset,
                    first.message,
                    first.kind.counter_suffix(),
                ));
            }
            set
        }
    };
    // Every snapshot serves a frozen dataset. Attach the artifact the
    // audit just validated when its stamped inputs digest matches the
    // directory's current one, which the audit's read of the inputs
    // yields. The current digest includes this load's exception rules, so
    // an artifact built with different (or no) rules reads as stale. A missing or stale artifact costs a full
    // load, frozen in memory by the same verified freeze `build` runs —
    // the answers are identical either way, only the boot time differs.
    let integrity = report.integrity;
    let timed = |mut snapshot: p2o_serve::Snapshot| {
        snapshot.timing = p2o_serve::LoadTiming {
            load: started.elapsed(),
            integrity,
        };
        snapshot
    };
    if let (Some(frozen), Some(files_digest)) = (report.frozen, report.files_digest) {
        let current = checkpoint::canonical_inputs_digest(
            files_digest,
            exceptions_text.as_deref().map(str::as_bytes),
        );
        if frozen.inputs_digest() == current {
            return Ok(timed(p2o_serve::Snapshot::from_frozen(
                dir.to_path_buf(),
                0,
                frozen,
            )));
        }
        eprintln!(
            "warning: {}: frozen artifact is stale (inputs changed since it was \
             built); freezing a full load in memory",
            dir.join(prefix2org::FROZEN_FILE).display()
        );
    }
    let inputs = store::load_inputs(&vfs, dir, None, threads, store::IngestMode::Lenient)
        .map_err(|e| e.to_string())?
        .inputs;
    p2o_serve::Snapshot::freeze_in_memory(
        dir.to_path_buf(),
        0,
        &PipelineInputs {
            delegations: &inputs.tree,
            routes: &inputs.routes,
            asn_clusters: &inputs.clusters,
            rpki: &inputs.rpki,
        },
        &exceptions,
        threads,
    )
    .map(timed)
}

/// `serve`: the long-running lookup service over a built artifact
/// directory.
///
/// The directory is audited through the same fsck machinery the `fsck`
/// command uses *before* anything is loaded — a damaged dir refuses to
/// start with exit code 2 and a one-line diagnostic. The same gate guards
/// every `/reload`: the loader closure re-runs the audit and the
/// crash-safe store load, so a reload onto a torn directory is rejected
/// and the old snapshot keeps serving.
pub fn serve(args: &Parsed) -> Result<(), CliError> {
    let dir = args
        .positional()
        .first()
        .map(String::as_str)
        .or_else(|| args.get("in"))
        .ok_or("serve needs a directory argument (serve DIR)")?;
    let dir = Path::new(dir);
    let addr = args.get("addr").unwrap_or("127.0.0.1:8642").to_string();
    let threads = args
        .get_num::<usize>("threads")?
        .unwrap_or_else(prefix2org::default_threads)
        .max(1);
    let allow_quit = args.has("allow-quit");
    let exceptions_path = args.get("exceptions").map(std::path::PathBuf::from);
    let access_log = args
        .get("access-log")
        .map(|path| -> Result<p2o_serve::AccessLog, CliError> {
            let vfs = Vfs::from_env().map_err(CliError::General)?;
            Ok(p2o_serve::AccessLog::new(vfs, Path::new(path)))
        })
        .transpose()?;

    let loader: p2o_serve::SnapshotLoader = std::sync::Arc::new(move |dir: &Path| {
        load_snapshot(dir, exceptions_path.as_deref(), threads)
    });

    // Boot load through the same gate; an unhealthy directory is an
    // integrity error (exit 2), matching `fsck`.
    let initial = loader(dir).map_err(CliError::Integrity)?;
    eprintln!(
        "loaded {} ({} prefixes, snapshot {}{}{}) in {} ms",
        dir.display(),
        initial.len(),
        initial.digest,
        if initial.from_artifact() {
            ", frozen"
        } else {
            ""
        },
        match initial.exception_count() {
            0 => String::new(),
            n => format!(", {n} exception override(s)"),
        },
        initial.timing.load.as_millis()
    );
    let config = p2o_serve::ServerConfig {
        addr,
        access_log,
        allow_quit,
        ..Default::default()
    };
    let server = p2o_serve::spawn(config, initial, loader).map_err(CliError::General)?;
    // The parseable readiness line tools (bench harness, chaos tests)
    // wait for; keep the format stable.
    print_answers(|out| writeln!(out, "listening on {}", server.addr))?;
    server.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index finds exactly the names a full `contains` scan finds, for
    /// needles of every length (the empty one included) drawn from the
    /// names themselves and at random, over ASCII and multi-byte names.
    #[test]
    fn trigram_candidates_find_what_a_full_scan_finds() {
        p2o_util::check::run_cases(200, |g| {
            let names: Vec<String> = (0..g.below(40))
                .map(|_| match g.below(3) {
                    0 => g.unicode_string(12),
                    _ => g.string_from("abc d", 12),
                })
                .collect();
            let index = TrigramIndex::new(names.iter().map(String::as_str));
            for _ in 0..20 {
                let needle = match (g.below(3), names.is_empty()) {
                    (0, false) => {
                        let name = g.pick(&names).as_bytes();
                        let start = g.below(name.len() + 1);
                        let end = start + g.below(name.len() - start + 1);
                        String::from_utf8_lossy(&name[start..end]).into_owned()
                    }
                    (1, _) => g.unicode_string(4),
                    _ => g.string_from("abc d", 5),
                };
                let found: Vec<usize> = index
                    .candidates(&needle)
                    .filter(|&i| names[i].contains(&needle))
                    .collect();
                let want: Vec<usize> = (0..names.len())
                    .filter(|&i| names[i].contains(&needle))
                    .collect();
                assert_eq!(found, want, "needle {needle:?} in {names:?}");
            }
        });
    }
}
