//! Kill-point chaos harness: run `build` in a subprocess, kill it at every
//! seeded kill-point in the atomic-write protocol, resume, and prove the
//! final export is byte-identical to an uninterrupted run. This is the
//! tentpole durability property: **a crash at any write boundary loses no
//! committed data and never corrupts the export**.
//!
//! The faults are injected through the `P2O_VFS_FAULT` environment
//! variable (see `p2o_util::vfs`); a fired kill-point exits with the
//! distinctive code 86 so the harness can tell an injected kill from a
//! genuine failure.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use p2o_util::vfs::{ENV_FAULT, KILL_EXIT_CODE};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_prefix2org")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .env_remove(ENV_FAULT)
        .output()
        .expect("binary runs")
}

fn run_faulted(args: &[&str], fault: &str) -> Output {
    Command::new(bin())
        .args(args)
        .env(ENV_FAULT, fault)
        .output()
        .expect("binary runs")
}

fn run_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "command {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p2o-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Generates a world into `dir` and returns the full `build` argument
/// vector (report + metrics + trace bound to files, so every kill-point
/// label in the build path is reachable).
fn generate(dir: &Path, seed: &str) -> Vec<String> {
    let dir_s = dir.to_str().unwrap().to_string();
    run_ok(&[
        "generate", "--out", &dir_s, "--scale", "tiny", "--seed", seed,
    ]);
    [
        "build",
        "--in",
        &dir_s,
        "--out",
        dir.join("dataset.jsonl").to_str().unwrap(),
        "--threads",
        "2",
        "--report",
        dir.join("run.json").to_str().unwrap(),
        "--metrics",
        dir.join("metrics.prom").to_str().unwrap(),
        "--trace",
        dir.join("trace.json").to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn as_strs(args: &[String]) -> Vec<&str> {
    args.iter().map(String::as_str).collect()
}

/// The tentpole property: for every kill-point in the build's atomic-write
/// protocol, a build killed there and then resumed produces an export
/// byte-identical to one that was never interrupted.
#[test]
fn killed_build_resumes_to_byte_identical_export() {
    let dir = temp_dir("kill-matrix");
    let build = generate(&dir, "77");
    let dataset = dir.join("dataset.jsonl");

    // Uninterrupted golden run.
    run_ok(&as_strs(&build));
    let golden = std::fs::read(&dataset).expect("golden export");
    assert!(!golden.is_empty());

    // Every label the build writes, at every protocol phase worth killing:
    // `partial` (before the tmp write), `tmp` (tmp written, not renamed),
    // `final` (renamed, later artifacts missing).
    let kill_points = [
        "export@partial",
        "export@tmp",
        "export@final",
        "frozen@partial",
        "frozen@tmp",
        "frozen@final",
        "report@partial",
        "report@tmp",
        "metrics@partial",
        "trace@tmp",
        "ckpt@partial",
        "ckpt@tmp",
    ];
    let mut resume = build.clone();
    resume.push("--resume".to_string());
    for point in kill_points {
        // Start from a cold cache each round so the kill is exercised
        // against a real write, not a skip.
        let _ = std::fs::remove_file(dir.join("dataset.jsonl.ckpt"));

        let out = run_faulted(&as_strs(&build), &format!("kill:{point}"));
        assert_eq!(
            out.status.code(),
            Some(KILL_EXIT_CODE),
            "kill-point {point} did not fire:\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        // Resume. Whatever the kill left behind (missing export, stray tmp
        // file, stale artifacts, missing stamp), the resumed build must
        // converge to the golden bytes without manual cleanup.
        let out = run(&as_strs(&resume));
        assert!(
            out.status.success(),
            "resume after {point} failed:\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let recovered = std::fs::read(&dataset).expect("recovered export");
        assert_eq!(
            recovered, golden,
            "export differs from golden after kill at {point}"
        );
    }

    // With the stamp intact a second `--resume` run skips the build.
    let out = run(&as_strs(&resume));
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("resumed"),
        "clean re-run did not skip: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(std::fs::read(&dataset).unwrap(), golden);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded short-write storms: whatever subset of writes a seed tears, a
/// clean resume converges to the golden export, and `fsck` flags the
/// debris of every interrupted run.
#[test]
fn short_write_storms_recover_across_seeds() {
    let dir = temp_dir("short-seeds");
    let build = generate(&dir, "78");
    let dataset = dir.join("dataset.jsonl");

    run_ok(&as_strs(&build));
    let golden = std::fs::read(&dataset).expect("golden export");

    let mut resume = build.clone();
    resume.push("--resume".to_string());
    for seed in ["1", "2", "3", "4", "5", "6", "7"] {
        let _ = std::fs::remove_file(dir.join("dataset.jsonl.ckpt"));
        // Roughly every other write is torn short and errors. Whether or
        // not this particular seed's schedule hits a write the build
        // needs, the export is never half-written: it either still holds
        // the golden bytes (rename never happened, or the run got lucky)
        // or doesn't exist.
        let _ = run_faulted(&as_strs(&build), &format!("short:{seed}:2"));
        if dataset.exists() {
            assert_eq!(
                std::fs::read(&dataset).unwrap(),
                golden,
                "seed {seed}: torn write reached the published export"
            );
        }
        let out = run(&as_strs(&resume));
        assert!(
            out.status.success(),
            "seed {seed}: resume failed:\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read(&dataset).unwrap(),
            golden,
            "seed {seed}: recovered export differs from golden"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// ENOSPC and EIO mid-write never touch the published artifact, and
/// `fsck` detects the leftover tmp debris and exits 2.
#[test]
fn write_errors_leave_old_artifact_intact_and_fsck_flags_debris() {
    let dir = temp_dir("eio");
    let build = generate(&dir, "79");
    let dataset = dir.join("dataset.jsonl");
    let dir_s = dir.to_str().unwrap();

    run_ok(&as_strs(&build));
    let golden = std::fs::read(&dataset).expect("golden export");
    let out = run(&["fsck", dir_s]);
    assert!(
        out.status.success(),
        "clean directory must fsck clean:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    for fault in ["eio:dataset.jsonl", "enospc:4096"] {
        let _ = std::fs::remove_file(dir.join("dataset.jsonl.ckpt"));
        let out = run_faulted(&as_strs(&build), fault);
        assert!(!out.status.success(), "{fault}: faulted build must fail");
        // Atomicity: the published export still holds the old bytes.
        assert_eq!(
            std::fs::read(&dataset).unwrap(),
            golden,
            "{fault}: fault reached the published export"
        );
        // The failed write leaves a tmp file behind; fsck finds it and
        // exits 2 (the integrity exit code).
        let out = run(&["fsck", dir_s]);
        assert_eq!(out.status.code(), Some(2), "{fault}: fsck missed debris");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("leftover tmp"),
            "{fault}: fsck did not name the tmp file:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );

        // Recovery clears the debris: the tmp path is rewritten and
        // renamed away by the next successful atomic write.
        let out = run(&as_strs(&build));
        assert!(
            out.status.success(),
            "{fault}: recovery build failed:\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(std::fs::read(&dataset).unwrap(), golden);
        let out = run(&["fsck", dir_s]);
        assert!(
            out.status.success(),
            "recovered directory must fsck clean:\nstdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fault on the export write while the freeze runs beside it ends the
/// build as a serial build ends it: at one thread (export, then freeze)
/// and at two (the freeze beside the export) the exit code, stderr and
/// debris are the same — the export's error or kill line last, a tmp
/// export, no export, no `world.p2ob`, no stamp — and `fsck` names the
/// one leftover file.
#[test]
fn export_faults_beside_the_freeze_end_the_build_as_a_serial_build_does() {
    let clean = temp_dir("lane-clean");
    let clean_s = clean.to_str().unwrap();
    run_ok(&[
        "generate", "--out", clean_s, "--scale", "tiny", "--seed", "7",
    ]);
    let export = clean.join("dataset.jsonl");
    run_ok(&["build", "--in", clean_s, "--out", export.to_str().unwrap()]);
    let export_len = std::fs::metadata(&export).unwrap().len();
    let _ = std::fs::remove_dir_all(&clean);

    let dir = temp_dir("lane-fault");
    let dir_s = dir.to_str().unwrap();
    let out = dir.join("dataset.jsonl");
    let out_s = out.to_str().unwrap();
    for (fault, code, last_line) in [
        (
            "enospc:4096",
            1,
            format!(
                "prefix2org: error: writing {out_s}: injected ENOSPC writing \
                 {out_s}.p2o-tmp (4096 of {export_len} bytes fit, op 0)"
            ),
        ),
        (
            "eio:dataset.jsonl",
            1,
            format!(
                "prefix2org: error: writing {out_s}: injected EIO writing {out_s}.p2o-tmp (op 0)"
            ),
        ),
        (
            "kill:export@tmp",
            KILL_EXIT_CODE,
            format!("vfs: kill-point export@tmp fired; exiting {KILL_EXIT_CODE}"),
        ),
    ] {
        let mut stderrs = Vec::new();
        for threads in ["1", "2"] {
            let _ = std::fs::remove_dir_all(&dir);
            run_ok(&["generate", "--out", dir_s, "--scale", "tiny", "--seed", "7"]);
            let built = run_faulted(
                &["build", "--in", dir_s, "--out", out_s, "--threads", threads],
                fault,
            );
            let stderr = String::from_utf8(built.stderr).unwrap();
            assert_eq!(
                built.status.code(),
                Some(code),
                "{fault} at {threads}: {stderr}"
            );
            assert!(built.stdout.is_empty(), "{fault} at {threads}");
            assert_eq!(stderr.lines().last(), Some(last_line.as_str()), "{fault}");
            stderrs.push(stderr.replace(
                &format!("clustering with {threads} threads"),
                "clustering with N threads",
            ));
            for gone in ["dataset.jsonl", "world.p2ob", "dataset.jsonl.ckpt"] {
                assert!(!dir.join(gone).exists(), "{fault} at {threads}: {gone}");
            }
            assert!(dir.join("dataset.jsonl.p2o-tmp").exists(), "{fault}");
            let fsck = run(&["fsck", dir_s]);
            assert_eq!(fsck.status.code(), Some(2), "{fault} at {threads}");
            assert_eq!(
                String::from_utf8(fsck.stdout).unwrap(),
                "dataset.jsonl.p2o-tmp: leftover tmp file from an interrupted atomic write\n",
                "{fault} at {threads}"
            );
        }
        assert_eq!(
            stderrs[0], stderrs[1],
            "{fault}: stderr differs by thread count"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `generate` is covered by the same protocol: a kill mid-store leaves a
/// directory that `fsck` flags (or a manifest that is simply missing),
/// and regeneration converges to identical artifacts.
#[test]
fn killed_generate_regenerates_identically() {
    let dir = temp_dir("gen-kill");
    let dir_s = dir.to_str().unwrap().to_string();
    let gen: Vec<&str> = vec![
        "generate", "--out", &dir_s, "--scale", "tiny", "--seed", "80",
    ];

    run_ok(&gen);
    let golden_mrt = std::fs::read(dir.join("rib.mrt")).unwrap();
    let golden_meta = std::fs::read(dir.join("meta.tsv")).unwrap();

    for point in ["store@tmp", "manifest@partial"] {
        let out = run_faulted(&gen, &format!("kill:{point}"));
        assert_eq!(
            out.status.code(),
            Some(KILL_EXIT_CODE),
            "kill-point {point} did not fire"
        );
        run_ok(&gen);
        assert_eq!(std::fs::read(dir.join("rib.mrt")).unwrap(), golden_mrt);
        assert_eq!(std::fs::read(dir.join("meta.tsv")).unwrap(), golden_meta);
        let out = run(&["fsck", &dir_s]);
        assert!(
            out.status.success(),
            "regenerated directory must fsck clean:\nstdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Frozen-artifact damage taxonomy: every distinct way `world.p2ob` can
/// rot on disk — truncation, a flipped byte under the frame digest, an
/// empty file, a corrupted arena endianness marker, and a future
/// format_version inside an intact frame — is flagged by `fsck` (exit 2)
/// and refuses `serve` boot, and a rebuild restores a clean, byte-identical
/// artifact.
#[test]
fn frozen_artifact_damage_taxonomy_is_flagged_and_recoverable() {
    let dir = temp_dir("frozen-damage");
    let build = generate(&dir, "83");
    let dir_s = dir.to_str().unwrap().to_string();
    let p2ob = dir.join("world.p2ob");

    run_ok(&as_strs(&build));
    let golden = std::fs::read(&p2ob).expect("frozen artifact written by build");
    let out = run(&["fsck", &dir_s]);
    assert!(out.status.success(), "clean directory must fsck clean");

    // Two damage families: bytes that break the outer frame (truncation,
    // flips, emptiness), and payload-level rot re-framed with a valid
    // digest so only the arena/format validators can catch it.
    let damage: Vec<(&str, Vec<u8>)> = vec![
        ("truncation", golden[..golden.len() / 2].to_vec()),
        ("bit flip under the frame digest", {
            let mut b = golden.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x01;
            b
        }),
        ("empty file", Vec::new()),
        ("endianness marker corruption", {
            // Frame header precedes the payload; the arena endianness
            // marker sits at payload offset 8. Flip it and re-frame so the
            // frame digest is valid but the arena layer rejects the bytes.
            let mut p = p2o_util::atomic::unframe(&golden).expect("golden unframes");
            p[8] ^= 0xFF;
            p2o_util::atomic::frame(&p)
        }),
        ("future format_version", {
            let mut p = p2o_util::atomic::unframe(&golden).expect("golden unframes");
            let meta = p2o_util::arena::ArenaIndex::parse(&p)
                .expect("golden arena parses")
                .get("meta")
                .expect("meta section");
            p[meta.start] = 0xFE;
            p2o_util::atomic::frame(&p)
        }),
    ];

    for (name, bytes) in &damage {
        std::fs::write(&p2ob, bytes).expect("inject damage");
        let out = run(&["fsck", &dir_s]);
        assert_eq!(out.status.code(), Some(2), "{name}: fsck missed the damage");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("frozen dataset"),
            "{name}: fsck did not attribute the damage:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        // The fsck gate refuses serve boot on the same damage.
        let out = run(&["serve", &dir_s, "--addr", "127.0.0.1:0"]);
        assert_eq!(out.status.code(), Some(2), "{name}: serve booted on damage");
        // Rebuild: deterministic freeze restores the exact golden bytes.
        let out = run(&as_strs(&build));
        assert!(
            out.status.success(),
            "{name}: rebuild failed:\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read(&p2ob).unwrap(),
            golden,
            "{name}: rebuilt artifact differs from golden"
        );
        let out = run(&["fsck", &dir_s]);
        assert!(out.status.success(), "{name}: rebuilt dir must fsck clean");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `world.p2ob` has one integrity record, its frame. `build` leaves
/// `MANIFEST.tsv` as `generate` wrote it; bytes appended past the declared
/// payload are frame damage that `fsck` names and that refuses `serve`
/// boot; and a `MANIFEST.tsv` row an older build wrote for the artifact,
/// even a stale one, neither fails the audit nor blocks the artifact boot.
#[test]
fn the_frame_alone_checks_the_frozen_artifact() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("frame-alone");
    let build = generate(&dir, "84");
    let dir_s = dir.to_str().unwrap().to_string();
    let generated = std::fs::read(dir.join("MANIFEST.tsv")).expect("manifest");
    run_ok(&as_strs(&build));
    assert_eq!(
        std::fs::read(dir.join("MANIFEST.tsv")).unwrap(),
        generated,
        "build must leave MANIFEST.tsv as generate wrote it"
    );
    let p2ob = dir.join("world.p2ob");
    let golden = std::fs::read(&p2ob).expect("frozen artifact written by build");

    std::fs::write(&p2ob, [&golden[..], b"\0\0\0\0"].concat()).expect("append");
    let out = run(&["fsck", &dir_s]);
    assert_eq!(out.status.code(), Some(2), "fsck missed the appended bytes");
    let findings = String::from_utf8_lossy(&out.stdout);
    assert!(
        findings.contains("world.p2ob: frozen dataset frame damaged: trailing bytes"),
        "{findings}"
    );
    let out = run(&["serve", &dir_s, "--addr", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2), "serve booted on trailing bytes");
    std::fs::write(&p2ob, &golden).expect("restore");

    let mut manifest = p2o_util::manifest::Manifest::load(&p2o_util::vfs::Vfs::real(), &dir)
        .expect("manifest parses")
        .expect("manifest present");
    manifest.record("world.p2ob", b"an artifact an older build wrote");
    manifest
        .save(&p2o_util::vfs::Vfs::real(), &dir)
        .expect("save manifest");
    let out = run(&["fsck", &dir_s]);
    assert!(
        out.status.success(),
        "a legacy world.p2ob row must not fail the audit:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let mut child = Command::new(bin())
        .args(["serve", &dir_s, "--addr", "127.0.0.1:0"])
        .env_remove(ENV_FAULT)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawning serve");
    let line = BufReader::new(child.stdout.take().expect("stdout"))
        .lines()
        .next()
        .expect("readiness line: the legacy row must not block boot")
        .expect("readable stdout");
    let addr = line
        .strip_prefix("listening on ")
        .expect("readiness format");
    let health = p2o_serve::HttpClient::connect(addr)
        .expect("connect")
        .get("/health")
        .expect("health");
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        health.text().contains("\"frozen\":true"),
        "boot must attach the artifact: {}",
        health.text()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serve-mode chaos: an fsck-damaged artifact directory refuses to start
/// with exit 2 and a one-line diagnostic, and a `/reload` pointed at a
/// torn directory is rejected while the old snapshot keeps serving.
#[test]
fn serve_refuses_damage_and_reload_keeps_the_old_snapshot() {
    use std::io::{BufRead, BufReader};

    let good = temp_dir("serve-good");
    run_ok(&[
        "generate",
        "--out",
        good.to_str().unwrap(),
        "--scale",
        "tiny",
        "--seed",
        "81",
    ]);
    let torn = temp_dir("serve-torn");
    run_ok(&[
        "generate",
        "--out",
        torn.to_str().unwrap(),
        "--scale",
        "tiny",
        "--seed",
        "82",
    ]);
    // Tear an artifact the manifest records: truncate it in place, the
    // way a crashed non-atomic writer would leave it.
    let manifest = std::fs::read_to_string(torn.join("MANIFEST.tsv")).expect("manifest");
    let victim = manifest
        .lines()
        .find(|l| !l.starts_with('#') && !l.trim().is_empty())
        .and_then(|l| l.split('\t').next())
        .expect("manifest lists an artifact")
        .to_string();
    let victim_path = torn.join(&victim);
    let bytes = std::fs::read(&victim_path).expect("victim readable");
    std::fs::write(&victim_path, &bytes[..bytes.len() / 2]).expect("truncate victim");

    // Boot on the torn directory: refused, exit 2, one-line diagnostic.
    let out = run(&["serve", torn.to_str().unwrap(), "--addr", "127.0.0.1:0"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "serve on a torn dir must exit 2:\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let diag: Vec<&str> = stderr.lines().collect();
    assert_eq!(diag.len(), 1, "one-line diagnostic, got:\n{stderr}");
    assert!(
        diag[0].contains("integrity error") && diag[0].contains("finding"),
        "diagnostic names the damage: {stderr}"
    );

    // Boot on the healthy directory and capture the served identity.
    let mut child = std::process::Command::new(bin())
        .args(["serve", good.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .env_remove(ENV_FAULT)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawning serve");
    let line = BufReader::new(child.stdout.take().expect("stdout"))
        .lines()
        .next()
        .expect("readiness line")
        .expect("readable stdout");
    let addr = line
        .strip_prefix("listening on ")
        .expect("readiness format");
    let mut client = p2o_serve::HttpClient::connect(addr).expect("connect");
    let health = client.get("/health").expect("health");
    assert_eq!(health.status, 200);
    let digest = health
        .header("x-p2o-snapshot")
        .expect("snapshot stamp")
        .to_string();

    // Reload onto the torn directory: rejected, old snapshot kept.
    let reload = client
        .post("/reload", torn.to_str().unwrap().as_bytes())
        .expect("reload response");
    assert_eq!(
        reload.status,
        503,
        "reload onto torn dir must be rejected: {}",
        reload.text()
    );
    assert!(
        reload.text().contains("reload rejected"),
        "rejection says why: {}",
        reload.text()
    );
    let after = client.get("/health").expect("health after reload");
    assert_eq!(after.status, 200);
    assert_eq!(
        after.header("x-p2o-snapshot"),
        Some(digest.as_str()),
        "old snapshot must keep serving after a rejected reload"
    );
    assert_eq!(
        after.header("x-p2o-serial"),
        Some("0"),
        "serial must not advance on a rejected reload"
    );
    let metrics = client.get("/metrics").expect("metrics");
    assert!(
        metrics.text().contains("p2o_serve_reload_failures_total 1"),
        "the failure is counted"
    );

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&good);
    let _ = std::fs::remove_dir_all(&torn);
}
