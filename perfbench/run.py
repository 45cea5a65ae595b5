#!/usr/bin/env python3
"""Builds the prefix2org CLI and the perfbench harness from source, then runs
one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Cargo writes to $CARGO_TARGET_DIR (default
`.bench_build`); generated worlds live under `<target>/perfbench-work` and
are removed when the run ends. The harness's last stdout line is the result
JSON; see perfbench/src/main.rs for the workloads and metrics.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest in ("Cargo.toml", os.path.join("perfbench", "Cargo.toml")):
        build = [
            "cargo", "build", "--release", "--quiet", "--offline",
            "--manifest-path", manifest,
        ]
        if manifest == "Cargo.toml":
            build += ["-p", "p2o-cli"]
        # Cargo's output goes to stderr so stdout stays the harness's own.
        status = subprocess.call(build, env=env, stdout=sys.stderr)
        if status != 0:
            print(f"perfbench: building {manifest} failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    harness = [
        os.path.join(release, "perfbench"),
        "--bin", os.path.join(release, "prefix2org"),
        "--work", os.path.join(target, "perfbench-work"),
    ] + sys.argv[1:]
    return subprocess.call(harness, env=env)


if __name__ == "__main__":
    sys.exit(main())
