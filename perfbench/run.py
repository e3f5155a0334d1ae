#!/usr/bin/env python3
"""Builds and runs the SIERRA benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `perfbench` binary (a package
of its own in this directory) and the `sierra-cli` binary from source in
release mode, into $CARGO_TARGET_DIR (default `.bench_build`), then runs
`perfbench`, whose last line of output is the JSON result. Trace files go
to `.bench_run/`. A failed build or run exits non-zero without printing a
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    """Builds both binaries; returns the failing step's message or None."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "sierra-cli"],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return "build failed: " + " ".join(step)
    return None


def main():
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    error = build(target_dir)
    if error:
        print("perfbench: " + error, file=sys.stderr)
        return 1
    bench = os.path.join(target_dir, "release", "perfbench")
    cli = os.path.join(target_dir, "release", "sierra-cli")
    run_dir = os.path.join(ROOT, ".bench_run")
    done = subprocess.run(
        [bench, *sys.argv[1:], "--cli", cli, "--run-dir", run_dir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
