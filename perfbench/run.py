#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); traced runs write their spans under <target>/perfbench-spans.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero, printing no result, when the
build fails (for instance when the workspace crates are absent).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    spans = os.path.join(target, "perfbench-spans")
    return subprocess.run([exe] + sys.argv[1:] + ["--trace-dir", spans]).returncode


if __name__ == "__main__":
    sys.exit(main())
