#!/usr/bin/env python3
"""Harness self-tests.

    python3 perfbench/selftest.py

Run from the repository root. First runs this package's unit tests (tail
rule, windowed tails, batch timing, counting allocator, span self time,
open-loop lateness bookkeeping). Then runs every workload in quick mode,
untraced and traced, for one second each, and asserts that the result line
has exactly the contract's keys, that the output checks passed, and that
every metric BENCHMARK.json declares is printed, on the text lines and in
the JSON, with its unit. Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def quick_run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if out.returncode != 0:
        fail(f"{workload} trace {trace}: exit {out.returncode}")
    return out.stdout.strip().splitlines()


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    test = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=dict(os.environ, CARGO_TARGET_DIR=target))
    if test.returncode != 0:
        fail("cargo test")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = quick_run(w["name"], trace)
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{w['name']}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{w['name']} trace {trace}: {result['failed']} of "
                     f"{result['attempted']} failed")
            declared = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared:
                fail(f"{w['name']} trace {trace}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(declared) - set(got))}, "
                     f"extra {sorted(set(got) - set(declared))}, "
                     f"units {[(k, got[k], declared[k]) for k in got if k in declared and got[k] != declared[k]]}")
            text = lines[:-1]
            for name, unit in declared.items():
                if not any(l.split()[:1] == [name] and unit in l.split() for l in text):
                    fail(f"{w['name']} trace {trace}: no text line for {name} [{unit}]")
            print(f"ok: {w['name']} trace {trace}: {len(declared)} metrics with units")
    print("selftest passed")


if __name__ == "__main__":
    main()
