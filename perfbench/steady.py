#!/usr/bin/env python3
"""Steadiness runner: two interleaved sets of runs of the same build.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Run from the repository root. Each run is an untraced run of
BENCHMARK.json's run_seconds. Runs are interleaved A, B, A, B, ... and each
run gets its own seed (set A seeds 1, 3, 5, ..., set B seeds 2, 4, 6, ...).
For every end-to-end metric of every workload it prints each set's median
and quartiles, the spread (interquartile distance over the median), and
whether the two sets agree within the bound BENCHMARK.json gives the metric:
each set's spread is within the bound, and the two medians differ by no more
than the bound, in either direction. setup_s is exempt from the spread test,
as in the benchmark contract: a set-up lasts under a second and follows the
machine's state at that moment, so its spread over runs is the machine's; its
medians must still agree. Exits 1 if any metric disagrees or any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, spread_exempt):
    """Agreement of set B with set A under `bound`; returns (ok, text)."""
    problems = []
    for name, vals in (("A", a), ("B", b)):
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else float("inf")
        if not spread_exempt and spread > bound:
            problems.append(f"spread {name} {spread:.3f} > {bound}")
    ma, mb = statistics.median(a), statistics.median(b)
    apart = abs(mb - ma) / ma
    if apart > bound:
        problems.append(f"medians {apart:.3f} apart > {bound}")
    return not problems, "; ".join(problems) or "agree"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    declared = bench["end_to_end"]
    results = {w: {"A": [], "B": []} for w in workloads}
    failures = 0
    for i in range(args.runs):
        for w in workloads:
            for k, side in enumerate(("A", "B")):
                seed = 1 + 2 * i + k
                try:
                    r = run_once(w, seed, bench["run_seconds"])
                except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
                    print(f"run failed: {e}", flush=True)
                    failures += 1
                    continue
                if not r["correct"] or r["failed"]:
                    failures += 1
                results[w][side].append(r["metrics"])
                values = " ".join(
                    f"{m['name']}={r['metrics'][m['name']]['value']:.4g}"
                    for m in declared if m["name"] in r["metrics"])
                print(f"run {i + 1}/{args.runs} {w} {side} seed {seed}: "
                      f"failed {r['failed']}/{r['attempted']} {values}", flush=True)
    ok = failures == 0
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<32} {'set':<3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8}")
        for m in declared:
            name = m["name"]
            a = [r[name]["value"] for r in results[w]["A"] if name in r]
            b = [r[name]["value"] for r in results[w]["B"] if name in r]
            if not a or not b:
                print(f"  {name:<32} missing")
                ok = False
                continue
            for side, vals in (("A", a), ("B", b)):
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("nan")
                print(f"  {name:<32} {side:<3} {q1:14.6g} {med:14.6g} {q3:14.6g} {spread:8.3f}")
            good, text = verdict(a, b, m["bound"], name == "setup_s")
            ok &= good
            print(f"  {'':<32} bound {m['bound']}: {text}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
