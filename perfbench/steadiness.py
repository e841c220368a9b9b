#!/usr/bin/env python3
"""Steadiness check: do two sets of benchmark runs of one commit agree?

Usage (from the repository root):
  python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]
                                  [--seed0 1]

Makes two sets of runs of the BENCHMARK.json command, each `--runs` runs
per workload of run_seconds each, run k of a set with seed seed0 + k,
untraced. For each workload and end-to-end metric it prints each set's
median and quartiles, the spread (interquartile distance as a share of
the median, as statistics.quantiles(values, n=4) gives the quartiles),
and whether the sets agree: every spread within the metric's bound, and
the second set's median no worse than the first set's by more than the
bound. Exits 1 when they do not agree or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_bench(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"benchmark run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"benchmark run incorrect: {' '.join(cmd)}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def worse_by(first, later, better):
    """Share by which `later` is worse than `first`."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    change = (later - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("need --runs >= 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    agree = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for k in range(args.runs):
                runs.append(run_bench(bench["command"], workload,
                                      args.seed0 + k, seconds))
                print(f"{workload} set {s + 1} run {k + 1}: " +
                      json.dumps(runs[-1]), file=sys.stderr, flush=True)
            sets.append(runs)
        print(f"\n{workload} ({SETS} sets x {args.runs} runs, "
              f"{seconds} s each)")
        print(f"  {'metric':<22} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            rows = [summarize([run[name] for run in runs]) for runs in sets]
            shift = worse_by(rows[0]["median"], rows[1]["median"],
                             metric["better"])
            ok = (all(row["spread"] <= bound for row in rows)
                  and shift <= bound)
            agree = agree and ok
            for i, row in enumerate(rows):
                verdict = ""
                if i == len(rows) - 1:
                    verdict = ("agree" if ok else "DISAGREE") + \
                        f" (shift {shift:+.4f})"
                print(f"  {name:<22} {i + 1:>3} {row['median']:>14.6g} "
                      f"{row['q1']:>14.6g} {row['q3']:>14.6g} "
                      f"{row['spread']:>8.4f} {bound:>6}  {verdict}")
    print("\nsets agree" if agree else "\nsets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
