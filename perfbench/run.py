#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one measured run.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                           --trace <0|1>

Builds perfbench/ (and through it the palette libraries under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then:

  --trace 0  runs the workload untraced, one process per run, until
             --seconds have passed (at least once), and reports the
             end-to-end metrics as medians over those runs;
  --trace 1  runs untraced/traced pairs until --seconds have passed (at
             least one pair), checks the traced samples digest against the
             untraced one, runs the faithfulness self-test, and reports
             the per-layer metrics.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. A failed check is
named on stderr, makes "correct" false and the exit code 1. Metric names,
units and directions are documented in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("read_steady", "all_features", "sharded_groups")

# End-to-end metrics: name -> unit.
END_TO_END = {
    "host_inv_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "sim_local_hit_ratio": "ratio",
    "sim_ok_fraction": "ratio",
}

# Per-layer metrics: name -> (unit, exact). Exact metrics are simulated
# outcomes or counts; they must repeat bit for bit across runs of a seed.
# Host timings are medians over the traced runs.
PER_LAYER = {
    "workload.mix_sample_ns.p50": ("ns", False),
    "workload.arrival_next_ns.p50": ("ns", False),
    "workload.score_ms": ("ms", False),
    "workload.digest_ms": ("ms", False),
    "workload.retained_sample_bytes": ("bytes", True),
    "sim.events": ("count", True),
    "sim.events_per_inv": ("ratio", True),
    "sim.run_s": ("s", False),
    "sim.run_self_s": ("s", False),
    "sim.heap_depth_max": ("count", True),
    "sim.sharded.epochs": ("count", True),
    "sim.sharded.events_per_epoch": ("ratio", True),
    "sim.sharded.barrier_wait_share": ("ratio", False),
    "sim.sharded.lookahead_utilization": ("ratio", True),
    "core.route_ns.p50": ("ns", False),
    "core.route_ns.p99": ("ns", False),
    "core.routing_imbalance": ("ratio", True),
    "faas.invoke_ns.p50": ("ns", False),
    "faas.invoke_ns.p99": ("ns", False),
    "faas.cold_starts": ("count", True),
    "faas.pulls": ("count", True),
    "faas.steals": ("count", True),
    "faas.steal_bytes": ("bytes", True),
    "faas.pending_depth_max": ("count", True),
    "faas.queue_ms.p99": ("ms", True),
    "faas.fetch_ms.p99": ("ms", True),
    "faas.compute_ms.p50": ("ms", True),
    "faas.store_ms.p99": ("ms", True),
    "cache.get_ns.p50": ("ns", False),
    "cache.get_ns.p99": ("ns", False),
    "cache.put_ns.p50": ("ns", False),
    "cache.local_hits": ("count", True),
    "cache.remote_hits": ("count", True),
    "cache.misses": ("count", True),
    "cache.evictions": ("count", True),
    "storage.writes": ("count", True),
    "storage.flushes": ("count", True),
    "storage.writes_lost": ("count", True),
    "storage.coherence_bytes": ("bytes", True),
    "storage.ae_records": ("count", True),
    "storage.tier_promotions": ("count", True),
    "router.invoke_ns.p50": ("ns", False),
    "router.invoke_ns.p99": ("ns", False),
    "router.routes": ("count", True),
    "router.misroutes": ("count", True),
    "planner.rounds": ("count", True),
    "planner.collect_ms.p50": ("ms", False),
    "planner.solve_ms.p50": ("ms", False),
    "planner.solve_ms.p90": ("ms", False),
    "planner.apply_ms.p50": ("ms", False),
    "planner.moves": ("count", True),
    "planner.moved_bytes": ("bytes", True),
    "trace.overhead_ratio": ("ratio", False),
}

# Simulated end-to-end figures: exact for a seed.
SIM_KEYS = ("submitted", "failed", "sim_scored", "sim_p50_ms", "sim_p99_ms",
            "sim_local_hit_ratio", "sim_events", "samples_digest")

RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    """A failure that makes the run unusable (build, crash, bad output)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once, then builds incrementally. Returns the build type."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"palette sources missing: {ROOT / 'src'} is not a "
                         "source tree")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step failed: {' '.join(cmd)}: {e}")
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    cache = (out / "CMakeCache.txt").read_text()
    for line in cache.splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1] or "unset"
    return "unset"


def source_id():
    """The git commit when there is one, else a hash of the source files."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for sub in ("src", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run_once(binary, workload, seed, traced, spans_out=None):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--traced={1 if traced else 0}"]
    if spans_out is not None:
        cmd.append(f"--spans_out={spans_out}")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run timed out after {RUN_TIMEOUT_S} s: {cmd}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        log(proc.stderr[-4000:])
        raise BenchError(f"run failed with exit code {proc.returncode}: {cmd}")
    return json.loads(lines[-1])


def check_same_sim(runs, label, failures):
    """Simulated figures must repeat exactly across runs of one seed."""
    first = runs[0]
    for run in runs[1:]:
        for key in SIM_KEYS:
            if run[key] != first[key]:
                failures.append(f"{label}: {key} differs across runs "
                                f"({first[key]} vs {run[key]})")


def check_books(runs, failures):
    for run in runs:
        for name, ok in run["checks"].items():
            if not ok:
                kind = "traced" if run["traced"] else "untraced"
                failures.append(f"{name} failed ({kind} run)")


def measure_end_to_end(binary, workload, seed, seconds, failures):
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        runs.append(run_once(binary, workload, seed, traced=False))
    check_books(runs, failures)
    check_same_sim(runs, "untraced", failures)
    first = runs[0]
    ok = 1.0 - first["failed"] / max(1, first["submitted"])
    metrics = {
        "host_inv_per_s": statistics.median(
            [r["submitted"] / r["window_s"] for r in runs]),
        # Each process reports the median of its set-ups. Across processes
        # that figure is bimodal (the mode is fixed for a process's life),
        # and a median over a bimodal sample jumps between the modes; the
        # mean moves smoothly with the share of each.
        "setup_s": statistics.fmean([r["setup_s"] for r in runs]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        "sim_p50_ms": first["sim_p50_ms"],
        "sim_p99_ms": first["sim_p99_ms"],
        "sim_local_hit_ratio": first["sim_local_hit_ratio"],
        "sim_ok_fraction": ok,
    }
    print(f"# runs: {len(runs)} untraced processes; sim samples scored: "
          f"{first['sim_scored']} of {first['submitted']} submitted; "
          f"samples_digest {first['samples_digest']}")
    return runs, metrics, END_TO_END


def run_selftest(out, failures):
    test = out / "perfbench_faithfulness_test"
    if not test.is_file():
        failures.append(f"faithfulness self-test missing: {test}")
        return
    try:
        proc = subprocess.run([str(test)], capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failures.append("faithfulness self-test timed out")
        return
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        failures.append("faithfulness self-test failed")
    else:
        print("# faithfulness self-test passed")


def measure_per_layer(binary, out, workload, seed, seconds, failures):
    spans_dir = out / "spans"
    spans_dir.mkdir(exist_ok=True)
    spans_out = spans_dir / f"{workload}.tsv"
    untraced, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        untraced.append(run_once(binary, workload, seed, traced=False))
        traced.append(run_once(binary, workload, seed, traced=True,
                               spans_out=spans_out))
    runs = untraced + traced
    check_books(runs, failures)
    check_same_sim(runs, "traced vs untraced", failures)
    run_selftest(out, failures)

    metrics = {}
    for name, (_, exact) in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        values = []
        for run in traced:
            if name not in run["layers"]:
                failures.append(f"layer metric {name} missing")
                break
            values.append(run["layers"][name])
        if not values:
            continue
        if exact and len(set(values)) != 1:
            failures.append(f"{name} differs across traced runs: {values}")
        metrics[name] = values[0] if exact else statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(
        [t["window_s"] / u["window_s"] for u, t in zip(untraced, traced)])
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    print(f"# runs: {len(traced)} untraced/traced pairs; spans written to "
          f"{spans_out}")
    return runs, metrics, units


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"one of {', '.join(WORKLOADS)}")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2

    try:
        out = build_dir()
        build_type = build(out)
        binary = out / "palette_perfbench"
        meta = {"workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds,
                "nproc": os.cpu_count(), "build_type": build_type,
                "commit": source_id()}
        print("# run: " + json.dumps(meta))
        failures = []
        if args.trace:
            runs, metrics, units = measure_per_layer(
                binary, out, args.workload, args.seed, args.seconds, failures)
        else:
            runs, metrics, units = measure_end_to_end(
                binary, args.workload, args.seed, args.seconds, failures)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"benchmark error: {e}")
        return 1

    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for failure in failures:
        log(f"CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": sum(r["submitted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
