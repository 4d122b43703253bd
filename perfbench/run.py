#!/usr/bin/env python3
"""perfbench: the repo's end-to-end and per-layer benchmark.

One run (the form every result in this repo is measured with):

    python3 perfbench/run.py --workload tree_20k --seed 7 --seconds 30 --trace 0

builds the simulator and the benchmark runner (perfbench_sim) from source into
.bench_build/perfbench, runs the workload in its own process, checks every
simulated outcome and prints one JSON result as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A traced run also prints the layers ranked by self-time share
and writes its spans to .bench_build/perfbench-traces/.

Sets of runs, all workloads interleaved, seeds 1..N, one per set:

    python3 perfbench/run.py --sets 10

prints each end-to-end metric's median, quartiles and spread per workload,
flags ("!") every spread above a third of the metric's bound, and rewrites
BENCHMARK.json from the definitions below.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench_sim"
RESULTS_DIR = BUILD_ROOT / "perfbench-results"
TRACES_DIR = BUILD_ROOT / "perfbench-traces"
REFERENCE = HERE / "reference.json"
RUN_SECONDS = 30
RUN_TIMEOUT_S = 170

WORKLOADS = [
    ("smp_paper",
     "Paper rig: 4-CPU P630, gzip/gap/mcf/health, supply-failure dips, JSONL "
     "--explain journal; control-loop cost grows with run length. Idle: "
     "cluster transport, shards, summary tree."),
    ("flat_chaos_1k",
     "1000 nodes, flat daemon with standby, fail-safe, reliable transport "
     "and a rotating fault plan; per-node applies and pass 2 dominate. Idle: "
     "shards, summary tree."),
    ("tree_20k",
     "20k nodes, coordinator tree timed on 1 step thread (a 4-thread run "
     "must match); core model, sensor power sum and serial leaf close "
     "dominate. Idle: faults, retransmits, pass 2, journal volume."),
]

# (name, unit, better, bound)
END_TO_END = [
    ("core_sim_s_per_s", "cpu-s/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_gips", "Ginstr/s", "higher", 0.05),
]

# (name, unit, better)
PER_LAYER = [
    ("simkit.events_per_sim_s", "1/s", "lower"),
    ("simkit.dispatch_us_per_event", "us", "lower"),
    ("simkit.cost_growth", "ratio", "lower"),
    ("simkit.journal_events_per_sim_s", "1/s", "lower"),
    ("simkit.journal_bytes_per_sim_s", "B/s", "lower"),
    ("simkit.journal_write_share", "share", "lower"),
    ("simkit.allocs_per_sim_s", "1/s", "lower"),
    ("cpu.advance_calls_per_core_sim_s", "1/s", "lower"),
    ("cpu.model_share", "share", "lower"),
    ("cluster.shard_skip_ratio", "ratio", "higher"),
    ("cluster.presync_speedup", "x", "higher"),
    ("cluster.power_query_us", "us", "lower"),
    ("cluster.node_applies_per_round", "count", "lower"),
    ("cluster.retransmits_per_round", "count", "lower"),
    ("cluster.power_recount_share", "share", "lower"),
    ("power.sensor_share", "share", "lower"),
    ("core.rounds_per_sim_s", "1/s", "higher"),
    ("core.policy_us_p50", "us", "lower"),
    ("core.policy_us_tail", "us", "lower"),
    ("core.policy_calls", "count", "higher"),
    ("core.policy_share", "share", "lower"),
    ("core.downgrade_steps_per_round", "count", "lower"),
    ("core.control_loop_share", "share", "lower"),
    ("core.leaf_close_share", "share", "lower"),
    ("core.summary_tree_us_per_round", "us", "lower"),
    ("core.summary_bytes_per_round", "B", "lower"),
    ("cluster.build_s", "s", "lower"),
    ("core.daemon_build_s", "s", "lower"),
    ("bench.trace_slowdown", "ratio", "lower"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def spec():
    """The BENCHMARK.json contents, derived from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def write_spec():
    text = json.dumps(spec(), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text)


def build():
    """Configures and builds perfbench_sim; False when it cannot be built."""
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                log("perfbench: build failed: " + " ".join(cmd))
                return False
    return BINARY.exists()


def git_rev():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw):
    # Throughput is the median over the run's repetitions (identical
    # simulated work, as the fingerprint check proves).  Set-up is the
    # fastest of the run's constructions, the cold first one included:
    # each builds the same state, so host contention is all that makes
    # one slower, and the fastest moved least between sets of runs.
    run_s = median(raw["run_s"])
    sim_s = raw["sim_seconds"]
    return {
        "core_sim_s_per_s": raw["cpus"] * sim_s / run_s,
        "setup_s": min(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "sim_gips": raw["job_instructions"] / sim_s / 1e9,
    }


def run_once(args):
    """One benchmark run; returns the contract's result object."""
    failed_result = {"correct": False, "attempted": 1, "failed": 1,
                     "metrics": {}}
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACES_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(TRACES_DIR / (
            f"{args.workload}-seed{args.seed}.spans.tsv"))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} timed out after {RUN_TIMEOUT_S} s")
        return failed_result
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: {args.workload} exited with {done.returncode}")
        return failed_result
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    reference = json.loads(REFERENCE.read_text())
    problems = list(raw["failures"])
    failed = raw["failed"]
    expected = reference["fingerprints"].get(args.workload)
    if args.seed == reference["default_seed"] and raw["fingerprint"] != expected:
        problems.append(f"fingerprint {raw['fingerprint']} != reference "
                        f"{expected} at the default seed")
        failed = raw["attempted"]

    if args.trace:
        units = {n: u for n, u, _ in PER_LAYER}
        values = raw["metrics"]
    else:
        units = {n: u for n, u, _, _ in END_TO_END}
        values = end_to_end(raw)
    meta = {
        "git_rev": git_rev(), "nproc": os.cpu_count(),
        "threads": raw["threads"], "parallel_threads": raw["parallel_threads"],
        "seed": args.seed,
        "sim_seconds": raw["sim_seconds"], "nodes": raw["nodes"],
        "cpus": raw["cpus"], "workload": args.workload,
        "trace": args.trace, "fingerprint": raw["fingerprint"],
    }
    if "run_s" in raw:
        meta["run_s"] = {"runs": len(raw["run_s"]), "min": min(raw["run_s"]),
                         "median": median(raw["run_s"]),
                         "max": max(raw["run_s"])}
        meta["setup_samples"] = len(raw["setup_s"])
    print("# meta " + json.dumps(meta))
    for problem in problems:
        print("# FAILED " + problem)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"meta": meta, "raw": raw}, indent=1) + "\n")
    return {
        "correct": failed == 0 and not problems,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def run_sets(args):
    """Interleaved sets of runs, each run in its own process."""
    seeds = list(range(1, args.sets + 1))
    names = [n for n, _ in WORKLOADS]
    results = {n: [] for n in names}
    for i, seed in enumerate(seeds):
        order = names[i % len(names):] + names[:i % len(names)]
        for name in order:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            started = time.monotonic()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            result = (json.loads(lines[-1]) if done.returncode == 0 and lines
                      else {"correct": False, "metrics": {}})
            result["seed"] = seed
            result["wall_s"] = time.monotonic() - started
            results[name].append(result)
            values = " ".join(f"{k}={v['value']:.6g}"
                              for k, v in result["metrics"].items())
            log(f"set {i + 1}/{len(seeds)} {name} seed {seed}: "
                f"correct={result['correct']} {values} "
                f"({result['wall_s']:.1f} s)")
    ok = True
    print(f"{'workload':<15} {'metric':<18} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for name in names:
        runs = results[name]
        if not all(r["correct"] for r in runs):
            ok = False
            print(f"{name}: {sum(not r['correct'] for r in runs)} incorrect runs")
        for metric, unit, _, bound in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs
                      if metric in r["metrics"]]
            if len(values) < 2:
                continue
            q1, q2, q3, spread = quartile_spread(values)
            flag = "" if spread <= bound / 3 else "  !"
            print(f"{name:<15} {metric:<18} {q2:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.3f} {bound:>6.2f} {unit}{flag}")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (RESULTS_DIR / f"sets-{stamp}.json").write_text(
        json.dumps(results, indent=1) + "\n")
    write_spec()
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--sets", type=int, default=0,
                        help="run N interleaved sets of every workload")
    args = parser.parse_args()
    if not args.workload and not args.sets:
        parser.error("--workload or --sets is required")
    if not build():
        return 1
    if args.sets:
        return run_sets(args)
    result = run_once(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
