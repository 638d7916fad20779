"""Benchmark of hartree_singular: seeded workloads, end-to-end and per-layer metrics.

From the repository root:

    python3 perfbench/run.py --workload verify-highdim --seed 1 --seconds 15 --trace 0

Workloads: verify-highdim, picard-n3, plane-sweep, cli-cold (see README.md).
Each run starts the workload in fresh interpreters (perfbench/worker.py) with
PYTHONPATH=src, one client running one op at a time. With --trace 0 it
reports the end-to-end metrics: three fresh processes give the set-up samples
and the last of them runs timed ops for --seconds. With --trace 1 a single
process runs the workload's fixed op list untraced and then traced, and the
per-layer metrics come from the spans.

Standard output ends with two lines: a JSON record of the environment and of
how each figure was taken, then one JSON object with exactly the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("verify-highdim", "picard-n3", "plane-sweep", "cli-cold")
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0
TAIL_SAMPLES_ABOVE = 10


def run_worker(mode, args, env, deadline):
    """Start one worker; return its result and the monotonic time it was started."""
    spawned = time.monotonic()
    cmd = [sys.executable, WORKER, mode, args.workload, str(args.seed), str(args.seconds),
           repr(spawned), OUT_DIR]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def tail(durations):
    """(value, percentile): the highest percentile with at least ten samples above it.

    Below 2 * TAIL_SAMPLES_ABOVE ops that is the median.
    """
    n = len(durations)
    if n < 2 * TAIL_SAMPLES_ABOVE:
        return statistics.median(durations), 50.0
    return sorted(durations)[n - TAIL_SAMPLES_ABOVE - 1], 100.0 * (n - TAIL_SAMPLES_ABOVE) / n


def getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def end_to_end(args, env, deadline):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        result, spawned = run_worker("setup", args, env, deadline)
        setups.append(result["first_op"] - spawned)
    result, spawned = run_worker("timed", args, env, deadline)
    setups.append(result["first_op"] - spawned)

    durations = result["durations"]
    failed = len(result["failures"])
    tail_s, tail_pct = tail(durations)
    metrics = {
        "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "ops_per_s": {"value": (len(durations) - failed) / sum(durations), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kib"] * 1024 / 1e6, "unit": "MB"},
    }
    record = {
        "versions": result["versions"],
        "ops": len(durations),
        "op_tail_s": {"percentile": tail_pct, "samples": len(durations)},
        "setup_s": {"samples": setups},
        "error_rate": {"value": failed / len(durations), "unit": "1"},
    }
    return len(durations), result["failures"], metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hartree_singular", "__init__.py")):
        print(f"perfbench: no hartree_singular package under {src}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)

    try:
        if args.trace:
            result, _ = run_worker("traced", args, env, deadline)
            attempted, failures, metrics = result["attempted"], result["failures"], result["metrics"]
            record = {"versions": result["versions"], "ops": result["ops"], "spans": os.path.relpath(
                os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"), ROOT)}
        else:
            attempted, failures, metrics, record = end_to_end(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for failure in failures:
        print(f"perfbench: failed op: {failure}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "clients": 1, "loop": "closed",
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"), "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        **record,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
