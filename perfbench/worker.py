"""Run one workload in a fresh interpreter and print its raw result as JSON.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SPAWNED OUT_DIR

MODE is one of
  setup   import, generate the inputs, run one untimed warm-up op, and report
          when the first timed op would start;
  timed   the same set-up, then ops one at a time (closed loop, one client)
          until SECONDS have passed;
  traced  the same set-up, then the workload's fixed op list once untraced
          and once with spans (spans.Tracer), for the per-layer metrics.
SPAWNED is the parent's time.monotonic() just before it started this process;
OUT_DIR receives the span dump of a traced run. run.py starts this script
with PYTHONPATH pointing at the repository's src/.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_t0 = time.perf_counter()
import hartree_singular  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _t0

import spans  # noqa: E402
import workloads  # noqa: E402

OP_LIST_LENGTH = 256  # longer than any run needs; the timed loop wraps around


def run_op(wl, spec):
    """(wall seconds, failure reason or None) of one op; only the call is timed."""
    start = time.perf_counter()
    try:
        result = wl.run(spec)
    except Exception as exc:  # a raising op is a failed op, not a failed benchmark
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, wl.check(spec, result)


def traced(wl, name, seed, out_dir, spawned):
    """Each op of the fixed list runs untraced and traced back to back.

    The order alternates from op to op, so machine drift and warm caches
    favour neither side of the overhead figure.
    """
    specs = wl.ops[:wl.trace_ops]
    tracer = spans.Tracer()
    probe_dir = os.path.join(out_dir, f"probes-{name}-seed{seed}")
    if wl.child_rss:
        os.makedirs(probe_dir, exist_ok=True)
        for old in os.listdir(probe_dir):
            os.remove(os.path.join(probe_dir, old))
    plain, durations, failures = [], [], []
    for k, spec in enumerate(specs):
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if with_spans:
                tracer.op = k
                if wl.child_rss:
                    wl.probe_dir = probe_dir
                else:
                    tracer.install()
            elapsed, failure = run_op(wl, spec)
            wl.probe_dir = None
            tracer.uninstall()
            (durations if with_spans else plain).append(elapsed)
            if failure is not None:
                failures.append(failure)

    if wl.child_rss:
        dumps = []
        for k in range(len(specs)):
            with open(os.path.join(probe_dir, f"probe-{k}.json"), encoding="utf-8") as fh:
                dump = json.load(fh)
            for span in dump["spans"]:
                span[4] = k
            dumps.append(dump)
        import_s = [d["import_s"] for d in dumps]
        interpreter_s = [d["interpreter_s"] for d in dumps]
    else:
        dumps = [tracer.dump()]
        import_s = [IMPORT_S]
        interpreter_s = [STARTED - spawned]
    with open(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "op"],
                   "processes": dumps}, fh)

    metrics = spans.per_layer_metrics(dumps, import_s, interpreter_s)
    plain_rate = len(specs) / sum(plain)
    traced_rate = len(specs) / sum(durations)
    metrics["trace.untraced_ops_per_s"] = {"value": plain_rate, "unit": "1/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.overhead_share"] = {"value": plain_rate / traced_rate - 1.0, "unit": "1"}
    return {"ops": len(specs), "attempted": 2 * len(specs), "failures": failures,
            "metrics": metrics}


def versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv):
    mode, name, seed, seconds, spawned, out_dir = argv
    seed, seconds, spawned = int(seed), float(seconds), float(spawned)
    wl = workloads.WORKLOADS[name](seed, OP_LIST_LENGTH)
    run_op(wl, wl.warmup)
    first_op = time.monotonic()
    if mode == "setup":
        return {"first_op": first_op}
    if mode == "traced":
        return {**traced(wl, name, seed, out_dir, spawned), "versions": versions()}

    durations, failures = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        elapsed, failure = run_op(wl, wl.ops[len(durations) % len(wl.ops)])
        durations.append(elapsed)
        if failure is not None:
            failures.append(failure)
    who = resource.RUSAGE_CHILDREN if wl.child_rss else resource.RUSAGE_SELF
    return {
        "first_op": first_op,
        "durations": durations,
        "failures": failures,
        "peak_rss_kib": resource.getrusage(who).ru_maxrss,
        "versions": versions(),
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
