"""Run the hartree-singular CLI in this process with spans around its layers.

    python3 perfbench/cli_probe.py OUT SPAWNED [CLI ARGS...]

Behaves like ``python -m hartree_singular.cli CLI ARGS`` (same standard
output and exit code) and writes this process's spans and counts, its
import time and its interpreter start-up time to OUT as JSON. SPAWNED is the
parent's time.monotonic() taken just before it started this process.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    out, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    from hartree_singular import cli
    import_s = time.perf_counter() - start

    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = 0
    code = tracer.wrap("cli.main", cli.main)(argv)
    sys.stdout.flush()
    dump = tracer.dump()
    dump["import_s"] = import_s
    dump["interpreter_s"] = STARTED - spawned
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
