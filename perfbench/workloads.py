"""The four workloads: seeded input generation, one op, and its correctness check.

Inputs come from random.Random(f"{workload}:{seed}") only, so one seed always
gives the same inputs; the library sees nothing but the generated parameters.
Parameter points are drawn until solve_params accepts one; a rejected draw is
redrawn and never counted as an op. A check returns None when the op's output
is correct and a one-line reason otherwise.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
import types

import numpy as np

import hartree_singular as hs

HERE = os.path.dirname(os.path.abspath(__file__))
_MAX_DRAWS = 100_000


def _admissible(rng, dim, mu_lo, mu_hi=None, accept=None):
    """Seeded ModelParams that solve_params accepts, with p, q drawn from [1, 3].

    mu is drawn from [mu_lo, mu_hi), or fixed at mu_lo when mu_hi is None.
    """
    for _ in range(_MAX_DRAWS):
        mu = mu_lo if mu_hi is None else rng.uniform(mu_lo, mu_hi)
        p, q = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
        try:
            params = hs.solve_params(dim, mu, p, q)
        except (hs.DomainError, hs.ValidationError):
            continue
        if accept is None or accept(params):
            return params
    raise RuntimeError(f"no admissible parameters for N={dim}, mu from {mu_lo} to {mu_hi}")


def _stratified(rng, lo, hi, k):
    """k draws, one from each of k equal strata of [lo, hi), in seeded order."""
    width = (hi - lo) / k
    draws = [lo + (j + rng.random()) * width for j in range(k)]
    rng.shuffle(draws)
    return draws


class Workload:
    name = ""
    cycle = 1       # ops per generation cycle; the op list repeats whole cycles
    trace_ops = 1   # fixed op count of a traced run
    child_rss = False  # peak memory is that of the op's child process

    def __init__(self, seed, length):
        rng = random.Random(f"{self.name}:{seed}")
        self.warmup = self.generate(rng, 1)[0]
        cycles = -(-length // self.cycle)
        self.ops = [spec for _ in range(cycles) for spec in self.generate(rng, self.cycle)]

    def generate(self, rng, count):
        raise NotImplementedError

    def run(self, spec):
        raise NotImplementedError

    def check(self, spec, result):
        raise NotImplementedError


class VerifyHighDim(Workload):
    """verify_solution at N in {4, 5, 6} on two seeded radii in (0.1, 10).

    Each cycle of nine ops gives every N one family op with mu < N-1, one
    family op in the diagonal-pole regime mu >= N-1 and one off-family
    diagnostic op (mu < N-1, decay from the variant formula, amplitude 1).
    Pole ops take up to twice as long as the others; keeping them at one op
    in three puts the median on the mu < N-1 ops. Their offsets mu - (N-1)
    are stratified over [0, 0.3) within each cycle: above 0.3 the cost of a
    pole op climbs steeply (3.5 s at 0.5), and a few such ops would make
    ops_per_s depend on where a run's last cycle is cut.
    """

    name = "verify-highdim"
    cycle = 9
    trace_ops = 9
    # (N, regime, diagnostic)
    SLOTS = [
        (4, "low", False), (5, "pole", False), (6, "low", True),
        (5, "low", False), (6, "pole", False), (4, "low", True),
        (6, "low", False), (4, "pole", False), (5, "low", True),
    ]
    POLE_SPAN = 0.3

    def generate(self, rng, count):
        offsets = iter(_stratified(rng, 0.0, self.POLE_SPAN, 3))
        specs = []
        for n, regime, diagnostic in self.SLOTS[:count]:
            if regime == "pole":
                params = _admissible(rng, n, n - 1.0 + next(offsets))
            else:
                # the variant decay is defined and positive only for p - q + 1 > 0
                accept = (lambda prm: prm.p - prm.q + 1.0 >= 0.25) if diagnostic else None
                params = _admissible(rng, n, 0.5, n - 1.1, accept)
            while True:
                radii = sorted(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(2))
                if radii[1] > radii[0] * 1.01:
                    break
            decay = (hs.alternate_decay_exponent(n, params.mu, params.p, params.q)
                     if diagnostic else None)
            specs.append({"params": params, "radii": radii, "decay": decay})
        return specs

    def run(self, spec):
        if spec["decay"] is None:
            return hs.verify_solution(spec["params"], spec["radii"])
        return hs.verify_solution(spec["params"], spec["radii"], decay=spec["decay"],
                                  amplitude=1.0)

    def check(self, spec, report):
        dev = float(np.max(np.abs(report.ratio - 1.0)))
        if spec["decay"] is None and not dev <= 1e-5:
            return f"family op: worst_deviation {dev!r} > 1e-5"
        if spec["decay"] is not None and not dev > 0.1:
            return f"diagnostic op: max |ratio-1| {dev!r} <= 0.1"
        return None


class PicardN3(Workload):
    """Five Picard steps from the exact N=3 profile on the default 400-point grid."""

    name = "picard-n3"
    cycle = 3
    trace_ops = 3
    STEPS = 5

    def generate(self, rng, count):
        mus = _stratified(rng, 0.5, 2.9, 3)[:count]
        return [{"params": _admissible(rng, 3, mu)} for mu in mus]

    def run(self, spec):
        return hs.fixed_point_iterate(spec["params"], steps=self.STEPS)

    def check(self, spec, result):
        history = result[1]
        bound = 50.0 * hs.DEFAULT_CONFIG.rel_tol
        if len(history) != self.STEPS:
            return f"history has {len(history)} entries, expected {self.STEPS}"
        if not all(h < bound for h in history):
            return f"step change {max(history)!r} >= {bound!r}"
        return None


class PlaneSweep(Workload):
    """sample_field + sweep_lambda0 on a 129^3 grid over [-2, 2]^3.

    Cycles through the exact field centred at 0, a field whose centre is
    shifted to (-delta, 0, 0), and a two-centre field on {x1 = 0}. The shift
    is drawn within 1.5 h of a sampled plane of the default lambda grid (its
    planes are 0.1 apart, coarser than the 2 h tolerance of the check), with
    delta in [0.25, 0.75].
    """

    name = "plane-sweep"
    cycle = 3
    trace_ops = 6
    NUM = 129
    EXTENT = 2.0
    H = 2.0 * EXTENT / (NUM - 1)

    def generate(self, rng, count):
        planes = hs.default_lambda_grid(types.SimpleNamespace(h=self.H, extent=self.EXTENT))
        shifts = [-lam for lam in planes if 0.25 + 1.5 * self.H <= -lam <= 0.75]
        specs = []
        for kind in ("centred", "shifted", "two-centre")[:count]:
            params = _admissible(rng, 3, 0.5, 2.9)
            delta = None
            if kind == "centred":
                centers = [(0.0, 0.0, 0.0)]
            elif kind == "shifted":
                delta = rng.choice(shifts) - rng.uniform(0.0, 1.5) * self.H
                centers = [(-delta, 0.0, 0.0)]
            else:
                while True:
                    centers = [(0.0, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                               for _ in range(2)]
                    if math.dist(centers[0], centers[1]) >= 0.3:
                        break
            specs.append({"kind": kind, "term": hs.PowerLawTerm(params.amplitude, params.s),
                          "centers": centers, "delta": delta})
        return specs

    def run(self, spec):
        field = hs.sample_field(spec["term"], spec["centers"], dim=3, extent=self.EXTENT,
                                num=self.NUM, check_centers=spec["kind"] != "shifted")
        return hs.sweep_lambda0(field)

    def check(self, spec, report):
        if spec["kind"] == "shifted":
            lam0 = report.lambda0_estimate
            if lam0 is None or not abs(lam0 + spec["delta"]) <= 2.0 * self.H:
                return f"shifted: lambda0 {lam0!r} not within 2h of {-spec['delta']!r}"
            return None
        if not (np.all(report.sup_w_plus == 0.0) and np.all(report.reverse_sup_w_plus == 0.0)):
            return f"{spec['kind']}: a plane has a nonzero supremum"
        if spec["kind"] == "centred" and not report.monotonicity_min > 0.0:
            return f"centred: monotonicity_min {report.monotonicity_min!r} <= 0"
        return None


class CliCold(Workload):
    """One fresh `python -m hartree_singular.cli` process per op.

    The six subcommands are drawn once per run and then repeat in order, so
    every repeat must print the same bytes as its first run.
    """

    name = "cli-cold"
    cycle = 6
    trace_ops = 12
    child_rss = True

    def __init__(self, seed, length):
        self.seen = {}
        self.probe_dir = None  # set to run every op through cli_probe.py
        self.probes = 0
        rng = random.Random(f"{self.name}:{seed}")
        commands = self.commands(rng)
        self.warmup = commands[0]
        self.ops = commands * -(-length // self.cycle)

    @staticmethod
    def commands(rng):
        n = rng.choice((3, 4, 5))
        mu = rng.uniform(0.5, n - 0.5)
        t = 1.0 + rng.uniform(0.1, 0.9) * (1.0 / (1.0 - mu / n) - 1.0)
        solve = _admissible(rng, 3, 0.5, 2.9)
        verify = _admissible(rng, 3, 0.5, 2.9)
        sweep = _admissible(rng, 3, 0.5, 2.9)
        alpha = rng.uniform(0.3, 2.7)
        exponent = alpha + rng.uniform(0.1, 0.9) * (3.0 - alpha)
        crit_n = rng.choice((3, 4, 5))

        def pqm(prm):
            return ["--mu", repr(prm.mu), "--p", repr(prm.p), "--q", repr(prm.q)]

        return [
            ["critical-exponents", "--dim", str(crit_n), "--mu", repr(rng.uniform(0.2, crit_n - 0.2))],
            ["hls", "--dim", str(n), "--mu", repr(mu), "--t", repr(t)],
            ["solve-params", "--dim", "3", *pqm(solve)],
            ["verify", "--dim", "3", *pqm(verify)],
            ["riesz", "--dim", "3", "--alpha", repr(alpha), "--exponent", repr(exponent), "--numeric"],
            ["moving-plane", "--num", "65", *pqm(sweep)],
        ]

    def run(self, argv):
        if self.probe_dir is None:
            cmd = [sys.executable, "-m", "hartree_singular.cli", *argv]
        else:
            out = os.path.join(self.probe_dir, f"probe-{self.probes}.json")
            self.probes += 1
            cmd = [sys.executable, os.path.join(HERE, "cli_probe.py"), out,
                   repr(time.monotonic()), *argv]
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout

    def check(self, argv, result):
        code, out = result
        if code != 0:
            return f"{argv[0]}: exit code {code}"
        try:
            body = json.loads(out)
        except ValueError:
            return f"{argv[0]}: output is not JSON"
        first = self.seen.setdefault(tuple(argv), out)
        if first != out:
            return f"{argv[0]}: output differs from the first run of the same command"
        if argv[0] == "verify":
            dev = max(abs(r - 1.0) for r in body["ratio"])
            if not dev <= 1e-5:
                return f"verify: ratio off by {dev!r}"
        return None


WORKLOADS = {w.name: w for w in (VerifyHighDim, PicardN3, PlaneSweep, CliCold)}
