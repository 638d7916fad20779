"""Spans and counts recorded around the public functions of hartree_singular.

A Tracer replaces the module attributes that callers actually use (for
example ``verifier.riesz_radial``, ``moving_plane.w_plus_sup``,
``cli.dumps``) and four ``RadialProfile`` methods with wrappers. Each call
appends a span [name, start, end, parent index, op id] to an in-memory list;
nothing is written until the run ends. After a call returns, an optional hook
updates the deterministic counts (radii, points, compared nodes, accuracy
against the closed form). The hook's own time is recorded as a
``trace.bookkeeping`` span under the caller, so it never inflates a layer's
self time.

Private helpers such as ``_adaptive_gl`` are deliberately not wrapped.
"""

import sys
import threading
import time
from collections import defaultdict

import numpy as np

BOOKKEEPING = "trace.bookkeeping"

# a riesz_radial input counts as an exact power law when every sample agrees
# with its (shared) tail term to this relative accuracy
POWER_LAW_MATCH = 1e-14

# float64 value and bool mask of a node and of its mirror image
BYTES_PER_COMPARED_NODE = 2 * 8 + 2 * 1

# per-layer metrics: (name, unit, source); source is ("calls" | "self_s", span)
# for span aggregates or ("count", key) for a hook count
PER_LAYER = [
    ("radial_quadrature.riesz_radial.calls", "count", ("calls", "radial_quadrature.riesz_radial")),
    ("radial_quadrature.riesz_radial.radii", "count", ("count", "riesz_radii")),
    ("radial_quadrature.riesz_radial.self_s", "s", ("self_s", "radial_quadrature.riesz_radial")),
    ("radial_quadrature.riesz_radial.s_per_radius", "s", ("derived", "riesz_s_per_radius")),
    ("radial_quadrature.riesz_radial.worst_rel_err", "1", ("count", "riesz_worst_rel_err")),
    ("radial_quadrature.riesz_radial.bar_violations", "count", ("count", "riesz_bar_violations")),
    ("radial_quadrature.riesz_radial.exact_inputs", "count", ("count", "riesz_exact_inputs")),
    ("radial_quadrature.profile_eval.calls", "count", ("calls", "radial_quadrature.profile_eval")),
    ("radial_quadrature.profile_eval.points", "count", ("count", "profile_points")),
    ("radial_quadrature.profile_eval.self_s", "s", ("self_s", "radial_quadrature.profile_eval")),
    ("radial_quadrature.inverse_laplacian_radial.calls", "count",
     ("calls", "radial_quadrature.inverse_laplacian_radial")),
    ("radial_quadrature.inverse_laplacian_radial.self_s", "s",
     ("self_s", "radial_quadrature.inverse_laplacian_radial")),
    ("radial_quadrature.profile_algebra.calls", "count", ("calls", "radial_quadrature.profile_algebra")),
    ("radial_quadrature.profile_algebra.self_s", "s", ("self_s", "radial_quadrature.profile_algebra")),
    ("verifier.verify_solution.calls", "count", ("calls", "verifier.verify_solution")),
    ("verifier.verify_solution.self_s", "s", ("self_s", "verifier.verify_solution")),
    ("verifier.verify_solution.worst_deviation", "1", ("count", "verify_worst_deviation")),
    ("verifier.fixed_point_iterate.calls", "count", ("calls", "verifier.fixed_point_iterate")),
    ("verifier.fixed_point_iterate.self_s", "s", ("self_s", "verifier.fixed_point_iterate")),
    ("verifier.fixed_point_iterate.max_step_change", "1", ("count", "picard_max_step_change")),
    ("moving_plane.sample_field.calls", "count", ("calls", "moving_plane.sample_field")),
    ("moving_plane.sample_field.self_s", "s", ("self_s", "moving_plane.sample_field")),
    ("moving_plane.sweep_lambda0.calls", "count", ("calls", "moving_plane.sweep_lambda0")),
    ("moving_plane.sweep_lambda0.self_s", "s", ("self_s", "moving_plane.sweep_lambda0")),
    ("moving_plane.w_plus_sup.calls", "count", ("calls", "moving_plane.w_plus_sup")),
    ("moving_plane.w_plus_sup.self_s", "s", ("self_s", "moving_plane.w_plus_sup")),
    ("moving_plane.reflect.calls", "count", ("calls", "moving_plane.reflect")),
    ("moving_plane.reflect.self_s", "s", ("self_s", "moving_plane.reflect")),
    ("moving_plane.nodes_compared", "count", ("count", "nodes_compared")),
    ("moving_plane.bytes_computed", "B_computed", ("derived", "bytes_computed")),
    ("moving_plane.nonzero_planes", "count", ("count", "nonzero_planes")),
    ("power_law.solve_params.calls", "count", ("calls", "power_law.solve_params")),
    ("power_law.solve_params.self_s", "s", ("self_s", "power_law.solve_params")),
    ("serialize.dumps.calls", "count", ("calls", "serialize.dumps")),
    ("serialize.dumps.self_s", "s", ("self_s", "serialize.dumps")),
    ("cli.main.calls", "count", ("calls", "cli.main")),
    ("cli.main.self_s", "s", ("self_s", "cli.main")),
    ("cli.import_s", "s", ("derived", "import_s")),
    ("cli.interpreter_s", "s", ("derived", "interpreter_s")),
]

# hook counts merged across processes by max rather than by sum
_MAX_COUNTS = {"riesz_worst_rel_err", "verify_worst_deviation", "picard_max_step_change"}


class Tracer:
    """In-memory span recorder; install() wraps the library in place."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = -1
        self._lock = threading.Lock()
        self._main_stack = []
        self._local = threading.local()
        self._patches = []  # (owner, attribute, original, wrapper)

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _record(self, name, start, end, parent):
        with self._lock:
            self.spans.append([name, start, end, parent, self.op])

    def wrap(self, name, fn, hook=None):
        """fn with a span around each call; hook(tracer, result, *args, **kw) runs after."""

        def traced(*args, **kwargs):
            stack = self._stack()
            # pool threads inherit the innermost open span of the main thread
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.op])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if hook is not None:
                with self._lock:
                    hook(self, result, *args, **kwargs)
                self._record(BOOKKEEPING, end, time.perf_counter(), parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public layer function wherever a hartree_singular module binds it."""
        if not self._patches:
            self._collect_patches()
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _collect_patches(self):
        from hartree_singular import moving_plane, power_law, radial_quadrature, serialize, verifier

        functions = [
            ("radial_quadrature.riesz_radial", radial_quadrature.riesz_radial, _after_riesz),
            ("radial_quadrature.inverse_laplacian_radial",
             radial_quadrature.inverse_laplacian_radial, None),
            ("verifier.verify_solution", verifier.verify_solution, _after_verify),
            ("verifier.fixed_point_iterate", verifier.fixed_point_iterate, _after_picard),
            ("moving_plane.sample_field", moving_plane.sample_field, None),
            ("moving_plane.sweep_lambda0", moving_plane.sweep_lambda0, _after_sweep),
            ("moving_plane.w_plus_sup", moving_plane.w_plus_sup, _after_w_plus),
            ("moving_plane.reflect", moving_plane.reflect, None),
            ("power_law.solve_params", power_law.solve_params, None),
            ("serialize.dumps", serialize.dumps, None),
        ]
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hartree_singular" or n.startswith("hartree_singular.")]
        for name, fn, hook in functions:
            traced = self.wrap(name, fn, hook)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    self._patches.append((module, attr, fn, traced))
        profile = radial_quadrature.RadialProfile
        methods = [("__call__", "radial_quadrature.profile_eval", _after_eval)]
        methods += [(m, "radial_quadrature.profile_algebra", None)
                    for m in ("power", "scale", "multiply", "mix")]
        for attr, name, hook in methods:
            fn = vars(profile)[attr]
            self._patches.append((profile, attr, fn, self.wrap(name, fn, hook)))

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# hooks: deterministic counts at the layer boundaries


def _after_riesz(tracer, result, f, alpha, dim, cfg=None, at=None):
    from hartree_singular import power_law

    tracer.counts["riesz_radii"] += result.radii.size
    term = f.tail_inner
    if term is None or term != f.tail_outer:
        return
    if not np.all(np.abs(f.values / term(f.radii) - 1.0) <= POWER_LAW_MATCH):
        return
    if not float(alpha) < term.exponent < int(dim):
        return
    closed = power_law.riesz_power(alpha, term.exponent, dim).scaled(term.coefficient)
    rel = np.abs(result.values / closed(result.radii) - 1.0)
    tracer.counts["riesz_exact_inputs"] += 1
    tracer.counts["riesz_bar_violations"] += int(np.count_nonzero(rel > result.point_errors))
    tracer.counts["riesz_worst_rel_err"] = max(tracer.counts["riesz_worst_rel_err"],
                                               float(rel.max()))


def _after_eval(tracer, result, profile, r):
    tracer.counts["profile_points"] += np.size(r)


def _after_verify(tracer, report, params, radii=None, cfg=None, *, decay=None,
                  amplitude=None, grid=None):
    if decay is None:  # off-family diagnostic runs are meant to deviate
        tracer.counts["verify_worst_deviation"] = max(tracer.counts["verify_worst_deviation"],
                                                      report.worst_deviation)


def _after_picard(tracer, result, *args, **kwargs):
    history = result[1]
    if history:
        tracer.counts["picard_max_step_change"] = max(tracer.counts["picard_max_step_change"],
                                                      max(history))


def _after_w_plus(tracer, result, field, lam, tol=None):
    """Live node pairs on {x1 < lam}, as w_plus_sup compares them."""
    m = field.shape[0]
    i = np.nonzero(field.axis < float(lam))[0]
    j = int(round(2.0 * float(lam) / field.h)) + (m - 1) - i
    keep = (j >= 0) & (j < m)
    i, j = i[keep], j[keep]
    live = ~(field.mask[i] | field.mask[j])
    tracer.counts["nodes_compared"] += int(np.count_nonzero(live))


def _after_sweep(tracer, report, *args, **kwargs):
    tracer.counts["nonzero_planes"] += int(np.count_nonzero(report.sup_w_plus > 0.0)
                                           + np.count_nonzero(report.reverse_sup_w_plus > 0.0))


# ---------------------------------------------------------------------------
# aggregation


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_totals(spans):
    """{name: [calls, inclusive seconds, self seconds]} for one process's spans."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for idx, (name, start, end, _, _) in enumerate(spans):
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += (end - start) - _covered(children.get(idx, ()), start, end)
    return totals


def per_layer_metrics(dumps, import_s, interpreter_s):
    """Per-layer metrics from the span dumps of every traced process.

    import_s and interpreter_s are per-process samples; their medians are
    reported.
    """
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    counts = defaultdict(float)
    for dump in dumps:
        for name, (calls, incl, self_s) in span_totals(dump["spans"]).items():
            entry = totals[name]
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        for key, value in dump["counts"].items():
            counts[key] = max(counts[key], value) if key in _MAX_COUNTS else counts[key] + value
    radii = counts["riesz_radii"]
    derived = {
        "riesz_s_per_radius": totals["radial_quadrature.riesz_radial"][1] / radii if radii else 0.0,
        "bytes_computed": counts["nodes_compared"] * BYTES_PER_COMPARED_NODE,
        "import_s": float(np.median(import_s)) if import_s else 0.0,
        "interpreter_s": float(np.median(interpreter_s)) if interpreter_s else 0.0,
    }
    out = {}
    for name, unit, (kind, key) in PER_LAYER:
        if kind == "calls":
            value = totals[key][0] if key in totals else 0
        elif kind == "self_s":
            value = totals[key][2] if key in totals else 0.0
        elif kind == "count":
            value = counts[key]
        else:
            value = derived[key]
        if unit == "count":
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out
