"""Command-line interface.

Subcommands
-----------
solve-params        derive (s, A) and check the admissibility windows
verify              compare -Lap u to the nonlocal right-hand side at radii
riesz               Riesz potential of a power law, closed form and numeric
moving-plane        reflection sweep of a sampled multi-center field
hls                 conjugate convolution-inequality exponent
critical-exponents  admissible nonlinearity window for (N, mu)

Exit codes: 0 success, 1 domain/validation rejection, 2 convergence or
iteration failure, 64 usage. The machine artifact (JSON by default, CSV via
--format csv) goes to stdout or --output; --pretty renders a human table on
stdout instead (the --output file still receives the machine format);
diagnostics go to stderr only. Identical invocations produce byte-identical
machine output. --config FILE supplies defaults for the subcommand's flags
(a JSON object keyed by flag names with dashes replaced by underscores);
explicitly passed flags win over the config file.
"""

import argparse
import json
import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, IterationError, ValidationError
from .moving_plane import sample_field, sweep_lambda0
from .power_law import (
    ModelParams,
    PowerLawTerm,
    alternate_decay_exponent,
    critical_exponents,
    hls_conjugate,
    riesz_power,
    solve_params,
)
from .radial_quadrature import QuadratureConfig, RadialProfile, log_grid, riesz_radial
from .serialize import (
    MOVING_PLANE_SCHEMA,
    RESIDUAL_SCHEMA,
    dumps,
    kv_csv,
    report_document,
    table_csv,
)
from .verifier import verify_solution

_ALTERNATE_NOTE = (
    "diagnostic variant with q entering by -q; does not satisfy the equation "
    "when p != q"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


class _Resolver:
    """Flag values with config-file fallback: explicit flag > config > default."""

    def __init__(self, args, config):
        self.args = args
        self.config = config

    def _raw(self, name, default):
        v = getattr(self.args, name, None)
        if v is None:
            v = self.config.get(name, default)
        return v

    def f(self, name, default=None, required=False):
        v = self._raw(name, default)
        if v is None:
            if required:
                raise _UsageError(f"missing required value --{name.replace('_', '-')}")
            return None
        try:
            return float(v)
        except (TypeError, ValueError):
            raise _UsageError(f"--{name.replace('_', '-')} expects a number, got {v!r}")

    def i(self, name, default=None, required=False):
        v = self.f(name, default, required)
        if v is None:
            return None
        if not math.isfinite(v) or v != int(v):
            raise _UsageError(f"--{name.replace('_', '-')} expects an integer, got {v!r}")
        return int(v)

    def flag(self, name):
        v = self._raw(name, False)
        return bool(v)

    def floats(self, name, default=None):
        v = self._raw(name, default)
        if v is None:
            return None
        if isinstance(v, str):
            parts = [piece for piece in v.split(",") if piece.strip()]
        else:
            parts = list(v)
        try:
            out = [float(piece) for piece in parts]
        except (TypeError, ValueError):
            raise _UsageError(f"--{name.replace('_', '-')} expects comma-separated numbers")
        if not out:
            raise _UsageError(f"--{name.replace('_', '-')} expects at least one number")
        return out

    def points(self, name, dim, default=None):
        v = self._raw(name, default)
        if v is None:
            return None
        if isinstance(v, str):
            groups = [g for g in v.split(";") if g.strip()]
            pts = []
            for g in groups:
                try:
                    pts.append([float(c) for c in g.split(",")])
                except ValueError:
                    raise _UsageError(
                        f"--{name.replace('_', '-')} expects points like 0,0,0;0,0.5,0"
                    )
        else:
            pts = [list(map(float, g)) for g in v]
        for pt in pts:
            if len(pt) != dim:
                raise _UsageError(
                    f"--{name.replace('_', '-')}: point {pt} is not {dim}-dimensional"
                )
        return pts


def _quad_config(res):
    kwargs = {}
    rel = res.f("rel_tol")
    if rel is not None:
        kwargs["rel_tol"] = rel
    ab = res.f("abs_tol")
    if ab is not None:
        kwargs["abs_tol"] = ab
    mp = res.i("max_panels")
    if mp is not None:
        kwargs["max_panels"] = mp
    an = res.i("angular_nodes")
    if an is not None:
        kwargs["angular_nodes"] = an
    return QuadratureConfig(**kwargs) if kwargs else None


def _grid(res):
    lo = res.f("grid_min", 1e-3)
    hi = res.f("grid_max", 1e3)
    num = res.i("grid_num", 400)
    return log_grid(lo, hi, num)


# ---------------------------------------------------------------------------
# Handlers: each returns (body, table, pretty). The JSON artifact is the body;
# the CSV artifact is the column table, or the body's scalar fields when the
# table is None.


def _do_solve_params(res):
    dim = res.i("dim", 3)
    mu = res.f("mu", required=True)
    p = res.f("p", required=True)
    q = res.f("q", required=True)
    params = solve_params(dim, mu, p, q)
    try:
        alt = alternate_decay_exponent(dim, mu, p, q)
    except DomainError:
        alt = None
    body = {
        "kind": "solve-params",
        "dim": params.dim,
        "mu": params.mu,
        "p": params.p,
        "q": params.q,
        "s": params.s,
        "amplitude": params.amplitude,
        "sp": params.sp,
        "sq1": params.sq1,
        "symmetry_window": params.symmetry_window,
        "alternate_s": alt,
        "alternate_s_note": _ALTERNATE_NOTE,
    }
    pretty = "\n".join([
        f"dim = {params.dim}, mu = {params.mu:g}, p = {params.p:g}, q = {params.q:g}",
        f"decay exponent s   = {params.s:.12g}",
        f"amplitude A        = {params.amplitude:.12g}",
        f"s*p = {params.sp:.12g}   s*(q-1) = {params.sq1:.12g}",
        f"symmetry window (N-2 < mu < N): {'yes' if params.symmetry_window else 'no'}",
        f"variant decay (diagnostic only): "
        f"{'undefined' if alt is None else format(alt, '.12g')}",
    ]) + "\n"
    return body, None, pretty


def _diagnostic_params(dim, mu, p, q, s, amplitude):
    return ModelParams(dim=dim, mu=mu, p=p, q=q, s=s, amplitude=amplitude,
                       symmetry_window=(dim - 2.0 < mu < dim))


def _do_verify(res):
    dim = res.i("dim", 3)
    mu = res.f("mu", required=True)
    p = res.f("p", required=True)
    q = res.f("q", required=True)
    radii = np.array(res.floats("radii", [0.5, 1.0, 2.0]))
    cfg = _quad_config(res)
    grid = _grid(res)
    use_alt = res.flag("use_alternate_s")
    decay = res.f("decay")
    amplitude = res.f("amplitude")
    if use_alt and decay is not None:
        raise _UsageError("--use-alternate-s and --decay are mutually exclusive")
    if use_alt:
        decay = alternate_decay_exponent(dim, mu, p, q)
    if decay is not None:
        amp = 1.0 if amplitude is None else amplitude
        params = _diagnostic_params(dim, mu, p, q, decay, amp)
        report = verify_solution(params, radii, cfg, decay=decay, amplitude=amp,
                                 grid=grid)
        mode = "diagnostic"
    else:
        params = solve_params(dim, mu, p, q)
        report = verify_solution(params, radii, cfg, amplitude=amplitude, grid=grid)
        mode = "family"
    fields, table = report_document(report, RESIDUAL_SCHEMA)
    body = {"kind": "verify-report", "mode": mode, "dim": dim, "mu": mu, "p": p,
            "q": q, **fields}
    rows = [
        f"{'r':>10} {'lhs':>16} {'rhs':>16} {'ratio':>16} {'quad err':>10}"
    ]
    for i in range(report.radii.size):
        rows.append(
            f"{report.radii[i]:>10.4g} {report.lhs[i]:>16.8g} {report.rhs[i]:>16.8g} "
            f"{report.ratio[i]:>16.10g} {report.quadrature_error[i]:>10.2e}"
        )
    rows.append(f"worst |ratio - 1| = {report.worst_deviation:.3e}  ({mode} mode, "
                f"s = {report.decay:.10g}, A = {report.amplitude:.10g})")
    return body, table, "\n".join(rows) + "\n"


def _do_riesz(res):
    dim = res.i("dim", 3)
    alpha = res.f("alpha", required=True)
    exponent = res.f("exponent", required=True)
    coefficient = res.f("coefficient", 1.0)
    term = riesz_power(alpha, exponent, dim).scaled(coefficient)
    body = {
        "kind": "riesz-power",
        "dim": dim,
        "alpha": alpha,
        "input": {"coefficient": coefficient, "exponent": exponent},
        "output": {"coefficient": term.coefficient, "exponent": term.exponent},
    }
    pretty_lines = [
        f"I_{alpha:g}[{coefficient:g} r^-{exponent:g}] = "
        f"{term.coefficient:.12g} r^-{term.exponent:.12g}   (dim {dim})"
    ]
    table = None
    if res.flag("numeric"):
        radii = np.array(res.floats("radii", [0.5, 1.0, 2.0]))
        cfg = _quad_config(res)
        grid = _grid(res)
        src = RadialProfile.from_power(PowerLawTerm(coefficient, exponent), grid)
        pot = riesz_radial(src, alpha, dim, cfg=cfg, at=radii)
        closed = term(radii)
        body["numeric"] = {
            "radii": radii,
            "values": pot.values,
            "point_errors": pot.point_errors,
            "closed_form": closed,
        }
        table = {"r": radii, "value": pot.values, "error": pot.point_errors,
                 "closed_form": closed}
        pretty_lines.append(f"{'r':>10} {'numeric':>16} {'closed':>16} {'est err':>10}")
        for i in range(radii.size):
            pretty_lines.append(
                f"{radii[i]:>10.4g} {pot.values[i]:>16.10g} {closed[i]:>16.10g} "
                f"{pot.point_errors[i]:>10.2e}"
            )
    return body, table, "\n".join(pretty_lines) + "\n"


def _do_moving_plane(res):
    dim = res.i("dim", 3)
    num = res.i("num", 65)
    extent = res.f("extent", 2.0)
    decay = res.f("decay")
    amplitude = res.f("amplitude")
    mu = res.f("mu")
    p = res.f("p")
    q = res.f("q")
    if decay is None:
        if mu is None or p is None or q is None:
            raise _UsageError("need either --decay or the triple --mu --p --q")
        solve_dim = dim if dim >= 3 else 3
        params = solve_params(solve_dim, mu, p, q)
        decay = params.s
        amplitude = params.amplitude if amplitude is None else amplitude
    if amplitude is None:
        amplitude = 1.0
    centers = res.points("centers", dim, default="0," + ",".join(["0"] * (dim - 1)))
    excl = res.f("exclusion_radius")
    tol = res.f("tol")
    term = PowerLawTerm(amplitude, decay)
    field = sample_field(term, centers, dim=dim, extent=extent, num=num,
                         exclusion_radius=excl)
    lambdas = res.floats("lambdas")
    report = sweep_lambda0(field, None if lambdas is None else np.array(lambdas), tol=tol)
    fields, table = report_document(report, MOVING_PLANE_SCHEMA)
    body = {"kind": "moving-plane-report", "dim": dim, "num": num, "extent": extent,
            "decay": decay, "amplitude": amplitude, "centers": centers, **fields}
    rows = [f"{'lambda':>10} {'sup w+':>14} {'reverse sup w+':>14}"]
    for i in range(report.lambdas.size):
        rows.append(
            f"{report.lambdas[i]:>10.4g} {report.sup_w_plus[i]:>14.4e} "
            f"{report.reverse_sup_w_plus[i]:>14.4e}"
        )
    rows.append(f"lambda0 estimate: {report.lambda0_estimate} "
                f"(reverse {report.reverse_lambda0_estimate}), "
                f"monotonicity min {report.monotonicity_min:.4e}")
    if not report.dim_in_scope:
        rows.append("note: dimension below 3 is outside the symmetry statements")
    return body, table, "\n".join(rows) + "\n"


def _do_hls(res):
    dim = res.i("dim", 3)
    t = res.f("t", required=True)
    mu = res.f("mu", required=True)
    pair = hls_conjugate(t, mu, dim)
    body = {"kind": "hls-conjugate", "dim": pair.dim, "mu": pair.mu,
            "t": pair.t, "r": pair.r}
    pretty = (f"1/t + 1/r + mu/N = 2 with t = {pair.t:.12g}, mu = {pair.mu:g}, "
              f"N = {pair.dim}: r = {pair.r:.12g}\n")
    return body, None, pretty


def _do_critical(res):
    dim = res.i("dim", 3)
    mu = res.f("mu", required=True)
    lo, hi = critical_exponents(dim, mu)
    body = {"kind": "critical-exponents", "dim": dim, "mu": mu,
            "lower": lo, "upper": hi}
    pretty = (f"admissible window for dim {dim}, mu = {mu:g}: "
              f"((2N-mu)/N, (2N-mu)/(N-2)) = ({lo:.12g}, {hi:.12g})\n")
    return body, None, pretty


_HANDLERS = {
    "solve-params": _do_solve_params,
    "verify": _do_verify,
    "riesz": _do_riesz,
    "moving-plane": _do_moving_plane,
    "hls": _do_hls,
    "critical-exponents": _do_critical,
}


def _add_common(sp):
    sp.add_argument("--format", choices=("json", "csv"), default=None,
                    help="machine output format (default json)")
    sp.add_argument("--output", default=None, help="write the machine artifact here")
    sp.add_argument("--pretty", action="store_true", default=None,
                    help="human-readable table on stdout")
    sp.add_argument("--config", default=None, help="JSON file with flag defaults")


def _add_quad(sp):
    sp.add_argument("--rel-tol", dest="rel_tol", default=None)
    sp.add_argument("--abs-tol", dest="abs_tol", default=None)
    sp.add_argument("--max-panels", dest="max_panels", default=None)
    sp.add_argument("--angular-nodes", dest="angular_nodes", default=None)
    sp.add_argument("--grid-min", dest="grid_min", default=None)
    sp.add_argument("--grid-max", dest="grid_max", default=None)
    sp.add_argument("--grid-num", dest="grid_num", default=None)


def build_parser():
    parser = _Parser(prog="hartree-singular",
                     description="singular solutions of the nonlocal Hartree equation")
    sub = parser.add_subparsers(dest="command", metavar="command")

    sp = sub.add_parser("solve-params", help="derive (s, A) for (N, mu, p, q)")
    for flag in ("--dim", "--mu", "--p", "--q"):
        sp.add_argument(flag, default=None)
    _add_common(sp)

    sp = sub.add_parser("verify", help="residual check of the explicit solution")
    for flag in ("--dim", "--mu", "--p", "--q", "--radii", "--decay", "--amplitude"):
        sp.add_argument(flag, default=None)
    sp.add_argument("--use-alternate-s", dest="use_alternate_s",
                    action="store_true", default=None)
    _add_quad(sp)
    _add_common(sp)

    sp = sub.add_parser("riesz", help="Riesz potential of a power law")
    for flag in ("--dim", "--alpha", "--exponent", "--coefficient", "--radii"):
        sp.add_argument(flag, default=None)
    sp.add_argument("--numeric", action="store_true", default=None)
    _add_quad(sp)
    _add_common(sp)

    sp = sub.add_parser("moving-plane", help="reflection sweep of a sampled field")
    for flag in ("--dim", "--num", "--extent", "--decay", "--amplitude", "--mu",
                 "--p", "--q", "--centers", "--exclusion-radius", "--lambdas",
                 "--tol"):
        sp.add_argument(flag, dest=flag[2:].replace("-", "_"), default=None)
    _add_common(sp)

    sp = sub.add_parser("hls", help="conjugate convolution-inequality exponent")
    for flag in ("--dim", "--t", "--mu"):
        sp.add_argument(flag, default=None)
    _add_common(sp)

    sp = sub.add_parser("critical-exponents", help="admissible nonlinearity window")
    for flag in ("--dim", "--mu"):
        sp.add_argument(flag, default=None)
    _add_common(sp)

    return parser


def _load_config(path, args):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise _UsageError(f"config file {path} must hold a JSON object")
    known = set(vars(args))
    for key in cfg:
        if key not in known:
            raise _UsageError(f"config key {key!r} is not a flag of this subcommand")
    return cfg


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        config = _load_config(args.config, args)
        res = _Resolver(args, config)
        body, table, pretty_text = _HANDLERS[args.command](res)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 64
    except ValidationError as exc:
        rejection = dumps({
            "kind": "rejection",
            "valid": False,
            "violations": exc.violations,
        }) + "\n"
        sys.stdout.write(rejection)
        print(f"parameter set rejected: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, IterationError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2

    out_format = args.format if args.format is not None else config.get("format", "json")
    if out_format not in ("json", "csv"):
        print(f"unknown format {out_format!r}", file=sys.stderr)
        return 64
    if out_format == "json":
        machine = dumps(body) + "\n"
    else:
        machine = kv_csv(body) if table is None else table_csv(table)
    pretty = res.flag("pretty")
    output = args.output if args.output is not None else config.get("output")
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(machine)
        except OSError as exc:
            print(f"cannot write output file {output}: {exc}", file=sys.stderr)
            return 64
    if pretty:
        sys.stdout.write(pretty_text)
    elif not output:
        sys.stdout.write(machine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
