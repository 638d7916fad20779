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
explicitly passed flags win over the config file. A config value is read by
the same rules as the flag's command-line text (switches take true or false).
"""

import argparse
import json
import sys

# numpy and the quadrature, verifier and moving-plane modules are imported by
# the handlers that use them, so the algebra subcommands start without numpy
from .errors import ConvergenceError, DomainError, IterationError, ValidationError
from .power_law import (
    ModelParams,
    PowerLawTerm,
    alternate_decay_exponent,
    critical_exponents,
    hls_conjugate,
    riesz_power,
    solve_params,
)
from .serialize import (
    MOVING_PLANE_SCHEMA,
    RESIDUAL_SCHEMA,
    SOLVE_PARAMS_SCHEMA,
    dumps,
    kv_csv,
    report_document,
    table_csv,
)

_ALTERNATE_NOTE = (
    "diagnostic variant with q entering by -q; does not satisfy the equation "
    "when p != q"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Flag kinds: each reads a flag's command-line text and its --config JSON value
# by the same rules, and raises _UsageError naming the flag otherwise.


def _number(flag, v):
    if isinstance(v, (str, int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except (ValueError, OverflowError):
            pass
    raise _UsageError(f"{flag} expects a number, got {v!r}")


def _integer(flag, v):
    x = _number(flag, v)
    if not x.is_integer():
        raise _UsageError(f"{flag} expects an integer, got {x!r}")
    return int(x)


def _numbers(flag, v):
    items = [s for s in v.split(",") if s.strip()] if isinstance(v, str) else v
    if not isinstance(items, list) or not items:
        raise _UsageError(f"{flag} expects one or more comma-separated numbers, got {v!r}")
    return [_number(flag, x) for x in items]


def _points(flag, v):
    groups = [g.split(",") for g in v.split(";") if g.strip()] if isinstance(v, str) else v
    if not isinstance(groups, list) or not groups or not all(isinstance(g, list) for g in groups):
        raise _UsageError(f"{flag} expects one or more points like 0,0,0;0,0.5,0, got {v!r}")
    return [[_number(flag, c) for c in g] for g in groups]


def _switch(flag, v):
    if not isinstance(v, bool):
        raise _UsageError(f"{flag} expects true or false, got {v!r}")
    return v


def _text(flag, v):
    if not isinstance(v, str):
        raise _UsageError(f"{flag} expects text, got {v!r}")
    return v


def _format(flag, v):
    if v not in ("json", "csv"):
        raise _UsageError(f"{flag} expects json or csv, got {v!r}")
    return v


# Every flag: name -> (kind, default). None means unset; the handler decides.
_FLAGS = {
    **dict.fromkeys(("mu", "p", "q", "t", "alpha", "exponent", "decay", "amplitude",
                     "exclusion_radius", "tol", "rel_tol"), (_number, None)),
    **dict.fromkeys(("use_alternate_s", "numeric", "pretty"), (_switch, False)),
    **dict.fromkeys(("output", "config"), (_text, None)),
    "dim": (_integer, 3),
    "coefficient": (_number, 1.0),
    "radii": (_numbers, [0.5, 1.0, 2.0]),
    "max_panels": (_integer, None),
    "grid_min": (_number, 1e-3),
    "grid_max": (_number, 1e3),
    "grid_num": (_integer, 400),
    "num": (_integer, 65),
    "extent": (_number, 2.0),
    "centers": (_points, None),
    "lambdas": (_numbers, None),
    "format": (_format, "json"),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _required(v, *names):
    for name in names:
        if getattr(v, name) is None:
            raise _UsageError(f"missing required value {_flag(name)}")
    return [getattr(v, name) for name in names]


def _quadrature(v):
    """(radii, config, grid) of the numeric Riesz pass shared by verify and riesz.

    An unset --rel-tol or --max-panels takes QuadratureConfig's default.
    """
    import numpy as np

    from .radial_quadrature import QuadratureConfig, log_grid

    given = {name: getattr(v, name) for name in ("rel_tol", "max_panels")}
    cfg = QuadratureConfig(**{name: x for name, x in given.items() if x is not None})
    return np.array(v.radii), cfg, log_grid(v.grid_min, v.grid_max, v.grid_num)


# ---------------------------------------------------------------------------
# Handlers: each takes the resolved flag values and returns (body, table,
# pretty). The JSON artifact is the body; the CSV artifact is the column
# table, or the body's scalar fields when the table is None.


def _render(head, columns, table, foot=()):
    """The --pretty text: head lines, a fixed-width table, foot lines.

    columns holds (title, width, format, key) specs; each row formats the
    table's key column at one index.
    """
    lines = [*head, " ".join(f"{title:>{width}}" for title, width, _, _ in columns)]
    for row in zip(*(table[key] for *_, key in columns)):
        lines.append(" ".join(format(x, f">{width}{spec}")
                              for x, (_, width, spec, _) in zip(row, columns)))
    return "\n".join([*lines, *foot]) + "\n"


def _do_solve_params(v):
    mu, p, q = _required(v, "mu", "p", "q")
    fields, _ = report_document(solve_params(v.dim, mu, p, q), SOLVE_PARAMS_SCHEMA)
    try:
        alt = alternate_decay_exponent(v.dim, mu, p, q)
    except DomainError:
        alt = None
    body = {"kind": "solve-params", **fields, "alternate_s": alt,
            "alternate_s_note": _ALTERNATE_NOTE}
    pretty = (
        "dim = {dim}, mu = {mu:g}, p = {p:g}, q = {q:g}\n"
        "decay exponent s   = {s:.12g}\n"
        "amplitude A        = {amplitude:.12g}\n"
        "s*p = {sp:.12g}   s*(q-1) = {sq1:.12g}\n"
        "symmetry window (N-2 < mu < N): {window}\n"
        "variant decay (diagnostic only): {variant}\n"
    ).format(**fields, window="yes" if fields["symmetry_window"] else "no",
             variant="undefined" if alt is None else format(alt, ".12g"))
    return body, None, pretty


def _do_verify(v):
    from .verifier import verify_solution

    dim = v.dim
    mu, p, q = _required(v, "mu", "p", "q")
    radii, cfg, grid = _quadrature(v)
    if v.use_alternate_s and v.decay is not None:
        raise _UsageError("--use-alternate-s and --decay are mutually exclusive")
    decay = alternate_decay_exponent(dim, mu, p, q) if v.use_alternate_s else v.decay
    amplitude = v.amplitude
    mode = "family" if decay is None and amplitude is None else "diagnostic"
    # off the family the base point has amplitude 1; verify_solution applies the overrides
    params = (solve_params(dim, mu, p, q) if decay is None
              else ModelParams(dim=dim, mu=mu, p=p, q=q, s=decay, amplitude=1.0))
    report = verify_solution(params, radii, cfg, decay=decay, amplitude=amplitude,
                             grid=grid)
    fields, table = report_document(report, RESIDUAL_SCHEMA)
    body = {"kind": "verify-report", "mode": mode, "dim": dim, "mu": mu, "p": p,
            "q": q, **fields}
    pretty = _render((), (("r", 10, ".4g", "r"), ("lhs", 16, ".8g", "lhs"),
                          ("rhs", 16, ".8g", "rhs"), ("ratio", 16, ".10g", "ratio"),
                          ("quad err", 10, ".2e", "quadrature_error")), table,
                     [f"worst |ratio - 1| = {report.worst_deviation:.3e}  ({mode} mode, "
                      f"s = {report.decay:.10g}, A = {report.amplitude:.10g})"])
    return body, table, pretty


def _do_riesz(v):
    alpha, exponent = _required(v, "alpha", "exponent")
    dim, coefficient = v.dim, v.coefficient
    term = riesz_power(alpha, exponent, dim).scaled(coefficient)
    body = {
        "kind": "riesz-power",
        "dim": dim,
        "alpha": alpha,
        "input": {"coefficient": coefficient, "exponent": exponent},
        "output": {"coefficient": term.coefficient, "exponent": term.exponent},
    }
    head = (f"I_{alpha:g}[{coefficient:g} r^-{exponent:g}] = "
            f"{term.coefficient:.12g} r^-{term.exponent:.12g}   (dim {dim})")
    if not v.numeric:
        return body, None, head + "\n"
    from .radial_quadrature import RadialProfile, riesz_radial

    radii, cfg, grid = _quadrature(v)
    src = RadialProfile.from_power(PowerLawTerm(coefficient, exponent), grid)
    pot = riesz_radial(src, alpha, dim, cfg=cfg, at=radii)
    # (CSV header, JSON key, array) per column
    columns = (("r", "radii", radii), ("value", "values", pot.values),
               ("error", "point_errors", pot.point_errors),
               ("closed_form", "closed_form", term(radii)))
    body["numeric"] = {key: x for _, key, x in columns}
    table = {header: x for header, _, x in columns}
    pretty = _render([head], (("r", 10, ".4g", "r"), ("numeric", 16, ".10g", "value"),
                              ("closed", 16, ".10g", "closed_form"),
                              ("est err", 10, ".2e", "error")), table)
    return body, table, pretty


def _do_moving_plane(v):
    from .moving_plane import sample_field, sweep_lambda0

    dim, decay, amplitude = v.dim, v.decay, v.amplitude
    if decay is None:
        if v.mu is None or v.p is None or v.q is None:
            raise _UsageError("need either --decay or the triple --mu --p --q")
        solve_dim = dim if dim >= 3 else 3
        params = solve_params(solve_dim, v.mu, v.p, v.q)
        decay = params.s
        amplitude = params.amplitude if amplitude is None else amplitude
    if amplitude is None:
        amplitude = 1.0
    centers = [[0.0] * dim] if v.centers is None else v.centers
    for pt in centers:
        if len(pt) != dim:
            raise _UsageError(f"--centers: point {pt} is not {dim}-dimensional")
    term = PowerLawTerm(amplitude, decay)
    field = sample_field(term, centers, dim=dim, extent=v.extent, num=v.num,
                         exclusion_radius=v.exclusion_radius)
    report = sweep_lambda0(field, v.lambdas, tol=v.tol)
    fields, table = report_document(report, MOVING_PLANE_SCHEMA)
    body = {"kind": "moving-plane-report", "dim": dim, "num": v.num, "extent": v.extent,
            "decay": decay, "amplitude": amplitude, "centers": centers, **fields}
    foot = [f"lambda0 estimate: {report.lambda0_estimate} "
            f"(reverse {report.reverse_lambda0_estimate}), "
            f"monotonicity min {report.monotonicity_min:.4e}"]
    if not report.dim_in_scope:
        foot.append("note: dimension below 3 is outside the symmetry statements")
    pretty = _render((), (("lambda", 10, ".4g", "lambda"), ("sup w+", 14, ".4e", "sup_w_plus"),
                          ("reverse sup w+", 14, ".4e", "reverse_sup_w_plus")), table, foot)
    return body, table, pretty


def _do_hls(v):
    t, mu = _required(v, "t", "mu")
    pair = hls_conjugate(t, mu, v.dim)
    body = {"kind": "hls-conjugate", "dim": pair.dim, "mu": pair.mu,
            "t": pair.t, "r": pair.r}
    pretty = (f"1/t + 1/r + mu/N = 2 with t = {pair.t:.12g}, mu = {pair.mu:g}, "
              f"N = {pair.dim}: r = {pair.r:.12g}\n")
    return body, None, pretty


def _do_critical(v):
    (mu,) = _required(v, "mu")
    lo, hi = critical_exponents(v.dim, mu)
    body = {"kind": "critical-exponents", "dim": v.dim, "mu": mu,
            "lower": lo, "upper": hi}
    pretty = (f"admissible window for dim {v.dim}, mu = {mu:g}: "
              f"((2N-mu)/N, (2N-mu)/(N-2)) = ({lo:.12g}, {hi:.12g})\n")
    return body, None, pretty


_QUAD = ("rel_tol", "max_panels", "grid_min", "grid_max", "grid_num")

# flags every subcommand takes, with their help lines
_COMMON = {
    "format": "machine output format (default json)",
    "output": "write the machine artifact here",
    "pretty": "human-readable table on stdout",
    "config": "JSON file with flag defaults",
}

# Every subcommand: name -> (handler, help line, flag names before _COMMON).
_COMMANDS = {
    "solve-params": (_do_solve_params, "derive (s, A) for (N, mu, p, q)",
                     ("dim", "mu", "p", "q")),
    "verify": (_do_verify, "residual check of the explicit solution",
               ("dim", "mu", "p", "q", "radii", "decay", "amplitude",
                "use_alternate_s", *_QUAD)),
    "riesz": (_do_riesz, "Riesz potential of a power law",
              ("dim", "alpha", "exponent", "coefficient", "radii", "numeric", *_QUAD)),
    "moving-plane": (_do_moving_plane, "reflection sweep of a sampled field",
                     ("dim", "num", "extent", "decay", "amplitude", "mu", "p", "q",
                      "centers", "exclusion_radius", "lambdas", "tol")),
    "hls": (_do_hls, "conjugate convolution-inequality exponent", ("dim", "t", "mu")),
    "critical-exponents": (_do_critical, "admissible nonlinearity window", ("dim", "mu")),
}


def build_parser():
    parser = _Parser(prog="hartree-singular",
                     description="singular solutions of the nonlocal Hartree equation")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, (_, help_line, names) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        for name in (*names, *_COMMON):
            kind, flag, flag_help = _FLAGS[name][0], _flag(name), _COMMON.get(name)
            if kind is _switch:
                sp.add_argument(flag, action="store_true", default=None, help=flag_help)
            else:
                # converting each occurrence rejects a bad value even when a
                # later occurrence of the same flag would override it
                sp.add_argument(flag, help=flag_help,
                                type=lambda text, kind=kind, flag=flag: kind(flag, text))
    return parser


def _load_config(path, names):
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
    for key in cfg:
        if key not in names:
            raise _UsageError(f"config key {key!r} is not a flag of this subcommand")
    return cfg


def _resolve(args, names):
    """Flag values: explicit flag > config value (JSON null counts as unset) > default."""
    config = _load_config(args.config, names)
    for name in names:
        kind, default = _FLAGS[name]
        if getattr(args, name) is None:
            raw = config.get(name)
            setattr(args, name, default if raw is None else kind(_flag(name), raw))
    return args


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (see --help)")
        handler, _, names = _COMMANDS[args.command]
        v = _resolve(args, (*names, *_COMMON))
        body, table, pretty_text = handler(v)
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

    if v.format == "json":
        machine = dumps(body) + "\n"
    else:
        machine = kv_csv(body) if table is None else table_csv(table)
    if v.output:
        try:
            with open(v.output, "w", encoding="utf-8") as fh:
                fh.write(machine)
        except OSError as exc:
            print(f"cannot write output file {v.output}: {exc}", file=sys.stderr)
            return 64
    if v.pretty:
        sys.stdout.write(pretty_text)
    elif not v.output:
        sys.stdout.write(machine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
