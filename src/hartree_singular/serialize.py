"""Deterministic JSON and CSV rendering of the CLI documents.

Every float is written with repr-faithful precision (17 significant digits),
so the stdlib parser recovers the exact double. JSON objects keep insertion
order; infinities and NaN use the Infinity/-Infinity/NaN tokens that the
stdlib parser accepts. numpy scalars and arrays are accepted, but numpy is
never imported here: no numpy object can exist before numpy is loaded.
"""

import json
import math
import sys

from .errors import DomainError


def _kinds():
    """The (integer, float, sequence) types, with numpy's once numpy is loaded."""
    np = sys.modules.get("numpy")
    if np is None:
        return (int,), (float,), (list, tuple)
    return (int, np.integer), (float, np.floating), (list, tuple, np.ndarray)


def fmt(x):
    """A float as text, round-trip exact."""
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def dumps(obj):
    """Compact JSON with deterministic float text and insertion-order keys."""
    pieces = []
    _emit(obj, pieces, _kinds())
    return "".join(pieces)


def _emit(obj, out, kinds):
    ints, floats, seqs = kinds
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, ints) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, floats):
        out.append(fmt(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _emit(v, out, kinds)
        out.append("}")
    elif isinstance(obj, seqs):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out, kinds)
        out.append("]")
    else:
        raise DomainError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Report schemas, declared once: the JSON fields in document order, then the
# CSV columns as (header, attribute) pairs.

SOLVE_PARAMS_SCHEMA = (
    ("dim", "mu", "p", "q", "s", "amplitude", "sp", "sq1", "symmetry_window"),
    (),
)

RESIDUAL_SCHEMA = (
    ("decay", "amplitude", "radii", "lhs", "rhs", "ratio", "quadrature_error",
     "worst_deviation"),
    (("r", "radii"), ("lhs", "lhs"), ("rhs", "rhs"), ("ratio", "ratio"),
     ("quadrature_error", "quadrature_error")),
)

MOVING_PLANE_SCHEMA = (
    ("tol", "dim_in_scope", "lambdas", "sup_w_plus", "lambda0_estimate",
     "reverse_sup_w_plus", "reverse_lambda0_estimate", "monotonicity_min"),
    (("lambda", "lambdas"), ("sup_w_plus", "sup_w_plus"),
     ("reverse_sup_w_plus", "reverse_sup_w_plus")),
)


def report_document(report, schema):
    """The report's JSON fields (ordered dict) and its CSV column table."""
    fields, columns = schema
    return ({name: getattr(report, name) for name in fields},
            {header: getattr(report, name) for header, name in columns})


def table_csv(table):
    """A header -> column mapping as CSV: one header line, then one row per index."""
    lines = [",".join(table)]
    lines.extend(",".join(fmt(v) for v in row) for row in zip(*table.values()))
    return "\n".join(lines) + "\n"


def kv_csv(body):
    """The scalar fields of a document as key,value rows.

    One level of nested dicts is flattened to parent_child keys; arrays and
    deeper nesting are JSON-only.
    """
    items = []
    for k, v in body.items():
        if isinstance(v, dict):
            items.extend((f"{k}_{ck}", cv) for ck, cv in v.items())
        else:
            items.append((k, v))
    lines, seqs = ["key,value"], _kinds()[2]
    for k, v in items:
        if not isinstance(v, (*seqs, dict)):
            lines.append(f"{k},{'' if v is None else v if isinstance(v, str) else dumps(v)}")
    return "\n".join(lines) + "\n"
