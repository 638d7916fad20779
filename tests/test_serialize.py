"""Deterministic JSON and CSV rendering of the report documents."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import hartree_singular.serialize as ser
from hartree_singular import DomainError, MovingPlaneReport, ResidualReport


# ---------------------------------------------------------------------------
# Number formatting and the emitter


def test_fmt_is_shortest_exact_representation():
    assert ser.fmt(0.1) == "0.10000000000000001"
    assert ser.fmt(1.0) == "1"
    assert ser.fmt(math.inf) == "Infinity"
    assert ser.fmt(-math.inf) == "-Infinity"
    assert ser.fmt(math.nan) == "NaN"
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-200, 200))
        assert float(ser.fmt(x)) == x, x


def test_dumps_is_deterministic_and_parseable():
    doc = {"b": 1, "a": [0.1, 2.0, math.inf], "nested": {"x": None, "y": True},
           "arr": np.array([1.5, math.nan]), "text": "hi"}
    out1 = ser.dumps(doc)
    out2 = ser.dumps(doc)
    assert out1 == out2
    back = json.loads(out1)
    assert list(back.keys()) == ["b", "a", "nested", "arr", "text"]  # order kept
    assert back["a"][0] == 0.1
    assert back["a"][2] == math.inf
    assert math.isnan(back["arr"][1])
    assert back["nested"]["x"] is None


def test_dumps_handles_numpy_scalars():
    out = ser.dumps({"i": np.int64(3), "f": np.float64(0.25), "b": False})
    assert json.loads(out) == {"i": 3, "f": 0.25, "b": False}


def test_dumps_rejects_unknown_types():
    with pytest.raises(DomainError):
        ser.dumps({"x": object()})
    with pytest.raises(DomainError):
        ser.dumps({"x": {1, 2}})


# ---------------------------------------------------------------------------
# Residual reports


def residual_example():
    return ResidualReport(
        radii=np.array([0.5, 1.0, 2.0]),
        lhs=np.array([0.9, 0.5, 0.25]),
        rhs=np.array([0.9, 0.5, 0.2500001]),
        ratio=np.array([1.0, 1.0, 0.9999996]),
        quadrature_error=np.array([1e-12, math.inf, 3e-13]),
        decay=5.0 / 6.0,
        amplitude=0.1531076580302631,
    )


def test_residual_json_roundtrip_bitwise():
    rep = residual_example()
    fields, _ = ser.report_document(rep, ser.RESIDUAL_SCHEMA)
    doc = json.loads(ser.dumps(fields))
    assert list(doc) == ["decay", "amplitude", "radii", "lhs", "rhs", "ratio",
                         "quadrature_error", "worst_deviation"]
    assert doc["worst_deviation"] == rep.worst_deviation
    for name in ("radii", "lhs", "rhs", "ratio", "quadrature_error"):
        assert np.array_equal(getattr(rep, name), doc[name]), name
    assert doc["decay"] == rep.decay and doc["amplitude"] == rep.amplitude


def test_residual_csv_columns():
    _, table = ser.report_document(residual_example(), ser.RESIDUAL_SCHEMA)
    lines = ser.table_csv(table).splitlines()
    assert lines[0] == "r,lhs,rhs,ratio,quadrature_error"
    assert len(lines) == 4
    assert lines[2].split(",")[4] == "Infinity"


# ---------------------------------------------------------------------------
# Moving-plane reports


def plane_example(lam0=-0.0625):
    return MovingPlaneReport(
        lambdas=np.array([-0.5, -0.25, -0.0625]),
        sup_w_plus=np.array([0.0, 0.0, 0.0]),
        lambda0_estimate=lam0,
        monotonicity_min=0.0123,
        reverse_sup_w_plus=np.array([0.0, 1e-13, 0.0]),
        reverse_lambda0_estimate=-0.5,
        tol=2e-12,
        dim_in_scope=True,
    )


def test_moving_plane_json_roundtrip():
    rep = plane_example()
    fields, _ = ser.report_document(rep, ser.MOVING_PLANE_SCHEMA)
    doc = json.loads(ser.dumps(fields))
    assert list(doc) == ["tol", "dim_in_scope", "lambdas", "sup_w_plus",
                         "lambda0_estimate", "reverse_sup_w_plus",
                         "reverse_lambda0_estimate", "monotonicity_min"]
    assert np.array_equal(rep.lambdas, doc["lambdas"])
    assert np.array_equal(rep.sup_w_plus, doc["sup_w_plus"])
    assert np.array_equal(rep.reverse_sup_w_plus, doc["reverse_sup_w_plus"])
    assert doc["lambda0_estimate"] == rep.lambda0_estimate
    assert doc["tol"] == rep.tol and doc["dim_in_scope"] is True


def test_moving_plane_none_estimate_roundtrips():
    fields, _ = ser.report_document(plane_example(lam0=None), ser.MOVING_PLANE_SCHEMA)
    doc = json.loads(ser.dumps(fields))
    assert doc["lambda0_estimate"] is None
    assert doc["reverse_lambda0_estimate"] == -0.5


def test_moving_plane_csv_columns():
    _, table = ser.report_document(plane_example(), ser.MOVING_PLANE_SCHEMA)
    lines = ser.table_csv(table).splitlines()
    assert lines[0] == "lambda,sup_w_plus,reverse_sup_w_plus"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# Key-value CSV of a document's scalar fields


def test_kv_csv_flattens_one_level_and_skips_arrays():
    doc = {"kind": "k", "n": np.int64(3), "x": 0.1, "ok": False, "none": None,
           "arr": np.array([1.0]), "input": {"a": 2.0, "deep": {"b": 1}, "v": [1]}}
    assert ser.kv_csv(doc) == ("key,value\nkind,k\nn,3\nx,0.10000000000000001\n"
                               "ok,false\nnone,\ninput_a,2\n")


# ---------------------------------------------------------------------------
# The same text with and without numpy loaded: serialize never imports numpy,
# and takes numpy scalars and arrays once numpy is there

_DUMPS_TEXT = ["0.10000000000000001", "-7", "0.10000000149011612",
               "[1.5,NaN,Infinity,-Infinity]", "[[1,[2.5,[null]]],[]]", "[[1,2],[3,4]]"]
_KV_TEXT = ("key,value\na,0.10000000000000001\nn,3\nf,0.10000000149011612\n"
            "inf,-Infinity\nnan,NaN\n")
_TABLE_TEXT = "r,v,e\n0.5,0.10000000149011612,NaN\n1,Infinity,2\n"


def test_numpy_values_render_to_fixed_text():
    docs = [np.float64(0.1), np.int64(-7), np.float32(0.1),
            np.array([1.5, math.nan, math.inf, -math.inf]),
            [[np.int64(1), (np.float64(2.5), [None])], ()], np.array([[1, 2], [3, 4]])]
    assert [ser.dumps(d) for d in docs] == _DUMPS_TEXT
    assert ser.kv_csv({"a": np.float64(0.1), "n": np.int64(3), "f": np.float32(0.1),
                       "inf": -math.inf, "nan": math.nan, "arr": np.array([1.0]),
                       "t": (1, 2)}) == _KV_TEXT
    assert ser.table_csv({"r": np.array([0.5, 1.0]), "v": [np.float32(0.1), math.inf],
                          "e": (math.nan, np.int64(2))}) == _TABLE_TEXT
    for bad in (object(), np.bool_(True), np.complex128(1j)):
        with pytest.raises(DomainError, match="cannot serialize"):
            ser.dumps({"x": bad})


_NO_NUMPY_SCRIPT = """
import json, math, sys
sys.modules["numpy"] = None  # from here on any numpy import raises ImportError
import hartree_singular.serialize as ser
from hartree_singular.errors import DomainError
inf, nan = math.inf, math.nan
docs = [0.1, -7, 0.10000000149011612, [1.5, nan, inf, -inf], [[1, (2.5, [None])], ()],
        [[1, 2], (3, 4)]]
texts = [ser.dumps(d) for d in docs]
kv = ser.kv_csv({"a": 0.1, "n": 3, "f": 0.10000000149011612, "inf": -inf, "nan": nan,
                 "arr": [1.0], "t": (1, 2)})
table = ser.table_csv({"r": (0.5, 1.0), "v": [0.10000000149011612, inf], "e": (nan, 2)})
try:
    ser.dumps({"x": object()})
    error = None
except DomainError as exc:
    error = str(exc)
print(json.dumps([texts, kv, table, error]))
"""


def test_plain_values_render_to_the_same_text_without_numpy():
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [_DUMPS_TEXT, _KV_TEXT, _TABLE_TEXT,
                                       "cannot serialize object of type object"]
