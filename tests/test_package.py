"""The package surface: every public name, resolved on first access."""

import json
import subprocess
import sys

import pytest

import hartree_singular

_ALL = [
    "ConvergenceError", "DomainError", "IterationError", "ValidationError",
    "CartesianField", "MovingPlaneReport", "default_lambda_grid", "reflect", "sample_field",
    "sweep_lambda0", "w_plus_sup",
    "GAMMA_MARGIN", "HlsExponents", "ModelParams", "PowerLawTerm", "alternate_decay_exponent",
    "critical_exponents", "decay_exponent", "hls_conjugate", "laplacian_power", "riesz_power",
    "solve_params",
    "DEFAULT_CONFIG", "QuadratureConfig", "RadialProfile", "angular_kernel",
    "inverse_laplacian_radial", "log_grid", "riesz_radial",
    "gamma", "riesz_gamma", "sphere_area",
    "ResidualReport", "fixed_point_iterate", "source_profile", "verify_solution",
    "__version__",
]

# the module that defines each name
_HOMES = {
    "errors": _ALL[:4], "moving_plane": _ALL[4:11], "power_law": _ALL[11:22],
    "radial_quadrature": _ALL[22:29], "special_fn": _ALL[29:32], "verifier": _ALL[32:36],
}


def test_all_lists_every_name_in_order():
    assert len(_ALL) == 37
    assert hartree_singular.__all__ == _ALL


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from hartree_singular import *", namespace)
    assert set(_ALL) <= set(namespace)
    assert set(_ALL) <= set(dir(hartree_singular))


@pytest.mark.parametrize("module", sorted(_HOMES))
def test_each_name_is_its_module_attribute(module):
    home = __import__(f"hartree_singular.{module}", fromlist=["_"])
    for name in _HOMES[module]:
        assert getattr(hartree_singular, name) is getattr(home, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hartree_singular.no_such_name
    assert not hasattr(hartree_singular, "numpy")


def test_scalar_power_law_functions_load_no_numpy():
    script = ("import json, sys\nimport hartree_singular\n"
              "window = hartree_singular.critical_exponents(3, 2.5)\n"
              "print(json.dumps([window, 'numpy' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[7.0 / 6.0, 3.5], False]
