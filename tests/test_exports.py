"""The package's export surface: every advertised name resolves."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import stf_spde

MODULES = sorted(info.name for info in pkgutil.iter_modules(stf_spde.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"stf_spde.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    # every name __init__.py imports from a submodule is an attribute of
    # the package and of the submodule, and the submodule advertises it
    tree = ast.parse(Path(stf_spde.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(stf_spde, alias.name), alias.name
            assert getattr(stf_spde, alias.name) is getattr(module, alias.name)
            assert alias.name in module.__all__, (node.module, alias.name)


def test_field_wrappers_are_gone():
    # the array kernels are the one API; the README's "Array API" section
    # maps each of these wrappers to its replacement
    gone = {
        "grids": ["discrete_laplacian", "inverse_neg_laplacian", "signed_power",
                  "duality_pairing"],
        "solver": ["step_heat", "step_porous", "gradient_noise_apply"],
        "wiener": ["assemble_field", "mode_coefficients", "ScalarBMPath"],
    }
    for name, attrs in gone.items():
        module = importlib.import_module(f"stf_spde.{name}")
        for attr in attrs:
            assert not hasattr(module, attr) and not hasattr(stf_spde, attr), attr
    for attr in ("v_norm", "h_norm", "vstar_norm"):
        assert not hasattr(stf_spde.TripleKind, attr)
    assert not hasattr(stf_spde.Trajectory, "fields")
    assert not hasattr(stf_spde.QWienerLCPath, "field_at")
    # an LC path is one (n_modes, 2**level + 1) array, not a tuple of
    # per-mode boxes; a field without a default is no class attribute, so
    # check the dataclass fields
    lc_fields = [f.name for f in dataclasses.fields(stf_spde.QWienerLCPath)]
    assert lc_fields == ["spec", "level", "seed", "values"]
    assert "mode_paths" not in lc_fields


def test_stacked_ensemble_leftovers_are_gone():
    # the writers nothing called, and the dyadic annotation of TimeGrid
    # with the parameters that only set it
    assert [f.name for f in dataclasses.fields(stf_spde.TimeGrid)] == ["n_steps", "T"]
    for cls, attr in (
        (stf_spde.ContinuityResult, "to_csv"),
        (stf_spde.HypothesisReport, "to_csv"),
        (stf_spde.EnergyReport, "csv_row"),
        (stf_spde.EnergyReport, "csv_header"),
        (stf_spde.ProblemSpec, "drift_power"),
    ):
        assert not hasattr(cls, attr), (cls.__name__, attr)
    for func in (stf_spde.load_noise_path, stf_spde.trajectory_from_csv):
        assert "dyadic_level" not in inspect.signature(func).parameters


def test_test_only_names_and_unused_parameters_are_gone():
    # names only the tests called are test helpers, and parameters no
    # caller set are constants; the README's "Array API" table gives each
    # replacement
    for module, attr in (
        ("wiener", "haar_function"),
        ("wiener", "schauder_function"),
        ("wiener", "_check_haar_args"),
        ("fixed_point", "invariance_radius"),
    ):
        assert not hasattr(importlib.import_module(f"stf_spde.{module}"), attr), attr
        assert not hasattr(stf_spde, attr), attr
    gone = {
        stf_spde.fractional_seminorm: ("p", "spatial_p"),
        stf_spde.time_regularity_probe: ("alphas", "n_increment_times"),
        stf_spde.haar_rate_experiment: ("alpha", "p", "norm_kind", "spatial_p"),
        stf_spde.trajectory_lp_norm: ("spatial_p",),
    }
    for func, params in gone.items():
        kept = inspect.signature(func).parameters
        assert not set(params) & set(kept), (func.__name__, list(kept))
    assert list(inspect.signature(stf_spde.fractional_seminorm).parameters) == [
        "traj", "alpha", "norm_kind"
    ]
    for cls, attrs in (
        (stf_spde.RegularityTable, ("alphas", "seminorm_means", "seminorm_stderrs")),
        (stf_spde.RateFit, ("alpha",)),
        (stf_spde.FixedPointDiagnostics, ("energy_functional",)),
    ):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert not set(attrs) & fields, (cls.__name__, fields)
