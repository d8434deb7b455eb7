"""The package's export surface: every advertised name resolves."""

import ast
import importlib
import pkgutil

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
    tree = ast.parse(open(stf_spde.__file__).read())
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
        "wiener": ["assemble_field", "mode_coefficients"],
    }
    for name, attrs in gone.items():
        module = importlib.import_module(f"stf_spde.{name}")
        for attr in attrs:
            assert not hasattr(module, attr) and not hasattr(stf_spde, attr), attr
    for attr in ("v_norm", "h_norm", "vstar_norm"):
        assert not hasattr(stf_spde.TripleKind, attr)
    assert not hasattr(stf_spde.Trajectory, "fields")
    assert not hasattr(stf_spde.QWienerLCPath, "field_at")
