"""The LAPACK seam in grids against the scipy.linalg wrappers it replaces.

Each seam function makes the LAPACK call scipy's validating wrapper makes,
so every solve must match the wrapper bit for bit, leave its inputs as
they were, and raise the wrapper's exception types. The end-to-end test
runs the CLI once through the seam and once through the wrappers and
compares the output bytes.
"""

import importlib
import os
import pkgutil

import numpy as np
import pytest
import scipy.linalg as sla

import stf_spde
from stf_spde import grids
from stf_spde.cli import main
from stf_spde.solver import KNOWN_EXAMPLES

SCALES = (1e-6, 1e-3, 1.0, 1e3)
SIZES = (2, 12, 31)


def _scipy_solve_banded(ab, b):
    return sla.solve_banded((1, 1), ab, b, check_finite=False)


def _scipy_solveh_banded(ab, b):
    return sla.solveh_banded(ab, b, check_finite=False)


def _scipy_cho_solve_banded(cb, b):
    return sla.cho_solve_banded((cb, False), b, check_finite=False)


def _scipy_solve_factor_transposed(cb, b):
    lower = np.vstack([cb[1], np.append(cb[0, 1:], 0.0)])
    return sla.solve_banded((1, 0), lower, b, check_finite=False)


# seam function name -> the scipy wrapper call it stands for
SCIPY_ADAPTERS = {
    "solve_banded": _scipy_solve_banded,
    "solveh_banded": _scipy_solveh_banded,
    "cho_solve_banded": _scipy_cho_solve_banded,
    "solve_factor_transposed": _scipy_solve_factor_transposed,
}


def _general_band(rng, n, scale):
    """(3, N) band of a diagonally dominant tridiagonal matrix."""
    ab = scale * rng.uniform(-1.0, 1.0, (3, n))
    ab[1] = scale * (3.0 + rng.random(n))
    return ab


def _spd_band(rng, n, scale):
    """(2, N) upper band of a diagonally dominant SPD tridiagonal matrix."""
    ab = scale * rng.uniform(-1.0, 1.0, (2, n))
    ab[1] = scale * (3.0 + rng.random(n))
    return ab


def _factor(rng, n, scale):
    """Read-only upper Cholesky factor of a random SPD band."""
    cb = sla.cholesky_banded(_spd_band(rng, n, scale))
    cb.flags.writeable = False
    return cb


def _rhs_cases(rng, n, scale):
    # one right-hand side, and an (N, rows) stack in the layout the callers
    # pass: the transpose of C-contiguous rows
    return (scale * rng.standard_normal(n), scale * rng.standard_normal((5, n)).T)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert got.tobytes() == want.tobytes()


def _check_against_scipy(name, band, b):
    band_before, b_before = band.copy(), b.copy()
    got = getattr(grids, name)(band, b)
    np.testing.assert_array_equal(band, band_before)
    np.testing.assert_array_equal(b, b_before)
    _assert_same_bits(got, SCIPY_ADAPTERS[name](band, b))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", SIZES)
def test_seam_matches_scipy_bit_for_bit(n, scale):
    rng = np.random.default_rng([n, int(np.log10(scale)) + 10])
    cached = grids._neg_lap_cholesky(n)
    for b in _rhs_cases(rng, n, scale):
        _check_against_scipy("solve_banded", _general_band(rng, n, scale), b)
        _check_against_scipy("solveh_banded", _spd_band(rng, n, scale), b)
        for factor in (_factor(rng, n, scale), cached):
            _check_against_scipy("cho_solve_banded", factor, b)
            _check_against_scipy("solve_factor_transposed", factor, b)
    assert not cached.flags.writeable


@pytest.mark.parametrize("paths", [1, 4, 64])
def test_block_diagonal_band_matches_scipy_and_each_block(paths):
    # the band _newton_porous builds: one tridiagonal block per row, joined
    # by zero couplings
    n = 31
    rng = np.random.default_rng(paths)
    blocks = [_general_band(rng, n, 10.0 ** rng.integers(-6, 4)) for _ in range(paths)]
    for block in blocks:
        block[0, 0] = 0.0
        block[2, -1] = 0.0
    rhs = [rng.standard_normal(n) for _ in range(paths)]
    band = np.concatenate(blocks, axis=1)
    b = np.concatenate(rhs)
    _check_against_scipy("solve_banded", band, b)
    joined = grids.solve_banded(band, b).reshape(paths, n)
    for p in range(paths):
        _assert_same_bits(joined[p], _scipy_solve_banded(blocks[p], rhs[p]))


def test_singular_tridiagonal_band_raises_linalg_error():
    ab = np.zeros((3, 4))
    ab[1] = [1.0, 1.0, 0.0, 1.0]
    b = np.ones(4)
    with pytest.raises(np.linalg.LinAlgError):
        _scipy_solve_banded(ab, b)
    with pytest.raises(np.linalg.LinAlgError):
        grids.solve_banded(ab, b)


def test_non_spd_band_raises_linalg_error():
    ab = np.array([[0.0, 2.0, 2.0], [1.0, 1.0, 1.0]])
    b = np.ones(3)
    with pytest.raises(np.linalg.LinAlgError):
        _scipy_solveh_banded(ab, b)
    with pytest.raises(np.linalg.LinAlgError):
        grids.solveh_banded(ab, b)


def _package_modules():
    names = [stf_spde.__name__] + [
        f"{stf_spde.__name__}.{info.name}"
        for info in pkgutil.iter_modules(stf_spde.__path__)
    ]
    return [importlib.import_module(name) for name in names]


def test_no_module_binds_the_scipy_wrappers():
    wrappers = (sla.solve_banded, sla.solveh_banded, sla.cho_solve_banded)
    bound = [
        f"{module.__name__}.{key}"
        for module in _package_modules()
        for key, value in vars(module).items()
        if any(value is wrapper for wrapper in wrappers)
    ]
    assert bound == []


_FIXTURE_CONFIG = """\
[problem]
example = {example}

[discretization]
grid_size = 31
time_steps = 128
dyadic_level = 3

[noise]
n_modes = 16
decay_exponent = 1.0

[initial]
datum = sine(1)
amplitude = 0.1

[run]
paths = 2
master_seed = 7
"""


def _run_tree(tmp_path, tag):
    """Bytes of every file the CLI runs write, by run and file name.

    simulate and fixed-point on the three examples reach the Newton, heat
    and seed solves; verify regularity and hypotheses reach the H^-1
    solves against the cached factor.
    """
    runs = []
    for example in KNOWN_EXAMPLES:
        config = tmp_path / f"{example}.ini"
        config.write_text(_FIXTURE_CONFIG.format(example=example))
        for command in ("simulate", "fixed-point"):
            runs.append((f"{command}-{example}", [command, "--config", str(config)]))
    runs += [(f"verify-{suite}", ["verify", suite]) for suite in ("regularity", "hypotheses")]
    tree = {}
    for run, argv in runs:
        out = tmp_path / tag / run
        assert main(argv + ["--out", str(out)]) == 0
        for name in sorted(os.listdir(out)):
            tree[run, name] = (out / name).read_bytes()
    return tree


def test_cli_outputs_match_the_scipy_wrappers_byte_for_byte(tmp_path, monkeypatch):
    seam = _run_tree(tmp_path, "seam")
    patched, called = [], set()

    def recording(key):
        def adapter(band, b):
            called.add(key)
            return SCIPY_ADAPTERS[key](band, b)

        return adapter

    seam_functions = {key: getattr(grids, key) for key in SCIPY_ADAPTERS}
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is seam_functions.get(key):
                monkeypatch.setattr(module, key, recording(key))
                patched.append(f"{module.__name__.rsplit('.', 1)[-1]}.{key}")
    assert sorted(patched) == [
        "grids.cho_solve_banded",
        "grids.solve_banded",
        "grids.solve_factor_transposed",
        "grids.solveh_banded",
        "projection.solve_factor_transposed",
        "projection.solveh_banded",
        "solver.solve_banded",
        "solver.solveh_banded",
    ]
    wrappers = _run_tree(tmp_path, "wrappers")
    assert called == set(SCIPY_ADAPTERS)
    assert list(seam) == list(wrappers)
    assert seam == wrappers
