"""Grid and discrete-operator tests, checked against dense linear algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stf_spde.grids import (
    Field,
    SpatialGrid,
    TripleKind,
    _neg_lap_cholesky,
    inv_neg_laplacian_values,
    laplacian_eigenvalue,
    laplacian_values,
    norm,
    norm_values,
    signed_power_values,
    sine_field,
)


def dense_laplacian(n):
    """Oracle: dense 3-point Dirichlet Laplacian matrix."""
    h = 1.0 / (n + 1)
    return (
        np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    ) / h**2


def random_values(grid, rng, scale=1.0):
    return scale * rng.standard_normal(grid.n_interior)


@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 5, 16, 63]))
@settings(max_examples=30, deadline=None)
def test_laplacian_matches_dense_oracle(seed, n):
    grid = SpatialGrid(n)
    rng = np.random.default_rng(seed)
    u = random_values(grid, rng)
    expected = dense_laplacian(n) @ u
    got = laplacian_values(grid, u)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-9)


def test_sine_is_discrete_eigenvector():
    # Lap_h sin(k pi x) = -mu_k sin(k pi x) with mu_k = (4/h^2) sin^2(k pi h / 2)
    grid = SpatialGrid(63)
    for k in (1, 2, 7):
        u = sine_field(grid, k).values
        mu = laplacian_eigenvalue(grid, k)
        lhs = laplacian_values(grid, u)
        rhs = -mu * u
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_eigenvalue_formula_against_dense_spectrum():
    n = 16
    grid = SpatialGrid(n)
    dense_eigs = np.sort(np.linalg.eigvalsh(-dense_laplacian(n)))
    formula = np.sort([laplacian_eigenvalue(grid, k) for k in range(1, n + 1)])
    assert np.allclose(dense_eigs, formula, rtol=1e-10)


@pytest.mark.parametrize("n", [16, 63, 255])
def test_inverse_neg_laplacian_residual(n):
    grid = SpatialGrid(n)
    rng = np.random.default_rng(7)
    fields = [random_values(grid, rng), sine_field(grid, n).values]
    if n <= 63:
        # The lowest mode maximizes cond(-Lap_h) in the residual; at n = 255
        # merely evaluating Lap_h(u_exact) + f in float64 already leaves
        # ~eps * cond ~ 6e-13 per unit of |f|, so the 1e-12 contract is only
        # meaningful for it on sizes where that floor is far below 1e-12.
        fields.append(sine_field(grid, 1).values)
    for f in fields:
        u = inv_neg_laplacian_values(grid, f)
        resid = laplacian_values(grid, u) + f
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(f))
    # the same right-hand sides as one (rows, N) batch: one solve, same bits
    rows = np.array(fields)
    u = inv_neg_laplacian_values(grid, rows)
    assert u.shape == rows.shape
    resid = laplacian_values(grid, u) + rows
    scale = np.max(np.abs(rows), axis=1)
    assert np.all(np.max(np.abs(resid), axis=1) <= 1e-12 * scale)
    for f, row in zip(fields, u):
        assert np.array_equal(row, inv_neg_laplacian_values(grid, f))


def test_inverse_matches_dense_solve():
    n = 40
    grid = SpatialGrid(n)
    rng = np.random.default_rng(3)
    f = random_values(grid, rng)
    expected = np.linalg.solve(-dense_laplacian(n), f)
    got = inv_neg_laplacian_values(grid, f)
    assert np.allclose(got, expected, rtol=1e-11, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_summation_by_parts(seed):
    # <-Lap_h u, u>_L2 equals the squared H1_0 seminorm exactly
    grid = SpatialGrid(33)
    rng = np.random.default_rng(seed)
    u = random_values(grid, rng)
    lhs = -grid.h * np.dot(laplacian_values(grid, u), u)
    rhs = norm_values(grid, u, "V_H1") ** 2
    assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1e-30)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_laplacian_symmetry(seed):
    grid = SpatialGrid(21)
    rng = np.random.default_rng(seed)
    u = random_values(grid, rng)
    v = random_values(grid, rng)
    a = np.dot(laplacian_values(grid, u), v)
    b = np.dot(u, laplacian_values(grid, v))
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1.0)


@pytest.mark.parametrize("n", [15, 63, 255])
def test_l2_norm_of_first_sine(n):
    # h * sum sin^2(j pi h) = 1/2 exactly on the uniform Dirichlet grid
    grid = SpatialGrid(n)
    u = sine_field(grid, 1).values
    assert norm_values(grid, u, "L2") == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_lp_norm_of_constant():
    grid = SpatialGrid(9)
    c = 2.5
    u = np.full(9, c)
    for p in (1.0, 3.0, 4.0):
        expected = (grid.h * 9 * c**p) ** (1.0 / p)
        assert norm_values(grid, u, "Lp", p=p) == pytest.approx(expected, rel=1e-13)


def test_signed_power_examples():
    u = np.array([4.0, -4.0, 0.0, 0.25])
    half = signed_power_values(u, 0.5)
    assert np.allclose(half, [2.0, -2.0, 0.0, 0.5])
    assert np.allclose(signed_power_values(u, 1.0), u)
    cube = signed_power_values(u, 3.0)
    assert np.allclose(cube, [64.0, -64.0, 0.0, 0.015625])


@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_signed_power_odd_and_monotone(seed, m):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-100.0, 100.0, size=50)
    v = rng.uniform(-100.0, 100.0, size=50)
    pu = signed_power_values(u, m)
    mpu = signed_power_values(-u, m)
    assert np.allclose(mpu, -pu, rtol=1e-13, atol=0)
    pv = signed_power_values(v, m)
    # pointwise monotonicity of the odd power
    assert np.all((pu - pv) * (u - v) >= 0.0)


def test_signed_power_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        signed_power_values(np.ones(4), 0.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_porous_pairing_reproduces_hminus1_norm(seed):
    grid = SpatialGrid(31)
    rng = np.random.default_rng(seed)
    u = random_values(grid, rng, scale=3.0)
    pairing = TripleKind.porous(2).pairing_values(grid, u, u)
    assert pairing == pytest.approx(norm_values(grid, u, "Hminus1") ** 2, rel=1e-10)


def test_heat_pairing_is_l2_inner_product():
    grid = SpatialGrid(8)
    rng = np.random.default_rng(0)
    f, g = random_values(grid, rng), random_values(grid, rng)
    expected = grid.h * np.dot(f, g)
    got = TripleKind.heat().pairing_values(grid, f, g)
    assert got == pytest.approx(expected, rel=1e-14)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_hminus1_bounded_by_l2(seed):
    # |u|_{H^-1} <= lambda_min^{-1/2} |u|_{L2}
    grid = SpatialGrid(47)
    rng = np.random.default_rng(seed)
    u = random_values(grid, rng, scale=10.0)
    c_grid = laplacian_eigenvalue(grid, 1) ** -0.5
    bound = c_grid * norm_values(grid, u, "L2") * (1 + 1e-12)
    assert norm_values(grid, u, "Hminus1") <= bound


def test_triple_kind_norm_routing():
    grid = SpatialGrid(12)
    rng = np.random.default_rng(5)
    u = random_values(grid, rng)
    heat = TripleKind.heat()
    assert heat.v_norm_values(grid, u) == norm_values(grid, u, "V_H1")
    assert heat.h_norm_values(grid, u) == norm_values(grid, u, "L2")
    assert heat.vstar_norm_values(grid, u) == norm_values(grid, u, "Hminus1")
    porous = TripleKind.porous(3)
    assert porous.v_norm_values(grid, u) == norm_values(grid, u, "Lp", p=4)
    assert porous.h_norm_values(grid, u) == norm_values(grid, u, "Hminus1")
    assert porous.vstar_norm_values(grid, u) == norm_values(grid, u, "Lp", p=4 / 3)
    # a (rows, N) batch routes to the same kinds, one value per row
    rows = rng.standard_normal((4, grid.n_interior))
    others = rng.standard_normal((4, grid.n_interior))
    h = grid.h
    inv = inv_neg_laplacian_values(grid, rows)
    for got, want in [
        (heat.v_norm_values(grid, rows), norm_values(grid, rows, "V_H1")),
        (heat.h_norm_values(grid, rows), norm_values(grid, rows, "L2")),
        (heat.vstar_norm_values(grid, rows), norm_values(grid, rows, "Hminus1")),
        (heat.pairing_values(grid, rows, others), h * np.vecdot(rows, others)),
        (porous.v_norm_values(grid, rows), norm_values(grid, rows, "Lp", p=4)),
        (porous.h_norm_values(grid, rows), norm_values(grid, rows, "Hminus1")),
        (porous.vstar_norm_values(grid, rows), norm_values(grid, rows, "Lp", p=4 / 3)),
        (porous.pairing_values(grid, rows, others), h * np.vecdot(inv, others)),
    ]:
        assert got.shape == (4,)
        assert np.array_equal(got, want)
    # each batched pairing row keeps the bits of the one-row pairing
    for triple in (heat, porous):
        batch = triple.pairing_values(grid, rows, others)
        for j in range(4):
            assert batch[j] == triple.pairing_values(grid, rows[j], others[j])


@pytest.mark.parametrize("n", [2, 12, 31])
def test_batched_norms_match_row_loop(n):
    # every kind on a (rows, N) array against a loop over its rows; rows of
    # strongly different scale and an all-zero row included
    grid = SpatialGrid(n)
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((9, n)) * 10.0 ** rng.uniform(-6, 3, size=(9, 1))
    rows[4] = 0.0
    for kind, p in [("L2", None), ("V_H1", None), ("Hminus1", None), ("Lp", 3.0)]:
        batch = norm_values(grid, rows, kind, p)
        loop = np.array([norm_values(grid, row, kind, p) for row in rows])
        assert batch.shape == (9,)
        assert all(isinstance(norm_values(grid, row, kind, p), float) for row in rows)
        # any leading shape gives the (rows, N) batch's values, reshaped
        cube = norm_values(grid, rows[:6].reshape(2, 3, n), kind, p)
        assert cube.shape == (2, 3)
        assert np.array_equal(cube.ravel(), batch[:6])
        if kind == "Lp":
            # the array power may differ from the scalar one by one ulp
            np.testing.assert_allclose(batch, loop, rtol=1e-14, atol=0.0)
        else:
            assert np.array_equal(batch, loop)
    # the 1-D L2 norm keeps np.dot's bits: Newton's residual contract reads it,
    # so every trajectory keeps its bits too
    h = grid.h
    for row in rows:
        assert norm_values(grid, row, "L2") == float(np.sqrt(h * np.dot(row, row)))


def test_contract_errors():
    grid = SpatialGrid(5)
    with pytest.raises(ValueError):
        Field(grid, np.ones(4))
    with pytest.raises(ValueError):
        SpatialGrid(1)
    with pytest.raises(ValueError):
        norm(Field(grid, np.ones(5)), "Lp")  # missing p
    for p in (0.5, np.inf, np.nan):
        with pytest.raises(ValueError):
            norm_values(grid, 3.0 * np.ones(5), "Lp", p)
    with pytest.raises(ValueError):
        norm(Field(grid, np.ones(5)), "sup")
    with pytest.raises(ValueError):
        laplacian_eigenvalue(grid, 0)
    with pytest.raises(ValueError):
        TripleKind("spectral")


def test_field_values_are_read_only():
    grid = SpatialGrid(4)
    u = Field(grid, np.ones(4))
    with pytest.raises(ValueError):
        u.values[0] = 2.0


def test_cached_cholesky_factor_is_read_only():
    grid = SpatialGrid(31)
    factor = _neg_lap_cholesky(grid.n_interior)
    assert factor.flags.writeable is False
    with pytest.raises(ValueError):
        factor[1, 0] = 0.0
    # the frozen factor still serves solves
    f = sine_field(grid, 1).values
    u = inv_neg_laplacian_values(grid, f)
    assert np.max(np.abs(laplacian_values(grid, u) + f)) < 1e-9
