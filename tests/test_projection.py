"""Block averaging, fractional time norms, and decay-rate experiments."""

import csv
import re

import numpy as np
import pytest
import seminorm_loop
from hypothesis import given, settings
from hypothesis import strategies as st

from stf_spde.grids import Field, SpatialGrid, laplacian_eigenvalue, norm, sine_field
from stf_spde.projection import (
    HaarLevel,
    TimeGrid,
    Trajectory,
    _block_averages,
    _shifted_rows,
    fractional_seminorm,
    haar_rate_experiment,
    proj_shifted,
    smoothed_seed,
    trajectory_from_csv,
    trajectory_lp_norm,
    trajectory_to_csv,
)


def random_traj(grid, n_steps, rng, scale=1.0):
    m = scale * rng.standard_normal((n_steps + 1, grid.n_interior))
    return Trajectory.from_matrix(TimeGrid(n_steps), grid, m)


def scalar_traj(values, n_interior=2):
    """Embed a scalar path, or a (paths, n_steps + 1) stack of them, as a
    spatially constant trajectory.
    """
    values = np.asarray(values, dtype=float)
    m = np.repeat(values[..., None], n_interior, axis=-1)
    return Trajectory(TimeGrid(values.shape[-1] - 1), SpatialGrid(n_interior), m)


def brownian_traj(n_steps, seed):
    rng = np.random.default_rng(seed)
    b = np.concatenate(
        [[0.0], np.cumsum(rng.standard_normal(n_steps) * np.sqrt(1.0 / n_steps))]
    )
    return scalar_traj(b)


def naive_proj(u, n, seed_values):
    """Plain-loop reimplementation of the shifted block average."""
    blocks = 2**n
    s = (u.shape[0] - 1) // blocks
    avg = []
    for k in range(blocks):
        acc = 0.5 * u[k * s] + 0.5 * u[(k + 1) * s]
        for j in range(k * s + 1, (k + 1) * s):
            acc = acc + u[j]
        avg.append(acc / s)
    out = np.empty_like(u)
    for j in range(u.shape[0] - 1):
        k = j // s
        out[j] = seed_values if k == 0 else avg[k - 1]
    out[-1] = avg[blocks - 2]
    return out


def test_constant_trajectory_blocks():
    # 0.75 has a two-bit mantissa, so every partial sum in the trapezoid
    # average is exact and the blocks reproduce the constant bitwise
    grid = SpatialGrid(9)
    c = Field(grid, np.full(9, 0.75))
    seed = Field(grid, np.linspace(-1.0, 1.0, 9))
    out = proj_shifted(Trajectory.constant(TimeGrid(64), c), HaarLevel(2, seed))
    m = out.stacked()
    assert np.array_equal(m[:16], np.tile(seed.values, (16, 1)))
    assert np.array_equal(m[16:], np.full((49, 9), 0.75))


def test_output_piecewise_constant():
    grid = SpatialGrid(5)
    out = proj_shifted(
        random_traj(grid, 48, np.random.default_rng(2)),
        HaarLevel(3, Field(grid, np.zeros(5))),
    )
    m = out.stacked()
    for k in range(8):
        block = m[k * 6 : (k + 1) * 6]
        assert np.array_equal(block, np.tile(block[0], (6, 1)))
    assert np.array_equal(m[48], m[47])


def test_linear_ramp_hits_previous_block_midpoints():
    # the trapezoid average of t over [(k-1)/4, k/4] is the midpoint
    # (2k-1)/8, and every quantity is a dyadic rational, hence exact
    grid = SpatialGrid(3)
    tg = TimeGrid(32)
    ramp = Trajectory.from_matrix(
        tg, grid, np.repeat(tg.times[:, None], 3, axis=1)
    )
    out = proj_shifted(ramp, HaarLevel(2, Field(grid, np.zeros(3))))
    m = out.stacked()
    for k in range(1, 4):
        expected = (2 * k - 1) / 8
        assert np.array_equal(m[8 * k : 8 * (k + 1)], np.full((8, 3), expected))
    assert np.array_equal(m[32], np.full(3, 5 / 8))


def test_matches_naive_oracle():
    grid = SpatialGrid(7)
    rng = np.random.default_rng(11)
    traj = random_traj(grid, 48, rng)
    seed = Field(grid, rng.standard_normal(7))
    got = proj_shifted(traj, HaarLevel(3, seed)).stacked()
    expected = naive_proj(traj.stacked(), 3, seed.values)
    assert np.allclose(got, expected, rtol=1e-13, atol=1e-15)


def test_double_application_matches_two_pass_oracle():
    # random piecewise-constant input; apply twice through the API and
    # compare with two passes of the plain-loop oracle
    grid = SpatialGrid(4)
    rng = np.random.default_rng(23)
    n, s = 3, 8
    block_vals = rng.standard_normal((2**n, 4))
    u = np.vstack([np.repeat(block_vals, s, axis=0), block_vals[-1:]])
    traj = Trajectory.from_matrix(TimeGrid(2**n * s), grid, u)
    seed = Field(grid, rng.standard_normal(4))
    level = HaarLevel(n, seed)
    once = proj_shifted(traj, level)
    twice = proj_shifted(once, level).stacked()
    oracle = naive_proj(naive_proj(u, n, seed.values), n, seed.values)
    assert np.allclose(twice, oracle, rtol=1e-13, atol=1e-15)
    # block k >= 2 of the double application re-averages block k-1 of the
    # single one; the trapezoid's right endpoint pulls in 1/(2s) of the
    # next block's value
    m1 = once.stacked()
    for k in range(2, 2**n):
        v_prev, v_here = m1[(k - 1) * s], m1[k * s]
        expected = v_prev + (v_here - v_prev) / (2 * s)
        assert np.allclose(twice[k * s], expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("k", [0, 2, 6, 7])
def test_perturbation_strictly_inside_block_k_hits_block_k_plus_1(k):
    grid = SpatialGrid(5)
    rng = np.random.default_rng(37)
    traj = random_traj(grid, 64, rng)
    level = HaarLevel(3, Field(grid, rng.standard_normal(5)))
    s = 8
    base = proj_shifted(traj, level).stacked()
    u = traj.stacked()
    u[k * s + 1 : (k + 1) * s] += 1.0 + rng.random((s - 1, 5))
    pert = proj_shifted(
        Trajectory.from_matrix(traj.timegrid, grid, u), level
    ).stacked()
    # nothing at or before block k moves, bit for bit
    assert np.array_equal(base[: (k + 1) * s], pert[: (k + 1) * s])
    if k == 7:
        # perturbation in the final block never surfaces in the output
        assert np.array_equal(base, pert)
    else:
        assert not np.array_equal(base[(k + 1) * s : (k + 2) * s],
                                  pert[(k + 1) * s : (k + 2) * s])
        tail = slice((k + 2) * s, None)
        if k + 2 < 8:
            assert np.array_equal(base[tail], pert[tail])
        else:
            # the lone t = T node carries block 7's value, which moved
            assert not np.array_equal(base[tail], pert[tail])


def test_perturbation_at_block_boundary_hits_both_neighbors():
    # the sample at t_k carries trapezoid weight in the average over
    # [t_{k-1}, t_k], which feeds output block k: information revealed at
    # t_k enters the output from time t_k on, never earlier
    grid = SpatialGrid(5)
    rng = np.random.default_rng(41)
    traj = random_traj(grid, 64, rng)
    level = HaarLevel(3, Field(grid, np.zeros(5)))
    s, k = 8, 3
    base = proj_shifted(traj, level).stacked()
    u = traj.stacked()
    u[(k + 1) * s] += 2.0
    pert = proj_shifted(
        Trajectory.from_matrix(traj.timegrid, grid, u), level
    ).stacked()
    assert np.array_equal(base[: (k + 1) * s], pert[: (k + 1) * s])
    assert not np.array_equal(base[(k + 1) * s : (k + 2) * s],
                              pert[(k + 1) * s : (k + 2) * s])
    assert not np.array_equal(base[(k + 2) * s : (k + 3) * s],
                              pert[(k + 2) * s : (k + 3) * s])
    assert np.array_equal(base[(k + 3) * s :], pert[(k + 3) * s :])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_linearity_with_zero_seed(seed):
    grid = SpatialGrid(6)
    rng = np.random.default_rng(seed)
    x = random_traj(grid, 32, rng)
    y = random_traj(grid, 32, rng)
    a, b = 2.5, -0.75
    level = HaarLevel(2, Field(grid, np.zeros(6)))
    combo = Trajectory.from_matrix(
        x.timegrid, grid, a * x.stacked() + b * y.stacked()
    )
    lhs = proj_shifted(combo, level).stacked()
    rhs = a * proj_shifted(x, level).stacked() + b * proj_shifted(y, level).stacked()
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_affine_seed_combination():
    grid = SpatialGrid(6)
    rng = np.random.default_rng(5)
    x = random_traj(grid, 32, rng)
    y = random_traj(grid, 32, rng)
    sx = Field(grid, rng.standard_normal(6))
    sy = Field(grid, rng.standard_normal(6))
    a, b = 1.5, 2.0
    combo = Trajectory.from_matrix(
        x.timegrid, grid, a * x.stacked() + b * y.stacked()
    )
    s_combo = Field(grid, a * sx.values + b * sy.values)
    lhs = proj_shifted(combo, HaarLevel(2, s_combo)).stacked()
    rhs = (
        a * proj_shifted(x, HaarLevel(2, sx)).stacked()
        + b * proj_shifted(y, HaarLevel(2, sy)).stacked()
    )
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_contraction_with_zero_seed(seed):
    # block averaging with zero seed never increases the time-Lp norm
    # (Jensen on the trapezoid weights, which sum to one)
    grid = SpatialGrid(6)
    rng = np.random.default_rng(seed)
    traj = random_traj(grid, 32, rng, scale=10.0 ** rng.uniform(-2, 2))
    level = HaarLevel(2, Field(grid, np.zeros(6)))
    out = proj_shifted(traj, level)
    for kind, p in (("L2", 2.0), ("V_H1", 1.0), ("Hminus1", 3.0), ("L2", 1.0)):
        lhs = trajectory_lp_norm(out, kind, p)
        rhs = trajectory_lp_norm(traj, kind, p)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_incompatible_inputs_rejected():
    grid = SpatialGrid(5)
    traj = random_traj(grid, 48, np.random.default_rng(0))
    with pytest.raises(ValueError):
        proj_shifted(traj, HaarLevel(5, Field(grid, np.zeros(5))))  # 48 % 32 != 0
    with pytest.raises(ValueError):
        proj_shifted(traj, HaarLevel(2, Field(SpatialGrid(7), np.zeros(7))))
    with pytest.raises(ValueError):
        HaarLevel(0, Field(grid, np.zeros(5)))


@pytest.mark.parametrize("horizon", [np.inf, -np.inf, np.nan, -1.0])
def test_timegrid_rejects_a_horizon_that_is_not_positive_and_finite(horizon):
    # an infinite horizon passed a plain T > 0 check and gave dt = inf
    with pytest.raises(ValueError, match="horizon T must be positive and finite"):
        TimeGrid(8, T=horizon)


def test_timegrid_and_trajectory_validation():
    with pytest.raises(ValueError):
        TimeGrid(0)
    with pytest.raises(ValueError):
        TimeGrid(8, T=0.0)
    grid = SpatialGrid(4)
    with pytest.raises(ValueError):
        Trajectory.from_matrix(TimeGrid(3), grid, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        Trajectory.from_matrix(TimeGrid(1), grid, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        Trajectory.from_matrix(TimeGrid(4), grid, np.zeros((4, 4)))
    # an ensemble is a stacked Trajectory, and it cannot be empty
    with pytest.raises(ValueError, match="at least one path"):
        Trajectory(TimeGrid(1), grid, np.zeros((0, 2, 4)))


def test_trajectory_values_are_read_only():
    traj = Trajectory.from_matrix(TimeGrid(2), SpatialGrid(4), np.zeros((3, 4)))
    assert traj.values.shape == (3, 4)
    assert not traj.values.flags.writeable
    with pytest.raises(ValueError):
        traj.values[0, 0] = 1.0


def test_trajectory_copies_its_input_once():
    matrix = np.arange(12.0).reshape(3, 4)
    traj = Trajectory.from_matrix(TimeGrid(2), SpatialGrid(4), matrix)
    matrix[1, 2] = -7.0
    assert np.array_equal(traj.values, np.arange(12.0).reshape(3, 4))
    # stacked() hands out a writable copy that does not alias values
    copy = traj.stacked()
    copy[0, 0] = 99.0
    assert traj.values[0, 0] == 0.0


def test_trajectory_layout_does_not_change_projection_bits():
    # the block averages sum rows in memory order, so a Fortran-ordered copy
    # of the same values would round differently unless the constructor
    # pins one layout
    grid = SpatialGrid(31)
    matrix = np.random.default_rng(21).standard_normal((129, 31))
    level = HaarLevel(3, Field(grid, matrix[0]))
    outs = []
    for held in (matrix, np.asfortranarray(matrix)):
        traj = Trajectory.from_matrix(TimeGrid(128), grid, held)
        assert traj.values.flags.c_contiguous
        outs.append(proj_shifted(traj, level).values.tobytes())
    assert outs[0] == outs[1]
    constant = Trajectory.constant(TimeGrid(128), Field(grid, matrix[5]))
    assert constant.values.flags.c_contiguous


def test_trajectory_takes_one_leading_path_axis():
    grid = SpatialGrid(4)
    rows = np.random.default_rng(3).standard_normal((2, 3, 4))
    stacked = Trajectory.from_matrix(TimeGrid(2), grid, rows)
    assert stacked.n_paths == 2
    assert stacked.values.shape == (2, 3, 4) and not stacked.values.flags.writeable
    for p in range(2):
        one = stacked.path(p)
        assert one.n_paths is None and one.timegrid == stacked.timegrid
        assert one.values.tobytes() == rows[p].tobytes()
    with pytest.raises(ValueError, match="no path axis"):
        stacked.path(0).path(0)
    for bad in (np.zeros((0, 3, 4)), np.zeros((2, 2, 3, 4)), np.zeros((2, 4, 4))):
        with pytest.raises(ValueError):
            Trajectory.from_matrix(TimeGrid(2), grid, bad)


def test_one_path_contracts_reject_a_stacked_trajectory(tmp_path):
    grid = SpatialGrid(4)
    stacked = Trajectory.from_matrix(TimeGrid(4), grid, np.ones((2, 5, 4)))
    readers = {
        "trajectory_to_csv": lambda: trajectory_to_csv(stacked, str(tmp_path / "a.csv")),
        "haar_rate_experiment": lambda: haar_rate_experiment([stacked], range(1, 4)),
    }
    for name, read in readers.items():
        with pytest.raises(ValueError, match=f"{name} reads one path.*stacks 2"):
            read()
    assert not (tmp_path / "a.csv").exists()


def test_smoothed_seed_eigenmode_closed_form():
    # sine modes diagonalize the smoothing solve: w = u0 / (1 + 2^{-n} mu_k)
    grid = SpatialGrid(63)
    for k in (1, 5):
        u0 = sine_field(grid, k, 3.0)
        for n in (1, 4, 8):
            w = smoothed_seed(u0, n)
            expected = u0.values / (1.0 + 2.0**-n * laplacian_eigenvalue(grid, k))
            assert np.allclose(w.values, expected, rtol=1e-12, atol=1e-15)


def test_smoothed_seed_converges_to_datum():
    grid = SpatialGrid(63)
    x = grid.nodes

    def errors(u0):
        return [
            norm(Field(grid, smoothed_seed(u0, n).values - u0.values), "L2")
            for n in (1, 4, 8, 12)
        ]

    jump = Field(grid, np.where(np.abs(x - 0.5) < 0.25, 1.0, 0.0))
    assert all(a > b for a, b in zip(errors(jump), errors(jump)[1:]))
    hat = Field(grid, np.maximum(0.0, 1.0 - 4.0 * np.abs(x - 0.5)))
    hat_errs = errors(hat)
    assert all(a > b for a, b in zip(hat_errs, hat_errs[1:]))
    # the error of the implicit smoothing is at most sqrt(eps)/2 |u0|_V
    assert hat_errs[-1] <= 0.5 * 2.0**-6 * norm(hat, "V_H1")
    with pytest.raises(ValueError):
        smoothed_seed(hat, 0)


@pytest.mark.parametrize("kind,T", [("L2", 2.0), ("V_H1", 1.0), ("Hminus1", 2.0)])
def test_seminorm_of_constant_is_lp_part_only(kind, T):
    # every gap vanishes, so the norm is the time-L2 norm sqrt(T) |c|
    grid = SpatialGrid(9)
    c = Field(grid, np.linspace(0.5, -1.5, 9))
    traj = Trajectory.constant(TimeGrid(128, T=T), c)
    value = fractional_seminorm(traj, 0.5, kind)
    assert value == pytest.approx(np.sqrt(T) * norm(c, kind), rel=1e-12)


def test_seminorm_ramp_closed_form():
    # for u(t) = t v, alpha = 1/4, p = 2 on [0,1]:
    # integral of t^2 is 1/3 and of |t-s|^{1/2} is 8/15, so the norm is
    # sqrt(13/15) |v|; cross-checked by midpoint quadrature below
    grid = SpatialGrid(15)
    v = sine_field(grid, 1, 2.0)
    closed = np.sqrt(13.0 / 15.0) * norm(v, "L2")

    def ramp_value(n_steps):
        tg = TimeGrid(n_steps)
        m = tg.times[:, None] * v.values[None, :]
        return fractional_seminorm(Trajectory.from_matrix(tg, grid, m), 0.25, "L2")

    assert ramp_value(512) == pytest.approx(closed, rel=0.02)
    assert abs(ramp_value(1024) - closed) < abs(ramp_value(256) - closed)

    nq = 2048
    tm = (np.arange(nq) + 0.5) / nq
    gaps = np.abs(tm[:, None] - tm[None, :])
    double = np.sum(np.sqrt(gaps)) / nq**2
    single = np.sum(tm**2) / nq
    midpoint = np.sqrt(single + double) * norm(v, "L2")
    assert midpoint == pytest.approx(closed, rel=1e-3)
    assert ramp_value(1024) == pytest.approx(midpoint, rel=0.01)


def test_seminorm_validation():
    traj = Trajectory.constant(TimeGrid(8), Field(SpatialGrid(4), np.ones(4)))
    for alpha in (0.0, 1.0, -0.3, 1.2, np.nan):
        with pytest.raises(ValueError):
            fractional_seminorm(traj, alpha)
    # only a Hilbert kind has the Euclidean embedding the kernel sums
    for kind in ("Lp", "supremum"):
        with pytest.raises(ValueError, match="unknown norm kind"):
            fractional_seminorm(traj, 0.5, kind)


def test_seminorm_brownian_alpha_monotone():
    # T = 1 makes every gap weight increase with alpha, path by path
    for seed in range(100):
        traj = brownian_traj(512, 6000 + seed)
        lo = fractional_seminorm(traj, 0.25, "L2")
        hi = fractional_seminorm(traj, 0.45, "L2")
        assert np.isfinite(lo) and np.isfinite(hi)
        assert hi > lo


def test_seminorm_brownian_refinement_dichotomy():
    # nested dyadic refinements of one underlying path: above the 1/2
    # exponent the Riemann sum keeps growing, below it stabilizes
    levels = range(8, 13)
    n_paths = 100
    vals = {0.55: np.zeros((n_paths, 5)), 0.2: np.zeros((n_paths, 5))}

    def fine_path(i):
        steps = np.random.default_rng(1000 + i).standard_normal(2**12) * 2.0**-6
        return np.concatenate([[0.0], np.cumsum(steps)])

    fine = np.array([fine_path(i) for i in range(n_paths)])
    for j, lev in enumerate(levels):
        # the 100 paths stacked: one call per level and alpha
        traj = scalar_traj(fine[:, :: 2 ** (12 - lev)])
        for alpha in vals:
            vals[alpha][:, j] = fractional_seminorm(traj, alpha, "L2")
    for alpha in vals:
        assert np.all(np.isfinite(vals[alpha]))
    total_grow = vals[0.55][:, -1] / vals[0.55][:, 0]
    total_flat = vals[0.2][:, -1] / vals[0.2][:, 0]
    per_level_grow = vals[0.55][:, 1:] / vals[0.55][:, :-1]
    per_level_flat = vals[0.2][:, 1:] / vals[0.2][:, :-1]
    assert np.median(total_grow) >= 1.25
    assert total_grow.min() >= 1.15
    assert np.median(per_level_grow) >= 1.04
    assert total_flat.max() <= 1.10
    assert np.median(per_level_flat) <= 1.03


HILBERT_KINDS = ("L2", "V_H1", "Hminus1")


def smooth_offset_traj(n_steps, offset):
    """sin(2 pi t) times the first sine mode, shifted by offset: the offset
    the FFT form's cross term would cancel if the rows were not centred."""
    grid = SpatialGrid(7)
    tg = TimeGrid(n_steps)
    m = offset + np.sin(2 * np.pi * tg.times)[:, None] * sine_field(grid, 1).values
    return Trajectory(tg, grid, m)


def brownian_stack(n_paths, n_steps, seed, n_interior=5):
    tg = TimeGrid(n_steps)
    steps = np.random.default_rng(seed).standard_normal(
        (n_paths, n_steps, n_interior)
    )
    b = np.concatenate(
        [np.zeros((n_paths, 1, n_interior)), np.cumsum(steps, axis=1)], axis=1
    )
    return Trajectory(tg, SpatialGrid(n_interior), np.sqrt(tg.dt) * b)


def ramp_traj(n_steps):
    grid = SpatialGrid(15)
    tg = TimeGrid(n_steps)
    return Trajectory(tg, grid, tg.times[:, None] * sine_field(grid, 1, 2.0).values)


@pytest.mark.parametrize("kind", HILBERT_KINDS)
def test_fft_kernel_matches_the_gap_loop(kind):
    cases = [(smooth_offset_traj(4096, 5.0), alpha) for alpha in (0.2, 0.9, 0.99)]
    # uncentred rows miss this one by about 3e-10
    cases += [(smooth_offset_traj(4096, 100.0), 0.99)]
    cases += [(brownian_stack(6, 512, 41), 0.3), (brownian_stack(6, 512, 41).path(2), 0.45)]
    cases += [(ramp_traj(1024), 0.25)]
    # n = 1 and 2 have at most one gap and n = 9 only direct ones; n = 10
    # is the first size with a gap from the FFT
    cases += [(brownian_stack(3, n, 43 + n), 0.4) for n in (1, 2, 9, 10)]
    for traj, alpha in cases:
        got = fractional_seminorm(traj, alpha, kind)
        want = seminorm_loop.fractional_seminorm(traj, alpha, kind)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_seminorm_nan_stays_in_its_path():
    stack = brownian_stack(5, 64, 53)
    values = stack.stacked()
    values[2, 10, 3] = np.nan
    poisoned = Trajectory(stack.timegrid, stack.grid, values)
    got = fractional_seminorm(poisoned, 0.3, "L2")
    assert np.isnan(got[2])
    for q in (0, 1, 3, 4):
        one = fractional_seminorm(poisoned.path(q), 0.3, "L2")
        assert got[q].tobytes() == np.float64(one).tobytes()
    with pytest.raises(ValueError):
        fractional_seminorm(poisoned, 0.3, "Hminus1")


def test_rate_experiment_smooth_family():
    # a continuously differentiable path loses a full power of the block
    # width per level once the blocks resolve the profile
    grid = SpatialGrid(31)
    tg = TimeGrid(512)
    family = []
    for k in (1, 3):
        m = np.sin(2 * np.pi * tg.times)[:, None] * sine_field(grid, k).values
        family.append(Trajectory.from_matrix(tg, grid, m))
    fit = haar_rate_experiment(family, range(3, 8))
    assert fit.slope <= -0.9
    assert not fit.exact.any()
    assert np.all(np.diff(fit.errors, axis=1) < 0)


def test_rate_experiment_constant_is_exact():
    grid = SpatialGrid(31)
    tg = TimeGrid(512)
    const = Trajectory.constant(tg, Field(grid, np.full(31, 0.75)))
    m = np.sin(2 * np.pi * tg.times)[:, None] * sine_field(grid, 1).values
    fit = haar_rate_experiment([const, Trajectory.from_matrix(tg, grid, m)], range(3, 8))
    assert fit.exact[0] and not fit.exact[1]
    assert np.isnan(fit.slopes[0])
    assert np.all(fit.errors[0] == 0.0)
    only_const = haar_rate_experiment([const], range(3, 8))
    with pytest.raises(ValueError):
        only_const.slope


def test_rate_experiment_brownian_median_slope():
    family = [brownian_traj(512, 5000 + i) for i in range(100)]
    fit = haar_rate_experiment(family, range(2, 7))
    assert fit.slope <= -0.3


def test_rate_experiment_needs_three_levels():
    # repeated depths give a line through fewer than three points
    traj = brownian_traj(64, 1)
    for levels in ((2, 3), (3, 3, 3), (3, 3, 4)):
        with pytest.raises(ValueError, match="3 distinct levels"):
            haar_rate_experiment([traj], levels)


def test_rate_experiment_rejects_an_empty_family():
    # an empty family has no slope to fit: the call fails, not .slope,
    # whose message would claim every trajectory was reproduced exactly
    for family in ([], ()):
        with pytest.raises(ValueError, match="at least one trajectory"):
            haar_rate_experiment(family, range(2, 7))


def test_trajectory_lp_norm_left_sum():
    grid = SpatialGrid(4)
    c = Field(grid, np.array([1.0, -2.0, 0.5, 3.0]))
    traj = Trajectory.constant(TimeGrid(16, T=4.0), c)
    for p in (1.0, 2.0, 3.0):
        assert trajectory_lp_norm(traj, "L2", p) == pytest.approx(
            4.0 ** (1.0 / p) * norm(c, "L2"), rel=1e-12
        )
    for p in (0.25, np.inf, np.nan):
        with pytest.raises(ValueError):
            trajectory_lp_norm(traj, "L2", p)
    # the spatial Lp kind needs an exponent the reader no longer takes
    with pytest.raises(ValueError, match="Lp norm needs an exponent"):
        trajectory_lp_norm(traj, "Lp", 2.0)


def assert_csv_is_per_row_text(tmp_path, traj, csv_reference):
    """Write traj; its text is the per-row reference and reads back bit for bit."""
    path = str(tmp_path / "traj.csv")
    trajectory_to_csv(traj, path)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t"] + [f"u_{j}" for j in range(1, traj.grid.n_interior + 1)]
    rows = [[t, *row] for t, row in zip(traj.timegrid.times, traj.values.tolist())]
    with open(path, newline="") as fh:
        assert fh.read() == csv_reference(header, rows)
    back = trajectory_from_csv(path)
    assert back.values.tobytes() == traj.values.tobytes()
    assert back.timegrid == traj.timegrid
    assert type(back.timegrid.T) is float


def test_csv_round_trip(tmp_path, csv_reference):
    grid = SpatialGrid(6)
    rng = np.random.default_rng(19)
    traj = random_traj(grid, 24, rng, scale=10.0 ** rng.uniform(-8, 8))
    assert_csv_is_per_row_text(tmp_path, traj, csv_reference)
    with pytest.raises(ValueError):
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w") as fh:
            fh.write("a,b\n1,2\n")
        trajectory_from_csv(bad)


def csv_cases(extreme_floats):
    """Trajectories whose rows repeat: name -> (TimeGrid, values)."""
    rng = np.random.default_rng(23)
    blocks = rng.standard_normal((8, 5)) * 10.0 ** rng.uniform(-6, 6, (8, 1))
    staircase = np.concatenate([np.repeat(blocks, 16, axis=0), blocks[-1:]])
    inf = np.inf
    return {
        # 8 blocks of 16 steps, the last node repeating block 7
        "block_constant": (TimeGrid(128), staircase),
        # bitwise different, so written "0" then "-0"
        "signed_zero": (
            TimeGrid(3),
            [[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]],
        ),
        "non_finite": (
            TimeGrid(5),
            [[np.nan, inf, -inf]] * 3 + [[-inf, np.nan, inf]] * 2 + [[np.nan] * 3],
        ),
        # A B A: a repeat that is not consecutive is formatted again
        "non_consecutive": (TimeGrid(2, T=3.0), [[1.5, -2.0], [2.5, 0.1], [1.5, -2.0]]),
        "extreme_floats": (TimeGrid(1, T=1e300), np.reshape(extreme_floats, (2, 6))),
    }


@pytest.mark.parametrize(
    "case",
    ["block_constant", "signed_zero", "non_finite", "non_consecutive", "extreme_floats"],
)
def test_csv_of_repeated_rows_is_the_per_row_text(
    tmp_path, csv_reference, extreme_floats, case
):
    timegrid, values = csv_cases(extreme_floats)[case]
    values = np.asarray(values, dtype=float)
    grid = SpatialGrid(values.shape[1])
    traj = Trajectory(timegrid, grid, values)
    assert_csv_is_per_row_text(tmp_path, traj, csv_reference)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "is not a trajectory file"),
        ("t,u_1,u_2\r\n", "holds 0 data rows"),
        ("t,u_1,u_2\r\n0,1,2\r\n", "holds 1 data rows"),
        ("t,u_1,u_2\r\n0,1,2\r\n1,3\r\n", "data row 2 has 2 cells, the header 3"),
        ("t,u_1,u_2\r\n0,1,2,4\r\n1,3,5\r\n", "data row 1 has 4 cells, the header 3"),
        ("t,u_1,u_2\r\n0,1,2\r\n0.1,1,2\r\n1,3,4\r\n", "mesh of \\[0, 1.0\\]"),
        ("t,u_1,u_2\r\n7,1,2\r\n0.5,1,2\r\n1,3,4\r\n", "mesh of \\[0, 1.0\\]"),
        ("t,u_1,u_2\r\n1,1,2\r\n0.5,1,2\r\n0,3,4\r\n", "mesh of \\[0, 0.0\\]"),
    ],
    ids=[
        "empty",
        "header_only",
        "one_row",
        "short_row",
        "long_row",
        "non_uniform_t",
        "nonzero_start_t",
        "decreasing_t",
    ],
)
def test_csv_reader_names_the_file_it_cannot_read(tmp_path, text, message):
    path = str(tmp_path / "broken.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=f"{re.escape(path)} .*{message}"):
        trajectory_from_csv(path)


def test_block_average_and_projection_of_a_path_stack_are_per_path_bits():
    # (paths, rows, N) against the 2-D form of every path
    grid = SpatialGrid(31)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((9, 129, grid.n_interior)) * 10.0 ** rng.uniform(
        -6, 3, (9, 1, 1)
    )
    for s in (16, 32):
        stacked = _block_averages(u, s)
        assert stacked.shape == (9, 128 // s, grid.n_interior)
        for p in range(9):
            assert stacked[p].tobytes() == _block_averages(u[p], s).tobytes()
    level = HaarLevel(3, sine_field(grid, 2))
    stacked = _shifted_rows(u, level, 16)
    for p in range(9):
        assert stacked[p].tobytes() == _shifted_rows(u[p], level, 16).tobytes()


def block_average_oracle(u, k, s):
    """Trapezoid average of u over block k of s steps, by one slice sum."""
    a, b = k * s, (k + 1) * s
    inner = u[..., a + 1 : b, :].sum(axis=-2)
    return (0.5 * (u[..., a, :] + u[..., b, :]) + inner) / s


@pytest.mark.parametrize("paths", [(), (3,)], ids=["one_path", "stacked"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_block_averages_are_the_per_block_slice_sums(n, paths):
    rng = np.random.default_rng(100 * n + len(paths))
    for s in range(1, 9):  # s = 1 sums no inner row
        grid = SpatialGrid(int(rng.integers(7, 12)))
        shape = paths + (2**n * s + 1, grid.n_interior)
        u = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        # columns of signed zeros, of subnormals (whose halves round) and of
        # values whose sums overflow, then one nan, inf and -inf off them
        signs = np.sign(rng.standard_normal(shape[:-1]))
        u[..., 0] = np.copysign(0.0, signs)
        u[..., 1] = 5e-324 * rng.integers(-9, 10, shape[:-1])
        u[..., 2] = signs * np.finfo(float).max * rng.uniform(0.5, 1.0, shape[:-1])
        rows = rng.integers(0, shape[-2], 3)
        u[..., rows, [3, 4, 5]] = [np.nan, np.inf, -np.inf]
        level = HaarLevel(n, Field(grid, rng.standard_normal(grid.n_interior)))
        want = np.empty_like(u)
        want[..., :s, :] = level.seed_field.values
        for k in range(1, 2**n):
            average = block_average_oracle(u, k - 1, s)
            want[..., k * s : (k + 1) * s, :] = average[..., None, :]
            # the staircase's call: block k - 1's s + 1 rows alone
            alone = _block_averages(u[..., (k - 1) * s : k * s + 1, :], s)
            assert alone.shape == average.shape[:-1] + (1, grid.n_interior)
            assert alone.tobytes() == average.tobytes()
        want[..., -1, :] = want[..., -2, :]
        assert _shifted_rows(u, level, s).tobytes() == want.tobytes()
