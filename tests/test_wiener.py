"""Dyadic step/tent functions, midpoint-displacement paths, noise statistics."""

import sys
import threading

import numpy as np
import pytest
from dyadic_basis import haar_function, schauder_function

from stf_spde.grids import SpatialGrid, norm_values
from stf_spde.projection import TimeGrid
from stf_spde.rng import derive_key, gaussian_stream, path_seed
from stf_spde.wiener import (
    _STREAM_LC_MODE,
    NoisePath,
    QWienerSpec,
    lc_q_wiener,
    lc_scalar_bm,
    load_noise_path,
    sample_increments,
    sample_increments_batch,
    save_noise_path,
    tail_bound_probe,
)


def mode_projection(spec, values):
    """Discrete L2 projections h * sum_j u(x_j) psi_i(x_j), i = 1..n_modes."""
    return spec.grid.h * (spec.basis @ values)


def all_members(max_level):
    """(k, n) for the constant plus every odd shift up to max_level."""
    members = [(1, 0)]
    for n in range(1, max_level + 1):
        members.extend((k, n) for k in range(1, 2**n, 2))
    return members


def test_haar_closed_form_values():
    assert haar_function(1, 0, 0.0) == 1.0
    assert haar_function(1, 0, 0.37) == 1.0
    assert haar_function(1, 0, 1.0) == 1.0
    # level 1 has height 2^0 = 1
    assert haar_function(1, 1, 0.25) == 1.0
    assert haar_function(1, 1, 0.5) == 1.0
    assert haar_function(1, 1, 0.75) == -1.0
    assert haar_function(1, 1, 1.0) == -1.0
    # level 2 has height sqrt(2); (3, 2) is supported on (1/2, 1]
    assert haar_function(3, 2, 0.6) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert haar_function(3, 2, 0.9) == pytest.approx(-np.sqrt(2.0), rel=1e-15)
    assert haar_function(3, 2, 0.3) == 0.0
    assert haar_function(1, 2, 0.9) == 0.0
    # supports are left-open, so every n >= 1 member vanishes at 0
    assert haar_function(1, 3, 0.0) == 0.0


def test_haar_and_schauder_validation():
    for fn in (haar_function, schauder_function):
        with pytest.raises(ValueError):
            fn(2, 2, 0.5)  # even k
        with pytest.raises(ValueError):
            fn(5, 2, 0.5)  # k beyond 2^n
        with pytest.raises(ValueError):
            fn(3, 0, 0.5)  # level 0 only has k = 1
        with pytest.raises(ValueError):
            fn(1, -1, 0.5)
        with pytest.raises(ValueError):
            fn(1, 1, -0.1)
        with pytest.raises(ValueError):
            fn(1, 1, 1.0001)


def test_haar_orthonormality_by_midpoint_quadrature():
    # every member with n <= 4 is constant on dyadic cells of width 2^-5,
    # so midpoint quadrature on a 2^-12 mesh integrates products exactly
    nq = 2**12
    mids = (np.arange(nq) + 0.5) / nq
    members = all_members(4)
    sampled = [haar_function(k, n, mids) for k, n in members]
    for a in range(len(members)):
        for b in range(a, len(members)):
            ip = np.sum(sampled[a] * sampled[b]) / nq
            assert abs(ip - (1.0 if a == b else 0.0)) <= 1e-12


def test_schauder_closed_form():
    for k, n in ((1, 1), (3, 2), (5, 3), (1, 4)):
        assert schauder_function(k, n, 0.0) == 0.0
        peak = schauder_function(k, n, k * 2.0**-n)
        assert peak == pytest.approx(2.0 ** (-(n + 1) / 2.0), rel=1e-14)
        dense = schauder_function(k, n, np.linspace(0.0, 1.0, 4097))
        assert np.max(dense) == pytest.approx(peak, rel=1e-12)
        assert np.min(dense) == 0.0
    t = np.linspace(0.0, 1.0, 17)
    assert np.array_equal(schauder_function(1, 0, t), t)


def test_schauder_is_integral_of_haar():
    # cumulative midpoint sums integrate the step function exactly on the
    # dyadic mesh, where the tent's closed form must agree
    nq = 2**12
    mids = (np.arange(nq) + 0.5) / nq
    grid_t = np.arange(1, nq + 1) / nq
    for k, n in ((1, 1), (3, 2), (7, 3), (11, 4)):
        integral = np.cumsum(haar_function(k, n, mids)) / nq
        closed = schauder_function(k, n, grid_t)
        assert np.allclose(integral, closed, rtol=0.0, atol=1e-13)


def test_schauder_flanks_are_linear():
    n, k = 3, 5
    left, mid = (k - 1) * 2.0**-n, k * 2.0**-n
    up = schauder_function(k, n, np.linspace(left, mid, 9))
    assert np.allclose(np.diff(up, 2), 0.0, atol=1e-15)
    down = schauder_function(k, n, np.linspace(mid, (k + 1) * 2.0**-n, 9))
    assert np.allclose(np.diff(down, 2), 0.0, atol=1e-15)


def schauder_series(level, seed):
    """Direct tent-series partial sum at the depth-`level` dyadic points."""
    t = np.linspace(0.0, 1.0, 2**level + 1)
    b = gaussian_stream(seed, 0, 0).standard_normal() * t
    for m in range(1, level + 1):
        xi = gaussian_stream(seed, 0, m).standard_normal(2 ** (m - 1))
        for j, k in enumerate(range(1, 2**m, 2)):
            b = b + xi[j] * schauder_function(k, m, t)
    return b


@pytest.mark.parametrize("seed", [0, 7, 123456])
def test_lc_scalar_bm_matches_series_oracle(seed):
    for level in (1, 3, 6):
        got = lc_scalar_bm(level, seed)
        expected = schauder_series(level, seed)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_lc_scalar_bm_endpoints():
    for seed in (1, 99):
        path = lc_scalar_bm(5, seed)
        assert isinstance(path, np.ndarray)
        assert path.shape == (33,)
        assert path[0] == 0.0
        assert path[-1] == gaussian_stream(seed, 0, 0).standard_normal()
    with pytest.raises(ValueError):
        lc_scalar_bm(-1, 0)


def test_lc_refinement_is_bitwise_consistent():
    for level in range(0, 12):
        coarse = lc_scalar_bm(level, 42)
        fine = lc_scalar_bm(level + 1, 42)
        assert np.array_equal(coarse, fine[::2])


def test_lc_covariance_monte_carlo():
    # E[B(s)B(t)] = min(s, t): the midpoint construction is exact in law
    # at the resolved dyadic points, so only sampling noise remains
    n_paths = 20000
    vals = np.empty((n_paths, 5))
    for i in range(n_paths):
        vals[i] = lc_scalar_bm(2, path_seed(101, i))
    for si, ti, target in ((1, 2, 0.25), (2, 3, 0.5), (4, 4, 1.0)):
        prod = vals[:, si] * vals[:, ti]
        se = prod.std(ddof=1) / np.sqrt(n_paths)
        assert abs(prod.mean() - target) <= 3.0 * se
    # increment law: Var(B(0.75) - B(0.5)) = 0.25
    inc_sq = (vals[:, 3] - vals[:, 2]) ** 2
    se = inc_sq.std(ddof=1) / np.sqrt(n_paths)
    assert abs(inc_sq.mean() - 0.25) <= 3.0 * se


def test_qwiener_spec_validation():
    grid = SpatialGrid(15)
    for s in (0.5, 0.4, 0.0, -1.0):
        with pytest.raises(ValueError):
            QWienerSpec.power_decay(grid, 3, s)
    with pytest.raises(ValueError):
        QWienerSpec(grid, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        QWienerSpec(grid, np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        QWienerSpec(grid, np.ones(16))  # more modes than nodes
    with pytest.raises(ValueError):
        QWienerSpec(grid, np.empty(0))
    with pytest.raises(ValueError):
        QWienerSpec.power_decay(grid, 0, 1.0)
    spec = QWienerSpec.power_decay(grid)
    assert spec.n_modes == 15
    assert spec.decay_exponent == 1.0
    assert not spec.eigenvalues.flags.writeable


def test_qwiener_basis_discretely_orthonormal():
    grid = SpatialGrid(31)
    spec = QWienerSpec.power_decay(grid, 31, 0.75)
    gram = grid.h * spec.basis @ spec.basis.T
    assert np.max(np.abs(gram - np.eye(31))) <= 1e-12
    expected_trace = np.sum(np.arange(1.0, 32.0) ** -1.5)
    assert spec.trace == pytest.approx(expected_trace, rel=1e-14)


def test_assemble_and_project_round_trip():
    grid = SpatialGrid(15)
    spec = QWienerSpec.power_decay(grid, 5, 1.0)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(5)
    values = coeffs @ spec.basis
    assert np.allclose(mode_projection(spec, values), coeffs, rtol=1e-12, atol=1e-14)


def test_lc_q_wiener_pathwise_identities():
    grid = SpatialGrid(15)
    spec = QWienerSpec.power_decay(grid, 3, 1.0)
    w = lc_q_wiener(spec, 2, 7)
    traj = w.trajectory()
    assert np.array_equal(traj.values[0], np.zeros(15))
    for j in (1, 3, 4):
        coeffs = mode_projection(spec, traj.values[j])
        direct = np.sqrt(spec.eigenvalues) * w.values[:, j]
        assert np.allclose(coeffs, direct, rtol=1e-10, atol=1e-13)
    assert traj.timegrid.n_steps == 4
    assert traj.timegrid == TimeGrid(4)
    # W(t_3) = sum_i sqrt(lambda_i) B_i(t_3) psi_i, assembled mode by mode
    direct = sum(
        np.sqrt(lam) * row[3] * psi
        for lam, row, psi in zip(spec.eigenvalues, w.values, spec.basis)
    )
    assert np.allclose(traj.values[3], direct)


def test_lc_increments_path_refines_consistently():
    grid = SpatialGrid(15)
    spec = QWienerSpec.power_decay(grid, 4, 1.0)
    coarse = lc_q_wiener(spec, 5, 13).increments_path()
    fine = lc_q_wiener(spec, 6, 13).increments_path()
    assert coarse.timegrid.n_steps == 32
    assert coarse.timegrid == TimeGrid(32)
    # coarse increment k telescopes the two fine increments it spans
    paired = fine.increments[0::2] + fine.increments[1::2]
    assert np.allclose(paired, coarse.increments, rtol=1e-12, atol=1e-15)
    # increments accumulate to the endpoint's mode coefficients
    w = lc_q_wiener(spec, 5, 13)
    end = np.sqrt(spec.eigenvalues) * w.values[:, -1]
    assert np.allclose(coarse.increments.sum(axis=0), end, rtol=1e-12, atol=1e-15)


def test_lc_q_wiener_mode_truncation_consistent():
    # mode i's path is keyed by (seed, i), so keeping fewer modes does not
    # reshuffle the ones retained
    grid = SpatialGrid(15)
    small = lc_q_wiener(QWienerSpec.power_decay(grid, 3, 1.0), 3, 11)
    large = lc_q_wiener(QWienerSpec.power_decay(grid, 6, 1.0), 3, 11)
    assert np.array_equal(small.values, large.values[:3])


def lc_per_mode_oracle(spec, level, seed):
    """values, increments and trajectory of lc_q_wiener, built from one
    lc_scalar_bm call per mode and re-stacked for each output."""
    rows = [
        lc_scalar_bm(level, derive_key(seed, _STREAM_LC_MODE, i + 1))
        for i in range(spec.n_modes)
    ]
    scale = np.sqrt(spec.eigenvalues)
    inc = np.diff(np.stack(rows, axis=1), axis=0) * scale
    traj = (scale[:, None] * np.array(rows)).T @ spec.basis
    return np.array(rows), inc, traj


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


@pytest.mark.parametrize("n_interior,n_modes", [(15, 1), (15, 3), (31, 16), (31, 31)])
def test_lc_q_wiener_arrays_match_per_mode_oracle(n_interior, n_modes):
    spec = QWienerSpec.power_decay(SpatialGrid(n_interior), n_modes, 1.0)
    for level in (0, 1, 2, 5, 8):
        for seed in (0, 21, 2**64 - 1):
            w = lc_q_wiener(spec, level, seed)
            values, inc, traj = lc_per_mode_oracle(spec, level, seed)
            assert w.values.shape == (n_modes, 2**level + 1)
            assert not w.values.flags.writeable
            assert same_bits(w.values, values)
            assert same_bits(w.increments_path().increments, inc)
            assert same_bits(w.trajectory().values, traj)


def test_lc_q_wiener_second_moments_monte_carlo():
    grid = SpatialGrid(15)
    spec = QWienerSpec.power_decay(grid, 3, 1.0)
    n_paths = 20000
    c1 = np.empty(n_paths)
    c2 = np.empty(n_paths)
    for i in range(n_paths):
        w = lc_q_wiener(spec, 2, path_seed(202, i))
        coeffs = mode_projection(spec, w.trajectory().values[3])  # t = 0.75
        c1[i], c2[i] = coeffs[0], coeffs[1]
    sq = c1**2
    target = 0.75 * spec.eigenvalues[0]
    se = sq.std(ddof=1) / np.sqrt(n_paths)
    assert abs(sq.mean() - target) <= 3.0 * se
    cross = c1 * c2
    se = cross.std(ddof=1) / np.sqrt(n_paths)
    assert abs(cross.mean()) <= 3.0 * se


def test_sample_increments_statistics():
    grid = SpatialGrid(15)
    spec = QWienerSpec.power_decay(grid, 3, 1.0)
    timegrid = TimeGrid(50, T=2.0)
    inc = np.concatenate(
        [
            sample_increments(spec, timegrid, path_seed(304, i)).increments
            for i in range(2000)
        ]
    )
    assert inc.shape == (100_000, 3)
    dt = timegrid.dt
    for i in range(3):
        col = inc[:, i]
        se = col.std(ddof=1) / np.sqrt(col.size)
        assert abs(col.mean()) <= 3.0 * se
        sq = col**2
        se = sq.std(ddof=1) / np.sqrt(col.size)
        assert abs(sq.mean() - spec.eigenvalues[i] * dt) <= 3.0 * se


def test_sample_increments_trace_identity():
    # |DW|_L2^2 of the assembled nodal values sums the squared mode
    # increments, so its mean is trace(Q) dt
    grid = SpatialGrid(15)
    spec = QWienerSpec.power_decay(grid, 3, 1.0)
    timegrid = TimeGrid(50, T=2.0)
    sq = []
    for i in range(500):
        noise = sample_increments(spec, timegrid, path_seed(304, i))
        for k in range(0, 50, 5):
            sq.append(norm_values(grid, noise.increments[k] @ spec.basis, "L2") ** 2)
    sq = np.asarray(sq)
    target = spec.trace * timegrid.dt
    se = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(sq.mean() - target) <= 3.0 * se


def test_sample_increments_reproducible():
    grid = SpatialGrid(7)
    spec = QWienerSpec.power_decay(grid, 4, 1.0)
    timegrid = TimeGrid(16)
    a = sample_increments(spec, timegrid, 12345)
    b = sample_increments(spec, timegrid, 12345)
    c = sample_increments(spec, timegrid, 12346)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)
    assert a.seed == 12345 and a.n_modes == 4
    with pytest.raises(ValueError):
        NoisePath(timegrid, np.zeros((5, 4)), 0)


@pytest.mark.parametrize("n_steps", [1, 4, 128])
@pytest.mark.parametrize(
    "seed", [0, 2**64 - 1, path_seed(101, 0), path_seed(29, 7), path_seed(304, 1999)]
)
def test_sample_increments_are_scaled_mode_streams(n_steps, seed):
    # mode i's column is stream (seed, 2, i + 1) scaled by sqrt(lambda_i dt),
    # bit for bit: replays and saved noise files depend on it
    spec = QWienerSpec.power_decay(SpatialGrid(31), 16, 1.0)
    timegrid = TimeGrid(n_steps)
    inc = sample_increments(spec, timegrid, seed).increments
    for i in range(spec.n_modes):
        draws = gaussian_stream(seed, 2, i + 1).standard_normal(n_steps)
        expected = np.sqrt(spec.eigenvalues[i] * timegrid.dt) * draws
        assert np.array_equal(inc[:, i], expected)


def test_batch_rows_match_single_seed_draws():
    # 2,500 seeds cross the internal draw chunks twice; the repeated seed
    # gets the same row wherever it sits
    spec = QWienerSpec.power_decay(SpatialGrid(31), 16, 1.0)
    timegrid = TimeGrid(4)
    seeds = [path_seed(101, i) for i in range(2500)] + [path_seed(101, 7)]
    rows = sample_increments_batch(spec, timegrid, seeds)
    assert rows.shape == (len(seeds), 4, 16)
    assert rows.flags.c_contiguous
    for row, seed in zip(rows, seeds):
        single = sample_increments(spec, timegrid, seed)
        assert row.tobytes() == single.increments.tobytes()
    assert sample_increments_batch(spec, timegrid, []).shape == (0, 4, 16)


def test_sample_increments_concurrent_calls_match_serial():
    spec = QWienerSpec.power_decay(SpatialGrid(31), 16, 1.0)
    timegrid = TimeGrid(8)
    seeds = [path_seed(101, i) for i in range(400)]
    serial = [sample_increments(spec, timegrid, s).increments for s in seeds]
    results = [None] * len(seeds)

    def worker(start):
        for j in range(start, len(seeds), 4):
            results[j] = sample_increments(spec, timegrid, seeds[j]).increments

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(results, serial):
        assert np.array_equal(a, b)


def test_noise_path_io_round_trip(tmp_path):
    grid = SpatialGrid(7)
    spec = QWienerSpec.power_decay(grid, 4, 1.0)
    noise = sample_increments(spec, TimeGrid(16, T=0.5), 99)
    path = str(tmp_path / "noise.bin")
    save_noise_path(noise, path)
    back = load_noise_path(path, T=0.5)
    assert np.array_equal(back.increments, noise.increments)
    assert back.seed == 99
    assert back.timegrid.n_steps == 16
    assert back.timegrid.T == 0.5
    # derived seeds use the full unsigned 64-bit range
    big = sample_increments(spec, TimeGrid(4), 2**64 - 1)
    save_noise_path(big, path)
    assert load_noise_path(path).seed == 2**64 - 1
    short = str(tmp_path / "short.bin")
    with open(short, "wb") as fh:
        fh.write(b"\x00" * 10)
    with pytest.raises(ValueError):
        load_noise_path(short)
    truncated = str(tmp_path / "trunc.bin")
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(truncated, "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(ValueError):
        load_noise_path(truncated)


@pytest.mark.parametrize("n", [4, 5])
def test_tail_probe_matches_approximation(n):
    # deviation a_n = sqrt(n 2^{-(n+1)}) puts the threshold at x = 2n,
    # where the square-root tail approximation is within a small factor
    a_n = np.sqrt(n * 2.0 ** -(n + 1))
    empirical, analytic = tail_bound_probe(n, a_n, 1.0, trials=100_000, seed=0)
    assert 0.0 < empirical < 1.0
    assert analytic / 3.0 <= empirical <= 3.0 * analytic


def test_tail_probe_edge_cases_and_validation():
    empirical, analytic = tail_bound_probe(3, 0.0, 1.0, trials=1000, seed=1)
    assert empirical == 1.0
    assert analytic == np.inf
    grid_a = np.linspace(0.2, 2.0, 10)
    approx = [tail_bound_probe(4, a, 1.0, trials=1, seed=0)[1] for a in grid_a]
    assert all(x > y for x, y in zip(approx, approx[1:]))
    again = tail_bound_probe(4, 0.5, 1.0, trials=2000, seed=3)
    assert again == tail_bound_probe(4, 0.5, 1.0, trials=2000, seed=3)
    for bad in (
        dict(n=0, a_n=0.5, c1=1.0),
        dict(n=4, a_n=-0.1, c1=1.0),
        dict(n=4, a_n=0.5, c1=0.0),
        dict(n=4, a_n=0.5, c1=1.0, trials=0),
    ):
        with pytest.raises(ValueError):
            tail_bound_probe(**bad)
