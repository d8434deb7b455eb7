"""Tests for the frozen-coefficient steppers and the hypothesis checks.

The linear steps are checked against dense solves assembled from unit
vectors, the implicit recursion against the closed form on a Laplacian
eigenmode, and the porous Newton iteration against an independently
evaluated residual. Convergence order is measured with dt/16 reference
runs of the solver itself; those errors are deterministic, so the fitted
slopes are frozen facts, not statistics.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stf_spde import solver
from stf_spde.grids import (
    Field,
    SpatialGrid,
    TripleKind,
    laplacian_eigenvalue,
    laplacian_values,
    norm_values,
    sine_field,
    signed_power_values,
)
from stf_spde.projection import TimeGrid, Trajectory
from stf_spde.rng import gaussian_stream
from stf_spde.solver import (
    KNOWN_EXAMPLES,
    NewtonDivergence,
    ProblemSpec,
    SolverConfig,
    _gradient_noise,
    _heat_step,
    _hs_norm_sq,
    _newton_porous,
    _step_rhs,
    check_hypotheses,
    solve_frozen,
)
from stf_spde.wiener import NoisePath, QWienerSpec, sample_increments


def random_values(grid, rng, scale=1.0):
    return scale * rng.standard_normal(grid.n_interior)


def random_field(grid, rng, scale=1.0):
    return Field(grid, random_values(grid, rng, scale))


def zero_field(grid):
    return Field(grid, np.zeros(grid.n_interior))


def zero_noise(timegrid, n_modes):
    return NoisePath(timegrid, np.zeros((timegrid.n_steps, n_modes)), seed=-1)


def dense_laplacian(grid):
    n = grid.n_interior
    mat = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        mat[:, j] = laplacian_values(grid, e)
    return mat


def values_gap(a, b):
    return float(np.max(np.abs(a - b)))


def porous_step(grid, u, xi, noise, dt, m, config=None):
    """One porous step on raw nodal values through the row kernel."""
    cfg = config if config is not None else SolverConfig()
    return _newton_porous(grid, u, _step_rhs(u, xi, noise, dt), dt, m, cfg)[0]


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(31)


@pytest.fixture(scope="module")
def qspec(grid):
    return QWienerSpec.power_decay(grid, n_modes=16, decay_exponent=1.0)


class TestHeatStep:
    def test_zero_state_stays_zero(self, grid):
        z = np.zeros(grid.n_interior)
        out = _heat_step(grid, z, z, z, 0.01, 0.1)
        assert np.all(out == 0.0)

    def test_eigenmode_recursion(self, grid, qspec):
        # with zero drift and noise the step is diagonal on sine modes:
        # u_{k+1} = u_k / (1 + dt mu_1), so K steps divide by the K-th power
        tg = TimeGrid(16, T=1.0)
        u0 = sine_field(grid, 1)
        prob = ProblemSpec("heat_sqrt_drift", qspec, u0)
        traj = solve_frozen(
            prob, Trajectory.constant(tg, zero_field(grid)), zero_noise(tg, 16)
        )
        mu1 = laplacian_eigenvalue(grid, 1)
        expect = np.asarray(u0.values) / (1.0 + tg.dt * mu1) ** 16
        assert np.max(np.abs(traj.values[-1] - expect)) < 1e-10

    def test_constant_drift_matches_dense_solve(self, grid):
        # xi = 4 contributes dt * sqrt(4) = 2 dt to the right-hand side
        z = np.zeros(grid.n_interior)
        xi = np.full(grid.n_interior, 4.0)
        out = _heat_step(grid, z, xi, z, 0.1, 0.1)
        mat = np.eye(grid.n_interior) - 0.1 * dense_laplacian(grid)
        oracle = np.linalg.solve(mat, np.full(grid.n_interior, 0.2))
        assert np.max(np.abs(out - oracle)) < 1e-13

    def test_full_step_matches_dense_solve(self, grid):
        rng = np.random.default_rng(11)
        u = random_values(grid, rng)
        xi = random_values(grid, rng)
        dw = random_values(grid, rng, scale=0.05)
        dt, sigma = 0.02, 0.3
        out = _heat_step(grid, u, xi, dw, dt, sigma)
        rhs = u + dt * signed_power_values(xi, 0.5) + sigma * u * dw
        mat = np.eye(grid.n_interior) - dt * dense_laplacian(grid)
        assert np.max(np.abs(out - np.linalg.solve(mat, rhs))) < 1e-13

    def test_energy_identity_exact(self, grid):
        # (I - dt Lap) u+ = u pairs with 2 u+ to give
        # |u+|^2 - |u|^2 + 2 dt |u+|_V^2 = -|u+ - u|^2
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = random_values(grid, rng)
            z = np.zeros(grid.n_interior)
            up = _heat_step(grid, u, z, z, 0.02, 0.1)
            lhs = norm_values(grid, up, "L2") ** 2 - norm_values(grid, u, "L2") ** 2
            lhs += 2 * 0.02 * norm_values(grid, up, "V_H1") ** 2
            assert abs(lhs + norm_values(grid, up - u, "L2") ** 2) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_unconditional_l2_stability(self, seed):
        # drift-free, noise-free: the implicit step never grows the L2 norm
        grid = SpatialGrid(17)
        rng = np.random.default_rng(seed)
        u = random_values(grid, rng, scale=10.0 ** rng.uniform(-2, 2))
        z = np.zeros(grid.n_interior)
        up = _heat_step(grid, u, z, z, 10.0 ** rng.uniform(-4, 1), 0.1)
        assert norm_values(grid, up, "L2") <= norm_values(grid, u, "L2") * (1 + 1e-12)


class TestPorousStep:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_m1_reduces_to_heat(self, seed):
        grid = SpatialGrid(17)
        rng = np.random.default_rng(seed)
        u = random_values(grid, rng)
        xi = random_values(grid, rng)
        dw = random_values(grid, rng, scale=0.05)
        a = _heat_step(grid, u, xi, dw, 0.02, 0.1)
        b = porous_step(grid, u, xi, 0.1 * u * dw, 0.02, m=1)
        assert values_gap(a, b) < 1e-12

    def test_newton_converges_quickly_m2(self, grid):
        # typical smooth state at dt = 0.02: seven iterations measured;
        # the residual is re-evaluated here with a dense Laplacian
        rng = np.random.default_rng(7)
        u = random_values(grid, rng)
        xi = random_values(grid, rng)
        z = np.zeros(grid.n_interior)
        cfg = SolverConfig(newton_max_iter=8)
        v = porous_step(grid, u, xi, z, 0.02, m=2, config=cfg)
        rhs = u + 0.02 * signed_power_values(xi, 0.5)
        res = v - 0.02 * dense_laplacian(grid) @ signed_power_values(v, 2) - rhs
        target = 1e-10 * (1.0 + norm_values(grid, rhs, "L2"))
        assert norm_values(grid, res, "L2") <= target

    @pytest.mark.parametrize("m", [2, 3])
    def test_energy_identity(self, grid, m):
        # |u+|_{H^-1}^2 - |u|_{H^-1}^2 + 2 dt |u+|_{L^{m+1}}^{m+1}
        # = -|u+ - u|_{H^-1}^2, up to the Newton residual
        rng = np.random.default_rng(m)
        u = random_values(grid, rng)
        z = np.zeros(grid.n_interior)
        up = porous_step(grid, u, z, z, 0.02, m=m)
        lhs = norm_values(grid, up, "Hminus1") ** 2 - norm_values(grid, u, "Hminus1") ** 2
        lhs += 2 * 0.02 * norm_values(grid, up, "Lp", p=m + 1) ** (m + 1)
        scale = norm_values(grid, u, "Hminus1") ** 2
        assert abs(lhs + norm_values(grid, up - u, "Hminus1") ** 2) < 1e-8 * scale

    def test_manufactured_solution_reproduced(self, grid, qspec):
        # freeze xi so the scheme's own update equation has a known exact
        # solution: xi_k = g_k^{[2]} with g_k the discrete residual of the
        # target, then the drift xi_k^{[1/2]} = g_k restores the target at
        # every step, limited only by the Newton tolerance
        tg = TimeGrid(16, T=1.0)
        phi = np.sin(np.pi * grid.nodes)
        bump = 0.2 * np.sin(2 * np.pi * grid.nodes)
        target = [(0.5 + 0.5 * t) * phi + bump * t * (1 - t) for t in tg.times]
        xi_rows = []
        for k in range(tg.n_steps):
            g = (target[k + 1] - target[k]) / tg.dt - laplacian_values(
                grid, signed_power_values(target[k + 1], 2)
            )
            xi_rows.append(signed_power_values(g, 2.0))
        xi_rows.append(xi_rows[-1])
        u0 = Field(grid, target[0])
        prob = ProblemSpec("porous_sqrt_drift", qspec, u0, m=2, sigma=0.0)
        xi = Trajectory.from_matrix(tg, grid, xi_rows)
        out = solve_frozen(prob, xi, zero_noise(tg, 16))
        worst = max(values_gap(out.values[k], target[k]) for k in range(17))
        assert worst < 1e-9

    def test_divergence_raised_when_budget_tiny(self):
        grid = SpatialGrid(63)
        u = 40.0 * np.sin(np.pi * grid.nodes) + 30.0 * np.sin(3 * np.pi * grid.nodes)
        z = np.zeros(grid.n_interior)
        cfg = SolverConfig(newton_max_iter=2)
        with pytest.raises(NewtonDivergence):
            porous_step(grid, u, z, z, 0.5, m=5, config=cfg)

    @pytest.mark.parametrize("bad_input", ["u", "dw"])
    def test_non_finite_residual_raises(self, grid, bad_input):
        z = np.zeros(grid.n_interior)
        bad = np.sin(np.pi * grid.nodes)
        bad[4] = np.nan if bad_input == "u" else np.inf
        u, dw = (bad, z) if bad_input == "u" else (sine_field(grid, 1).values, bad)
        with pytest.raises(NewtonDivergence, match="non-finite"):
            porous_step(grid, u, z, 0.1 * u * dw, 0.01, m=2)


class TestGradientNoise:
    def test_unit_xi_is_plain_difference(self, grid):
        # xi = 1 makes the product trivial; compare against the dense
        # one-sided/centered difference matrix assembled from unit vectors
        rng = np.random.default_rng(3)
        dw = random_values(grid, rng)
        ones = np.ones(grid.n_interior)
        out = _gradient_noise(grid, ones, dw, "divergence")
        n, h = grid.n_interior, grid.h
        mat = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            col = np.empty(n)
            col[1:-1] = (e[2:] - e[:-2]) / (2 * h)
            col[0] = (e[1] - e[0]) / h
            col[-1] = (e[-1] - e[-2]) / h
            mat[:, j] = col
        assert np.max(np.abs(out - mat @ dw)) == 0.0

    def test_zero_xi_gives_zero(self, grid):
        rng = np.random.default_rng(4)
        dw = random_values(grid, rng)
        out = _gradient_noise(grid, np.zeros(grid.n_interior), dw, "divergence")
        assert np.all(out == 0.0)

    def test_pointwise_form(self, grid):
        rng = np.random.default_rng(5)
        xi = random_values(grid, rng)
        dw = random_values(grid, rng)
        out = _gradient_noise(grid, xi, dw, "pointwise")
        root = signed_power_values(xi, 0.5)
        diffed = np.empty_like(root)
        h = grid.h
        diffed[1:-1] = (root[2:] - root[:-2]) / (2 * h)
        diffed[0] = (root[1] - root[0]) / h
        diffed[-1] = (root[-1] - root[-2]) / h
        assert np.max(np.abs(out - diffed * dw)) == 0.0

    def test_rejects_unknown_form(self, grid, qspec):
        # the form is checked once, where the problem is built
        with pytest.raises(ValueError, match="gradient_noise_form"):
            ProblemSpec(
                "porous_gradient_noise", qspec, zero_field(grid), gradient_noise_form="weak"
            )

    def test_hminus1_bound_with_boundary_remainder(self, grid):
        # pairing D_h g against a test function and summing by parts leaves
        # the centered difference of the test function (bounded by its V
        # norm) plus four boundary terms, each controlled by sqrt(h) times
        # the V norm; hence
        #   |D_h g|_{H^-1} <= |g|_L2 + sqrt(h) (|g_1| + |g_N|
        #                                        + (|g_2| + |g_{N-1}|) / 2)
        h = grid.h
        for trial in range(300):
            rng = np.random.default_rng(100 + trial)
            xi = random_values(grid, rng, scale=10.0 ** rng.uniform(-2, 1))
            dw = random_values(grid, rng)
            g = signed_power_values(xi, 0.5) * dw
            out = _gradient_noise(grid, xi, dw, "divergence")
            bound = norm_values(grid, g, "L2") + np.sqrt(h) * (
                abs(g[0]) + abs(g[-1]) + (abs(g[1]) + abs(g[-2])) / 2
            )
            assert norm_values(grid, out, "Hminus1") <= bound + 1e-12


class TestSolveFrozen:
    def test_initial_sample_is_datum(self, grid, qspec):
        tg = TimeGrid(4)
        u0 = sine_field(grid, 2)
        prob = ProblemSpec("heat_sqrt_drift", qspec, u0)
        out = solve_frozen(
            prob, Trajectory.constant(tg, zero_field(grid)), zero_noise(tg, 16)
        )
        assert out.timegrid == tg
        assert np.array_equal(out.values[0], u0.values)

    @pytest.mark.parametrize(
        "example,kind,slope",
        [
            # least-squares order over n = 16, 32, 64 against dt/16 runs;
            # measured 0.93 (heat, sup-L2) and 0.92 (porous, sup-H^-1)
            ("heat_sqrt_drift", "L2", 0.9),
            ("porous_sqrt_drift", "Hminus1", 0.9),
        ],
    )
    def test_first_order_in_time(self, grid, qspec, example, kind, slope):
        u0 = sine_field(grid, 1)
        xi_field = Field(grid, 3.0 * np.sin(2 * np.pi * grid.nodes))
        prob = ProblemSpec(example, qspec, u0, m=2)

        def sup_error(n):
            coarse_tg, fine_tg = TimeGrid(n, T=0.5), TimeGrid(16 * n, T=0.5)
            coarse = solve_frozen(
                prob, Trajectory.constant(coarse_tg, xi_field), zero_noise(coarse_tg, 16)
            )
            fine = solve_frozen(
                prob, Trajectory.constant(fine_tg, xi_field), zero_noise(fine_tg, 16)
            )
            return max(
                norm_values(grid, coarse.values[k] - fine.values[16 * k], kind)
                for k in range(n + 1)
            )

        sizes = np.array([16, 32, 64])
        errors = np.array([sup_error(n) for n in sizes])
        fit = np.polyfit(np.log2(sizes), np.log2(errors), 1)[0]
        assert -fit >= slope

    def test_noise_enters_causally(self, grid, qspec):
        # perturbing the increment of step k must leave samples 0..k alone
        tg = TimeGrid(8)
        u0 = sine_field(grid, 1)
        prob = ProblemSpec("heat_sqrt_drift", qspec, u0)
        xi = Trajectory.constant(tg, Field(grid, np.ones(grid.n_interior)))
        noise = sample_increments(qspec, tg, seed=99)
        bumped = np.array(noise.increments)
        k = 5
        bumped[k] += 0.1
        out_a = solve_frozen(prob, xi, noise)
        out_b = solve_frozen(prob, xi, NoisePath(tg, bumped, seed=-1))
        for j in range(k + 1):
            assert np.array_equal(out_a.values[j], out_b.values[j])
        assert values_gap(out_a.values[k + 1], out_b.values[k + 1]) > 0

    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_deterministic_replay(self, grid, qspec, example):
        tg = TimeGrid(8)
        rng = np.random.default_rng(12)
        u0 = random_field(grid, rng)
        prob = ProblemSpec(example, qspec, u0, m=2)
        xi = Trajectory.constant(tg, Field(grid, np.abs(rng.standard_normal(grid.n_interior))))
        noise = sample_increments(qspec, tg, seed=5)
        out_a = solve_frozen(prob, xi, noise)
        out_b = solve_frozen(prob, xi, noise)
        for a, b in zip(out_a.values, out_b.values):
            assert np.array_equal(a, b)

    def test_dt_retry_recovers_from_divergence(self):
        # at dt = 0.5 this state needs 21 Newton iterations, at dt = 0.25
        # it needs 20, so a budget of 20 forces exactly one split per the
        # failing step and the halved substeps then succeed
        grid = SpatialGrid(63)
        spec = QWienerSpec.power_decay(grid, n_modes=8, decay_exponent=1.0)
        u0 = Field(
            grid,
            40.0 * np.sin(np.pi * grid.nodes) + 30.0 * np.sin(3 * np.pi * grid.nodes),
        )
        prob = ProblemSpec("porous_sqrt_drift", spec, u0, m=5)
        tg = TimeGrid(4, T=2.0)
        xi = Trajectory.constant(tg, zero_field(grid))
        noise = zero_noise(tg, 8)
        with pytest.raises(NewtonDivergence):
            solve_frozen(
                prob, xi, noise, SolverConfig(newton_max_iter=20, dt_retries=0)
            )
        stats = {}
        out = solve_frozen(
            prob, xi, noise, SolverConfig(newton_max_iter=20), collect_stats=stats
        )
        assert stats["dt_retries"] >= 1
        assert len(out.values) == 5
        assert np.all(np.isfinite(out.stacked()))

    def test_rejects_mismatched_inputs(self, grid, qspec):
        tg = TimeGrid(4)
        u0 = sine_field(grid, 1)
        prob = ProblemSpec("heat_sqrt_drift", qspec, u0)
        xi = Trajectory.constant(tg, zero_field(grid))
        with pytest.raises(ValueError):
            solve_frozen(prob, xi, zero_noise(TimeGrid(8), 16))
        with pytest.raises(ValueError):
            solve_frozen(prob, xi, zero_noise(tg, 3))
        other = SpatialGrid(15)
        xi_other = Trajectory.constant(tg, zero_field(other))
        with pytest.raises(ValueError):
            solve_frozen(prob, xi_other, zero_noise(tg, 16))

    def test_non_finite_heat_noise_is_a_solver_failure(self, grid, qspec):
        tg = TimeGrid(4)
        increments = np.zeros((tg.n_steps, 16))
        increments[2, 5] = np.nan
        noise = NoisePath(tg, increments, seed=-1)
        prob = ProblemSpec("heat_sqrt_drift", qspec, sine_field(grid, 1))
        xi = Trajectory.constant(tg, zero_field(grid))
        with pytest.raises(NewtonDivergence, match="non-finite"):
            solve_frozen(prob, xi, noise)

    def test_rejects_non_finite_coefficient(self, grid, qspec):
        tg = TimeGrid(4)
        bad = np.ones(grid.n_interior)
        bad[3] = np.nan
        xi = Trajectory.constant(tg, Field(grid, bad))
        prob = ProblemSpec("heat_sqrt_drift", qspec, sine_field(grid, 1))
        with pytest.raises(ValueError):
            solve_frozen(prob, xi, zero_noise(tg, 16))


class TestSolveFrozenEnsemble:
    """The ensemble form: a stacked coefficient and a sequence of noise paths."""

    def ensemble(self, grid, qspec, n_paths, seed=8):
        tg = TimeGrid(16)
        rng = np.random.default_rng(seed)
        xi = Trajectory.from_matrix(
            tg, grid, np.abs(rng.standard_normal((n_paths, 17, grid.n_interior)))
        )
        noises = [sample_increments(qspec, tg, seed + i) for i in range(n_paths)]
        return xi, noises

    @pytest.mark.parametrize("n_paths", [1, 3])
    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_rows_equal_single_calls(self, grid, qspec, example, n_paths):
        prob = ProblemSpec(example, qspec, sine_field(grid, 1), m=2)
        xi, noises = self.ensemble(grid, qspec, n_paths)
        stats = {}
        out = solve_frozen(prob, xi, noises, collect_stats=stats)
        assert out.n_paths == n_paths and out.timegrid == xi.timegrid
        sums = {"newton_iterations": 0, "dt_retries": 0}
        for p, noise in enumerate(noises):
            one = {}
            want = solve_frozen(prob, xi.path(p), noise, collect_stats=one)
            assert out.values[p].tobytes() == want.values.tobytes()
            for key in sums:
                sums[key] += one[key]
        # the ensemble's counters are the sums of the one-path calls' counters
        assert stats == sums
        if prob.is_porous:
            assert sums["newton_iterations"] > 0

    def test_counters_sum_retries_over_paths(self):
        # the state of test_dt_retry_recovers_from_divergence under two
        # coefficients; each path splits one step in half
        grid = SpatialGrid(63)
        spec = QWienerSpec.power_decay(grid, n_modes=8, decay_exponent=1.0)
        u0 = Field(
            grid,
            40.0 * np.sin(np.pi * grid.nodes) + 30.0 * np.sin(3 * np.pi * grid.nodes),
        )
        prob = ProblemSpec("porous_sqrt_drift", spec, u0, m=5)
        tg = TimeGrid(4, T=2.0)
        cfg = SolverConfig(newton_max_iter=20)
        rows = np.zeros((2, 5, grid.n_interior))
        rows[1] = 1.0
        xi = Trajectory.from_matrix(tg, grid, rows)
        noises = [zero_noise(tg, 8), zero_noise(tg, 8)]
        stats = {}
        solve_frozen(prob, xi, noises, cfg, collect_stats=stats)
        per_path = []
        for p, noise in enumerate(noises):
            one = {}
            solve_frozen(prob, xi.path(p), noise, cfg, collect_stats=one)
            per_path.append(one)
        assert stats["dt_retries"] == sum(c["dt_retries"] for c in per_path) == 2
        assert stats["newton_iterations"] == sum(
            c["newton_iterations"] for c in per_path
        )

    @pytest.mark.parametrize(
        "defect,message",
        [
            ("empty", "need at least one noise path"),
            ("time_grids", "noise paths live on different time grids"),
            ("path_count", "stacks 3 paths, the noise is a sequence of 2$"),
            ("stacked_one_noise", "stacks 3 paths, the noise is one NoisePath$"),
            ("one_path_many_noises", "has no path axis, the noise is a sequence of 3$"),
        ],
    )
    def test_rejects_bad_ensembles_before_marching(
        self, grid, qspec, monkeypatch, defect, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("a step was marched before the inputs were checked")

        monkeypatch.setattr(solver, "_march", never)
        prob = ProblemSpec("porous_sqrt_drift", qspec, sine_field(grid, 1))
        xi, noises = self.ensemble(grid, qspec, 3)
        if defect == "empty":
            noises = []
        elif defect == "time_grids":
            noises[1] = zero_noise(TimeGrid(16, T=2.0), 16)
        elif defect == "path_count":
            noises = noises[:2]
        elif defect == "stacked_one_noise":
            noises = noises[0]
        else:
            xi = xi.path(0)
        with pytest.raises(ValueError, match=message):
            solve_frozen(prob, xi, noises)

    def test_failure_is_the_lowest_failing_paths(self, grid, qspec):
        # path 2 fails at step 1 and path 1 at step 9: the batch meets
        # path 2's failure first, but a path loop meets path 1's
        prob = ProblemSpec("porous_sqrt_drift", qspec, sine_field(grid, 1), m=2)
        xi, noises = self.ensemble(grid, qspec, 3)
        for p, (k, bad) in {1: (9, np.inf), 2: (1, np.nan)}.items():
            increments = noises[p].increments.copy()
            increments[k, 0] = bad
            noises[p] = NoisePath(xi.timegrid, increments, seed=-1)
        with pytest.raises(NewtonDivergence) as want:
            solve_frozen(prob, xi.path(1), noises[1])
        with pytest.raises(NewtonDivergence) as got:
            solve_frozen(prob, xi, noises)
        assert "inf" in str(want.value)
        assert str(got.value) == str(want.value)
        assert got.value.path == 1


def row_kernel_march(problem, u, xi_rows, inc, dt, starts, stop, cfg):
    """The path-by-path reference: _advance step by step on each row alone.

    Returns each row's (Newton iterations, dt retries, error message or None).
    """
    basis = problem.qwiener.basis
    records = []
    for p, first in enumerate(starts):
        counts = {"newton_iterations": 0, "dt_retries": 0}
        error = None
        try:
            for k in range(first, stop):
                u[p, k + 1] = solver._advance(
                    problem, u[p, k], xi_rows[p, k], inc[p, k] @ basis, dt, cfg,
                    counts, 0,
                )
        except NewtonDivergence as exc:
            error = str(exc)
        records.append((counts["newton_iterations"], counts["dt_retries"], error))
    return records


class TestBatchedMarch:
    """The batched march against the row kernel, row by row and bit for bit."""

    # amplitudes from easy to failing at dt = 1e-3 with sigma = 1
    AMPLITUDES = (0.05, 0.1, 0.3, 1.0, 2.0, 4.0, 8.0)

    def batch_inputs(self, grid, qspec, dt, seed=5):
        rng = np.random.default_rng(seed)
        rows = len(self.AMPLITUDES)
        u = np.full((rows, 5, grid.n_interior), np.nan)
        u[:, :3] = np.asarray(self.AMPLITUDES)[:, None, None] * rng.standard_normal(
            (rows, 3, grid.n_interior)
        )
        xi = np.abs(rng.standard_normal((rows, 5, grid.n_interior)))
        inc = rng.standard_normal((rows, 4, 16)) * np.sqrt(qspec.eigenvalues * dt)
        return u, xi, inc

    @pytest.mark.parametrize(
        "example,needs_halving",
        [("porous_sqrt_drift", False), ("porous_gradient_noise", True)],
    )
    def test_matches_row_kernel_with_halvings_and_retries(
        self, grid, qspec, example, needs_halving
    ):
        # newton_max_iter = 5 leaves some rows plain, splits some into
        # half steps and fails the largest ones after both retries
        prob = ProblemSpec(example, qspec, zero_field(grid), m=2, sigma=1.0)
        cfg = SolverConfig(newton_max_iter=5, dt_retries=2)
        dt = 1e-3
        u, xi, inc = self.batch_inputs(grid, qspec, dt)
        # rows join the batch at their own start row
        starts = np.array([0, 1, 0, 2, 0, 1, 0])
        want = u.copy()
        records = row_kernel_march(prob, want, xi, inc, dt, starts, 4, cfg)
        stats = solver._PathStats(len(u))
        solver._march(prob, u, xi, inc, dt, starts, 4, cfg, stats)
        for p, (its, retries, error) in enumerate(records):
            assert stats.newton_iterations[p] == its
            assert stats.dt_retries[p] == retries
            if error is None:
                assert p not in stats.failed
                assert u[p].tobytes() == want[p].tobytes()
            else:
                assert str(stats.failed[p]) == error
        # the data reach every branch: plain rows, split rows, failed rows
        assert any(r == 0 and e is None for _, r, e in records)
        assert any(r > 0 and e is None for _, r, e in records)
        assert any(e is not None for _, _, e in records)
        if needs_halving:
            # some full step the batch took backtracks: the row kernel
            # finishes it, but gives up on it without halvings
            no_halving = dataclasses.replace(
                cfg, newton_max_iter=50, newton_max_halvings=0
            )
            backtracked = False
            for p, k in zip(*np.nonzero(np.isfinite(want[:, 1:, 0]))):
                if k < starts[p]:
                    continue
                uk, xk = want[p, k], xi[p, k]
                dw = inc[p, k] @ qspec.basis
                noise = solver._porous_noise(prob, uk, xk, dw)
                rhs = uk + dt * signed_power_values(xk, 0.5) + noise
                try:
                    solver._newton_porous(grid, uk, rhs, dt, 2, cfg)
                except NewtonDivergence:
                    continue  # a step split into half steps
                try:
                    solver._newton_porous(grid, uk, rhs, dt, 2, no_halving)
                except NewtonDivergence as exc:
                    backtracked |= "damping stalled" in str(exc)
            assert backtracked

    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_lone_row_marches_until_the_next_path_joins(self, grid, qspec, example):
        # row 2 steps alone until row 0 joins it at step 1 and rows 1, 3 at 2
        prob = ProblemSpec(example, qspec, zero_field(grid), m=2)
        cfg = SolverConfig()
        dt = 1e-3
        u, xi, inc = (a[:4] for a in self.batch_inputs(grid, qspec, dt))
        starts = np.array([1, 2, 0, 2])
        want = u.copy()
        records = row_kernel_march(prob, want, xi, inc, dt, starts, 4, cfg)
        stats = solver._PathStats(len(u))
        solver._march(prob, u, xi, inc, dt, starts, 4, cfg, stats)
        assert not stats.failed
        assert all(error is None for _, _, error in records)
        assert stats.newton_iterations.tolist() == [its for its, _, _ in records]
        assert stats.dt_retries.tolist() == [r for _, r, _ in records]
        assert u.tobytes() == want.tobytes()

    def test_heat_batch_fails_only_the_non_finite_row(self, grid, qspec):
        prob = ProblemSpec("heat_sqrt_drift", qspec, zero_field(grid))
        cfg = SolverConfig()
        dt = 1e-2
        u, xi, inc = self.batch_inputs(grid, qspec, dt)
        inc[4, 1, 3] = np.nan
        starts = np.zeros(len(u), dtype=int)
        want = u.copy()
        records = row_kernel_march(prob, want, xi, inc, dt, starts, 4, cfg)
        stats = solver._PathStats(len(u))
        solver._march(prob, u, xi, inc, dt, 0, 4, cfg, stats)
        assert list(stats.failed) == [4]
        assert str(stats.failed[4]) == records[4][2]
        assert "non-finite" in records[4][2]
        assert stats.dt_retries[4] == cfg.dt_retries
        for p in range(len(u)):
            if p != 4:
                assert u[p].tobytes() == want[p].tobytes()
                assert stats.dt_retries[p] == 0

    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_path_bits_do_not_depend_on_batch(self, grid, qspec, example):
        # one path marched alone, in a batch of 3, and in a permuted batch
        # of 64, over a full time grid
        prob = ProblemSpec(example, qspec, sine_field(grid, 1, 0.1), m=2)
        tg = TimeGrid(32)
        cfg = SolverConfig()
        noises = [sample_increments(qspec, tg, 100 + i) for i in range(64)]
        rng = np.random.default_rng(1)
        coeff = np.abs(rng.standard_normal((64, tg.n_steps + 1, grid.n_interior)))

        def march(order):
            u = np.empty((len(order), tg.n_steps + 1, grid.n_interior))
            u[:, 0] = prob.initial_datum.values
            stats = solver._PathStats(len(order))
            inc = np.stack([noises[i].increments for i in order])
            solver._march(prob, u, coeff[order], inc, tg.dt, 0, tg.n_steps, cfg, stats)
            assert not stats.failed
            return u

        alone = [march([i])[0] for i in range(3)]
        assert [row.tobytes() for row in march([0, 1, 2])] == [
            row.tobytes() for row in alone
        ]
        order = rng.permutation(64)
        big = march(order)
        for i in range(3):
            assert big[list(order).index(i)].tobytes() == alone[i].tobytes()
        solo = solve_frozen(prob, Trajectory.from_matrix(tg, grid, coeff[0]), noises[0])
        assert solo.values.tobytes() == alone[0].tobytes()


class TestProblemSpec:
    def test_rejects_unknown_example(self, grid, qspec):
        with pytest.raises(ValueError):
            ProblemSpec("burgers", qspec, zero_field(grid))

    def test_rejects_small_porous_exponent(self, grid, qspec):
        with pytest.raises(ValueError):
            ProblemSpec("porous_sqrt_drift", qspec, zero_field(grid), m=1)

    def test_rejects_grid_mismatch(self, qspec):
        with pytest.raises(ValueError):
            ProblemSpec("heat_sqrt_drift", qspec, zero_field(SpatialGrid(15)))

    def test_defaults_and_derived(self, grid, qspec):
        prob = ProblemSpec("porous_sqrt_drift", qspec, zero_field(grid), m=3)
        assert prob.sigma == 0.1
        assert prob.drift_power == 0.5
        assert prob.time_power == 4
        assert prob.triple == TripleKind.porous(3)
        heat = ProblemSpec("heat_sqrt_drift", qspec, zero_field(grid))
        assert heat.time_power == 2
        assert heat.triple == TripleKind.heat()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(newton_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(newton_max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(dt_retries=-1)


class TestHypothesisChecks:
    def test_porous_operator_pairing_never_positive(self, grid):
        # <Lap u1^{[m]} - Lap u2^{[m]}, u1 - u2> in the H^-1 pivot equals
        # -h sum (u1^{[m]} - u2^{[m]})(u1 - u2), nonpositive pointwise
        triple = TripleKind.porous(3)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            u1 = random_values(grid, rng, scale=10.0 ** rng.uniform(-2, 2))
            u2 = random_values(grid, rng, scale=10.0 ** rng.uniform(-2, 2))
            a_gap = laplacian_values(grid, signed_power_values(u1, 3)) - laplacian_values(
                grid, signed_power_values(u2, 3)
            )
            pairing = triple.pairing_values(grid, a_gap, u1 - u2)
            assert pairing <= 1e-9 * (1.0 + abs(pairing))

    def test_equal_pair_has_zero_defect(self, grid, qspec):
        rng = np.random.default_rng(3)
        u = random_field(grid, rng)
        xi = random_field(grid, rng)
        for example in KNOWN_EXAMPLES:
            prob = ProblemSpec(example, qspec, zero_field(grid), m=2)
            report = check_hypotheses(prob, pairs=[(u, u, xi)])
            assert report.defects[0] == 0.0

    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_all_inequalities_hold(self, grid, qspec, example):
        prob = ProblemSpec(example, qspec, zero_field(grid), m=2)
        report = check_hypotheses(prob, n_pairs=100, seed=0)
        assert report.n_pairs == 100
        assert np.all(report.defects <= 1e-9)
        assert np.all(report.margins <= 1e-9)
        assert np.all(report.ratios <= 1.0 + 1e-12)
        assert report.all_hold

    @pytest.mark.parametrize("form", ["divergence", "pointwise"])
    def test_gradient_hs_norm_matches_mode_loop(self, grid, qspec, form):
        # the batched image rows against one gradient-noise image and one
        # H^-1 norm per Q-mode, summed mode by mode
        prob = ProblemSpec(
            "porous_gradient_noise", qspec, zero_field(grid), gradient_noise_form=form
        )
        for seed in range(5):
            rng = np.random.default_rng(seed)
            xi = random_values(grid, rng, scale=10.0 ** rng.uniform(-3, 2))
            expected = 0.0
            for lam, psi in zip(qspec.eigenvalues, qspec.basis):
                image = _gradient_noise(grid, xi, psi, form)
                expected += lam * norm_values(grid, image, "Hminus1") ** 2
            images = _gradient_noise(grid, xi, qspec.basis, form)
            assert images.shape == qspec.basis.shape
            got = _hs_norm_sq(prob, images)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("form", ["divergence", "pointwise"])
    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_batched_check_matches_pair_loop(
        self, grid, qspec, example, form, monkeypatch
    ):
        # the pair-by-pair measurement, one row at a time, against the one
        # array pass, which evaluates the operator once per argument
        prob = ProblemSpec(
            example, qspec, zero_field(grid), m=2, gradient_noise_form=form
        )
        triple = prob.triple
        theta, power = (2.0, 3) if prob.is_porous else (1.0, 2)
        dual_q = 1.5 if prob.is_porous else 2.0
        c_mono = solver._lipschitz_constant(prob)
        c_coer = solver._coercivity_constant(prob)
        c_growth = solver._growth_constant(prob)

        def hs_norm_sq(images):
            sq = [triple.h_norm_values(grid, row) ** 2 for row in images]
            return np.dot(qspec.eigenvalues, sq)

        original = solver._operator_values
        operator_calls = []

        def counted(*args):
            operator_calls.append(1)
            return original(*args)

        monkeypatch.setattr(solver, "_operator_values", counted)

        def op(u, xi):
            return original(prob, u, xi)

        for seed in range(3):
            # the draws of check_hypotheses, in its order
            stream = gaussian_stream(seed, 4)
            pairs = []
            for _ in range(100):
                amp = 10.0 ** stream.uniform(-3.0, 2.0, size=3)
                pairs.append([Field(grid, a * stream.standard_normal(31)) for a in amp])
            defects, margins, ratios = [], [], []
            for pair in pairs:
                u1, u2, xi = (f.values for f in pair)
                du = u1 - u2
                full_op = op(u1, xi)
                a_gap = full_op - op(u2, xi)
                if example == "porous_gradient_noise":
                    hs_gap = 0.0
                    images = [_gradient_noise(grid, xi, psi, form) for psi in qspec.basis]
                else:
                    hs_gap = hs_norm_sq(prob.sigma * du * qspec.basis)
                    images = prob.sigma * u1 * qspec.basis
                h_gap_sq = triple.h_norm_values(grid, du) ** 2
                defects.append(
                    2.0 * triple.pairing_values(grid, a_gap, du)
                    + hs_gap
                    - c_mono * h_gap_sq
                )
                if prob.is_porous:
                    f_xi = norm_values(grid, xi, "Lp", p=3) ** 3
                else:
                    f_xi = grid.h * np.sum(np.abs(xi))
                v_pow = triple.v_norm_values(grid, u1) ** power
                base = (
                    2.0 * triple.pairing_values(grid, full_op, u1)
                    + hs_norm_sq(images)
                    + theta * v_pow
                )
                h_sq = triple.h_norm_values(grid, u1) ** 2
                margins.append(base - c_coer * (h_sq + 1.0 + f_xi))
                growth = triple.vstar_norm_values(grid, full_op) ** dual_q
                ratios.append(growth / (c_growth * (v_pow + 1.0 + f_xi)))
            operator_calls.clear()
            report = check_hypotheses(prob, n_pairs=100, seed=seed)
            assert len(operator_calls) == 2
            assert np.array_equal(report.defects, defects)
            np.testing.assert_allclose(report.margins, margins, rtol=1e-11, atol=0.0)
            np.testing.assert_allclose(report.ratios, ratios, rtol=1e-11, atol=0.0)
            hold = (
                np.all(np.array(defects) <= 1e-9)
                and np.all(np.array(margins) <= 1e-9)
                and np.all(np.array(ratios) <= 1.0 + 1e-12)
            )
            assert report.all_hold == hold
            explicit = check_hypotheses(prob, pairs=pairs)
            for name in ("defects", "margins", "ratios"):
                assert np.array_equal(getattr(explicit, name), getattr(report, name))

    def test_explicit_pairs_validated(self, grid, qspec):
        prob = ProblemSpec("porous_sqrt_drift", qspec, zero_field(grid), m=2)
        with pytest.raises(ValueError, match="pairs"):
            check_hypotheses(prob, pairs=[])
        rng = np.random.default_rng(4)
        u = random_field(grid, rng)
        other = random_field(SpatialGrid(15), rng)
        for bad in [(u, u, other), (other, other, other)]:
            with pytest.raises(ValueError, match="grid"):
                check_hypotheses(prob, pairs=[(u, u, u), bad])

    def test_heat_margin_clearly_negative(self, grid, qspec):
        # measured maximum margin is about -1.04 at these amplitudes
        prob = ProblemSpec("heat_sqrt_drift", qspec, zero_field(grid))
        report = check_hypotheses(prob, n_pairs=100, seed=0)
        assert report.margins.max() <= 1e-10

    def test_growth_constant_stable_across_seeds(self, grid, qspec):
        prob = ProblemSpec("porous_sqrt_drift", qspec, zero_field(grid), m=2)
        c0 = check_hypotheses(prob, n_pairs=100, seed=0).c_growth_min
        c1 = check_hypotheses(prob, n_pairs=100, seed=1).c_growth_min
        assert 0.5 <= c0 / c1 <= 2.0

    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_growth_check_fails_on_faster_growth(
        self, grid, qspec, example, monkeypatch
    ):
        # an operator of order m + 2 outgrows the V-norm power the derived
        # constant is fixed against, so the large random fields break it
        def steeper(problem, u_values, xi_values):
            return laplacian_values(
                grid, signed_power_values(u_values, problem.m + 2)
            ) + signed_power_values(xi_values, 0.5)

        monkeypatch.setattr(solver, "_operator_values", steeper)
        prob = ProblemSpec(example, qspec, zero_field(grid), m=2)
        report = check_hypotheses(prob, n_pairs=100, seed=0)
        assert report.ratios.max() > 1.0
        assert report.all_hold is False

    def test_smallest_admissible_below_used(self, grid, qspec):
        for example in KNOWN_EXAMPLES:
            prob = ProblemSpec(example, qspec, zero_field(grid), m=2)
            report = check_hypotheses(prob, n_pairs=100, seed=0)
            assert report.c_monotone_min <= report.c_monotone + 1e-12
            assert report.c_coercive_min <= report.c_coercive + 1e-12
            assert report.c_growth_min <= report.c_growth

    def test_csv_round_trip(
        self, grid, qspec, tmp_path, csv_reference, extreme_floats
    ):
        prob = ProblemSpec("heat_sqrt_drift", qspec, zero_field(grid))
        report = check_hypotheses(prob, n_pairs=5, seed=2)
        path = tmp_path / "hypotheses.csv"
        report.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "pair_id,defect_a,margin_b,ratio_c"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == report.defects[0]
        assert float(first[2]) == report.margins[0]
        assert float(first[3]) == report.ratios[0]
        extreme = dataclasses.replace(
            report,
            n_pairs=4,
            defects=np.asarray(extreme_floats[0::3]),
            margins=np.asarray(extreme_floats[1::3]),
            ratios=np.asarray(extreme_floats[2::3]),
        )
        for written in (report, extreme):
            written.to_csv(str(path))
            expected = csv_reference(
                lines[0].split(","),
                zip(
                    range(written.n_pairs),
                    written.defects,
                    written.margins,
                    written.ratios,
                ),
            )
            with open(path, newline="") as fh:
                assert fh.read() == expected
