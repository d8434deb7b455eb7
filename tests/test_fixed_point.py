"""Tests for the dyadic fixed-point construction and its probes.

The block-triangular structure gives sharp targets: Picard iteration
must hit an exact (bitwise) fixed point within 2^n + 1 passes, the
single-sweep staircase must reproduce that limit bit for bit with zero
residual, and truncating the driving noise must leave all earlier output
blocks untouched. The continuity and regularity probes are pinned to
frozen regression values measured once on fixed seeds.
"""

import csv

import numpy as np
import pytest

from stf_spde import fixed_point
from stf_spde.estimators import energy_report
from stf_spde.fixed_point import (
    ContinuityResult,
    FixedPointDiagnostics,
    continuity_probe,
    invariance_radius,
    picard_iterate,
    staircase_construct,
    time_regularity_probe,
    xnorm_power_distance,
)
from stf_spde.grids import Field, SpatialGrid
from stf_spde.projection import (
    HaarLevel,
    TimeGrid,
    Trajectory,
    proj_shifted,
    smoothed_seed,
)
from stf_spde.rng import path_seed
from stf_spde.solver import ProblemSpec, solve_frozen
from stf_spde.wiener import NoisePath, QWienerSpec, lc_q_wiener, sample_increments


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(31)


@pytest.fixture(scope="module")
def qspec(grid):
    return QWienerSpec.power_decay(grid, n_modes=16, decay_exponent=1.0)


@pytest.fixture(scope="module")
def small_datum(grid):
    return Field(grid, 0.1 * np.sin(np.pi * grid.nodes))


@pytest.fixture(scope="module")
def level(small_datum):
    return HaarLevel(3, smoothed_seed(small_datum, 3))


@pytest.fixture(scope="module")
def heat_problem(qspec, small_datum):
    return ProblemSpec("heat_sqrt_drift", qspec, small_datum)


@pytest.fixture(scope="module")
def heat_picard(heat_problem, level, qspec):
    tg = TimeGrid(128)
    noises = [sample_increments(qspec, tg, path_seed(17, i)) for i in range(4)]
    iterates, diag = picard_iterate(heat_problem, level, noises)
    return noises, iterates, diag


@pytest.fixture(scope="module")
def coeff_pair(grid):
    tg = TimeGrid(128)
    base = Trajectory.constant(
        tg, Field(grid, np.abs(np.sin(2 * np.pi * grid.nodes)))
    )
    pert = Trajectory.constant(tg, Field(grid, np.sin(3 * np.pi * grid.nodes)))
    return base, pert


def random_traj(grid, timegrid, rng):
    rows = [
        rng.standard_normal(grid.n_interior) for _ in range(timegrid.n_steps + 1)
    ]
    return Trajectory.from_matrix(timegrid, grid, rows)


class TestDistance:
    def test_same_trajectory_is_zero(self, grid, heat_problem):
        traj = random_traj(grid, TimeGrid(8), np.random.default_rng(1))
        assert xnorm_power_distance(traj, traj, heat_problem) == 0.0

    def test_matches_loop_oracle(self, grid, heat_problem):
        tg = TimeGrid(8)
        rng = np.random.default_rng(2)
        a = random_traj(grid, tg, rng)
        b = random_traj(grid, tg, rng)
        triple = heat_problem.triple
        oracle = tg.dt * sum(
            triple.v_norm(
                Field(grid, np.asarray(fa.values) - np.asarray(fb.values))
            )
            ** 2
            for fa, fb in zip(a.fields[:-1], b.fields[:-1])
        )
        assert xnorm_power_distance(a, b, heat_problem) == pytest.approx(
            oracle, rel=1e-14
        )

    def test_rejects_mismatched_grids(self, grid, heat_problem):
        a = random_traj(grid, TimeGrid(8), np.random.default_rng(3))
        b = random_traj(grid, TimeGrid(16), np.random.default_rng(3))
        with pytest.raises(ValueError):
            xnorm_power_distance(a, b, heat_problem)


class TestPicard:
    def test_zero_datum_converges_immediately(self, grid, qspec):
        zero = Field(grid, np.zeros(grid.n_interior))
        prob = ProblemSpec("heat_sqrt_drift", qspec, zero)
        noise = sample_increments(qspec, TimeGrid(64), 7)
        iterates, diag = picard_iterate(prob, HaarLevel(3, zero), [noise])
        assert diag.n_iterations == 1
        assert diag.converged
        assert diag.residual == 0.0
        assert diag.energy_functional == 0.0
        assert all(np.all(f.values == 0.0) for f in iterates[0].fields)

    def test_exact_fixed_point_within_block_count(self, heat_picard):
        _, _, diag = heat_picard
        # one dyadic block is frozen per pass: 2^3 + 1 passes suffice
        assert diag.converged
        assert diag.n_iterations <= 2**3 + 1
        assert diag.distance_means[-1] == 0.0
        assert diag.residual == 0.0
        assert diag.distance_means[0] == pytest.approx(
            0.016498728078231946, rel=1e-9
        )
        assert diag.energy_functional == pytest.approx(
            0.006589693658034249, rel=1e-9
        )

    def test_distances_non_increasing(self, heat_picard):
        _, _, diag = heat_picard
        d = diag.distance_means
        assert all(d[k + 1] <= d[k] for k in range(len(d) - 1))

    def test_replay_is_bitwise(self, heat_problem, level, heat_picard):
        noises, iterates, _ = heat_picard
        again, _ = picard_iterate(heat_problem, level, noises)
        for a, b in zip(again, iterates):
            assert all(
                np.array_equal(fa.values, fb.values)
                for fa, fb in zip(a.fields, b.fields)
            )

    def test_max_iter_cap_reports_not_converged(self, heat_problem, level, qspec):
        noise = sample_increments(qspec, TimeGrid(128), path_seed(17, 0))
        _, diag = picard_iterate(heat_problem, level, [noise], max_iter=1)
        assert not diag.converged
        assert diag.n_iterations == 1
        assert diag.residual > 0.0

    def test_residual_solve_only_when_not_fixed(
        self, heat_problem, level, heat_picard, monkeypatch
    ):
        # a converged run's last pass returns its input, so that pass's
        # distances are the residuals; a capped run solves once more per path
        noises, _, _ = heat_picard
        noises = noises[:2]
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_frozen(*args, **kwargs)

        monkeypatch.setattr(fixed_point, "solve_frozen", counted)
        _, diag = picard_iterate(heat_problem, level, noises)
        assert diag.converged and diag.n_iterations == 9
        assert len(calls) == 9 * len(noises)
        assert diag.residual == 0.0
        calls.clear()
        capped, diag = picard_iterate(heat_problem, level, noises, max_iter=3)
        assert len(calls) == 4 * len(noises)
        residuals = [
            xnorm_power_distance(
                proj_shifted(solve_frozen(heat_problem, xi, noise), level),
                xi,
                heat_problem,
            )
            for xi, noise in zip(capped, noises)
        ]
        assert diag.residual == float(np.mean(residuals))
        assert diag.residual > 0.0

    def test_rejects_empty_ensemble(self, heat_problem, level):
        with pytest.raises(ValueError):
            picard_iterate(heat_problem, level, [])

    def test_diagnostics_reject_negative_distance(self):
        with pytest.raises(ValueError):
            FixedPointDiagnostics(
                distance_means=(-1.0,),
                distance_stderrs=(0.0,),
                energy_means=(0.0,),
                residual=0.0,
                residual_stderr=0.0,
                energy_functional=0.0,
                energy_stderr=0.0,
                converged=True,
                n_iterations=1,
            )

    def test_diagnostics_csv_residual_column(
        self, heat_picard, tmp_path, csv_reference, extreme_floats
    ):
        _, _, diag = heat_picard
        path = tmp_path / "picard.csv"
        diag.to_csv(str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "iteration",
            "mean_distance",
            "stderr",
            "energy",
            "residual",
        ]
        body = rows[1:]
        assert len(body) == diag.n_iterations
        for k, row in enumerate(body):
            assert int(row[0]) == k + 1
            assert float(row[1]) == diag.distance_means[k]
            expected_res = (
                diag.distance_means[k + 1]
                if k + 1 < len(diag.distance_means)
                else diag.residual
            )
            assert float(row[4]) == expected_res
        # the bytes, against csv.writer, for this run and for extreme values
        nonneg = [v for v in extreme_floats if not v < 0]
        extreme = FixedPointDiagnostics(
            distance_means=tuple(nonneg[:4]),
            distance_stderrs=tuple(v for v in extreme_floats if v < 0)[:4],
            energy_means=tuple(extreme_floats[-4:]),
            residual=nonneg[-1],
            residual_stderr=0.0,
            energy_functional=0.0,
            energy_stderr=0.0,
            converged=False,
            n_iterations=4,
        )
        for written in (diag, extreme):
            n = len(written.distance_means)
            residuals = [
                written.distance_means[k + 1] if k + 1 < n else written.residual
                for k in range(n)
            ]
            expected = csv_reference(
                rows[0],
                zip(
                    range(1, n + 1),
                    written.distance_means,
                    written.distance_stderrs,
                    written.energy_means,
                    residuals,
                ),
            )
            written.to_csv(str(path))
            with open(path, newline="") as fh:
                assert fh.read() == expected


class TestStaircase:
    def test_matches_picard_limit_bitwise(self, heat_problem, level, heat_picard):
        noises, iterates, _ = heat_picard
        for noise, limit in zip(noises, iterates):
            sweep = staircase_construct(heat_problem, level, noise)
            assert all(
                np.array_equal(fa.values, fb.values)
                for fa, fb in zip(sweep.fields, limit.fields)
            )

    @pytest.mark.parametrize(
        "example,n_paths",
        [("porous_sqrt_drift", 2), ("porous_gradient_noise", 1)],
    )
    def test_porous_variants_match_picard(
        self, qspec, small_datum, level, example, n_paths
    ):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        tg = TimeGrid(128)
        noises = [
            sample_increments(qspec, tg, path_seed(17, i)) for i in range(n_paths)
        ]
        iterates, diag = picard_iterate(prob, level, noises)
        assert diag.converged
        assert diag.residual == 0.0
        for noise, limit in zip(noises, iterates):
            sweep = staircase_construct(prob, level, noise)
            assert all(
                np.array_equal(fa.values, fb.values)
                for fa, fb in zip(sweep.fields, limit.fields)
            )

    def test_residual_vanishes(self, heat_problem, level, heat_picard):
        noises, _, _ = heat_picard
        sweep = staircase_construct(heat_problem, level, noises[0])
        resolve = proj_shifted(solve_frozen(heat_problem, sweep, noises[0]), level)
        assert xnorm_power_distance(resolve, sweep, heat_problem) == 0.0

    def test_zero_seed_zero_datum_stays_zero(self, grid, qspec):
        zero = Field(grid, np.zeros(grid.n_interior))
        prob = ProblemSpec("heat_sqrt_drift", qspec, zero)
        noise = sample_increments(qspec, TimeGrid(64), 5)
        out = staircase_construct(prob, HaarLevel(3, zero), noise)
        assert all(np.all(f.values == 0.0) for f in out.fields)

    def test_output_ignores_future_noise(self, heat_problem, level, heat_picard):
        # zeroing increments from step 64 (block 4) onward must leave
        # output nodes 0..79 untouched: block k+1 reads solve values on
        # block k only, so node 80 is the first that can move
        noises, _, _ = heat_picard
        noise = noises[0]
        cut = noise.increments.copy()
        cut[64:] = 0.0
        truncated = NoisePath(noise.timegrid, cut, seed=noise.seed)
        full_out = staircase_construct(heat_problem, level, noise)
        cut_out = staircase_construct(heat_problem, level, truncated)
        for k in range(80):
            assert np.array_equal(
                full_out.fields[k].values, cut_out.fields[k].values
            )
        assert not np.array_equal(
            full_out.fields[80].values, cut_out.fields[80].values
        )

    def test_last_block_noise_is_never_read(self, heat_problem, level, heat_picard):
        # no coefficient block reads the solve on the last block (steps
        # 112..127), so NaN increments there change nothing and raise nothing
        noises, _, _ = heat_picard
        noise = noises[0]
        poisoned = noise.increments.copy()
        poisoned[112:] = np.nan
        nan_tail = NoisePath(noise.timegrid, poisoned, seed=noise.seed)
        full_out = staircase_construct(heat_problem, level, noise)
        nan_out = staircase_construct(heat_problem, level, nan_tail)
        assert np.array_equal(full_out.values, nan_out.values)

    def test_rejects_indivisible_time_grid(self, heat_problem, level, qspec):
        noise = sample_increments(qspec, TimeGrid(12), 0)
        with pytest.raises(ValueError):
            staircase_construct(heat_problem, level, noise)


class TestContinuityProbe:
    @pytest.mark.parametrize(
        "example,target,frozen",
        [
            ("heat_sqrt_drift", 0.4, 0.7539305704387602),
            ("porous_sqrt_drift", 0.233, 0.7602537896819066),
            ("porous_gradient_noise", 0.233, 0.6749707411893273),
        ],
    )
    def test_fitted_exponent_clears_target(
        self, qspec, small_datum, coeff_pair, example, target, frozen
    ):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        base, pert = coeff_pair
        result = continuity_probe(
            prob, base, pert, [1e-3, 1e-2, 1e-1, 1.0], n_paths=16, seed=3
        )
        assert result.gamma_hat == pytest.approx(frozen, rel=1e-9)
        assert result.gamma_hat - result.half_width >= target
        assert result.half_width > 0
        assert len(result.input_distances) == 4
        assert all(
            a < b
            for a, b in zip(result.input_distances, result.input_distances[1:])
        )

    def test_zero_perturbation_is_degenerate(
        self, heat_problem, coeff_pair, grid
    ):
        base, _ = coeff_pair
        zero_pert = Trajectory.constant(
            base.timegrid, Field(grid, np.zeros(grid.n_interior))
        )
        with pytest.raises(ValueError):
            continuity_probe(
                heat_problem, base, zero_pert, [1e-2, 1e-1, 1.0], n_paths=2
            )

    def test_rejects_bad_epsilons(self, heat_problem, coeff_pair):
        base, pert = coeff_pair
        with pytest.raises(ValueError):
            continuity_probe(heat_problem, base, pert, [1e-2, 1e-1], n_paths=2)
        with pytest.raises(ValueError):
            continuity_probe(
                heat_problem, base, pert, [1e-2, 1e-1, -1.0], n_paths=2
            )
        with pytest.raises(ValueError):
            continuity_probe(
                heat_problem, base, pert, [1e-2, 1e-2, 1e-1], n_paths=2
            )

    def test_rejects_mismatched_perturbation(
        self, heat_problem, coeff_pair, grid
    ):
        base, _ = coeff_pair
        pert = Trajectory.constant(
            TimeGrid(64), Field(grid, np.ones(grid.n_interior))
        )
        with pytest.raises(ValueError):
            continuity_probe(heat_problem, base, pert, [1e-2, 1e-1, 1.0])

    def test_csv_round_trip(self, tmp_path, csv_reference, extreme_floats):
        result = ContinuityResult(
            gamma_hat=0.5,
            half_width=0.1,
            epsilons=(0.1, 0.2, 0.4),
            input_distances=(1.0, 2.0, 4.0),
            output_distances=(0.5, 0.7, 1.1),
        )
        path = tmp_path / "continuity.csv"
        result.to_csv(str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epsilon", "input_dist", "output_dist"]
        assert [float(r[0]) for r in rows[1:]] == [0.1, 0.2, 0.4]
        assert [float(r[2]) for r in rows[1:]] == [0.5, 0.7, 1.1]
        extreme = ContinuityResult(
            gamma_hat=0.5,
            half_width=0.1,
            epsilons=extreme_floats[0::3],
            input_distances=extreme_floats[1::3],
            output_distances=extreme_floats[2::3],
        )
        for written in (result, extreme):
            written.to_csv(str(path))
            expected = csv_reference(
                rows[0],
                zip(
                    written.epsilons,
                    written.input_distances,
                    written.output_distances,
                ),
            )
            with open(path, newline="") as fh:
                assert fh.read() == expected


class TestRegularityProbe:
    def test_noise_free_decay_has_finite_seminorms(
        self, heat_problem, qspec, grid
    ):
        tg = TimeGrid(128)
        xi = Trajectory.constant(tg, Field(grid, np.zeros(grid.n_interior)))
        silent = NoisePath(tg, np.zeros((tg.n_steps, qspec.n_modes)), seed=0)
        u = solve_frozen(heat_problem, xi, silent)
        table = time_regularity_probe(heat_problem, [u], alphas=(0.5, 0.9))
        assert table.seminorm_means[0] == pytest.approx(
            0.026536914837789964, rel=1e-12
        )
        assert table.seminorm_means[1] == pytest.approx(
            0.08331357616383066, rel=1e-12
        )
        assert table.seminorm_stderrs == (0.0, 0.0)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_seminorm_stable_under_dyadic_refinement(
        self, heat_problem, qspec, grid, seed
    ):
        # the refinements discretize one underlying noise path, so the
        # alpha = 0.2 seminorm of the solve should settle, not blow up
        values = []
        zero = Field(grid, np.zeros(grid.n_interior))
        for lvl in (8, 9, 10, 11):
            noise = lc_q_wiener(qspec, lvl, seed).increments_path()
            xi = Trajectory.constant(noise.timegrid, zero)
            u = solve_frozen(heat_problem, xi, noise)
            table = time_regularity_probe(heat_problem, [u], alphas=(0.2,))
            values.append(table.seminorm_means[0])
        assert all(v > 0 for v in values)
        for coarse, fine in zip(values, values[1:]):
            assert fine / coarse <= 1.5

    @pytest.mark.parametrize(
        "example,target,frozen",
        [
            ("heat_sqrt_drift", 0.35, 1.1381301116915397),
            ("porous_sqrt_drift", 0.517, 2.1079818609257903),
        ],
    )
    def test_increment_exponent_clears_target(
        self, qspec, small_datum, level, example, target, frozen
    ):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        tg = TimeGrid(128)
        ensemble = []
        for i in range(16):
            noise = sample_increments(qspec, tg, path_seed(29, i))
            xi = staircase_construct(prob, level, noise)
            ensemble.append(solve_frozen(prob, xi, noise))
        table = time_regularity_probe(prob, ensemble, alphas=(0.2, 0.35))
        assert table.increment_exponent == pytest.approx(frozen, rel=1e-9)
        assert table.increment_exponent >= target
        assert all(
            a < b
            for a, b in zip(table.increment_times, table.increment_times[1:])
        )
        assert all(v > 0 for v in table.increment_means)

    def test_rejects_empty_ensemble(self, heat_problem):
        with pytest.raises(ValueError):
            time_regularity_probe(heat_problem, [], alphas=(0.5,))

    def test_rejects_too_coarse_grid(self, heat_problem, grid, qspec):
        tg = TimeGrid(2)
        xi = Trajectory.constant(tg, Field(grid, np.zeros(grid.n_interior)))
        silent = NoisePath(tg, np.zeros((tg.n_steps, qspec.n_modes)), seed=0)
        u = solve_frozen(heat_problem, xi, silent)
        with pytest.raises(ValueError):
            time_regularity_probe(heat_problem, [u], alphas=(0.5,))


class TestInvarianceRadius:
    def test_drift_free_radius_is_twice_initial_energy(self):
        assert invariance_radius(0.0, 0.3, 1.0, 0.5) == pytest.approx(
            0.6, rel=1e-12
        )

    def test_degenerate_data_gives_zero(self):
        assert invariance_radius(0.0, 0.0, 1.0, 0.5) == 0.0

    def test_radius_is_a_fixed_point_of_the_bound(self):
        c, e, t, q = 0.2, 0.05, 1.0, 0.5
        r = invariance_radius(c, e, t, q)
        rhs = (2 * e + c * r**q + c * t) * np.exp(c * t)
        assert rhs == pytest.approx(r, rel=1e-10)
        # smallest crossing: the bound still exceeds any smaller radius
        half = 0.5 * r
        rhs_half = (2 * e + c * half**q + c * t) * np.exp(c * t)
        assert rhs_half > half

    def test_rejects_bad_parameters(self):
        for q in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                invariance_radius(0.1, 0.1, 1.0, q)
        with pytest.raises(ValueError):
            invariance_radius(-0.1, 0.1, 1.0, 0.5)
        with pytest.raises(ValueError):
            invariance_radius(0.1, 0.1, 0.0, 0.5)


class TestInvarianceChain:
    def test_fitted_ball_absorbs_the_fixed_points(
        self, heat_problem, level, qspec, small_datum
    ):
        # the fitted constant determines a radius the bound maps into
        # itself; the Picard limits' energies must land inside that ball
        tg = TimeGrid(128)
        rep = energy_report(heat_problem, level, tg, n_paths=32, seed_base=11)
        assert rep.c_hat == pytest.approx(0.01680942286730822, rel=1e-6)
        u0_energy = heat_problem.triple.h_norm(small_datum) ** 2
        r_star = invariance_radius(rep.c_hat, u0_energy, tg.T, 0.5)
        assert r_star == pytest.approx(0.03023635459216774, rel=1e-6)
        noises = [
            sample_increments(qspec, tg, path_seed(17, i)) for i in range(4)
        ]
        _, diag = picard_iterate(heat_problem, level, noises)
        assert diag.energy_functional == pytest.approx(
            0.006589693658034249, rel=1e-9
        )
        assert diag.energy_functional + diag.energy_stderr <= r_star
