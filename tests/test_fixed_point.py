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
from invariance_ball import invariance_radius

from stf_spde import cli, fixed_point, solver
from stf_spde.estimators import energy_report, integral_v_power, mc_mean_stderr
from stf_spde.fixed_point import (
    FixedPointDiagnostics,
    continuity_probe,
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
    fractional_seminorm,
    proj_shifted,
    smoothed_seed,
)
from stf_spde.rng import path_seed
from stf_spde.solver import (
    KNOWN_EXAMPLES,
    NewtonDivergence,
    ProblemSpec,
    SolverConfig,
    solve_frozen,
)
from stf_spde.wiener import (
    NoisePath,
    QWienerSpec,
    lc_q_wiener,
    sample_increments,
    sample_increments_batch,
)


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
            triple.v_norm_values(grid, ra - rb) ** 2
            for ra, rb in zip(a.values[:-1], b.values[:-1])
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
        assert diag.energy_means[-1] == 0.0
        assert iterates.n_paths == 1 and np.all(iterates.values == 0.0)

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
        assert diag.energy_means[-1] == pytest.approx(
            0.006589693658034249, rel=1e-9
        )

    def test_distances_non_increasing(self, heat_picard):
        _, _, diag = heat_picard
        d = diag.distance_means
        assert all(d[k + 1] <= d[k] for k in range(len(d) - 1))

    def test_replay_is_bitwise(self, heat_problem, level, heat_picard):
        noises, iterates, _ = heat_picard
        again, _ = picard_iterate(heat_problem, level, noises)
        assert again.values.tobytes() == iterates.values.tobytes()

    def test_max_iter_cap_reports_not_converged(self, heat_problem, level, qspec):
        noise = sample_increments(qspec, TimeGrid(128), path_seed(17, 0))
        _, diag = picard_iterate(heat_problem, level, [noise], max_iter=1)
        assert not diag.converged
        assert diag.n_iterations == 1
        assert diag.residual > 0.0

    def test_residual_solve_only_when_not_fixed(
        self, heat_problem, level, heat_picard, monkeypatch
    ):
        # pass j re-marches every path from block max(j - 2, 0) up to row
        # 112 (the projection never reads the last block), so a converged
        # path marches 112 + 112 + 96 + ... + 16 + 0 steps and its residual
        # pass none; a capped run's residual pass marches on from its block
        noises, _, _ = heat_picard
        noises = noises[:2]
        march = fixed_point._march
        steps = {}

        def counted(problem, u, xi_rows, inc, dt, start, stop, cfg, stats):
            # row i of the batch is path i, and every path starts at one row
            assert isinstance(start, int) and len(u) == len(noises)
            for noise in noises:
                steps[noise.seed] = steps.get(noise.seed, 0) + max(stop - start, 0)
            march(problem, u, xi_rows, inc, dt, start, stop, cfg, stats)

        monkeypatch.setattr(fixed_point, "_march", counted)
        _, diag = picard_iterate(heat_problem, level, noises)
        assert diag.converged and diag.n_iterations == 9
        assert steps == {noise.seed: 560 for noise in noises}
        assert diag.residual == 0.0
        steps.clear()
        capped, diag = picard_iterate(heat_problem, level, noises, max_iter=3)
        # passes of 112, 112 and 96 steps, then a residual pass of 80
        assert steps == {noise.seed: 400 for noise in noises}
        residuals = []
        for p, noise in enumerate(noises):
            xi = capped.path(p)
            resolve = proj_shifted(solve_frozen(heat_problem, xi, noise), level)
            residuals.append(xnorm_power_distance(resolve, xi, heat_problem))
        assert diag.residual == float(np.mean(residuals))
        assert diag.residual > 0.0
        steps.clear()
        # a tol met at pass 1: its residual pass is pass 2, from row 0
        _, diag = picard_iterate(heat_problem, level, noises, tol=1.0)
        assert diag.converged and diag.n_iterations == 1
        assert steps == {noise.seed: 112 + 112 for noise in noises}

    def test_rejects_empty_ensemble(self, heat_problem, level):
        with pytest.raises(ValueError):
            picard_iterate(heat_problem, level, [])

    @pytest.mark.parametrize(
        "defect,message",
        [
            ("modes", "noise has 3 modes, spec wants 16"),
            ("indivisible", "n_steps=12 is not divisible"),
            ("time_grids", "noise paths live on different time grids"),
            ("seed_grid", "seed field lives on a different spatial grid"),
            ("lone_path", "takes a sequence of noise paths, not one NoisePath"),
        ],
    )
    def test_rejects_bad_inputs_before_marching(
        self, heat_problem, level, monkeypatch, defect, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("a step was marched before the inputs were checked")

        monkeypatch.setattr(solver, "_march", never)
        monkeypatch.setattr(fixed_point, "_march", never)
        tg = TimeGrid(128)
        noises = [NoisePath(tg, np.zeros((128, 16)), seed=0)]
        if defect == "modes":
            noises.append(NoisePath(tg, np.zeros((128, 3)), seed=1))
        elif defect == "indivisible":
            noises = [NoisePath(TimeGrid(12), np.zeros((12, 16)), seed=0)]
        elif defect == "time_grids":
            noises.append(NoisePath(TimeGrid(64), np.zeros((64, 16)), seed=1))
        elif defect == "lone_path":
            # the staircase's one-path form; Picard would return a stacked path
            noises = noises[0]
        else:
            coarse = SpatialGrid(15)
            level = HaarLevel(3, Field(coarse, np.zeros(coarse.n_interior)))
        with pytest.raises(ValueError, match=message):
            picard_iterate(heat_problem, level, noises)

    @pytest.mark.parametrize(
        "rule,message",
        [
            ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
            ({"tol": np.nan}, "tol must be >= 0 and finite, got nan"),
            ({"tol": -1.0}, "tol must be >= 0 and finite, got -1.0"),
            ({"tol": np.inf}, "tol must be >= 0 and finite, got inf"),
        ],
        ids=["max_iter=0", "tol=nan", "tol=-1", "tol=inf"],
    )
    def test_rejects_a_bad_stopping_rule_before_marching(
        self, heat_problem, level, monkeypatch, rule, message
    ):
        # a NaN or negative tol never stopped, and an infinite one stopped
        # after one pass with converged = True
        def never(*args, **kwargs):
            raise AssertionError("a step was marched before the inputs were checked")

        monkeypatch.setattr(fixed_point, "_march", never)
        noises = [NoisePath(TimeGrid(128), np.zeros((128, 16)), seed=0)]
        with pytest.raises(ValueError, match=message):
            picard_iterate(heat_problem, level, noises, **rule)

    def test_last_block_noise_is_never_read(self, heat_problem, level, heat_picard):
        # no coefficient block reads the solve on steps 112..127, so NaN
        # increments there leave the iterates at the staircase, unraised
        noises, _, _ = heat_picard
        noise = noises[0]
        poisoned = noise.increments.copy()
        poisoned[112:] = np.nan
        nan_tail = NoisePath(noise.timegrid, poisoned, seed=noise.seed)
        iterates, diag = picard_iterate(heat_problem, level, [nan_tail])
        assert diag.converged and diag.residual == 0.0
        sweep = staircase_construct(heat_problem, level, noise)
        assert np.array_equal(iterates.path(0).values, sweep.values)

    def test_diagnostics_reject_negative_distance(self):
        with pytest.raises(ValueError):
            FixedPointDiagnostics(
                distance_means=(-1.0,),
                distance_stderrs=(0.0,),
                energy_means=(0.0,),
                residual=0.0,
                residual_stderr=0.0,
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


def plain_picard(problem, level, noises, max_iter):
    """The Picard loop written out: proj_shifted(solve_frozen(...)) per pass."""
    triple, power = problem.triple, problem.time_power
    tg = noises[0].timegrid
    iterates = [Trajectory.constant(tg, problem.initial_datum) for _ in noises]
    distance_means, distance_stderrs, energy_means = [], [], []
    converged = False
    for n_iterations in range(1, max_iter + 1):
        new = [
            proj_shifted(solve_frozen(problem, xi, noise), level)
            for xi, noise in zip(iterates, noises)
        ]
        mean, stderr = mc_mean_stderr(
            [xnorm_power_distance(a, b, problem) for a, b in zip(new, iterates)]
        )
        distance_means.append(mean)
        distance_stderrs.append(stderr)
        energies = [integral_v_power(xi, triple, power) for xi in new]
        energy_means.append(float(np.mean(energies)))
        iterates = new
        if mean <= 0.0:
            converged = True
            break
    residual, residual_stderr = mc_mean_stderr(
        [
            xnorm_power_distance(
                proj_shifted(solve_frozen(problem, xi, noise), level), xi, problem
            )
            for xi, noise in zip(iterates, noises)
        ]
    )
    _, energy_stderr = mc_mean_stderr(energies)
    return iterates, FixedPointDiagnostics(
        distance_means=tuple(distance_means),
        distance_stderrs=tuple(distance_stderrs),
        energy_means=tuple(energy_means),
        residual=residual,
        residual_stderr=residual_stderr,
        energy_stderr=energy_stderr,
        converged=converged,
        n_iterations=n_iterations,
    )


def failing_problem(qspec, small_datum):
    """porous_sqrt_drift with sigma = 0.5 under a budget of 2 Newton iterations.

    On the paths of path_seed(11, i), i < 8, path 6 fails at an earlier
    step than path 4 does, so the error a path-by-path loop raises first
    is not the first in time.
    """
    prob = ProblemSpec("porous_sqrt_drift", qspec, small_datum, m=2, sigma=0.5)
    return prob, SolverConfig(newton_max_iter=2, dt_retries=0)


class TestPicardOracle:
    @pytest.mark.parametrize(
        "example,max_iter",
        [(example, 9) for example in KNOWN_EXAMPLES] + [("heat_sqrt_drift", 3)],
    )
    def test_matches_plain_loop_bitwise(
        self, qspec, small_datum, level, example, max_iter
    ):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        tg = TimeGrid(128)
        noises = [sample_increments(qspec, tg, path_seed(23, i)) for i in range(5)]
        iterates, diag = picard_iterate(prob, level, noises, max_iter=max_iter)
        want_iterates, want = plain_picard(prob, level, noises, max_iter)
        assert diag.converged == (max_iter == 9)
        # repr spells every float field out to its last bit
        assert repr(diag) == repr(want)
        assert iterates.n_paths == len(want_iterates)
        for p, expected in enumerate(want_iterates):
            assert iterates.path(p).values.tobytes() == expected.values.tobytes()
            if diag.converged:
                sweep = staircase_construct(prob, level, noises[p])
                assert iterates.path(p).values.tobytes() == sweep.values.tobytes()

    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_permuted_noise_permutes_iterates(self, qspec, small_datum, level, example):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        tg = TimeGrid(128)
        noises = [sample_increments(qspec, tg, path_seed(23, i)) for i in range(5)]
        order = [3, 0, 4, 1, 2]
        iterates, _ = picard_iterate(prob, level, noises)
        permuted, _ = picard_iterate(prob, level, [noises[i] for i in order])
        for p, i in enumerate(order):
            assert permuted.values[p].tobytes() == iterates.values[i].tobytes()

    def test_failure_is_the_plain_loops_first(self, qspec, small_datum, level):
        prob, config = failing_problem(qspec, small_datum)
        tg = TimeGrid(128)
        noises = [sample_increments(qspec, tg, path_seed(11, i)) for i in range(8)]
        with pytest.raises(NewtonDivergence) as want:
            for noise in noises:
                solve_frozen(prob, Trajectory.constant(tg, small_datum), noise, config)
        with pytest.raises(NewtonDivergence) as got:
            picard_iterate(prob, level, noises, config)
        assert str(got.value) == str(want.value)


class TestStaircase:
    def test_matches_picard_limit_bitwise(self, heat_problem, level, heat_picard):
        noises, iterates, _ = heat_picard
        for p, noise in enumerate(noises):
            sweep = staircase_construct(heat_problem, level, noise)
            assert np.array_equal(sweep.values, iterates.path(p).values)

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
        for p, noise in enumerate(noises):
            sweep = staircase_construct(prob, level, noise)
            assert np.array_equal(sweep.values, iterates.path(p).values)

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
        assert np.all(out.values == 0.0)

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
            assert np.array_equal(full_out.values[k], cut_out.values[k])
        assert not np.array_equal(full_out.values[80], cut_out.values[80])

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

    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_sweep_solve_equals_resolve(self, qspec, small_datum, level, example):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        noise = sample_increments(qspec, TimeGrid(128), path_seed(17, 1))
        xi, u, stats = fixed_point._staircase_solve(
            prob, level, noise.timegrid, noise.increments[None]
        )
        assert not stats.failed
        sweep = staircase_construct(prob, level, noise)
        assert xi[0].tobytes() == sweep.values.tobytes()
        resolve = solve_frozen(prob, sweep, noise)
        assert u[0].tobytes() == resolve.values.tobytes()

    @pytest.mark.parametrize(
        "example,most", [("porous_sqrt_drift", 2.1), ("porous_gradient_noise", 5.5)]
    )
    def test_newton_iterations_per_marched_step(self, example, most):
        # from the lagged-diffusivity start: 2.000 and 5.151 Newton
        # iterations per marched step measured here
        _, qspec, datum, tg, level = cli._probe_fixture()
        prob = ProblemSpec(example, qspec, datum, m=2)
        inc = sample_increments_batch(qspec, tg, [path_seed(0, i) for i in range(8)])
        _, _, stats = fixed_point._staircase_solve(prob, level, tg, inc)
        # no split steps, so each path marches its n_steps once
        assert not stats.failed and not stats.dt_retries.any()
        assert stats.newton_iterations.sum() / (len(inc) * tg.n_steps) <= most

    @pytest.mark.parametrize("n_paths", [1, 3])
    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_ensemble_rows_equal_single_calls(
        self, qspec, small_datum, level, example, n_paths
    ):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        tg = TimeGrid(128)
        noises = [sample_increments(qspec, tg, path_seed(31, i)) for i in range(n_paths)]
        sweep = staircase_construct(prob, level, noises)
        assert sweep.n_paths == n_paths and sweep.timegrid == tg
        for p, noise in enumerate(noises):
            one = staircase_construct(prob, level, noise)
            assert one.n_paths is None
            assert sweep.values[p].tobytes() == one.values.tobytes()

    @pytest.mark.parametrize(
        "defect,message",
        [
            ("empty", "need at least one noise path"),
            ("time_grids", "noise paths live on different time grids"),
            ("modes", "noise has 3 modes, spec wants 16"),
        ],
    )
    def test_rejects_bad_ensembles_before_marching(
        self, heat_problem, level, monkeypatch, defect, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("a step was marched before the inputs were checked")

        monkeypatch.setattr(fixed_point, "_march", never)
        tg = TimeGrid(128)
        noises = [NoisePath(tg, np.zeros((128, 16)), seed=0)]
        if defect == "empty":
            noises = []
        elif defect == "time_grids":
            noises.append(NoisePath(TimeGrid(128, T=2.0), np.zeros((128, 16)), seed=1))
        else:
            noises.append(NoisePath(tg, np.zeros((128, 3)), seed=1))
        with pytest.raises(ValueError, match=message):
            staircase_construct(heat_problem, level, noises)

    def test_failure_is_the_lowest_failing_paths(self, qspec, small_datum, level):
        # path 3 fails at step 2, path 1 at step 90: the sweep meets path
        # 3's failure first, but a path loop meets path 1's
        prob = ProblemSpec("porous_sqrt_drift", qspec, small_datum, m=2)
        tg = TimeGrid(128)
        noises = [sample_increments(qspec, tg, path_seed(31, i)) for i in range(4)]
        for p, (k, bad) in {1: (90, np.inf), 3: (2, np.nan)}.items():
            increments = noises[p].increments.copy()
            increments[k, 0] = bad
            noises[p] = NoisePath(tg, increments, seed=-1)
        with pytest.raises(NewtonDivergence) as want:
            staircase_construct(prob, level, noises[1])
        with pytest.raises(NewtonDivergence) as got:
            staircase_construct(prob, level, noises)
        assert "inf" in str(want.value)
        assert str(got.value) == str(want.value)
        assert got.value.path == 1

    def test_rejects_indivisible_time_grid(self, heat_problem, level, qspec):
        noise = sample_increments(qspec, TimeGrid(12), 0)
        with pytest.raises(ValueError):
            staircase_construct(heat_problem, level, noise)


def plain_continuity(problem, base, pert, epsilons, n_paths, seed, config=None):
    """continuity_probe's distances written out, one solve_frozen at a time."""
    tg, grid = base.timegrid, base.grid
    noises = [
        sample_increments(problem.qwiener, tg, path_seed(seed, i))
        for i in range(n_paths)
    ]
    base_solutions = [solve_frozen(problem, base, noise, config) for noise in noises]
    inputs, outputs = [], []
    for e in epsilons:
        shifted = Trajectory.from_matrix(tg, grid, base.values + e * pert.values)
        inputs.append(xnorm_power_distance(shifted, base, problem))
        dists = [
            xnorm_power_distance(
                solve_frozen(problem, shifted, noise, config), sol, problem
            )
            for noise, sol in zip(noises, base_solutions)
        ]
        outputs.append(float(np.mean(dists)))
    return tuple(inputs), tuple(outputs)


class TestContinuityProbe:
    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_matches_plain_loop_bitwise(self, qspec, small_datum, grid, example):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        tg = TimeGrid(32)
        base = Trajectory.constant(
            tg, Field(grid, np.abs(np.sin(2 * np.pi * grid.nodes)))
        )
        pert = Trajectory.constant(tg, Field(grid, np.sin(3 * np.pi * grid.nodes)))
        eps = [1e-3, 1e-2, 1e-1, 1.0]
        result = continuity_probe(prob, base, pert, eps, n_paths=6, seed=3)
        inputs, outputs = plain_continuity(prob, base, pert, eps, 6, 3)
        assert repr(result.input_distances) == repr(inputs)
        assert repr(result.output_distances) == repr(outputs)

    def test_failure_is_the_plain_loops_first(self, qspec, small_datum, coeff_pair):
        prob, config = failing_problem(qspec, small_datum)
        base, pert = coeff_pair
        eps = [1e-2, 1e-1, 1.0]
        with pytest.raises(NewtonDivergence) as want:
            plain_continuity(prob, base, pert, eps, 8, 11, config)
        with pytest.raises(NewtonDivergence) as got:
            continuity_probe(prob, base, pert, eps, n_paths=8, seed=11, config=config)
        assert str(got.value) == str(want.value)

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

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_rejects_no_paths_before_drawing_noise(
        self, heat_problem, coeff_pair, monkeypatch, n_paths
    ):
        base, pert = coeff_pair

        def no_draws(*args):
            raise AssertionError("noise drawn before the input check")

        monkeypatch.setattr(fixed_point, "sample_increments_batch", no_draws)
        with pytest.raises(ValueError, match="n_paths"):
            continuity_probe(heat_problem, base, pert, [1e-2, 1e-1, 1.0], n_paths=n_paths)

    def test_rejects_mismatched_perturbation(
        self, heat_problem, coeff_pair, grid
    ):
        base, _ = coeff_pair
        pert = Trajectory.constant(
            TimeGrid(64), Field(grid, np.ones(grid.n_interior))
        )
        with pytest.raises(ValueError):
            continuity_probe(heat_problem, base, pert, [1e-2, 1e-1, 1.0])

    def test_rejects_a_stacked_coefficient(self, heat_problem, coeff_pair):
        # base and perturbation are one coefficient each; the noise paths
        # are the probe's own
        base, pert = coeff_pair
        two = Trajectory(base.timegrid, base.grid, np.stack([base.values] * 2))
        for b, p in ((two, pert), (base, two)):
            with pytest.raises(ValueError, match="continuity_probe reads one path"):
                continuity_probe(heat_problem, b, p, [1e-2, 1e-1, 1.0])


def regularity_ensemble(problem, level, qspec):
    """Solutions driven by 16 staircase fixed points, stacked."""
    tg = TimeGrid(128)
    noises = [sample_increments(qspec, tg, path_seed(29, i)) for i in range(16)]
    return solve_frozen(problem, staircase_construct(problem, level, noises), noises)


def plain_increments(problem, stacked, depth, paths=None):
    """time_regularity_probe's means written out, one path at a time."""
    paths = range(stacked.n_paths) if paths is None else paths
    trajs = [stacked.path(p) for p in paths]
    n = stacked.timegrid.n_steps
    ks = [n >> j for j in range(depth, 0, -1)]
    sups = []
    for u in trajs:
        gaps = [
            problem.triple.h_norm_values(u.grid, row - u.values[0]) ** 2
            for row in u.values
        ]
        sups.append(np.maximum.accumulate(gaps)[ks])
    increments = np.mean(np.asarray(sups), axis=0)
    return tuple(float(v) for v in increments)


class TestRegularityProbe:
    def test_noise_free_decay_has_finite_seminorms(
        self, heat_problem, qspec, grid
    ):
        tg = TimeGrid(128)
        xi = Trajectory.constant(tg, Field(grid, np.zeros(grid.n_interior)))
        silent = NoisePath(tg, np.zeros((tg.n_steps, qspec.n_modes)), seed=0)
        u = solve_frozen(heat_problem, xi, silent)
        assert fractional_seminorm(u, 0.5, "Hminus1") == pytest.approx(
            0.026536914837789964, rel=1e-12
        )
        assert fractional_seminorm(u, 0.9, "Hminus1") == pytest.approx(
            0.08331357616383066, rel=1e-12
        )

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
            values.append(fractional_seminorm(u, 0.2, "Hminus1"))
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
        ensemble = regularity_ensemble(prob, level, qspec)
        table = time_regularity_probe(prob, ensemble)
        assert table.increment_exponent == pytest.approx(frozen, rel=1e-9)
        assert table.increment_exponent >= target
        assert all(
            a < b
            for a, b in zip(table.increment_times, table.increment_times[1:])
        )
        assert all(v > 0 for v in table.increment_means)

    @pytest.mark.parametrize("example", ["heat_sqrt_drift", "porous_sqrt_drift"])
    def test_stacked_matches_plain_loop_bitwise(
        self, qspec, small_datum, level, example
    ):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        ensemble = regularity_ensemble(prob, level, qspec)
        table = time_regularity_probe(prob, ensemble)
        increments = plain_increments(prob, ensemble, 6)
        # repr spells every float out to its last bit
        assert repr(table.increment_means) == repr(increments)
        one = time_regularity_probe(prob, ensemble.path(5))
        increment = plain_increments(prob, ensemble, 6, paths=[5])
        assert repr(one.increment_means) == repr(increment)
        # the seminorm, read beside the probe: one call on the ensemble
        # gives each path the bits of its own call
        for alpha in (0.2, 0.35):
            stacked = fractional_seminorm(ensemble, alpha, "Hminus1")
            plain = [
                fractional_seminorm(ensemble.path(p), alpha, "Hminus1")
                for p in range(ensemble.n_paths)
            ]
            assert repr(stacked.tolist()) == repr(plain)

    def test_rejects_too_coarse_grid(self, heat_problem, grid, qspec):
        tg = TimeGrid(2)
        xi = Trajectory.constant(tg, Field(grid, np.zeros(grid.n_interior)))
        silent = NoisePath(tg, np.zeros((tg.n_steps, qspec.n_modes)), seed=0)
        u = solve_frozen(heat_problem, xi, silent)
        with pytest.raises(ValueError):
            time_regularity_probe(heat_problem, u)


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
        u0_energy = (
            heat_problem.triple.h_norm_values(small_datum.grid, small_datum.values) ** 2
        )
        r_star = invariance_radius(rep.c_hat, u0_energy, tg.T, 0.5)
        assert r_star == pytest.approx(0.03023635459216774, rel=1e-6)
        noises = [
            sample_increments(qspec, tg, path_seed(17, i)) for i in range(4)
        ]
        _, diag = picard_iterate(heat_problem, level, noises)
        assert diag.energy_means[-1] == pytest.approx(
            0.006589693658034249, rel=1e-9
        )
        assert diag.energy_means[-1] + diag.energy_stderr <= r_star
