"""Tests for the Monte Carlo estimators and the energy-inequality report.

The sup and integral functionals are checked against brute-force
recomputation; the calibration/hold-out protocol is exercised on all
three examples with frozen seed bases, plus a forced-failure path and
the degenerate all-zero configuration where every quantity vanishes
exactly.
"""

import dataclasses

import numpy as np
import pytest

from stf_spde import estimators
from stf_spde.estimators import (
    EnergyReport,
    EstimateInvalid,
    energy_report,
    integral_v_power,
    mc_mean_stderr,
    pathwise_sup_H,
)
from stf_spde.grids import Field, SpatialGrid, TripleKind, norm_values
from stf_spde.projection import HaarLevel, TimeGrid, Trajectory, smoothed_seed
from stf_spde.fixed_point import staircase_construct, xnorm_power_distance
from stf_spde.rng import gaussian_stream, path_seed
from stf_spde.solver import (
    KNOWN_EXAMPLES,
    NewtonDivergence,
    ProblemSpec,
    SolverConfig,
    solve_frozen,
)
from stf_spde.wiener import QWienerSpec, sample_increments


@pytest.fixture(scope="module")
def grid():
    return SpatialGrid(31)


@pytest.fixture(scope="module")
def qspec(grid):
    return QWienerSpec.power_decay(grid, n_modes=16, decay_exponent=1.0)


@pytest.fixture(scope="module")
def small_datum(grid):
    return Field(grid, 0.1 * np.sin(np.pi * grid.nodes))


def random_traj(grid, timegrid, rng):
    rows = [
        rng.standard_normal(grid.n_interior) for _ in range(timegrid.n_steps + 1)
    ]
    return Trajectory.from_matrix(timegrid, grid, rows)


class TestMeanStderr:
    def test_constant_samples(self):
        assert mc_mean_stderr([1, 1, 1, 1]) == (1.0, 0.0)

    def test_two_point_sample(self):
        mean, stderr = mc_mean_stderr([0, 2])
        assert mean == 1.0
        assert stderr == pytest.approx(1.0)

    def test_standard_normal_mean_within_three_stderr(self):
        draws = gaussian_stream(123, 0).standard_normal(10_000)
        mean, stderr = mc_mean_stderr(draws)
        assert abs(mean) <= 3 * stderr

    def test_stderr_shrinks_like_root_two(self):
        # sample-std fluctuation keeps the ratio near 1/sqrt(2)
        draws = gaussian_stream(0, 0).standard_normal(4000)
        _, se_half = mc_mean_stderr(draws[:2000])
        _, se_full = mc_mean_stderr(draws)
        assert 1 / np.sqrt(2) - 0.15 <= se_full / se_half <= 1 / np.sqrt(2) + 0.15

    def test_rejects_short_or_bad_input(self):
        with pytest.raises(ValueError):
            mc_mean_stderr([1.0])
        with pytest.raises(ValueError):
            mc_mean_stderr([1.0, np.nan])
        with pytest.raises(ValueError):
            mc_mean_stderr([1.0, np.inf])


class TestTrajectoryFunctionals:
    def test_zero_trajectory_sup_is_zero(self, grid):
        tg = TimeGrid(8)
        traj = Trajectory.constant(tg, Field(grid, np.zeros(grid.n_interior)))
        assert pathwise_sup_H(traj, TripleKind.heat()) == 0.0

    def test_ramp_sup_attained_at_endpoint(self, grid):
        tg = TimeGrid(8, T=1.0)
        v = np.sin(2 * np.pi * grid.nodes)
        traj = Trajectory.from_matrix(tg, grid, [t * v for t in tg.times])
        for triple in (TripleKind.heat(), TripleKind.porous(2)):
            assert pathwise_sup_H(traj, triple) == pytest.approx(
                triple.h_norm_values(grid, v) ** 2, rel=1e-13
            )

    def test_sup_matches_brute_force(self, grid):
        tg = TimeGrid(16)
        traj = random_traj(grid, tg, np.random.default_rng(5))
        brute = max(norm_values(grid, row, "L2") ** 2 for row in traj.values)
        assert pathwise_sup_H(traj, TripleKind.heat()) == brute

    def test_integral_constant_field(self, grid):
        tg = TimeGrid(16, T=0.5)
        c = Field(grid, 0.7 * np.ones(grid.n_interior))
        traj = Trajectory.constant(tg, c)
        triple = TripleKind.porous(2)
        expected = 0.5 * triple.v_norm_values(grid, c.values) ** 3
        assert integral_v_power(traj, triple, 3) == pytest.approx(expected, rel=1e-13)

    def test_integral_uses_left_endpoints(self, grid):
        tg = TimeGrid(8)
        rng = np.random.default_rng(9)
        traj = random_traj(grid, tg, rng)
        spiked = Trajectory.from_matrix(
            tg, grid, np.vstack([traj.values[:-1], 1e6 * np.ones(grid.n_interior)])
        )
        triple = TripleKind.heat()
        assert integral_v_power(traj, triple, 2) == integral_v_power(
            spiked, triple, 2
        )

    def test_integral_matches_loop_oracle(self, grid):
        tg = TimeGrid(8)
        traj = random_traj(grid, tg, np.random.default_rng(13))
        triple = TripleKind.heat()
        oracle = tg.dt * sum(
            norm_values(grid, row, "V_H1") ** 2 for row in traj.values[:-1]
        )
        assert integral_v_power(traj, triple, 2) == pytest.approx(oracle, rel=1e-14)

    def test_integral_rejects_bad_power(self, grid):
        tg = TimeGrid(4)
        traj = Trajectory.constant(tg, Field(grid, np.zeros(grid.n_interior)))
        with pytest.raises(ValueError):
            integral_v_power(traj, TripleKind.heat(), 0)


def test_functionals_reject_a_stacked_trajectory(grid, qspec, small_datum):
    tg = TimeGrid(8)
    rows = np.random.default_rng(6).standard_normal((2, 9, grid.n_interior))
    stacked = Trajectory.from_matrix(tg, grid, rows)
    problem = ProblemSpec("heat_sqrt_drift", qspec, small_datum)
    one = stacked.path(0)
    readers = [
        ("pathwise_sup_H", lambda: pathwise_sup_H(stacked, TripleKind.heat())),
        ("integral_v_power", lambda: integral_v_power(stacked, TripleKind.heat(), 2)),
        ("xnorm_power_distance", lambda: xnorm_power_distance(stacked, one, problem)),
        ("xnorm_power_distance", lambda: xnorm_power_distance(one, stacked, problem)),
    ]
    for name, read in readers:
        # a ValueError, not an array of per-path values
        with pytest.raises(ValueError, match=f"{name} reads one path"):
            read()


def plain_path_samples(problem, timegrid, level, seeds, config):
    """_path_samples written out: one staircase and one solve per path."""
    triple, power = problem.triple, problem.time_power
    out = []
    for seed in seeds:
        noise = sample_increments(problem.qwiener, timegrid, seed)
        try:
            xi = staircase_construct(problem, level, noise, config)
            u = solve_frozen(problem, xi, noise, config)
        except NewtonDivergence:
            out.append(None)
            continue
        out.append(
            (
                pathwise_sup_H(u, triple),
                integral_v_power(u, triple, power),
                integral_v_power(xi, triple, power),
            )
        )
    return out


class TestEnergyReport:
    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_matches_plain_loop_bitwise(self, qspec, small_datum, example, monkeypatch):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        level = HaarLevel(3, smoothed_seed(small_datum, 3))
        tg = TimeGrid(32)
        got = energy_report(prob, level, tg, n_paths=16, seed_base=11)
        monkeypatch.setattr(estimators, "_path_samples", plain_path_samples)
        want = energy_report(prob, level, tg, n_paths=16, seed_base=11)
        # repr spells every float field out to its last bit
        assert repr(got) == repr(want)

    def test_failed_path_is_none_and_counted(self, grid, qspec):
        # sigma = 1 under 4 Newton iterations and no retries: of the 32
        # paths path_seed(11, i), only path 11 fails, within the 5% cap
        datum = Field(grid, np.sin(np.pi * grid.nodes))
        prob = ProblemSpec("porous_sqrt_drift", qspec, datum, m=2, sigma=1.0)
        level = HaarLevel(3, smoothed_seed(datum, 3))
        config = SolverConfig(newton_max_iter=4, dt_retries=0)
        tg = TimeGrid(128)
        seeds = [path_seed(11, i) for i in range(32)]
        samples = estimators._path_samples(prob, tg, level, seeds, config)
        assert [i for i, r in enumerate(samples) if r is None] == [11]
        assert repr(samples) == repr(plain_path_samples(prob, tg, level, seeds, config))
        report = energy_report(prob, level, tg, n_paths=16, seed_base=11, config=config)
        assert report.n_failures == 1

    def test_zero_configuration_vanishes(self, grid, qspec):
        # multiplicative noise vanishes on the zero state and the zero
        # seed freezes a zero drift, so every path is identically zero
        zero = Field(grid, np.zeros(grid.n_interior))
        prob = ProblemSpec("heat_sqrt_drift", qspec, zero)
        level = HaarLevel(3, zero)
        rep = energy_report(prob, level, TimeGrid(64), n_paths=16, seed_base=0)
        assert rep.sup_h_sq == 0.0
        assert rep.int_v_m == 0.0
        assert rep.c_hat == 0.0
        assert rep.bound_rhs == 0.0
        assert rep.holds

    @pytest.mark.parametrize(
        "example,power",
        [
            ("heat_sqrt_drift", 2.0),
            ("porous_sqrt_drift", 3.0),
            ("porous_gradient_noise", 3.0),
        ],
    )
    def test_holdout_inequality_holds(self, grid, qspec, small_datum, example, power):
        prob = ProblemSpec(example, qspec, small_datum, m=2)
        level = HaarLevel(3, smoothed_seed(small_datum, 3))
        rep = energy_report(prob, level, TimeGrid(128), n_paths=32, seed_base=11)
        assert rep.holds
        assert rep.n_failures == 0
        assert rep.power == power
        assert rep.lhs_holdout <= rep.bound_rhs
        assert rep.radius > 0
        assert rep.int_v_m_stderr > 0

    def test_constant_fit_is_stable(self, grid, qspec, small_datum):
        prob = ProblemSpec("heat_sqrt_drift", qspec, small_datum)
        level = HaarLevel(3, smoothed_seed(small_datum, 3))
        tg = TimeGrid(128)
        c_16 = energy_report(prob, level, tg, n_paths=16, seed_base=11).c_hat
        c_32 = energy_report(prob, level, tg, n_paths=32, seed_base=11).c_hat
        c_other = energy_report(prob, level, tg, n_paths=32, seed_base=77).c_hat
        # measured 0.01706 / 0.01681 / 0.01672: a few percent of scatter
        assert 0.5 <= c_32 / c_16 <= 2.0
        assert 0.5 <= c_32 / c_other <= 2.0

    def test_failing_paths_invalidate(self, qspec):
        grid63 = SpatialGrid(63)
        spec63 = QWienerSpec.power_decay(grid63, n_modes=8, decay_exponent=1.0)
        big = Field(
            grid63,
            40.0 * np.sin(np.pi * grid63.nodes)
            + 30.0 * np.sin(3 * np.pi * grid63.nodes),
        )
        prob = ProblemSpec("porous_sqrt_drift", spec63, big, m=5)
        level = HaarLevel(1, big)
        config = SolverConfig(newton_max_iter=2, dt_retries=0)
        with pytest.raises(EstimateInvalid):
            energy_report(
                prob, level, TimeGrid(2, T=2.0), n_paths=16, seed_base=0,
                config=config,
            )

    def test_rejects_small_ensemble(self, grid, qspec, small_datum):
        prob = ProblemSpec("heat_sqrt_drift", qspec, small_datum)
        level = HaarLevel(3, smoothed_seed(small_datum, 3))
        with pytest.raises(ValueError):
            energy_report(prob, level, TimeGrid(64), n_paths=8)

    def test_csv_row_matches_header(
        self, grid, qspec, small_datum, csv_reference, extreme_floats
    ):
        prob = ProblemSpec("heat_sqrt_drift", qspec, small_datum)
        level = HaarLevel(3, smoothed_seed(small_datum, 3))
        rep = energy_report(prob, level, TimeGrid(64), n_paths=16, seed_base=3)
        header = EnergyReport.csv_header().split(",")
        row = rep.csv_row().split(",")
        assert len(header) == len(row) == 15
        assert row[0] == "heat_sqrt_drift"
        assert float(row[10]) == rep.bound_rhs
        assert row[13] == str(int(rep.holds))
        assert "holds" in rep.summary() or "VIOLATED" in rep.summary()
        assert header == [
            "example", "n_paths", "seed_base", "sup_h_sq", "sup_h_sq_stderr",
            "int_v_m", "int_v_m_stderr", "power", "radius", "c_hat",
            "bound_rhs", "lhs_holdout", "lhs_holdout_stderr", "holds",
            "n_failures",
        ]
        floats = header[3:13]
        extremes = [
            dataclasses.replace(
                rep, holds=not rep.holds, **dict(zip(floats, extreme_floats[i:]))
            )
            for i in (0, 2)
        ]
        for written in [rep, *extremes]:
            cells = [written.example, written.n_paths, written.seed_base]
            cells += [getattr(written, name) for name in floats]
            cells += [int(written.holds), written.n_failures]
            assert (
                written.csv_header() + "\r\n" + written.csv_row() + "\r\n"
                == csv_reference(header, [cells])
            )
