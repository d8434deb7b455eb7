"""Tests for the Monte Carlo estimators and the energy-inequality report.

The sup and integral functionals are checked against brute-force
recomputation; the calibration/hold-out protocol is exercised on all
three examples with frozen seed bases, plus a forced-failure path and
the degenerate all-zero configuration where every quantity vanishes
exactly.
"""

import numpy as np
import pytest

from stf_spde import estimators
from stf_spde.estimators import (
    EstimateInvalid,
    energy_report,
    integral_v_power,
    mc_mean_stderr,
    pathwise_sup_H,
)
from stf_spde.grids import Field, SpatialGrid, TripleKind, norm_values
from stf_spde.projection import (
    HaarLevel,
    TimeGrid,
    Trajectory,
    fractional_seminorm,
    smoothed_seed,
    trajectory_lp_norm,
)
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
        for power in (0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                integral_v_power(traj, TripleKind.heat(), power)


TRIPLES = {"heat": TripleKind.heat(), "porous": TripleKind.porous(2)}
# (reader, its norm kind, triple or example, p)
READER_CASES = (
    # the fractional seminorm is the p = 2 one of a Hilbert norm
    [("fractional_seminorm", kind, 2.0) for kind in ("L2", "V_H1", "Hminus1")]
    + [
        ("trajectory_lp_norm", kind, p)
        for kind in ("L2", "V_H1", "Hminus1")
        for p in (2.0, 3.0)
    ]
    + [("pathwise_sup_H", triple, None) for triple in TRIPLES]
    + [("integral_v_power", triple, p) for triple in TRIPLES for p in (2.0, 3.0)]
    # the example fixes the time power: 2 for heat, m + 1 = 3 for porous
    + [
        ("xnorm_power_distance", example, None)
        for example in ("heat_sqrt_drift", "porous_sqrt_drift")
    ]
)


@pytest.mark.parametrize(
    "reader,kind,p", READER_CASES, ids=["-".join(map(str, case)) for case in READER_CASES]
)
def test_readers_act_on_the_path_axis(grid, qspec, small_datum, reader, kind, p):
    # a stacked call gives one value per path, each with the bits of that
    # path's own call, which gives a float. 16 paths: a float64 array power
    # misses a scalar cube root's bits about once in 20
    tg, n_paths = TimeGrid(256), 16
    rng = np.random.default_rng(6)
    shape = (n_paths, tg.n_steps + 1, grid.n_interior)
    stacked, other = (Trajectory(tg, grid, rng.standard_normal(shape)) for _ in range(2))

    def read(traj, against):
        if reader == "fractional_seminorm":
            return fractional_seminorm(traj, 0.3, kind)
        if reader == "trajectory_lp_norm":
            return trajectory_lp_norm(traj, kind, p)
        if reader == "pathwise_sup_H":
            return pathwise_sup_H(traj, TRIPLES[kind])
        if reader == "integral_v_power":
            return integral_v_power(traj, TRIPLES[kind], p)
        problem = ProblemSpec(kind, qspec, small_datum, m=2)
        return xnorm_power_distance(traj, against, problem)

    values = read(stacked, other)
    assert isinstance(values, np.ndarray) and values.shape == (n_paths,)
    for q in range(n_paths):
        one = read(stacked.path(q), other.path(q))
        assert type(one) is float
        assert values[q].tobytes() == np.float64(one).tobytes()


def test_xnorm_power_distance_rejects_unpaired_paths(grid, qspec, small_datum):
    tg = TimeGrid(8)
    rows = np.random.default_rng(6).standard_normal((3, 9, grid.n_interior))
    three = Trajectory(tg, grid, rows)
    two = Trajectory(tg, grid, rows[:2])
    one = three.path(0)
    problem = ProblemSpec("heat_sqrt_drift", qspec, small_datum)
    for a, b in ((three, one), (one, three), (three, two)):
        # a ValueError, never a broadcast
        with pytest.raises(ValueError, match="pairs path with path"):
            xnorm_power_distance(a, b, problem)


def plain_path_samples(problem, timegrid, level, seeds, config):
    """_path_samples written out: one staircase and one solve per path."""
    triple, power = problem.triple, problem.time_power
    samples, failed = [], 0
    for seed in seeds:
        noise = sample_increments(problem.qwiener, timegrid, seed)
        try:
            xi = staircase_construct(problem, level, noise, config)
            u = solve_frozen(problem, xi, noise, config)
        except NewtonDivergence:
            failed += 1
            continue
        samples.append(
            (
                pathwise_sup_H(u, triple),
                integral_v_power(u, triple, power),
                integral_v_power(xi, triple, power),
            )
        )
    sup, int_v, energy = (np.array(col) for col in zip(*samples))
    return sup, int_v, energy, failed


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
        # sigma = 2.4 under 4 Newton iterations and no retries: of the 32
        # paths path_seed(11, i), only path 13 fails, within the 5% cap
        datum = Field(grid, np.sin(np.pi * grid.nodes))
        prob = ProblemSpec("porous_sqrt_drift", qspec, datum, m=2, sigma=2.4)
        level = HaarLevel(3, smoothed_seed(datum, 3))
        config = SolverConfig(newton_max_iter=4, dt_retries=0)
        tg = TimeGrid(128)
        seeds = [path_seed(11, i) for i in range(32)]
        *samples, failed = estimators._path_samples(prob, tg, level, seeds, config)
        *want, want_failed = plain_path_samples(prob, tg, level, seeds, config)
        # the survivors are the other 31 paths, in seed order
        *kept, none = estimators._path_samples(
            prob, tg, level, seeds[:13] + seeds[14:], config
        )
        assert failed == want_failed == 1 and none == 0
        for got, oracle, alone in zip(samples, want, kept):
            assert len(got) == 31
            assert got.tobytes() == oracle.tobytes() == alone.tobytes()
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
        assert rep.holds and "-> holds" in rep.summary()
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

    @staticmethod
    def diverging_setup():
        """A large porous datum under two Newton iterations: every path fails."""
        grid63 = SpatialGrid(63)
        spec63 = QWienerSpec.power_decay(grid63, n_modes=8, decay_exponent=1.0)
        big = Field(
            grid63,
            40.0 * np.sin(np.pi * grid63.nodes)
            + 30.0 * np.sin(3 * np.pi * grid63.nodes),
        )
        prob = ProblemSpec("porous_sqrt_drift", spec63, big, m=5)
        config = SolverConfig(newton_max_iter=2, dt_retries=0)
        return prob, HaarLevel(1, big), TimeGrid(2, T=2.0), config

    def test_failing_paths_invalidate(self):
        prob, level, tg, config = self.diverging_setup()
        with pytest.raises(EstimateInvalid):
            energy_report(prob, level, tg, n_paths=16, seed_base=0, config=config)

    def test_ensemble_whose_paths_all_fail_is_invalid(self):
        # an EstimateInvalid, not the ValueError of a zero-path Trajectory
        prob, level, tg, config = self.diverging_setup()
        seeds = [path_seed(0, i) for i in range(16)]
        with pytest.raises(EstimateInvalid, match="all 16 paths of an ensemble failed"):
            estimators._path_samples(prob, tg, level, seeds, config)
        with pytest.raises(EstimateInvalid, match="all 16 paths of an ensemble failed"):
            energy_report(prob, level, tg, n_paths=16, seed_base=0, config=config)

    def test_rejects_small_ensemble(self, grid, qspec, small_datum):
        prob = ProblemSpec("heat_sqrt_drift", qspec, small_datum)
        level = HaarLevel(3, smoothed_seed(small_datum, 3))
        with pytest.raises(ValueError):
            energy_report(prob, level, TimeGrid(64), n_paths=8)
