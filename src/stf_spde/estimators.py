"""Monte Carlo estimators for the energy functionals behind the construction.

The quantitative heart of the fixed-point argument is one inequality per
example: the solution of the frozen-coefficient problem satisfies

    E[sup_t |u(t)|_H^2] + 4 E[int_0^T |u(t)|_V^power dt]
        <= (2 E|u_0|_H^2 + C R^q + C T) e^{CT},

with power = 2, q = 1/2 for the heat example and power = m + 1,
q = 1/(m+1) for the porous examples, R a bound on the coefficient's own
energy. The constant C is never written down anywhere, so energy_report
turns the inequality into a falsifiable test: fit the smallest admissible
C on a calibration ensemble (with a three-standard-error cushion), then
check the bound on an independent hold-out ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TripleKind
from .projection import TimeGrid, Trajectory
from .rng import path_seed
# solve_frozen is bound here for bench/tests/test_bench_tracer.py, which
# checks that the tracer wraps every module binding of it
from .solver import ProblemSpec, SolverConfig, solve_frozen  # noqa: F401
from .wiener import sample_increments_batch

__all__ = [
    "EstimateInvalid",
    "EnergyReport",
    "mc_mean_stderr",
    "pathwise_sup_H",
    "integral_v_power",
    "energy_report",
]


class EstimateInvalid(RuntimeError):
    """Too many failed paths (or degenerate data) to report an estimate."""


def mc_mean_stderr(samples) -> tuple[float, float]:
    """Arithmetic mean and standard error of a finite sample list.

    Args:
        samples: at least two finite numbers.

    Returns:
        (mean, sample standard deviation / sqrt(len)).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"need at least 2 samples, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples contain non-finite values")
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))


def pathwise_sup_H(traj: Trajectory, triple: TripleKind) -> float | np.ndarray:
    """max over the sample times of |w(t_k)|_H^2 (squared pivot norm), per path."""
    sup = np.max(triple.h_norm_values(traj.grid, traj.values) ** 2, axis=-1)
    return float(sup) if sup.ndim == 0 else sup


def integral_v_power(
    traj: Trajectory, triple: TripleKind, power: float
) -> float | np.ndarray:
    """Left-endpoint quadrature of int_0^T |w(t)|_V^power dt, per path."""
    if not 0 < power < np.inf:
        raise ValueError(f"power must be positive and finite, got {power}")
    return _v_power_sum(traj.timegrid.dt, traj.grid, traj.values, triple, power)


def _v_power_sum(dt, grid, values, triple, power):
    """integral_v_power of raw rows, (rows, N) or (paths, rows, N), uncopied."""
    norms = triple.v_norm_values(grid, values[..., :-1, :])
    total = dt * np.sum(norms**power, axis=-1)
    return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class EnergyReport:
    """Calibration/hold-out verdict for one example's energy inequality."""

    example: str
    n_paths: int
    seed_base: int
    sup_h_sq: float
    sup_h_sq_stderr: float
    int_v_m: float
    int_v_m_stderr: float
    power: float
    radius: float
    c_hat: float
    bound_rhs: float
    lhs_holdout: float
    lhs_holdout_stderr: float
    holds: bool
    n_failures: int

    def summary(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        return (
            f"energy inequality [{self.example}]: "
            f"E sup|u|_H^2 = {self.sup_h_sq:.6g} (+-{self.sup_h_sq_stderr:.2g}), "
            f"4 E int |u|_V^{self.power:g} = {4 * self.int_v_m:.6g} "
            f"(+-{4 * self.int_v_m_stderr:.2g}); "
            f"hold-out LHS {self.lhs_holdout:.6g} vs bound {self.bound_rhs:.6g} "
            f"(C^ = {self.c_hat:.6g}, R = {self.radius:.6g}) -> {verdict}"
        )


def _bound_rhs(c, u0_h_sq, radius, q, horizon):
    return (2.0 * u0_h_sq + c * radius**q + c * horizon) * np.exp(c * horizon)


def _path_samples(problem, timegrid, level, seeds, config):
    """Samples (sup_H^2, int_V^power, coefficient energy) and the failure count.

    Each path builds the dyadic fixed point for its own noise, then
    evaluates the energy functionals of the solution driven by that fixed
    coefficient; all paths are swept in one batch. The three sample arrays
    hold the surviving paths in seed order; failed paths (Newton divergence
    surviving all retries) are left out and counted, and EstimateInvalid is
    raised if none survives.
    """
    from .fixed_point import _staircase_solve

    triple = problem.triple
    power = problem.time_power
    inc = sample_increments_batch(problem.qwiener, timegrid, seeds)
    xi_star, u, stats = _staircase_solve(problem, level, timegrid, inc, config)
    kept = [p for p in range(len(inc)) if p not in stats.failed]
    if not kept:
        raise EstimateInvalid(f"all {len(inc)} paths of an ensemble failed to solve")
    grid = problem.qwiener.grid
    u = Trajectory(timegrid, grid, u[kept])
    xi_star = Trajectory(timegrid, grid, xi_star[kept])
    return (
        pathwise_sup_H(u, triple),
        integral_v_power(u, triple, power),
        integral_v_power(xi_star, triple, power),
        len(stats.failed),
    )


def energy_report(
    problem: ProblemSpec,
    level,
    timegrid: TimeGrid,
    n_paths: int = 64,
    seed_base: int = 0,
    config: SolverConfig | None = None,
) -> EnergyReport:
    """Fit and test the example's energy inequality on two path ensembles.

    Calibration paths i = 0..n_paths-1 (seeds derived from seed_base) fix
    the radius R (mean coefficient energy) and the smallest C with
    bound_rhs(C) >= calibration LHS + 3 stderr; hold-out paths
    i = n_paths..2n_paths-1 then re-measure the LHS against that frozen
    bound. Paths whose solves diverge are dropped; more than 5% of them
    invalidates the report.

    Returns:
        EnergyReport; the verdict sits in the holds flag (never raised).

    Raises:
        EstimateInvalid: more than 5% of paths failed, or too few survived.
    """
    if n_paths < 16:
        raise ValueError(f"need at least 16 paths per ensemble, got {n_paths}")
    seeds = path_seed(seed_base, np.arange(2 * n_paths, dtype=np.uint64))
    cal_seeds, hold_seeds = seeds[:n_paths], seeds[n_paths:]
    cal_sup, cal_int, cal_energy, cal_failed = _path_samples(
        problem, timegrid, level, cal_seeds, config
    )
    hold_sup, hold_int, _, hold_failed = _path_samples(
        problem, timegrid, level, hold_seeds, config
    )
    n_failures = cal_failed + hold_failed
    if n_failures > 0.05 * (2 * n_paths):
        raise EstimateInvalid(
            f"{n_failures} of {2 * n_paths} paths failed to solve"
        )
    if len(cal_sup) < 2 or len(hold_sup) < 2:
        raise EstimateInvalid("not enough surviving paths to estimate")

    power = problem.time_power
    q = 0.5 if problem.example == "heat_sqrt_drift" else 1.0 / (problem.m + 1)
    u0 = problem.initial_datum
    u0_h_sq = problem.triple.h_norm_values(u0.grid, u0.values) ** 2
    horizon = timegrid.T

    sup_mean, sup_stderr = mc_mean_stderr(cal_sup)
    int_mean, int_stderr = mc_mean_stderr(cal_int)
    lhs_mean, lhs_stderr = mc_mean_stderr(cal_sup + 4.0 * cal_int)
    radius = float(np.mean(cal_energy))
    target = lhs_mean + 3.0 * lhs_stderr

    def gap(c):
        return _bound_rhs(c, u0_h_sq, radius, q, horizon) - target

    if gap(0.0) >= 0.0:
        c_hat = 0.0
    else:
        # imported on use, so that importing the package leaves scipy.optimize out
        from scipy.optimize import brentq

        c_hi = 1.0
        while gap(c_hi) < 0.0:
            c_hi *= 2.0
            if c_hi > 1e12:
                raise EstimateInvalid("no finite constant closes the bound")
        c_hat = float(brentq(gap, 0.0, c_hi, xtol=1e-12, rtol=1e-12))
    bound = float(_bound_rhs(c_hat, u0_h_sq, radius, q, horizon))

    hold_mean, hold_stderr = mc_mean_stderr(hold_sup + 4.0 * hold_int)

    return EnergyReport(
        example=problem.example,
        n_paths=n_paths,
        seed_base=seed_base,
        sup_h_sq=sup_mean,
        sup_h_sq_stderr=sup_stderr,
        int_v_m=int_mean,
        int_v_m_stderr=int_stderr,
        power=float(power),
        radius=radius,
        c_hat=c_hat,
        bound_rhs=bound,
        lhs_holdout=hold_mean,
        lhs_holdout_stderr=hold_stderr,
        holds=bool(hold_mean <= bound),
        n_failures=n_failures,
    )
