"""Pathwise fixed points of the projected solve, block by dyadic block.

The composed map takes a piecewise-constant coefficient trajectory xi,
solves the frozen problem under the given noise path, and projects the
solution back with the shifted dyadic averaging. Because output block k
of the projection only reads solve values on block k-1, which in turn
only read coefficient values on blocks 0..k-1, the composition is
block-triangular: Picard iteration freezes one more block per pass and
reaches an exact (bitwise) fixed point in at most 2^n + 1 passes, and
the same fixed point can be built directly in a single left-to-right
sweep (staircase_construct).

The probes quantify the two estimates the construction leans on: the
continuity modulus of the solve in the coefficient (fitted Holder
exponent over four decades of perturbation size) and the time regularity
of solution paths (fractional seminorms under refinement, sup-increment
scaling near t = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .estimators import integral_v_power, mc_mean_stderr
from .projection import HaarLevel, Trajectory, fractional_seminorm, proj_shifted
from .projection import _block_average, _write_csv
from .rng import path_seed
from .solver import ProblemSpec, SolverConfig, _march, solve_frozen
from .wiener import NoisePath, sample_increments

__all__ = [
    "FixedPointDiagnostics",
    "ContinuityResult",
    "RegularityTable",
    "picard_iterate",
    "staircase_construct",
    "continuity_probe",
    "time_regularity_probe",
    "invariance_radius",
    "xnorm_power_distance",
]


def xnorm_power_distance(a: Trajectory, b: Trajectory, problem: ProblemSpec) -> float:
    """Discrete trajectory-space distance sum_k dt |a(t_k)-b(t_k)|_V^m.

    The exponent m is the example's time power (2 heat, m+1 porous); the
    left-endpoint sum matches the V-integral quadrature used everywhere
    else.
    """
    if a.timegrid != b.timegrid:
        raise ValueError("trajectories live on different time grids")
    gap = Trajectory.from_matrix(a.timegrid, a.grid, a.values - b.values)
    return integral_v_power(gap, problem.triple, problem.time_power)


def _ensemble_mean_stderr(values):
    if len(values) == 1:
        return float(values[0]), 0.0
    return mc_mean_stderr(values)


@dataclass(frozen=True)
class FixedPointDiagnostics:
    """Convergence record of the projected-solve Picard iteration.

    distance_means[k] is the ensemble mean of the m-th power trajectory
    distance between iterates k and k+1; since iterate k+1 is exactly the
    projected solve of iterate k, that same number is the fixed-point
    residual of iterate k. The final residual field is re-measured on the
    last iterate with one extra projected solve, unless the last pass
    returned its input bit for bit, whose distances then are the residuals.
    """

    distance_means: tuple
    distance_stderrs: tuple
    energy_means: tuple
    residual: float
    residual_stderr: float
    energy_functional: float
    energy_stderr: float
    converged: bool
    n_iterations: int

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.distance_means) or self.residual < 0:
            raise ValueError("distances and residual must be nonnegative")

    def to_csv(self, path: str) -> None:
        """Rows (iteration, mean_distance, stderr, energy, residual).

        The residual column holds the fixed-point residual of the iterate
        the row produced: for all but the last row that equals the next
        row's mean distance; the last row carries the final residual.
        """
        _write_csv(
            path,
            ["iteration", "mean_distance", "stderr", "energy", "residual"],
            "%d,%.17g,%.17g,%.17g,%.17g",
            zip(
                range(1, len(self.distance_means) + 1),
                self.distance_means,
                self.distance_stderrs,
                self.energy_means,
                self.distance_means[1:] + (self.residual,),
            ),
        )


def picard_iterate(
    problem: ProblemSpec,
    level: HaarLevel,
    noise_ensemble: list[NoisePath],
    config: SolverConfig | None = None,
    tol: float = 0.0,
    max_iter: int | None = None,
) -> tuple[list[Trajectory], FixedPointDiagnostics]:
    """Iterate coefficient -> projected solve, coupled to fixed noise paths.

    Every path keeps its own noise across all iterations (the composed
    operator is defined pathwise for a fixed driving noise); the start is
    the constant-in-time extension of the initial datum. Iteration stops
    when the ensemble mean of the m-th power distance between consecutive
    iterates is <= tol (the block-triangular structure makes the distance
    hit exactly zero within 2^n + 1 passes) or when max_iter is reached,
    in which case the diagnostics carry converged = False rather than an
    exception.

    Returns:
        (final iterate per path, FixedPointDiagnostics).
    """
    if not noise_ensemble:
        raise ValueError("need at least one noise path")
    tg = noise_ensemble[0].timegrid
    for noise in noise_ensemble[1:]:
        if noise.timegrid != tg:
            raise ValueError("noise paths live on different time grids")
    if max_iter is None:
        max_iter = 2**level.n + 1
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    iterates = [
        Trajectory.constant(tg, problem.initial_datum) for _ in noise_ensemble
    ]
    distance_means, distance_stderrs, energy_means = [], [], []
    converged = False
    n_iterations = 0
    for _ in range(max_iter):
        new_iterates = [
            proj_shifted(solve_frozen(problem, xi, noise, config), level)
            for xi, noise in zip(iterates, noise_ensemble)
        ]
        n_iterations += 1
        distances = [
            xnorm_power_distance(new, old, problem)
            for new, old in zip(new_iterates, iterates)
        ]
        mean, stderr = _ensemble_mean_stderr(distances)
        distance_means.append(mean)
        distance_stderrs.append(stderr)
        energies = [
            integral_v_power(xi, problem.triple, problem.time_power)
            for xi in new_iterates
        ]
        energy_means.append(float(np.mean(energies)))
        previous, iterates = iterates, new_iterates
        if mean <= tol:
            converged = True
            break

    # a pass that reproduced its input bit for bit would reproduce it again,
    # so its distances already are the residuals
    if all(np.array_equal(a.values, b.values) for a, b in zip(iterates, previous)):
        residuals = distances
    else:
        residuals = [
            xnorm_power_distance(
                proj_shifted(solve_frozen(problem, xi, noise, config), level),
                xi,
                problem,
            )
            for xi, noise in zip(iterates, noise_ensemble)
        ]
    res_mean, res_stderr = _ensemble_mean_stderr(residuals)
    # the last pass measured these energies on the final iterates
    energy_mean, energy_stderr = _ensemble_mean_stderr(energies)
    diagnostics = FixedPointDiagnostics(
        distance_means=tuple(distance_means),
        distance_stderrs=tuple(distance_stderrs),
        energy_means=tuple(energy_means),
        residual=res_mean,
        residual_stderr=res_stderr,
        energy_functional=energy_mean,
        energy_stderr=energy_stderr,
        converged=converged,
        n_iterations=n_iterations,
    )
    return iterates, diagnostics


def staircase_construct(
    problem: ProblemSpec,
    level: HaarLevel,
    noise: NoisePath,
    config: SolverConfig | None = None,
) -> Trajectory:
    """Build the pathwise fixed point in one sweep over the dyadic blocks.

    Block 0 of the coefficient is the level's seed; while sweeping left to
    right, the solve is advanced across block k under the already-fixed
    constant coefficient of block k, and its trapezoid average becomes the
    coefficient on block k+1. The last block's noise is never read. The
    result equals the Picard limit bit for bit, and its fixed-point
    residual vanishes up to the Newton tolerance.
    """
    cfg = config if config is not None else SolverConfig()
    tg = noise.timegrid
    blocks = 2**level.n
    if tg.n_steps % blocks != 0:
        raise ValueError(
            f"n_steps={tg.n_steps} is not divisible by the 2^{level.n} "
            "dyadic blocks"
        )
    grid = problem.qwiener.grid
    if level.seed_field.grid != grid:
        raise ValueError("seed field lives on a different spatial grid")
    if noise.n_modes != problem.qwiener.n_modes:
        raise ValueError(
            f"noise has {noise.n_modes} modes, spec wants {problem.qwiener.n_modes}"
        )
    s = tg.n_steps // blocks
    stats = {"newton_iterations": 0, "dt_retries": 0}

    u = np.empty((tg.n_steps + 1, grid.n_interior))
    u[0] = problem.initial_datum.values
    xi = np.empty_like(u)
    xi[:s] = level.seed_field.values
    for k in range(1, blocks):
        _march(problem, u, xi, noise, (k - 1) * s, k * s, cfg, stats)
        xi[k * s : (k + 1) * s] = _block_average(u, k - 1, s)
    xi[-1] = xi[-2]
    return Trajectory.from_matrix(tg, grid, xi)


@dataclass(frozen=True)
class ContinuityResult:
    """Fitted Holder exponent of the solve in its frozen coefficient."""

    gamma_hat: float
    half_width: float
    epsilons: tuple
    input_distances: tuple
    output_distances: tuple

    def to_csv(self, path: str) -> None:
        _write_csv(
            path,
            ["epsilon", "input_dist", "output_dist"],
            "%.17g,%.17g,%.17g",
            zip(self.epsilons, self.input_distances, self.output_distances),
        )


def continuity_probe(
    problem: ProblemSpec,
    base: Trajectory,
    perturbation: Trajectory,
    epsilons,
    n_paths: int = 64,
    seed: int = 0,
    config: SolverConfig | None = None,
) -> ContinuityResult:
    """Fit the continuity modulus of the solve under coefficient changes.

    For each epsilon, both coefficients xi and xi + eps * perturbation are
    solved against the same noise paths (coupling isolates the coefficient
    effect), and the regression of log mean output distance on log input
    distance over the epsilon range yields the Holder exponent gamma with
    a 95% half-width from the residual scatter.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size < 3:
        raise ValueError("need at least 3 perturbation sizes for a slope")
    if np.any(eps <= 0) or np.unique(eps).size != eps.size:
        raise ValueError("perturbation sizes must be positive and distinct")
    if base.timegrid != perturbation.timegrid:
        raise ValueError("base and perturbation live on different time grids")
    tg = base.timegrid
    grid = base.grid
    noise_paths = [
        sample_increments(problem.qwiener, tg, path_seed(seed, i))
        for i in range(n_paths)
    ]
    base_solutions = [
        solve_frozen(problem, base, noise, config) for noise in noise_paths
    ]
    input_dists, output_dists = [], []
    for e in eps:
        shifted = Trajectory.from_matrix(
            tg, grid, base.values + e * perturbation.values
        )
        input_dists.append(xnorm_power_distance(shifted, base, problem))
        dists = [
            xnorm_power_distance(
                solve_frozen(problem, shifted, noise, config), sol, problem
            )
            for noise, sol in zip(noise_paths, base_solutions)
        ]
        output_dists.append(float(np.mean(dists)))
    x_raw = np.asarray(input_dists)
    y_raw = np.asarray(output_dists)
    if np.any(x_raw <= 0) or np.any(y_raw <= 0):
        raise ValueError("degenerate regression: zero distance at some epsilon")
    x = np.log(x_raw)
    y = np.log(y_raw)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    dof = x.size - 2
    rss = float(np.sum((y - fitted) ** 2))
    sxx = float(np.sum((x - x.mean()) ** 2))
    half_width = 1.96 * np.sqrt(rss / max(dof, 1) / sxx)
    return ContinuityResult(
        gamma_hat=float(slope),
        half_width=float(half_width),
        epsilons=tuple(float(e) for e in eps),
        input_distances=tuple(float(v) for v in input_dists),
        output_distances=tuple(float(v) for v in output_dists),
    )


@dataclass(frozen=True)
class RegularityTable:
    """Fractional-seminorm estimates and sup-increment scaling."""

    alphas: tuple
    seminorm_means: tuple
    seminorm_stderrs: tuple
    increment_times: tuple
    increment_means: tuple
    increment_exponent: float


def time_regularity_probe(
    problem: ProblemSpec,
    ensemble: list[Trajectory],
    alphas,
    n_increment_times: int = 6,
) -> RegularityTable:
    """Estimate fractional seminorms and early-time increment growth.

    For each alpha the ensemble mean of the squared-integrable fractional
    seminorm is computed in the H^-1 distance (the dual norm V* for the
    heat triple and the pivot norm H for the porous triples coincide
    there). The increment fit regresses log E[sup_{s<=t}|w(s)-w(0)|_H^2]
    on log t over dyadic times t = T/2, T/4, ...
    """
    if not ensemble:
        raise ValueError("need at least one trajectory")
    alphas = tuple(float(a) for a in alphas)
    tg = ensemble[0].timegrid
    triple = problem.triple
    seminorm_means, seminorm_stderrs = [], []
    for alpha in alphas:
        vals = [
            fractional_seminorm(traj, alpha, p=2, norm_kind="Hminus1")
            for traj in ensemble
        ]
        mean, stderr = _ensemble_mean_stderr(vals)
        seminorm_means.append(mean)
        seminorm_stderrs.append(stderr)

    depth = min(n_increment_times, tg.n_steps.bit_length() - 1)
    if depth < 2:
        raise ValueError("time grid too coarse for an increment fit")
    ks = [max(tg.n_steps >> j, 1) for j in range(depth, 0, -1)]
    times = [k * tg.dt for k in ks]
    running = []
    for traj in ensemble:
        gaps = triple.h_norm_values(traj.grid, traj.values - traj.values[0]) ** 2
        running.append(np.maximum.accumulate(gaps)[ks])
    means = np.mean(np.asarray(running), axis=0)
    if np.any(means <= 0):
        raise ValueError("degenerate increment fit: zero supremum")
    slope = float(np.polyfit(np.log(times), np.log(means), 1)[0])
    return RegularityTable(
        alphas=alphas,
        seminorm_means=tuple(seminorm_means),
        seminorm_stderrs=tuple(seminorm_stderrs),
        increment_times=tuple(times),
        increment_means=tuple(float(v) for v in means),
        increment_exponent=slope,
    )


def invariance_radius(
    c: float, initial_energy: float, horizon: float, q: float
) -> float:
    """Smallest R with (2 E|u_0|_H^2 + C R^q + C T) e^{CT} <= R.

    For q < 1 the right-hand side is sublinear in R, so a smallest
    admissible radius always exists; it is the unique root of
    rhs(R) - R, bracketed by doubling and polished by Brent.
    """
    if not 0 < q < 1:
        raise ValueError(f"need a sublinear exponent 0 < q < 1, got {q}")
    if c < 0 or initial_energy < 0 or horizon <= 0:
        raise ValueError("constants must be nonnegative and the horizon positive")
    if c == 0.0 and initial_energy == 0.0:
        return 0.0

    def gap(r):
        return (2.0 * initial_energy + c * r**q + c * horizon) * np.exp(
            c * horizon
        ) - r

    r_hi = 1.0
    while gap(r_hi) > 0.0:
        r_hi *= 2.0
        if r_hi > 1e300:
            raise ValueError("radius search overflowed")
    if r_hi == 1.0:
        # gap(1) <= 0 already; bracket from below
        r_lo = 0.5
        while gap(r_lo) <= 0.0 and r_lo > 1e-300:
            r_hi = r_lo
            r_lo *= 0.5
        if gap(r_hi) == 0.0:
            return float(r_hi)
        return float(brentq(gap, r_lo, r_hi, xtol=1e-14, rtol=1e-14))
    return float(brentq(gap, r_hi / 2.0, r_hi, xtol=1e-14, rtol=1e-14))
