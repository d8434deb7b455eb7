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

Picard exploits the same structure: pass j's coefficient on block b is
the average of pass j-1's solve on block b-1, so pass j can cross block b
as soon as pass j-1 has crossed block b-1, and it first differs from
pass j-1 on block j-2. One left-to-right sweep therefore marches every
pass at once, block b carrying passes 1 .. min(b+2, max_iter+1) as one
batch: a converged path marches 2 + 3 + ... + 8 = 35 blocks at level 3 in
7 batched marches instead of 9 full solves, with every iterate and
diagnostic equal bit for bit to the plain loop proj_shifted(solve_frozen).

An ensemble of paths is one Trajectory stacked as (paths, n_steps + 1,
N). staircase_construct takes one NoisePath, giving a one-path
Trajectory, or a sequence of them, as picard_iterate does, giving the
stacked form, which picard_iterate also returns; solve_frozen takes it
back with the same sequence. xnorm_power_distance and integral_v_power
read a stack as one value per path, so Picard and the probes make one
call per functional. Every ensemble is marched as one batch: Picard's
coupled paths, the staircase sweep of an ensemble and the one behind the
energy and regularity probes, and the continuity probe's base and
perturbed coefficients under all their noise paths. The solver's batched march gives
each path the bits it gets when marched alone, so a path's bits do not
depend on its batch, and a path that fails raises the error the
path-by-path loop met first: that of the lowest-index failing path.

The probes quantify the two estimates the construction leans on: the
continuity modulus of the solve in the coefficient (fitted Holder
exponent over four decades of perturbation size) and the time regularity
of solution paths (sup-increment scaling near t = 0; the fractional
seminorm is projection.fractional_seminorm).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .estimators import _v_power_sum, integral_v_power, mc_mean_stderr
from .projection import HaarLevel, TimeGrid, Trajectory
from .projection import _block_averages, _check_dyadic, _one_path, _stepped_rows
from .projection import _write_csv
from .rng import path_seed
# solve_frozen is bound here for bench/tests/test_bench_tracer.py, which
# checks that the tracer wraps every module binding of it
from .solver import ProblemSpec, SolverConfig, _march, _noise_rows, _PathStats
from .solver import solve_frozen  # noqa: F401
from .wiener import NoisePath, sample_increments_batch

__all__ = [
    "FixedPointDiagnostics",
    "ContinuityResult",
    "RegularityTable",
    "picard_iterate",
    "staircase_construct",
    "continuity_probe",
    "time_regularity_probe",
    "xnorm_power_distance",
]


def xnorm_power_distance(
    a: Trajectory, b: Trajectory, problem: ProblemSpec
) -> float | np.ndarray:
    """Discrete trajectory-space distance sum_k dt |a(t_k)-b(t_k)|_V^m.

    The exponent m is the example's time power (2 heat, m+1 porous); the
    left-endpoint sum matches the V-integral quadrature used everywhere
    else. a and b are two one-path trajectories, giving a float, or two
    stacks of equal path count, giving path p's distance at p; any other
    pairing raises ValueError, since paths are never broadcast.
    """
    if a.timegrid != b.timegrid or a.values.shape != b.values.shape:
        raise ValueError(
            "xnorm_power_distance pairs path with path on one time grid, got "
            f"{a.values.shape} on {a.timegrid} and {b.values.shape} on {b.timegrid}"
        )
    return _v_power_sum(
        a.timegrid.dt, a.grid, a.values - b.values, problem.triple, problem.time_power
    )


def _ensemble_mean_stderr(values):
    """Mean and standard error over the paths; one path has stderr 0."""
    values = np.atleast_1d(values)
    if len(values) == 1:
        return float(values[0]), 0.0
    return mc_mean_stderr(values)


@dataclass(frozen=True)
class FixedPointDiagnostics:
    """Convergence record of the projected-solve Picard iteration.

    distance_means[k] is the ensemble mean of the m-th power trajectory
    distance between iterates k and k+1; since iterate k+1 is exactly the
    projected solve of iterate k, that same number is the fixed-point
    residual of iterate k. The final residual field is measured on the
    last iterate with one more projected solve per path, pass
    n_iterations + 1, which the sweep has already marched. The energy of
    the final iterates is energy_means[-1], with stderr energy_stderr.
    Every distance, stderr, energy and the residual is >= 0; a negative
    or NaN one raises ValueError.
    """

    distance_means: tuple
    distance_stderrs: tuple
    energy_means: tuple
    residual: float
    residual_stderr: float
    energy_stderr: float
    converged: bool
    n_iterations: int

    def __post_init__(self) -> None:
        values = (
            *self.distance_means, *self.distance_stderrs, *self.energy_means,
            self.residual, self.residual_stderr, self.energy_stderr,
        )
        # not v >= 0 also catches NaN, for which v < 0 is False
        if not all(v >= 0 for v in values):
            raise ValueError("distances, stderrs, energies and residual must be >= 0")

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


def _check_stopping_rule(tol: float, max_iter: int | None) -> None:
    """Reject max_iter < 1, or a tol never met (NaN, < 0) or met at once (inf)."""
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"Picard's max_iter must be >= 1, got {max_iter}")
    if not 0 <= tol < np.inf:
        raise ValueError(f"Picard's tol must be >= 0 and finite, got {tol}")


def picard_iterate(
    problem: ProblemSpec,
    level: HaarLevel,
    noise_ensemble: Sequence[NoisePath],
    config: SolverConfig | None = None,
    tol: float = 0.0,
    max_iter: int | None = None,
) -> tuple[Trajectory, FixedPointDiagnostics]:
    """Iterate coefficient -> projected solve, coupled to fixed noise paths.

    Every path keeps its own noise across all iterations (the composed
    operator is defined pathwise for a fixed driving noise); the start is
    the constant-in-time extension of the initial datum. Iteration stops
    when the ensemble mean of the m-th power distance between consecutive
    iterates is <= tol (the block-triangular structure makes the distance
    hit exactly zero within 2^n + 1 passes) or when max_iter is reached,
    in which case the diagnostics carry converged = False rather than an
    exception.

    Each projected solve equals proj_shifted(solve_frozen(...)) bit for
    bit, but every pass, the residual pass n_iterations + 1 included, is
    marched in one left-to-right sweep over the dyadic blocks (_lockstep).
    Pass j first differs from pass j - 1 on block j - 2, so a converged
    path marches 2 + 3 + ... + 2^n blocks, 35 at level 3, in 2^n - 1
    batched marches of up to 2^n passes' rows each. The sweep runs before
    tol is read: with tol > 0 it marches every pass up to max_iter + 1
    that differs from its predecessor on some block, as tol = 0 does, and
    the passes after n_iterations + 1 are dropped with their failures.
    The inputs are checked before any step is.

    Returns:
        (the final iterates stacked as (paths, n_steps + 1, N), path p
        driven by noise_ensemble[p]; FixedPointDiagnostics).

    Raises:
        ValueError: noise_ensemble is a lone NoisePath, not a sequence;
            or tol is not in [0, inf), or max_iter < 1.
        NewtonDivergence: the lowest-index failing path of the earliest
            failing pass that is kept, the error a pass-by-pass loop meets
            first.
    """
    if isinstance(noise_ensemble, NoisePath):
        raise ValueError("picard_iterate takes a sequence of noise paths, not one NoisePath")
    # the iterates live on tg and the datum's grid, so this also pins the
    # coefficient's time and spatial grids against every noise path
    tg, inc = _noise_rows(problem, noise_ensemble)
    _check_dyadic(tg, level, problem.qwiener.grid)
    if max_iter is None:
        max_iter = 2**level.n + 1
    _check_stopping_rule(tol, max_iter)
    cfg = config if config is not None else SolverConfig()
    grid = problem.qwiener.grid
    s = tg.n_steps // 2**level.n
    averages, stats = _lockstep(problem, level, tg, inc, max_iter + 1, cfg)

    def pass_iterate(j: int) -> Trajectory:
        _raise_first_of_pass(stats, j, len(inc))
        # a pass past the last distinct one repeats its averages
        rows = _stepped_rows(averages[min(j, len(averages)) - 1], level, s)
        return Trajectory(tg, grid, rows)

    dims = (len(inc), tg.n_steps + 1, grid.n_interior)
    iterates = Trajectory(tg, grid, np.broadcast_to(problem.initial_datum.values, dims))
    distance_means, distance_stderrs, energy_means = [], [], []
    converged = False
    for n_iterations in range(1, max_iter + 1):
        new_iterates = pass_iterate(n_iterations)
        gaps = xnorm_power_distance(new_iterates, iterates, problem)
        mean, stderr = _ensemble_mean_stderr(gaps)
        distance_means.append(mean)
        distance_stderrs.append(stderr)
        energies = integral_v_power(new_iterates, problem.triple, problem.time_power)
        energy_means.append(float(np.mean(energies)))
        iterates = new_iterates
        if mean <= tol:
            converged = True
            break

    final = pass_iterate(n_iterations + 1)
    residuals = xnorm_power_distance(final, iterates, problem)
    res_mean, res_stderr = _ensemble_mean_stderr(residuals)
    # the last pass measured these energies on the final iterates
    _, energy_stderr = _ensemble_mean_stderr(energies)
    diagnostics = FixedPointDiagnostics(
        distance_means=tuple(distance_means),
        distance_stderrs=tuple(distance_stderrs),
        energy_means=tuple(energy_means),
        residual=res_mean,
        residual_stderr=res_stderr,
        energy_stderr=energy_stderr,
        converged=converged,
        n_iterations=n_iterations,
    )
    return iterates, diagnostics


def _lockstep(problem, level, timegrid, inc, passes, cfg):
    """Block averages of Picard passes 1 .. passes, swept block by block.

    Pass 1's coefficient is the datum; pass j >= 2 has the seed on block 0
    and, on block b >= 1, the trapezoid average of pass j - 1's solve on
    block b - 1. Pass j thus first differs from pass j - 1 on block j - 2,
    where it enters from pass j - 1's state, so block b marches passes
    1 .. min(b + 2, passes) as one batch, row (j - 1) paths + p holding
    pass j on path p. Only the 2^n - 1 blocks the coefficient reads are
    marched; each row keeps the bits of its own pass-by-pass solve.

    A row whose predecessor in the previous pass failed is not marched,
    from the next block on: its coefficient is undefined, and the pass
    loop would have raised before reaching it. It goes into stats.failed
    with its predecessor's error, so the earliest pass with a failure
    holds real failures only.

    Returns:
        (averages, stats). averages[j - 1, p, b] is pass j's average on
        block b, (distinct passes, paths, 2^n - 1, N), for the
        min(passes, 2^n) passes that differ from their predecessor on
        some block; a later pass repeats the last of them. stats holds
        the march's failures by row.
    """
    blocks = 2**level.n - 1
    passes = min(passes, blocks + 1)
    paths, n = len(inc), problem.qwiener.grid.n_interior
    s = timegrid.n_steps // (blocks + 1)
    averages = np.empty((passes, paths, blocks, n))
    stats = _PathStats(passes * paths)
    state = np.broadcast_to(problem.initial_datum.values, (paths, n))
    for b in range(blocks):
        live = min(b + 2, passes)
        rows = live * paths
        for r in list(stats.failed):
            for later in range(r + paths, rows, paths):
                stats.failed.setdefault(later, stats.failed[r])
        xi = np.empty((rows, n))
        xi[:paths] = problem.initial_datum.values
        if b == 0:
            xi[paths:] = level.seed_field.values
        else:
            xi[paths:] = averages[: live - 1, :, b - 1].reshape(-1, n)
        # NaN, not garbage, where a failed or skipped row is left unmarched
        u = np.full((rows, s + 1, n), np.nan)
        u[: len(state), 0] = state
        if rows > len(state):  # pass live first differs here
            u[len(state) :, 0] = state[-paths:]
        _march(
            problem, u, np.broadcast_to(xi[:, None], (rows, s, n)),
            np.tile(inc[:, b * s : (b + 1) * s], (live, 1, 1)), timegrid.dt,
            0, s, cfg, stats,
        )
        averages[:live, :, b] = _block_averages(u, s)[:, 0].reshape(live, paths, n)
        averages[live:, :, b] = averages[live - 1, :, b]
        state = u[:, -1]
    return averages, stats


def _raise_first_of_pass(stats, j, paths):
    """Raise the error of pass j's lowest failed path, if any, as that path's."""
    first = (j - 1) * paths
    failed = [r - first for r in stats.failed if first <= r < first + paths]
    if failed:
        error = stats.failed[first + min(failed)]
        error.path = min(failed)
        raise error


def _staircase_rows(problem, level, timegrid, inc, cfg, stats):
    """Coefficient and solve rows of the staircase sweep, (paths, rows, N) each.

    inc holds each path's increments, (paths, n_steps, n_modes). The solve
    is marched through row (2^n - 1) s only: no coefficient block reads its
    last block, whose rows are left NaN, as are a failed path's rows past
    its failure.
    """
    _check_dyadic(timegrid, level, problem.qwiener.grid)
    blocks = 2**level.n
    s = timegrid.n_steps // blocks
    shape = (len(inc), timegrid.n_steps + 1, problem.qwiener.grid.n_interior)
    u = np.full(shape, np.nan)
    u[:, 0] = problem.initial_datum.values
    xi = np.empty_like(u)
    xi[:, :s] = level.seed_field.values
    for k in range(1, blocks):
        _march(problem, u, xi, inc, timegrid.dt, (k - 1) * s, k * s, cfg, stats)
        xi[:, k * s : (k + 1) * s] = _block_averages(u[:, (k - 1) * s : k * s + 1], s)
    xi[:, -1] = xi[:, -2]
    return xi, u


def staircase_construct(
    problem: ProblemSpec,
    level: HaarLevel,
    noise: NoisePath | Sequence[NoisePath],
    config: SolverConfig | None = None,
) -> Trajectory:
    """Build the pathwise fixed point in one sweep over the dyadic blocks.

    Block 0 of the coefficient is the level's seed; while sweeping left to
    right, the solve is advanced across block k under the already-fixed
    constant coefficient of block k, and its trapezoid average becomes the
    coefficient on block k+1. The last block's noise is never read. The
    result equals the Picard limit bit for bit, and its fixed-point
    residual vanishes up to the Newton tolerance.

    noise is one NoisePath, giving a one-path Trajectory, or a sequence of
    them, as picard_iterate takes, giving every path's fixed point stacked
    as (paths, n_steps + 1, N). All paths are swept in one batch, each with
    the bits of its own one-path call. The inputs are checked before any
    step is marched.

    Raises:
        NewtonDivergence: the error of the lowest-index failing path.
    """
    tg, inc = _noise_rows(problem, noise)
    cfg = config if config is not None else SolverConfig()
    stats = _PathStats(len(inc))
    xi, _ = _staircase_rows(problem, level, tg, inc, cfg, stats)
    stats.raise_first()
    if isinstance(noise, NoisePath):
        xi = xi[0]
    return Trajectory.from_matrix(tg, problem.qwiener.grid, xi)


def _staircase_solve(
    problem: ProblemSpec,
    level: HaarLevel,
    timegrid: TimeGrid,
    inc: np.ndarray,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, _PathStats]:
    """Every path's staircase fixed point xi and the solution u it drives.

    inc holds the paths' increments, (paths, n_steps, n_modes); xi and u
    are (paths, n_steps + 1, N). Path p's rows equal (xi, solve_frozen(
    problem, xi, noise_p, config)) bit for bit, but the sweep's own solve
    is kept and only its last block is marched. Failed paths are in the
    returned stats, with their rows undefined.
    """
    cfg = config if config is not None else SolverConfig()
    stats = _PathStats(len(inc))
    xi, u = _staircase_rows(problem, level, timegrid, inc, cfg, stats)
    last_block = timegrid.n_steps - timegrid.n_steps // 2**level.n
    _march(problem, u, xi, inc, timegrid.dt, last_block, timegrid.n_steps, cfg, stats)
    return xi, u, stats


@dataclass(frozen=True)
class ContinuityResult:
    """Fitted Holder exponent of the solve in its frozen coefficient."""

    gamma_hat: float
    half_width: float
    epsilons: tuple
    input_distances: tuple
    output_distances: tuple


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
    a 95% half-width from the residual scatter. The base and every
    perturbed coefficient are marched under all noise paths in one batch.

    Raises:
        NewtonDivergence: the first failure in the order base, then each
            epsilon, path by path within each.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size < 3:
        raise ValueError("need at least 3 perturbation sizes for a slope")
    if np.any(eps <= 0) or np.unique(eps).size != eps.size:
        raise ValueError("perturbation sizes must be positive and distinct")
    _one_path(base, "continuity_probe")
    _one_path(perturbation, "continuity_probe")
    if base.timegrid != perturbation.timegrid:
        raise ValueError("base and perturbation live on different time grids")
    tg = base.timegrid
    grid = base.grid
    if grid != problem.qwiener.grid:
        raise ValueError("frozen trajectory lives on a different spatial grid")
    coeffs = np.concatenate(
        [base.values[None], base.values + eps[:, None, None] * perturbation.values]
    )
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("frozen trajectory contains non-finite values")
    cfg = config if config is not None else SolverConfig()
    noise = sample_increments_batch(
        problem.qwiener, tg, path_seed(seed, np.arange(n_paths, dtype=np.uint64))
    )
    # row v * n_paths + i pairs coefficient v (the base first) with noise
    # path i: the order in which a path-by-path loop would solve them
    xi_rows = np.repeat(coeffs, n_paths, axis=0)
    u = np.empty_like(xi_rows)
    u[:, 0] = problem.initial_datum.values
    stats = _PathStats(len(u))
    _march(
        problem, u, xi_rows, np.tile(noise, (len(coeffs), 1, 1)), tg.dt,
        0, tg.n_steps, cfg, stats,
    )
    stats.raise_first()
    triple, power = problem.triple, problem.time_power
    # xnorm_power_distance of each perturbed coefficient from the base, and
    # its mean over the noise paths for the solutions, (eps, paths) stacked
    x_gaps = coeffs[1:] - coeffs[0]
    y_gaps = u[n_paths:] - np.tile(u[:n_paths], (len(eps), 1, 1))
    x_raw = _v_power_sum(tg.dt, grid, x_gaps, triple, power)
    y_paths = _v_power_sum(tg.dt, grid, y_gaps, triple, power)
    y_raw = np.mean(y_paths.reshape(len(eps), n_paths), axis=-1)
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
        input_distances=tuple(float(v) for v in x_raw),
        output_distances=tuple(float(v) for v in y_raw),
    )


# dyadic times t = T/2, ..., T/2^6 in the increment fit, fewer on a coarse grid
_INCREMENT_TIMES = 6


@dataclass(frozen=True)
class RegularityTable:
    """Sup-increment scaling near t = 0."""

    increment_times: tuple
    increment_means: tuple
    increment_exponent: float


def time_regularity_probe(problem: ProblemSpec, ensemble: Trajectory) -> RegularityTable:
    """Estimate the early-time increment growth of an ensemble.

    ensemble is one path or paths stacked as (paths, n_steps + 1, N). The
    fit regresses log E[sup_{s<=t}|w(s)-w(0)|_H^2] on log t over dyadic
    times t = T/2, T/4, ..., at most _INCREMENT_TIMES of them.
    """
    tg, grid = ensemble.timegrid, ensemble.grid
    depth = min(_INCREMENT_TIMES, tg.n_steps.bit_length() - 1)
    if depth < 2:
        raise ValueError("time grid too coarse for an increment fit")
    ks = [max(tg.n_steps >> j, 1) for j in range(depth, 0, -1)]
    times = [k * tg.dt for k in ks]
    rows = ensemble.values.reshape(-1, tg.n_steps + 1, grid.n_interior)
    gaps = problem.triple.h_norm_values(grid, rows - rows[:, :1]) ** 2
    # np.take keeps each path's row contiguous; [..., ks] would give an
    # F-ordered array, whose mean over the paths adds them in another order
    running = np.take(np.maximum.accumulate(gaps, axis=-1), ks, axis=-1)
    means = np.mean(running, axis=0)
    if np.any(means <= 0):
        raise ValueError("degenerate increment fit: zero supremum")
    slope = float(np.polyfit(np.log(times), np.log(means), 1)[0])
    return RegularityTable(
        increment_times=tuple(times),
        increment_means=tuple(float(v) for v in means),
        increment_exponent=slope,
    )
