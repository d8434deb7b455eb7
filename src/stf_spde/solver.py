"""Frozen-coefficient semi-implicit steppers for the three example problems.

Given a frozen trajectory xi and a noise path, the solver integrates

    du = ( A(u) + xi^{[1/2]} ) dt + noise,

with A implicit and the noise explicit, for three examples on the unit
interval with Dirichlet boundary:

  * heat_sqrt_drift:      A(u) = Lap_h u,            noise = sigma u dW
  * porous_sqrt_drift:    A(u) = Lap_h u^{[m]},      noise = sigma u dW
  * porous_gradient_noise: A(u) = Lap_h u^{[m]},     noise = D_h(xi^{[1/2]} dW)

The heat step is one SPD tridiagonal solve. The porous step runs a damped
Newton iteration on F(v) = v - dt Lap_h v^{[m]} - rhs with the tridiagonal
Jacobian I - dt Lap_h diag(m |v|^{m-1}); the returned iterate always
satisfies |F|_L2 <= newton_tol (1 + |rhs|_L2), otherwise NewtonDivergence
is raised and the caller may retry with a halved step (the increment dW is
split in half so its sum is preserved). Every step kernel acts on raw
nodal values; Field appears only as ProblemSpec.initial_datum and in
check_hypotheses' explicit pairs.

Every tridiagonal solve goes straight to LAPACK through the seam in grids:
dptsv for the heat step and dgtsv for each Newton iteration, with the bits
of scipy's validating wrappers. They are bound here under scipy's names,
solveh_banded and solve_banded.

The march behind solve_frozen and every ensemble steps a whole batch of
noise paths at once, its state stacked as (paths, rows, N). One step costs
one solver call for the batch: one multi-right-hand-side dptsv for heat,
and for porous a masked damped Newton whose iterations each make one
block-diagonal dgtsv call over the rows still iterating (the blocks are
joined by zero couplings), each row keeping its own Armijo step length
and iteration count. A lone row, up to the step at which another path
joins it, and any row the batch could not finish go through the row
kernel instead: the per-path step with its half-step retries. Each row's
noise projection is one stacked vector-matrix product,
(inc[:, k, None, :] @ basis)[:, 0], which gives the bits of the row
kernel's gemv inc[k] @ basis; the plain matrix product inc[:, k] @ basis
is a gemm and rounds differently. Every kernel works row
by row in the same floating-point operations, so a path's bits do not
depend on its batch: on how many paths are stepped with it, in which
order, or whether it is stepped alone.

solve_frozen has two forms. One coefficient Trajectory with one NoisePath
gives one solution path. A coefficient stacked as (paths, n_steps + 1, N)
with a sequence of as many noise paths gives every solution, stacked the
same way, from one march over the whole ensemble; path p has the bits of
the one-path call on (xi.path(p), noise[p]), and a failure raises the
lowest-index failing path's NewtonDivergence, with that index in its
path attribute.

check_hypotheses measures, on random field pairs, the three structural
inequalities the solves rest on: a monotonicity defect, a coercivity
margin, and a growth ratio, each with an explicitly derived admissible
constant, and reports the smallest constants the data admits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grids import (
    Field,
    TripleKind,
    _implicit_band,
    laplacian_eigenvalue,
    laplacian_values,
    norm_values,
    signed_power_values,
    solve_banded,
    solveh_banded,
)
from .projection import Trajectory
from .rng import gaussian_stream
from .wiener import NoisePath, QWienerSpec

__all__ = [
    "ProblemSpec",
    "SolverConfig",
    "NewtonDivergence",
    "HypothesisReport",
    "solve_frozen",
    "check_hypotheses",
    "KNOWN_EXAMPLES",
]

KNOWN_EXAMPLES = ("heat_sqrt_drift", "porous_sqrt_drift", "porous_gradient_noise")

_NOISE_FORMS = ("divergence", "pointwise")


class NewtonDivergence(RuntimeError):
    """A step failed its contract.

    The damped Newton iteration missed its residual target, or a step met
    non-finite input. path is the batch index of the failing path, 0 for a
    one-path call.
    """

    path = 0


@dataclass(frozen=True)
class SolverConfig:
    """Newton and retry controls; the time step always comes from the grid."""

    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    newton_max_halvings: int = 30
    dt_retries: int = 3

    def __post_init__(self) -> None:
        if self.newton_tol <= 0:
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")
        if self.newton_max_halvings < 0:
            raise ValueError("newton_max_halvings must be >= 0")
        if self.dt_retries < 0:
            raise ValueError("dt_retries must be >= 0")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One frozen-coefficient example problem.

    Attributes:
        example: one of KNOWN_EXAMPLES.
        qwiener: noise covariance spec (also fixes the spatial grid).
        initial_datum: starting Field, on the same grid.
        m: porous exponent, integer >= 2 (ignored by the heat example).
        sigma: coefficient of the pointwise-linear multiplicative noise
            sigma * u * dW used by the first two examples.
        gradient_noise_form: "divergence" for D_h(xi^{[1/2]} dW) or
            "pointwise" for (D_h xi^{[1/2]}) dW, third example only.
    """

    example: str
    qwiener: QWienerSpec
    initial_datum: Field
    m: int = 2
    sigma: float = 0.1
    gradient_noise_form: str = "divergence"

    def __post_init__(self) -> None:
        if self.example not in KNOWN_EXAMPLES:
            raise ValueError(
                f"unknown example {self.example!r}; pick one of {KNOWN_EXAMPLES}"
            )
        if self.is_porous:
            if int(self.m) != self.m or self.m < 2:
                raise ValueError(
                    f"porous examples need an integer exponent m >= 2, got {self.m}"
                )
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.gradient_noise_form not in _NOISE_FORMS:
            raise ValueError(
                f"gradient_noise_form must be one of {_NOISE_FORMS}, "
                f"got {self.gradient_noise_form!r}"
            )
        if self.initial_datum.grid != self.qwiener.grid:
            raise ValueError("initial datum and noise spec live on different grids")

    @property
    def is_porous(self) -> bool:
        return self.example != "heat_sqrt_drift"

    @property
    def triple(self) -> TripleKind:
        return TripleKind.porous(self.m) if self.is_porous else TripleKind.heat()

    @property
    def time_power(self) -> int:
        """Exponent of the time-Lp norm natural to the example's V space."""
        return self.m + 1 if self.is_porous else 2


def _step_rhs(u, xi, noise, dt):
    """Right-hand side u + dt xi^{[1/2]} + noise of every step, row-wise."""
    return u + dt * signed_power_values(xi, 0.5) + noise


def _heat_rows(grid, u, xi, dw, dt, sigma):
    """Heat step on one row or a (rows, N) batch, in one solve; see _heat_step.

    Returns (v, ok). LAPACK solves the columns of the (N, rows) right-hand
    side one by one, so each row gets the one-row bits; a row whose
    right-hand side is not finite comes back with ok False.
    """
    rhs = _step_rhs(u, xi, sigma * u * dw, dt)
    ok = np.all(np.isfinite(rhs), axis=-1)
    return solveh_banded(_implicit_band(grid, dt), rhs.T).T, ok


def _heat_step(grid, u, xi, dw, dt, sigma):
    """One semi-implicit heat step on one row of raw nodal values.

    Solves (I - dt Lap_h) v = u + dt xi^{[1/2]} + sigma u dw; the Laplacian
    is implicit (one SPD tridiagonal solve) and the drift and noise are
    explicit.

    Raises:
        NewtonDivergence: the right-hand side is not finite.
    """
    v, ok = _heat_rows(grid, u, xi, dw, dt, sigma)
    if not ok:
        raise NewtonDivergence(f"non-finite heat right-hand side (dt {dt:.3e})")
    return v


def _porous_residual(grid, v, dt, m, rhs):
    return v - dt * laplacian_values(grid, signed_power_values(v, m)) - rhs


def _jacobian_band(grid, v, dt, m):
    """Band (3,) + v.shape of I - dt Lap_h diag(m |v|^{m-1}), per row of v."""
    h2 = grid.h * grid.h
    d = m * np.abs(v) ** (m - 1)
    ab = np.empty((3,) + d.shape)
    ab[0] = -dt * d / h2
    ab[1] = 1.0 + 2.0 * dt * d / h2
    ab[2] = -dt * d / h2
    return ab


def _newton_porous(grid, u_start, rhs, dt, m, config):
    """Damped Newton for v - dt Lap_h v^{[m]} = rhs; returns (v, iterations)."""
    v = u_start.copy()
    fv = _porous_residual(grid, v, dt, m, rhs)
    rn = norm_values(grid, fv, "L2")
    target = config.newton_tol * (1.0 + norm_values(grid, rhs, "L2"))
    # a NaN residual compares false against the target and would skip the
    # loop, returning a state that breaks the residual contract
    if not np.isfinite(rn):
        raise NewtonDivergence(f"non-finite starting residual {rn} (dt {dt:.3e})")
    iterations = 0
    while rn > target:
        if iterations >= config.newton_max_iter:
            raise NewtonDivergence(
                f"no convergence in {config.newton_max_iter} iterations "
                f"(residual {rn:.3e}, target {target:.3e}, dt {dt:.3e})"
            )
        # v and fv are finite: the starting guard and the rt < rn acceptance
        # below never let a non-finite residual through. A finite residual
        # bounds dt m |v|^(m-1) / h^2, so the band is finite as well.
        delta = solve_banded(_jacobian_band(grid, v, dt, m), -fv)
        lam = 1.0
        for _ in range(config.newton_max_halvings + 1):
            trial = v + lam * delta
            ft = _porous_residual(grid, trial, dt, m, rhs)
            rt = norm_values(grid, ft, "L2")
            if rt < rn:
                break
            lam *= 0.5
        else:
            raise NewtonDivergence(
                f"damping stalled after {config.newton_max_halvings} halvings "
                f"(residual {rn:.3e}, dt {dt:.3e})"
            )
        v, fv, rn = trial, ft, rt
        iterations += 1
    return v, iterations


def _newton_rows(grid, u_start, rhs, dt, m, config):
    """_newton_porous on a (rows, N) batch; returns (v, iterations, ok).

    Each row runs the row kernel's iteration in the same floating-point
    operations, so it ends on that kernel's iterate and count, bit for
    bit. One block-diagonal dgtsv call per iteration covers the rows
    still above their target, and each of them backtracks with its
    own step length. A row on which _newton_porous raises (non-finite
    start, iteration budget or halvings spent) stops with ok False.
    """
    v = u_start.copy()
    fv = _porous_residual(grid, v, dt, m, rhs)
    rn = norm_values(grid, fv, "L2")
    target = config.newton_tol * (1.0 + norm_values(grid, rhs, "L2"))
    iterations = np.zeros(len(v), dtype=np.int64)
    # a NaN residual would compare false against its target: fail it
    ok = np.isfinite(rn)
    active = np.flatnonzero(ok & (rn > target))
    while active.size:
        spent = iterations[active] >= config.newton_max_iter
        ok[active[spent]] = False
        active = active[~spent]
        if not active.size:
            break
        ab = _jacobian_band(grid, v[active], dt, m)
        # the entries that would couple consecutive rows' blocks; with
        # them zero, elimination leaves every block its own bits
        ab[0, :, 0] = 0.0
        ab[2, :, -1] = 0.0
        delta = solve_banded(ab.reshape(3, -1), -fv[active].ravel())
        delta = delta.reshape(ab.shape[1:])
        lam = np.ones(active.size)
        trial, ft = np.empty_like(delta), np.empty_like(delta)
        rt = np.empty(active.size)
        searching = np.ones(active.size, dtype=bool)
        for _ in range(config.newton_max_halvings + 1):
            rows = active[searching]
            trial[searching] = v[rows] + lam[searching, None] * delta[searching]
            ft[searching] = _porous_residual(grid, trial[searching], dt, m, rhs[rows])
            rt[searching] = norm_values(grid, ft[searching], "L2")
            searching &= ~(rt < rn[active])
            if not searching.any():
                break
            lam[searching] *= 0.5
        ok[active[searching]] = False
        moved = ~searching
        rows = active[moved]
        v[rows], fv[rows], rn[rows] = trial[moved], ft[moved], rt[moved]
        iterations[rows] += 1
        active = rows[rn[rows] > target[rows]]
    return v, iterations, ok


def _one_sided_centered_diff(grid, g):
    """Centered difference inside, first-order one-sided at the two ends.

    Acts on the last axis, so a (rows, N) stack is differenced row by row.
    """
    h = grid.h
    out = np.empty_like(g)
    # .T puts the node axis first for 1-D and batched input alike
    o, x = out.T, g.T
    o[1:-1] = (x[2:] - x[:-2]) / (2.0 * h)
    o[0] = (x[1] - x[0]) / h
    o[-1] = (x[-1] - x[-2]) / h
    return out


def _gradient_noise(grid, xi, dw, form):
    """Gradient-coupled noise increment D_h(xi^{[1/2]} dW) on raw nodal values.

    The "divergence" form differences the product; the "pointwise" form
    multiplies the differenced xi^{[1/2]} by the increment instead. dw may
    also be a (rows, N) stack, such as the Q-basis, under the one xi.
    """
    root = signed_power_values(xi, 0.5)
    if form == "divergence":
        return _one_sided_centered_diff(grid, root * dw)
    return _one_sided_centered_diff(grid, root) * dw


def _porous_noise(problem, u, xi_k, dw):
    """The porous examples' noise term on raw rows (one row or a batch)."""
    if problem.example == "porous_sqrt_drift":
        return problem.sigma * u * dw
    return _gradient_noise(
        problem.qwiener.grid, xi_k, dw, problem.gradient_noise_form
    )


def _advance(problem, u, xi_k, dw, dt, cfg, stats, depth):
    """One step of the problem on raw nodal values (rows u, xi_k, dw).

    The inputs were checked once by the caller: every row lives on the
    problem's grid, dt is positive and ProblemSpec fixed the exponent.
    """
    grid = problem.qwiener.grid
    try:
        if problem.example == "heat_sqrt_drift":
            return _heat_step(grid, u, xi_k, dw, dt, problem.sigma)
        rhs = _step_rhs(u, xi_k, _porous_noise(problem, u, xi_k, dw), dt)
        v, its = _newton_porous(grid, u, rhs, dt, problem.m, cfg)
        stats["newton_iterations"] += its
        return v
    except NewtonDivergence:
        if depth >= cfg.dt_retries:
            raise
        stats["dt_retries"] += 1
        half = 0.5 * dw
        mid = _advance(problem, u, xi_k, half, 0.5 * dt, cfg, stats, depth + 1)
        return _advance(problem, mid, xi_k, half, 0.5 * dt, cfg, stats, depth + 1)


def _advance_rows(problem, u, xi_k, dw, dt, cfg):
    """One full step of a (rows, N) batch; returns (v, Newton iterations, ok).

    A row with ok False was not finished: _advance raises on it at depth
    0, so it is left for the row kernel and its half-step retries.
    """
    grid = problem.qwiener.grid
    if problem.example == "heat_sqrt_drift":
        v, ok = _heat_rows(grid, u, xi_k, dw, dt, problem.sigma)
        return v, np.zeros(len(u), dtype=np.int64), ok
    rhs = _step_rhs(u, xi_k, _porous_noise(problem, u, xi_k, dw), dt)
    return _newton_rows(grid, u, rhs, dt, problem.m, cfg)


class _PathStats:
    """Solver counters of a batched march, per path, and the failed paths.

    A failed path maps to the NewtonDivergence its row kernel raised after
    every retry; the march leaves it where it stopped.
    """

    def __init__(self, paths: int) -> None:
        self.newton_iterations = np.zeros(paths, dtype=np.int64)
        self.dt_retries = np.zeros(paths, dtype=np.int64)
        self.failed: dict[int, NewtonDivergence] = {}

    def raise_first(self) -> None:
        """Raise the lowest failed path's error, the one a path loop meets first."""
        if self.failed:
            first = min(self.failed)
            self.failed[first].path = first
            raise self.failed[first]


def _march_row(problem, u, xi_rows, inc, dt, start, stop, cfg, stats, p):
    """The row kernel over steps start .. stop - 1 of path p's own rows."""
    basis = problem.qwiener.basis
    counts = {"newton_iterations": 0, "dt_retries": 0}
    try:
        for k in range(start, stop):
            u[k + 1] = _advance(
                problem, u[k], xi_rows[k], inc[k] @ basis, dt, cfg, counts, 0
            )
    except NewtonDivergence as exc:
        stats.failed[p] = exc
    stats.newton_iterations[p] += counts["newton_iterations"]
    stats.dt_retries[p] += counts["dt_retries"]


def _march(problem, u, xi_rows, inc, dt, start, stop, cfg, stats):
    """Fill rows start + 1 .. stop of every path's solve u, in place.

    u and xi_rows are stacked per path as (paths, rows, N), inc as
    (paths, n_steps, n_modes). Step k freezes path p's coefficient at
    xi_rows[p, k] and takes its increment inc[p, k]. start is one row for
    every path or one row per path: a path joins the batch at its own
    start. A path already in stats.failed is skipped; one that fails after
    every retry is added there and marched no further. solve_frozen,
    staircase_construct and Picard share this loop, so the Picard limit
    and the staircase stay equal bit for bit.
    """
    basis = problem.qwiener.basis
    start = np.broadcast_to(start, len(u))
    live = np.ones(len(u), dtype=bool)
    live[list(stats.failed)] = False
    k = int(start.min())
    while k < stop:
        rows = np.flatnonzero(live & (start <= k))
        redo, until = rows, k + 1
        if rows.size > 1:
            dw = (inc[rows, k, None, :] @ basis)[:, 0]
            uk, xk = u[rows, k], xi_rows[rows, k]
            v, its, ok = _advance_rows(problem, uk, xk, dw, dt, cfg)
            u[rows[ok], k + 1] = v[ok]
            stats.newton_iterations[rows[ok]] += its[ok]
            redo = rows[~ok]
        else:
            # a lone row has no batch to wait for until the next path joins
            later = start[start > k]
            until = min(int(later.min()), stop) if later.size else stop
        for p in redo.tolist():
            _march_row(problem, u[p], xi_rows[p], inc[p], dt, k, until, cfg, stats, p)
            live[p] = p not in stats.failed
        k = until


def _noise_rows(problem, noise):
    """Check a noise path or a sequence of them; returns (timegrid, inc).

    inc stacks the increments as (paths, n_steps, n_modes), one path for a
    lone NoisePath. Every path must share one time grid and carry the
    spec's mode count.
    """
    paths = [noise] if isinstance(noise, NoisePath) else list(noise)
    if not paths:
        raise ValueError("need at least one noise path")
    tg = paths[0].timegrid
    for path in paths:
        if path.timegrid != tg:
            raise ValueError("noise paths live on different time grids")
        if path.n_modes != problem.qwiener.n_modes:
            raise ValueError(
                f"noise has {path.n_modes} modes, spec wants {problem.qwiener.n_modes}"
            )
    return tg, np.stack([path.increments for path in paths])


def solve_frozen(
    problem: ProblemSpec,
    xi: Trajectory,
    noise: NoisePath | Sequence[NoisePath],
    config: SolverConfig | None = None,
    collect_stats: dict | None = None,
) -> Trajectory:
    """Integrate the frozen-coefficient problem across the whole time grid.

    Step k freezes the coefficient at xi(t_k) and uses the k-th noise
    increment; the output starts at the problem's initial datum. The
    result is a pure function of (problem, xi, noise, config). On Newton
    divergence a step is retried on two half steps (splitting the
    increment in half), at most config.dt_retries deep, before the error
    propagates.

    The ensemble form takes a coefficient stacked as (paths, n_steps + 1,
    N) and a sequence of as many noise paths, pairs coefficient p with
    noise p, and marches every path in one batch. Path p of the result
    equals the one-path call on (xi.path(p), noise[p]) bit for bit. All
    inputs are checked before any step is marched.

    Args:
        problem: example problem.
        xi: frozen trajectory on the same grids as the problem, one path
            or stacked paths.
        noise: mode increments on the same time grid as xi: one NoisePath
            for a one-path xi, a sequence of them for a stacked xi.
        config: Newton controls (defaults are fine for the examples).
        collect_stats: optional dict; filled with "newton_iterations"
            (not tracked for heat) and "dt_retries", summed over paths.

    Returns:
        Trajectory of the solution, n_steps + 1 samples, in xi's form.

    Raises:
        NewtonDivergence: a step failed its contract after every retry;
            for an ensemble, the error of the lowest-index failing path.
    """
    cfg = config if config is not None else SolverConfig()
    tg = xi.timegrid
    grid = problem.qwiener.grid
    noise_tg, inc = _noise_rows(problem, noise)
    noise_paths = None if isinstance(noise, NoisePath) else len(inc)
    if xi.n_paths != noise_paths:
        has = "has no path axis" if xi.n_paths is None else f"stacks {xi.n_paths} paths"
        gets = "one NoisePath" if noise_paths is None else f"a sequence of {noise_paths}"
        raise ValueError(
            f"coefficient and noise paths do not pair up: the coefficient {has}, "
            f"the noise is {gets}"
        )
    if noise_tg != tg:
        raise ValueError("frozen trajectory and noise live on different time grids")
    if xi.grid != grid:
        raise ValueError("frozen trajectory lives on a different spatial grid")
    if not np.all(np.isfinite(xi.values)):
        raise ValueError("frozen trajectory contains non-finite values")
    xi_rows = xi.values.reshape(len(inc), tg.n_steps + 1, grid.n_interior)
    stats = _PathStats(len(inc))
    u = np.empty(xi_rows.shape)
    u[:, 0] = problem.initial_datum.values
    _march(problem, u, xi_rows, inc, tg.dt, 0, tg.n_steps, cfg, stats)
    stats.raise_first()
    if collect_stats is not None:
        collect_stats.update(
            newton_iterations=int(stats.newton_iterations.sum()),
            dt_retries=int(stats.dt_retries.sum()),
        )
    return Trajectory.from_matrix(tg, grid, u.reshape(xi.values.shape))


def _operator_values(problem, u_values, xi_values):
    """A(u) + xi^{[1/2]} as raw nodal values (an element of V*)."""
    grid = problem.qwiener.grid
    power = problem.m if problem.is_porous else 1
    return laplacian_values(grid, signed_power_values(u_values, power)) + (
        signed_power_values(xi_values, 0.5)
    )


def _hs_norm_sq(problem, images):
    """Hilbert-Schmidt norm^2 of noise operators over the Q-basis.

    images is an (..., n_modes, N) array whose row i is the operator
    applied to psi_i; the result is sum_i lambda_i |images_i|_H^2 with H
    the example's pivot norm, one value per leading index.
    """
    spec = problem.qwiener
    sq = problem.triple.h_norm_values(spec.grid, images) ** 2
    return np.vecdot(sq, spec.eigenvalues)


def _f_xi(problem, xi):
    """Coercivity forcing term per row: |xi|_L1 (heat) or |xi|_V^{m+1} (porous)."""
    grid = problem.qwiener.grid
    if problem.is_porous:
        return norm_values(grid, xi, "Lp", p=problem.m + 1) ** (problem.m + 1)
    return grid.h * np.sum(np.abs(xi), axis=-1)


def _lipschitz_constant(problem):
    """Admissible C for the monotonicity defect, from the noise structure.

    With Sigma_1(u) = sigma * u the Hilbert-Schmidt difference is
    sigma^2 sum_i lambda_i |(u1-u2) psi_i|_H^2. In the L2 pivot this is at
    most sigma^2 max_j w(x_j) |u1-u2|_L2^2 with w = sum_i lambda_i psi_i^2.
    In the H^-1 pivot, |f psi_i|_{H^-1}^2 <= |f psi_i|_L2^2 / mu_1 and
    |f|_L2^2 <= mu_max |f|_{H^-1}^2 bridge the norms, at the price of the
    grid-dependent factor mu_max / mu_1. The gradient-noise example does
    not touch u, so its constant is zero.
    """
    spec = problem.qwiener
    grid = spec.grid
    if problem.example == "porous_gradient_noise":
        return 0.0
    weight = float(np.max(spec.eigenvalues @ spec.basis**2))
    c = problem.sigma**2 * weight
    if problem.is_porous:
        mu_min = laplacian_eigenvalue(grid, 1)
        mu_max = laplacian_eigenvalue(grid, grid.n_interior)
        c *= mu_max / mu_min
    return c


def _coercivity_constant(problem):
    """Admissible C for the coercivity margin; see check_hypotheses.

    Heat: 2<Lap u, u> = -2|u|_V^2 exactly, 2<xi^{1/2}, u> <= |xi|_L1 +
    |u|_H^2 by Young, and the noise adds at most the Lipschitz weight, so
    C = 1 + C_lip works. Porous: the 2|u|_V^{m+1} term cancels the
    operator part exactly and the pairing with xi^{1/2} is the H^-1 inner
    product, giving the extra 1/mu_1 from |xi^{1/2}|_{H^-1}^2 <=
    |xi|_L1 / mu_1 <= (1 + f_xi) / mu_1. The gradient noise example swaps
    the u-Lipschitz weight for the xi-driven Hilbert-Schmidt bound
    |D_h g|_{H^-1} <= 4 |g|_L2 (one-sided rows cost three boundary values,
    each at most h^{-1/2}|g|_L2), hence 32 trace(Q) in front of 1 + f_xi.
    """
    grid = problem.qwiener.grid
    if problem.example == "heat_sqrt_drift":
        return 1.0 + _lipschitz_constant(problem)
    mu_min = laplacian_eigenvalue(grid, 1)
    if problem.example == "porous_sqrt_drift":
        return 1.0 + 1.0 / mu_min + _lipschitz_constant(problem)
    return 1.0 + 1.0 / mu_min + 32.0 * problem.qwiener.trace


def _growth_constant(problem):
    """Admissible C for the growth ratio; see check_hypotheses.

    Heat: |Lap_h u|_{H^-1} = |u|_V and |xi^{[1/2]}|_{H^-1}^2 <= |xi|_L1 /
    mu_1, so (a + b)^2 <= 2 a^2 + 2 b^2 gives C = 2 max(1, 1/mu_1).
    Porous, with q = (m+1)/m: |Lap_h|_{q->q} <= 4/h^2, |u^{[m]}|_{L^q}^q =
    |u|_V^{m+1} and h sum_j |xi_j|^{q/2} <= 1 + f_xi (each term is at most
    1 + |xi_j|^{m+1}, and h N < 1), so |a + b|^q <= 2^{q-1} (|a|^q + |b|^q)
    gives C = 2^{q-1} (4/h^2)^q.
    """
    grid = problem.qwiener.grid
    if problem.example == "heat_sqrt_drift":
        return 2.0 * max(1.0, 1.0 / laplacian_eigenvalue(grid, 1))
    q = (problem.m + 1) / problem.m
    return 2.0 ** (q - 1.0) * (4.0 / (grid.h * grid.h)) ** q


@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """Per-pair structural inequality measurements for one example."""

    example: str
    n_pairs: int
    c_monotone: float
    c_coercive: float
    c_growth: float
    defects: np.ndarray  # monotonicity, must be <= 0 (up to roundoff)
    margins: np.ndarray  # coercivity, must be <= 0 (up to roundoff)
    ratios: np.ndarray  # growth, must be <= 1
    c_monotone_min: float
    c_coercive_min: float
    c_growth_min: float

    @property
    def all_hold(self) -> bool:
        tol = 1e-9
        return bool(
            np.all(self.defects <= tol)
            and np.all(self.margins <= tol)
            and np.all(self.ratios <= 1.0 + 1e-12)
        )


def check_hypotheses(
    problem: ProblemSpec,
    pairs: list[tuple[Field, Field, Field]] | None = None,
    n_pairs: int = 100,
    seed: int = 0,
) -> HypothesisReport:
    """Measure monotonicity, coercivity, and growth on random field pairs.

    For each triple (u1, u2, xi):

      (a) defect = 2<A(u1) - A(u2), u1 - u2> + |Sigma(u1) - Sigma(u2)|_HS^2
          - C_mono |u1 - u2|_H^2, with C_mono derived from the pointwise
          linear noise (zero for the gradient example);
      (b) margin = 2<A(u1) + xi^{[1/2]}, u1> + |Sigma|_HS^2
          + theta |u1|_V^power - C_coer |u1|_H^2 - C_coer (1 + f_xi),
          theta = 1 (heat, power 2) or 2 (porous, power m + 1);
      (c) ratio of |A(u1) + xi^{[1/2]}|_{V*}^q (q the dual exponent) to
          C_growth (|u1|_V^power + 1 + f_xi), with C_growth derived from
          the operator's structure.

    Args:
        problem: example problem (fixes norms and constants).
        pairs: optional explicit (u1, u2, xi) triples on the problem's
            grid; when omitted, n_pairs random triples with amplitudes
            log-spread across [1e-3, 1e2] are drawn from the given seed.

    Returns:
        HypothesisReport; violations show up in the arrays (never raised).

    Raises:
        ValueError: n_pairs < 1, empty pairs, or a field on another grid.
    """
    grid = problem.qwiener.grid
    basis = problem.qwiener.basis
    if pairs is None:
        if n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
        stream = gaussian_stream(seed, 4)
        u1, u2, xi = np.empty((3, n_pairs, grid.n_interior))
        for i in range(n_pairs):
            amp = 10.0 ** stream.uniform(-3.0, 2.0, size=3)
            for rows, a in zip((u1, u2, xi), amp):
                rows[i] = a * stream.standard_normal(grid.n_interior)
    else:
        if len(pairs) == 0:
            raise ValueError("pairs must hold at least one (u1, u2, xi) triple")
        if any(f.grid != grid for pair in pairs for f in pair):
            raise ValueError("a field in pairs lives on a different grid")
        u1, u2, xi = (np.stack([f.values for f in col]) for col in zip(*pairs))
    triple = problem.triple
    power = problem.time_power  # 2 heat, m+1 porous: the V-norm exponent
    theta = 2.0 if problem.is_porous else 1.0
    dual_q = (problem.m + 1) / problem.m if problem.is_porous else 2.0
    c_mono = _lipschitz_constant(problem)
    c_coer = _coercivity_constant(problem)
    c_growth = _growth_constant(problem)
    op1 = _operator_values(problem, u1, xi)
    op2 = _operator_values(problem, u2, xi)
    du = u1 - u2
    if problem.example == "porous_gradient_noise":
        hs_gap = 0.0
        images = _gradient_noise(grid, xi[:, None], basis, problem.gradient_noise_form)
    else:
        hs_gap = _hs_norm_sq(problem, problem.sigma * du[:, None] * basis)
        images = problem.sigma * u1[:, None] * basis
    pair_term = 2.0 * triple.pairing_values(grid, op1 - op2, du)
    h_gap_sq = triple.h_norm_values(grid, du) ** 2
    defects = pair_term + hs_gap - c_mono * h_gap_sq
    moved = h_gap_sq > 0
    c_mono_min = np.max((pair_term + hs_gap)[moved] / h_gap_sq[moved], initial=0.0)
    f_xi = _f_xi(problem, xi)
    h_sq = triple.h_norm_values(grid, u1) ** 2
    v_pow = triple.v_norm_values(grid, u1) ** power
    hs_self = _hs_norm_sq(problem, images)
    base = 2.0 * triple.pairing_values(grid, op1, u1) + hs_self + theta * v_pow
    margins = base - c_coer * (h_sq + 1.0 + f_xi)
    c_coer_min = np.max(base / (h_sq + 1.0 + f_xi), initial=0.0)
    growth_num = triple.vstar_norm_values(grid, op1) ** dual_q
    growth_den = v_pow + 1.0 + f_xi
    ratios = growth_num / (c_growth * growth_den)
    for arr in (defects, margins, ratios):
        arr.flags.writeable = False
    return HypothesisReport(
        example=problem.example,
        n_pairs=len(defects),
        c_monotone=c_mono,
        c_coercive=c_coer,
        c_growth=c_growth,
        defects=defects,
        margins=margins,
        ratios=ratios,
        c_monotone_min=float(c_mono_min),
        c_coercive_min=float(c_coer_min),
        c_growth_min=float(np.max(growth_num / growth_den, initial=0.0)),
    )
