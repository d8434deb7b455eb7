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
Jacobian I - dt Lap_h diag(m |v|^{m-1}). It starts from the
lagged-diffusivity step, the solve of (I - dt Lap_h diag(|u|^{m-1})) v = rhs
with the diffusivity frozen at the step's state u; a returned iterate always
satisfies |F|_L2 <= newton_tol (1 + |rhs|_L2), and a step that cannot is
retried on two half steps (the increment dW is split in half so its sum is
preserved) before NewtonDivergence is raised. Every step kernel acts on raw
nodal values; Field appears only as ProblemSpec.initial_datum and in
check_hypotheses' explicit pairs.

Every tridiagonal solve goes straight to LAPACK through the seam in grids:
dptsv for the heat step and dgtsv for the Newton start and each Newton
iteration, with the bits of scipy's validating wrappers. They are bound
here under scipy's names, solveh_banded and solve_banded.

There is one step kernel, and it steps a batch: the march behind
solve_frozen and every ensemble stacks the paths' state as (paths, rows, N),
one path or many, and makes one solver call per step. Heat is one
multi-right-hand-side dptsv; porous is one block-diagonal dgtsv call for the
start, then a damped Newton whose iterations each make one such call over
the rows still iterating, each row keeping its own step length and count.
The rows whose step fails march its two half steps together. Each row's
noise projection is the stacked gemv (inc[:, k, None, :] @ basis)[:, 0];
the plain inc[:, k] @ basis is a gemm and rounds differently. Every kernel
works row by row in the same floating-point operations, so a path's bits
do not depend on its batch: how many paths share it, their order, or
whether it is alone. The tests pin this against a path-by-path oracle.

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
        # a NaN tolerance skips every Newton iteration, and inf accepts any residual
        if not 0 < self.newton_tol < np.inf:
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        # Newton stops at it == newton_max_iter, which a budget of 2.5 never meets
        counts = (("newton_max_iter", 1), ("newton_max_halvings", 0), ("dt_retries", 0))
        for name, least in counts:
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            if count < least:
                raise ValueError(f"{name} must be >= {least}")


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
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
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


def _porous_residual(grid, v, dt, m, rhs):
    return v - dt * laplacian_values(grid, signed_power_values(v, m)) - rhs


def _diffusion_band(grid, d, dt):
    """Band (3, rows * N) of I - dt Lap_h diag(d), one block per row of d.

    d is a (rows, N) diffusivity. Consecutive blocks are not coupled, so
    each keeps its own bits.
    """
    h2 = grid.h * grid.h
    n = d.shape[-1]
    d = d.ravel()
    ab = np.empty((3, d.size))
    ab[0] = -dt * d / h2
    ab[1] = 1.0 + 2.0 * dt * d / h2
    ab[2] = ab[0]
    ab[0, ::n] = ab[2, n - 1 :: n] = 0.0
    return ab


def _newton_porous(grid, u_start, rhs, dt, m, config):
    """Damped Newton for v - dt Lap_h v^{[m]} = rhs on each row of a (rows, N) batch.

    Newton starts from the lagged-diffusivity step: one block-diagonal
    dgtsv call solves (I - dt Lap_h diag(|u|^{m-1})) v = rhs on every row
    whose u_start and rhs are finite, so for m = 1 the start is the exact
    linear step. A row with a non-finite entry keeps u_start and fails the
    starting-residual guard. The start is not counted as an iteration.

    Returns (v, iterations, errors): errors maps each row that fails (a
    non-finite start, the iteration budget or the halvings spent) to its
    message, and v is undefined and iterations 0 on it. The rows still
    iterating stay compacted, uncopied until one stops, and share one
    block-diagonal dgtsv call per iteration. Only the rows whose full step
    does not lower their residual backtrack.
    """
    v = u_start.copy()
    finite = np.isfinite(u_start).all(axis=-1) & np.isfinite(rhs).all(axis=-1)
    # a non-finite block would leak into the next one through dgtsv's pivoting
    if finite.any():
        band = _diffusion_band(grid, np.abs(u_start[finite]) ** (m - 1), dt)
        v[finite] = solve_banded(band, rhs[finite].ravel()).reshape(-1, v.shape[-1])
    fv = _porous_residual(grid, v, dt, m, rhs)
    rn = norm_values(grid, fv, "L2")
    target = config.newton_tol * (1.0 + norm_values(grid, rhs, "L2"))
    iterations = np.zeros(len(v), dtype=np.int64)
    # a NaN residual would compare false against its target: fail it
    moved, errors = np.isfinite(rn), {}
    for i in np.flatnonzero(~moved).tolist():
        errors[i] = f"non-finite starting residual {rn[i]} (dt {dt:.3e})"
    going = moved & (rn > target)
    rows, it, halvings = np.arange(len(v)), 0, config.newton_max_halvings
    v_a, f_a, r_a = v, fv, rn
    while True:
        # all(mask.tolist()): on a step's few-row masks, cheaper than mask.all()
        if not all(going.tolist()):
            stop = moved & ~going
            if rows.size == len(v) and all(stop.tolist()):
                # the whole batch stops at once: its iterate is the result
                iterations[:] = it
                return v_a, iterations, errors
            v[rows[stop]] = v_a[stop]
            iterations[rows[stop]] = it
            rows = rows[going]
            v_a, f_a, r_a, target, rhs = (a[going] for a in (v_a, f_a, r_a, target, rhs))
        if not rows.size or it == config.newton_max_iter:
            break
        it += 1
        # v_a and f_a are finite: the starting guard and the rt < r_a
        # acceptance never let a non-finite residual through. A finite
        # residual bounds dt m |v|^(m-1) / h^2, so the band is finite too.
        band = _diffusion_band(grid, m * np.abs(v_a) ** (m - 1), dt)
        delta = solve_banded(band, -f_a.ravel())
        delta = delta.reshape(v_a.shape)
        trial = v_a + delta
        ft = _porous_residual(grid, trial, dt, m, rhs)
        rt = norm_values(grid, ft, "L2")
        moved = rt < r_a
        if all(moved.tolist()):
            going = rt > target
        else:
            # the rows whose full step failed try step length 2^-j on
            # halving j, until their residual drops
            back = np.flatnonzero(~moved)
            v_b, d_b, rhs_b, r_b = v_a[back], delta[back], rhs[back], r_a[back]
            for j in range(1, halvings + 1):
                t = v_b + 0.5**j * d_b
                f = _porous_residual(grid, t, dt, m, rhs_b)
                r = norm_values(grid, f, "L2")
                ok = r < r_b
                if all(ok.tolist()):
                    trial[back], ft[back], rt[back], moved[back] = t, f, r, True
                    break
                got, keep = back[ok], ~ok
                trial[got], ft[got], rt[got], moved[got] = t[ok], f[ok], r[ok], True
                back, v_b, d_b, rhs_b, r_b = (a[keep] for a in (back, v_b, d_b, rhs_b, r_b))
            else:
                for j in back.tolist():
                    errors[int(rows[j])] = (
                        f"damping stalled after {halvings} halvings "
                        f"(residual {r_a[j]:.3e}, dt {dt:.3e})"
                    )
            going = moved & (rt > target)
        v_a, f_a, r_a = trial, ft, rt
    for j, i in enumerate(rows.tolist()):
        errors[i] = (
            f"no convergence in {config.newton_max_iter} iterations "
            f"(residual {r_a[j]:.3e}, target {target[j]:.3e}, dt {dt:.3e})"
        )
    return v, iterations, errors


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


def _advance(problem, u, xi_k, dw, dt, cfg, stats, paths, depth):
    """One step of a (rows, N) batch, row i on path paths[i]; returns (v, lost).

    The rows whose step fails retry it as two half steps, each on half the
    increment, marched together as a sub-batch at depth + 1. A row that
    fails at depth cfg.dt_retries goes into stats.failed and, in order,
    into lost; v is undefined on it.
    """
    grid = problem.qwiener.grid
    if problem.example == "heat_sqrt_drift":
        rhs = _step_rhs(u, xi_k, problem.sigma * u * dw, dt)
        v, errors = solveh_banded(_implicit_band(grid, dt), rhs.T).T, {}
        if not np.isfinite(rhs).all():
            bad = np.flatnonzero(~np.isfinite(rhs).all(axis=-1)).tolist()
            errors = dict.fromkeys(bad, f"non-finite heat right-hand side (dt {dt:.3e})")
    else:
        rhs = _step_rhs(u, xi_k, _porous_noise(problem, u, xi_k, dw), dt)
        v, its, errors = _newton_porous(grid, u, rhs, dt, problem.m, cfg)
        stats.newton_iterations[paths] += its
    if not errors:
        return v, []
    bad = np.array(sorted(errors))
    if depth >= cfg.dt_retries:
        for i in bad.tolist():
            stats.failed[int(paths[i])] = NewtonDivergence(errors[i])
        return v, bad.tolist()
    stats.dt_retries[paths[bad]] += 1
    keep, w, half = bad, u[bad], 0.5 * dw[bad]
    for _ in range(2):  # a row that fails its first half step stops there
        if keep.size:
            w, lost = _advance(
                problem, w, xi_k[keep], half, 0.5 * dt, cfg, stats, paths[keep], depth + 1
            )
            keep, w, half = (np.delete(a, lost, axis=0) for a in (keep, w, half))
    v[keep] = w
    return v, np.setdiff1d(bad, keep).tolist()


class _PathStats:
    """Per-path counters of a march, and the errors of the paths that failed.

    newton_iterations counts the iterations of a path's finished steps and
    half steps, and dt_retries its steps split in two.
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


def _march(problem, u, xi_rows, inc, dt, start, stop, cfg, stats):
    """Fill rows start + 1 .. stop of every path's solve u, in place.

    u and xi_rows are stacked per path as (paths, rows, N), inc as
    (paths, n_steps, n_modes); step k freezes path p's coefficient at
    xi_rows[p, k] and takes inc[p, k]. Each step is one _advance over the
    live paths (a slice while all are), found again only when a path
    fails. A failed path is skipped. solve_frozen, staircase_construct and
    Picard share this loop, so the Picard limit and the staircase stay
    equal bit for bit.
    """
    basis = problem.qwiener.basis
    failed = None
    for k in range(start, stop):
        if len(stats.failed) != failed:
            failed = len(stats.failed)
            live = np.ones(len(u), dtype=bool)
            live[list(stats.failed)] = False
            paths = np.flatnonzero(live)
            rows = slice(None) if paths.size == len(u) else paths
        if not paths.size:
            break
        dw = (inc[rows, k, None, :] @ basis)[:, 0]
        v, lost = _advance(
            problem, u[rows, k], xi_rows[rows, k], dw, dt, cfg, stats, paths, 0
        )
        if lost:
            u[np.delete(paths, lost), k + 1] = np.delete(v, lost, axis=0)
        else:
            u[rows, k + 1] = v


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

    DEFECT_TOL = 1e-9
    GROWTH_BOUND = 1.0 + 1e-12

    @property
    def all_hold(self) -> bool:
        return bool(
            np.all(self.defects <= self.DEFECT_TOL)
            and np.all(self.margins <= self.DEFECT_TOL)
            and np.all(self.ratios <= self.GROWTH_BOUND)
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
