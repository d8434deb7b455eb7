"""The path-by-path step kernel: the oracle the batched solver is pinned to.

One row of raw nodal values per call, a damped Newton iteration that
raises on failure, and half-step retries by recursion on the one row. The
tests compare the package's batched kernel against it bit for bit:
iterates, Newton counts, retry counts, error text and failure order. The
residual, the band and the Newton start are its own copies, so the package
may compute them differently as long as the bits agree.
"""

import numpy as np

from stf_spde.grids import (
    _implicit_band,
    laplacian_values,
    norm_values,
    signed_power_values,
    solve_banded,
    solveh_banded,
)
from stf_spde.solver import NewtonDivergence, _porous_noise, _step_rhs


def porous_residual(grid, v, dt, m, rhs):
    return v - dt * laplacian_values(grid, signed_power_values(v, m)) - rhs


def diffusion_band(grid, d, dt):
    """Band (3, N) of I - dt Lap_h diag(d)."""
    h2 = grid.h * grid.h
    ab = np.empty((3,) + d.shape)
    ab[0] = -dt * d / h2
    ab[1] = 1.0 + 2.0 * dt * d / h2
    ab[2] = -dt * d / h2
    return ab


def heat_step(grid, u, xi, dw, dt, sigma):
    """One semi-implicit heat step on one row of raw nodal values.

    Solves (I - dt Lap_h) v = u + dt xi^{[1/2]} + sigma u dw.

    Raises:
        NewtonDivergence: the right-hand side is not finite.
    """
    rhs = _step_rhs(u, xi, sigma * u * dw, dt)
    if not np.all(np.isfinite(rhs)):
        raise NewtonDivergence(f"non-finite heat right-hand side (dt {dt:.3e})")
    return solveh_banded(_implicit_band(grid, dt), rhs)


def newton_porous(grid, u_start, rhs, dt, m, config):
    """Damped Newton for v - dt Lap_h v^{[m]} = rhs; returns (v, iterations).

    It starts from the lagged-diffusivity step, the solve of
    (I - dt Lap_h diag(|u|^{m-1})) v = rhs, when u_start and rhs are
    finite, and from u_start otherwise.
    """
    v = u_start.copy()
    if np.isfinite(u_start).all() and np.isfinite(rhs).all():
        v = solve_banded(diffusion_band(grid, np.abs(u_start) ** (m - 1), dt), rhs)
    fv = porous_residual(grid, v, dt, m, rhs)
    rn = norm_values(grid, fv, "L2")
    target = config.newton_tol * (1.0 + norm_values(grid, rhs, "L2"))
    if not np.isfinite(rn):
        raise NewtonDivergence(f"non-finite starting residual {rn} (dt {dt:.3e})")
    iterations = 0
    while rn > target:
        if iterations >= config.newton_max_iter:
            raise NewtonDivergence(
                f"no convergence in {config.newton_max_iter} iterations "
                f"(residual {rn:.3e}, target {target:.3e}, dt {dt:.3e})"
            )
        delta = solve_banded(diffusion_band(grid, m * np.abs(v) ** (m - 1), dt), -fv)
        lam = 1.0
        for _ in range(config.newton_max_halvings + 1):
            trial = v + lam * delta
            ft = porous_residual(grid, trial, dt, m, rhs)
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


def advance(problem, u, xi_k, dw, dt, cfg, counts, depth=0):
    """One step of one row, retried on two half steps up to cfg.dt_retries deep.

    counts is a dict with "newton_iterations" and "dt_retries", updated in
    place, so a failing row keeps the counts of the steps it finished.
    """
    grid = problem.qwiener.grid
    try:
        if problem.example == "heat_sqrt_drift":
            return heat_step(grid, u, xi_k, dw, dt, problem.sigma)
        rhs = _step_rhs(u, xi_k, _porous_noise(problem, u, xi_k, dw), dt)
        v, its = newton_porous(grid, u, rhs, dt, problem.m, cfg)
        counts["newton_iterations"] += its
        return v
    except NewtonDivergence:
        if depth >= cfg.dt_retries:
            raise
        counts["dt_retries"] += 1
        half = 0.5 * dw
        mid = advance(problem, u, xi_k, half, 0.5 * dt, cfg, counts, depth + 1)
        return advance(problem, mid, xi_k, half, 0.5 * dt, cfg, counts, depth + 1)


def march(problem, u, xi_rows, inc, dt, start, stop, cfg):
    """Each path alone, step by step from row start, in place.

    u, xi_rows and inc are stacked per path as the solver's march takes
    them. Returns each path's (Newton iterations, dt retries, error message
    or None); a failed path's rows past its failure are left as they were.
    """
    basis = problem.qwiener.basis
    records = []
    for p in range(len(u)):
        counts = {"newton_iterations": 0, "dt_retries": 0}
        error = None
        try:
            for k in range(start, stop):
                u[p, k + 1] = advance(
                    problem, u[p, k], xi_rows[p, k], inc[p, k] @ basis, dt, cfg, counts
                )
        except NewtonDivergence as exc:
            error = str(exc)
        records.append((counts["newton_iterations"], counts["dt_retries"], error))
    return records
