"""Backward block averaging of trajectories on dyadic time partitions.

A Trajectory holds a path as one (n_steps + 1, N) array sampled on a
uniform mesh of [0, T] that is nested in a dyadic partition with 2^n
blocks. proj_shifted replaces the path on each dyadic block by a constant:
a prescribed seed field on block 0 and, on block k >= 1, the trapezoid
average of the path over block k-1. Averaging only ever looks backward, so
the output on [0, t) is determined by the input on [0, t] alone; this is
the adaptedness property the construction exists for.

Time regularity is measured by the discrete fractional Sobolev norm

    ( sum_k dt |u(t_k)|^p
      + sum_{i != j} dt^2 |u(t_i) - u(t_j)|^p / |t_i - t_j|^{1 + alpha p}
    )^{1/p}

with left Riemann sums over k, i, j = 0..n_steps-1 and the diagonal
excluded. haar_rate_experiment fits the decay of |proj_n(x) - x| in the
time-Lp norm against the level n for a family of trajectories.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .grids import (
    Field,
    SpatialGrid,
    _implicit_band,
    _neg_lap_cholesky,
    norm_values,
    solve_factor_transposed,
    solveh_banded,
)

__all__ = [
    "TimeGrid",
    "Trajectory",
    "HaarLevel",
    "RateFit",
    "proj_shifted",
    "smoothed_seed",
    "fractional_seminorm",
    "haar_rate_experiment",
    "trajectory_lp_norm",
    "trajectory_to_csv",
    "trajectory_from_csv",
]

_HILBERT_KINDS = ("L2", "V_H1", "Hminus1")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform mesh of [0, T] with n_steps steps, optionally dyadically nested."""

    n_steps: int
    T: float = 1.0
    dyadic_level: int | None = None

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.T > 0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if self.dyadic_level is not None:
            if self.dyadic_level < 0:
                raise ValueError(f"dyadic_level must be >= 0, got {self.dyadic_level}")
            if self.n_steps % 2**self.dyadic_level != 0:
                raise ValueError(
                    f"n_steps={self.n_steps} is not divisible by "
                    f"2^{self.dyadic_level} blocks"
                )

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Path on a SpatialGrid sampled at the n_steps + 1 nodes of a TimeGrid.

    The samples live in one read-only (n_steps + 1, n_interior) float
    array, values, whose row k is the sample at t_k. An ensemble of paths
    on the same grids stacks them on one leading path axis,
    (paths, n_steps + 1, n_interior); path(p) takes path p out as a
    one-path Trajectory, and the one-path readers (the CSV writer, the
    norms and estimators) raise ValueError on a stacked one. The
    constructor copies its input once into C order, so equal values give
    equal bits whatever the input's layout, and checks the shape;
    from_matrix is the same constructor under its documented name.
    """

    timegrid: TimeGrid
    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float, order="C")
        rows = (self.timegrid.n_steps + 1, self.grid.n_interior)
        if vals.shape[-2:] != rows or vals.ndim not in (2, 3) or vals.size == 0:
            raise ValueError(
                f"matrix shape {vals.shape} does not match {rows} "
                f"or (paths,) + {rows} with at least one path"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n_paths(self) -> int | None:
        """Length of the leading path axis; None for a one-path trajectory."""
        return len(self.values) if self.values.ndim == 3 else None

    def path(self, p: int) -> "Trajectory":
        """Path p of a stacked trajectory, as a one-path Trajectory."""
        if self.n_paths is None:
            raise ValueError("a one-path trajectory has no path axis to index")
        return Trajectory(self.timegrid, self.grid, self.values[p])

    def stacked(self) -> np.ndarray:
        """Samples as a writable copy of values."""
        return self.values.copy()

    @classmethod
    def from_matrix(
        cls, timegrid: TimeGrid, grid: SpatialGrid, matrix: np.ndarray
    ) -> "Trajectory":
        return cls(timegrid, grid, matrix)

    @classmethod
    def constant(cls, timegrid: TimeGrid, value: Field) -> "Trajectory":
        shape = (timegrid.n_steps + 1, value.grid.n_interior)
        return cls(timegrid, value.grid, np.broadcast_to(value.values, shape))


def _one_path(traj: Trajectory, reader: str) -> None:
    """Raise ValueError if traj stacks paths: reader reads one path only."""
    if traj.n_paths is not None:
        raise ValueError(
            f"{reader} reads one path, but this trajectory stacks "
            f"{traj.n_paths} on a leading path axis; take one with path(p)"
        )


@dataclass(frozen=True)
class HaarLevel:
    """Dyadic depth n >= 1 together with the seed field used on block 0."""

    n: int
    seed_field: Field

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dyadic level must be >= 1, got {self.n}")


def _block_average(u: np.ndarray, k: int, s: int) -> np.ndarray:
    """Trapezoid average of the samples u over block k of s fine steps.

    u is (rows, N) or a stack of them, (paths, rows, N); each path's
    average has the bits of its own 2-D call.
    """
    a, b = k * s, (k + 1) * s
    inner = u[..., a + 1 : b, :].sum(axis=-2)
    return (0.5 * (u[..., a, :] + u[..., b, :]) + inner) / s


def _shifted_rows(u: np.ndarray, level: HaarLevel, s: int) -> np.ndarray:
    """proj_shifted on raw rows, (rows, N) or (paths, rows, N).

    Reads u on rows 0 .. (2^n - 1) s only.
    """
    blocks = 2**level.n
    out = np.empty(u.shape[:-2] + (blocks * s + 1, u.shape[-1]))
    out[..., :s, :] = level.seed_field.values
    for k in range(1, blocks):
        out[..., k * s : (k + 1) * s, :] = _block_average(u, k - 1, s)[..., None, :]
    out[..., -1, :] = out[..., -2, :]
    return out


def proj_shifted(traj: Trajectory, level: HaarLevel) -> Trajectory:
    """Replace each dyadic block by the previous block's trapezoid average.

    Block 0 of the output is the level's seed field; block k >= 1 is the
    constant equal to the average of traj over block k-1, computed by the
    trapezoid rule on the fine mesh (both block-boundary samples carry
    half weight). The final node at t = T carries the last block's value.

    Args:
        traj: input trajectory; its n_steps must be divisible by 2^level.n.
        level: dyadic depth and seed field (on the same spatial grid).

    Returns:
        Trajectory that is constant within every dyadic block.
    """
    tg = traj.timegrid
    blocks = 2**level.n
    if tg.n_steps % blocks != 0:
        raise ValueError(
            f"n_steps={tg.n_steps} is not divisible by the 2^{level.n} "
            "dyadic blocks"
        )
    if level.seed_field.grid != traj.grid:
        raise ValueError("seed field lives on a different spatial grid")
    out = _shifted_rows(traj.values, level, tg.n_steps // blocks)
    return Trajectory.from_matrix(tg, traj.grid, out)


def smoothed_seed(u0: Field, n: int) -> Field:
    """Solve (I - 2^{-n} Lap_h) w = u0, a one-step implicit smoothing of u0.

    The result is the default block-0 seed: it lies in the discrete H1_0
    space and approaches u0 in L2 as n grows (for the k-th discrete sine
    mode it equals u0 / (1 + 2^{-n} mu_k) exactly).
    """
    if n < 1:
        raise ValueError(f"smoothing level must be >= 1, got {n}")
    band = _implicit_band(u0.grid, 2.0**-n)
    # the LAPACK seam takes non-finite input silently; a NaN datum raises here
    return Field(u0.grid, solveh_banded(band, np.asarray_chkfinite(u0.values)))


def _euclidean_embedding(grid: SpatialGrid, u: np.ndarray, kind: str) -> np.ndarray:
    """Rows e_i with |e_i - e_j|_2 = |u_i - u_j|_kind, for the Hilbert kinds."""
    h = grid.h
    if kind == "L2":
        return np.sqrt(h) * u
    if kind == "V_H1":
        diffs = np.diff(u, axis=1, prepend=0.0, append=0.0)
        return diffs / np.sqrt(h)
    if kind == "Hminus1":
        # -Lap_h = R^T R (banded Cholesky, R upper bidiagonal), so
        # |f|_Hminus1^2 = h f^T (R^T R)^{-1} f = |sqrt(h) R^{-T} f|_2^2.
        x = solve_factor_transposed(
            _neg_lap_cholesky(grid.n_interior), np.asarray_chkfinite(u).T
        )
        return np.sqrt(h) * x.T
    raise ValueError(f"unknown norm kind {kind!r}")


def fractional_seminorm(
    traj: Trajectory,
    alpha: float,
    p: float,
    norm_kind: str = "L2",
    spatial_p: float | None = None,
) -> float:
    """Discrete fractional Sobolev norm of a trajectory in time.

    Computes the p-th root of

        sum_k dt |u(t_k)|^p
        + sum_{i != j} dt^2 |u(t_i) - u(t_j)|^p / |t_i - t_j|^{1 + alpha p}

    with both sums running over the left nodes k, i, j = 0..n_steps-1 and
    |.| the spatial norm norm_kind (pass spatial_p for kind "Lp").

    Args:
        traj: the trajectory.
        alpha: fractional order, strictly inside (0, 1).
        p: time integrability exponent, >= 1.
        norm_kind: spatial norm kind ("L2", "V_H1", "Hminus1", "Lp").
        spatial_p: exponent for the "Lp" spatial kind.

    Returns:
        The norm value (nonnegative).
    """
    _one_path(traj, "fractional_seminorm")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if p < 1:
        raise ValueError(f"time exponent p must be >= 1, got {p}")
    tg = traj.timegrid
    n, dt = tg.n_steps, tg.dt
    grid = traj.grid
    u = traj.values[:n]
    # weight of the gap g = |i - j|: dt^2 / (g dt)^{1 + alpha p}
    gap_w = dt * dt / (dt * np.arange(1, n)) ** (1.0 + alpha * p)
    if norm_kind in _HILBERT_KINDS:
        e = _euclidean_embedding(grid, u, norm_kind)

        def norm_p(d):
            return np.einsum("ij,ij->i", d, d) ** (0.5 * p)

    elif norm_kind == "Lp":
        if spatial_p is None:
            raise ValueError('norm kind "Lp" needs spatial_p')
        e = u

        def norm_p(d):
            return norm_values(grid, d, "Lp", spatial_p) ** p

    else:
        raise ValueError(f"unknown norm kind {norm_kind!r}")
    acc = 0.0
    for g in range(1, n):
        acc += gap_w[g - 1] * np.sum(norm_p(e[g:] - e[:-g]))
    total = dt * np.sum(norm_p(e)) + 2.0 * acc
    return float(total ** (1.0 / p))


def trajectory_lp_norm(
    traj: Trajectory,
    norm_kind: str,
    p: float,
    spatial_p: float | None = None,
) -> float:
    """Left-Riemann time-Lp norm (sum_k dt |u(t_k)|^p_kind)^{1/p}."""
    _one_path(traj, "trajectory_lp_norm")
    return _matrix_lp_norm(
        traj.grid, traj.values, traj.timegrid.dt, norm_kind, p, spatial_p
    )


def _matrix_lp_norm(
    grid: SpatialGrid,
    u: np.ndarray,
    dt: float,
    norm_kind: str,
    p: float,
    spatial_p: float | None = None,
) -> float:
    if p < 1:
        raise ValueError(f"time exponent p must be >= 1, got {p}")
    vals = norm_values(grid, u[:-1], norm_kind, spatial_p)
    return float((dt * np.sum(vals**p)) ** (1.0 / p))


@dataclass(frozen=True, eq=False)
class RateFit:
    """Per-trajectory decay of |proj_n(x) - x| against the level n."""

    levels: tuple[int, ...]
    errors: np.ndarray  # (n_trajectories, n_levels)
    slopes: np.ndarray  # (n_trajectories,), nan where the error vanishes
    exact: np.ndarray  # True where every level reproduced the input exactly
    alpha: float

    @property
    def slope(self) -> float:
        """Median fitted slope over the trajectories with nonzero error."""
        finite = self.slopes[np.isfinite(self.slopes)]
        if finite.size == 0:
            raise ValueError("every trajectory was reproduced exactly; no slope")
        return float(np.median(finite))


def haar_rate_experiment(
    trajs: list[Trajectory] | tuple[Trajectory, ...],
    levels: tuple[int, ...] | range,
    alpha: float,
    p: float,
    norm_kind: str = "L2",
    spatial_p: float | None = None,
) -> RateFit:
    """Fit the decay rate of the block-averaging error over dyadic levels.

    For each trajectory x the block-0 seed is x's own initial sample, so a
    constant trajectory is reproduced exactly (reported via the exact
    mask, with slope nan). For the others the per-level error
    |proj_n(x) - x| in the time-Lp norm is fitted by least squares in
    log2(error) against n.

    Args:
        trajs: family of trajectories sharing compatible time grids.
        levels: at least three dyadic depths n.
        alpha: fractional order the decay is compared against (recorded).
        p: time integrability exponent of the error norm.
        norm_kind: spatial norm kind; spatial_p as in fractional_seminorm.

    Returns:
        RateFit with per-level errors and per-trajectory slopes.
    """
    levels = tuple(int(n) for n in levels)
    if len(levels) < 3:
        raise ValueError(f"rate fit needs at least 3 levels, got {len(levels)}")
    errors = np.empty((len(trajs), len(levels)))
    for i, traj in enumerate(trajs):
        _one_path(traj, "haar_rate_experiment")
        u = traj.values
        start = Field(traj.grid, u[0])
        for j, n in enumerate(levels):
            proj = proj_shifted(traj, HaarLevel(n, start))
            errors[i, j] = _matrix_lp_norm(
                traj.grid,
                proj.values - u,
                traj.timegrid.dt,
                norm_kind,
                p,
                spatial_p,
            )
    slopes = np.full(len(trajs), np.nan)
    exact = np.zeros(len(trajs), dtype=bool)
    lev = np.asarray(levels, dtype=float)
    for i in range(len(trajs)):
        nonzero = errors[i] > 0.0
        exact[i] = not nonzero.any()
        if np.count_nonzero(nonzero) >= 3:
            slopes[i] = np.polyfit(lev[nonzero], np.log2(errors[i][nonzero]), 1)[0]
    errors.flags.writeable = False
    slopes.flags.writeable = False
    exact.flags.writeable = False
    return RateFit(levels, errors, slopes, exact, alpha)


def _write_csv(path: str, header, row_format: str, rows) -> None:
    """Write the header, then row_format % row for each row, as CRLF lines.

    Every table the package writes goes through here; floats are %.17g.
    """
    line = row_format + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % tuple(row) for row in rows)


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Write one row per time node: t, u(x_1), ..., u(x_N), 17 significant digits."""
    _one_path(traj, "trajectory_to_csv")
    header = ["t"] + [f"u_{j}" for j in range(1, traj.grid.n_interior + 1)]
    rows = np.column_stack([traj.timegrid.times, traj.values]).tolist()
    _write_csv(path, header, ",".join(["%.17g"] * len(header)), rows)


def trajectory_from_csv(path: str, dyadic_level: int | None = None) -> Trajectory:
    """Read a trajectory written by trajectory_to_csv.

    The horizon is recovered from the last time entry and the spatial grid
    from the column count; pass dyadic_level to restore the dyadic nesting
    annotation (it is not stored in the file).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    if len(header) < 3 or header[0] != "t":
        raise ValueError(f"{path} is not a trajectory file")
    data = np.asarray(rows)
    timegrid = TimeGrid(data.shape[0] - 1, T=data[-1, 0], dyadic_level=dyadic_level)
    grid = SpatialGrid(data.shape[1] - 1)
    return Trajectory.from_matrix(timegrid, grid, data[:, 1:])
