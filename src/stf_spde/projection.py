"""Backward block averaging of trajectories on dyadic time partitions.

A Trajectory holds a path as one (n_steps + 1, N) array sampled on a
uniform mesh of [0, T]; a level n cuts that mesh into 2^n dyadic blocks of
equal length. proj_shifted replaces the path on each block by a constant:
a prescribed seed field on block 0 and, on block k >= 1, the trapezoid
average of the path over block k-1. Averaging only ever looks backward, so
the output on [0, t) is determined by the input on [0, t] alone; this is
the adaptedness property the construction exists for.

Time regularity is measured by the discrete fractional Sobolev norm

    ( sum_k dt |u(t_k)|^2
      + sum_{i != j} dt^2 |u(t_i) - u(t_j)|^2 / |t_i - t_j|^{1 + 2 alpha}
    )^{1/2}

in a Hilbert norm |.|, with left Riemann sums over k, i, j =
0..n_steps-1 and the diagonal excluded. haar_rate_experiment fits the
decay of |proj_n(x) - x| in the time-L2 norm against the level n for a
family of trajectories.
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

@dataclass(frozen=True)
class TimeGrid:
    """Uniform mesh of [0, T] with n_steps steps."""

    n_steps: int
    T: float = 1.0

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not 0 < self.T < np.inf:
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")

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
    one-path Trajectory. The norms and estimators give a float for one
    path and one value per path for a stack; the CSV writer raises
    ValueError on a stack. The constructor copies its input once into C
    order, so equal values give equal bits whatever the input's layout,
    and checks the shape; from_matrix is the same constructor under its
    documented name.
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


def _check_dyadic(timegrid: TimeGrid, level: HaarLevel, grid: SpatialGrid) -> None:
    """Reject a mesh the level's 2^n blocks do not divide, or a seed off grid."""
    if timegrid.n_steps % 2**level.n != 0:
        raise ValueError(
            f"n_steps={timegrid.n_steps} is not divisible by the 2^{level.n} "
            "dyadic blocks"
        )
    if level.seed_field.grid != grid:
        raise ValueError("seed field lives on a different spatial grid")


def _block_averages(u: np.ndarray, s: int) -> np.ndarray:
    """Trapezoid averages of u over its b = (rows - 1) // s blocks, (..., b, N).

    u is (rows, N) or (paths, rows, N). Inner rows add in slice order, so
    each average has the bits of its own block's slice sum, path by path.
    """
    b = (u.shape[-2] - 1) // s
    blocks = u[..., : b * s, :].reshape(u.shape[:-2] + (b, s, u.shape[-1]))
    ends = u[..., : b * s + 1 : s, :]
    inner = blocks[..., 1:, :].sum(axis=-2)
    return (0.5 * (ends[..., :-1, :] + ends[..., 1:, :]) + inner) / s


def _shifted_rows(u: np.ndarray, level: HaarLevel, s: int) -> np.ndarray:
    """proj_shifted on raw rows, (rows, N) or (paths, rows, N).

    Reads u on rows 0 .. (2^n - 1) s only; steps is a view of out by block.
    """
    blocks = 2**level.n
    out = np.empty(u.shape[:-2] + (blocks * s + 1, u.shape[-1]))
    steps = out[..., :-1, :].reshape(u.shape[:-2] + (blocks, s, u.shape[-1]))
    steps[..., 0, :, :] = level.seed_field.values
    averages = _block_averages(u[..., : (blocks - 1) * s + 1, :], s)
    steps[..., 1:, :, :] = averages[..., None, :]
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
    _check_dyadic(tg, level, traj.grid)
    out = _shifted_rows(traj.values, level, tg.n_steps // 2**level.n)
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
        diffs = np.diff(u, axis=-1, prepend=0.0, append=0.0)
        return diffs / np.sqrt(h)
    if kind == "Hminus1":
        # -Lap_h = R^T R (banded Cholesky, R upper bidiagonal), so
        # |f|_Hminus1^2 = h f^T (R^T R)^{-1} f = |sqrt(h) R^{-T} f|_2^2.
        rows = np.asarray_chkfinite(u).reshape(-1, grid.n_interior)
        x = solve_factor_transposed(_neg_lap_cholesky(grid.n_interior), rows.T)
        return np.sqrt(h) * x.T.reshape(u.shape)
    raise ValueError(f"unknown norm kind {kind!r}")


# gaps summed directly by the fractional seminorm; the FFT form takes the rest
_DIRECT_GAPS = 8


def _gap_square_sums(e: np.ndarray) -> np.ndarray:
    """S(g) = sum_{i < n - g} |e_{i+g} - e_i|_2^2 for g = 1..n-1, shape (..., n - 1).

    e is (n, N) or (paths, n, N). Gaps up to _DIRECT_GAPS are summed
    directly; the rest come from S(g) = (P_n - P_g) + P_{n-g} - 2 C(g),
    with P the prefix sums of |e_i|^2 and C(g) = sum_i <e_{i+g}, e_i>
    the autocorrelation, for every lag at once from one zero-padded real
    FFT along time. Each path's rows are centred first: differences do
    not see the shift, and P_n no longer carries the offset that C(g)
    cancels. Every step acts on one path's contiguous block, so a path
    gets the same bits stacked or alone.
    """
    n = e.shape[-2]
    # C order whatever the slices below: the caller's sum over the gaps
    # then pairs each path's terms the same way stacked or alone
    sums = np.empty(e.shape[:-2] + (n - 1,))
    direct = min(n - 1, _DIRECT_GAPS)
    for g in range(1, direct + 1):
        d = e[..., g:, :] - e[..., :-g, :]
        sums[..., g - 1] = np.sum(np.einsum("...ij,...ij->...i", d, d), axis=-1)
    if n - 1 > direct:
        x = np.ascontiguousarray(np.swapaxes(e, -1, -2))  # time on the last axis
        x -= np.mean(x, axis=-1, keepdims=True)
        m = 1 << (2 * n - 2).bit_length()  # a power of two >= 2n - 1: no wrap-around
        f = np.fft.rfft(x, m)
        power = np.sum(f.real**2 + f.imag**2, axis=-2)
        cross = np.fft.irfft(power, m)[..., direct + 1 : n]
        prefix = np.cumsum(np.sum(x * x, axis=-2), axis=-1)  # P_k at index k - 1
        g = np.arange(direct + 1, n)
        sums[..., direct:] = (
            (prefix[..., n - 1 :] - prefix[..., g - 1]) + prefix[..., n - g - 1]
            - 2.0 * cross
        )
    return sums


def _path_roots(total, p: float) -> float | np.ndarray:
    """total ** (1 / p) per path by scalar powers, whose bits array powers miss."""
    if np.ndim(total) == 0:
        return float(total) ** (1.0 / p)
    return np.array([t ** (1.0 / p) for t in total.tolist()])


def fractional_seminorm(
    traj: Trajectory, alpha: float, norm_kind: str = "L2"
) -> float | np.ndarray:
    """Discrete W^{alpha,2} norm of a trajectory in time.

    Computes the square root of

        sum_k dt |u(t_k)|^2
        + sum_{i != j} dt^2 |u(t_i) - u(t_j)|^2 / |t_i - t_j|^{1 + 2 alpha}

    with both sums running over the left nodes k, i, j = 0..n_steps-1 and
    |.| the Hilbert norm norm_kind ("L2", "V_H1" or "Hminus1").

    That norm is the Euclidean norm of an embedding e, so the double sum
    needs only S(g) = sum_{i < n-g} |e_{i+g} - e_i|^2 for every gap g,
    which _gap_square_sums takes from one FFT autocorrelation along time
    in O(paths N n log n). Against a gap-by-gap sum the relative error
    measured at most 1.2e-12 (Hminus1, 31 nodes, alpha = 0.99, n = 4096,
    a smooth path with offset 5).

    Args:
        traj: the trajectory, one path or a stack of them.
        alpha: fractional order, strictly inside (0, 1).
        norm_kind: spatial Hilbert norm kind.

    Returns:
        The norm value (nonnegative): a float, or for a stacked
        trajectory one value per path with the bits of its own call.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n, dt = traj.timegrid.n_steps, traj.timegrid.dt
    # raises on a kind that is not a Hilbert norm
    e = _euclidean_embedding(traj.grid, traj.values[..., :n, :], norm_kind)
    # weight of the gap g = |i - j|: dt^2 / (g dt)^{1 + 2 alpha}
    gap_w = dt * dt / (dt * np.arange(1, n)) ** (1.0 + alpha * 2.0)
    l2_part = dt * np.sum(np.einsum("...ij,...ij->...i", e, e), axis=-1)
    acc = np.sum(gap_w * _gap_square_sums(e), axis=-1)
    return _path_roots(l2_part + 2.0 * acc, 2.0)


def trajectory_lp_norm(traj: Trajectory, norm_kind: str, p: float) -> float | np.ndarray:
    """Left-Riemann time-Lp norm (sum_k dt |u(t_k)|^p_kind)^{1/p}, per path.

    norm_kind is a Hilbert kind ("L2", "V_H1", "Hminus1"); "Lp" raises,
    as it has no spatial exponent here.
    """
    if not 1 <= p < np.inf:
        raise ValueError(f"time exponent p must be in [1, inf), got {p}")
    vals = norm_values(traj.grid, traj.values[..., :-1, :], norm_kind)
    return _path_roots(traj.timegrid.dt * np.sum(vals**p, axis=-1), p)


@dataclass(frozen=True, eq=False)
class RateFit:
    """Per-trajectory decay of |proj_n(x) - x| against the level n."""

    levels: tuple[int, ...]
    errors: np.ndarray  # (n_trajectories, n_levels)
    slopes: np.ndarray  # (n_trajectories,), nan where the error vanishes
    exact: np.ndarray  # True where every level reproduced the input exactly

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
) -> RateFit:
    """Fit the decay rate of the block-averaging error over dyadic levels.

    For each trajectory x the block-0 seed is x's own initial sample, so a
    constant trajectory is reproduced exactly (reported via the exact
    mask, with slope nan). For the others the per-level error
    |proj_n(x) - x| in the time-L2 norm of the spatial L2 norm is fitted
    by least squares in log2(error) against n.

    Args:
        trajs: nonempty family of one-path trajectories; a sequence,
            since a stacked copy of a large family would add to the peak
            memory.
        levels: dyadic depths n, at least three of them distinct.

    Returns:
        RateFit with per-level errors and per-trajectory slopes.
    """
    levels = tuple(int(n) for n in levels)
    if len(set(levels)) < 3:
        raise ValueError(f"rate fit needs at least 3 distinct levels, got {levels}")
    if len(trajs) == 0:
        raise ValueError("rate fit needs at least one trajectory")
    errors = np.empty((len(trajs), len(levels)))
    for i, traj in enumerate(trajs):
        _one_path(traj, "haar_rate_experiment")
        start = Field(traj.grid, traj.values[0])
        for j, n in enumerate(levels):
            proj = proj_shifted(traj, HaarLevel(n, start))
            gap = Trajectory(traj.timegrid, traj.grid, proj.values - traj.values)
            errors[i, j] = trajectory_lp_norm(gap, "L2", 2.0)
    slopes = np.full(len(trajs), np.nan)
    exact = ~np.any(errors > 0.0, axis=1)
    lev = np.asarray(levels, dtype=float)
    for i in range(len(trajs)):
        nonzero = errors[i] > 0.0
        if np.count_nonzero(nonzero) >= 3:
            slopes[i] = np.polyfit(lev[nonzero], np.log2(errors[i][nonzero]), 1)[0]
    for arr in (errors, slopes, exact):
        arr.flags.writeable = False
    return RateFit(levels, errors, slopes, exact)


def _write_csv(path: str, header, row_format: str, rows) -> None:
    """Write the header, then row_format % row for each row, as CRLF lines.

    Every table the package writes goes through here; floats are %.17g.
    """
    line = row_format + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % tuple(row) for row in rows)


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Write one row per time node: t, u(x_1), ..., u(x_N), 17 significant digits.

    A run of consecutive rows with the same bits (a staircase holds 2^n
    distinct rows) has its values formatted once; the bytes are those of
    formatting every row.
    """
    _one_path(traj, "trajectory_to_csv")
    header = ["t"] + [f"u_{j}" for j in range(1, traj.grid.n_interior + 1)]
    # compare bits, not values: -0.0 and 0.0 print apart, and nan repeats
    bits = traj.values.view(np.uint64)
    starts = np.concatenate([[True], np.any(bits[1:] != bits[:-1], axis=1)])
    value_format = ",".join(["%.17g"] * traj.grid.n_interior)
    cells = [value_format % tuple(row) for row in traj.values[starts].tolist()]
    run = (np.cumsum(starts) - 1).tolist()
    rows = zip(traj.timegrid.times.tolist(), (cells[i] for i in run))
    _write_csv(path, header, "%.17g,%s", rows)


def trajectory_from_csv(path: str) -> Trajectory:
    """Read a trajectory written by trajectory_to_csv.

    The t column must be the uniform mesh of [0, T], T its last entry, bit
    for bit; the spatial grid is recovered from the column count.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(v) for v in row] for row in reader if row]
    if len(header) < 3 or header[0] != "t":
        raise ValueError(f"{path} is not a trajectory file")
    if len(rows) < 2:
        raise ValueError(
            f"{path} holds {len(rows)} data rows; a trajectory needs at least 2"
        )
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(
                f"{path} data row {i} has {len(row)} cells, the header {len(header)}"
            )
    data = np.asarray(rows)
    n, T = data.shape[0] - 1, float(data[-1, 0])
    if not 0.0 < T < np.inf or data[:, 0].tobytes() != TimeGrid(n, T).times.tobytes():
        raise ValueError(f"{path} t column is not the uniform mesh of [0, {T!r}]")
    grid = SpatialGrid(data.shape[1] - 1)
    return Trajectory.from_matrix(TimeGrid(n, T), grid, data[:, 1:])
