"""Q-Wiener noise: direct Gaussian increments and the dyadic midpoint build.

The covariance operator Q is diagonal in the Dirichlet sine basis
psi_i(x) = sqrt(2) sin(i pi x), whose samples on the interior nodes are
discretely orthonormal in L2. A QWienerSpec fixes the retained modes and
their eigenvalues lambda_i > 0 (trace class). Two constructions share it:

  * sample_increments draws the independent N(0, lambda_i dt) mode
    increments used to feed time steppers (sample_increments_batch draws
    them for many seeds at once, each path bit for bit its single-seed
    draw), and
  * lc_scalar_bm / lc_q_wiener build Brownian paths level by level, each
    dyadic midpoint displaced by an independent Gaussian times
    2^{-(m+1)/2}; this is the partial sum of the tent-function series
    B_n(t) = xi_0 t + sum_m sum_k xi_{k,m} S_{k,m}(t), evaluated at the
    depth-n dyadic points, and refining the level never changes the
    values already produced.

haar_function / schauder_function give the step and tent functions in
closed form, and tail_bound_probe compares the Monte Carlo frequency of a
level's largest squared coefficient clearing a threshold with the
square-root-tail approximation that drives the uniform-convergence
argument for the series.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .grids import SpatialGrid
from .projection import TimeGrid, Trajectory
from .rng import derive_key, gaussian_stream, standard_normal_rows

__all__ = [
    "QWienerSpec",
    "NoisePath",
    "ScalarBMPath",
    "QWienerLCPath",
    "haar_function",
    "schauder_function",
    "lc_scalar_bm",
    "lc_q_wiener",
    "sample_increments",
    "sample_increments_batch",
    "tail_bound_probe",
    "save_noise_path",
    "load_noise_path",
]

# stream namespaces, so one master seed can feed several constructions
# without any draw being shared between them
_STREAM_LC_LEVEL = 0
_STREAM_LC_MODE = 1
_STREAM_INCREMENTS = 2
_STREAM_TAIL = 3

# seeds per draw in sample_increments_batch: bounds the key list and the
# scratch rows, whatever the number of paths
_DRAW_CHUNK = 1024

_HEADER = struct.Struct("<qqQ")  # n_steps, n_modes, seed (seed is unsigned)


@dataclass(frozen=True, eq=False)
class QWienerSpec:
    """Sine eigenbasis on a SpatialGrid with trace-class eigenvalues.

    Attributes:
        grid: spatial grid the basis is sampled on.
        eigenvalues: lambda_i > 0 for the retained modes i = 1..n_modes.
        decay_exponent: s when the eigenvalues follow i^{-2s}, else None.
        basis: (n_modes, n_interior) matrix of sqrt(2) sin(i pi x_j).
    """

    grid: SpatialGrid
    eigenvalues: np.ndarray
    decay_exponent: float | None = None

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=float).copy()
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("eigenvalues must be a nonempty vector")
        if lam.size > self.grid.n_interior:
            raise ValueError(
                f"{lam.size} modes cannot be resolved on "
                f"{self.grid.n_interior} interior nodes"
            )
        if not np.all(lam > 0):
            raise ValueError("all eigenvalues must be positive")
        lam.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        modes = np.arange(1, lam.size + 1)
        basis = np.sqrt(2.0) * np.sin(
            np.pi * modes[:, None] * self.grid.nodes[None, :]
        )
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @classmethod
    def power_decay(
        cls, grid: SpatialGrid, n_modes: int | None = None, decay_exponent: float = 1.0
    ) -> "QWienerSpec":
        """Spec with lambda_i = i^{-2s}; s must exceed 1/2 for a finite trace."""
        if decay_exponent <= 0.5:
            raise ValueError(
                f"decay exponent {decay_exponent} leaves sum i^(-2s) divergent; "
                "need s > 1/2 for a trace-class covariance"
            )
        if n_modes is None:
            n_modes = grid.n_interior
        if n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {n_modes}")
        lam = np.arange(1, n_modes + 1, dtype=float) ** (-2.0 * decay_exponent)
        return cls(grid, lam, decay_exponent)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size

    @property
    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Mode increments DW[k][i] ~ N(0, lambda_i dt) on a TimeGrid."""

    timegrid: TimeGrid
    increments: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float).copy()
        if inc.ndim != 2 or inc.shape[0] != self.timegrid.n_steps:
            raise ValueError(
                f"increments shape {inc.shape} does not match "
                f"{self.timegrid.n_steps} time steps"
            )
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)

    @property
    def n_modes(self) -> int:
        return self.increments.shape[1]


def sample_increments_batch(
    spec: QWienerSpec, timegrid: TimeGrid, seeds
) -> np.ndarray:
    """Mode increments of many noise paths, (paths, n_steps, n_modes).

    Path p is drawn from seeds[p] exactly as sample_increments draws it,
    bit for bit, whatever the other seeds. The draws go in chunks of a
    fixed number of seeds, so memory beyond the result stays bounded.
    """
    seeds = list(seeds)
    scale = np.sqrt(spec.eigenvalues * timegrid.dt)
    out = np.empty((len(seeds), timegrid.n_steps, spec.n_modes))
    for a in range(0, len(seeds), _DRAW_CHUNK):
        draws = standard_normal_rows(
            seeds[a : a + _DRAW_CHUNK],
            (_STREAM_INCREMENTS,),
            spec.n_modes,
            timegrid.n_steps,
        )
        out[a : a + _DRAW_CHUNK] = draws.transpose(0, 2, 1) * scale
    return out


def sample_increments(spec: QWienerSpec, timegrid: TimeGrid, seed: int) -> NoisePath:
    """Draw the independent N(0, lambda_i dt) mode increments.

    Mode i = 1..n_modes gets its own counter-based stream keyed by
    (seed, mode), so any sub-block of modes can be regenerated alone and
    extending the truncation leaves earlier modes untouched.
    """
    return NoisePath(timegrid, sample_increments_batch(spec, timegrid, [seed])[0], seed)


def save_noise_path(noise: NoisePath, path: str) -> None:
    """Write header (n_steps, n_modes signed, seed unsigned; little-endian 64-bit) + row-major float64."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(noise.timegrid.n_steps, noise.n_modes, noise.seed))
        fh.write(np.ascontiguousarray(noise.increments).tobytes())


def load_noise_path(
    path: str, T: float = 1.0, dyadic_level: int | None = None
) -> NoisePath:
    """Read a file written by save_noise_path; the horizon is not stored."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path} is too short for a noise-path header")
        n_steps, n_modes, seed = _HEADER.unpack(head)
        body = fh.read()
    expected = n_steps * n_modes * 8
    if len(body) != expected:
        raise ValueError(
            f"{path} holds {len(body)} payload bytes, expected {expected}"
        )
    inc = np.frombuffer(body, dtype="<f8").reshape(n_steps, n_modes)
    return NoisePath(TimeGrid(n_steps, T=T, dyadic_level=dyadic_level), inc, seed)


def _check_haar_args(k: int, n: int, t: np.ndarray) -> None:
    if n < 0:
        raise ValueError(f"level n must be >= 0, got {n}")
    if n == 0:
        if k != 1:
            raise ValueError(f"level 0 only has the constant k = 1, got k={k}")
    else:
        if k % 2 == 0:
            raise ValueError(f"k must be odd, got {k}")
        if not 1 <= k <= 2**n:
            raise ValueError(f"k must lie in 1..2^{n}, got {k}")
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t must lie in [0, 1]")


def haar_function(k: int, n: int, t) -> np.ndarray | float:
    """Step function of the dyadic system: +2^{(n-1)/2} on ((k-1)2^-n, k 2^-n],
    -2^{(n-1)/2} on (k 2^-n, (k+1) 2^-n], 0 elsewhere; the (1, 0) member is
    the constant 1.

    Args:
        k: odd shift, 1 <= k <= 2^n (k = 1 when n = 0).
        n: level, >= 0.
        t: scalar or array of times in [0, 1].

    Returns:
        Value(s), scalar when t is scalar.
    """
    ts = np.asarray(t, dtype=float)
    _check_haar_args(k, n, ts)
    if n == 0:
        out = np.ones_like(ts)
    else:
        height = 2.0 ** ((n - 1) / 2.0)
        left, mid, right = (k - 1) * 2.0**-n, k * 2.0**-n, (k + 1) * 2.0**-n
        out = np.where(
            (ts > left) & (ts <= mid),
            height,
            np.where((ts > mid) & (ts <= right), -height, 0.0),
        )
    return float(out) if np.isscalar(t) else out


def schauder_function(k: int, n: int, t) -> np.ndarray | float:
    """Tent function: the running integral of haar_function, in closed form.

    Vanishes outside ((k-1)2^-n, (k+1)2^-n), rises linearly to its peak
    2^{-(n+1)/2} at k 2^-n, and falls back; the (1, 0) member is t itself.
    """
    ts = np.asarray(t, dtype=float)
    _check_haar_args(k, n, ts)
    if n == 0:
        out = ts.copy()
    else:
        height = 2.0 ** ((n - 1) / 2.0)
        left, mid, right = (k - 1) * 2.0**-n, k * 2.0**-n, (k + 1) * 2.0**-n
        out = np.where(
            (ts > left) & (ts <= mid),
            height * (ts - left),
            np.where((ts > mid) & (ts <= right), height * (right - ts), 0.0),
        )
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True, eq=False)
class ScalarBMPath:
    """Brownian values at the 2^level + 1 dyadic points of [0, 1]."""

    level: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).copy()
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if vals.shape != (2**self.level + 1,):
            raise ValueError(
                f"level {self.level} needs {2**self.level + 1} values, "
                f"got {vals.shape}"
            )
        if vals[0] != 0.0:
            raise ValueError("a Brownian path starts at zero")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, 2**self.level + 1)


def lc_scalar_bm(level: int, seed: int) -> ScalarBMPath:
    """Brownian path on the depth-`level` dyadic points by midpoint displacement.

    Stage 0 draws B(1); stage m = 1..level fills the odd multiples of
    2^-m with the average of their neighbors plus an independent Gaussian
    scaled by 2^{-(m+1)/2} (the tent function's peak height). Stage m
    reads stream (seed, m) left to right, so a deeper path reproduces a
    shallower one bit for bit at the shared points.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    b = np.zeros(2**level + 1)
    b[-1] = gaussian_stream(seed, _STREAM_LC_LEVEL, 0).standard_normal()
    for m in range(1, level + 1):
        xi = gaussian_stream(seed, _STREAM_LC_LEVEL, m).standard_normal(2 ** (m - 1))
        step = 2 ** (level - m)
        b[step :: 2 * step] = 0.5 * (
            b[0 : -1 : 2 * step] + b[2 * step :: 2 * step]
        ) + 2.0 ** (-(m + 1) / 2.0) * xi
    return ScalarBMPath(level, b)


@dataclass(frozen=True, eq=False)
class QWienerLCPath:
    """Mode-wise midpoint-displacement paths of one Q-Wiener path."""

    spec: QWienerSpec
    level: int
    seed: int
    mode_paths: tuple[ScalarBMPath, ...]

    def trajectory(self) -> Trajectory:
        """W(t_j) = sum_i sqrt(lambda_i) psi_i B_i(t_j) at every dyadic node j."""
        scaled = np.sqrt(self.spec.eigenvalues)[:, None] * np.array(
            [p.values for p in self.mode_paths]
        )
        timegrid = TimeGrid(2**self.level, T=1.0, dyadic_level=self.level)
        return Trajectory.from_matrix(
            timegrid, self.spec.grid, scaled.T @ self.spec.basis
        )

    def increments_path(self) -> NoisePath:
        """The path's node-to-node mode increments, ready to drive a solve.

        Because refining the level keeps every coarse node fixed, the
        increments at level L are exact pairwise sums of those at level
        L + 1: the family is a dyadically consistent discretization of one
        underlying noise path.
        """
        values = np.stack([p.values for p in self.mode_paths], axis=1)
        inc = np.diff(values, axis=0) * np.sqrt(self.spec.eigenvalues)
        timegrid = TimeGrid(2**self.level, T=1.0, dyadic_level=self.level)
        return NoisePath(timegrid, inc, seed=self.seed)


def lc_q_wiener(spec: QWienerSpec, level: int, seed: int) -> QWienerLCPath:
    """Independent midpoint-displacement path per retained mode.

    Mode i's path is built from the master seed re-keyed by (seed, i), so
    truncating or extending the mode count never changes the paths of the
    modes kept.
    """
    paths = tuple(
        lc_scalar_bm(level, derive_key(seed, _STREAM_LC_MODE, i + 1))
        for i in range(spec.n_modes)
    )
    return QWienerLCPath(spec, level, seed, paths)


def tail_bound_probe(
    n: int,
    a_n: float,
    c1: float,
    trials: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Frequency of the level's largest squared draw clearing its threshold.

    Monte Carlo estimate of P(max over the 2^{n-1} level-n coefficients of
    xi^2 > 2^{n+1} a_n^2 / c1), paired with the square-root tail
    approximation

        sqrt(c1 / pi) * 2^{n/2 - 1} * a_n^{-1} * exp(-2^n a_n^2 / c1),

    i.e. the union bound with P(chi2_1 > x) ~ sqrt(2/(pi x)) e^{-x/2} at
    x = 2^{n+1} a_n^2 / c1. With a_n = 0 the threshold is zero, every
    trial clears it, and the approximation is infinite.

    Args:
        n: level, >= 1 (there are 2^{n-1} coefficients).
        a_n: nonnegative deviation.
        c1: positive trace constant.
        trials: Monte Carlo sample count.
        seed: stream seed.

    Returns:
        (empirical_prob, analytic_approx).
    """
    if n < 1:
        raise ValueError(f"level n must be >= 1, got {n}")
    if a_n < 0:
        raise ValueError(f"a_n must be nonnegative, got {a_n}")
    if c1 <= 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    width = 2 ** (n - 1)
    threshold = 2.0 ** (n + 1) * a_n * a_n / c1
    stream = gaussian_stream(seed, _STREAM_TAIL, n)
    hits = 0
    done = 0
    chunk = max(1, 2**20 // width)
    while done < trials:
        take = min(chunk, trials - done)
        draws = stream.standard_normal((take, width))
        hits += int(np.count_nonzero(np.max(draws * draws, axis=1) > threshold))
        done += take
    empirical = hits / trials
    if a_n == 0.0:
        analytic = np.inf
    else:
        analytic = (
            np.sqrt(c1 / np.pi)
            * 2.0 ** (n / 2.0 - 1.0)
            / a_n
            * np.exp(-(2.0**n) * a_n * a_n / c1)
        )
    return empirical, float(analytic)
