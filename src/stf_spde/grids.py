"""Uniform 1D Dirichlet grid and the discrete function-space operations.

Everything lives on the interior nodes x_j = j*h, j = 1..N, of a uniform
grid on (0, 1) with h = 1/(N+1) and zero boundary values. The discrete
norms are the h-weighted analogues of the continuum ones:

    |u|_L2      = sqrt(h * sum u_j^2)
    |u|_Lp      = (h * sum |u_j|^p)^(1/p)
    |u|_V_H1    = sqrt(sum over edges h * ((u_{j+1}-u_j)/h)^2), boundary zeros
    |u|_Hminus1 = sqrt(h * sum u_j * ((-Lap_h)^{-1} u)_j)

with Lap_h the 3-point Laplacian (u_{j-1} - 2u_j + u_{j+1})/h^2. Two norm
triples are supported: the heat triple (V = H1_0, H = L2, V* = H^-1) and
the porous triple with exponent m (V = L^{m+1}, H = H^-1,
V* = L^{(m+1)/m}), whose duality pairing routes through (-Lap_h)^{-1}.

All operations are pure functions on raw nodal values. laplacian_values,
inv_neg_laplacian_values, norm_values, signed_power_values and
TripleKind's *_values methods act on the last axis: a 1-D array of nodal
values is one function and a (..., N) array a batch of them. A batch gives
each row the bits of that row alone, except that the Lp norm's final root,
taken as an array power, may differ from the scalar one in the last bit.
Field is the boundary type of initial data and seeds; norm, its one
reader here, stays because the benchmark's layer table wraps it.

Every banded solve in the package goes through the seam below, one
function per LAPACK routine of scipy.linalg.lapack: solve_banded (dgtsv,
general tridiagonal), solveh_banded (dptsv, SPD tridiagonal),
cho_solve_banded (dpbtrs, against a banded Cholesky factor) and
solve_factor_transposed (dgbsv, lower bidiagonal). Each makes the call
scipy.linalg's validating wrapper of the same name would make, so the
bits are the wrapper's, at about a tenth of its cost per call. The seam
keeps scipy's names because the benchmark's layer table wraps them where
they are bound (solve_banded and solveh_banded in solver,
cho_solve_banded here); its signatures are narrowed to what the callers
pass, and none of them checks its input for finiteness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dgbsv, dgtsv, dpbtrs, dptsv

__all__ = [
    "SpatialGrid",
    "Field",
    "TripleKind",
    "laplacian_values",
    "inv_neg_laplacian_values",
    "laplacian_eigenvalue",
    "norm_values",
    "norm",
    "signed_power_values",
    "sine_field",
]


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on (0, 1) with Dirichlet boundary, interior nodes only."""

    n_interior: int

    def __post_init__(self) -> None:
        if self.n_interior < 2:
            raise ValueError(f"n_interior must be >= 2, got {self.n_interior}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_interior + 1)


@dataclass(frozen=True, eq=False)
class Field:
    """Real-valued function on the interior nodes of a SpatialGrid."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_interior,):
            raise ValueError(
                f"field length {vals.shape} does not match grid "
                f"n_interior={self.grid.n_interior}"
            )
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class TripleKind:
    """Which Gelfand-triple norms apply: 'heat' or 'porous' (with exponent m)."""

    name: str
    m: int = 2

    def __post_init__(self) -> None:
        if self.name not in ("heat", "porous"):
            raise ValueError(f"unknown triple kind {self.name!r}")
        if self.name == "porous" and self.m < 1:
            raise ValueError(f"porous triple needs m >= 1, got m={self.m}")

    @classmethod
    def heat(cls) -> "TripleKind":
        return cls("heat")

    @classmethod
    def porous(cls, m: int) -> "TripleKind":
        return cls("porous", m)

    def v_norm_values(self, grid: SpatialGrid, values: np.ndarray) -> float | np.ndarray:
        """|u|_V along the last axis: H1_0 seminorm (heat) or L^{m+1} (porous)."""
        if self.name == "heat":
            return norm_values(grid, values, "V_H1")
        return norm_values(grid, values, "Lp", p=self.m + 1)

    def h_norm_values(self, grid: SpatialGrid, values: np.ndarray) -> float | np.ndarray:
        """|u|_H along the last axis: L2 (heat) or H^-1 (porous)."""
        if self.name == "heat":
            return norm_values(grid, values, "L2")
        return norm_values(grid, values, "Hminus1")

    def vstar_norm_values(self, grid: SpatialGrid, values: np.ndarray) -> float | np.ndarray:
        """|u|_V* along the last axis: H^-1 (heat) or L^{(m+1)/m} (porous)."""
        if self.name == "heat":
            return norm_values(grid, values, "Hminus1")
        return norm_values(grid, values, "Lp", p=(self.m + 1) / self.m)

    def pairing_values(self, grid: SpatialGrid, f: np.ndarray, g: np.ndarray) -> float | np.ndarray:
        """Duality pairing <f, g> between V* and V, along the last axis.

        For the heat triple this is the plain L2 inner product
        h * sum f_j g_j. For the porous triple, where H = H^-1 is the pivot
        space, it is h * sum ((-Lap_h)^{-1} f)_j g_j.
        """
        if self.name == "porous":
            f = inv_neg_laplacian_values(grid, f)
        return grid.h * np.vecdot(f, g)


def laplacian_values(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """(u_{j-1} - 2 u_j + u_{j+1}) / h^2 along the last axis, zero off the grid."""
    h2 = grid.h * grid.h
    out = -2.0 * values
    # .T puts the node axis first for 1-D and batched input alike
    o, v = out.T, values.T
    o[:-1] += v[1:]
    o[1:] += v[:-1]
    return out / h2


def _check_info(routine: str, info: int) -> None:
    """Raise what scipy's wrappers raise on a nonzero LAPACK info."""
    if info > 0:
        raise LinAlgError(f"{routine}: singular or not positive definite (info {info})")
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")


def solve_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a general tridiagonal system by dgtsv.

    Narrowed from scipy.linalg.solve_banded((1, 1), ab, b): ab is the
    float (3, N) band in that layout with N >= 2, and b is (N,) or
    (N, rows). Neither is modified.

    Raises:
        LinAlgError: the matrix is singular.
    """
    _, _, _, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    _check_info("dgtsv", info)
    return x


def solveh_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve an SPD tridiagonal system by dptsv.

    Narrowed from scipy.linalg.solveh_banded(ab, b): ab is the float
    (2, N) upper band in that layout, and b is (N,) or (N, rows); an
    (N, rows) right-hand side is one call. Neither is modified.

    Raises:
        LinAlgError: the matrix is not positive definite.
    """
    _, _, x, info = dptsv(ab[1], ab[0, 1:], b)
    _check_info("dptsv", info)
    return x


def cho_solve_banded(cb: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by dpbtrs, given the upper banded Cholesky factor of A.

    Narrowed from scipy.linalg.cho_solve_banded((cb, False), b): cb is
    the factor cholesky_banded returns in its upper form (it may be
    read-only), and b is (N,) or (N, rows). Neither is modified.
    """
    x, info = dpbtrs(cb, b)
    _check_info("dpbtrs", info)
    return x


def solve_factor_transposed(cb: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve R^T x = b by dgbsv, for an upper bidiagonal Cholesky factor R.

    cb is R in cholesky_banded's (2, N) upper form, and b is (N,) or
    (N, rows). R^T is lower bidiagonal; it is stored in the (3, N) array
    scipy.linalg.solve_banded((1, 0), ...) hands to dgbsv, so the bits are
    that call's. Neither input is modified.

    Raises:
        LinAlgError: R has a zero diagonal entry.
    """
    ab = np.zeros((3, cb.shape[1]))
    ab[1] = cb[1]
    ab[2, :-1] = cb[0, 1:]
    _, _, x, info = dgbsv(1, 0, ab, b, overwrite_ab=True)
    _check_info("dgbsv", info)
    return x


@functools.lru_cache(maxsize=32)
def _neg_lap_cholesky(n_interior: int) -> np.ndarray:
    """Banded Cholesky factor of -Lap_h (SPD tridiagonal), upper form."""
    h2 = 1.0 / (n_interior + 1) ** 2
    ab = np.empty((2, n_interior))
    ab[0] = -1.0 / h2  # superdiagonal
    ab[0, 0] = 0.0
    ab[1] = 2.0 / h2  # diagonal
    factor = cholesky_banded(ab)
    # every caller shares the cached array
    factor.flags.writeable = False
    return factor


def _implicit_band(grid: SpatialGrid, c: float) -> np.ndarray:
    """Upper band of the SPD matrix I - c Lap_h, in solveh_banded's layout."""
    h2 = grid.h * grid.h
    ab = np.empty((2, grid.n_interior))
    ab[0] = -c / h2  # superdiagonal
    ab[0, 0] = 0.0
    ab[1] = 1.0 + 2.0 * c / h2  # diagonal
    return ab


def inv_neg_laplacian_values(grid: SpatialGrid, values: np.ndarray) -> np.ndarray:
    """Solve (-Lap_h) u = f for raw nodal values, along the last axis.

    Any leading shape is one multi-right-hand-side solve over all its
    rows. One step of iterative refinement keeps the residual near machine
    level even for smooth f aligned with the lowest mode, where the plain
    solve's eps * cond(A) residual bound would bite at larger grids:
    laplacian_values(grid, u) = -f to roughly machine precision (max-norm,
    relative to |f|); contract tolerance 1e-12.
    """
    cb = _neg_lap_cholesky(grid.n_interior)
    rows = values.reshape(-1, values.shape[-1])
    # LAPACK solves the columns of an (N, rows) right-hand side; the
    # Fortran-order result transposes back to contiguous rows, on which
    # np.vecdot gives np.dot's bits
    u = cho_solve_banded(cb, rows.T).T
    resid = rows + laplacian_values(grid, u)
    u += cho_solve_banded(cb, resid.T).T
    return u.reshape(values.shape)


def laplacian_eigenvalue(grid: SpatialGrid, k: int) -> float:
    """k-th eigenvalue mu_k = (4/h^2) sin^2(k pi h / 2) of -Lap_h."""
    if not 1 <= k <= grid.n_interior:
        raise ValueError(f"mode k must be in 1..{grid.n_interior}, got {k}")
    h = grid.h
    return (4.0 / (h * h)) * np.sin(0.5 * k * np.pi * h) ** 2


def sine_field(grid: SpatialGrid, k: int, amplitude: float = 1.0) -> Field:
    """Field amplitude * sin(k pi x) sampled at the interior nodes."""
    return Field(grid, amplitude * np.sin(k * np.pi * grid.nodes))


def norm_values(
    grid: SpatialGrid, values: np.ndarray, kind: str, p: float | None = None
) -> float | np.ndarray:
    """Discrete norm of raw nodal values along the last axis.

    A 1-D array gives a float, a (rows, N) array one norm per row. See the
    module docstring for the kinds.
    """
    h = grid.h
    if kind == "L2":
        out = np.sqrt(h * np.vecdot(values, values))
    elif kind == "Lp":
        if p is None or not 1 <= p < np.inf:
            raise ValueError(f"Lp norm needs an exponent 1 <= p < inf, got {p}")
        out = (h * np.sum(np.abs(values) ** p, axis=-1)) ** (1.0 / p)
    elif kind == "V_H1":
        # sum over the N+1 edges, with zero boundary values at both ends
        diffs = np.diff(values, axis=-1, prepend=0.0, append=0.0)
        out = np.sqrt(np.vecdot(diffs, diffs) / h)
    elif kind == "Hminus1":
        w = inv_neg_laplacian_values(grid, values)
        # the quadratic form is positive; tiny negatives are roundoff
        out = np.sqrt(np.maximum(h * np.vecdot(values, w), 0.0))
    else:
        raise ValueError(f"unknown norm kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def norm(u: Field, kind: str, p: float | None = None) -> float:
    """Discrete norm of a Field; norm_values on its values.

    Args:
        u: the Field.
        kind: one of "L2", "Lp", "V_H1", "Hminus1".
        p: exponent, required for kind "Lp".

    Returns:
        The h-weighted norm value (see module docstring).
    """
    return norm_values(u.grid, np.asarray(u.values), kind, p)


def signed_power_values(values: np.ndarray, alpha: float) -> np.ndarray:
    """Odd power u^[alpha] = |u|^(alpha-1) u on raw values, with 0 mapped to 0."""
    if alpha <= 0:
        raise ValueError(f"signed power needs alpha > 0, got {alpha}")
    return np.sign(values) * np.abs(values) ** alpha
