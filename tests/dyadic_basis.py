"""Haar step and Schauder tent functions in closed form: the oracle of the LC build.

lc_scalar_bm and lc_q_wiener displace dyadic midpoints and never evaluate
these functions. The tests check the closed forms (orthonormality, the
tent as the running integral of the step) and rebuild an LC path as the
tent-function partial sum B_n(t) = xi_0 t + sum_m sum_k xi_{k,m} S_{k,m}(t).
"""

import numpy as np


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
