"""Radius of the energy ball the fixed-point map keeps invariant.

The energy estimate bounds the image of the ball of radius R by
(2 E|u_0|_H^2 + C R^q + C T) e^{CT}, so the ball is invariant once that
bound is at most R. The chain test feeds it the constant the energy
report fits and checks that the Picard limits' energies land inside the
ball.
"""

import numpy as np
from scipy.optimize import brentq


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
