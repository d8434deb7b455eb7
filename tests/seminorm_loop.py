"""The per-gap loop of the fractional seminorm: the oracle its FFT kernel is pinned to.

One pass per gap g = 1..n-1 sums the spatial norms of e_{i+g} - e_i over
i, for every norm kind and time exponent. The package keeps this loop for
the Lp kind and for p != 2, where the tests compare it byte for byte; for
p = 2 and the Hilbert kinds the package sums the gaps through an FFT
autocorrelation, which the tests compare to it within a relative
tolerance.
"""

import numpy as np

from stf_spde.grids import norm_values
from stf_spde.projection import _euclidean_embedding, _path_roots


def fractional_seminorm(traj, alpha, p, norm_kind="L2", spatial_p=None):
    n, dt, grid = traj.timegrid.n_steps, traj.timegrid.dt, traj.grid
    u = traj.values[..., :n, :]
    gap_w = dt * dt / (dt * np.arange(1, n)) ** (1.0 + alpha * p)
    if norm_kind == "Lp":
        e = u

        def norm_p(d):
            return norm_values(grid, d, "Lp", spatial_p) ** p

    else:
        e = _euclidean_embedding(grid, u, norm_kind)

        def norm_p(d):
            return np.einsum("...ij,...ij->...i", d, d) ** (0.5 * p)

    acc = 0.0
    for g in range(1, n):
        acc += gap_w[g - 1] * np.sum(norm_p(e[..., g:, :] - e[..., :-g, :]), axis=-1)
    total = dt * np.sum(norm_p(e), axis=-1) + 2.0 * acc
    return _path_roots(total, p)
