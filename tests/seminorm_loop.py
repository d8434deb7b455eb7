"""The per-gap loop of the fractional seminorm: the oracle its FFT kernel is pinned to.

One pass per gap g = 1..n-1 sums |e_{i+g} - e_i|^2 over i, with e the
Euclidean embedding of a Hilbert norm kind (L2, V_H1, Hminus1). The
package sums the same gaps through an FFT autocorrelation, which the
tests compare to this loop within a relative tolerance.
"""

import numpy as np

from stf_spde.projection import _euclidean_embedding, _path_roots


def fractional_seminorm(traj, alpha, norm_kind="L2"):
    n, dt = traj.timegrid.n_steps, traj.timegrid.dt
    e = _euclidean_embedding(traj.grid, traj.values[..., :n, :], norm_kind)
    gap_w = dt * dt / (dt * np.arange(1, n)) ** (1.0 + alpha * 2.0)

    def norm_sq(d):
        return np.einsum("...ij,...ij->...i", d, d)

    acc = 0.0
    for g in range(1, n):
        acc += gap_w[g - 1] * np.sum(norm_sq(e[..., g:, :] - e[..., :-g, :]), axis=-1)
    total = dt * np.sum(norm_sq(e), axis=-1) + 2.0 * acc
    return _path_roots(total, 2.0)
