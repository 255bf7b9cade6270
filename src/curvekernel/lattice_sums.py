"""Lattice tail sums, the one kernel under the Weierstrass zeta and p values.

For a truncated lattice grid ``W`` (origin removed) and points ``z`` this
evaluates, with ``q = z/w``, the Taylor-corrected zeta and p summands

    s_zeta(z) = sum_W q^6 / (z - w)
    s_wp(z)   = sum_W q^5 (6 - 5 q) / (z - w)^2

Their corrections up to order q^5 telescope, so each term decays like
|z/w|^5 / |w|^2 and no large terms cancel. The grid passed in holds one site
w of each pair {w, -w} of ``W``, and each pair collapses exactly:

    q^6/(z - w) + q^6/(z + w)                       = 2 z q^6 / (z^2 - w^2)
    q^5 (6 - 5q)/(z - w)^2 - q^5 (6 + 5q)/(z + w)^2 = q^6 (14 w^2 - 10 z^2) / (z^2 - w^2)^2

Both share q^6 / (z^2 - w^2), so a pair costs one complex reciprocal, and
s_wp depends on z only through z^2 (p comes out exactly even).
"""
from __future__ import annotations

import numpy as np


def tail_sums(z, w) -> tuple[np.ndarray, np.ndarray]:
    """Corrected lattice sums (s_zeta, s_wp) of ``z`` against the pairs ±``w``.

    Accepts any array-like ``z``; the result has the same shape. Each point
    is summed on its own against the whole grid, so temporaries are one grid
    long and a point's sums do not depend on the other points of the call.
    Sums run in units of the shortest site, so no power overflows at any scale.
    """
    z = np.asarray(z, dtype=np.complex128)
    unit = np.abs(w).min()
    w2 = (np.asarray(w, dtype=np.complex128) / unit) ** 2
    w6inv, w2_14 = 1.0 / (w2 * w2 * w2), 14.0 * w2
    s_zeta = np.empty(z.size, dtype=np.complex128)
    s_wp = np.empty(z.size, dtype=np.complex128)
    for i, zi in enumerate(z.ravel() / unit):
        z2 = zi * zi
        inv = 1.0 / (z2 - w2)
        t = w6inv * inv
        s_zeta[i] = 2.0 * zi * z2**3 * t.sum()
        t *= inv
        t *= w2_14 - 10.0 * z2
        s_wp[i] = z2**3 * t.sum()
    return (s_zeta / unit).reshape(z.shape), (s_wp / unit**2).reshape(z.shape)
