"""Lattice tail sums, the one kernel under the Weierstrass zeta and p values.

For a truncated lattice grid ``W`` (origin removed) and points ``z`` this
evaluates, with ``q = z/w``, one of the Taylor-corrected zeta and p sums

    s_zeta(z) = sum_W q^6 / (z - w)
    s_wp(z)   = sum_W q^5 (6 - 5 q) / (z - w)^2

Their corrections up to order q^5 telescope, so each term decays like
|z/w|^5 / |w|^2 and no large terms cancel. The grid passed in holds one site
w of each pair {w, -w} of ``W``, and each pair collapses exactly:

    q^6/(z - w) + q^6/(z + w)                       = 2 z q^6 / (z^2 - w^2)
    q^5 (6 - 5q)/(z - w)^2 - q^5 (6 + 5q)/(z + w)^2 = q^6 (14 w^2 - 10 z^2) / (z^2 - w^2)^2

A call forms only the sum asked for, at one complex reciprocal per pair;
s_wp depends on z only through z^2 (p comes out exactly even).
"""
from __future__ import annotations

import numpy as np


def tail_sums(z, w, wp=False) -> np.ndarray:
    """Corrected lattice sum of ``z`` against the pairs ±``w``: s_zeta, or s_wp with ``wp``.

    Accepts any array-like ``z``; the result has the same shape. Each point
    is summed on its own against the whole grid, so temporaries are one grid
    long and a point's sum does not depend on the other points of the call.
    Sums run in units of the shortest site, so no power overflows at any scale.
    """
    z = np.asarray(z, dtype=np.complex128)
    unit = np.abs(w).min()
    w2 = (np.asarray(w, dtype=np.complex128) / unit) ** 2
    w6inv, w2_14 = 1.0 / (w2 * w2 * w2), 14.0 * w2
    s = np.empty(z.size, dtype=np.complex128)
    for i, zi in enumerate(z.ravel() / unit):
        z2 = zi * zi
        inv = np.reciprocal(z2 - w2)
        t = w6inv * inv
        if wp:
            t *= inv
            t *= w2_14 - 10.0 * z2
        s[i] = (z2**3 if wp else 2.0 * zi * z2**3) * t.sum()
    return (s / (unit**2 if wp else unit)).reshape(z.shape)
