"""Lattice tail sums, the one kernel under the Weierstrass zeta and p values.

For a truncated lattice grid ``w`` (origin removed) and points ``z`` this
evaluates, with ``q = z/w``,

    s_zeta(z) = sum_w q^6 / (z - w)
    s_wp(z)   = sum_w q^5 (6 - 5 q) / (z - w)^2

These are the Taylor-corrected summands of the Weierstrass zeta and p
series: the corrections up to order q^5 telescope into the closed forms
above, so each term decays like |z/w|^5 / |w|^2 and the partial sums are
stable (no cancellation between large terms).
"""
from __future__ import annotations

import numpy as np


def tail_sums(z, w) -> tuple[np.ndarray, np.ndarray]:
    """Corrected lattice sums (s_zeta, s_wp) of ``z`` against grid ``w``.

    Accepts any array-like ``z``; the result has the same shape. Each point
    is summed on its own against the whole grid, so temporaries are one grid
    long and a point's sums do not depend on the other points of the call.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    winv = 1.0 / w
    s_zeta = np.empty(z.size, dtype=np.complex128)
    s_wp = np.empty(z.size, dtype=np.complex128)
    for i, zi in enumerate(z.ravel()):
        q = zi * winv
        d = zi - w
        q5 = q * q
        q5 *= q5
        q5 *= q
        s_zeta[i] = np.sum(q5 * q / d)
        s_wp[i] = np.sum(q5 * (6.0 - 5.0 * q) / (d * d))
    return s_zeta.reshape(z.shape), s_wp.reshape(z.shape)
