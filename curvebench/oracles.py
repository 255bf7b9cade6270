"""Reference computations made apart from curvekernel.

Nothing here imports the package under test. The curve side integrates the
period segments with QUADPACK's algebraic-endpoint rule (scipy ``quad`` with
``weight="alg"``) over the branch points the benchmark itself drew; the
torus side evaluates eta, zeta and p from Jacobi theta series (mpmath).
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

THETA_DPS = 30


def reference_periods(roots, lead: float) -> tuple[np.ndarray, np.ndarray]:
    """a- and b-period matrices of x^k dx / y, k = 0..g-1, for y^2 = lead * prod(x - e).

    Follows the cycle convention documented in ``curvekernel.periods``:
    a_i encircles the cut [e_{2i-1}, e_{2i}], b_i collects the gap segments
    from cut i to the last cut, and on segment m the branch of y is
    i^(d-m) sqrt|f| (times i when the leading coefficient is negative).
    """
    e = [float(r) for r in roots]
    d = len(e)
    g = (d - 1) // 2
    scale = abs(lead)
    lead_phase = 1.0 if lead > 0 else 1j
    segs = np.empty((d - 1, g), dtype=complex)
    for m in range(1, d):
        a, b = e[m - 1], e[m]
        others = e[: m - 1] + e[m + 1 :]
        phase = lead_phase * 1j ** (d - m)

        def smooth(x, k):
            p = scale
            for o in others:
                p *= abs(x - o)
            return x**k / math.sqrt(p)

        for k in range(g):
            val, _ = quad(
                smooth, a, b, args=(k,), weight="alg", wvar=(-0.5, -0.5),
                epsabs=1e-14, epsrel=1e-12, limit=200,
            )
            segs[m - 1, k] = val / phase
    A = np.empty((g, g), dtype=complex)
    B = np.empty((g, g), dtype=complex)
    for i in range(1, g + 1):
        A[:, i - 1] = 2 * segs[2 * i - 2]
        B[:, i - 1] = 2 * segs[2 * i - 1 :: 2].sum(axis=0)
    return A, B


def normalized_values(A, roots, lead: float, x: complex, sheet: int, lam: complex) -> np.ndarray:
    """a-normalized differentials A^{-1} (lam x^k / y) at a point, y = sheet * sqrt(f(x))."""
    f = lead * np.prod([x - r for r in roots])
    y = sheet * np.sqrt(complex(f))
    raw = np.array([lam * x**k / y for k in range(A.shape[0])])
    return np.linalg.solve(A, raw)


def kernel_value(imZ_inv: np.ndarray, nu: np.ndarray, nv: np.ndarray) -> complex:
    """Bergman kernel (1/2) conj(n(v)) (Im Z)^{-1} n(u) in the normalized basis."""
    return complex(0.5 * nv.conj() @ imZ_inv @ nu)


def _nome(tau):
    return mp.exp(1j * mp.pi * mp.mpc(tau))


def _increment(period, tau):
    """Quasi-period of zeta along ``period`` for the basis (period, period*tau)."""
    q = _nome(tau)
    return -(mp.pi**2) / (3 * mp.mpc(period)) * mp.jtheta(1, 0, q, 3) / mp.jtheta(1, 0, q, 1)


def theta_etas(r1: complex, r2: complex) -> tuple[complex, complex]:
    """(eta(r1), eta(r2)) for a positively oriented basis, each from its own theta series."""
    with mp.workdps(THETA_DPS):
        eta1 = _increment(r1, r2 / r1)
        eta2 = _increment(r2, -r1 / r2)
        return complex(eta1), complex(eta2)


def theta_zeta_wp(r1: complex, r2: complex, eta_r1: complex, z: complex) -> tuple[complex, complex]:
    """zeta(z) and p(z) on Z r1 + Z r2 from theta_1 at v = pi z / r1 (no reduction of z)."""
    with mp.workdps(THETA_DPS):
        q = _nome(r2 / r1)
        p = mp.mpc(r1)
        v = mp.pi * mp.mpc(z) / p
        th = mp.jtheta(1, v, q)
        log_d = mp.jtheta(1, v, q, 1) / th
        second = mp.jtheta(1, v, q, 2) / th
        h = mp.mpc(eta_r1)
        zeta = h * mp.mpc(z) / p + mp.pi / p * log_d
        wp = -h / p + (mp.pi / p) ** 2 * (log_d * log_d - second)
        return complex(zeta), complex(wp)
