r"""Weierstrass zeta / p evaluators from truncated lattice sums.

Evaluation strategy, entirely lattice-sum based:

1. The generator pair is Lagrange-reduced (same lattice, short basis) and
   points are translated into the centered fundamental cell, so the tail
   sums only ever see |z| up to about the basis length.
2. ``lattice_sums.tail_sums`` evaluates the Taylor-corrected summands,
   which decay like |z/w|^5/|w|^2; the two slowly convergent correction
   constants they leave behind are the weight-4 and weight-6 lattice
   sums G4 = sum' w^-4 and G6 = sum' w^-6.
3. G4, G6 and the quasi-period increments eta_1, eta_2 are obtained
   together from a small linear system built out of zeta-increment
   identities zeta(z + w_k) - zeta(z) = eta_k at a handful of generic
   points: each equation is linear in (eta_1, eta_2, G4, G6) once zeta is
   written as 1/z + tail - G4 z^3 - G6 z^5.
4. The truncation radius doubles until two successive evaluations agree to
   the stability target, which certifies the accuracy internally. This is
   done on the reduced pair divided by the shortest generator length s, so
   the drift is dimensionless (eta and zeta in units of 1/s, p of 1/s^2, G4
   of 1/s^4, G6 of 1/s^6) and a rescaled lattice stops at the same truncation.

The Legendre relation eta_1 w_2 - eta_2 w_1 = 2 pi i is never used as an
input; it emerges (and is pinned in the tests) as a consistency check.

The elementary-potential coefficients c1, c2 solve the single-valuedness
system c1 w_k + c2 conj(w_k) = eta_k; c2 = pi/area is again emergent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LatticeError, PoleError, TruncationError
from .lattice_sums import tail_sums

#: Doubling-stability target for the adaptive truncation.
DOUBLING_TOL = 1e-12
#: Points closer than this to a lattice point are rejected as poles.
POLE_EXCLUSION = 1e-8

_BOOTSTRAP_OFFSETS = (0.137 + 0.071j, -0.083 + 0.191j, 0.211 - 0.057j)


def _reduce_pair(w1: complex, w2: complex) -> tuple[complex, complex, np.ndarray]:
    """Lagrange-reduced generators r1, r2 and integer M with (w1, w2) = M (r1, r2)."""
    a, b = complex(w1), complex(w2)
    # columns of T express (a, b) in terms of the current pair
    t = np.eye(2, dtype=np.int64)
    for _ in range(64):
        if abs(b) < abs(a):
            a, b = b, a
            t = t[:, ::-1]
        mu = round((b * a.conjugate()).real / abs(a) ** 2)
        if mu == 0:
            break
        b = b - mu * a
        t[:, 0] += mu * t[:, 1]
    if (b / a).imag < 0:
        b = -b
        t[:, 1] = -t[:, 1]
    return a, b, t


def _grid(r1: complex, r2: complex, n: int) -> np.ndarray:
    m, k = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1), indexing="ij")
    w = (m * r1 + k * r2).ravel()
    return w[np.abs(w) > 0.5 * min(abs(r1), abs(r2))]


def _bootstrap(r1: complex, r2: complex, grid: np.ndarray) -> np.ndarray:
    """Least-squares solve for (eta_r1, eta_r2, G4, G6) on the reduced pair."""
    rows, rhs = [], []
    for lam, coeff in ((r1, (1.0, 0.0)), (r2, (0.0, 1.0))):
        for d in _BOOTSTRAP_OFFSETS:
            z0 = -lam / 2 + d * (abs(lam) / 2)
            z1 = z0 + lam
            s, _ = tail_sums(np.array([z0, z1]), grid)
            rows.append([coeff[0], coeff[1], z1**3 - z0**3, z1**5 - z0**5])
            rhs.append((s[1] + 1 / z1) - (s[0] + 1 / z0))
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return sol


@dataclass(frozen=True, eq=False)
class LatticeContext:
    """A genus-1 lattice with quasi-periods and potential coefficients.

    ``scale`` is the shortest generator length, the unit of every certificate.
    """

    omega1: complex
    omega2: complex
    eta1: complex
    eta2: complex
    area: float
    c1: complex
    c2: complex
    truncation: int
    eisenstein4: complex
    eisenstein6: complex
    scale: float
    _r1: complex = field(repr=False, default=0j)
    _r2: complex = field(repr=False, default=0j)
    _eta_r: tuple = field(repr=False, default=(0j, 0j))
    _grid_pts: np.ndarray = field(repr=False, default=None)
    _coord: np.ndarray = field(repr=False, default=None)


def _level(r1: complex, r2: complex, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid of truncation ``n``; its bootstrap solution followed by its probe sums."""
    grid = _grid(r1, r2, n)
    probe = np.array([0.31 * r1 + 0.17 * r2, -0.22 * r1 + 0.41 * r2])
    return grid, np.concatenate([_bootstrap(r1, r2, grid), *tail_sums(probe, grid)])


def build_lattice(omega1, omega2, truncation: int = 64, max_truncation: int = 512) -> LatticeContext:
    """Configure zeta/p evaluators for Z omega1 + Z omega2.

    The truncation doubles from the requested value until the bootstrap
    output and probe evaluations of the unit-scale lattice are stable to
    ``DOUBLING_TOL``; failure to stabilize below ``max_truncation`` raises
    ``TruncationError``. Each level is computed once: the finer level of
    one comparison is the coarser level of the next.
    """
    w1, w2 = complex(omega1), complex(omega2)
    if abs(w1) == 0 or abs(w2) == 0 or abs((w2 / w1).imag) < 1e-12:
        raise LatticeError("generators are degenerate: omega2/omega1 must be off the real axis")
    if (w2 / w1).imag < 0:
        raise LatticeError("orientation: require Im(omega2/omega1) > 0")
    r1, r2, tmat = _reduce_pair(w1, w2)
    # certify on the unit-scale copy (r1, r2) / s; eta scales back by 1/s, G4 by s^-4, G6 by s^-6
    s = min(abs(r1), abs(r2))
    n = max(8, int(truncation))
    grid, vals = _level(r1 / s, r2 / s, n)
    while True:
        fine_grid, fine_vals = _level(r1 / s, r2 / s, 2 * n)
        drift = np.abs(vals - fine_vals).max()
        if drift <= DOUBLING_TOL:
            break
        if 2 * n > max_truncation:
            raise TruncationError(
                f"lattice sums not stable at truncation {n} (drift {drift:.3e} > {DOUBLING_TOL:g})"
            )
        grid, vals = fine_grid, fine_vals
        n *= 2
    eta_r1, eta_r2, g4, g6 = fine_vals[:4] / np.array([s, s, s**4, s**6])
    # quasi-periods are additive over the lattice: transport to the input pair
    eta1 = tmat[0, 0] * eta_r1 + tmat[0, 1] * eta_r2
    eta2 = tmat[1, 0] * eta_r1 + tmat[1, 1] * eta_r2
    area = float((np.conj(w1) * w2).imag)
    csys = np.array([[w1, np.conj(w1)], [w2, np.conj(w2)]])
    c1, c2 = np.linalg.solve(csys, np.array([eta1, eta2]))
    coord = np.linalg.inv(np.array([[r1.real, r2.real], [r1.imag, r2.imag]]))
    return LatticeContext(
        omega1=w1,
        omega2=w2,
        eta1=complex(eta1),
        eta2=complex(eta2),
        area=area,
        c1=complex(c1),
        c2=complex(c2),
        truncation=n,
        eisenstein4=complex(g4),
        eisenstein6=complex(g6),
        scale=s,
        _r1=r1,
        _r2=r2,
        _eta_r=(complex(eta_r1), complex(eta_r2)),
        _grid_pts=s * grid,
        _coord=coord,
    )


def _reduce_points(lat: LatticeContext, z: np.ndarray):
    """Translate points into the centered cell of the reduced basis."""
    coords = lat._coord @ np.vstack([z.real.ravel(), z.imag.ravel()])
    m = np.rint(coords[0]).astype(np.int64)
    k = np.rint(coords[1]).astype(np.int64)
    zr = z.ravel() - m * lat._r1 - k * lat._r2
    if np.abs(zr).min() < POLE_EXCLUSION:
        raise PoleError("evaluation point coincides with a lattice point")
    return zr, m, k


def _cell_eval(lat: LatticeContext, z, formula):
    """``formula(zr, m, k, s_zeta, s_p)`` for z = zr + m r1 + k r2 with zr in the cell.

    One ``tail_sums`` call gives s_zeta and s_p. The result is shaped like
    ``z``; a scalar ``z`` gives a Python complex.
    """
    z = np.asarray(z, dtype=complex)
    zr, m, k = _reduce_points(lat, z)
    vals = formula(zr, m, k, *tail_sums(zr, lat._grid_pts)).reshape(z.shape)
    return complex(vals) if z.ndim == 0 else vals


def wzeta(lat: LatticeContext, z):
    """Weierstrass zeta on the lattice, vectorized over z."""

    def zeta(zr, m, k, s_zeta, _):
        g4, g6 = lat.eisenstein4, lat.eisenstein6
        return 1 / zr + s_zeta - g4 * zr**3 - g6 * zr**5 + m * lat._eta_r[0] + k * lat._eta_r[1]

    return _cell_eval(lat, z, zeta)


def wp(lat: LatticeContext, z):
    """Weierstrass p function on the lattice, vectorized over z."""

    def p(zr, m, k, _, s_p):
        return 1 / zr**2 + s_p + 3 * lat.eisenstein4 * zr**2 + 5 * lat.eisenstein6 * zr**4

    return _cell_eval(lat, z, p)
