r"""Weierstrass zeta / p evaluators from truncated lattice sums.

Evaluation strategy:

1. The generator pair is Lagrange-reduced (same lattice, short basis) and
   points are translated into the centered fundamental cell, so the tail
   sums only ever see |z| up to about the basis length.
2. ``lattice_sums.tail_sums`` evaluates the Taylor-corrected summands,
   which decay like |z/w|^5/|w|^2; the two slowly convergent correction
   constants they leave behind are the weight-4 and weight-6 lattice
   sums G4 = sum' w^-4 and G6 = sum' w^-6. ``_grid`` keeps one site of
   each pair {w, -w}, and each call forms only the sum its caller reads:
   s_zeta for ``wzeta`` and step 4, s_p (``wp=True``) for ``wp``.
3. Those constants and eta(r1) come from Eisenstein q-series (DLMF 23.8;
   Apostol, *Modular Functions and Dirichlet Series*, Ch. 1) on the reduced
   basis divided by the shortest generator length s, where
   |exp(2 pi i r2/r1)| <= exp(-pi sqrt 3): eta(r1) = pi^2 E2 / (3 r1),
   G4 = (pi/r1)^4 E4 / 45, G6 = 2 (pi/r1)^6 E6 / 945. The Legendre relation
   eta(r1) r2 - eta(r2) r1 = 2 pi i gives eta(r2).
4. The truncation is the first of ``TRUNCATIONS`` at which the zeta increments
   zeta(z0 + lam) - zeta(z0) for lam = r1, r2, r1 + r2, summed without
   translation into the cell, match eta(lam) to ``CERTIFICATE_TOL`` relative
   to the zeta values; this checks step 3, the Legendre relation included,
   where the sums are worst. Past the last it raises ``TruncationError``: on
   reduced shapes with Im tau from 8 to 59, lattices certify at 64 up to
   Im tau 18 and at 128 up to about 35; larger levels passed one shape more,
   by rounding, with p 17 times the tolerance off theta.
   On the unit-scale copy the miss is dimensionless, so a rescaled lattice
   stops at the same truncation.

The potential coefficients c1, c2 solve c1 r + c2 conj(r) = eta(r) on the
reduced pair, the best-conditioned basis; c2 = pi/area is again emergent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LatticeError, PoleError, TruncationError
from .lattice_sums import tail_sums

#: Largest relative miss of the certifying zeta increments against the quasi-periods.
CERTIFICATE_TOL = 1e-11
#: Points closer than this many lattice scales to a lattice point are rejected as poles.
POLE_EXCLUSION = 1e-8
#: Supported generator lengths and scale s: within it s^6, s^-6 and the area are normal floats.
LENGTH_RANGE = (1e-50, 1e50)
#: The truncations step 4 tries, in order.
TRUNCATIONS = (64, 128)
#: Largest (|r1| + |r2|) / s whose points' z^7 stays finite; the sites' w^6 then does at every truncation.
THIN_BOUND = float(np.finfo(float).max) ** (1 / 7)

_INCREMENT_OFFSETS = (0.137 + 0.071j, -0.083 + 0.191j, 0.211 - 0.057j)


def _reduce_pair(w1: complex, w2: complex) -> tuple[complex, complex, np.ndarray]:
    """Lagrange-reduced generators r1, r2 and integer M with (w1, w2) = M (r1, r2)."""
    a, b = complex(w1), complex(w2)
    # columns of T express (a, b) in terms of the current pair
    t = np.eye(2, dtype=np.int64)
    for _ in range(64):
        if abs(b) < abs(a):
            a, b = b, a
            t = t[:, ::-1]
        mu = round((b / a).real)
        if mu == 0:
            break
        if abs(mu) * int(np.abs(t).max()) >= 2**53:  # no digits of the short vector are left
            raise LatticeError(f"basis too skewed: reducing it subtracts {mu:.2e} times a generator")
        b = b - mu * a
        t[:, 0] += mu * t[:, 1]
    if (b / a).imag < 0:
        b = -b
        t[:, 1] = -t[:, 1]
    return a, b, t


def _check_length(name: str, length: float) -> None:
    lo, hi = LENGTH_RANGE
    if not lo <= length <= hi:
        raise LatticeError(f"{name} = {length:.3e} is outside the supported range [{lo:g}, {hi:g}]")


def _grid(r1: complex, r2: complex, n: int) -> np.ndarray:
    """One site m r1 + k r2 of each pair ±w in the box |m|, |k| <= n: m > 0, or m = 0 and k > 0."""
    m, k = np.meshgrid(np.arange(n + 1), np.arange(-n, n + 1), indexing="ij")
    keep = (m > 0) | (k > 0)
    return m[keep] * r1 + k[keep] * r2


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
    certificate_residual: float
    _r1: complex = field(repr=False, default=0j)
    _r2: complex = field(repr=False, default=0j)
    _eta_r: tuple = field(repr=False, default=(0j, 0j))
    _grid_pts: np.ndarray = field(repr=False, default=None)
    _coord: np.ndarray = field(repr=False, default=None)


def _eisenstein(tau: complex) -> np.ndarray:
    """(E2, E4, E6) at ``tau``: 1 + c_k sum_n n^(k-1) x^n / (1 - x^n), x = exp(2 pi i tau).

    For |x| <= exp(-pi sqrt 3) the bounds n^5 |x|^n fall by a factor below 0.14 per term, so the
    terms past N add up to less than 600 (N+1)^5 |x|^(N+1); N is the first that puts this under 2^-53.
    """
    x = np.exp(2j * np.pi * tau)
    n = np.arange(1, 17)
    n = n[: np.argmax(600 * (n + 1.0) ** 5 * abs(x) ** (n + 1) <= 2.0**-53) + 1]
    xn = x**n
    lambert = n ** np.array([[1], [3], [5]]) * (xn / (1 - xn))
    return 1 + np.array([-24, 240, -504]) * lambert.sum(axis=1)


def _increment_miss(r1: complex, r2: complex, consts: np.ndarray, grid: np.ndarray) -> float:
    """Step 4's miss, largest over three z0 per lam = r1, r2, r1 + r2, which reach the cell's corners."""
    eta1, eta2, g4, g6 = consts
    lam = np.repeat([r1, r2, r1 + r2], 3)
    eta = np.repeat([eta1, eta2, eta1 + eta2], 3)
    z0 = -lam / 2 + np.tile(_INCREMENT_OFFSETS, 3) * (np.abs(lam) / 2)
    z = np.concatenate([z0, z0 + lam])
    zeta0, zeta1 = np.split(1 / z + tail_sums(z, grid) - g4 * z**3 - g6 * z**5, 2)
    return float((np.abs(zeta1 - zeta0 - eta) / (np.abs(zeta0) + np.abs(zeta1))).max())


def build_lattice(omega1, omega2) -> LatticeContext:
    """Configure zeta/p evaluators for Z omega1 + Z omega2.

    The truncation is the first of ``TRUNCATIONS`` at which the certificate
    of steps 3-4 in the module docstring holds; past the last ``TruncationError``
    is raised with the miss.
    Generator lengths or a scale s outside ``LENGTH_RANGE`` raise ``LatticeError``,
    and so does a lattice too thin for the tail sums' powers to stay finite.
    """
    w1, w2 = complex(omega1), complex(omega2)
    if not np.isfinite([w1, w2]).all():
        raise LatticeError("generators must be finite")
    if abs(w1) == 0 or abs(w2) == 0 or abs((w2 / w1).imag) < 1e-12:
        raise LatticeError("generators are degenerate: omega2/omega1 must be off the real axis")
    if (w2 / w1).imag < 0:
        raise LatticeError("orientation: require Im(omega2/omega1) > 0")
    for name, w in (("|omega1|", w1), ("|omega2|", w2)):
        _check_length(name, abs(w))
    r1, r2, tmat = _reduce_pair(w1, w2)
    # certify on the unit-scale copy (r1, r2) / s; eta scales back by 1/s, G4 by s^-4, G6 by s^-6
    s = min(abs(r1), abs(r2))
    _check_length("lattice scale s", s)
    u1, u2 = r1 / s, r2 / s
    # in units of s, tail_sums forms 2 z^7 for points |z| < 0.62 reach and w^6 for sites |w| <= n reach
    reach = abs(u1) + abs(u2)
    if reach > THIN_BOUND:
        raise LatticeError(
            f"lattice too thin: (|r1| + |r2|) / s = {reach:.3e} exceeds {THIN_BOUND:.3e},"
            " past which the tail sums overflow"
        )
    e2, e4, e6 = _eisenstein(u2 / u1)
    h = np.pi / u1
    eta_u1 = np.pi * h * e2 / 3
    consts = np.array([eta_u1, (eta_u1 * u2 - 2j * np.pi) / u1, h**4 * e4 / 45, 2 * h**6 * e6 / 945])
    for n in TRUNCATIONS:
        grid = _grid(u1, u2, n)
        miss = _increment_miss(u1, u2, consts, grid)
        if miss <= CERTIFICATE_TOL:
            break
    else:
        raise TruncationError(
            f"zeta increments miss the quasi-periods by {miss:.3e} at truncation {n} (> {CERTIFICATE_TOL:g})"
        )
    eta_r1, eta_r2, g4, g6 = consts / np.array([s, s, s**4, s**6])
    # quasi-periods are additive over the lattice: transport to the input pair
    eta1, eta2 = tmat @ np.array([eta_r1, eta_r2])
    area = float((np.conj(r1) * r2).imag)
    c1, c2 = np.linalg.solve(np.array([[r1, np.conj(r1)], [r2, np.conj(r2)]]), np.array([eta_r1, eta_r2]))
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
        certificate_residual=miss,
        _r1=r1,
        _r2=r2,
        _eta_r=(complex(eta_r1), complex(eta_r2)),
        _grid_pts=s * grid,
        _coord=coord,
    )


def _cell_eval(lat: LatticeContext, z, formula, wp=False):
    """``formula(zr, m, k, s)`` for z = zr + m r1 + k r2 with zr in the centered cell.

    ``s`` is the one tail sum at zr: s_zeta, or s_p with ``wp``. The result is
    shaped like ``z``; a scalar ``z`` gives a Python complex.
    """
    z = np.asarray(z, dtype=complex)
    cell = np.rint(lat._coord @ np.vstack([z.real.ravel(), z.imag.ravel()]))
    if not (np.abs(cell) < 2**53).all():  # the float z holds no digits of its offset in the cell
        raise LatticeError("evaluation point is not finite or lies 2^53 or more cells out")
    m, k = cell.astype(np.int64)
    zr = z.ravel() - m * lat._r1 - k * lat._r2
    if (np.abs(zr) < POLE_EXCLUSION * lat.scale).any():
        raise PoleError("evaluation point coincides with a lattice point")
    vals = formula(zr, m, k, tail_sums(zr, lat._grid_pts, wp=wp)).reshape(z.shape)
    return complex(vals) if z.ndim == 0 else vals


def wzeta(lat: LatticeContext, z):
    """Weierstrass zeta on the lattice, vectorized over z."""

    def zeta(zr, m, k, s_zeta):
        g4, g6 = lat.eisenstein4, lat.eisenstein6
        return 1 / zr + s_zeta - g4 * zr**3 - g6 * zr**5 + m * lat._eta_r[0] + k * lat._eta_r[1]

    return _cell_eval(lat, z, zeta)


def wp(lat: LatticeContext, z):
    """Weierstrass p function on the lattice, vectorized over z."""

    def p(zr, m, k, s_p):
        return 1 / zr**2 + s_p + 3 * lat.eisenstein4 * zr**2 + 5 * lat.eisenstein6 * zr**4

    return _cell_eval(lat, z, p, wp=True)
