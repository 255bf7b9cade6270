r"""Genus-one closed forms: elementary potentials, the meromorphic
bidifferential with double pole on the diagonal, the connecting 1-form,
and the numerical exactness check on the doubled torus.

With F(z) = -zeta(z) + c1 z + c2 conj(z) (single-valued by construction of
c1, c2), the potential centered at x for the unit tangent is F(z - x); it
is harmonic off the lattice with principal part -1/(z - x). Its derivative
components are

    d/dz F = p(z) + c1         (zeta' = -p),
    d/dzbar F = c2,

so the bidifferential value is lam_u lam_v (p(zp - zq) + c1) and the
antiholomorphic derivative is the constant that ties into the kernel form:
c2 = 2 pi * (kernel diagonal coefficient) = pi / area, since the kernel is
the constant dz (x) conj(dz) / h(dz, dz) = dz (x) conj(dz) / (2 area).

``theorem_b_check`` verifies, over all N samples at once, that the
connecting form alpha = 2 lam_v F(zp - zq) + lam_u F(zq - zp) has holomorphic
derivative the bidifferential and antiholomorphic derivative -2 pi times the
kernel. F is odd, so dF and dbarF are even and both slots of alpha are read
off F at the one point x = zp - zq: one ``wp`` call (N points), one ``wzeta``
call on the stencil x +- h, x +- ih (4N points) and one ``torus_kernel``
product. With s = ``lat.scale`` the step h is 1e-4 s and every residual is
times s^2 (p, c1, c2 scale as s^-2), so none depends on the lattice's scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PoleError
from .weierstrass import LatticeContext, wp, wzeta

#: ``random_samples`` keeps zp - zq this many lattice scales away from the lattice.
_MIN_SEP = 0.3


@dataclass(frozen=True, eq=False)
class EtaEvaluator:
    """Evaluators for the bidifferential and the connecting form on a lattice."""

    lattice: LatticeContext


def torus_kernel(lat: LatticeContext, lam_u, lam_v):
    """Kernel value conj(lam_v) lam_u / (2 area) at lam_u d/dz, lam_v d/dz; arrays broadcast."""
    return np.conj(lam_v) * (1 / (2.0 * lat.area)) * lam_u


def elementary_potential(lat: LatticeContext, z):
    """F(z) = -zeta(z) + c1 z + c2 conj(z), vectorized; lattice-periodic, pole -1/z at 0."""
    z = np.asarray(z, dtype=complex)
    vals = -wzeta(lat, z) + lat.c1 * z + lat.c2 * np.conj(z)
    return complex(vals) if z.ndim == 0 else vals


def dbar_potential_check(lat: LatticeContext) -> tuple[complex, complex]:
    """(c2, 2 pi * kernel coefficient): equal when dbar F = 2 pi conj(k)."""
    return lat.c2, 2 * np.pi * complex(torus_kernel(lat, 1.0, 1.0))


def eta_hat_eval(ev: EtaEvaluator, zp, zq, lam_u, lam_v):
    """Bidifferential value lam_u lam_v (p(zp - zq) + c1), vectorized; pole on the diagonal."""
    lat = ev.lattice
    try:
        p_val = wp(lat, np.asarray(zp, dtype=complex) - np.asarray(zq, dtype=complex))
    except PoleError as err:
        raise PoleError("bidifferential evaluated on the diagonal (mod lattice)") from err
    vals = lam_u * lam_v * (p_val + lat.c1)
    return complex(vals) if np.ndim(vals) == 0 else vals


def alpha_eval(ev: EtaEvaluator, zp, zq, lam_u, lam_v) -> complex:
    """Connecting 1-form on the tangent (u, v): 2 f_v(zp) + f_u(zq).

    f_w is the elementary potential centered at the other point's base; the
    (0,1) tangent components do not enter (the form has type (1,0)).
    """
    lat = ev.lattice
    zp, zq = complex(zp), complex(zq)
    return complex(
        2 * lam_v * elementary_potential(lat, zp - zq) + lam_u * elementary_potential(lat, zq - zp)
    )


@dataclass(frozen=True, eq=False)
class TheoremBReport:
    """Residuals of ``theorem_b_check``: per sample, each of shape (N,), and their maxima."""

    residual_d: np.ndarray
    residual_dbar: np.ndarray
    residual_fd_d: np.ndarray
    residual_fd_dbar: np.ndarray
    max_residual_d: float
    max_residual_dbar: float
    max_residual_fd: float
    tol_d: float
    tol_dbar: float
    tol_fd: float

    @property
    def passed(self) -> bool:
        return (
            self.max_residual_d <= self.tol_d
            and self.max_residual_dbar <= self.tol_dbar
            and self.max_residual_fd <= self.tol_fd
        )


def theorem_b_check(
    ev: EtaEvaluator,
    samples,
    tol_d: float = 1e-8,
    tol_dbar: float = 1e-10,
    tol_fd: float = 1e-5,
) -> TheoremBReport:
    """Exactness of the connecting form against the bidifferential and kernel.

    ``samples`` holds rows (zp, zq, lam_u, lam_v), an (N, 4) array or a list
    of tuples, with zp != zq mod the lattice. With x = zp - zq, per sample:

    * ``residual_fd_d``: lam_u lam_v dF(x), the d-side 2 dF_v(u) - dF_u(v),
      against the bidifferential lam_u lam_v (p(x) + c1);
    * ``residual_fd_dbar``: -conj(lam_v) lam_u dbarF(x), the dbar-side
      -dbarF_u(conj v), against its closed form -c2 lam_u conj(lam_v);
    * ``residual_dbar``: that closed form against -2 pi * kernel, which is
      |c2 - pi/area| |lam_u lam_v|, the content of ``dbar_potential_check``;
    * ``residual_d``: |eta(zp, zq) - eta(zq, zp)|, zero, since p is even.

    dF and dbarF are central differences with step 1e-4 s, s the shortest
    generator length, and every residual is times s^2. Only the
    finite-difference residuals can catch a fault in ``wp`` or ``wzeta``.
    """
    lat = ev.lattice
    scale = lat.scale
    if len(samples) == 0:
        raise DimensionMismatchError("theorem B needs at least one sample, got 0")
    zp, zq, lam_u, lam_v = np.asarray(samples, dtype=complex).T
    eta = eta_hat_eval(ev, zp, zq, lam_u, lam_v)
    # eta(q, p) equals eta(p, q) bit for bit, p being even, so the d-side 2 eta(p, q) - eta(q, p)
    # misses eta(p, q) by 0; the field stays for curvebench, and the CLI report leaves it out
    residual_d = np.zeros(len(zp))
    dbar_side = -lat.c2 * lam_u * np.conj(lam_v)
    kernel_side = -2 * np.pi * torus_kernel(lat, lam_u, lam_v)
    residual_dbar = np.abs(dbar_side - kernel_side) * scale**2
    # Wirtinger derivatives of F at x = zp - zq by central differences
    h = 1e-4 * scale
    f = elementary_potential(lat, (zp[:, None] + h * np.array([1, -1, 1j, -1j])) - zq[:, None])
    fr = (f[:, 0] - f[:, 1]) / (2 * h)
    fi = (f[:, 2] - f[:, 3]) / (2 * h)
    residual_fd_d = np.abs(lam_u * lam_v * (fr - 1j * fi) / 2 - eta) * scale**2
    residual_fd_dbar = np.abs(-np.conj(lam_v) * lam_u * (fr + 1j * fi) / 2 - dbar_side) * scale**2
    return TheoremBReport(
        residual_d=residual_d,
        residual_dbar=residual_dbar,
        residual_fd_d=residual_fd_d,
        residual_fd_dbar=residual_fd_dbar,
        max_residual_d=float(residual_d.max()),
        max_residual_dbar=float(residual_dbar.max()),
        max_residual_fd=float(max(residual_fd_d.max(), residual_fd_dbar.max())),
        tol_d=tol_d,
        tol_dbar=tol_dbar,
        tol_fd=tol_fd,
    )


def random_samples(lat: LatticeContext, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 4) rows (zp, zq, lam_u, lam_v) away from the diagonal mod the lattice, |lam| >= 0.1.

    Points are uniform on the cell of the reduced pair r1, r2, the same law on the torus
    as on any other cell, so a skewed input basis does not inflate zp - zq.
    """
    rows = np.empty((0, 4), dtype=complex)
    while len(rows) < count:
        m = count - len(rows)
        a, b, c, d = rng.uniform(-0.5, 0.5, size=(4, m))
        lam_u, lam_v = rng.uniform(-1, 1, size=(2, m)) + 1j * rng.uniform(-1, 1, size=(2, m))
        zp = a * lat._r1 + b * lat._r2
        zq = c * lat._r1 + d * lat._r2
        diff = zp - zq
        coords = lat._coord @ np.vstack([diff.real, diff.imag])
        frac = coords - np.rint(coords)
        dist = np.abs(frac[0] * lat._r1 + frac[1] * lat._r2)
        keep = (dist >= _MIN_SEP * lat.scale) & (np.abs(lam_u) >= 0.1) & (np.abs(lam_v) >= 0.1)
        rows = np.concatenate([rows, np.stack([zp, zq, lam_u, lam_v], axis=1)[keep]])
    return rows
