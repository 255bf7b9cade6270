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
c2 = 2 pi * (kernel diagonal coefficient) = pi / area.

``theorem_b_check`` verifies, over all N samples at once, that the
connecting form's holomorphic derivative reproduces the bidifferential and
its antiholomorphic derivative reproduces -2 pi times the kernel; both are
cross-checked against central differences of ``alpha_eval`` with one slot
frozen. It makes one ``wp`` (2N points), one ``wzeta`` (8N stencil points)
and one ``bergman_eval`` call (N tangent pairs). With s = ``lat.scale`` the
step is 1e-4 s and every residual is times s^2 (p, c1, c2 scale as s^-2),
so none depends on the lattice's scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bergman import BergmanContext, bergman_eval, context_from_gram
from .errors import PoleError
from .periods import CurvePoint, TangentVector
from .weierstrass import LatticeContext, wp, wzeta

#: ``random_samples`` keeps zp - zq this many lattice scales away from the lattice.
_MIN_SEP = 0.3


@dataclass(frozen=True, eq=False)
class EtaEvaluator:
    """Evaluators for the bidifferential and the connecting form on a lattice."""

    lattice: LatticeContext


def torus_tangent(z, lam=1.0) -> TangentVector:
    """Tangent vector lam * d/dz at a point of the torus chart; z and lam may be arrays."""
    z, lam = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(lam, dtype=complex))
    return TangentVector(base=CurvePoint(x=z[()], sheet=1, y=1.0), lam=lam[()])


def torus_bergman_context(lat: LatticeContext) -> BergmanContext:
    """Bergman context of the torus: h(dz, dz) = 2 * area."""
    gram = np.array([[2.0 * lat.area]], dtype=complex)

    def eval_basis(u: TangentVector) -> np.ndarray:
        return np.asarray(u.lam, dtype=complex)[..., None]

    return context_from_gram(gram, eval_basis)


def elementary_potential(lat: LatticeContext, z):
    """F(z) = -zeta(z) + c1 z + c2 conj(z), vectorized; lattice-periodic, pole -1/z at 0."""
    z = np.asarray(z, dtype=complex)
    vals = -wzeta(lat, z) + lat.c1 * z + lat.c2 * np.conj(z)
    return complex(vals) if z.ndim == 0 else vals


def dbar_potential_check(lat: LatticeContext) -> tuple[complex, complex]:
    """(c2, 2 pi * kernel coefficient): equal when dbar F = 2 pi conj(k)."""
    ctx = torus_bergman_context(lat)
    u = torus_tangent(0.0, 1.0)
    kernel_diag = bergman_eval(ctx, u, u)  # = 1 / (2 area)
    return lat.c2, 2 * np.pi * complex(kernel_diag)


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


@dataclass(frozen=True)
class TheoremBSample:
    zp: complex
    zq: complex
    lam_u: complex
    lam_v: complex
    residual_d: float
    residual_dbar: float
    residual_fd_d: float
    residual_fd_dbar: float


@dataclass(frozen=True)
class TheoremBReport:
    samples: tuple
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
    of tuples, with zp != zq mod the lattice. Per sample:

    * holomorphic side: 2 dF_v(u) - dF_u(v) against the bidifferential;
    * antiholomorphic side: -dbarF_u(conj v) against -2 pi * kernel;
    * both analytic derivatives against central differences of
      ``alpha_eval`` with one frozen tangent slot, with step 1e-4 s.

    With s the shortest generator length, all residuals are times s^2.
    """
    lat = ev.lattice
    scale = lat.scale
    zp, zq, lam_u, lam_v = np.asarray(samples, dtype=complex).T
    n = len(zp)
    # rows 0..n-1 hold (zp, zq), rows n..2n-1 hold (zq, zp)
    za, zb = np.concatenate([zp, zq]), np.concatenate([zq, zp])
    # analytic d-side: p at zp - zq and at zq - zp
    eta = eta_hat_eval(ev, za, zb, np.tile(lam_u, 2), np.tile(lam_v, 2))
    eta_pq, eta_qp = eta[:n], eta[n:]
    d_side = 2 * eta_pq - eta_qp
    residual_d = np.abs(d_side - eta_pq) * scale**2
    # analytic dbar-side against the kernel
    dbar_side = -lat.c2 * lam_u * np.conj(lam_v)
    ctx = torus_bergman_context(lat)
    kernel_side = -2 * np.pi * bergman_eval(ctx, torus_tangent(zp, lam_u), torus_tangent(zq, lam_v))
    residual_dbar = np.abs(dbar_side - kernel_side) * scale**2
    # central differences of 2 lam_v F(x - zq) at x = zp and of lam_u F(y - zp) at y = zq
    h = 1e-4 * scale
    step = h * np.array([1, -1, 1j, -1j])
    f = elementary_potential(lat, (za[:, None] + step) - zb[:, None])
    alpha = np.concatenate([2 * lam_v, lam_u])[:, None] * f
    fr = (alpha[:, 0] - alpha[:, 1]) / (2 * h)
    fi = (alpha[:, 2] - alpha[:, 3]) / (2 * h)
    dz, dzbar = (fr - 1j * fi) / 2, (fr + 1j * fi) / 2
    fd_d = lam_u * dz[:n] - lam_v * dz[n:]
    fd_dbar = -np.conj(lam_v) * dzbar[n:]
    residual_fd_d = np.abs(fd_d - d_side) * scale**2
    residual_fd_dbar = np.abs(fd_dbar - dbar_side) * scale**2
    out = tuple(
        TheoremBSample(*map(complex, row[:4]), *map(float, row[4:]))
        for row in zip(zp, zq, lam_u, lam_v, residual_d, residual_dbar, residual_fd_d, residual_fd_dbar)
    )
    return TheoremBReport(
        samples=out,
        max_residual_d=float(residual_d.max()),
        max_residual_dbar=float(residual_dbar.max()),
        max_residual_fd=float(max(residual_fd_d.max(), residual_fd_dbar.max())),
        tol_d=tol_d,
        tol_dbar=tol_dbar,
        tol_fd=tol_fd,
    )


def random_samples(lat: LatticeContext, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 4) rows (zp, zq, lam_u, lam_v) away from the diagonal mod the lattice, |lam| >= 0.1."""
    rows = np.empty((0, 4), dtype=complex)
    while len(rows) < count:
        m = count - len(rows)
        a, b, c, d = rng.uniform(-0.5, 0.5, size=(4, m))
        lam_u, lam_v = rng.uniform(-1, 1, size=(2, m)) + 1j * rng.uniform(-1, 1, size=(2, m))
        zp = a * lat.omega1 + b * lat.omega2
        zq = c * lat.omega1 + d * lat.omega2
        diff = zp - zq
        coords = lat._coord @ np.vstack([diff.real, diff.imag])
        frac = coords - np.rint(coords)
        dist = np.abs(frac[0] * lat._r1 + frac[1] * lat._r2)
        keep = (dist >= _MIN_SEP * lat.scale) & (np.abs(lam_u) >= 0.1) & (np.abs(lam_v) >= 0.1)
        rows = np.concatenate([rows, np.stack([zp, zq, lam_u, lam_v], axis=1)[keep]])
    return rows
