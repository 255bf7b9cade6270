r"""Numerical periods of real hyperelliptic curves y^2 = f(x).

Supported input class: f with real coefficients, degree 2g+1 or 2g+2, and
all roots real and pairwise distinct. For sorted roots e_1 < ... < e_d the
branch cuts are [e_1, e_2], [e_3, e_4], ...; the homology convention is

* a_i encircles cut i = [e_{2i-1}, e_{2i}],
* b_i runs from cut i through the gaps to the last cut; only the gap
  segments contribute (the sheets glue across the cuts, so those pieces
  cancel between the outgoing and returning branch).

On segment m = [e_m, e_{m+1}] the branch of y is i^(d-m) sqrt|f| (times i
if the leading coefficient is negative): the square root is positive right
of the largest root and gains a factor i across each branch point, which
is the analytic continuation through the upper half-plane. Segment
integrals of x^(k-1)/y use Gauss-Chebyshev nodes, which absorb the
inverse-square-root endpoint singularities exactly; the remaining factor
is analytic on the closed segment so convergence is spectral.

The period kernel makes the same number of numpy calls at every genus. The
factors |x - e_l| off each segment are one product over the root axis of a
(d, d-1, order) distance array; the moments x^k / sqrt|f| are one running
product (``np.multiply.accumulate``) over k, with no ``pow``; and (A | B) is
the segment table times a fixed 0/2 cycle incidence matrix. f(x) itself is
lead * prod (x - e_l) over the sorted roots, the factors the kernel uses.

None of this bookkeeping is trusted blindly: every computed period matrix
must pass the Riemann certificate ``symplectic.siegel_residuals`` (Z symmetric,
Im Z positive definite) or ``compute_periods`` raises ``RiemannRelationError``.

A ``TangentVector`` carries its point (x, sheet, y) and its coefficient
lam; it may hold arrays of one shape (...), each point validated, and
``tangent`` broadcasts x, sheet and lam to that shape.
``raw_differential_eval`` and ``normalized_differential_eval`` give all g
differential values at once, shape (..., g), as one Vandermonde row built
by the same running product.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BranchPointProximityError,
    CurveError,
    DegreeError,
    DimensionMismatchError,
    RiemannRelationError,
    RootConfigurationError,
    SingularSystemError,
)
from .symplectic import TOL_RIEMANN, siegel_residuals

#: |y| at or below which a curve point is refused as too close to a branch point.
BRANCH_EXCLUSION = 1e-6
#: Roots of f closer than this times max|e_i| make it non-squarefree at working precision.
_MIN_ROOT_GAP = 1e-8
#: Roots of f with an imaginary part above this times max|e_i| are taken as non-real.
_ROOT_IMAG_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HyperellipticCurve:
    """y^2 = f(x) with real squarefree f; coefficients are ascending in x."""

    f_coeffs: tuple[float, ...]
    roots: np.ndarray
    g: int

    @property
    def degree(self) -> int:
        return len(self.f_coeffs) - 1

    @property
    def leading(self) -> float:
        return self.f_coeffs[-1]

    def f(self, x):
        """lead * prod_l (x - e_l) over the sorted roots, elementwise in x."""
        return self.leading * np.prod(np.asarray(x)[..., None] - self.roots, axis=-1)


def build_curve(f_coeffs) -> HyperellipticCurve:
    coeffs = [float(c) for c in f_coeffs]
    if not np.isfinite(coeffs).all():
        raise RootConfigurationError("f has non-finite coefficients")
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 3:
        raise DegreeError(f"degree must be at least 3, got {deg}")
    roots = np.polynomial.polynomial.polyroots(coeffs)
    scale = np.abs(roots).max()
    if np.abs(roots.imag).max() > _ROOT_IMAG_TOL * scale:
        raise RootConfigurationError("f has non-real roots; only real branch points are supported")
    roots = np.sort(roots.real)
    if np.diff(roots).min() <= _MIN_ROOT_GAP * scale:
        raise RootConfigurationError(
            f"f is not squarefree at working precision (min root gap <= {_MIN_ROOT_GAP:g} max|e|)"
        )
    g = (deg - 1) // 2
    return HyperellipticCurve(f_coeffs=tuple(coeffs), roots=roots, g=g)


@dataclass(frozen=True)
class TangentVector:
    """lam * d/dz at (x, y), y on the given sheet of sqrt f, z = x - x0 the chart; or a batch."""

    x: complex | np.ndarray
    sheet: int | np.ndarray
    y: complex | np.ndarray
    lam: complex | np.ndarray


def tangent(curve: HyperellipticCurve, x, sheet=1, lam=1.0) -> TangentVector:
    """Tangents lam * d/dz over x on the given sheets; x, sheet and lam broadcast to one shape."""
    lam = np.asarray(lam, dtype=complex)
    if not np.isfinite(lam).all():
        raise CurveError(f"lam must be finite, got {lam[~np.isfinite(lam)][0]}")
    x, sheet = np.asarray(x, dtype=complex), np.asarray(sheet)
    try:
        x, sheet, lam = np.broadcast_arrays(x, sheet, lam)
    except ValueError as err:
        raise DimensionMismatchError(
            f"x, sheet and lam do not broadcast: shapes {x.shape}, {sheet.shape}, {lam.shape}"
        ) from err
    if not np.isfinite(x).all():
        raise CurveError(f"x must be finite, got {x[~np.isfinite(x)][0]}")
    bad = (sheet != 1) & (sheet != -1)
    if bad.any():
        raise DimensionMismatchError(f"sheet must be +1 or -1, got {sheet[bad][0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        y = sheet * np.sqrt(curve.f(x))
    if not np.isfinite(y).all():
        raise CurveError(f"f(x) overflows at x = {x[~np.isfinite(y)][0]}")
    near = np.abs(y) <= BRANCH_EXCLUSION
    if near.any():
        raise BranchPointProximityError(
            f"|y| = {abs(y[near][0]):.3e} at x = {x[near][0]}: too close to a branch point"
        )
    return TangentVector(x=x[()], sheet=sheet[()], y=y[()], lam=lam[()])


def raw_differential_eval(curve: HyperellipticCurve, u: TangentVector) -> np.ndarray:
    """Values lam x^(k-1) / y of the g differentials x^(k-1) dx / y on u, shape (..., g)."""
    lead = np.asarray(u.lam / u.y, dtype=complex)
    # running product lam/y, lam/y * x, lam/y * x^2, ... along the last axis
    terms = np.empty(lead.shape + (curve.g,), dtype=complex)
    terms[..., 0] = lead
    terms[..., 1:] = np.asarray(u.x)[..., None]
    return np.multiply.accumulate(terms, axis=-1, out=terms)


#: i^n for n mod 4.
_I_POWERS = np.array([1, 1j, -1, -1j])


@lru_cache(maxsize=8)
def _chebyshev_nodes(order: int) -> tuple[np.ndarray, float]:
    j = np.arange(1, order + 1)
    t = np.cos((2 * j - 1) * np.pi / (2 * order))
    t.flags.writeable = False
    return t, np.pi / order


def _segment_integrals(curve: HyperellipticCurve, order: int) -> np.ndarray:
    """J[m, k] = integral over segment m+1 of x^k / y dx, branch phases included."""
    e = curve.roots
    d = curve.degree
    t, weight = _chebyshev_nodes(order)
    a, b = e[:-1, None], e[1:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * t
    # dist[l, m] = |x - e_l| on segment m, with the segment's own ends set to 1;
    # the root and power axes lead, so each product runs over whole contiguous planes
    dist = x - e[:, None, None]
    np.abs(dist, out=dist)
    seg = np.arange(d - 1)
    dist[seg, seg] = 1.0
    dist[seg + 1, seg] = 1.0
    base = 1.0 / np.sqrt(abs(curve.leading) * dist.prod(axis=0))
    # moments[k, m] = x^k * base on segment m, k = 0..g-1, as one running product over k
    moments = np.empty((curve.g, d - 1, order))
    moments[0] = base
    moments[1:] = x
    np.multiply.accumulate(moments, axis=0, out=moments)
    lead_phase = 1.0 if curve.leading > 0 else 1j
    phase = lead_phase * _I_POWERS[(d - 1 - seg) % 4]  # i^(d-m) on segment m = seg + 1
    return (weight * moments.sum(axis=-1) / phase).T


@lru_cache(maxsize=32)
def _cycle_incidence(d: int, g: int) -> np.ndarray:
    """C with (A | B) = J^T C: column i takes 2 J[2i] (a_i), column g+i takes 2 J[j] for odd j > 2i (b_i)."""
    rows, cols = np.arange(d - 1)[:, None], np.arange(g)
    C = 2.0 * np.hstack([rows == 2 * cols, (rows % 2 == 1) & (rows > 2 * cols)])
    C.flags.writeable = False
    return C


def compute_periods(curve: HyperellipticCurve, quad_order: int = 64) -> "PeriodData":
    """Assemble the a/b period matrices of the basis x^(k-1) dx / y.

    The normalized period matrix Z = A^{-1} B must pass the Riemann
    certificate, which is what validates the cycle convention a posteriori.
    """
    if quad_order < 8:
        raise DimensionMismatchError(f"quad_order must be >= 8, got {quad_order}")
    g = curve.g
    ab = _segment_integrals(curve, quad_order).T @ _cycle_incidence(curve.degree, g)
    return _period_data(curve, ab[:, :g], ab[:, g:], quad_order)


def _period_data(curve, A, B, quad_order) -> "PeriodData":
    try:
        Z = np.linalg.solve(A, B)
        N = np.linalg.inv(A)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("a-period matrix is singular") from err
    residual, min_eig = siegel_residuals(Z)
    if residual > TOL_RIEMANN or min_eig <= 0:
        raise RiemannRelationError(
            "Riemann relations violated "
            f"(||Z - Z^T|| = {residual:.3e}, min eig Im Z = {min_eig:.3e}); "
            "quadrature under-resolved or cycle convention not symplectic"
        )
    return PeriodData(
        curve=curve,
        A=A,
        B=B,
        Z=Z,
        N=N,
        quad_order=quad_order,
        riemann_residual=residual,
        min_eig_imZ=min_eig,
    )


@dataclass(frozen=True, eq=False)
class PeriodData:
    """Periods of a curve: raw matrices A, B, normalization N = A^{-1}, Z = N B."""

    curve: HyperellipticCurve
    A: np.ndarray
    B: np.ndarray
    Z: np.ndarray
    N: np.ndarray
    quad_order: int
    riemann_residual: float
    min_eig_imZ: float

    @property
    def g(self) -> int:
        return self.curve.g


def normalized_differential_eval(pd: PeriodData, u: TangentVector) -> np.ndarray:
    """Values of the g a-normalized differentials on u, shape (..., g)."""
    return raw_differential_eval(pd.curve, u) @ pd.N.T


def transform_cycles(pd: PeriodData, S) -> PeriodData:
    """Periods in a new homology basis (a'|b') = S (a|b), S integer symplectic.

    The transformed matrices are re-certified; a non-symplectic S surfaces
    as a ``RiemannRelationError``.
    """
    S = np.asarray(S)
    g = pd.g
    if S.shape != (2 * g, 2 * g):
        raise DimensionMismatchError(f"expected a {2 * g}x{2 * g} cycle matrix, got {S.shape}")
    periods = np.hstack([pd.A, pd.B]) @ S.T
    return _period_data(pd.curve, periods[:, :g], periods[:, g:], pd.quad_order)
