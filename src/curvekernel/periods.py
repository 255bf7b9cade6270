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
is analytic on the closed segment so convergence is spectral. All d-1
segment integrals are one array expression over nodes of shape (d-1, order).

None of this bookkeeping is trusted blindly: every computed period matrix
must pass the Riemann-relation certificate (Z symmetric, Im Z positive
definite) or ``compute_periods`` raises ``RiemannRelationError``.

Curve points and tangent vectors may hold arrays of one shape (...), each
point validated; ``raw_differential_eval`` and ``normalized_differential_eval``
give all g differential values at once, shape (..., g), as one Vandermonde row.
"""
from __future__ import annotations

from dataclasses import dataclass

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

#: |y| at or below which a curve point is refused as too close to a branch point.
BRANCH_EXCLUSION = 1e-6
#: Frobenius-norm tolerance on Z - Z^T.
TOL_RIEMANN = 1e-8
#: Roots of f closer than this make it non-squarefree at working precision.
_MIN_ROOT_GAP = 1e-8
#: Roots of f with a larger imaginary part are taken as non-real.
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
        return np.polynomial.polynomial.polyval(x, np.asarray(self.f_coeffs))


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
    if np.abs(roots.imag).max() > _ROOT_IMAG_TOL:
        raise RootConfigurationError("f has non-real roots; only real branch points are supported")
    roots = np.sort(roots.real)
    if np.diff(roots).min() <= _MIN_ROOT_GAP:
        raise RootConfigurationError(
            f"f is not squarefree at working precision (min root gap <= {_MIN_ROOT_GAP:g})"
        )
    g = (deg - 1) // 2
    return HyperellipticCurve(f_coeffs=tuple(coeffs), roots=roots, g=g)


@dataclass(frozen=True)
class CurvePoint:
    """A point (x, y) with the sheet recording the chosen branch of sqrt f; or a batch of them."""

    x: complex | np.ndarray
    sheet: int | np.ndarray
    y: complex | np.ndarray


def curve_point(curve: HyperellipticCurve, x, sheet=1) -> CurvePoint:
    """The points over x on the given sheets; x and sheet broadcast to one shape."""
    x, sheet = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(sheet))
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
    return CurvePoint(x=x[()], sheet=sheet[()], y=y[()])


@dataclass(frozen=True)
class TangentVector:
    """lam * d/dz at a curve point, z = x - x0 the affine chart coordinate; or a batch."""

    base: CurvePoint
    lam: complex | np.ndarray


def tangent(curve: HyperellipticCurve, x, sheet=1, lam=1.0) -> TangentVector:
    lam = np.asarray(lam, dtype=complex)
    if not np.isfinite(lam).all():
        raise CurveError(f"lam must be finite, got {lam[~np.isfinite(lam)][0]}")
    return TangentVector(base=curve_point(curve, x, sheet), lam=lam[()])


def raw_differential_eval(curve: HyperellipticCurve, u: TangentVector) -> np.ndarray:
    """Values lam x^(k-1) / y of the g differentials x^(k-1) dx / y on u, shape (..., g)."""
    x, lam, y = (np.asarray(a, dtype=complex)[..., None] for a in (u.base.x, u.lam, u.base.y))
    return lam * x ** np.arange(curve.g) / y


def _chebyshev_nodes(order: int) -> tuple[np.ndarray, float]:
    j = np.arange(1, order + 1)
    return np.cos((2 * j - 1) * np.pi / (2 * order)), np.pi / order


def _segment_integrals(curve: HyperellipticCurve, order: int) -> np.ndarray:
    """J[m, k] = integral over segment m+1 of x^k / y dx, branch phases included."""
    e = curve.roots
    d = curve.degree
    t, weight = _chebyshev_nodes(order)
    a, b = e[:-1, None], e[1:, None]
    x = 0.5 * (a + b) + 0.5 * (b - a) * t
    # row m of rest multiplies |x - e_l| over the roots l off segment m, in ascending l
    rest = np.full_like(x, abs(curve.leading))
    seg = np.arange(d - 1)[:, None]
    for l in range(d):
        rest *= np.where((seg == l) | (seg == l - 1), 1.0, np.abs(x - e[l]))
    base = 1.0 / np.sqrt(rest)
    # scalar powers, not x ** arange(g): numpy squares x**2 exactly where pow may not
    moments = np.stack([x**k for k in range(curve.g)], axis=1) * base[:, None]
    lead_phase = 1.0 if curve.leading > 0 else 1j
    phase = np.array([lead_phase * 1j ** (d - m) for m in range(1, d)])
    return weight * moments.sum(axis=-1) / phase[:, None]


def compute_periods(curve: HyperellipticCurve, quad_order: int = 64) -> "PeriodData":
    """Assemble the a/b period matrices of the basis x^(k-1) dx / y.

    The normalized period matrix Z = A^{-1} B must pass the Riemann
    certificate, which is what validates the cycle convention a posteriori.
    """
    if quad_order < 8:
        raise DimensionMismatchError(f"quad_order must be >= 8, got {quad_order}")
    g = curve.g
    segs = _segment_integrals(curve, quad_order)
    A = np.empty((g, g), dtype=complex)
    B = np.empty((g, g), dtype=complex)
    for i in range(1, g + 1):
        A[:, i - 1] = 2 * segs[2 * i - 2]
        B[:, i - 1] = 2 * segs[2 * i - 1 :: 2].sum(axis=0)  # gap segments only
    return _period_data(curve, A, B, quad_order)


def _period_data(curve, A, B, quad_order) -> "PeriodData":
    try:
        Z = np.linalg.solve(A, B)
        N = np.linalg.inv(A)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("a-period matrix is singular") from err
    residual = float(np.linalg.norm(Z - Z.T))
    min_eig = float(np.linalg.eigvalsh((Z - Z.conj().T) / 2j).min())
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
