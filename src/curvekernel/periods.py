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
the segment table times a fixed 0/2 cycle incidence matrix. At a point,
y = sqrt f(x) is sqrt|lead| * sqrt(sign(lead) prod (x - e_l)) over the sorted
roots. Both products run in units of a power of four at least max|e_l|, and
|x| at a point; the kernel's takes |lead| in units of its own. So neither the
leading coefficient nor the size of x or of the roots overflows them.

None of this bookkeeping is trusted blindly: every computed period matrix
must pass the Riemann certificate ``symplectic.siegel_residuals`` (Z symmetric,
Im Z positive definite) or ``compute_periods`` raises ``RiemannRelationError``.

A point is three arrays that broadcast to one shape (...): x, its sheet
(+1 or -1) of sqrt f, and the coefficient lam of the tangent lam * d/dx.
``raw_differential_eval`` checks the points (one within BRANCH_EXCLUSION r
of a root is refused, r = (e_d - e_1) / 2) and gives all g differential
values at once, shape (..., g), as one Vandermonde row built by the same
running product; ``normalized_differential_eval`` takes them to the
a-normalized basis. A caller evaluates each batch of points once and passes
the values to ``bergman`` and ``torelli``, which never see the curve.
"""
from __future__ import annotations

import math
import sys
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

#: A curve point within this times ``HyperellipticCurve.half_width`` of a root is refused.
BRANCH_EXCLUSION = 1e-6
#: Roots of f closer than this times max|e_i| make it non-squarefree at working precision.
_MIN_ROOT_GAP = 1e-8
#: Roots of f with an imaginary part above this times max|e_i| are taken as non-real.
_ROOT_IMAG_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HyperellipticCurve:
    """y^2 = f(x) with real squarefree f = leading * prod_l (x - e_l), its roots e_l ascending."""

    roots: np.ndarray
    leading: float

    @property
    def degree(self) -> int:
        return len(self.roots)

    @property
    def g(self) -> int:
        return (self.degree - 1) // 2

    @property
    def half_width(self) -> float:
        """r = (e_d - e_1) / 2, the curve's one length: x -> a x + b takes it to |a| r, f -> c f keeps it."""
        return (self.roots[-1] - self.roots[0]) / 2

    def sqrt_f(self, x):
        """sqrt|lead| * sqrt(sign(lead) prod_l (x - e_l)) over the sorted roots, elementwise in x.

        This is the principal sqrt f(x), since sqrt|lead| > 0. At each x the product runs
        in units of 4^k >= max(|x|, max|e_l|), so it stays below 2^d whatever the leading
        coefficient and the size of x and of the roots, and the unit comes back last as
        2^(k d), by ``ldexp``. Scaling by powers of two is exact: where the unscaled
        product does not overflow, the value is the same to the bit.
        """
        x = np.asarray(x)
        k = (np.frexp(np.maximum(abs(x), max(-self.roots[0], self.roots[-1])))[1] + 1) // 2
        unit = np.ldexp(1.0, -2 * k)[..., None]
        prod = np.prod(x[..., None] * unit - self.roots * unit, axis=-1)
        y = np.sqrt(abs(self.leading)) * np.sqrt(np.sign(self.leading) * prod)
        return np.ldexp(y.real, k * self.degree) + 1j * np.ldexp(y.imag, k * self.degree)


def build_curve(f_coeffs) -> HyperellipticCurve:
    try:
        coeffs = [float(c) for c in f_coeffs]
    except OverflowError as err:
        raise RootConfigurationError(f"f has non-finite coefficients: {err}") from err
    if not np.isfinite(coeffs).all():
        raise RootConfigurationError("f has non-finite coefficients")
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 3:
        raise DegreeError(f"degree must be at least 3, got {deg}")
    # polyroots divides by the leading coefficient; a quotient outside the normal range loses the roots
    bad = [q for q in (c / coeffs[-1] for c in coeffs[:-1] if c) if not sys.float_info.min <= abs(q) < math.inf]
    if bad:
        raise RootConfigurationError(
            f"f over its leading coefficient leaves the normal float range (a quotient is {bad[0]:.3g}), "
            "so its roots cannot be computed"
        )
    roots = np.polynomial.polynomial.polyroots(coeffs)
    scale = np.abs(roots).max()
    if np.abs(roots.imag).max() > _ROOT_IMAG_TOL * scale:
        raise RootConfigurationError("f has non-real roots; only real branch points are supported")
    roots = np.sort(roots.real)
    if np.diff(roots).min() <= _MIN_ROOT_GAP * scale:
        raise RootConfigurationError(
            f"f is not squarefree at working precision (min root gap <= {_MIN_ROOT_GAP:g} max|e|)"
        )
    return HyperellipticCurve(roots=roots, leading=coeffs[-1])


def raw_differential_eval(curve: HyperellipticCurve, x, sheet=1, lam=1.0) -> np.ndarray:
    """Values lam x^(k-1) / y of the g differentials x^(k-1) dx / y at the points, shape (..., g).

    x, sheet and lam broadcast to one shape; each point is checked: x and lam finite,
    sheet +1 or -1, y = sheet * sqrt f(x) finite, and x farther than BRANCH_EXCLUSION r from every root.
    """
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
        y = sheet * curve.sqrt_f(x)
        if not np.isfinite(y).all():
            raise CurveError(f"f(x) overflows at x = {x[~np.isfinite(y)][0]}")
        near = np.abs(x[..., None] - curve.roots).min(axis=-1) <= BRANCH_EXCLUSION * curve.half_width
    if near.any():
        raise BranchPointProximityError(f"|y| = {abs(y[near][0]):.3e} at x = {x[near][0]}: too close to a branch point")
    # running product lam/y, lam/y * x, lam/y * x^2, ... along the last axis
    terms = np.empty(x.shape + (curve.g,), dtype=complex)
    terms[..., 0] = lam / y
    terms[..., 1:] = x[..., None]
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
    # dist[l, m] = |x - e_l| on segment m in units of 4^k >= max|e_l|, as sqrt_f takes it, with the segment's
    # own ends set to 1; the root and power axes lead, so each product runs over whole contiguous planes
    k = (math.frexp(max(-e[0], e[-1]))[1] + 1) // 2
    unit = np.ldexp(1.0, -2 * k)
    dist = x * unit - (e * unit)[:, None, None]
    np.abs(dist, out=dist)
    seg = np.arange(d - 1)
    dist[seg, seg] = 1.0
    dist[seg + 1, seg] = 1.0
    # |lead| in units of 4^j: no product overflows, and ldexp puts both units back exactly after the square root
    j = math.frexp(abs(curve.leading))[1] // 2
    base = np.ldexp(1.0 / np.sqrt(math.ldexp(abs(curve.leading), -2 * j) * dist.prod(axis=0)), -j - k * (d - 2))
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
    try:  # one LU of A gives Z = A^-1 B and N = A^-1, bit for bit what solve(A, B) and inv(A) give
        Z, N = np.hsplit(np.linalg.solve(A, np.hstack([B, np.eye(len(A))])), 2)
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


def normalized_differential_eval(pd: PeriodData, x, sheet=1, lam=1.0) -> np.ndarray:
    """Values of the g a-normalized differentials at the points, shape (..., g)."""
    return raw_differential_eval(pd.curve, x, sheet, lam) @ pd.N.T


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
