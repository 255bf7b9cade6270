r"""Hodge Hermitian product, reproducing elements and kernel evaluation.

The Hermitian product of two degree-one classes is computed from their
period vectors through the dual symplectic pairing ``qstar_pairing`` (the
bilinear-relation route), never by surface integration:
h(a, b) = i Qstar(pv(a), pv(conj b)).
For the a-normalized basis this reproduces h(w_i, w_j) = 2 Im z_ij, which
is the Gram matrix the kernel formula inverts.

``bergman_eval`` supports the three equivalent presentations of the kernel
value at a pair of tangent vectors and the tests pin their agreement:

* ``gram``: conj(e(v)) . G^{-1} . e(u), G the Gram matrix of the periods;
* ``unitary``: plain sum over a unitarized basis;
* ``normalized``: (1/2) conj(e(v)) . (Im Z)^{-1} . e(u), the closed form.

``presentation_spread`` is the largest disagreement among them.

A ``BergmanContext`` is always a curve's: ``context_from_periods(pd)``
builds it from the period data in the a-normalized basis e. A point enters
only through the values e(u) of that basis, which the caller evaluates once
per batch of points (x, sheet, lam) with the evaluator of ``periods`` and
passes in; the value of a class with coefficients c at u is sum(c * e(u)).
Every function takes the context first and returns plain arrays:
``reproducing_element`` gives the coefficients of k_u and
``class_period_vector`` the (a* | b*) coordinates of classes. All
evaluation is batched: basis values of shape (..., g) give kernel values of
shape (...); the values at one point give a complex.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularSystemError
from .periods import PeriodData
from .symplectic import duality_maps, qstar_pairing


@dataclass(frozen=True, eq=False)
class BergmanContext:
    """Gram data of a curve's a-normalized holomorphic differentials.

    ``period_rows`` (g x 2g) holds their period vectors N (A | B) = (I | Z),
    and ``unitary_change`` is U with U gram U^H = I.
    """

    pd: PeriodData
    period_rows: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray
    unitary_change: np.ndarray

    @property
    def g(self) -> int:
        return self.pd.g


def context_from_periods(pd: PeriodData) -> BergmanContext:
    """Bergman context of a curve in the a-normalized basis, where gram = 2 Im Z."""
    period_rows = np.hstack([pd.N @ pd.A, pd.N @ pd.B])
    gram = 1j * (period_rows @ duality_maps(pd.g) @ period_rows.conj().T)
    gram = (gram + gram.conj().T) / 2
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("Gram matrix is not positive definite") from err
    return BergmanContext(
        pd=pd,
        period_rows=period_rows,
        gram=gram,
        gram_inv=np.linalg.inv(gram),
        unitary_change=np.linalg.inv(chol),
    )


def class_period_vector(ctx: BergmanContext, coeffs) -> np.ndarray:
    """Coordinates in (a* | b*) of classes given by normalized-basis coefficients (..., g).

    A class maps to (coeffs | coeffs @ Z), shape (..., 2g); its conjugate to the conjugate.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[-1:] != (ctx.g,):
        raise DimensionMismatchError(f"expected {ctx.g} coefficients, got shape {coeffs.shape}")
    return coeffs @ ctx.period_rows


def hodge_product(ctx: BergmanContext, alpha, beta) -> complex:
    """h(alpha, beta) = i * integral of alpha wedge conj(beta), through the dual pairing.

    Arguments of length g are holomorphic coefficient vectors in the
    normalized basis; arguments of length 2g are taken as period vectors of
    the class itself (mixed-type inputs).
    """
    return 1j * qstar_pairing(_period_vector(ctx, alpha), _period_vector(ctx, beta).conj())


def _period_vector(ctx: BergmanContext, vec) -> np.ndarray:
    vec, g = np.asarray(vec, dtype=complex), ctx.g
    if vec.shape == (g,):
        return class_period_vector(ctx, vec)
    if vec.shape != (2 * g,):
        raise DimensionMismatchError(f"expected a class of length {g} or {2 * g}, got {vec.shape}")
    return vec


def reproducing_element(ctx: BergmanContext, eu) -> np.ndarray:
    """Coefficients (..., g) of k_u = conj(G^{-1} e(u)), so h(w, k_u) = w(u) for holomorphic w."""
    return np.conj(eu @ ctx.gram_inv.T)


def bergman_eval(ctx: BergmanContext, eu, ev, presentation: str = "gram"):
    """Kernel value at ((u, 0), (0, conj v)) from e(u), e(v); equals k_v(u). It is conj(e(v)) M e(u)."""
    if presentation == "gram":
        M = ctx.gram_inv
    elif presentation == "unitary":
        change = ctx.unitary_change.T
        M, eu, ev = np.eye(ctx.g), eu @ change, ev @ change
    elif presentation == "normalized":
        M = 0.5 * np.linalg.inv(ctx.pd.Z.imag)
    else:
        raise DimensionMismatchError(f"unknown presentation {presentation!r}")
    return np.sum((ev.conj() @ M) * eu, -1)


def three_presentation_values(ctx: BergmanContext, eu, ev) -> dict[str, complex]:
    return {p: bergman_eval(ctx, eu, ev, p) for p in ("gram", "unitary", "normalized")}


def presentation_spread(values: dict[str, complex]) -> float:
    """Largest pairwise distance among the values of ``three_presentation_values``."""
    vals = list(values.values())
    return float(max(abs(a - b) for a in vals for b in vals))
