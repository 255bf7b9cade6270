r"""Gram matrix, reproducing elements and kernel evaluation on a curve.

A ``BergmanContext`` is always a curve's: ``context_from_periods(pd)``
builds it from the period data in the a-normalized basis e. Its Gram matrix
is the Hodge product h(e_i, e_j) = i Qstar(pv(e_i), pv(conj e_j)) of the
period vectors through the dual pairing, never a surface integral; it equals
2 Im Z. The kernel value at a pair of tangent vectors is the one
contraction conj(e(v)) . G^{-1} . e(u).

A point enters only through the values e(u) of the basis, which the caller
evaluates once per batch of points (x, sheet, lam) with the evaluator of
``periods`` and passes in; the value of a class with coefficients c at u is
sum(c * e(u)). Every function takes the context first and returns plain
arrays: ``reproducing_element`` gives the coefficients of k_u and
``class_period_vector`` the (a* | b*) coordinates of classes. All
evaluation is batched: basis values of shape (..., g) give kernel values of
shape (...); the values at one point give a complex. The other presentations
of the kernel and the Hodge product of arbitrary classes are the test oracle
``tests/bergman_oracle.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SingularSystemError
from .periods import PeriodData
from .symplectic import duality_maps


@dataclass(frozen=True, eq=False)
class BergmanContext:
    """Gram data of a curve's a-normalized holomorphic differentials.

    ``period_rows`` (g x 2g) holds their period vectors N (A | B) = (I | Z).
    """

    pd: PeriodData
    period_rows: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray

    @property
    def g(self) -> int:
        return self.pd.g


def context_from_periods(pd: PeriodData) -> BergmanContext:
    """Bergman context of a curve in the a-normalized basis, where gram = 2 Im Z."""
    period_rows = np.hstack([pd.N @ pd.A, pd.N @ pd.B])
    gram = 1j * (period_rows @ duality_maps(pd.g) @ period_rows.conj().T)
    gram = (gram + gram.conj().T) / 2
    try:
        np.linalg.cholesky(gram)  # raises unless gram is positive definite
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("Gram matrix is not positive definite") from err
    return BergmanContext(pd=pd, period_rows=period_rows, gram=gram, gram_inv=np.linalg.inv(gram))


def class_period_vector(ctx: BergmanContext, coeffs) -> np.ndarray:
    """Coordinates in (a* | b*) of classes given by normalized-basis coefficients (..., g).

    A class maps to (coeffs | coeffs @ Z), shape (..., 2g); its conjugate to the conjugate.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[-1:] != (ctx.g,):
        raise DimensionMismatchError(f"expected {ctx.g} coefficients, got shape {coeffs.shape}")
    return coeffs @ ctx.period_rows


def reproducing_element(ctx: BergmanContext, eu) -> np.ndarray:
    """Coefficients (..., g) of k_u = conj(G^{-1} e(u)), so h(w, k_u) = w(u) for holomorphic w."""
    return np.conj(eu @ ctx.gram_inv.T)


def bergman_eval(ctx: BergmanContext, eu, ev):
    """Kernel value at ((u, 0), (0, conj v)) from e(u), e(v); equals k_v(u). It is conj(e(v)) G^{-1} e(u)."""
    return np.sum((ev.conj() @ ctx.gram_inv) * eu, -1)
