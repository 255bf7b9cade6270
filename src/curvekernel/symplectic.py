"""Real and complex symplectic linear algebra.

A point of Siegel space is a period matrix Z = X + iY, symmetric with Y
positive definite; ``siegel_residuals`` is the package's one domain check,
the Riemann certificate of ``periods`` against the one ``TOL_RIEMANN``.
Z is the one coordinate of the complex structure that ``siegel`` needs; the
matrix J of that structure, and its eigenspaces, belong to the endomorphism
picture of the test oracle ``tests/siegel_oracle.py``.

Coordinate conventions, fixed once for the whole package:

* ``Q = duality_maps(g)`` is the standard block form with upper-right
  identity, so Q(a_i, b_j) = delta_ij for the basis {a_1..a_g, b_1..b_g}.
* A cohomology class has coordinates (a-periods | b-periods) in the dual
  basis {a*, b*}, paired by ``qstar_pairing``: Qstar(a*_i, b*_j) = delta_ij.
* H10 = (I; Z^T) spans the (1,0) classes at Z, and H01 = conj(H10).
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

#: Single absolute tolerance for matrix-identity checks (Frobenius norm).
MATRIX_TOL = 1e-10
#: Frobenius-norm tolerance on Z - Z^T in Siegel space (the Riemann certificate).
TOL_RIEMANN = 1e-8


def duality_maps(g: int) -> np.ndarray:
    """The standard symplectic form [[0, I], [-I, 0]] on R^(2g).

    In these coordinates the one matrix is Q, phi_Q: v -> Q(., v), and the
    dual form Qstar = -Q^{-1} on V*; psi_Q = phi_Q^{-1} = -phi_Q.
    """
    if int(g) != g or g < 1:
        raise DimensionMismatchError(f"half-dimension g must be a positive integer, got {g}")
    g = int(g)
    q = np.zeros((2 * g, 2 * g))
    q[:g, g:] = np.eye(g)
    q[g:, :g] = -np.eye(g)
    return q


def siegel_residuals(Z: np.ndarray) -> tuple[float, float]:
    """(||Z - Z^T||, min eig of (Z - Z^H)/2i); in Siegel space: <= TOL_RIEMANN, > 0."""
    residual = float(np.linalg.norm(Z - Z.T))
    min_eig = float(np.linalg.eigvalsh((Z - Z.conj().T) / 2j).min())
    return residual, min_eig


def qstar_pairing(alpha, beta):
    """Dual symplectic pairing of two covectors in (a* | b*) coordinates.

    This is sum_i alpha_i beta_{g+i} - alpha_{g+i} beta_i, with g half the
    common length. Bilinear (no conjugation) and antisymmetric; batched over
    leading axes.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    n = alpha.shape[-1] if alpha.ndim else 1
    if n % 2 or beta.shape[-1:] != (n,):
        raise DimensionMismatchError(
            f"expected covectors of one even length, got {alpha.shape} and {beta.shape}"
        )
    return np.sum((alpha @ duality_maps(n // 2)) * beta, -1)
