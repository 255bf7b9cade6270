"""Real and complex symplectic linear algebra.

A point of Siegel space is a real matrix J on the standard symplectic space
(R^2g, Q) with J^2 = -I, J^T Q J = Q and Q(., J.) positive definite. This
module builds such structures (from a matrix or from a period matrix),
extracts the +/-i eigenspace bases and their annihilators, and provides
the one symplectic form of the package and its dual pairing.

Coordinate conventions, fixed once for the whole package:

* ``Q = duality_maps(g)`` is the standard block form with upper-right
  identity, so Q(a_i, b_j) = delta_ij for the basis {a_1..a_g, b_1..b_g}.
* A cohomology class has coordinates (a-periods | b-periods) in the dual
  basis {a*, b*}, paired by ``qstar_pairing``: Qstar(a*_i, b*_j) = delta_ij.
* The +i eigenspace of J is stored as ``Vm10`` and its conjugate as
  ``V0m1``; the annihilator bases satisfy H10^T V0m1 = 0 and
  H01 = conj(H10).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    PositivityError,
    SiegelDomainError,
    SquareInvariantError,
    SymplecticInvariantError,
)

#: Single absolute tolerance for matrix-identity checks (Frobenius norm).
MATRIX_TOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """A compatible complex structure J with its eigenspace/annihilator bases.

    ``Q`` is the symplectic form J preserves. ``Vm10``/``V0m1`` are 2g x g
    matrices whose columns span the +i / -i eigenspaces of J on the
    complexification; ``H10``/``H01`` span their annihilators in the dual
    space (H10 annihilates V0m1).
    """

    Q: np.ndarray
    J: np.ndarray
    Vm10: np.ndarray
    V0m1: np.ndarray
    H10: np.ndarray
    H01: np.ndarray

    @property
    def g(self) -> int:
        return self.J.shape[0] // 2


def _check_compatible(Q: np.ndarray, J: np.ndarray) -> None:
    n = Q.shape[0]
    if not np.isfinite(J).all():
        raise SquareInvariantError("J has non-finite entries")
    if np.linalg.norm(J @ J + np.eye(n)) > MATRIX_TOL:
        raise SquareInvariantError("J^2 + I exceeds tolerance: not an almost complex structure")
    if np.linalg.norm(J.T @ Q @ J - Q) > MATRIX_TOL:
        raise SymplecticInvariantError("J^T Q J - Q exceeds tolerance: J does not preserve Q")
    gj = Q @ J
    eigmin = np.linalg.eigvalsh((gj + gj.T) / 2).min()
    if eigmin <= 0:
        raise PositivityError(f"Q(., J.) is not positive definite (min eigenvalue {eigmin:.3e})")


def complex_structure_from_matrix(J: np.ndarray) -> ComplexStructure:
    """Validate a 2g x 2g matrix J against the standard form and compute its eigenspace data.

    Eigenspaces come from the exact spectral projections (I -/+ iJ)/2
    applied to the standard basis, followed by an SVD rank reduction; the
    eigenvalues +/-i are known so no general eigensolver is involved.
    V0m1 is Lagrangian, so H10 = Q V0m1 annihilates it.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2:
        raise DimensionMismatchError(f"J must be 2g x 2g, got {J.shape}")
    g = J.shape[0] // 2
    Q = duality_maps(g)
    _check_compatible(Q, J)
    proj_plus = (np.eye(2 * g) - 1j * J) / 2
    u, _, _ = np.linalg.svd(proj_plus)
    vm10 = u[:, :g]
    v0m1 = vm10.conj()
    h10 = Q @ v0m1
    return ComplexStructure(Q=Q, J=J, Vm10=vm10, V0m1=v0m1, H10=h10, H01=h10.conj())


def complex_structure_from_period_matrix(Z: np.ndarray) -> ComplexStructure:
    """Complex structure on the standard space determined by a period matrix.

    The holomorphic annihilator H10 is spanned by the rows of (I | Z) in the
    dual coordinates (a* | b*); the -i eigenspace is its kernel, spanned by
    the columns of [-Z; I].
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise DimensionMismatchError(f"period matrix must be square, got {Z.shape}")
    if not np.isfinite(Z).all():
        raise SiegelDomainError("period matrix has non-finite entries")
    g = Z.shape[0]
    Q = duality_maps(g)  # rejects g = 0 before eigvalsh meets an empty matrix
    if np.linalg.norm(Z - Z.T) > MATRIX_TOL:
        raise SiegelDomainError("period matrix is not symmetric")
    im_eigmin = np.linalg.eigvalsh(Z.imag).min()
    if im_eigmin <= 0:
        raise SiegelDomainError(
            f"imaginary part of the period matrix is not positive definite (min eig {im_eigmin:.3e})"
        )
    eye = np.eye(g)
    v0m1 = np.vstack([-Z, eye])
    vm10 = v0m1.conj()
    h10 = np.vstack([eye, Z.T]).astype(complex)
    h01 = h10.conj()
    basis = np.hstack([vm10, v0m1])
    d = np.concatenate([np.full(g, 1j), np.full(g, -1j)])
    J = basis @ np.diag(d) @ np.linalg.inv(basis)
    if np.linalg.norm(J.imag) > MATRIX_TOL:
        raise SiegelDomainError("derived J is not real; period matrix outside Siegel domain")
    J = J.real
    _check_compatible(Q, J)
    return ComplexStructure(Q=Q, J=J, Vm10=vm10, V0m1=v0m1, H10=h10, H01=h01)


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
