"""Real and complex symplectic linear algebra.

A point of Siegel space is a period matrix Z = X + iY, symmetric with Y
positive definite; ``siegel_residuals`` is the package's one domain check,
used by the Riemann certificate of ``periods`` and by
``complex_structure_from_period_matrix`` against the one ``TOL_RIEMANN``.
Z is the coordinate of a complex structure J on (R^2g, Q) with J^2 = -I,
J^T Q J = Q and Q(., J.) positive definite; a ``ComplexStructure`` stores
both, in closed form from each other: J = [[-X Y^-1, -(Y + X Y^-1 X)],
[Y^-1, Y^-1 X]], and Z = c^-1 (d + iI) for J = [[a, b], [c, d]].

Coordinate conventions, fixed once for the whole package:

* ``Q = duality_maps(g)`` is the standard block form with upper-right
  identity, so Q(a_i, b_j) = delta_ij for the basis {a_1..a_g, b_1..b_g}.
* A cohomology class has coordinates (a-periods | b-periods) in the dual
  basis {a*, b*}, paired by ``qstar_pairing``: Qstar(a*_i, b*_j) = delta_ij.
* V0m1 = (-Z; I) spans the -i eigenspace of J and Vm10 = conj(V0m1) the +i
  one; H10 = (I; Z^T) annihilates V0m1, and H01 = conj(H10).
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """A compatible complex structure J and its period matrix Z.

    The 2g x g bases ``Vm10``/``V0m1`` (+i / -i eigenspaces of J) and
    ``H10``/``H01`` (their annihilators) are read off Z once, on construction.
    """

    Z: np.ndarray
    J: np.ndarray
    Vm10: np.ndarray = field(init=False, repr=False)
    V0m1: np.ndarray = field(init=False, repr=False)
    H10: np.ndarray = field(init=False, repr=False)
    H01: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eye = np.eye(self.g)
        v0m1 = np.vstack([-self.Z, eye])
        h10 = np.vstack([eye, self.Z.T]).astype(complex)
        # frozen: the derived fields go straight into the instance dict
        self.__dict__.update(Vm10=v0m1.conj(), V0m1=v0m1, H10=h10, H01=h10.conj())

    @property
    def g(self) -> int:
        return len(self.Z)


def _check_compatible(J: np.ndarray) -> None:
    n = J.shape[0]
    Q = duality_maps(n // 2)
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
    """Validate a 2g x 2g matrix J against the standard form and read Z = c^-1 (d + iI) off it.

    The block c of J = [[a, b], [c, d]] is the positive definite upper-left block of Q J.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 2:
        raise DimensionMismatchError(f"J must be 2g x 2g, got {J.shape}")
    _check_compatible(J)
    g = J.shape[0] // 2
    Z = np.linalg.solve(J[g:, :g], J[g:, g:] + 1j * np.eye(g))
    return ComplexStructure(Z=(Z + Z.T) / 2, J=J)


def complex_structure_from_period_matrix(Z: np.ndarray) -> ComplexStructure:
    """Complex structure of a period matrix Z that passes ``siegel_residuals``.

    It is built from the symmetric part X + iY of Z, with J in closed form.
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or not len(Z):
        raise DimensionMismatchError(f"period matrix must be square and non-empty, got {Z.shape}")
    if not np.isfinite(Z).all():
        raise SiegelDomainError("period matrix has non-finite entries")
    residual, min_eig = siegel_residuals(Z)
    if residual > TOL_RIEMANN or min_eig <= 0:
        raise SiegelDomainError(
            f"Z outside Siegel space (||Z - Z^T|| = {residual:.3e}, min eig Im Z = {min_eig:.3e})"
        )
    g = len(Z)
    Z = (Z + Z.T) / 2
    X, Y = Z.real, Z.imag
    y_inv = np.linalg.inv(Y)
    w = y_inv @ X  # its transpose is X Y^-1
    J = np.empty((2 * g, 2 * g))
    J[:g, :g], J[:g, g:], J[g:, :g], J[g:, g:] = -w.T, -(Y + X @ w), y_inv, w
    _check_compatible(J)
    return ComplexStructure(Z=Z, J=J)


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
