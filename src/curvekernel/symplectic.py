"""Real and complex symplectic linear algebra.

A point of Siegel space is a real matrix J on a symplectic vector space
(V, Q) with J^2 = -I, J^T Q J = Q and Q(., J.) positive definite. This
module builds such structures (from a matrix or from a period matrix),
extracts the +/-i eigenspace bases and their annihilators, and provides
the duality maps between V and V* together with the dual symplectic form.

Coordinate conventions, fixed once for the whole package:

* ``Q`` defaults to the standard block form with upper-right identity,
  so Q(a_i, b_j) = delta_ij for the basis {a_1..a_g, b_1..b_g}.
* A cohomology class has coordinates (a-periods | b-periods) in the dual
  basis {a*, b*}; the dual form is the same standard block matrix, so
  Qstar(a*_i, b*_j) = delta_ij.
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
    SpanError,
    SquareInvariantError,
    SymplecticInvariantError,
)

#: Single absolute tolerance for matrix-identity checks (Frobenius norm).
MATRIX_TOL = 1e-10


def standard_q(g: int) -> np.ndarray:
    """Standard symplectic form [[0, I], [-I, 0]] on R^(2g)."""
    q = np.zeros((2 * g, 2 * g))
    q[:g, g:] = np.eye(g)
    q[g:, :g] = -np.eye(g)
    return q


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """A real symplectic vector space of dimension 2g."""

    g: int
    Q: np.ndarray


def make_standard_space(g: int) -> SymplecticSpace:
    if int(g) != g or g < 1:
        raise DimensionMismatchError(f"half-dimension g must be a positive integer, got {g}")
    return SymplecticSpace(g=int(g), Q=standard_q(int(g)))


def make_space(g: int, Q: np.ndarray) -> SymplecticSpace:
    """Symplectic space with an explicitly supplied antisymmetric form."""
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (2 * g, 2 * g):
        raise DimensionMismatchError(f"Q must be {2 * g}x{2 * g}, got {Q.shape}")
    if np.linalg.norm(Q + Q.T) > MATRIX_TOL:
        raise SymplecticInvariantError("Q is not antisymmetric")
    if abs(np.linalg.det(Q)) < MATRIX_TOL:
        raise SymplecticInvariantError("Q is degenerate")
    return SymplecticSpace(g=int(g), Q=Q)


@dataclass(frozen=True, eq=False)
class ComplexStructure:
    """A compatible complex structure J with its eigenspace/annihilator bases.

    ``Vm10``/``V0m1`` are 2g x g matrices whose columns span the +i / -i
    eigenspaces of J on the complexification; ``H10``/``H01`` span their
    annihilators in the dual space (H10 annihilates V0m1).
    """

    space: SymplecticSpace
    J: np.ndarray
    Vm10: np.ndarray
    V0m1: np.ndarray
    H10: np.ndarray
    H01: np.ndarray

    @property
    def g(self) -> int:
        return self.space.g


def _check_compatible(space: SymplecticSpace, J: np.ndarray) -> None:
    g, Q = space.g, space.Q
    n = 2 * g
    if J.shape != (n, n):
        raise DimensionMismatchError(f"J must be {n}x{n}, got {J.shape}")
    if np.linalg.norm(J @ J + np.eye(n)) > MATRIX_TOL:
        raise SquareInvariantError("J^2 + I exceeds tolerance: not an almost complex structure")
    if np.linalg.norm(J.T @ Q @ J - Q) > MATRIX_TOL:
        raise SymplecticInvariantError("J^T Q J - Q exceeds tolerance: J does not preserve Q")
    gj = Q @ J
    eigmin = np.linalg.eigvalsh((gj + gj.T) / 2).min()
    if eigmin <= 0:
        raise PositivityError(f"Q(., J.) is not positive definite (min eigenvalue {eigmin:.3e})")


def _nullspace(m: np.ndarray, rank: int) -> np.ndarray:
    """Basis of the (bilinear) nullspace {v : m v = 0}, m of full rank ``rank``."""
    _, _, vh = np.linalg.svd(m)
    return vh[rank:].conj().T


def complex_structure_from_matrix(space: SymplecticSpace, J: np.ndarray) -> ComplexStructure:
    """Validate J against (V, Q) and compute its eigenspace data.

    Eigenspaces come from the exact spectral projections (I -/+ iJ)/2
    applied to the standard basis, followed by an SVD rank reduction; the
    eigenvalues +/-i are known so no general eigensolver is involved.
    """
    J = np.asarray(J, dtype=float)
    _check_compatible(space, J)
    g = space.g
    proj_plus = (np.eye(2 * g) - 1j * J) / 2
    u, _, _ = np.linalg.svd(proj_plus)
    vm10 = u[:, :g]
    v0m1 = vm10.conj()
    h10 = _nullspace(v0m1.T, g)
    h01 = h10.conj()
    if np.linalg.norm(h10.T @ v0m1) > MATRIX_TOL:
        raise SpanError("annihilator basis failed its defining identity")
    return ComplexStructure(space=space, J=J, Vm10=vm10, V0m1=v0m1, H10=h10, H01=h01)


def complex_structure_from_period_matrix(Z: np.ndarray) -> ComplexStructure:
    """Complex structure on the standard space determined by a period matrix.

    The holomorphic annihilator H10 is spanned by the rows of (I | Z) in the
    dual coordinates (a* | b*); the -i eigenspace is its kernel, spanned by
    the columns of [-Z; I].
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise DimensionMismatchError(f"period matrix must be square, got {Z.shape}")
    g = Z.shape[0]
    if np.linalg.norm(Z - Z.T) > MATRIX_TOL:
        raise SiegelDomainError("period matrix is not symmetric")
    im_eigmin = np.linalg.eigvalsh(Z.imag).min()
    if im_eigmin <= 0:
        raise SiegelDomainError(
            f"imaginary part of the period matrix is not positive definite (min eig {im_eigmin:.3e})"
        )
    space = make_standard_space(g)
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
    _check_compatible(space, J)
    return ComplexStructure(space=space, J=J, Vm10=vm10, V0m1=v0m1, H10=h10, H01=h01)


@dataclass(frozen=True, eq=False)
class DualityMaps:
    """phi_Q: v -> Q(., v), its inverse psi_Q, and the dual form Qstar on V*."""

    space: SymplecticSpace
    phiQ: np.ndarray
    psiQ: np.ndarray
    Qstar: np.ndarray


def duality_maps(space: SymplecticSpace) -> DualityMaps:
    q = space.Q
    qinv = np.linalg.inv(q)
    # Qstar(e*_i, e*_j) = Q(psi e_i, psi e_j) = (Q^{-T})_ij = -(Q^{-1})_ij
    return DualityMaps(space=space, phiQ=q.astype(complex), psiQ=qinv.astype(complex), Qstar=-qinv.astype(complex))


def qstar_pairing(maps: DualityMaps, alpha, beta):
    """Dual symplectic pairing of two covectors in (a* | b*) coordinates.

    For the standard space this is sum_i alpha_i beta_{g+i} - alpha_{g+i} beta_i.
    Bilinear (no conjugation) and antisymmetric; batched over leading axes.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    n = 2 * maps.space.g
    if alpha.shape[-1:] != (n,) or beta.shape[-1:] != (n,):
        raise DimensionMismatchError(f"expected vectors of length {n}, got {alpha.shape} and {beta.shape}")
    return np.sum((alpha @ maps.Qstar) * beta, -1)


def psiQ_as_functional(maps: DualityMaps, cs: ComplexStructure, omega_bar):
    """The functional psi_Q(omega_bar) = Qstar(omega_bar, .) on H10 covectors.

    ``omega_bar`` must lie in the span of H01; the returned callable takes a
    covector (length 2g, in the H10 span) and returns the pairing. It agrees
    with applying the matrix psi_Q and then the canonical pairing.
    """
    omega_bar = np.asarray(omega_bar, dtype=complex)
    coeffs, residual, *_ = np.linalg.lstsq(cs.H01, omega_bar, rcond=None)
    rec = cs.H01 @ coeffs
    if np.linalg.norm(rec - omega_bar) > MATRIX_TOL * max(1.0, np.linalg.norm(omega_bar)):
        raise SpanError("omega_bar is not in the span of H01")

    def functional(lam) -> complex:
        return qstar_pairing(maps, omega_bar, lam)

    return functional


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between column spans via orthogonal projectors."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    pa = qa @ qa.conj().T
    pb = qb @ qb.conj().T
    return float(np.linalg.norm(pa - pb))
