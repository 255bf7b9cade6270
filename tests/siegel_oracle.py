"""The complex-structure picture of Siegel space: the reference for ``siegel.bracket_identified``.

A period matrix Z = X + iY is the coordinate of a complex structure J on
(R^2g, Q) with J^2 = -I, J^T Q J = Q and Q(., J.) positive definite; a
``ComplexStructure`` stores both, in closed form from each other:
J = [[-X Y^-1, -(Y + X Y^-1 X)], [Y^-1, Y^-1 X]], and Z = c^-1 (d + iI) for
J = [[a, b], [c, d]]. V0m1 = (-Z; I) spans the -i eigenspace of J and
Vm10 = conj(V0m1) the +i one; H10 = (I; Z^T) annihilates V0m1, and
H01 = conj(H10). ``complex_structure_from_period_matrix`` admits Z by the
package's one domain check, ``siegel_residuals`` against ``TOL_RIEMANN``.

Algebra elements are matrices X with Q(., X.) symmetric, Q = ``duality_maps(g)``
(also the matrix of Qstar). p^{1,0} sits in End(V_C) as the X that vanish on the
+i eigenspace of J and have image inside it, ``embed_p10``: Vm10 Y^-1 t^T H01^T / 2i
in the period matrix Z = X + iY, and the bracket there is the matrix commutator.
``transport_to_dual`` moves a matrix to End(V*) with ``lstsq`` and no closed form,
checking the duality lemmas on the way.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from curvekernel import siegel
from curvekernel.errors import CurveKernelError, DimensionMismatchError, SpMembershipError
from curvekernel.symplectic import MATRIX_TOL, TOL_RIEMANN, duality_maps, siegel_residuals


class ComplexStructureError(CurveKernelError, ValueError):
    """A matrix fails to define a compatible complex structure."""


class SquareInvariantError(ComplexStructureError):
    """J^2 differs from -I beyond tolerance."""


class SymplecticInvariantError(ComplexStructureError):
    """J^T Q J differs from Q beyond tolerance."""


class PositivityError(ComplexStructureError):
    """The symmetric form Q(., J.) is not positive definite."""


class SiegelDomainError(CurveKernelError, ValueError):
    """A period matrix is not symmetric with positive definite imaginary part."""


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


#: Relative tolerance of the H01 checks on transposed matrices (span membership, vanishing).
_SPAN_TOL = 1e-8


def sp_residual(cs, X) -> float:
    qx = duality_maps(cs.g) @ X
    return float(np.linalg.norm(qx - qx.T))


def sp_element(cs, X):
    """X, refused with ``SpMembershipError`` unless it lies in the symplectic algebra."""
    res = sp_residual(cs, X)
    if not res <= MATRIX_TOL:
        raise SpMembershipError(f"Q_X is not symmetric (residual {res:.3e})")
    return X


def random_sp_element(cs, rng, real=False):
    """Random algebra element X = Q^{-1} S = -Q S with S symmetric."""
    n = 2 * cs.g
    s = rng.standard_normal((n, n))
    if not real:
        s = s + 1j * rng.standard_normal((n, n))
    return -duality_maps(cs.g) @ (s + s.T)


def random_p_tensor(cs, rng):
    g = cs.g
    s = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    return siegel.p_tensor(cs.Z, np.linalg.solve(siegel._qstar_pairing_matrix(cs.Z), s + s.T))


def cartan_project(cs, X):
    """(J-commuting part, J-anticommuting part) of an algebra element X."""
    jxj = cs.J @ sp_element(cs, X) @ cs.J
    return (X - jxj) / 2, (X + jxj) / 2


def bracket_raw(cs, X, Y):
    X, Y = sp_element(cs, X), sp_element(cs, Y)
    return X @ Y - Y @ X


def embed_p10(cs, t):
    """Endomorphism Vm10 S H01^T of V_C: it vanishes on the +i eigenspace, has image
    inside it, and as Vm10^T H10 = 2iY, S = Y^-1 t^T / 2i makes its transpose send H10 to H01 t."""
    t = siegel.p_tensor(cs.Z, t)
    s = np.linalg.solve(cs.Z.imag, t.T) / 2j
    return cs.Vm10 @ s @ cs.H01.T


def extract_p10(cs, X):
    """Inverse of ``embed_p10``: t is the top block of X^T H10, as H01 = (I; conj(Z))."""
    target = X.T @ cs.H10
    t = target[: cs.g]
    if np.linalg.norm(cs.H01 @ t - target) > _SPAN_TOL * max(1.0, np.linalg.norm(target)):
        raise SpMembershipError("transpose does not map H10 into the span of H01")
    return siegel.p_tensor(cs.Z, t)


def type11_vanishing_check(cs, s, t) -> float:
    a, b = embed_p10(cs, s), embed_p10(cs, t)
    return float(np.linalg.norm(a @ b - b @ a))


def transport_to_dual(cs, X):
    """Transpose a matrix to End(V*), verifying the duality lemmas.

    Each check runs when it applies: the symmetry of the transported form
    when X lies in the symplectic algebra, and the image and vanishing
    checks when X kills the +i eigenspace or maps into it.
    """
    mat = np.asarray(X, dtype=complex)
    xt = mat.T
    if sp_residual(cs, mat) <= MATRIX_TOL:
        qstar_xt = duality_maps(cs.g) @ xt
        if np.linalg.norm(qstar_xt - qstar_xt.T) > MATRIX_TOL:
            raise CurveKernelError("transported form lost its symmetry (internal inconsistency)")
    scale = max(1.0, np.linalg.norm(mat))
    if np.linalg.norm(mat @ cs.Vm10) <= MATRIX_TOL * scale:
        # X kills the +i eigenspace, so im X^T must lie in the span of H01.
        coeffs, *_ = np.linalg.lstsq(cs.H01, xt, rcond=None)
        if np.linalg.norm(cs.H01 @ coeffs - xt) > _SPAN_TOL * scale:
            raise CurveKernelError("image of the transpose escapes H01 (internal inconsistency)")
    im_coeffs, *_ = np.linalg.lstsq(cs.Vm10, mat, rcond=None)
    if np.linalg.norm(cs.Vm10 @ im_coeffs - mat) <= MATRIX_TOL * scale:
        # im X inside the +i eigenspace, so X^T must vanish on H01.
        if np.linalg.norm(xt @ cs.H01) > _SPAN_TOL * scale:
            raise CurveKernelError("transpose does not vanish on H01 (internal inconsistency)")
    return xt
