"""Cartan decomposition at a complex structure and the bracket tensor.

Elements of the symplectic Lie algebra are matrices X with Q(., X.)
symmetric, Q = ``symplectic.duality_maps(g)`` (also the matrix of Qstar).
At a fixed J the algebra splits into the J-commuting part and the
J-anticommuting part p; the bracket of two p-elements lands back in the
J-commuting part. The module keeps two pictures of p^{1,0} explicitly
separate, both closed forms in the period matrix Z = X + iY:

* the endomorphism picture: X in End(V_C) vanishing on the +i eigenspace
  with image inside it (``embed_p10``: Vm10 Y^-1 t^T H01^T / 2i);
* the identified picture: a g x g matrix t mapping H10 = (I; Z^T) to
  H01 = conj(H10) (``p_tensor``), with the symmetry of Qstar(., t .) as
  membership condition; Qstar on H10 x H01 is conj(Z) - Z^T = -2iY.

Every function takes the ``ComplexStructure`` first and works on plain
arrays. A function that takes an algebra element X or a p^{1,0} tensor t
validates it on entry with ``sp_element`` or ``p_tensor``, which raise
``SpMembershipError`` for a non-member, non-finite or misshapen array.

``bracket_identified`` computes conj(t) s in the second picture, and the
tests pin it against ``transport_to_dual``, which uses no closed form.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CurveKernelError, SpMembershipError
from .symplectic import MATRIX_TOL, ComplexStructure, duality_maps

#: Relative tolerance of the H01 checks on transposed matrices (span membership, vanishing).
_SPAN_TOL = 1e-8


@lru_cache(maxsize=16)
def _form(g: int) -> np.ndarray:
    """``duality_maps(g)``, built once per g and read-only for the membership checks."""
    q = duality_maps(g)
    q.flags.writeable = False
    return q


def sp_residual(cs: ComplexStructure, X: np.ndarray) -> float:
    qx = _form(cs.g) @ X
    return float(np.linalg.norm(qx - qx.T))


def sp_element(cs: ComplexStructure, X) -> np.ndarray:
    """X as a complex 2g x 2g array, checked to lie in the symplectic algebra."""
    X = np.asarray(X, dtype=complex)
    n = 2 * cs.g
    if X.shape != (n, n) or not np.isfinite(X).all():
        raise SpMembershipError(f"expected a finite {n}x{n} matrix, got shape {X.shape}")
    res = sp_residual(cs, X)
    if res > MATRIX_TOL:
        raise SpMembershipError(f"Q_X is not symmetric (residual {res:.3e})")
    return X


def random_sp_element(cs: ComplexStructure, rng: np.random.Generator, real: bool = False) -> np.ndarray:
    """Random algebra element X = Q^{-1} S = -Q S with S symmetric."""
    n = 2 * cs.g
    s = rng.standard_normal((n, n))
    if not real:
        s = s + 1j * rng.standard_normal((n, n))
    s = s + s.T
    return sp_element(cs, -_form(cs.g) @ s)


def cartan_project(cs: ComplexStructure, X) -> tuple[np.ndarray, np.ndarray]:
    """Split X into the J-commuting part and the J-anticommuting part."""
    X = sp_element(cs, X)
    j = cs.J
    k_part = (X - j @ X @ j) / 2
    p_part = (X + j @ X @ j) / 2
    return sp_element(cs, k_part), sp_element(cs, p_part)


def bracket_raw(cs: ComplexStructure, X, Y) -> np.ndarray:
    """Matrix commutator XY - YX; maps p x p into the J-commuting part."""
    X, Y = sp_element(cs, X), sp_element(cs, Y)
    return sp_element(cs, X @ Y - Y @ X)


def ad_j_half(cs: ComplexStructure, X: np.ndarray) -> np.ndarray:
    """The complex structure (1/2) ad J on the anticommuting part."""
    return (cs.J @ X - X @ cs.J) / 2


def _qstar_pairing_matrix(cs: ComplexStructure) -> np.ndarray:
    """K with K @ t = matrix of Qstar(., t .) restricted to H10: H10^T Q H01 = conj(Z) - Z^T."""
    return cs.Z.conj() - cs.Z.T


def p_tensor(cs: ComplexStructure, t) -> np.ndarray:
    """t as a complex g x g array, checked to be a p^{1,0} tensor: H10 -> H01."""
    t = np.asarray(t, dtype=complex)
    g = cs.g
    if t.shape != (g, g) or not np.isfinite(t).all():
        raise SpMembershipError(f"expected a finite {g}x{g} matrix, got shape {t.shape}")
    qt = _qstar_pairing_matrix(cs) @ t
    res = np.linalg.norm(qt - qt.T)
    if res > MATRIX_TOL:
        raise SpMembershipError(f"Qstar_t is not symmetric (residual {res:.3e})")
    return t


def random_p_tensor(cs: ComplexStructure, rng: np.random.Generator) -> np.ndarray:
    g = cs.g
    s = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    s = s + s.T
    return p_tensor(cs, np.linalg.solve(_qstar_pairing_matrix(cs), s))


def embed_p10(cs: ComplexStructure, t) -> np.ndarray:
    """Endomorphism Vm10 S H01^T of V_C: it vanishes on the +i eigenspace, has image
    inside it, and as Vm10^T H10 = 2iY, S = Y^-1 t^T / 2i makes its transpose send H10 to H01 t."""
    t = p_tensor(cs, t)
    s = np.linalg.solve(cs.Z.imag, t.T) / 2j
    return cs.Vm10 @ s @ cs.H01.T


def extract_p10(cs: ComplexStructure, X: np.ndarray) -> np.ndarray:
    """Inverse of ``embed_p10``: t is the top block of X^T H10, as H01 = (I; conj(Z))."""
    if not np.isfinite(X).all():
        raise SpMembershipError("matrix has non-finite entries")
    target = X.T @ cs.H10
    t = target[: cs.g]
    if np.linalg.norm(cs.H01 @ t - target) > _SPAN_TOL * max(1.0, np.linalg.norm(target)):
        raise SpMembershipError("transpose does not map H10 into the span of H01")
    return p_tensor(cs, t)


def type11_vanishing_check(cs: ComplexStructure, s, t) -> float:
    """Norm of the commutator of two embedded p^{1,0} elements (contract: ~0)."""
    a = embed_p10(cs, s)
    b = embed_p10(cs, t)
    return float(np.linalg.norm(a @ b - b @ a))


def bracket_identified(cs: ComplexStructure, s, t) -> np.ndarray:
    """Bracket in the identified picture: (s, conj t) -> conj(t) s on H10."""
    s, t = p_tensor(cs, s), p_tensor(cs, t)
    return np.conj(t) @ s


def transport_to_dual(cs: ComplexStructure, X) -> np.ndarray:
    """Transpose a matrix to End(V*), verifying the duality lemmas.

    Each check runs when it applies: the symmetry of the transported form
    when X lies in the symplectic algebra, and the image and vanishing
    checks when X kills the +i eigenspace or maps into it.
    """
    mat = np.asarray(X, dtype=complex)
    if not np.isfinite(mat).all():
        raise SpMembershipError("matrix has non-finite entries")
    xt = mat.T
    if sp_residual(cs, mat) <= MATRIX_TOL:
        qstar_xt = _form(cs.g) @ xt
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
