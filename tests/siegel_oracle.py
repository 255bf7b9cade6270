"""The endomorphism picture of p^{1,0}: the reference for ``siegel.bracket_identified``.

Algebra elements are matrices X with Q(., X.) symmetric, Q = ``duality_maps(g)``
(also the matrix of Qstar). p^{1,0} sits in End(V_C) as the X that vanish on the
+i eigenspace of J and have image inside it, ``embed_p10``: Vm10 Y^-1 t^T H01^T / 2i
in the period matrix Z = X + iY, and the bracket there is the matrix commutator.
``transport_to_dual`` moves a matrix to End(V*) with ``lstsq`` and no closed form,
checking the duality lemmas on the way.
"""
from __future__ import annotations

import numpy as np

from curvekernel import siegel
from curvekernel.errors import CurveKernelError, SpMembershipError
from curvekernel.symplectic import MATRIX_TOL, duality_maps

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
    return siegel.p_tensor(cs, np.linalg.solve(siegel._qstar_pairing_matrix(cs), s + s.T))


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
    t = siegel.p_tensor(cs, t)
    s = np.linalg.solve(cs.Z.imag, t.T) / 2j
    return cs.Vm10 @ s @ cs.H01.T


def extract_p10(cs, X):
    """Inverse of ``embed_p10``: t is the top block of X^T H10, as H01 = (I; conj(Z))."""
    target = X.T @ cs.H10
    t = target[: cs.g]
    if np.linalg.norm(cs.H01 @ t - target) > _SPAN_TOL * max(1.0, np.linalg.norm(target)):
        raise SpMembershipError("transpose does not map H10 into the span of H01")
    return siegel.p_tensor(cs, t)


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
