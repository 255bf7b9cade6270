"""Cartan decomposition at a complex structure and the bracket tensor.

Elements of the symplectic Lie algebra are matrices X with Q(., X.)
symmetric. At a fixed J the algebra splits into the J-commuting part and
the J-anticommuting part p; the bracket of two p-elements lands back in
the J-commuting part. The module keeps two pictures of p^{1,0} explicitly
separate:

* the endomorphism picture: X in End(V_C) vanishing on the +i eigenspace
  with image inside it (``embed_p10``);
* the identified picture: a g x g matrix t mapping H10 to H01 in the
  stored annihilator bases (``PTensor10``), with the symmetry of
  Qstar(., t .) as membership condition.

``bracket_identified`` computes conj(t) s in the second picture, and the
tests pin it against transporting the raw commutator to the dual space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContextMismatchError, CurveKernelError, SpMembershipError
from .symplectic import MATRIX_TOL, ComplexStructure, duality_maps

#: Relative tolerance of the H01 checks on transposed matrices (span membership, vanishing).
_SPAN_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpElement:
    """A matrix in the complexified symplectic algebra over a fixed J."""

    J_context: ComplexStructure
    X: np.ndarray


@dataclass(frozen=True, eq=False)
class PTensor10:
    """A p^{1,0} element as a g x g matrix t: H10 -> H01 in the stored bases."""

    J_context: ComplexStructure
    t: np.ndarray


@dataclass(frozen=True, eq=False)
class EndH10:
    """An endomorphism of H10 in the stored basis (target of the bracket)."""

    J_context: ComplexStructure
    m: np.ndarray


def _same_structure(a, b) -> None:
    if a.J_context is not b.J_context:
        raise ContextMismatchError("operands built over different complex structures")


def sp_residual(cs: ComplexStructure, X: np.ndarray) -> float:
    qx = cs.space.Q @ X
    return float(np.linalg.norm(qx - qx.T))


def sp_element(cs: ComplexStructure, X) -> SpElement:
    X = np.asarray(X, dtype=complex)
    n = 2 * cs.g
    if X.shape != (n, n):
        raise SpMembershipError(f"expected a {n}x{n} matrix, got {X.shape}")
    res = sp_residual(cs, X)
    if res > MATRIX_TOL:
        raise SpMembershipError(f"Q_X is not symmetric (residual {res:.3e})")
    return SpElement(J_context=cs, X=X)


def random_sp_element(cs: ComplexStructure, rng: np.random.Generator, real: bool = False) -> SpElement:
    """Random algebra element X = Q^{-1} S with S symmetric."""
    n = 2 * cs.g
    s = rng.standard_normal((n, n))
    if not real:
        s = s + 1j * rng.standard_normal((n, n))
    s = s + s.T
    return sp_element(cs, np.linalg.solve(cs.space.Q, s))


def cartan_project(x: SpElement) -> tuple[SpElement, SpElement]:
    """Split X into the J-commuting part and the J-anticommuting part."""
    cs = x.J_context
    j = cs.J
    k_part = (x.X - j @ x.X @ j) / 2
    p_part = (x.X + j @ x.X @ j) / 2
    return sp_element(cs, k_part), sp_element(cs, p_part)


def bracket_raw(x: SpElement, y: SpElement) -> SpElement:
    """Matrix commutator XY - YX; maps p x p into the J-commuting part."""
    _same_structure(x, y)
    return sp_element(x.J_context, x.X @ y.X - y.X @ x.X)


def ad_j_half(cs: ComplexStructure, X: np.ndarray) -> np.ndarray:
    """The complex structure (1/2) ad J on the anticommuting part."""
    return (cs.J @ X - X @ cs.J) / 2


def _qstar_pairing_matrix(cs: ComplexStructure) -> np.ndarray:
    """K with K @ t = matrix of Qstar(., t .) restricted to H10."""
    maps = duality_maps(cs.space)
    return cs.H10.T @ maps.Qstar @ cs.H01


def p_tensor(cs: ComplexStructure, t) -> PTensor10:
    t = np.asarray(t, dtype=complex)
    g = cs.g
    if t.shape != (g, g):
        raise SpMembershipError(f"expected a {g}x{g} matrix, got {t.shape}")
    qt = _qstar_pairing_matrix(cs) @ t
    res = np.linalg.norm(qt - qt.T)
    if res > MATRIX_TOL:
        raise SpMembershipError(f"Qstar_t is not symmetric (residual {res:.3e})")
    return PTensor10(J_context=cs, t=t)


def random_p_tensor(cs: ComplexStructure, rng: np.random.Generator) -> PTensor10:
    g = cs.g
    s = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    s = s + s.T
    return p_tensor(cs, np.linalg.solve(_qstar_pairing_matrix(cs), s))


def embed_p10(pt: PTensor10) -> np.ndarray:
    """Endomorphism of V_C with transpose acting as t on H10.

    The result vanishes on the +i eigenspace and has image inside it; its
    transpose sends the H10 basis to H01 @ t.
    """
    cs = pt.J_context
    g = cs.g
    basis = np.hstack([cs.Vm10, cs.V0m1])
    extract = np.linalg.inv(basis)[g:, :]  # coordinates along V0m1
    s = np.linalg.solve(cs.H10.T @ cs.Vm10, pt.t.T @ (cs.H01.T @ cs.V0m1))
    return cs.Vm10 @ s @ extract


def extract_p10(cs: ComplexStructure, X: np.ndarray) -> PTensor10:
    """Inverse of ``embed_p10``: read t off the transpose action on H10."""
    target = X.T @ cs.H10
    t, *_ = np.linalg.lstsq(cs.H01, target, rcond=None)
    if np.linalg.norm(cs.H01 @ t - target) > _SPAN_TOL * max(1.0, np.linalg.norm(target)):
        raise SpMembershipError("transpose does not map H10 into the span of H01")
    return p_tensor(cs, t)


def type11_vanishing_check(x: PTensor10, y: PTensor10) -> float:
    """Norm of the commutator of two embedded p^{1,0} elements (contract: ~0)."""
    _same_structure(x, y)
    a = embed_p10(x)
    b = embed_p10(y)
    return float(np.linalg.norm(a @ b - b @ a))


def bracket_identified(s: PTensor10, t: PTensor10) -> EndH10:
    """Bracket in the identified picture: (s, conj t) -> conj(t) s on H10."""
    _same_structure(s, t)
    return EndH10(J_context=s.J_context, m=np.conj(t.t) @ s.t)


def transport_to_dual(cs: ComplexStructure, x) -> np.ndarray:
    """Transpose a matrix to End(V*), verifying the duality lemmas.

    Accepts an ``SpElement`` (membership is revalidated and the symmetry of
    the transported form is checked) or a plain matrix (transpose only,
    with the conditional image/vanishing checks when they apply).
    """
    if isinstance(x, SpElement):
        if x.J_context is not cs:
            raise ContextMismatchError("element built over a different complex structure")
        mat = sp_element(cs, x.X).X
        check_sp = True
    else:
        mat = np.asarray(x, dtype=complex)
        check_sp = False
    xt = mat.T
    maps = duality_maps(cs.space)
    if check_sp:
        qstar_xt = maps.Qstar @ xt
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
