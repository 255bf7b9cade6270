r"""Hodge Hermitian product, reproducing elements and kernel evaluation.

The Hermitian product of two degree-one classes is computed from their
period vectors through the dual symplectic pairing (the bilinear-relation
route), never by surface integration: h(a, b) = i Qstar(pv(a), pv(conj b)).
For the a-normalized basis this reproduces h(w_i, w_j) = 2 Im z_ij, which
is the Gram matrix the kernel formula inverts.

``bergman_eval`` supports the three equivalent presentations of the kernel
value at a pair of tangent vectors and the tests pin their agreement:

* ``gram``: conj(e(v)) . G^{-1} . e(u) in the working basis;
* ``unitary``: plain sum over a unitarized basis;
* ``normalized``: (1/2) conj(e~(v)) . (Im Z)^{-1} . e~(u) in the
  a-normalized basis (requires period data).

All evaluation is batched: tangents of shape (...) give basis values of shape
(..., g) and kernel values of shape (...); a scalar tangent gives a complex.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, SingularSystemError
from .periods import PeriodData, TangentVector, normalized_differential_eval, raw_differential_eval
from .symplectic import DualityMaps, duality_maps, make_standard_space, qstar_pairing


@dataclass(frozen=True, eq=False)
class BergmanContext:
    """Gram data of a working basis of holomorphic differentials.

    ``eval_basis`` maps tangents of shape (...) to basis values (..., g);
    ``period_rows`` (g x 2g, rows = period vectors of the basis) is present
    for curve-backed contexts and None for directly presented ones.
    """

    g: int
    gram: np.ndarray
    gram_inv: np.ndarray
    unitary_change: np.ndarray
    eval_basis: Callable[[TangentVector], np.ndarray]
    pd: PeriodData | None = None
    period_rows: np.ndarray | None = None
    maps: DualityMaps | None = field(default=None, repr=False)


def _gram_fields(gram: np.ndarray) -> dict:
    """Gram matrix, its inverse and U with U gram U^H = I (inverse Cholesky factor)."""
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("Gram matrix is not positive definite") from err
    return {"gram": gram, "gram_inv": np.linalg.inv(gram), "unitary_change": np.linalg.inv(chol)}


def context_from_periods(pd: PeriodData, basis="normalized") -> BergmanContext:
    """Bergman context for a curve in a chosen working basis.

    ``basis`` is "normalized", "raw", or a g x g coefficient matrix W whose
    rows express the working basis in the raw monomial differentials.
    """
    g = pd.g
    if isinstance(basis, str):
        if basis == "normalized":
            W = pd.N
        elif basis == "raw":
            W = np.eye(g, dtype=complex)
        else:
            raise DimensionMismatchError(f"unknown basis spec {basis!r}")
    else:
        W = np.asarray(basis, dtype=complex)
        if W.shape != (g, g):
            raise DimensionMismatchError(f"basis matrix must be {g}x{g}, got {W.shape}")
    period_rows = np.hstack([W @ pd.A, W @ pd.B])
    maps = duality_maps(make_standard_space(g))
    qs = maps.Qstar
    gram = 1j * (period_rows @ qs @ period_rows.conj().T)
    gram = (gram + gram.conj().T) / 2

    def eval_basis(u: TangentVector) -> np.ndarray:
        return raw_differential_eval(pd.curve, u) @ W.T

    return BergmanContext(
        g=g,
        **_gram_fields(gram),
        eval_basis=eval_basis,
        pd=pd,
        period_rows=period_rows,
        maps=maps,
    )


def context_from_gram(gram, eval_basis: Callable[[TangentVector], np.ndarray]) -> BergmanContext:
    """Context for a directly presented Hermitian product (e.g. a torus)."""
    gram = np.asarray(gram, dtype=complex)
    return BergmanContext(g=gram.shape[0], **_gram_fields(gram), eval_basis=eval_basis)


def class_period_vector(ctx: BergmanContext, coeffs, conjugated: bool = False) -> np.ndarray:
    """Period vector of a class given by working-basis coefficients."""
    if ctx.period_rows is None:
        raise DimensionMismatchError("context has no period data")
    coeffs = np.asarray(coeffs, dtype=complex)
    vec = coeffs @ ctx.period_rows
    return vec.conj() if conjugated else vec


def evaluate_class(ctx: BergmanContext, coeffs, u: TangentVector):
    """Value on u of the class with working-basis coefficients (..., g)."""
    return np.sum(np.asarray(coeffs, dtype=complex) * ctx.eval_basis(u), -1)


def hodge_product(ctx: BergmanContext, alpha, beta) -> complex:
    """h(alpha, beta) = i * integral of alpha wedge conj(beta).

    Arguments of length g are holomorphic coefficient vectors in the
    working basis; arguments of length 2g are taken as period vectors of
    the class itself (mixed-type inputs). Curve-backed contexts go through
    period vectors and the dual pairing; presented contexts contract the
    Gram matrix directly.
    """
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    g = ctx.g
    if ctx.period_rows is not None and ctx.maps is not None:
        pa = class_period_vector(ctx, alpha) if alpha.shape == (g,) else _as_period(alpha, g)
        pb = class_period_vector(ctx, beta) if beta.shape == (g,) else _as_period(beta, g)
        return 1j * qstar_pairing(ctx.maps, pa, pb.conj())
    if alpha.shape != (g,) or beta.shape != (g,):
        raise DimensionMismatchError("presented contexts accept coefficient vectors only")
    return complex(alpha @ ctx.gram @ beta.conj())


def _as_period(vec: np.ndarray, g: int) -> np.ndarray:
    if vec.shape != (2 * g,):
        raise DimensionMismatchError(f"expected a class of length {g} or {2 * g}, got {vec.shape}")
    return vec


@dataclass(frozen=True, eq=False)
class ReproducingElement:
    """k_u with h(w, k_u) = w(u) for every holomorphic w."""

    context: BergmanContext
    u: TangentVector
    coeffs: np.ndarray


def reproducing_element(ctx: BergmanContext, u: TangentVector) -> ReproducingElement:
    """k_u = conj(G^{-1} e(u)), coefficients of shape (..., g)."""
    return ReproducingElement(context=ctx, u=u, coeffs=np.conj(ctx.eval_basis(u) @ ctx.gram_inv.T))


def bergman_eval(ctx: BergmanContext, u: TangentVector, v: TangentVector, presentation: str = "gram"):
    """Kernel value at ((u, 0), (0, conj v)); equals k_v(u). It is conj(e(v)) M e(u)."""
    if presentation == "gram":
        M, eu, ev = ctx.gram_inv, ctx.eval_basis(u), ctx.eval_basis(v)
    elif presentation == "unitary":
        change = ctx.unitary_change.T
        M, eu, ev = np.eye(ctx.g), ctx.eval_basis(u) @ change, ctx.eval_basis(v) @ change
    elif presentation == "normalized":
        if ctx.pd is None:
            raise DimensionMismatchError("normalized presentation requires period data")
        M = 0.5 * np.linalg.inv(ctx.pd.Z.imag)
        eu, ev = normalized_differential_eval(ctx.pd, u), normalized_differential_eval(ctx.pd, v)
    else:
        raise DimensionMismatchError(f"unknown presentation {presentation!r}")
    return np.sum((ev.conj() @ M) * eu, -1)


def three_presentation_values(ctx: BergmanContext, u: TangentVector, v: TangentVector) -> dict[str, complex]:
    out = {"gram": bergman_eval(ctx, u, v, "gram"), "unitary": bergman_eval(ctx, u, v, "unitary")}
    if ctx.pd is not None:
        out["normalized"] = bergman_eval(ctx, u, v, "normalized")
    return out


def three_presentation_residual(ctx: BergmanContext, u: TangentVector, v: TangentVector) -> float:
    vals = list(three_presentation_values(ctx, u, v).values())
    return float(max(abs(a - b) for a in vals for b in vals))
