"""The other presentations of the Bergman kernel: the reference for ``bergman.bergman_eval``.

``bergman_eval`` is one contraction, conj(e(v)) . G^{-1} . e(u), with G the
Gram matrix of the a-normalized basis. The kernel has two more
presentations, each built from another matrix:

* ``unitary``: a plain sum over the unitarized basis U e, with U the
  inverse Cholesky factor of G (``unitary_change``), so U G U^H = I;
* ``normalized``: (1/2) conj(e(v)) . (Im Z)^{-1} . e(u), the closed form,
  since G = 2 Im Z.

``hodge_product`` is h(alpha, beta) = i Qstar(pv(alpha), pv(conj beta)) of
two classes through the dual pairing, which the tests use to check the
reproducing property h(w, k_u) = w(u). On a curve whose periods pass the
Riemann certificate the three presentations differ only through Z - Z^T,
which the certificate bounds; "normalized" loses digits in the monomial
basis on roots far from 1 (ROADMAP item 8).
"""
from __future__ import annotations

import numpy as np

from curvekernel import bergman
from curvekernel.symplectic import qstar_pairing

PRESENTATIONS = ("gram", "unitary", "normalized")


def unitary_change(ctx: bergman.BergmanContext) -> np.ndarray:
    """U with U gram U^H = I: the inverse of the Cholesky factor of the Gram matrix."""
    return np.linalg.inv(np.linalg.cholesky(ctx.gram))


def kernel_value(ctx: bergman.BergmanContext, eu, ev, presentation: str):
    """The kernel value at e(u), e(v) in one presentation; batched as ``bergman_eval``."""
    if presentation == "gram":
        return bergman.bergman_eval(ctx, eu, ev)
    if presentation == "unitary":
        change = unitary_change(ctx).T
        return np.sum((ev @ change).conj() * (eu @ change), -1)
    if presentation == "normalized":
        return np.sum((ev.conj() @ (0.5 * np.linalg.inv(ctx.pd.Z.imag))) * eu, -1)
    raise ValueError(f"unknown presentation {presentation!r}")


def presentation_values(ctx: bergman.BergmanContext, eu, ev) -> dict:
    return {p: kernel_value(ctx, eu, ev, p) for p in PRESENTATIONS}


def presentation_spread(values: dict) -> float:
    """Largest pairwise distance among the values of ``presentation_values``."""
    vals = list(values.values())
    return float(max(np.abs(a - b).max() for a in vals for b in vals))


def hodge_product(ctx: bergman.BergmanContext, alpha, beta) -> complex:
    """h(alpha, beta) = i * integral of alpha wedge conj(beta), through the dual pairing.

    Arguments of length g are holomorphic coefficient vectors in the
    normalized basis; arguments of length 2g are taken as period vectors of
    the class itself (mixed-type inputs).
    """
    return 1j * qstar_pairing(_period_vector(ctx, alpha), _period_vector(ctx, beta).conj())


def _period_vector(ctx: bergman.BergmanContext, vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return bergman.class_period_vector(ctx, vec) if vec.shape == (ctx.g,) else vec
