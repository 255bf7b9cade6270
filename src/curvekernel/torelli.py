r"""Point-supported deformations, composed cup products, and the two-path
verification that the pulled-back bracket acts as multiplication by -i
times the kernel form.

A point-supported (Schiffer-type) tangent direction at u acts on a
holomorphic class w by w -> -2 pi w(u) conj(k_u); its conjugate acts on
antiholomorphic classes through the conjugated rule. ``btilde_apply``
composes two such cups (the second conjugated), and the closed form
4 pi^2 w(u) conj(k_u(v)) k_v is kept out of the implementation so it can
serve as the test oracle.

Every function takes the ``BergmanContext`` first and works on plain
arrays: the variation at u is given by the basis values e(u), which the
caller evaluates once per batch of points (x, sheet, lam) and passes in,
and the decomposable 2-form p*w wedge q*conj(w') by the coefficients of w
and w'. Everything is batched: classes and basis values of shape (..., g) give
values of shape (...), so a suite checks all its trials at once.

``theorem_a_check`` evaluates both sides of the multiplication identity:
the left side pulls the composed cup back through the dual pairing and the
(-1/4 pi^2) normalization of point evaluations against quadratic
differentials; the right side multiplies the factored 2-form evaluation by
the kernel value. The sharpest standalone sign test is
``qstar_against_kv_check``: Qstar(conj w', k_v) = i conj(w'(v)).
"""
from __future__ import annotations

import numpy as np

from .bergman import BergmanContext, bergman_eval, class_period_vector, reproducing_element
from .errors import DimensionMismatchError
from .symplectic import qstar_pairing


def schiffer_cup(ctx: BergmanContext, eu, omega) -> np.ndarray:
    """Cup product of the variation at u with a holomorphic class: -2 pi w(u) conj(k_u).

    Returns coefficients in the conjugated normalized basis (an antiholomorphic
    class), shape (..., g).
    """
    omega = np.asarray(omega, dtype=complex)
    if omega.shape[-1:] != (ctx.g,):
        raise DimensionMismatchError(f"expected {ctx.g} coefficients, got {omega.shape}")
    value = np.sum(omega * eu, -1, keepdims=True)
    return -2 * np.pi * value * np.conj(reproducing_element(ctx, eu))


def btilde_apply(ctx: BergmanContext, eu, ev, omega) -> np.ndarray:
    """b(xi_u, conj xi_v) applied to a holomorphic class, by composed cups.

    The second cup acts through conjugation; the closed form
    4 pi^2 w(u) conj(k_u(v)) k_v is deliberately not used here.
    """
    first = schiffer_cup(ctx, eu, omega)
    second = schiffer_cup(ctx, ev, np.conj(first))
    return np.conj(second)


def theorem_a_check(ctx: BergmanContext, omega, omega_prime, eu, ev):
    """Both sides of the bracket/kernel multiplication identity at (u, conj v).

    The 2-form is the decomposable p*w wedge q*conj(w'), given by the
    coefficients of w = ``omega`` and w' = ``omega_prime``.
    lhs: -(1/4 pi^2) Qstar(conj w', b(xi_u, conj xi_v) w), the pairing taken
    numerically through period vectors.
    rhs: -i * w(u) conj(w'(v)) * kernel(u, v).
    """
    bt = btilde_apply(ctx, eu, ev, omega)
    pv_omega_prime_bar = class_period_vector(ctx, omega_prime).conj()
    lhs = -qstar_pairing(pv_omega_prime_bar, class_period_vector(ctx, bt)) / (4 * np.pi**2)
    omega_u = np.sum(np.asarray(omega, dtype=complex) * eu, -1)
    omega_prime_v = np.sum(np.asarray(omega_prime, dtype=complex) * ev, -1)
    rhs = -1j * omega_u * np.conj(omega_prime_v) * bergman_eval(ctx, eu, ev)
    return lhs, rhs


def qstar_against_kv_check(ctx: BergmanContext, omega_prime, ev):
    """Qstar(conj w', k_v) against the claim i conj(w'(v))."""
    omega_prime = np.asarray(omega_prime, dtype=complex)
    k_v = reproducing_element(ctx, ev)
    pairing = qstar_pairing(class_period_vector(ctx, omega_prime).conj(), class_period_vector(ctx, k_v))
    claim = 1j * np.conj(np.sum(omega_prime * ev, -1))
    return pairing, claim
