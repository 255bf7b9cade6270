r"""Point-supported deformations, composed cup products, and the two-path
verification that the pulled-back bracket acts as multiplication by -i
times the kernel form.

A point-supported (Schiffer-type) tangent direction at u acts on a
holomorphic class w by w -> -2 pi w(u) conj(k_u); its conjugate acts on
antiholomorphic classes through the conjugated rule. ``btilde_apply``
composes two such cups (the second conjugated), and the closed form
4 pi^2 w(u) conj(k_u(v)) k_v is kept out of the implementation so it can
serve as the test oracle.

``theorem_a_check`` evaluates both sides of the multiplication identity:
the left side pulls the composed cup back through the dual pairing and the
(-1/4 pi^2) normalization of point evaluations against quadratic
differentials; the right side multiplies the factored 2-form evaluation by
the kernel value. The sharpest standalone sign test is
``qstar_against_kv_check``: Qstar(conj w', k_v) = i conj(w'(v)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bergman import (
    BergmanContext,
    bergman_eval,
    class_period_vector,
    evaluate_class,
    reproducing_element,
)
from .errors import ContextMismatchError, DimensionMismatchError
from .periods import TangentVector
from .symplectic import qstar_pairing


@dataclass(frozen=True, eq=False)
class SchifferVariation:
    """A point-supported first-order deformation, known through its cup action."""

    context: BergmanContext
    u: TangentVector


@dataclass(frozen=True, eq=False)
class KunnethQuadric:
    """A decomposable 2-form p*w wedge q*conj(w') on the doubled curve."""

    omega: np.ndarray
    omega_prime: np.ndarray


def _same_context(a: SchifferVariation, b) -> None:
    if a.context is not (b.context if isinstance(b, SchifferVariation) else b):
        raise ContextMismatchError("operands built over different Bergman contexts")


def schiffer_cup(xi: SchifferVariation, omega) -> np.ndarray:
    """Cup product with a holomorphic class: -2 pi w(u) conj(k_u).

    Returns coefficients in the conjugated working basis (an antiholomorphic
    class).
    """
    omega = np.asarray(omega, dtype=complex)
    if omega.shape != (xi.context.g,):
        raise DimensionMismatchError(f"expected {xi.context.g} coefficients, got {omega.shape}")
    value = evaluate_class(xi.context, omega, xi.u)
    k_u = reproducing_element(xi.context, xi.u)
    return -2 * np.pi * value * np.conj(k_u.coeffs)


def pairing_2k(beta_eval: complex) -> complex:
    """Pairing of a quadratic differential, given by its value at u, with xi_u."""
    return 2j * np.pi * beta_eval


def btilde_apply(xi_u: SchifferVariation, xi_v: SchifferVariation, omega) -> np.ndarray:
    """b(xi_u, conj xi_v) applied to a holomorphic class, by composed cups.

    The second cup acts through conjugation; the closed form
    4 pi^2 w(u) conj(k_u(v)) k_v is deliberately not used here.
    """
    _same_context(xi_u, xi_v)
    first = schiffer_cup(xi_u, omega)
    second = schiffer_cup(xi_v, np.conj(first))
    return np.conj(second)


def theorem_a_check(
    q: KunnethQuadric, u: TangentVector, v: TangentVector, ctx: BergmanContext
) -> tuple[complex, complex]:
    """Both sides of the bracket/kernel multiplication identity at (u, conj v).

    lhs: -(1/4 pi^2) Qstar(conj w', b(xi_u, conj xi_v) w), the pairing taken
    numerically through period vectors.
    rhs: -i * w(u) conj(w'(v)) * kernel(u, v).
    """
    if ctx.maps is None:
        raise DimensionMismatchError("theorem A check requires a period-backed context")
    xi_u = SchifferVariation(context=ctx, u=u)
    xi_v = SchifferVariation(context=ctx, u=v)
    bt = btilde_apply(xi_u, xi_v, q.omega)
    pv_omega_prime_bar = class_period_vector(ctx, q.omega_prime, conjugated=True)
    pv_bt = class_period_vector(ctx, bt)
    lhs = -qstar_pairing(ctx.maps, pv_omega_prime_bar, pv_bt) / (4 * np.pi**2)
    omega_u = evaluate_class(ctx, q.omega, u)
    omega_prime_v = evaluate_class(ctx, q.omega_prime, v)
    rhs = -1j * omega_u * np.conj(omega_prime_v) * bergman_eval(ctx, u, v)
    return complex(lhs), complex(rhs)


def qstar_against_kv_check(omega_prime, v: TangentVector, ctx: BergmanContext) -> tuple[complex, complex]:
    """Qstar(conj w', k_v) against the claim i conj(w'(v))."""
    if ctx.maps is None:
        raise DimensionMismatchError("pairing check requires a period-backed context")
    omega_prime = np.asarray(omega_prime, dtype=complex)
    k_v = reproducing_element(ctx, v)
    pairing = qstar_pairing(
        ctx.maps,
        class_period_vector(ctx, omega_prime, conjugated=True),
        class_period_vector(ctx, k_v.coeffs),
    )
    claim = 1j * np.conj(evaluate_class(ctx, omega_prime, v))
    return complex(pairing), complex(claim)
