from __future__ import annotations

import numpy as np
import pytest
from conftest import random_curve_tangent, random_tangent_batch
from numpy.testing import assert_allclose

from curvekernel import bergman, torelli
from curvekernel.errors import ContextMismatchError


def perpendicular_class(ctx, u, rng):
    """A holomorphic class whose value at u vanishes (g must be > 1)."""
    e = ctx.eval_basis(u)
    c = rng.standard_normal(ctx.g) + 1j * rng.standard_normal(ctx.g)
    # remove the component seen by the evaluation covector (bilinear pairing)
    c = c - (c @ e) / (e @ e) * e
    assert abs(c @ e) < 1e-10
    return c


def closed_form_btilde(ctx, u, v, omega):
    """Oracle: 4 pi^2 w(u) conj(k_u(v)) k_v, assembled from reproducing elements."""
    ku = bergman.reproducing_element(ctx, u)
    kv = bergman.reproducing_element(ctx, v)
    ku_at_v = bergman.evaluate_class(ctx, ku.coeffs, v)
    omega_u = bergman.evaluate_class(ctx, omega, u)
    return 4 * np.pi**2 * omega_u * np.conj(ku_at_v) * kv.coeffs


class TestSchifferCup:
    def test_kills_vanishing_class(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(0)
        u = random_curve_tangent(g2_curve, rng)
        omega = perpendicular_class(g2_ctx, u, rng)
        xi = torelli.SchifferVariation(context=g2_ctx, u=u)
        assert np.linalg.norm(torelli.schiffer_cup(xi, omega)) <= 1e-10

    def test_linear_in_omega(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(1)
        u = random_curve_tangent(g2_curve, rng)
        xi = torelli.SchifferVariation(context=g2_ctx, u=u)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = 1.3 - 0.7j
        lhs = torelli.schiffer_cup(xi, s * a + b)
        rhs = s * torelli.schiffer_cup(xi, a) + torelli.schiffer_cup(xi, b)
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_g1_assembly(self, g1_curve, g1_ctx):
        rng = np.random.default_rng(2)
        u = random_curve_tangent(g1_curve, rng)
        omega = np.array([0.8 - 0.1j])
        xi = torelli.SchifferVariation(context=g1_ctx, u=u)
        out = torelli.schiffer_cup(xi, omega)
        ku = bergman.reproducing_element(g1_ctx, u)
        expected = -2 * np.pi * bergman.evaluate_class(g1_ctx, omega, u) * np.conj(ku.coeffs)
        assert_allclose(out, expected, atol=1e-12)


class TestBtilde:
    def test_kills_vanishing_class(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(3)
        u = random_curve_tangent(g2_curve, rng)
        v = random_curve_tangent(g2_curve, rng)
        omega = perpendicular_class(g2_ctx, u, rng)
        xi_u = torelli.SchifferVariation(context=g2_ctx, u=u)
        xi_v = torelli.SchifferVariation(context=g2_ctx, u=v)
        assert np.linalg.norm(torelli.btilde_apply(xi_u, xi_v, omega)) <= 1e-10

    def test_composed_route_matches_closed_form(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(4)
        for _ in range(25):
            u = random_curve_tangent(g2_curve, rng)
            v = random_curve_tangent(g2_curve, rng)
            omega = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            xi_u = torelli.SchifferVariation(context=g2_ctx, u=u)
            xi_v = torelli.SchifferVariation(context=g2_ctx, u=v)
            composed = torelli.btilde_apply(xi_u, xi_v, omega)
            oracle = closed_form_btilde(g2_ctx, u, v, omega)
            assert np.linalg.norm(composed - oracle) <= 1e-10 * max(1.0, np.linalg.norm(oracle))

    def test_g1_explicit(self, g1_curve, g1_ctx):
        rng = np.random.default_rng(5)
        u = random_curve_tangent(g1_curve, rng)
        v = random_curve_tangent(g1_curve, rng)
        omega = np.array([1.0 + 0.5j])
        xi_u = torelli.SchifferVariation(context=g1_ctx, u=u)
        xi_v = torelli.SchifferVariation(context=g1_ctx, u=v)
        composed = torelli.btilde_apply(xi_u, xi_v, omega)
        assert_allclose(composed, closed_form_btilde(g1_ctx, u, v, omega), atol=1e-12)

    def test_context_mismatch(self, g1_ctx, g2_ctx, g1_curve, g2_curve):
        rng = np.random.default_rng(6)
        xi_u = torelli.SchifferVariation(context=g1_ctx, u=random_curve_tangent(g1_curve, rng))
        xi_v = torelli.SchifferVariation(context=g2_ctx, u=random_curve_tangent(g2_curve, rng))
        with pytest.raises(ContextMismatchError):
            torelli.btilde_apply(xi_u, xi_v, np.array([1.0]))


class TestTheoremA:
    def test_vanishing_class_gives_zero(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(7)
        u = random_curve_tangent(g2_curve, rng)
        v = random_curve_tangent(g2_curve, rng)
        omega = perpendicular_class(g2_ctx, u, rng)
        quad = torelli.KunnethQuadric(omega=omega, omega_prime=np.array([1.0, 1.0j]))
        lhs, rhs = torelli.theorem_a_check(quad, u, v, g2_ctx)
        assert abs(lhs) <= 1e-10
        assert abs(rhs) <= 1e-10

    def test_g1_random(self, g1_curve, g1_ctx):
        rng = np.random.default_rng(8)
        for _ in range(25):
            u = random_curve_tangent(g1_curve, rng)
            v = random_curve_tangent(g1_curve, rng)
            quad = torelli.KunnethQuadric(
                omega=rng.standard_normal(1) + 1j * rng.standard_normal(1),
                omega_prime=rng.standard_normal(1) + 1j * rng.standard_normal(1),
            )
            lhs, rhs = torelli.theorem_a_check(quad, u, v, g1_ctx)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_g2_random(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(9)
        for _ in range(25):
            u = random_curve_tangent(g2_curve, rng)
            v = random_curve_tangent(g2_curve, rng)
            quad = torelli.KunnethQuadric(
                omega=rng.standard_normal(2) + 1j * rng.standard_normal(2),
                omega_prime=rng.standard_normal(2) + 1j * rng.standard_normal(2),
            )
            lhs, rhs = torelli.theorem_a_check(quad, u, v, g2_ctx)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_sesquilinear_structure(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(10)
        u = random_curve_tangent(g2_curve, rng)
        v = random_curve_tangent(g2_curve, rng)
        omega = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        omega_prime = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = 0.8 + 0.45j
        base = torelli.theorem_a_check(
            torelli.KunnethQuadric(omega=omega, omega_prime=omega_prime), u, v, g2_ctx
        )
        scaled = torelli.theorem_a_check(
            torelli.KunnethQuadric(omega=s * omega, omega_prime=omega_prime), u, v, g2_ctx
        )
        assert scaled[0] == pytest.approx(s * base[0])
        assert scaled[1] == pytest.approx(s * base[1])

    def test_scale_covariance_in_u(self, g2_curve, g2_ctx):
        # scaling the u tangent scales both sides by the same power of c
        from curvekernel import periods

        rng = np.random.default_rng(11)
        u = random_curve_tangent(g2_curve, rng)
        v = random_curve_tangent(g2_curve, rng)
        c = 1.7 - 0.3j
        cu = periods.TangentVector(base=u.base, lam=c * u.lam)
        quad = torelli.KunnethQuadric(
            omega=rng.standard_normal(2) + 1j * rng.standard_normal(2),
            omega_prime=rng.standard_normal(2) + 1j * rng.standard_normal(2),
        )
        base = torelli.theorem_a_check(quad, u, v, g2_ctx)
        scaled = torelli.theorem_a_check(quad, cu, v, g2_ctx)
        assert scaled[0] == pytest.approx(c**2 * base[0])
        assert scaled[1] == pytest.approx(c**2 * base[1])


class TestQstarAgainstKv:
    def test_vanishing(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(12)
        v = random_curve_tangent(g2_curve, rng)
        omega_prime = perpendicular_class(g2_ctx, v, rng)
        pairing, claim = torelli.qstar_against_kv_check(omega_prime, v, g2_ctx)
        assert abs(claim) <= 1e-12
        assert abs(pairing) <= 1e-10

    def test_g1_explicit(self, g1_curve, g1_ctx):
        rng = np.random.default_rng(13)
        v = random_curve_tangent(g1_curve, rng)
        omega_prime = np.array([0.9 + 0.2j])
        pairing, claim = torelli.qstar_against_kv_check(omega_prime, v, g1_ctx)
        w_prime_v = bergman.evaluate_class(g1_ctx, omega_prime, v)
        assert claim == pytest.approx(1j * np.conj(w_prime_v))
        assert pairing == pytest.approx(claim, abs=1e-12)

    def test_g2_random(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(14)
        for _ in range(25):
            v = random_curve_tangent(g2_curve, rng)
            omega_prime = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pairing, claim = torelli.qstar_against_kv_check(omega_prime, v, g2_ctx)
            assert abs(pairing - claim) <= 1e-9 * max(1.0, abs(claim))


@pytest.mark.parametrize("ctx_name", ["g1_ctx", "g2_ctx", "g3_ctx"])
class TestBatchedChecks:
    """One call on 64 trials agrees elementwise with 64 scalar calls."""

    def test_theorem_a_check(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        rng = np.random.default_rng(30)
        us, u = random_tangent_batch(ctx.pd.curve, rng, 64)
        vs, v = random_tangent_batch(ctx.pd.curve, rng, 64)
        omega = rng.standard_normal((64, ctx.g)) + 1j * rng.standard_normal((64, ctx.g))
        omega_prime = rng.standard_normal((64, ctx.g)) + 1j * rng.standard_normal((64, ctx.g))
        lhs, rhs = torelli.theorem_a_check(torelli.KunnethQuadric(omega, omega_prime), u, v, ctx)
        assert lhs.shape == rhs.shape == (64,)
        scalar = np.array(
            [
                torelli.theorem_a_check(torelli.KunnethQuadric(w, wp), a, b, ctx)
                for w, wp, a, b in zip(omega, omega_prime, us, vs)
            ]
        )
        assert_allclose(lhs, scalar[:, 0], rtol=1e-13, atol=0)
        assert_allclose(rhs, scalar[:, 1], rtol=1e-13, atol=0)

    def test_qstar_against_kv_check(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        rng = np.random.default_rng(31)
        vs, v = random_tangent_batch(ctx.pd.curve, rng, 64)
        omega_prime = rng.standard_normal((64, ctx.g)) + 1j * rng.standard_normal((64, ctx.g))
        pairing, claim = torelli.qstar_against_kv_check(omega_prime, v, ctx)
        assert pairing.shape == claim.shape == (64,)
        scalar = np.array([torelli.qstar_against_kv_check(wp, b, ctx) for wp, b in zip(omega_prime, vs)])
        assert_allclose(pairing, scalar[:, 0], rtol=1e-13, atol=0)
        assert_allclose(claim, scalar[:, 1], rtol=1e-13, atol=0)
