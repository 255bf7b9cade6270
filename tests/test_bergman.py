from __future__ import annotations

import numpy as np
import pytest
from conftest import random_curve_tangent, random_tangent_batch
from numpy.testing import assert_allclose

from curvekernel import bergman, periods
from curvekernel.errors import DimensionMismatchError, SingularSystemError


def torus_context(area=1.0):
    gram = np.array([[2.0 * area]], dtype=complex)
    return bergman.context_from_gram(gram, lambda u: np.array([u.lam], dtype=complex))


def torus_tangent(lam):
    return periods.TangentVector(base=periods.CurvePoint(x=0.0, sheet=1, y=1.0), lam=complex(lam))


class TestGram:
    def test_gram_is_twice_im_z(self, g1_ctx, g2_ctx):
        for ctx in (g1_ctx, g2_ctx):
            assert np.linalg.norm(ctx.gram - 2 * ctx.pd.Z.imag) <= 1e-9

    def test_gram_hermitian_positive(self, g2_ctx):
        assert np.linalg.norm(g2_ctx.gram - g2_ctx.gram.conj().T) <= 1e-12
        assert np.linalg.eigvalsh(g2_ctx.gram).min() > 0

    def test_gram_inverse(self, g2_ctx):
        assert np.linalg.norm(g2_ctx.gram_inv @ g2_ctx.gram - np.eye(2)) <= 1e-12


class TestHodgeProduct:
    def test_g1_self_product_is_two(self, g1_ctx):
        assert bergman.hodge_product(g1_ctx, [1.0], [1.0]) == pytest.approx(2.0, abs=1e-10)

    def test_hermitian(self, g2_ctx):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            hab = bergman.hodge_product(g2_ctx, a, b)
            hba = bergman.hodge_product(g2_ctx, b, a)
            assert hab == pytest.approx(np.conj(hba))

    def test_positive(self, g2_ctx):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            val = bergman.hodge_product(g2_ctx, a, a)
            assert abs(val.imag) <= 1e-10 * max(1.0, abs(val))
            assert val.real > 0

    def test_period_vector_input(self, g2_ctx):
        # mixed-type route: pass the period vectors directly
        a = np.array([1.0 + 0.3j, -0.2j])
        pv = bergman.class_period_vector(g2_ctx, a)
        direct = bergman.hodge_product(g2_ctx, a, a)
        via_pv = bergman.hodge_product(g2_ctx, pv, pv)
        assert via_pv == pytest.approx(direct)

    def test_holomorphic_classes_are_isotropic(self, g2_ctx):
        # i * integral of alpha wedge beta vanishes for two (1,0)-classes:
        # feed the conjugated period vector so the product sees beta, not conj(beta)
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pv_b_bar = bergman.class_period_vector(g2_ctx, b, conjugated=True)
            assert abs(bergman.hodge_product(g2_ctx, a, pv_b_bar)) <= 1e-9


class TestReproducingElement:
    def test_torus_half_dz(self):
        ctx = torus_context(area=1.0)
        u = torus_tangent(1.0)
        k = bergman.reproducing_element(ctx, u)
        assert_allclose(k.coeffs, [0.5], atol=1e-14)
        assert bergman.evaluate_class(ctx, k.coeffs, u) == pytest.approx(0.5)

    def test_reproducing_identity(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(2)
        u = random_curve_tangent(g2_curve, rng)
        k = bergman.reproducing_element(g2_ctx, u)
        for _ in range(20):
            omega = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = bergman.hodge_product(g2_ctx, omega, k.coeffs)
            rhs = bergman.evaluate_class(g2_ctx, omega, u)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_conjugate_symmetry(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(3)
        u = random_curve_tangent(g2_curve, rng)
        v = random_curve_tangent(g2_curve, rng)
        ku = bergman.reproducing_element(g2_ctx, u)
        kv = bergman.reproducing_element(g2_ctx, v)
        huv = bergman.hodge_product(g2_ctx, ku.coeffs, kv.coeffs)
        hvu = bergman.hodge_product(g2_ctx, kv.coeffs, ku.coeffs)
        assert huv == pytest.approx(np.conj(hvu))


class TestBergmanEval:
    def test_g1_diagonal_value(self, g1_curve, g1_ctx):
        rng = np.random.default_rng(4)
        u = random_curve_tangent(g1_curve, rng)
        (w,) = periods.normalized_differential_eval(g1_ctx.pd, u)
        val = bergman.bergman_eval(g1_ctx, u, u)
        assert val == pytest.approx(abs(w) ** 2 / 2, abs=1e-12)

    def test_hermitian_symmetry(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = random_curve_tangent(g2_curve, rng)
            v = random_curve_tangent(g2_curve, rng)
            assert bergman.bergman_eval(g2_ctx, u, v) == pytest.approx(
                np.conj(bergman.bergman_eval(g2_ctx, v, u))
            )

    def test_three_presentations_agree(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(6)
        for _ in range(25):
            u = random_curve_tangent(g2_curve, rng)
            v = random_curve_tangent(g2_curve, rng)
            assert bergman.three_presentation_residual(g2_ctx, u, v) <= 1e-10

    def test_kernel_positivity(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(7)
        for _ in range(15):
            u = random_curve_tangent(g2_curve, rng)
            val = bergman.bergman_eval(g2_ctx, u, u)
            assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))
            assert val.real > 0

    def test_lemma_chain(self, g2_curve, g2_ctx):
        # kernel value == h(k_v, k_u) == k_v(u)
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = random_curve_tangent(g2_curve, rng)
            v = random_curve_tangent(g2_curve, rng)
            val = bergman.bergman_eval(g2_ctx, u, v)
            ku = bergman.reproducing_element(g2_ctx, u)
            kv = bergman.reproducing_element(g2_ctx, v)
            via_h = bergman.hodge_product(g2_ctx, kv.coeffs, ku.coeffs)
            via_eval = bergman.evaluate_class(g2_ctx, kv.coeffs, u)
            assert abs(val - via_h) <= 1e-10 * max(1.0, abs(val))
            assert abs(val - via_eval) <= 1e-10 * max(1.0, abs(val))


class TestUnitaryBasis:
    def test_g1_value(self, g1_ctx):
        assert_allclose(g1_ctx.unitary_change, [[1 / np.sqrt(2)]], atol=1e-12)

    def test_unitarizes_gram(self, g2_ctx, g3_pd):
        ctx3 = bergman.context_from_periods(g3_pd)
        for ctx in (g2_ctx, ctx3):
            u = ctx.unitary_change
            assert np.linalg.norm(u @ ctx.gram @ u.conj().T - np.eye(ctx.g)) <= 1e-12

    def test_unitary_route_equals_gram_route(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(9)
        u = random_curve_tangent(g2_curve, rng)
        v = random_curve_tangent(g2_curve, rng)
        a = bergman.bergman_eval(g2_ctx, u, v, "unitary")
        b = bergman.bergman_eval(g2_ctx, u, v, "gram")
        assert a == pytest.approx(b)


class TestConventionIndependence:
    def test_working_basis_change(self, g2_curve, g2_pd, g2_ctx):
        rng = np.random.default_rng(10)
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c += 3 * np.eye(2)
        ctx2 = bergman.context_from_periods(g2_pd, basis=c @ g2_pd.N)
        for _ in range(10):
            u = random_curve_tangent(g2_curve, rng)
            v = random_curve_tangent(g2_curve, rng)
            a = bergman.bergman_eval(g2_ctx, u, v)
            b = bergman.bergman_eval(ctx2, u, v)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_raw_basis_context(self, g2_curve, g2_pd, g2_ctx):
        ctx_raw = bergman.context_from_periods(g2_pd, basis="raw")
        rng = np.random.default_rng(11)
        u = random_curve_tangent(g2_curve, rng)
        v = random_curve_tangent(g2_curve, rng)
        assert bergman.bergman_eval(ctx_raw, u, v) == pytest.approx(
            bergman.bergman_eval(g2_ctx, u, v)
        )

    def test_homology_convention_change(self, g2_curve, g2_pd, g2_ctx):
        s = np.zeros((4, 4))
        s[:2, 2:] = np.eye(2)
        s[2:, :2] = -np.eye(2)
        pd2 = periods.transform_cycles(g2_pd, s)
        ctx2 = bergman.context_from_periods(pd2)
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = random_curve_tangent(g2_curve, rng)
            v = random_curve_tangent(g2_curve, rng)
            a = bergman.bergman_eval(g2_ctx, u, v)
            b = bergman.bergman_eval(ctx2, u, v)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_presented_context_rejects_period_vector_input():
    ctx = torus_context()
    with pytest.raises(DimensionMismatchError):
        bergman.hodge_product(ctx, np.zeros(2), np.zeros(2))


class TestSingularGram:
    @pytest.mark.parametrize("gram", [np.zeros((1, 1)), np.diag([1.0, 0.0])])
    def test_named_error(self, gram):
        with pytest.raises(SingularSystemError):
            bergman.context_from_gram(gram, lambda u: np.array([u.lam], dtype=complex))


@pytest.mark.parametrize("ctx_name", ["g1_ctx", "g2_ctx", "g3_ctx"])
class TestBatchedEvaluation:
    """One call on 64 tangents agrees elementwise with 64 scalar calls."""

    def test_bergman_eval(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        rng = np.random.default_rng(20)
        us, u = random_tangent_batch(ctx.pd.curve, rng, 64)
        vs, v = random_tangent_batch(ctx.pd.curve, rng, 64)
        for presentation in ("gram", "unitary", "normalized"):
            batch = bergman.bergman_eval(ctx, u, v, presentation)
            scalar = [bergman.bergman_eval(ctx, a, b, presentation) for a, b in zip(us, vs)]
            assert batch.shape == (64,)
            assert_allclose(batch, scalar, rtol=1e-13, atol=0)

    def test_reproducing_element(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        us, u = random_tangent_batch(ctx.pd.curve, np.random.default_rng(21), 64)
        batch = bergman.reproducing_element(ctx, u).coeffs
        assert batch.shape == (64, ctx.g)
        assert_allclose(batch, [bergman.reproducing_element(ctx, a).coeffs for a in us], rtol=1e-13, atol=0)

    def test_scalar_tangent_gives_complex(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        u = random_curve_tangent(ctx.pd.curve, np.random.default_rng(22))
        assert isinstance(bergman.bergman_eval(ctx, u, u), complex)
