from __future__ import annotations

import numpy as np
import pytest
from conftest import basis, class_value, random_curve_tangent, random_tangent_batch
from numpy.testing import assert_allclose

import bergman_oracle as oracle
from curvekernel import bergman, periods, torus
from curvekernel.errors import SingularSystemError


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
        assert oracle.hodge_product(g1_ctx, [1.0], [1.0]) == pytest.approx(2.0, abs=1e-10)

    def test_hermitian(self, g2_ctx):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            hab = oracle.hodge_product(g2_ctx, a, b)
            hba = oracle.hodge_product(g2_ctx, b, a)
            assert hab == pytest.approx(np.conj(hba))

    def test_positive(self, g2_ctx):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            val = oracle.hodge_product(g2_ctx, a, a)
            assert abs(val.imag) <= 1e-10 * max(1.0, abs(val))
            assert val.real > 0

    def test_period_vector_input(self, g2_ctx):
        # mixed-type route: pass the period vectors directly
        a = np.array([1.0 + 0.3j, -0.2j])
        pv = bergman.class_period_vector(g2_ctx, a)
        direct = oracle.hodge_product(g2_ctx, a, a)
        via_pv = oracle.hodge_product(g2_ctx, pv, pv)
        assert via_pv == pytest.approx(direct)

    def test_holomorphic_classes_are_isotropic(self, g2_ctx):
        # i * integral of alpha wedge beta vanishes for two (1,0)-classes:
        # feed the conjugated period vector so the product sees beta, not conj(beta)
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pv_b_bar = bergman.class_period_vector(g2_ctx, b).conj()
            assert abs(oracle.hodge_product(g2_ctx, a, pv_b_bar)) <= 1e-9


class TestReproducingElement:
    def test_torus_half_dz(self, square_lattice):
        # the unit square has area 1, so k = dz / h(dz, dz) = dz / 2
        assert torus.torus_kernel(square_lattice, 1, 1) == pytest.approx(0.5, abs=1e-14)

    def test_reproducing_identity(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(2)
        eu = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
        k = bergman.reproducing_element(g2_ctx, eu)
        for _ in range(20):
            omega = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = oracle.hodge_product(g2_ctx, omega, k)
            rhs = class_value(omega, eu)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_conjugate_symmetry(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(3)
        u = random_curve_tangent(g2_curve, rng)
        v = random_curve_tangent(g2_curve, rng)
        ku = bergman.reproducing_element(g2_ctx, basis(g2_ctx, u))
        kv = bergman.reproducing_element(g2_ctx, basis(g2_ctx, v))
        huv = oracle.hodge_product(g2_ctx, ku, kv)
        hvu = oracle.hodge_product(g2_ctx, kv, ku)
        assert huv == pytest.approx(np.conj(hvu))


class TestBergmanEval:
    def test_g1_diagonal_value(self, g1_curve, g1_ctx):
        rng = np.random.default_rng(4)
        u = random_curve_tangent(g1_curve, rng)
        eu = basis(g1_ctx, u)
        (w,) = eu
        val = bergman.bergman_eval(g1_ctx, eu, eu)
        assert val == pytest.approx(abs(w) ** 2 / 2, abs=1e-12)

    def test_hermitian_symmetry(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(5)
        for _ in range(10):
            eu = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
            ev = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
            assert bergman.bergman_eval(g2_ctx, eu, ev) == pytest.approx(
                np.conj(bergman.bergman_eval(g2_ctx, ev, eu))
            )

    def test_three_presentations_agree(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(6)
        for _ in range(25):
            eu = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
            ev = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
            assert oracle.presentation_spread(oracle.presentation_values(g2_ctx, eu, ev)) <= 1e-10

    def test_kernel_positivity(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(7)
        for _ in range(15):
            eu = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
            val = bergman.bergman_eval(g2_ctx, eu, eu)
            assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))
            assert val.real > 0

    def test_lemma_chain(self, g2_curve, g2_ctx):
        # kernel value == h(k_v, k_u) == k_v(u)
        rng = np.random.default_rng(8)
        for _ in range(10):
            eu = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
            ev = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
            val = bergman.bergman_eval(g2_ctx, eu, ev)
            ku = bergman.reproducing_element(g2_ctx, eu)
            kv = bergman.reproducing_element(g2_ctx, ev)
            via_h = oracle.hodge_product(g2_ctx, kv, ku)
            via_eval = class_value(kv, eu)
            assert abs(val - via_h) <= 1e-10 * max(1.0, abs(val))
            assert abs(val - via_eval) <= 1e-10 * max(1.0, abs(val))


class TestUnitaryBasis:
    def test_g1_value(self, g1_ctx):
        assert_allclose(oracle.unitary_change(g1_ctx), [[1 / np.sqrt(2)]], atol=1e-12)

    def test_unitarizes_gram(self, g2_ctx, g3_pd):
        ctx3 = bergman.context_from_periods(g3_pd)
        for ctx in (g2_ctx, ctx3):
            u = oracle.unitary_change(ctx)
            assert np.linalg.norm(u @ ctx.gram @ u.conj().T - np.eye(ctx.g)) <= 1e-12

    def test_unitary_route_equals_gram_route(self, g2_curve, g2_ctx):
        rng = np.random.default_rng(9)
        eu = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
        ev = basis(g2_ctx, random_curve_tangent(g2_curve, rng))
        a = oracle.kernel_value(g2_ctx, eu, ev, "unitary")
        b = bergman.bergman_eval(g2_ctx, eu, ev)
        assert a == pytest.approx(b)


class TestConventionIndependence:
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
            # each context evaluates the tangents in its own a-normalized basis
            a = bergman.bergman_eval(g2_ctx, basis(g2_ctx, u), basis(g2_ctx, v))
            b = bergman.bergman_eval(ctx2, basis(ctx2, u), basis(ctx2, v))
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


class TestSingularGram:
    @pytest.mark.parametrize(
        "pd_name,imz", [("g1_pd", np.zeros((1, 1))), ("g2_pd", np.diag([1.0, 0.0]))], ids=["gram0", "gram1"]
    )
    def test_named_error(self, pd_name, imz, request):
        # periods with A = I and a singular Im Z: the Gram matrix 2 Im Z is singular
        curve = request.getfixturevalue(pd_name).curve
        eye, Z = np.eye(curve.g, dtype=complex), 0.5 + 1j * imz
        pd = periods.PeriodData(curve, eye, Z, Z, eye, 64, 0.0, 0.0)
        with pytest.raises(SingularSystemError):
            bergman.context_from_periods(pd)


@pytest.mark.parametrize("ctx_name", ["g1_ctx", "g2_ctx", "g3_ctx"])
class TestBatchedEvaluation:
    """One call on 64 tangents agrees elementwise with 64 scalar calls."""

    def test_bergman_eval(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        rng = np.random.default_rng(20)
        us, u = random_tangent_batch(ctx.pd.curve, rng, 64)
        vs, v = random_tangent_batch(ctx.pd.curve, rng, 64)
        for presentation in oracle.PRESENTATIONS:
            batch = oracle.kernel_value(ctx, basis(ctx, u), basis(ctx, v), presentation)
            scalar = [oracle.kernel_value(ctx, basis(ctx, a), basis(ctx, b), presentation) for a, b in zip(us, vs)]
            assert batch.shape == (64,)
            assert_allclose(batch, scalar, rtol=1e-13, atol=0)

    def test_reproducing_element(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        us, u = random_tangent_batch(ctx.pd.curve, np.random.default_rng(21), 64)
        batch = bergman.reproducing_element(ctx, basis(ctx, u))
        assert batch.shape == (64, ctx.g)
        assert_allclose(batch, [bergman.reproducing_element(ctx, basis(ctx, a)) for a in us], rtol=1e-13, atol=0)

    def test_scalar_tangent_gives_complex(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        eu = basis(ctx, random_curve_tangent(ctx.pd.curve, np.random.default_rng(22)))
        assert isinstance(bergman.bergman_eval(ctx, eu, eu), complex)
