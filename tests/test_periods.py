from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from curvekernel import bergman, periods
from curvekernel.errors import (
    BranchPointProximityError,
    CurveError,
    DegreeError,
    DimensionMismatchError,
    RiemannRelationError,
    RootConfigurationError,
)

# int_0^1 dx / sqrt(x - x^3), frozen from the adaptive oracle below (also the
# classical lemniscatic value Gamma(1/4)^2 / (2 sqrt(2 pi))).
LEMNISCATE = 2.6220575542921198


def oracle_periods(curve, g):
    """Independent period computation: adaptive QUADPACK with algebraic weights.

    Same cycle bookkeeping as the implementation, entirely different
    quadrature (adaptive Clenshaw-Curtis with endpoint weight (x-a)^-1/2
    (b-x)^-1/2 versus fixed-order Gauss-Chebyshev).
    """
    e = curve.roots
    d = curve.degree
    lead_phase = 1.0 if curve.leading > 0 else 1j
    nseg = d - 1
    segs = np.empty((nseg, g), dtype=complex)
    for m in range(1, nseg + 1):
        a, b = e[m - 1], e[m]
        phase = lead_phase * 1j ** (d - m)
        for k in range(g):
            def smooth(x, k=k, m=m):
                rest = abs(curve.leading)
                for l in range(d):
                    if l not in (m - 1, m):
                        rest *= abs(x - e[l])
                return x**k / np.sqrt(rest)

            val, _ = quad(smooth, a, b, weight="alg", wvar=(-0.5, -0.5), epsabs=1e-13, epsrel=1e-13)
            segs[m - 1, k] = val / phase
    A = np.empty((g, g), dtype=complex)
    B = np.empty((g, g), dtype=complex)
    for i in range(1, g + 1):
        A[:, i - 1] = 2 * segs[2 * i - 2]
        B[:, i - 1] = 2 * segs[2 * i - 1 :: 2].sum(axis=0)
    return A, B, np.linalg.solve(A, B)


class TestBuildCurve:
    def test_cubic(self, g1_curve):
        assert g1_curve.g == 1
        assert_allclose(g1_curve.roots, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_quintic(self, g2_curve):
        assert g2_curve.g == 2
        assert_allclose(g2_curve.roots, [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-10)

    def test_double_root_rejected(self):
        with pytest.raises(RootConfigurationError):
            periods.build_curve([0.0, 0.0, -1.0, 1.0])  # x^2 (x - 1)

    def test_complex_roots_rejected(self):
        with pytest.raises(RootConfigurationError):
            periods.build_curve([0.0, 1.0, 0.0, 1.0])  # x (x^2 + 1)

    def test_low_degree_rejected(self):
        with pytest.raises(DegreeError):
            periods.build_curve([1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(RootConfigurationError, match="non-finite"):
            periods.build_curve([0.0, -1.0, bad, 1.0])


class TestDifferentialEval:
    def test_direct_formula(self, g1_curve):
        u = periods.tangent(g1_curve, 2.0, 1, 1.0)
        assert periods.raw_differential_eval(g1_curve, u) == pytest.approx([1 / np.sqrt(6.0)])

    def test_linear_in_lambda(self, g1_curve):
        u0 = periods.tangent(g1_curve, 2.0, 1, 0.0)
        assert periods.raw_differential_eval(g1_curve, u0)[0] == 0

    def test_sheet_flip_negates(self, g2_curve):
        up = periods.tangent(g2_curve, 1.5 + 0.5j, 1, 1.0 - 2.0j)
        um = periods.tangent(g2_curve, 1.5 + 0.5j, -1, 1.0 - 2.0j)
        a = periods.raw_differential_eval(g2_curve, up)
        b = periods.raw_differential_eval(g2_curve, um)
        assert a.shape == (2,)
        assert a == pytest.approx(-b)

    def test_branch_point_exclusion(self, g1_curve):
        with pytest.raises(BranchPointProximityError):
            periods.tangent(g1_curve, 1.0 + 1e-14, 1, 1.0)

    def test_batch_matches_scalar_rows(self, g2_curve):
        x = np.array([[1.5 + 0.5j, -0.3 + 1.1j], [4.2 + 0.2j, 2.5 - 0.7j]])
        sheet = np.array([[1, -1], [-1, 1]])
        lam = np.array([[1.0 - 2.0j, 0.4], [-0.2j, 0.9 + 0.1j]])
        batch = periods.raw_differential_eval(g2_curve, periods.tangent(g2_curve, x, sheet, lam))
        assert batch.shape == (2, 2, 2)
        for idx in np.ndindex(x.shape):
            u = periods.tangent(g2_curve, x[idx], sheet[idx], lam[idx])
            assert_allclose(batch[idx], periods.raw_differential_eval(g2_curve, u), rtol=1e-15)

    def test_branch_point_in_batch_rejected(self, g1_curve):
        # one point of the batch sits on the branch point x = 1
        with pytest.raises(BranchPointProximityError):
            periods.tangent(g1_curve, np.array([2.0, 1.0 + 1e-14, 0.5 + 0.5j]), 1, 1.0)

    def test_bad_sheet_in_batch_rejected(self, g1_curve):
        with pytest.raises(DimensionMismatchError):
            periods.tangent(g1_curve, np.array([2.0, 0.5 + 0.5j]), np.array([1, 0]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_non_finite_x_rejected(self, g1_curve, bad):
        with pytest.raises(CurveError):
            periods.curve_point(g1_curve, np.array([2.0, bad]))
        with pytest.raises(CurveError):
            periods.tangent(g1_curve, bad, 1, 1.0)

    @pytest.mark.parametrize("x", [1e200, complex(0.5, -1e120)])
    def test_overflowing_f_rejected(self, g1_curve, x):
        # x is finite but f(x) = x^3 - x is not
        with pytest.raises(CurveError):
            periods.curve_point(g1_curve, np.array([2.0, x]))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(np.nan, 1.0)])
    def test_non_finite_lam_rejected(self, g1_curve, bad):
        with pytest.raises(CurveError):
            periods.tangent(g1_curve, np.array([2.0, 0.5 + 0.5j]), 1, np.array([1.0, bad]))


def loop_segment_integrals(curve, order):
    """One segment and one moment at a time: the reference the array code must match bit for bit."""
    e = curve.roots
    d = curve.degree
    t, weight = periods._chebyshev_nodes(order)
    out = np.empty((d - 1, curve.g), dtype=complex)
    lead_phase = 1.0 if curve.leading > 0 else 1j
    for m in range(1, d):
        a, b = e[m - 1], e[m]
        c, r = 0.5 * (a + b), 0.5 * (b - a)
        x = c + r * t
        rest = np.full_like(x, abs(curve.leading))
        for l in range(d):
            if l not in (m - 1, m):
                rest *= np.abs(x - e[l])
        base = 1.0 / np.sqrt(rest)
        phase = lead_phase * 1j ** (d - m)
        for k in range(curve.g):
            out[m - 1, k] = weight * np.sum(x**k * base) / phase
    return out


class TestSegmentIntegrals:
    @pytest.mark.parametrize("order", [8, 64, 96, 2048])
    @pytest.mark.parametrize("g", range(1, 9))
    @pytest.mark.parametrize("extra", [0, 1], ids=["odd", "even"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["lead+", "lead-"])
    def test_matches_loop_bit_for_bit(self, order, g, extra, sign):
        d = 2 * g + 1 + extra
        rng = np.random.default_rng([g, extra, order])
        roots = (np.arange(d) - (d - 1) / 2 + rng.uniform(-0.3, 0.3, d)) * 2.0 / d
        coeffs = sign * rng.uniform(0.5, 2.0) * np.polynomial.polynomial.polyfromroots(roots)
        curve = periods.build_curve(coeffs)
        assert (curve.degree, curve.g, curve.leading < 0) == (d, g, sign < 0)
        np.testing.assert_array_equal(
            periods._segment_integrals(curve, order), loop_segment_integrals(curve, order)
        )


class TestComputePeriods:
    def test_square_lattice_curve(self, g1_pd):
        # order-4 automorphism forces the period ratio i
        assert abs(g1_pd.Z[0, 0] - 1j) <= 1e-10

    def test_lemniscatic_periods(self, g1_pd):
        assert g1_pd.A[0, 0] == pytest.approx(-2 * LEMNISCATE, abs=1e-10)
        assert g1_pd.B[0, 0] == pytest.approx(-2j * LEMNISCATE, abs=1e-10)

    def test_against_adaptive_oracle_g1(self, g1_curve, g1_pd):
        A, B, Z = oracle_periods(g1_curve, 1)
        assert_allclose(g1_pd.A, A, atol=1e-10)
        assert_allclose(g1_pd.B, B, atol=1e-10)
        assert_allclose(g1_pd.Z, Z, atol=1e-10)

    def test_against_adaptive_oracle_g2(self, g2_curve, g2_pd):
        _, _, Z = oracle_periods(g2_curve, 2)
        assert_allclose(g2_pd.Z, Z, atol=1e-9)

    def test_riemann_certificate_g2(self, g2_pd):
        assert g2_pd.riemann_residual <= 1e-8
        assert g2_pd.min_eig_imZ > 0

    def test_quadrature_doubling_stability(self, g2_curve, g2_pd):
        pd2 = periods.compute_periods(g2_curve, quad_order=2 * g2_pd.quad_order)
        assert np.abs(pd2.Z - g2_pd.Z).max() <= 1e-10

    def test_self_convergence_monotone(self):
        # clustered roots slow the segment integrands down enough to see the
        # doubling drift fall before it hits the roundoff floor
        coeffs = np.array([1.0])
        for r in (0.0, 1.0, 1.18, 3.0, 4.0):
            coeffs = np.convolve(coeffs, [-r, 1.0])
        curve = periods.build_curve(list(coeffs))
        orders = (16, 32, 64, 128)
        zs = [periods.compute_periods(curve, quad_order=n).Z for n in orders]
        drifts = [float(np.abs(b - a).max()) for a, b in zip(zs, zs[1:])]
        floor = 1e-12
        for earlier, later in zip(drifts, drifts[1:]):
            assert later <= earlier or earlier <= floor
        assert drifts[-1] <= 1e-10

    def test_underresolved_quadrature_fails_certificate(self):
        coeffs = np.array([1.0])
        for r in (0.0, 1.0, 1.18, 3.0, 4.0):
            coeffs = np.convolve(coeffs, [-r, 1.0])
        curve = periods.build_curve(list(coeffs))
        with pytest.raises(RiemannRelationError):
            periods.compute_periods(curve, quad_order=8)

    def test_even_degree_model(self):
        curve = periods.build_curve([0.0, -6.0, 11.0, -6.0, 1.0])  # x(x-1)(x-2)(x-3)
        pd = periods.compute_periods(curve)
        assert curve.g == 1
        assert pd.min_eig_imZ > 0

    def test_negative_leading_coefficient(self):
        curve = periods.build_curve([0.0, 1.0, 0.0, -1.0])  # -(x^3 - x)
        pd = periods.compute_periods(curve)
        assert pd.riemann_residual <= 1e-10

    def test_genus3(self, g3_pd):
        assert g3_pd.g == 3
        assert g3_pd.riemann_residual <= 1e-8
        assert g3_pd.min_eig_imZ > 0

    def test_rejects_low_order(self, g1_curve):
        with pytest.raises(DimensionMismatchError):
            periods.compute_periods(g1_curve, quad_order=4)


class TestNormalizedBasis:
    def test_a_periods_are_identity(self, g2_pd):
        assert np.linalg.norm(g2_pd.N @ g2_pd.A - np.eye(2)) <= 1e-10

    def test_g1_scalar_normalization(self, g1_curve, g1_pd):
        u = periods.tangent(g1_curve, 2.0 + 1.0j, 1, 0.5)
        (raw,) = periods.raw_differential_eval(g1_curve, u)
        (normalized,) = periods.normalized_differential_eval(g1_pd, u)
        assert normalized == pytest.approx(raw / g1_pd.A[0, 0])

    def test_linearity(self, g2_curve, g2_pd):
        x = 1.4 + 0.8j
        u1 = periods.tangent(g2_curve, x, 1, 1.0)
        u2 = periods.tangent(g2_curve, x, 1, 2.5 - 1.0j)
        a = periods.normalized_differential_eval(g2_pd, u1)
        b = periods.normalized_differential_eval(g2_pd, u2)
        assert b == pytest.approx((2.5 - 1.0j) * a)


class TestPeriodVector:
    """The normalized-basis case of ``bergman.class_period_vector``."""

    def test_g1_square(self, g1_ctx):
        assert_allclose(bergman.class_period_vector(g1_ctx, [1.0]), [1.0, 1j], atol=1e-10)

    def test_g1_conjugated(self, g1_ctx):
        assert_allclose(bergman.class_period_vector(g1_ctx, [1.0], conjugated=True), [1.0, -1j], atol=1e-10)

    def test_zero(self, g2_ctx):
        assert_allclose(bergman.class_period_vector(g2_ctx, np.zeros(2)), np.zeros(4))

    def test_dimension_mismatch(self, g2_ctx):
        with pytest.raises(DimensionMismatchError):
            bergman.class_period_vector(g2_ctx, np.ones(3))


class TestCycleTransforms:
    def test_handle_permutation(self, g2_pd):
        s = np.zeros((4, 4))
        perm = [1, 0]
        for i, p in enumerate(perm):
            s[i, p] = 1.0
            s[2 + i, 2 + p] = 1.0
        pd2 = periods.transform_cycles(g2_pd, s)
        assert pd2.riemann_residual <= 1e-8
        assert pd2.min_eig_imZ > 0
        assert_allclose(pd2.Z, g2_pd.Z[np.ix_(perm, perm)], atol=1e-10)

    def test_a_b_swap(self, g2_pd):
        s = np.zeros((4, 4))
        s[:2, 2:] = np.eye(2)
        s[2:, :2] = -np.eye(2)
        pd2 = periods.transform_cycles(g2_pd, s)
        assert pd2.min_eig_imZ > 0
        assert_allclose(pd2.Z, -np.linalg.inv(g2_pd.Z), atol=1e-9)

    def test_non_symplectic_change_fails_certificate(self, g2_pd):
        s = np.eye(4)
        s[0, 1] = 1.0  # shear mixing a-cycles without the b compensation
        with pytest.raises(RiemannRelationError):
            periods.transform_cycles(g2_pd, s)
