from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvekernel import periods
from curvekernel import siegel as sg
from curvekernel import symplectic as sy
from conftest import random_siegel_point
from curvekernel.errors import (
    DimensionMismatchError,
    PositivityError,
    RiemannRelationError,
    SiegelDomainError,
    SquareInvariantError,
    SymplecticInvariantError,
)


def test_standard_space_g1():
    assert_allclose(sy.duality_maps(1), [[0.0, 1.0], [-1.0, 0.0]])


def test_standard_space_g2_block_form():
    expected = np.zeros((4, 4))
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = -np.eye(2)
    assert_allclose(sy.duality_maps(2), expected)


def test_standard_space_rejects_g0():
    with pytest.raises(DimensionMismatchError):
        sy.duality_maps(0)


class TestComplexStructureFromMatrix:
    def test_valid_g1(self):
        cs = sy.complex_structure_from_matrix([[0.0, -1.0], [1.0, 0.0]])
        # +i eigenspace is the line through (1, -i)
        v = cs.Vm10[:, 0]
        assert_allclose(cs.J @ v, 1j * v, atol=1e-12)
        ratio = v / np.array([1.0, -1j])
        assert abs(ratio[0] - ratio[1]) < 1e-12

    def test_sign_flipped_j_not_positive(self):
        with pytest.raises(PositivityError):
            sy.complex_structure_from_matrix([[0.0, 1.0], [-1.0, 0.0]])

    def test_identity_fails_square_invariant(self):
        with pytest.raises(SquareInvariantError):
            sy.complex_structure_from_matrix(np.eye(2))

    def test_square_ok_but_not_symplectic(self):
        # conjugate the standard J at g=2 by a shear acting on one block only
        j0 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        p = np.eye(4)
        p[0, 1] = 0.5
        j = p @ j0 @ np.linalg.inv(p)
        assert np.linalg.norm(j @ j + np.eye(4)) < 1e-14
        with pytest.raises(SymplecticInvariantError):
            sy.complex_structure_from_matrix(j)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (0, 0)], ids=["odd", "not-square", "empty"])
    def test_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            sy.complex_structure_from_matrix(np.zeros(shape))

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_period_matrix_round_trip(self, g):
        # one eigenbasis convention: J alone gives back Z and the bases read off it
        rng = np.random.default_rng(30 + g)
        for _ in range(10):
            z = random_siegel_point(g, rng)
            cs = sy.complex_structure_from_period_matrix(z)
            back = sy.complex_structure_from_matrix(cs.J)
            assert np.array_equal(back.J, cs.J)
            assert np.linalg.norm(back.Z - z) <= 1e-12 * np.linalg.norm(z)
            assert np.linalg.norm(back.Vm10 - cs.Vm10) <= 1e-12 * np.linalg.norm(cs.Vm10)
            assert np.linalg.norm(back.H10 - cs.H10) <= 1e-12 * np.linalg.norm(cs.H10)

    def test_annihilator_identity(self):
        rng = np.random.default_rng(3)
        cs = sy.complex_structure_from_period_matrix(random_siegel_point(3, rng))
        assert np.linalg.norm(cs.H10.T @ cs.V0m1) < 1e-10
        assert np.linalg.norm(cs.H01.T @ cs.Vm10) < 1e-10


class TestComplexStructureFromPeriodMatrix:
    def test_g1_square_period_matrix(self):
        cs = sy.complex_structure_from_period_matrix(np.array([[1j]]))
        assert_allclose(cs.J, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)

    def test_real_z_rejected(self):
        with pytest.raises(SiegelDomainError):
            sy.complex_structure_from_period_matrix(np.array([[2.0 + 0j]]))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            sy.complex_structure_from_period_matrix(np.zeros((0, 0)))

    def test_nonsymmetric_rejected(self):
        z = np.array([[1j, 0.5], [0.4, 1j]])
        with pytest.raises(SiegelDomainError):
            sy.complex_structure_from_period_matrix(z)

    def test_g2_diagonal(self):
        cs = sy.complex_structure_from_period_matrix(1j * np.eye(2))
        j_expected = np.block(
            [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
        )
        assert_allclose(cs.J, j_expected, atol=1e-12)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_invariant_suite_random(self, g):
        rng = np.random.default_rng(10 + g)
        for _ in range(20):
            cs = sy.complex_structure_from_period_matrix(random_siegel_point(g, rng))
            n = 2 * g
            assert np.linalg.norm(cs.J @ cs.J + np.eye(n)) <= 1e-10
            q = sy.duality_maps(g)
            assert np.linalg.norm(cs.J.T @ q @ cs.J - q) <= 1e-10
            gj = q @ cs.J
            assert np.linalg.eigvalsh((gj + gj.T) / 2).min() > 0
            # J acts as +i on Vm10 and -i on V0m1
            assert np.linalg.norm(cs.J @ cs.Vm10 - 1j * cs.Vm10) <= 1e-10
            assert np.linalg.norm(cs.J @ cs.V0m1 + 1j * cs.V0m1) <= 1e-10

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_phi_q_maps_v0m1_onto_h10(self, g):
        rng = np.random.default_rng(20 + g)
        cs = sy.complex_structure_from_period_matrix(random_siegel_point(g, rng))
        assert np.linalg.norm(sy.duality_maps(g) @ cs.V0m1 - cs.H10) <= 1e-10


class TestCertifiedPeriodsAreSiegelPoints:
    """A period matrix that passes the Riemann certificate builds a complex structure."""

    @pytest.mark.parametrize(
        "roots, order",
        [((0.0, 1.0, 1.001, 2.0, 3.0), 128), ((0.0, 1.0, 1.0001, 2.0, 3.0), 256)],
        ids=["gap-1e-3", "gap-1e-4"],
    )
    def test_close_roots(self, roots, order):
        curve = periods.build_curve(np.polynomial.polynomial.polyfromroots(roots))
        pd = periods.compute_periods(curve, quad_order=order)
        assert pd.riemann_residual > sy.MATRIX_TOL  # above the J-identity tolerance
        cs = sy.complex_structure_from_period_matrix(pd.Z)
        q = sy.duality_maps(cs.g)
        assert np.linalg.norm(cs.J @ cs.J + np.eye(2 * cs.g)) <= 1e-12
        assert np.linalg.norm(cs.J.T @ q @ cs.J - q) <= 1e-12
        assert np.linalg.norm(cs.J @ cs.Vm10 - 1j * cs.Vm10) <= 1e-12 * np.linalg.norm(cs.Vm10)
        rng = np.random.default_rng(40)
        s, t = sg.random_p_tensor(cs, rng), sg.random_p_tensor(cs, rng)
        xs, xt = sg.embed_p10(cs, s), sg.embed_p10(cs, t)
        raw = xs @ np.conj(xt) - np.conj(xt) @ xs
        m, *_ = np.linalg.lstsq(cs.H10, raw.T @ cs.H10, rcond=None)
        expected = sg.bracket_identified(cs, s, t)
        assert np.linalg.norm(m - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_threshold_is_the_certificate(self):
        # ||Z - Z^T|| = 2e-8 fails both the certificate and the constructor
        z = np.array([[1.5j, 0.3 + np.sqrt(2) * 1e-8], [0.3, 1j]])
        assert sy.siegel_residuals(z)[0] == pytest.approx(2e-8)
        with pytest.raises(SiegelDomainError):
            sy.complex_structure_from_period_matrix(z)
        with pytest.raises(RiemannRelationError):
            periods._period_data(None, np.eye(2), z, 64)


class TestDualityMaps:
    def test_phi_psi_inverse(self):
        # psi_Q = -phi_Q inverts phi_Q: the form squares to -I
        for g in (1, 2, 3):
            q = sy.duality_maps(g)
            assert_allclose(q @ q, -np.eye(2 * g), atol=1e-14)

    def test_qstar_antisymmetric_matrix(self):
        q = sy.duality_maps(3)
        assert_allclose(q, -q.T, atol=1e-14)

    def test_psi_q_equals_minus_phi_qstar(self):
        # psi_Q = Q^{-1} and Qstar = -Q^{-1}: one matrix serves as Q and as Qstar
        for g in (1, 2, 3):
            q = sy.duality_maps(g)
            assert np.linalg.norm(-np.linalg.inv(q) - q) <= 1e-12


class TestQstarPairing:
    def test_dual_basis_normalization(self):
        g = 2
        a1 = np.zeros(2 * g)
        b1 = np.zeros(2 * g)
        a1[0] = 1.0
        b1[g] = 1.0
        assert sy.qstar_pairing(a1, b1) == pytest.approx(1.0)

    def test_isotropic(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(sy.qstar_pairing(a, a)) < 1e-14

    def test_antisymmetry_and_bilinearity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            s = complex(rng.standard_normal() + 1j * rng.standard_normal())
            assert sy.qstar_pairing(a, b) == pytest.approx(-sy.qstar_pairing(b, a))
            assert sy.qstar_pairing(a, s * b + c) == pytest.approx(
                s * sy.qstar_pairing(a, b) + sy.qstar_pairing(a, c)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sy.qstar_pairing(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("n", [1, 3, 0], ids=["one", "three", "empty"])
    def test_odd_or_empty_length_rejected(self, n):
        with pytest.raises(DimensionMismatchError):
            sy.qstar_pairing(np.zeros(n), np.zeros(n))

    def test_agrees_with_psi_q_matrix_route(self):
        # Qstar(omega_bar, lam) = <psi_Q omega_bar, lam> with psi_Q = -duality_maps(g)
        rng = np.random.default_rng(5)
        for g in (1, 2, 3):
            cs = sy.complex_structure_from_period_matrix(random_siegel_point(g, rng))
            omega_bar = cs.H01 @ (rng.standard_normal(g) + 1j * rng.standard_normal(g))
            for _ in range(10):
                lam = cs.H10 @ (rng.standard_normal(g) + 1j * rng.standard_normal(g))
                via_matrix = lam @ (-sy.duality_maps(g) @ omega_bar)
                pairing = sy.qstar_pairing(omega_bar, lam)
                assert abs(pairing - via_matrix) <= 1e-12 * max(1.0, abs(via_matrix))


class TestPsiQAsFunctional:
    def test_curve_backed_structure(self, g2_ctx):
        # conjugated period vectors of a curve's normalized basis live in H01,
        # and lam -> <psi_Q omega_bar, lam> is the Q* pairing with omega_bar
        from curvekernel import bergman

        cs = sy.complex_structure_from_period_matrix(g2_ctx.pd.Z)
        omega_bar = bergman.class_period_vector(g2_ctx, [0.4 - 0.9j, 1.1 + 0.2j], conjugated=True)
        coeffs, *_ = np.linalg.lstsq(cs.H01, omega_bar, rcond=None)
        assert np.linalg.norm(cs.H01 @ coeffs - omega_bar) <= 1e-10 * np.linalg.norm(omega_bar)
        lam = bergman.class_period_vector(g2_ctx, [1.0, -0.5j])
        via_matrix = lam @ (-sy.duality_maps(cs.g) @ omega_bar)
        assert via_matrix == pytest.approx(sy.qstar_pairing(omega_bar, lam))
