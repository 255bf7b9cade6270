from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvekernel import symplectic as sy
from conftest import random_siegel_point
from curvekernel.errors import (
    DimensionMismatchError,
    PositivityError,
    SiegelDomainError,
    SpanError,
    SquareInvariantError,
    SymplecticInvariantError,
)


def test_standard_space_g1():
    space = sy.make_standard_space(1)
    assert_allclose(space.Q, [[0.0, 1.0], [-1.0, 0.0]])


def test_standard_space_g2_block_form():
    space = sy.make_standard_space(2)
    expected = np.zeros((4, 4))
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = -np.eye(2)
    assert_allclose(space.Q, expected)


def test_standard_space_rejects_g0():
    with pytest.raises(DimensionMismatchError):
        sy.make_standard_space(0)


class TestComplexStructureFromMatrix:
    def test_valid_g1(self):
        space = sy.make_standard_space(1)
        cs = sy.complex_structure_from_matrix(space, [[0.0, -1.0], [1.0, 0.0]])
        # +i eigenspace is the line through (1, -i)
        v = cs.Vm10[:, 0]
        assert_allclose(cs.J @ v, 1j * v, atol=1e-12)
        ratio = v / np.array([1.0, -1j])
        assert abs(ratio[0] - ratio[1]) < 1e-12

    def test_sign_flipped_j_not_positive(self):
        space = sy.make_standard_space(1)
        with pytest.raises(PositivityError):
            sy.complex_structure_from_matrix(space, [[0.0, 1.0], [-1.0, 0.0]])

    def test_identity_fails_square_invariant(self):
        space = sy.make_standard_space(1)
        with pytest.raises(SquareInvariantError):
            sy.complex_structure_from_matrix(space, np.eye(2))

    def test_square_ok_but_not_symplectic(self):
        # conjugate the standard J at g=2 by a shear acting on one block only
        space = sy.make_standard_space(2)
        j0 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        p = np.eye(4)
        p[0, 1] = 0.5
        j = p @ j0 @ np.linalg.inv(p)
        assert np.linalg.norm(j @ j + np.eye(4)) < 1e-14
        with pytest.raises(SymplecticInvariantError):
            sy.complex_structure_from_matrix(space, j)

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
            q = cs.space.Q
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
        maps = sy.duality_maps(cs.space)
        image = maps.phiQ @ cs.V0m1
        assert sy.subspace_distance(image, cs.H10) <= 1e-10


class TestDualityMaps:
    def test_phi_psi_inverse(self):
        maps = sy.duality_maps(sy.make_standard_space(2))
        assert_allclose(maps.phiQ @ maps.psiQ, np.eye(4), atol=1e-14)

    def test_qstar_antisymmetric_matrix(self):
        maps = sy.duality_maps(sy.make_standard_space(3))
        assert_allclose(maps.Qstar, -maps.Qstar.T, atol=1e-14)

    def test_psi_q_equals_minus_phi_qstar(self):
        # matrix identity psi_Q = -phi_{Qstar}, here phi_{Qstar} = Qstar itself
        for g in (1, 2, 3):
            maps = sy.duality_maps(sy.make_standard_space(g))
            assert np.linalg.norm(maps.psiQ + maps.Qstar) <= 1e-12


class TestQstarPairing:
    def test_dual_basis_normalization(self):
        g = 2
        maps = sy.duality_maps(sy.make_standard_space(g))
        a1 = np.zeros(2 * g)
        b1 = np.zeros(2 * g)
        a1[0] = 1.0
        b1[g] = 1.0
        assert sy.qstar_pairing(maps, a1, b1) == pytest.approx(1.0)

    def test_isotropic(self):
        maps = sy.duality_maps(sy.make_standard_space(2))
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(sy.qstar_pairing(maps, a, a)) < 1e-14

    def test_antisymmetry_and_bilinearity(self):
        maps = sy.duality_maps(sy.make_standard_space(3))
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            s = complex(rng.standard_normal() + 1j * rng.standard_normal())
            assert sy.qstar_pairing(maps, a, b) == pytest.approx(-sy.qstar_pairing(maps, b, a))
            assert sy.qstar_pairing(maps, a, s * b + c) == pytest.approx(
                s * sy.qstar_pairing(maps, a, b) + sy.qstar_pairing(maps, a, c)
            )

    def test_dimension_mismatch(self):
        maps = sy.duality_maps(sy.make_standard_space(2))
        with pytest.raises(DimensionMismatchError):
            sy.qstar_pairing(maps, np.zeros(3), np.zeros(4))


class TestPsiQAsFunctional:
    def test_agrees_with_matrix_route(self):
        rng = np.random.default_rng(5)
        for g in (1, 2, 3):
            cs = sy.complex_structure_from_period_matrix(random_siegel_point(g, rng))
            maps = sy.duality_maps(cs.space)
            omega_bar = cs.H01 @ (rng.standard_normal(g) + 1j * rng.standard_normal(g))
            functional = sy.psiQ_as_functional(maps, cs, omega_bar)
            for _ in range(10):
                lam = cs.H10 @ (rng.standard_normal(g) + 1j * rng.standard_normal(g))
                via_matrix = lam @ (maps.psiQ @ omega_bar)
                assert abs(functional(lam) - via_matrix) <= 1e-12 * max(1.0, abs(via_matrix))

    def test_lemma_identity_at_g1(self):
        cs = sy.complex_structure_from_period_matrix(np.array([[1j]]))
        maps = sy.duality_maps(cs.space)
        omega_bar = cs.H01[:, 0]
        omega = cs.H10[:, 0]
        functional = sy.psiQ_as_functional(maps, cs, omega_bar)
        assert functional(omega) == pytest.approx(sy.qstar_pairing(maps, omega_bar, omega))

    def test_zero_vector_gives_zero_functional(self):
        cs = sy.complex_structure_from_period_matrix(np.array([[1j]]))
        maps = sy.duality_maps(cs.space)
        functional = sy.psiQ_as_functional(maps, cs, np.zeros(2, dtype=complex))
        assert functional(cs.H10[:, 0]) == 0

    def test_rejects_vector_outside_h01(self):
        cs = sy.complex_structure_from_period_matrix(np.array([[1j]]))
        maps = sy.duality_maps(cs.space)
        with pytest.raises(SpanError):
            sy.psiQ_as_functional(maps, cs, cs.H10[:, 0])

    def test_curve_backed_structure(self, g2_ctx):
        # conjugated period vectors of a curve's normalized basis live in H01
        from curvekernel import bergman

        cs = sy.complex_structure_from_period_matrix(g2_ctx.pd.Z)
        maps = sy.duality_maps(cs.space)
        omega_bar = bergman.class_period_vector(g2_ctx, [0.4 - 0.9j, 1.1 + 0.2j], conjugated=True)
        functional = sy.psiQ_as_functional(maps, cs, omega_bar)
        lam = bergman.class_period_vector(g2_ctx, [1.0, -0.5j])
        assert functional(lam) == pytest.approx(sy.qstar_pairing(maps, omega_bar, lam))
