from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from curvekernel import siegel as sg
from curvekernel import symplectic as sy
from curvekernel.errors import RiemannRelationError, SpMembershipError

from conftest import random_siegel_point
import siegel_oracle as so
from siegel_oracle import SiegelDomainError, SquareInvariantError


@pytest.fixture(scope="module", params=[1, 2, 3])
def structure(request):
    rng = np.random.default_rng(100 + request.param)
    return so.complex_structure_from_period_matrix(random_siegel_point(request.param, rng))


@pytest.fixture(scope="module")
def cs1():
    return so.complex_structure_from_period_matrix(np.array([[1j]]))


class TestSpElement:
    def test_q_inverse_times_symmetric_is_in_sp(self, structure):
        rng = np.random.default_rng(0)
        x = so.random_sp_element(structure, rng)
        assert so.sp_residual(structure, x) <= 1e-12

    def test_rejects_generic_matrix(self, cs1):
        with pytest.raises(SpMembershipError):
            so.sp_element(cs1, np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestCartan:
    def test_j_itself_is_fixed(self, structure):
        x = so.sp_element(structure, structure.J.astype(complex))
        k_part, p_part = so.cartan_project(structure, x)
        assert_allclose(k_part, structure.J, atol=1e-12)
        assert np.linalg.norm(p_part) <= 1e-12

    def test_g1_diagonal_element_is_pure_p(self, cs1):
        x = so.sp_element(cs1, np.diag([1.0, -1.0]).astype(complex))
        k_part, p_part = so.cartan_project(cs1, x)
        assert np.linalg.norm(k_part) <= 1e-12
        assert_allclose(p_part, np.diag([1.0, -1.0]), atol=1e-12)

    def test_recombination_and_identities(self, structure):
        rng = np.random.default_rng(7)
        j = structure.J
        for _ in range(30):
            x = so.random_sp_element(structure, rng)
            k_part, p_part = so.cartan_project(structure, x)
            assert np.linalg.norm(k_part + p_part - x) <= 1e-12
            assert np.linalg.norm(k_part @ j - j @ k_part) <= 1e-10
            assert np.linalg.norm(p_part @ j + j @ p_part) <= 1e-10
            assert max(so.sp_residual(structure, k_part), so.sp_residual(structure, p_part)) <= 1e-10


class TestBracketRaw:
    def test_self_bracket_vanishes(self, structure):
        rng = np.random.default_rng(1)
        x = so.random_sp_element(structure, rng)
        assert np.linalg.norm(so.bracket_raw(structure, x, x)) == 0

    def test_antisymmetry(self, structure):
        rng = np.random.default_rng(2)
        x = so.random_sp_element(structure, rng)
        y = so.random_sp_element(structure, rng)
        assert_allclose(so.bracket_raw(structure, x, y), -so.bracket_raw(structure, y, x), atol=1e-12)

    def test_p_bracket_p_lands_in_k(self, structure):
        # real form: [p, p] commutes with J
        rng = np.random.default_rng(3)
        j = structure.J
        for _ in range(30):
            x = so.cartan_project(structure, so.random_sp_element(structure, rng, real=True))[1]
            y = so.cartan_project(structure, so.random_sp_element(structure, rng, real=True))[1]
            b = so.bracket_raw(structure, x, y)
            assert np.linalg.norm(b @ j - j @ b) <= 1e-10
            assert so.sp_residual(structure, b) <= 1e-10


class TestPTensor:
    def test_random_membership(self, structure):
        rng = np.random.default_rng(5)
        t = so.random_p_tensor(structure, rng)
        assert t.shape == (structure.g, structure.g)

    @pytest.mark.parametrize(
        "z", [[[np.nan + 1j]], [[np.inf * 1j]], np.ones((2, 3)) * 1j], ids=["nan", "inf", "not-square"]
    )
    def test_rejects_malformed_z(self, z):
        with pytest.raises(SpMembershipError):
            sg.p_tensor(z, np.eye(len(z)))

    def test_rejects_asymmetric(self, structure):
        g = structure.g
        if g == 1:
            pytest.skip("every 1x1 tensor is symmetric")
        rng = np.random.default_rng(6)
        s = rng.standard_normal((g, g))
        s = s - s.T + np.eye(g)  # dominantly antisymmetric pairing part
        k = structure.H10.T @ sy.duality_maps(structure.g) @ structure.H01
        with pytest.raises(SpMembershipError):
            sg.p_tensor(structure.Z, np.linalg.solve(k, s))

    def test_embedding_properties(self, structure):
        rng = np.random.default_rng(7)
        t = so.random_p_tensor(structure, rng)
        x = so.embed_p10(structure, t)
        # vanishes on the +i eigenspace, image inside it, and lies in sp
        assert np.linalg.norm(x @ structure.Vm10) <= 1e-10
        coeffs, *_ = np.linalg.lstsq(structure.Vm10, x @ structure.V0m1, rcond=None)
        assert np.linalg.norm(structure.Vm10 @ coeffs - x @ structure.V0m1) <= 1e-10
        assert so.sp_residual(structure, x) <= 1e-9
        # transpose acts as t in the stored bases
        assert np.linalg.norm(x.T @ structure.H10 - structure.H01 @ t) <= 1e-10

    def test_embed_extract_roundtrip(self, structure):
        rng = np.random.default_rng(8)
        t = so.random_p_tensor(structure, rng)
        back = so.extract_p10(structure, so.embed_p10(structure, t))
        assert_allclose(back, t, atol=1e-10)

    def test_i_hat_acts_as_multiplication_by_i(self, structure):
        rng = np.random.default_rng(9)
        x = so.embed_p10(structure, so.random_p_tensor(structure, rng))
        assert np.linalg.norm((structure.J @ x - x @ structure.J) / 2 - 1j * x) <= 1e-9


class TestType11Vanishing:
    def test_equal_arguments(self, structure):
        rng = np.random.default_rng(10)
        t = so.random_p_tensor(structure, rng)
        assert so.type11_vanishing_check(structure, t, t) <= 1e-12

    def test_random_pairs(self, structure):
        rng = np.random.default_rng(11)
        tol = 1e-12 if structure.g == 1 else 1e-10
        for _ in range(20):
            a = so.random_p_tensor(structure, rng)
            b = so.random_p_tensor(structure, rng)
            assert so.type11_vanishing_check(structure, a, b) <= tol


class TestBracketIdentified:
    def test_zero(self, structure):
        rng = np.random.default_rng(12)
        s = so.random_p_tensor(structure, rng)
        zero = sg.p_tensor(structure.Z, np.zeros((structure.g, structure.g)))
        assert np.linalg.norm(sg.bracket_identified(structure.Z, s, zero)) == 0

    def test_g1_closed_form(self, cs1):
        c = 0.7 - 0.4j
        s = sg.p_tensor(cs1.Z, np.array([[c]]))
        out = sg.bracket_identified(cs1.Z, s, s)
        assert out[0, 0] == pytest.approx(abs(c) ** 2)

    def test_two_path_agreement(self, structure):
        # dual transport of the raw bracket restricted to H10 == conj(t) s
        rng = np.random.default_rng(13)
        for _ in range(30):
            s = so.random_p_tensor(structure, rng)
            t = so.random_p_tensor(structure, rng)
            xs = so.embed_p10(structure, s)
            xt = so.embed_p10(structure, t)
            raw = xs @ np.conj(xt) - np.conj(xt) @ xs
            transported = raw.T @ structure.H10
            m, *_ = np.linalg.lstsq(structure.H10, transported, rcond=None)
            assert np.linalg.norm(structure.H10 @ m - transported) <= 1e-9
            assert np.linalg.norm(m - sg.bracket_identified(structure.Z, s, t)) <= 1e-10

    @pytest.mark.parametrize("pd_fixture", ["g2_pd", "g3_pd"], ids=["g2", "g3"])
    def test_at_a_curve_period_matrix(self, request, pd_fixture):
        # the bracket at Z as compute_periods returns it, against the commutator at its J
        pd = request.getfixturevalue(pd_fixture)
        cs = so.complex_structure_from_period_matrix(pd.Z)
        rng = np.random.default_rng(16)
        for _ in range(30):
            s = so.random_p_tensor(cs, rng)
            t = so.random_p_tensor(cs, rng)
            xs = so.embed_p10(cs, s)
            xt = so.embed_p10(cs, t)
            raw = xs @ np.conj(xt) - np.conj(xt) @ xs
            m, *_ = np.linalg.lstsq(cs.H10, raw.T @ cs.H10, rcond=None)
            assert np.linalg.norm(m - sg.bracket_identified(pd.Z, s, t)) <= 1e-10


class TestTransport:
    def test_identity_passes_through(self, cs1):
        out = so.transport_to_dual(cs1, np.eye(2, dtype=complex))
        assert_allclose(out, np.eye(2), atol=1e-14)

    def test_qstar_symmetry_for_sp_elements(self, structure):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = so.random_sp_element(structure, rng)
            xt = so.transport_to_dual(structure, x)
            qs = sy.duality_maps(structure.g) @ xt
            assert np.linalg.norm(qs - qs.T) <= 1e-12 * max(1.0, np.linalg.norm(qs))

    def test_p10_image_and_kernel(self, cs1):
        rng = np.random.default_rng(15)
        t = so.random_p_tensor(cs1, rng)
        x = so.embed_p10(cs1, t)
        xt = so.transport_to_dual(cs1, so.sp_element(cs1, x))
        # vanishes on H01 and has image inside the span of H01
        assert np.linalg.norm(xt @ cs1.H01) <= 1e-10
        coeffs, *_ = np.linalg.lstsq(cs1.H01, xt, rcond=None)
        assert np.linalg.norm(cs1.H01 @ coeffs - xt) <= 1e-10


@pytest.mark.parametrize(
    "z",
    [[[1.0, 0.2], [0.2, 1.0]], [[1j, 0.3], [0.0, 1j]], np.diag([1j, -1j])],
    ids=["real-symmetric", "asymmetric", "indefinite-imz"],
)
@pytest.mark.parametrize(
    "call", [lambda z, t: sg.p_tensor(z, t), lambda z, t: sg.bracket_identified(z, t, t)], ids=["p_tensor", "bracket"]
)
def test_rejects_z_outside_siegel_space(z, call):
    # the zero tensor passes the membership check at any Z, so only the check of Z can raise
    with pytest.raises(RiemannRelationError, match="outside Siegel space"):
        call(z, np.zeros((2, 2)))


class TestEntryValidation:
    """Every function taking X or t checks membership on entry."""

    @pytest.fixture(scope="class")
    def cs2(self):
        return so.complex_structure_from_period_matrix(np.array([[1.5j, 0.3], [0.3, 1j]]))

    @pytest.fixture(scope="class")
    def bad_x(self, cs2):
        x = np.arange(16.0).reshape(4, 4)
        assert so.sp_residual(cs2, x) > 1e-10
        return x

    @pytest.fixture(scope="class")
    def bad_t(self, cs2):
        k = cs2.H10.T @ sy.duality_maps(cs2.g) @ cs2.H01
        return np.linalg.solve(k, np.array([[1.0, 1.0], [-1.0, 1.0]]))

    @pytest.mark.parametrize(
        "call",
        [
            lambda cs, x: so.cartan_project(cs, x),
            lambda cs, x: so.bracket_raw(cs, x, x),
            lambda cs, x: so.bracket_raw(cs, so.random_sp_element(cs, np.random.default_rng(0)), x),
        ],
        ids=["cartan_project", "bracket_raw", "bracket_raw_second"],
    )
    def test_rejects_non_member_x(self, cs2, bad_x, call):
        with pytest.raises(SpMembershipError):
            call(cs2, bad_x)

    @pytest.mark.parametrize(
        "call",
        [
            lambda cs, t: so.embed_p10(cs, t),
            lambda cs, t: so.type11_vanishing_check(cs, so.random_p_tensor(cs, np.random.default_rng(0)), t),
            lambda cs, t: sg.bracket_identified(cs.Z, t, so.random_p_tensor(cs, np.random.default_rng(0))),
            lambda cs, t: sg.bracket_identified(cs.Z, so.random_p_tensor(cs, np.random.default_rng(0)), t),
        ],
        ids=["embed_p10", "type11_vanishing_check", "bracket_identified", "bracket_identified_second"],
    )
    def test_rejects_non_member_t(self, cs2, bad_t, call):
        with pytest.raises(SpMembershipError):
            call(cs2, bad_t)


NAN2 = np.full((2, 2), np.nan)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda cs: so.sp_element(cs, NAN2), SpMembershipError),
        (lambda cs: sg.p_tensor(cs.Z, [[np.nan]]), SpMembershipError),
        (lambda cs: so.extract_p10(cs, NAN2), SpMembershipError),
        (lambda cs: so.complex_structure_from_period_matrix(np.array([[np.nan + 1j]])), SiegelDomainError),
        (lambda cs: so.complex_structure_from_period_matrix(np.array([[np.inf * 1j]])), SiegelDomainError),
        (lambda cs: so.complex_structure_from_matrix(NAN2), SquareInvariantError),
    ],
    ids=[
        "sp_element",
        "p_tensor",
        "extract_p10",
        "period_matrix_nan",
        "period_matrix_inf",
        "complex_structure_from_matrix",
    ],
)
def test_non_finite_input_rejected(cs1, call, error):
    with pytest.raises(error):
        call(cs1)
