from __future__ import annotations

import numpy as np
import pytest

from curvekernel import bergman, periods, torus, weierstrass
from curvekernel.errors import PoleError

LATTICE_FIXTURES = ["square_lattice", "rect_lattice", "generic_lattice"]


def far_from_lattice(lat, rng, min_dist=0.65, count=1):
    """Points in the cell at distance >= min_dist * (shortest vector) from the lattice.

    The stencil truncation error grows like the fifth inverse power of the
    distance to the nearest pole, so "away from poles" is enforced against
    the whole neighbor shell, not just the origin.
    """
    out = []
    r1, r2 = lat._r1, lat._r2
    neighbors = [0, r1, -r1, r2, -r2, r1 + r2, -(r1 + r2), r1 - r2, r2 - r1]
    scale = min(abs(r1), abs(r2))
    while len(out) < count:
        a, b = rng.uniform(-0.5, 0.5, size=2)
        z = a * r1 + b * r2
        if min(abs(z - w) for w in neighbors) >= min_dist * scale:
            out.append(z)
    return out


class TestElementaryPotential:
    @pytest.mark.parametrize("fixture", LATTICE_FIXTURES)
    def test_single_valuedness(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        rng = np.random.default_rng(0)
        gens = [lat.omega1, lat.omega2, lat.omega1 + lat.omega2, lat.omega1 - lat.omega2]
        for _ in range(25):
            z = complex(*rng.uniform(-0.35, 0.35, size=2))
            if abs(z) < 0.05:
                continue
            f0 = torus.elementary_potential(lat, z)
            for lam in gens:
                assert abs(torus.elementary_potential(lat, z + lam) - f0) <= 1e-9

    def test_pole_normalization(self, square_lattice):
        # F(z) + 1/z tends to 0 (the regular part vanishes at the origin)
        for r in (1e-2, 1e-3, 1e-4):
            for phase in (1.0, 1j, (1 + 1j) / np.sqrt(2)):
                z = r * phase
                val = torus.elementary_potential(square_lattice, z) + 1 / z
                assert abs(val) <= 10 * r

    @pytest.mark.parametrize("fixture", LATTICE_FIXTURES)
    def test_harmonicity_by_stencil(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        rng = np.random.default_rng(1)
        h = 1e-3
        for z in far_from_lattice(lat, rng, count=20):
            lap = (
                torus.elementary_potential(lat, z + h)
                + torus.elementary_potential(lat, z - h)
                + torus.elementary_potential(lat, z + 1j * h)
                + torus.elementary_potential(lat, z - 1j * h)
                - 4 * torus.elementary_potential(lat, z)
            ) / h**2
            assert abs(lap) <= 1e-4

    def test_pole_rejected(self, square_lattice):
        with pytest.raises(PoleError):
            torus.elementary_potential(square_lattice, 0.0)


class TestDbarPotential:
    def test_square(self, square_lattice):
        c2, claim = torus.dbar_potential_check(square_lattice)
        assert c2 == pytest.approx(np.pi, abs=1e-12)
        assert claim == pytest.approx(np.pi, abs=1e-12)

    def test_unit_area_skew(self):
        lat = weierstrass.build_lattice(1.0, 1.0 + 1j)
        c2, claim = torus.dbar_potential_check(lat)
        assert lat.area == pytest.approx(1.0)
        assert c2 == pytest.approx(claim, abs=1e-12)
        assert c2 == pytest.approx(np.pi, abs=1e-12)

    def test_scaling(self):
        r = 2.3
        lat = weierstrass.build_lattice(r, r * 1j)
        c2, claim = torus.dbar_potential_check(lat)
        assert c2 == pytest.approx(np.pi / r**2, abs=1e-12)
        assert abs(c2 - claim) <= 1e-12


class TestEtaHat:
    def test_symmetric(self, generic_lattice):
        ev = torus.EtaEvaluator(lattice=generic_lattice)
        rng = np.random.default_rng(2)
        for _ in range(10):
            zp, zq = complex(*rng.uniform(-0.4, 0.4, 2)), complex(*rng.uniform(-0.4, 0.4, 2))
            if abs(zp - zq) < 0.1:
                continue
            a = torus.eta_hat_eval(ev, zp, zq, 1.0, 1.0)
            b = torus.eta_hat_eval(ev, zq, zp, 1.0, 1.0)
            assert a == pytest.approx(b, abs=1e-11 * max(1.0, abs(a)))

    def test_double_pole_coefficient(self, square_lattice):
        ev = torus.EtaEvaluator(lattice=square_lattice)
        lam_u, lam_v = 0.7 - 0.2j, -1.1 + 0.4j
        zq = 0.23 + 0.31j
        d = 1e-4
        val = torus.eta_hat_eval(ev, zq + d, zq, lam_u, lam_v)
        assert d**2 * val == pytest.approx(lam_u * lam_v, abs=1e-6)

    def test_bilinear(self, square_lattice):
        ev = torus.EtaEvaluator(lattice=square_lattice)
        zp, zq = 0.4 + 0.1j, -0.1 - 0.2j
        base = torus.eta_hat_eval(ev, zp, zq, 1.0, 1.0)
        assert torus.eta_hat_eval(ev, zp, zq, 2.0 - 1j, 3.0) == pytest.approx(
            (2.0 - 1j) * 3.0 * base
        )

    def test_diagonal_rejected(self, square_lattice):
        ev = torus.EtaEvaluator(lattice=square_lattice)
        with pytest.raises(PoleError):
            torus.eta_hat_eval(ev, 0.2 + 0.2j, 0.2 + 0.2j, 1.0, 1.0)


class TestAlpha:
    def test_lattice_translation_invariance(self, generic_lattice):
        lat = generic_lattice
        ev = torus.EtaEvaluator(lattice=lat)
        zp, zq = 0.31 + 0.12j, -0.22 + 0.41j
        lam_u, lam_v = 0.8 + 0.1j, -0.5 + 0.9j
        base = torus.alpha_eval(ev, zp, zq, lam_u, lam_v)
        for shift in (lat.omega1, lat.omega2, 2 * lat.omega1 - lat.omega2):
            assert torus.alpha_eval(ev, zp + shift, zq, lam_u, lam_v) == pytest.approx(
                base, abs=1e-9
            )
            assert torus.alpha_eval(ev, zp, zq + shift, lam_u, lam_v) == pytest.approx(
                base, abs=1e-9
            )

    def test_pole_structure(self, square_lattice):
        # near the diagonal the f_v term dominates: alpha ~ -2 lam_v / (zp - zq)
        ev = torus.EtaEvaluator(lattice=square_lattice)
        lam_v = 1.3 - 0.4j
        zq = 0.1 + 0.2j
        d = 1e-5
        val = torus.alpha_eval(ev, zq + d, zq, 0.0, lam_v)
        assert d * val == pytest.approx(-2 * lam_v, abs=1e-4)


class TestTheoremB:
    @pytest.mark.parametrize("fixture", LATTICE_FIXTURES)
    def test_exactness_report(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        ev = torus.EtaEvaluator(lattice=lat)
        rng = np.random.default_rng(42)
        samples = torus.random_samples(lat, 50, rng)
        report = torus.theorem_b_check(ev, samples)
        assert report.max_residual_d <= 1e-8
        assert report.max_residual_dbar <= 1e-10
        assert report.max_residual_fd <= 1e-5
        assert report.passed

    def test_dbar_side_is_constant_identity(self, rect_lattice):
        # on any lattice the dbar side reduces to c2 against pi/area
        ev = torus.EtaEvaluator(lattice=rect_lattice)
        rng = np.random.default_rng(3)
        samples = torus.random_samples(rect_lattice, 5, rng)
        report = torus.theorem_b_check(ev, samples)
        c2, claim = torus.dbar_potential_check(rect_lattice)
        assert abs(c2 - claim) <= 1e-12
        assert report.max_residual_dbar <= 1e-12 * max(1.0, abs(c2))


def reference_residuals(lat, samples):
    """Per-sample theorem-B residuals from scalar calls, one sample at a time.

    The finite differences are taken of ``alpha_eval`` with one tangent slot
    frozen at 0, with step 1e-4 s; every residual is times s^2 (s the cell
    scale).
    """
    ev = torus.EtaEvaluator(lattice=lat)
    ctx = torus.torus_bergman_context(lat)
    s = min(abs(lat._r1), abs(lat._r2))
    h = 1e-4 * s

    def wirtinger(fn, z0):
        fr = (fn(z0 + h) - fn(z0 - h)) / (2 * h)
        fi = (fn(z0 + 1j * h) - fn(z0 - 1j * h)) / (2 * h)
        return (fr - 1j * fi) / 2, (fr + 1j * fi) / 2

    rows = []
    for zp, zq, lam_u, lam_v in samples:
        eta_pq = torus.eta_hat_eval(ev, zp, zq, lam_u, lam_v)
        d_side = 2 * eta_pq - torus.eta_hat_eval(ev, zq, zp, lam_u, lam_v)
        dbar_side = -lat.c2 * lam_u * np.conj(lam_v)
        u, v = torus.torus_tangent(zp, lam_u), torus.torus_tangent(zq, lam_v)
        kernel_side = -2 * np.pi * bergman.bergman_eval(ctx, u, v)
        dz_b, _ = wirtinger(lambda x: torus.alpha_eval(ev, x, zq, 0.0, lam_v), zp)
        dz_a, dzbar_a = wirtinger(lambda y: torus.alpha_eval(ev, zp, y, lam_u, 0.0), zq)
        rows.append(
            [
                abs(d_side - eta_pq) * s**2,
                abs(dbar_side - kernel_side) * s**2,
                abs(lam_u * dz_b - lam_v * dz_a - d_side) * s**2,
                abs(-np.conj(lam_v) * dzbar_a - dbar_side) * s**2,
            ]
        )
    return np.array(rows)


@pytest.fixture(scope="module")
def quarter_lattice():
    # (1, 2i) scaled by 1/4: exercises the cell scale s != 1
    return weierstrass.build_lattice(0.25, 0.5j)


class TestBatchedTheoremB:
    @pytest.mark.parametrize("fixture", LATTICE_FIXTURES + ["quarter_lattice"])
    def test_matches_per_sample_reference(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        samples = torus.random_samples(lat, 20, np.random.default_rng(0))
        report = torus.theorem_b_check(torus.EtaEvaluator(lattice=lat), samples)
        got = np.array(
            [[s.residual_d, s.residual_dbar, s.residual_fd_d, s.residual_fd_dbar] for s in report.samples]
        )
        np.testing.assert_allclose(got, reference_residuals(lat, samples), rtol=0, atol=1e-11)
        np.testing.assert_array_equal([(s.zp, s.zq, s.lam_u, s.lam_v) for s in report.samples], samples)
        assert report.max_residual_d == got[:, 0].max()
        assert report.max_residual_dbar == got[:, 1].max()
        assert report.max_residual_fd == got[:, 2:].max()

    def test_one_wp_and_one_wzeta_call(self, generic_lattice, monkeypatch):
        calls = {"wp": 0, "wzeta": 0}
        for name in calls:

            def counting(*args, _name=name, _fn=getattr(torus, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(torus, name, counting)
        samples = torus.random_samples(generic_lattice, 50, np.random.default_rng(0))
        torus.theorem_b_check(torus.EtaEvaluator(lattice=generic_lattice), samples)
        assert calls == {"wp": 1, "wzeta": 1}

    @pytest.mark.parametrize("fixture", LATTICE_FIXTURES + ["quarter_lattice"])
    def test_random_samples_separated(self, fixture, request):
        lat = request.getfixturevalue(fixture)
        samples = torus.random_samples(lat, 200, np.random.default_rng(5))
        assert samples.shape == (200, 4) and samples.dtype == complex
        zp, zq, lam_u, lam_v = samples.T
        diff = zp - zq
        coords = lat._coord @ np.vstack([diff.real, diff.imag])
        cell = diff - np.rint(coords[0]) * lat._r1 - np.rint(coords[1]) * lat._r2
        dist = np.min(
            [np.abs(cell - m * lat._r1 - k * lat._r2) for m in (-1, 0, 1) for k in (-1, 0, 1)], axis=0
        )
        assert dist.min() >= 0.3 * min(abs(lat._r1), abs(lat._r2))
        assert np.abs(lam_u).min() >= 0.1 and np.abs(lam_v).min() >= 0.1

    def test_one_bergman_eval_call(self, generic_lattice, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return bergman.bergman_eval(*args, **kwargs)

        monkeypatch.setattr(torus, "bergman_eval", counting)
        samples = torus.random_samples(generic_lattice, 50, np.random.default_rng(0))
        torus.theorem_b_check(torus.EtaEvaluator(lattice=generic_lattice), samples)
        assert len(calls) == 1

    def test_sample_on_lattice_translate_of_diagonal_rejected(self, square_lattice):
        zp = 0.1 + 0.2j
        samples = [(0.3 - 0.1j, 0.4j, 1.0, 1.0), (zp, zp + square_lattice.omega1, 0.5, -0.7j)]
        with pytest.raises(PoleError):
            torus.theorem_b_check(torus.EtaEvaluator(lattice=square_lattice), samples)


class TestCrossModelConsistency:
    def test_square_lattice_matches_cubic_curve(self, square_lattice, g1_pd):
        """The unit square torus and y^2 = x^3 - x carry the same kernel.

        The a-normalized differential of the curve has periods (1, i), so
        the Abel chart identifies it with dz on C/(Z + Zi); tangent
        coefficients transport through the differential's value.
        """
        assert abs(g1_pd.Z[0, 0] - 1j) <= 1e-10
        curve_ctx = bergman.context_from_periods(g1_pd)
        torus_ctx = torus.torus_bergman_context(square_lattice)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x_u = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
            x_v = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
            lam_u = complex(*rng.uniform(-1, 1, 2))
            lam_v = complex(*rng.uniform(-1, 1, 2))
            u = periods.tangent(g1_pd.curve, x_u, 1, lam_u)
            v = periods.tangent(g1_pd.curve, x_v, -1, lam_v)
            curve_val = bergman.bergman_eval(curve_ctx, u, v)
            # transported coefficients: lam' = (normalized differential)(u)
            (lam_u_t,) = periods.normalized_differential_eval(g1_pd, u)
            (lam_v_t,) = periods.normalized_differential_eval(g1_pd, v)
            torus_val = bergman.bergman_eval(
                torus_ctx, torus.torus_tangent(0.0, lam_u_t), torus.torus_tangent(0.0, lam_v_t)
            )
            assert abs(curve_val - torus_val) <= 1e-8 * max(1.0, abs(curve_val))
