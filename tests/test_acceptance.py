"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute. Tolerances are pinned here and nowhere else.
"""
from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import random_curve_tangent, random_siegel_point

from curvekernel import bergman, periods, siegel, symplectic, torelli, torus, weierstrass
from test_periods import oracle_periods

G1_COEFFS = [0.0, -1.0, 0.0, 1.0]
G2_COEFFS = [0.0, 24.0, -50.0, 35.0, -10.0, 1.0]


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_period_pipeline():
    start = time.perf_counter()
    curve1 = periods.build_curve(G1_COEFFS)
    pd1 = periods.compute_periods(curve1)
    z_residual = abs(pd1.Z[0, 0] - 1j)
    _, _, z_oracle = oracle_periods(curve1, 1)
    oracle_residual = abs(pd1.Z[0, 0] - z_oracle[0, 0])

    curve2 = periods.build_curve(G2_COEFFS)
    pd2 = periods.compute_periods(curve2)
    pd2_doubled = periods.compute_periods(curve2, quad_order=128)
    doubling_drift = float(np.abs(pd2_doubled.Z - pd2.Z).max())
    elapsed = time.perf_counter() - start

    ok = (
        z_residual <= 1e-10
        and oracle_residual <= 1e-10
        and pd2.riemann_residual <= 1e-8
        and pd2.min_eig_imZ > 0
        and doubling_drift <= 1e-10
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"|Z - i| = {z_residual:.2e}, oracle diff = {oracle_residual:.2e}, "
        f"g2 riemann = {pd2.riemann_residual:.2e}, min eig Im Z = {pd2.min_eig_imZ:.3f}, "
        f"doubling drift = {doubling_drift:.2e}, runtime = {elapsed:.2f}s",
    )


def test_criterion_2_gram_identity(g1_ctx, g2_ctx):
    worst = 0.0
    for ctx in (g1_ctx, g2_ctx):
        worst = max(worst, float(np.linalg.norm(ctx.gram - 2 * ctx.pd.Z.imag)))
    ok = worst <= 1e-9
    _report(2, ok, f"max ||gram - 2 Im Z|| = {worst:.2e} (tol 1e-9)")


def test_criterion_3_kernel_presentations(g1_ctx, g2_ctx):
    rng = np.random.default_rng(2024)
    worst_spread = 0.0
    worst_chain = 0.0
    for ctx in (g1_ctx, g2_ctx):
        curve = ctx.pd.curve
        for _ in range(100):
            u = random_curve_tangent(curve, rng)
            v = random_curve_tangent(curve, rng)
            worst_spread = max(worst_spread, bergman.presentation_spread(bergman.three_presentation_values(ctx, u, v)))
            val = bergman.bergman_eval(ctx, u, v)
            ku = bergman.reproducing_element(ctx, u)
            kv = bergman.reproducing_element(ctx, v)
            scale = max(1.0, abs(val))
            worst_chain = max(
                worst_chain,
                abs(val - bergman.hodge_product(ctx, kv, ku)) / scale,
                abs(val - bergman.evaluate_class(ctx, kv, u)) / scale,
            )
    ok = worst_spread <= 1e-10 and worst_chain <= 1e-10
    _report(
        3,
        ok,
        f"presentation spread = {worst_spread:.2e}, reproducing chain = {worst_chain:.2e} "
        "(tol 1e-10, 100 seeded evals per fixture)",
    )


def test_criterion_4_siegel_algebra_suite():
    start = time.perf_counter()
    worst_recombine = 0.0
    worst_commute = 0.0
    worst_pp_in_k = 0.0
    worst_type11 = 0.0
    worst_two_path = 0.0
    for g in (1, 2, 3):
        rng = np.random.default_rng(500 + g)
        cs = symplectic.complex_structure_from_period_matrix(random_siegel_point(g, rng))
        j = cs.J
        for _ in range(100):
            x = siegel.random_sp_element(cs, rng)
            k_part, p_part = siegel.cartan_project(cs, x)
            worst_recombine = max(worst_recombine, float(np.linalg.norm(k_part + p_part - x)))
            worst_commute = max(
                worst_commute,
                float(np.linalg.norm(k_part @ j - j @ k_part)),
                float(np.linalg.norm(p_part @ j + j @ p_part)),
            )
            xr = siegel.cartan_project(cs, siegel.random_sp_element(cs, rng, real=True))[1]
            yr = siegel.cartan_project(cs, siegel.random_sp_element(cs, rng, real=True))[1]
            br = siegel.bracket_raw(cs, xr, yr)
            worst_pp_in_k = max(worst_pp_in_k, float(np.linalg.norm(br @ j - j @ br)))
            s = siegel.random_p_tensor(cs, rng)
            t = siegel.random_p_tensor(cs, rng)
            worst_type11 = max(worst_type11, siegel.type11_vanishing_check(cs, s, t))
            xs, xt = siegel.embed_p10(cs, s), siegel.embed_p10(cs, t)
            raw = xs @ np.conj(xt) - np.conj(xt) @ xs
            m, *_ = np.linalg.lstsq(cs.H10, raw.T @ cs.H10, rcond=None)
            worst_two_path = max(
                worst_two_path, float(np.linalg.norm(m - siegel.bracket_identified(cs, s, t)))
            )
    elapsed = time.perf_counter() - start
    worst = max(worst_recombine, worst_commute, worst_pp_in_k, worst_type11, worst_two_path)
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(
        4,
        ok,
        f"recombine = {worst_recombine:.2e}, cartan identities = {worst_commute:.2e}, "
        f"[p,p] in k = {worst_pp_in_k:.2e}, type-(1,1) = {worst_type11:.2e}, "
        f"two-path bracket = {worst_two_path:.2e} (tol 1e-10, g in 1..3, 100 trials each), "
        f"runtime = {elapsed:.2f}s",
    )


def test_criterion_5_theorem_a(g1_ctx, g2_ctx):
    start = time.perf_counter()
    worst_identity = 0.0
    worst_pairing = 0.0
    for ctx, seed in ((g1_ctx, 11), (g2_ctx, 12)):
        rng = np.random.default_rng(seed)
        curve = ctx.pd.curve
        g = ctx.g
        for _ in range(100):
            u = random_curve_tangent(curve, rng)
            v = random_curve_tangent(curve, rng)
            omega = rng.standard_normal(g) + 1j * rng.standard_normal(g)
            omega_prime = rng.standard_normal(g) + 1j * rng.standard_normal(g)
            lhs, rhs = torelli.theorem_a_check(ctx, omega, omega_prime, u, v)
            worst_identity = max(worst_identity, abs(lhs - rhs))
            pairing, claim = torelli.qstar_against_kv_check(ctx, omega_prime, v)
            worst_pairing = max(worst_pairing, abs(pairing - claim))
    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-8 and worst_pairing <= 1e-9 and elapsed < 30.0
    _report(
        5,
        ok,
        f"max |lhs - rhs| = {worst_identity:.2e} (tol 1e-8), "
        f"pairing sub-check = {worst_pairing:.2e} (tol 1e-9), "
        f"100 seeded samples per fixture, runtime = {elapsed:.2f}s",
    )


def test_criterion_6_theorem_b(square_lattice, rect_lattice, generic_lattice):
    worst_d = 0.0
    worst_dbar = 0.0
    worst_fd = 0.0
    worst_potential = 0.0
    for i, lat in enumerate((square_lattice, rect_lattice, generic_lattice)):
        ev = torus.EtaEvaluator(lattice=lat)
        rng = np.random.default_rng(900 + i)
        report = torus.theorem_b_check(ev, torus.random_samples(lat, 50, rng))
        worst_d = max(worst_d, report.max_residual_d)
        worst_dbar = max(worst_dbar, report.max_residual_dbar)
        worst_fd = max(worst_fd, report.max_residual_fd)
        # elementary-potential suite: periodicity, pole normalization, c2 = pi/area
        for _ in range(20):
            z = complex(*rng.uniform(-0.35, 0.35, size=2))
            if abs(z) < 0.05:
                continue
            f0 = torus.elementary_potential(lat, z)
            worst_potential = max(
                worst_potential,
                abs(torus.elementary_potential(lat, z + lat.omega1) - f0),
                abs(torus.elementary_potential(lat, z + lat.omega2) - f0),
            )
        c2, claim = torus.dbar_potential_check(lat)
        worst_potential = max(worst_potential, abs(c2 - claim))
        worst_potential = max(worst_potential, abs(c2 - np.pi / lat.area))
        pole_probe = abs(torus.elementary_potential(lat, 1e-4) + 1e4)
        ok_pole = pole_probe < 1e-2
        assert ok_pole
    ok = worst_d <= 1e-8 and worst_dbar <= 1e-10 and worst_fd <= 1e-5 and worst_potential <= 1e-9
    _report(
        6,
        ok,
        f"d-side = {worst_d:.2e} (tol 1e-8), dbar-side = {worst_dbar:.2e} (tol 1e-10), "
        f"finite-difference = {worst_fd:.2e} (tol 1e-5), potential suite = {worst_potential:.2e} "
        "(3 lattices, 50 seeded samples each)",
    )


def test_criterion_7_convention_independence(g2_pd, g2_ctx):
    rng = np.random.default_rng(77)
    curve = g2_pd.curve
    # working-basis change
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 3 * np.eye(2)
    ctx_basis = bergman.context_from_periods(g2_pd, basis=c @ g2_pd.N)
    # homology changes passing the certificate: handle swap and a/b exchange
    perm = np.zeros((4, 4))
    perm[0, 1] = perm[1, 0] = perm[2, 3] = perm[3, 2] = 1.0
    swap = np.zeros((4, 4))
    swap[:2, 2:] = np.eye(2)
    swap[2:, :2] = -np.eye(2)
    ctx_perm = bergman.context_from_periods(periods.transform_cycles(g2_pd, perm))
    ctx_swap = bergman.context_from_periods(periods.transform_cycles(g2_pd, swap))
    worst = 0.0
    for _ in range(40):
        u = random_curve_tangent(curve, rng)
        v = random_curve_tangent(curve, rng)
        ref = bergman.bergman_eval(g2_ctx, u, v)
        scale = max(1.0, abs(ref))
        for ctx in (ctx_basis, ctx_perm, ctx_swap):
            worst = max(worst, abs(bergman.bergman_eval(ctx, u, v) - ref) / scale)
    ok = worst <= 1e-9
    _report(7, ok, f"max kernel drift across conventions = {worst:.2e} (tol 1e-9)")


def test_criterion_8_cross_model_consistency(square_lattice, g1_pd):
    curve_ctx = bergman.context_from_periods(g1_pd)
    torus_ctx = torus.torus_bergman_context(square_lattice)
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        u = random_curve_tangent(g1_pd.curve, rng)
        v = random_curve_tangent(g1_pd.curve, rng)
        curve_val = bergman.bergman_eval(curve_ctx, u, v)
        (lam_u,) = periods.normalized_differential_eval(g1_pd, u)
        (lam_v,) = periods.normalized_differential_eval(g1_pd, v)
        torus_val = bergman.bergman_eval(
            torus_ctx, torus.torus_tangent(0.0, lam_u), torus.torus_tangent(0.0, lam_v)
        )
        worst = max(worst, abs(curve_val - torus_val) / max(1.0, abs(curve_val)))
    ok = worst <= 1e-8
    _report(8, ok, f"max lattice-vs-curve kernel drift = {worst:.2e} (tol 1e-8)")
