from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bergman_oracle as oracle
from curvekernel import bergman, cli, periods, torelli, torus

G1_SPEC = '{"type": "hyperelliptic", "f_coeffs": [0, -1, 0, 1]}'
G2_SPEC = '{"type": "hyperelliptic", "f_coeffs": [0, 24, -50, 35, -10, 1]}'
G1_COEFFS = [0, -1, 0, 1]
#: f with roots 0..8 (genus 4): times 2^1006 (6.9e302) every coefficient is finite, while f(x) overflows
#: near the roots; a power of two scales the coefficients exactly, so c f has the roots of f
G4_COEFFS = [0, 40320, -109584, 118124, -67284, 22449, -4536, 546, -36, 1]
#: f with roots 1e34 k, k = 0..8: prod (x - e_l) passes 1e308 on the scale of the roots, where times
#: 2^-997 (7.5e-301) |y| is below 1e7
WIDE_COEFFS = list(np.polynomial.polynomial.polyfromroots(1e34 * np.arange(9)))
#: (s, c) of the curves c prod (x - s k), k = 0..8, that the CI theorem-A step runs
SCALED_0_TO_8 = [(1, 1e303), (1e34, 1e-300), (1e-38, 1e280)]
#: (roots, lead) of curves lead * prod(x - e_l) whose coefficients are finite and reach 1e308: the 2e305 curve on
#: roots -4..4, roots -g..g with the largest coefficient 1.7e308 (genus 2-8), and lead 1e308 on roots within 0.9
LARGEST_COEFFS = (
    [(np.arange(-4.0, 5.0), 2e305)]
    + [(roots, 1.7e308 / np.abs(np.polynomial.polynomial.polyfromroots(roots)).max())
       for roots in (np.arange(-g, g + 1.0) for g in range(2, 9))]
    + [((-0.9, -0.45, 0.0, 0.45, 0.9), 1e308)]
)
#: One call of each of the five commands, for the tests of every report.
REPORT_ARGV = pytest.mark.parametrize(
    "argv",
    [
        ["periods", "--curve", G2_SPEC],
        ["gram", "--curve", G2_SPEC],
        ["bergman-eval", "--curve", G1_SPEC, "--u", "2.0,0.0,1,1.0,0.0", "--v", "0.5,0.7,-1,0.3,-0.2"],
        ["verify", "theorem-a", "--curve", G2_SPEC, "--trials", "10"],
        ["verify", "theorem-b", "--lattice", "1,0,0.3,1.1", "--samples", "5"],
    ],
    ids=["periods", "gram", "bergman-eval", "theorem-a", "theorem-b"],
)


def scaled_spec(coeffs, c):
    """The curve with f multiplied by c: Z, the kernel and theorem A do not change."""
    return json.dumps({"type": "hyperelliptic", "f_coeffs": [c * a for a in coeffs]})


def max_relative_gap(values, reference):
    return np.abs(np.asarray(values) - reference).max() / np.abs(reference).max()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPeriodsCommand:
    def test_square_lattice_curve(self, capsys):
        code, out, _ = run_cli(capsys, "periods", "--curve", G1_SPEC)
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "periods"
        assert report["pass"] is True
        (z_entry,) = report["results"]["Z"][0]
        assert abs(z_entry[0]) <= 1e-10
        assert abs(z_entry[1] - 1.0) <= 1e-10
        assert report["residuals"]["riemann_residual"] <= 1e-10
        assert report["residuals"]["min_eig_imZ"] > 0

    def test_curve_from_file(self, capsys, tmp_path):
        spec = tmp_path / "curve.json"
        spec.write_text(G2_SPEC, encoding="utf-8")
        code, out, _ = run_cli(capsys, "periods", "--curve", str(spec))
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]["Z"]) == 2

    def test_csv_dump(self, capsys):
        code, out, _ = run_cli(capsys, "periods", "--curve", G1_SPEC, "--format", "csv")
        assert code == 0
        row = out.strip().splitlines()[0].split(",")
        assert len(row) == 2
        assert float(row[1]) == pytest.approx(1.0, abs=1e-10)

    def test_malformed_json_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "periods", "--curve", '{"type": "hyperelliptic"')
        assert code == 2
        assert "error" in err

    def test_invariant_violation_is_input_error(self, capsys):
        # double root: the curve constructor rejects it
        code, _, err = run_cli(
            capsys, "periods", "--curve", '{"type": "hyperelliptic", "f_coeffs": [0, 0, -1, 1]}'
        )
        assert code == 2
        assert "RootConfigurationError" in err

    def test_low_quad_order_rejected(self, capsys):
        code, _, err = run_cli(capsys, "periods", "--curve", G1_SPEC, "--quad-order", "4")
        assert code == 2
        assert "quad_order" in err

    @pytest.mark.parametrize(
        "spec",
        [
            '{"type": "hyperelliptic", "f_coeffs": 5}',
            '{"type": "hyperelliptic", "f_coeffs": [0, -1, null, 1]}',
            '{"type": "hyperelliptic", "f_coeffs": [0, -1, 0, true]}',
        ],
        ids=["scalar-coeffs", "null-coeff", "bool-coeff"],
    )
    def test_malformed_coefficients_are_input_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "periods", "--curve", spec)
        assert code == 2
        assert out == ""
        assert "CurveKernelError" in json.loads(err)["error"]

    def test_spec_file_holding_a_list_is_input_error(self, capsys, tmp_path):
        spec = tmp_path / "curve.json"
        spec.write_text("[0, -1, 0, 1]", encoding="utf-8")
        code, out, err = run_cli(capsys, "periods", "--curve", str(spec))
        assert code == 2
        assert out == ""
        assert "CurveKernelError" in json.loads(err)["error"]

    def test_inline_list_is_input_error(self, capsys):
        # inline JSON is any spec opening with "{" or "[", so a list is refused, not opened as a file
        code, out, err = run_cli(capsys, "periods", "--curve", "[0, -1, 0, 1]")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "CurveKernelError: curve spec must be a JSON object, got list"


class TestGramCommand:
    def test_identity_residual(self, capsys):
        # the report prints the certificate of periods; its Gram matrix is 2 Im Z of its own Z
        code, out, _ = run_cli(capsys, "gram", "--curve", G2_SPEC)
        assert code == 0
        report = json.loads(out)
        _, ref, _ = run_cli(capsys, "periods", "--curve", G2_SPEC)
        assert report["residuals"] == json.loads(ref)["residuals"]
        gram, Z = (np.array(report["results"][key]) @ [1, 1j] for key in ("gram", "Z"))
        assert np.linalg.norm(gram - 2 * Z.imag) <= 1e-9


class TestBergmanEvalCommand:
    def test_three_presentations(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bergman-eval",
            "--curve",
            G1_SPEC,
            "--u",
            "2.0,0.0,1,1.0,0.0",
            "--v",
            "0.5,0.7,-1,0.3,-0.2",
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        _, ref, _ = run_cli(capsys, "periods", "--curve", G1_SPEC)
        assert report["residuals"] == json.loads(ref)["residuals"]
        assert set(report["results"]) == {"gram"}
        # the one value agrees with the oracle's three presentations at the same points
        pd = periods.compute_periods(periods.build_curve(G1_COEFFS))
        eu, ev = (periods.normalized_differential_eval(pd, *cli._parse_point(report["inputs"][p])) for p in "uv")
        values = oracle.presentation_values(bergman.context_from_periods(pd), eu, ev)
        assert oracle.presentation_spread({**values, "report": complex(*report["results"]["gram"])}) <= 1e-10

    def test_one_bergman_eval_call(self, capsys, monkeypatch):
        calls = []

        def counting(*args, _fn=bergman.bergman_eval):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(bergman, "bergman_eval", counting)
        code, _, _ = run_cli(
            capsys, "bergman-eval", "--curve", G2_SPEC, "--u", "0.5,0.3,1,1.0,0.0", "--v", "2.5,0.4,-1,0.3,0.2"
        )
        assert code == 0
        assert len(calls) == 1

    def test_branch_point_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "bergman-eval",
            "--curve",
            G1_SPEC,
            "--u",
            "1.0,0.0,1,1.0,0.0",
            "--v",
            "0.5,0.7,1,1.0,0.0",
        )
        assert code == 2
        assert "BranchPointProximityError" in err

    @pytest.mark.parametrize(
        "u, error",
        [
            ("nan,0.0,1,1.0,0.0", "CurveError"),
            ("2.0,0.0,1,nan,0.0", "CurveError"),
            ("2.0,0.0,1.7,1.0,0.0", "CurveKernelError"),
            ("1e250,0.0,1,1.0,0.0", "CurveError"),
        ],
        ids=["nan-x", "nan-lam", "fractional-sheet", "overflowing-x"],
    )
    def test_bad_point_is_input_error(self, capsys, u, error):
        code, out, err = run_cli(
            capsys, "bergman-eval", "--curve", G1_SPEC, "--u", u, "--v", "0.5,0.7,-1,0.3,-0.2"
        )
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"].startswith(error + ":")

    def test_value_scales_with_the_tangents(self, capsys):
        # the kernel is linear in lam_u and antilinear in lam_v: values near 6.7e9 are lam_u conj(lam_v) times the unit one
        values = []
        for lam_u, lam_v in (("1,0", "1,0"), ("1e6,0.0", "1e6,-0.2")):
            code, out, _ = run_cli(
                capsys, "bergman-eval", "--curve", G1_SPEC, "--u", f"2.0,0.0,1,{lam_u}", "--v", f"0.5,0.7,-1,{lam_v}"
            )
            assert code == 0
            values.append(complex(*json.loads(out)["results"]["gram"]))
        assert values[1] == pytest.approx(1e6 * (1e6 + 0.2j) * values[0], rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "coeffs, c, u, v",
        [
            (G1_COEFFS, 1e-20, "2.0,0.0,1,1.0,0.0", "0.5,0.7,-1,0.3,-0.2"),
            (G1_COEFFS, 1e20, "2.0,0.0,1,1.0,0.0", "0.5,0.7,-1,0.3,-0.2"),
            (G4_COEFFS, 2.0**1006, "8.9,1.2,1,1,0", "0.5,0.7,-1,0.3,-0.2"),
            (WIDE_COEFFS, 2.0**-997, "8.9e34,1.2e34,1,1,0", "0.5e34,0.7e34,-1,0.3,-0.2"),
        ],
        ids=["1e-20", "1e+20", "roots-0..8-2^1006", "roots-1e34k-2^-997"],
    )
    def test_f_times_constant_gives_the_same_kernel(self, capsys, coeffs, c, u, v):
        # the branch-point exclusion is a distance in half-widths of the roots, which c does not move
        argv = ["--u", u, "--v", v]
        code, out, _ = run_cli(capsys, "bergman-eval", "--curve", scaled_spec(coeffs, c), *argv)
        assert code == 0
        _, ref, _ = run_cli(capsys, "bergman-eval", "--curve", scaled_spec(coeffs, 1), *argv)
        value, ref_value = (complex(*json.loads(text)["results"]["gram"]) for text in (out, ref))
        assert max_relative_gap(value, ref_value) <= 1e-12

    # the kernel values overflow on purpose; no RuntimeWarning, one JSON error naming it
    def test_non_finite_report_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "bergman-eval", "--curve", G1_SPEC, "--u", "2.0,0.0,1,1e300,0.0", "--v", "0.5,0.7,-1,1e300,0"
        )
        assert code == 2
        assert out == ""
        message = json.loads(err)["error"]
        assert message.startswith("ValueError:")
        assert "overflow" in message


class TestVerifyCommands:
    def test_theorem_a_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "theorem-a",
            "--curve",
            G1_SPEC,
            "--trials",
            "20",
            "--seed",
            "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        # the one residual the verdict reads, and no result that repeats an input
        assert report["residuals"]["max_residual"] <= 1e-8
        assert list(report["residuals"]) == ["max_residual"]
        assert report["results"] == {}

    @pytest.mark.parametrize(
        "coeffs, c",
        [(G1_COEFFS, 1e-20), (G1_COEFFS, 1e20), (G4_COEFFS, 2.0**1006), (WIDE_COEFFS, 2.0**-997)],
        ids=["1e-20", "1e+20", "roots-0..8-2^1006", "roots-1e34k-2^-997"],
    )
    def test_theorem_a_under_f_times_constant(self, capsys, coeffs, c):
        # c f has the roots of f, so the sampler draws the same trials, and both sides match the c = 1 run
        sides = []
        for scaled_coeffs in (coeffs, [c * a for a in coeffs]):
            pd = periods.compute_periods(periods.build_curve(scaled_coeffs))
            rng = np.random.default_rng(3)
            eu, ev = periods.normalized_differential_eval(pd, *cli._random_tangents(pd.curve, rng, (2, 50)))
            re, im = rng.standard_normal((2, 2, 50, pd.g))
            omega, omega_prime = re + 1j * im
            sides.append(torelli.theorem_a_check(bergman.context_from_periods(pd), omega, omega_prime, eu, ev))
        for scaled, ref in zip(sides[1], sides[0]):
            assert max_relative_gap(scaled, ref) <= 1e-12
        code, out, _ = run_cli(capsys, "verify", "theorem-a", "--curve", scaled_spec(coeffs, c), "--trials", "100")
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "roots, lead", LARGEST_COEFFS, ids=["2e305-g4"] + [f"1.7e308-g{g}" for g in range(2, 9)] + ["1e308-g2"]
    )
    def test_largest_finite_coefficients(self, capsys, roots, lead):
        # lead * prod |x - e_l| off a segment overflows unless taken in units: the curve certifies, passes theorem A
        # with no RuntimeWarning, and has the Z of the monic curve on its roots
        monic = np.polynomial.polynomial.polyfromroots(roots)
        spec = json.dumps({"type": "hyperelliptic", "f_coeffs": list(lead * monic)})
        code, out, _ = run_cli(capsys, "periods", "--curve", spec)
        assert code == 0
        Z = np.array(json.loads(out)["results"]["Z"]) @ [1, 1j]
        ref = periods.compute_periods(periods.build_curve(monic)).Z
        assert max_relative_gap(Z, ref) <= 1e-13
        code, out, _ = run_cli(capsys, "verify", "theorem-a", "--curve", spec)
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "coeffs",
        [G1_COEFFS, [0, 24, -50, 35, -10, 1], [1e-20 * a for a in G1_COEFFS]]
        + [list(c * np.polynomial.polynomial.polyfromroots(s * np.arange(9))) for s, c in SCALED_0_TO_8],
        ids=["x^3-x", "g2-quintic", "x^3-x-1e-20", "roots-0..8-1e303", "roots-1e34k-1e-300", "roots-1e-38k-1e280"],
    )
    def test_tangent_draws_are_never_refused(self, coeffs):
        # Im x >= 0.2 r keeps every draw 0.2 r from the roots, outside the exclusion of 1e-6 r
        curve = periods.build_curve(coeffs)
        x, sheet, lam = cli._random_tangents(curve, np.random.default_rng(0), 4096)
        assert np.abs(x[:, None] - curve.roots).min() >= 0.2 * curve.half_width
        assert periods.raw_differential_eval(curve, x, sheet, lam).shape == (4096, curve.g)

    def test_refused_draw_is_input_error(self, capsys, monkeypatch):
        # the draws are never retried: a refusal comes from the evaluator and ends the command
        monkeypatch.setattr(periods, "BRANCH_EXCLUSION", 1e300)
        code, out, err = run_cli(capsys, "verify", "theorem-a", "--curve", G1_SPEC, "--trials", "5")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"].startswith("BranchPointProximityError:")

    def test_theorem_a_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "theorem-a",
            "--curve",
            G1_SPEC,
            "--trials",
            "5",
            "--tol",
            "1e-30",
        )
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_theorem_a_residuals_are_relative(self, capsys, monkeypatch):
        # on the mirror curve both sides are tiny; doubling rhs leaves the residual
        # at half the largest side it compares, and the suite fails
        def rhs_doubled(*args, _fn=torelli.theorem_a_check):
            lhs, rhs = _fn(*args)
            return lhs, 2 * rhs

        monkeypatch.setattr(torelli, "theorem_a_check", rhs_doubled)
        code, out, _ = run_cli(capsys, "verify", "theorem-a", "--curve", scaled_spec(WIDE_COEFFS, 1e-300))
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["residuals"]["max_residual"] == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.parametrize(
        "lattice",
        ["1,0,0,1", "1,0,1e8,1", "1,0,1e9,1", "1,0,1e10,1", "1,0,1e15,1"],
        ids=["square", "skew-1e8", "skew-1e9", "skew-1e10", "skew-1e15"],
    )
    def test_theorem_b_passes(self, capsys, lattice):
        # (1, N + i) is the square lattice in a skewed basis: samples and c1, c2 come
        # from the reduced pair, so its residuals are the square lattice's
        code, out, _ = run_cli(capsys, "verify", "theorem-b", "--lattice", lattice, "--samples", "10")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["residuals"]["max_residual_dbar"] <= 1e-10
        _, out, _ = run_cli(capsys, "verify", "theorem-b", "--lattice", "1,0,0,1", "--samples", "10")
        assert report["residuals"] == json.loads(out)["residuals"]

    def test_theorem_b_generic_lattice(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "theorem-b", "--lattice", "1,0,0.3,1.1", "--samples", "10"
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_theorem_b_scale_free(self, capsys):
        # (0.25, 0.5i) is (1, 2i) scaled by 1/4: the finite-difference residual
        # is dimensionless, so both give the same value and the same verdict
        code, out, _ = run_cli(
            capsys, "verify", "theorem-b", "--lattice", "0.25,0,0,0.5", "--samples", "10"
        )
        assert code == 0
        small = json.loads(out)
        _, out, _ = run_cli(capsys, "verify", "theorem-b", "--lattice", "1,0,0,2", "--samples", "10")
        ref = json.loads(out)
        assert small["pass"] is True
        assert small["residuals"]["max_residual_fd"] == pytest.approx(
            ref["residuals"]["max_residual_fd"], rel=1e-6
        )

    def test_theorem_b_small_copy_passes(self, capsys):
        # (1, 2i) scaled by 3e-4: p and c2 grow as s^-2, so unscaled d and dbar
        # residuals would exceed the tolerance
        code, out, _ = run_cli(
            capsys, "verify", "theorem-b", "--lattice", "0.0003,0,0,0.0006", "--samples", "20"
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["residuals"]["max_residual_dbar"] <= 1e-10

    @pytest.mark.parametrize(
        "lattice", ["1e-9,0,0.3e-9,1.1e-9", "1e-30,0,0.3e-30,1.1e-30"], ids=["1e-9", "1e-30"]
    )
    def test_theorem_b_tiny_copy_passes(self, capsys, lattice):
        # the pole exclusion is measured in lattice scales, so no point of a
        # tiny copy of (1, 0.3 + 1.1i) counts as a pole, and its verdict is the one at scale 1
        code, out, _ = run_cli(capsys, "verify", "theorem-b", "--lattice", lattice, "--samples", "20")
        assert code == 0
        tiny = json.loads(out)
        _, out, _ = run_cli(capsys, "verify", "theorem-b", "--lattice", "1,0,0.3,1.1", "--samples", "20")
        ref = json.loads(out)
        assert tiny["pass"] is ref["pass"] is True
        assert tiny["residuals"]["max_residual_fd"] == pytest.approx(
            ref["residuals"]["max_residual_fd"], rel=1e-5
        )

    @pytest.mark.parametrize(
        "lattice", ["1e52,0,0.3e52,1.1e52", "1e300,0,0,1e300", "1e-300,0,0,1e-300", "1e-52,0,0.3e-52,1.1e-52"]
    )
    def test_theorem_b_lattice_out_of_range_is_input_error(self, capsys, lattice):
        code, out, err = run_cli(capsys, "verify", "theorem-b", "--lattice", lattice, "--samples", "5")
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        message = json.loads(line)["error"]
        assert message.startswith("LatticeError:")
        assert "supported range [1e-50, 1e+50]" in message

    @pytest.mark.parametrize("lattice", ["1,0,0,1e45", "1,0,0,1e49", "1,0,0.5,1e46", "1e-30,0,0,1e19"])
    def test_theorem_b_too_thin_lattice_is_input_error(self, capsys, lattice):
        code, out, err = run_cli(capsys, "verify", "theorem-b", "--lattice", lattice, "--samples", "5")
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"].startswith("LatticeError: lattice too thin")

    def test_theorem_b_uncertified_lattice_is_error(self, capsys):
        # (1, 40i): cancellation keeps the zeta increments 6e-11 off the quasi-periods
        code, out, err = run_cli(capsys, "verify", "theorem-b", "--lattice", "1,0,0,40", "--samples", "5")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"].startswith("TruncationError")

    def test_theorem_a_is_one_array_call(self, capsys, monkeypatch):
        calls = {"theorem_a_check": 0, "qstar_against_kv_check": 0}
        for name in calls:

            def counting(*args, _name=name, _fn=getattr(torelli, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(torelli, name, counting)
        code, _, _ = run_cli(capsys, "verify", "theorem-a", "--curve", G2_SPEC, "--trials", "100")
        assert code == 0
        # one check per block, and no pairing pass beside it that no verdict reads
        assert calls == {"theorem_a_check": 1, "qstar_against_kv_check": 0}

    @pytest.mark.parametrize(
        "lattice",
        # the second basis is so skewed that reducing it subtracts 1e80 times the first generator
        ["1,0,2,0", "1e-40,0,1e40,1e-40"],
        ids=["degenerate", "skew-1e80"],
    )
    def test_bad_lattice_is_input_error(self, capsys, lattice):
        code, _, err = run_cli(capsys, "verify", "theorem-b", "--lattice", lattice)
        assert code == 2
        assert "LatticeError" in err

    def test_nonpositive_tol_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "theorem-a", "--curve", G1_SPEC, "--tol", "-1"
        )
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["verify", "theorem-a", "--curve", G1_SPEC, "--trials", "5"], "tol must be finite and positive"),
            (["verify", "theorem-b", "--lattice", "1,0,0,1", "--samples", "5"], "tol must be finite and positive"),
            # the bergman-eval report has no residual for a tolerance to govern, so argparse refuses the option
            (
                ["bergman-eval", "--curve", G1_SPEC, "--u", "2.0,0.0,1,1.0,0.0", "--v", "0.5,0.7,-1,0.3,-0.2"],
                "unrecognized arguments: --tol",
            ),
        ],
        ids=["theorem-a", "theorem-b", "bergman-eval"],
    )
    def test_non_finite_tol_rejected(self, capsys, argv, refusal, tol):
        try:
            code = cli.main([*argv, "--tol", tol])
        except SystemExit as exit_:
            code = exit_.code
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert refusal in err

    @pytest.mark.parametrize(
        "module, name, argv",
        [
            (torus, "random_samples", ["verify", "theorem-b", "--lattice", "1,0,0,1", "--samples", "100000000"]),
            (periods, "_segment_integrals", ["verify", "theorem-a", "--curve", G1_SPEC, "--quad-order", "100000000"]),
        ],
        ids=["samples", "quad-order"],
    )
    def test_oversized_option_is_input_error(self, capsys, monkeypatch, module, name, argv):
        # an allocation too large for memory is the option's fault, not a failed verification (exit 1);
        # the patched function raises what numpy raises there, without allocating
        def refuse(*args):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr(module, name, refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"].startswith("MemoryError:")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "1" + "0" * 400], ids=["NaN", "Infinity", "int-1e400"])
    def test_non_finite_coefficients_are_input_error(self, capsys, bad):
        spec = f'{{"type": "hyperelliptic", "f_coeffs": [0, -1, {bad}, 1]}}'
        code, _, err = run_cli(capsys, "periods", "--curve", spec)
        assert code == 2
        assert "RootConfigurationError" in err

    def test_non_finite_lattice_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "theorem-b", "--lattice", "1,0,nan,1")
        assert code == 2
        assert "LatticeError" in err

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "theorem-a", "--curve", G1_SPEC, "--trials", "0"
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv, batches",
    [
        (["bergman-eval", "--curve", G2_SPEC, "--u", "0.5,0.3,1,1.0,0.0", "--v", "2.5,0.4,-1,0.3,0.2"], [(2,)]),
        (["verify", "theorem-a", "--curve", G2_SPEC, "--trials", "100"], [(2, 100)]),
        (["verify", "theorem-a", "--curve", G2_SPEC, "--trials", "5000"], [(2, 4096), (2, 904)]),
    ],
    ids=["bergman-eval", "theorem-a-one-block", "theorem-a-two-blocks"],
)
def test_one_basis_evaluation_per_tangent_batch(capsys, monkeypatch, argv, batches):
    # u and v are evaluated together, one call per command or per block of trials; the kernel and every check
    # reuse the values
    calls = []

    def counting(curve, x, sheet=1, lam=1.0, _fn=periods.raw_differential_eval):
        calls.append(np.shape(x))
        return _fn(curve, x, sheet, lam)

    monkeypatch.setattr(periods, "raw_differential_eval", counting)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == batches


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        args = ["verify", "theorem-a", "--curve", G1_SPEC, "--trials", "10", "--seed", "7"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_different_seed_different_residuals(self, capsys):
        base = ["verify", "theorem-a", "--curve", G1_SPEC, "--trials", "10"]
        _, out1, _ = run_cli(capsys, *base, "--seed", "1")
        _, out2, _ = run_cli(capsys, *base, "--seed", "2")
        r1 = json.loads(out1)["residuals"]["max_residual"]
        r2 = json.loads(out2)["residuals"]["max_residual"]
        assert r1 != r2

    def test_theorem_b_deterministic(self, capsys):
        args = ["verify", "theorem-b", "--lattice", "1,0,0,2", "--samples", "5", "--seed", "3"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestReportEncoding:
    @REPORT_ARGV
    def test_report_is_one_compact_line(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        (line,) = out.splitlines()
        assert out == json.dumps(json.loads(line), sort_keys=True, allow_nan=False) + "\n"

    @pytest.mark.parametrize(
        "value",
        [complex(1.5, -2.0), np.array([[1 + 2j, complex(-0.0, 3.0)], [complex(4.0, -0.0), -5.25 + 1e-300j]]), -0.0],
        ids=["scalar", "matrix", "negative-zero"],
    )
    def test_pairs(self, value):
        # the per-entry loop the pairs replace is the reference; repr tells -0.0 from 0.0
        m = np.asarray(value, dtype=complex)
        ref = [[[float(v.real), float(v.imag)] for v in row] for row in m] if m.ndim else [float(m.real), float(m.imag)]
        assert repr(cli._pairs(value)) == repr(ref)


def option_dests(*command) -> set[str]:
    """Dests the parsers of ``command`` define, its subcommand names included, less help and output format."""
    parser, dests = cli.build_parser(), set()
    for name in command:
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests.add(sub.dest)
        parser = sub.choices[name]
    return (dests | {a.dest for a in parser._actions}) - {"help", "command", "format"}


class TestReportInputs:
    @REPORT_ARGV
    def test_inputs_are_the_parsed_options(self, capsys, argv):
        # every option of the command is echoed, defaults included, with the value it parsed to
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        inputs = json.loads(out)["inputs"]
        command = argv[:2] if argv[0] == "verify" else argv[:1]
        assert set(inputs) == option_dests(*command)
        parsed = vars(cli.build_parser().parse_args(argv))
        for name, value in inputs.items():
            assert value == (json.loads(parsed[name]) if name == "curve" else parsed[name]), name


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_state_between_calls(self, capsys):
        calls = [
            ["verify", "theorem-a", "--curve", G2_SPEC, "--trials", "10", "--seed", "3"],
            ["periods", "--curve", G2_SPEC, "--format", "csv"],
            ["verify", "theorem-b", "--lattice", "1,0,0.3,1.1", "--samples", "5"],
            ["periods", "--curve", G2_SPEC],
        ]
        first = {}
        for argv in calls:
            cli.build_parser.cache_clear()
            first[tuple(argv)] = run_cli(capsys, *argv)
        cli.build_parser.cache_clear()
        assert run_cli(capsys, *calls[0]) == first[tuple(calls[0])]
        with pytest.raises(SystemExit):
            cli.main(["periods", "--curve", G2_SPEC, "--format", "xml"])
        capsys.readouterr()
        for argv in calls[1:]:
            assert run_cli(capsys, *argv) == first[tuple(argv)]


def test_module_entry_point():
    # the child process imports the same package as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "curvekernel.cli", "periods", "--curve", G1_SPEC],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["command"] == "periods"
