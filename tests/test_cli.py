from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvekernel import bergman, cli, torelli

G1_SPEC = '{"type": "hyperelliptic", "f_coeffs": [0, -1, 0, 1]}'
G2_SPEC = '{"type": "hyperelliptic", "f_coeffs": [0, 24, -50, 35, -10, 1]}'


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


class TestGramCommand:
    def test_identity_residual(self, capsys):
        code, out, _ = run_cli(capsys, "gram", "--curve", G2_SPEC)
        assert code == 0
        report = json.loads(out)
        assert report["residuals"]["gram_vs_2imZ"] <= 1e-9


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
        assert report["residuals"]["presentation_spread"] <= 1e-10
        assert set(report["results"]) == {"gram", "unitary", "normalized"}

    def test_three_bergman_eval_calls(self, capsys, monkeypatch):
        calls = []

        def counting(*args, _fn=bergman.bergman_eval, **kwargs):
            calls.append(args[-1] if len(args) > 3 else kwargs.get("presentation", "gram"))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(bergman, "bergman_eval", counting)
        code, _, _ = run_cli(
            capsys, "bergman-eval", "--curve", G2_SPEC, "--u", "0.5,0.3,1,1.0,0.0", "--v", "2.5,0.4,-1,0.3,0.2"
        )
        assert code == 0
        assert sorted(calls) == ["gram", "normalized", "unitary"]

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
            ("1e200,0.0,1,1.0,0.0", "CurveError"),
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

    def test_pass_is_relative_to_kernel_scale(self, capsys):
        # values near 6.7e9: a spread of about 1e-6 is 16 digits of agreement
        code, out, _ = run_cli(
            capsys, "bergman-eval", "--curve", G1_SPEC, "--u", "2.0,0.0,1,1e6,0.0", "--v", "0.5,0.7,-1,1e6,-0.2"
        )
        assert code == 0
        report = json.loads(out)
        scale = max(abs(complex(*val)) for val in report["results"].values())
        assert report["residuals"]["presentation_spread"] <= 1e-10 * scale

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
        assert report["residuals"]["max_residual"] <= 1e-8
        assert report["residuals"]["max_pairing_residual"] <= 1e-9

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

    def test_theorem_b_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "theorem-b", "--lattice", "1,0,0,1", "--samples", "10"
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["residuals"]["max_residual_dbar"] <= 1e-10

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
        assert calls == {"theorem_a_check": 1, "qstar_against_kv_check": 1}

    def test_bad_lattice_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "theorem-b", "--lattice", "1,0,2,0")
        assert code == 2
        assert "LatticeError" in err

    def test_nonpositive_tol_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "theorem-a", "--curve", G1_SPEC, "--tol", "-1"
        )
        assert code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "theorem-a", "--curve", G1_SPEC, "--trials", "5"],
            ["verify", "theorem-b", "--lattice", "1,0,0,1", "--samples", "5"],
            ["bergman-eval", "--curve", G1_SPEC, "--u", "2.0,0.0,1,1.0,0.0", "--v", "0.5,0.7,-1,0.3,-0.2"],
        ],
        ids=["theorem-a", "theorem-b", "bergman-eval"],
    )
    def test_non_finite_tol_rejected(self, capsys, argv, tol):
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol must be finite and positive" in err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
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
