"""Command-line entry point: curve ingestion, computations, verification suites.

Report schema (JSON, the canonical format): top-level keys ``command``,
``inputs``, ``results``, ``residuals``, ``pass``. Matrices are emitted as
row-major nested arrays of [re, im] pairs. Exit codes: 0 success / all
residuals within tolerance, 1 verification failure, 2 input error or a
report holding NaN or Infinity (nothing is printed to stdout then).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import bergman, periods, torelli, torus, weierstrass
from .errors import CurveKernelError

#: Trials drawn and checked per array call of ``verify theorem-a``; bounds its memory.
_TRIAL_BLOCK = 4096


def _matrix_json(m: np.ndarray):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _complex_json(v: complex):
    return [float(v.real), float(v.imag)]


def _load_curve_spec(spec: str) -> dict:
    text = spec
    if not spec.lstrip().startswith("{"):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise CurveKernelError(f"curve spec must be a JSON object, got {type(data).__name__}")
    if data.get("type") != "hyperelliptic":
        raise CurveKernelError(f"unsupported curve type {data.get('type')!r}")
    if "f_coeffs" not in data:
        raise CurveKernelError("curve spec is missing 'f_coeffs'")
    coeffs = data["f_coeffs"]
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    if not isinstance(coeffs, list) or not all(type(c) in (int, float) for c in coeffs):
        raise CurveKernelError("'f_coeffs' must be a list of numbers")
    return data


def _curve_periods(args) -> tuple[dict, periods.PeriodData]:
    spec = _load_curve_spec(args.curve)
    curve = periods.build_curve(spec["f_coeffs"])
    return spec, periods.compute_periods(curve, quad_order=args.quad_order)


def _parse_lattice(text: str) -> tuple[complex, complex]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise CurveKernelError("lattice spec must be four comma-separated reals: w1re,w1im,w2re,w2im")
    return complex(parts[0], parts[1]), complex(parts[2], parts[3])


def _parse_point(text: str) -> tuple[complex, int, complex]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 5:
        raise CurveKernelError("point spec must be five comma-separated reals: xre,xim,sheet,lre,lim")
    if parts[2] not in (1.0, -1.0):
        raise CurveKernelError(f"sheet must be 1 or -1, got {parts[2]!r}")
    return complex(parts[0], parts[1]), int(parts[2]), complex(parts[3], parts[4])


def _emit(report: dict, fmt: str, matrix_key: str = "Z") -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
    else:
        for row in report["results"][matrix_key]:
            print(",".join(f"{re!r},{im!r}" for re, im in row))


def cmd_periods(args) -> int:
    spec, pd = _curve_periods(args)
    report = {
        "command": "periods",
        "inputs": {"curve": spec, "quad_order": args.quad_order},
        "results": {
            "A": _matrix_json(pd.A),
            "B": _matrix_json(pd.B),
            "Z": _matrix_json(pd.Z),
        },
        "residuals": {
            "riemann_residual": pd.riemann_residual,
            "min_eig_imZ": pd.min_eig_imZ,
        },
        "pass": True,
    }
    _emit(report, args.format)
    return 0


def cmd_gram(args) -> int:
    spec, pd = _curve_periods(args)
    ctx = bergman.context_from_periods(pd)
    identity_residual = float(np.linalg.norm(ctx.gram - 2 * pd.Z.imag))
    report = {
        "command": "gram",
        "inputs": {"curve": spec, "quad_order": args.quad_order},
        "results": {"Z": _matrix_json(pd.Z), "gram": _matrix_json(ctx.gram)},
        "residuals": {
            "riemann_residual": pd.riemann_residual,
            "gram_vs_2imZ": identity_residual,
        },
        "pass": True,
    }
    _emit(report, args.format, matrix_key="gram")
    return 0


def cmd_bergman_eval(args) -> int:
    spec, pd = _curve_periods(args)
    ctx = bergman.context_from_periods(pd)
    xu, su, lu = _parse_point(args.u)
    xv, sv, lv = _parse_point(args.v)
    u = periods.tangent(pd.curve, xu, su, lu)
    v = periods.tangent(pd.curve, xv, sv, lv)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = bergman.three_presentation_values(ctx, u, v)
        residual = bergman.presentation_spread(vals)
    if not np.isfinite([*vals.values(), residual]).all():
        raise ValueError(f"kernel value overflows float64 at |lam_u| = {abs(lu):.3g}, |lam_v| = {abs(lv):.3g}")
    scale = max(1.0, max(abs(val) for val in vals.values()))
    report = {
        "command": "bergman-eval",
        "inputs": {"curve": spec, "u": args.u, "v": args.v},
        "results": {name: _complex_json(val) for name, val in vals.items()},
        "residuals": {"presentation_spread": residual},
        "pass": bool(residual <= args.tol * scale),
    }
    _emit(report, "json")
    return 0 if report["pass"] else 1


def cmd_verify_theorem_a(args) -> int:
    spec, pd = _curve_periods(args)
    ctx = bergman.context_from_periods(pd)
    rng = np.random.default_rng(args.seed)
    max_residual = max_pairing_residual = 0.0
    for start in range(0, args.trials, _TRIAL_BLOCK):
        n = min(_TRIAL_BLOCK, args.trials - start)
        u = _random_tangents(pd.curve, rng, n)
        v = _random_tangents(pd.curve, rng, n)
        omega = rng.standard_normal((n, pd.g)) + 1j * rng.standard_normal((n, pd.g))
        omega_prime = rng.standard_normal((n, pd.g)) + 1j * rng.standard_normal((n, pd.g))
        lhs, rhs = torelli.theorem_a_check(ctx, omega, omega_prime, u, v)
        pairing, claim = torelli.qstar_against_kv_check(ctx, omega_prime, v)
        max_residual = max(max_residual, float(np.abs(lhs - rhs).max()))
        max_pairing_residual = max(max_pairing_residual, float(np.abs(pairing - claim).max()))
    ok = max_residual <= args.tol
    report = {
        "command": "verify",
        "inputs": {
            "suite": "theorem-a",
            "curve": spec,
            "trials": args.trials,
            "tol": args.tol,
            "seed": args.seed,
            "quad_order": args.quad_order,
        },
        "results": {"trials": args.trials},
        "residuals": {
            "max_residual": max_residual,
            "max_pairing_residual": max_pairing_residual,
        },
        "pass": bool(ok),
    }
    _emit(report, "json")
    return 0 if ok else 1


def _random_tangents(curve, rng, n) -> periods.TangentVector:
    """n tangents at points with Im x in [0.2, 1.2] and |lam| >= 0.1, drawn by rejection."""
    lo, hi = curve.roots.min() - 1.0, curve.roots.max() + 1.0
    x, lam, sheet = np.empty(0, dtype=complex), np.empty(0, dtype=complex), np.empty(0, dtype=int)
    while len(x) < n:
        m = n - len(x)
        cx = rng.uniform(lo, hi, m) + 1j * rng.uniform(0.2, 1.2, m)
        clam = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
        csheet = np.where(rng.random(m) < 0.5, 1, -1)
        keep = (np.abs(clam) >= 0.1) & (np.abs(np.sqrt(curve.f(cx))) > periods.BRANCH_EXCLUSION)
        x, lam, sheet = (np.concatenate([a, b[keep]]) for a, b in ((x, cx), (lam, clam), (sheet, csheet)))
    return periods.tangent(curve, x, sheet, lam)


def cmd_verify_theorem_b(args) -> int:
    w1, w2 = _parse_lattice(args.lattice)
    lat = weierstrass.build_lattice(w1, w2)
    ev = torus.EtaEvaluator(lattice=lat)
    rng = np.random.default_rng(args.seed)
    samples = torus.random_samples(lat, args.samples, rng)
    report_b = torus.theorem_b_check(ev, samples, tol_d=args.tol, tol_dbar=args.tol, tol_fd=1e-5)
    c2, claim = torus.dbar_potential_check(lat)
    dbar_potential = abs(c2 - claim) * lat.scale**2
    ok = report_b.passed and dbar_potential <= args.tol
    report = {
        "command": "verify",
        "inputs": {
            "suite": "theorem-b",
            "lattice": args.lattice,
            "samples": args.samples,
            "tol": args.tol,
            "seed": args.seed,
        },
        "results": {"samples": args.samples, "c2": _complex_json(lat.c2)},
        "residuals": {
            "max_residual_d": report_b.max_residual_d,
            "max_residual_dbar": report_b.max_residual_dbar,
            "max_residual_fd": report_b.max_residual_fd,
            "dbar_potential": dbar_potential,
        },
        "pass": bool(ok),
    }
    _emit(report, "json")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use; parsing does not change it."""
    parser = argparse.ArgumentParser(prog="curvekernel")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve_options(p):
        p.add_argument("--curve", required=True, help="curve spec: JSON file path or inline JSON")
        p.add_argument("--quad-order", type=int, default=64, dest="quad_order")

    p = sub.add_parser("periods", help="period matrices of a hyperelliptic curve")
    add_curve_options(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_periods)

    p = sub.add_parser("gram", help="Gram matrix of the Hodge product in the normalized basis")
    add_curve_options(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("bergman-eval", help="kernel value at two tangent vectors")
    add_curve_options(p)
    p.add_argument("--u", required=True, help="xre,xim,sheet,lre,lim")
    p.add_argument("--v", required=True, help="xre,xim,sheet,lre,lim")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_bergman_eval)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="suite", required=True)

    pa = vsub.add_parser("theorem-a", help="two-path bracket/kernel identity on a curve")
    add_curve_options(pa)
    pa.add_argument("--trials", type=int, default=100)
    pa.add_argument("--tol", type=float, default=1e-8)
    pa.add_argument("--seed", type=int, default=0)
    pa.set_defaults(fn=cmd_verify_theorem_a)

    pb = vsub.add_parser("theorem-b", help="exactness of the connecting form on a torus")
    pb.add_argument("--lattice", required=True, help="w1re,w1im,w2re,w2im")
    pb.add_argument("--samples", type=int, default=50)
    pb.add_argument("--tol", type=float, default=1e-8)
    pb.add_argument("--seed", type=int, default=0)
    pb.set_defaults(fn=cmd_verify_theorem_b)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trials", 1) < 1 or getattr(args, "samples", 1) < 1:
        print(json.dumps({"error": "trials/samples must be >= 1"}), file=sys.stderr)
        return 2
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        print(json.dumps({"error": "tol must be finite and positive"}), file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (CurveKernelError, json.JSONDecodeError, OSError, ValueError) as err:
        print(json.dumps({"error": f"{type(err).__name__}: {err}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
