"""Command-line entry point: curve ingestion, computations, verification suites.

Each command returns only what varies, ``(results, residuals, ok)``; ``main``
builds every report from it. Report schema (JSON, the canonical format):
top-level keys ``command``, ``inputs``, ``results``, ``residuals``, ``pass``,
printed as one line of compact JSON with sorted keys. ``inputs`` are the
command's parsed options, defaults included, with the curve spec loaded.
Matrices are row-major nested arrays of [re, im] pairs. ``--format csv``
prints the rows of the command's matrix instead. Exit codes: 0 success / all
residuals within tolerance, 1 verification failure, 2 input error or a report
holding NaN or Infinity (nothing is printed to stdout then).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import bergman, periods, torelli, torus, weierstrass
from .errors import CurveKernelError

#: Trials drawn and checked per array call of ``verify theorem-a``; bounds its memory.
_TRIAL_BLOCK = 4096
#: Parsed names that pick the command or the output, not a number of the report.
_NOT_INPUTS = ("command", "fn", "matrix", "format")


def _pairs(a):
    """[re, im] pairs of a complex scalar or array, nested as its shape, as Python floats."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _load_curve_spec(spec: str) -> dict:
    if not spec.lstrip().startswith(("{", "[")):
        with open(spec, "r", encoding="utf-8") as fh:
            spec = fh.read()
    data = json.loads(spec)
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


def _curve_periods(args) -> periods.PeriodData:
    curve = periods.build_curve(args.curve["f_coeffs"])
    return periods.compute_periods(curve, quad_order=args.quad_order)


def _reals(text: str, n: int, error: str) -> list[float]:
    """The n comma-separated reals of a --lattice, --u or --v value; ``error`` names the layout."""
    parts = [float(p) for p in text.split(",")]
    if len(parts) != n:
        raise CurveKernelError(error)
    return parts


def _parse_point(text: str) -> tuple[complex, int, complex]:
    xre, xim, sheet, lre, lim = _reals(text, 5, "point spec must be five comma-separated reals: xre,xim,sheet,lre,lim")
    if sheet not in (1.0, -1.0):
        raise CurveKernelError(f"sheet must be 1 or -1, got {sheet!r}")
    return complex(xre, xim), int(sheet), complex(lre, lim)


def _certificate(pd: periods.PeriodData) -> dict:
    """The Riemann certificate's two numbers, the residuals of every curve command but ``verify theorem-a``."""
    return {"riemann_residual": pd.riemann_residual, "min_eig_imZ": pd.min_eig_imZ}


def cmd_periods(args) -> tuple[dict, dict, bool]:
    pd = _curve_periods(args)
    return {"A": _pairs(pd.A), "B": _pairs(pd.B), "Z": _pairs(pd.Z)}, _certificate(pd), True


def cmd_gram(args) -> tuple[dict, dict, bool]:
    pd = _curve_periods(args)
    ctx = bergman.context_from_periods(pd)
    return {"Z": _pairs(pd.Z), "gram": _pairs(ctx.gram)}, _certificate(pd), True


def cmd_bergman_eval(args) -> tuple[dict, dict, bool]:
    """The kernel value, under the key ``gram`` of its Gram-inverse contraction; its one check is the certificate."""
    pd = _curve_periods(args)
    ctx = bergman.context_from_periods(pd)
    u, v = _parse_point(args.u), _parse_point(args.v)
    with np.errstate(over="ignore", invalid="ignore"):
        eu, ev = periods.normalized_differential_eval(pd, *zip(u, v))
        value = bergman.bergman_eval(ctx, eu, ev)
    if not np.isfinite(value):
        raise ValueError(f"kernel value overflows float64 at |lam_u| = {abs(u[2]):.3g}, |lam_v| = {abs(v[2]):.3g}")
    return {"gram": _pairs(value)}, _certificate(pd), True


def cmd_verify_theorem_a(args) -> tuple[dict, dict, bool]:
    """Both residuals are relative: each to the largest |side| it compares over all trials."""
    pd = _curve_periods(args)
    ctx = bergman.context_from_periods(pd)
    rng = np.random.default_rng(args.seed)
    worst = np.zeros(4)  # max |lhs - rhs|, max(max |lhs|, max |rhs|), max |pairing - claim|, max |claim|
    for start in range(0, args.trials, _TRIAL_BLOCK):
        n = min(_TRIAL_BLOCK, args.trials - start)
        eu, ev = periods.normalized_differential_eval(pd, *_random_tangents(pd.curve, rng, (2, n)))
        re, im = rng.standard_normal((2, 2, n, pd.g))
        omega, omega_prime = re + 1j * im
        lhs, rhs = torelli.theorem_a_check(ctx, omega, omega_prime, eu, ev)
        pairing, claim = torelli.qstar_against_kv_check(ctx, omega_prime, ev)
        worst = np.maximum(worst, [np.abs(a).max() for a in (lhs - rhs, [lhs, rhs], pairing - claim, claim)])
    residuals = {
        "max_residual": float(worst[0] / worst[1]),
        "max_pairing_residual": float(worst[2] / worst[3]),
    }
    return {"trials": args.trials}, residuals, residuals["max_residual"] <= args.tol


def _random_tangents(curve, rng, size) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, sheet, lam) of tangents, arrays of shape ``size``, drawn in one pass on the curve's length r.

    Re x is uniform on [e_1 - r, e_d + r], Im x on [0.2 r, 1.2 r], |lam| on [0.1, 1], arg lam on [0, 2 pi), the
    sheet on {1, -1}. Every x is at least 0.2 r from every root; ``periods.BRANCH_EXCLUSION`` < 0.2, so none is refused.
    """
    r = curve.half_width
    x = rng.uniform(curve.roots[0] - r, curve.roots[-1] + r, size) + 1j * r * rng.uniform(0.2, 1.2, size)
    lam = rng.uniform(0.1, 1.0, size) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size))
    return x, np.where(rng.random(size) < 0.5, 1, -1), lam


def cmd_verify_theorem_b(args) -> tuple[dict, dict, bool]:
    w = _reals(args.lattice, 4, "lattice spec must be four comma-separated reals: w1re,w1im,w2re,w2im")
    lat = weierstrass.build_lattice(complex(w[0], w[1]), complex(w[2], w[3]))
    ev = torus.EtaEvaluator(lattice=lat)
    rng = np.random.default_rng(args.seed)
    samples = torus.random_samples(lat, args.samples, rng)
    report_b = torus.theorem_b_check(ev, samples, tol_d=args.tol, tol_dbar=args.tol, tol_fd=1e-5)
    results = {"samples": args.samples, "c2": _pairs(lat.c2)}
    residuals = {"max_residual_dbar": report_b.max_residual_dbar, "max_residual_fd": report_b.max_residual_fd}
    return results, residuals, report_b.passed


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
    p.set_defaults(fn=cmd_periods, matrix="Z")

    p = sub.add_parser("gram", help="Gram matrix of the Hodge product in the normalized basis")
    add_curve_options(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_gram, matrix="gram")

    p = sub.add_parser("bergman-eval", help="kernel value at two tangent vectors")
    add_curve_options(p)
    p.add_argument("--u", required=True, help="xre,xim,sheet,lre,lim")
    p.add_argument("--v", required=True, help="xre,xim,sheet,lre,lim")
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
    if not 0 < getattr(args, "tol", 1.0) < np.inf:
        print(json.dumps({"error": "tol must be finite and positive"}), file=sys.stderr)
        return 2
    try:
        if hasattr(args, "curve"):
            args.curve = _load_curve_spec(args.curve)
        results, residuals, ok = args.fn(args)
        if getattr(args, "format", "json") == "csv":
            for row in results[args.matrix]:
                print(",".join(f"{re!r},{im!r}" for re, im in row))
        else:
            report = {
                "command": args.command,
                "inputs": {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS},
                "results": results,
                "residuals": residuals,
                "pass": bool(ok),
            }
            print(json.dumps(report, sort_keys=True, allow_nan=False))
    except (CurveKernelError, json.JSONDecodeError, OSError, ValueError) as err:
        print(json.dumps({"error": f"{type(err).__name__}: {err}"}), file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
