"""The three workloads: input generation, the timed operation, and its checks.

Every operation draws fresh inputs from ``numpy.random.default_rng([seed,
workload key, stream, index])``, so operation ``i`` of a seed is the same
whatever ran before it. The timed operation calls only public functions of
``curvekernel``; ``record`` keeps the few numbers the checks need, and
``check`` (run after the timed phase) compares them with ``oracles``.

A record with an ``error`` is an operation the program itself reported as
failed (an exception, a non-zero exit code, a failed certificate); ``check``
looks for wrong numbers in the operations the program reported as fine.
"""
from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

CLI_TOL_B = 1e-8  # verify theorem-b --tol default
CLI_TOL_FD = 1e-5  # tol_fd that verify theorem-b passes
TOL_RIEMANN = 1e-8  # documented bound on ||Z - Z^T||
REL_TOL = 1e-9  # relative tolerance against the oracles
KERNEL_REL_TOL = 1e-8  # kernel value, relative to sqrt(k(u,u) k(v,v))
MIN_SEP = 1e-3  # zeta-batch points keep this share of |r1| from the lattice

_STREAM_OP, _STREAM_ROUND, _STREAM_SETUP, _STREAM_WARM = 0, 1, 2, 3


def _rng(seed, key, stream, index=0):
    return np.random.default_rng([seed, key, stream, index])


def _close(value, ref, scale) -> bool:
    return bool(abs(value - ref) <= REL_TOL * max(1.0, scale))


def _draw_shape(rng):
    """Reduced basis (r1, r2) with tau in the fundamental domain, and a sheared input pair.

    Im tau in [0.9, 3], |r1| in [1, 2], random rotation; the input pair is
    M (r1, r2) with M an integer matrix of determinant 1.
    """
    x = rng.uniform(-0.5, 0.5)
    tau = complex(x, rng.uniform(max(0.9, math.sqrt(1 - x * x)), 3.0))
    angle = rng.uniform(0, 2 * math.pi)
    r1 = rng.uniform(1.0, 2.0) * complex(math.cos(angle), math.sin(angle))
    r2 = r1 * tau
    k, l = rng.integers(-2, 3, size=2)
    M = np.array([[1, k], [0, 1]]) @ np.array([[1, 0], [l, 1]])
    return r1, r2, M, M[0, 0] * r1 + M[0, 1] * r2, M[1, 0] * r1 + M[1, 1] * r2


class CurveVerify:
    """One operation: the CLI commands periods, bergman-eval and verify theorem-a on a fresh curve."""

    name = "curve-verify"
    key = 1
    classes = [(g, parity) for g in range(1, 9) for parity in (0, 1)]
    round_len = len(classes)
    min_ops = 512
    tail_pct = 90

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, pkg):
        self.cli = pkg.cli

    def _curve(self, rng, g, parity):
        d = 2 * g + 1 + parity
        roots = np.arange(d) + rng.uniform(-0.3, 0.3, size=d)
        roots -= roots.mean()
        roots *= rng.uniform(1.0, 3.0) / np.abs(roots).max()
        lead = float(rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        coeffs = lead * np.polynomial.polynomial.polyfromroots(roots)
        spec = json.dumps({"type": "hyperelliptic", "f_coeffs": [float(c) for c in coeffs]})
        lo, hi = roots.min() - 1.0, roots.max() + 1.0
        points = []
        for _ in range(2):
            x = complex(rng.uniform(lo, hi), rng.uniform(0.2, 1.2))
            sheet = int(rng.choice([-1, 1]))
            lam = 0j
            while abs(lam) < 0.1:
                lam = complex(*rng.uniform(-1, 1, size=2))
            points.append((x, sheet, lam))
        return {
            "roots": roots, "lead": lead, "spec": spec, "points": points,
            "seed_a": int(rng.integers(2**31)),
        }

    def make_input(self, i: int):
        perm = _rng(self.seed, self.key, _STREAM_ROUND, i // self.round_len).permutation(self.round_len)
        g, parity = self.classes[perm[i % self.round_len]]
        return self._curve(_rng(self.seed, self.key, _STREAM_OP, i), g, parity)

    def warm_input(self):
        return self._curve(_rng(self.seed, self.key, _STREAM_WARM), 2, 0)

    @staticmethod
    def items(inp) -> int:
        return 1

    def run_op(self, inp):
        spec = inp["spec"]
        u, v = (f"{x.real!r},{x.imag!r},{s},{lam.real!r},{lam.imag!r}" for x, s, lam in inp["points"])
        outs = []
        for argv in (
            ["periods", "--curve", spec],
            ["bergman-eval", "--curve", spec, f"--u={u}", f"--v={v}"],
            ["verify", "theorem-a", "--curve", spec, "--trials", "100", "--seed", str(inp["seed_a"])],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad arguments by exiting
                    rc = exc.code
            outs.append((rc, out.getvalue(), err.getvalue()))
        return outs

    @staticmethod
    def record(inp, out):
        rec = {"roots": inp["roots"], "lead": inp["lead"], "points": inp["points"]}
        bad = [(rc, err.strip()) for rc, _, err in out if rc != 0]
        if bad:
            rec["error"] = f"exit codes and errors {bad}"
            return rec
        periods, kernel, _ = (json.loads(text) for _, text, _ in out)
        rec["Z"] = np.array([[complex(*p) for p in row] for row in periods["results"]["Z"]])
        rec["kernel"] = complex(*kernel["results"]["gram"])
        return rec

    @staticmethod
    def check(rec, oracles, perturb: float = 0.0) -> list[str]:
        errors = []
        Z, roots, lead = rec["Z"], rec["roots"], rec["lead"]
        if np.linalg.norm(Z - Z.T) > TOL_RIEMANN:
            errors.append(f"Z not symmetric ({np.linalg.norm(Z - Z.T):.3e})")
        if np.linalg.eigvalsh((Z.imag + Z.imag.T) / 2).min() <= 0:
            errors.append("Im Z not positive definite")
        A, B = oracles.reference_periods(roots, lead)
        Z_ref = np.linalg.solve(A, B) * (1 + perturb)
        dz = np.abs(Z - Z_ref).max()
        if dz > REL_TOL * max(1.0, np.abs(Z_ref).max()):
            errors.append(f"Z off the quad reference by {dz:.3e}")
        imZ_inv = np.linalg.inv(Z_ref.imag)
        nu, nv = (oracles.normalized_values(A, roots, lead, *p) for p in rec["points"])
        k_ref = oracles.kernel_value(imZ_inv, nu, nv)
        scale = math.sqrt(abs(oracles.kernel_value(imZ_inv, nu, nu) * oracles.kernel_value(imZ_inv, nv, nv)))
        if abs(rec["kernel"] - k_ref) > KERNEL_REL_TOL * scale:
            errors.append(f"kernel off the reference by {abs(rec['kernel'] - k_ref):.3e} (scale {scale:.3e})")
        return errors


class TorusVerify:
    """One operation: the call sequence of verify theorem-b with its defaults on a fresh lattice."""

    name = "torus-verify"
    key = 2
    samples = 50
    round_len = 1
    min_ops = 41
    tail_pct = 75
    # Thin lattice, first timed operation of every run; certifies at truncation 128.
    thin = (1.0 + 0j, 3.5j)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, pkg):
        self.weierstrass, self.torus = pkg.weierstrass, pkg.torus

    def _input(self, rng, shape):
        r1, r2, M, w1, w2 = shape
        return {"r1": r1, "r2": r2, "M": M, "w1": w1, "w2": w2, "sample_seed": int(rng.integers(2**31))}

    def make_input(self, i: int):
        rng = _rng(self.seed, self.key, _STREAM_OP, i)
        if i == 0:
            r1, r2 = self.thin
            return self._input(rng, (r1, r2, np.eye(2, dtype=int), r1, r2))
        return self._input(rng, _draw_shape(rng))

    def warm_input(self):
        rng = _rng(self.seed, self.key, _STREAM_WARM)
        return self._input(rng, _draw_shape(rng))

    def items(self, inp) -> int:
        return self.samples

    def run_op(self, inp):
        lat = self.weierstrass.build_lattice(inp["w1"], inp["w2"])
        ev = self.torus.EtaEvaluator(lattice=lat)
        samples = self.torus.random_samples(lat, self.samples, np.random.default_rng(inp["sample_seed"]))
        report = self.torus.theorem_b_check(ev, samples, tol_d=CLI_TOL_B, tol_dbar=CLI_TOL_B, tol_fd=CLI_TOL_FD)
        c2, claim = self.torus.dbar_potential_check(lat)
        return lat, report, c2, claim

    @staticmethod
    def record(inp, out):
        lat, report, c2, claim = out
        rec = {k: inp[k] for k in ("r1", "r2", "M", "w1", "w2")}
        rec.update(eta1=lat.eta1, eta2=lat.eta2, c2=complex(c2))
        if not (report.passed and abs(c2 - claim) <= CLI_TOL_B):
            rec["error"] = (f"theorem B failed: residuals d {report.max_residual_d:.3e}, "
                            f"dbar {report.max_residual_dbar:.3e}, fd {report.max_residual_fd:.3e}")
        return rec

    @staticmethod
    def check(rec, oracles, perturb: float = 0.0) -> list[str]:
        errors = []
        r1, r2, M, w1, w2 = (rec[k] for k in ("r1", "r2", "M", "w1", "w2"))
        c2_ref = math.pi / (np.conj(r1) * r2).imag
        if abs(rec["c2"] - c2_ref) > REL_TOL * c2_ref:
            errors.append(f"c2 off pi/area by {abs(rec['c2'] - c2_ref):.3e}")
        eta1, eta2 = rec["eta1"], rec["eta2"]
        legendre = eta1 * w2 - eta2 * w1 - 2j * math.pi
        if abs(legendre) > REL_TOL * (abs(eta1 * w2) + abs(eta2 * w1)):
            errors.append(f"Legendre residual {abs(legendre):.3e}")
        eta_r1, eta_r2 = oracles.theta_etas(r1, r2)
        refs = (M[0, 0] * eta_r1 + M[0, 1] * eta_r2, M[1, 0] * eta_r1 + M[1, 1] * eta_r2)
        for label, val, ref in (("eta1", eta1, refs[0] * (1 + perturb)), ("eta2", eta2, refs[1])):
            if not _close(val, ref, abs(ref)):
                errors.append(f"{label} off the theta oracle by {abs(val - ref):.3e}")
        return errors


class ZetaBatch:
    """One operation: wzeta and wp on one batch of points, on lattices built in set-up."""

    name = "zeta-batch"
    key = 3
    n_lattices = 4
    sizes = [16, 32, 64, 128, 256, 512, 1024]
    round_len = len(sizes)
    min_ops = 56
    tail_pct = 80
    subsample = 2  # checked points per half (inside the cell, translated)

    def __init__(self, seed: int):
        self.seed = seed
        self.shapes = [_draw_shape(_rng(seed, self.key, _STREAM_SETUP, j)) for j in range(self.n_lattices)]
        self.etas = {}  # theta-oracle quasi-periods per lattice, filled by check

    def setup(self, pkg):
        self.weierstrass = pkg.weierstrass
        self.lattices = [self.weierstrass.build_lattice(w1, w2) for _, _, _, w1, w2 in self.shapes]

    def _batch(self, rng, j, n):
        r1, r2 = self.shapes[j][:2]
        half = n // 2
        # n distinct cell points; the last half are moved by lattice vectors, so no two
        # points of a batch agree modulo the lattice.
        cell = []
        while len(cell) < n:
            a, b = rng.uniform(-0.5, 0.5, size=2)
            z = a * r1 + b * r2
            if min(abs(z - m * r1 - k * r2) for m in (-1, 0, 1) for k in (-1, 0, 1)) >= MIN_SEP * abs(r1):
                cell.append(z)
        cell = np.array(cell)
        shifts = rng.integers(-5, 6, size=(half, 2))
        moved = cell[n - half:] + shifts[:, 0] * r1 + shifts[:, 1] * r2
        z = np.concatenate([cell[:n - half], moved])
        order = rng.permutation(n)
        pick = np.concatenate([rng.choice(n - half, self.subsample, replace=False),
                               n - half + rng.choice(half, self.subsample, replace=False)])
        return {"lattice": j, "z": z[order], "sub": np.argsort(order)[pick]}

    def make_input(self, i: int):
        perm = _rng(self.seed, self.key, _STREAM_ROUND, i // self.round_len).permutation(self.round_len)
        n = self.sizes[perm[i % self.round_len]]
        return self._batch(_rng(self.seed, self.key, _STREAM_OP, i), i % self.n_lattices, n)

    def warm_input(self):
        return self._batch(_rng(self.seed, self.key, _STREAM_WARM), 0, 64)

    @staticmethod
    def items(inp) -> int:
        return len(inp["z"])

    def run_op(self, inp):
        lat = self.lattices[inp["lattice"]]
        return self.weierstrass.wzeta(lat, inp["z"]), self.weierstrass.wp(lat, inp["z"])

    @staticmethod
    def record(inp, out):
        sub = inp["sub"]
        return {"lattice": inp["lattice"], "z": inp["z"][sub], "zeta": out[0][sub], "wp": out[1][sub]}

    def check(self, rec, oracles, perturb: float = 0.0) -> list[str]:
        errors = []
        j = rec["lattice"]
        r1, r2 = self.shapes[j][:2]
        w1, w2 = self.shapes[j][3:]
        lat = self.lattices[j]
        if j not in self.etas:
            self.etas[j] = oracles.theta_etas(r1, r2)
        z, zeta, wp = rec["z"], rec["zeta"], rec["wp"]
        for zi, zv, pv in zip(z, zeta, wp):
            zr, pr = oracles.theta_zeta_wp(r1, r2, self.etas[j][0], zi)
            zr *= 1 + perturb
            if not (_close(zv, zr, abs(zr)) and _close(pv, pr, abs(pr))):
                errors.append(f"zeta/p at {zi:.6g} off the theta oracle by {abs(zv - zr):.3e}/{abs(pv - pr):.3e}")
        for period, eta in ((w1, lat.eta1), (w2, lat.eta2)):
            inc = self.weierstrass.wzeta(lat, z + period) - zeta
            if not all(_close(d, eta, abs(zv) + abs(eta)) for d, zv in zip(inc, zeta)):
                errors.append(f"zeta not quasi-periodic along {period:.6g}")
        even = self.weierstrass.wp(lat, -z)
        if not all(_close(a, b, abs(b)) for a, b in zip(even, wp)):
            errors.append("p is not even")
        return errors


WORKLOADS = {cls.name: cls for cls in (CurveVerify, TorusVerify, ZetaBatch)}
