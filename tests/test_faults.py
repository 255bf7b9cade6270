"""The fault tables: which check flags which error, on curves and on tori.

Each fault is injected by monkeypatching a private function of ``periods``,
or by an option, into the curve of genus g with roots 0, 1, ..., 2g; then
each curve command runs on it in process. A cell's verdict says how the
command flags the fault:

* ``REFUSED``: exit 2 with ``RiemannRelationError``. The Riemann certificate
  of ``compute_periods`` refuses the periods before any command forms a
  residual of its own.
* ``FAILED``: exit 1 with ``pass`` false, from a residual of the command.
* ``MISSED``: exit 0 with ``pass`` true.

Every command gives the same verdict on a faulty curve, since the
certificate is the one check that sees the periods. A common scale error
leaves Z where it is, a 1 x 1 Z is always symmetric, and a random Siegel
point passes every check built from Z alone. Sheet flips are left out:
flipping y at every point is the hyperelliptic involution, under which
every output is covariant, and flipping it at one point labels another
valid point of the curve.

The README's "What each residual catches" table holds these verdicts, one
row per verdict, and ``test_readme_table_is_the_verdicts`` checks it.

The torus rows run ``verify theorem-b`` on two lattices with one fault
injected into the lattice constants or into the zeta/p evaluators, and pin
which printed residual exceeds its tolerance. The README's "What each
theorem-B residual catches" table holds them, and
``test_readme_b_table_is_the_flags`` checks it.

The theorem-A rows run ``verify theorem-a`` on the genus-2 curve with roots
0..4 with one code fault injected into a function that ``torelli`` calls:
the Q* pairing, the reproducing element, the period vectors, the kernel or
the cup. ``torelli`` imports the first four by name, so each is patched
where ``torelli`` looks it up. The README's "What each theorem-A residual
catches" table holds the reading of each printed residual that exceeds
``--tol``, and ``test_a_fault_table`` checks each fault's column of it.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import random_siegel_point

from curvekernel import cli, periods, torelli, torus, weierstrass

REFUSED, FAILED, MISSED = "refused", "failed", "missed"
#: The README's "flags a fault by" column, for each verdict.
VERDICT_TEXT = {REFUSED: "exit 2", FAILED: "`pass` false", MISSED: "exit 0, `pass` true"}
GENERA = (1, 2, 3)
#: The curve of ``test_underresolved_quadrature_fails_certificate``: on roots 0..4, 8 nodes give Z to 8e-14.
GAP_CURVE = (0.0, 1.0, 1.18, 3.0, 4.0)


def _roots(g):
    return tuple(float(k) for k in range(2 * g + 1))


def _scaled_segments(monkeypatch, factor, segments):
    """``_segment_integrals`` with the rows of ``segments`` multiplied by ``factor``."""

    def faulty(curve, order, _fn=periods._segment_integrals):
        J = _fn(curve, order)
        J[segments] *= factor
        return J

    monkeypatch.setattr(periods, "_segment_integrals", faulty)


def scale_all(monkeypatch, g):
    _scaled_segments(monkeypatch, 1 + 1e-3, slice(None))
    return _roots(g), []


def scale_one(monkeypatch, g):
    _scaled_segments(monkeypatch, 1 + 1e-6, 0)
    return _roots(g), []


def negate_phase(monkeypatch, g):
    _scaled_segments(monkeypatch, -1, 0)
    return _roots(g), []


def random_z(monkeypatch, g):
    """A kept, B = A Z for a random Siegel point Z that has nothing to do with the curve."""
    Z = random_siegel_point(g, np.random.default_rng(g))

    def faulty(curve, A, B, quad_order, _fn=periods._period_data):
        return _fn(curve, A, A @ Z, quad_order)

    monkeypatch.setattr(periods, "_period_data", faulty)
    return _roots(g), []


def order_8(monkeypatch, g):
    return GAP_CURVE, ["--quad-order", "8"]


#: fault id -> (README column title, injection, verdict per genus); the injection returns the roots and extra options.
FAULTS = {
    "scale-all": ("all segments × (1 + 1e-3)", scale_all, {1: MISSED, 2: MISSED, 3: MISSED}),
    "scale-one": ("one segment × (1 + 1e-6)", scale_one, {1: MISSED, 2: REFUSED, 3: REFUSED}),
    "negate-phase": ("one branch phase negated", negate_phase, {1: REFUSED, 2: REFUSED, 3: REFUSED}),
    "random-z": ("Z a random Siegel point", random_z, {1: MISSED, 2: MISSED, 3: MISSED}),
    "order-8": ("`quad_order` 8, roots (0, 1, 1.18, 3, 4)", order_8, {2: REFUSED}),
}
COMMANDS = {
    "periods": ["periods"],
    "gram": ["gram"],
    "bergman-eval": ["bergman-eval", "--u", "0.5,0.7,1,1,0", "--v", "2.5,0.4,-1,0.3,0.2"],
    "theorem-a": ["verify", "theorem-a", "--trials", "20"],
}


def verdict(code, out, err) -> str:
    if code == 2 and json.loads(err)["error"].startswith("RiemannRelationError:"):
        return REFUSED
    if code == 1 and json.loads(out)["pass"] is False:
        return FAILED
    if code == 0 and json.loads(out)["pass"] is True:
        return MISSED
    return f"exit {code}: {out or err}"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "fault, g", [(fault, g) for fault, (_, _, verdicts) in FAULTS.items() for g in verdicts]
)
def test_fault_table(capsys, monkeypatch, fault, g, command):
    _, inject, verdicts = FAULTS[fault]
    roots, options = inject(monkeypatch, g)
    spec = json.dumps({"type": "hyperelliptic", "f_coeffs": list(np.polynomial.polynomial.polyfromroots(roots))})
    argv = [*COMMANDS[command], "--curve", spec, *options]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert verdict(code, captured.out, captured.err) == verdicts[g]
    if command == "periods" and verdicts[g] == MISSED:
        # the fault reached the periods: A or Z is not what the curve without it reports
        monkeypatch.undo()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out != captured.out


def genera(verdicts, wanted) -> str:
    listed = [str(g) for g in GENERA if verdicts.get(g) == wanted]
    return "genus " + ", ".join(listed) if listed else "—"


def readme_table(title) -> list[list[str]]:
    """The cells of the first table under the README heading ``title``, header row first."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    section = lines[lines.index(title) :]
    start = next(i for i, line in enumerate(section) if line.startswith("|"))
    header, _, *rows = itertools.takewhile(lambda line: line.startswith("|"), section[start:])
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in (header, *rows)]


def test_readme_table_is_the_verdicts():
    # the README names the checks in each row; its other columns are the verdicts of FAULTS, one row per verdict
    cells = readme_table("### What each residual catches")
    assert cells[0][1:] == ["flags a fault by", *(title for title, _, _ in FAULTS.values())]
    by = {text: name for name, text in VERDICT_TEXT.items()}
    assert sorted(by[row[1]] for row in cells[1:]) == sorted(VERDICT_TEXT)
    for row in cells[1:]:
        assert row[2:] == [genera(verdicts, by[row[1]]) for _, _, verdicts in FAULTS.values()], row[0]


#: --lattice value -> README name; both are their own reduced pair, so eta2 is the reduced pair's.
LATTICES = {"1,0,0.3,1.1": "(1, 0.3+1.1i)", "1,0,0,3.5": "(1, 3.5i)"}
#: The residuals ``verify theorem-b`` compares with a tolerance: ``--tol`` (default 1e-8) and the fixed ``tol_fd``.
B_TOLERANCES = {"max_residual_dbar": 1e-8, "max_residual_fd": 1e-5}


def _faulty_lattice(monkeypatch, fault):
    """``build_lattice`` with ``fault`` applied to the certified lattice it returns."""
    monkeypatch.setattr(weierstrass, "build_lattice", lambda w1, w2, _fn=weierstrass.build_lattice: fault(_fn(w1, w2)))


def _scaled_evaluator(monkeypatch, name, factor):
    """The ``torus`` module's ``wp`` or ``wzeta`` with every value multiplied by ``factor``."""
    monkeypatch.setattr(torus, name, lambda lat, z, _fn=getattr(torus, name): _fn(lat, z) * factor)


def scale_c2(monkeypatch):
    _faulty_lattice(monkeypatch, lambda lat: dataclasses.replace(lat, c2=lat.c2 * (1 + 1e-6)))


def scale_wp(monkeypatch):
    _scaled_evaluator(monkeypatch, "wp", 1 + 1e-4)


def scale_zeta(monkeypatch):
    _scaled_evaluator(monkeypatch, "wzeta", 1 + 1e-4)


def scale_eta2(monkeypatch):
    """eta2 off after the certificate, and c1, c2 solved from it as ``build_lattice`` solves them."""

    def fault(lat):
        eta_r1, eta_r2 = lat._eta_r[0], lat._eta_r[1] * (1 + 1e-9)
        r1, r2 = lat._r1, lat._r2
        c1, c2 = np.linalg.solve(np.array([[r1, np.conj(r1)], [r2, np.conj(r2)]]), np.array([eta_r1, eta_r2]))
        return dataclasses.replace(lat, eta2=eta_r2, _eta_r=(eta_r1, eta_r2), c1=complex(c1), c2=complex(c2))

    _faulty_lattice(monkeypatch, fault)


#: fault id -> (README column title, injection, residuals that exceed their tolerance on every lattice)
B_FAULTS = {
    "c2": ("c2 × (1 + 1e-6)", scale_c2, {"max_residual_dbar"}),
    "wp": ("℘ × (1 + 1e-4)", scale_wp, {"max_residual_fd"}),
    "zeta": ("ζ × (1 + 1e-4)", scale_zeta, {"max_residual_fd"}),
    "eta2": ("η2 × (1 + 1e-9), c1 and c2 re-solved", scale_eta2, set()),
}


@pytest.mark.parametrize("lattice", LATTICES)
@pytest.mark.parametrize("fault", B_FAULTS)
def test_b_fault_table(capsys, monkeypatch, fault, lattice):
    _, inject, flagged = B_FAULTS[fault]
    inject(monkeypatch)
    argv = ["verify", "theorem-b", "--lattice", lattice]
    code = cli.main(argv)
    out = capsys.readouterr().out
    report = json.loads(out)
    assert {name for name, tol in B_TOLERANCES.items() if report["residuals"][name] > tol} == flagged
    assert (code, report["pass"]) == ((1, False) if flagged else (0, True))
    # the fault reached the report: it is not what the lattice without it reports
    monkeypatch.undo()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out != out


def test_readme_b_table_is_the_flags():
    # one row per residual that B_TOLERANCES holds to a tolerance, then one for the faults nothing flags
    cells = readme_table("### What each theorem-B residual catches")
    assert cells[0][2:] == [title for title, _, _ in B_FAULTS.values()]
    assert [row[0] for row in cells[1:]] == [f"`{name}`" for name in B_TOLERANCES] + ["nothing"]
    for row in cells[1:]:
        name = row[0].strip("`")
        hits = [name in flags if name in B_TOLERANCES else not flags for _, _, flags in B_FAULTS.values()]
        assert row[2:] == [", ".join(LATTICES.values()) if hit else "—" for hit in hits], row[0]


#: The theorem-A curve: roots 0..4, x(x-1)(x-2)(x-3)(x-4); default trials (100), seed and ``--tol`` (1e-8).
A_SPEC = json.dumps({"type": "hyperelliptic", "f_coeffs": list(np.polynomial.polynomial.polyfromroots(_roots(2)))})
A_TOL = 1e-8


def _scaled_b_half(pv):
    pv = pv.copy()
    pv[..., pv.shape[-1] // 2 :] *= 1 + 1e-6
    return pv


#: fault id -> (README column title, function of ``torelli``, the fault on its value)
A_FAULTS = {
    "qstar-negated": ("Q* × (−1)", "qstar_pairing", np.negative),
    "qstar-scaled": ("Q* × (1 + 1e-6)", "qstar_pairing", lambda v: v * (1 + 1e-6)),
    "ku-unconjugated": ("k_u without conj", "reproducing_element", np.conj),
    "ku-scaled": ("k_u × (1 + 1e-6)", "reproducing_element", lambda v: v * (1 + 1e-6)),
    "pv-scaled": ("period vectors × (1 + 1e-6)", "class_period_vector", lambda v: v * (1 + 1e-6)),
    "b-half-scaled": ("b-half × (1 + 1e-6)", "class_period_vector", _scaled_b_half),
    "kernel-scaled": ("kernel × (1 + 1e-6)", "bergman_eval", lambda v: v * (1 + 1e-6)),
    "kernel-conjugated": ("kernel conjugated", "bergman_eval", np.conj),
    "cup-scaled": ("cup × (1 + 1e-6)", "schiffer_cup", lambda v: v * (1 + 1e-6)),
}
#: The residuals ``verify theorem-a`` prints, in the README's row order.
A_RESIDUALS = ("max_residual",)


def a_cell(report, name) -> str:
    """A README cell: the residual's reading to two digits when it exceeds ``--tol``, else a dash."""
    value = report["residuals"][name]
    return f"{value:.2g}".replace("e-0", "e-") if value > A_TOL else "—"


@pytest.mark.parametrize("fault", A_FAULTS)
def test_a_fault_table(capsys, monkeypatch, fault):
    title, target, wrong = A_FAULTS[fault]
    monkeypatch.setattr(torelli, target, lambda *args, _fn=getattr(torelli, target): wrong(_fn(*args)))
    code = cli.main(["verify", "theorem-a", "--curve", A_SPEC])
    report = json.loads(capsys.readouterr().out)
    assert tuple(report["residuals"]) == A_RESIDUALS
    # every fault here moves max_residual, the residual the verdict reads, above --tol
    assert report["residuals"]["max_residual"] > A_TOL
    assert (code, report["pass"]) == (1, False)
    # the fault's README column: each residual's reading, and no mark in the row of faults nothing flags
    cells = readme_table("### What each theorem-A residual catches")
    column = [row[cells[0].index(title)] for row in cells[1:]]
    assert column == [a_cell(report, name) for name in A_RESIDUALS] + ["—"]


def test_a_residuals_without_a_fault(capsys):
    assert cli.main(["verify", "theorem-a", "--curve", A_SPEC]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(report["residuals"][name] <= A_TOL for name in A_RESIDUALS)


def test_readme_a_table_rows():
    # one column per fault, one row per printed residual, then one for the faults nothing flags
    cells = readme_table("### What each theorem-A residual catches")
    assert cells[0][2:] == [title for title, _, _ in A_FAULTS.values()]
    assert [row[0] for row in cells[1:]] == [f"`{name}`" for name in A_RESIDUALS] + ["nothing"]
