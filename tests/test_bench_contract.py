"""What ``curvebench/`` needs of the package: the names it traces and the call sequences it times.

The benchmark is read here, never edited: the traced names come from parsing
``curvebench/tracing.py``, and the workloads are loaded from
``curvebench/workloads.py`` without writing bytecode next to them.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import curvekernel
from curvekernel import torus

BENCH = Path(__file__).resolve().parents[1] / "curvebench"


def traced_names() -> list[str]:
    """Keys of the ``TRACED`` table, as ``<module>.<function>``."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("curvebench/tracing.py defines no TRACED table")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("curvebench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    names = traced_names()
    assert names
    missing = []
    for name in names:
        mod_name, attr = name.rsplit(".", 1)
        if not callable(getattr(importlib.import_module("curvekernel." + mod_name), attr, None)):
            missing.append(name)
    assert missing == []


def test_counted_fields(g1_pd, square_lattice):
    # the tracer's counters read these attributes off what compute_periods and build_lattice return
    assert g1_pd.quad_order == 64
    assert isinstance(square_lattice.truncation, int)


def test_torus_verify_sequence(workloads, monkeypatch):
    calls = []

    def recording(name):
        fn = getattr(torus, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)

        monkeypatch.setattr(torus, name, wrapper)

    for name in ("EtaEvaluator", "theorem_b_check", "dbar_potential_check"):
        recording(name)
    wl = workloads.TorusVerify(seed=1)
    wl.setup(curvekernel)
    inp = {"r1": 1.0 + 0j, "r2": 1j, "M": np.eye(2, dtype=int), "w1": 1.0 + 0j, "w2": 1j, "sample_seed": 7}
    out = wl.run_op(inp)
    lat = out[0]
    assert [name for name, _, _ in calls] == ["EtaEvaluator", "theorem_b_check", "dbar_potential_check"]
    (_, eta_args, eta_kwargs), (_, check_args, check_kwargs), (_, dbar_args, _) = calls
    assert eta_args == () and eta_kwargs["lattice"] is lat
    assert check_args[0].lattice is lat
    assert set(check_kwargs) == {"tol_d", "tol_dbar", "tol_fd"}
    assert dbar_args == (lat,)
    assert "error" not in wl.record(inp, out)


def test_curve_verify_sequence(workloads):
    wl = workloads.CurveVerify(seed=1)
    wl.setup(curvekernel)
    inp = wl.warm_input()
    out = wl.run_op(inp)
    assert [rc for rc, _, _ in out] == [0, 0, 0]
    assert "error" not in wl.record(inp, out)
