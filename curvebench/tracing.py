"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each traced public function at every module
attribute of ``curvekernel`` that refers to it (``weierstrass.tail_sums``
as well as ``lattice_sums.tail_sums``, ``torus.wp`` as well as
``weierstrass.wp``), so calls are seen however they are looked up.
Spans are kept in memory; a function's self time is its span minus the
spans of traced functions it called.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _count_quad_order(tr, args, kwargs, result):
    tr.add("periods.compute_periods", "quad_order", result.quad_order)


def _count_truncation(tr, args, kwargs, result):
    tr.add("weierstrass.build_lattice", "truncation", result.truncation)


def _count_points(name):
    def hook(tr, args, kwargs, result):
        tr.add(name, "points", np.size(args[1] if len(args) > 1 else kwargs["z"]))

    return hook


def _count_terms(tr, args, kwargs, result):
    terms = np.size(args[0]) * np.size(args[1])
    tr.add("lattice_sums.tail_sums", "terms", terms)
    if any(frame[0] == "weierstrass.build_lattice" for frame in tr.stack):
        tr.add("weierstrass.build_lattice", "tail_terms", terms)


#: Traced functions, by defining module, with the counters each one feeds.
TRACED = {
    "cli.main": None,
    "periods.build_curve": None,
    "periods.compute_periods": _count_quad_order,
    "bergman.context_from_periods": None,
    "bergman.bergman_eval": None,
    "bergman.reproducing_element": None,
    "symplectic.duality_maps": None,
    "torelli.theorem_a_check": None,
    "torelli.qstar_against_kv_check": None,
    "weierstrass.build_lattice": _count_truncation,
    "weierstrass.wzeta": _count_points("weierstrass.wzeta"),
    "weierstrass.wp": _count_points("weierstrass.wp"),
    "lattice_sums.tail_sums": _count_terms,
    "torus.random_samples": None,
    "torus.theorem_b_check": None,
    "torus.alpha_eval": None,
}

class Tracer:
    """Span and counter collector; ``stack`` holds [name, child seconds] frames."""

    def __init__(self):
        self.totals = defaultdict(lambda: defaultdict(float))
        self.stack = []
        self.enabled = True

    def add(self, name: str, field: str, value) -> None:
        self.totals[name][field] += value

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += span
                self.add(name, "calls", 1)
                self.add(name, "self_ms", (span - frame[1]) * 1e3)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every ``curvekernel`` module attribute that refers to a traced function."""
        modules = [m for key, m in sys.modules.items() if key.startswith("curvekernel.") and m]
        for qualified, hook in TRACED.items():
            mod_name, attr = qualified.rsplit(".", 1)
            original = getattr(sys.modules["curvekernel." + mod_name], attr)
            wrapper = self._wrap(qualified, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def snapshot(self) -> dict:
        out = {name: dict(fields) for name, fields in self.totals.items()}
        self.totals.clear()
        return out


def per_layer_metrics(spec: list, setup: dict, timed: dict, n_ops: int) -> dict:
    """Per-layer values: one set-up's totals plus the timed phase's totals per operation.

    ``spec`` is the ``per_layer`` list of BENCHMARK.json; a metric ``<module>.<function>.<field>``
    reads the field of that function's span totals.
    """

    def value(name, field):
        return setup.get(name, {}).get(field, 0.0) + timed.get(name, {}).get(field, 0.0) / n_ops

    metrics = {}
    for m in spec:
        metric, unit = m["name"], m["unit"]
        name, field = metric.rsplit(".", 1)
        if field == "mterms_per_s":
            terms = setup.get(name, {}).get("terms", 0.0) + timed.get(name, {}).get("terms", 0.0)
            busy_ms = setup.get(name, {}).get("self_ms", 0.0) + timed.get(name, {}).get("self_ms", 0.0)
            val = terms / busy_ms / 1e3 if busy_ms > 0 else 0.0
        else:
            val = value(name, field)
        metrics[metric] = {"value": val, "unit": unit}
    return metrics
