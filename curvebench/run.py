"""Benchmark of curvekernel: one workload per run, in one process.

    python3 curvebench/run.py --workload curve-verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and is not installed. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Per-operation latencies and the raw span totals go to ``curvebench/out/``.
See README.md in this directory for the workloads, checks and figures.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(SRC)]

from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7
#: Metric names and units, end-to-end and per-layer, as BENCHMARK.json defines them.
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: Relative shift of one reference value per check under --perturb-reference.
PERTURBATION = 1e-6


def import_package():
    """Import curvekernel afresh from ``src/``; numpy, its dependency, stays loaded."""
    for name in [m for m in sys.modules if m == "curvekernel" or m.startswith("curvekernel.")]:
        del sys.modules[name]
    pkg = importlib.import_module("curvekernel")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"curvekernel imported from {pkg.__file__}, not from {SRC}")
    cli = importlib.import_module("curvekernel.cli")
    return SimpleNamespace(cli=cli, weierstrass=pkg.weierstrass, torus=pkg.torus)


def nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool, fixed_ops: int | None, perturb: bool) -> dict:
    wl = WORKLOADS[workload](seed)

    # Set-up: a fresh import of the package plus the workload's reusable state. The
    # machine's speed drifts over seconds, so the repetitions are spread over the run
    # (between operations, outside the timed phase) and the median is reported.
    setup_times = []

    def set_up():
        start = perf_counter()
        pkg = import_package()
        wl.setup(pkg)
        setup_times.append(perf_counter() - start)
        return pkg

    pkg = set_up()
    reps_left = 0 if trace or fixed_ops is not None else SETUP_REPS - 1
    if fixed_ops is not None and not trace:
        for _ in range(SETUP_REPS - 1):
            set_up()

    tracer = Tracer() if trace else None
    setup_spans = timed_spans = {}
    if tracer:
        tracer.install()
        wl.setup(pkg)
        setup_spans = tracer.snapshot()
        tracer.enabled = False

    wl.run_op(wl.warm_input())

    latencies, records, items = [], [], []
    timed = 0.0
    if tracer:
        tracer.enabled = True
    while True:
        done = len(latencies)
        if fixed_ops is not None:
            if done >= fixed_ops:
                break
        elif timed >= seconds and done >= wl.min_ops and done % wl.round_len == 0:
            break
        if reps_left and timed >= seconds * (SETUP_REPS - reps_left) / SETUP_REPS:
            set_up()
            reps_left -= 1
        inp = wl.make_input(done)
        start = perf_counter()
        try:
            out = wl.run_op(inp)
        except Exception:  # the operation failed; count it and keep measuring the others
            out, error = None, traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        timed += elapsed
        latencies.append(elapsed)
        items.append(wl.items(inp))
        records.append({"error": error} if out is None else wl.record(inp, out))
    for _ in range(reps_left):
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        timed_spans = tracer.snapshot()
        tracer.enabled = False

    import oracles  # scipy and mpmath load only after the measured phases

    wrong = []
    for i, rec in enumerate(records):
        if "error" not in rec and (errors := wl.check(rec, oracles, PERTURBATION if perturb else 0.0)):
            wrong.append((i, errors))
    failures = [(i, [rec["error"]]) for i, rec in enumerate(records) if "error" in rec] + wrong
    for i, errors in failures[:5]:
        print(f"{workload} op {i} failed: {'; '.join(errors)}", file=sys.stderr)

    n = len(latencies)
    failed_ops = {i for i, _ in failures}
    done_items = sum(k for i, k in enumerate(items) if i not in failed_ops)
    if trace:
        metrics = per_layer_metrics(BENCH["per_layer"], setup_spans, timed_spans, n)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": done_items / timed,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": nearest_rank(sorted(latencies), wl.tail_pct) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCH["end_to_end"]}

    OUT.mkdir(exist_ok=True)
    raw = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tail_pct": wl.tail_pct, "ops_beyond_tail": n - math.ceil(wl.tail_pct / 100 * n),
        "setup_s": setup_times, "timed_s": timed, "latencies_s": latencies, "items": items,
        "failures": failures, "setup_spans": setup_spans, "timed_spans": timed_spans,
        "metrics": metrics,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(raw, indent=1))
    # correct: no operation that the program reported as fine returned a wrong number
    return {"correct": not wrong, "attempted": n, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many timed operations instead of a timed run (self-test)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="shift one reference value by 1e-6 so that its check must fail (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "curvekernel" / "__init__.py").is_file():
        print(f"no curvekernel sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.ops, args.perturb_reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
