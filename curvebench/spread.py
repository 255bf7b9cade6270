"""Run-to-run spread of the end-to-end metrics, one run at a time.

    python3 curvebench/spread.py --seeds 1-10 [--workloads curve-verify,zeta-batch]

Runs the command of BENCHMARK.json once per workload and seed, from the
root of the checkout, then prints per metric the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), against the metric's bound. The
per-run results are appended to ``curvebench/out/spread.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / "spread.jsonl"
    worst_ok = True
    for wl in args.workloads.split(","):
        values, shares = {}, []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": wl, "seed": seed, "wall_s": wall, **result}) + "\n")
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: wall {wall:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
        print(f"{wl}: failed shares {sorted(set(shares))}")
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            mark = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            worst_ok &= spread <= bound
            print(f"  {name:<16} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.2%}  bound {bound}  {mark}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
