"""Self-test of the benchmark: tiny runs of every workload, one at a time.

    python3 curvebench/selftest.py

For each workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints every
per-layer metric with its unit, that attempted and failed counts appear
with no failure, and that shifting a reference value by 1e-6 makes every
operation count as failed (so the checks bite). Exits non-zero on any miss.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Operations per tiny run: one round each (torus-verify: the thin lattice and one more).
TINY_OPS = {"curve-verify": 16, "torus-verify": 2, "zeta-batch": 7}


def run(workload: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str, problems: list) -> None:
    if not condition:
        problems.append(message)


def check_metrics(result: dict, spec: list, label: str, problems: list) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}", problems)
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1, f"{label}: attempted", problems)
    expect(isinstance(result.get("failed"), int), f"{label}: failed count missing", problems)
    metrics = result.get("metrics", {})
    expect(set(metrics) == {m["name"] for m in spec}, f"{label}: metric names {sorted(metrics)}", problems)
    for m in spec:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"], f"{label}: {m['name']} unit {got.get('unit')!r}", problems)
        expect(isinstance(got.get("value"), (int, float)), f"{label}: {m['name']} value", problems)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        ops = str(TINY_OPS[wl])
        plain = run(wl, "--ops", ops, "--trace", "0")
        check_metrics(plain, bench["end_to_end"], f"{wl} --trace 0", problems)
        expect(plain["correct"] and plain["failed"] == 0, f"{wl}: failures on a clean run {plain}", problems)
        traced = run(wl, "--ops", ops, "--trace", "1")
        check_metrics(traced, bench["per_layer"], f"{wl} --trace 1", problems)
        perturbed = run(wl, "--ops", "2", "--perturb-reference")
        expect(perturbed["failed"] == perturbed["attempted"] and not perturbed["correct"],
               f"{wl}: a perturbed reference was not caught {perturbed['attempted']=} {perturbed['failed']=}",
               problems)
        print(f"{wl}: ok" if not problems else f"{wl}: {len(problems)} problem(s) so far", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
