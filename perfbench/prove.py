"""Check that the benchmark is steady: run it on several seeds and compare
each end-to-end metric's quartile spread with its bound.

    python3 perfbench/prove.py
    python3 perfbench/prove.py --write-baseline

For every workload of ``BENCHMARK.json`` it runs ``run.py --trace 0`` once
on each of seeds 1 to 10 with the ``run_seconds`` of ``BENCHMARK.json`` and
reports, per metric, the median and the spread ``(Q3 - Q1) / median`` from
``statistics.quantiles(n=4)``.  A spread at or above a third of the metric's
bound is flagged; one at or above the bound, or a failed operation, makes
the exit code 1.
``--write-baseline`` records the medians, with the machine and one traced
run per workload, in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline = {"run_seconds": bench["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for workload in names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in SEEDS:
            line = run(workload, seed, bench["run_seconds"], 0)
            if not line["correct"] or line["failed"]:
                print(f"{workload} seed {seed}: {line['failed']} failed operations")
                steady = False
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        entry = baseline["workloads"][workload] = {}
        for name, vals in values.items():
            s = spread(vals)
            flag = "ok" if s < bounds[name] / 3 else "WIDE"
            if s >= bounds[name]:
                steady = False
            print(f"  {workload:<13} {name:<12} median {statistics.median(vals):<10.5g} "
                  f"spread {s:6.2%}  bound {bounds[name]:.0%}  {flag}")
            entry[name] = {"median": statistics.median(vals), "spread": s,
                           "values": vals}
    if args.write_baseline:
        traced = {}
        for workload in names:
            line = run(workload, SEEDS[0], bench["run_seconds"], 1)
            traced[workload] = {n: m["value"] for n, m in line["metrics"].items()}
        results = HERE / "out" / f"results-{names[0]}-seed{SEEDS[0]}-trace1.json"
        baseline["machine"] = json.loads(results.read_text())["machine"]
        baseline["per_layer_seed"] = SEEDS[0]
        baseline["per_layer"] = traced
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
