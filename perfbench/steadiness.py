#!/usr/bin/env python3
"""Steadiness evidence: run every workload several times and compare
each end-to-end metric's spread with its bound.

    python3 perfbench/steadiness.py                  # 10 runs per workload
    python3 perfbench/steadiness.py --runs 5 --workloads lj-churn --seed-base 100
    python3 perfbench/steadiness.py --runs 1 --trace 1   # per-layer metrics

By default it runs the workloads of ``BENCHMARK.json``; ``--workloads``
also accepts ``lj-churn`` and ``hub-gen``, which ``run.py`` keeps but
the benchmark dropped (see README). Each run is a fresh ``run.py``
process with its own seed (``seed-base``,
``seed-base + 1``, ...), exactly as the benchmark is driven. For each
metric the table gives the median, the quartiles
(``statistics.quantiles(values, n=4)``), the inter-quartile range and
the max-min range as shares of the median, and the metric's bound from
``BENCHMARK.json``. A spread is marked ``!`` when the inter-quartile
share exceeds a third of the bound, the margin the benchmark is tuned
to keep. With ``--trace 1`` the runs are traced and the table lists the
per-layer metrics, which have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    return result


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"  {workload} run {i + 1}/{args.runs} (seed {args.seed_base + i}) done",
                  file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.runs} runs, seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
        print(f"{'metric':<36} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            bound = bounds.get(name)
            flag = "!" if bound is not None and iqr > bound / 3 else ""
            if bound is not None and name != "setup_s":
                worst = max(worst, iqr / bound)
            shown = "-" if bound is None else f"{bound:.2f}"
            print(f"{name:<36} {units[name]:<9} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{iqr:>8.2%} {rng:>9.2%} {shown:>6} {flag}")
            print(f"  values: {' '.join(f'{v:.6g}' for v in vals)}")
    if not args.trace:
        print(f"\nlargest iqr/median as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
