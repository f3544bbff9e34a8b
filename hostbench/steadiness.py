"""Run-to-run spread of every end-to-end metric and of its other form.

    python3 hostbench/steadiness.py --runs 10 --seconds 30 [--workload NAME ...]

Runs the benchmark once per seed (seeds 1..runs, one run at a time) and
prints, per workload and metric, the median of the runs and the distance
between the first and third quartile as a share of the median, the
spread DESIGN.md reports and the bounds in BENCHMARK.json are set from.
The other forms (raw wall_s, query_p50_ms and query_p90_ms beside the
normalised metrics, setup_raw_s beside setup_s)
follow each workload's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("verify-sweep", "foam-basis", "queries")


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    print("| workload | metric | median | IQR / median |")
    print("|---|---|---|---|")
    for workload in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        other: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True).stdout.splitlines()
            result = json.loads(out[-1])
            if not result["correct"]:
                print(f"seed {seed}: incorrect outputs", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in out:
                if line.startswith("other forms: "):
                    for name, value in json.loads(line.split(": ", 1)[1]).items():
                        other.setdefault(name, []).append(value)
        for name, vals in [*values.items(), *other.items()]:
            med, iqr = spread(vals)
            print(f"| {workload} | {name} | {med:.4g} | {iqr:.3f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
