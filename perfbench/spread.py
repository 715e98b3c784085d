"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workloads table3 serve --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median over the runs
and the quartile spread (third minus first quartile, as a share of the
median) next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import benchstats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            walls.append(time.perf_counter() - started)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(walls)} runs, wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        for name, series in values.items():
            spread = benchstats.quartile_spread(series) if len(series) > 1 else 0.0
            bound = bounds.get(name)
            note = f"bound {bound}  spread/bound {spread / bound:.2f}" if bound else ""
            print(f"  {name:30s} median {statistics.median(series):12.6g}  spread {spread:.4f}  {note}")
            print("      " + " ".join(f"{v:.5g}" for v in series))
    return status


if __name__ == "__main__":
    sys.exit(main())
