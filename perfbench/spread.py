"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads smoke grid_db6 --runs 10 --out spread.json

Each run is ``run.py --seed <i>`` for i in 0..runs-1 with BENCHMARK.json's
``run_seconds``.  Per workload and metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  A spread under a third of the bound is steady; set-up
time has no spread requirement.  ``--out`` stores the figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """One run's result line and its environment line."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    environment = next((line for line in lines if line.startswith("environment:")), "")
    return json.loads(lines[-1]), environment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    report = {}
    for workload in args.workloads:
        runs = [
            run_once(workload, seed, spec["run_seconds"], args.trace)
            for seed in range(args.runs)
        ]
        results = [result for result, _ in runs]
        rows = {
            "environment": runs[0][1],
            "seeds": [0, args.runs - 1],
            "correct": all(r["correct"] for r in results),
            "metrics": {},
        }
        print(f"{workload}: {args.runs} runs, all correct: {rows['correct']}")
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else None
            entry = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            line = f"  {name:42s} median {median:12.6g} {metric['unit']:6s} q1 {q1:12.6g} q3 {q3:12.6g}"
            if "bound" in metric:
                steady = name == "setup_s" or spread < metric["bound"] / 3
                entry["steady"] = steady
                line += f" spread {spread:7.4f} bound {metric['bound']} {'ok' if steady else 'WIDE'}"
            print(line, flush=True)
            rows["metrics"][name] = entry
        report[workload] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
