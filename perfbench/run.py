"""eigu benchmark: grid searches through ``eigu.evaluation.run_benchmark``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload smoke --seed 0 --seconds 30 --trace 0

The workloads are the manifests in ``perfbench/manifests`` plus ``smoke``,
which is the package's own ``src/eigu/data/smoke_manifest.json`` as it
stands; BENCHMARK.json says why each exists and lists every metric with
its unit and bound.  Each run writes a seeded synthetic corpus and times
``run_benchmark`` calls in a fresh process (``worker.py``), one call at a
time, ``workers=1``, with the BLAS thread pools pinned to one thread.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced calls in one process and reports the per-layer
metrics instead.

Correctness: every cell of every call must carry no error, run exactly
the grid's cardinality of CV runs, and reproduce the stored fold
accuracies in ``perfbench/reference/<workload>.json`` for its corpus.
The corpus family has ``CORPUS_SEEDS`` members; ``--seed`` picks member
``seed % CORPUS_SEEDS``, so every seed has a stored reference.
``--record`` stores the reference for the chosen member instead of
checking it; record only at a commit whose results are known good.

The metric lines go to standard output, followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count cells.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORKDIR = REPO / ".bench_build" / "perfbench"
CORPUS_SEEDS = 16
#: Set-ups per end-to-end run (probes plus the measured worker's own).
SETUPS = 3
#: Every run ends within this many seconds of its start.
DEADLINE_S = 175.0
#: Workloads whose manifest is the one bundled with the package.
BUNDLED_MANIFESTS = {"smoke": REPO / "src" / "eigu" / "data" / "smoke_manifest.json"}
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def manifest_path(workload: str) -> Path:
    return BUNDLED_MANIFESTS.get(workload, BENCH_DIR / "manifests" / f"{workload}.json")


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args, corpus_seed: int, deadline: float, setup_only: bool) -> dict:
    """Run one fresh worker process and return the JSON it wrote."""
    out = WORKDIR / f"result-{args.workload}.json"
    out.unlink(missing_ok=True)
    command = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--manifest", str(manifest_path(args.workload)),
        "--corpus-seed", str(corpus_seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
        "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    try:
        done = subprocess.run(
            command, env=child_env(), cwd=REPO, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired:
        fail("worker did not finish before the run's deadline")
    if done.returncode != 0:
        fail(f"worker exited with code {done.returncode}")
    return json.loads(out.read_text())


def grid_cardinality(grid: dict) -> int:
    return math.prod(len(values) for values in grid.values())


def cell_problem(row: dict | None, reference: dict | None, runs: int) -> str | None:
    """Why one output cell fails the check, or None when it passes."""
    if row is None:
        return "cell missing from the output"
    if reference is None:
        return "cell not in the reference"
    if row["error"] is not None:
        return f"error: {row['error']}"
    if row["n_runs"] != runs or reference["n_runs"] != runs:
        return f"n_runs {row['n_runs']}, grid has {runs}"
    if row["fold_accs"] != reference["fold_accs"]:
        return f"fold accuracies {row['fold_accs']}, reference {reference['fold_accs']}"
    return None


def check_calls(calls: list[dict], expected: dict, cardinality: dict) -> tuple[int, list[str]]:
    """Cells attempted and one line per failed cell, over every call."""
    attempted = 0
    failures = []
    for index, call in enumerate(calls):
        rows = {row["cell"]: row for row in call["rows"]}
        for cell in sorted(set(rows) | set(expected)):
            attempted += 1
            runs = cardinality[cell.rsplit("/", 1)[1]]
            problem = cell_problem(rows.get(cell), expected.get(cell), runs)
            if problem is not None:
                failures.append(f"call {index}: {cell}: {problem}")
    return attempted, failures


def record_reference(path: Path, corpus_seed: int, rows: list[dict], cardinality: dict) -> None:
    """Store the first call's cells as the reference for one corpus."""
    cells = {row["cell"]: {"fold_accs": row["fold_accs"], "n_runs": row["n_runs"]} for row in rows}
    for row in rows:
        runs = cardinality[row["cell"].rsplit("/", 1)[1]]
        if cell_problem(row, cells[row["cell"]], runs) is not None:
            fail(f"refusing to record a failed cell: {row}")
    stored = json.loads(path.read_text()) if path.exists() else {}
    stored[str(corpus_seed)] = cells
    ordered = dict(sorted(stored.items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(ordered, indent=1) + "\n")


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    own = {p.stem for p in (BENCH_DIR / "manifests").glob("*.json")}
    workloads = sorted(own | set(BUNDLED_MANIFESTS))
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store the reference, do not check")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (REPO / "src" / "eigu" / "evaluation.py").is_file():
        fail(f"no eigu sources under {REPO / 'src'}; run from the root of a checkout")
    WORKDIR.mkdir(parents=True, exist_ok=True)
    corpus_seed = args.seed % CORPUS_SEEDS
    manifest = json.loads(manifest_path(args.workload).read_text())
    cardinality = {name: grid_cardinality(grid) for name, grid in manifest["grids"].items()}

    setups = []
    if not args.trace:
        setups = [spawn(args, corpus_seed, deadline, True)["setup_s"] for _ in range(SETUPS - 1)]
    result = spawn(args, corpus_seed, deadline, False)
    setups.append(result["setup_s"])
    calls = result["calls"]

    reference_path = BENCH_DIR / "reference" / f"{args.workload}.json"
    if args.record:
        record_reference(reference_path, corpus_seed, calls[0]["rows"], cardinality)
    references = json.loads(reference_path.read_text()) if reference_path.exists() else {}
    attempted, failures = check_calls(calls, references.get(str(corpus_seed), {}), cardinality)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    untraced = [c["wall_s"] for c in calls if not c["traced"]]
    accuracies = [r["mean_acc"] for r in calls[0]["rows"] if r["mean_acc"] is not None]
    if args.trace:
        computed = {name: (m["value"], m["unit"]) for name, m in result["layers"].items()}
        computed["evaluation.cell_fail_frac"] = (len(failures) / attempted, "ratio")
    else:
        computed = {
            "wall_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "acc_mean_pct": (statistics.fmean(accuracies) if accuracies else 0.0, "%"),
        }
    declared = declared_metrics(args.trace)
    if {n: u for n, (_, u) in computed.items()} != declared:
        fail("computed metrics differ from the ones BENCHMARK.json declares")

    env = result["environment"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"{env['blas']}, nproc {env['nproc']}, {threads}"
    )
    print(
        f"workload {args.workload}, seed {args.seed} (corpus {corpus_seed}): "
        f"{len(calls)} call(s), untraced wall_s {[round(w, 3) for w in untraced]}, "
        f"cells attempted {attempted}, failed {len(failures)}, "
        f"cell_fail_frac {len(failures) / attempted:.4f}"
    )
    for name, (value, unit) in computed.items():
        print(f"{name:45s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in computed.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
