"""One benchmark process: set up, then time run_benchmark calls in a closed loop.

Started by ``run.py`` in a fresh interpreter so that the set-up time and
the peak resident memory belong to this run alone.  Set-up is everything
from process start to the first timed call: imports, writing the seeded
corpus and building the manifest.  The loop makes one ``run_benchmark``
call at a time with ``workers=1`` and stops once the next call would end
after ``--seconds``; it always makes at least one call (two when traced:
one untraced, one traced).  The result goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import eigu.evaluation

from corpus import write_corpus
from spans import ROOT, Tracer, layer_metrics

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    """Library versions, core count and thread pinning of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def row_record(row) -> dict:
    return {
        "cell": f"{row.task}/{row.feature}/{row.classifier}",
        "mean_acc": row.mean_acc,
        "fold_accs": list(row.fold_accs),
        "n_runs": row.n_runs,
        "error": row.error,
    }


def timed_loop(
    manifest: dict, seconds: float, trace: bool, corpus_seed: int, spans_path: Path
) -> dict:
    """Alternate untraced and (when tracing) traced calls until time is up.

    Even corpus seeds trace the second call, odd ones the first, so that
    over a seed sweep trace.overhead_pct carries no call-order bias.
    """
    tracer = Tracer()
    calls = []
    loop_start = time.monotonic()
    while True:
        traced = trace and (len(calls) + corpus_seed) % 2 == 1
        if traced:
            tracer.install()
            root = tracer.open(ROOT)
        start = time.perf_counter()
        try:
            result = eigu.evaluation.run_benchmark(manifest, workers=1)
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.close(root)
                tracer.uninstall()
        calls.append(
            {"wall_s": wall, "traced": traced, "rows": [row_record(r) for r in result.rows]}
        )
        enough = len(calls) >= (2 if trace else 1)
        if enough and time.monotonic() - loop_start + wall > seconds:
            break

    out = {"calls": calls}
    if trace:
        traced_walls = [c["wall_s"] for c in calls if c["traced"]]
        untraced_walls = [c["wall_s"] for c in calls if not c["traced"]]
        metrics = layer_metrics(
            tracer,
            traced_calls=len(traced_walls),
            folds=int(manifest["folds"]),
            traced_wall_s=statistics.median(traced_walls),
            untraced_wall_s=statistics.median(untraced_walls),
        )
        out["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        spans_path.write_text(json.dumps(tracer.dump()))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--corpus-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    corpus_dir = args.workdir / f"corpus-{os.getpid()}"
    try:
        write_corpus(corpus_dir, args.corpus_seed)
        manifest = json.loads(args.manifest.read_text())
        manifest["data_root"] = str(corpus_dir)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            spans_path = args.workdir / f"spans-{args.manifest.stem}.json"
            result.update(
                timed_loop(manifest, args.seconds, bool(args.trace), args.corpus_seed, spans_path)
            )
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["environment"] = environment()
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
