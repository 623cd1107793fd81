"""Command-line front end wiring ingestion, features, training, and reports.

Every command follows one contract: exit 0 on success, 1 on runtime
failures, 2 on validation or usage errors.  Outputs are CSV and JSON only,
and anything time- or host-dependent goes into a separate ``runinfo.json``
so the result files themselves stay byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import math
import os
import platform
import socket
import sys
import time
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import CLASSIFIER_NAMES, TrainSpec, model_to_json, train, universum_rows
from .dataio import (
    SEGMENT_LENGTH,
    TASKS,
    FoldPlan,
    LabeledDataset,
    make_folds,
    read_bundle,
    subset_universum,
    write_bundle,
)
from .evaluation import (
    DECADE_GRID,
    GridSpec,
    fit_labeled,
    grid_search,
    load_tasks,
    results_csv,
    run_benchmark,
    run_cv,
)
from .features import DEFAULT_LEVELS, SUPPORTED_WAVELETS, feature_config_from_id
from .kernels import KERNEL_FAMILIES, KernelSpec
from .stats import build_stat_report, load_published_tables

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

#: Set N rows a --task mode run pools at most, unless --universum-pool says otherwise.
UNIVERSUM_POOL = 100

FEATURE_IDS = tuple(f"dwt_{wavelet}" for wavelet in SUPPORTED_WAVELETS) + ("pca", "ica")


class UsageError(Exception):
    """Bad arguments or unusable inputs; maps to exit code 2."""


# ---------------------------------------------------------------------------
# shared plumbing


def _write_runinfo(
    directory: Path, command: str, argv: list[str], started: float, counters=None
) -> None:
    """Host and timestamp details, quarantined away from the result files.

    ``counters`` (``bench`` only) are the run's feature fits, ICA fits
    capped unconverged (``ica_capped``), kernel tables, span factors,
    block builds and block hits.
    """
    finished = time.time()
    info = {
        "command": command,
        "argv": list(argv),
        "package_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host": socket.gethostname(),
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(
            timespec="seconds"
        ),
        "finished_utc": datetime.fromtimestamp(finished, tz=timezone.utc).isoformat(
            timespec="seconds"
        ),
        "duration_seconds": round(finished - started, 3),
    }
    if counters is not None:
        info["counters"] = counters
    _emit_json(info, str(directory / "runinfo.json"))


def _jsonable(obj):
    """Recursively convert dataclasses/numpy values into JSON-ready types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(value) for value in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _emit_json(payload: dict, output: str | None) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if output:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_task(args, pool: int, segment_length: int) -> tuple[LabeledDataset, str]:
    """``--task``'s raw rows and name, as ``load_tasks`` reads them with a Universum ``pool``.

    The data root is ``--data-root``, else ``EIGU_DATA_ROOT``; a read that
    fails (``OSError``, ``ValueError``) is a usage error.
    """
    root = args.data_root or os.environ.get("EIGU_DATA_ROOT")
    if not root:
        raise UsageError("no data root: pass --data-root or set EIGU_DATA_ROOT")
    task = args.task.lower()
    try:
        return load_tasks(root, [task], pool, segment_length, args.seed)[task], task
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _read_bundle(path: str) -> tuple[LabeledDataset, dict]:
    """``read_bundle(path)``, a bundle it cannot read raised as a usage error."""
    try:
        return read_bundle(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read bundle {path}: {exc}") from exc


#: ``cv``/``sweep``'s --task mode flags, as (flag, attribute).  They parse as None
#: when not given, so --bundle can refuse them; --task mode then uses
#: ``EIGU_DATA_ROOT``, ``UNIVERSUM_POOL`` rows and ``SEGMENT_LENGTH`` samples.
_TASK_FLAGS = (
    ("--data-root", "data_root"),
    ("--universum-pool", "universum_pool"),
    ("--segment-length", "segment_length"),
)


def _load_dataset(args, classifier: str) -> tuple[LabeledDataset, str, FoldPlan]:
    """Dataset, task name and fold plan for ``classifier``, from --bundle or --task/--data-root.

    --task mode pools Universum rows only for a classifier that trains on
    them (``universum_rows``); --universum-size for one that does not is
    a usage error, raised before any data is read.  So is a --task mode
    flag (``_TASK_FLAGS``) given with --bundle, whose rows are read as
    they are.
    """
    if args.universum_size is not None and not universum_rows(classifier, 1):
        raise UsageError(f"--universum-size does not apply: {classifier} trains on no Universum")
    given = [flag for flag, name in _TASK_FLAGS if getattr(args, name) is not None]
    if args.bundle and given:
        raise UsageError(f"{given[0]} does not apply to --bundle, whose rows are read as they are")
    if args.bundle:
        dataset, manifest = _read_bundle(args.bundle)
        task = str(manifest.get("task", ""))
    else:
        pool = UNIVERSUM_POOL if args.universum_pool is None else args.universum_pool
        length = SEGMENT_LENGTH if args.segment_length is None else args.segment_length
        if pool < 0:  # a classifier without a Universum would ignore it
            raise UsageError(f"--universum-pool must be >= 0, got {pool}")
        dataset, task = _load_task(args, universum_rows(classifier, pool), length)
    if args.universum_size is not None:
        dataset = subset_universum(dataset, args.universum_size, args.seed)
    return dataset, task, make_folds(dataset, args.folds, args.seed)


def _feature_config(args) -> tuple:
    """``--feature``'s config and id ((None, "raw") without one), built before any data is read."""
    if args.feature is None:
        return None, "raw"
    config = feature_config_from_id(args.feature, n_components=args.n_components, seed=args.seed)
    return config, config.feature_id


def _build_kernel(args) -> KernelSpec | None:
    if args.kernel is None:
        if args.sigma is not None:
            raise UsageError("--sigma needs --kernel rbf")
        return None
    return KernelSpec(family=args.kernel, sigma=args.sigma)


def _train_spec(args) -> TrainSpec:
    return TrainSpec(
        classifier=args.classifier,
        delta=args.delta,
        nu=args.nu,
        gamma1=args.gamma,
        psi1=args.psi,
        gamma2=args.gamma2,
        psi2=args.psi2,
        kernel=_build_kernel(args),
    )


def _parse_grid_values(text: str, name: str) -> list[float]:
    try:
        values = [float(item) for item in text.split(",") if item.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --{name}: {exc}") from exc
    if not values:
        raise UsageError(f"--{name} is empty")
    if any(not np.isfinite(value) or value <= 0 for value in values):
        raise UsageError(f"--{name} values must be positive and finite (log10 axes)")
    return values


def _filtered(current: list, requested: str | None, kind: str) -> list:
    if requested is None or not isinstance(current, list):  # run_benchmark rejects a non-list
        return current
    wanted = [item.strip() for item in requested.split(",") if item.strip()]
    if not wanted:
        raise UsageError(f"empty {kind} filter")
    unknown = sorted(set(wanted) - set(current))
    if unknown:
        raise UsageError(f"unknown {kind} filter values {unknown}; manifest has {list(current)}")
    return [item for item in current if item in wanted]


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args) -> int:
    started = time.time()
    dataset, task = _load_task(args, args.universum_size, args.segment_length)
    out = Path(args.output_dir)
    write_bundle(
        dataset,
        out,
        task=task,
        seed=args.seed,
        extra={"segment_length": int(args.segment_length)},
    )
    _write_runinfo(out, "ingest", args.raw_argv, started)
    print(
        f"wrote bundle m1={dataset.m1} m2={dataset.m2} p={dataset.p} "
        f"n={dataset.n} -> {out}"
    )
    return EXIT_OK


def cmd_features(args) -> int:
    started = time.time()
    config = feature_config_from_id(
        args.feature, n_components=args.n_components, top_k=args.top_k, seed=args.seed
    )
    dataset, manifest = _read_bundle(args.bundle)
    fitted, transformed = fit_labeled(config, dataset)  # None for a wavelet, which fits nothing
    out = Path(args.output_dir)
    write_bundle(
        transformed,
        out,
        task=str(manifest.get("task", "")),
        seed=args.seed,
        extra={"feature": config.feature_id, "source_n": dataset.n},
    )
    sidecar: dict = {
        "config": {
            **dataclasses.asdict(config),
            "level": DEFAULT_LEVELS[config.wavelet] if config.method == "dwt" else None,
            "feature_id": config.feature_id,
        },
        "n_fit_rows": dataset.m1 + dataset.m2,
    }
    if fitted is not None:  # a wavelet fits nothing; an ica fit writes its ICA basis alone
        sidecar["component_order"] = list(fitted.keep)
        sidecar[config.method] = fitted.pca if fitted.ica is None else fitted.ica
    _emit_json(sidecar, str(out / "features.json"))
    _write_runinfo(out, "features", args.raw_argv, started)
    print(f"wrote {config.feature_id} bundle n={transformed.n} -> {out}")
    return EXIT_OK


def cmd_cv(args) -> int:
    config, feature_id = _feature_config(args)
    spec = _train_spec(args)
    dataset, task, folds = _load_dataset(args, spec.classifier)
    report = run_cv(dataset, folds, spec, extractor=config, task=task, feature_id=feature_id)
    _emit_json(dataclasses.asdict(report), args.output)
    if args.save_model:
        model = train(fit_labeled(config, dataset)[1], spec)
        path = Path(args.save_model)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(model_to_json(model) + "\n", encoding="utf-8")
        log.info("saved model to %s", path)
    return EXIT_OK


def _load_manifest(args) -> dict:
    if args.smoke or args.full:
        name = "smoke_manifest.json" if args.smoke else "full_manifest.json"
        text = resources.files("eigu").joinpath(f"data/{name}").read_text("ascii")
    else:
        try:
            text = Path(args.manifest).read_text(encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot read manifest {args.manifest}: {exc}") from exc
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise UsageError("manifest must be a JSON object")
    return payload


def cmd_bench(args) -> int:
    started = time.time()
    manifest = _load_manifest(args)
    if args.data_root:
        manifest["data_root"] = args.data_root
    elif manifest.get("data_root") in (None, ""):
        env_root = os.environ.get("EIGU_DATA_ROOT")
        if not env_root:
            raise UsageError(
                "manifest has no data_root; pass --data-root or set EIGU_DATA_ROOT"
            )
        manifest["data_root"] = env_root
    for key, flag in (("tasks", args.tasks), ("features", args.features), ("classifiers", args.classifiers)):
        if key in manifest:  # run_benchmark names a missing key
            manifest[key] = _filtered(manifest[key], flag, key.rstrip("s"))
    if args.seed is not None:
        manifest["seed"] = args.seed
    result = run_benchmark(manifest, workers=args.workers)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(results_csv(result.rows), encoding="utf-8")
    _emit_json(result.summary, str(out / "summary.json"))
    _write_runinfo(out, "bench", args.raw_argv, started, counters=result.counters)
    n_errors = sum(1 for row in result.rows if row.error)
    print(f"{len(result.rows)} cells, {n_errors} with errors -> {out / 'results.csv'}")
    return EXIT_OK


def _tables_from_results(path: Path) -> dict:
    """Rebuild the per-task accuracy tables from a benchmark results CSV."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read results: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text))
    required = {"task", "feature", "classifier", "mean_acc"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise UsageError(f"results CSV needs columns {sorted(required)}")
    cells: dict[str, dict[tuple[str, str], float]] = {}
    features: list[str] = []
    models: list[str] = []
    for row in reader:
        task, feature, model = row["task"], row["feature"], row["classifier"]
        if row.get("error"):
            raise UsageError(f"cell {task}/{feature}/{model} failed: {row['error']}")
        try:
            accuracy = float(row["mean_acc"])
        except (TypeError, ValueError) as exc:
            raise UsageError(
                f"bad mean_acc for {task}/{feature}/{model}: {row['mean_acc']!r}"
            ) from exc
        if feature not in features:
            features.append(feature)
        if model not in models:
            models.append(model)
        cells.setdefault(task, {})[(feature, model)] = accuracy
    if not cells:
        raise UsageError("results CSV has no data rows")
    tasks = {}
    for task, table in cells.items():
        matrix = []
        for feature in features:
            row_values = []
            for model in models:
                if (feature, model) not in table:
                    raise UsageError(f"results CSV is missing cell {task}/{feature}/{model}")
                row_values.append(table[(feature, model)])
            matrix.append(row_values)
        tasks[task] = matrix
    return {"models": models, "features": features, "tasks": tasks}


def cmd_stats(args) -> int:
    if args.from_paper_tables:
        tables = load_published_tables()
    else:
        tables = _tables_from_results(Path(args.results))
    champion = args.champion
    if champion is None:
        for candidate in ("IU-GEPSVM", "iugepsvm"):
            if candidate in tables["models"]:
                champion = candidate
                break
        else:
            raise UsageError(
                f"pass --champion; the tables carry models {list(tables['models'])}"
            )
    report = build_stat_report(
        tables, champion=champion, alpha=args.alpha, tolerance=args.tolerance
    )
    if args.task is not None:
        if args.task not in report["tasks"]:
            raise UsageError(
                f"unknown task {args.task!r}; the report has {sorted(report['tasks'])}"
            )
        report["tasks"] = {args.task: report["tasks"][args.task]}
    _emit_json(report, args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    started = time.time()
    gammas = _parse_grid_values(args.gamma_grid, "gamma-grid") if args.gamma_grid else DECADE_GRID
    psis = _parse_grid_values(args.psi_grid, "psi-grid") if args.psi_grid else DECADE_GRID
    if (args.kernel == "rbf") != (args.sigma is not None):
        raise UsageError(
            "sweep --kernel rbf needs --sigma, and --sigma needs --kernel rbf: "
            "each sweep row names one bandwidth"
        )
    config, feature_id = _feature_config(args)
    sigma = (args.sigma,) if args.kernel == "rbf" else None
    grid = GridSpec(delta=(args.delta,), gamma=gammas, psi=psis, sigma=sigma)
    # the spec of the grid's points, so a bad --delta fails before any data is read
    TrainSpec(classifier="iugepsvm", delta=args.delta, kernel=_build_kernel(args))
    dataset, task, folds = _load_dataset(args, "iugepsvm")
    result = grid_search(
        dataset, folds, "iugepsvm", grid, extractor=config, task=task, feature_id=feature_id
    )
    lines = ["log10_gamma,log10_psi,mean_accuracy"]
    for report in result.reports:
        gamma, psi = report.params["gamma1"], report.params["psi1"]
        lines.append(f"{math.log10(gamma)!r},{math.log10(psi)!r},{report.mean_accuracy!r}")
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_runinfo(out, "sweep", args.raw_argv, started)
    best = result.best_spec
    print(
        f"{result.n_runs} cells -> {out / 'sweep.csv'}; best mean accuracy "
        f"{result.best_report.mean_accuracy:.2f} at gamma={best.gamma1:g} psi={best.psi1:g}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_input_arguments(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--bundle", default=None, help="dataset bundle directory (from ingest/features)"
    )
    source.add_argument(
        "--task",
        choices=sorted(TASKS),
        default=None,
        help="assemble this task from --data-root instead of reading a bundle",
    )
    p.add_argument(
        "--data-root",
        default=None,
        help="set directories for --task mode (fallback: EIGU_DATA_ROOT); refused with --bundle",
    )
    p.add_argument(
        "--universum-pool",
        type=int,
        default=None,
        help="at most this many rows from set N (all of N when it holds fewer) in --task mode, "
        f"{UNIVERSUM_POOL} when unset; refused with --bundle",
    )
    p.add_argument(
        "--universum-size",
        type=int,
        default=None,
        help="subset the Universum to this many rows for the run (default: keep all)",
    )
    p.add_argument(
        "--segment-length",
        type=int,
        default=None,
        help=f"samples kept per recording in --task mode, {SEGMENT_LENGTH} when unset; "
        "refused with --bundle",
    )
    p.add_argument(
        "--feature",
        choices=FEATURE_IDS,
        default=None,
        help="feature extraction applied before training (default: raw rows)",
    )
    p.add_argument(
        "--n-components", type=int, default=32, help="components for pca/ica features"
    )
    p.add_argument("--folds", type=int, default=5, help="cross-validation folds")
    p.add_argument("--seed", type=int, default=0, help="fold/shuffle seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigu",
        description=(
            "Eigenvalue twin-plane classifiers: data ingestion, feature "
            "extraction, cross-validation, benchmarks, statistics, and "
            "sensitivity sweeps."
        ),
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name,
            help=help_text,
            description=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        p.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=0,
            help="increase log verbosity (repeatable)",
        )
        return p

    p = add_command("ingest", "Assemble a labeled task bundle from raw set directories.")
    p.add_argument("--task", required=True, choices=sorted(TASKS), help="binary task")
    p.add_argument(
        "--data-root",
        default=None,
        help="directory holding the set folders (fallback: EIGU_DATA_ROOT)",
    )
    p.add_argument("--output-dir", required=True, help="bundle destination directory")
    p.add_argument(
        "--universum-size",
        type=int,
        default=100,
        help="at most this many rows from set N (all of N when it holds fewer)",
    )
    p.add_argument(
        "--segment-length",
        type=int,
        default=SEGMENT_LENGTH,
        help="samples kept per recording",
    )
    p.add_argument("--seed", type=int, default=0, help="Universum shuffle seed")
    p.set_defaults(func=cmd_ingest)

    p = add_command("features", "Extract features from a bundle into a new bundle.")
    p.add_argument("--bundle", required=True, help="input bundle directory")
    p.add_argument("--output-dir", required=True, help="transformed bundle destination")
    p.add_argument("--feature", required=True, choices=FEATURE_IDS, help="feature id")
    p.add_argument(
        "--n-components", type=int, default=32, help="components for pca/ica"
    )
    p.add_argument(
        "--top-k",
        type=int,
        default=None,
        help="keep only this many top-ranked pca/ica components, at most --n-components "
        "(default: all)",
    )
    p.add_argument("--seed", type=int, default=0, help="component-estimation seed")
    p.set_defaults(func=cmd_features)

    p = add_command("cv", "Cross-validate one hyperparameter setting.")
    _add_input_arguments(p)
    p.add_argument("--classifier", required=True, choices=CLASSIFIER_NAMES)
    p.add_argument("--delta", type=float, default=1e-4, help="Tikhonov weight")
    p.add_argument(
        "--nu", type=float, default=0.1, help="subtracted class weight (igepsvm)"
    )
    p.add_argument(
        "--gamma", type=float, default=0.1, help="class weight, plane 1 (iugepsvm)"
    )
    p.add_argument(
        "--psi", type=float, default=0.01, help="Universum weight, plane 1 (iugepsvm)"
    )
    p.add_argument(
        "--gamma2",
        type=float,
        default=None,
        help="class weight, plane 2 (default: --gamma)",
    )
    p.add_argument(
        "--psi2",
        type=float,
        default=None,
        help="Universum weight, plane 2 (default: --psi)",
    )
    p.add_argument(
        "--kernel",
        choices=KERNEL_FAMILIES,
        default=None,
        help="kernel mode (default: linear primal)",
    )
    p.add_argument(
        "--sigma",
        type=float,
        default=None,
        help="rbf bandwidth (default: mean pairwise-distance heuristic)",
    )
    p.add_argument(
        "--output", default=None, help="CV report JSON path (default: stdout)"
    )
    p.add_argument(
        "--save-model",
        default=None,
        help="also train on all rows and save the model JSON here",
    )
    p.set_defaults(func=cmd_cv)

    p = add_command("bench", "Run a (task x feature x classifier) benchmark manifest.")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest", default=None, help="manifest JSON path")
    source.add_argument(
        "--smoke", action="store_true", help="use the bundled reduced-grid manifest"
    )
    source.add_argument(
        "--full", action="store_true", help="use the bundled full-grid manifest"
    )
    p.add_argument(
        "--data-root",
        default=None,
        help="overrides the manifest data_root (EIGU_DATA_ROOT fills a null value)",
    )
    p.add_argument("--output-dir", required=True, help="results destination directory")
    p.add_argument("--tasks", default=None, help="comma-separated task filter")
    p.add_argument("--features", default=None, help="comma-separated feature filter")
    p.add_argument(
        "--classifiers", default=None, help="comma-separated classifier filter"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker process count (default: manifest value or 1)",
    )
    p.add_argument(
        "--seed", type=int, default=None, help="overrides the manifest seed"
    )
    p.set_defaults(func=cmd_bench)

    p = add_command("stats", "Friedman, pairwise Wilcoxon, and win-tie-loss report.")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--results", default=None, help="benchmark results CSV path")
    source.add_argument(
        "--from-paper-tables",
        action="store_true",
        help="use the bundled published accuracy tables",
    )
    p.add_argument("--task", default=None, help="restrict the report to one task")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p.add_argument(
        "--champion",
        default=None,
        help="reference model for win-tie-loss (default: the Universum "
        "difference-form model when present)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="absolute accuracy difference counted as a tie",
    )
    p.add_argument(
        "--output", default=None, help="report JSON path (default: stdout)"
    )
    p.set_defaults(func=cmd_stats)

    p = add_command("sweep", "Sweep iugepsvm's gamma/psi axes; emits plot-ready CSV.")
    _add_input_arguments(p)
    p.add_argument("--delta", type=float, default=1e-5, help="Tikhonov weight")
    p.add_argument(
        "--gamma-grid",
        default=None,
        help="comma-separated gamma values (default: the 1e-5..1e5 decades)",
    )
    p.add_argument(
        "--psi-grid",
        default=None,
        help="comma-separated psi values (default: the 1e-5..1e5 decades)",
    )
    p.add_argument("--kernel", choices=KERNEL_FAMILIES, default=None, help="kernel mode")
    p.add_argument("--sigma", type=float, default=None, help="rbf bandwidth, required by --kernel rbf")
    p.add_argument("--output-dir", required=True, help="sweep CSV destination")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    args.raw_argv = argv
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        log.debug("runtime failure", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
