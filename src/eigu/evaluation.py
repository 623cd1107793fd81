"""Cross-validated evaluation, exhaustive grid search, and the benchmark grid.

Accuracy is reported as the plain mean over stratified folds (one value in
[0, 100] per fold), with prediction wall-clock tracked separately so result
files stay byte-reproducible.  Feature transforms that require fitting
(PCA/ICA) are refit on each fold's training rows only.  ``grid_search`` is
the one grid engine: it runs ``run_cv`` once per grid point and hands every
call the same plain dict, in which each fold's fitted transform and the
hyperparameter-independent blocks are kept across points.  That keeps
exhaustive sweeps affordable without changing the number of CV runs
actually performed, or any result.
"""

from __future__ import annotations

import itertools
import json
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.stats

from .classifiers import (
    CLASSIFIER_NAMES,
    DEFAULT_GRAM_CAP,
    DegeneratePlaneError,
    TrainSpec,
    build_blocks,
    predict,
    train_with_blocks,
)
from .dataio import (
    FoldPlan,
    LabeledDataset,
    TASKS,
    UNIVERSUM_SET,
    assemble_task,
    load_bonn_set,
    make_folds,
    subset_universum,
    truncate_recordings,
)
from .eigsolve import SingularDenominatorError
from .features import FeatureConfig, dwt_features, feature_config_from_id, fit_features
from .kernels import KernelSpec

__all__ = [
    "BenchRow",
    "BenchmarkResult",
    "CVReport",
    "DECADE_GRID",
    "FoldTrainingError",
    "GridSearchResult",
    "GridSpec",
    "SIGMA_GRID",
    "UNIVERSUM_GRID",
    "grid_search",
    "parse_grid",
    "rank_models",
    "results_csv",
    "run_benchmark",
    "run_cv",
]

#: The sweep ranges used throughout: powers of ten, powers of two, and
#: Universum sizes in steps of ten.
DECADE_GRID = tuple(10.0**e for e in range(-5, 6))
SIGMA_GRID = tuple(2.0**e for e in range(-5, 6))
UNIVERSUM_GRID = tuple(range(10, 101, 10))


class FoldTrainingError(RuntimeError):
    """Training failed inside a CV fold; the message names the fold index."""


@dataclass(frozen=True)
class CVReport:
    """Per-fold accuracies and their mean for one TrainSpec."""

    classifier: str
    k: int
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    test_time_seconds: float
    params: dict
    seed: int
    task: str = ""
    feature_id: str = ""
    feature_refits: int = 0


#: Numerical and input failures that fail one fold; anything else is a bug
#: and propagates unwrapped.
_FOLD_FAILURES = (
    ValueError,
    np.linalg.LinAlgError,
    SingularDenominatorError,
    DegeneratePlaneError,
)


def _fit_fold_features(extractor: FeatureConfig, dataset: LabeledDataset, test1, test2):
    """Fit on one fold's labeled training rows; transform its train and test rows."""
    train1 = dataset.X1[~test1]
    train2 = dataset.X2[~test2]
    fit_labels = np.concatenate(
        [np.ones(len(train1), dtype=int), -np.ones(len(train2), dtype=int)]
    )
    fitted = fit_features(extractor, np.vstack([train1, train2]), fit_labels)
    return (
        fitted,
        fitted.transform(train1),
        fitted.transform(train2),
        fitted.transform(np.vstack([dataset.X1[test1], dataset.X2[test2]])),
    )


def run_cv(
    dataset: LabeledDataset,
    folds: FoldPlan,
    spec: TrainSpec,
    extractor: FeatureConfig | None = None,
    gram_cap: int = DEFAULT_GRAM_CAP,
    task: str = "",
    feature_id: str = "",
    cache: dict | None = None,
) -> CVReport:
    """Stratified k-fold evaluation of one hyperparameter setting.

    When ``extractor`` is given the dataset rows are treated as raw inputs:
    the transform is fit per fold on that fold's labeled training rows only
    and applied to training, Universum, and test rows alike.  Universum
    rows join every training split and no test split.

    ``cache`` is the per-fold store ``grid_search`` shares across its grid
    points.  Key ``fold`` holds that fold's fitted transform and transformed
    train and test rows (extractor runs only); key
    ``(fold, dataset.p, spec.kernel)`` holds the hyperparameter-free blocks.
    The Universum size names the Universum only because, within one grid
    search, every Universum is a seeded prefix of the same pool and the
    labeled rows never change; a cache must not outlive that.  On a block
    hit only the fold's test rows are sliced.
    """
    accuracies = []
    predict_seconds = 0.0
    for fold in range(folds.k):
        store = {} if cache is None else cache  # uncached: nothing outlives the fold
        test1 = folds.class1_folds == fold
        test2 = folds.class2_folds == fold
        test_labels = np.repeat([1, -1], [np.count_nonzero(test1), np.count_nonzero(test2)])
        try:
            if extractor is None:
                test_rows = np.vstack([dataset.X1[test1], dataset.X2[test2]])
            else:
                if fold not in store:
                    store[fold] = _fit_fold_features(extractor, dataset, test1, test2)
                fitted, train1, train2, test_rows = store[fold]
            key = (fold, dataset.p, spec.kernel)
            if key not in store:
                if extractor is None:
                    train1, train2, universum = dataset.X1[~test1], dataset.X2[~test2], dataset.U
                else:
                    universum = fitted.transform(dataset.U)
                fold_data = LabeledDataset(X1=train1, X2=train2, U=universum)
                store[key] = build_blocks(fold_data, spec.kernel, gram_cap)
            model = train_with_blocks(store[key], spec)

            start = time.perf_counter()
            labels = predict(model, test_rows)
            predict_seconds += time.perf_counter() - start
        except _FOLD_FAILURES as exc:
            raise FoldTrainingError(f"fold {fold}: {exc}") from exc
        accuracies.append(100.0 * float(np.mean(labels == test_labels)))
    return CVReport(
        classifier=spec.classifier,
        k=folds.k,
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        test_time_seconds=predict_seconds,
        params=spec.hyperparameters(),
        seed=folds.seed,
        task=task,
        feature_id=feature_id,
        feature_refits=folds.k if extractor is not None else 0,
    )


@dataclass(frozen=True)
class GridSpec:
    """Value lists for an exhaustive sweep; None means the axis is absent."""

    delta: tuple[float, ...] | None = None
    nu: tuple[float, ...] | None = None
    gamma: tuple[float, ...] | None = None
    psi: tuple[float, ...] | None = None
    sigma: tuple[float, ...] | None = None
    universum_size: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("delta", "nu", "gamma", "psi", "sigma", "universum_size"):
            values = getattr(self, name)
            if values is None:
                continue
            if not isinstance(values, (list, tuple)) or not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values
            ):
                raise ValueError(f"grid axis {name} must be a list of numbers, got {values!r}")
            values = tuple(values)
            if not values:
                raise ValueError(f"grid axis {name} is empty")
            if not all(np.isfinite(v) for v in values):
                raise ValueError(f"grid axis {name} has non-finite values")
            if name == "universum_size":
                if any(v < 0 or v != int(v) for v in values):
                    raise ValueError(f"grid axis universum_size needs integers >= 0, got {values}")
                values = tuple(int(v) for v in values)
            object.__setattr__(self, name, values)

    def cardinality(self) -> int:
        total = 1
        for name in ("delta", "nu", "gamma", "psi", "sigma", "universum_size"):
            values = getattr(self, name)
            total *= len(values) if values is not None else 1
        return total


def parse_grid(payload: dict) -> GridSpec:
    """Build a GridSpec from a JSON-style dict of value lists."""
    known = {"delta", "nu", "gamma", "psi", "sigma", "universum_size"}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown grid axes: {sorted(unknown)}")
    return GridSpec(**payload)


def _validate_grid(grid: GridSpec, classifier: str) -> None:
    if classifier not in CLASSIFIER_NAMES:
        raise ValueError(f"unknown classifier {classifier!r}")
    if grid.delta is None:
        raise ValueError(f"{classifier} grid needs a delta axis")
    required = {"igepsvm": ("nu",), "iugepsvm": ("gamma", "psi")}.get(classifier, ())
    for name in required:
        if getattr(grid, name) is None:
            raise ValueError(f"{classifier} grid needs a {name} axis")
    forbidden = {
        "gepsvm": ("nu", "gamma", "psi", "universum_size"),
        "igepsvm": ("gamma", "psi", "universum_size"),
        "ugepsvm": ("nu", "gamma", "psi"),
        "iugepsvm": ("nu",),
    }[classifier]
    for name in forbidden:
        if getattr(grid, name) is not None:
            raise ValueError(f"{classifier} does not consume grid axis {name}")


@dataclass(frozen=True)
class GridSearchResult:
    """The winning point plus every point's report, in visit order."""

    best_spec: TrainSpec
    best_report: CVReport
    reports: tuple[CVReport, ...]

    @property
    def n_runs(self) -> int:
        return len(self.reports)


def _spec_for(classifier: str, delta, nu, gamma, psi, kernel) -> TrainSpec:
    kwargs = {"classifier": classifier, "delta": delta, "kernel": kernel}
    if classifier == "igepsvm":
        kwargs["nu"] = nu
    elif classifier == "iugepsvm":
        kwargs["gamma1"] = gamma
        kwargs["psi1"] = psi
    return TrainSpec(**kwargs)


def grid_search(
    dataset: LabeledDataset,
    folds: FoldPlan,
    classifier: str,
    grid: GridSpec,
    extractor: FeatureConfig | None = None,
    gram_cap: int = DEFAULT_GRAM_CAP,
    task: str = "",
    feature_id: str = "",
) -> GridSearchResult:
    """Exhaustive sweep over the grid's Cartesian product.

    Points are visited in ascending (delta, nu, gamma, psi, sigma, u)
    order and a point must be strictly better to displace the incumbent,
    so ties resolve to the lexicographically smallest tuple.  When a
    ``universum_size`` axis is present, each u re-draws that many rows
    from the dataset's Universum pool (seeded by the fold plan's seed) and
    the point's report records it as ``params["universum_size"]``.  Every
    point runs ``run_cv`` once, all of them sharing one per-fold cache, so
    the number of CV runs performed equals the grid cardinality exactly.
    """
    _validate_grid(grid, classifier)
    axes = [
        sorted(grid.delta),
        sorted(grid.nu) if grid.nu is not None else [None],
        sorted(grid.gamma) if grid.gamma is not None else [None],
        sorted(grid.psi) if grid.psi is not None else [None],
        sorted(grid.sigma) if grid.sigma is not None else [None],
        sorted(grid.universum_size) if grid.universum_size is not None else [None],
    ]
    subsets: dict = {}
    cache: dict = {}
    specs: list[TrainSpec] = []
    reports: list[CVReport] = []
    best = None
    for delta, nu, gamma, psi, sigma, u in itertools.product(*axes):
        kernel = None if sigma is None else KernelSpec(family="rbf", sigma=float(sigma))
        spec = _spec_for(classifier, delta, nu, gamma, psi, kernel)
        if u is None:
            trial_data = dataset
        else:
            if u not in subsets:
                subsets[u] = subset_universum(dataset, u, folds.seed)
            trial_data = subsets[u]
        report = run_cv(
            trial_data,
            folds,
            spec,
            extractor=extractor,
            gram_cap=gram_cap,
            task=task,
            feature_id=feature_id,
            cache=cache,
        )
        if u is not None:
            report = replace(report, params={**report.params, "universum_size": u})
        if best is None or report.mean_accuracy > reports[best].mean_accuracy:
            best = len(reports)
        specs.append(spec)
        reports.append(report)
    return GridSearchResult(
        best_spec=specs[best], best_report=reports[best], reports=tuple(reports)
    )


def rank_models(accuracy_matrix: np.ndarray) -> np.ndarray:
    """Average fractional ranks per column (rank 1 = highest accuracy).

    Each row is ranked descending with ties sharing the average rank, so
    every row's ranks sum to k(k+1)/2; the column means are returned.
    """
    matrix = np.asarray(accuracy_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("accuracy matrix must be 2-d and non-empty")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("accuracy matrix has non-finite entries")
    ranks = np.vstack(
        [scipy.stats.rankdata(-row, method="average") for row in matrix]
    )
    return ranks.mean(axis=0)


@dataclass(frozen=True)
class BenchRow:
    task: str
    feature: str
    classifier: str
    mean_acc: float | None
    fold_accs: tuple[float, ...]
    params: dict
    test_time_s: float
    n_runs: int = 0
    error: str | None = None


@dataclass(frozen=True)
class BenchmarkResult:
    rows: tuple[BenchRow, ...]
    summary: dict


@dataclass(frozen=True)
class _CellJob:
    task: str
    feature: str
    classifier: str
    dataset: LabeledDataset
    folds: FoldPlan
    grid: GridSpec
    extractor: FeatureConfig | None
    gram_cap: int


def _run_cell(job: _CellJob) -> BenchRow:
    try:
        result = grid_search(
            job.dataset,
            job.folds,
            job.classifier,
            job.grid,
            extractor=job.extractor,
            gram_cap=job.gram_cap,
            task=job.task,
            feature_id=job.feature,
        )
    except (FoldTrainingError, ValueError) as exc:
        return BenchRow(
            task=job.task,
            feature=job.feature,
            classifier=job.classifier,
            mean_acc=None,
            fold_accs=(),
            params={},
            test_time_s=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )
    report = result.best_report
    return BenchRow(
        task=job.task,
        feature=job.feature,
        classifier=job.classifier,
        mean_acc=report.mean_accuracy,
        fold_accs=report.fold_accuracies,
        params=report.params,
        test_time_s=report.test_time_seconds,
        n_runs=result.n_runs,
    )


def _manifest_value(manifest: dict, key: str, default):
    value = manifest.get(key, default)
    if value is None:
        return default
    return value


def run_benchmark(manifest: dict, workers: int | None = None) -> BenchmarkResult:
    """Run every (task, feature, classifier) cell described by a manifest.

    The manifest carries ``tasks``, ``features``, ``classifiers``,
    per-classifier ``grids``, a ``data_root`` holding the set directories,
    and a ``seed``; optional keys tune ``folds`` (default 5),
    ``universum_pool`` (default 100), ``segment_length`` (default 4096),
    ``n_components`` (default 32), ``gram_cap``, and ``workers``.  Cell
    failures are recorded in their row and do not abort the run.  Identical
    manifests yield identical accuracy cells regardless of worker count.
    """
    for key in ("tasks", "features", "classifiers", "grids", "data_root"):
        if key not in manifest:
            raise ValueError(f"manifest is missing {key!r}")
    data_root = Path(manifest["data_root"])
    if not data_root.is_dir():
        raise FileNotFoundError(f"data root not found: {data_root}")
    seed = int(_manifest_value(manifest, "seed", 0))
    k = int(_manifest_value(manifest, "folds", 5))
    pool_size = int(_manifest_value(manifest, "universum_pool", 100))
    segment_length = int(_manifest_value(manifest, "segment_length", 4096))
    n_components = int(_manifest_value(manifest, "n_components", 32))
    gram_cap = int(_manifest_value(manifest, "gram_cap", DEFAULT_GRAM_CAP))
    if workers is None:
        workers = int(_manifest_value(manifest, "workers", 1))

    tasks = [t.lower() for t in manifest["tasks"]]
    for task in tasks:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r} in manifest")
    classifiers = list(manifest["classifiers"])
    grids = {
        name: parse_grid(payload) for name, payload in manifest["grids"].items()
    }
    for name in classifiers:
        if name not in grids:
            raise ValueError(f"manifest grids are missing classifier {name!r}")

    needed_sets = {UNIVERSUM_SET}
    for task in tasks:
        needed_sets.update(TASKS[task])
    raw_rows: dict[str, np.ndarray] = {}
    for set_label in sorted(needed_sets):
        recordings = load_bonn_set(data_root / set_label, set_label)
        raw_rows[set_label] = truncate_recordings(recordings, segment_length)

    jobs: list[_CellJob] = []
    for task in tasks:
        for feature in manifest["features"]:
            config = feature_config_from_id(
                feature, n_components=n_components, seed=seed
            )
            if config.method == "dwt":
                rows_by_set = {
                    label: np.vstack(
                        [dwt_features(r, config.wavelet, config.level) for r in rows]
                    )
                    for label, rows in raw_rows.items()
                }
                extractor = None
            else:
                rows_by_set = raw_rows
                extractor = config
            pool = min(pool_size, raw_rows[UNIVERSUM_SET].shape[0])
            dataset = assemble_task(task, rows_by_set, pool, seed)
            folds = make_folds(dataset, k, seed)
            for classifier in classifiers:
                grid = grids[classifier]
                cell_data = dataset
                if grid.universum_size is None and classifier in ("gepsvm", "igepsvm"):
                    cell_data = subset_universum(dataset, 0, seed)
                jobs.append(
                    _CellJob(
                        task=task,
                        feature=feature,
                        classifier=classifier,
                        dataset=cell_data,
                        folds=folds,
                        grid=grid,
                        extractor=extractor,
                        gram_cap=gram_cap,
                    )
                )

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            rows = tuple(pool_exec.map(_run_cell, jobs))
    else:
        rows = tuple(_run_cell(job) for job in jobs)

    summary = _summarize(rows, tasks, manifest["features"], classifiers)
    return BenchmarkResult(rows=rows, summary=summary)


def _summarize(rows, tasks, features, classifiers) -> dict:
    by_key = {(r.task, r.feature, r.classifier): r for r in rows}
    summary: dict = {"tasks": {}, "n_cells": len(rows)}
    for task in tasks:
        matrix = np.full((len(features), len(classifiers)), np.nan)
        errors = 0
        for i, feature in enumerate(features):
            for j, classifier in enumerate(classifiers):
                row = by_key[(task, feature, classifier)]
                if row.error is None and row.mean_acc is not None:
                    matrix[i, j] = row.mean_acc
                else:
                    errors += 1
        entry: dict = {
            "classifiers": list(classifiers),
            "features": list(features),
            "errors": errors,
        }
        if errors == 0:
            entry["average_accuracy"] = {
                c: float(matrix[:, j].mean()) for j, c in enumerate(classifiers)
            }
            ranks = rank_models(matrix)
            entry["average_ranks"] = {
                c: float(ranks[j]) for j, c in enumerate(classifiers)
            }
        summary["tasks"][task] = entry
    return summary


def results_csv(rows) -> str:
    """Render benchmark rows as the delimited results table.

    Floats use their shortest round-trip representation so identical runs
    produce identical bytes; the timing column is excluded from that
    guarantee by nature.
    """
    header = "task,feature,classifier,mean_acc,fold_accs,params_json,test_time_s,n_runs,error"
    lines = [header]
    for row in rows:
        mean = "" if row.mean_acc is None else repr(float(row.mean_acc))
        folds_field = ";".join(repr(float(a)) for a in row.fold_accs)
        params = json.dumps(row.params, sort_keys=True).replace('"', '""')
        error = "" if row.error is None else row.error.replace('"', '""')
        lines.append(
            f'{row.task},{row.feature},{row.classifier},{mean},"{folds_field}",'
            f'"{params}",{row.test_time_s!r},{row.n_runs},"{error}"'
        )
    return "\n".join(lines) + "\n"
