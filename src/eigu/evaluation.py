"""Cross-validated evaluation, exhaustive grid search, and the benchmark grid.

Accuracy is reported as the plain mean over stratified folds (one value in
[0, 100] per fold), with prediction wall-clock tracked separately so result
files stay byte-reproducible.  Feature transforms that require fitting
(PCA/ICA) are refit on each fold's training rows only.

There is one grid engine, ``_run_cells``.  It runs cells -- a classifier's
grid points each -- fold by fold: it builds a fold's record (extractor
fit, training and test rows, and on first use a basis whose prefixes serve
every Universum size: a span factor for wide linear data, a kernel table
for rbf, each holding what ``predict`` reads of the test rows), runs every
cell's points on it and drops it before the next fold.  So each fold's
extractor is fit and basis built once, and one fold is alive at a time.
``grid_search`` is the engine on one cell, ``run_cv`` on one point, and
``run_benchmark`` runs it once per (task, feature) pair, on all the pair's
cells in manifest order; ``--workers`` > 1 runs pairs in parallel.
"""

from __future__ import annotations

import itertools
import json
import numbers
import time
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifiers import (
    CLASSIFIER_AXES,
    DegeneratePlaneError,
    TrainSpec,
    build_blocks,
    kernel_table,
    predict,
    span_factor,
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
from .features import (
    FeatureConfig,
    FittedFeatures,
    dwt_features,
    feature_config_from_id,
    fit_features,
)
from .kernels import KernelSpec
from .stats import rank_models

__all__ = [
    "BenchRow",
    "BenchmarkResult",
    "CVReport",
    "DECADE_GRID",
    "FoldTrainingError",
    "GRID_AXES",
    "GridSearchResult",
    "GridSpec",
    "SIGMA_GRID",
    "UNIVERSUM_GRID",
    "featurize",
    "fit_labeled",
    "grid_search",
    "load_sets",
    "parse_grid",
    "results_csv",
    "run_benchmark",
    "run_cv",
]

#: The sweep ranges used throughout: powers of ten, powers of two, and
#: Universum sizes in steps of ten.
DECADE_GRID = tuple(10.0**e for e in range(-5, 6))
SIGMA_GRID = tuple(2.0**e for e in range(-5, 6))
UNIVERSUM_GRID = tuple(range(10, 101, 10))

#: Every grid axis, in the order ``grid_search`` visits them.
GRID_AXES = ("delta", "nu", "gamma", "psi", "sigma", "universum_size")


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


def load_sets(root: Path, labels, segment_length: int) -> dict[str, np.ndarray]:
    """Each named set's recordings as rows cut to ``segment_length``, by set label."""
    return {
        label: truncate_recordings(load_bonn_set(root / label, label), segment_length)
        for label in sorted(labels)
    }


def featurize(
    dataset: LabeledDataset, config: FeatureConfig
) -> tuple[LabeledDataset, FeatureConfig | None]:
    """Apply ``config`` to raw rows: ``(dataset, extractor)`` for ``run_cv``.

    A wavelet needs no fit, so it transforms every row up front and no
    extractor is left.  PCA/ICA rows stay raw and ``config`` comes back as
    the extractor ``run_cv`` fits on each training fold.
    """
    if config.method != "dwt":
        return dataset, config

    def transform(rows: np.ndarray) -> np.ndarray:
        if rows.shape[0] == 0:
            return rows  # an empty Universum stays a (0, n) block
        return np.vstack([dwt_features(r, config.wavelet) for r in rows])

    transformed = LabeledDataset(
        X1=transform(dataset.X1), X2=transform(dataset.X2), U=transform(dataset.U)
    )
    return transformed, None


def fit_labeled(
    config: FeatureConfig, dataset: LabeledDataset
) -> tuple[FittedFeatures, LabeledDataset]:
    """Fit ``config`` on the labeled rows (X1 as +1, X2 as -1); transform X1, X2 and U."""
    labels = np.repeat([1, -1], [dataset.m1, dataset.m2])
    fitted = fit_features(config, np.vstack([dataset.X1, dataset.X2]), labels)
    transformed = LabeledDataset(
        X1=fitted.transform(dataset.X1),
        X2=fitted.transform(dataset.X2),
        U=fitted.transform(dataset.U),
    )
    return fitted, transformed


@dataclass
class _FoldRecord:
    """One fold of a grid engine run: its rows, and what is built from them on first use."""

    fold: int
    train: LabeledDataset
    test_rows: np.ndarray
    test_labels: np.ndarray
    counts: Counter  # the run's work counts
    bases: dict = field(default_factory=dict)  # rbf? -> the kernel table or span factor
    prefixes: dict = field(default_factory=dict)  # u -> training set with U[:u]

    def prefix(self, u: int) -> LabeledDataset:
        """The training set with the Universum's first ``u`` rows, built once per u."""
        if u not in self.prefixes:
            self.prefixes[u] = replace(self.train, U=self.train.U[:u])
        return self.prefixes[u]

    def basis(self, u: int, rbf: bool):
        """The basis of ``prefix(u)``, a prefix of this record's; built on first use."""
        rows = self.train.m1 + self.train.m2 + u
        if not rbf and self.train.n + 1 <= rows:
            return None  # narrow linear blocks read the rows themselves
        if rbf not in self.bases:
            self.bases[rbf] = (kernel_table if rbf else span_factor)(self.train, self.test_rows)
            self.counts["kernel_tables" if rbf else "span_factors"] += 1
            if rbf:
                Z, m1, m2 = self.bases[rbf].Z, self.train.m1, self.train.m1 + self.train.m2
                self.train = LabeledDataset(X1=Z[:m1], X2=Z[m1:m2], U=Z[m2:])  # rows held once
                self.prefixes.clear()  # they hold the rows just replaced
        return self.bases[rbf].prefix(rows)


def _fold_record(dataset: LabeledDataset, folds: FoldPlan, fold: int, extractor, counts):
    """Fold ``fold`` of ``dataset``, through an extractor fit on its training rows."""
    test1, test2 = folds.class1_folds == fold, folds.class2_folds == fold
    train = LabeledDataset(X1=dataset.X1[~test1], X2=dataset.X2[~test2], U=dataset.U)
    test_rows = np.vstack([dataset.X1[test1], dataset.X2[test2]])
    try:
        if extractor is not None:
            fitted, train = fit_labeled(extractor, train)
            test_rows = fitted.transform(test_rows)
            counts["feature_fits"] += 1
        if not np.all(np.isfinite(test_rows)):  # checked once, not by every predict
            raise ValueError("test rows contain non-finite values")
    except _FOLD_FAILURES as exc:
        raise FoldTrainingError(f"fold {fold}: {exc}") from exc
    labels = np.repeat([1, -1], [np.count_nonzero(test1), np.count_nonzero(test2)])
    return _FoldRecord(fold, train, test_rows, labels, counts)


def _fold_score(spec: TrainSpec, record: _FoldRecord, u: int, blocks: dict) -> tuple:
    """One fold's accuracy, predict seconds and rbf bandwidth for ``spec`` at Universum size u."""
    rbf = spec.kernel is not None and spec.kernel.family == "rbf"
    key = (u, spec.kernel)
    try:
        if key in blocks:
            record.counts["block_hits"] += 1
        else:
            basis = record.basis(u, rbf)  # first: building a kernel table re-homes the rows
            blocks[key] = build_blocks(record.prefix(u), spec.kernel, basis)
            record.counts["block_builds"] += 1
        model = train_with_blocks(blocks[key], spec)
        basis = blocks[key].basis
        start = time.perf_counter()
        labels = predict(model, record.test_rows, None if basis is None else basis.precomputed)
        seconds = time.perf_counter() - start
    except _FOLD_FAILURES as exc:
        raise FoldTrainingError(f"fold {record.fold}: {exc}") from exc
    sigma = model.hyperparameters["sigma"] if rbf else None
    return 100.0 * float(np.mean(labels == record.test_labels)), seconds, sigma


@dataclass
class _Cell:
    """A classifier's points in visit order, each ``(spec, u, report params, fold scores)``."""

    classifier: str
    points: list
    failure: tuple | None = None  # (index, error) of the first failing point

    def run_fold(self, record: _FoldRecord) -> None:
        """Score, in visit order, every point before the first failing one on one fold."""
        blocks: dict = {}  # the hyperparameter-free blocks per (u, kernel) of this fold
        live = len(self.points) if self.failure is None else self.failure[0]
        for index, (spec, u, _, scores) in enumerate(self.points[:live]):
            try:
                scores.append(run_cv(None, None, spec, _fold=(record, u, blocks)))
            except FoldTrainingError as exc:
                for error in (exc, exc.__cause__):
                    traceback.clear_frames(error.__traceback__)  # so it holds no fold alive
                self.failure = (index, exc)
                return

    def result(self, folds: FoldPlan, task: str, feature_id: str) -> GridSearchResult:
        """The search's result after the last fold; raises the error that fails it."""
        if self.failure is not None:
            raise self.failure[1]
        reports = []
        for spec, _, extra, scores in self.points:
            accuracies, seconds, sigmas = zip(*scores)
            params = spec.hyperparameters()
            if spec.kernel and spec.kernel.family == "rbf" and spec.kernel.sigma is None:
                params["fold_sigmas"] = list(sigmas)  # each fold's data-driven bandwidth
            mean = float(np.mean(accuracies))
            reports.append(CVReport(spec.classifier, folds.k, accuracies, mean, sum(seconds),
                                    {**params, **extra}, folds.seed, task, feature_id))
        # the first best point wins: a later one must be strictly better
        best = max(range(len(reports)), key=lambda index: reports[index].mean_accuracy)
        return GridSearchResult(self.points[best][0], reports[best], tuple(reports))


def _run_cells(dataset: LabeledDataset, folds: FoldPlan, extractor, cells: list) -> Counter:
    """The grid engine (see the module docstring); returns its work counts.

    ``dataset`` carries the largest Universum any cell draws; a point
    trains on its first ``u`` rows, as every draw is a seeded prefix of one
    pool (``subset_universum``).  A cell's fold runs through ``grid_search``
    and a point's through ``run_cv``, handed the fold as ``_fold``, so the
    perfbench spans around those two bindings keep timing that work.
    """
    counts: Counter = Counter()
    for fold in range(folds.k):
        try:
            record = _fold_record(dataset, folds, fold, extractor, counts)
        except FoldTrainingError as exc:
            for cell in cells:
                cell.failure = (0, exc)
            break
        for cell in cells:
            grid_search(None, None, cell.classifier, None, _fold=(record, cell))
        del record  # freed, with its blocks, before the next fold's record is built
    return counts


def run_cv(
    dataset: LabeledDataset,
    folds: FoldPlan,
    spec: TrainSpec,
    extractor: FeatureConfig | None = None,
    task: str = "",
    feature_id: str = "",
    *,
    _fold: tuple | None = None,
) -> CVReport:
    """Stratified k-fold evaluation of one hyperparameter setting.

    When ``extractor`` is given the dataset rows are treated as raw inputs:
    the transform is fit per fold on that fold's labeled training rows only
    and applied to training, Universum, and test rows alike.  Universum
    rows join every training split and no test split.  This is the grid
    engine on one point; ``feature_refits`` reports its extractor fits.
    An rbf spec with an unset sigma reports each fold's resolved bandwidth
    as ``params["fold_sigmas"]``.  The engine's ``_fold`` scores one fold.
    """
    if _fold is not None:
        return _fold_score(spec, *_fold)
    cell = _Cell(spec.classifier, [(spec, dataset.p, {}, [])])
    counts = _run_cells(dataset, folds, extractor, [cell])
    best = cell.result(folds, task, feature_id).best_report
    return replace(best, feature_refits=counts["feature_fits"])


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
        for name in GRID_AXES:
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
        for name in GRID_AXES:
            values = getattr(self, name)
            total *= len(values) if values is not None else 1
        return total


def parse_grid(payload: dict) -> GridSpec:
    """Build a GridSpec from a JSON-style dict of value lists."""
    unknown = set(payload) - set(GRID_AXES)
    if unknown:
        raise ValueError(f"unknown grid axes: {sorted(unknown)}")
    return GridSpec(**payload)


def _validate_grid(grid: GridSpec, classifier: str) -> None:
    if classifier not in CLASSIFIER_AXES:
        raise ValueError(f"unknown classifier {classifier!r}")
    if grid.delta is None:
        raise ValueError(f"{classifier} grid needs a delta axis")
    consumed = CLASSIFIER_AXES[classifier]
    for name in consumed:
        if name != "universum_size" and getattr(grid, name) is None:
            raise ValueError(f"{classifier} grid needs a {name} axis")
    for name in GRID_AXES:
        if name not in ("delta", "sigma", *consumed) and getattr(grid, name) is not None:
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


def _grid_cell(classifier: str, grid: GridSpec, pool: int) -> _Cell:
    """``grid`` as an engine cell; a point with no ``universum_size`` draws the whole ``pool``."""
    axes = [sorted(getattr(grid, name) or [None]) for name in GRID_AXES]
    cell = _Cell(classifier, [])
    for point in itertools.product(*axes):
        value = dict(zip(GRID_AXES, point))
        u, sigma = value["universum_size"], value["sigma"]
        weights = {"nu": value["nu"], "gamma1": value["gamma"], "psi1": value["psi"]}
        weights = {name: w for name, w in weights.items() if w is not None}
        try:
            kernel = None if sigma is None else KernelSpec(family="rbf", sigma=float(sigma))
            spec = TrainSpec(classifier=classifier, delta=value["delta"], kernel=kernel, **weights)
            if u is not None and u > pool:  # the draw subset_universum refuses
                raise ValueError(f"universum_size {u} exceeds the {pool} pooled rows")
        except ValueError as exc:
            cell.failure = (len(cell.points), exc)  # no later point can matter
            return cell
        extra = {} if u is None else {"universum_size": u}
        cell.points.append((spec, pool if u is None else u, extra, []))
    return cell


def grid_search(
    dataset: LabeledDataset,
    folds: FoldPlan,
    classifier: str,
    grid: GridSpec,
    extractor: FeatureConfig | None = None,
    task: str = "",
    feature_id: str = "",
    *,
    _fold: tuple | None = None,
) -> GridSearchResult:
    """Exhaustive sweep over the grid's Cartesian product.

    Points are visited in ascending ``GRID_AXES`` order and a point must
    be strictly better to displace the incumbent, so ties resolve to the
    lexicographically smallest tuple.  When a ``universum_size`` axis is
    present, each u re-draws that many rows from the dataset's Universum
    pool (seeded by the fold plan's seed) and the point's report records
    it as ``params["universum_size"]``.  This is the grid engine on one
    cell, so the number of CV runs equals the grid cardinality exactly.
    It raises the error of its first failing point in visit order, at
    that point's lowest failing fold; an extractor failure comes first.
    The engine's ``_fold`` runs the cell on one fold.
    """
    if _fold is not None:
        record, cell = _fold
        return cell.run_fold(record)
    _validate_grid(grid, classifier)
    largest = dataset
    if grid.universum_size is not None:
        largest = subset_universum(dataset, min(max(grid.universum_size), dataset.p), folds.seed)
    cell = _grid_cell(classifier, grid, dataset.p)
    _run_cells(largest, folds, extractor, [cell])
    return cell.result(folds, task, feature_id)


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


#: The per-pair work counts ``run_benchmark`` reports, summed over pairs.
_COUNTER_NAMES = ("feature_fits", "kernel_tables", "span_factors", "block_builds", "block_hits")


@dataclass(frozen=True)
class BenchmarkResult:
    rows: tuple[BenchRow, ...]
    summary: dict
    counters: dict


@dataclass(frozen=True)
class _PairJob:
    """One (task, feature) pair: its raw rows and its cells in manifest order."""

    task: str
    feature: str
    raw: LabeledDataset
    config: FeatureConfig
    k: int
    seed: int
    cells: tuple[tuple[str, GridSpec], ...]


def _run_pair(job: _PairJob) -> tuple[list[BenchRow], Counter]:
    """Run a pair's cells together through the grid engine; also return its work counts.

    The fold records carry the largest Universum any cell draws (capped
    at the pool).  A classifier that consumes no Universum trains without
    one.
    """
    dataset, extractor = featurize(job.raw, job.config)
    folds = make_folds(dataset, job.k, job.seed)
    pools = [dataset.p if "universum_size" in CLASSIFIER_AXES[c] else 0 for c, _ in job.cells]
    cells = [_grid_cell(c, grid, pool) for (c, grid), pool in zip(job.cells, pools)]
    size = max(max(grid.universum_size or (pool,)) for (_, grid), pool in zip(job.cells, pools))
    largest = subset_universum(dataset, min(size, dataset.p), job.seed)
    counts = _run_cells(largest, folds, extractor, cells)
    rows = []
    for cell in cells:
        key = (job.task, job.feature, cell.classifier)
        try:
            best = cell.result(folds, job.task, job.feature)
        except (FoldTrainingError, ValueError) as exc:
            rows.append(BenchRow(*key, None, (), {}, 0.0, error=f"{type(exc).__name__}: {exc}"))
        else:
            report = best.best_report
            scores = (report.mean_accuracy, report.fold_accuracies, report.params)
            rows.append(BenchRow(*key, *scores, report.test_time_seconds, n_runs=best.n_runs))
    return rows, counts


def _manifest_value(manifest: dict, key: str, default):
    value = manifest.get(key)
    return default if value is None else value


#: The manifest's integer settings: key -> (default, smallest value allowed).
_INT_SETTINGS = dict(
    folds=(5, 2), universum_pool=(100, 0), segment_length=(4096, 1),
    n_components=(32, 1), workers=(1, 1),
)


def run_benchmark(manifest: dict, workers: int | None = None) -> BenchmarkResult:
    """Run every (task, feature, classifier) cell described by a manifest.

    The unit of work is a (task, feature) pair (see the module docstring);
    ``workers`` > 1 runs pairs in parallel processes.  ``counters`` sums
    each pair's feature fits, kernel tables, span factors, block builds
    and block hits.

    The manifest carries ``tasks``, ``features``, ``classifiers``,
    per-classifier ``grids``, a ``data_root`` holding the set directories,
    and a ``seed``; optional keys tune ``folds`` (default 5),
    ``universum_pool`` (default 100), ``segment_length`` (default 4096),
    ``n_components`` (default 32), and ``workers`` (default 1; the
    argument overrides it).  A malformed manifest, including an integer
    setting below its smallest value (``folds`` 2, ``universum_pool`` 0,
    the others 1), raises before any data is read; cell failures are
    recorded in their row and do not abort the run.  Identical manifests
    yield identical accuracy cells regardless of worker count.
    """
    for key in ("tasks", "features", "classifiers", "grids", "data_root"):
        if key not in manifest:
            raise ValueError(f"manifest is missing {key!r}")
    data_root = Path(manifest["data_root"])
    if not data_root.is_dir():
        raise FileNotFoundError(f"data root not found: {data_root}")
    seed = int(_manifest_value(manifest, "seed", 0))
    settings = {k: int(_manifest_value(manifest, k, d)) for k, (d, _) in _INT_SETTINGS.items()}
    if workers is not None:
        settings["workers"] = workers
    for key, (_, smallest) in _INT_SETTINGS.items():
        if settings[key] < smallest:
            raise ValueError(f"{key} must be >= {smallest}, got {settings[key]}")
    k, pool_size, segment_length, n_components, workers = settings.values()

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
        _validate_grid(grids[name], name)
    features = [
        (feature, feature_config_from_id(feature, n_components=n_components, seed=seed))
        for feature in manifest["features"]
    ]

    needed_sets = {UNIVERSUM_SET}.union(*(TASKS[task] for task in tasks))
    raw_rows = load_sets(data_root, needed_sets, segment_length)
    pool = min(pool_size, raw_rows[UNIVERSUM_SET].shape[0])
    cells = tuple((classifier, grids[classifier]) for classifier in classifiers)
    jobs = []
    for task in tasks:
        raw_task = assemble_task(task, raw_rows, pool, seed)
        for feature, config in features:
            jobs.append(_PairJob(task, feature, raw_task, config, k, seed, cells))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            results = list(pool_exec.map(_run_pair, jobs))
    else:
        results = [_run_pair(job) for job in jobs]
    rows = tuple(row for pair_rows, _ in results for row in pair_rows)
    totals = sum((counts for _, counts in results), Counter())
    counters = {name: totals[name] for name in _COUNTER_NAMES}

    summary = _summarize(rows, tasks, manifest["features"], classifiers)
    return BenchmarkResult(rows=rows, summary=summary, counters=counters)


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
