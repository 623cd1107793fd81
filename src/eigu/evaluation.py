"""Cross-validated evaluation, exhaustive grid search, and the benchmark grid.

Accuracy is reported as the plain mean over stratified folds (one value in
[0, 100] per fold), with prediction wall-clock tracked separately so result
files stay byte-reproducible.  Feature transforms that require fitting
(PCA/ICA) are refit on each fold's training rows only.  ``grid_search`` is
the one grid engine: it runs ``run_cv`` once per grid point, all through
one per-fold store (see ``run_cv``) that keeps each fold's fitted rows, one
basis of them for every Universum size, and its hyperparameter-free
blocks, so no grid point does feature-sized work and the number of CV runs
still equals the grid's size.

``run_benchmark`` runs one job per (task, feature) pair: the job featurizes
the task's rows, makes the folds and runs the pair's classifier cells in
manifest order, all through one such store.  So each fold's extractor is
fit once and its basis built once per pair.  ``--workers`` > 1 runs pairs
in parallel.
"""

from __future__ import annotations

import itertools
import json
import numbers
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .classifiers import (
    CLASSIFIER_AXES,
    DegeneratePlaneError,
    KernelTable,
    SpanFactor,
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
    """One fold's entry in a ``run_cv`` store; see there."""

    train: LabeledDataset
    test_rows: np.ndarray
    test_labels: np.ndarray
    span: SpanFactor | None = None
    projection: np.ndarray | None = None
    table: KernelTable | None = None

    def basis(self, train: LabeledDataset, rbf: bool, counts: Counter):
        """The basis of ``train``, a prefix of this record's rows; built on first use."""
        rows = train.m1 + train.m2 + train.p
        if rbf:
            if self.table is None:
                self.table = kernel_table(self.train, self.test_rows)
                Z, m1, m2 = self.table.Z, self.train.m1, self.train.m1 + self.train.m2
                self.train = LabeledDataset(X1=Z[:m1], X2=Z[m1:m2], U=Z[m2:])  # rows held once
                counts["kernel_tables"] += 1
            return self.table.prefix(rows)
        if train.n + 1 <= rows:
            return None  # narrow linear blocks read the rows themselves
        if self.span is None:
            self.span = span_factor(self.train)
            self.projection = self.span.project(self.test_rows)
            counts["span_factors"] += 1
        return self.span.prefix(rows)


def _fold_records(store: dict, dataset: LabeledDataset, folds: FoldPlan, extractor) -> int:
    """Record every fold ``store`` lacks, over ``dataset``; return the extractor fits made."""
    counts = store.setdefault("counts", Counter())
    fits = counts["feature_fits"]
    for fold in [fold for fold in range(folds.k) if fold not in store]:
        test1, test2 = folds.class1_folds == fold, folds.class2_folds == fold
        train = LabeledDataset(X1=dataset.X1[~test1], X2=dataset.X2[~test2], U=dataset.U)
        test_rows = np.vstack([dataset.X1[test1], dataset.X2[test2]])
        if extractor is not None:
            try:
                fitted, train = fit_labeled(extractor, train)
                test_rows = fitted.transform(test_rows)
            except _FOLD_FAILURES as exc:
                raise FoldTrainingError(f"fold {fold}: {exc}") from exc
            counts["feature_fits"] += 1
        labels = np.repeat([1, -1], [np.count_nonzero(test1), np.count_nonzero(test2)])
        store[fold] = _FoldRecord(train, test_rows, labels)
    return counts["feature_fits"] - fits


def run_cv(
    dataset: LabeledDataset,
    folds: FoldPlan,
    spec: TrainSpec,
    extractor: FeatureConfig | None = None,
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
    points.  Besides a ``"counts"`` tally of feature fits, kernel tables,
    span factors, block builds and block hits, it holds two kinds of entry:

    * key ``fold``, the fold's record, which lives as long as the store.
      It holds the fold's training rows (transformed when an extractor
      runs) with the Universum of the run that made it, its test rows and
      labels, and two bases of the training rows, each built on first use:
      a ``SpanFactor`` plus the test rows projected into it (wide linear
      blocks) and a ``KernelTable`` (rbf blocks).
    * key ``(fold, dataset.p, spec.kernel)``, the hyperparameter-free
      blocks over the record's first ``dataset.p`` Universum rows, built
      from the ``prefix`` of its basis.  ``run_benchmark`` drops them after
      each cell.

    A record serves every smaller Universum as a prefix, and the size names
    the Universum, because every run sharing a store has the same labeled
    rows, ``FoldPlan``, seed and pool, and draws each Universum as that
    seeded prefix of the pool (``subset_universum``, the whole pool too).
    A store may outlive one grid search, as it does across a (task,
    feature) pair's cells, but never those.  ``feature_refits`` reports the
    extractor fits this call made.  An rbf spec with an unset sigma reports
    each fold's resolved bandwidth as ``params["fold_sigmas"]``.
    """
    accuracies = []
    fold_sigmas = []
    predict_seconds = 0.0
    rbf = spec.kernel is not None and spec.kernel.family == "rbf"
    u = dataset.p
    store = {} if cache is None else cache
    counts = store.setdefault("counts", Counter())
    refits = _fold_records(store, dataset, folds, extractor)
    if store[0].train.p < u:
        raise RuntimeError(f"the store's folds hold {store[0].train.p} Universum rows, not {u}")
    for fold in range(folds.k):
        record = store[fold]
        rows = record.train.m1 + record.train.m2 + u
        key = (fold, u, spec.kernel)
        try:
            if key in store:
                counts["block_hits"] += 1
            else:
                train = replace(record.train, U=record.train.U[:u])
                store[key] = build_blocks(train, spec.kernel, record.basis(train, rbf, counts))
                counts["block_builds"] += 1
            blocks = store[key]
            model = train_with_blocks(blocks, spec)
            if rbf:
                fold_sigmas.append(model.hyperparameters["sigma"])
                precomputed = record.table.D_test[:, :rows]
            else:
                precomputed = None if blocks.span is None else record.projection[:, :rows]

            start = time.perf_counter()
            labels = predict(model, record.test_rows, precomputed)
            predict_seconds += time.perf_counter() - start
        except _FOLD_FAILURES as exc:
            raise FoldTrainingError(f"fold {fold}: {exc}") from exc
        accuracies.append(100.0 * float(np.mean(labels == record.test_labels)))
    params = spec.hyperparameters()
    if rbf and spec.kernel.sigma is None:
        params["fold_sigmas"] = fold_sigmas  # each fold's data-driven bandwidth
    return CVReport(
        classifier=spec.classifier,
        k=folds.k,
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        test_time_seconds=predict_seconds,
        params=params,
        seed=folds.seed,
        task=task,
        feature_id=feature_id,
        feature_refits=refits,
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


def grid_search(
    dataset: LabeledDataset,
    folds: FoldPlan,
    classifier: str,
    grid: GridSpec,
    extractor: FeatureConfig | None = None,
    task: str = "",
    feature_id: str = "",
    cache: dict | None = None,
) -> GridSearchResult:
    """Exhaustive sweep over the grid's Cartesian product.

    Points are visited in ascending ``GRID_AXES`` order and a point must
    be strictly better to displace the incumbent, so ties resolve to the
    lexicographically smallest tuple.  When a
    ``universum_size`` axis is present, each u re-draws that many rows
    from the dataset's Universum pool (seeded by the fold plan's seed) and
    the point's report records it as ``params["universum_size"]``.  Every
    point runs ``run_cv`` once, all of them sharing one per-fold store, so
    the number of CV runs performed equals the grid cardinality exactly.
    A store without fold records gets them over the largest Universum
    the grid draws (capped at the pool) before the first point.  ``cache``
    passes in that store (see ``run_cv`` for its entries and what may
    share one); by default the search gets a fresh one.
    """
    _validate_grid(grid, classifier)
    axes = [
        [None] if getattr(grid, name) is None else sorted(getattr(grid, name))
        for name in GRID_AXES
    ]
    subsets: dict = {}
    cache = {} if cache is None else cache
    largest = dataset
    if grid.universum_size is not None:
        largest = subset_universum(dataset, min(max(grid.universum_size), dataset.p), folds.seed)
    _fold_records(cache, largest, folds, extractor)
    specs: list[TrainSpec] = []
    reports: list[CVReport] = []
    best = None
    for point in itertools.product(*axes):
        value = dict(zip(GRID_AXES, point))
        u, sigma = value["universum_size"], value["sigma"]
        weights = {"nu": value["nu"], "gamma1": value["gamma"], "psi1": value["psi"]}
        spec = TrainSpec(
            classifier=classifier,
            delta=value["delta"],
            kernel=None if sigma is None else KernelSpec(family="rbf", sigma=float(sigma)),
            **{name: w for name, w in weights.items() if w is not None},
        )
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
_COUNTER_NAMES = (
    "feature_fits",
    "kernel_tables",
    "span_factors",
    "block_builds",
    "block_hits",
)


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
    """Run a pair's cells through one store; also return its work counts.

    The fold records are built over the largest Universum any cell draws
    (capped at the pool); every block is dropped after its cell.
    """
    dataset, extractor = featurize(job.raw, job.config)
    folds = make_folds(dataset, job.k, job.seed)
    sizes = [
        max(grid.universum_size or (dataset.p,)) if "universum_size" in CLASSIFIER_AXES[c] else 0
        for c, grid in job.cells
    ]
    largest = subset_universum(dataset, min(max(sizes), dataset.p), job.seed)
    store: dict = {"counts": Counter()}
    rows = []
    for classifier, grid in job.cells:
        cell_data = dataset
        if "universum_size" not in CLASSIFIER_AXES[classifier]:
            cell_data = subset_universum(dataset, 0, job.seed)
        cell = (job.task, job.feature, classifier)
        try:
            _fold_records(store, largest, folds, extractor)
            result = grid_search(
                cell_data, folds, classifier, grid,
                extractor=extractor, task=job.task, feature_id=job.feature, cache=store,
            )
        except (FoldTrainingError, ValueError) as exc:
            rows.append(BenchRow(*cell, None, (), {}, 0.0, error=f"{type(exc).__name__}: {exc}"))
        else:
            best = result.best_report
            scores = (best.mean_accuracy, best.fold_accuracies, best.params, best.test_time_seconds)
            rows.append(BenchRow(*cell, *scores, n_runs=result.n_runs))
        for key in [key for key in store if isinstance(key, tuple)]:
            del store[key]  # a block lives one cell
    return rows, store["counts"]


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

    needed_sets = {UNIVERSUM_SET}.union(*(TASKS[task] for task in tasks))
    raw_rows = load_sets(data_root, needed_sets, segment_length)
    pool = min(pool_size, raw_rows[UNIVERSUM_SET].shape[0])
    cells = tuple((classifier, grids[classifier]) for classifier in classifiers)
    jobs = []
    for task in tasks:
        raw_task = assemble_task(task, raw_rows, pool, seed)
        for feature in manifest["features"]:
            config = feature_config_from_id(feature, n_components=n_components, seed=seed)
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
