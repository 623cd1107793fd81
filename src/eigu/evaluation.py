"""Cross-validated evaluation, exhaustive grid search, and the benchmark grid.

Accuracy is reported as the plain mean over stratified folds (one value in
[0, 100] per fold), with prediction wall-clock tracked separately so result
files stay byte-reproducible.  Feature transforms that require fitting
(PCA/ICA) are refit on each fold's training rows only.  ``grid_search`` is
the one grid engine: it runs ``run_cv`` once per grid point and hands every
call the same plain dict, in which each fold's fitted transform and the
hyperparameter-independent blocks are kept across points.  In kernel mode
the dict also keeps one distance table per (fold, Universum size): the
expansion Z and its squared distances to itself and to the test rows,
which every rbf bandwidth reads instead of recomputing.  On wide linear
data it keeps each (fold, Universum size)'s test rows projected once into
the span of the training rows, so no grid point does feature-sized work.
That keeps exhaustive sweeps affordable without changing the number of CV
runs actually performed.

``run_benchmark`` runs one job per (task, feature) pair: the job featurizes
the task's rows, makes the folds and runs the pair's classifier cells in
manifest order, all through one such store.  So each fold's extractor is
fit once and each fold's blocks are built once per pair, not once per
classifier.  ``--workers`` > 1 runs pairs in parallel.
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
    TrainSpec,
    build_blocks,
    kernel_table,
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
    points.  Key ``fold`` holds that fold's fitted transform, its transformed
    training dataset and test rows (extractor runs only); key
    ``(fold, dataset.p, spec.kernel)`` holds the hyperparameter-free blocks;
    key ``(fold, dataset.p)`` holds the fold's ``KernelTable`` (rbf runs
    only), which every bandwidth's blocks and predictions at that Universum
    size read; key ``(fold, dataset.p, "span")`` holds the fold's test rows
    projected once through the Householder reflectors of wide linear
    blocks (``SpanFactor.project``), from which every grid point at that
    Universum size predicts; key ``"counts"`` tallies feature fits, kernel
    tables, span projections, block builds and block hits.
    The Universum size names the Universum only because every run sharing
    a store has the same labeled rows, ``FoldPlan``, seed and Universum
    pool, and draws each Universum as that seeded prefix of the pool
    (``subset_universum``).  A store may outlive one grid search, as it does
    across a (task, feature) pair's cells, but never those.  On a block hit
    only the fold's test rows are sliced.  ``feature_refits`` reports the
    extractor fits this call made, not the ones it found in the store.  An
    rbf spec with an unset sigma reports each fold's resolved bandwidth as
    ``params["fold_sigmas"]``.
    """
    accuracies = []
    fold_sigmas = []
    predict_seconds = 0.0
    refits = 0
    rbf = spec.kernel is not None and spec.kernel.family == "rbf"
    for fold in range(folds.k):
        store = {} if cache is None else cache  # uncached: nothing outlives the fold
        counts = store.setdefault("counts", Counter())
        test1 = folds.class1_folds == fold
        test2 = folds.class2_folds == fold
        test_labels = np.repeat([1, -1], [np.count_nonzero(test1), np.count_nonzero(test2)])
        try:
            if extractor is None:
                test_rows = np.vstack([dataset.X1[test1], dataset.X2[test2]])
            else:
                if fold not in store:
                    fold_train = LabeledDataset(
                        X1=dataset.X1[~test1], X2=dataset.X2[~test2], U=dataset.U
                    )
                    fitted, fold_train = fit_labeled(extractor, fold_train)
                    test_raw = np.vstack([dataset.X1[test1], dataset.X2[test2]])
                    store[fold] = fitted, fold_train, fitted.transform(test_raw)
                    counts["feature_fits"] += 1
                    refits += 1
                fitted, fold_train, test_rows = store[fold]
            key = (fold, dataset.p, spec.kernel)
            table_key = (fold, dataset.p)
            span_key = (fold, dataset.p, "span")
            if key in store:
                counts["block_hits"] += 1
            else:
                if extractor is None:
                    fold_data = LabeledDataset(
                        X1=dataset.X1[~test1], X2=dataset.X2[~test2], U=dataset.U
                    )
                elif fold_train.p == dataset.p:  # the Universum the fold was fit with
                    fold_data = fold_train
                else:
                    fold_data = replace(fold_train, U=fitted.transform(dataset.U))
                if rbf and table_key not in store:
                    store[table_key] = kernel_table(fold_data, test_rows)
                    counts["kernel_tables"] += 1
                table = store[table_key] if rbf else None
                store[key] = build_blocks(fold_data, spec.kernel, table)
                counts["block_builds"] += 1
                if store[key].span is not None:
                    store[span_key] = store[key].span.project(test_rows)
                    counts["span_projections"] += 1
            model = train_with_blocks(store[key], spec)
            if rbf:
                fold_sigmas.append(model.hyperparameters["sigma"])
            precomputed = store[table_key].D_test if rbf else store.get(span_key)

            start = time.perf_counter()
            labels = predict(model, test_rows, precomputed)
            predict_seconds += time.perf_counter() - start
        except _FOLD_FAILURES as exc:
            raise FoldTrainingError(f"fold {fold}: {exc}") from exc
        accuracies.append(100.0 * float(np.mean(labels == test_labels)))
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


def _kernel(sigma: float | None) -> KernelSpec | None:
    """The kernel of one grid point's ``sigma`` (None: linear)."""
    return None if sigma is None else KernelSpec(family="rbf", sigma=float(sigma))


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
    ``cache`` passes in that store (see ``run_cv`` for what may share one);
    by default the search gets a fresh one.
    """
    _validate_grid(grid, classifier)
    axes = [
        [None] if getattr(grid, name) is None else sorted(getattr(grid, name))
        for name in GRID_AXES
    ]
    subsets: dict = {}
    cache = {} if cache is None else cache
    specs: list[TrainSpec] = []
    reports: list[CVReport] = []
    best = None
    for point in itertools.product(*axes):
        value = dict(zip(GRID_AXES, point))
        u = value["universum_size"]
        weights = {"nu": value["nu"], "gamma1": value["gamma"], "psi1": value["psi"]}
        spec = TrainSpec(
            classifier=classifier,
            delta=value["delta"],
            kernel=_kernel(value["sigma"]),
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
    "span_projections",
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


def _block_keys(classifier: str, grid: GridSpec, pool: int) -> set:
    """The (Universum size, kernel) pairs of the blocks a cell's grid can reach."""
    if "universum_size" not in CLASSIFIER_AXES[classifier]:
        sizes = (0,)
    else:
        sizes = grid.universum_size or (pool,)
    return set(itertools.product(sizes, map(_kernel, grid.sigma or (None,))))


def _run_pair(job: _PairJob) -> tuple[list[BenchRow], Counter]:
    """Run a pair's cells through one store; also return its work counts.

    After each cell the store drops every block no later cell can reach,
    every kernel table at a Universum size where no later cell has an rbf
    sigma, and every test-row projection at a Universum size where no
    later cell has a linear block, so it never holds more than the cells
    that still need it.
    """
    dataset, extractor = featurize(job.raw, job.config)
    folds = make_folds(dataset, job.k, job.seed)
    store: dict = {"counts": Counter()}
    rows = []
    for i, (classifier, grid) in enumerate(job.cells):
        cell_data = dataset
        if "universum_size" not in CLASSIFIER_AXES[classifier]:
            cell_data = subset_universum(dataset, 0, job.seed)
        row = BenchRow(
            task=job.task,
            feature=job.feature,
            classifier=classifier,
            mean_acc=None,
            fold_accs=(),
            params={},
            test_time_s=0.0,
        )
        try:
            result = grid_search(
                cell_data,
                folds,
                classifier,
                grid,
                extractor=extractor,
                task=job.task,
                feature_id=job.feature,
                cache=store,
            )
        except (FoldTrainingError, ValueError) as exc:
            rows.append(replace(row, error=f"{type(exc).__name__}: {exc}"))
        else:
            best = result.best_report
            rows.append(
                replace(
                    row,
                    mean_acc=best.mean_accuracy,
                    fold_accs=best.fold_accuracies,
                    params=best.params,
                    test_time_s=best.test_time_seconds,
                    n_runs=result.n_runs,
                )
            )
        reachable = set().union(
            *(_block_keys(c, g, dataset.p) for c, g in job.cells[i + 1 :])
        )
        # a block key is (fold, u, kernel), a table key (fold, u), a projection key
        # (fold, u, "span"); tables serve rbf blocks, projections linear ones
        reachable |= {(u,) if kernel is not None else (u, "span") for u, kernel in reachable}
        for key in [k for k in store if isinstance(k, tuple) and k[1:] not in reachable]:
            del store[key]
    return rows, store["counts"]


def _manifest_value(manifest: dict, key: str, default):
    value = manifest.get(key, default)
    if value is None:
        return default
    return value


def run_benchmark(manifest: dict, workers: int | None = None) -> BenchmarkResult:
    """Run every (task, feature, classifier) cell described by a manifest.

    The unit of work is a (task, feature) pair (see the module docstring);
    ``workers`` > 1 runs pairs in parallel processes.  ``counters`` sums
    each pair's feature fits, kernel tables, span projections, block builds
    and block hits.

    The manifest carries ``tasks``, ``features``, ``classifiers``,
    per-classifier ``grids``, a ``data_root`` holding the set directories,
    and a ``seed``; optional keys tune ``folds`` (default 5),
    ``universum_pool`` (default 100), ``segment_length`` (default 4096),
    ``n_components`` (default 32), and ``workers``.  A malformed manifest
    raises before any data is read; cell failures are recorded in their
    row and do not abort the run.  Identical
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
