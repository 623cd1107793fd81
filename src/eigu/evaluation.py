"""Cross-validated evaluation, exhaustive grid search, and the benchmark grid.

Accuracy is reported as the plain mean over stratified folds (one value in
[0, 100] per fold).  Results carry no timings, so result files stay
byte-reproducible.

There is one grid engine, ``_run_cells``, and it alone decides which rows
a (task, feature, classifier, point) trains on.  It runs cells -- a
classifier's grid points each -- for one or more features of one raw
dataset, on the rows ``_prepared`` makes of it: the Universum cut to the
most rows any cell asks for (a classifier without a ``universum_size``
axis asks for none) and every row put through a wavelet, if one is
given.  The engine goes fold by fold.  On each fold it builds one record
per feature: the extractor fit, the training rows (indices into the
rows, or the fit's own), the test rows, and on first use a basis whose
prefixes serve every Universum size (a span factor for wide linear data,
a kernel table for rbf, each gathering the training rows into its own
buffer and holding the test rows' span coordinates or distances to Z;
a fold whose every sheet is on its span factor then keeps only its test
rows' count).
PCA and ICA both start from the PCA of the fold's training rows, ICA as
its whitening, so a fold fits that basis once for all its fitted features.
The engine then runs each record a *sheet* at a time: a sheet is every
point, of any cell, that shares one (Universum size, kernel) and so one
set of blocks, and an rbf sheet is known by its kernel values (K_ZZ and
the test rows' kernel rows), not by its bandwidth.  Where those equal an
earlier rbf sheet's bit for bit at the same fold and Universum size, a
point that matches one scored there but for sigma takes its fold result,
its accuracy or its error, and reports its own sigma.  The engine builds
a sheet's blocks unless every point has such a result, scores each
cell's points in visit order on the test coordinates the sheet holds,
and drops the blocks before the next sheet; the fold is dropped before
the next fold.  So each fold's extractors are fit and bases built once,
each distinct sheet's blocks at most once per fold, and alive at once
are a job's rows, one fold's gathered buffer, bases and distinct rbf
kernel values, and one sheet's blocks.  ``grid_search`` is the engine
on one cell, ``run_cv`` on one point, and ``run_benchmark`` runs it
once per job: a task's fitted features are one job, run first, and its
wavelet features another, which frees the task's raw rows once it has
transformed them.  Each ``dwt_*`` feature is an orthonormal map of the
raw rows that keeps every coefficient, and every classifier gives the
same models under such a map, so a wavelet job scores its cells once,
in the coordinates of the first wavelet the manifest lists, and writes
the result under each wavelet.  It does not score raw rows: those differ
from any wavelet's coordinates in rounding, which moves rounding-fragile
ugepsvm folds.  ``--workers`` > 1 runs jobs in parallel; rows come out
in manifest order either way.

Each array is checked once, where it is made.  The raw rows and a
wavelet's rows are checked as they become a ``LabeledDataset``; a fold's
gathered rows, the Universum draw and each sheet's Universum prefix are
cut from them unscanned.  A fold's
first PCA fit scans its training rows, and the fits on its basis do not
again.  ``fit_labeled``'s new rows (X1 and X2 the fit's own scores, U
transformed) are checked as its new dataset, and a record's test rows
once, after their transform.  A sheet's blocks, and ugepsvm's
denominators, are checked when they are built (``ProblemBlocks``), so
its solves scan only each numerator's entries.

Every entry point that reads recordings (``run_benchmark``, and the
command line's ``cv`` and ``ingest``) gets its raw rows from
``load_tasks``.  It reads each set the tasks need once, reads set N only
for a positive Universum pool, and caps that pool at N's recording
count, so a run and its ``eigu cv`` replay draw the same pool.  The pool
asked for follows ``universum_rows``: none when no classifier of the run
trains on a Universum.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifiers import (
    CLASSIFIER_AXES,
    DegeneratePlaneError,
    ProblemBlocks,
    TrainSpec,
    _training_rows,
    build_blocks,
    kernel_table,
    kernel_values,
    predict,
    span_factor,
    train_with_blocks,
    universum_rows,
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
    PCABasis,
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
    "load_tasks",
    "parse_grid",
    "points_csv",
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
    """Per-fold accuracies and their mean for one TrainSpec; no timing, so reruns are equal."""

    classifier: str
    k: int
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
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


def load_tasks(
    root: str | Path, tasks: list[str], pool: int, segment_length: int, seed: int
) -> dict[str, LabeledDataset]:
    """Each task's raw rows, cut to ``segment_length``, by task name.

    Each set the tasks need is read once.  Set N is read only for a
    positive ``pool``, and the Universum pool is at most ``pool`` of its
    rows (all of N when it holds fewer), drawn by ``assemble_task``.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"data root not found: {root}")
    labels = {label for task in tasks for label in TASKS[task]}
    if pool > 0:
        labels.add(UNIVERSUM_SET)
    rows = {
        label: truncate_recordings(load_bonn_set(root / label, label), segment_length)
        for label in sorted(labels)
    }
    pool = min(pool, len(rows.get(UNIVERSUM_SET, ())))
    return {task: assemble_task(task, rows, pool, seed) for task in tasks}


def featurize(
    dataset: LabeledDataset, config: FeatureConfig | None
) -> tuple[LabeledDataset, FeatureConfig | None]:
    """Apply ``config`` to raw rows: ``(dataset, extractor)`` for the grid engine.

    A wavelet needs no fit, so it transforms every row up front (into one
    array, which X1, X2 and U view) and no extractor is left.  Otherwise
    the rows stay raw and ``config`` (None for rows used as they are) comes
    back as the extractor the engine fits on each training fold.
    """
    if config is None or config.method != "dwt":
        return dataset, config
    rows = np.empty((dataset.m1 + dataset.m2 + dataset.p, dataset.n))
    for i, row in enumerate(itertools.chain(dataset.X1, dataset.X2, dataset.U)):
        rows[i] = dwt_features(row, config.wavelet)
    return LabeledDataset(*np.split(rows, [dataset.m1, dataset.m1 + dataset.m2])), None


def fit_labeled(
    config: FeatureConfig | None,
    dataset: LabeledDataset,
    pca: PCABasis | None = None,
    rows: np.ndarray | None = None,
) -> tuple[FittedFeatures | None, LabeledDataset]:
    """Apply ``config`` to X1, X2 and U: a PCA/ICA fit on the labeled rows (X1 as +1, X2 as -1).

    A wavelet (or no config) fits nothing: it is applied through
    ``featurize`` and comes back with None for the fit.  ``pca`` is passed
    on to ``fit_features``: the labeled rows' PCA basis, if known.
    ``rows`` is ``np.vstack([X1, X2])`` if already stacked; every fit on a
    fold reads one such array.  The dataset's rows are checked, so the fit
    does not scan them again, and X1 and X2 come out as the fit's own
    scores of them; U is transformed.
    """
    dataset, config = featurize(dataset, config)
    if config is None:
        return None, dataset
    labels = np.repeat([1, -1], [dataset.m1, dataset.m2])
    if rows is None:
        rows = np.vstack([dataset.X1, dataset.X2])
    fitted = fit_features(config, rows, labels, pca, checked=True)
    X1, X2 = fitted.train_scores[: dataset.m1], fitted.train_scores[dataset.m1 :]
    return fitted, LabeledDataset(X1=X1, X2=X2, U=fitted.transform(dataset.U))


@dataclass
class _FoldRecord:
    """One fold of a grid engine run: its rows, and the bases built from them on first use."""

    fold: int
    rows: LabeledDataset  # a fit's, or the job's rows every fold shares
    keep: tuple | None  # the training rows of X1 and X2 among those (see span_factor); None: all
    test_rows: np.ndarray
    test_labels: np.ndarray
    counts: Counter  # the run's work counts
    bases: dict = field(default_factory=dict)  # rbf? -> the kernel table or span factor
    seen: dict = field(default_factory=dict)  # u -> [(K_ZZ, test kernel rows, results)]
    span_only: bool = False  # every sheet is on the span factor, the test rows' one reader

    def spans(self, u: int, kernel: KernelSpec | None) -> bool:
        """Whether sheet (u, kernel) is linear on fewer rows than columns, so on the span factor."""
        if kernel is not None and kernel.family == "rbf":
            return False
        m1, m2 = (self.rows.m1, self.rows.m2) if self.keep is None else map(len, self.keep)
        return m1 + m2 + u < self.rows.n + 1

    def sheet(self, u: int, kernel: KernelSpec | None, keys: list) -> tuple:
        """Sheet (u, kernel) of points keyed ``keys``: ``(blocks, coords, rbf sigma, results)``.

        The blocks are on the Universum's first ``u`` rows and a basis
        prefix, and ``coords`` are ``predict``'s test coordinates in their
        basis: the test rows, the prefix's ``precomputed`` or the test
        kernel rows ``kernel_values`` made.  ``results`` maps a point's
        key (``_Cell.keys``) to its fold result; an rbf sheet shares them
        with the earlier one at ``u`` whose kernel values are bitwise
        equal, and builds no blocks (None) if every point has a result
        there.  On a ``span_only`` record, once the span factor holds the
        test rows' coordinates, the rows give way to a zero-width
        placeholder of their count: scoring reads no more of them.
        """
        rbf = kernel is not None and kernel.family == "rbf"
        m1, m2 = (self.rows.m1, self.rows.m2) if self.keep is None else map(len, self.keep)
        rows = m1 + m2 + u
        basis = None
        if rbf or self.spans(u, kernel):  # narrow linear blocks read the rows themselves
            if rbf not in self.bases:
                build = kernel_table if rbf else span_factor
                self.bases[rbf] = build(self.rows, self.test_rows, self.keep)
                self.counts["kernel_tables" if rbf else "span_factors"] += 1
                if rbf:  # the fold's rows held once, as views of the table's Z
                    Z, self.keep = self.bases[rbf].Z, None
                    self.rows = LabeledDataset.from_checked(Z[:m1], Z[m1 : m1 + m2], Z[m1 + m2 :])
                elif self.span_only:
                    self.test_rows = np.empty((len(self.test_rows), 0))
            basis = self.bases[rbf].prefix(rows)
        train = LabeledDataset.from_checked(self.rows.X1, self.rows.X2, self.rows.U[:u])
        if not rbf:
            coords = self.test_rows if basis is None else basis.precomputed
            return build_blocks(train, kernel, basis, self.keep), coords, None, {}
        values = kernel, F, tested = kernel_values(basis, kernel, self.test_rows)
        for K, earlier, results in self.seen.setdefault(u, []):
            if np.array_equal(K, F[:, :-1]) and np.array_equal(earlier, tested):
                self.counts["merged_sheets"] += 1
                break
        else:
            results = {}
            self.seen[u].append((F[:, :-1], tested, results))
        pending = any(key not in results for key in keys)
        blocks = build_blocks(train, kernel, basis, self.keep, values) if pending else None
        return blocks, tested, float(kernel.sigma), results


def _fold_records(dataset: LabeledDataset, folds: FoldPlan, fold: int, extractors, counts) -> list:
    """Fold ``fold`` through each extractor: its record, or the error its fit raised.

    A record without an extractor keeps the fold's training rows as
    indices, which its basis gathers; the fits read the labeled ones
    gathered once.  The extractors after the first fit the same rows with
    the same settings on the PCA basis the first one fit, so once one
    fails, the rest fail with its error, unfit.
    """
    test1, test2 = folds.class1_folds == fold, folds.class2_folds == fold
    keep = (np.flatnonzero(~test1), np.flatnonzero(~test2))
    test_rows = np.vstack([dataset.X1[test1], dataset.X2[test2]])
    labels = np.repeat([1, -1], [np.count_nonzero(test1), np.count_nonzero(test2)])
    if any(e is not None for e in extractors):  # one array for every fit; X1 and X2 view it
        labeled = np.stack(_training_rows(dataset, keep)[: sum(map(len, keep))])
        split = LabeledDataset.from_checked(*np.split(labeled, [len(keep[0])]), dataset.U)
    records, pca = [], None
    for extractor in extractors:
        try:
            if extractor is None:
                record = _FoldRecord(fold, dataset, keep, test_rows, labels, counts)
            else:
                fitted, train = fit_labeled(extractor, split, pca, labeled)
                record = _FoldRecord(fold, train, None, fitted.transform(test_rows), labels, counts)
                pca = fitted.pca
                counts["feature_fits"] += 1
                if fitted.ica is not None and not fitted.ica.converged:
                    counts["ica_capped"] += 1  # a fit that hit ICA_MAX_ITERATIONS
            if not np.all(np.isfinite(record.test_rows)):  # so the fold fails before any block
                raise ValueError("test rows contain non-finite values")
        except _FOLD_FAILURES as exc:
            return records + [exc] * (len(extractors) - len(records))
        records.append(record)
    return records


def _fold_score(
    spec: TrainSpec, record: _FoldRecord, blocks: ProblemBlocks, coords: np.ndarray
) -> float:
    """One fold's accuracy for ``spec`` on its sheet's blocks and test ``coords``."""
    model = train_with_blocks(blocks, spec)
    labels = predict(model, record.test_rows, coords=coords)
    return 100.0 * float(np.mean(labels == record.test_labels))


@dataclass(eq=False)  # hashed by identity, as a sheet's key for its share
class _Cell:
    """A classifier's points in visit order, each ``(spec, u, report params, fold scores)``.

    ``universum`` is the largest u asked for, an invalid point's too;
    ``draws``, whether it draws sizes rather than the whole pool.
    ``keys`` are the points' result keys, their specs without the kernel.
    """

    classifier: str
    points: list
    universum: int = 0
    draws: bool = False
    failure: tuple | None = None  # (index, error) of the first failing point
    keys: list = field(init=False)

    def __post_init__(self) -> None:
        self.keys = [replace(spec, kernel=None) for spec, *_ in self.points]

    @property
    def live(self) -> int:
        """How many points still run: those before the first failing one."""
        return len(self.points) if self.failure is None else self.failure[0]

    def fail(self, index: int, fold: int, exc: Exception) -> None:
        """Record ``exc``, raised on fold ``fold``, as the failure of point ``index``."""
        traceback.clear_frames(exc.__traceback__)  # so it holds no fold or sheet alive
        error = FoldTrainingError(f"fold {fold}: {exc}")
        error.__cause__ = exc
        self.failure = (index, error)

    def run_sheet(self, record: _FoldRecord, sheet: tuple, indices: list) -> int:
        """Score one sheet's points ``indices`` in visit order up to a failing one; count them.

        ``sheet`` is ``_FoldRecord.sheet``'s: a point with a result there
        takes it, its accuracy or its error; the others are solved on the
        blocks and leave theirs.
        """
        blocks, coords, sigma, results = sheet
        for scored, index in enumerate(indices, 1):
            (spec, _, _, scores), key = self.points[index], self.keys[index]
            if key not in results:
                try:
                    results[key] = run_cv(None, None, spec, _fold=(record, blocks, coords))
                except _FOLD_FAILURES as exc:
                    results[key] = exc
            if isinstance(results[key], Exception):
                self.fail(index, record.fold, results[key])
                return scored
            scores.append((results[key], sigma))
        return len(indices)

    def result(self, folds: FoldPlan, task: str, feature_id: str) -> GridSearchResult:
        """The search's result after the last fold; raises the error that fails it."""
        if self.failure is not None:
            raise self.failure[1]
        reports = []
        for spec, _, extra, scores in self.points:
            accuracies, sigmas = zip(*scores)
            params = spec.hyperparameters()
            if spec.kernel and spec.kernel.family == "rbf" and spec.kernel.sigma is None:
                params["fold_sigmas"] = list(sigmas)  # each fold's data-driven bandwidth
            mean = float(np.mean(accuracies))
            reports.append(CVReport(spec.classifier, folds.k, accuracies, mean,
                                    {**params, **extra}, folds.seed, task, feature_id))
        # the first best point wins: a later one must be strictly better
        best = max(range(len(reports)), key=lambda index: reports[index].mean_accuracy)
        return GridSearchResult(self.points[best][0], reports[best], tuple(reports))


def _run_sheet(record: _FoldRecord, u: int, kernel: KernelSpec | None, shares: dict) -> None:
    """Run each cell's share (its point indices) of one sheet, on its blocks if built.

    Only points before a cell's current failure run; a failed build fails
    each cell at its first.  Each scoring but a built sheet's first is a hit.
    """
    shares = {c: live for c, ids in shares.items() if (live := [i for i in ids if i < c.live])}
    if not shares:
        return
    try:
        sheet = record.sheet(u, kernel, [c.keys[i] for c, ids in shares.items() for i in ids])
    except _FOLD_FAILURES as exc:
        for cell, indices in shares.items():
            cell.fail(indices[0], record.fold, exc)
        return
    scored = [grid_search(None, None, c.classifier, None, _fold=(record, sheet, c, ids))
              for c, ids in shares.items()]
    built = int(sheet[0] is not None)
    record.counts.update(block_builds=built, block_hits=sum(scored) - built)


def _prepared(dataset: LabeledDataset, seed: int, features: list) -> tuple[LabeledDataset, list]:
    """The grid engine's rows for ``features``, and each feature's (extractor, cells).

    ``dataset`` holds raw rows and the whole Universum pool; ``features``
    pairs each feature config (None for rows used as they are) with its
    cells: one wavelet, or fitted features only.  The rows keep the most
    Universum rows any cell asks for, capped at the pool: the seeded draw
    ``subset_universum`` if a cell draws sizes, each smaller draw a prefix
    of it.  A wavelet's rows replace the raw ones.
    """
    all_cells = [cell for _, cells in features for cell in cells]
    features = [f for f in features if any(cell.live for cell in f[1])]  # the rest fit nothing
    if not features:
        return dataset, features
    size = min(max(cell.universum for cell in all_cells), dataset.p)
    if any(cell.draws for cell in all_cells):
        dataset = subset_universum(dataset, size, seed)
    else:
        dataset = LabeledDataset.from_checked(dataset.X1, dataset.X2, dataset.U[:size])
    prepared = [featurize(dataset, config) for config, _ in features]
    features = [(extractor, cells) for (_, extractor), (_, cells) in zip(prepared, features)]
    return prepared[0][0], features  # a wavelet's rows, or the raw rows every fitted feature keeps


def _run_cells(dataset: LabeledDataset, features: list, folds: FoldPlan) -> Counter:
    """The grid engine (see the module docstring) on ``_prepared`` rows; returns its work counts.

    A cell's share of a sheet runs through ``grid_search`` and a point's
    fold through ``run_cv``, handed as ``_fold``, so perfbench times them.
    """
    counts: Counter = Counter()
    for fold in range(folds.k if features else 0):
        records = _fold_records(dataset, folds, fold, [e for e, _ in features], counts)
        for (_, cells), record in zip(features, records):
            if not isinstance(record, _FoldRecord):
                for cell in cells:
                    if cell.points:  # a cell without a valid point keeps its grid error
                        cell.fail(0, fold, record)
                continue
            sheets: dict = {}  # (u, kernel) -> {cell: its live points' indices there}
            for cell in cells:
                for index, (spec, u, _, _) in enumerate(cell.points[: cell.live]):
                    sheets.setdefault((u, spec.kernel), {}).setdefault(cell, []).append(index)
            record.span_only = all(record.spans(u, kernel) for u, kernel in sheets)
            for (u, kernel), shares in sheets.items():
                _run_sheet(record, u, kernel, shares)
        features = [f for f, r in zip(features, records) if isinstance(r, _FoldRecord)]
        del records, record  # freed, with their bases, before the next fold's are built
        if not features:
            break
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

    ``extractor`` is any feature config for raw dataset rows: a wavelet
    is applied to every row, PCA/ICA are fit per fold on its labeled
    training rows.  The ``universum_rows`` of the Universum join every
    training split.  This is the grid engine on one point;
    ``feature_refits`` reports its extractor fits.  An rbf spec with an
    unset sigma reports each fold's resolved bandwidth as
    ``params["fold_sigmas"]``.  The engine's ``_fold`` scores the point
    on one fold's sheet.
    """
    if _fold is not None:
        return _fold_score(spec, *_fold)
    u = universum_rows(spec.classifier, dataset.p)
    cell = _Cell(spec.classifier, [(spec, u, {}, [])], universum=u)
    counts = _run_cells(*_prepared(dataset, folds.seed, [(extractor, [cell])]), folds)
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
            repeats = [v for i, v in enumerate(values) if v in values[:i]]  # 0.1 == 0.10
            if repeats:
                raise ValueError(f"grid axis {name} lists {repeats[0]!r} more than once")
            object.__setattr__(self, name, values)

    def cardinality(self) -> int:
        return math.prod(len(getattr(self, name) or (None,)) for name in GRID_AXES)


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
    """``grid`` as an engine cell; without ``universum_size`` a point takes ``universum_rows``."""
    axes = [sorted(getattr(grid, name) or [None]) for name in GRID_AXES]
    sizes = grid.universum_size
    pool = universum_rows(classifier, pool)
    points, failure = [], None
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
            failure = (len(points), exc)  # no later point can matter
            break
        extra = {} if u is None else {"universum_size": u}
        points.append((spec, pool if u is None else u, extra, []))
    return _Cell(classifier, points, max(sizes or (pool,)), sizes is not None, failure)


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
    it as ``params["universum_size"]``.  ``extractor`` is as in
    ``run_cv``.  This is the grid engine on one cell, so the number of
    CV runs equals the grid cardinality exactly.  It raises the error of
    its first failing point in visit order, at that point's lowest
    failing fold; an extractor failure comes first, unless the first
    point is invalid: then nothing is fit.  The engine's ``_fold`` runs
    the cell's share of one sheet and returns how many points it scored.
    """
    if _fold is not None:
        record, blocks, cell, indices = _fold
        return cell.run_sheet(record, blocks, indices)
    _validate_grid(grid, classifier)
    cell = _grid_cell(classifier, grid, dataset.p)
    _run_cells(*_prepared(dataset, folds.seed, [(extractor, [cell])]), folds)
    return cell.result(folds, task, feature_id)


@dataclass(frozen=True)
class BenchRow:
    """A cell's best point, or its error; ``points`` holds every point it scored.

    Each point is ``(mean_acc, fold_accs, params)``, in visit order, with
    no feature id, so a copied wavelet row's points equal its source's.
    """

    task: str
    feature: str
    classifier: str
    mean_acc: float | None
    fold_accs: tuple[float, ...]
    params: dict
    n_runs: int = 0
    error: str | None = None
    points: tuple[tuple[float, tuple[float, ...], dict], ...] = ()


#: The per-job work counts ``run_benchmark`` reports, summed over jobs.
_COUNTER_NAMES = (
    "feature_fits", "ica_capped", "kernel_tables", "span_factors", "block_builds", "block_hits",
    "merged_sheets",
)


@dataclass(frozen=True)
class BenchmarkResult:
    rows: tuple[BenchRow, ...]
    summary: dict
    counters: dict


@dataclass
class _Job:
    """One task's features that share a fold loop: its raw rows and each feature's cells.

    ``features`` holds (slot, feature id, config): every wavelet of the
    task, or every fitted (PCA/ICA) feature of it.  A slot is the
    feature's place in the run's manifest-order rows.
    """

    task: str
    features: tuple[tuple[int, str, FeatureConfig], ...]
    raw: LabeledDataset | None
    k: int
    seed: int
    cells: tuple[tuple[str, GridSpec], ...]


def _run_job(job: _Job) -> tuple[dict[int, list[BenchRow]], Counter]:
    """Run a job's cells through the grid engine: rows by slot, and the work counts.

    A wavelet job scores its cells once, in its first wavelet's
    coordinates (see the module docstring), and writes the result under
    every wavelet's slot.  The job gives its raw rows up as it starts, so a
    task's last job frees them once ``_prepared`` has transformed them.
    """
    dataset, job.raw = job.raw, None
    folds = make_folds(dataset, job.k, job.seed)
    configs = [config for _, _, config in job.features]
    shared = configs[0].method == "dwt"
    features = [
        (config, [_grid_cell(c, grid, dataset.p) for c, grid in job.cells])
        for config in (configs[:1] if shared else configs)
    ]
    dataset, prepared = _prepared(dataset, job.seed, features)
    counts = _run_cells(dataset, prepared, folds)
    if shared:
        features *= len(configs)
    rows = {
        slot: [_bench_row(cell, folds, job.task, feature) for cell in cells]
        for (slot, feature, _), (_, cells) in zip(job.features, features)
    }
    return rows, counts


def _bench_row(cell: _Cell, folds: FoldPlan, task: str, feature: str) -> BenchRow:
    """A finished cell's row: its best point, or the error that failed it."""
    key = (task, feature, cell.classifier)
    try:
        best = cell.result(folds, task, feature)
    except (FoldTrainingError, ValueError) as exc:
        return BenchRow(*key, None, (), {}, error=f"{type(exc).__name__}: {exc}")
    points = tuple((r.mean_accuracy, r.fold_accuracies, r.params) for r in best.reports)
    report = best.best_report
    scores = (report.mean_accuracy, report.fold_accuracies, report.params)
    return BenchRow(*key, *scores, n_runs=best.n_runs, points=points)


#: The manifest's integer settings: key -> (default, smallest value allowed).
_INT_SETTINGS = dict(
    folds=(5, 2), universum_pool=(100, 0), segment_length=(4096, 1),
    n_components=(32, 1), workers=(1, 1), seed=(0, 0),
)


def _reject_repeats(key: str, entries: list, ids: list) -> None:
    """Raise if two of a manifest list's ``entries`` share an id (``ids``, one per entry)."""
    for i, entry in enumerate(entries):
        if ids[i] in ids[:i]:
            raise ValueError(f"manifest {key} lists {entry!r} more than once")


def run_benchmark(manifest: dict, workers: int | None = None) -> BenchmarkResult:
    """Run every (task, feature, classifier) cell described by a manifest.

    The unit of work is a job (see the module docstring): a task's
    fitted features are one, and its wavelet features another, whose
    cells are scored once, in the first listed wavelet's coordinates,
    and copied to every wavelet's rows: a copy differs from its source
    row in the feature id alone.  Each row keeps every point its cell
    scored (``BenchRow.points``; ``points_csv`` renders them).
    ``workers`` > 1 runs jobs in parallel processes.  ``counters`` sums
    each job's feature fits, ICA fits capped unconverged, kernel tables,
    span factors, sheet block builds, block hits (scorings but a built
    sheet's first) and merged sheets (see the module docstring); they
    count the scoring done, so a copied row adds nothing to them.

    The manifest carries the lists ``tasks``, ``features`` and
    ``classifiers``, an object of per-classifier ``grids`` (each an
    object of axis lists), a ``data_root`` holding the set directories,
    and a ``seed``; optional keys tune ``folds`` (default 5),
    ``universum_pool`` (default 100), ``segment_length`` (default 4096),
    ``n_components`` (default 32), and ``workers`` (default 1; the
    argument overrides it).  A malformed manifest, including an integer
    setting that is not an integer (a boolean is not one) or lies below
    its smallest value (``folds`` 2, ``universum_pool`` and ``seed`` 0,
    the others 1), a key not named here, a list entry that is not a
    string, a ``data_root`` that is neither a string nor a path, or a
    task, feature or classifier listed twice (tasks compared lowercased,
    features by ``feature_id``), raises ``ValueError`` before any data is
    read; cell failures are recorded in their row and do not abort the
    run.  ``load_tasks``
    reads the recordings: set N only when a listed classifier trains on
    a Universum and ``universum_pool`` is positive, and it caps the pool
    at N's recording count.
    Identical manifests yield identical accuracy cells regardless of
    worker count.
    """
    required = ("tasks", "features", "classifiers", "grids", "data_root")
    for key in required:
        if key not in manifest:
            raise ValueError(f"manifest is missing {key!r}")
    unknown = set(manifest) - {*required, *_INT_SETTINGS}
    if unknown:
        raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
    for key in ("tasks", "features", "classifiers", "grids"):
        kind, name = (dict, "an object") if key == "grids" else (list, "a list")
        if not isinstance(manifest[key], kind):
            raise ValueError(f"manifest {key!r} must be {name}, got {manifest[key]!r}")
        if kind is list and not all(isinstance(entry, str) for entry in manifest[key]):
            raise ValueError(f"manifest {key!r} entries must be strings, got {manifest[key]!r}")
    if not isinstance(manifest["data_root"], (str, Path)):
        raise ValueError(f"manifest 'data_root' must be a string, got {manifest['data_root']!r}")
    settings = {
        key: default if manifest.get(key) is None else manifest[key]
        for key, (default, _) in _INT_SETTINGS.items()
    }
    if workers is not None:
        settings["workers"] = workers
    for key, (_, smallest) in _INT_SETTINGS.items():
        value = settings[key]
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if value < smallest:
            raise ValueError(f"{key} must be >= {smallest}, got {value}")
    k, pool, segment_length, n_components, workers, seed = map(int, settings.values())

    tasks = [t.lower() for t in manifest["tasks"]]
    for task in tasks:
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r} in manifest")
    classifiers = list(manifest["classifiers"])
    grids = {}
    for name, payload in manifest["grids"].items():
        if not isinstance(payload, dict):
            raise ValueError(f"manifest grid of {name!r} must be an object, got {payload!r}")
        grids[name] = parse_grid(payload)
    for name in classifiers:
        if name not in grids:
            raise ValueError(f"manifest grids are missing classifier {name!r}")
        _validate_grid(grids[name], name)
    features = [
        (feature, feature_config_from_id(feature, n_components=n_components, seed=seed))
        for feature in manifest["features"]
    ]
    _reject_repeats("tasks", manifest["tasks"], tasks)
    _reject_repeats("features", manifest["features"], [c.feature_id for _, c in features])
    _reject_repeats("classifiers", classifiers, classifiers)

    pool = max((universum_rows(classifier, pool) for classifier in classifiers), default=0)
    raw = load_tasks(manifest["data_root"], tasks, pool, segment_length, seed)
    cells = tuple((classifier, grids[classifier]) for classifier in classifiers)
    jobs = []
    for t, task in enumerate(tasks):
        groups: dict = {False: [], True: []}  # wavelet? -> the task's fitted features, wavelets
        for i, (feature, config) in enumerate(features):
            groups[config.method == "dwt"].append((t * len(features) + i, feature, config))
        jobs += [_Job(task, tuple(g), raw[task], k, seed, cells) for g in groups.values() if g]
    del raw  # the jobs hold the rows now; the wavelet job, run last, frees its task's

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            results = list(pool_exec.map(_run_job, jobs))
    else:
        results = [_run_job(job) for job in jobs]
    by_slot = {slot: rows for job_rows, _ in results for slot, rows in job_rows.items()}
    rows = tuple(row for slot in sorted(by_slot) for row in by_slot[slot])
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


def _scored(row: BenchRow, mean: float | None, fold_accs: tuple, params: dict) -> str:
    """The text ``row``'s cell gives one set of scores: its first six columns."""
    mean_field = "" if mean is None else repr(float(mean))
    folds_field = ";".join(repr(float(a)) for a in fold_accs)
    params_field = json.dumps(params, sort_keys=True).replace('"', '""')
    key = f"{row.task},{row.feature},{row.classifier}"
    return f'{key},{mean_field},"{folds_field}","{params_field}"'


def results_csv(rows) -> str:
    """Render benchmark rows as the delimited results table.

    Floats use their shortest round-trip representation and no column
    holds a timing, so identical runs produce identical bytes.
    """
    lines = ["task,feature,classifier,mean_acc,fold_accs,params_json,n_runs,error"]
    for row in rows:
        error = "" if row.error is None else row.error.replace('"', '""')
        scores = _scored(row, row.mean_acc, row.fold_accs, row.params)
        lines.append(f'{scores},{row.n_runs},"{error}"')
    return "\n".join(lines) + "\n"


def points_csv(rows) -> str:
    """Render every scored point of benchmark rows, as ``results_csv`` renders a row's best.

    Rows come in ``rows``' order and a cell's points in visit order, so
    a cell's results row begins with the text of its best point's row.
    A failed cell has no points.
    """
    lines = ["task,feature,classifier,mean_acc,fold_accs,params_json"]
    lines += [_scored(row, *point) for row in rows for point in row.points]
    return "\n".join(lines) + "\n"
