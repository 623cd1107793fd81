"""Cross-validation, grid search, ranking, and benchmark-runner tests."""

from __future__ import annotations

import csv
import gc
import io
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest

from eigu.classifiers import (
    CLASSIFIER_AXES,
    TrainSpec,
    build_blocks,
    plane_distances,
    train_with_blocks,
)
from eigu import evaluation
from eigu.cli import main
from eigu.dataio import LabeledDataset, assemble_task, make_folds, subset_universum
from eigu.evaluation import (
    GRID_AXES,
    FoldTrainingError,
    GridSpec,
    _validate_grid,
    featurize,
    grid_search,
    load_sets,
    parse_grid,
    rank_models,
    results_csv,
    run_benchmark,
    run_cv,
)
from eigu.features import FeatureConfig, feature_config_from_id
from eigu.kernels import KernelSpec, default_sigma
from eigu.synth import cross_planes, mid_band_universum

from conftest import INVALID_GRIDS, TOY_SEGMENT, random_dataset


def test_run_cv_is_perfect_on_separable_data(planes_dataset):
    folds = make_folds(planes_dataset, 5, seed=0)
    report = run_cv(planes_dataset, folds, TrainSpec(classifier="gepsvm", delta=1e-4))
    assert report.k == 5
    assert report.fold_accuracies == (100.0,) * 5
    assert report.mean_accuracy == 100.0
    assert report.feature_refits == 0
    assert report.params == {"delta": 1e-4}


def test_run_cv_is_deterministic_alone_and_in_a_grid(planes_dataset):
    folds = make_folds(planes_dataset, 4, seed=9)
    spec = TrainSpec(classifier="iugepsvm", delta=1e-5, gamma1=0.1, psi1=0.01)
    first = run_cv(planes_dataset, folds, spec)
    second = run_cv(planes_dataset, folds, spec)
    grid = GridSpec(delta=(1e-5,), gamma=(0.1,), psi=(0.01,))
    in_grid = grid_search(planes_dataset, folds, "iugepsvm", grid).best_report
    assert first.fold_accuracies == second.fold_accuracies == in_grid.fold_accuracies
    assert first.mean_accuracy == second.mean_accuracy == in_grid.mean_accuracy


def _counting(monkeypatch, name):
    """Count the calls made through ``evaluation.<name>``; return the list of their results."""
    original = getattr(evaluation, name)
    results = []

    def spy(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(evaluation, name, spy)
    return results


def test_run_cv_refits_the_extractor_once_per_fold(monkeypatch):
    rng = np.random.default_rng(8)
    X1 = rng.standard_normal((10, 16))
    X2 = rng.standard_normal((10, 16))
    X1[:, 0] += 3.0
    dataset = LabeledDataset(X1=X1, X2=X2, U=np.zeros((0, 16)))
    folds = make_folds(dataset, 2, seed=0)
    config = FeatureConfig(method="pca", n_components=3)
    spec = TrainSpec(classifier="gepsvm", delta=1e-4)
    report = run_cv(dataset, folds, spec, extractor=config)
    assert report.feature_refits == folds.k

    fits = _counting(monkeypatch, "fit_features")
    result = grid_search(dataset, folds, "gepsvm", GridSpec(delta=(1e-4, 1e-2)), extractor=config)
    assert len(fits) == folds.k  # one fit per fold, shared by both points
    assert result.reports[0].fold_accuracies == report.fold_accuracies
    assert [r.feature_refits for r in result.reports] == [0, 0]  # no point fit on its own


def test_every_bandwidth_shares_one_kernel_table(planes_dataset, monkeypatch):
    tables = _counting(monkeypatch, "kernel_table")
    built = _counting(monkeypatch, "build_blocks")
    original = evaluation.predict
    predictions = []

    def spy(model, queries, d2=None):
        labels = original(model, queries, d2)
        predictions.append((model, labels))
        return labels

    monkeypatch.setattr(evaluation, "predict", spy)
    dataset, folds = planes_dataset, make_folds(planes_dataset, 2, seed=0)
    grid = GridSpec(delta=(1e-5,), gamma=(0.1,), psi=(0.01,), sigma=(0.5, 4.0))
    grid_search(dataset, folds, "iugepsvm", grid)
    assert len(tables) == folds.k
    assert len(built) == 2 * folds.k

    fold = 0
    test1, test2 = folds.class1_folds == fold, folds.class2_folds == fold
    fold_data = LabeledDataset(X1=dataset.X1[~test1], X2=dataset.X2[~test2], U=dataset.U)
    test_rows = np.vstack([dataset.X1[test1], dataset.X2[test2]])
    table = tables[fold]
    # the engine runs every point of a fold before the next fold
    for sigma, blocks, (model, labels) in zip(grid.sigma, built, predictions):
        spec = TrainSpec(
            classifier="iugepsvm", delta=1e-5, gamma1=0.1, psi1=0.01, kernel=KernelSpec("rbf", sigma)
        )
        assert blocks.basis.Z is table.Z and model.Z is table.Z
        fresh_blocks = build_blocks(fold_data, spec.kernel)
        fresh_model = train_with_blocks(fresh_blocks, spec)
        assert fresh_blocks.basis.Z is not table.Z
        assert np.array_equal(blocks.K_ZZ, fresh_blocks.K_ZZ)
        shared = plane_distances(model, test_rows, table.precomputed)
        unshared = plane_distances(fresh_model, test_rows)
        assert all(np.array_equal(a, b) for a, b in zip(shared, unshared))
        assert np.array_equal(labels, original(fresh_model, test_rows))


def test_run_cv_reports_each_folds_data_driven_sigma(planes_dataset):
    dataset, folds = planes_dataset, make_folds(planes_dataset, 3, seed=0)
    spec = TrainSpec(classifier="gepsvm", delta=1e-4, kernel=KernelSpec("rbf"))
    report = run_cv(dataset, folds, spec)
    expected = []
    for fold in range(folds.k):
        test1, test2 = folds.class1_folds == fold, folds.class2_folds == fold
        expected.append(
            default_sigma(np.vstack([dataset.X1[~test1], dataset.X2[~test2], dataset.U]))
        )
    assert report.params["fold_sigmas"] == expected
    assert len(set(expected)) == folds.k  # each fold resolved its own bandwidth
    named = replace(spec, kernel=KernelSpec("rbf", sigma=2.0))
    assert "fold_sigmas" not in run_cv(dataset, folds, named).params


def test_wide_folds_predict_from_one_projection_per_universum_size(monkeypatch):
    rng = np.random.default_rng(21)
    dataset = LabeledDataset(
        X1=rng.standard_normal((10, 40)),
        X2=rng.standard_normal((10, 40)) + 0.3,
        U=rng.standard_normal((6, 40)),
    )
    folds = make_folds(dataset, 2, seed=0)
    original = evaluation.predict
    calls = []

    def spy(model, queries, precomputed=None):
        labels = original(model, queries, precomputed)
        calls.append((model, queries, precomputed, labels))
        return labels

    monkeypatch.setattr(evaluation, "predict", spy)
    factors = _counting(monkeypatch, "span_factor")
    built = _counting(monkeypatch, "build_blocks")
    grid = GridSpec(delta=(1e-4, 1e-2), universum_size=(2, 6))
    grid_search(dataset, folds, "ugepsvm", grid)
    assert len(built) == 2 * folds.k  # one per (fold, u), shared by both deltas
    assert len(factors) == folds.k  # one per fold, sliced per u
    assert len(calls) == grid.cardinality() * folds.k
    for model, queries, precomputed, labels in calls:
        assert model.span is not None and precomputed is not None
        assert np.array_equal(labels, original(model.lifted(), queries))


def test_run_cv_wraps_fold_failures():
    dataset = LabeledDataset(
        X1=np.zeros((4, 2)), X2=np.zeros((4, 2)), U=np.zeros((0, 2))
    )
    folds = make_folds(dataset, 2, seed=0)
    with pytest.raises(FoldTrainingError, match="fold 0"):
        run_cv(dataset, folds, TrainSpec(classifier="gepsvm", delta=1e-4))


def test_grid_search_visits_every_point_and_ties_resolve_low(planes_dataset):
    folds = make_folds(planes_dataset, 3, seed=1)
    grid = GridSpec(delta=(1e-3, 1e-4), nu=(1.0, 0.1))
    result = grid_search(planes_dataset, folds, "igepsvm", grid)
    assert result.n_runs == grid.cardinality() == 4
    assert result.best_report.mean_accuracy == 100.0
    # every point scores 100 here, so the first visited (smallest) wins
    assert result.best_spec.delta == 1e-4
    assert result.best_spec.nu == 0.1


def test_grid_search_draws_universum_subsets(planes_dataset):
    folds = make_folds(planes_dataset, 3, seed=2)
    grid = GridSpec(delta=(1e-4,), universum_size=(0, 10))
    result = grid_search(planes_dataset, folds, "ugepsvm", grid)
    assert result.n_runs == len(result.reports) == 2
    assert result.best_report.classifier == "ugepsvm"
    assert [r.params["universum_size"] for r in result.reports] == [0, 10]
    assert result.best_report in result.reports


def _uncached_reports(dataset, folds, classifier, grid, extractor=None):
    """Every grid point run alone through run_cv, in grid_search's visit order."""
    reports = []
    for delta in sorted(grid.delta):
        for gamma in sorted(grid.gamma or [None]):
            for sigma in sorted(grid.sigma or [None]):
                for u in sorted(grid.universum_size):
                    kernel = None if sigma is None else KernelSpec("rbf", sigma=sigma)
                    extra = {} if gamma is None else {"gamma1": gamma, "psi1": grid.psi[0]}
                    spec = TrainSpec(classifier=classifier, delta=delta, kernel=kernel, **extra)
                    data = subset_universum(dataset, u, folds.seed)
                    reports.append(run_cv(data, folds, spec, extractor=extractor))
    return reports


def _assert_the_cache_changes_no_result(dataset, folds, classifier, grid, extractor=None):
    try:
        expected = _uncached_reports(dataset, folds, classifier, grid, extractor)
    except FoldTrainingError:
        with pytest.raises(FoldTrainingError):
            grid_search(dataset, folds, classifier, grid, extractor=extractor)
        return
    result = grid_search(dataset, folds, classifier, grid, extractor=extractor)
    assert len(result.reports) == len(expected)
    for got, want in zip(result.reports, expected):
        assert got.fold_accuracies == want.fold_accuracies
        params = dict(got.params)
        params.pop("universum_size")
        assert params == want.params


@pytest.mark.parametrize("seed", range(6))
def test_the_grid_cache_changes_no_result(seed):
    rng = np.random.default_rng(seed)
    dataset = random_dataset(rng)
    folds = make_folds(dataset, 2, seed=seed)
    sizes = tuple(sorted({0, dataset.p // 2, dataset.p}))
    grid = GridSpec(delta=(1e-4, 1e-2), gamma=(0.1, 1.0), psi=(0.01,), universum_size=sizes)
    _assert_the_cache_changes_no_result(dataset, folds, "iugepsvm", grid)


def test_grid_search_fails_where_an_uncached_point_fails():
    # constant classes: without a Universum the first plane is all bias
    dataset = LabeledDataset(X1=np.zeros((4, 2)), X2=np.zeros((4, 2)), U=np.ones((2, 2)))
    folds = make_folds(dataset, 2, seed=0)
    grid = GridSpec(delta=(1e-4,), universum_size=(0, 2))
    with pytest.raises(FoldTrainingError):
        _uncached_reports(dataset, folds, "ugepsvm", grid)
    _assert_the_cache_changes_no_result(dataset, folds, "ugepsvm", grid)


def test_the_grid_cache_changes_no_result_with_an_extractor():
    rng = np.random.default_rng(8)
    X1 = rng.standard_normal((10, 16))
    X2 = rng.standard_normal((10, 16))
    X1[:, 0] += 3.0
    dataset = LabeledDataset(X1=X1, X2=X2, U=rng.standard_normal((6, 16)))
    folds = make_folds(dataset, 2, seed=0)
    grid = GridSpec(delta=(1e-4,), sigma=(0.5, 4.0), universum_size=(3, 6))
    config = FeatureConfig(method="pca", n_components=3)
    _assert_the_cache_changes_no_result(dataset, folds, "ugepsvm", grid, extractor=config)


def _margin_dataset(n: int) -> LabeledDataset:
    """Crossing class lines embedded in ``n`` columns, with three confidently wrong labels.

    The lines stay clear of their crossing, so no test row sits near a tie:
    over every fold and classifier below, the smallest relative gap
    |d1 - d2| / (d1 + d2) between a test row's plane distances is 1.9e-4,
    far above rounding.
    """
    rng = np.random.default_rng(11)
    X1, X2 = cross_planes(n_per_class=30, seed=11)
    X1 = np.vstack([X1, X2[:3]])  # rows on the -1 line labeled +1: folds score below 100

    def embed(rows):
        return np.hstack([rows, 0.01 * rng.standard_normal((len(rows), n - 2))])

    return LabeledDataset(X1=embed(X1), X2=embed(X2), U=embed(mid_band_universum(12, seed=12)))


@pytest.mark.parametrize(
    "kernel", [None, KernelSpec(family="rbf", sigma=0.5)], ids=["linear", "rbf"]
)
@pytest.mark.parametrize("n", [4, 120], ids=["narrow", "wide"])
def test_fold_accuracies_survive_an_orthogonal_map_of_the_features(n, kernel):
    """Every classifier is invariant under an orthogonal change of coordinates.

    Linear planes rotate with the features and rbf reads only distances,
    so the folds must score the same; the wide case trains through the
    span factor (121 columns, at most 70 training rows).
    """
    dataset = _margin_dataset(n)
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))[0]
    rotated = LabeledDataset(X1=dataset.X1 @ Q, X2=dataset.X2 @ Q, U=dataset.U @ Q)
    folds = make_folds(dataset, 5, seed=3)
    specs = (
        TrainSpec(classifier="gepsvm", delta=1e-4, kernel=kernel),
        TrainSpec(classifier="igepsvm", delta=1e-4, nu=0.1, kernel=kernel),
        TrainSpec(classifier="ugepsvm", delta=1e-4, kernel=kernel),
        TrainSpec(classifier="iugepsvm", delta=1e-5, gamma1=0.1, psi1=0.01, kernel=kernel),
    )
    below_100 = 0
    for spec in specs:
        plain = run_cv(dataset, folds, spec).fold_accuracies
        assert run_cv(rotated, folds, spec).fold_accuracies == plain, spec.classifier
        below_100 += min(plain) < 100.0
    assert below_100 == len(specs)  # each classifier misses some rows, so a flip would show


def test_grid_axis_validation(planes_dataset):
    folds = make_folds(planes_dataset, 2, seed=0)
    with pytest.raises(ValueError, match="needs a delta axis"):
        grid_search(planes_dataset, folds, "gepsvm", GridSpec(nu=(0.1,)))
    with pytest.raises(ValueError, match="does not consume"):
        grid_search(
            planes_dataset, folds, "gepsvm", GridSpec(delta=(1e-4,), nu=(0.1,))
        )
    with pytest.raises(ValueError, match="needs a psi axis"):
        grid_search(
            planes_dataset,
            folds,
            "iugepsvm",
            GridSpec(delta=(1e-4,), gamma=(0.1,)),
        )
    with pytest.raises(ValueError, match="unknown classifier"):
        grid_search(planes_dataset, folds, "svm", GridSpec(delta=(1e-4,)))
    with pytest.raises(ValueError, match="empty"):
        GridSpec(delta=())
    with pytest.raises(ValueError, match="unknown grid axes"):
        parse_grid({"delta": [1e-4], "lambda": [1.0]})
    for axis in (0.1, "0.1", ["0.1"]):
        with pytest.raises(ValueError, match="grid axis delta must be a list of numbers"):
            parse_grid({"delta": axis})
    for sizes in ((-5,), (2.5,)):
        with pytest.raises(ValueError, match="universum_size needs integers >= 0"):
            GridSpec(delta=(1e-4,), universum_size=sizes)
    assert GridSpec(delta=(1e-4,), universum_size=(20.0,)).universum_size == (20,)


@pytest.mark.parametrize("classifier", CLASSIFIER_AXES)
def test_grid_axes_follow_the_classifier_table(classifier):
    values = {
        "delta": (1e-4,),
        "nu": (0.1,),
        "gamma": (0.1,),
        "psi": (0.01,),
        "sigma": (1.0,),
        "universum_size": (2,),
    }
    consumed = CLASSIFIER_AXES[classifier]
    full = {name: values[name] for name in ("delta", "sigma", *consumed)}
    _validate_grid(GridSpec(**full), classifier)
    without_u = {name: v for name, v in full.items() if name != "universum_size"}
    _validate_grid(GridSpec(**without_u), classifier)  # the Universum axis is optional
    for name in GRID_AXES:
        if name not in full:
            with pytest.raises(ValueError, match=f"{classifier} does not consume grid axis {name}"):
                _validate_grid(GridSpec(**full, **{name: values[name]}), classifier)
    for name in without_u:
        if name != "sigma":
            missing = {other: v for other, v in full.items() if other != name}
            with pytest.raises(ValueError, match=f"{classifier} grid needs a {name} axis"):
                _validate_grid(GridSpec(**missing), classifier)


def test_rank_models_matches_hand_ranking():
    np.testing.assert_allclose(rank_models(np.array([[3.0, 1.0, 2.0]])), [1, 3, 2])
    np.testing.assert_allclose(rank_models(np.array([[2.0, 2.0, 1.0]])), [1.5, 1.5, 3])
    two_rows = np.array([[3.0, 1.0, 2.0], [1.0, 3.0, 2.0]])
    np.testing.assert_allclose(rank_models(two_rows), [2.0, 2.0, 2.0])
    # every row's ranks sum to k(k+1)/2
    ranks = rank_models(np.random.default_rng(0).uniform(size=(6, 4)))
    assert ranks.sum() == pytest.approx(4 * 5 / 2)
    with pytest.raises(ValueError):
        rank_models(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        rank_models(np.array([[1.0, np.nan]]))


def test_accuracy_sits_at_chance_on_unseparable_data():
    accuracies = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dataset = LabeledDataset(
            X1=rng.standard_normal((30, 2)),
            X2=rng.standard_normal((30, 2)),
            U=np.zeros((0, 2)),
        )
        folds = make_folds(dataset, 5, seed=seed)
        report = run_cv(dataset, folds, TrainSpec(classifier="gepsvm", delta=1e-4))
        accuracies.append(report.mean_accuracy)
    assert 35.0 <= float(np.mean(accuracies)) <= 65.0


def _toy_manifest(bonn_tree, **overrides):
    manifest = {
        "tasks": ["o_vs_s"],
        "features": ["dwt_db2"],
        "classifiers": ["gepsvm", "iugepsvm"],
        "grids": {
            "gepsvm": {"delta": [1e-4]},
            "iugepsvm": {"delta": [1e-4], "gamma": [0.1], "psi": [0.01]},
        },
        "data_root": str(bonn_tree),
        "seed": 1,
        "folds": 2,
        "universum_pool": 6,
        "segment_length": TOY_SEGMENT,
        "n_components": 4,
    }
    manifest.update(overrides)
    return manifest


def test_run_benchmark_covers_the_manifest_grid(bonn_tree):
    result = run_benchmark(_toy_manifest(bonn_tree))
    assert len(result.rows) == 2
    assert {(r.task, r.classifier) for r in result.rows} == {
        ("o_vs_s", "gepsvm"),
        ("o_vs_s", "iugepsvm"),
    }
    assert all(r.error is None for r in result.rows)
    assert all(r.n_runs == 1 for r in result.rows)
    entry = result.summary["tasks"]["o_vs_s"]
    assert entry["errors"] == 0
    assert set(entry["average_accuracy"]) == {"gepsvm", "iugepsvm"}
    assert set(entry["average_ranks"]) == {"gepsvm", "iugepsvm"}
    assert result.summary["n_cells"] == 2


def test_run_benchmark_records_cell_errors_without_aborting(bonn_tree):
    manifest = _toy_manifest(
        bonn_tree,
        grids={
            "gepsvm": {"delta": [1e-4]},
            "iugepsvm": {"delta": [1e-4], "gamma": [0.1], "psi": [0.01], "universum_size": [50]},
        },
    )
    result = run_benchmark(manifest)
    by_name = {r.classifier: r for r in result.rows}
    assert by_name["gepsvm"].error is None
    assert by_name["iugepsvm"].error is not None
    assert by_name["iugepsvm"].mean_acc is None
    entry = result.summary["tasks"]["o_vs_s"]
    assert entry["errors"] == 1
    assert "average_ranks" not in entry


def test_run_benchmark_validates_the_manifest(bonn_tree, tmp_path, monkeypatch):
    loaded = []
    original = evaluation.load_sets
    monkeypatch.setattr(evaluation, "load_sets", lambda *a: loaded.append(a) or original(*a))
    with pytest.raises(ValueError, match="missing 'grids'"):
        run_benchmark({k: v for k, v in _toy_manifest(bonn_tree).items() if k != "grids"})
    with pytest.raises(ValueError, match="unknown task"):
        run_benchmark(_toy_manifest(bonn_tree, tasks=["o_vs_x"]))
    with pytest.raises(ValueError, match="missing classifier"):
        run_benchmark(_toy_manifest(bonn_tree, grids={"gepsvm": {"delta": [1e-4]}}))
    for classifier, grid, message in INVALID_GRIDS:
        manifest = _toy_manifest(bonn_tree, classifiers=[classifier], grids={classifier: grid})
        with pytest.raises(ValueError, match=message):
            run_benchmark(manifest)
    with pytest.raises(FileNotFoundError):
        run_benchmark(_toy_manifest(bonn_tree, data_root=str(tmp_path / "missing")))
    for key, value, smallest in (
        ("n_components", 0, 1),
        ("segment_length", 0, 1),
        ("folds", 1, 2),
        ("universum_pool", -1, 0),
        ("workers", 0, 1),
        ("workers", -4, 1),
    ):
        with pytest.raises(ValueError, match=f"{key} must be >= {smallest}, got {value}"):
            run_benchmark(_toy_manifest(bonn_tree, **{key: value}))
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        run_benchmark(_toy_manifest(bonn_tree, workers=2), workers=0)
    with pytest.raises(ValueError, match="dwt needs a wavelet from"):
        run_benchmark(_toy_manifest(bonn_tree, features=["dwt_db3"]))
    with pytest.raises(ValueError, match="unknown feature id 'wpt'"):
        run_benchmark(_toy_manifest(bonn_tree, features=["wpt"]))
    assert loaded == []  # every check above came before any recording was read


def test_results_csv_parses_back_with_a_stock_reader(bonn_tree):
    result = run_benchmark(_toy_manifest(bonn_tree))
    text = results_csv(result.rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(result.rows)
    for record, row in zip(parsed, result.rows):
        assert record["task"] == row.task
        assert record["classifier"] == row.classifier
        assert float(record["mean_acc"]) == row.mean_acc
        folds = tuple(float(v) for v in record["fold_accs"].split(";"))
        assert folds == row.fold_accs
        assert record["error"] == ""
    # rendering is stable across calls
    assert text == results_csv(result.rows)


#: Cells that share blocks across classifiers: gepsvm and igepsvm the
#: (no Universum, rbf 4.0) blocks, ugepsvm and iugepsvm the (3 rows,
#: linear) ones.  ugepsvm fails at u = 50 (the pool holds 6 rows) after
#: its u = 3 point has run, so later cells start from its partial store.
SHARING_GRIDS = {
    "gepsvm": {"delta": [1e-4], "sigma": [4.0]},
    "ugepsvm": {"delta": [1e-4], "universum_size": [3, 50]},
    "igepsvm": {"delta": [1e-5], "nu": [0.1], "sigma": [4.0]},
    "iugepsvm": {"delta": [1e-5], "gamma": [0.1], "psi": [0.01], "universum_size": [3]},
}


def _sharing_manifest(bonn_tree):
    return _toy_manifest(
        bonn_tree,
        features=["dwt_db2", "pca"],
        classifiers=list(SHARING_GRIDS),
        grids=SHARING_GRIDS,
    )


def _fresh_rows(bonn_tree, manifest):
    """Each cell as its own grid search on freshly featurized rows, unshared."""
    raw = load_sets(bonn_tree, {"O", "S", "N"}, manifest["segment_length"])
    seed = manifest["seed"]
    rows = []
    for task in manifest["tasks"]:
        raw_task = assemble_task(task, raw, manifest["universum_pool"], seed)
        for feature in manifest["features"]:
            config = feature_config_from_id(
                feature, n_components=manifest["n_components"], seed=seed
            )
            dataset, extractor = featurize(raw_task, config)
            folds = make_folds(dataset, manifest["folds"], seed)
            for classifier in manifest["classifiers"]:
                data = dataset
                if "universum_size" not in CLASSIFIER_AXES[classifier]:
                    data = subset_universum(dataset, 0, seed)
                grid = parse_grid(manifest["grids"][classifier])
                try:
                    result = grid_search(data, folds, classifier, grid, extractor=extractor)
                except (FoldTrainingError, ValueError) as exc:
                    rows.append((feature, classifier, (), {}, 0, f"{type(exc).__name__}: {exc}"))
                    continue
                best = result.best_report
                rows.append(
                    (feature, classifier, best.fold_accuracies, best.params, result.n_runs, None)
                )
    return rows


@pytest.mark.parametrize("workers", [1, 2])
def test_sharing_a_pair_store_changes_no_result(bonn_tree, workers):
    manifest = _sharing_manifest(bonn_tree)
    result = run_benchmark(manifest, workers=workers)
    got = [
        (r.feature, r.classifier, r.fold_accs, r.params, r.n_runs, r.error) for r in result.rows
    ]
    assert got == _fresh_rows(bonn_tree, manifest)
    failed = {(r.feature, r.classifier) for r in result.rows if r.error is not None}
    assert failed == {("dwt_db2", "ugepsvm"), ("pca", "ugepsvm")}


def test_blocks_live_one_cell_and_each_fold_builds_one_basis(bonn_tree, tmp_path, monkeypatch):
    factors = _counting(monkeypatch, "span_factor")
    tables = _counting(monkeypatch, "kernel_table")
    records = _counting(monkeypatch, "_fold_record")
    manifest = _sharing_manifest(bonn_tree)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(path), "--output-dir", str(out)]) == 0

    k = manifest["folds"]
    assert len(records) == 2 * k  # one record per fold and pair, in fold order
    assert [record.fold for record in records] == [*range(k), *range(k)]
    for record in records:
        # ugepsvm asks for 50 Universum rows; the pool of 6 caps the record
        assert record.train.p == manifest["universum_pool"]
        rows = record.train.m1 + record.train.m2 + record.train.p
        assert record.bases[True].Z.shape[0] == rows  # rbf cells run at u = 0, a prefix
    assert [factor.tau.size for factor in factors] == [
        record.train.m1 + record.train.m2 + manifest["universum_pool"] for record in records[:k]
    ]  # dwt_db2 only (4 pca components are narrow); linear cells run at u = 3, a prefix
    assert len(tables) == 2 * k
    counters = json.loads((out / "runinfo.json").read_text())["counters"]
    assert counters == {
        "feature_fits": k,  # pca, once per fold
        "span_factors": k,  # dwt_db2, once per fold for u = 3 and the pool
        "kernel_tables": 2 * k,  # once per fold and pair, though the pair draws u = 0 and 6
        "block_builds": 2 * 4 * k,  # every cell builds its own: no block outlives its cell
        "block_hits": 0,  # every grid here has one point per (Universum size, kernel)
    }


def test_a_fold_builds_each_training_set_once_and_none_outlives_its_rows(bonn_tree, monkeypatch):
    grids = {
        "iugepsvm": SHARING_GRIDS["iugepsvm"],  # linear at u = 3, before any kernel table
        "ugepsvm": {"delta": [1e-4], "universum_size": [3]},
        "gepsvm": SHARING_GRIDS["gepsvm"],  # rbf at u = 0: builds the fold's table
    }
    manifest = _toy_manifest(bonn_tree, features=["pca"], classifiers=list(grids), grids=grids)
    records = _counting(monkeypatch, "_fold_record")
    trained_on = []
    build = evaluation.build_blocks

    def spy(dataset, *args):
        trained_on.append(dataset)
        return build(dataset, *args)

    monkeypatch.setattr(evaluation, "build_blocks", spy)
    assert all(row.error is None for row in run_benchmark(manifest).rows)
    assert len(trained_on) == len(grids) * manifest["folds"]
    for index, record in enumerate(records):
        iugepsvm, ugepsvm, gepsvm = trained_on[len(grids) * index : len(grids) * (index + 1)]
        assert ugepsvm is iugepsvm  # one training set per (fold, u), whatever the cell
        assert gepsvm.p == 0 and np.shares_memory(gepsvm.X1, record.bases[True].Z)
        assert list(record.prefixes) == [0]  # the u = 3 set went with the rows it held


def test_each_fold_is_freed_before_the_next_fold_builds_its_basis(bonn_tree, monkeypatch):
    alive = {"span_factor": [], "kernel_table": [], "_fold_record": []}

    def spying(name):
        original = getattr(evaluation, name)

        def spy(*args):
            gc.collect()
            assert all(ref() is None for ref in alive[name])  # the last fold's is gone
            made = original(*args)
            alive[name].append(weakref.ref(made))
            return made

        monkeypatch.setattr(evaluation, name, spy)

    for name in alive:  # a fold's record, rows and all, too
        spying(name)
    manifest = _sharing_manifest(bonn_tree)
    assert len(run_benchmark(manifest).rows) == 2 * len(SHARING_GRIDS)
    k = manifest["folds"]
    assert len(alive["span_factor"]) == k and len(alive["kernel_table"]) == 2 * k
    assert len(alive["_fold_record"]) == 2 * k


#: Planted failures: (classifier, delta) -> the folds its training fails on.
PLANTED = {("gepsvm", 1e-4): {1}, ("gepsvm", 1e-3): {0}}


def test_errors_name_the_failure_each_cell_names_alone(bonn_tree, monkeypatch):
    current = {}
    record = evaluation._fold_record

    def recording(dataset, folds, fold, *args):
        current["fold"] = fold
        return record(dataset, folds, fold, *args)

    fit, train = evaluation.fit_labeled, evaluation.train_with_blocks

    def fitting(config, dataset):
        if current["fold"] == 2:
            raise ValueError("planted fit failure")
        return fit(config, dataset)

    def training(blocks, spec):
        if current["fold"] in PLANTED.get((spec.classifier, spec.delta), ()):
            raise np.linalg.LinAlgError(f"planted at delta {spec.delta}")
        return train(blocks, spec)

    monkeypatch.setattr(evaluation, "_fold_record", recording)
    monkeypatch.setattr(evaluation, "fit_labeled", fitting)
    monkeypatch.setattr(evaluation, "train_with_blocks", training)
    grids = {"gepsvm": {"delta": [1e-4, 1e-3]}, "igepsvm": {"delta": [1e-5], "nu": [0.1]}}
    manifest = _toy_manifest(
        bonn_tree, features=["dwt_db2", "pca"], classifiers=list(grids), grids=grids, folds=3
    )
    result = run_benchmark(manifest)
    got = [
        (r.feature, r.classifier, r.fold_accs, r.params, r.n_runs, r.error) for r in result.rows
    ]
    assert got == _fresh_rows(bonn_tree, manifest)
    errors = {(r.feature, r.classifier): r.error for r in result.rows}
    assert errors == {
        # point 0 fails on fold 1 only, point 1 on fold 0: the first point in visit order wins
        ("dwt_db2", "gepsvm"): "FoldTrainingError: fold 1: planted at delta 0.0001",
        ("dwt_db2", "igepsvm"): None,
        # the fit failing on fold 2 wins over the training failure on fold 0
        ("pca", "gepsvm"): "FoldTrainingError: fold 2: planted fit failure",
        ("pca", "igepsvm"): "FoldTrainingError: fold 2: planted fit failure",
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_run_benchmark_counts_fits_builds_and_hits(bonn_tree, workers):
    grids = {
        "ugepsvm": {"delta": [1e-4, 1e-2], "universum_size": [3, 6]},
        "iugepsvm": {"delta": [1e-5], "gamma": [0.1], "psi": [0.01], "universum_size": [3, 6]},
    }
    manifest = _toy_manifest(bonn_tree, classifiers=list(grids), grids=grids)
    k = manifest["folds"]
    lookups = (4 + 2) * k  # every grid point looks up one block per fold
    pca = run_benchmark({**manifest, "features": ["pca"]}, workers=workers)
    assert all(r.error is None for r in pca.rows)
    assert pca.counters == {
        "feature_fits": k,  # once per fold, not once per classifier
        "kernel_tables": 0,  # linear grids need no distance table
        "span_factors": 0,  # 4 pca components: no row-span factor
        "block_builds": 2 * 2 * k,  # once per (cell, fold, Universum size)
        "block_hits": lookups - 2 * 2 * k,
    }
    both = run_benchmark({**manifest, "features": ["pca", "dwt_db2"]}, workers=workers)
    assert both.counters == {
        "feature_fits": k,  # a wavelet fits nothing
        "kernel_tables": 0,
        "span_factors": k,  # wide wavelet rows: one per fold, sliced for both sizes
        "block_builds": 2 * 2 * 2 * k,
        "block_hits": 2 * (lookups - 2 * 2 * k),
    }
    rbf_grids = {"gepsvm": {"delta": [1e-4, 1e-2], "sigma": [4.0, 64.0]}}
    rbf = run_benchmark(
        {**manifest, "features": ["pca"], "classifiers": ["gepsvm"], "grids": rbf_grids},
        workers=workers,
    )
    assert all(r.error is None for r in rbf.rows)
    assert rbf.counters == {
        "feature_fits": k,
        "kernel_tables": k,  # one per fold, shared by both sigmas
        "span_factors": 0,
        "block_builds": 2 * k,  # one per (fold, sigma)
        "block_hits": 4 * k - 2 * k,
    }
