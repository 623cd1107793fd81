"""Cross-validation, grid search, ranking, and benchmark-runner tests."""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest

from eigu.classifiers import TrainSpec
from eigu.dataio import LabeledDataset, make_folds, subset_universum
from eigu.evaluation import (
    FoldTrainingError,
    GridSpec,
    grid_search,
    parse_grid,
    rank_models,
    results_csv,
    run_benchmark,
    run_cv,
)
from eigu.features import FeatureConfig
from eigu.kernels import KernelSpec

from conftest import TOY_SEGMENT, random_dataset


def test_run_cv_is_perfect_on_separable_data(planes_dataset):
    folds = make_folds(planes_dataset, 5, seed=0)
    report = run_cv(planes_dataset, folds, TrainSpec(classifier="gepsvm", delta=1e-4))
    assert report.k == 5
    assert report.fold_accuracies == (100.0,) * 5
    assert report.mean_accuracy == 100.0
    assert report.feature_refits == 0
    assert report.params == {"delta": 1e-4}


def test_run_cv_is_deterministic_with_and_without_a_cache(planes_dataset):
    folds = make_folds(planes_dataset, 4, seed=9)
    spec = TrainSpec(classifier="iugepsvm", delta=1e-5, gamma1=0.1, psi1=0.01)
    first = run_cv(planes_dataset, folds, spec)
    second = run_cv(planes_dataset, folds, spec)
    cached = run_cv(planes_dataset, folds, spec, cache={})
    assert first.fold_accuracies == second.fold_accuracies == cached.fold_accuracies
    assert first.mean_accuracy == second.mean_accuracy == cached.mean_accuracy


def test_run_cv_refits_the_extractor_once_per_fold():
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

    cache = {}
    warm = run_cv(dataset, folds, spec, extractor=config, cache=cache)
    reused = run_cv(dataset, folds, spec, extractor=config, cache=cache)
    assert warm.fold_accuracies == reused.fold_accuracies == report.fold_accuracies
    assert reused.feature_refits == folds.k  # one fit per fold per cache


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


def test_run_benchmark_validates_the_manifest(bonn_tree, tmp_path):
    with pytest.raises(ValueError, match="missing 'grids'"):
        run_benchmark({k: v for k, v in _toy_manifest(bonn_tree).items() if k != "grids"})
    with pytest.raises(ValueError, match="unknown task"):
        run_benchmark(_toy_manifest(bonn_tree, tasks=["o_vs_x"]))
    with pytest.raises(ValueError, match="missing classifier"):
        run_benchmark(_toy_manifest(bonn_tree, grids={"gepsvm": {"delta": [1e-4]}}))
    with pytest.raises(FileNotFoundError):
        run_benchmark(_toy_manifest(bonn_tree, data_root=str(tmp_path / "missing")))


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
