"""Cross-validation, grid search, ranking, and benchmark-runner tests."""

from __future__ import annotations

import csv
import gc
import io
import json
import re
import tracemalloc
import weakref
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from eigu.classifiers import (
    CLASSIFIER_AXES,
    TrainSpec,
    build_blocks,
    plane_distances,
    train_with_blocks,
)
from eigu import classifiers, evaluation, features
from eigu.cli import main
from eigu.dataio import LabeledDataset, make_folds, subset_universum
from eigu.evaluation import (
    GRID_AXES,
    FoldTrainingError,
    GridSpec,
    _validate_grid,
    featurize,
    grid_search,
    load_tasks,
    parse_grid,
    rank_models,
    results_csv,
    run_benchmark,
    run_cv,
)
from eigu.features import SUPPORTED_WAVELETS, FeatureConfig, dwt_features, feature_config_from_id
from eigu.kernels import KernelSpec, default_sigma
from eigu.synth import cross_planes, mid_band_universum

from conftest import INVALID_GRIDS, TOY_PER_SET, TOY_SEGMENT, build_recording_tree, random_dataset


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


@pytest.mark.parametrize(
    "classifier, grid, message",
    [
        ("ugepsvm", GridSpec(delta=(1e-4,), universum_size=(7,)), "exceeds the 6 pooled rows"),
        ("gepsvm", GridSpec(delta=(-1.0,)), "delta must be finite and >= 0, got -1.0"),
    ],
    ids=["universum_size", "delta"],
)
def test_a_grid_without_a_valid_point_fits_no_extractor(monkeypatch, classifier, grid, message):
    rng = np.random.default_rng(8)
    dataset = LabeledDataset(
        X1=rng.standard_normal((10, 16)) + 1.0,
        X2=rng.standard_normal((10, 16)),
        U=rng.standard_normal((6, 16)),
    )
    fits = _counting(monkeypatch, "fit_features")
    config = FeatureConfig(method="pca", n_components=3)
    with pytest.raises(ValueError, match=message):
        grid_search(dataset, make_folds(dataset, 4, seed=0), classifier, grid, extractor=config)
    assert fits == []


@pytest.mark.parametrize("classifier", ["gepsvm", "ugepsvm"])
def test_a_wavelet_extractor_is_applied_once_to_the_rows_a_cell_trains_on(monkeypatch, classifier):
    rng = np.random.default_rng(8)
    dataset = LabeledDataset(
        X1=rng.standard_normal((10, 32)) + 1.0,
        X2=rng.standard_normal((10, 32)),
        U=rng.standard_normal((6, 32)),
    )
    folds = make_folds(dataset, 2, seed=0)
    config = FeatureConfig(method="dwt", wavelet="db2")
    spec = TrainSpec(classifier=classifier, delta=1e-4)
    transformed, extractor = featurize(dataset, config)
    assert extractor is None
    rows = _counting(monkeypatch, "dwt_features")
    report = run_cv(dataset, folds, spec, extractor=config)
    # every row once, up front, and no Universum row gepsvm does not train on
    taken = dataset.p if classifier == "ugepsvm" else 0
    assert len(rows) == dataset.m1 + dataset.m2 + taken
    assert report.feature_refits == 0
    assert report.fold_accuracies == run_cv(transformed, folds, spec).fold_accuracies
    grid = GridSpec(delta=(1e-4,))
    searched = grid_search(dataset, folds, classifier, grid, extractor=config).best_report
    assert searched.fold_accuracies == report.fold_accuracies


def test_every_bandwidth_shares_one_kernel_table(planes_dataset, monkeypatch):
    tables = _counting(monkeypatch, "kernel_table")
    built = _counting(monkeypatch, "build_blocks")
    original = evaluation.predict
    predictions = []

    def spy(model, queries, *, coords=None):
        labels = original(model, queries, coords=coords)
        predictions.append((model, coords, labels))
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
    for sigma, blocks, (model, coords, labels) in zip(grid.sigma, built, predictions):
        spec = TrainSpec(
            classifier="iugepsvm", delta=1e-5, gamma1=0.1, psi1=0.01, kernel=KernelSpec("rbf", sigma)
        )
        assert blocks.basis.Z is table.Z and model.Z is table.Z
        fresh_blocks = build_blocks(fold_data, spec.kernel)
        fresh_model = train_with_blocks(fresh_blocks, spec)
        assert fresh_blocks.basis.Z is not table.Z
        assert np.array_equal(blocks.K_ZZ, fresh_blocks.K_ZZ)
        shared = plane_distances(model, test_rows, coords=coords)  # the sheet's kernel rows
        unshared = plane_distances(fresh_model, test_rows)
        assert all(np.array_equal(a, b) for a, b in zip(shared, unshared))
        assert np.array_equal(labels, original(fresh_model, test_rows))


def test_an_rbf_sheet_evaluates_its_kernel_twice_and_no_scored_point_again(
    planes_dataset, monkeypatch
):
    """K_ZZ and the test kernel rows once per sheet; each point scores the sheet's rows."""
    grams = []
    original = classifiers.gram

    def spy(*args, **kwargs):
        grams.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(classifiers, "gram", spy)
    predicted = _counting(monkeypatch, "predict")
    dataset, folds = planes_dataset, make_folds(planes_dataset, 2, seed=0)
    grid = GridSpec(delta=(1e-5, 1e-3), gamma=(0.1,), psi=(0.01,), sigma=(0.5, 4.0),
                    universum_size=(10, 20))
    grid_search(dataset, folds, "iugepsvm", grid)
    sheets = folds.k * len(grid.sigma) * len(grid.universum_size)
    assert len(predicted) == grid.cardinality() * folds.k  # every point scored, none merged
    assert len(grams) == 2 * sheets


def test_run_cv_reports_each_folds_data_driven_sigma(planes_dataset):
    dataset, folds = planes_dataset, make_folds(planes_dataset, 3, seed=0)
    spec = TrainSpec(classifier="gepsvm", delta=1e-4, kernel=KernelSpec("rbf"))
    report = run_cv(dataset, folds, spec)
    expected = []
    for fold in range(folds.k):
        test1, test2 = folds.class1_folds == fold, folds.class2_folds == fold
        # gepsvm takes no Universum, so its rows join neither Z nor the bandwidth
        expected.append(default_sigma(np.vstack([dataset.X1[~test1], dataset.X2[~test2]])))
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

    def spy(model, queries, *, coords=None):
        labels = original(model, queries, coords=coords)
        calls.append((model, queries, coords, labels))
        return labels

    monkeypatch.setattr(evaluation, "predict", spy)
    factors = _counting(monkeypatch, "span_factor")
    built = _counting(monkeypatch, "build_blocks")
    grid = GridSpec(delta=(1e-4, 1e-2), universum_size=(2, 6))
    grid_search(dataset, folds, "ugepsvm", grid)
    assert len(built) == 2 * folds.k  # one per (fold, u), shared by both deltas
    assert len(factors) == folds.k  # one per fold, sliced per u
    assert len(calls) == grid.cardinality() * folds.k
    for model, queries, coords, labels in calls:
        assert model.span is not None and coords is not None
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


def _saturating() -> LabeledDataset:
    """Rows so close, against their mean squared distance, that every rbf kernel below is I.

    Squared distances run from 1.1e-6 to 4.1e-5 while a bandwidth is at
    most 2e-5, and ``default_sigma`` (the mean squared distance) is about
    1.1e-5: exp(-d^2 / 2 sigma^2) underflows to exactly 0 off the diagonal.
    """
    rng = np.random.default_rng(5)
    rows = 1e-3 * rng.standard_normal((30, 6))
    rows[12:24, 0] += 1e-3
    return LabeledDataset(X1=rows[:12], X2=rows[12:24], U=rows[24:])


def _engine_counts(monkeypatch):
    """Spy on the grid engine; the returned list collects each run's work counts."""
    return _counting(monkeypatch, "_run_cells")


def test_bandwidths_with_bitwise_equal_kernels_share_one_sheets_results(monkeypatch):
    dataset = _saturating()
    folds = make_folds(dataset, 3, seed=0)
    grid = GridSpec(
        delta=(1e-5,), gamma=(0.1, 1.0), psi=(0.01,), sigma=(5e-6, 1e-5, 2e-5),
        universum_size=(0, 6),
    )
    for sigma in (None, *grid.sigma):
        blocks = build_blocks(dataset, KernelSpec("rbf", sigma))
        assert np.array_equal(blocks.K_ZZ, np.eye(len(blocks.K_ZZ)))
    expected = _uncached_reports(dataset, folds, "iugepsvm", grid)
    runs, built = _engine_counts(monkeypatch), _counting(monkeypatch, "build_blocks")
    result = grid_search(dataset, folds, "iugepsvm", grid)
    assert [r.fold_accuracies for r in result.reports] == [r.fold_accuracies for r in expected]
    for got, want in zip(result.reports, expected):
        assert {**want.params, "universum_size": got.params["universum_size"]} == got.params
    (counts,) = runs
    # per fold and u, the later two bandwidths take the first one's results
    assert counts["merged_sheets"] == 2 * 2 * folds.k
    assert counts["block_builds"] == len(built) == 2 * folds.k
    assert counts["block_builds"] + counts["block_hits"] == grid.cardinality() * folds.k

    # a data-driven bandwidth merged into a named one still reports its own per fold
    fixed, driven = (
        TrainSpec("gepsvm", delta=1e-4, kernel=KernelSpec("rbf", s)) for s in (1e-5, None)
    )
    cell = evaluation._Cell("gepsvm", [(fixed, 0, {}, []), (driven, 0, {}, [])])
    prepared = evaluation._prepared(dataset, folds.seed, [(None, [cell])])
    counts = evaluation._run_cells(*prepared, folds)
    assert counts["merged_sheets"] == counts["block_builds"] == folds.k
    got = cell.result(folds, "", "").reports
    alone = [run_cv(dataset, folds, spec) for spec in (fixed, driven)]
    assert [r.fold_accuracies for r in got] == [r.fold_accuracies for r in alone]
    assert got[1].params == alone[1].params and len(set(got[1].params["fold_sigmas"])) == folds.k


def test_bandwidths_whose_kernels_differ_merge_nothing(planes_dataset, monkeypatch):
    folds = make_folds(planes_dataset, 2, seed=0)
    grid = GridSpec(delta=(1e-4, 1e-2), sigma=(0.5, 4.0))
    runs = _engine_counts(monkeypatch)
    grid_search(planes_dataset, folds, "gepsvm", grid)
    (counts,) = runs
    assert counts["merged_sheets"] == 0
    assert counts["block_builds"] == 2 * folds.k  # one per (fold, sigma)


def test_a_merged_point_fails_with_its_twins_error_at_its_own_place(monkeypatch):
    """gepsvm's sheet (0, 2e-5) runs first, with igepsvm's point 1; igepsvm's point 0 merges."""
    dataset = _saturating()
    folds = make_folds(dataset, 3, seed=0)
    train, trained = evaluation.train_with_blocks, []

    def training(blocks, spec):
        trained.append((spec.classifier, blocks.kernel.sigma))
        if spec.delta == 1e-5:
            raise np.linalg.LinAlgError(f"planted at delta {spec.delta}")
        return train(blocks, spec)

    monkeypatch.setattr(evaluation, "train_with_blocks", training)
    cells = [
        evaluation._grid_cell("gepsvm", GridSpec(delta=(1e-4,), sigma=(2e-5,)), dataset.p),
        evaluation._grid_cell("igepsvm", GridSpec(delta=(1e-5,), nu=(0.1,), sigma=(1e-5, 2e-5)), 0),
    ]
    prepared = evaluation._prepared(dataset, folds.seed, [(None, cells)])
    counts = evaluation._run_cells(*prepared, folds)
    # igepsvm's point 1 failed on fold 0; its twin, point 0, took that error and was not solved
    assert trained == [("gepsvm", 2e-5), ("igepsvm", 2e-5)] + [("gepsvm", 2e-5)] * 2
    assert counts["merged_sheets"] == 1
    index, error = cells[1].failure
    assert index == 0  # the first failing point in visit order
    with pytest.raises(FoldTrainingError) as alone:
        run_cv(dataset, folds, cells[1].points[0][0])
    assert str(error) == str(alone.value) == "fold 0: planted at delta 1e-05"
    assert cells[0].failure is None


def test_equal_training_kernels_with_different_test_kernel_rows_do_not_merge():
    """K_ZZ is I at both bandwidths; a test row near a training row tells them apart."""
    rng = np.random.default_rng(3)
    rows = LabeledDataset(
        X1=100 * rng.standard_normal((4, 3)), X2=100 * rng.standard_normal((4, 3)) + 1e3,
        U=np.zeros((0, 3)),
    )
    near = rows.X1[:1] + 0.05
    for test_rows, merged in ((near, False), (near + 1e4, True)):
        record = evaluation._FoldRecord(0, rows, None, test_rows, np.array([1]), Counter())
        (*_, first), (*_, second) = (
            record.sheet(0, KernelSpec("rbf", sigma), []) for sigma in (0.5, 1.0)
        )
        assert (first is second) == merged
        assert record.counts["merged_sheets"] == merged
        if not merged:
            (K1, tested1, _), (K2, tested2, _) = record.seen[0]
            assert np.array_equal(K1, np.eye(8)) and np.array_equal(K2, np.eye(8))
            assert not np.array_equal(tested1, tested2)


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
    original = evaluation.load_bonn_set
    monkeypatch.setattr(evaluation, "load_bonn_set", lambda *a: loaded.append(a) or original(*a))
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


@pytest.mark.parametrize(
    "key, value",
    [
        ("folds", 2.9),
        ("universum_pool", True),
        ("seed", 1.7),
        ("segment_length", "256"),
        ("n_components", 4.0),
        ("workers", False),
    ],
)
def test_run_benchmark_rejects_non_integer_settings(bonn_tree, tmp_path, monkeypatch, key, value):
    loaded = []
    monkeypatch.setattr(evaluation, "load_bonn_set", lambda *args: loaded.append(args))
    missing = str(tmp_path / "missing")  # the setting is checked before the data root
    with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {value!r}")):
        run_benchmark(_toy_manifest(bonn_tree, data_root=missing, **{key: value}))
    assert loaded == []


@pytest.mark.parametrize(
    "key, entries, named",
    [
        ("tasks", ["o_vs_s", "O_VS_S"], "O_VS_S"),
        ("features", ["pca", "PCA"], "PCA"),
        ("classifiers", ["gepsvm", "iugepsvm", "gepsvm"], "gepsvm"),
    ],
)
def test_run_benchmark_rejects_repeated_entries(bonn_tree, monkeypatch, key, entries, named):
    """A repeated entry would run its cells twice and rank a model against itself."""
    loaded = []
    monkeypatch.setattr(evaluation, "load_bonn_set", lambda *args: loaded.append(args))
    with pytest.raises(ValueError, match=re.escape(f"manifest {key} lists {named!r} more than once")):
        run_benchmark(_toy_manifest(bonn_tree, **{key: entries}))
    assert loaded == []


@pytest.mark.parametrize(
    "key, value, kind",
    [
        ("tasks", "o_vs_s", "a list"),
        ("features", "dwt_db2", "a list"),
        ("classifiers", "gepsvm", "a list"),
        ("tasks", None, "a list"),
        ("grids", [{"delta": [1e-4]}], "an object"),
    ],
)
def test_run_benchmark_rejects_a_manifest_entry_of_the_wrong_kind(
    bonn_tree, tmp_path, monkeypatch, capsys, key, value, kind
):
    """A string is not read character by character; bench exits 2 with or without a filter."""
    loaded = []
    monkeypatch.setattr(evaluation, "load_bonn_set", lambda *args: loaded.append(args))
    message = f"manifest {key!r} must be {kind}, got {value!r}"
    manifest = _toy_manifest(bonn_tree, **{key: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        run_benchmark(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    argv = ["bench", "--manifest", str(path), "--output-dir", str(tmp_path / "out")]
    flag = {"tasks": "o_vs_s", "features": "dwt_db2", "classifiers": "gepsvm"}.get(key)
    for extra in ([], [f"--{key}", flag]) if flag else ([],):
        assert main([*argv, *extra]) == 2
        assert message in capsys.readouterr().err
    assert loaded == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["delta", [1e-4], None])
def test_run_benchmark_rejects_a_classifier_grid_that_is_not_an_object(
    bonn_tree, tmp_path, monkeypatch, capsys, grid
):
    """A string or list is not read as axis names, and a null grid is no TypeError."""
    loaded = []
    monkeypatch.setattr(evaluation, "load_bonn_set", lambda *args: loaded.append(args))
    message = f"manifest grid of 'gepsvm' must be an object, got {grid!r}"
    manifest = _toy_manifest(bonn_tree, classifiers=["gepsvm"], grids={"gepsvm": grid})
    with pytest.raises(ValueError, match=re.escape(message)):
        run_benchmark(manifest)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["bench", "--manifest", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert loaded == [] and not (tmp_path / "out").exists()


def test_load_tasks_reads_each_set_once_and_n_only_for_a_pool(bonn_tree, monkeypatch):
    read = []
    original = evaluation.load_bonn_set
    monkeypatch.setattr(
        evaluation, "load_bonn_set", lambda path, label: read.append(label) or original(path, label)
    )
    raw = load_tasks(bonn_tree, ["o_vs_s", "z_vs_s"], 100, TOY_SEGMENT, 1)
    assert read == ["N", "O", "S", "Z"]
    assert [raw[task].p for task in raw] == [TOY_PER_SET, TOY_PER_SET]  # all of N's 12
    np.testing.assert_array_equal(raw["o_vs_s"].U, raw["z_vs_s"].U)
    read.clear()
    assert load_tasks(bonn_tree, ["o_vs_s"], 0, TOY_SEGMENT, 1)["o_vs_s"].p == 0
    assert read == ["O", "S"]
    assert load_tasks(bonn_tree, ["o_vs_s"], 5, TOY_SEGMENT, 1)["o_vs_s"].p == 5


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


@pytest.mark.parametrize("key", ["fold", "n_component"])
def test_an_unknown_manifest_key_is_refused_before_any_data_is_read(
    bonn_tree, tmp_path, monkeypatch, capsys, key
):
    """A misspelt setting would otherwise fall back to its default unseen."""
    read = _counting(monkeypatch, "load_bonn_set")
    manifest = _toy_manifest(bonn_tree, **{key: 3})
    message = f"unknown manifest keys: ['{key}']"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_benchmark(manifest)
    path, out = tmp_path / "manifest.json", tmp_path / "results"
    path.write_text(json.dumps(manifest))
    assert main(["bench", "--manifest", str(path), "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert read == [] and not out.exists()


def test_two_benchmark_runs_render_the_same_results_csv(bonn_tree):
    """No column holds a timing, so a rerun gives the same text, copied wavelet rows included."""
    manifest = _toy_manifest(bonn_tree, features=["dwt_db2", "dwt_haar", "pca"])
    assert results_csv(run_benchmark(manifest).rows) == results_csv(run_benchmark(manifest).rows)


def test_two_cv_runs_give_equal_reports(bonn_tree):
    dataset = load_tasks(bonn_tree, ["o_vs_s"], 6, TOY_SEGMENT, 1)["o_vs_s"]
    folds = make_folds(dataset, 2, seed=1)
    spec = TrainSpec(classifier="iugepsvm", delta=1e-4, gamma1=0.1, psi1=0.01)
    config = feature_config_from_id("dwt_db2")
    first, second = (run_cv(dataset, folds, spec, extractor=config) for _ in range(2))
    assert asdict(first) == asdict(second)


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
    seed = manifest["seed"]
    raw = load_tasks(
        bonn_tree, manifest["tasks"], manifest["universum_pool"], manifest["segment_length"], seed
    )
    rows = []
    for task in manifest["tasks"]:
        raw_task = raw[task]
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


def _records_made(monkeypatch):
    """Spy on the fold step; the returned call lists every record made so far, in order."""
    made = _counting(monkeypatch, "_fold_records")
    return lambda: [r for rs in made for r in rs if isinstance(r, evaluation._FoldRecord)]


def test_blocks_live_one_sheet_and_each_fold_builds_one_basis(bonn_tree, tmp_path, monkeypatch):
    factors = _counting(monkeypatch, "span_factor")
    tables = _counting(monkeypatch, "kernel_table")
    made = _records_made(monkeypatch)
    manifest = _sharing_manifest(bonn_tree)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(path), "--output-dir", str(out)]) == 0

    k = manifest["folds"]
    records = made()
    assert len(records) == 2 * k  # one record per fold and pair, in fold order, pca's first
    assert [record.fold for record in records] == [*range(k), *range(k)]
    for record in records:
        # ugepsvm asks for 50 Universum rows; the pool of 6 caps the record
        assert record.rows.p == manifest["universum_pool"]
        rows = record.rows.m1 + record.rows.m2 + record.rows.p
        assert record.bases[True].Z.shape[0] == rows  # rbf cells run at u = 0, a prefix
    assert [factor.tau.size for factor in factors] == [
        record.rows.m1 + record.rows.m2 + manifest["universum_pool"] for record in records[k:]
    ]  # dwt_db2 only (4 pca components are narrow); linear cells run at u = 3, a prefix
    assert len(tables) == 2 * k
    counters = json.loads((out / "runinfo.json").read_text())["counters"]
    assert counters == {
        "feature_fits": k,  # pca, once per fold
        "ica_capped": 0,
        "span_factors": k,  # dwt_db2, once per fold for u = 3 and the pool
        "kernel_tables": 2 * k,  # once per fold and pair, though the pair draws u = 0 and 6
        # two sheets per fold and pair: (u = 0, rbf 4.0) for gepsvm and igepsvm,
        # (u = 3, linear) for ugepsvm and iugepsvm; each cell scores one point on one
        "block_builds": 2 * 2 * k,
        "block_hits": 2 * 2 * k,
        "merged_sheets": 0,  # the only rbf sheet of a fold and pair has nothing to merge with
    }


def test_a_fold_builds_each_training_set_once_and_none_outlives_its_rows(bonn_tree, monkeypatch):
    grids = {
        "iugepsvm": SHARING_GRIDS["iugepsvm"],  # linear at u = 3, before any kernel table
        "ugepsvm": {"delta": [1e-4], "universum_size": [3]},  # the same sheet
        "gepsvm": SHARING_GRIDS["gepsvm"],  # rbf at u = 0: builds the fold's table
    }
    manifest = _toy_manifest(bonn_tree, features=["pca"], classifiers=list(grids), grids=grids)
    made = _records_made(monkeypatch)
    trained_on, alive = [], []
    build = evaluation.build_blocks

    def spy(dataset, *args):
        gc.collect()
        assert all(ref() is None for ref in alive)  # no training set outlives its sheet
        trained_on.append((dataset.p, dataset.X1))
        alive.append(weakref.ref(dataset))
        return build(dataset, *args)

    monkeypatch.setattr(evaluation, "build_blocks", spy)
    assert all(row.error is None for row in run_benchmark(manifest).rows)
    records = made()
    assert len(trained_on) == 2 * manifest["folds"]  # one training set per (fold, sheet)
    for index, record in enumerate(records):
        (linear_u, _), (rbf_u, rbf_X1) = trained_on[2 * index : 2 * index + 2]
        assert linear_u == 3  # shared by iugepsvm and ugepsvm
        assert rbf_u == 0 and np.shares_memory(rbf_X1, record.bases[True].Z)


def test_each_fold_is_freed_before_the_next_fold_builds_its_basis(bonn_tree, monkeypatch):
    alive = {"span_factor": [], "kernel_table": [], "_fold_records": []}

    def spying(name):
        original = getattr(evaluation, name)

        def spy(*args):
            gc.collect()
            assert all(ref() is None for ref in alive[name])  # the last fold's is gone
            made = original(*args)
            for item in made if isinstance(made, list) else [made]:
                alive[name].append(weakref.ref(item))
            return made

        monkeypatch.setattr(evaluation, name, spy)

    for name in alive:  # a fold's records, rows and all, too
        spying(name)
    manifest = _sharing_manifest(bonn_tree)
    assert len(run_benchmark(manifest).rows) == 2 * len(SHARING_GRIDS)
    k = manifest["folds"]
    assert len(alive["span_factor"]) == k and len(alive["kernel_table"]) == 2 * k
    assert len(alive["_fold_records"]) == 2 * k


@pytest.mark.parametrize("features", [["pca", "dwt_db2"], ["dwt_db2", "pca"]])
def test_a_wavelet_jobs_raw_rows_are_freed_before_its_first_span_factor(
    bonn_tree, monkeypatch, features
):
    """A task's fitted job runs first, wherever the manifest lists it.

    Its wavelet job then frees the raw rows once it has transformed them.
    """
    raw, freed = [], []
    load, factor = evaluation.load_tasks, evaluation.span_factor

    def loading(*args):
        tasks = load(*args)
        raw.extend(weakref.ref(a) for d in tasks.values() for a in (d.X1, d.X2, d.U))
        return tasks

    def factoring(*args):
        gc.collect()
        freed.append(all(ref() is None for ref in raw))
        return factor(*args)

    monkeypatch.setattr(evaluation, "load_tasks", loading)
    monkeypatch.setattr(evaluation, "span_factor", factoring)
    manifest = _toy_manifest(bonn_tree, features=features)
    assert all(row.error is None for row in run_benchmark(manifest).rows)
    assert len(raw) == 3  # X1, X2 and the Universum pool of the one task
    assert freed == [True] * manifest["folds"]  # dwt_db2's wide rows; 4 pca components are narrow


def test_a_wavelet_run_holds_its_rows_one_fold_buffer_and_one_sheet(tmp_path):
    """One wavelet-only call's tracemalloc peak stays within what the design keeps alive.

    That is the job's rows all along, plus either the raw rows (until they
    are transformed) or one fold's gathered buffer F and one sheet's
    blocks.  The slack covers the transient copies: the test rows three
    times (the rows, their bias-augmented copy and its rotation in
    ``SpanFactor.project``) and 15% of the job's rows for everything else.
    A fold split beside F, or raw rows kept past the transform, exceed it.
    """
    per_set, n, pool, k = 20, 4096, 20, 5
    manifest = _toy_manifest(
        build_recording_tree(tmp_path, per_set=per_set, length=n + 1), universum_pool=pool,
        segment_length=n, folds=k,
    )
    labeled = 2 * per_set
    rows = (labeled + pool) * n * 8  # the job's rows, and as many raw ones
    train = labeled - labeled // (2 * k) * 2  # the largest fold's labeled training rows
    F = (train + pool) * (n + 1) * 8
    blocks = 6 * (train + pool) ** 2 * 8  # G, H, P, R' and the two planes' operands
    test = (labeled - train) * n * 8
    bound = rows + max(rows, F + blocks) + 3 * test + rows * 15 // 100
    run_benchmark(manifest)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        result = run_benchmark(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row.error is None for row in result.rows)
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


@pytest.mark.parametrize("wavelet", SUPPORTED_WAVELETS)
def test_featurize_writes_each_rows_transform_into_one_array(wavelet):
    rng = np.random.default_rng(5)
    dataset = LabeledDataset(
        X1=rng.standard_normal((5, 64)), X2=rng.standard_normal((4, 64)),
        U=rng.standard_normal((3, 64)),
    )
    config = FeatureConfig(method="dwt", wavelet=wavelet)
    out, extractor = featurize(dataset, config)
    assert extractor is None and out.X1.base is not None
    assert out.X1.base is out.X2.base is out.U.base  # views of one array
    for name in ("X1", "X2", "U"):
        expected = np.vstack([dwt_features(row, wavelet) for row in getattr(dataset, name)])
        assert np.array_equal(getattr(out, name), expected)  # bit for bit
    no_universum = LabeledDataset(X1=dataset.X1, X2=dataset.X2, U=dataset.U[:0])
    assert featurize(no_universum, config)[0].U.shape == (0, 64)


def test_only_one_sheets_blocks_are_alive(bonn_tree, monkeypatch):
    """Two Universum sizes by two bandwidths: four sheets a fold, each freed before the next."""
    alive = []
    build = evaluation.build_blocks

    def spy(*args):
        gc.collect()
        assert all(ref() is None for ref in alive)  # the previous sheet's blocks are gone
        blocks = build(*args)
        alive.append(weakref.ref(blocks))
        return blocks

    monkeypatch.setattr(evaluation, "build_blocks", spy)
    grids = {
        "iugepsvm": {
            "delta": [1e-5], "gamma": [0.1, 1.0], "psi": [0.01],
            "sigma": [4.0, 64.0], "universum_size": [3, 6],
        }
    }
    manifest = _toy_manifest(bonn_tree, features=["pca"], classifiers=list(grids), grids=grids)
    result = run_benchmark(manifest)
    assert all(row.error is None for row in result.rows)
    assert len(alive) == 4 * manifest["folds"]
    assert result.counters["block_hits"] == 4 * manifest["folds"]  # two gammas a sheet


#: Planted failures: (classifier, delta) -> the folds its training fails on.
PLANTED = {("gepsvm", 1e-4): {1}, ("gepsvm", 1e-3): {0}}


def test_errors_name_the_failure_each_cell_names_alone(bonn_tree, monkeypatch):
    current = {}
    records = evaluation._fold_records

    def recording(dataset, folds, fold, *args):
        current["fold"] = fold
        return records(dataset, folds, fold, *args)

    fit, train = evaluation.fit_labeled, evaluation.train_with_blocks

    def fitting(config, dataset, *args):
        if current["fold"] == 2:
            raise ValueError("planted fit failure")
        return fit(config, dataset, *args)

    def training(blocks, spec):
        if current["fold"] in PLANTED.get((spec.classifier, spec.delta), ()):
            raise np.linalg.LinAlgError(f"planted at delta {spec.delta}")
        return train(blocks, spec)

    monkeypatch.setattr(evaluation, "_fold_records", recording)
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


def test_a_cell_without_a_valid_point_keeps_its_grid_error(bonn_tree, monkeypatch):
    """A failing fit fails each cell with a point; a cell without one would not fit at all."""
    tried = []

    def failing(*args):
        tried.append(args)
        raise ValueError("planted fit failure")

    monkeypatch.setattr(evaluation, "fit_labeled", failing)
    grids = {"gepsvm": {"delta": [1e-4]}, "ugepsvm": {"delta": [1e-4], "universum_size": [50]}}
    manifest = _toy_manifest(bonn_tree, features=["pca"], classifiers=list(grids), grids=grids)
    result = run_benchmark(manifest)
    assert _cell_rows(result) == _fresh_rows(bonn_tree, manifest)
    assert [r.error for r in result.rows] == [
        "FoldTrainingError: fold 0: planted fit failure",
        "ValueError: universum_size 50 exceeds the 6 pooled rows",
    ]
    tried.clear()
    (invalid,) = run_benchmark({**manifest, "classifiers": ["ugepsvm"]}).rows
    assert tried == [] and invalid.error == result.rows[1].error


def _planting(monkeypatch, train_failures, build_failures):
    """Fail training at each (fold, delta, u) and block builds at each (fold, u) given.

    Returns the (fold, u) of every block build tried.
    """
    current, sizes, tried = {}, {}, []
    records, build = evaluation._fold_records, evaluation.build_blocks
    train = evaluation.train_with_blocks

    def recording(dataset, folds, fold, *args):
        current["fold"] = fold
        return records(dataset, folds, fold, *args)

    def building(dataset, *args):
        tried.append((current["fold"], dataset.p))
        if tried[-1] in build_failures:
            raise np.linalg.LinAlgError(f"planted build failure at u {dataset.p}")
        blocks = build(dataset, *args)
        sizes[id(blocks)] = dataset.p
        return blocks

    def training(blocks, spec):
        point = (current["fold"], spec.delta, sizes[id(blocks)])
        if point in train_failures:
            raise np.linalg.LinAlgError(f"planted at delta {spec.delta}, u {point[2]}")
        return train(blocks, spec)

    monkeypatch.setattr(evaluation, "_fold_records", recording)
    monkeypatch.setattr(evaluation, "build_blocks", building)
    monkeypatch.setattr(evaluation, "train_with_blocks", training)
    return tried


@pytest.mark.parametrize(
    "planted, named",
    [
        ({(1, 1e-2, 3), (1, 1e-4, 6)}, "delta 0.0001, u 6"),  # (a, 6), not (b, 3)
        ({(1, 1e-2, 3), (1, 1e-2, 6)}, "delta 0.01, u 3"),  # (b, 6) comes after (b, 3)
    ],
)
def test_a_cell_fails_at_its_first_failing_point_across_sheets(
    bonn_tree, monkeypatch, planted, named
):
    """Visit order (a, 3), (a, 6), (b, 3), (b, 6); the u = 3 sheet runs first."""
    _planting(monkeypatch, planted, set())
    grids = {"ugepsvm": {"delta": [1e-4, 1e-2], "universum_size": [3, 6]}}
    manifest = _toy_manifest(
        bonn_tree, features=["dwt_db2", "pca"], classifiers=list(grids), grids=grids, folds=3
    )
    result = run_benchmark(manifest)
    assert _cell_rows(result) == _fresh_rows(bonn_tree, manifest)
    assert [r.error for r in result.rows] == [f"FoldTrainingError: fold 1: planted at {named}"] * 2


def test_a_failed_build_fails_each_cell_of_its_sheet_at_its_own_point(bonn_tree, monkeypatch):
    """The u = 6 sheet is ugepsvm's point 1 and iugepsvm's point 0; its fold-0 build fails."""
    tried = _planting(monkeypatch, {(2, 1e-4, 3)}, {(0, 6)})
    grids = {
        "ugepsvm": {"delta": [1e-4, 1e-2], "universum_size": [3, 6]},
        "iugepsvm": {"delta": [1e-5], "gamma": [0.1], "psi": [0.01], "universum_size": [6]},
    }
    manifest = _toy_manifest(
        bonn_tree, features=["dwt_db2", "pca"], classifiers=list(grids), grids=grids, folds=3
    )
    result = run_benchmark(manifest)
    assert tried == [(0, 3), (0, 6), (1, 3), (2, 3)] * 2  # no point is left on the u = 6 sheet
    assert _cell_rows(result) == _fresh_rows(bonn_tree, manifest)
    assert [r.error for r in result.rows] == [
        # ugepsvm failed at point 1, so point 0 still ran on fold 2 and failed there
        "FoldTrainingError: fold 2: planted at delta 0.0001, u 3",
        "FoldTrainingError: fold 0: planted build failure at u 6",
    ] * 2


@pytest.mark.parametrize("workers", [1, 2])
def test_run_benchmark_counts_fits_builds_and_hits(bonn_tree, workers):
    grids = {
        "ugepsvm": {"delta": [1e-4, 1e-2], "universum_size": [3, 6]},
        "iugepsvm": {"delta": [1e-5], "gamma": [0.1], "psi": [0.01], "universum_size": [3, 6]},
    }
    manifest = _toy_manifest(bonn_tree, classifiers=list(grids), grids=grids)
    k = manifest["folds"]
    scorings = (4 + 2) * k  # every grid point is scored once per fold
    pca = run_benchmark({**manifest, "features": ["pca"]}, workers=workers)
    assert all(r.error is None for r in pca.rows)
    assert pca.counters == {
        "feature_fits": k,  # once per fold, not once per classifier
        "ica_capped": 0,
        "kernel_tables": 0,  # linear grids need no distance table
        "span_factors": 0,  # 4 pca components: no row-span factor
        "block_builds": 2 * k,  # once per (fold, Universum size): both cells share a sheet
        "block_hits": scorings - 2 * k,
        "merged_sheets": 0,  # linear sheets never merge
    }
    both = run_benchmark({**manifest, "features": ["pca", "dwt_db2"]}, workers=workers)
    assert both.counters == {
        "feature_fits": k,  # a wavelet fits nothing
        "ica_capped": 0,
        "kernel_tables": 0,
        "span_factors": k,  # wide wavelet rows: one per fold, sliced for both sizes
        "block_builds": 2 * 2 * k,
        "block_hits": 2 * (scorings - 2 * k),
        "merged_sheets": 0,
    }
    rbf_grids = {"gepsvm": {"delta": [1e-4, 1e-2], "sigma": [4.0, 64.0]}}
    rbf = run_benchmark(
        {**manifest, "features": ["pca"], "classifiers": ["gepsvm"], "grids": rbf_grids},
        workers=workers,
    )
    assert all(r.error is None for r in rbf.rows)
    assert rbf.counters == {
        "feature_fits": k,
        "ica_capped": 0,
        "kernel_tables": k,  # one per fold, shared by both sigmas
        "span_factors": 0,
        "block_builds": 2 * k,  # one per (fold, sigma)
        "block_hits": 4 * k - 2 * k,
        "merged_sheets": 0,  # 4.0 and 64.0 give pca rows different kernels
    }


def test_runinfo_counts_the_ica_fits_that_hit_the_iteration_cap(bonn_tree, tmp_path, monkeypatch):
    monkeypatch.setattr(features, "ICA_MAX_ITERATIONS", 1)
    manifest = _toy_manifest(bonn_tree, features=["ica"], folds=3)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="ICA did not converge within 1 iterations"):
        assert main(["bench", "--manifest", str(path), "--output-dir", str(out)]) == 0
    counters = json.loads((out / "runinfo.json").read_text())["counters"]
    assert counters["feature_fits"] == counters["ica_capped"] == manifest["folds"]


def _cell_rows(result):
    """Each row's cell as ``_fresh_rows`` gives it."""
    return [
        (r.feature, r.classifier, r.fold_accs, r.params, r.n_runs, r.error) for r in result.rows
    ]


def test_a_task_fits_one_pca_basis_per_fold_for_its_pca_and_ica_features(bonn_tree, monkeypatch):
    """ICA whitens through the fold's PCA basis, so pca and ica share one SVD per fold."""
    bases = []
    original = features.pca_fit

    def spy(*args, **kwargs):
        bases.append(original(*args, **kwargs))
        return bases[-1]

    monkeypatch.setattr(features, "pca_fit", spy)
    fits = _counting(monkeypatch, "fit_features")
    manifest = _toy_manifest(bonn_tree, features=["pca", "ica"], folds=3)
    result = run_benchmark(manifest)
    k = manifest["folds"]
    assert all(r.error is None for r in result.rows)
    assert len(bases) == k  # one basis per fold, where each feature fit its own before
    assert len(fits) == 2 * k  # still one fit per extractor and fold
    assert result.counters["feature_fits"] == 2 * k
    for fold in range(k):
        pca_fit, ica_fit = fits[2 * fold : 2 * fold + 2]
        assert pca_fit.config.method == "pca" and ica_fit.config.method == "ica"
        assert pca_fit.pca is ica_fit.pca is bases[fold]


@pytest.mark.parametrize("order", [["pca", "dwt_db1", "ica"], ["ica", "dwt_db1", "pca"]])
def test_jobs_that_group_pca_and_ica_keep_the_manifest_order(bonn_tree, order):
    """pca and ica run as one job even when not adjacent; rows keep manifest order."""
    manifest = _toy_manifest(bonn_tree, features=order, tasks=["o_vs_s", "z_vs_s"], folds=3)
    one, two = (run_benchmark(manifest, workers=workers) for workers in (1, 2))
    expected = [
        (task, feature, classifier)
        for task in manifest["tasks"]
        for feature in order
        for classifier in manifest["classifiers"]
    ]
    assert [(r.task, r.feature, r.classifier) for r in one.rows] == expected
    assert _cell_rows(one) == _cell_rows(two)
    assert one.counters == two.counters
    assert one.counters["feature_fits"] == 2 * 2 * manifest["folds"]  # 2 tasks, pca and ica
    assert _cell_rows(one) == _fresh_rows(bonn_tree, manifest)  # each cell searched alone
    ica = run_benchmark({**manifest, "features": ["ica"]})
    assert _cell_rows(ica) == [row for row in _cell_rows(one) if row[0] == "ica"]


def test_a_tasks_wavelets_are_scored_once_in_the_first_listed_wavelets_coordinates(
    bonn_tree, monkeypatch
):
    """Every dwt_* feature is an orthonormal map of the raw rows, so one scoring serves all."""
    applied = []
    original = evaluation.dwt_features

    def spy(row, wavelet):
        applied.append(wavelet)
        return original(row, wavelet)

    monkeypatch.setattr(evaluation, "dwt_features", spy)
    order = ["dwt_haar", "pca", "dwt_db2", "ica", "dwt_db1"]  # wavelets between fitted features
    manifest = _toy_manifest(bonn_tree, features=order, tasks=["o_vs_s", "z_vs_s"])
    one = run_benchmark(manifest, workers=1)
    assert set(applied) == {"haar"}
    two = run_benchmark(manifest, workers=2)
    expected = [
        (task, feature, classifier)
        for task in manifest["tasks"]
        for feature in order
        for classifier in manifest["classifiers"]
    ]
    assert [(r.task, r.feature, r.classifier) for r in one.rows] == expected
    assert _cell_rows(one) == _cell_rows(two)
    assert one.counters == two.counters
    k = manifest["folds"]
    assert one.counters["span_factors"] == 2 * k  # one per fold and task, not one per wavelet
    assert one.counters["feature_fits"] == 2 * 2 * k  # pca and ica, as before
    haar = {(r.task, r.classifier): r for r in one.rows if r.feature == "dwt_haar"}
    for row in one.rows:
        if row.feature.startswith("dwt_"):  # a copy
            assert replace(row, feature="dwt_haar") == haar[(row.task, row.classifier)]
    scored = {**manifest, "features": ["dwt_haar", "pca", "ica"]}
    assert [row for row in _cell_rows(one) if row[0] in scored["features"]] == _fresh_rows(
        bonn_tree, scored
    )


def test_a_single_wavelet_manifest_scores_its_own_coordinates(bonn_tree):
    """The one-wavelet path of the grid_db6 and rbf_sigma workloads: each cell searched alone."""
    manifest = _toy_manifest(bonn_tree, features=["dwt_db6"], tasks=["o_vs_s", "z_vs_s"])
    assert _cell_rows(run_benchmark(manifest)) == _fresh_rows(bonn_tree, manifest)


@pytest.mark.filterwarnings("ignore:ICA did not converge")
def test_a_rank_zero_fold_fails_pca_and_ica_with_one_basis_fit():
    """Both features' cells fail with the error of their own search; one warning a fold."""
    row = np.arange(8.0)  # small integers: the rows' mean is exact, so centering leaves zeros
    dataset = LabeledDataset(
        X1=np.tile(row, (6, 1)), X2=np.tile(row, (6, 1)), U=np.eye(8)[:2]
    )
    folds = make_folds(dataset, 3, seed=0)
    grid = GridSpec(delta=(1e-4,))
    configs = [FeatureConfig(method=method, n_components=3) for method in ("pca", "ica")]
    with pytest.raises(FoldTrainingError) as alone, pytest.warns(UserWarning):
        grid_search(dataset, folds, "gepsvm", grid, extractor=configs[0])
    assert str(alone.value) == "fold 0: centered rows have rank 0; nothing to extract"
    cells = [evaluation._grid_cell("gepsvm", grid, 0) for _ in configs]
    with pytest.warns(UserWarning, match="centered rank is 0") as warned:
        features = list(zip(configs, ([c] for c in cells)))
        counts = evaluation._run_cells(*evaluation._prepared(dataset, folds.seed, features), folds)
    assert len([w for w in warned if "centered rank" in str(w.message)]) == 1
    assert counts["feature_fits"] == 0
    for cell in cells:
        with pytest.raises(FoldTrainingError, match=str(alone.value)):
            cell.result(folds, "", "")


def _spy(monkeypatch, owner, name, calls):
    """Record each call made through ``owner.<name>`` in ``calls``, as (args, kwargs)."""
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("wide", [False, True], ids=["primal", "span"])
def test_operand_checks_do_not_grow_with_the_delta_axis(monkeypatch, wide):
    """A sheet's blocks and denominators are checked once, not at every delta's solves."""
    from eigu import classifiers, eigsolve

    rng = np.random.default_rng(12)
    n = 40 if wide else 4
    dataset = LabeledDataset(
        X1=rng.standard_normal((9, n)), X2=rng.standard_normal((8, n)) + 0.5,
        U=rng.standard_normal((6, n)) + 0.25,
    )
    folds = make_folds(dataset, 3, seed=0)
    counts = []
    for deltas in ((1e-3,), (1e-4, 1e-3, 1e-2, 1e-1)):
        checks = []
        with monkeypatch.context() as patch:
            for owner in (classifiers, eigsolve):
                _spy(patch, owner, "_validated_symmetric", checks)
            grid = GridSpec(delta=deltas, universum_size=(3, 6))
            grid_search(dataset, folds, "ugepsvm", grid)
        counts.append(len(checks))
    assert counts[0] == counts[1] == 3 * 2 * 5  # folds x sheets x (G, H, P, H + P, G + P)


def test_the_engine_builds_no_dataset_per_sheet_or_fold_split(bonn_tree, monkeypatch):
    """Fold splits, Universum draws and sheet prefixes are cut from checked rows, unscanned."""
    built = []
    for sizes in ([2], [2, 4, 6]):
        manifest = _toy_manifest(bonn_tree, classifiers=["iugepsvm"], folds=3, grids={
            "iugepsvm": {"delta": [1e-4], "gamma": [0.1], "psi": [0.01], "universum_size": sizes}
        })
        checks = []
        with monkeypatch.context() as patch:
            _spy(patch, LabeledDataset, "__post_init__", checks)
            run_benchmark(manifest)
        built.append(len(checks))
    assert built == [2, 2]  # the task's raw rows, and its wavelet rows


@pytest.mark.filterwarnings("ignore:ICA did not converge")
def test_a_fold_scans_its_fitted_rows_once(bonn_tree, monkeypatch):
    """pca's PCA fit scans the fold's rows; the ica fit on its basis does not again."""
    scans = []
    _spy(monkeypatch, features, "_validated_rows", scans)
    manifest = _toy_manifest(bonn_tree, features=["pca", "ica"], folds=3)
    assert all(r.error is None for r in run_benchmark(manifest).rows)
    assert sum(kwargs.get("scan", True) for _, kwargs in scans) == manifest["folds"]


@pytest.mark.filterwarnings("ignore:ICA did not converge")
def test_a_folds_fits_read_one_stacked_array(bonn_tree, monkeypatch):
    """A fold stacks its labeled training rows once; its pca and ica fits both read that array."""
    fits = []
    _spy(monkeypatch, evaluation, "fit_features", fits)
    manifest = _toy_manifest(bonn_tree, features=["pca", "ica"], folds=3)
    assert all(r.error is None for r in run_benchmark(manifest).rows)
    assert [args[0].method for args, _ in fits] == ["pca", "ica"] * manifest["folds"]
    stacks = [args[1] for args, _ in fits]
    for pca_rows, ica_rows in zip(stacks[::2], stacks[1::2]):
        assert ica_rows is pca_rows
    assert len({id(rows) for rows in stacks}) == manifest["folds"]


@pytest.mark.filterwarnings("ignore:ICA did not converge")
@pytest.mark.parametrize("method", ["pca", "ica"])
def test_fit_labeled_rows_are_the_fits_transform_bit_for_bit(method):
    """X1 and X2 are the fit's own scores of the stacked rows, U goes through transform.

    On rows of a fold's shape (4096 wide, 32 components) those scores also
    equal each class's own transform bit for bit, as the grid engine's
    results rely on: there the stacked and the per-class products take one
    BLAS kernel.  Far smaller products may not (see CHANGES.md).
    """
    rng = np.random.default_rng(21)
    dataset = LabeledDataset(
        X1=rng.standard_normal((41, 4096)), X2=rng.standard_normal((39, 4096)) + 0.3,
        U=rng.standard_normal((7, 4096)),
    )
    fitted, out = evaluation.fit_labeled(FeatureConfig(method=method), dataset)
    stacked = fitted.transform(np.vstack([dataset.X1, dataset.X2]))
    assert np.array_equal(np.vstack([out.X1, out.X2]), stacked)
    for name in ("X1", "X2", "U"):
        assert np.array_equal(getattr(out, name), fitted.transform(getattr(dataset, name)))
