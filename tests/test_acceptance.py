"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Each criterion appears as exactly one test function so a verbose run
prints one pass/fail line per criterion.  Criterion 6 needs the real
recording corpus and is skipped when EIGU_DATA_ROOT does not point at a
complete set tree; criterion 7 then exercises the same determinism
properties on the synthetic session tree with a proportionally shrunk
manifest.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from eigu.classifiers import (
    TrainSpec,
    build_blocks,
    class_matrices,
    plane_problems,
    predict,
    train,
    train_with_blocks,
)
from eigu.cli import main
from eigu.dataio import BONN_SETS, LabeledDataset, make_folds
from eigu.eigsolve import (
    RESIDUAL_RTOL,
    smallest_eigpair_generalized,
    smallest_eigpair_standard,
)
from eigu.evaluation import run_benchmark, run_cv, rank_models
from eigu.features import cdr_rank, dwt_features, idwt_features, pca_fit, pca_transform
from eigu.kernels import KernelSpec
from eigu.stats import load_published_tables
from eigu.synth import concentric_circles, cross_planes, mid_band_universum

from conftest import TOY_SEGMENT, random_dataset

CHAMPION = "IU-GEPSVM"

# (W, exact p on the signed-rank lattice, effect size r) per opposing model
EXPECTED_DUELS = {
    "GEPSVM": (27.0, 2.0 / 128.0, 0.964),
    "UTSVM": (27.0, 2.0 / 128.0, 0.964),
    "UTPMSVM": (27.0, 2.0 / 128.0, 0.964),
    "I-GEPSVM": (15.0, 1.0 / 32.0, 0.536),
    "U-GEPSVM": (28.0, 1.0 / 128.0, 1.000),
}

EXPECTED_TALLIES = {
    "GEPSVM": (6, 0, 1),
    "UTSVM": (6, 0, 1),
    "UTPMSVM": (6, 0, 1),
    "I-GEPSVM": (5, 2, 0),
    "U-GEPSVM": (7, 0, 0),
}

LINEAR_SPECS = (
    TrainSpec(classifier="gepsvm", delta=1e-4),
    TrainSpec(classifier="igepsvm", delta=1e-4, nu=0.1),
    TrainSpec(classifier="ugepsvm", delta=1e-4),
    TrainSpec(classifier="iugepsvm", delta=1e-5, gamma1=0.1, psi1=0.01),
)


def _random_suite(count=50):
    rng = np.random.default_rng(2024)
    return [random_dataset(rng, n_max=10, m_max=60, p_max=20) for _ in range(count)]


def _bonn_root():
    root = os.environ.get("EIGU_DATA_ROOT")
    if not root:
        return None
    root = Path(root)
    for label in BONN_SETS:
        directory = root / label
        if not directory.is_dir() or not any(directory.iterdir()):
            return None
    return root


def test_criterion_1_published_statistics_reproduce(capsys):
    start = time.perf_counter()
    rc = main(["stats", "--from-paper-tables"])
    elapsed = time.perf_counter() - start
    assert rc == 0
    report = json.loads(capsys.readouterr().out)

    friedman_o = report["tasks"]["o_vs_s"]["friedman"]
    assert friedman_o["chi2"] == pytest.approx(20.796, abs=0.01)
    assert friedman_o["df"] == 5
    assert friedman_o["p_value"] == pytest.approx(0.0009, abs=0.0005)
    friedman_z = report["tasks"]["z_vs_s"]["friedman"]
    assert friedman_z["chi2"] == pytest.approx(15.061, abs=0.01)
    assert friedman_z["df"] == 5
    assert friedman_z["p_value"] == pytest.approx(0.0101, abs=0.001)

    duels = {
        (set(d["pair"]) - {CHAMPION}).pop(): d["result"]
        for d in report["tasks"]["o_vs_s"]["wilcoxon"]
        if CHAMPION in d["pair"]
    }
    assert set(duels) == set(EXPECTED_DUELS)
    for name, (w, p, r) in EXPECTED_DUELS.items():
        assert duels[name]["w_statistic"] == w, name
        assert duels[name]["p_value"] == pytest.approx(p, abs=1e-12), name
        assert duels[name]["effect_size_r"] == pytest.approx(r, abs=0.005), name

    tallies = report["tasks"]["o_vs_s"]["win_tie_loss"]
    for name, (wins, ties, losses) in EXPECTED_TALLIES.items():
        got = (tallies[name]["wins"], tallies[name]["ties"], tallies[name]["losses"])
        assert got == (wins, ties, losses), name

    assert elapsed < 1.0


def test_criterion_2_ranks_and_averages_reproduce():
    tables = load_published_tables()
    expected = {
        "o_vs_s": (
            (5.57, 4.43, 3.71, 2.29, 3.43, 1.57),
            (58.86, 65.57, 73.71, 79.29, 72.14, 81.29),
        ),
        "z_vs_s": (
            (5.14, 3.00, 4.57, 2.21, 3.86, 2.21),
            (59.43, 71.86, 73.00, 77.42, 72.00, 77.57),
        ),
    }
    for task, (ranks, averages) in expected.items():
        matrix = np.asarray(tables["tasks"][task], dtype=float)
        np.testing.assert_allclose(rank_models(matrix), ranks, atol=0.01)
        np.testing.assert_allclose(matrix.mean(axis=0), averages, atol=0.01)


def test_criterion_3_reduction_identities_hold():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for dataset in _random_suite():
        empty_u = LabeledDataset(
            X1=dataset.X1, X2=dataset.X2, U=np.zeros((0, dataset.n))
        )
        blocks = build_blocks(empty_u, None)
        plain = plane_problems(blocks, TrainSpec(classifier="gepsvm", delta=1e-4))
        lifted = plane_problems(blocks, TrainSpec(classifier="ugepsvm", delta=1e-4))
        for a, b in zip(plain, lifted):
            assert np.array_equal(a.A, b.A)
            assert np.array_equal(a.B, b.B)

        blocks = build_blocks(dataset, None)
        nu = 0.1
        diff = plane_problems(blocks, TrainSpec(classifier="igepsvm", delta=1e-4, nu=nu))
        weighted = plane_problems(
            blocks, TrainSpec(classifier="iugepsvm", delta=1e-4, gamma1=nu, psi1=0.0)
        )
        for a, b in zip(diff, weighted):
            assert np.array_equal(a.A, b.A)
            assert a.B is None and b.B is None

        probes = rng.standard_normal((100, dataset.n))
        queries = np.vstack([dataset.X1, dataset.X2, probes])
        for spec in LINEAR_SPECS:
            linear = train(dataset, spec)
            kernelized = train(
                dataset,
                TrainSpec(
                    classifier=spec.classifier,
                    delta=spec.delta,
                    nu=spec.nu,
                    gamma1=spec.gamma1,
                    psi1=spec.psi1,
                    kernel=KernelSpec(family="linear"),
                ),
            )
            assert np.array_equal(predict(kernelized, queries), predict(linear, queries))
    assert time.perf_counter() - start < 30.0


def test_criterion_4_trained_planes_are_eigen_optimal():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    for dataset in _random_suite():
        probes = rng.standard_normal((10_000, dataset.n + 1))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        dense_blocks = class_matrices(dataset)
        for spec in LINEAR_SPECS:
            blocks = build_blocks(dataset, None)
            problems = plane_problems(blocks, spec)
            model = train_with_blocks(blocks, spec)
            planes = (
                np.append(model.coef1, model.b1),
                np.append(model.coef2, model.b2),
            )

            # residual bound, re-solving the exact problems the trainer saw, each
            # ratio plane through the denominator's row factor it was solved with
            for problem, trained_eigenvalue in zip(problems, model.eigenvalues):
                if problem.B is None:
                    solution = smallest_eigpair_standard(problem.A)
                    denom_norm = np.sqrt(problem.A.shape[0])
                else:
                    solution = smallest_eigpair_generalized(
                        problem.A, problem.B, factor=problem.factor
                    )
                    effective = problem.B + solution.used_ridge * np.eye(
                        problem.B.shape[0]
                    )
                    denom_norm = np.linalg.norm(effective)
                assert solution.eigenvalue == trained_eigenvalue
                bound = RESIDUAL_RTOL * (
                    np.linalg.norm(problem.A) + abs(solution.eigenvalue) * denom_norm
                )
                assert solution.residual <= bound

            # minimality against random unit probes, in the full space
            for problem, z in zip(plane_problems(dense_blocks, spec), planes):
                z = z / np.linalg.norm(z)
                numerators = np.einsum("ij,jk,ik->i", probes, problem.A, probes)
                plane_numerator = float(z @ problem.A @ z)
                if problem.B is None:
                    probe_values = numerators
                    plane_value = plane_numerator
                else:
                    denominators = np.einsum("ij,jk,ik->i", probes, problem.B, probes)
                    keep = denominators > 1e-300
                    probe_values = numerators[keep] / denominators[keep]
                    plane_value = plane_numerator / float(z @ problem.B @ z)
                slack = 1e-9 * (1.0 + abs(plane_value))
                assert plane_value <= probe_values.min() + slack
    assert time.perf_counter() - start < 60.0


def test_criterion_5_synthetic_benchmarks_clear_their_bands():
    start = time.perf_counter()
    X1, X2 = cross_planes(40, seed=3)
    crossed = LabeledDataset(X1=X1, X2=X2, U=mid_band_universum(20, seed=4))
    folds = make_folds(crossed, 5, seed=0)
    for spec in LINEAR_SPECS:
        report = run_cv(crossed, folds, spec)
        assert report.mean_accuracy >= 98.0, spec.classifier

    C1, C2 = concentric_circles(n_per_class=60, seed=7)
    circles = LabeledDataset(X1=C1, X2=C2, U=np.zeros((0, 2)))
    circle_folds = make_folds(circles, 5, seed=0)
    rbf = TrainSpec(
        classifier="iugepsvm",
        delta=1e-5,
        gamma1=0.01,
        psi1=0.01,
        kernel=KernelSpec(family="rbf", sigma=1.0),
    )
    linear = TrainSpec(classifier="iugepsvm", delta=1e-5, gamma1=0.01, psi1=0.01)
    assert run_cv(circles, circle_folds, rbf).mean_accuracy >= 95.0
    assert run_cv(circles, circle_folds, linear).mean_accuracy <= 70.0
    assert time.perf_counter() - start < 10.0


@pytest.mark.skipif(
    _bonn_root() is None,
    reason="recording corpus not present (EIGU_DATA_ROOT unset or incomplete)",
)
def test_criterion_6_recorded_eeg_banded_reproduction():
    """Banded accuracy checks on the real recordings.

    Runs the bundled reduced (smoke) grid by default, budget 2 minutes;
    set EIGU_ACCEPT_FULL_GRID=1 to run the full sweep within 30 minutes.
    """
    from importlib import resources

    full = os.environ.get("EIGU_ACCEPT_FULL_GRID") == "1"
    name = "full_manifest.json" if full else "smoke_manifest.json"
    manifest = json.loads(
        resources.files("eigu").joinpath(f"data/{name}").read_text("ascii")
    )
    manifest["data_root"] = str(_bonn_root())
    start = time.perf_counter()
    result = run_benchmark(manifest)
    elapsed = time.perf_counter() - start

    cells = {(r.task, r.feature, r.classifier): r for r in result.rows}
    champion_db6 = cells[("o_vs_s", "dwt_db6", "iugepsvm")]
    baseline_db6 = cells[("o_vs_s", "dwt_db6", "gepsvm")]
    assert champion_db6.error is None and baseline_db6.error is None
    assert champion_db6.mean_acc >= 75.0
    assert champion_db6.mean_acc - baseline_db6.mean_acc >= 10.0

    averages = result.summary["tasks"]["o_vs_s"]["average_accuracy"]
    assert averages["iugepsvm"] >= averages["igepsvm"]
    assert averages["igepsvm"] > averages["gepsvm"]

    assert elapsed < (1800.0 if full else 120.0)


def _parity_manifest(tmp_path, bonn_tree):
    root = _bonn_root()
    if root is not None:
        from importlib import resources

        manifest = json.loads(
            resources.files("eigu")
            .joinpath("data/smoke_manifest.json")
            .read_text("ascii")
        )
        manifest["data_root"] = str(root)
    else:
        # shrunk to the synthetic session tree; same axes, smaller sizes
        manifest = {
            "tasks": ["o_vs_s", "z_vs_s"],
            "features": ["dwt_db2", "pca"],
            "classifiers": ["gepsvm", "igepsvm", "ugepsvm", "iugepsvm"],
            "grids": {
                "gepsvm": {"delta": [1e-4, 1e-2]},
                "igepsvm": {"delta": [1e-5], "nu": [0.001, 0.1]},
                "ugepsvm": {"delta": [1e-4, 1e-2], "universum_size": [2, 4]},
                "iugepsvm": {
                    "delta": [1e-5],
                    "gamma": [0.001, 0.1],
                    "psi": [1e-5, 1e-3],
                    "universum_size": [2, 4],
                },
            },
            "data_root": str(bonn_tree),
            "seed": 0,
            "folds": 2,
            "universum_pool": 6,
            "segment_length": TOY_SEGMENT,
            "n_components": 4,
            "workers": 1,
        }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_criterion_7_worker_parity_and_byte_identical_reruns(tmp_path, bonn_tree):
    manifest_path = _parity_manifest(tmp_path, bonn_tree)
    runs = {}
    for tag, workers in (("first", "1"), ("parallel", "8"), ("again", "1")):
        out = tmp_path / tag
        rc = main(
            [
                "bench",
                "--manifest",
                str(manifest_path),
                "--output-dir",
                str(out),
                "--workers",
                workers,
            ]
        )
        assert rc == 0
        runs[tag] = [(out / name).read_bytes() for name in ("results.csv", "summary.json")]

    assert runs["first"][0].count(b"\n") > 1  # a header and data rows
    assert runs["first"] == runs["parallel"]  # worker count changes no byte
    assert runs["first"] == runs["again"]  # same-seed rerun is byte-stable


def test_criterion_8_feature_module_properties():
    rng = np.random.default_rng(9)
    wavelets = ("haar", "db1", "db2", "db4", "db6")
    lengths = (512, 1024, 2048, 4096)
    for i in range(100):
        wavelet = wavelets[i % len(wavelets)]
        signal = rng.standard_normal(lengths[i % len(lengths)])
        coeffs = dwt_features(signal, wavelet, level=4)
        energy_in = float(signal @ signal)
        energy_out = float(coeffs @ coeffs)
        assert abs(energy_out - energy_in) <= 1e-9 * energy_in
        rebuilt = idwt_features(coeffs, wavelet, level=4)
        assert np.linalg.norm(rebuilt - signal) <= 1e-9 * np.linalg.norm(signal)

    rows = rng.standard_normal((40, 12)) @ np.diag(rng.uniform(0.5, 3.0, 12))
    basis = pca_fit(rows, 5)
    gram = basis.components.T @ basis.components
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)
    scores = pca_transform(basis, rows)
    covariance = (scores - scores.mean(axis=0)).T @ (scores - scores.mean(axis=0))
    covariance /= rows.shape[0] - 1
    off_diagonal = covariance - np.diag(np.diag(covariance))
    assert np.abs(off_diagonal).max() <= 1e-10 * covariance.diagonal().max()
    np.testing.assert_allclose(covariance.diagonal(), basis.explained_variance[:5])

    values = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.array([1, 1, -1, -1])
    (score,) = cdr_rank(values, labels)
    assert score.ratio == 2.0
    assert score.sigma_between == 2.0
    assert score.sigma_within == 1.0
