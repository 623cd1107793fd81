"""End-to-end command-line tests driven through in-process main() calls."""

from __future__ import annotations

import csv
import json
import shutil

import numpy as np
import pytest

from eigu.classifiers import model_from_json, predict
from eigu.cli import main
from eigu.dataio import make_folds, read_bundle
from eigu.evaluation import (
    DECADE_GRID,
    GridSpec,
    grid_search,
    load_tasks,
    results_csv,
    run_benchmark,
)
from eigu.features import feature_config_from_id

from conftest import INVALID_GRIDS, TOY_PER_SET, TOY_SEGMENT


@pytest.fixture(scope="session")
def toy_bundle(bonn_tree, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "o_vs_s"
    rc = main(
        [
            "ingest",
            "--task",
            "o_vs_s",
            "--data-root",
            str(bonn_tree),
            "--output-dir",
            str(out),
            "--universum-size",
            "6",
            "--segment-length",
            str(TOY_SEGMENT),
            "--seed",
            "1",
        ]
    )
    assert rc == 0
    return out


def _toy_manifest_payload(bonn_tree):
    return {
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


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ("ingest", "features", "cv", "bench", "stats"):
        assert command in out
    assert "sweep" not in out


def test_sweep_is_no_longer_a_command(capsys):
    """A gamma x psi grid is a bench manifest now, and its points are in points.csv."""
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--task", "o_vs_s", "--output-dir", "sweep"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("eigu ")


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_ingest_writes_a_reloadable_bundle(toy_bundle, bonn_tree, tmp_path):
    dataset, manifest = read_bundle(toy_bundle)
    assert manifest["task"] == "o_vs_s"
    assert (dataset.m1, dataset.m2, dataset.p) == (12, 12, 6)
    assert dataset.n == TOY_SEGMENT
    assert (toy_bundle / "runinfo.json").exists()

    again = tmp_path / "again"
    rc = main(
        [
            "ingest",
            "--task",
            "o_vs_s",
            "--data-root",
            str(bonn_tree),
            "--output-dir",
            str(again),
            "--universum-size",
            "6",
            "--segment-length",
            str(TOY_SEGMENT),
            "--seed",
            "1",
        ]
    )
    assert rc == 0
    for name in ("X1.csv", "X2.csv", "U.csv", "manifest.json"):
        assert (again / name).read_bytes() == (toy_bundle / name).read_bytes()


def test_ingest_without_a_data_root_is_a_usage_error(tmp_path, capsys):
    rc = main(
        [
            "ingest",
            "--task",
            "o_vs_s",
            "--data-root",
            str(tmp_path / "nowhere"),
            "--output-dir",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_env_variable_fills_in_the_data_root(bonn_tree, tmp_path, monkeypatch):
    monkeypatch.setenv("EIGU_DATA_ROOT", str(bonn_tree))
    rc = main(
        [
            "ingest",
            "--task",
            "z_vs_s",
            "--output-dir",
            str(tmp_path / "bundle"),
            "--universum-size",
            "4",
            "--segment-length",
            str(TOY_SEGMENT),
        ]
    )
    assert rc == 0


def test_features_command_writes_a_transformed_bundle(toy_bundle, tmp_path, capsys):
    out = tmp_path / "pca4"
    rc = main(
        [
            "features",
            "--bundle",
            str(toy_bundle),
            "--output-dir",
            str(out),
            "--feature",
            "pca",
            "--n-components",
            "4",
        ]
    )
    assert rc == 0
    dataset, manifest = read_bundle(out)
    assert dataset.n == 4
    assert manifest["feature"] == "pca"
    sidecar = json.loads((out / "features.json").read_text())
    assert sidecar["config"]["method"] == "pca"
    components = np.asarray(sidecar["pca"]["components"])
    assert components.shape == (TOY_SEGMENT, 4)


def test_cv_emits_a_json_report(toy_bundle, capsys):
    rc = main(
        [
            "cv",
            "--bundle",
            str(toy_bundle),
            "--classifier",
            "iugepsvm",
            "--folds",
            "2",
            "--gamma",
            "0.1",
            "--psi",
            "0.01",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classifier"] == "iugepsvm"
    assert report["k"] == 2
    assert len(report["fold_accuracies"]) == 2
    assert report["params"]["gamma1"] == 0.1


def test_cv_saves_a_loadable_model(toy_bundle, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "cv",
            "--bundle",
            str(toy_bundle),
            "--classifier",
            "gepsvm",
            "--folds",
            "2",
            "--output",
            str(report_path),
            "--save-model",
            str(model_path),
        ]
    )
    assert rc == 0
    assert json.loads(report_path.read_text())["classifier"] == "gepsvm"
    model = model_from_json(model_path.read_text())
    dataset, _ = read_bundle(toy_bundle)
    labels = predict(model, np.vstack([dataset.X1, dataset.X2]))
    assert set(np.unique(labels)) <= {-1.0, 1.0}


@pytest.mark.parametrize(
    "feature, classifier, sigma, pool",
    [
        ("dwt_db2", "iugepsvm", None, 6),
        ("pca", "iugepsvm", None, 6),
        ("dwt_db2", "gepsvm", None, 6),
        ("dwt_db2", "gepsvm", 256.0, 6),
        ("dwt_db2", "iugepsvm", None, 100),
    ],
    ids=[
        "dwt_db2-iugepsvm-6", "pca-iugepsvm-6", "dwt_db2-gepsvm-6", "dwt_db2-gepsvm-6-rbf",
        "dwt_db2-iugepsvm-100",
    ],
)
def test_cv_task_mode_matches_the_bench_cell(
    bonn_tree, tmp_path, feature, classifier, sigma, pool
):
    """cv --task/--feature trains on the rows bench does: same folds, same accuracies.

    Both draw a Universum pool of the id's number of rows; gepsvm trains on none of it.
    100 is cv's default, above the 12 recordings of set N, so both pool all of N.
    """
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.json"
    kernel = [] if sigma is None else ["--kernel", "rbf", "--sigma", str(sigma)]
    pool_flag = [] if pool == 100 else ["--universum-pool", str(pool)]
    rc = main(
        [
            "cv", "--task", "o_vs_s", "--data-root", str(bonn_tree),
            *pool_flag, "--segment-length", str(TOY_SEGMENT),
            "--feature", feature, "--n-components", "4", "--folds", "2", "--seed", "1",
            "--classifier", classifier, *kernel, "--output", str(report_path),
            "--save-model", str(model_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    payload = _toy_manifest_payload(bonn_tree)
    payload.update(features=[feature], classifiers=[classifier], universum_pool=pool)
    if sigma is not None:
        payload["grids"][classifier]["sigma"] = [sigma]
    (row,) = run_benchmark(payload).rows
    assert row.error is None
    assert tuple(report["fold_accuracies"]) == row.fold_accs
    model = model_from_json(model_path.read_text())
    assert model.n_features == (4 if feature == "pca" else TOY_SEGMENT)


def test_ingest_and_cv_pool_all_of_n_when_it_holds_fewer_rows(bonn_tree, tmp_path, capsys):
    """Set N holds 12 recordings: a larger pool takes all 12, and a size above 12 is refused."""
    out = tmp_path / "bundle"
    argv = ["--task", "o_vs_s", "--data-root", str(bonn_tree), "--segment-length", str(TOY_SEGMENT)]
    assert main(["ingest", *argv, "--output-dir", str(out), "--universum-size", "50"]) == 0
    dataset, manifest = read_bundle(out)
    assert dataset.p == manifest["p"] == TOY_PER_SET
    cv = ["cv", *argv, "--classifier", "ugepsvm", "--folds", "2"]
    assert main([*cv, "--universum-size", str(TOY_PER_SET + 1)]) == 2
    message = f"universum_size {TOY_PER_SET + 1} exceeds the {TOY_PER_SET} pooled rows"
    assert message in capsys.readouterr().err


def test_bench_reads_no_universum_set_for_a_pool_of_zero(bonn_tree, tmp_path):
    tree = tmp_path / "no-n"
    shutil.copytree(bonn_tree, tree, ignore=shutil.ignore_patterns("N"))
    assert not (tree / "N").exists()
    payload = _toy_manifest_payload(tree)
    payload["universum_pool"] = 0
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(payload))
    out = tmp_path / "results"
    assert main(["bench", "--manifest", str(manifest_path), "--output-dir", str(out)]) == 0
    with open(out / "results.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["error"] for row in rows] == ["", ""]


def _tree_without_n(bonn_tree, tmp_path):
    tree = tmp_path / "no-n"
    shutil.copytree(bonn_tree, tree, ignore=shutil.ignore_patterns("N"))
    return tree


def test_bench_reads_no_universum_set_when_no_classifier_trains_on_one(bonn_tree, tmp_path):
    """gepsvm and igepsvm take no Universum, so their cells need no set N, and score as before."""
    payload = _toy_manifest_payload(bonn_tree)
    payload.update(classifiers=["gepsvm", "igepsvm"])
    payload["grids"]["igepsvm"] = {"delta": [1e-5], "nu": [0.1]}
    outputs = []
    for root in (bonn_tree, _tree_without_n(bonn_tree, tmp_path)):
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({**payload, "data_root": str(root)}))
        out = tmp_path / f"results-{len(outputs)}"
        assert main(["bench", "--manifest", str(manifest_path), "--output-dir", str(out)]) == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_cv_reads_no_universum_set_for_a_classifier_that_trains_on_none(
    bonn_tree, tmp_path, capsys
):
    argv = ["cv", "--task", "o_vs_s", "--segment-length", str(TOY_SEGMENT), "--folds", "2",
            "--classifier", "gepsvm"]
    reports = []
    for root in (bonn_tree, _tree_without_n(bonn_tree, tmp_path)):
        assert main([*argv, "--data-root", str(root)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "classifier, flag, value, message",
    [
        ("igepsvm", "--universum-size", "3", "igepsvm trains on no Universum"),
        ("gepsvm", "--universum-pool", "-1", "--universum-pool must be >= 0, got -1"),
    ],
    ids=["size-without-a-universum", "negative-pool"],
)
def test_a_universum_flag_that_cannot_apply_is_a_usage_error_before_any_data_is_read(
    bonn_tree, monkeypatch, capsys, classifier, flag, value, message
):
    loaded = []
    monkeypatch.setattr("eigu.cli.load_tasks", lambda *args: loaded.append(args))
    argv = ["cv", "--task", "o_vs_s", "--data-root", str(bonn_tree), "--classifier", classifier]
    assert main([*argv, flag, value]) == 2
    assert message in capsys.readouterr().err
    assert loaded == []


@pytest.mark.parametrize("flag", ["--data-root", "--universum-pool", "--segment-length"])
@pytest.mark.parametrize("command, extra", [("cv", ["--classifier", "iugepsvm"])])
def test_bundle_mode_refuses_a_task_mode_flag_before_reading_the_bundle(
    toy_bundle, bonn_tree, monkeypatch, capsys, command, extra, flag
):
    """A bundle's rows are read as they are, so a flag that would shape them cannot apply."""
    read = []
    monkeypatch.setattr("eigu.cli.read_bundle", lambda path: read.append(path))
    value = {"--data-root": str(bonn_tree), "--universum-pool": "3", "--segment-length": "128"}
    argv = [command, "--bundle", str(toy_bundle), *extra, "--folds", "2"]
    assert main([*argv, flag, value[flag]]) == 2
    assert f"{flag} does not apply to --bundle" in capsys.readouterr().err
    assert read == []


def test_cv_names_the_file_and_line_of_a_faulty_bundle_row(toy_bundle, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(toy_bundle, bundle)
    lines = (bundle / "X2.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]  # the third data row loses its last value
    (bundle / "X2.csv").write_text("\n".join(lines) + "\n")
    assert main(["cv", "--bundle", str(bundle), "--classifier", "gepsvm", "--folds", "2"]) == 2
    width = TOY_SEGMENT
    assert (f"cannot read bundle {bundle}: X2.csv: line 4: row width differs from header "
            f"({width - 1} values, {width} columns)") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "cv"])
@pytest.mark.parametrize("length", ["-1", "0"])
def test_a_segment_length_below_one_is_a_usage_error(bonn_tree, tmp_path, capsys, command, length):
    extra = {"ingest": ["--output-dir", str(tmp_path / "bundle")], "cv": ["--classifier", "gepsvm"]}
    argv = [command, "--task", "o_vs_s", "--data-root", str(bonn_tree), *extra[command]]
    assert main([*argv, f"--segment-length={length}"]) == 2
    assert f"segment length must be >= 1, got {length}" in capsys.readouterr().err
    assert not (tmp_path / "bundle").exists()


def test_cv_saves_an_rbf_gepsvm_model_over_the_class_rows_alone(toy_bundle, tmp_path):
    """gepsvm takes no Universum, so the bundle's Universum rows join no kernel expansion."""
    model_path = tmp_path / "model.json"
    argv = ["cv", "--bundle", str(toy_bundle), "--classifier", "gepsvm", "--kernel", "rbf"]
    assert main([*argv, "--folds", "2", "--output", str(tmp_path / "report.json"),
                 "--save-model", str(model_path)]) == 0
    model = model_from_json(model_path.read_text())
    dataset, _ = read_bundle(toy_bundle)
    assert dataset.p > 0
    assert np.array_equal(model.Z, np.vstack([dataset.X1, dataset.X2]))


def test_cv_rejects_invalid_hyperparameters(toy_bundle, capsys):
    rc = main(
        [
            "cv",
            "--bundle",
            str(toy_bundle),
            "--classifier",
            "gepsvm",
            "--delta",
            "-1.0",
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err

    rc = main(
        ["cv", "--bundle", str(toy_bundle), "--classifier", "ugepsvm", "--universum-size", "-1"]
    )
    assert rc == 2
    assert "universum_size must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [("cv", ["--classifier", "gepsvm"])])
def test_a_bad_n_components_is_a_usage_error_before_any_data_is_read(
    bonn_tree, monkeypatch, capsys, command, extra
):
    loaded = []
    monkeypatch.setattr("eigu.cli.load_tasks", lambda *args: loaded.append(args))
    argv = [command, "--task", "o_vs_s", "--data-root", str(bonn_tree), "--feature", "pca"]
    rc = main([*argv, "--n-components", "0", *extra])
    assert rc == 2
    assert "n_components must be >= 1, got 0" in capsys.readouterr().err
    assert loaded == []


@pytest.mark.parametrize("command, extra", [("cv", ["--classifier", "gepsvm"])])
def test_a_bad_delta_is_a_usage_error_before_any_data_is_read(
    bonn_tree, monkeypatch, capsys, command, extra
):
    loaded = []
    monkeypatch.setattr("eigu.cli.load_tasks", lambda *args: loaded.append(args))
    argv = [command, "--task", "o_vs_s", "--data-root", str(bonn_tree), "--feature", "pca"]
    rc = main([*argv, "--delta", "-1", *extra])
    assert rc == 2
    assert "delta must be finite and >= 0, got -1.0" in capsys.readouterr().err
    assert loaded == []


@pytest.mark.parametrize(
    "axis, text, value",
    [
        ("delta", "[1e-4, 1e-4]", 1e-4),
        ("delta", "[0.1, 0.10]", 0.1),
        ("gamma", "[0.1, 1, 0.1]", 0.1),
    ],
)
def test_bench_refuses_a_grid_axis_that_lists_a_value_twice(
    bonn_tree, tmp_path, monkeypatch, capsys, axis, text, value
):
    """A repeated value would score one point twice; JSON 0.1 and 0.10 are one float."""
    loaded = []
    monkeypatch.setattr("eigu.evaluation.load_tasks", lambda *args: loaded.append(args))
    payload = _toy_manifest_payload(bonn_tree)
    payload["grids"]["iugepsvm"][axis] = "AXIS"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload).replace('"AXIS"', text))
    out = tmp_path / "out"
    assert main(["bench", "--manifest", str(path), "--output-dir", str(out)]) == 2
    assert f"grid axis {axis} lists {value!r} more than once" in capsys.readouterr().err
    assert loaded == [] and not out.exists()


@pytest.mark.parametrize("flag, name", [("--n-components", "n_components"), ("--top-k", "top_k")])
def test_features_rejects_a_bad_count_before_reading_the_bundle(
    toy_bundle, tmp_path, monkeypatch, capsys, flag, name
):
    read = []
    monkeypatch.setattr("eigu.cli.read_bundle", lambda path: read.append(path))
    out = tmp_path / "pca"
    argv = ["features", "--bundle", str(toy_bundle), "--feature", "pca", "--output-dir", str(out)]
    assert main([*argv, flag, "0"]) == 2
    assert f"{name} must be >= 1, got 0" in capsys.readouterr().err
    assert read == [] and not out.exists()


@pytest.mark.parametrize(
    "feature, extra, message",
    [
        ("dwt_db6", ["--top-k", "3"], "top_k applies to pca and ica"),
        ("pca", ["--n-components", "4", "--top-k", "5"], "top_k must be <= n_components 4, got 5"),
    ],
    ids=["wavelet", "above-n-components"],
)
def test_features_refuses_a_top_k_that_cannot_apply_before_reading_the_bundle(
    toy_bundle, tmp_path, monkeypatch, capsys, feature, extra, message
):
    read = []
    monkeypatch.setattr("eigu.cli.read_bundle", lambda path: read.append(path))
    out = tmp_path / "out"
    argv = ["features", "--bundle", str(toy_bundle), "--feature", feature, "--output-dir", str(out)]
    assert main([*argv, *extra]) == 2
    assert message in capsys.readouterr().err
    assert read == [] and not out.exists()


def test_bench_runs_a_manifest_and_summarizes(bonn_tree, tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(_toy_manifest_payload(bonn_tree)))
    out = tmp_path / "results"
    rc = main(["bench", "--manifest", str(manifest_path), "--output-dir", str(out)])
    assert rc == 0
    assert "2 cells, 0 with errors" in capsys.readouterr().out
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("task,feature,classifier,mean_acc")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_cells"] == 2
    runinfo = json.loads((out / "runinfo.json").read_text())
    assert runinfo["command"] == "bench"
    assert "host" in runinfo and "duration_seconds" in runinfo
    assert runinfo["peak_rss_mb"] > 0  # a host figure: runinfo only
    assert "peak_rss_mb" not in (out / "results.csv").read_text() + json.dumps(summary)
    # gepsvm (no Universum) and iugepsvm (the whole pool) share no block
    assert runinfo["counters"] == {
        "feature_fits": 0,
        "ica_capped": 0,
        "kernel_tables": 0,  # a linear grid needs no distance table
        "span_factors": 2,  # wavelet rows are wide: one per fold, sliced per block
        "block_builds": 4,
        "block_hits": 0,
        "merged_sheets": 0,  # no rbf sheet
    }


def test_bench_filters_restrict_the_grid(bonn_tree, tmp_path):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(_toy_manifest_payload(bonn_tree)))
    out = tmp_path / "one"
    rc = main(
        [
            "bench",
            "--manifest",
            str(manifest_path),
            "--output-dir",
            str(out),
            "--classifiers",
            "gepsvm",
        ]
    )
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 2
    assert ",gepsvm," in lines[1]

    rc = main(
        [
            "bench",
            "--manifest",
            str(manifest_path),
            "--output-dir",
            str(tmp_path / "two"),
            "--classifiers",
            "svm",
        ]
    )
    assert rc == 2


def test_bench_worker_count_does_not_change_results(bonn_tree, tmp_path):
    """No result file holds a timing, so each is the same bytes; pca and dwt_db2 are two jobs."""
    payload = _toy_manifest_payload(bonn_tree)
    payload["features"] = ["dwt_db2", "pca"]
    manifest_path = _write_manifest(tmp_path, payload)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        argv = ["bench", "--manifest", str(manifest_path), "--output-dir", str(out)]
        assert main([*argv, "--workers", workers]) == 0
        names = ("results.csv", "summary.json", "points.csv")
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]
    _assert_results_begin_with_their_best_points(tmp_path / "w1")


def test_bench_usage_errors(bonn_tree, tmp_path, capsys):
    rc = main(
        [
            "bench",
            "--manifest",
            str(tmp_path / "missing.json"),
            "--output-dir",
            str(tmp_path / "a"),
        ]
    )
    assert rc == 2

    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    rc = main(["bench", "--manifest", str(bad), "--output-dir", str(tmp_path / "b")])
    assert rc == 2

    payload = _toy_manifest_payload(bonn_tree)
    del payload["grids"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    rc = main(["bench", "--manifest", str(broken), "--output-dir", str(tmp_path / "c")])
    assert rc == 2

    payload = _toy_manifest_payload(bonn_tree)
    payload["data_root"] = str(tmp_path / "nonexistent")
    gone = tmp_path / "gone.json"
    gone.write_text(json.dumps(payload))
    rc = main(["bench", "--manifest", str(gone), "--output-dir", str(tmp_path / "d")])
    assert rc == 1
    capsys.readouterr()

    for name, axis in (("delta", 0.1), ("delta", "0.1"), ("universum_size", [-5])):
        payload = _toy_manifest_payload(bonn_tree)
        payload["grids"]["iugepsvm"][name] = axis
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(payload))
        rc = main(["bench", "--manifest", str(malformed), "--output-dir", str(tmp_path / "e")])
        assert rc == 2
        assert name in capsys.readouterr().err

    for classifier, grid, message in INVALID_GRIDS:
        payload = _toy_manifest_payload(bonn_tree)
        payload["classifiers"] = [classifier]
        payload["grids"][classifier] = grid
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps(payload))
        rc = main(["bench", "--manifest", str(invalid), "--output-dir", str(tmp_path / "f")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("key", ["tasks", "features", "classifiers"])
def test_bench_names_a_missing_list_with_or_without_its_filter(bonn_tree, tmp_path, capsys, key):
    payload = _toy_manifest_payload(bonn_tree)
    del payload[key]
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(payload))
    argv = ["bench", "--manifest", str(manifest_path), "--output-dir", str(tmp_path / "out")]
    for extra in ([], [f"--{key}", "x"]):
        assert main([*argv, *extra]) == 2
        assert f"manifest is missing {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_params_name_the_universum_size(bonn_tree, tmp_path):
    payload = _toy_manifest_payload(bonn_tree)
    payload["grids"]["iugepsvm"]["universum_size"] = [2, 4]
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(payload))
    out = tmp_path / "results"
    assert main(["bench", "--manifest", str(manifest_path), "--output-dir", str(out)]) == 0
    with open(out / "results.csv", newline="") as handle:
        rows = {row["classifier"]: row for row in csv.DictReader(handle)}
    assert json.loads(rows["iugepsvm"]["params_json"])["universum_size"] in (2, 4)
    assert "universum_size" not in json.loads(rows["gepsvm"]["params_json"])


def test_bench_reports_cell_errors_but_exits_zero(bonn_tree, tmp_path, capsys):
    payload = _toy_manifest_payload(bonn_tree)
    payload["grids"]["iugepsvm"]["universum_size"] = [50]  # pool only holds 6
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(payload))
    out = tmp_path / "results"
    rc = main(["bench", "--manifest", str(manifest_path), "--output-dir", str(out)])
    assert rc == 0
    assert "1 with errors" in capsys.readouterr().out
    with open(out / "points.csv", newline="") as handle:
        classifiers = [row["classifier"] for row in csv.DictReader(handle)]
    assert classifiers == ["gepsvm"]  # the failed iugepsvm cell writes no points
    _assert_results_begin_with_their_best_points(out)


def test_bench_exits_nonzero_on_a_programming_error(bonn_tree, tmp_path, monkeypatch):
    """A bug inside training aborts the run instead of becoming a failed cell."""

    def broken(blocks, spec):
        raise TypeError("broken trainer")

    monkeypatch.setattr("eigu.evaluation.train_with_blocks", broken)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(_toy_manifest_payload(bonn_tree)))
    out = tmp_path / "results"
    rc = main(["bench", "--manifest", str(manifest_path), "--output-dir", str(out)])
    assert rc == 1
    assert not out.exists()


def test_stats_reads_a_results_csv(tmp_path, capsys):
    rows = [
        "task,feature,classifier,mean_acc,fold_accs,params_json,test_time_s,n_runs,error",
        'o_vs_s,dwt_db1,gepsvm,70.0,"","{}",0.0,1,""',
        'o_vs_s,dwt_db1,igepsvm,75.0,"","{}",0.0,1,""',
        'o_vs_s,dwt_db1,iugepsvm,80.0,"","{}",0.0,1,""',
        'o_vs_s,dwt_db2,gepsvm,72.0,"","{}",0.0,1,""',
        'o_vs_s,dwt_db2,igepsvm,74.0,"","{}",0.0,1,""',
        'o_vs_s,dwt_db2,iugepsvm,81.0,"","{}",0.0,1,""',
    ]
    path = tmp_path / "results.csv"
    path.write_text("\n".join(rows) + "\n")
    rc = main(["stats", "--results", str(path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["champion"] == "iugepsvm"
    entry = report["tasks"]["o_vs_s"]
    assert entry["friedman"]["n_models"] == 3
    assert len(entry["wilcoxon"]) == 3
    assert entry["win_tie_loss"]["gepsvm"]["wins"] == 2

    empty = tmp_path / "empty.csv"
    empty.write_text(rows[0] + "\n")
    assert main(["stats", "--results", str(empty)]) == 2

    assert main(["stats", "--results", str(path), "--task", "z_vs_s"]) == 2
    assert main(["stats", "--results", str(path), "--champion", "svm"]) == 2


def test_stats_from_bundled_tables(capsys):
    rc = main(["stats", "--from-paper-tables", "--task", "o_vs_s"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["champion"] == "IU-GEPSVM"
    assert list(report["tasks"]) == ["o_vs_s"]
    assert report["tasks"]["o_vs_s"]["friedman"]["chi2"] == pytest.approx(
        20.796, abs=0.01
    )


def _write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _assert_results_begin_with_their_best_points(out):
    """Each scored cell has n_runs points, and its results row begins with its first best one's.

    A failed cell has none; the points follow the results rows' order.
    """
    results = (out / "results.csv").read_text().splitlines()
    points = (out / "points.csv").read_text().splitlines()
    assert points[0] == "task,feature,classifier,mean_acc,fold_accs,params_json"
    parsed = list(csv.DictReader(points))
    start = 0
    for line, row in zip(results[1:], csv.DictReader(results)):
        if row["error"]:
            continue
        n = int(row["n_runs"])
        cell = parsed[start : start + n]
        assert {(p["task"], p["feature"], p["classifier"]) for p in cell} == {
            (row["task"], row["feature"], row["classifier"])
        }
        means = [float(p["mean_acc"]) for p in cell]
        assert line.startswith(points[1 + start + means.index(max(means))] + ",")
        start += n
    assert start == len(parsed)


@pytest.mark.parametrize("sigma", [None, 64.0], ids=["linear", "rbf"])
def test_bench_points_are_the_engines_reports(bonn_tree, tmp_path, sigma):
    """points.csv holds every point grid_search scores on the same rows, in visit order."""
    grid = {"delta": [1e-5], "gamma": [0.1, 1.0], "psi": [0.01]}
    if sigma is not None:
        grid["sigma"] = [sigma]
    payload = _toy_manifest_payload(bonn_tree)
    payload["grids"]["iugepsvm"] = grid
    out = tmp_path / "results"
    assert main(["bench", "--manifest", str(_write_manifest(tmp_path, payload)),
                 "--output-dir", str(out)]) == 0
    with open(out / "points.csv", newline="") as handle:
        points = [row for row in csv.DictReader(handle) if row["classifier"] == "iugepsvm"]
    dataset = load_tasks(bonn_tree, ["o_vs_s"], 6, TOY_SEGMENT, 1)["o_vs_s"]
    result = grid_search(
        dataset, make_folds(dataset, 2, seed=1), "iugepsvm", GridSpec(**grid),
        extractor=feature_config_from_id("dwt_db2"),
    )
    assert len(points) == result.n_runs == 2
    for row, report in zip(points, result.reports):
        assert float(row["mean_acc"]) == report.mean_accuracy
        assert tuple(float(a) for a in row["fold_accs"].split(";")) == report.fold_accuracies
        assert json.loads(row["params_json"]) == report.params
    _assert_results_begin_with_their_best_points(out)


def test_bench_writes_121_points_for_a_decade_gamma_psi_grid(bonn_tree, tmp_path):
    payload = _toy_manifest_payload(bonn_tree)
    payload.update(classifiers=["iugepsvm"])
    payload["grids"] = {"iugepsvm": {"delta": [1e-5], "gamma": DECADE_GRID, "psi": DECADE_GRID}}
    out = tmp_path / "results"
    assert main(["bench", "--manifest", str(_write_manifest(tmp_path, payload)),
                 "--output-dir", str(out)]) == 0
    with open(out / "points.csv", newline="") as handle:
        params = [json.loads(row["params_json"]) for row in csv.DictReader(handle)]
    assert len(params) == 121
    assert [(p["gamma1"], p["psi1"]) for p in params] == [
        (g, s) for g in DECADE_GRID for s in DECADE_GRID
    ]
    _assert_results_begin_with_their_best_points(out)


@pytest.mark.parametrize(
    "key, value, extra",
    [
        ("tasks", [1], []),
        ("features", [7], []),
        ("classifiers", [["gepsvm"]], []),
        ("classifiers", [["gepsvm"]], ["--classifiers", "gepsvm"]),
        ("data_root", 5, []),
    ],
    ids=["task", "feature", "classifier", "classifier-filtered", "data-root"],
)
def test_bench_refuses_a_manifest_entry_that_is_not_a_string_before_any_data_is_read(
    bonn_tree, tmp_path, monkeypatch, capsys, key, value, extra
):
    loaded = []
    monkeypatch.setattr("eigu.evaluation.load_tasks", lambda *args: loaded.append(args))
    payload = {**_toy_manifest_payload(bonn_tree), key: value}
    out = tmp_path / "out"
    manifest = _write_manifest(tmp_path, payload)
    argv = ["bench", "--manifest", str(manifest), "--output-dir", str(out)]
    assert main([*argv, *extra]) == 2
    assert f"manifest {key!r}" in capsys.readouterr().err
    assert loaded == [] and not out.exists()


def test_bench_takes_the_data_root_from_the_environment_or_refuses(
    bonn_tree, tmp_path, monkeypatch, capsys
):
    """A null data_root is filled from EIGU_DATA_ROOT, and refused without it."""
    payload = {**_toy_manifest_payload(bonn_tree), "data_root": None}
    argv = ["bench", "--manifest", str(_write_manifest(tmp_path, payload)), "--output-dir"]
    monkeypatch.delenv("EIGU_DATA_ROOT", raising=False)
    assert main([*argv, str(tmp_path / "refused")]) == 2
    message = "manifest has no data_root; pass --data-root or set EIGU_DATA_ROOT"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    monkeypatch.setenv("EIGU_DATA_ROOT", str(bonn_tree))
    assert main([*argv, str(tmp_path / "env")]) == 0
    want = results_csv(run_benchmark(_toy_manifest_payload(bonn_tree)).rows)
    assert (tmp_path / "env" / "results.csv").read_text() == want


def test_bench_seed_overrides_the_manifest_seed(bonn_tree, tmp_path):
    payload = _toy_manifest_payload(bonn_tree)
    out = tmp_path / "out"
    manifest = _write_manifest(tmp_path, payload)
    argv = ["bench", "--manifest", str(manifest), "--output-dir", str(out)]
    assert main([*argv, "--seed", "3"]) == 0
    want = results_csv(run_benchmark({**payload, "seed": 3}).rows)
    assert want != results_csv(run_benchmark(payload).rows)  # the seed moves these folds
    assert (out / "results.csv").read_text() == want


def test_an_unexpected_key_error_is_a_runtime_failure(bonn_tree, tmp_path, monkeypatch, capsys):
    """No usage path raises KeyError, so one is a bug: exit 1 with its type name."""

    def broken(manifest, workers=None):
        raise KeyError("missing")

    monkeypatch.setattr("eigu.cli.run_benchmark", broken)
    payload = _toy_manifest_payload(bonn_tree)
    argv = ["bench", "--manifest", str(_write_manifest(tmp_path, payload))]
    assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
    assert "error: KeyError: 'missing'" in capsys.readouterr().err


_RESULTS_HEADER = "task,feature,classifier,mean_acc,fold_accs,params_json,n_runs,error"


@pytest.mark.parametrize(
    "lines, message",
    [
        (["task,feature,mean_acc", "o_vs_s,pca,90.0"],
         "results CSV needs columns ['classifier', 'feature', 'mean_acc', 'task']"),
        ([_RESULTS_HEADER, 'o_vs_s,pca,gepsvm,,"","{}",0,"ValueError: bad"'],
         "cell o_vs_s/pca/gepsvm failed: ValueError: bad"),
        ([_RESULTS_HEADER, 'o_vs_s,pca,gepsvm,high,"","{}",1,""'],
         "bad mean_acc for o_vs_s/pca/gepsvm: 'high'"),
        ([_RESULTS_HEADER, 'o_vs_s,pca,gepsvm,90.0,"","{}",1,""',
          'o_vs_s,ica,iugepsvm,80.0,"","{}",1,""'],
         "results CSV is missing cell o_vs_s/pca/iugepsvm"),
        ([_RESULTS_HEADER], "results CSV has no data rows"),
        ([_RESULTS_HEADER, 'o_vs_s,pca,gepsvm,90.0,"","{}",1,""',
          'o_vs_s,pca,gepsvm,10.0,"","{}",1,""'],
         "results CSV lists cell o_vs_s/pca/gepsvm more than once"),
    ],
    ids=["columns", "failed-cell", "mean-acc", "missing-cell", "no-rows", "repeated-cell"],
)
def test_stats_refuses_a_results_csv_it_cannot_tabulate(tmp_path, capsys, lines, message):
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["stats", "--results", str(path)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
