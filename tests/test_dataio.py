"""Recording parsing, task assembly, folds, and bundle round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from eigu.dataio import (
    SEGMENT_LENGTH,
    LabeledDataset,
    Recording,
    _parse_canonical,
    _parse_lines,
    assemble_task,
    load_bonn_set,
    load_recording,
    make_folds,
    read_bundle,
    subset_universum,
    truncate_recordings,
    write_bundle,
    write_recording,
)

from conftest import TOY_PER_SET, TOY_SEGMENT


def test_load_recording_parses_integers_and_skips_blank_lines(tmp_path):
    path = tmp_path / "Z001.txt"
    path.write_text("12\n-7\n\n44\n")
    recording = load_recording(path, "Z")
    np.testing.assert_array_equal(recording.samples, [12.0, -7.0, 44.0])
    assert recording.source_id == "Z001"


def test_load_recording_error_names_file_and_line(tmp_path):
    path = tmp_path / "S003.txt"
    path.write_text("5\n3.5\n")
    with pytest.raises(ValueError) as excinfo:
        load_recording(path, "S")
    message = str(excinfo.value)
    assert "S003" in message
    assert "line 2" in message


@pytest.mark.parametrize(
    "text, values",
    [
        ("12\n-7\n\n44\n", [12, -7, 44]),  # a blank line
        ("+5\n-5\n", [5, -5]),  # signs
        ("  7 \n\t8", [7, 8]),  # padding, no final newline
        ("1\r\n2\r\n", [1, 2]),
        ("1\r2\r", [1, 2]),  # universal newlines
        ("1_000\n", [1000]),  # int() syntax, as before
        ("9007199254740993\n", [9007199254740992.0]),  # rounded like float(int)
        ("\f5\x1c\n", [5]),  # whitespace str.strip removes but int() keeps
        ("99999999999999999999\n", [1e20]),  # beyond int64: the line loop reads it
        # the one-call parse takes lines of at most 18 bytes; longer ones go line by line
        ("999999999999999999\n-99999999999999999\n", [999999999999999999, -99999999999999999]),
        ("1234567890123456789\n", [1234567890123456789.0]),  # 19 digits, within int64
        ("-9999999999999999999\n", [-1e19]),  # 19 digits, beyond int64
        ("12345678901234567890\n", [12345678901234567890.0]),  # 20 digits
        ("-0\n007\r\n-3", [0, 7, -3]),  # CRLF and LF, no final newline
    ],
)
def test_load_recording_accepts_what_the_line_loop_accepts(tmp_path, text, values):
    path = tmp_path / "N007.txt"
    path.write_bytes(text.encode("ascii"))
    np.testing.assert_array_equal(load_recording(path, "N").samples, values)
    np.testing.assert_array_equal(_parse_lines(path), values)  # the line loop agrees


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2\n", "N007.txt: line 1: expected an integer amplitude, got '1 2'"),
        ("1 2", "N007.txt: line 1: expected an integer amplitude, got '1 2'"),
        # as many tokens as lines, but not one per line
        ("1 2\n\n", "N007.txt: line 1: expected an integer amplitude, got '1 2'"),
        ("1\t2", "N007.txt: line 1: expected an integer amplitude, got '1\\t2'"),
        ("1,2", "N007.txt: line 1: expected an integer amplitude, got '1,2'"),
        ("0x10", "N007.txt: line 1: expected an integer amplitude, got '0x10'"),
        ("1e3", "N007.txt: line 1: expected an integer amplitude, got '1e3'"),
        ("5\n\n3.5\n", "N007.txt: line 3: expected an integer amplitude, got '3.5'"),
        ("1\x0b2\n", "N007.txt: line 1: expected an integer amplitude, got '1\\x0b2'"),
        ("", "N007.txt: no samples found"),
        ("\n \n", "N007.txt: no samples found"),
        ("-\n", "N007.txt: line 1: expected an integer amplitude, got '-'"),
        ("5-3\n", "N007.txt: line 1: expected an integer amplitude, got '5-3'"),
        ("1\r\n--2\r\n", "N007.txt: line 2: expected an integer amplitude, got '--2'"),
        ("1\r\n2 3\r\n", "N007.txt: line 2: expected an integer amplitude, got '2 3'"),
        ("1\n5-\n", "N007.txt: line 2: expected an integer amplitude, got '5-'"),
    ],
)
def test_load_recording_rejects_what_the_line_loop_rejects(tmp_path, text, message):
    path = tmp_path / "N007.txt"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(ValueError) as excinfo:
        load_recording(path, "N")
    assert str(excinfo.value) == message


def test_a_canonical_recording_is_parsed_in_one_call(tmp_path, bonn_tree, monkeypatch):
    """What write_recording writes, in LF or CRLF lines, never reaches the line loop."""

    def refuse(path):
        raise AssertionError(f"{path.name} went through the line loop")

    monkeypatch.setattr("eigu.dataio._parse_lines", refuse)
    samples = np.array([0.0, -1.0, 7.0, 2.0**59, -(2.0**55), 4096.0])  # 18-byte lines at most
    write_recording(Recording(set_label="Z", samples=samples), tmp_path / "lf.txt")
    crlf = (tmp_path / "lf.txt").read_bytes().replace(b"\n", b"\r\n")
    (tmp_path / "crlf.txt").write_bytes(crlf)
    (tmp_path / "last.txt").write_bytes(crlf.rstrip())
    for name in ("lf.txt", "crlf.txt", "last.txt"):
        np.testing.assert_array_equal(load_recording(tmp_path / name, "Z").samples, samples)
    assert len(load_bonn_set(bonn_tree / "N", "N")) == TOY_PER_SET


def test_the_one_call_parse_agrees_with_the_line_loop_wherever_it_applies(tmp_path):
    """Random texts over the parser's alphabet: each one the fast path takes reads the same."""
    rng = np.random.default_rng(3)
    pieces = [*"0123456789" * 3, "-", "\n", "\n", "\r", "\r\n", " ", "+", "9" * 10]
    path, taken = tmp_path / "N007.txt", 0
    for _ in range(2000):
        data = "".join(rng.choice(pieces, size=rng.integers(1, 30))).encode("ascii")
        fast = _parse_canonical(data)
        if fast is None:
            continue
        taken += 1
        path.write_bytes(data)
        np.testing.assert_array_equal(fast.astype(float), _parse_lines(path))
    assert taken > 100


def test_load_recording_rejects_non_ascii(tmp_path):
    path = tmp_path / "N007.txt"
    path.write_bytes(b"5\n\xe96\n")
    with pytest.raises(UnicodeDecodeError):
        load_recording(path, "N")


def test_recording_round_trip(tmp_path):
    recording = Recording(set_label="N", samples=np.array([1.0, -2.0, 0.0]))
    write_recording(recording, tmp_path / "n.txt")
    again = load_recording(tmp_path / "n.txt", "N")
    np.testing.assert_array_equal(again.samples, recording.samples)


def test_load_bonn_set_orders_lexicographically(bonn_tree):
    recordings = load_bonn_set(bonn_tree / "Z", "Z")
    assert len(recordings) == TOY_PER_SET
    names = [r.source_id for r in recordings]
    assert names == sorted(names)


def test_load_bonn_set_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_bonn_set(tmp_path / "Z", "Z")


def test_truncate_drops_the_trailing_sample(bonn_tree):
    recordings = load_bonn_set(bonn_tree / "O", "O")
    rows = truncate_recordings(recordings, TOY_SEGMENT)
    assert rows.shape == (TOY_PER_SET, TOY_SEGMENT)
    np.testing.assert_array_equal(rows[0], recordings[0].samples[:TOY_SEGMENT])


def test_truncate_rejects_short_recordings():
    short = Recording(set_label="F", samples=np.arange(10.0) + 1)
    with pytest.raises(ValueError) as excinfo:
        truncate_recordings([short], SEGMENT_LENGTH)
    assert "10 samples" in str(excinfo.value)


@pytest.mark.parametrize("length", [0, -3])
def test_truncate_rejects_a_segment_length_below_one(bonn_tree, length):
    """A negative length would slice off the tail and 0 would keep no sample."""
    recordings = load_bonn_set(bonn_tree / "O", "O")
    with pytest.raises(ValueError, match=f"segment length must be >= 1, got {length}"):
        truncate_recordings(recordings, length)


def test_assemble_task_shapes_and_universum_determinism():
    rng = np.random.default_rng(0)
    rows = {
        "O": rng.standard_normal((9, 5)),
        "S": rng.standard_normal((8, 5)),
        "N": rng.standard_normal((10, 5)),
    }
    dataset = assemble_task("o_vs_s", rows, universum_size=4, seed=3)
    assert (dataset.m1, dataset.m2, dataset.p, dataset.n) == (9, 8, 4, 5)
    np.testing.assert_array_equal(dataset.X1, rows["O"])
    np.testing.assert_array_equal(dataset.X2, rows["S"])
    again = assemble_task("o_vs_s", rows, universum_size=4, seed=3)
    np.testing.assert_array_equal(dataset.U, again.U)
    other_seed = assemble_task("o_vs_s", rows, universum_size=4, seed=4)
    assert not np.array_equal(dataset.U, other_seed.U)
    # every drawn row really comes from the pool
    pool_rows = {tuple(r) for r in rows["N"]}
    assert all(tuple(r) in pool_rows for r in dataset.U)


def test_assemble_task_validation():
    rows = {"O": np.zeros((3, 2)), "S": np.ones((3, 2)), "N": np.ones((2, 2))}
    with pytest.raises(ValueError):
        assemble_task("a_vs_b", rows, 0, 0)
    with pytest.raises(ValueError):
        assemble_task("o_vs_s", rows, 5, 0)  # pool has only 2 rows
    with pytest.raises(ValueError):
        assemble_task("o_vs_s", {"O": rows["O"]}, 0, 0)
    empty = assemble_task("o_vs_s", {"O": rows["O"], "S": rows["S"]}, 0, 0)
    assert empty.p == 0


def test_subset_universum_is_a_seeded_prefix():
    rng = np.random.default_rng(1)
    dataset = LabeledDataset(
        X1=rng.standard_normal((4, 3)),
        X2=rng.standard_normal((4, 3)),
        U=rng.standard_normal((10, 3)),
    )
    whole = subset_universum(dataset, 10, seed=9)
    assert sorted(map(tuple, whole.U)) == sorted(map(tuple, dataset.U))
    for u in range(11):  # every draw, the whole pool's included, is a prefix of it
        np.testing.assert_array_equal(subset_universum(dataset, u, seed=9).U, whole.U[:u])
    with pytest.raises(ValueError):
        subset_universum(dataset, 11, seed=9)
    with pytest.raises(ValueError, match=">= 0"):
        subset_universum(dataset, -3, seed=9)


def test_make_folds_partitions_each_class():
    rng = np.random.default_rng(2)
    dataset = LabeledDataset(
        X1=rng.standard_normal((11, 2)),
        X2=rng.standard_normal((7, 2)),
        U=np.zeros((0, 2)),
    )
    plan = make_folds(dataset, k=3, seed=5)
    for assignment, m in ((plan.class1_folds, 11), (plan.class2_folds, 7)):
        assert assignment.shape == (m,)
        counts = np.bincount(assignment, minlength=3)
        # round-robin assignment: fold sizes differ by at most one
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == m
    again = make_folds(dataset, k=3, seed=5)
    np.testing.assert_array_equal(plan.class1_folds, again.class1_folds)
    np.testing.assert_array_equal(plan.class2_folds, again.class2_folds)


def test_make_folds_validation():
    dataset = LabeledDataset(X1=np.zeros((3, 2)), X2=np.ones((8, 2)), U=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        make_folds(dataset, k=1, seed=0)
    with pytest.raises(ValueError):
        make_folds(dataset, k=4, seed=0)  # exceeds the smaller class


def test_bundle_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    dataset = LabeledDataset(
        X1=rng.standard_normal((5, 4)),
        X2=rng.standard_normal((6, 4)),
        U=rng.standard_normal((2, 4)),
    )
    write_bundle(dataset, tmp_path, task="o_vs_s", seed=12, extra={"note": "x"})
    loaded, manifest = read_bundle(tmp_path)
    np.testing.assert_array_equal(loaded.X1, dataset.X1)
    np.testing.assert_array_equal(loaded.X2, dataset.X2)
    np.testing.assert_array_equal(loaded.U, dataset.U)
    assert manifest["task"] == "o_vs_s"
    assert manifest["seed"] == 12
    assert manifest["note"] == "x"
    assert manifest["m1"] == 5 and manifest["m2"] == 6 and manifest["p"] == 2


def test_bundle_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(9)
    dataset = LabeledDataset(
        X1=rng.standard_normal((3, 3)),
        X2=rng.standard_normal((3, 3)),
        U=np.zeros((0, 3)),
    )
    first = tmp_path / "a"
    second = tmp_path / "b"
    for directory in (first, second):
        write_bundle(dataset, directory, task="z_vs_s", seed=1)
    for name in ("X1.csv", "X2.csv", "U.csv", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_bundle_empty_universum_round_trip(tmp_path):
    dataset = LabeledDataset(X1=np.eye(3), X2=np.eye(3) * 2, U=np.zeros((0, 3)))
    write_bundle(dataset, tmp_path, task="o_vs_s", seed=0)
    loaded, _ = read_bundle(tmp_path)
    assert loaded.p == 0
    assert loaded.U.shape[1] == 3


@pytest.mark.parametrize(
    "body, message",
    [
        ("f0,f1\n1.0,2.0\n3.0\n", "X1.csv: line 3: row width differs from header (1 values, 2 columns)"),
        ("f0,f1\n1.0,2.0,5.0\n", "X1.csv: line 2: row width differs from header (3 values, 2 columns)"),
        ("f0,f1\n1.0,abc\n", "X1.csv: line 2: could not convert string to float: 'abc'"),
        ("\nf0,f1\n1.0,2.0\n\n4.0,5.0\n", "X1.csv: line 4: row width differs from header (1 values, 2 columns)"),
    ],
    ids=["short-row", "long-row", "not-a-number", "blank-line"],
)
def test_read_bundle_names_the_file_and_line_of_a_faulty_row(tmp_path, body, message):
    dataset = LabeledDataset(X1=np.eye(2), X2=np.eye(2), U=np.zeros((0, 2)))
    write_bundle(dataset, tmp_path, task="o_vs_s", seed=0)
    (tmp_path / "X1.csv").write_text(body)
    with pytest.raises(ValueError) as excinfo:
        read_bundle(tmp_path)
    assert str(excinfo.value) == message


def test_read_bundle_detects_manifest_mismatch(tmp_path):
    dataset = LabeledDataset(X1=np.eye(2), X2=np.eye(2), U=np.zeros((0, 2)))
    write_bundle(dataset, tmp_path, task="o_vs_s", seed=0)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["m1"] = 99
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as excinfo:
        read_bundle(tmp_path)
    assert "m1" in str(excinfo.value)


def test_labeled_dataset_rejects_rows_without_columns():
    with pytest.raises(ValueError, match="rows need at least one column, got 0"):
        LabeledDataset(X1=np.zeros((2, 0)), X2=np.zeros((2, 0)), U=np.zeros((5, 0)))
    # a Universum with rows but no columns is not an empty one
    with pytest.raises(ValueError, match=r"X1 has 2, U has \(0,\)"):
        LabeledDataset(X1=np.zeros((2, 2)), X2=np.ones((2, 2)), U=np.zeros((5, 0)))
    for empty in ((), np.zeros((0,)), np.zeros((0, 7))):
        assert LabeledDataset(X1=np.zeros((2, 2)), X2=np.ones((2, 2)), U=empty).U.shape == (0, 2)


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(X1=np.zeros((0, 2)), X2=np.ones((2, 2)), U=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        LabeledDataset(X1=np.zeros((2, 2)), X2=np.ones((2, 3)), U=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        LabeledDataset(
            X1=np.array([[np.inf, 0.0]]), X2=np.ones((1, 2)), U=np.zeros((0, 2))
        )
