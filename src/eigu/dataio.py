"""Loading, task assembly, folds, and the on-disk dataset bundle format.

The EEG corpus this package targets ships as five directories of ASCII
recordings (sets Z, O, N, F, S; 100 single-channel segments each, one
integer amplitude per line).  Loaders are strict: unreadable lines are
reported with file name and 1-based line number, empty files and empty
set directories are errors.

A classification task pairs two sets as the labeled classes and draws
Universum rows from set N.  Assembled datasets round-trip through a CSV
bundle (X1.csv / X2.csv / U.csv plus manifest.json) so every downstream
command can run from a directory instead of recomputing features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "BONN_SETS",
    "FoldPlan",
    "LabeledDataset",
    "Recording",
    "SEGMENT_LENGTH",
    "TASKS",
    "UNIVERSUM_SET",
    "assemble_task",
    "load_bonn_set",
    "load_recording",
    "make_folds",
    "read_bundle",
    "subset_universum",
    "truncate_recordings",
    "write_bundle",
    "write_recording",
]

BONN_SETS = ("Z", "O", "N", "F", "S")

#: task name -> (class +1 set, class -1 set)
TASKS = {"o_vs_s": ("O", "S"), "z_vs_s": ("Z", "S")}

UNIVERSUM_SET = "N"

#: Segment length: raw segments carry 4097 samples, and the trailing one
#: is dropped so the length is an exact power of two for the wavelet
#: transform.
SEGMENT_LENGTH = 4096


@dataclass(frozen=True)
class Recording:
    """One single-channel segment: its set label, samples, and file stem."""

    set_label: str
    samples: np.ndarray = field(repr=False)
    source_id: str = ""

    def __post_init__(self) -> None:
        if self.set_label not in BONN_SETS:
            raise ValueError(
                f"unknown set label {self.set_label!r}, expected one of {BONN_SETS}"
            )
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite values")
        object.__setattr__(self, "samples", samples)


def load_recording(path: str | Path, set_label: str) -> Recording:
    """Parse one ASCII recording (one integer amplitude per line).

    numpy converts the file's lines to int64 in one call, which accepts
    the file only when every line holds exactly one integer.  Whatever that
    rejects (a blank line, two tokens on a line, a value beyond int64, a
    non-ASCII byte) is parsed again line by line, which skips blank lines
    and names the first bad line in its error.
    """
    path = Path(path)
    try:
        values = np.array(path.read_bytes().splitlines(), dtype=np.int64)
    except (ValueError, OverflowError):
        values = _parse_lines(path)
    if len(values) == 0:
        raise ValueError(f"{path.name}: no samples found")
    return Recording(set_label=set_label, samples=values, source_id=path.stem)


def _parse_lines(path: Path) -> list[float]:
    """The recording's values, read line by line; raises at the first bad line."""
    values: list[float] = []
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(int(text)))
            except ValueError as exc:
                raise ValueError(
                    f"{path.name}: line {lineno}: expected an integer amplitude, got {text!r}"
                ) from exc
    return values


def write_recording(recording: Recording, path: str | Path) -> None:
    """Write a recording back to the one-integer-per-line text format."""
    path = Path(path)
    lines = "\n".join(str(int(v)) for v in recording.samples)
    path.write_text(lines + "\n", encoding="ascii")


def load_bonn_set(directory: str | Path, set_label: str) -> list[Recording]:
    """Load every recording in a set directory, in lexicographic file order."""
    directory = Path(directory)
    if set_label not in BONN_SETS:
        raise ValueError(
            f"unknown set label {set_label!r}, expected one of {BONN_SETS}"
        )
    if not directory.is_dir():
        raise FileNotFoundError(f"set directory not found: {directory}")
    paths = sorted(p for p in directory.iterdir() if p.is_file())
    if not paths:
        raise ValueError(f"no recordings found in {directory}")
    return [load_recording(p, set_label) for p in paths]


def truncate_recordings(
    recordings: list[Recording], length: int = SEGMENT_LENGTH
) -> np.ndarray:
    """Stack recordings into a row matrix, truncated to a common length.

    Recordings shorter than ``length`` are rejected, as is a ``length``
    below 1; the standard corpus carries one extra trailing sample per
    segment, which is dropped here.
    """
    if length < 1:
        raise ValueError(f"segment length must be >= 1, got {length}")
    if not recordings:
        raise ValueError("no recordings to truncate")
    rows = []
    for rec in recordings:
        if rec.samples.size < length:
            raise ValueError(
                f"recording {rec.source_id or '<unnamed>'} has "
                f"{rec.samples.size} samples, needs at least {length}"
            )
        rows.append(rec.samples[:length])
    return np.vstack(rows)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows for one task: class +1 (X1), class -1 (X2), Universum (U)."""

    X1: np.ndarray = field(repr=False)
    X2: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        X1 = np.ascontiguousarray(np.asarray(self.X1, dtype=float))
        X2 = np.ascontiguousarray(np.asarray(self.X2, dtype=float))
        U = np.asarray(self.U, dtype=float)
        if X1.ndim != 2 or X2.ndim != 2:
            raise ValueError("class matrices must be 2-d")
        if X1.shape[0] < 1 or X2.shape[0] < 1:
            raise ValueError("each class needs at least one row")
        n = X1.shape[1]
        if n == 0:
            raise ValueError("rows need at least one column, got 0")
        if X2.shape[1] != n:
            raise ValueError(
                f"feature dimensions differ: X1 has {n}, X2 has {X2.shape[1]}"
            )
        if U.size == 0 and len(U) == 0:  # no rows: an empty Universum of any width
            U = np.zeros((0, n))
        U = np.ascontiguousarray(U)
        if U.ndim != 2 or U.shape[1] != n:
            raise ValueError(
                f"feature dimensions differ: X1 has {n}, U has {U.shape[1:]}"
            )
        for name, M in (("X1", X1), ("X2", X2), ("U", U)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite values")
        object.__setattr__(self, "X1", X1)
        object.__setattr__(self, "X2", X2)
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        return self.X1.shape[1]

    @property
    def m1(self) -> int:
        return self.X1.shape[0]

    @property
    def m2(self) -> int:
        return self.X2.shape[0]

    @property
    def p(self) -> int:
        return self.U.shape[0]


def assemble_task(
    task: str,
    feature_rows_by_set: dict[str, np.ndarray],
    universum_size: int,
    seed: int,
) -> LabeledDataset:
    """Build the labeled dataset for a named task.

    ``feature_rows_by_set`` maps set labels to row matrices.  The Universum
    is ``subset_universum`` of set N: its first ``universum_size`` rows
    after a seeded shuffle (``universum_size = 0`` yields an empty
    Universum and set N need not be supplied).
    """
    key = task.lower()
    if key not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {sorted(TASKS)}")
    pos_set, neg_set = TASKS[key]
    for required in (pos_set, neg_set):
        if required not in feature_rows_by_set:
            raise ValueError(f"task {task!r} needs rows for set {required}")
    pool = feature_rows_by_set.get(UNIVERSUM_SET) if universum_size > 0 else ()
    if pool is None:
        raise ValueError(f"universum_size > 0 needs rows for set {UNIVERSUM_SET}")
    X1, X2 = feature_rows_by_set[pos_set], feature_rows_by_set[neg_set]
    return subset_universum(LabeledDataset(X1=X1, X2=X2, U=pool), universum_size, seed)


def subset_universum(dataset: LabeledDataset, universum_size: int, seed: int) -> LabeledDataset:
    """Re-draw the Universum as a seeded-shuffle prefix of the dataset's own pool.

    Every draw, the whole pool's included, is a prefix of every larger one.
    """
    if universum_size < 0:
        raise ValueError("universum_size must be >= 0")
    if universum_size > dataset.p:
        raise ValueError(
            f"universum_size {universum_size} exceeds the {dataset.p} pooled rows"
        )
    order = np.random.default_rng(seed).permutation(dataset.p)
    return LabeledDataset(X1=dataset.X1, X2=dataset.X2, U=dataset.U[order[:universum_size]])


@dataclass(frozen=True)
class FoldPlan:
    """Stratified k-fold assignment over the labeled rows of a dataset.

    ``class1_folds[i]`` / ``class2_folds[i]`` give the test-fold index of
    the i-th row of X1 / X2.  Universum rows never appear: they join every
    training split and no test split.
    """

    k: int
    class1_folds: np.ndarray = field(repr=False)
    class2_folds: np.ndarray = field(repr=False)
    seed: int = 0


def make_folds(dataset: LabeledDataset, k: int, seed: int) -> FoldPlan:
    """Per-class seeded shuffle followed by round-robin fold assignment."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k > dataset.m1 or k > dataset.m2:
        raise ValueError(
            f"k={k} exceeds a class size (m1={dataset.m1}, m2={dataset.m2})"
        )
    rng = np.random.default_rng(seed)
    folds = []
    for m in (dataset.m1, dataset.m2):
        assignment = np.empty(m, dtype=int)
        order = rng.permutation(m)
        assignment[order] = np.arange(m) % k
        folds.append(assignment)
    return FoldPlan(k=k, class1_folds=folds[0], class2_folds=folds[1], seed=seed)


def _write_rows(path: Path, rows: np.ndarray) -> None:
    n = rows.shape[1]
    header = ",".join(f"f{j}" for j in range(n))
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _read_rows(path: Path) -> np.ndarray:
    text = path.read_text(encoding="ascii").strip().splitlines()
    if not text:
        raise ValueError(f"{path.name}: empty file")
    header = text[0].split(",")
    n = len(header)
    if header != [f"f{j}" for j in range(n)]:
        raise ValueError(f"{path.name}: malformed header {text[0]!r}")
    if len(text) == 1:
        return np.zeros((0, n))
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in text[1:]], dtype=float
    )
    if rows.shape[1] != n:
        raise ValueError(f"{path.name}: row width differs from header")
    return rows


def write_bundle(
    dataset: LabeledDataset,
    directory: str | Path,
    task: str,
    seed: int,
    extra: dict | None = None,
) -> None:
    """Write X1.csv / X2.csv / U.csv plus manifest.json into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_rows(directory / "X1.csv", dataset.X1)
    _write_rows(directory / "X2.csv", dataset.X2)
    _write_rows(directory / "U.csv", dataset.U)
    manifest = {
        "task": task,
        "u": dataset.p,
        "seed": seed,
        "n": dataset.n,
        "m1": dataset.m1,
        "m2": dataset.m2,
        "p": dataset.p,
    }
    if extra:
        manifest.update(extra)
    with open(directory / "manifest.json", "w", encoding="ascii") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_bundle(directory: str | Path) -> tuple[LabeledDataset, dict]:
    """Read a dataset bundle written by :func:`write_bundle`."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"manifest not found: {manifest_path}")
    with open(manifest_path, "r", encoding="ascii") as handle:
        manifest = json.load(handle)
    dataset = LabeledDataset(
        X1=_read_rows(directory / "X1.csv"),
        X2=_read_rows(directory / "X2.csv"),
        U=_read_rows(directory / "U.csv"),
    )
    for key, value in (("n", dataset.n), ("m1", dataset.m1), ("m2", dataset.m2), ("p", dataset.p)):
        if key in manifest and manifest[key] != value:
            raise ValueError(
                f"manifest {key}={manifest[key]} disagrees with rows ({value})"
            )
    return dataset, manifest
