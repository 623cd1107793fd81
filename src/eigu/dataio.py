"""Loading, task assembly, folds, and the on-disk dataset bundle format.

The EEG corpus this package targets ships as five directories of ASCII
recordings (sets Z, O, N, F, S; 100 single-channel segments each, one
integer amplitude per line).  Loaders are strict: unreadable lines are
reported with file name and 1-based line number, empty files and empty
set directories are errors.  A bundle's rows are read the same way.

Arrays are checked where they are made: a recording's samples when it
is parsed, a dataset's rows when ``LabeledDataset`` is built from them.
Rows cut from a checked dataset -- a fold's training split, a Universum
draw or prefix -- are not scanned again (``LabeledDataset.from_checked``).

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

    A file in the form ``write_recording`` gives -- each line an optional
    ``-`` and at most ``_FAST_DIGITS`` digits, ended by LF or CRLF --
    is converted by numpy in one call (``_parse_canonical``).  Every other
    file (a blank line, padding, a ``+``, a value of 19 or more digits, a
    non-ASCII byte) is parsed line by line, which skips blank lines and
    names the first bad line in its error; on a file of that form the two
    give the same values.
    """
    path = Path(path)
    values = _parse_canonical(path.read_bytes())
    if values is None:
        values = _parse_lines(path)
    if len(values) == 0:
        raise ValueError(f"{path.name}: no samples found")
    return Recording(set_label=set_label, samples=values, source_id=path.stem)


#: Most digits a line ``_parse_canonical`` takes: 18 digits stay below 2**63,
#: so numpy's int64 parse cannot saturate, and the line loop's
#: float(int(text)) rounds each value as the int64-to-float cast does.
_FAST_DIGITS = 18


def _parse_canonical(data: bytes) -> np.ndarray | None:
    """``data``'s values when every line is ``-?[0-9]+`` of at most ``_FAST_DIGITS`` digits, else None.

    Lines end in LF or CRLF (the last may end the file instead).  Such a
    file holds no byte that numpy's whitespace-matching separator could
    read differently from the line loop, so one ``np.fromstring`` call
    parses each line whole.  The form is checked byte pair by byte pair.
    """
    if not data:
        return None
    b = np.frombuffer(data, dtype=np.uint8)
    digit = (b - np.uint8(48)) <= 9  # "0" to "9", in wrapping uint8 arithmetic
    sign, lf, cr = b == 45, b == 10, b == 13
    canonical = (
        sum(map(np.count_nonzero, (digit, sign, lf, cr))) == b.size  # no other byte
        and (digit[0] or sign[0])  # the first line is not blank
        and not np.any(lf[:-1] & ~(digit[1:] | sign[1:]))  # nor is any other
        and not np.any(sign[1:] & ~lf[:-1])  # a sign only leads a line
        and not (sign[-1] or np.any(sign[:-1] & ~digit[1:]))  # and a digit follows it
        and not (cr[-1] or np.any(cr[:-1] & ~lf[1:]))  # a CR only starts a CRLF
    )
    if not canonical:
        return None
    ends = np.flatnonzero(lf)
    if not lf[-1]:
        ends = np.append(ends, b.size)  # the last line, without its LF
    starts = np.concatenate(([0], ends[:-1] + 1))
    if np.any(ends - starts - sign[starts] - cr[ends - 1] > _FAST_DIGITS):
        return None
    return np.fromstring(data, dtype=np.int64, sep="\n")


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
    """Feature rows for one task: class +1 (X1), class -1 (X2), Universum (U).

    Building one checks its rows (2-d, one width, finite, a row per
    class); ``from_checked`` builds one of rows cut from checked ones
    without that scan.
    """

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

    @classmethod
    def from_checked(cls, X1: np.ndarray, X2: np.ndarray, U: np.ndarray) -> LabeledDataset:
        """A dataset of rows cut from checked datasets' rows, not scanned again.

        For a fold's training split, a Universum draw or prefix, and the
        like: rows taken from finite rows of one width are finite and of
        that width.  Each class must keep at least one row.
        """
        dataset = object.__new__(cls)
        for name, rows in (("X1", X1), ("X2", X2), ("U", U)):
            object.__setattr__(dataset, name, np.ascontiguousarray(rows))
        return dataset

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
    return LabeledDataset.from_checked(dataset.X1, dataset.X2, dataset.U[order[:universum_size]])


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
    """A bundle CSV's rows; a faulty line raises a ValueError naming the file and line."""
    lines = path.read_text(encoding="ascii").splitlines()
    filled = [index for index, line in enumerate(lines) if line.strip()]
    if not filled:
        raise ValueError(f"{path.name}: empty file")
    first, last = filled[0], filled[-1]  # blank lines around the table are skipped
    header = lines[first].strip().split(",")
    n = len(header)
    if header != [f"f{j}" for j in range(n)]:
        raise ValueError(f"{path.name}: malformed header {lines[first].strip()!r}")
    rows = np.zeros((last - first, n))
    for row, index in enumerate(range(first + 1, last + 1)):
        where = f"{path.name}: line {index + 1}"
        values = lines[index].split(",")
        if len(values) != n:
            raise ValueError(f"{where}: row width differs from header ({len(values)} values, {n} columns)")
        try:
            rows[row] = [float(v) for v in values]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
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
