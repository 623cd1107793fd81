"""Kernel evaluations for the nonlinear classifier variants.

Two families are supported: the plain dot product (``linear``) and the
Gaussian kernel ``exp(-||x - y||^2 / (2 sigma^2))`` (``rbf``).  Squared
distances are computed with the usual norm expansion and clipped at zero,
and a Gram block whose rows and columns index the same points gets an
exact unit diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["KernelSpec", "default_sigma", "gram", "squared_distances"]

KERNEL_FAMILIES = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its bandwidth (``sigma``, rbf only).

    An rbf spec may leave ``sigma`` unset; trainers resolve it from their
    training rows via :func:`default_sigma` before any Gram evaluation.
    """

    family: str
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}, expected one of {KERNEL_FAMILIES}"
            )
        if self.family == "rbf":
            if self.sigma is not None and (not np.isfinite(self.sigma) or self.sigma <= 0):
                raise ValueError(f"rbf kernel requires sigma > 0, got {self.sigma}")
        elif self.sigma is not None:
            raise ValueError("linear kernel takes no sigma")


def _as_rows(rows: np.ndarray, name: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"{name} must be a 2-d row matrix, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{name} contains non-finite entries")
    return rows


def squared_distances(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances, clipped at zero."""
    rows_a = _as_rows(rows_a, "rows_a")
    rows_b = _as_rows(rows_b, "rows_b")
    if rows_a.shape[1] != rows_b.shape[1]:
        raise ValueError(
            f"row dimensions differ: {rows_a.shape[1]} vs {rows_b.shape[1]}"
        )
    sq_a = np.sum(rows_a * rows_a, axis=1)[:, None]
    sq_b = np.sum(rows_b * rows_b, axis=1)[None, :]
    d2 = sq_a + sq_b - 2.0 * (rows_a @ rows_b.T)
    return np.maximum(d2, 0.0)


def _checked_distances(rows_a: np.ndarray, rows_b: np.ndarray, d2) -> np.ndarray:
    """``d2`` when given (its shape checked against the rows), else computed."""
    if d2 is None:
        return squared_distances(rows_a, rows_b)
    if d2.shape != (len(rows_a), len(rows_b)):
        raise ValueError(
            f"squared distances have shape {d2.shape}, rows give "
            f"{(len(rows_a), len(rows_b))}"
        )
    return d2


def gram(
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    spec: KernelSpec,
    d2: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel matrix ``K[i, j] = k(rows_a[i], rows_b[j])``.

    When both axes index the same point set (same array object or equal
    contents) the rbf diagonal is set to exactly 1.  ``d2`` may pass in
    ``squared_distances(rows_a, rows_b)``, computed once for several
    bandwidths; that call checked the rows, so here they are only matched
    against its shape.  A linear kernel does not read ``d2``.
    """
    if spec.family == "linear":
        return _as_rows(rows_a, "rows_a") @ _as_rows(rows_b, "rows_b").T
    if spec.sigma is None:
        raise ValueError("rbf sigma is unresolved; fix it before evaluating a Gram block")
    d2 = _checked_distances(rows_a, rows_b, d2)
    values = np.exp(-d2 / (2.0 * spec.sigma**2))
    same = rows_a is rows_b or (
        np.shape(rows_a) == np.shape(rows_b) and np.array_equal(rows_a, rows_b)
    )
    if same:
        np.fill_diagonal(values, 1.0)
    return values


def default_sigma(rows: np.ndarray, d2: np.ndarray | None = None) -> float:
    """Data-driven rbf bandwidth: mean of all N^2 pairwise squared distances.

    Self-distances are included in the mean.  A degenerate point set (all
    rows identical, mean distance 0) falls back to 1.0 with a warning.
    ``d2`` may pass in ``squared_distances(rows, rows)`` computed earlier.
    """
    rows = _as_rows(rows, "rows")
    if rows.shape[0] == 0:
        raise ValueError("rows must be non-empty")
    mean_d2 = float(_checked_distances(rows, rows, d2).mean())
    if mean_d2 == 0.0:
        warnings.warn(
            "all rows identical; falling back to sigma = 1.0", stacklevel=2
        )
        return 1.0
    return mean_d2
