"""Nonparametric comparisons over accuracy tables.

``friedman_test`` ranks classifiers within each dataset row (rank 1 =
best, ties averaged) and computes

    chi2_F = 12 N / (k (k + 1)) * (sum_j Rbar_j^2 - k (k + 1)^2 / 4)

with the upper-tail chi-square p-value evaluated through the regularized
incomplete gamma function.  ``wilcoxon_signed_rank`` is the paired test
with zero differences dropped: the statistic is the larger of the two
signed-rank sums (symmetric in its arguments), the p-value is the exact
single-tail probability enumerated over all sign assignments up to 25
effective pairs (normal approximation beyond), and the effect size is the
statistic normalized by the total rank mass N(N+1)/2 of the original pair
count.  ``win_tie_loss`` tallies paired comparisons with a configurable
tie tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.special

__all__ = [
    "EXACT_ENUMERATION_LIMIT",
    "FriedmanResult",
    "WilcoxonResult",
    "WinTieLoss",
    "build_stat_report",
    "chi2_sf",
    "friedman_test",
    "load_published_tables",
    "pairwise_wilcoxon",
    "rank_models",
    "win_tie_loss",
    "wilcoxon_signed_rank",
]

#: Largest number of effective pairs solved by exact enumeration.
EXACT_ENUMERATION_LIMIT = 25


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability via the regularized incomplete gamma."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x <= 0:
        return 1.0
    return float(scipy.special.gammaincc(df / 2.0, x / 2.0))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, ties sharing the mean of their positions.

    ``scipy.stats.rankdata(values, method="average")`` to the bit: after a
    stable sort, a tie group over positions s+1 .. e ranks (s + e + 1) / 2,
    an exact half-integer.  Kept here so that importing eigu does not load
    ``scipy.stats``.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def rank_models(accuracy_matrix: np.ndarray) -> np.ndarray:
    """Average fractional ranks per column (rank 1 = highest accuracy).

    Each row is ranked descending with ties sharing the average rank, so
    every row's ranks sum to k(k+1)/2; the column means are returned.
    """
    matrix = np.asarray(accuracy_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("accuracy matrix must be 2-d and non-empty")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("accuracy matrix has non-finite entries")
    ranks = np.vstack([_average_ranks(-row) for row in matrix])
    return ranks.mean(axis=0)


@dataclass(frozen=True)
class FriedmanResult:
    chi2: float
    df: int
    p_value: float
    reject: bool
    alpha: float
    average_ranks: tuple[float, ...]
    n_datasets: int
    n_models: int


def friedman_test(accuracy_matrix: np.ndarray, alpha: float = 0.05) -> FriedmanResult:
    """Friedman test over an N x k accuracy table (rows = datasets)."""
    matrix = np.asarray(accuracy_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("accuracy matrix must be 2-d")
    n, k = matrix.shape
    if n < 2 or k < 2:
        raise ValueError(f"need at least 2 rows and 2 columns, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("accuracy matrix has non-finite entries")
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    mean_ranks = rank_models(matrix)
    chi2 = (12.0 * n / (k * (k + 1))) * (
        float(np.sum(mean_ranks**2)) - k * (k + 1) ** 2 / 4.0
    )
    p = chi2_sf(chi2, k - 1)
    return FriedmanResult(
        chi2=chi2,
        df=k - 1,
        p_value=p,
        reject=p < alpha,
        alpha=alpha,
        average_ranks=tuple(float(r) for r in mean_ranks),
        n_datasets=n,
        n_models=k,
    )


@dataclass(frozen=True)
class WilcoxonResult:
    w_statistic: float
    p_value: float
    effect_size_r: float
    n_effective: int
    n_total: int
    method: str  # "exact" | "normal"
    significant_uncorrected: bool
    significant_bonferroni: bool
    alpha: float
    n_comparisons: int


def _exact_tail_probability(scaled_ranks: np.ndarray, scaled_small: int) -> float:
    """P(T <= t) for the signed-rank sum under random signs, by counting.

    ``scaled_ranks`` are the tie-averaged ranks doubled to integers; the
    distribution of the positive-rank sum is built by dynamic programming
    over all 2^n sign assignments.
    """
    total = int(scaled_ranks.sum())
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for rank in scaled_ranks:
        shifted = np.zeros_like(counts)
        shifted[rank:] = counts[: total + 1 - rank]
        counts = counts + shifted
    tail = counts[: scaled_small + 1].sum()
    return float(tail / 2.0 ** len(scaled_ranks))


def wilcoxon_signed_rank(
    a,
    b,
    alpha: float = 0.05,
    n_comparisons: int = 1,
) -> WilcoxonResult:
    """Paired signed-rank comparison of two accuracy sequences.

    Zero differences are dropped before ranking.  Swapping ``a`` and ``b``
    returns the identical statistic and p-value.  ``n_comparisons`` feeds
    the Bonferroni verdict (``p < alpha / n_comparisons``); the uncorrected
    verdict is reported alongside.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("inputs must be equal-length non-empty vectors")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("inputs contain non-finite values")
    if n_comparisons < 1:
        raise ValueError(f"n_comparisons must be >= 1, got {n_comparisons}")
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n_total = a.size
    diffs = b - a
    diffs = diffs[diffs != 0.0]
    n_eff = diffs.size
    if n_eff == 0:
        raise ValueError("all paired differences are zero; nothing to rank")
    ranks = _average_ranks(np.abs(diffs))
    t_plus = float(ranks[diffs > 0].sum())
    t_minus = float(ranks[diffs < 0].sum())
    t_small = min(t_plus, t_minus)
    t_large = max(t_plus, t_minus)

    if n_eff <= EXACT_ENUMERATION_LIMIT:
        scaled = np.rint(2.0 * ranks).astype(int)  # tie-averaged ranks are half-integers
        p = _exact_tail_probability(scaled, int(round(2.0 * t_small)))
        method = "exact"
    else:
        mean = n_eff * (n_eff + 1) / 4.0
        _, tie_counts = np.unique(np.abs(diffs), return_counts=True)
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        sd = math.sqrt(n_eff * (n_eff + 1) * (2 * n_eff + 1) / 24.0 - tie_term)
        z = (t_small - mean + 0.5) / sd  # continuity-corrected toward the mean
        p = float(scipy.special.ndtr(z))
        method = "normal"

    effect = t_large / (n_total * (n_total + 1) / 2.0)
    return WilcoxonResult(
        w_statistic=t_large,
        p_value=p,
        effect_size_r=min(effect, 1.0),
        n_effective=n_eff,
        n_total=n_total,
        method=method,
        significant_uncorrected=p < alpha,
        significant_bonferroni=p < alpha / n_comparisons,
        alpha=alpha,
        n_comparisons=n_comparisons,
    )


@dataclass(frozen=True)
class WinTieLoss:
    wins: int
    ties: int
    losses: int
    win_rate: float
    non_loss_rate: float


def win_tie_loss(a, b, tolerance: float = 0.0) -> WinTieLoss:
    """Count rows where ``a`` beats / ties / loses to ``b``.

    A difference within ``tolerance`` (absolute) counts as a tie.  Rates
    are percentages of the row count.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("inputs must be equal-length non-empty vectors")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    diffs = a - b
    wins = int(np.sum(diffs > tolerance))
    losses = int(np.sum(diffs < -tolerance))
    ties = int(a.size - wins - losses)
    return WinTieLoss(
        wins=wins,
        ties=ties,
        losses=losses,
        win_rate=100.0 * wins / a.size,
        non_loss_rate=100.0 * (wins + ties) / a.size,
    )


def pairwise_wilcoxon(
    accuracy_matrix: np.ndarray,
    names: list[str],
    alpha: float = 0.05,
    against: str | None = None,
) -> list[dict]:
    """Wilcoxon results for model pairs of an accuracy table.

    With ``against`` set, only pairs (other, against) are tested; otherwise
    all unordered pairs.  The Bonferroni correction always uses the number
    of comparisons actually performed.
    """
    matrix = np.asarray(accuracy_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != len(names):
        raise ValueError("matrix columns must match names")
    if against is not None and against not in names:
        raise ValueError(f"unknown reference model {against!r}")
    if against is None:
        pairs = [
            (names[i], names[j])
            for i in range(len(names))
            for j in range(i + 1, len(names))
        ]
    else:
        pairs = [(name, against) for name in names if name != against]
    results = []
    for left, right in pairs:
        col_l = matrix[:, names.index(left)]
        col_r = matrix[:, names.index(right)]
        outcome = wilcoxon_signed_rank(
            col_l, col_r, alpha=alpha, n_comparisons=len(pairs)
        )
        results.append({"pair": [left, right], "result": outcome})
    return results


def build_stat_report(
    tables: dict,
    champion: str = "IU-GEPSVM",
    alpha: float = 0.05,
    tolerance: float = 0.0,
) -> dict:
    """Friedman, all pairwise Wilcoxon duels, and champion win/tie/loss per task.

    ``tables`` has the shape returned by :func:`load_published_tables`;
    any dict with ``models``, ``features``, and ``tasks`` works, so the
    report runs equally on freshly benchmarked matrices.
    """
    models = list(tables["models"])
    if champion not in models:
        raise ValueError(f"unknown champion model {champion!r}")
    report: dict = {"alpha": alpha, "champion": champion, "tasks": {}}
    for task, matrix in tables["tasks"].items():
        arr = np.asarray(matrix, dtype=float)
        friedman = friedman_test(arr, alpha=alpha)
        duels = pairwise_wilcoxon(arr, models, alpha=alpha)
        champ_col = arr[:, models.index(champion)]
        tallies = {
            name: win_tie_loss(champ_col, arr[:, models.index(name)], tolerance)
            for name in models
            if name != champion
        }
        report["tasks"][task] = {
            "models": models,
            "features": list(tables["features"]),
            "friedman": friedman,
            "wilcoxon": duels,
            "win_tie_loss": tallies,
        }
    return report


def load_published_tables() -> dict:
    """The bundled per-task accuracy tables used by the reporting path.

    Returns a dict with ``models``, ``features``, and ``tasks`` (task name
    -> feature x model accuracy matrix as nested lists).
    """
    payload = (
        resources.files("eigu").joinpath("data/paper_tables.json").read_text("ascii")
    )
    tables = json.loads(payload)
    for task, matrix in tables["tasks"].items():
        rows = len(tables["features"])
        cols = len(tables["models"])
        if len(matrix) != rows or any(len(r) != cols for r in matrix):
            raise ValueError(f"malformed bundled table for task {task!r}")
    return tables
