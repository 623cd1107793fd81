"""Signed-rank, Friedman, and report-assembly tests with hand oracles."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from eigu.stats import (
    _average_ranks,
    build_stat_report,
    chi2_sf,
    friedman_test,
    load_published_tables,
    pairwise_wilcoxon,
    wilcoxon_signed_rank,
    win_tie_loss,
)


def _brute_force_tail(diffs: np.ndarray) -> float:
    """P(T <= t_small) by enumerating all sign assignments.

    Mirrors the production convention: zero differences dropped, fractional
    ranks of |d|, one tail of the smaller rank sum.
    """
    diffs = diffs[diffs != 0.0]
    ranks = scipy.stats.rankdata(np.abs(diffs), method="average")
    scaled = np.rint(2.0 * ranks).astype(int)
    t_plus = int(np.rint(2.0 * ranks[diffs > 0].sum()))
    t_minus = int(np.rint(2.0 * ranks[diffs < 0].sum()))
    t_small = min(t_plus, t_minus)
    hits = 0
    for signs in itertools.product((0, 1), repeat=len(scaled)):
        if sum(r for r, s in zip(scaled, signs) if s) <= t_small:
            hits += 1
    return hits / 2.0 ** len(scaled)


def test_wilcoxon_hand_oracle():
    a = np.full(5, 10.0)
    b = np.array([11.0, 8.0, 13.0, 14.0, 15.0])  # diffs 1, -2, 3, 4, 5
    result = wilcoxon_signed_rank(a, b)
    assert result.w_statistic == 13.0  # T+ = 1+3+4+5
    # rank subsets summing to <= 2: {}, {1}, {2} -> 3 of 32
    assert result.p_value == pytest.approx(3 / 32)
    assert result.method == "exact"
    assert result.n_effective == 5
    assert result.effect_size_r == pytest.approx(13 / 15)


def test_wilcoxon_exact_tail_matches_brute_force_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(4, 10))
        # half-integer grid forces tied |d| values regularly
        diffs = rng.integers(-6, 7, size=n) / 2.0
        if not np.any(diffs):
            diffs[0] = 1.0
        a = rng.uniform(50, 90, size=n)
        b = a + diffs
        result = wilcoxon_signed_rank(a, b)
        assert result.p_value == pytest.approx(_brute_force_tail(diffs), rel=1e-12)


def test_wilcoxon_drops_zero_differences():
    result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert result.n_total == 4
    assert result.n_effective == 2
    assert result.w_statistic == 1.5
    assert result.p_value == pytest.approx(3 / 4)
    assert result.effect_size_r == pytest.approx(1.5 / 10.0)


def test_wilcoxon_rejects_degenerate_input():
    with pytest.raises(ValueError, match="all paired differences are zero"):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([np.nan, 1.0], [0.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [2.0, 1.0], n_comparisons=0)


def test_wilcoxon_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(12)
    a = rng.uniform(60, 90, size=9)
    b = a + rng.integers(-4, 5, size=9)
    forward = wilcoxon_signed_rank(a, b)
    backward = wilcoxon_signed_rank(b, a)
    assert forward.w_statistic == backward.w_statistic
    assert forward.p_value == backward.p_value
    assert forward.effect_size_r == backward.effect_size_r


def test_wilcoxon_normal_path_matches_the_stock_approximation():
    rng = np.random.default_rng(13)
    a = rng.uniform(50, 90, size=30)
    d = rng.standard_normal(30) + 0.6
    result = wilcoxon_signed_rank(a, a + d)
    assert result.method == "normal"
    reference = scipy.stats.wilcoxon(
        d, correction=True, alternative="two-sided", method="approx"
    )
    assert 2.0 * result.p_value == pytest.approx(reference.pvalue, rel=1e-9)


def test_friedman_hand_oracle():
    result = friedman_test(np.array([[3.0, 2.0, 1.0], [3.0, 2.0, 1.0]]))
    assert result.chi2 == pytest.approx(4.0)
    assert result.df == 2
    assert result.p_value == pytest.approx(math.exp(-2.0))
    assert result.average_ranks == (1.0, 2.0, 3.0)
    assert not result.reject
    assert result.n_datasets == 2 and result.n_models == 3


def test_friedman_is_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(14)
    matrix = rng.uniform(40, 95, size=(7, 5))
    base = friedman_test(matrix)
    scaled = friedman_test(2.0 * matrix + 5.0)
    assert scaled.chi2 == base.chi2
    assert scaled.p_value == base.p_value
    assert scaled.average_ranks == base.average_ranks


def test_friedman_on_identical_columns_is_null():
    result = friedman_test(np.full((6, 4), 80.0))
    assert result.chi2 == pytest.approx(0.0)
    assert result.p_value == 1.0
    assert result.average_ranks == (2.5, 2.5, 2.5, 2.5)


def test_friedman_respects_column_permutation():
    rng = np.random.default_rng(15)
    matrix = rng.uniform(40, 95, size=(6, 4))
    perm = [2, 0, 3, 1]
    base = friedman_test(matrix)
    shuffled = friedman_test(matrix[:, perm])
    assert shuffled.chi2 == pytest.approx(base.chi2)
    assert shuffled.average_ranks == tuple(base.average_ranks[j] for j in perm)


def test_chi2_sf_matches_numeric_integration():
    for df in (1, 2, 5):
        norm = 2.0 ** (df / 2.0) * math.gamma(df / 2.0)
        for x in (0.5, 2.0, 7.5, 15.0):
            integral, _ = scipy.integrate.quad(
                lambda t: t ** (df / 2.0 - 1.0) * math.exp(-t / 2.0) / norm,
                x,
                np.inf,
            )
            assert chi2_sf(x, df) == pytest.approx(integral, abs=1e-10)
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(-1.0, 3) == 1.0
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(math.inf, 1)


def test_pairwise_wilcoxon_covers_all_pairs():
    rng = np.random.default_rng(16)
    matrix = rng.uniform(50, 95, size=(7, 6))
    names = [f"m{i}" for i in range(6)]
    duels = pairwise_wilcoxon(matrix, names)
    assert len(duels) == 15
    assert duels[0]["pair"] == ["m0", "m1"]
    assert all(d["result"].n_comparisons == 15 for d in duels)
    direct = wilcoxon_signed_rank(matrix[:, 0], matrix[:, 1], n_comparisons=15)
    assert duels[0]["result"] == direct

    against = pairwise_wilcoxon(matrix, names, against="m5")
    assert len(against) == 5
    assert all(pair["pair"][1] == "m5" for pair in against)
    with pytest.raises(ValueError, match="unknown reference"):
        pairwise_wilcoxon(matrix, names, against="m9")


def test_win_tie_loss_counts_and_tolerance():
    tally = win_tie_loss([1.0, 2.0, 3.0, 4.0], [0.0, 2.0, 5.0, 4.0])
    assert (tally.wins, tally.ties, tally.losses) == (1, 2, 1)
    assert tally.win_rate == 25.0
    assert tally.non_loss_rate == 75.0
    near = win_tie_loss([1.0], [1.05], tolerance=0.1)
    assert (near.wins, near.ties, near.losses) == (0, 1, 0)
    with pytest.raises(ValueError):
        win_tie_loss([1.0], [1.0], tolerance=-0.5)
    with pytest.raises(ValueError):
        win_tie_loss([1.0, 2.0], [1.0])


def test_bundled_tables_have_the_reporting_shape():
    tables = load_published_tables()
    assert set(tables["tasks"]) == {"o_vs_s", "z_vs_s"}
    assert len(tables["features"]) == 7
    assert len(tables["models"]) == 6
    assert "IU-GEPSVM" in tables["models"]
    for matrix in tables["tasks"].values():
        assert len(matrix) == 7
        assert all(len(row) == 6 for row in matrix)
        assert all(0.0 < v <= 100.0 for row in matrix for v in row)


def test_build_stat_report_structure():
    tables = load_published_tables()
    report = build_stat_report(tables)
    assert report["champion"] == "IU-GEPSVM"
    assert set(report["tasks"]) == {"o_vs_s", "z_vs_s"}
    for entry in report["tasks"].values():
        assert len(entry["wilcoxon"]) == 15
        assert entry["friedman"].df == 5
        assert set(entry["win_tie_loss"]) == set(tables["models"]) - {"IU-GEPSVM"}
        for tally in entry["win_tie_loss"].values():
            assert tally.wins + tally.ties + tally.losses == 7
    with pytest.raises(ValueError, match="unknown champion"):
        build_stat_report(tables, champion="SVM")


def test_average_ranks_are_scipys_rankdata_bit_for_bit():
    """Tie-heavy draws, every tie group's rank an exact half-integer; -0.0 ties 0.0."""
    rng = np.random.default_rng(7)
    for size in (1, 2, 7, 30, 200):
        for levels in (1, 2, 5, size):
            values = 0.1 * rng.integers(-levels, levels + 1, size)
            got = _average_ranks(values)
            want = scipy.stats.rankdata(values, method="average")
            assert got.dtype == want.dtype and np.array_equal(got, want), (size, levels)
    signed_zeros = np.array([0.0, -0.0, 1.0, -0.0])
    assert np.array_equal(
        _average_ranks(signed_zeros), scipy.stats.rankdata(signed_zeros, method="average")
    )


def test_importing_the_command_line_leaves_scipy_stats_unloaded():
    """``eigu --help`` starts without ``scipy.stats``, a large import eigu needs nothing of."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, eigu.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.')))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert "'scipy.linalg'" in loaded  # the check ran in a process that loaded eigu
    assert "scipy.stats" not in loaded
