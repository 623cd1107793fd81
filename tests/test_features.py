"""Wavelet, PCA, ICA, and component-ranking tests with hand oracles."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from eigu.features import (
    DEFAULT_LEVELS,
    ICA_MAX_ITERATIONS,
    ICA_TOLERANCE,
    SUPPORTED_WAVELETS,
    FeatureConfig,
    cdr_rank,
    daubechies_lowpass,
    dwt_features,
    feature_config_from_id,
    fit_features,
    ica_fit,
    ica_transform,
    idwt_features,
    pca_fit,
    pca_transform,
)


# ---------------------------------------------------------------------------
# wavelet filters


def test_haar_filter_is_normalized_pair():
    np.testing.assert_allclose(daubechies_lowpass(1), np.array([1.0, 1.0]) / math.sqrt(2))


def test_db2_filter_matches_closed_form():
    """The 4-tap filter has the classic (1 +/- sqrt 3) closed form."""
    s3 = math.sqrt(3.0)
    expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2.0))
    np.testing.assert_allclose(daubechies_lowpass(2), expected, atol=1e-12)


@pytest.mark.parametrize("wavelet", SUPPORTED_WAVELETS)
def test_filters_satisfy_orthonormality_conditions(wavelet):
    order = {"haar": 1, "db1": 1, "db2": 2, "db4": 4, "db6": 6}[wavelet]
    h = daubechies_lowpass(order)
    assert h.size == 2 * order
    assert h.sum() == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert np.dot(h, h) == pytest.approx(1.0, abs=1e-12)
    for shift in range(1, order):
        assert np.dot(h[: -2 * shift], h[2 * shift :]) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# transform


def test_haar_level_one_hand_oracle():
    coeffs = dwt_features(np.array([1.0, 1.0, 1.0, 1.0]), "haar", level=1)
    np.testing.assert_allclose(coeffs, [math.sqrt(2), math.sqrt(2), 0.0, 0.0], atol=1e-14)


def test_haar_level_two_layout():
    """Layout is [approx_L | detail_L | ... | detail_1]."""
    signal = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    coeffs = dwt_features(signal, "haar", level=2)
    np.testing.assert_allclose(coeffs, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_db1_equals_haar():
    rng = np.random.default_rng(0)
    signal = rng.standard_normal(64)
    np.testing.assert_array_equal(
        dwt_features(signal, "db1", level=2), dwt_features(signal, "haar", level=2)
    )


@pytest.mark.parametrize("wavelet", SUPPORTED_WAVELETS)
@pytest.mark.parametrize("length", [512, 1024, 2048, 4096])
def test_energy_conservation_and_round_trip(wavelet, length):
    rng = np.random.default_rng(length)
    signal = rng.standard_normal(length) * 100.0
    coeffs = dwt_features(signal, wavelet)
    assert coeffs.shape == signal.shape
    energy_in = float(signal @ signal)
    energy_out = float(coeffs @ coeffs)
    assert abs(energy_out - energy_in) <= 1e-9 * energy_in
    back = idwt_features(coeffs, wavelet)
    assert np.max(np.abs(back - signal)) <= 1e-9 * np.max(np.abs(signal))


def test_default_levels_are_used():
    signal = np.random.default_rng(1).standard_normal(4096)
    for wavelet, level in DEFAULT_LEVELS.items():
        implicit = dwt_features(signal, wavelet)
        explicit = dwt_features(signal, wavelet, level=level)
        np.testing.assert_array_equal(implicit, explicit)


def test_dwt_argument_validation():
    signal = np.ones(12)
    with pytest.raises(ValueError):
        dwt_features(signal, "haar", level=3)  # 12 not divisible by 8
    with pytest.raises(ValueError):
        dwt_features(np.ones(16), "db6", level=3)  # 2 samples < 12 taps
    with pytest.raises(ValueError):
        dwt_features(np.ones(8), "sym4")
    with pytest.raises(ValueError):
        dwt_features(np.array([1.0, np.nan, 0.0, 0.0]), "haar", level=1)


# ---------------------------------------------------------------------------
# PCA


def test_pca_basis_is_orthonormal_and_diagonalizes():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((60, 8)) @ np.diag([5, 4, 3, 2, 1, 0.5, 0.25, 0.1])
    basis = pca_fit(rows, n_components=8)
    W = basis.components
    np.testing.assert_allclose(W.T @ W, np.eye(8), atol=1e-10)
    scores = pca_transform(basis, rows)
    covariance = scores.T @ scores / (rows.shape[0] - 1)
    off_diagonal = covariance - np.diag(np.diag(covariance))
    assert np.max(np.abs(off_diagonal)) <= 1e-8 * covariance.max()
    np.testing.assert_allclose(np.diag(covariance), basis.explained_variance, rtol=1e-10)
    # variances are sorted, largest first
    assert np.all(np.diff(basis.explained_variance) <= 1e-12)


def test_pca_two_dim_eigenvalue_hand_oracle():
    """Explained variances match the 2x2 covariance quadratic formula."""
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((200, 2)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
    centered = rows - rows.mean(axis=0)
    S = centered.T @ centered / (rows.shape[0] - 1)
    half_trace = (S[0, 0] + S[1, 1]) / 2.0
    spread = math.sqrt(((S[0, 0] - S[1, 1]) / 2.0) ** 2 + S[0, 1] ** 2)
    basis = pca_fit(rows, n_components=2)
    np.testing.assert_allclose(
        basis.explained_variance, [half_trace + spread, half_trace - spread], rtol=1e-10
    )


def test_pca_is_deterministic_and_flags_rank_deficiency():
    rng = np.random.default_rng(6)
    rows = rng.standard_normal((3, 5))
    with pytest.warns(UserWarning):
        basis = pca_fit(rows, n_components=5)
    assert basis.rank_deficient
    assert basis.components.shape[1] <= 2
    first = pca_fit(rows + 1.0, n_components=2)
    second = pca_fit(rows + 1.0, n_components=2)
    np.testing.assert_array_equal(first.components, second.components)
    for flat in (np.ones((4, 3)), np.zeros((4, 0))):  # centered rank 0, with and without columns
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="rank 0"):
            pca_fit(flat, n_components=2)


def _wide_rows(rng):
    return rng.standard_normal((40, 300)) * rng.uniform(0.5, 3.0, 300)


def _narrow_rows(rng):
    return rng.standard_normal((60, 8)) @ np.diag([5, 4, 3, 2, 1, 0.5, 0.25, 0.1])


def _repeated_wide_rows(rng):
    return rng.standard_normal((7, 300))[np.arange(42) % 7]  # centered rank 6


def _centered_svd_rows(rng, m, n, sing):
    """m x n rows whose centered singular values are ``sing``, up to rounding."""
    left = rng.standard_normal((m, len(sing)))
    left, _ = np.linalg.qr(left - left.mean(axis=0))  # orthonormal columns orthogonal to e
    right, _ = np.linalg.qr(rng.standard_normal((n, len(sing))))
    return (left * sing) @ right.T


def _conditioned_wide_rows(rng):
    """Centered rank 40 with s_1 / s_32 = 1e3: s_1..s_32 log-spaced from 1 to 1e-3."""
    sing = np.concatenate([np.logspace(0, -3, 32), np.logspace(-3.2, -4, 8)])
    return _centered_svd_rows(rng, 50, 300, sing)


@pytest.mark.parametrize(
    "make_rows, n_components, rank, sine, orthonormality, rtol",
    [
        (_wide_rows, 12, 39, 1e-10, 1e-12, 1e-12),
        (_narrow_rows, 8, 8, 1e-10, 1e-12, 1e-12),
        (_repeated_wide_rows, 12, 6, 1e-10, 1e-12, 1e-12),
        # the Gram squares the conditioning: errors grow like eps (s_1 / s_k)^2 / gap,
        # 1e-10 or less on this draw, where an SVD of C itself gives eps (s_1 / s_k) / gap
        (_conditioned_wide_rows, 32, 40, 5e-10, 5e-10, 5e-10),
    ],
    ids=["wide", "narrow", "wide rank-deficient", "wide ill-conditioned"],
)
def test_pca_from_the_snapshot_gram_matches_a_dense_svd(
    make_rows, n_components, rank, sine, orthonormality, rtol
):
    """Wide rows take C C', narrow ones C'C; each kept component is within ``sine``."""
    rows = make_rows(np.random.default_rng(13))
    centered = rows - rows.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    assert np.linalg.matrix_rank(centered) == rank
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis = pca_fit(rows, n_components=n_components)
    kept = min(n_components, rank)
    assert basis.n_components == kept
    assert basis.rank_deficient == (rank < n_components) == bool(caught)
    if caught:
        assert f"centered rank is {rank}; keeping {kept}" in str(caught[0].message)
    W = basis.components
    assert np.abs(W.T @ W - np.eye(kept)).max() <= orthonormality
    for j in range(kept):
        v = vt[j]
        assert np.linalg.norm(W[:, j] - (W[:, j] @ v) * v) <= sine  # sine of the angle
        assert W[np.argmax(np.abs(W[:, j])), j] > 0
    np.testing.assert_allclose(
        basis.explained_variance, sing[:kept] ** 2 / (rows.shape[0] - 1), rtol=rtol
    )


@pytest.mark.parametrize("shape", [(40, 300), (300, 12)], ids=["wide", "narrow"])
def test_pca_counts_the_rank_a_gram_resolves(shape):
    """A direction at 1e-9 s_1 is above an SVD's rank tolerance but below the Gram's.

    The Gram keeps eigenvalues above w_max * max(m, n) * eps, so singular
    values above s_1 * sqrt(max(m, n) * eps), about 2.6e-7 s_1 here.
    """
    r = 5
    rows = _centered_svd_rows(np.random.default_rng(21), *shape, [5.0, 4, 3, 2, 1, 5e-9]) + 3.0
    centered = rows - rows.mean(axis=0)
    assert np.linalg.matrix_rank(centered) == r + 1  # an SVD of C resolves the sixth
    warning = f"requested 8 components but centered rank is {r}; keeping {r}"
    with pytest.warns(UserWarning, match=warning):
        basis = pca_fit(rows, n_components=8)
    assert basis.rank_deficient and basis.n_components == r
    assert np.all(basis.explained_variance > 0)


# ---------------------------------------------------------------------------
# ICA


def test_ica_recovers_independent_sources():
    rng = np.random.default_rng(7)
    n = 2000
    sources = np.column_stack(
        [rng.uniform(-1, 1, n), np.sign(rng.standard_normal(n)) * rng.uniform(0.5, 1, n)]
    )
    mixing = np.array([[2.0, 0.6], [-1.0, 1.4]])
    mixed = sources @ mixing.T
    basis = ica_fit(mixed, n_components=2, seed=0)
    recovered = ica_transform(basis, mixed)
    # each true source must correlate strongly with one recovered component
    corr = np.corrcoef(sources.T, recovered.T)[:2, 2:]
    best = np.max(np.abs(corr), axis=1)
    assert np.all(best >= 0.95)


def test_ica_is_deterministic_for_a_seed():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((300, 4)) @ rng.standard_normal((4, 4))
    one = ica_fit(rows, n_components=3, seed=5)
    two = ica_fit(rows, n_components=3, seed=5)
    np.testing.assert_array_equal(one.unmixing, two.unmixing)
    np.testing.assert_array_equal(one.whitening, two.whitening)


def _transcribed_unmixing(basis, rows, seed):
    """The deflationary tanh fixed-point loop, written plainly."""
    white = (rows - basis.mean) @ basis.whitening
    m, kept = white.shape
    rng = np.random.default_rng(seed)
    W = np.zeros((kept, kept))
    for i in range(kept):
        w = rng.normal(size=kept)
        w /= np.linalg.norm(w)
        for _ in range(ICA_MAX_ITERATIONS):
            g = np.tanh(white @ w)
            w_new = (white.T @ g) / m - (1.0 - g * g).mean() * w
            w_new -= W[:i].T @ (W[:i] @ w_new)
            norm = np.linalg.norm(w_new)
            if norm == 0.0:
                break
            w_new /= norm
            settled = abs(abs(float(w_new @ w)) - 1.0) < ICA_TOLERANCE
            w = w_new
            if settled:
                break
        W[i] = w
    return W


def _mixed_sources(rng):
    sources = np.column_stack([rng.uniform(-1, 1, 500), rng.laplace(size=500)])
    return sources @ np.array([[2.0, 0.6], [-1.0, 1.4]]).T


@pytest.mark.parametrize(
    "rows, n_components, seed, converged",
    [
        (_mixed_sources(np.random.default_rng(7)), 2, 0, True),
        (np.random.default_rng(3).laplace(size=(40, 300)), 6, 3, True),
        (np.random.default_rng(1).standard_normal((60, 8)), 8, 1, False),
    ],
    ids=["mixed sources", "wide", "capped"],
)
def test_ica_unmixing_equals_the_plain_loop_bit_for_bit(rows, n_components, seed, converged):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        basis = ica_fit(rows, n_components=n_components, seed=seed)
    assert basis.converged == converged
    assert (basis.n_iterations == ICA_MAX_ITERATIONS) == (not converged)
    assert np.array_equal(basis.unmixing, _transcribed_unmixing(basis, rows, seed))


# ---------------------------------------------------------------------------
# component ranking


def test_cdr_hand_oracle():
    """Column [0,1,2,3] split {0,1}/{2,3}: between 2, within 1, ratio 2."""
    scores = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.array([1, 1, -1, -1])
    ranked = cdr_rank(scores, labels)
    assert len(ranked) == 1
    assert ranked[0].ratio == pytest.approx(2.0)
    assert ranked[0].sigma_between == pytest.approx(2.0)
    assert ranked[0].sigma_within == pytest.approx(1.0)


def test_cdr_sentinels_and_tie_order():
    labels = np.array([1, 1, -1, -1])
    constant = np.ones(4)
    separated = np.array([0.0, 0.0, 1.0, 1.0])
    scores = np.column_stack([constant, separated, separated])
    ranked = cdr_rank(scores, labels)
    by_index = {s.component_index: s for s in ranked}
    assert by_index[0].ratio == 0.0  # globally constant
    assert math.isinf(by_index[1].ratio)  # perfectly separated
    # ties keep the lower index first
    assert [s.component_index for s in ranked] == [1, 2, 0]


def test_cdr_orders_by_discriminability():
    rng = np.random.default_rng(9)
    labels = np.array([1] * 30 + [-1] * 30)
    strong = np.concatenate([rng.normal(0, 0.1, 30), rng.normal(5, 0.1, 30)])
    weak = np.concatenate([rng.normal(0, 1.0, 30), rng.normal(0.3, 1.0, 30)])
    noise = rng.standard_normal(60)
    ranked = cdr_rank(np.column_stack([noise, weak, strong]), labels)
    assert ranked[0].component_index == 2


def test_cdr_validation():
    with pytest.raises(ValueError):
        cdr_rank(np.ones((4, 2)), np.array([1, 1, 1, 1]))  # one class
    with pytest.raises(ValueError):
        cdr_rank(np.ones((4, 2)), np.array([1, -1]))  # label length


# ---------------------------------------------------------------------------
# configuration and fitted transforms


def test_feature_config_ids_round_trip():
    for feature_id in ("dwt_haar", "dwt_db2", "dwt_db6", "pca", "ica"):
        config = feature_config_from_id(feature_id)
        assert config.feature_id == feature_id
    with pytest.raises(ValueError):
        feature_config_from_id("dwt_sym4")
    with pytest.raises(ValueError):
        FeatureConfig(method="pca", wavelet="haar")


def test_fit_features_orders_components_by_cdr_and_keeps_top_k():
    rng = np.random.default_rng(10)
    labels = np.concatenate([np.ones(40), -np.ones(40)])
    rows = rng.standard_normal((80, 6))
    rows[:40, 3] += 6.0  # one strongly class-coupled direction
    config = FeatureConfig(method="pca", n_components=4, top_k=2)
    fitted = fit_features(config, rows, labels)
    assert len(fitted.keep) == 2
    transformed = fitted.transform(rows)
    assert transformed.shape == (80, 2)
    # the kept leading column separates the classes
    gap = abs(transformed[:40, 0].mean() - transformed[40:, 0].mean())
    within = max(transformed[:40, 0].std(), transformed[40:, 0].std())
    assert gap > 3.0 * within


def test_a_top_k_that_cannot_apply_is_refused():
    with pytest.raises(ValueError, match="top_k applies to pca and ica"):
        feature_config_from_id("dwt_db6", top_k=3)
    with pytest.raises(ValueError, match="top_k must be <= n_components 4, got 5"):
        FeatureConfig(method="ica", n_components=4, top_k=5)
    assert FeatureConfig(method="pca", n_components=4, top_k=4).top_k == 4


def test_fitted_transform_handles_empty_row_blocks():
    config = feature_config_from_id("pca", n_components=2)
    rng = np.random.default_rng(11)
    fitted = fit_features(config, rng.standard_normal((20, 5)), None)
    empty = fitted.transform(np.zeros((0, 5)))
    assert empty.shape == (0, 2)


def test_pca_and_ica_fits_share_one_basis_bit_for_bit():
    """A fit handed the rows' PCA basis equals the fit that computes it, byte for byte."""
    rng = np.random.default_rng(12)
    rows = rng.uniform(-1.0, 1.0, (200, 9)) @ rng.standard_normal((9, 9))
    labels = np.repeat([1, -1], 100)
    pca_config = FeatureConfig(method="pca", n_components=5)
    ica_config = FeatureConfig(method="ica", n_components=5, seed=3)
    alone = {c.method: fit_features(c, rows, labels) for c in (pca_config, ica_config)}
    basis = alone["pca"].pca
    assert alone["ica"].pca.components.tobytes() == basis.components.tobytes()
    shared = fit_features(ica_config, rows, labels, pca=basis)
    assert shared.pca is basis
    assert shared.ica.unmixing.tobytes() == alone["ica"].ica.unmixing.tobytes()
    assert shared.keep == alone["ica"].keep
    assert shared.transform(rows).tobytes() == alone["ica"].transform(rows).tobytes()
    assert fit_features(pca_config, rows, labels, pca=basis).keep == alone["pca"].keep
    with pytest.raises(ValueError, match="is not the 4-component basis"):
        fit_features(replace(pca_config, n_components=4), rows, labels, pca=basis)
    with pytest.raises(ValueError, match="rows with 8 columns"):
        ica_fit(rows[:, :8], n_components=5, pca=basis)
