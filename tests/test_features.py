"""Wavelet, PCA, ICA, and component-ranking tests with hand oracles."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from eigu.features import (
    DEFAULT_LEVELS,
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
