"""Kernel evaluation tests with hand-computed Gram entries."""

from __future__ import annotations

import numpy as np
import pytest

from eigu.kernels import KernelSpec, default_sigma, gram, squared_distances


def test_linear_gram_is_the_inner_product():
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    B = np.array([[3.0, 1.0]])
    K = gram(A, B, KernelSpec(family="linear"))
    np.testing.assert_array_equal(K, A @ B.T)


def test_rbf_hand_value():
    """Points 0 and 2 with sigma 1: exp(-4 / 2) = exp(-2)."""
    K = gram(
        np.array([[0.0]]), np.array([[2.0]]), KernelSpec(family="rbf", sigma=1.0)
    )
    assert K[0, 0] == pytest.approx(np.exp(-2.0), abs=1e-15)
    assert K[0, 0] == pytest.approx(0.1353352832366127, abs=1e-12)


def test_rbf_self_gram_has_unit_diagonal_and_bounded_entries():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((20, 4))
    values = gram(rows, rows, KernelSpec(family="rbf", sigma=0.7))
    np.testing.assert_array_equal(np.diag(values), np.ones(20))
    assert np.all(values > 0)
    assert np.all(values <= 1.0)
    np.testing.assert_allclose(values, values.T, atol=1e-15)


def test_rbf_cross_gram_matches_loop():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 3))
    B = rng.standard_normal((4, 3))
    sigma = 1.3
    K = gram(A, B, KernelSpec(family="rbf", sigma=sigma))
    for i in range(5):
        for j in range(4):
            d2 = float(np.sum((A[i] - B[j]) ** 2))
            assert K[i, j] == pytest.approx(
                np.exp(-d2 / (2.0 * sigma**2)), rel=1e-12
            )


def test_precomputed_distances_give_the_same_bits():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 3))
    B = rng.standard_normal((4, 3))
    spec = KernelSpec(family="rbf", sigma=0.8)
    for rows_a, rows_b in ((A, B), (A, A)):
        d2 = squared_distances(rows_a, rows_b)
        np.testing.assert_array_equal(
            gram(rows_a, rows_b, spec, d2), gram(rows_a, rows_b, spec)
        )
    self_d2 = squared_distances(A, A)
    gram(A, A, spec, self_d2)
    np.testing.assert_array_equal(self_d2, squared_distances(A, A))  # left unmodified
    assert default_sigma(A, self_d2) == default_sigma(A)
    with pytest.raises(ValueError, match="shape"):
        gram(A, B, spec, self_d2)
    with pytest.raises(ValueError, match="shape"):
        default_sigma(B, self_d2)


def test_default_sigma_hand_values():
    """Rows 0 and 2 on a line: squared distances {0, 4, 4, 0}, mean 2."""
    assert default_sigma(np.array([[0.0], [2.0]])) == pytest.approx(2.0)
    # three points 0, 2, 4: distances^2 {0,4,16, 4,0,4, 16,4,0}, mean 48/9
    assert default_sigma(np.array([[0.0], [2.0], [4.0]])) == pytest.approx(48.0 / 9.0)


def test_default_sigma_degenerate_rows_warn_and_fall_back():
    rows = np.ones((4, 2))
    with pytest.warns(UserWarning):
        assert default_sigma(rows) == 1.0


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(family="poly")
    with pytest.raises(ValueError):
        KernelSpec(family="linear", sigma=1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="rbf", sigma=-2.0)
    # unresolved bandwidth is allowed at construction but not at evaluation
    spec = KernelSpec(family="rbf")
    with pytest.raises(ValueError):
        gram(np.zeros((2, 2)), np.zeros((2, 2)), spec)
