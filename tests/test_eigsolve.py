"""Eigen solver tests against small, independently computed oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from eigu.classifiers import TrainSpec, build_blocks, plane_problems
from eigu.dataio import LabeledDataset
from eigu.eigsolve import (
    RESIDUAL_RTOL,
    SYMMETRY_RTOL,
    _checked_pair,
    _validated_symmetric,
    SingularDenominatorError,
    smallest_eigpair_generalized,
    smallest_eigpair_standard,
)
from eigu.kernels import KernelSpec


def _char_poly_roots_3x3(A):
    """Roots of det(A - x I) for a 3x3 matrix, with no eigensolver involved."""
    c2 = -float(np.trace(A))
    c1 = float(
        A[0, 0] * A[1, 1]
        - A[0, 1] * A[1, 0]
        + A[0, 0] * A[2, 2]
        - A[0, 2] * A[2, 0]
        + A[1, 1] * A[2, 2]
        - A[1, 2] * A[2, 1]
    )
    c0 = -float(np.linalg.det(A))
    return np.roots([1.0, c2, c1, c0])


def test_standard_matches_characteristic_polynomial():
    A = np.array([[4.0, 1.0, -2.0], [1.0, 2.0, 0.0], [-2.0, 0.0, 3.0]])
    expected = np.min(_char_poly_roots_3x3(A).real)
    solution = smallest_eigpair_standard(A)
    assert solution.eigenvalue == pytest.approx(expected, abs=1e-10)


def test_standard_eigenvector_definition_and_normalization():
    rng = np.random.default_rng(11)
    basis = rng.standard_normal((6, 6))
    A = (basis + basis.T) / 2.0
    solution = smallest_eigpair_standard(A)
    v = solution.eigenvector
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(A @ v, solution.eigenvalue * v, atol=1e-10)
    # sign convention: the largest-magnitude component is positive
    assert v[np.argmax(np.abs(v))] > 0


def test_generalized_diagonal_hand_oracle():
    """diag(2, 5) against diag(1, 4) has pencil eigenvalues 2 and 1.25."""
    A = np.diag([2.0, 5.0])
    b = np.array([1.0, 4.0])
    solution = smallest_eigpair_generalized(A, np.diag(b), factor=np.diag(np.sqrt(b)))
    assert solution.eigenvalue == pytest.approx(1.25, abs=1e-12)
    np.testing.assert_allclose(np.abs(solution.eigenvector), [0.0, 1.0], atol=1e-12)


def test_generalized_reduces_to_scaled_standard():
    """With B = c*I the pencil eigenvalues are the standard ones over c."""
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((5, 5))
    A = basis @ basis.T + 0.1 * np.eye(5)
    c = 3.7
    standard = smallest_eigpair_standard(A)
    generalized = smallest_eigpair_generalized(A, c * np.eye(5), factor=np.sqrt(c) * np.eye(5))
    assert generalized.eigenvalue == pytest.approx(standard.eigenvalue / c, rel=1e-10)
    overlap = abs(float(generalized.eigenvector @ standard.eigenvector))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_generalized_minimizes_rayleigh_over_random_probes():
    """A positive-definite numerator over a rank-deficient denominator,
    the shape the ratio trainers pose."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        q = int(rng.integers(3, 12))
        basis = rng.standard_normal((q, q))
        A = basis @ basis.T + 0.1 * np.eye(q)
        factor = rng.standard_normal((q, int(rng.integers(1, q))))
        B = factor @ factor.T
        solution = smallest_eigpair_generalized(A, B, factor=factor.T)
        probes = rng.standard_normal((10_000, q))
        denominators = np.einsum("ij,jk,ik->i", probes, B, probes)
        keep = denominators > 1e-300
        quotients = np.einsum("ij,jk,ik->i", probes[keep], A, probes[keep]) / denominators[keep]
        slack = 1e-9 * (1.0 + abs(solution.eigenvalue))
        assert quotients.min() >= solution.eigenvalue - slack


def test_singular_denominator_hand_oracle():
    """diag(a1, a2, a3) over diag(1, 1, 0): the minimum is min(a1, a2)."""
    A = np.diag([3.0, 2.0, 5.0])
    B = np.diag([1.0, 1.0, 0.0])
    solution = smallest_eigpair_generalized(A, B, factor=np.diag(np.sqrt(np.diag(B))))
    assert solution.eigenvalue == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(solution.eigenvector, [0.0, 1.0, 0.0], atol=1e-12)
    residual = np.linalg.norm(
        A @ solution.eigenvector - solution.eigenvalue * (B @ solution.eigenvector)
    )
    bound = RESIDUAL_RTOL * (np.linalg.norm(A) + abs(solution.eigenvalue) * np.linalg.norm(B))
    assert solution.residual == pytest.approx(residual, abs=1e-15)
    assert residual <= bound


def test_indefinite_numerator_is_refused():
    A = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(SingularDenominatorError) as excinfo:
        smallest_eigpair_generalized(A, np.eye(3), context="test plane 1", factor=np.eye(3))
    message = str(excinfo.value)
    assert message.startswith("test plane 1: numerator not positive-definite")
    assert " of B " not in message


def _ratio_planes(kind: str, seed: int) -> list:
    """Both planes of gepsvm and ugepsvm, at two deltas, over seeded blocks of one kind.

    Span blocks (40 features, 21 rows) and rbf blocks (expansion of 21 rows,
    q = 22) give factors with fewer rows than columns; narrow blocks (4
    features, q = 5) give factors with more.
    """
    rng = np.random.default_rng(seed)
    n, kernel = {"span": (40, None), "kernel": (5, KernelSpec("rbf", 2.0)), "narrow": (4, None)}[kind]
    dataset = LabeledDataset(
        X1=rng.standard_normal((9, n)), X2=rng.standard_normal((7, n)) + 0.5,
        U=rng.standard_normal((5, n)) + 0.25,
    )
    blocks = build_blocks(dataset, kernel)
    return [
        problem
        for classifier in ("gepsvm", "ugepsvm")
        for delta in (1e-4, 1e-2)
        for problem in plane_problems(blocks, TrainSpec(classifier=classifier, delta=delta))
    ]


@pytest.mark.parametrize("kind", ["span", "kernel", "narrow"])
def test_a_ratio_plane_solved_through_its_factor_matches_the_dense_pencil(kind):
    """lambda and z match scipy's dense solve of the inverted pencil B z = mu A z.

    Span and kernel planes solve the k x k Gram M'M, narrow planes M M';
    the same factor padded with zero rows past q takes the other branch.
    """
    for seed in range(3):
        for problem in _ratio_planes(kind, seed):
            q, k = problem.A.shape[0], problem.factor.shape[0]
            assert (k >= q) == (kind == "narrow")
            scale = np.abs(problem.B).max()
            np.testing.assert_allclose(
                problem.factor.T @ problem.factor, problem.B, rtol=0, atol=1e-13 * scale
            )
            solution = smallest_eigpair_generalized(
                problem.A, problem.B, problem.context, factor=problem.factor
            )
            mu, vectors = scipy.linalg.eigh(problem.B, problem.A, subset_by_index=[q - 2, q - 1])
            assert solution.eigenvalue == pytest.approx(1.0 / mu[1], rel=1e-12, abs=0)
            if mu[1] - mu[0] > 1e-2 * mu[1]:  # a clear top gap pins the direction
                reference = vectors[:, 1] / np.linalg.norm(vectors[:, 1])
                v = solution.eigenvector
                assert np.linalg.norm(v - (v @ reference) * reference) < 1e-9
            padded = np.vstack([problem.factor, np.zeros((q, q))])
            other = smallest_eigpair_generalized(problem.A, problem.B, factor=padded)
            assert other.eigenvalue == pytest.approx(solution.eigenvalue, rel=1e-12, abs=0)


def test_a_factored_pencil_refuses_a_flat_denominator_and_an_indefinite_numerator():
    with pytest.raises(SingularDenominatorError) as excinfo:
        smallest_eigpair_generalized(
            np.eye(3), np.zeros((3, 3)), context="zero metric", factor=np.zeros((2, 3))
        )
    assert str(excinfo.value).startswith("zero metric: denominator has no positive direction")
    with pytest.raises(SingularDenominatorError) as excinfo:
        smallest_eigpair_generalized(
            np.diag([1.0, -1.0, 2.0]), np.eye(3), context="test plane 1", factor=np.eye(3)
        )
    assert str(excinfo.value).startswith("test plane 1: numerator not positive-definite")
    for factor in (np.ones((2, 4)), np.ones((0, 3)), np.full((1, 3), np.nan)):
        with pytest.raises(ValueError, match="factor"):
            smallest_eigpair_generalized(np.eye(3), np.eye(3), factor=factor)


def test_a_generalized_solve_needs_the_denominators_factor():
    """B is never factored by the solve: a pencil without its row factor is refused."""
    with pytest.raises(TypeError, match="factor"):
        smallest_eigpair_generalized(np.eye(3), np.eye(3))


def test_an_overflowing_pencil_given_as_a_factor_is_certified_by_exact_scaling():
    """The 1e300 pencil of the overflow test, its denominator given as diag(sqrt(b))."""
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1e300, 2e300])
    huge = smallest_eigpair_generalized(A * 1e300, np.diag(b), factor=np.diag(np.sqrt(b)))
    small = smallest_eigpair_generalized(
        A, np.diag([1.0, 2.0]), factor=np.diag(np.sqrt([1.0, 2.0]))
    )
    assert np.isfinite(huge.residual)
    assert huge.eigenvalue == pytest.approx(small.eigenvalue, rel=1e-14)
    np.testing.assert_allclose(huge.eigenvector, small.eigenvector, atol=1e-14)


def test_eigenvalue_scales_with_numerator():
    rng = np.random.default_rng(31)
    basis = rng.standard_normal((4, 4))
    A = basis @ basis.T + 0.1 * np.eye(4)
    factor = np.vstack([rng.standard_normal((4, 4)), 2.0 * np.eye(4)])  # B = F'F
    B = factor.T @ factor
    one = smallest_eigpair_generalized(A, B, factor=factor)
    scaled = smallest_eigpair_generalized(10.0 * A, B, factor=factor)
    assert scaled.eigenvalue == pytest.approx(10.0 * one.eigenvalue, rel=1e-9)
    overlap = abs(float(scaled.eigenvector @ one.eigenvector))
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_huge_norm_rank_deficient_pencil_is_rescued():
    """Large-magnitude data with a low-rank denominator must still solve.

    This is the shape the ratio objectives produce on wide rows: a
    positive-definite numerator dwarfing a heavily rank-deficient
    denominator.  The solve must return a positive eigenvalue whose
    residual meets the advertised bound.
    """
    rng = np.random.default_rng(41)
    q = 50
    scale = 1e3
    span = scale * rng.standard_normal((q, 40))
    A = span @ span.T / q + 1e-4 * np.trace(span @ span.T) / q * np.eye(q)
    low_rank = scale * rng.standard_normal((q, 10))
    B = low_rank @ low_rank.T
    solution = smallest_eigpair_generalized(
        A, B, context="wide ratio pencil", factor=low_rank.T
    )
    assert solution.eigenvalue > 0
    residual = np.linalg.norm(
        A @ solution.eigenvector - solution.eigenvalue * (B @ solution.eigenvector)
    )
    bound = RESIDUAL_RTOL * (np.linalg.norm(A) + abs(solution.eigenvalue) * np.linalg.norm(B))
    assert residual <= bound


def test_an_operand_whose_norms_overflow_is_certified_by_exact_scaling():
    """At 1e300 the residual norms overflow; a power-of-two scaling certifies the pair.

    The scaling is exact, so the reported residual is the in-range
    residual scaled back, and an in-range operand's check does not move.
    A generalized pencil's case is
    ``test_an_overflowing_pencil_given_as_a_factor_is_certified_by_exact_scaling``.
    """
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    small = smallest_eigpair_standard(A)
    huge = smallest_eigpair_standard(A * 1e300)
    assert huge.eigenvalue == pytest.approx(1e300 * (5.0 - np.sqrt(5.0)) / 2.0, rel=1e-14)
    assert np.isfinite(huge.residual)
    assert huge.residual <= RESIDUAL_RTOL * 1e300 * (np.linalg.norm(A) + abs(small.eigenvalue))
    np.testing.assert_allclose(huge.eigenvector, small.eigenvector, atol=1e-15)
    v = small.eigenvector
    expected = float(np.linalg.norm(A @ v - small.eigenvalue * v))
    assert _checked_pair(A, None, small.eigenvalue, v, "in range").residual == expected


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_a_pair_whose_residual_is_not_finite_fails(value):
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    with pytest.raises(np.linalg.LinAlgError, match="residual nan is not finite"):
        _checked_pair(A, None, value, np.array([1.0, 0.0]), "standard eigensolve")
    with pytest.raises(np.linalg.LinAlgError, match="is not finite"):
        _checked_pair(A, np.eye(2), 1.0, np.array([value, 0.0]), "generalized eigensolve")


def test_nonsymmetric_input_rejected():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        smallest_eigpair_standard(A)


def test_validated_symmetric_keeps_exact_operands_and_symmetrizes_the_rest():
    X = np.random.default_rng(5).standard_normal((6, 6))
    exact = X + X.T  # exactly symmetric
    assert _validated_symmetric(exact, "M") is exact  # its bits, not a copy
    scale = float(np.abs(exact).max())
    near = exact.copy()
    near[0, 1] += 0.5 * SYMMETRY_RTOL * scale
    symmetrized = _validated_symmetric(near, "M")
    assert np.array_equal(symmetrized, 0.5 * (near + near.T))
    assert np.array_equal(symmetrized, symmetrized.T)
    far = exact.copy()
    far[0, 1] += 10.0 * SYMMETRY_RTOL * scale
    with pytest.raises(ValueError, match="M is not symmetric"):
        _validated_symmetric(far, "M")
