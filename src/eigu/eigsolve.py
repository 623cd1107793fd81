"""Dense symmetric eigenproblem solves shared by every classifier trainer.

All four trainers reduce to one of two problems: the standard symmetric
problem ``A z = lambda z`` (difference objectives) or the generalized
problem ``A z = lambda B z`` with a positive-semidefinite right operand
(ratio objectives).  Problem sizes stay small -- feature dimension + 1 in
linear mode, kernel expansion size + 1 in kernel mode -- so dense LAPACK
solves are used throughout.

The right operand of a ratio objective is frequently rank-deficient (a
class Gram block has rank at most the class size).  ``smallest_eigpair_
generalized`` therefore applies an automatic ridge escalation: after an
unshifted attempt it tries up to three successively larger diagonal
shifts until the operand passes a Cholesky factorization *and* the solved
pair meets the residual bound below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "EigenSolution",
    "SingularDenominatorError",
    "rayleigh_quotient",
    "smallest_eigpair_generalized",
    "smallest_eigpair_standard",
]

#: Relative residual tolerance: ||A z - lambda B z|| must not exceed
#: RESIDUAL_RTOL * (||A||_F + |lambda| * ||B||_F).
RESIDUAL_RTOL = 1e-8

#: Maximum relative asymmetry accepted before symmetrization.
SYMMETRY_RTOL = 1e-10

#: Number of automatic ridge escalations (x10 each) after the unshifted attempt.
MAX_RIDGE_ESCALATIONS = 3


class SingularDenominatorError(RuntimeError):
    """Right-hand operand stayed effectively singular after ridge escalation."""


def _validated_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """Validate a square symmetric matrix and return its symmetrized copy."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    scale = float(np.abs(M).max())
    asym = float(np.abs(M - M.T).max())
    if asym > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError(
            f"{name} is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max(scale, 1)"
        )
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class EigenSolution:
    """Smallest eigenpair of a symmetric problem.

    The eigenvector has unit 2-norm and a fixed sign: its largest-magnitude
    component (first such index on ties) is positive.  ``used_ridge`` is the
    diagonal shift actually applied to the right operand (0 for standard
    problems and for generalized problems whose operand was already
    positive-definite).
    """

    eigenvalue: float
    eigenvector: np.ndarray = field(repr=False)
    residual: float
    used_ridge: float = 0.0


def _sign_fixed_unit(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    lead = int(np.argmax(np.abs(v)))
    if v[lead] < 0:
        v = -v
    return v


def _checked_pair(
    A: np.ndarray, B: np.ndarray | None, value: float, vector: np.ndarray, ridge: float = 0.0
) -> EigenSolution | str:
    """The sign-fixed pair as a solution, or why it misses the residual bound.

    ``B=None`` is the identity metric of the standard problem; ``ridge`` is
    recorded as the solution's ``used_ridge``.
    """
    vector = _sign_fixed_unit(vector)
    if B is None:
        residual = float(np.linalg.norm(A @ vector - value * vector))
        b_norm = float(np.sqrt(A.shape[0]))  # Frobenius norm of the implicit identity
    else:
        residual = float(np.linalg.norm(A @ vector - value * (B @ vector)))
        b_norm = float(np.linalg.norm(B))
    bound = RESIDUAL_RTOL * (float(np.linalg.norm(A)) + abs(value) * b_norm)
    if residual > bound:
        return f"residual {residual:.3e} exceeds bound {bound:.3e}"
    return EigenSolution(
        eigenvalue=value, eigenvector=vector, residual=residual, used_ridge=ridge
    )


def smallest_eigpair_standard(A: np.ndarray) -> EigenSolution:
    """Smallest eigenpair of the standard problem ``A z = lambda z``."""
    A = _validated_symmetric(A, "A")
    eigenvalues, vectors = scipy.linalg.eigh(A)
    solution = _checked_pair(A, None, float(eigenvalues[0]), vectors[:, 0])
    if isinstance(solution, str):
        raise np.linalg.LinAlgError(f"standard eigensolve {solution}")
    return solution


def _ridge_candidates(B: np.ndarray) -> list[float]:
    q = B.shape[0]
    candidates = [0.0, 1e-12 * max(float(np.trace(B)) / q, 1e-300)]
    for _ in range(MAX_RIDGE_ESCALATIONS - 1):
        candidates.append(candidates[-1] * 10.0)
    return candidates


def smallest_eigpair_generalized(
    A: np.ndarray, B: np.ndarray, context: str = "generalized eigenproblem"
) -> EigenSolution:
    """Smallest eigenpair of ``A z = lambda B z``.

    The right operand must be positive-definite, or become so within the
    automatic ridge escalation schedule; the solve itself goes through the
    symmetric reduction with a triangular factorization of the right
    operand.  A candidate ridge is accepted only if the factorization
    succeeds and the solved pair satisfies the residual bound; when the
    direct reduction misses the bound and ``A`` is positive-definite, the
    inverted pencil ``(B_eff, A)`` is solved instead (same eigenvector,
    reciprocal eigenvalue) before escalating.  Raises ``SingularDenominatorError``
    (naming ``context``) when the schedule is exhausted.
    """
    A_sym = _validated_symmetric(A, "A")
    B_sym = _validated_symmetric(B, "B")
    if B_sym.shape != A_sym.shape:
        raise ValueError(f"operand shapes differ: A {A_sym.shape}, B {B_sym.shape}")
    identity = np.eye(A_sym.shape[0])

    last_failure = "not attempted"
    for candidate in _ridge_candidates(B_sym):
        B_eff = B_sym + candidate * identity
        try:  # eigh factors B_eff by Cholesky and raises when it is not positive-definite
            eigenvalues, vectors = scipy.linalg.eigh(A_sym, B_eff)
        except scipy.linalg.LinAlgError as exc:
            last_failure = f"eigensolve failed at ridge {candidate:.3e}: {exc}"
            continue
        solution = _checked_pair(A_sym, B_eff, float(eigenvalues[0]), vectors[:, 0], candidate)
        if not isinstance(solution, str):
            return solution
        last_failure = f"{solution} at ridge {candidate:.3e}"
        # Rescue for severely rank-deficient right operands (tiny ridge on a
        # low-rank B makes the direct reduction lose the small eigenvalues):
        # when A is positive-definite the pencil inverts -- the smallest
        # eigenpair of (A, B_eff) is the largest of (B_eff, A) with the
        # eigenvalue reciprocated -- and the reduction through the far
        # better-conditioned A meets the residual bound where the direct
        # route cannot.  eigh raises here when A is not positive-definite.
        try:
            inv_values, inv_vectors = scipy.linalg.eigh(B_eff, A_sym)
        except scipy.linalg.LinAlgError as exc:
            last_failure += f"; inverted solve failed: {exc}"
            continue
        largest = float(inv_values[-1])
        if largest <= 0 or not np.isfinite(largest):
            last_failure += "; inverted pencil has no positive eigenvalue"
            continue
        solution = _checked_pair(A_sym, B_eff, 1.0 / largest, inv_vectors[:, -1], candidate)
        if not isinstance(solution, str):
            return solution
        last_failure += f"; inverted {solution}"
    raise SingularDenominatorError(
        f"{context}: right-hand operand not usably positive-definite after "
        f"{MAX_RIDGE_ESCALATIONS} ridge escalations ({last_failure})"
    )


def rayleigh_quotient(A: np.ndarray, B: np.ndarray | None, z: np.ndarray) -> float:
    """Evaluate ``z'Az / z'Bz`` (``B=None`` means the identity metric)."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"z must be a vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("z contains non-finite entries")
    A = np.asarray(A, dtype=float)
    numerator = float(z @ (A @ z))
    denominator = float(z @ z) if B is None else float(z @ (np.asarray(B, dtype=float) @ z))
    if denominator <= 0 or denominator < 1e-300:
        raise ZeroDivisionError("Rayleigh denominator is not positive")
    return numerator / denominator
