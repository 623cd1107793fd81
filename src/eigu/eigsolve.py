"""Dense symmetric eigenproblem solves shared by every classifier trainer.

All four trainers reduce to one of two problems: the standard symmetric
problem ``A z = lambda z`` (difference objectives) or the generalized
problem ``A z = lambda B z`` with a positive-semidefinite right operand
(ratio objectives).  Problem sizes stay small -- feature dimension + 1 in
linear mode, kernel expansion size + 1 in kernel mode -- so dense LAPACK
solves are used throughout.

The right operand of a ratio objective is usually singular (a class
Gram block has rank at most the class size), while its numerator carries
the Tikhonov term delta * I and so is positive-definite.
``smallest_eigpair_generalized`` therefore solves the inverted pencil
``B z = mu A z`` and returns its largest pair with ``lambda = 1 / mu``:
the same minimizer, with no perturbation.  It solves that pencil through
the row factor F (k x q) of the denominator, B = F'F, which every block
holds (``classifiers.ProblemBlocks``); B itself is never factored.  With
the numerator's Cholesky factor A = L L' and M = L^-1 F', the pencil's
eigenvalues mu are those of M M' = L^-1 B L^-T, whose nonzero ones M'M
shares: if M'M v = mu v, then M M' (M v) = mu M v.  So the top pair of
the smaller Gram -- M'M (k x k) when k < q, as for the counter class's
rows plus the Universum's in span or kernel coordinates, else M M'
(q x q), as on narrow rows -- gives z = L^-T (M v), or L^-T v.  L is what
LAPACK's ``dsygvx`` computes on the same operand (``dpotrf``, lower), so
every plane keeps the rounding it inherits from its numerator's factor.
Every returned pair meets the residual bound below against the operands
as given.

Operands are checked once, where they are made.  A solve called on its
own checks each operand: square, non-empty, finite and symmetric (an
operand within ``SYMMETRY_RTOL`` of symmetric is symmetrized).  The
trainers call it with ``checked=True`` on the problems ``plane_problems``
poses: the blocks G/H/P, their factors and ugepsvm's denominators were
checked when the block was built (``classifiers.ProblemBlocks``), and a
numerator summed from them is exactly symmetric, so such a solve scans
only the numerator for non-finite entries (a weighted sum can overflow)
and takes ``B`` and its factor as they are.  Every solve keeps its
residual check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dormqr, dpotrf

__all__ = [
    "EigenSolution",
    "SingularDenominatorError",
    "smallest_eigpair_generalized",
    "smallest_eigpair_standard",
]

#: Relative residual tolerance: ||A z - lambda B z|| must not exceed
#: RESIDUAL_RTOL * (||A||_F + |lambda| * ||B||_F).
RESIDUAL_RTOL = 1e-8

#: Maximum relative asymmetry accepted before symmetrization.
SYMMETRY_RTOL = 1e-10


def householder_qr(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``columns`` = Q R by LAPACK's Householder QR, factored in place.

    ``columns`` is a Fortran-ordered scratch array (the transpose of a
    fresh C-ordered one), which the factor overwrites, so no copy of it
    is made.  Returns the reflectors (R in their upper triangle, Q's
    Householder vectors below it, as ``apply_reflectors`` takes them),
    their scales ``tau`` and R itself.
    """
    (reflectors, tau), R = scipy.linalg.qr(
        columns, overwrite_a=True, mode="raw", check_finite=False
    )
    return reflectors, tau, R


def apply_reflectors(
    reflectors: np.ndarray, tau: np.ndarray, columns: np.ndarray, trans: str
) -> np.ndarray:
    """Q @ columns (``trans="N"``) or Q' @ columns (``"T"``) for Householder Q."""
    work = dormqr("L", trans, reflectors, tau, columns, -1)[1]
    out, _, info = dormqr("L", trans, reflectors, tau, columns, int(work[0]))
    if info != 0:
        raise RuntimeError(f"dormqr rejected argument {-info}")
    return out


class SingularDenominatorError(RuntimeError):
    """A ratio pencil has no finite minimum.

    Raised when the numerator is not positive-definite or the denominator
    has no positive direction; the message names the plane's context.
    """


def _validated_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """Validate a square symmetric matrix; return it, symmetrized unless exactly symmetric.

    A finite M equal to M' returns as is; only an unequal one is measured
    against the asymmetry bound.  ``eigh`` need not scan it for finiteness.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.array_equal(M, M.T):
        return M  # exactly symmetric: the average would be M again
    asym = float(np.abs(M - M.T).max())
    scale = float(np.abs(M).max())
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
    component (first such index on ties) is positive.  ``used_ridge`` is
    always 0 (no operand is ever shifted); it stays because the perfbench
    tracer (``perfbench/spans.py``) and acceptance criterion 4
    (``tests/test_acceptance.py``) read it.
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


def _residual_and_bound(
    A: np.ndarray, B: np.ndarray | None, value: float, vector: np.ndarray
) -> tuple[float, float]:
    """||A v - value B v|| and its bound; ``B=None`` is the identity."""
    if B is None:
        residual = float(np.linalg.norm(A @ vector - value * vector))
        b_norm = float(np.sqrt(A.shape[0]))  # Frobenius norm of the implicit identity
    else:
        residual = float(np.linalg.norm(A @ vector - value * (B @ vector)))
        b_norm = float(np.linalg.norm(B))
    return residual, RESIDUAL_RTOL * (float(np.linalg.norm(A)) + abs(value) * b_norm)


def _checked_pair(
    A: np.ndarray, B: np.ndarray | None, value: float, vector: np.ndarray, what: str
) -> EigenSolution:
    """The sign-fixed pair as a solution; ``LinAlgError`` unless it meets the bound.

    ``B=None`` is the identity metric of the standard problem; ``what``
    starts the error message.  When a norm overflows, the check runs again
    on the problem scaled by a power of two that brings the operands'
    largest entry into [0.5, 1); that scaling is exact, so it reaches the
    verdict of the unscaled check without the overflow.  A residual that
    is still not finite (a NaN or infinite pair) fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # judged below, not warned about
        vector = _sign_fixed_unit(vector)
        residual, bound = _residual_and_bound(A, B, value, vector)
        if not (np.isfinite(residual) and np.isfinite(bound)):
            largest = np.abs(A).max() if B is None else max(np.abs(A).max(), np.abs(B).max())
            scale = float(np.ldexp(1.0, -int(np.frexp(largest)[1])))
            if B is None:  # A z = lambda z scales lambda with A
                residual, bound = _residual_and_bound(A * scale, None, value * scale, vector)
            else:  # A z = lambda B z keeps lambda
                residual, bound = _residual_and_bound(A * scale, B * scale, value, vector)
            residual, bound = residual / scale, bound / scale
    if not np.isfinite(residual):
        raise np.linalg.LinAlgError(f"{what} residual {residual:.3e} is not finite")
    if residual > bound:
        raise np.linalg.LinAlgError(f"{what} residual {residual:.3e} exceeds bound {bound:.3e}")
    return EigenSolution(eigenvalue=value, eigenvector=vector, residual=residual)


def _operand_a(A: np.ndarray, checked: bool) -> np.ndarray:
    """``A`` validated, or, when ``checked``, only scanned for non-finite entries."""
    if not checked:
        return _validated_symmetric(A, "A")
    if not np.all(np.isfinite(A)):
        raise ValueError("A contains non-finite entries")
    return A


def smallest_eigpair_standard(A: np.ndarray, *, checked: bool = False) -> EigenSolution:
    """Smallest eigenpair of the standard problem ``A z = lambda z``.

    ``checked=True`` says ``A`` is square and exactly symmetric (see the
    module docstring): only its finiteness is checked.
    """
    A = _operand_a(A, checked)
    eigenvalues, vectors = scipy.linalg.eigh(A, subset_by_index=[0, 0], check_finite=False)
    return _checked_pair(A, None, float(eigenvalues[0]), vectors[:, 0], "standard eigensolve")


def smallest_eigpair_generalized(
    A: np.ndarray,
    B: np.ndarray,
    context: str = "generalized eigenproblem",
    *,
    factor: np.ndarray,
    checked: bool = False,
) -> EigenSolution:
    """Smallest eigenpair of ``A z = lambda B z`` for a positive-definite ``A``, B = F'F.

    ``factor`` is the denominator's row factor F (k x q); only the residual
    check reads B.  With A = L L' (``dpotrf``, lower) and M = L^-1 F', the
    largest eigenpair (mu, v) of the smaller Gram of M -- M'M when k < q,
    else M M' -- gives lambda = 1 / mu and z = L^-T (M v), or L^-T v (see
    the module docstring).  Raises ``SingularDenominatorError`` (naming
    ``context``) when ``A`` is not positive-definite or ``B`` has no
    positive direction, and ``LinAlgError`` when the pair misses the
    residual bound against ``B``.  ``checked=True`` says ``A`` is square
    and exactly symmetric and ``B`` and its factor come from a checked
    block (see the module docstring): only ``A``'s finiteness is checked.
    """
    A_sym = _operand_a(A, checked)
    B_sym = B if checked else _validated_symmetric(B, "B")
    if B_sym.shape != A_sym.shape:
        raise ValueError(f"operand shapes differ: A {A_sym.shape}, B {B_sym.shape}")
    q = A_sym.shape[0]
    if not checked:
        factor = np.asarray(factor, dtype=float)
        if factor.ndim != 2 or not len(factor) or factor.shape[1] != q:
            raise ValueError(f"factor must be a non-empty k x {q} matrix, got {factor.shape}")
        if not np.all(np.isfinite(factor)):
            raise ValueError("factor contains non-finite entries")
    L, info = dpotrf(A_sym, lower=1)
    if info > 0:
        raise SingularDenominatorError(
            f"{context}: numerator not positive-definite "
            f"(its leading minor of order {info} is not positive definite)"
        )
    M = dtrsm(1.0, L, factor.T, lower=1)  # L^-1 F'
    k = factor.shape[0]
    gram = M.T @ M if k < q else M @ M.T
    mu, vectors = scipy.linalg.eigh(gram, subset_by_index=[len(gram) - 1] * 2, check_finite=False)
    largest = float(mu[0])
    if not largest > 0:
        raise SingularDenominatorError(
            f"{context}: denominator has no positive direction "
            f"(largest inverted eigenvalue {largest:.3e})"
        )
    v = M @ vectors[:, 0] if k < q else vectors[:, 0]
    z = dtrsm(1.0, L, v[:, None], lower=1, trans_a=1)[:, 0]  # L^-T v
    return _checked_pair(A_sym, B_sym, 1.0 / largest, z, f"{context}: generalized eigensolve")
