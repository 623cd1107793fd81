"""Four eigenvalue-based twin-hyperplane classifiers, linear and kernelized.

Each model fits one hyperplane per class and labels a query by which plane
is nearer (ties go to +1).  The trainers differ only in the eigenproblem
they pose over the augmented class Gram blocks G (class +1), H (class -1),
and P (Universum):

* ``gepsvm``    ratio objective, generalized problem (G + dI) z = l H z,
  second plane with the class roles swapped.
* ``ugepsvm``   same ratio with the Universum block added to the
  denominator: (G + dI) z = l (H + P) z.
* ``igepsvm``   difference objective, standard problem on G + dI - nu H.
* ``iugepsvm``  weighted difference with Universum repulsion:
  G + dI - gamma1 H - psi1 P (plane 2 swaps roles and uses gamma2/psi2).

``gepsvm`` and ``igepsvm`` train on no Universum rows (``universum_rows``).

Kernel mode replaces the data rows by kernel evaluations against the
expansion Z = [X1; X2; U] and solves the same problems in coefficient
space.  Only the rbf family trains there: a linear kernel spec trains the
linear model itself, since the dot-product kernel spans nothing the primal
coordinates do not.  Blocks carry the basis they were built on: a
``KernelTable`` (Z and its squared distances, shared by every bandwidth)
or, on wide linear data, a ``SpanFactor``.  Either holds the test rows'
bandwidth-free side as ``precomputed`` and serves every training set made
of its first rows as ``prefix(m)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dormqr

from .dataio import LabeledDataset
from .eigsolve import (
    _validated_symmetric,
    smallest_eigpair_generalized,
    smallest_eigpair_standard,
)
from .kernels import KernelSpec, default_sigma, gram, squared_distances

__all__ = [
    "CLASSIFIER_AXES",
    "CLASSIFIER_NAMES",
    "DegeneratePlaneError",
    "GRAM_CAP",
    "HyperplanePair",
    "KernelTable",
    "MODEL_FORMAT_VERSION",
    "PlaneProblem",
    "ProblemBlocks",
    "SpanFactor",
    "TrainSpec",
    "build_blocks",
    "class_matrices",
    "kernel_table",
    "kernel_values",
    "model_from_json",
    "model_to_json",
    "plane_distances",
    "plane_problems",
    "predict",
    "span_factor",
    "train",
    "train_with_blocks",
    "universum_rows",
]

#: The grid axes each classifier consumes beyond delta (and sigma, which
#: any classifier takes through its kernel).  Every axis but
#: ``universum_size`` names a weight the classifier needs.  A classifier
#: with no weight axis minimizes a ratio objective, whose numerator
#: G + delta*I must be positive-definite for the inverted pencil, so
#: ``TrainSpec`` requires delta > 0 for it.
CLASSIFIER_AXES = {
    "gepsvm": (),
    "igepsvm": ("nu",),
    "ugepsvm": ("universum_size",),
    "iugepsvm": ("gamma", "psi", "universum_size"),
}
CLASSIFIER_NAMES = tuple(CLASSIFIER_AXES)

#: The ``TrainSpec`` weights behind each weight axis, in reported order.
_AXIS_WEIGHTS = {"nu": ("nu",), "gamma": ("gamma1", "gamma2"), "psi": ("psi1", "psi2")}

#: Weight vectors smaller than this are all-bias planes: refuse to train.
DEGENERATE_NORM = 1e-12

#: Largest kernel expansion (m + 1) accepted before erroring out.
GRAM_CAP = 4096

MODEL_FORMAT_VERSION = 1


class DegeneratePlaneError(RuntimeError):
    """A trained plane put all its weight on the bias term."""


def universum_rows(classifier: str, pool: int) -> int:
    """How many of ``pool`` Universum rows ``classifier`` trains on: all, or none.

    None without a ``universum_size`` axis: GEPSVM (Mangasarian & Wild 2006) and IGEPSVM.
    """
    return pool if "universum_size" in CLASSIFIER_AXES[classifier] else 0


@dataclass(frozen=True)
class TrainSpec:
    """Hyperparameters for one training run.

    ``delta`` is the Tikhonov weight on the plane vector (ratio objectives
    require it positive).  ``nu`` weighs the subtracted class term for
    ``igepsvm``; ``gamma1``/``psi1`` weigh the class and Universum terms of
    ``iugepsvm`` plane 1, with ``gamma2``/``psi2`` defaulting to the same
    values for plane 2.  ``kernel=None`` or a linear kernel selects linear
    mode.
    """

    classifier: str
    delta: float = 1e-4
    nu: float = 0.1
    gamma1: float = 0.1
    psi1: float = 0.01
    gamma2: float | None = None
    psi2: float | None = None
    kernel: KernelSpec | None = None

    def __post_init__(self) -> None:
        if self.classifier not in CLASSIFIER_NAMES:
            raise ValueError(
                f"unknown classifier {self.classifier!r}, expected one of {CLASSIFIER_NAMES}"
            )
        for name, value in self._weights().items():
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        axes = self._weight_axes()
        if not axes and self.delta <= 0:
            raise ValueError(f"{self.classifier} requires delta > 0, got {self.delta}")
        if "nu" in axes and self.nu <= 0:
            raise ValueError(f"{self.classifier} requires nu > 0, got {self.nu}")

    @property
    def effective_gamma2(self) -> float:
        return self.gamma1 if self.gamma2 is None else self.gamma2

    @property
    def effective_psi2(self) -> float:
        return self.psi1 if self.psi2 is None else self.psi2

    def _weights(self) -> dict:
        return {
            "delta": self.delta,
            "nu": self.nu,
            "gamma1": self.gamma1,
            "psi1": self.psi1,
            "gamma2": self.effective_gamma2,
            "psi2": self.effective_psi2,
        }

    def _weight_axes(self) -> tuple[str, ...]:
        return tuple(a for a in CLASSIFIER_AXES[self.classifier] if a in _AXIS_WEIGHTS)

    def hyperparameters(self) -> dict:
        """The parameters this classifier actually consumed, verbatim."""
        weights = self._weights()
        out: dict = {"delta": float(self.delta)}
        for axis in self._weight_axes():
            out.update((name, float(weights[name])) for name in _AXIS_WEIGHTS[axis])
        if self.kernel is not None:
            out["kernel"] = self.kernel.family
            if self.kernel.sigma is not None:
                out["sigma"] = float(self.kernel.sigma)
        return out


def _augmented(rows: np.ndarray) -> np.ndarray:
    return np.hstack([rows, np.ones((rows.shape[0], 1))])


def _training_rows(dataset: LabeledDataset, keep: tuple | None = None) -> list[np.ndarray]:
    """The training rows (see ``span_factor``) as views, one per row: a stack copies each once."""
    k1, k2 = keep or (range(dataset.m1), range(dataset.m2))
    return [*(dataset.X1[i] for i in k1), *(dataset.X2[i] for i in k2), *dataset.U]


def class_matrices(dataset: LabeledDataset, keep: tuple | None = None) -> ProblemBlocks:
    """Linear blocks of a dataset's training rows (see ``span_factor``): G = [X1 e]'[X1 e], etc."""
    k1, k2 = keep or (slice(None), slice(None))
    return ProblemBlocks.of_rows(*map(_augmented, (dataset.X1[k1], dataset.X2[k2], dataset.U)))


def _apply_reflectors(
    reflectors: np.ndarray, tau: np.ndarray, columns: np.ndarray, trans: str
) -> np.ndarray:
    """Q @ columns (``trans="N"``) or Q' @ columns (``"T"``) for Householder Q."""
    work = dormqr("L", trans, reflectors, tau, columns, -1)[1]
    out, _, info = dormqr("L", trans, reflectors, tau, columns, int(work[0]))
    if info != 0:
        raise RuntimeError(f"dormqr rejected argument {-info}")
    return out


@dataclass(frozen=True)
class SpanFactor:
    """An orthonormal basis Q of the augmented training rows' span, as reflectors.

    LAPACK's Householder QR of F' (``dgeqrf``, in ``span_factor``), for
    the stacked bias-augmented rows F, runs only the factorization:
    ``reflectors`` is its Fortran-ordered result (R in its upper
    triangle, the reflectors below) and ``tau`` their scales, one per row
    of F.  Q is applied through them (``dormqr``) and never formed.
    ``bias_coords`` are the first q entries of Q'e_n, where e_n is the
    bias axis, and ``bias_residual`` is the norm of the rest; together
    they give a plane's weight norm without lifting it.  ``precomputed``
    is ``project(test_rows)``, if given, ``predict``'s ``coords``.  The
    first k reflectors depend only on the first k rows of F (Golub & Van
    Loan, *Matrix Computations*, 5.2), so one factor holds the factor of
    every leading block of rows (:meth:`prefix`).
    """

    reflectors: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)
    bias_coords: np.ndarray = field(repr=False)
    bias_residual: float
    precomputed: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_reflectors(cls, reflectors: np.ndarray, tau: np.ndarray) -> SpanFactor:
        """The factor of LAPACK's ``reflectors`` and ``tau``, with its bias terms."""
        bias_axis = np.zeros((reflectors.shape[0], 1))
        bias_axis[-1] = 1.0
        rotated = _apply_reflectors(reflectors, tau, bias_axis, "T")[:, 0]
        return cls(reflectors, tau, rotated[: tau.size], float(np.linalg.norm(rotated[tau.size :])))

    def prefix(self, m: int) -> SpanFactor:
        """The factor of the first ``m`` stacked rows: the first m reflectors."""
        if m >= self.tau.size:
            return self
        factor = SpanFactor.from_reflectors(self.reflectors[:, :m], self.tau[:m])
        precomputed = None if self.precomputed is None else self.precomputed[:, :m]
        return replace(factor, precomputed=precomputed)

    def project(self, rows: np.ndarray) -> np.ndarray:
        """Span coordinates of the bias-augmented ``rows``: (Q'[x; 1])[:q], one row per row."""
        rotated = _apply_reflectors(self.reflectors, self.tau, _augmented(rows).T, "T")
        return rotated[: self.tau.size].T.copy()  # a view would pin all of the feature-sized array

    def lift(self, z: np.ndarray) -> np.ndarray:
        """The feature-space vector Q z of span coordinates ``z``."""
        padded = np.zeros((self.reflectors.shape[0], 1))
        padded[: z.size, 0] = z
        return _apply_reflectors(self.reflectors, self.tau, padded, "N")[:, 0]

    def weight_norm(self, z: np.ndarray) -> float:
        """||(Q z)[:-1]||, the weight norm of plane ``z`` without lifting it.

        With c = bias_coords . z, (Q z)[:-1] has norm
        sqrt(||z - c bias_coords||^2 + (c bias_residual)^2), which keeps the
        absolute accuracy of the lifted norm instead of cancelling in
        ||z||^2 - c^2.
        """
        c = float(self.bias_coords @ z)
        in_span = float(np.linalg.norm(z - c * self.bias_coords))
        return float(np.hypot(in_span, c * self.bias_residual))


@dataclass(frozen=True)
class ProblemBlocks:
    """Solve-ready Gram blocks, independent of delta/nu/gamma/psi.

    G, H and P are the augmented Gram blocks of class +1, class -1 and the
    Universum (P is zero without Universum rows).  With ``kernel`` None
    they are linear (primal coordinates, also for a linear kernel spec);
    otherwise they are in coefficient coordinates over the rbf expansion
    Z = ``basis.Z``, a ``KernelTable``'s, with its Gram matrix K_ZZ.

    Each block is the Gram matrix of rows the builder holds, and keeps
    them as its row factor: G = F1'F1, H = F2'F2 and P = FU'FU
    (``of_rows``), where F1 is [X1 e] on narrow rows, [K1 e] (class +1's
    rows of K_ZZ, the leading columns of [K_ZZ e]) in kernel mode and
    class +1's columns of the span factor's R, transposed, on wide rows;
    the last two stack [F1; F2; FU] in one array, whose rows past F1 are
    ugepsvm's [F2; FU] (``F2U``).  A ratio plane's denominator is solved
    through its factor (``plane_problems``): ``smallest_eigpair_generalized``
    then reduces a k-row denominator to a k x k problem.

    When the feature dimension exceeds the training row count (wide data),
    a linear block's ``basis`` is the ``SpanFactor`` of an orthonormal
    basis Q of the span of the bias-augmented training rows and G/H/P are
    expressed in Q; models trained on them keep their planes in span
    coordinates (see ``HyperplanePair``).  Minimizers provably live in
    that span -- the delta term penalizes any out-of-span component of a
    ratio objective, and a difference objective is constant (= delta) on
    the orthogonal complement, which never beats an in-span direction once
    any counter term carries weight -- so the projected solve is exact
    while the eigenproblem shrinks from feature-sized to row-count-sized.

    G, H and P are checked here, once per block: square, of one shape,
    finite and symmetric (one within the solver's tolerance is
    symmetrized), so every operand ``plane_problems`` sums from them is
    exactly symmetric and the solves take them as checked.  The factors
    are checked for their q columns; a finite Gram block has finite rows.
    """

    G: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    F1: np.ndarray = field(repr=False)
    F2: np.ndarray = field(repr=False)
    FU: np.ndarray = field(repr=False)
    basis: SpanFactor | KernelTable | None = field(default=None, repr=False)
    kernel: KernelSpec | None = None
    K_ZZ: np.ndarray | None = field(default=None, repr=False)
    F2U: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for name in ("G", "H", "P"):
            object.__setattr__(self, name, _validated_symmetric(getattr(self, name), name))
        if not self.G.shape == self.H.shape == self.P.shape:
            raise ValueError(
                f"block shapes differ: G {self.G.shape}, H {self.H.shape}, P {self.P.shape}"
            )
        q = self.G.shape[0]
        for name in ("F1", "F2", "FU"):
            F = getattr(self, name)
            if F.ndim != 2 or F.shape[1] != q:
                raise ValueError(f"factor {name} must have {q} columns, got shape {F.shape}")

    @classmethod
    def of_rows(cls, F1: np.ndarray, F2: np.ndarray, FU: np.ndarray, **extra) -> ProblemBlocks:
        """The blocks G = F1'F1, H = F2'F2 and P = FU'FU, their factors kept.

        An empty ``FU`` gives the zero block P.  ``extra`` holds ``basis``,
        ``kernel``, ``K_ZZ`` and ``F2U``.
        """
        return cls(G=F1.T @ F1, H=F2.T @ F2, P=FU.T @ FU, F1=F1, F2=F2, FU=FU, **extra)

    @cached_property
    def denominators(self) -> tuple[np.ndarray, np.ndarray]:
        """ugepsvm's denominators ``(H + P, G + P)``, formed and checked once; read-only."""
        sums = tuple(
            _validated_symmetric(M, name)
            for M, name in ((self.H + self.P, "H + P"), (self.G + self.P, "G + P"))
        )
        for M in sums:
            M.setflags(write=False)
        return sums

    @cached_property
    def denominator_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The row factors ``[F2; FU]`` (``F2U`` if given) and ``[F1; FU]``, stacked once."""
        F2U = np.vstack([self.F2, self.FU]) if self.F2U is None else self.F2U
        return F2U, np.vstack([self.F1, self.FU])


def span_factor(
    dataset: LabeledDataset, test_rows: np.ndarray | None = None, keep: tuple | None = None
) -> SpanFactor:
    """The Householder factor of ``dataset``'s augmented training rows, test rows projected.

    The training rows are [X1; X2; U], of X1 and X2 only rows ``keep`` (two
    index arrays) if given: a fold's, gathered straight into F.
    """
    rows = _training_rows(dataset, keep)
    F = np.ones((len(rows), dataset.n + 1))
    np.stack(rows, out=F[:, :-1])  # [X1 e; X2 e; U e], each row copied once
    # F' = Q R in F's own buffer: F.T is Fortran-ordered, so dgeqrf overwrites it uncopied
    (reflectors, tau), _ = scipy.linalg.qr(F.T, overwrite_a=True, mode="raw", check_finite=False)
    factor = SpanFactor.from_reflectors(reflectors[:, : tau.size], tau)
    return factor if test_rows is None else replace(factor, precomputed=factor.project(test_rows))


@dataclass(frozen=True)
class KernelTable:
    """The bandwidth-free part of kernel mode for one training set.

    ``Z`` is the expansion [X1; X2; U], ``D_ZZ`` is
    ``squared_distances(Z, Z)`` and ``precomputed`` is
    ``squared_distances(test_rows, Z)`` (None without test rows), the
    bandwidth-free input of ``kernel_values``' test kernel rows.  Every
    rbf bandwidth at this training set evaluates its kernel from one
    table, so no bandwidth copies Z or recomputes a distance.
    """

    Z: np.ndarray = field(repr=False)
    D_ZZ: np.ndarray = field(repr=False)
    precomputed: np.ndarray | None = field(default=None, repr=False)

    def prefix(self, m: int) -> KernelTable:
        """The table of the expansion's first ``m`` rows, as views of this one."""
        if m >= self.Z.shape[0]:
            return self
        precomputed = None if self.precomputed is None else self.precomputed[:, :m]
        return KernelTable(Z=self.Z[:m], D_ZZ=self.D_ZZ[:m, :m], precomputed=precomputed)


def kernel_table(
    dataset: LabeledDataset, test_rows: np.ndarray | None = None, keep: tuple | None = None
) -> KernelTable:
    """Gather the expansion, the training rows (see ``span_factor``), and its distance table.

    The expansion size m + 1 must stay within ``GRAM_CAP``.
    """
    Z = np.stack(_training_rows(dataset, keep))
    if Z.shape[0] + 1 > GRAM_CAP:
        raise ValueError(f"kernel expansion size {Z.shape[0] + 1} exceeds the cap {GRAM_CAP}")
    precomputed = None if test_rows is None else squared_distances(test_rows, Z)
    return KernelTable(Z=Z, D_ZZ=squared_distances(Z, Z), precomputed=precomputed)


def kernel_values(
    table: KernelTable, kernel: KernelSpec, test_rows: np.ndarray | None = None
) -> tuple[KernelSpec, np.ndarray, np.ndarray | None]:
    """An rbf kernel's values on ``table``: ``(kernel, [K_ZZ e], test kernel rows)``.

    ``kernel`` comes back with its sigma resolved (``default_sigma`` of Z
    when unset).  The test kernel rows, for ``test_rows`` given, are
    ``predict``'s ``coords`` for a model trained on these values.
    """
    if kernel.sigma is None:
        kernel = KernelSpec(family="rbf", sigma=default_sigma(table.Z, table.D_ZZ))
    F = np.ones((len(table.Z), len(table.Z) + 1))
    F[:, :-1] = gram(table.Z, table.Z, kernel, table.D_ZZ)
    tested = None if test_rows is None else gram(test_rows, table.Z, kernel, table.precomputed)
    return kernel, F, tested


def build_blocks(
    dataset: LabeledDataset,
    kernel: KernelSpec | None,
    basis: SpanFactor | KernelTable | None = None,
    keep: tuple | None = None,
    values: tuple | None = None,
) -> ProblemBlocks:
    """Assemble the Gram blocks a trainer needs for ``dataset``.

    A linear kernel gets the same primal blocks as ``kernel=None``.  rbf
    kernels with an unset sigma are resolved here from the training
    rows (labeled plus Universum; ``keep`` as in ``span_factor``).
    ``basis`` is the work several blocks over those rows share: their
    ``span_factor`` for wide linear blocks, their ``kernel_table`` for rbf
    ones (a larger training set's ``prefix`` serves too).  Narrow linear
    blocks read none; the others compute their own when none is given,
    and carry it as ``basis``.  ``values`` are rbf blocks' ``kernel_values``
    on ``basis``, if evaluated already; [K_ZZ e] becomes their row factor.
    """
    m1, m2 = (dataset.m1, dataset.m2) if keep is None else map(len, keep)
    m = m1 + m2 + dataset.p
    if kernel is None or kernel.family == "linear":
        if dataset.n + 1 <= m:
            return class_matrices(dataset, keep)
        span = span_factor(dataset, keep=keep) if basis is None else basis
        if span.tau.size != m:
            raise ValueError(f"span factor has {span.tau.size} reflectors, dataset has {m} rows")
        R = np.triu(span.reflectors[:m])  # the R that mode="reduced" returns
        F, extra = R.T, dict(basis=span)  # row i is training row i in span coordinates
    else:
        table = kernel_table(dataset, keep=keep) if basis is None else basis
        if table.Z.shape[0] != m:
            raise ValueError(f"kernel table has {table.Z.shape[0]} expansion rows, dataset has {m}")
        kernel, F, _ = kernel_values(table, kernel) if values is None else values
        extra = dict(basis=table, kernel=kernel, K_ZZ=F[:, :-1])  # F[i] = [K_i e]
    return ProblemBlocks.of_rows(F[:m1], F[m1 : m1 + m2], F[m1 + m2 :], F2U=F[m1:], **extra)


@dataclass(frozen=True)
class PlaneProblem:
    """One plane's eigenproblem: standard when ``B`` is None, else B = factor' factor."""

    A: np.ndarray = field(repr=False)
    B: np.ndarray | None = field(default=None, repr=False)
    factor: np.ndarray | None = field(default=None, repr=False)
    context: str = ""


def _ridged(own: np.ndarray, delta: float, *terms: tuple[float, np.ndarray]) -> np.ndarray:
    """``own + delta * I - w1 * M1 - ...`` over ``terms`` (w1, M1), ..., in one new buffer.

    Bit for bit the sum with an explicit ``delta * eye(q)``: ``+ 0.0`` turns
    each ``-0.0`` entry into ``+0.0``, as adding the ridge's zeros does.
    """
    A = own + 0.0
    A.flat[:: A.shape[0] + 1] += delta
    for weight, M in terms:
        A -= weight * M
    return A


def plane_problems(blocks: ProblemBlocks, spec: TrainSpec) -> tuple[PlaneProblem, PlaneProblem]:
    """The two eigenproblems ``spec`` poses over ``blocks``.

    Plane 2 swaps the class roles: its own-class block is H and its
    counter-class block is G (the Universum block is shared).  A ratio
    plane's denominator comes with its row factor: the counter class's
    rows, and the Universum's for ugepsvm.
    """
    G, H, P = blocks.G, blocks.H, blocks.P
    kind, delta = spec.classifier, spec.delta
    if kind == "gepsvm":
        operands = ((_ridged(G, delta), H, blocks.F2), (_ridged(H, delta), G, blocks.F1))
    elif kind == "ugepsvm":
        (HP, GP), (F2U, F1U) = blocks.denominators, blocks.denominator_factors
        operands = ((_ridged(G, delta), HP, F2U), (_ridged(H, delta), GP, F1U))
    elif kind == "igepsvm":
        operands = ((_ridged(G, delta, (spec.nu, H)), None, None),
                    (_ridged(H, delta, (spec.nu, G)), None, None))
    else:
        operands = (
            (_ridged(G, delta, (spec.gamma1, H), (spec.psi1, P)), None, None),
            (_ridged(H, delta, (spec.effective_gamma2, G), (spec.effective_psi2, P)), None, None),
        )
    mode = "linear" if blocks.kernel is None else "kernel"
    return tuple(
        PlaneProblem(A=A, B=B, factor=F, context=f"{kind} ({mode}) plane {index}")
        for index, (A, B, F) in enumerate(operands, start=1)
    )


@dataclass(frozen=True)
class HyperplanePair:
    """A trained model: two planes plus everything prediction needs.

    Each plane is a coefficient vector and a bias, (coef1, b1) and
    (coef2, b2), and a query x scores ``coords @ coef + b`` over its
    coordinates in the basis the planes were solved in: x itself for a
    linear model (coef is w); the kernel row k(x, Z) for a kernel model,
    which keeps the expansion rows ``Z`` (coef is alpha; rbf when trained
    here, model files may also carry a linear kernel); ``span.project(x)``
    for a linear model trained over wide blocks, which keeps their basis
    as ``span`` and the bias folded into coef (b = 0.0).  :meth:`lifted`
    gives a span model's explicit weights.  ``plane_norms`` caches each
    plane's weight norm, the denominator of its point-to-plane distances.
    """

    trained_by: str
    hyperparameters: dict
    coef1: np.ndarray = field(repr=False)
    b1: float
    coef2: np.ndarray = field(repr=False)
    b2: float
    kernel: KernelSpec | None = None
    Z: np.ndarray | None = field(default=None, repr=False)
    span: SpanFactor | None = field(default=None, repr=False)
    plane_norms: tuple[float, float] = (1.0, 1.0)
    eigenvalues: tuple[float, float] = (0.0, 0.0)

    @property
    def mode(self) -> str:
        return "linear" if self.kernel is None else "kernel"

    @property
    def n_features(self) -> int:
        if self.span is not None:
            return int(self.span.reflectors.shape[0] - 1)
        return int(self.coef1.size if self.Z is None else self.Z.shape[1])

    def lifted(self) -> HyperplanePair:
        """This model with explicit weights: each span plane lifted to Q z."""
        if self.span is None:
            return self
        (coef1, b1, n1), (coef2, b2, n2) = (
            _plane(v / np.linalg.norm(v), f"{self.trained_by} ({self.mode}) plane {i}")
            for i, v in ((1, self.span.lift(self.coef1)), (2, self.span.lift(self.coef2)))
        )
        return replace(
            self, coef1=coef1, b1=b1, coef2=coef2, b2=b2, plane_norms=(n1, n2), span=None
        )


def _plane(
    z: np.ndarray, context: str, span: SpanFactor | None = None, K_ZZ: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """(coef, b, weight norm) of a plane ``z`` solved in a basis's coordinates, norm checked.

    In ``span`` coordinates the bias stays folded into coef (b = 0.0) and
    the span gives the weight norm; otherwise z's last entry is the bias and
    the norm is ||w||, or sqrt(alpha' K_ZZ alpha) over a kernel expansion.
    """
    coef, bias = (z, 0.0) if span is not None else (z[:-1], float(z[-1]))
    if span is not None:
        norm = span.weight_norm(z)
    elif K_ZZ is None:
        norm = float(np.linalg.norm(coef))
    else:
        norm = float(np.sqrt(max(float(coef @ (K_ZZ @ coef)), 0.0)))
    if norm < DEGENERATE_NORM:
        raise DegeneratePlaneError(
            f"{context}: plane weight norm {norm:.3e} is below {DEGENERATE_NORM:.0e} "
            "(all weight on the bias term)"
        )
    return coef, bias, norm


def train_with_blocks(blocks: ProblemBlocks, spec: TrainSpec) -> HyperplanePair:
    """Solve both plane problems over prepared blocks and package the model.

    The planes stay in the coordinates of the blocks' basis (see
    :class:`HyperplanePair`): over wide blocks they are span coordinates,
    the blocks' basis is the model's ``span``, and nothing here is
    feature-sized.
    """
    problems = plane_problems(blocks, spec)
    solutions = tuple(  # the operands of checked blocks (see ProblemBlocks)
        smallest_eigpair_standard(p.A, checked=True) if p.B is None
        else smallest_eigpair_generalized(p.A, p.B, p.context, factor=p.factor, checked=True)
        for p in problems
    )
    hyper = spec.hyperparameters()
    if blocks.kernel is not None:
        hyper["sigma"] = float(blocks.kernel.sigma)  # resolved value, possibly data-driven
    span = blocks.basis if blocks.kernel is None else None
    (coef1, b1, n1), (coef2, b2, n2) = (
        _plane(s.eigenvector, p.context, span, blocks.K_ZZ) for s, p in zip(solutions, problems)
    )
    return HyperplanePair(
        trained_by=spec.classifier,
        hyperparameters=hyper,
        coef1=coef1,
        b1=b1,
        coef2=coef2,
        b2=b2,
        kernel=blocks.kernel,
        Z=None if blocks.kernel is None else blocks.basis.Z,
        span=span,
        plane_norms=(n1, n2),
        eigenvalues=(solutions[0].eigenvalue, solutions[1].eigenvalue),
    )


def train(dataset: LabeledDataset, spec: TrainSpec) -> HyperplanePair:
    """Train ``spec.classifier`` on ``dataset``, its ``universum_rows`` only; weights lifted."""
    U = dataset.U[: universum_rows(spec.classifier, dataset.p)]
    dataset = LabeledDataset.from_checked(dataset.X1, dataset.X2, U)
    return train_with_blocks(build_blocks(dataset, spec.kernel), spec).lifted()


def _checked_rows(rows: np.ndarray, width: int, name: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{name} must be 2-d with the model's {width} columns, got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{name} contain non-finite values")
    return rows


def plane_distances(
    model: HyperplanePair, queries: np.ndarray, *, coords: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Point-to-plane distances to plane 1 and plane 2 for each query row.

    Each is ``|coords @ coef + b| / plane_norm`` over the queries'
    coordinates in the model's basis (see :class:`HyperplanePair`), made
    here from the queries unless given: a span factor's ``precomputed``,
    or ``kernel_values``' test kernel rows.  Given ``coords`` are checked
    instead of the queries, and no kernel is evaluated or row projected.
    """
    if coords is None:
        queries = _checked_rows(queries, model.n_features, "queries")
        if model.kernel is not None:
            coords = gram(queries, model.Z, model.kernel)
        else:
            coords = queries if model.span is None else model.span.project(queries)
    else:
        coords = _checked_rows(coords, model.coef1.size, "coords")
        if len(coords) != len(queries):
            raise ValueError(f"{len(coords)} coords rows for {len(queries)} queries")
    planes = zip((model.coef1, model.coef2), (model.b1, model.b2), model.plane_norms)
    return tuple(np.abs(coords @ coef + b) / norm for coef, b, norm in planes)


def predict(
    model: HyperplanePair, queries: np.ndarray, *, coords: np.ndarray | None = None
) -> np.ndarray:
    """Labels in {+1, -1}: +1 when plane 1 is at least as near as plane 2.

    ``coords`` is passed on to :func:`plane_distances`.
    """
    dist1, dist2 = plane_distances(model, queries, coords=coords)
    return np.where(dist1 <= dist2, 1, -1)


def model_to_json(model: HyperplanePair) -> str:
    """Serialize a model to JSON (floats keep full round-trip precision).

    A span model is lifted first, so the file always holds explicit weights:
    a linear model's coefficients as ``w1``/``w2``, a kernel model's as
    ``alpha1``/``alpha2``.
    """
    model = model.lifted()
    coefs = ([float(v) for v in model.coef1], [float(v) for v in model.coef2])
    weights, alphas = (coefs, (None, None)) if model.kernel is None else ((None, None), coefs)
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": model.mode,
        "trained_by": model.trained_by,
        "hyperparameters": model.hyperparameters,
        "b1": model.b1,
        "b2": model.b2,
        "plane_norms": list(model.plane_norms),
        "eigenvalues": list(model.eigenvalues),
        "w1": weights[0],
        "w2": weights[1],
        "alpha1": alphas[0],
        "alpha2": alphas[1],
        "kernel": None
        if model.kernel is None
        else {"family": model.kernel.family, "sigma": model.kernel.sigma},
        "Z": None if model.Z is None else [list(map(float, row)) for row in model.Z],
    }
    return json.dumps(payload, sort_keys=True)


def _loaded_array(payload: dict, key: str, ndim: int) -> np.ndarray:
    """``payload[key]`` as a finite, non-empty ``ndim``-d float array; a ValueError names it."""
    value = payload.get(key)
    if value is None:
        raise ValueError(f"model field {key!r} is missing")
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model field {key!r} is not a numeric array: {exc}") from exc
    if array.ndim != ndim or array.size == 0:
        raise ValueError(
            f"model field {key!r} must be a non-empty {ndim}-d array, got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise ValueError(f"model field {key!r} contains non-finite values")
    return array


def model_from_json(text: str) -> HyperplanePair:
    """Rebuild a model serialized by :func:`model_to_json`.

    The plane arrays are checked here, so a faulty file fails at load with
    a ``ValueError`` that names its field: the coefficients (``w1``/``w2``,
    or ``alpha1``/``alpha2`` and ``Z`` with one row per alpha) must be
    present, finite and of one length, and ``plane_norms`` finite and
    positive.
    """
    payload = json.loads(text)
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    kernel = payload["kernel"]
    mode = "linear" if kernel is None else "kernel"
    if payload["mode"] != mode:
        raise ValueError(f"model mode {payload['mode']!r} contradicts its kernel {kernel!r}")
    names = ("w1", "w2") if kernel is None else ("alpha1", "alpha2")
    coef1, coef2 = (_loaded_array(payload, name, 1) for name in names)
    if coef1.size != coef2.size:
        raise ValueError(f"model fields {names[0]!r} and {names[1]!r} differ in length: "
                         f"{coef1.size} and {coef2.size}")
    Z = None
    if kernel is not None:
        Z = _loaded_array(payload, "Z", 2)
        if Z.shape[0] != coef1.size:
            raise ValueError(f"model field 'Z' has {Z.shape[0]} rows for {coef1.size} alphas")
    norms = _loaded_array(payload, "plane_norms", 1)
    if norms.size != 2 or not np.all(norms > 0):
        raise ValueError(f"model field 'plane_norms' must be two values > 0, got {norms.tolist()}")
    return HyperplanePair(
        trained_by=payload["trained_by"],
        hyperparameters=payload["hyperparameters"],
        coef1=coef1,
        b1=float(payload["b1"]),
        coef2=coef2,
        b2=float(payload["b2"]),
        kernel=None if kernel is None else KernelSpec(family=kernel["family"], sigma=kernel["sigma"]),
        Z=Z,
        plane_norms=tuple(float(v) for v in norms),
        eigenvalues=tuple(float(v) for v in payload["eigenvalues"]),
    )
