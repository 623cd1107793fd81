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

Kernel mode replaces the data rows by kernel evaluations against the
expansion Z = [X1; X2; U] and solves the same problems in coefficient
space.  Only the rbf family trains there: a linear kernel spec trains the
linear model itself, since the dot-product kernel spans nothing the primal
coordinates do not.  What kernel mode needs before a bandwidth enters --
Z, its squared distances and those of the test rows to Z -- is one
``KernelTable``; a grid passes the same table to every bandwidth it
visits, and the blocks and models built from it share its Z.  On wide
linear data the counterpart is a ``SpanFactor``.  Either also serves every
training set made of its first rows, as a ``prefix``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dormqr

from .dataio import LabeledDataset
from .eigsolve import (
    EigenSolution,
    smallest_eigpair_generalized,
    smallest_eigpair_standard,
)
from .kernels import KernelSpec, default_sigma, gram, squared_distances

__all__ = [
    "AugmentedClassMatrices",
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
    "model_from_json",
    "model_to_json",
    "plane_distances",
    "plane_problems",
    "predict",
    "span_factor",
    "train",
    "train_with_blocks",
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


@dataclass(frozen=True)
class AugmentedClassMatrices:
    """Gram blocks of the bias-augmented rows: G = [X1 e]'[X1 e], etc.

    ``P`` is a zero block when the dataset carries no Universum rows.  The
    delta ridge is applied at solve time, never stored here.
    """

    G: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)


def _augmented(rows: np.ndarray) -> np.ndarray:
    return np.hstack([rows, np.ones((rows.shape[0], 1))])


def _aug_gram(rows: np.ndarray, q: int) -> np.ndarray:
    if rows.shape[0] == 0:
        return np.zeros((q, q))
    aug = _augmented(rows)
    return aug.T @ aug


def class_matrices(dataset: LabeledDataset) -> AugmentedClassMatrices:
    """Augmented Gram blocks of a dataset in primal (linear) coordinates."""
    q = dataset.n + 1
    return AugmentedClassMatrices(
        G=_aug_gram(dataset.X1, q),
        H=_aug_gram(dataset.X2, q),
        P=_aug_gram(dataset.U, q),
    )


@dataclass(frozen=True)
class SpanFactor:
    """An orthonormal basis Q of the augmented training rows' span, as reflectors.

    ``np.linalg.qr(F.T, mode="raw")`` of the stacked bias-augmented rows F
    runs only the Householder factorization: ``reflectors`` is LAPACK's
    Fortran-ordered result (R in its upper triangle, the reflectors below)
    and ``tau`` their scales, one per row of F.  Q is applied through them
    (``dormqr``) and never formed.  ``bias_coords`` are the first q entries
    of Q'e_n, where e_n is the bias axis, and ``bias_residual`` is the norm
    of the rest; together they give a plane's weight norm without lifting
    it.  The first k reflectors depend only on the first k rows of F
    (Golub & Van Loan, *Matrix Computations*, 5.2), so one factor holds
    the factor of every leading block of rows (:meth:`prefix`).
    """

    reflectors: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)
    bias_coords: np.ndarray = field(repr=False)
    bias_residual: float

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
        return SpanFactor.from_reflectors(self.reflectors[:, :m], self.tau[:m])

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
class ProblemBlocks:
    """Solve-ready Gram blocks, independent of delta/nu/gamma/psi.

    ``mode`` is ``linear`` (primal coordinates, also used for a linear
    kernel spec) or ``kernel`` (coefficient coordinates over the rbf
    expansion Z, with its Gram matrix K_ZZ; Z is the ``KernelTable``'s,
    not a copy).  Every hyperparameter enters later as a scalar
    combination of G/H/P.

    When the feature dimension exceeds the training row count (wide data),
    ``span`` holds the Householder reflectors of an orthonormal basis Q of
    the span of the bias-augmented training rows and G/H/P are expressed
    in that basis.  Models trained here keep their planes in span
    coordinates, predict from test rows projected through Q'
    (``SpanFactor.project``), and lift a plane back to w = Q z only when
    its weights are asked for (``HyperplanePair.lifted``).  Minimizers provably live in that span --
    the delta term penalizes any out-of-span component of a ratio
    objective, and a difference objective is constant (= delta) on the
    orthogonal complement, which never beats an in-span direction once any
    counter term carries weight -- so the projected solve is exact while
    the eigenproblem shrinks from feature-sized to row-count-sized.
    """

    mode: str
    matrices: AugmentedClassMatrices
    kernel: KernelSpec | None = None
    Z: np.ndarray | None = field(default=None, repr=False)
    K_ZZ: np.ndarray | None = field(default=None, repr=False)
    span: SpanFactor | None = field(default=None, repr=False)


def span_factor(dataset: LabeledDataset) -> SpanFactor:
    """The Householder factor of ``dataset``'s stacked augmented rows [X1; X2; U]."""
    F = np.vstack(
        [_augmented(dataset.X1), _augmented(dataset.X2), _augmented(dataset.U)]
    )
    h, tau = np.linalg.qr(F.T, mode="raw")  # F' = Q R, Q left as reflectors
    return SpanFactor.from_reflectors(h.T[:, : tau.size], tau)


@dataclass(frozen=True)
class KernelTable:
    """The bandwidth-free part of kernel mode for one training set.

    ``Z`` is the expansion [X1; X2; U], ``D_ZZ`` is
    ``squared_distances(Z, Z)`` and ``D_test`` is
    ``squared_distances(test_rows, Z)`` (None without test rows).  Every
    rbf bandwidth at this training set builds its blocks and predicts from
    one table, so no bandwidth copies Z or recomputes a distance.
    """

    Z: np.ndarray = field(repr=False)
    D_ZZ: np.ndarray = field(repr=False)
    D_test: np.ndarray | None = field(default=None, repr=False)

    def prefix(self, m: int) -> KernelTable:
        """The table of the expansion's first ``m`` rows, as views of this one."""
        if m >= self.Z.shape[0]:
            return self
        D_test = None if self.D_test is None else self.D_test[:, :m]
        return KernelTable(Z=self.Z[:m], D_ZZ=self.D_ZZ[:m, :m], D_test=D_test)


def kernel_table(dataset: LabeledDataset, test_rows: np.ndarray | None = None) -> KernelTable:
    """Stack ``dataset``'s expansion and compute its distance table.

    The expansion size m + 1 must stay within ``GRAM_CAP``.
    """
    Z = np.vstack([dataset.X1, dataset.X2, dataset.U])
    if Z.shape[0] + 1 > GRAM_CAP:
        raise ValueError(f"kernel expansion size {Z.shape[0] + 1} exceeds the cap {GRAM_CAP}")
    D_test = None if test_rows is None else squared_distances(test_rows, Z)
    return KernelTable(Z=Z, D_ZZ=squared_distances(Z, Z), D_test=D_test)


def build_blocks(
    dataset: LabeledDataset,
    kernel: KernelSpec | None,
    basis: SpanFactor | KernelTable | None = None,
) -> ProblemBlocks:
    """Assemble the Gram blocks a trainer needs for ``dataset``.

    A linear kernel gets the same primal blocks as ``kernel=None``.  rbf
    kernels with an unset sigma are resolved here from the training
    rows (labeled plus Universum).  ``basis`` is the work several blocks
    over ``dataset`` share: its ``span_factor`` for wide linear blocks, its
    ``kernel_table`` for rbf ones (a larger training set's ``prefix``
    serves too).  Narrow linear blocks read none; without one, the others
    compute their own.
    """
    m1, m2 = dataset.m1, dataset.m2
    m = m1 + m2 + dataset.p
    if kernel is None or kernel.family == "linear":
        if dataset.n + 1 <= m:
            return ProblemBlocks(mode="linear", matrices=class_matrices(dataset))
        span = span_factor(dataset) if basis is None else basis
        if span.tau.size != m:
            raise ValueError(f"span factor has {span.tau.size} reflectors, dataset has {m} rows")
        R = np.triu(span.reflectors[:m])  # the R that mode="reduced" returns
        R1, R2, RU = R[:, :m1], R[:, m1 : m1 + m2], R[:, m1 + m2 :]
        matrices = AugmentedClassMatrices(G=R1 @ R1.T, H=R2 @ R2.T, P=RU @ RU.T)
        return ProblemBlocks(mode="linear", matrices=matrices, span=span)
    table = kernel_table(dataset) if basis is None else basis
    Z = table.Z
    if Z.shape[0] != m:
        raise ValueError(f"kernel table has {Z.shape[0]} expansion rows, dataset has {m}")
    if kernel.sigma is None:
        kernel = KernelSpec(family="rbf", sigma=default_sigma(Z, table.D_ZZ))
    K_ZZ = gram(Z, Z, kernel, table.D_ZZ)
    q = m + 1
    K1, K2, KU = K_ZZ[:m1], K_ZZ[m1 : m1 + m2], K_ZZ[m1 + m2 :]
    matrices = AugmentedClassMatrices(G=_aug_gram(K1, q), H=_aug_gram(K2, q), P=_aug_gram(KU, q))
    return ProblemBlocks(mode="kernel", matrices=matrices, kernel=kernel, Z=Z, K_ZZ=K_ZZ)


@dataclass(frozen=True)
class PlaneProblem:
    """One plane's eigenproblem: standard when ``B`` is None."""

    A: np.ndarray = field(repr=False)
    B: np.ndarray | None = field(default=None, repr=False)
    context: str = ""


def plane_problems(blocks: ProblemBlocks, spec: TrainSpec) -> tuple[PlaneProblem, PlaneProblem]:
    """The two eigenproblems ``spec`` poses over ``blocks``.

    Plane 2 swaps the class roles: its own-class block is H and its
    counter-class block is G (the Universum block is shared).
    """
    G, H, P = blocks.matrices.G, blocks.matrices.H, blocks.matrices.P
    ridge = spec.delta * np.eye(G.shape[0])
    kind = spec.classifier
    tag = f"{kind} ({blocks.mode})"
    if kind == "gepsvm":
        return (
            PlaneProblem(A=G + ridge, B=H, context=f"{tag} plane 1"),
            PlaneProblem(A=H + ridge, B=G, context=f"{tag} plane 2"),
        )
    if kind == "ugepsvm":
        return (
            PlaneProblem(A=G + ridge, B=H + P, context=f"{tag} plane 1"),
            PlaneProblem(A=H + ridge, B=G + P, context=f"{tag} plane 2"),
        )
    if kind == "igepsvm":
        return (
            PlaneProblem(A=G + ridge - spec.nu * H, context=f"{tag} plane 1"),
            PlaneProblem(A=H + ridge - spec.nu * G, context=f"{tag} plane 2"),
        )
    return (
        PlaneProblem(
            A=G + ridge - spec.gamma1 * H - spec.psi1 * P, context=f"{tag} plane 1"
        ),
        PlaneProblem(
            A=H + ridge - spec.effective_gamma2 * G - spec.effective_psi2 * P,
            context=f"{tag} plane 2",
        ),
    )


@dataclass(frozen=True)
class HyperplanePair:
    """A trained model: two planes plus everything prediction needs.

    Linear mode stores weight vectors (w1, b1) / (w2, b2); kernel mode
    stores expansion coefficients (alpha1, b1) / (alpha2, b2) together with
    the expansion rows Z and the kernel (rbf when trained here; model files
    may also carry a linear kernel).  A linear model trained over wide
    blocks keeps its planes as span coordinates (z1, z2) together with the
    blocks' ``span``, with w1/w2 unset and b1/b2 the planes' bias terms:
    it predicts from projected queries, and :meth:`lifted` gives the same
    model with explicit weights.  ``plane_norms`` caches the denominators
    of the point-to-plane distances.
    """

    mode: str
    trained_by: str
    hyperparameters: dict
    b1: float
    b2: float
    w1: np.ndarray | None = field(default=None, repr=False)
    w2: np.ndarray | None = field(default=None, repr=False)
    alpha1: np.ndarray | None = field(default=None, repr=False)
    alpha2: np.ndarray | None = field(default=None, repr=False)
    Z: np.ndarray | None = field(default=None, repr=False)
    kernel: KernelSpec | None = None
    plane_norms: tuple[float, float] = (1.0, 1.0)
    eigenvalues: tuple[float, float] = (0.0, 0.0)
    span: SpanFactor | None = field(default=None, repr=False)
    z1: np.ndarray | None = field(default=None, repr=False)
    z2: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_features(self) -> int:
        if self.span is not None:
            return int(self.span.reflectors.shape[0] - 1)
        if self.mode == "linear":
            return int(self.w1.size)
        return int(self.Z.shape[1])

    def lifted(self) -> HyperplanePair:
        """This model with explicit weights: each span plane lifted to Q z."""
        if self.span is None:
            return self
        planes = []
        for index, z in ((1, self.z1), (2, self.z2)):
            vector = self.span.lift(z)
            context = f"{self.trained_by} ({self.mode}) plane {index}"
            planes.append(_split_plane(vector / np.linalg.norm(vector), context))
        (w1, b1, n1), (w2, b2, n2) = planes
        return replace(
            self, w1=w1, b1=b1, w2=w2, b2=b2, plane_norms=(n1, n2), span=None, z1=None, z2=None
        )


def _solve_plane(problem: PlaneProblem) -> EigenSolution:
    if problem.B is None:
        return smallest_eigpair_standard(problem.A)
    return smallest_eigpair_generalized(problem.A, problem.B, context=problem.context)


def _checked_weight_norm(norm: float, context: str) -> float:
    if norm < DEGENERATE_NORM:
        raise DegeneratePlaneError(
            f"{context}: plane weight norm {norm:.3e} is below {DEGENERATE_NORM:.0e} "
            "(all weight on the bias term)"
        )
    return norm


def _split_plane(vector: np.ndarray, context: str) -> tuple[np.ndarray, float, float]:
    weights, bias = vector[:-1], float(vector[-1])
    return weights, bias, _checked_weight_norm(float(np.linalg.norm(weights)), context)


def _kernel_norm(alpha: np.ndarray, K_ZZ: np.ndarray, context: str) -> float:
    norm_sq = float(alpha @ (K_ZZ @ alpha))
    norm = float(np.sqrt(max(norm_sq, 0.0)))
    if norm < DEGENERATE_NORM:
        raise DegeneratePlaneError(
            f"{context}: kernel plane norm {norm:.3e} is below {DEGENERATE_NORM:.0e}"
        )
    return norm


def train_with_blocks(blocks: ProblemBlocks, spec: TrainSpec) -> HyperplanePair:
    """Solve both plane problems over prepared blocks and package the model.

    Over wide blocks the model keeps its planes in span coordinates (see
    :class:`HyperplanePair`); nothing here is feature-sized.
    """
    problems = plane_problems(blocks, spec)
    solutions = tuple(_solve_plane(p) for p in problems)
    hyper = spec.hyperparameters()
    eigenvalues = (solutions[0].eigenvalue, solutions[1].eigenvalue)

    if blocks.span is not None:
        z1, z2 = (solution.eigenvector for solution in solutions)
        return HyperplanePair(
            mode="linear",
            trained_by=spec.classifier,
            hyperparameters=hyper,
            b1=float(blocks.span.bias_coords @ z1),
            b2=float(blocks.span.bias_coords @ z2),
            plane_norms=tuple(
                _checked_weight_norm(blocks.span.weight_norm(z), problem.context)
                for z, problem in zip((z1, z2), problems)
            ),
            eigenvalues=eigenvalues,
            span=blocks.span,
            z1=z1,
            z2=z2,
        )

    if blocks.mode == "linear":
        w1, b1, n1 = _split_plane(solutions[0].eigenvector, problems[0].context)
        w2, b2, n2 = _split_plane(solutions[1].eigenvector, problems[1].context)
        return HyperplanePair(
            mode="linear",
            trained_by=spec.classifier,
            hyperparameters=hyper,
            w1=w1,
            b1=b1,
            w2=w2,
            b2=b2,
            plane_norms=(n1, n2),
            eigenvalues=eigenvalues,
        )

    hyper["sigma"] = float(blocks.kernel.sigma)  # resolved value, possibly data-driven
    alphas = []
    biases = []
    norms = []
    for solution, problem in zip(solutions, problems):
        vector = solution.eigenvector
        alpha, bias = vector[:-1], float(vector[-1])
        norms.append(_kernel_norm(alpha, blocks.K_ZZ, problem.context))
        alphas.append(alpha)
        biases.append(bias)
    return HyperplanePair(
        mode="kernel",
        trained_by=spec.classifier,
        hyperparameters=hyper,
        alpha1=alphas[0],
        b1=biases[0],
        alpha2=alphas[1],
        b2=biases[1],
        Z=blocks.Z,
        kernel=blocks.kernel,
        plane_norms=(norms[0], norms[1]),
        eigenvalues=eigenvalues,
    )


def train(dataset: LabeledDataset, spec: TrainSpec) -> HyperplanePair:
    """Train ``spec.classifier`` on ``dataset`` (linear or kernel mode), weights lifted."""
    return train_with_blocks(build_blocks(dataset, spec.kernel), spec).lifted()


def _checked_rows(rows: np.ndarray, width: int, name: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"{name} must be 2-d with the model's {width} columns, got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{name} contain non-finite values")
    return rows


def plane_distances(
    model: HyperplanePair, queries: np.ndarray, precomputed: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Point-to-plane distances to plane 1 and plane 2 for each query row.

    ``precomputed`` is per-query work a fold record did once: a kernel
    model's ``squared_distances(queries, model.Z)`` (a ``KernelTable``'s
    ``D_test``), or a span model's ``model.span.project(queries)``, which
    is then checked instead of the queries.  A span model without it is
    lifted first; a dense linear model ignores it.
    """
    if model.span is not None and precomputed is None:
        model = model.lifted()
    if precomputed is None or (model.mode == "linear" and model.span is None):
        queries = _checked_rows(queries, model.n_features, "queries")
    else:
        width = model.z1.size if model.span is not None else model.Z.shape[0]
        precomputed = _checked_rows(precomputed, width, "precomputed rows")
        if len(precomputed) != len(queries):
            raise ValueError(f"{len(precomputed)} precomputed rows for {len(queries)} queries")
    if model.span is not None:
        score1, score2 = precomputed @ model.z1, precomputed @ model.z2
    elif model.mode == "linear":
        score1, score2 = queries @ model.w1 + model.b1, queries @ model.w2 + model.b2
    else:
        K = gram(queries, model.Z, model.kernel, precomputed)
        score1, score2 = K @ model.alpha1 + model.b1, K @ model.alpha2 + model.b2
    return np.abs(score1) / model.plane_norms[0], np.abs(score2) / model.plane_norms[1]


def predict(
    model: HyperplanePair, queries: np.ndarray, precomputed: np.ndarray | None = None
) -> np.ndarray:
    """Labels in {+1, -1}: +1 when plane 1 is at least as near as plane 2.

    ``precomputed`` is passed on to :func:`plane_distances`.
    """
    dist1, dist2 = plane_distances(model, queries, precomputed)
    return np.where(dist1 <= dist2, 1, -1)


def _array_payload(values: np.ndarray | None):
    return None if values is None else [float(v) for v in np.ravel(values)]


def model_to_json(model: HyperplanePair) -> str:
    """Serialize a model to JSON (floats keep full round-trip precision).

    A span model is lifted first, so the file always holds explicit weights.
    """
    model = model.lifted()
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": model.mode,
        "trained_by": model.trained_by,
        "hyperparameters": model.hyperparameters,
        "b1": model.b1,
        "b2": model.b2,
        "plane_norms": list(model.plane_norms),
        "eigenvalues": list(model.eigenvalues),
        "w1": _array_payload(model.w1),
        "w2": _array_payload(model.w2),
        "alpha1": _array_payload(model.alpha1),
        "alpha2": _array_payload(model.alpha2),
        "kernel": None
        if model.kernel is None
        else {"family": model.kernel.family, "sigma": model.kernel.sigma},
        "Z": None if model.Z is None else [list(map(float, row)) for row in model.Z],
    }
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> HyperplanePair:
    """Rebuild a model serialized by :func:`model_to_json`."""
    payload = json.loads(text)
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    arr = lambda key: None if payload[key] is None else np.asarray(payload[key], dtype=float)
    kernel = payload["kernel"]
    return HyperplanePair(
        mode=payload["mode"],
        trained_by=payload["trained_by"],
        hyperparameters=payload["hyperparameters"],
        b1=float(payload["b1"]),
        b2=float(payload["b2"]),
        w1=arr("w1"),
        w2=arr("w2"),
        alpha1=arr("alpha1"),
        alpha2=arr("alpha2"),
        Z=arr("Z"),
        kernel=None if kernel is None else KernelSpec(family=kernel["family"], sigma=kernel["sigma"]),
        plane_norms=tuple(float(v) for v in payload["plane_norms"]),
        eigenvalues=tuple(float(v) for v in payload["eigenvalues"]),
    )
