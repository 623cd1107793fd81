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
coordinates do not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataio import LabeledDataset
from .eigsolve import (
    EigenSolution,
    smallest_eigpair_generalized,
    smallest_eigpair_standard,
)
from .kernels import KernelSpec, default_sigma, gram

__all__ = [
    "AugmentedClassMatrices",
    "CLASSIFIER_AXES",
    "CLASSIFIER_NAMES",
    "DegeneratePlaneError",
    "GRAM_CAP",
    "HyperplanePair",
    "MODEL_FORMAT_VERSION",
    "PlaneProblem",
    "ProblemBlocks",
    "TrainSpec",
    "build_blocks",
    "class_matrices",
    "model_from_json",
    "model_to_json",
    "plane_distances",
    "plane_problems",
    "predict",
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
class ProblemBlocks:
    """Solve-ready Gram blocks, independent of delta/nu/gamma/psi.

    ``mode`` is ``linear`` (primal coordinates, also used for a linear
    kernel spec) or ``kernel`` (coefficient coordinates over the rbf
    expansion Z, with its Gram matrix K_ZZ).  Grid searches cache these per
    fold: every hyperparameter enters later as a scalar combination of
    G/H/P.

    When the feature dimension exceeds the training row count (wide data),
    ``basis`` holds an orthonormal basis of the span of the bias-augmented
    training rows and G/H/P are expressed in that basis; eigenvectors are
    lifted back through it.  Minimizers provably live in that span -- the
    delta term penalizes any out-of-span component of a ratio objective,
    and a difference objective is constant (= delta) on the orthogonal
    complement, which never beats an in-span direction once any counter
    term carries weight -- so the projected solve is exact while the
    eigenproblem shrinks from feature-sized to row-count-sized.
    """

    mode: str
    matrices: AugmentedClassMatrices
    kernel: KernelSpec | None = None
    Z: np.ndarray | None = field(default=None, repr=False)
    K_ZZ: np.ndarray | None = field(default=None, repr=False)
    basis: np.ndarray | None = field(default=None, repr=False)


def _projected_class_matrices(
    dataset: LabeledDataset,
) -> tuple[AugmentedClassMatrices, np.ndarray]:
    """Class matrices in an orthonormal basis of the augmented row span."""
    F = np.vstack(
        [_augmented(dataset.X1), _augmented(dataset.X2), _augmented(dataset.U)]
    )
    basis, R = np.linalg.qr(F.T)  # F' = basis @ R, basis columns orthonormal
    m1, m2 = dataset.m1, dataset.m2
    R1, R2, RU = R[:, :m1], R[:, m1 : m1 + m2], R[:, m1 + m2 :]
    matrices = AugmentedClassMatrices(G=R1 @ R1.T, H=R2 @ R2.T, P=RU @ RU.T)
    return matrices, basis


def build_blocks(dataset: LabeledDataset, kernel: KernelSpec | None) -> ProblemBlocks:
    """Assemble the Gram blocks a trainer needs for ``dataset``.

    A linear kernel gets the same primal blocks as ``kernel=None``.  rbf
    kernels with an unset sigma are resolved here from the training
    rows (labeled plus Universum).  The kernel expansion size m + 1 must
    stay within ``GRAM_CAP``.
    """
    if kernel is None or kernel.family == "linear":
        rows = dataset.m1 + dataset.m2 + dataset.p
        if dataset.n + 1 > rows:
            matrices, basis = _projected_class_matrices(dataset)
        else:
            matrices, basis = class_matrices(dataset), None
        return ProblemBlocks(mode="linear", matrices=matrices, basis=basis)
    Z = np.vstack([dataset.X1, dataset.X2, dataset.U])
    m = Z.shape[0]
    if m + 1 > GRAM_CAP:
        raise ValueError(f"kernel expansion size {m + 1} exceeds the cap {GRAM_CAP}")
    if kernel.sigma is None:
        kernel = KernelSpec(family="rbf", sigma=default_sigma(Z))
    K_ZZ = gram(Z, Z, kernel)
    q = m + 1
    K1 = K_ZZ[: dataset.m1]
    K2 = K_ZZ[dataset.m1 : dataset.m1 + dataset.m2]
    KU = K_ZZ[dataset.m1 + dataset.m2 :]
    matrices = AugmentedClassMatrices(
        G=_aug_gram(K1, q), H=_aug_gram(K2, q), P=_aug_gram(KU, q)
    )
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
    may also carry a linear kernel).  ``plane_norms`` caches the
    denominators of the point-to-plane distances.
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

    @property
    def n_features(self) -> int:
        if self.mode == "linear":
            return int(self.w1.size)
        return int(self.Z.shape[1])


def _solve_plane(problem: PlaneProblem) -> EigenSolution:
    if problem.B is None:
        return smallest_eigpair_standard(problem.A)
    return smallest_eigpair_generalized(problem.A, problem.B, context=problem.context)


def _split_plane(
    solution: EigenSolution, context: str, basis: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    vector = solution.eigenvector
    if basis is not None:
        lifted = basis @ vector
        vector = lifted / np.linalg.norm(lifted)
    weights, bias = vector[:-1], float(vector[-1])
    norm = float(np.linalg.norm(weights))
    if norm < DEGENERATE_NORM:
        raise DegeneratePlaneError(
            f"{context}: plane weight norm {norm:.3e} is below {DEGENERATE_NORM:.0e} "
            "(all weight on the bias term)"
        )
    return weights, bias, norm


def _kernel_norm(alpha: np.ndarray, K_ZZ: np.ndarray, context: str) -> float:
    norm_sq = float(alpha @ (K_ZZ @ alpha))
    norm = float(np.sqrt(max(norm_sq, 0.0)))
    if norm < DEGENERATE_NORM:
        raise DegeneratePlaneError(
            f"{context}: kernel plane norm {norm:.3e} is below {DEGENERATE_NORM:.0e}"
        )
    return norm


def train_with_blocks(blocks: ProblemBlocks, spec: TrainSpec) -> HyperplanePair:
    """Solve both plane problems over prepared blocks and package the model."""
    problems = plane_problems(blocks, spec)
    solutions = tuple(_solve_plane(p) for p in problems)
    hyper = spec.hyperparameters()

    if blocks.mode == "linear":
        w1, b1, n1 = _split_plane(solutions[0], problems[0].context, blocks.basis)
        w2, b2, n2 = _split_plane(solutions[1], problems[1].context, blocks.basis)
        return HyperplanePair(
            mode="linear",
            trained_by=spec.classifier,
            hyperparameters=hyper,
            w1=w1,
            b1=b1,
            w2=w2,
            b2=b2,
            plane_norms=(n1, n2),
            eigenvalues=(solutions[0].eigenvalue, solutions[1].eigenvalue),
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
        eigenvalues=(solutions[0].eigenvalue, solutions[1].eigenvalue),
    )


def train(dataset: LabeledDataset, spec: TrainSpec) -> HyperplanePair:
    """Train ``spec.classifier`` on ``dataset`` (linear or kernel mode)."""
    return train_with_blocks(build_blocks(dataset, spec.kernel), spec)


def _validated_queries(model: HyperplanePair, queries: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-d, got shape {queries.shape}")
    if queries.shape[1] != model.n_features:
        raise ValueError(
            f"queries have {queries.shape[1]} features, model expects {model.n_features}"
        )
    if not np.all(np.isfinite(queries)):
        raise ValueError("queries contain non-finite values")
    return queries


def plane_distances(model: HyperplanePair, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point-to-plane distances to plane 1 and plane 2 for each query row."""
    queries = _validated_queries(model, queries)
    if model.mode == "linear":
        d1 = np.abs(queries @ model.w1 + model.b1) / model.plane_norms[0]
        d2 = np.abs(queries @ model.w2 + model.b2) / model.plane_norms[1]
    else:
        K = gram(queries, model.Z, model.kernel)
        d1 = np.abs(K @ model.alpha1 + model.b1) / model.plane_norms[0]
        d2 = np.abs(K @ model.alpha2 + model.b2) / model.plane_norms[1]
    return d1, d2


def predict(model: HyperplanePair, queries: np.ndarray) -> np.ndarray:
    """Labels in {+1, -1}: +1 when plane 1 is at least as near as plane 2."""
    d1, d2 = plane_distances(model, queries)
    return np.where(d1 <= d2, 1, -1)


def _array_payload(values: np.ndarray | None):
    return None if values is None else [float(v) for v in np.ravel(values)]


def model_to_json(model: HyperplanePair) -> str:
    """Serialize a model to JSON (floats keep full round-trip precision)."""
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
