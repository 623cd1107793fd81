"""Eigenvalue twin-plane classifiers with Universum data, end to end.

The package covers the full pipeline: ingesting Bonn-format EEG
recordings, wavelet/PCA/ICA feature extraction with class-discriminatory
ranking, four eigenproblem-based nonparallel-plane classifiers (ratio and
difference objectives, with and without Universum terms, linear and
kernelized), stratified cross-validation with exhaustive grid search, and
the nonparametric statistics used to compare the models.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .classifiers import (
    CLASSIFIER_NAMES,
    DegeneratePlaneError,
    HyperplanePair,
    TrainSpec,
    model_from_json,
    model_to_json,
    plane_distances,
    predict,
    train,
)
from .dataio import (
    FoldPlan,
    LabeledDataset,
    Recording,
    assemble_task,
    load_bonn_set,
    make_folds,
    read_bundle,
    subset_universum,
    write_bundle,
)
from .eigsolve import (
    EigenSolution,
    SingularDenominatorError,
    smallest_eigpair_generalized,
    smallest_eigpair_standard,
)
from .evaluation import (
    CVReport,
    FoldTrainingError,
    GridSpec,
    grid_search,
    run_benchmark,
    run_cv,
)
from .features import (
    FeatureConfig,
    cdr_rank,
    dwt_features,
    feature_config_from_id,
    fit_features,
    ica_fit,
    idwt_features,
    pca_fit,
)
from .kernels import KernelSpec, default_sigma, gram
from .stats import (
    FriedmanResult,
    WilcoxonResult,
    WinTieLoss,
    build_stat_report,
    friedman_test,
    load_published_tables,
    rank_models,
    win_tie_loss,
    wilcoxon_signed_rank,
)

__all__ = [
    "CLASSIFIER_NAMES",
    "CVReport",
    "DegeneratePlaneError",
    "EigenSolution",
    "FeatureConfig",
    "FoldPlan",
    "FoldTrainingError",
    "FriedmanResult",
    "GridSpec",
    "HyperplanePair",
    "KernelSpec",
    "LabeledDataset",
    "Recording",
    "SingularDenominatorError",
    "TrainSpec",
    "WilcoxonResult",
    "WinTieLoss",
    "__version__",
    "assemble_task",
    "build_stat_report",
    "cdr_rank",
    "default_sigma",
    "dwt_features",
    "feature_config_from_id",
    "fit_features",
    "friedman_test",
    "gram",
    "grid_search",
    "ica_fit",
    "idwt_features",
    "load_bonn_set",
    "load_published_tables",
    "make_folds",
    "model_from_json",
    "model_to_json",
    "pca_fit",
    "plane_distances",
    "predict",
    "rank_models",
    "read_bundle",
    "run_benchmark",
    "run_cv",
    "smallest_eigpair_generalized",
    "smallest_eigpair_standard",
    "subset_universum",
    "train",
    "wilcoxon_signed_rank",
    "win_tie_loss",
    "write_bundle",
]
