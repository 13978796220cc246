"""Numerical laboratory for multiple quantum hypothesis testing.

Detector constructions (greedy Gram-Schmidt PVM, Holevo-Helstrom, pretty good
measurement, commuting Bayes, embedded POVM), binary and multiple quantum
Chernoff bounds, and n-copy tensor-power experiments that run per type class
or per Schur-Weyl block, never on d^n-dimensional objects.
"""

from .chernoff import (
    ChernoffResult,
    MultipleChernoffResult,
    binary_qcb,
    multiple_qcb,
)
from .detectors import (
    BayesConditionReport,
    Detector,
    ErrorReport,
    GsDiagnostics,
    bayes_commuting,
    classical_ml,
    common_eigenbasis,
    epsilon_detector,
    evaluate_errors,
    gs_detector,
    gs_error_bound,
    holevo_helstrom,
    pgm,
    verify_bayes_conditions,
)
from .errors import DimensionLimitError, NumericalConsistencyError, ScenarioError
from .linalg import (
    DensityMatrix,
    HermitianMatrix,
    SpectralDecomposition,
    dense_limit,
    gram_floor,
    spectral_decompose,
)
from .tensorlab import (
    ExperimentReport,
    ExperimentRow,
    LiPairResult,
    LiReport,
    gram_convergence_check,
    pairwise_li_check,
    run_power_experiment,
)

__all__ = [
    "BayesConditionReport",
    "ChernoffResult",
    "DensityMatrix",
    "Detector",
    "DimensionLimitError",
    "ErrorReport",
    "ExperimentReport",
    "ExperimentRow",
    "GsDiagnostics",
    "HermitianMatrix",
    "LiPairResult",
    "LiReport",
    "MultipleChernoffResult",
    "NumericalConsistencyError",
    "ScenarioError",
    "SpectralDecomposition",
    "bayes_commuting",
    "binary_qcb",
    "classical_ml",
    "common_eigenbasis",
    "dense_limit",
    "epsilon_detector",
    "evaluate_errors",
    "gram_convergence_check",
    "gram_floor",
    "gs_detector",
    "gs_error_bound",
    "holevo_helstrom",
    "multiple_qcb",
    "pairwise_li_check",
    "pgm",
    "run_power_experiment",
    "spectral_decompose",
    "verify_bayes_conditions",
]
