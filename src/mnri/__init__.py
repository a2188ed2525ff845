"""Nested binary-response model comparison with the NRI and modified NRI.

Fits the (constant, base, expanded) model triple, computes the classical
and modified net reclassification improvement statistics (hard and smooth
forms), and tests them against valid asymptotic reference distributions:
a scaled chi-square for the single-sample modified statistic and a
weighted chi-square mixture in the train/test setting. A seeded Monte
Carlo engine reproduces the Type-1-error size studies, and a restricted
cubic spline builder supports flexible biomarker modeling.
"""

__version__ = "0.1.0"

from .errors import (
    AllTies,
    DegenerateOutcome,
    ExcessiveFitFailures,
    FitError,
    MnriError,
    NoConvergence,
    NotPositiveDefinite,
    RankDeficient,
    Separation,
    TooFewDistinctValues,
)
from .glm import (
    LOGIT,
    PROBIT,
    BatchFit,
    Dataset,
    FittedModel,
    Link,
    NestedFits,
    fit,
    fit_nested,
    information_blocks,
)
from .inference import (
    TestResult,
    k_constant,
    mixture_weights,
    test_mnri_single,
    test_mnri_train_test,
    test_nri_normal_legacy,
)
from .numerics import mixture_tail
from .reclass import (
    HalfNRIs,
    ReclassReport,
    TrainTestPair,
    build_report,
    extended_indicator,
    half_nris,
    mad_probabilities,
    sign_decomposition,
)
from .sim import SimConfig, SimTableRow, gen_replicate, run_cell, run_grid
from .spline import default_knots, rcs_basis

__all__ = [
    "__version__",
    "AllTies", "DegenerateOutcome", "ExcessiveFitFailures", "FitError",
    "MnriError", "NoConvergence", "NotPositiveDefinite", "RankDeficient",
    "Separation", "TooFewDistinctValues",
    "LOGIT", "PROBIT", "BatchFit", "Dataset", "FittedModel", "Link", "NestedFits",
    "fit", "fit_nested", "information_blocks",
    "TestResult", "k_constant", "mixture_weights", "test_mnri_single",
    "test_mnri_train_test", "test_nri_normal_legacy",
    "mixture_tail",
    "HalfNRIs", "ReclassReport", "TrainTestPair", "build_report",
    "extended_indicator", "half_nris", "mad_probabilities", "sign_decomposition",
    "SimConfig", "SimTableRow", "gen_replicate", "run_cell", "run_grid",
    "default_knots", "rcs_basis",
]
