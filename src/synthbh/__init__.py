"""Guarded step-up multiple testing powered by auxiliary (synthetic) data.

The package implements a step-up procedure that lets pooled
real-plus-auxiliary p-values add power while a per-rank guard caps the
extra false discovery rate at a user-chosen budget, its exact static
reduction to a single plain step-up pass, conformal p-values for outlier
detection, and seeded Monte Carlo experiments that check the error
bounds empirically.
"""

from .conformal import (
    JitterSpec,
    ScoreBundle,
    apply_jitter,
    conformal_pvalue,
    conformal_pvalues,
    detect_outliers,
    merged_conformal_pvalue,
    merged_conformal_pvalues,
    trim_by_score,
)
from .pvalues import static_modified_pvalue, synthetic_powered_pvalue
from .simulate import (
    ExperimentResult,
    MethodSummary,
    MIRROR_ALT,
    OutlierConfig,
    SimConfig,
    TrialMetrics,
    fdp_and_power,
    randomized_binomial_pvalue,
    randomized_binomial_pvalues,
    run_bernoulli_experiment,
    run_outlier_experiment,
)
from .stepup import (
    PValuePair,
    RejectionResult,
    StepUpConfig,
    bh,
    synth_bh,
    weighted_synth_bh,
)

__version__ = "0.1.0"

__all__ = [
    "JitterSpec",
    "ScoreBundle",
    "apply_jitter",
    "conformal_pvalue",
    "conformal_pvalues",
    "detect_outliers",
    "merged_conformal_pvalue",
    "merged_conformal_pvalues",
    "trim_by_score",
    "static_modified_pvalue",
    "synthetic_powered_pvalue",
    "ExperimentResult",
    "MethodSummary",
    "MIRROR_ALT",
    "OutlierConfig",
    "SimConfig",
    "TrialMetrics",
    "fdp_and_power",
    "randomized_binomial_pvalue",
    "randomized_binomial_pvalues",
    "run_bernoulli_experiment",
    "run_outlier_experiment",
    "PValuePair",
    "RejectionResult",
    "StepUpConfig",
    "bh",
    "synth_bh",
    "weighted_synth_bh",
    "__version__",
]
