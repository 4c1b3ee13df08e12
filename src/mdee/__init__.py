"""Multiplicative risk estimators for small-sample model selection.

The package implements the DEE family of bias-corrected risk estimators for
least-squares regression with unlabeled covariates, the classical baselines
they are compared against, Monte-Carlo oracles that verify the underlying
identities, and a reproducible experiment harness.
"""

__version__ = "0.1.0"  # set before the submodules import it

from .baselines import adj, caic, fpe, kfold_cv
from .core import (
    BasisSpec,
    FittedModel,
    LabeledSet,
    ModelPath,
    SingularDesignError,
    UnlabeledSet,
    basis_eval,
    block_partition,
    build_design,
    correlation_matrix,
    empirical_loss,
    fit_model_path,
    predict,
    ridge_lse,
)
from .datagen import SyntheticConfig, generate, target_eval
from .estimators import (
    CorrectionEstimate,
    CriterionKind,
    MomentSummary,
    correction_factor,
    dee,
    estimate_C_plus,
    estimate_V,
    mdee,
    rmdee,
    select_b1,
    select_model,
)
from .harness import (
    ExperimentConfig,
    RealScenario,
    SyntheticScenario,
    TrialResult,
    aggregate,
    load_config,
    regret,
    run_experiment,
    run_to_dir,
    test_error,
)
from .ingest import DatasetManifest, SplitSpec, dbar_for, load_csv, split
from .oracle import OracleConfig, mc_H_moments, mc_risk_ratio, mc_trace_target

