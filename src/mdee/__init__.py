"""Multiplicative risk estimators for small-sample model selection.

The package implements the DEE family of bias-corrected risk estimators for
least-squares regression with unlabeled covariates, the classical baselines
they are compared against, Monte-Carlo oracles that verify the underlying
identities, and a reproducible experiment harness.
"""

__version__ = "0.1.0"
