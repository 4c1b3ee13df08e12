"""Synthetic data generation for the benchmark protocol.

Covariates are one-dimensional i.i.d. Gaussian, responses are a fixed target
function plus Gaussian noise. Train, unlabeled and test parts come from three
disjoint child streams of one seed, and each stream extends (never reshuffles)
when its sample count grows.
"""

from __future__ import annotations

import numpy as np

from .core import LabeledSet, UnlabeledSet

TARGETS = ("sinc", "step")


def target_eval(target: str, x):
    """Evaluate a named target function; vectorized over x.

    sinc is sin(4x)/(4x) with the continuous-limit value 1 at x = 0; step is
    the strict indicator of x > 0.
    """
    x = np.asarray(x, dtype=float)
    if target == "sinc":
        out = np.sinc(4.0 * x / np.pi)
    elif target == "step":
        out = (x > 0).astype(float)
    else:
        raise ValueError(f"unknown target {target!r}")
    if out.ndim == 0:
        return float(out)
    return out


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), index]))


def _labeled(rng, count, sd_x, sd_noise, target) -> LabeledSet:
    # One (count, 2) draw, covariate then noise, keeps row i identical
    # regardless of count, so a longer stream extends a shorter one.
    draws = rng.normal(size=(count, 2))
    X = draws[:, :1] * sd_x
    noise = draws[:, 1] * sd_noise
    y = target_eval(target, X[:, 0]) + noise
    return LabeledSet(X=X, y=y)


def generate(
    target: str, n: int, n_prime: int, n_test: int, noise_var: float, covariate_var: float = 1.0, seed: int = 0
) -> tuple[LabeledSet, UnlabeledSet, LabeledSet]:
    """Draw (train, unlabeled, test) of n, n_prime and n_test rows from three disjoint streams of seed, unchecked."""
    sd_x = float(np.sqrt(covariate_var))
    sd_noise = float(np.sqrt(noise_var))
    train = _labeled(_stream(seed, 0), n, sd_x, sd_noise, target)
    unlabeled = UnlabeledSet(X=_stream(seed, 1).normal(size=(n_prime, 1)) * sd_x)
    test = _labeled(_stream(seed, 2), n_test, sd_x, sd_noise, target)
    return train, unlabeled, test
