"""Synthetic data generation for the benchmark protocol.

Covariates are one-dimensional i.i.d. Gaussian, responses are a fixed target
function plus Gaussian noise. Train, unlabeled and test parts come from three
disjoint child streams of one seed, and each stream extends (never reshuffles)
when its sample count grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledSet, UnlabeledSet

TARGETS = ("sinc", "step")


@dataclass
class SyntheticConfig:
    target: str
    n: int
    n_prime: int
    n_test: int
    noise_var: float
    covariate_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; expected one of {TARGETS}")
        if min(self.n, self.n_prime, self.n_test) < 0:
            raise ValueError("sample counts must be nonnegative")
        if not 0 <= self.noise_var < np.inf:
            raise ValueError(f"noise_var must be finite and nonnegative, got {self.noise_var}")
        if not 0 < self.covariate_var < np.inf:
            raise ValueError(f"covariate_var must be finite and positive, got {self.covariate_var}")


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


def generate(cfg: SyntheticConfig) -> tuple[LabeledSet, UnlabeledSet, LabeledSet]:
    """Draw (train, unlabeled, test) from three disjoint streams of cfg.seed."""
    sd_x = float(np.sqrt(cfg.covariate_var))
    sd_noise = float(np.sqrt(cfg.noise_var))
    train = _labeled(_stream(cfg.seed, 0), cfg.n, sd_x, sd_noise, cfg.target)
    pool = _stream(cfg.seed, 1).normal(size=(cfg.n_prime, 1)) * sd_x
    unlabeled = UnlabeledSet(X=pool)
    test = _labeled(_stream(cfg.seed, 2), cfg.n_test, sd_x, sd_noise, cfg.target)
    return train, unlabeled, test
