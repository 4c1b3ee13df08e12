"""Comparison criteria: FPE, corrected AIC, k-fold CV and the ADJ adjustment.

All baselines return +inf sentinels instead of raising, so model selection
over a path stays total even when a criterion is undefined at some d. CV5
and ADJ score every size of the path at once; their per-d references
`kfold_cv` and `adj` are in `tests/reference.py`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DEFAULT_RIDGE, ModelPath, path_fits

RHO_FLOOR = 1e-12


def fpe(train_loss: float, n: int, d: int) -> float:
    """Final prediction error: L * (n + d) / (n - d)."""
    if d >= n:
        return math.inf
    return train_loss * (n + d) / (n - d)


def caic(train_loss: float, n: int, d: int) -> float:
    """Small-sample corrected AIC: n ln(L) + n (n + d) / (n - d - 2)."""
    if n - d - 2 <= 0 or train_loss <= 0:
        return math.inf
    return n * math.log(train_loss) + n * (n + d) / (n - d - 2)


def _folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    if n < k:
        raise ValueError(f"need n >= k folds, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), k)


def kfold_cv_path(
    design: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    ridge_lambda: float = DEFAULT_RIDGE,
    seed: int = 0,
) -> np.ndarray:
    """Average held-out MSE over a seeded random k-fold partition at every d = 1..d_max.

    It reads the labeled d_max design and responses. Fold sizes differ by at
    most one row, and the partition is shared by every size. Each fold is
    fitted once by `core.path_fits`, and one product predicts its held-out
    rows at every size. As on the path fit, a fold's sizes from its first
    failing size on are +inf: where its factorization stops or a gated size
    fails its condition check. The per-d `kfold_cv` checks each size on its
    own; by Cauchy interlacing a larger size passes after a smaller one failed
    only through rounding near COND_LIMIT, and only there can it stay finite
    where this route is +inf. The finite risks differ from `kfold_cv` in the
    last bits only.
    """
    n, d_max = design.shape
    errors = np.zeros((k, d_max))
    reached = d_max
    for f, held in enumerate(_folds(n, k, seed)):
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        alphas = path_fits(design[mask], y[mask], ridge_lambda)[0]
        size = len(alphas)
        reached = min(reached, size)
        preds = design[held, :size] @ alphas.T
        errors[f, :size] = np.mean((y[held, None] - preds) ** 2, axis=0)
    risks = np.mean(errors, axis=0)
    risks[reached:] = math.inf
    return risks


def adj_path(path: ModelPath, design_l: np.ndarray, pool_factor: np.ndarray) -> np.ndarray:
    """Metric-based adjustment of the training loss at every d = 1..d_max.

    It multiplies L_D(d) by the worst ratio rho_u(j, d) / rho_l(j, d) of pool
    to labeled RMS prediction distance between f_d and each smaller model f_j.
    Ratios whose labeled distance falls below RHO_FLOOR are skipped; with no
    usable ratio (in particular at d = 1) the factor is 1. It reads the
    labeled d_max design and a triangular factor of the pool's.

    rho_l(j, d) is the RMS difference of the two models' labeled predictions,
    as in the per-d `adj`, so the pairs skipped below RHO_FLOOR are the same.
    The pool side reads `pool_factor`, the R of a QR factorization of the d_max
    pool design over the square root of its row count (R^T R is the pool
    correlation matrix C~): rho_u(j, d) = ||R delta||, with delta = alpha_j
    zero-padded minus alpha_d, for all pairs at once. Like the pool predictions
    of `adj`, and unlike the quadratic form delta^T C~ delta, this keeps its
    digits when delta is nearly in C~'s null space, where rho_u and rho_l are
    tiny; forming delta first keeps the cancellation of nearby models out of
    it. The risks differ from `adj` in the last bits only.
    """
    D, alphas = path.d_max, path.alphas
    preds = np.stack([design_l[:, :d] @ path.alpha(d) for d in range(1, D + 1)])
    rho_l = np.sqrt(np.mean((preds[:, None] - preds[None]) ** 2, axis=-1))
    deltas = (alphas[:, None] - alphas[None]).reshape(D * D, D)
    rho_u = np.sqrt(np.square(deltas @ pool_factor.T).sum(axis=-1)).reshape(D, D)
    usable = np.triu(~(rho_l < RHO_FLOOR), k=1)  # pairs j < d, indexed [j - 1, d - 1]
    ratios = np.divide(rho_u, rho_l, out=np.full((D, D), -np.inf), where=usable)
    factors = ratios.max(axis=0)
    factors[~usable.any(axis=0)] = 1.0
    return path.losses * factors
