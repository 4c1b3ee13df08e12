"""Comparison criteria: FPE, corrected AIC, k-fold CV and the ADJ adjustment.

All baselines return +inf sentinels instead of raising, so model selection
over a path stays total even when a criterion is undefined at some d.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DEFAULT_RIDGE,
    BasisSpec,
    LabeledSet,
    ModelPath,
    SingularDesignError,
    UnlabeledSet,
    build_design,
    interlacing_gate,
    normal_matrix,
    ridge_lse,
    solve_ridge,
)

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


def kfold_cv(
    data: LabeledSet,
    basis: BasisSpec,
    d: int,
    k: int = 5,
    ridge_lambda: float = DEFAULT_RIDGE,
    seed: int = 0,
) -> float:
    """Average held-out MSE over a seeded random k-fold partition.

    Fold sizes differ by at most one row. Using the same seed for every d
    keeps the partition shared across the model path. A fold that fails to
    fit yields the +inf sentinel.
    """
    design, y = build_design(basis, data.X, d), data.y
    fold_errors = []
    for held in _folds(data.n, k, seed):
        mask = np.ones(data.n, dtype=bool)
        mask[held] = False
        try:
            fit = ridge_lse(design[mask], y[mask], ridge_lambda)
        except SingularDesignError:
            return math.inf
        resid = y[held] - design[held] @ fit.alpha
        fold_errors.append(float(resid @ resid / held.size))
    return float(np.mean(fold_errors))


def kfold_cv_path(
    design: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    ridge_lambda: float = DEFAULT_RIDGE,
    seed: int = 0,
) -> list[float]:
    """`kfold_cv` at every d = 1..d_max, from the labeled d_max design and responses.

    Each fold is fitted along the whole path by `solve_ridge`, with its normal
    matrices condition-checked as `interlacing_gate` allows. A fold fits on
    `design[:, :d][mask]`, the rows `kfold_cv` fits on; taking the rows first
    and the columns after would change the last bits of the fits.
    """
    n, d_max = design.shape
    folds = _folds(n, k, seed)
    errors = np.zeros((k, d_max))
    failed = np.zeros(d_max, dtype=bool)
    for f, held in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        y_fit, y_held = y[mask], y[held]
        recheck = interlacing_gate(normal_matrix(design[mask], ridge_lambda))
        for d in range(1, d_max + 1):
            try:
                alpha = solve_ridge(design[:, :d][mask], y_fit, ridge_lambda, recheck)
            except SingularDesignError:
                failed[d - 1] = True
                continue
            resid = y_held - design[:, :d][held] @ alpha
            errors[f, d - 1] = resid @ resid / held.size
    risks = np.mean(errors, axis=0)
    risks[failed] = math.inf
    return risks.tolist()


def adj(path: ModelPath, labeled_X, unlabeled: UnlabeledSet, d: int) -> float:
    """Metric-based adjustment of the training loss.

    Multiplies L_D(d) by the worst ratio of unlabeled to labeled RMS
    prediction distance between f_d and each smaller model f_j. Ratios whose
    labeled distance falls below RHO_FLOOR are skipped; with no usable ratio
    (in particular at d = 1) the factor is 1.
    """
    loss = path.train_loss(d)
    if d == 1:
        return loss
    design_l = build_design(path.basis, np.atleast_2d(np.asarray(labeled_X, dtype=float)), d)
    design_u = build_design(path.basis, unlabeled.X, d)
    pred_l_d = design_l @ path.model(d).alpha
    pred_u_d = design_u @ path.model(d).alpha
    ratios = []
    for j in range(1, d):
        alpha_j = path.model(j).alpha
        diff_l = design_l[:, :j] @ alpha_j - pred_l_d
        diff_u = design_u[:, :j] @ alpha_j - pred_u_d
        rho_l = math.sqrt(float(np.mean(diff_l**2)))
        if rho_l < RHO_FLOOR:
            continue
        rho_u = math.sqrt(float(np.mean(diff_u**2)))
        ratios.append(rho_u / rho_l)
    factor = max(ratios) if ratios else 1.0
    return loss * factor


def adj_path(path: ModelPath, design_l: np.ndarray, design_u: np.ndarray) -> list[float]:
    """`adj` at every d = 1..d_max, from the labeled and pool d_max designs.

    Each model's labeled and pool predictions are formed once and stacked, so
    every rho(j, d) is the RMS difference of two rows.
    """
    preds_l = np.stack([design_l[:, : m.d] @ m.alpha for m in path.models])
    preds_u = np.stack([design_u[:, : m.d] @ m.alpha for m in path.models])
    risks = [path.train_loss(1)]
    for d in range(2, path.d_max + 1):
        rho_l = np.sqrt(np.mean((preds_l[: d - 1] - preds_l[d - 1]) ** 2, axis=1))
        rho_u = np.sqrt(np.mean((preds_u[: d - 1] - preds_u[d - 1]) ** 2, axis=1))
        ratios = [float(u / l) for l, u in zip(rho_l, rho_u) if not l < RHO_FLOOR]
        factor = max(ratios) if ratios else 1.0
        risks.append(path.train_loss(d) * factor)
    return risks
