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
    check_condition,
    interlacing_gate,
    normal_matrix,
    ridge_lse,
    solve_normal,
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
    return kfold_cv_design(build_design(basis, data.X, d), data.y, k, ridge_lambda, seed)


def _folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    if n < k:
        raise ValueError(f"need n >= k folds, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(n), k)


def kfold_cv_design(
    design: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    ridge_lambda: float = DEFAULT_RIDGE,
    seed: int = 0,
) -> float:
    """`kfold_cv` from the labeled design matrix and responses."""
    n = design.shape[0]
    fold_errors = []
    for held in _folds(n, k, seed):
        mask = np.ones(n, dtype=bool)
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
    """`kfold_cv_design(design[:, :d], ...)` for every d = 1..d_max, from the d_max design.

    Each fold is fitted along the whole path, with its normal matrices
    condition-checked as `interlacing_gate` allows. A fold fits on
    `design[:, :d][mask]`, the rows `kfold_cv_design` gets; taking the rows
    first and the columns after would change the last bits of the fits.
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
            v = design[:, :d][mask]
            A = normal_matrix(v, ridge_lambda)
            try:
                if recheck:
                    check_condition(A, "normal matrix")
                alpha = solve_normal(A, v.T @ y_fit)
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
    if d == 1:
        return path.train_loss(d)
    labeled_X = np.atleast_2d(np.asarray(labeled_X, dtype=float))
    design_l = build_design(path.basis, labeled_X, d)
    return adj_design(path, design_l, build_design(path.basis, unlabeled.X, d), d)


def adj_design(path: ModelPath, design_l: np.ndarray, design_u: np.ndarray, d: int) -> float:
    """`adj` from the size-d labeled and unlabeled design matrices."""
    loss = path.train_loss(d)
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
    """`adj_design(path, design_l[:, :d], design_u[:, :d], d)` for every d = 1..d_max.

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
