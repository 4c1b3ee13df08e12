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
    inverse_factor,
    normal_matrix,
    ridge_lse,
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
) -> np.ndarray:
    """`kfold_cv` at every d = 1..d_max, from the labeled d_max design and responses.

    Each fold is factored once. The leading d x d block of the lower Cholesky
    factor L of the fold's d_max normal matrix is the factor of its size-d
    normal matrix, so with z = L^{-1} V^T y and W = V_held L^{-T} the size-d
    fit predicts the held-out rows as the sum of the first d columns of W * z.
    Where LAPACK finds leading minor k not positive definite, sizes k and up
    are +inf. When `interlacing_gate` flags the fold, each size's own normal
    matrix, of `design[:, :d][mask]` as in `kfold_cv`, is condition-checked,
    and sizes above the limit are +inf. The finite risks differ from
    `kfold_cv` in the last bits only.
    """
    n, d_max = design.shape
    errors = np.zeros((k, d_max))
    failed = np.zeros(d_max, dtype=bool)
    for f, held in enumerate(_folds(n, k, seed)):
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        fit = design[mask]
        normal = normal_matrix(fit, ridge_lambda)
        inv, top = inverse_factor(normal)
        failed[top:] = True
        if interlacing_gate(normal, inv, top):
            for d in range(1, top + 1):
                try:
                    check_condition(normal_matrix(design[:, :d][mask], ridge_lambda), "normal matrix")
                except SingularDesignError:
                    failed[d - 1] = True
        if top < 1:
            continue
        z = inv @ (fit[:, :top].T @ y[mask])
        preds = np.cumsum(design[held, :top] @ inv.T * z, axis=1)
        errors[f, :top] = np.mean((y[held, None] - preds) ** 2, axis=0)
    risks = np.mean(errors, axis=0)
    risks[failed] = math.inf
    return risks


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
