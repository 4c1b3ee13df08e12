"""Per-d and per-replication reference routes that the tests compare the production routes with.

The package scores every model size of a criterion at once
(`harness.CRITERIA`), and its one-size traces (`estimators.dee_trace`,
`mdee_trace`, `rmdee_trace`) are the last entries of those path routes. The
routes here take one size d at a time, as the estimators are defined: they
build the size-d designs, fit each size by its own `ridge_lse` solve and
solve or invert the labeled and block matrices by LU (`invert_blocks` and
the LU `dee_trace`, `mdee_trace` and `rmdee_trace`, under the package's
names). The oracle routes (`block_moments`, `risk_ratio`) take one
replication at a time and read the population rows once for C and once more
for its sampling error, a flat loop over `oracle._population_rows`' tiles;
`whole_chunk_population` sums those rows per whole `_CHUNK`-row chunk, the
yardstick for the tile route's last bits; `vectorized_blocks` draws the
closed form's block chunks one after another, each in one draw, and
`h1_variance_closed_form` takes the closed form's moments of both sides
together from whole copies (`moment_inputs_from`). The ingest routes (`load_csv_rows`, `standardized_split`) read a table row by
row with float() and standardize each part of a split on its own. Only tests
call them, so they live beside the tests and not in the shipped package.
Import them as `from reference import ...`; pytest puts this directory on the
path. Import `test_error` under another name, or pytest collects it as a test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from mdee import oracle
from mdee.baselines import RHO_FLOOR, _folds
from mdee.core import (
    DEFAULT_RIDGE,
    SQRT2,
    BasisSpec,
    LabeledSet,
    ModelPath,
    SingularDesignError,
    UnlabeledSet,
    build_design,
    check_condition,
    correlation_matrix,
    normal_matrix,
)
from mdee.estimators import (
    CriterionKind,
    block_corr_stack,
    block_sides,
    correction_factor,
    estimate_C_plus,
    flagged_blocks,
    moment_split,
)
from mdee.harness import RealScenario
from mdee.ingest import STD_FLOOR, _resolve_columns
from mdee.oracle import (
    N_GROUPS,
    HMomentsResult,
    MomentInputs,
    OracleConfig,
    RiskRatioResult,
    _aux_rng,
    _covariates,
    _design,
    _h_moments,
    _population_rows,
    closed_form_h1_variance,
)


@dataclass
class FittedModel:
    """One least-squares fit: its coefficients (the model size d is their length) and training loss."""

    alpha: np.ndarray
    train_loss: float


def _fourier_column(k: int, t: np.ndarray) -> np.ndarray:
    """k-th Fourier function evaluated elementwise: 1, sqrt(2)cos(pt), sqrt(2)sin(pt)."""
    if k == 1:
        return np.ones_like(t)
    p = k // 2
    if k % 2 == 0:
        return SQRT2 * np.cos(p * t)
    return SQRT2 * np.sin(p * t)


def basis_eval(basis: BasisSpec, k: int, t: float) -> float:
    """Evaluate the k-th basis function at a scalar point."""
    if k < 1:
        raise ValueError("basis index k must be >= 1")
    return float(_fourier_column(k, np.asarray(t, dtype=float)))


def coordinate_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis, added left to right: the order in which `core.build_design` adds coordinates."""
    total = values[..., 0]
    for j in range(1, values.shape[-1]):
        total = total + values[..., j]
    return total


def fourier_design(basis: BasisSpec, X, d: int) -> np.ndarray:
    """`core.build_design` column by column: a cos or sin of p * t per column, summed over coordinates."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([coordinate_sum(_fourier_column(k, X)) for k in range(1, d + 1)])


def block_corrs(designs: np.ndarray) -> np.ndarray:
    """`estimators.design_corrs` block by block, one `core.correlation_matrix` per (n, d) block design."""
    return np.stack([correlation_matrix(design) for design in designs])


def predict(basis: BasisSpec, X, alpha: np.ndarray) -> np.ndarray:
    """Model predictions sum_k alpha_k sum_m phi_k(x_m) for each row of X."""
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    return build_design(basis, X, len(alpha)) @ alpha


def ridge_lse(phi, y, ridge_lambda: float = DEFAULT_RIDGE) -> FittedModel:
    """Least squares fit through the ridge-augmented normal equations.

    Solves (Phi^T Phi + n*lambda*I) alpha = Phi^T y with a symmetric
    (Cholesky) factorization after a condition check. Scaling the penalty by n
    keeps lambda comparable with the per-row correlation matrix regardless of
    n. LAPACK's potrf/potrs are called directly, with the arguments scipy's
    `cho_factor`/`cho_solve` pass them, without that wrapper's per-call cost.
    """
    v = np.atleast_2d(np.asarray(phi, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if v.shape[0] != y.shape[0]:
        raise ValueError("design rows and response length differ")
    A = normal_matrix(v, ridge_lambda)
    check_condition(A, "normal matrix")
    factor, info = dpotrf(A, lower=1, clean=0)
    if info:  # pragma: no cover - condition check first
        raise SingularDesignError(f"normal matrix factorization failed: leading minor {info} not positive definite")
    alpha = dpotrs(factor, v.T @ y, lower=1)[0]
    return FittedModel(alpha=alpha, train_loss=empirical_loss(v, y, alpha))


def empirical_loss(phi, y, alpha) -> float:
    """Mean squared residual (1/n) ||y - Phi alpha||^2."""
    v = np.atleast_2d(np.asarray(phi, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    resid = y - v @ alpha
    return float(resid @ resid / y.shape[0])


@dataclass
class CorrectionEstimate:
    """One criterion evaluation at model size d.

    `factor` is (1 + tr_H/n)/(1 - d/n) and `risk` is factor times the model's
    training loss. `flagged_blocks` lists block indices whose jittered
    correlation matrix had condition number above the singularity limit.
    """

    d: int
    tr_H: float
    factor: float
    risk: float
    flagged_blocks: tuple[int, ...] = ()


def _inverse(jittered: np.ndarray, b: int) -> np.ndarray:
    try:
        return np.linalg.inv(jittered)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"block {b}: correlation matrix singular even with ridge jitter") from exc


def invert_blocks(
    corrs: np.ndarray, ridge: float = DEFAULT_RIDGE
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Invert each matrix in a (B, d, d) stack after adding ridge*I.

    Returns the inverses and the indices of blocks whose jittered matrix has
    condition number above COND_LIMIT (kept, but flagged for diagnostics).
    Raises SingularDesignError naming a block that cannot be inverted.
    """
    corrs = np.asarray(corrs, dtype=float)
    if corrs.ndim == 2:
        corrs = corrs[None]
    flagged = flagged_blocks(corrs, ridge)
    jittered = corrs + ridge * np.eye(corrs.shape[-1])
    try:
        invs = np.linalg.inv(jittered)
    except np.linalg.LinAlgError:
        # Invert one by one so the failing block can be named.
        invs = np.stack([_inverse(mat, b) for b, mat in enumerate(jittered)])
    return invs, flagged


def dee_trace(c_hat: np.ndarray, c_tilde: np.ndarray, ridge: float = DEFAULT_RIDGE) -> float:
    """Tr(C_hat^{-1} C_tilde) through a jittered solve.

    Raises SingularDesignError when the jittered labeled correlation matrix
    is numerically singular (condition above COND_LIMIT).
    """
    c_hat = np.asarray(c_hat, dtype=float)
    jittered = c_hat + ridge * np.eye(c_hat.shape[0])
    check_condition(jittered, "labeled correlation matrix")
    try:
        solved = np.linalg.solve(jittered, np.asarray(c_tilde, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("labeled correlation matrix singular") from exc
    return float(np.trace(solved))


def mdee_trace(
    block_corrs: np.ndarray,
    variant: CriterionKind,
    b1: int | None,
    ridge: float = DEFAULT_RIDGE,
) -> tuple[float, tuple[int, ...]]:
    """Tr(C_plus V_hat) from a stack of block correlation matrices, sides per `block_sides`.

    Only the V-side blocks are inverted; a SingularDesignError names a block by
    its index among them.
    """
    corrs = np.asarray(block_corrs, dtype=float)
    c_stop, v_start = block_sides(variant, b1, corrs.shape[0])
    c_plus = corrs[:c_stop].mean(axis=0)
    invs, flagged = invert_blocks(corrs[v_start:], ridge)
    v_hat = invs.mean(axis=0)
    return float(np.trace(c_plus @ v_hat)), tuple(b + v_start for b in flagged)


def rmdee_trace(
    block_corrs: np.ndarray,
    labeled: np.ndarray | None,
    ridge: float = DEFAULT_RIDGE,
) -> tuple[float, tuple[int, ...]]:
    """Median of per-block traces Tr(C_plus C_b^{-1}).

    C_plus averages every unlabeled block. When the labeled correlation
    matrix `labeled` is given it joins the trace list as block 0 (flag indices
    then start at 1 for the unlabeled blocks). A block whose jittered matrix
    cannot be inverted has trace +inf. An even count takes the mean of the two
    central order statistics.
    """
    corrs = np.asarray(block_corrs, dtype=float)
    c_plus = corrs.mean(axis=0)
    if labeled is not None:
        corrs = np.concatenate((np.asarray(labeled, dtype=float)[None], corrs))
    flagged = flagged_blocks(corrs, ridge)
    traces = []
    for mat in corrs + ridge * np.eye(corrs.shape[-1]):
        try:
            traces.append(float(np.trace(c_plus @ np.linalg.inv(mat))))
        except np.linalg.LinAlgError:
            traces.append(np.inf)
    return float(np.median(traces)), flagged


def _estimate(path: ModelPath, tr: float, n: int, d: int, flagged: tuple[int, ...] = ()) -> CorrectionEstimate:
    """The estimate at size d for trace tr: the training loss times `correction_factor`."""
    factor = correction_factor(tr, n, d)
    return CorrectionEstimate(d=d, tr_H=tr, factor=factor, risk=factor * path.train_loss(d), flagged_blocks=flagged)


def dee(
    path: ModelPath,
    labeled_X,
    unlabeled: UnlabeledSet,
    d: int,
    ridge: float = DEFAULT_RIDGE,
) -> CorrectionEstimate:
    """DEE risk estimate: tr_H = Tr(C_hat^{-1} C_tilde) over all unlabeled rows."""
    labeled_X = np.atleast_2d(np.asarray(labeled_X, dtype=float))
    if unlabeled.n < 1:
        raise ValueError("DEE requires at least one unlabeled row")
    n = labeled_X.shape[0]
    c_hat = correlation_matrix(build_design(path.basis, labeled_X, d))
    c_tilde = correlation_matrix(build_design(path.basis, unlabeled.X, d))
    return _estimate(path, dee_trace(c_hat, c_tilde, ridge), n, d)


def mdee(
    path: ModelPath,
    blocks: np.ndarray,
    variant: CriterionKind,
    b1: int | None,
    d: int,
    ridge: float = DEFAULT_RIDGE,
) -> CorrectionEstimate:
    """Block-partitioned risk estimate for one of the mDEE variants."""
    corrs = block_corr_stack(blocks, path.basis, d)
    tr, flagged = mdee_trace(corrs, variant, b1, ridge)
    return _estimate(path, tr, blocks.shape[1], d, flagged)


def rmdee(
    path: ModelPath,
    blocks: np.ndarray,
    labeled_X,
    d: int,
    ridge: float = DEFAULT_RIDGE,
) -> CorrectionEstimate:
    """Robust mDEE: median of per-block traces instead of their mean.

    The labeled covariates enter the median as block 0.
    """
    corrs = block_corr_stack(blocks, path.basis, d)
    tr, flagged = rmdee_trace(corrs, estimate_C_plus(labeled_X, path.basis, d), ridge)
    return _estimate(path, tr, blocks.shape[1], d, flagged)


def select_b1(
    blocks: np.ndarray,
    basis: BasisSpec,
    d: int,
    ridge: float = DEFAULT_RIDGE,
) -> tuple[int, float, float]:
    """Variance-minimizing block split for mDEE1, as (B1, a1, a2).

    Estimates the moment quantities of the vectorized block correlation
    matrices (mu) and their inverses (nu) across all B blocks, assembles

        a1 = Tr(Var(mu) Var(nu))/B + Tr(Var(mu) nu nu^T)
        a2 = Tr(Var(mu) Var(nu))/B + Tr(Var(nu) mu mu^T)

    with the plug-ins mu ~ mu_bar, nu ~ nu_bar, and returns them with the
    integer B1 minimizing a1/B1 + a2/(B - B1). The trace quantities are computed from
    centered vectors without materializing any d^2 x d^2 matrix:

        Tr(Var(mu) Var(nu)) = sum_{b,b'} (u_b^T v_b')^2 / (B-1)^2
        Tr(Var(mu) nu nu^T) = sum_b (u_b^T nu_bar)^2 / (B-1)
        Tr(Var(nu) mu mu^T) = sum_b (v_b^T mu_bar)^2 / (B-1)
    """
    if len(blocks) < 2:
        raise ValueError("cannot split fewer than two blocks")
    corrs = block_corr_stack(blocks, basis, d)
    invs, _ = invert_blocks(corrs, ridge)
    return moment_split(corrs, invs)


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
    pred_l_d = design_l @ path.alpha(d)
    pred_u_d = design_u @ path.alpha(d)
    ratios = []
    for j in range(1, d):
        alpha_j = path.alpha(j)
        diff_l = design_l[:, :j] @ alpha_j - pred_l_d
        diff_u = design_u[:, :j] @ alpha_j - pred_u_d
        rho_l = math.sqrt(float(np.mean(diff_l**2)))
        if rho_l < RHO_FLOOR:
            continue
        rho_u = math.sqrt(float(np.mean(diff_u**2)))
        ratios.append(rho_u / rho_l)
    factor = max(ratios) if ratios else 1.0
    return loss * factor


def test_error(model: FittedModel, test: LabeledSet, basis: BasisSpec) -> float:
    """Mean squared prediction error on the test set."""
    resid = test.y - predict(basis, test.X, model.alpha)
    return float(resid @ resid / test.n)


def population_corr(cfg: OracleConfig) -> np.ndarray:
    """C from the cfg.c_draws population rows, as `oracle._population_pass` returns it."""
    total = np.zeros((cfg.d, cfg.d))
    for X in _population_rows(cfg):
        v = _design(cfg, X)
        total += v.T @ v
    C = total / cfg.c_draws
    return 0.5 * (C + C.T)


def _quadratic_form_var(cfg: OracleConfig, mat: np.ndarray) -> float:
    """Variance of phi(x)^T mat phi(x) over the population rows of `population_corr`."""
    acc_sum = acc_sq = 0.0
    for X in _population_rows(cfg):
        v = _design(cfg, X)
        t = ((v @ mat) * v).sum(axis=1)
        acc_sum += t.sum()
        acc_sq += (t * t).sum()
    mean = acc_sum / cfg.c_draws
    return max(acc_sq / cfg.c_draws - mean * mean, 0.0)


def whole_chunk_population(cfg: OracleConfig, mat: np.ndarray) -> tuple[np.ndarray, float]:
    """`oracle._population_pass` with each whole chunk of `_CHUNK` rows drawn, designed and summed at once.

    The rows are the same values; only the grouping of the sums differs, so C
    and the spread differ from the tile route in their last bits.
    """
    rng = _aux_rng(cfg.seed, 1)
    total = np.zeros((cfg.d, cfg.d))
    acc_sum = acc_sq = 0.0
    for lo in range(0, cfg.c_draws, oracle._CHUNK):
        v = _design(cfg, _covariates(rng, min(oracle._CHUNK, cfg.c_draws - lo), cfg))
        total += v.T @ v
        t = ((v @ mat) * v).sum(axis=1)
        acc_sum += t.sum()
        acc_sq += (t * t).sum()
    C = total / cfg.c_draws
    mean = acc_sum / cfg.c_draws
    return 0.5 * (C + C.T), max(acc_sq / cfg.c_draws - mean * mean, 0.0)


def _reference_trace(cfg: OracleConfig, C: np.ndarray, design: np.ndarray, inv_sum: np.ndarray) -> float:
    """Tr(C C_hat^{-1}) of one replication's n-row design; adds C_hat^{-1} to inv_sum."""
    c_hat_inv = np.linalg.inv(correlation_matrix(design))
    inv_sum += c_hat_inv
    return np.trace(C @ c_hat_inv)


def _trace_summary(cfg: OracleConfig, trs: np.ndarray, inv_sum: np.ndarray) -> tuple[float, float, float]:
    """Mean of the replications' Tr(C C_hat^{-1}), its SE, and C's sampling error, which that SE includes."""
    v_bar = inv_sum / cfg.reps
    se_rep = trs.std(ddof=1) / np.sqrt(cfg.reps)
    se_c = np.sqrt(_quadratic_form_var(cfg, v_bar) / cfg.c_draws)
    return float(trs.mean()), float(np.hypot(se_rep, se_c)), float(se_c)


def _block_stats(cfg: OracleConfig, rng, n_blocks: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Designs, correlation matrices and exact inverses of n_blocks fresh blocks of n rows."""
    X = _covariates(rng, n_blocks * cfg.n, cfg)
    design = _design(cfg, X).reshape(n_blocks, cfg.n, cfg.d)
    corrs = block_corrs(design)
    return design, corrs, np.linalg.inv(corrs)


def vectorized_blocks(cfg: OracleConfig, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """`oracle._vectorized_blocks` one chunk after another."""
    dim = cfg.d * cfg.d
    mu_b = np.empty((n_blocks, dim))
    nu_b = np.empty((n_blocks, dim))
    done = 0
    chunk_idx = 0
    while done < n_blocks:
        count = min(oracle._CHUNK // max(cfg.n, 1), n_blocks - done) or 1
        rng = _aux_rng(cfg.seed, 3, chunk_idx)
        _, corrs, invs = _block_stats(cfg, rng, count)
        mu_b[done : done + count] = corrs.reshape(count, dim)
        nu_b[done : done + count] = invs.reshape(count, dim)
        done += count
        chunk_idx += 1
    return mu_b, nu_b


def moment_inputs_from(mu_b: np.ndarray, nu_b: np.ndarray) -> MomentInputs:
    """Moment quantities of the vectorized block matrices `vectorized_blocks` draws, both sides at once."""
    count = mu_b.shape[0]
    mu = mu_b.mean(axis=0)
    nu = nu_b.mean(axis=0)
    u = mu_b - mu
    var_mu = u.T @ u / (count - 1)
    v = nu_b - nu
    var_nu = v.T @ v / (count - 1)
    return MomentInputs(
        tr_varmu_varnu=float(np.trace(var_mu @ var_nu)),
        tr_varnu_mumu=float(mu @ var_nu @ mu),
        tr_varmu_nunu=float(nu @ var_mu @ nu),
    )


def h1_variance_closed_form(cfg: OracleConfig, B: int, B1: int, n_blocks: int) -> tuple[float, float]:
    """`oracle.mc_h1_variance_closed_form` from `vectorized_blocks`, each sample's moments from centered copies."""
    mu_b, nu_b = vectorized_blocks(cfg, n_blocks)
    full = closed_form_h1_variance(moment_inputs_from(mu_b, nu_b), B1, B - B1)
    bounds = np.linspace(0, n_blocks, N_GROUPS + 1, dtype=int)
    group_vals = [
        closed_form_h1_variance(moment_inputs_from(mu_b[lo:hi], nu_b[lo:hi]), B1, B - B1)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return float(full), float(np.std(group_vals, ddof=1) / np.sqrt(len(group_vals)))


def block_moments(cfg: OracleConfig, variants, B: int, B1: int | None = None) -> dict[CriterionKind, HMomentsResult]:
    """`oracle.mc_block_moments` one replication at a time."""
    sides = {v: block_sides(v, B1, B) for v in map(CriterionKind, variants)}
    C = population_corr(cfg)
    trs = {variant: np.empty(cfg.reps) for variant in sides}
    ref_trs = np.empty(cfg.reps)
    inv_sum = np.zeros((cfg.d, cfg.d))
    for rep in range(cfg.reps):
        design, corrs, invs = _block_stats(cfg, _aux_rng(cfg.seed, 0, rep), B)
        ref_trs[rep] = _reference_trace(cfg, C, design[0], inv_sum)
        for variant, (c_stop, v_start) in sides.items():
            c_plus = corrs[:c_stop].mean(axis=0)
            v_hat = invs[v_start:].mean(axis=0)
            trs[variant][rep] = np.trace(c_plus @ v_hat)
    ref = _trace_summary(cfg, ref_trs, inv_sum)
    return {variant: _h_moments(t, ref_trs, ref) for variant, t in trs.items()}


def risk_ratio(cfg: OracleConfig) -> RiskRatioResult:
    """`oracle.mc_risk_ratio` with each replication's reference trace taken inside its loop."""
    alpha_star = np.zeros(cfg.d)
    alpha_star[: len(cfg.truth)] = cfg.truth
    C = population_corr(cfg)
    losses = np.empty(cfg.reps)
    train_losses = np.empty(cfg.reps)
    trs = np.empty(cfg.reps)
    inv_sum = np.zeros((cfg.d, cfg.d))
    for rep in range(cfg.reps):
        rng = _aux_rng(cfg.seed, 0, rep)
        X = _covariates(rng, cfg.n, cfg)
        design = _design(cfg, X)
        y = design @ alpha_star + rng.normal(0.0, cfg.noise_sd, cfg.n)
        alpha_hat = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ alpha_hat
        train_losses[rep] = resid @ resid / cfg.n
        X_test = _covariates(rng, cfg.n_test, cfg)
        design_test = _design(cfg, X_test)
        y_test = design_test @ alpha_star + rng.normal(0.0, cfg.noise_sd, cfg.n_test)
        err = y_test - design_test @ alpha_hat
        losses[rep] = err @ err / cfg.n_test
        trs[rep] = _reference_trace(cfg, C, design, inv_sum)
    e_loss = float(losses.mean())
    e_train = float(train_losses.mean())
    se_loss = float(losses.std(ddof=1) / np.sqrt(cfg.reps))
    se_train = float(train_losses.std(ddof=1) / np.sqrt(cfg.reps))
    ratio = e_loss / e_train
    cov = float(np.cov(losses, train_losses, ddof=1)[0, 1])
    var_ratio = (
        np.var(losses, ddof=1)
        + ratio**2 * np.var(train_losses, ddof=1)
        - 2.0 * ratio * cov
    ) / (e_train**2 * cfg.reps)
    se_ratio = float(np.sqrt(max(var_ratio, 0.0)))
    mean_tr, se_tr, _ = _trace_summary(cfg, trs, inv_sum)
    return RiskRatioResult(
        e_loss=e_loss,
        se_loss=se_loss,
        e_train_loss=e_train,
        se_train_loss=se_train,
        ratio=ratio,
        se_ratio=se_ratio,
        mean_tr_ccinv=mean_tr,
        se_tr_ccinv=se_tr,
        reps=cfg.reps,
    )


def load_csv_rows(manifest: RealScenario) -> np.ndarray:
    """`ingest.load_csv` row by row: csv records, one float() and one isfinite per cell."""
    path = Path(manifest.path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle, delimiter=manifest.delimiter)
        header = None
        first_line = 1
        if manifest.has_header:
            try:
                header = [cell.strip() for cell in next(reader)]
            except StopIteration:
                raise ValueError(f"{manifest.name}: {str(path)!r} is empty, with no header row") from None
            first_line = 2
        cov_idx, resp_idx = _resolve_columns(manifest, header)
        needed = max(max(cov_idx), resp_idx) + 1
        rows = []
        for line_no, row in enumerate(reader, start=first_line):
            if len(row) < needed:
                raise ValueError(
                    f"{manifest.name}: line {line_no}: expected at least "
                    f"{needed} columns, got {len(row)}"
                )
            try:
                values = [float(row[i]) for i in cov_idx] + [float(row[resp_idx])]
            except ValueError:
                raise ValueError(
                    f"{manifest.name}: line {line_no}: non-numeric cell"
                ) from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{manifest.name}: line {line_no}: non-finite cell")
            rows.append(values)
    if not rows:
        raise ValueError(f"{manifest.name}: no data rows")
    return np.asarray(rows, dtype=float)


def standardized_split(
    table: np.ndarray, n: int, n_prime: int, seed: int = 0, standardize: bool = True
) -> tuple[LabeledSet, UnlabeledSet, LabeledSet]:
    """`ingest.split` part by part: the train and pool covariates stacked for the statistics, each part rescaled on its own."""
    table = np.asarray(table, dtype=float)
    total = table.shape[0]
    perm = np.random.default_rng(seed).permutation(total)
    shuffled = table[perm]
    train_rows = shuffled[:n]
    pool_rows = shuffled[n : n + n_prime]
    test_rows = shuffled[n + n_prime :]

    train_X, pool_X, test_X = train_rows[:, :-1], pool_rows[:, :-1], test_rows[:, :-1]
    if standardize:
        reference = np.vstack([train_X, pool_X])
        mean = reference.mean(axis=0)
        std = reference.std(axis=0)
        scale = np.where(std > STD_FLOOR, std, 1.0)
        train_X = (train_X - mean) / scale
        pool_X = (pool_X - mean) / scale
        test_X = (test_X - mean) / scale
    train = LabeledSet(X=train_X, y=train_rows[:, -1])
    unlabeled = UnlabeledSet(X=pool_X)
    test = LabeledSet(X=test_X, y=test_rows[:, -1])
    return train, unlabeled, test
