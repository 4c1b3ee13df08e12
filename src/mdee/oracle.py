"""Monte-Carlo oracles for the exact correction factor and trace moments.

These brute-force estimators exist to verify, at desk scale, that the exact
risk-ratio identity and the bias/variance formulas of the blockwise trace
estimators hold. Every estimate carries a standard error; callers should
assert |estimate - target| within a multiple of the SE, never exact equality.

Model fits here go through `numpy.linalg.lstsq` on purpose, keeping the
oracle route independent of the package's Cholesky-based solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BasisSpec, build_design
from .estimators import CriterionKind, block_sides

_C_CACHE: dict[tuple, np.ndarray] = {}

_CHUNK = 100_000
# Fewest replications mc_trace_target accepts for its reference trace.
MIN_TRACE_REPS = 100


@dataclass
class OracleConfig:
    basis: BasisSpec
    d: int
    n: int
    noise_sd: float
    covariate_sd: float
    truth: np.ndarray | str
    reps: int
    seed: int = 0
    n_test: int = 10_000
    c_draws: int = 1_000_000

    def __post_init__(self):
        if not 1 <= self.d < self.n:
            raise ValueError(f"oracle needs 1 <= d < n, got d={self.d}, n={self.n}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.truth, str):
            self.truth = np.asarray(self.truth, dtype=float).reshape(-1)

    def inside_model(self) -> bool:
        return not isinstance(self.truth, str) and len(self.truth) <= self.d


@dataclass
class RiskRatioResult:
    e_loss: float
    se_loss: float
    e_train_loss: float
    se_train_loss: float
    ratio: float
    se_ratio: float
    mean_tr_ccinv: float
    se_tr_ccinv: float
    degenerate: bool
    reps: int


@dataclass
class TraceTargetResult:
    tr_cv: float
    se: float
    reps: int


@dataclass
class HMomentsResult:
    """Moments of one blockwise trace estimator and its bias against the mc_trace_target reference.

    `se_bias` is hypot(se_mean, se_ref), which treats the two estimates as
    independent. They are not: replication r of both reads the same stream, so
    its first n rows are shared (block 0 here, the reference sample there). The
    sign of the correlation depends on the side block 0 feeds. At n=20, d=3,
    B=30, B1=10 (3000 replications) the per-replication traces correlated
    +0.21 for mDEE3, where block 0 is on both sides, so `se_bias` overstates
    the true error and the check is conservative; and -0.13 for mDEE1, where
    block 0 feeds only C_plus, so `se_bias` understates it, by about 3%.
    """

    mean_tr: float
    se_mean: float
    var: float
    se_var: float
    bias: float
    se_bias: float
    tr_cv_ref: float
    se_ref: float
    reps: int


def _rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), 0, rep]))


def _aux_rng(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, index]))


def _design(cfg: OracleConfig, X: np.ndarray) -> np.ndarray:
    return build_design(cfg.basis, X, cfg.d)


def _covariates(rng, count: int, cfg: OracleConfig) -> np.ndarray:
    return rng.normal(0.0, cfg.covariate_sd, (count, cfg.basis.covariate_dim))


def _population_designs(cfg: OracleConfig):
    """Designs of the cfg.c_draws population rows, in chunks, from one fixed child of cfg.seed."""
    rng = _aux_rng(cfg.seed, 1)
    remaining = cfg.c_draws
    while remaining > 0:
        count = min(_CHUNK, remaining)
        yield _design(cfg, _covariates(rng, count, cfg))
        remaining -= count


def true_corr(cfg: OracleConfig) -> np.ndarray:
    """Population feature correlation matrix estimated from cfg.c_draws draws.

    Cached per configuration; the rows come from `_population_designs`, so
    repeated calls agree bit for bit.
    """
    key = (
        cfg.basis.kind,
        cfg.basis.covariate_dim,
        cfg.d,
        float(cfg.covariate_sd),
        int(cfg.seed),
        int(cfg.c_draws),
    )
    if key not in _C_CACHE:
        total = np.zeros((cfg.d, cfg.d))
        for v in _population_designs(cfg):
            total += v.T @ v
        C = total / cfg.c_draws
        _C_CACHE[key] = 0.5 * (C + C.T)
    return _C_CACHE[key]


def _quadratic_form_var(cfg: OracleConfig, mat: np.ndarray) -> float:
    """Variance of phi(x)^T mat phi(x) over the population rows of true_corr."""
    acc_sum = acc_sq = 0.0
    for v in _population_designs(cfg):
        t = np.einsum("ij,jk,ik->i", v, mat, v)
        acc_sum += t.sum()
        acc_sq += (t * t).sum()
    mean = acc_sum / cfg.c_draws
    return max(acc_sq / cfg.c_draws - mean * mean, 0.0)


def _trace_summary(cfg: OracleConfig, trs: np.ndarray, inv_sum: np.ndarray) -> tuple[float, float]:
    """Mean of the replications' Tr(C C_hat^{-1}) and its SE, C's sampling error included."""
    v_bar = inv_sum / cfg.reps
    se_rep = trs.std(ddof=1) / np.sqrt(cfg.reps)
    se_c = np.sqrt(_quadratic_form_var(cfg, v_bar) / cfg.c_draws)
    return float(trs.mean()), float(np.hypot(se_rep, se_c))


def mc_risk_ratio(cfg: OracleConfig) -> RiskRatioResult:
    """Estimate E[L], E[L_D] and their ratio over independent replications.

    The truth must be an inside-model coefficient vector so that the
    residual-independence assumption behind the exact ratio identity holds
    exactly. The ratio's standard error comes from the delta method; the
    per-replication trace of C C_hat^{-1} is tracked against the cached
    population C so the exact-correction identity can be checked from the
    same replications.
    """
    if isinstance(cfg.truth, str) or not cfg.inside_model():
        raise ValueError("mc_risk_ratio requires an inside-model coefficient truth")
    alpha_star = np.zeros(cfg.d)
    alpha_star[: len(cfg.truth)] = cfg.truth
    C = true_corr(cfg)
    losses = np.empty(cfg.reps)
    train_losses = np.empty(cfg.reps)
    trs = np.empty(cfg.reps)
    inv_sum = np.zeros((cfg.d, cfg.d))
    for rep in range(cfg.reps):
        rng = _rep_rng(cfg.seed, rep)
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
        c_hat_inv = np.linalg.inv(design.T @ design / cfg.n)
        inv_sum += c_hat_inv
        trs[rep] = np.trace(C @ c_hat_inv)
    e_loss = float(losses.mean())
    e_train = float(train_losses.mean())
    se_loss = float(losses.std(ddof=1) / np.sqrt(cfg.reps))
    se_train = float(train_losses.std(ddof=1) / np.sqrt(cfg.reps))
    degenerate = cfg.noise_sd == 0.0 or e_train <= 0.0
    if degenerate:
        ratio, se_ratio = float("nan"), float("nan")
    else:
        ratio = e_loss / e_train
        cov = float(np.cov(losses, train_losses, ddof=1)[0, 1])
        var_ratio = (
            np.var(losses, ddof=1)
            + ratio**2 * np.var(train_losses, ddof=1)
            - 2.0 * ratio * cov
        ) / (e_train**2 * cfg.reps)
        se_ratio = float(np.sqrt(max(var_ratio, 0.0)))
    mean_tr, se_tr = _trace_summary(cfg, trs, inv_sum)
    return RiskRatioResult(
        e_loss=e_loss,
        se_loss=se_loss,
        e_train_loss=e_train,
        se_train_loss=se_train,
        ratio=ratio,
        se_ratio=se_ratio,
        mean_tr_ccinv=mean_tr,
        se_tr_ccinv=se_tr,
        degenerate=degenerate,
        reps=cfg.reps,
    )


def mc_trace_target(cfg: OracleConfig) -> TraceTargetResult:
    """Estimate Tr(C E[C_hat^{-1}]) by brute force.

    C comes from the cached large-sample estimate; its sampling error and the
    replication spread both enter the reported standard error.
    """
    if cfg.reps < MIN_TRACE_REPS:
        raise ValueError(f"mc_trace_target needs reps >= {MIN_TRACE_REPS}")
    C = true_corr(cfg)
    trs = np.empty(cfg.reps)
    inv_sum = np.zeros((cfg.d, cfg.d))
    for rep in range(cfg.reps):
        rng = _rep_rng(cfg.seed, rep)
        design = _design(cfg, _covariates(rng, cfg.n, cfg))
        inv = np.linalg.inv(design.T @ design / cfg.n)
        inv_sum += inv
        trs[rep] = np.trace(C @ inv)
    tr_cv, se = _trace_summary(cfg, trs, inv_sum)
    return TraceTargetResult(tr_cv=tr_cv, se=se, reps=cfg.reps)


def _block_stats(cfg: OracleConfig, rng, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Correlation matrices and exact inverses for n_blocks fresh blocks."""
    X = _covariates(rng, n_blocks * cfg.n, cfg)
    design = _design(cfg, X).reshape(n_blocks, cfg.n, cfg.d)
    corrs = np.einsum("bij,bik->bjk", design, design) / cfg.n
    return corrs, np.linalg.inv(corrs)


def _h_moments(trs: np.ndarray, ref: TraceTargetResult) -> HMomentsResult:
    """Mean and variance of one variant's per-replication traces, and their bias against ref."""
    mean_tr = float(trs.mean())
    se_mean = float(trs.std(ddof=1) / np.sqrt(trs.size))
    var = float(trs.var(ddof=1))
    m4 = float(np.mean((trs - mean_tr) ** 4))
    se_var = float(np.sqrt(max(m4 - var**2, 0.0) / trs.size))
    return HMomentsResult(
        mean_tr=mean_tr, se_mean=se_mean, var=var, se_var=se_var, bias=mean_tr - ref.tr_cv,
        se_bias=float(np.hypot(se_mean, ref.se)), tr_cv_ref=ref.tr_cv, se_ref=ref.se, reps=trs.size,
    )


def mc_block_moments(
    cfg: OracleConfig, variants, B: int, B1: int | None = None
) -> dict[CriterionKind, HMomentsResult]:
    """Bias and variance of the blockwise trace estimators of Tr(CV), per variant.

    Each replication draws an independent pool of B*n covariate rows, forms the
    per-block correlation matrices and their exact inverses, and feeds every
    requested variant its `block_sides` of them. The bias is reported against
    one mc_trace_target reference with both standard errors propagated as if
    independent. Replication r here and there read the same stream, so block 0
    is that replication's reference sample and the two are correlated (see
    `HMomentsResult` for the size and sign).
    """
    if B < 2:
        raise ValueError("mc_block_moments needs B >= 2")
    sides = {v: block_sides(v, B1, B) for v in map(CriterionKind, variants)}
    trs = {variant: np.empty(cfg.reps) for variant in sides}
    for rep in range(cfg.reps):
        corrs, invs = _block_stats(cfg, _rep_rng(cfg.seed, rep), B)
        for variant, (c_stop, v_start) in sides.items():
            c_plus = corrs[:c_stop].mean(axis=0)
            v_hat = invs[v_start:].mean(axis=0)
            trs[variant][rep] = np.trace(c_plus @ v_hat)
    ref = mc_trace_target(cfg)
    return {variant: _h_moments(t, ref) for variant, t in trs.items()}


def mc_H_moments(cfg: OracleConfig, variant, B: int, B1: int | None = None) -> HMomentsResult:
    """`mc_block_moments` of one variant."""
    return mc_block_moments(cfg, [variant], B, B1)[CriterionKind(variant)]


@dataclass
class MomentInputs:
    tr_varmu_varnu: float
    tr_varnu_mumu: float
    tr_varmu_nunu: float


def _vectorized_blocks(cfg: OracleConfig, tag: int, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized correlation matrices and inverses of n_blocks independent blocks.

    Blocks are drawn in chunks; chunk k comes from the auxiliary stream
    (cfg.seed, tag, k), so each caller's tag gives it its own draws.
    """
    dim = cfg.d * cfg.d
    mu_b = np.empty((n_blocks, dim))
    nu_b = np.empty((n_blocks, dim))
    done = 0
    chunk_idx = 0
    while done < n_blocks:
        count = min(_CHUNK // max(cfg.n, 1), n_blocks - done) or 1
        rng = _aux_rng(cfg.seed, tag, chunk_idx)
        corrs, invs = _block_stats(cfg, rng, count)
        mu_b[done : done + count] = corrs.reshape(count, dim)
        nu_b[done : done + count] = invs.reshape(count, dim)
        done += count
        chunk_idx += 1
    return mu_b, nu_b


def _moment_inputs_from(mu_b: np.ndarray, nu_b: np.ndarray) -> MomentInputs:
    """Moment quantities of the vectorized block matrices `_vectorized_blocks` draws.

    Materializes the d^2 x d^2 covariance matrices explicitly, which keeps
    this route independent of the centered-trace shortcuts used by the block
    split rule.
    """
    count = mu_b.shape[0]
    mu = mu_b.mean(axis=0)
    nu = nu_b.mean(axis=0)
    u = mu_b - mu
    v = nu_b - nu
    var_mu = u.T @ u / (count - 1)
    var_nu = v.T @ v / (count - 1)
    return MomentInputs(
        tr_varmu_varnu=float(np.trace(var_mu @ var_nu)),
        tr_varnu_mumu=float(mu @ var_nu @ mu),
        tr_varmu_nunu=float(nu @ var_mu @ nu),
    )


def closed_form_h1_variance(inputs: MomentInputs, B1: int, B2: int) -> float:
    """Variance formula for the disjoint-split trace estimator."""
    return (
        inputs.tr_varmu_varnu / (B1 * B2)
        + inputs.tr_varnu_mumu / B2
        + inputs.tr_varmu_nunu / B1
    )


def mc_h1_variance_closed_form(
    cfg: OracleConfig, B: int, B1: int, n_blocks: int = 100_000, n_groups: int = 10
) -> tuple[float, float]:
    """Closed-form variance of the disjoint-split trace with an MC error bar.

    The moment inputs come from n_blocks independent blocks; the standard
    error is the spread of the closed form recomputed on n_groups disjoint
    subsamples, scaled to the full sample size.
    """
    B2 = B - B1
    if B2 < 1 or B1 < 1:
        raise ValueError("need 1 <= B1 <= B-1")
    mu_b, nu_b = _vectorized_blocks(cfg, 3, n_blocks)
    full = closed_form_h1_variance(_moment_inputs_from(mu_b, nu_b), B1, B2)
    group_vals = []
    bounds = np.linspace(0, n_blocks, n_groups + 1, dtype=int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 2:
            continue
        group_vals.append(
            closed_form_h1_variance(_moment_inputs_from(mu_b[lo:hi], nu_b[lo:hi]), B1, B2)
        )
    se = float(np.std(group_vals, ddof=1) / np.sqrt(len(group_vals)))
    return float(full), se
