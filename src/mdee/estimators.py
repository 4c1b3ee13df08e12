"""The DEE family of multiplicative risk estimators.

Each criterion estimates the trace of C*V, with C the population feature
correlation matrix and V the expectation of the inverse empirical correlation
matrix, then corrects the training loss by

    T(n, d) = (1 + tr/n) / (1 - d/n).

DEE plugs in the inverse of the labeled-sample correlation matrix against the
unlabeled one. The mDEE variants instead cut the unlabeled pool into blocks
of the training size and combine block-level correlation matrices (for C) and
block-level inverses (for V); they differ only in which blocks feed each side.
rmDEE replaces the mean of per-block traces with their median, which survives
near-singular blocks. The block split for mDEE1 is chosen by the closed-form
variance-minimizing rule implemented in `select_b1`.

`dee_trace_path`, `mdee_trace_path` and `rmdee_trace_path` give the traces at
every model size from one Cholesky factor of the labeled matrix or per block at
the largest size (`inverse_factors`). A block's trace is +inf from the size at
which its factorization stops, the limit of Tr(C_plus C_b^{-1}) as C_b turns
singular: the mean over blocks is then +inf and the median may stay finite.
`dee_trace`, `mdee_trace` and `rmdee_trace` compute one size from a size-d
solve or LU inverses and are their references; the block references apply the
same rule to a block whose inverse does not exist.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtri

from .core import (
    COND_LIMIT,
    DEFAULT_RIDGE,
    BasisSpec,
    ModelPath,
    SingularDesignError,
    UnlabeledSet,
    build_design,
    check_condition,
    condition_numbers,
    correlation_matrix,
    inverse_factor,
)


class CriterionKind(enum.Enum):
    DEE = "DEE"
    MDEE1 = "mDEE1"
    MDEE2 = "mDEE2"
    MDEE3 = "mDEE3"
    RMDEE = "rmDEE"


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


def correction_factor(tr_h: float, n: int, d: int) -> float:
    """Multiplicative bias correction (1 + tr_h/n) / (1 - d/n)."""
    if d >= n:
        raise ValueError(f"correction factor undefined for d={d} >= n={n}")
    return (1.0 + tr_h / n) / (1.0 - d / n)


def _estimate(path: ModelPath, tr: float, n: int, d: int, flagged: tuple[int, ...] = ()) -> CorrectionEstimate:
    """The estimate at size d for trace tr: the training loss times `correction_factor`."""
    factor = correction_factor(tr, n, d)
    return CorrectionEstimate(d=d, tr_H=tr, factor=factor, risk=factor * path.train_loss(d), flagged_blocks=flagged)


def flagged_blocks(corrs: np.ndarray, ridge: float, check=None) -> tuple[int, ...]:
    """Indices of the blocks of a (B, d, d) stack whose matrix plus ridge*I has condition above COND_LIMIT.

    Only the blocks whose indices are in `check` (every block when None) are checked.
    """
    checked = np.arange(corrs.shape[0]) if check is None else np.asarray(check, dtype=int)
    if not checked.size:
        return ()
    cond = condition_numbers(corrs[checked] + ridge * np.eye(corrs.shape[-1]))
    return tuple(int(b) for b in checked[~(cond <= COND_LIMIT)])


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


def inverse_factors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`core.inverse_factor` of each matrix in a (B, D, D) stack, zero-padded to (B, D, D), and the (B,) sizes.

    The rows from its size on of a factor that stops are zero, so the leading
    d x d block of each is the inverse factor of the matrix's leading corner
    wherever that corner factors.
    """
    B, D, _ = mats.shape
    factors = np.zeros_like(mats)
    try:
        lows = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        # Factor one by one only here: potrf and the batched cholesky can
        # differ in the last bit, and the batch that factors keeps its bits.
        sizes = np.empty(B, dtype=int)
        for b, mat in enumerate(mats):
            inv, size = inverse_factor(mat)
            factors[b, :size, :size], sizes[b] = inv, size
        return factors, sizes
    if D:  # LAPACK rejects an empty matrix
        for low, factor in zip(lows, factors):
            factor[:] = dtrtri(low, lower=1)[0]
    return factors, np.full(B, D)


def quadratic_forms(factors: np.ndarray, c_plus: np.ndarray) -> np.ndarray:
    """w C_plus w^T for each row w of each inverse factor in a (B, d, d) stack, as (B, d).

    With W = L^{-1} and K = L L^T, Tr(C_plus K^{-1}) = Tr(W C_plus W^T). Row i
    of W vanishes beyond column i, so the sum over rows i < d is the trace for
    the leading d x d corners of C_plus and K.
    """
    return ((factors @ c_plus) * factors).sum(axis=-1)


def design_corrs(designs: np.ndarray) -> np.ndarray:
    """Per-block empirical correlation matrices of a (B, n, d) stack of block designs, as a (B, d, d) stack."""
    corrs = np.einsum("bij,bik->bjk", designs, designs) / designs.shape[1]
    return 0.5 * (corrs + np.swapaxes(corrs, 1, 2))


def block_corr_stack(blocks: np.ndarray, basis: BasisSpec, d: int) -> np.ndarray:
    """Per-block empirical correlation matrices of (B, n, M) blocks as a (B, d, d) stack."""
    B, n, _ = blocks.shape
    return design_corrs(build_design(basis, blocks.reshape(B * n, -1), d).reshape(B, n, d))


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


def dee_trace_path(labeled: tuple[np.ndarray, np.ndarray], c_tilde: np.ndarray) -> np.ndarray:
    """`dee_trace` at every size d = 1..D from the D x D pool correlation matrix, condition checks aside.

    `labeled` holds the `inverse_factors` of the jittered D x D labeled
    correlation matrix as a stack of one; the trace is +inf from the size at
    which its factor stops.
    """
    (factor,), (size,) = labeled
    traces = np.cumsum(quadratic_forms(factor, c_tilde))
    traces[size:] = np.inf
    return traces


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


def estimate_C_plus(rows, basis: BasisSpec, d: int) -> np.ndarray:
    """Empirical correlation matrix of basis features over the given rows."""
    return correlation_matrix(build_design(basis, rows, d))


def block_sides(variant: CriterionKind, b1: int | None, B: int) -> tuple[int, int]:
    """Which of B blocks feed each side of an mDEE variant, as (c_stop, v_start).

    C_plus averages blocks 0..c_stop-1 and V_hat blocks v_start..B-1: mDEE1
    splits the blocks at b1, mDEE2 takes the first b1 for C_plus and every
    block for V_hat, mDEE3 takes every block for both.
    """
    if variant is CriterionKind.MDEE1:
        if b1 is None or not 1 <= b1 <= B - 1:
            raise ValueError(f"mDEE1 needs 1 <= b1 <= B-1, got b1={b1}, B={B}")
        return b1, b1
    if variant is CriterionKind.MDEE2:
        if b1 is None or not 1 <= b1 <= B:
            raise ValueError(f"mDEE2 needs 1 <= b1 <= B, got b1={b1}, B={B}")
        return b1, 0
    if variant is CriterionKind.MDEE3:
        return B, 0
    raise ValueError(f"not an mDEE variant: {variant}")


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


def mdee_trace_path(
    corrs: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray],
    variant: CriterionKind,
    b1: int | None,
) -> np.ndarray:
    """`mdee_trace` at every size d = 1..D from a (B, D, D) stack and its `inverse_factors`, flags aside.

    The trace is +inf from the first size at which a V-side factor stops.
    """
    invs, sizes = factors
    c_stop, v_start = block_sides(variant, b1, corrs.shape[0])
    forms = quadratic_forms(invs[v_start:], corrs[:c_stop].mean(axis=0))
    traces = np.cumsum(forms.mean(axis=0))
    traces[sizes[v_start:].min() :] = np.inf
    return traces


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


def rmdee_trace(
    block_corrs: np.ndarray,
    labeled_corr: np.ndarray | None,
    ridge: float = DEFAULT_RIDGE,
) -> tuple[float, tuple[int, ...]]:
    """Median of per-block traces Tr(C_plus C_b^{-1}).

    C_plus averages every unlabeled block. When `labeled_corr` is given it
    joins the trace list as block 0 (flag indices then start at 1 for the
    unlabeled blocks). A block whose jittered matrix cannot be inverted has
    trace +inf. An even count takes the mean of the two central order
    statistics.
    """
    corrs = np.asarray(block_corrs, dtype=float)
    c_plus = corrs.mean(axis=0)
    if labeled_corr is not None:
        corrs = np.concatenate((np.asarray(labeled_corr, dtype=float)[None], corrs))
    flagged = flagged_blocks(corrs, ridge)
    traces = []
    for mat in corrs + ridge * np.eye(corrs.shape[-1]):
        try:
            traces.append(float(np.trace(c_plus @ np.linalg.inv(mat))))
        except np.linalg.LinAlgError:
            traces.append(np.inf)
    return float(np.median(traces)), flagged


def rmdee_trace_path(
    corrs: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray],
    labeled: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """`rmdee_trace` at every size d = 1..D from a (B, D, D) stack and its `inverse_factors`, flags aside.

    `labeled` holds the labeled block's `inverse_factors` as a stack of one.
    Each block's trace is +inf from the size at which its factor stops.
    """
    invs = np.concatenate((labeled[0], factors[0]))
    sizes = np.concatenate((labeled[1], factors[1]))
    traces = np.cumsum(quadratic_forms(invs, corrs.mean(axis=0)), axis=1)
    traces[np.arange(traces.shape[1]) >= sizes[:, None]] = np.inf
    return np.median(traces, axis=0)


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
    labeled_corr = estimate_C_plus(labeled_X, path.basis, d)
    tr, flagged = rmdee_trace(corrs, labeled_corr, ridge)
    return _estimate(path, tr, blocks.shape[1], d, flagged)


def continuous_split(a1: float, a2: float, n_blocks: int) -> float:
    """Continuous minimizer of a1/B1 + a2/(B - B1) on (0, B).

    That is B sqrt(a1) / (sqrt(a1) + sqrt(a2)); the form
    (a1 - sqrt(a1 a2)) / (a1 - a2) B is equal but cancels catastrophically
    when a1 and a2 are nearly equal.
    """
    if a1 == a2:
        return n_blocks / 2.0
    r1 = np.sqrt(a1)
    return float(n_blocks * r1 / (r1 + np.sqrt(a2)))


def optimal_split(a1: float, a2: float, n_blocks: int) -> int:
    """Integer minimizer of a1/B1 + a2/(B - B1) over 1..B-1.

    Evaluates the ceiling and the floor of the continuous optimum and keeps
    the lower objective (ties break toward the smaller split).
    """
    if n_blocks < 2:
        raise ValueError("cannot split fewer than two blocks")
    b_star = continuous_split(a1, a2, n_blocks)
    candidates = {int(min(max(r(b_star), 1), n_blocks - 1)) for r in (np.floor, np.ceil)}
    return min(candidates, key=lambda b: (a1 / b + a2 / (n_blocks - b), b))


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


def moment_split(corrs: np.ndarray, invs: np.ndarray) -> tuple[int, float, float]:
    """`select_b1` from the (B, d, d) block correlation stack and its jittered inverses."""
    B, d, _ = corrs.shape
    mu = corrs.reshape(B, d * d)
    nu = invs.reshape(B, d * d)
    mu_bar = mu.mean(axis=0)
    nu_bar = nu.mean(axis=0)
    u = mu - mu_bar
    v = nu - nu_bar
    tr_varmu_varnu = float(np.sum((u @ v.T) ** 2)) / (B - 1) ** 2
    tr_varmu_nunu = float(np.sum((u @ nu_bar) ** 2)) / (B - 1)
    tr_varnu_mumu = float(np.sum((v @ mu_bar) ** 2)) / (B - 1)
    a1 = tr_varmu_varnu / B + tr_varmu_nunu
    a2 = tr_varmu_varnu / B + tr_varnu_mumu
    return optimal_split(a1, a2, B), a1, a2


def select_model(risks) -> int:
    """Model size minimizing the estimated risk; position i of `risks` is d = i + 1.

    Ties break toward the smallest d and NaN counts as infinite. Infinite
    risks never win unless every entry is infinite, in which case d = 1 is
    returned and a warning is issued.
    """
    if len(risks) == 0:
        raise ValueError("select_model needs at least one estimate")
    risks = np.fmin(risks, np.inf)  # NaN becomes +inf
    if np.isinf(risks).all():
        warnings.warn("all candidate risks are infinite; falling back to d=1")
        return 1
    return int(risks.argmin()) + 1
