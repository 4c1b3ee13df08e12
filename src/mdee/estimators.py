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
variance-minimizing rule implemented in `moment_split`.

`dee_trace_path`, `mdee_trace_path` and `rmdee_trace_path` give the traces at
every model size from one inverse Cholesky factor at the largest size: the
path fit's for the labeled matrix, which reaches every size the path fitted,
and one per block (`inverse_factors`). A block's trace is +inf from the size at
which its factorization stops, the limit of Tr(C_plus C_b^{-1}) as C_b turns
singular: the mean over blocks is then +inf and the median may stay finite.
`dee_trace`, `mdee_trace` and `rmdee_trace` are one-size views of them: each
is the last entry of its path route on the factors of the jittered matrices it
is given. The per-d references, which solve or invert each size's matrices by
LU (`invert_blocks`), and the risk estimates built on them, `dee`, `mdee`,
`rmdee` and the split `select_b1`, are in `tests/reference.py`.
"""

from __future__ import annotations

import enum
import warnings

import numpy as np

from .core import (
    COND_LIMIT,
    DEFAULT_RIDGE,
    BasisSpec,
    build_design,
    check_condition,
    condition_numbers,
    correlation_matrix,
    inverse_factor,
    lapack,
)


class CriterionKind(enum.Enum):
    DEE = "DEE"
    MDEE1 = "mDEE1"
    MDEE2 = "mDEE2"
    MDEE3 = "mDEE3"
    RMDEE = "rmDEE"


def correction_factor(tr_h, n: int, d):
    """Multiplicative bias correction (1 + tr_h/n) / (1 - d/n), elementwise for arrays of traces and sizes."""
    if (np.asarray(d) >= n).any():
        raise ValueError(f"correction factor undefined for d={np.max(d)} >= n={n}")
    return (1.0 + tr_h / n) / (1.0 - d / n)


def flagged_blocks(corrs: np.ndarray, ridge: float, check=None) -> tuple[int, ...]:
    """Indices of the blocks of a (B, d, d) stack whose matrix plus ridge*I has condition above COND_LIMIT.

    Only the blocks whose indices are in `check` (every block when None) are checked.
    """
    checked = np.arange(corrs.shape[0]) if check is None else np.asarray(check, dtype=int)
    if not checked.size:
        return ()
    cond = condition_numbers(corrs[checked] + ridge * np.eye(corrs.shape[-1]))
    return tuple(int(b) for b in checked[~(cond <= COND_LIMIT)])


def _jittered(mats, ridge: float) -> np.ndarray:
    """A matrix or a stack of them plus ridge*I."""
    mats = np.asarray(mats, dtype=float)
    return mats + ridge * np.eye(mats.shape[-1])


def inverse_factors(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`core.inverse_factor` of each matrix in a (B, D, D) stack, zero-padded to (B, D, D), and the (B,) sizes.

    The rows from its size on of a factor that stops are zero, so the leading
    d x d block of each is the inverse factor of the matrix's leading corner
    wherever that corner factors.

    A factor also stops at the first k with L_kk^2 <= D eps max_i K_ii, the
    default tolerance of LAPACK's pivoted Cholesky dpstrf: there the matrix
    is singular to working precision, though rounding may leave the pivot
    positive (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
    Every pivot is at least the smallest eigenvalue, so the rule cannot fire
    on a matrix whose ridge is above that tolerance.
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
    else:
        sizes = np.full(B, D)
        if D:  # LAPACK rejects an empty matrix
            dtrtri = lapack().dtrtri
            for low, factor in zip(lows, factors):
                factor[:] = dtrtri(low, lower=1)[0]
    # W_kk = 1 / L_kk, so L_kk^2 <= tol reads W_kk sqrt(tol) >= 1; a row past a stop is zero
    tol = D * np.finfo(float).eps * mats.diagonal(axis1=1, axis2=2).max(axis=1, initial=0.0)
    low_pivot = factors.diagonal(axis1=1, axis2=2) * np.sqrt(tol)[:, None] >= 1.0
    stops = low_pivot.any(axis=1)
    if stops.any():
        sizes[stops] = low_pivot[stops].argmax(axis=1)
        factors[np.arange(D) >= sizes[:, None]] = 0.0
    return factors, sizes


def quadratic_forms(factors: np.ndarray, c_plus: np.ndarray) -> np.ndarray:
    """w C_plus w^T for each row w of each inverse factor in a (B, d, d) stack, as (B, d).

    With W = L^{-1} and K = L L^T, Tr(C_plus K^{-1}) = Tr(W C_plus W^T). Row i
    of W vanishes beyond column i, so the sum over rows i < d is the trace for
    the leading d x d corners of C_plus and K.
    """
    return ((factors @ c_plus) * factors).sum(axis=-1)


def design_corrs(designs: np.ndarray) -> np.ndarray:
    """Per-block empirical correlation matrices of a (B, n, d) stack of block designs, as a (B, d, d) stack."""
    corrs = np.swapaxes(designs, 1, 2) @ designs / designs.shape[1]
    return 0.5 * (corrs + np.swapaxes(corrs, 1, 2))


def block_corr_stack(blocks: np.ndarray, basis: BasisSpec, d: int) -> np.ndarray:
    """Per-block empirical correlation matrices of (B, n, M) blocks as a (B, d, d) stack."""
    B, n, _ = blocks.shape
    return design_corrs(build_design(basis, blocks.reshape(B * n, -1), d).reshape(B, n, d))


def dee_trace(c_hat: np.ndarray, c_tilde: np.ndarray, ridge: float = DEFAULT_RIDGE) -> float:
    """Tr(C_hat^{-1} C_tilde) with ridge*I added to C_hat: the last entry of `dee_trace_path`.

    Raises SingularDesignError when the jittered labeled correlation matrix
    is numerically singular (condition above COND_LIMIT); below that limit its
    factor reaches every size.
    """
    jittered = _jittered(c_hat, ridge)
    check_condition(jittered, "labeled correlation matrix")
    return float(dee_trace_path(inverse_factor(jittered)[0], np.asarray(c_tilde, dtype=float))[-1])


def dee_trace_path(factor: np.ndarray, c_tilde: np.ndarray) -> np.ndarray:
    """`dee_trace` at every size d = 1..D from the D x D pool correlation matrix, condition checks aside.

    `factor` is the inverse Cholesky factor of the jittered D x D labeled
    correlation matrix, read from the path fit (`harness.TrialState.labeled_factor`).
    """
    return np.cumsum(quadratic_forms(factor, c_tilde))


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
    """Tr(C_plus V_hat) from a stack of block correlation matrices plus ridge*I: the last entry of `mdee_trace_path`.

    Sides are per `block_sides`. Also returns the indices of the V-side blocks
    whose jittered matrix has condition above COND_LIMIT.
    """
    corrs = np.asarray(block_corrs, dtype=float)
    v_start = block_sides(variant, b1, len(corrs))[1]
    traces = mdee_trace_path(corrs, inverse_factors(_jittered(corrs, ridge)), variant, b1)
    return float(traces[-1]), flagged_blocks(corrs, ridge, range(v_start, len(corrs)))


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


def rmdee_trace(
    block_corrs: np.ndarray,
    labeled: np.ndarray | None,
    ridge: float = DEFAULT_RIDGE,
) -> tuple[float, tuple[int, ...]]:
    """Median of per-block traces Tr(C_plus C_b^{-1}), ridge*I added to each C_b: the last entry of `rmdee_trace_path`.

    C_plus averages every unlabeled block. When the labeled correlation
    matrix `labeled` is given it joins the trace list as block 0 (flag indices
    then start at 1 for the unlabeled blocks). Also returns the indices of the
    blocks whose jittered matrix has condition above COND_LIMIT.
    """
    corrs = np.asarray(block_corrs, dtype=float)
    mats = corrs if labeled is None else np.concatenate((np.asarray(labeled, dtype=float)[None], corrs))
    traces = rmdee_trace_path(corrs, inverse_factors(_jittered(mats, ridge)))
    return float(traces[-1]), flagged_blocks(mats, ridge)


def rmdee_trace_path(
    corrs: np.ndarray, factors: tuple[np.ndarray, np.ndarray], labeled: np.ndarray | None = None
) -> np.ndarray:
    """`rmdee_trace` at every size d = 1..D from a (B, D, D) stack and `inverse_factors`, flags aside.

    C_plus averages the blocks of `corrs`. The median runs over the blocks of
    `factors`, after `labeled`, when given: the labeled block's D x D inverse
    factor, which reaches D. Each trace is +inf from the size at which its
    factor stops; an even count takes the mean of the two central order
    statistics.
    """
    invs, sizes = factors
    if labeled is not None:
        invs, sizes = np.concatenate((labeled[None], invs)), np.concatenate(([len(labeled)], sizes))
    traces = np.cumsum(quadratic_forms(invs, corrs.mean(axis=0)), axis=1)
    traces[np.arange(traces.shape[1]) >= sizes[:, None]] = np.inf
    return np.median(traces, axis=0)


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


def moment_split(corrs: np.ndarray, invs: np.ndarray) -> tuple[int, float, float]:
    """Variance-minimizing block split for mDEE1, as (B1, a1, a2), from a (B, d, d) stack and its inverses.

    `corrs` holds the block correlation matrices and `invs` their jittered
    inverses. From the moment quantities of the vectorized matrices (mu) and
    inverses (nu) across all B blocks it assembles

        a1 = Tr(Var(mu) Var(nu))/B + Tr(Var(mu) nu nu^T)
        a2 = Tr(Var(mu) Var(nu))/B + Tr(Var(nu) mu mu^T)

    with the plug-ins mu ~ mu_bar, nu ~ nu_bar, and returns them with the
    integer B1 minimizing a1/B1 + a2/(B - B1). The trace quantities come from
    centered vectors u_b, v_b without materializing any d^2 x d^2 matrix:

        Tr(Var(mu) Var(nu)) = sum_{b,b'} (u_b^T v_b')^2 / (B-1)^2
        Tr(Var(mu) nu nu^T) = sum_b (u_b^T nu_bar)^2 / (B-1)
        Tr(Var(nu) mu mu^T) = sum_b (v_b^T mu_bar)^2 / (B-1)

    A coordinate with the same value in every block centers to exactly 0: the
    mean of B equal values can differ from them in the last bit, and at d = 1,
    where every coordinate is such, that rounding would decide the split
    instead of the tie a1 = a2 = 0.
    """
    B, d, _ = corrs.shape
    mu = corrs.reshape(B, d * d)
    nu = invs.reshape(B, d * d)
    mu_bar = mu.mean(axis=0)
    nu_bar = nu.mean(axis=0)
    u = mu - mu_bar
    v = nu - nu_bar
    u[:, mu.max(axis=0) == mu.min(axis=0)] = 0.0
    v[:, nu.max(axis=0) == nu.min(axis=0)] = 0.0
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
