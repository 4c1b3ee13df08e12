"""Monte-Carlo oracles for the exact correction factor and trace moments.

These brute-force estimators exist to verify, at desk scale, that the exact
risk-ratio identity and the bias/variance formulas of the blockwise trace
estimators hold. Every estimate carries a standard error; callers should
assert |estimate - target| within a multiple of the SE, never exact equality.

Model fits here go through `numpy.linalg.lstsq` on purpose, keeping the
oracle route independent of the package's Cholesky-based solver.
"""

from __future__ import annotations

import itertools
import mmap
from dataclasses import dataclass

import numpy as np

from . import parallel
from .core import BasisSpec, build_design, check_cells, correlation_matrix, is_whole
from .estimators import CriterionKind, block_sides, design_corrs, quadratic_forms

_CHUNK = 100_000
# Rows of the closed form's blocks one chunk job builds at once.
_TILE = 10_000
# The blocks of the theorem-4 closed form are cut into this many disjoint groups for its standard error.
N_GROUPS = 10
# Fewest moment blocks mc_h1_variance_closed_form accepts. Its error bar takes
# the spread over the N_GROUPS groups of the blocks. At two blocks a group, the
# floor that makes each group's variances defined, that spread is too noisy to
# bound the closed form: with `mdee oracle --reps 100` the variance check failed
# on 2 of seeds 0-19, and at 100 blocks (10 a group) and above on none.
MIN_MOMENT_BLOCKS = 100
# Fewest replications mc_risk_ratio accepts: two, for its standard errors.
MIN_RATIO_REPS = 2
# Fewest replications mc_block_moments accepts for its reference trace.
MIN_TRACE_REPS = 100
# The noise_sd range mc_risk_ratio's losses are computed in. The top keeps sigma^4 times the most replications a config
# can hold (MAX_CELLS), which the ratio's standard error divides by, finite; the bottom keeps sigma^4 a normal float.
# A noise_sd must also be at least NOISE_TO_TRUTH times the truth's largest coefficient: the fit rounds the response
# at about 1e-15 of that size, and this keeps the rounding a billionth of the noise or less. Far below it the training
# loss reads the rounding floor (7.9e-31 for the command line's truth) and the identity goes untested.
NOISE_SD_RANGE = (1e-60, 1e60)
NOISE_TO_TRUTH = 1e-6


def _whole(name: str, value) -> int:
    """`value` as an int; a ValueError naming `name` unless it is a whole number (`core.is_whole`)."""
    if not is_whole(value):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass
class OracleConfig:
    """The inputs of every oracle call, checked here before any draw; only `mc_risk_ratio` reads `truth`."""

    basis: BasisSpec
    d: int
    n: int
    noise_sd: float
    covariate_sd: float
    truth: np.ndarray
    reps: int
    seed: int = 0
    n_test: int = 10_000
    c_draws: int = 1_000_000

    def __post_init__(self):
        for field in ("n", "d", "reps", "n_test", "c_draws", "seed"):
            setattr(self, field, _whole(field, getattr(self, field)))
        if not 1 <= self.d < self.n:
            raise ValueError(f"oracle needs 1 <= d < n, got d={self.d}, n={self.n}")
        for field in ("reps", "n_test", "c_draws"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        truth = np.asarray(self.truth)
        if truth.dtype.kind not in "iuf" or not np.isfinite(truth).all():
            raise ValueError(f"truth must be a vector of finite coefficients, got {self.truth!r}")
        self.truth = truth.astype(float).reshape(-1)
        if not 0 < self.covariate_sd < np.inf:
            raise ValueError(f"covariate_sd must be finite and positive, got {self.covariate_sd}")
        low, high = NOISE_SD_RANGE
        low = max(low, NOISE_TO_TRUTH * np.abs(self.truth).max(initial=0.0))
        if not low <= self.noise_sd <= high:
            raise ValueError(f"noise_sd must lie in [{low:g}, {high:g}] for this truth, got {self.noise_sd}")
        # the designs and their covariates, the stack of C_hat^{-1} (or reference inverses), and the population rows
        # with one chunk's design
        d, m = self.d, self.basis.covariate_dim
        check_cells("n", self.n * max(d, m))
        check_cells("n_test", self.n_test * max(d, m))
        check_cells("reps", self.reps * d * d)
        check_cells("c_draws", max(self.c_draws * m, min(self.c_draws, _chunks(self.c_draws, 1).step) * d))


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
    reps: int


@dataclass
class HMomentsResult:
    """Moments of one blockwise trace estimator and its bias against the reference Tr(C E[C_hat^{-1}]).

    The reference (`tr_cv_ref`, `se_ref`) averages Tr(C C_hat^{-1}) over the
    same replications, with C_hat taken from each replication's first block.
    `se_bias` pairs each replication's trace with its reference: it is
    hypot(SE of the per-replication differences, C's sampling SE).
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


def _chunks(items: int, rows_each: int) -> range:
    """The first item of each chunk the oracle loops take `items` items of `rows_each` rows in.

    A chunk holds at most `_CHUNK` rows and at least one item. The range's
    step is the chunk size; the last chunk holds what is left.
    """
    return range(0, items, max(1, _CHUNK // rows_each))


def check_pool(cfg: OracleConfig, B: int, name: str = "B") -> None:
    """Turn away a block count B whose `mc_block_moments` chunk, at least one pool of B*n rows, passes MAX_CELLS."""
    pool = int(B) * cfg.n
    check_cells(name, min(cfg.reps, _chunks(cfg.reps, pool).step) * pool * max(cfg.d, cfg.basis.covariate_dim))


def _tile(n: int) -> int:
    """Blocks of n rows that a closed-form chunk job builds at once: at most `_TILE` rows, at least one block."""
    return max(1, _TILE // n)


def check_moment_blocks(cfg: OracleConfig, n_blocks: int, name: str = "n_blocks") -> None:
    """Turn away n_blocks moment blocks whose d^2 moment vectors, or whose tile of n-row blocks, pass MAX_CELLS."""
    n_blocks = int(n_blocks)
    rows = min(n_blocks, _chunks(n_blocks, cfg.n).step, _tile(cfg.n)) * cfg.n
    check_cells(name, max(n_blocks * cfg.d * cfg.d, rows * max(cfg.d, cfg.basis.covariate_dim)))


def _aux_rng(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Stream of draw `index` under `tag`: 0 for replications, 1 for the population rows, 3 for closed-form chunks."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, index]))


def _design(cfg: OracleConfig, X: np.ndarray) -> np.ndarray:
    return build_design(cfg.basis, X, cfg.d)


def _covariates(rng, count: int, cfg: OracleConfig) -> np.ndarray:
    return rng.normal(0.0, cfg.covariate_sd, (count, cfg.basis.covariate_dim))


def _population_rows(cfg: OracleConfig):
    """The cfg.c_draws population rows' covariates, in the chunks of `_chunks`, from one fixed child of cfg.seed.

    A chunk is drawn only when the generator is advanced to it, so a caller
    that drops each chunk before the next holds one chunk at a time.
    """
    rng = _aux_rng(cfg.seed, 1)
    starts = _chunks(cfg.c_draws, 1)
    for lo in starts:
        yield _covariates(rng, min(starts.step, cfg.c_draws - lo), cfg)


def _population_pass(cfg: OracleConfig, mat: np.ndarray) -> tuple[np.ndarray, float]:
    """C from the cfg.c_draws population rows, and the variance of phi(x)^T mat phi(x) over the same rows.

    Each chunk's design and its partial sums V^T V, sum(t) and sum(t^2) are
    one job of `parallel.fork_map`, and this process adds the partials in
    chunk order, the running sum of a serial pass. The rows' generator is
    built once, before the fork, and each process advances its own copy:
    `fork_map` gives a process its jobs in increasing order, so before chunk k
    it draws and drops the chunks since its last, which other processes take,
    and then draws chunk k. Every process draws the one stream in the same
    order, so the bits do not depend on the process count, and none holds
    more than one chunk.
    """
    rows = _population_rows(cfg)
    drawn = 0  # the chunks this process has taken from `rows`

    def chunk_sums(k: int) -> tuple[np.ndarray, float, float]:
        nonlocal drawn
        v = _design(cfg, next(itertools.islice(rows, k - drawn, None)))
        drawn = k + 1
        t = quadratic_forms(v, mat)
        return v.T @ v, t.sum(), (t * t).sum()

    total = np.zeros((cfg.d, cfg.d))
    acc_sum = acc_sq = 0.0
    for gram, t_sum, t_sq in parallel.fork_map(chunk_sums, len(_chunks(cfg.c_draws, 1))):
        total += gram
        acc_sum += t_sum
        acc_sq += t_sq
    C = total / cfg.c_draws
    mean = acc_sum / cfg.c_draws
    return 0.5 * (C + C.T), max(acc_sq / cfg.c_draws - mean * mean, 0.0)


def _reference_traces(cfg: OracleConfig, c_hat_invs: np.ndarray) -> tuple[np.ndarray, tuple[float, float, float]]:
    """Each replication's Tr(C C_hat^{-1}) from its (reps, d, d) stack of C_hat^{-1}, and their summary.

    The summary is the traces' mean, its SE, and C's sampling error, which
    that SE includes: the spread of phi(x)^T V_bar phi(x) over the population
    rows, V_bar the mean C_hat^{-1}. C and that spread come from one
    population pass.
    """
    # A running sum, replication by replication: `sum` would add a d = 1 stack pairwise.
    v_bar = np.add.accumulate(c_hat_invs)[-1] / cfg.reps
    C, spread = _population_pass(cfg, v_bar)
    se_c = np.sqrt(spread / cfg.c_draws)
    trs = np.trace(C @ c_hat_invs, axis1=1, axis2=2)
    se_rep = trs.std(ddof=1) / np.sqrt(cfg.reps)
    return trs, (float(trs.mean()), float(np.hypot(se_rep, se_c)), float(se_c))


def mc_risk_ratio(cfg: OracleConfig) -> RiskRatioResult:
    """Estimate E[L], E[L_D] and their ratio over independent replications.

    The truth must have at most d coefficients, a function inside the
    model, so that the residual-independence assumption behind the exact
    ratio identity holds exactly. The ratio's standard error comes from the
    delta method; the per-replication trace of C C_hat^{-1} is tracked
    against the population C so the exact-correction identity can be
    checked from the same replications; C and its sampling error come from
    one population pass after the replications.

    Replication r draws from its own `_aux_rng(seed, 0, r)` stream and is
    job r of `parallel.fork_map`, which spreads the replications over forked
    processes. Every reduction runs in this process over the returned values,
    in replication order, so the result does not depend on the process count.
    """
    if cfg.reps < MIN_RATIO_REPS:
        raise ValueError(f"mc_risk_ratio needs reps >= {MIN_RATIO_REPS}")
    if len(cfg.truth) > cfg.d:
        raise ValueError(f"mc_risk_ratio needs a truth of at most d={cfg.d} coefficients, got {len(cfg.truth)}")
    alpha_star = np.zeros(cfg.d)
    alpha_star[: len(cfg.truth)] = cfg.truth

    def replicate(rep: int) -> tuple[float, float, np.ndarray]:
        rng = _aux_rng(cfg.seed, 0, rep)
        X = _covariates(rng, cfg.n, cfg)
        design = _design(cfg, X)
        y = design @ alpha_star + rng.normal(0.0, cfg.noise_sd, cfg.n)
        alpha_hat = np.linalg.lstsq(design, y, rcond=None)[0]
        resid = y - design @ alpha_hat
        X_test = _covariates(rng, cfg.n_test, cfg)
        design_test = _design(cfg, X_test)
        y_test = design_test @ alpha_star + rng.normal(0.0, cfg.noise_sd, cfg.n_test)
        err = y_test - design_test @ alpha_hat
        return resid @ resid / cfg.n, err @ err / cfg.n_test, np.linalg.inv(correlation_matrix(design))

    train_losses, losses, c_hat_invs = map(np.array, zip(*parallel.fork_map(replicate, cfg.reps)))
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
    _, (mean_tr, se_tr, _) = _reference_traces(cfg, c_hat_invs)
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


def _block_stats(cfg: OracleConfig, rngs, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Correlation matrices and exact inverses of n_blocks fresh blocks of n rows per generator.

    rngs may be any iterable; each generator is used once, as it comes. The
    blocks of all generators are stacked, generator by generator, and
    built by one design build, one product and one inverse call; each block
    gets the bits it would get on its own.
    """
    draws = [_covariates(rng, n_blocks * cfg.n, cfg) for rng in rngs]
    # One copy of the rows while the design is built, which sets the peak
    # memory of a chunk: one generator's rows (the closed form's tiles) are
    # used as drawn, and several are freed once stacked.
    X = draws[0] if len(draws) == 1 else np.concatenate(draws)
    del draws
    corrs = design_corrs(_design(cfg, X).reshape(-1, cfg.n, cfg.d))
    return corrs, np.linalg.inv(corrs)


def _h_moments(trs: np.ndarray, ref_trs: np.ndarray, ref: tuple[float, float, float]) -> HMomentsResult:
    """Mean and variance of one variant's per-replication traces, and their bias against ref_trs.

    `ref` is the summary `_reference_traces` gives with ref_trs.
    """
    tr_ref, se_ref, se_c = ref
    mean_tr = float(trs.mean())
    se_mean = float(trs.std(ddof=1) / np.sqrt(trs.size))
    var = float(trs.var(ddof=1))
    m4 = float(np.mean((trs - mean_tr) ** 4))
    se_var = float(np.sqrt(max(m4 - var**2, 0.0) / trs.size))
    se_diff = (trs - ref_trs).std(ddof=1) / np.sqrt(trs.size)
    return HMomentsResult(
        mean_tr=mean_tr, se_mean=se_mean, var=var, se_var=se_var, bias=mean_tr - tr_ref,
        se_bias=float(np.hypot(se_diff, se_c)), tr_cv_ref=tr_ref, se_ref=se_ref, reps=trs.size,
    )


def mc_block_moments(
    cfg: OracleConfig, variants, B: int, B1: int | None = None
) -> dict[CriterionKind, HMomentsResult]:
    """Bias and variance of the blockwise trace estimators of Tr(CV), per variant.

    Each replication draws an independent pool of B*n covariate rows from its
    own `_aux_rng(seed, 0, rep)` stream, forms the per-block correlation
    matrices and their exact inverses, and feeds every requested variant its
    `block_sides` of them. The same replication's block-0 inverse gives its
    reference Tr(C C_hat^{-1}); its rows are the n rows mc_risk_ratio fits on
    the same cfg, so the two references agree bit for bit, and `se_bias`
    reads the per-replication pairs.

    Replications run in the chunks of `_chunks` (at most its row budget, at
    least one replication each), stacked along a leading axis; every
    reduction runs over one replication's blocks in the order a lone
    replication uses, so the results do not depend on the chunking. Each
    chunk is one job of `parallel.fork_map`, which spreads the chunks over
    forked processes, and returns its replications' reference inverses and
    traces; this process joins them in chunk order, so the results do not
    depend on the process count either. C and its sampling error come from
    one population pass after the replications.
    """
    if cfg.reps < MIN_TRACE_REPS:
        raise ValueError(f"mc_block_moments needs reps >= {MIN_TRACE_REPS}")
    B, B1 = _whole("B", B), None if B1 is None else _whole("B1", B1)
    if B < 2:
        raise ValueError("mc_block_moments needs B >= 2")
    check_pool(cfg, B)
    sides = {v: block_sides(v, B1, B) for v in map(CriterionKind, variants)}
    d = cfg.d
    starts = _chunks(cfg.reps, B * cfg.n)

    def chunk(k: int) -> tuple[np.ndarray, list[np.ndarray]]:
        lo = starts[k]
        hi = min(lo + starts.step, cfg.reps)
        corrs, invs = _block_stats(cfg, (_aux_rng(cfg.seed, 0, rep) for rep in range(lo, hi)), B)
        ref_invs = invs[::B].copy()  # a copy, so the chunk's other inverses are freed
        corrs, invs = corrs.reshape(-1, B, d, d), invs.reshape(-1, B, d, d)
        traces = []
        for c_stop, v_start in sides.values():
            c_plus = corrs[:, :c_stop].mean(axis=1)
            v_hat = invs[:, v_start:].mean(axis=1)
            traces.append(np.trace(c_plus @ v_hat, axis1=1, axis2=2))
        return ref_invs, traces

    chunks = parallel.fork_map(chunk, len(starts))
    ref_trs, ref = _reference_traces(cfg, np.concatenate([ref_invs for ref_invs, _ in chunks]))
    return {
        variant: _h_moments(np.concatenate([traces[j] for _, traces in chunks]), ref_trs, ref)
        for j, variant in enumerate(sides)
    }


def mc_H_moments(cfg: OracleConfig, variant, B: int, B1: int | None = None) -> HMomentsResult:
    """`mc_block_moments` of one variant."""
    return mc_block_moments(cfg, [variant], B, B1)[CriterionKind(variant)]


@dataclass
class MomentInputs:
    tr_varmu_varnu: float
    tr_varnu_mumu: float
    tr_varmu_nunu: float


def _shared_rows(count: int, dim: int) -> np.ndarray:
    """A (count, dim) float array in an anonymous shared mapping, which forked children write into in place.

    The mapping is unmapped once the last view of the array is dropped.
    """
    return np.frombuffer(mmap.mmap(-1, count * dim * 8), dtype=float).reshape(count, dim)


def _vectorized_blocks(cfg: OracleConfig, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized correlation matrices and inverses of n_blocks independent blocks.

    Blocks are drawn in the chunks of `_chunks`, of n rows a block; chunk k
    comes from the auxiliary stream (cfg.seed, 3, k), a tag no other draw
    uses. Each chunk is one job of `parallel.fork_map`, which spreads the
    chunks over forked processes. Both arrays are `_shared_rows`, made before
    the fork, and each job writes its chunk's rows into them in place and
    returns nothing, so no block row is pickled, received or joined. A job
    builds its chunk in tiles of `_tile` blocks, drawn from the chunk's one
    stream in turn: the split draws give the values one draw would, and every
    row is one block's own, so the rows do not depend on the tiling.
    """
    dim = cfg.d * cfg.d
    mu_b, nu_b = _shared_rows(n_blocks, dim), _shared_rows(n_blocks, dim)
    starts = _chunks(n_blocks, cfg.n)
    tile = _tile(cfg.n)

    def chunk(k: int) -> None:
        rng = _aux_rng(cfg.seed, 3, k)
        stop = min(starts[k] + starts.step, n_blocks)
        for lo in range(starts[k], stop, tile):
            count = min(tile, stop - lo)
            corrs, invs = _block_stats(cfg, [rng], count)
            mu_b[lo : lo + count] = corrs.reshape(count, dim)
            nu_b[lo : lo + count] = invs.reshape(count, dim)

    parallel.fork_map(chunk, len(starts))
    return mu_b, nu_b


def _side_moments(blocks: np.ndarray, bounds: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mean and d^2 x d^2 covariance of one side's vectorized blocks, per group that `bounds` cuts, then of all blocks.

    The groups are read first, each through its own centered copy; then the
    blocks are centered in place for the full-sample covariance, so no copy
    of the whole side is made and `blocks` is left centered.
    """
    stats = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mean = blocks[lo:hi].mean(axis=0)
        u = blocks[lo:hi] - mean
        stats.append((mean, u.T @ u / (hi - lo - 1)))
    mean = blocks.mean(axis=0)
    blocks -= mean
    stats.append((mean, blocks.T @ blocks / (len(blocks) - 1)))
    return stats


def _moment_inputs(mu_side: tuple[np.ndarray, np.ndarray], nu_side: tuple[np.ndarray, np.ndarray]) -> MomentInputs:
    """Moment quantities from one sample's (mean, covariance) of the block correlations and of their inverses.

    The covariances are the explicit d^2 x d^2 matrices, which keeps this
    route independent of the centered-trace shortcuts used by the block
    split rule.
    """
    (mu, var_mu), (nu, var_nu) = mu_side, nu_side
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
    cfg: OracleConfig, B: int, B1: int, n_blocks: int = 100_000
) -> tuple[float, float]:
    """Closed-form variance of the disjoint-split trace with an MC error bar.

    The moment inputs come from n_blocks independent blocks; the standard
    error is the spread of the closed form recomputed on N_GROUPS disjoint
    subsamples, scaled to the full sample size. The moments are taken one
    side at a time: the correlations' group and full-sample statistics first,
    and their array is dropped before the inverses' are read. So besides the
    two shared block arrays this process holds at most one tile of blocks
    being built or one group's centered copy.
    """
    B, B1 = _whole("B", B), _whole("B1", B1)
    B2 = B - B1
    if B2 < 1 or B1 < 1:
        raise ValueError("need 1 <= B1 <= B-1")
    if not is_whole(n_blocks) or n_blocks < MIN_MOMENT_BLOCKS:
        raise ValueError(f"n_blocks must be a whole number >= {MIN_MOMENT_BLOCKS}, got {n_blocks!r}")
    n_blocks = int(n_blocks)
    check_moment_blocks(cfg, n_blocks)
    bounds = np.linspace(0, n_blocks, N_GROUPS + 1, dtype=int)
    mu_b, nu_b = _vectorized_blocks(cfg, n_blocks)
    mu_stats = _side_moments(mu_b, bounds)
    del mu_b
    nu_stats = _side_moments(nu_b, bounds)
    *group_vals, full = (
        closed_form_h1_variance(_moment_inputs(mu_side, nu_side), B1, B2)
        for mu_side, nu_side in zip(mu_stats, nu_stats)
    )
    se = float(np.std(group_vals, ddof=1) / np.sqrt(len(group_vals)))
    return float(full), se
