"""The criterion registry against the per-d reference routines.

The registry scores each size d from designs and correlation matrices built
once at d_max and sliced; the path fit, CV5, DEE and the block criteria read
every size from one Cholesky factor of the fit, per fold, of the labeled matrix
or per block, and ADJ reads the pool side from a triangular factor of the
pool design.
The per-d references in `reference.py`, `dee`, `mdee`, `rmdee`, `kfold_cv`,
`adj`, `ridge_lse` and `test_error`, rebuild every design at size d, and
`invert_blocks` there checks every block's condition and takes its LU
inverse at every d. Both routes must agree exactly on the
flagged-block count and on where the risk is undefined or infinite. CV5, DEE
and the block criteria agree within `prefix_bound`, ADJ within `adj_bound` and
the path fit within `fit_bounds`. A block criterion's risk is None
from the first size at which a Cholesky factor it reads stops; where LU and
Cholesky disagree on whether a matrix read can be factored, only that rule is
checked. CV5 fits each fold by the path fit, so it is +inf from a fold's first
failing size on (`kfold_cv_prefix`). DEE and rmDEE do not check the labeled
matrix again, as every size of the path `evaluate_trial` fits has passed that
check, and they read its factor from that fit: they are compared with their
references on such states (`fitted`). The registry's (risk, flagged) arrays
are compared through `scored`, which reads them as per-d (risk, flag count)
pairs, None where the risk is NaN.
"""

import contextlib
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdee import estimators, harness
from mdee.baselines import RHO_FLOOR, _folds, adj_path, kfold_cv_path
from mdee.core import (
    COND_LIMIT,
    BasisSpec,
    LabeledSet,
    ModelPath,
    SingularDesignError,
    UnlabeledSet,
    block_partition,
    build_design,
    condition_numbers,
    correlation_matrix,
    fit_design_path,
    fit_model_path,
    interlacing_gate,
    inverse_factor,
    normal_matrix,
)
from mdee.estimators import CriterionKind, block_corr_stack, block_sides
from mdee.harness import (
    CRITERIA,
    ExperimentConfig,
    SyntheticScenario,
    TrialState,
    evaluate_trial,
    path_test_errors,
)
from reference import (
    FittedModel,
    adj,
    block_corrs,
    dee,
    dee_trace,
    fourier_design,
    invert_blocks,
    kfold_cv,
    mdee,
    mdee_trace,
    rmdee,
    rmdee_trace,
    ridge_lse,
    select_b1,
)
from reference import test_error as model_test_error

BLOCK_VARIANTS = {
    "mDEE1": CriterionKind.MDEE1,
    "mDEE2": CriterionKind.MDEE2,
    "mDEE3": CriterionKind.MDEE3,
}
BLOCK_KINDS = {**BLOCK_VARIANTS, "rmDEE": CriterionKind.RMDEE}


def config(ridge=1e-9, criteria=None, d_max=None):
    return ExperimentConfig(
        scenario=SyntheticScenario(target="step", n_values=[10], noise_vars=[0.1]),
        criteria=criteria or sorted(CRITERIA),
        repetitions=1,
        d_max=d_max,
        ridge=ridge,
    )


def covariates(rng, rows, m, kind):
    if kind == "discrete":
        # a few levels, so rows repeat within the labeled set and the blocks
        return rng.integers(0, 3, size=(rows, m)) * 0.7
    return rng.normal(size=(rows, m))


@st.composite
def trials(draw):
    n = draw(st.integers(4, 12))
    m = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["gauss", "discrete", "flagged_block"]))
    pool_rows = draw(st.sampled_from([0, n - 1, n + 1, 3 * n + 2, 6 * n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = LabeledSet(X=covariates(rng, n, m, kind), y=rng.normal(size=n))
    pool = covariates(rng, pool_rows, m, kind) if pool_rows else np.empty((0, m))
    ridge = 1e-9
    if kind == "flagged_block" and pool_rows >= n:
        # one block of duplicated rows: rank one, so its jittered matrix has
        # condition above 1e12 for every d >= 2 at this ridge
        pool[:n] = 0.7
        ridge = 1e-13
    basis = BasisSpec("fourier", m)
    # d_max = n covers d = n - 1 and d = n
    path = random_path(rng, basis, n)
    test = LabeledSet(X=rng.normal(size=(15, m)), y=rng.normal(size=15))
    return kind, train, UnlabeledSet(X=pool), path, test, ridge


def random_path(rng, basis, d_max):
    """A hand-built path keeps every size fittable; only its losses, coefficients and basis enter the risks.

    Its factor is the identity, not the fit's, so DEE and rmDEE, which read
    it, are compared with their references only on `fitted` states.
    """
    alphas, losses = np.zeros((d_max, d_max)), np.empty(d_max)
    for d in range(1, d_max + 1):
        alphas[d - 1, :d] = rng.normal(size=d)
        losses[d - 1] = rng.uniform(0.1, 2.0)
    return ModelPath(alphas, losses, np.eye(d_max), basis)


def scored(state, name):
    """A criterion's (risk, flagged) arrays as the per-d list [(risk, flag count) | None] that the assertions compare.

    None marks a size whose risk is NaN, the inf@d sentinel.
    """
    risks, flagged = CRITERIA[name](state)
    counts = np.broadcast_to(flagged, risks.shape)
    return [None if math.isnan(r) else (r, c) for r, c in zip(risks.tolist(), counts.tolist())]


def blocks_of(state):
    """The state's pool as (B, n, M) blocks of the training size, as `core.block_partition` cuts it; None below n rows."""
    return block_partition(state.unlabeled, state.train.n) if state.n_blocks else None


def labeled_corr(state, d):
    """The correlation matrix of the first d labeled design columns, which DEE and rmDEE read at size d."""
    return correlation_matrix(state.train_design[:, :d])


def fitted(state):
    """`state` with the path `evaluate_trial` fits: `fit_design_path` on its labeled design at its ridge.

    Every size of that path has passed the path fit's condition check of the
    labeled normal matrix, n times the jittered labeled correlation matrix.
    """
    basis = state.path.basis
    path = fit_design_path(build_design(basis, state.train.X, state.path.d_max), state.train.y, basis, state.ridge)
    return TrialState(state.train, state.unlabeled, path, state.ridge, state.cv_seed)


def kfold_cv_prefix(data, basis, d_max, ridge, seed):
    """`kfold_cv` at sizes 1..d_max, +inf from its first infinite size on, as the path fit ends a fold's fits."""
    risks = np.array([kfold_cv(data, basis, d, 5, ridge, seed) for d in range(1, d_max + 1)])
    risks[np.logical_or.accumulate(np.isinf(risks))] = math.inf
    return risks


def registry_paths(state, names=None):
    return {name: scored(state, name) for name in names or CRITERIA}


def corrected(state, tr, d):
    """The training loss at d times the correction factor for trace tr."""
    return estimators.correction_factor(tr, state.train.n, d) * state.path.train_loss(d)


def reference_score(estimate):
    """The reference's (risk, flag count); None where it raises or its trace is infinite, as the registry records it."""
    try:
        est = estimate()
    except ValueError:  # SingularDesignError included
        return None
    if math.isinf(est.tr_H):
        return None
    return est.risk, len(est.flagged_blocks)


def reference_value(compute):
    try:
        return compute(), 0
    except ValueError:
        return None


def per_d_check(compute):
    """The per-d reference score, each condition checked at its own size; None where it raises."""
    try:
        tr, flagged = compute()
    except SingularDesignError:
        return None
    return tr, len(flagged)


def per_d_route(state, name):
    """A block criterion at every size from the LU references on the state's size-d corners; None where infinite."""
    variant, d_max = BLOCK_KINDS[name], state.path.d_max
    split = name in harness.SPLIT_CRITERIA
    if state.n_blocks == 0 or (split and state.b1 is None):
        return [(math.inf, 0)] * d_max
    scored = []
    for d in range(1, d_max + 1):
        if d >= state.train.n:
            scored.append(None)
            continue
        corners = state.block_corrs[:, :d, :d]
        if variant is CriterionKind.RMDEE:
            score = per_d_check(lambda: rmdee_trace(corners, labeled_corr(state, d), state.ridge))
        else:
            score = per_d_check(lambda: mdee_trace(corners, variant, state.b1 if split else None, state.ridge))
        scored.append(None if score is None or math.isinf(score[0]) else (corrected(state, score[0], d), score[1]))
    return scored


def assert_same(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[1] == want[1]


# The prefix routes of CV5 and the block criteria factor each matrix once at
# the largest size and read each size d from the leading d x d block of the
# factor; the per-d routes factor or invert the size-d matrix itself. Either
# route's factorization is the exact one of a matrix K + dK with
# ||dK|| <= c_d * eps * ||K||, c_d of order d (Golub and Van Loan, 4.2), and
# the two routes' size-d matrices differ by the same order. For positive
# definite K and positive semidefinite C, K + dK moves Tr(C K^{-1}) by at most
# ||dK|| ||K^{-1}|| Tr(C K^{-1}) = kappa(K) ||dK|| / ||K|| times the trace, to
# first order, so every per-block trace moves by a relative d * kappa * eps
# or less; DEE's trace is one such trace, K the jittered labeled matrix and C
# the pool's. The mean of positive traces, and each of their order statistics
# (so the median), keep the largest relative move, and (1 + tr/n)/(1 - d/n)
# moves relatively less than tr. A fold's held-out predictions move by the
# same relative order, and its held-out error with them while the residuals
# are not small against the predictions (the responses here are noise). The
# constant covers both routes and the few eps of their summations; on 2,100
# random states like these the largest |got - ref| / (d kappa eps |ref|) was
# 1.95, at d = 1 and kappa = 1. At a size with a matrix flagged above
# COND_LIMIT the bound is at least 16 * 1e12 * eps, 0.35% of the score, per
# unit of d; at 9,059 flagged sizes of 3,000 random states from the generators
# below, where LU and Cholesky agree on which matrices read can be factored,
# the largest |got - ref| / prefix_bound was 0.013.
PREFIX_C = 16
EPS = float(np.finfo(float).eps)


def prefix_bound(want: float, kappa: float, d: int) -> float:
    return PREFIX_C * d * kappa * EPS * abs(want)


def assert_prefix_close(got, want, kappa, d):
    """A prefix-route score against the per-d one, within `prefix_bound` of it.

    None placement and flag counts must match, and an infinite risk is compared
    as in `assert_same`; `kappa()` gives the largest condition number read at d.
    """
    if want is None or math.isinf(want[0]):
        assert_same(got, want)
        return
    assert got is not None and got[1] == want[1]
    bound = prefix_bound(want[0], kappa(), d)
    assert abs(got[0] - want[0]) <= bound, (got[0], want[0], bound, d)


def read_matrices(state, variant, d):
    """The jittered size-d matrices a block criterion reads, with the sizes their Cholesky factors reach."""
    if variant is CriterionKind.RMDEE:
        v_start = 0
    else:
        split = variant is not CriterionKind.MDEE3
        v_start = block_sides(variant, state.b1 if split else None, state.n_blocks)[1]
    mats, sizes = state.block_corrs[v_start:, :d, :d], state.block_factors[1][v_start:]
    if variant is CriterionKind.RMDEE:  # the labeled factor, the path fit's, reaches `top`
        mats = np.concatenate((labeled_corr(state, d)[None], mats))
        sizes = np.concatenate(([state.top], sizes))
    return mats + state.ridge * np.eye(d), sizes


def block_kappa(state, variant, d):
    """Largest condition number of the jittered size-d matrices a block criterion reads."""
    return float(condition_numbers(read_matrices(state, variant, d)[0]).max())


def lu_inverts(mat):
    try:
        np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def assert_block_close(state, name, d, got, want):
    """A block criterion's score at d against its per-d LU reference `want`.

    The score is None exactly where the rule puts +inf: from the first size at
    which a factor read stops for a mean, or at which at least half of them have
    stopped for rmDEE's median. Where LU and Cholesky agree on which matrices
    read can be factored, the score is also `assert_prefix_close` to `want`.
    """
    variant = BLOCK_KINDS[name]
    if d > state.top:
        assert got is None and want is None
        return
    mats, sizes = read_matrices(state, variant, d)
    stopped = sizes < d
    infinite = 2 * stopped.sum() >= len(stopped) if variant is CriterionKind.RMDEE else stopped.any()
    assert (got is None) == infinite, (name, d, got)
    if all(lu_inverts(mat) != stop for mat, stop in zip(mats, stopped)):
        assert_prefix_close(got, want, lambda: block_kappa(state, variant, d), d)


def labeled_kappa(state, d):
    """Condition number of the jittered size-d labeled correlation matrix that DEE reads."""
    return float(condition_numbers(estimators._jittered(labeled_corr(state, d), state.ridge)))


def cv5_kappa(design, seed, d, ridge):
    """Largest condition number of the five size-d fold normal matrices."""
    n = design.shape[0]
    kappa = 1.0
    for held in _folds(n, 5, seed):
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        kappa = max(kappa, float(condition_numbers(normal_matrix(design[:, :d][mask], ridge))))
    return kappa


@settings(max_examples=80, deadline=None)
@given(trials())
def test_registry_matches_per_d_reference(case):
    kind, train, pool, path, test, ridge = case
    state = TrialState(train, pool, path, ridge, cv_seed=0)
    blocks, b1 = blocks_of(state), state.b1
    assert (blocks is None) == (pool.n < train.n)
    paths = registry_paths(state)
    assert all(len(scored) == path.d_max for scored in paths.values())
    cv5_want = kfold_cv_prefix(train, path.basis, path.d_max, ridge, 0) if train.n >= 5 else None
    for d in range(1, path.d_max + 1):
        assert_prefix_close(
            paths["CV5"][d - 1],
            None if cv5_want is None else (cv5_want[d - 1], 0),
            lambda: cv5_kappa(state.train_design, 0, d, ridge),
            d,
        )
        assert_same(
            paths["ADJ"][d - 1],
            reference_value(lambda: adj(path, train.X, pool, d)),
        )
        for name, variant in BLOCK_VARIANTS.items():
            got = paths[name][d - 1]
            if blocks is None or (variant is not CriterionKind.MDEE3 and b1 is None):
                assert got == (math.inf, 0)
                continue
            want = reference_score(lambda: mdee(path, blocks, variant, b1, d, ridge))
            assert_block_close(state, name, d, got, want)

    fit = fitted(state)
    fit_paths = registry_paths(fit, ["DEE", "rmDEE"])
    flagged_seen = 0
    for d in range(1, fit.path.d_max + 1):
        assert_prefix_close(
            fit_paths["DEE"][d - 1],
            reference_score(lambda: dee(fit.path, train.X, pool, d, ridge)),
            lambda: labeled_kappa(fit, d),
            d,
        )
        got = fit_paths["rmDEE"][d - 1]
        if blocks is None:
            assert got == (math.inf, 0)
            continue
        want = reference_score(lambda: rmdee(fit.path, blocks, train.X, d, ridge))
        assert_block_close(fit, "rmDEE", d, got, want)
        flagged_seen += got[1] if got else 0
    if kind == "flagged_block" and blocks is not None:
        assert flagged_seen > 0

    models = [FittedModel(path.alpha(d), path.train_loss(d)) for d in range(1, path.d_max + 1)]
    want = [model_test_error(model, test, path.basis) for model in models]
    np.testing.assert_allclose(path_test_errors(path, test), want, rtol=1e-12, atol=0.0)


def test_value_error_in_a_criterion_propagates(monkeypatch):
    def broken(state):
        raise ValueError("a bug, not a numerical failure")

    monkeypatch.setitem(CRITERIA, "FPE", broken)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="a bug"):
        evaluate_trial(
            trial=0,
            cell={"n": 10},
            train=LabeledSet(X=rng.normal(size=(10, 1)), y=rng.normal(size=10)),
            unlabeled=UnlabeledSet(X=rng.normal(size=(40, 1))),
            test=LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20)),
            d_max=3,
            cfg=config(criteria=["FPE"]),
            cv_seed=0,
        )


def test_singular_design_error_becomes_sentinel(monkeypatch):
    # A criterion marks a size whose risk is undefined, a numerical failure
    # such as a singular matrix, with NaN; the trial records it as inf@d.
    def singular(state):
        return np.array([1.0, math.nan, 1.0 / 3]), 0

    monkeypatch.setitem(CRITERIA, "FPE", singular)
    rng = np.random.default_rng(1)
    result = evaluate_trial(
        trial=0,
        cell={"n": 10},
        train=LabeledSet(X=rng.normal(size=(10, 1)), y=rng.normal(size=10)),
        unlabeled=UnlabeledSet(X=rng.normal(size=(40, 1))),
        test=LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20)),
        d_max=3,
        cfg=config(criteria=["FPE"]),
        cv_seed=0,
    )
    assert result.flags["FPE"] == "inf@d2"
    assert result.d_hat["FPE"] == 3


@st.composite
def flag_trials(draw):
    """Pools whose blocks are flagged at some sizes, for a path fittable at every size."""
    n = draw(st.integers(6, 12))
    m = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["discrete", "constant_block", "late_flag", "small_pool"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d_max = n - 1
    ridge = draw(st.sampled_from([1e-9, 1e-13]))
    pool_rows = draw(st.integers(n - 2, n - 1)) if kind == "small_pool" else draw(st.integers(2 * n, 6 * n))
    labeled_kind = "discrete" if kind == "discrete" and ridge == 1e-9 else "gauss"
    train = LabeledSet(X=covariates(rng, n, m, labeled_kind), y=rng.normal(size=n))
    pool = covariates(rng, pool_rows, m, "discrete" if kind == "discrete" else "gauss")
    if kind == "constant_block":
        # rank one: flagged for every d >= 2 at ridge 1e-13
        pool[:n] = 0.7
    elif kind == "late_flag":
        # d_max - 2 distinct rows, evenly spaced over one period so that no two
        # nearly coincide: rank-deficient only near d_max
        levels = np.linspace(-np.pi, np.pi, d_max - 2, endpoint=False) + rng.uniform(0.0, 0.3)
        pool[:n] = levels[np.arange(n) % (d_max - 2), None]
    path = random_path(rng, BasisSpec("fourier", m), d_max)
    test = LabeledSet(X=rng.normal(size=(15, m)), y=rng.normal(size=15))
    return kind, train, UnlabeledSet(X=pool), path, test, ridge


def cond_counts(flags):
    return {int(d): int(k) for d, k in re.findall(r"cond@d(\d+)=(\d+)", flags)}


@settings(max_examples=60, deadline=None)
@given(flag_trials())
def test_shared_block_flags_match_per_d_invert_blocks(case):
    kind, train, pool, path, test, ridge = case
    cfg = config(ridge, criteria=["mDEE1", "mDEE2", "mDEE3"], d_max=path.d_max)
    state = TrialState(train, pool, path, ridge, cv_seed=0)
    with mock.patch.object(harness, "fit_design_path", lambda *args: path):
        result = evaluate_trial(0, {"n": train.n}, train, pool, test, path.d_max, cfg, cv_seed=0)
    # rmDEE reads the labeled matrix, so it runs on the path the trial fits
    cfg = config(ridge, criteria=["rmDEE"], d_max=path.d_max)
    result.flags.update(evaluate_trial(0, {"n": train.n}, train, pool, test, path.d_max, cfg, cv_seed=0).flags)
    if kind == "small_pool":
        assert state.n_blocks == 0
        assert all(not cond_counts(flags) for flags in result.flags.values())
        return

    b1, fit = state.b1, fitted(state)
    paths = {**registry_paths(state, ["mDEE1", "mDEE2", "mDEE3"]), "rmDEE": scored(fit, "rmDEE")}
    want = {name: {} for name in result.flags}
    flagged_at = {}
    for d in range(1, path.d_max + 1):
        flagged = invert_blocks(block_corr_stack(blocks_of(state), path.basis, d), ridge)[1]
        flagged_at[d] = flagged
        checked, failed = state.block_checks
        assert tuple(np.flatnonzero(checked[d - 1]).tolist()) == flagged and not failed[d - 1]
        counts = {"mDEE1": sum(b >= b1 for b in flagged), "mDEE2": len(flagged), "mDEE3": len(flagged)}
        if d <= fit.path.d_max:
            counts["rmDEE"] = len(invert_blocks(labeled_corr(fit, d), ridge)[1]) + len(flagged)
        for name, count in counts.items():
            on = fit if name == "rmDEE" else state
            if count and paths[name][d - 1] is not None:  # an infinite size carries inf@d instead
                want[name][d] = count
            assert_block_close(on, name, d, paths[name][d - 1], per_d_route(on, name)[d - 1])
    for name, flags in result.flags.items():
        assert cond_counts(flags) == want[name], name
    if kind in ("constant_block", "late_flag") and ridge == 1e-13:
        assert 0 in flagged_at[path.d_max]
    if kind == "late_flag" and ridge == 1e-13:
        assert 0 not in flagged_at[path.d_max - 3]


def test_singular_block_fails_only_the_criteria_that_read_it():
    # Rows at x = 0 make every sine feature 0 and every cosine feature constant,
    # so at ridge 0 block 0 is rank one at d = 2, where its factor stops and its
    # LU inverse is flagged, and has a zero row and column from d = 3 on, where
    # its inverse raises. The means that read it fail from d = 2 on; mDEE1 does
    # not read it, and rmDEE's median takes its trace as +inf and stays finite.
    # rmDEE reads the labeled factor, so the state holds the path the trial fits.
    rng = np.random.default_rng(3)
    n, ridge = 8, 0.0
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = rng.normal(size=(4 * n, 1))
    pool[:n] = 0.0
    pool = UnlabeledSet(X=pool)
    state = fitted(TrialState(train, pool, random_path(rng, BasisSpec("fourier", 1), n - 1), ridge, cv_seed=0))
    path = state.path
    assert path.d_max == n - 1
    state.b1 = 2  # block 0 feeds only the C side of mDEE1
    names = ("mDEE1", "mDEE2", "mDEE3", "rmDEE")
    paths = registry_paths(state, names)
    assert state.block_factors[1].tolist() == [1, n - 1, n - 1, n - 1]
    for d in range(1, n):
        for name in names:
            assert_block_close(state, name, d, paths[name][d - 1], per_d_route(state, name)[d - 1])
        assert_prefix_close(
            paths["mDEE1"][d - 1],
            reference_score(lambda: mdee(path, blocks_of(state), CriterionKind.MDEE1, 2, d, ridge)),
            lambda: block_kappa(state, CriterionKind.MDEE1, d),
            d,
        )
        assert paths["rmDEE"][d - 1] is not None and math.isfinite(paths["rmDEE"][d - 1][0])
        for name in ("mDEE2", "mDEE3"):
            assert (paths[name][d - 1] is None) == (d >= 2)
        if d >= 3:
            for variant in (CriterionKind.MDEE2, CriterionKind.MDEE3):
                with pytest.raises(SingularDesignError, match="block 0"):
                    mdee(path, blocks_of(state), variant, 2, d, ridge)
            assert math.isfinite(rmdee(path, blocks_of(state), train.X, d, ridge).risk)


def test_singular_split_block_leaves_b1_unavailable(monkeypatch):
    # As above, block 0 is singular at ridge 0 from d = 3 on, so the b1 split
    # at d_max cannot be formed; the run records that instead of stopping.
    rng = np.random.default_rng(3)
    n, ridge = 8, 0.0
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = rng.normal(size=(4 * n, 1))
    pool[:n] = 0.0
    test = LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20))
    path = random_path(rng, BasisSpec("fourier", 1), n - 1)
    cfg = config(ridge, criteria=["mDEE1", "mDEE3", "FPE"], d_max=n - 1)
    monkeypatch.setattr(harness, "fit_design_path", lambda *args: path)
    result = evaluate_trial(0, {"n": n}, train, UnlabeledSet(X=pool), test, n - 1, cfg, cv_seed=0)
    assert result.flags["mDEE1"] == "b1_unavailable;all_infinite"
    assert "inf@d3" in result.flags["mDEE3"].split(";")
    assert result.flags["FPE"] == ""


def test_svd_failure_becomes_sentinel(monkeypatch):
    # A block of duplicated pool rows at ridge 1e-13: the gate fires on that
    # block, so every size is condition-checked by an SVD, and an SVD that
    # fails makes the size inf@d for the criteria that read the blocks. The
    # labeled rows are well conditioned, so the path fit's gate does not fire,
    # and DEE, which runs no check of its own, stays finite.
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    rng = np.random.default_rng(4)
    train = LabeledSet(X=rng.normal(size=(10, 1)), y=rng.normal(size=10))
    pool = rng.normal(size=(40, 1))
    pool[:10] = 0.7
    test = LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20))
    cfg = config(ridge=1e-13, criteria=["DEE", "mDEE3", "rmDEE", "FPE"], d_max=4)
    basis = BasisSpec("fourier", 1)
    design = build_design(basis, train.X, 4)
    normal = normal_matrix(design, 1e-13)
    assert not interlacing_gate(normal, *inverse_factor(normal))
    state = TrialState(train, UnlabeledSet(X=pool), fit_design_path(design, train.y, basis, 1e-13), 1e-13, cv_seed=0)
    top = state.top
    assert state.path.d_max == top == 4
    jittered = estimators._jittered(state.block_corrs[:, :top, :top], state.ridge)
    assert interlacing_gate(jittered, *state.block_factors)[0]
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(SingularDesignError, match="SVD did not converge"):
        invert_blocks(np.eye(2)[None])
    result = evaluate_trial(0, {"n": 10}, train, UnlabeledSet(X=pool), test, 4, cfg, cv_seed=0)
    for name in ("mDEE3", "rmDEE"):
        assert result.flags[name] == "inf@d1;inf@d2;inf@d3;inf@d4;all_infinite"
    assert result.flags["DEE"] == result.flags["FPE"] == ""


def test_b1_unavailable_only_on_split_criteria():
    # n_unlabeled 15 at n = 10 gives one block: no split, but mDEE3 and rmDEE still score it.
    rng = np.random.default_rng(5)
    n = 10
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = UnlabeledSet(X=rng.normal(size=(15, 1)))
    test = LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20))
    cfg = config(criteria=["mDEE1", "mDEE3", "rmDEE"])
    result = evaluate_trial(0, {"n": n}, train, pool, test, 8, cfg, cv_seed=0)
    assert result.flags["mDEE1"] == "b1_unavailable;all_infinite"
    for name in ("mDEE3", "rmDEE"):
        assert "b1_unavailable" not in result.flags[name].split(";")
        assert "all_infinite" not in result.flags[name].split(";")


@pytest.mark.parametrize("n_blocks, m", [(7, 2), (5, 3), (4, 1), (9, 2)])
@pytest.mark.parametrize("d_max, pool", [(1, "gauss"), (3, "equal")])
def test_b1_is_the_tie_where_the_blocks_do_not_vary(n_blocks, m, d_max, pool):
    # At d = 1 every block's correlation matrix is exactly M^2, and blocks of
    # equal rows have equal matrices at every d; then Var(mu) and Var(nu) are
    # 0, a1 = a2 = 0 and the split is the tie floor(B / 2). The mean of B
    # equal values may differ from them in the last bit; that rounding must
    # not pick the split, on either inverse route.
    rng = np.random.default_rng(n_blocks)
    n = 6
    train = LabeledSet(X=rng.normal(size=(n, m)), y=rng.normal(size=n))
    path = random_path(rng, BasisSpec("fourier", m), d_max)
    X = rng.normal(size=(n_blocks * n, m)) if pool == "gauss" else np.full((n_blocks * n, m), 0.7)
    state = TrialState(train, UnlabeledSet(X=X), path, 1e-9, cv_seed=0)
    assert np.all(state.block_corrs == state.block_corrs[0])
    assert state.b1 == select_b1(blocks_of(state), path.basis, d_max, 1e-9)[0] == n_blocks // 2


def test_b1_keeps_a_flagged_block():
    # Block 0 of rows all at x = 0.7 is rank one, so at ridge 1e-13 its d_max
    # matrix is flagged above COND_LIMIT, yet its Cholesky factor is whole and
    # its inverse, with entries near 1e13, enters the nu moments. The split
    # keeps it, as the mean criteria keep a flagged block's trace: b1 is 1,
    # where the five other blocks alone would give 2.
    rng = np.random.default_rng(2)
    n, d_max, ridge = 10, 9, 1e-13
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = rng.normal(size=(6 * n, 1))
    pool[:n] = 0.7
    path = random_path(rng, BasisSpec("fourier", 1), d_max)
    state = TrialState(train, UnlabeledSet(X=pool), path, ridge, cv_seed=0)
    factors, sizes = state.block_factors
    assert sizes.tolist() == [d_max] * 6 and state.block_checks[0][d_max - 1, 0]
    invs = np.swapaxes(factors, 1, 2) @ factors
    assert estimators.moment_split(state.block_corrs[1:], invs[1:])[0] == 2
    assert state.b1 == select_b1(blocks_of(state), path.basis, d_max, ridge)[0] == 1


def test_b1_unavailable_where_the_factors_do_not_reach_d_max():
    # d_max = n leaves top = n - 1 < d_max: the block factors never reach
    # d_max, so there is no split, although the jittered d_max blocks invert.
    rng = np.random.default_rng(12)
    n = 8
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    path = random_path(rng, BasisSpec("fourier", 1), n)
    state = TrialState(train, UnlabeledSet(X=rng.normal(size=(5 * n, 1))), path, 1e-9, cv_seed=0)
    assert state.top == n - 1 and state.b1 is None
    assert select_b1(blocks_of(state), path.basis, n, 1e-9)[0] >= 1


def test_b1_not_built_without_a_split_criterion(monkeypatch):
    def no_split(*args):
        raise AssertionError("b1 split built for criteria that do not read it")

    monkeypatch.setattr(estimators, "moment_split", no_split)
    rng = np.random.default_rng(6)
    train = LabeledSet(X=rng.normal(size=(10, 1)), y=rng.normal(size=10))
    pool = UnlabeledSet(X=rng.normal(size=(60, 1)))
    test = LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20))
    cfg = config(criteria=["DEE", "mDEE3", "rmDEE"])
    result = evaluate_trial(0, {"n": 10}, train, pool, test, 8, cfg, cv_seed=0)
    assert set(result.d_hat) == {"DEE", "mDEE3", "rmDEE"}


# ---------------------------------------------------------------------------
# Path-valued routes against their per-d references, each within its derived
# bound, with the same sizes undefined or infinite


@st.composite
def labeled_paths(draw):
    """Labeled sets with d_max up to n + 2; some repeat rows, some have fewer distinct rows than d_max."""
    n = draw(st.integers(5, 14))
    m = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["gauss", "discrete", "late_singular"]))
    d_max = draw(st.integers(1, n + 2))
    ridge = draw(st.sampled_from([1e-9, 1e-13, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = covariates(rng, n, m, "discrete" if kind == "discrete" else "gauss")
    if kind == "late_singular" and d_max > 3:
        # d_max - 2 distinct rows: singular only at the largest sizes
        X = X[np.arange(n) % min(d_max - 2, n)]
    return LabeledSet(X=X, y=rng.normal(size=n)), BasisSpec("fourier", m), d_max, ridge, rng


@settings(max_examples=120, deadline=None)
@given(labeled_paths(), st.integers(0, 2**16))
def test_cv5_path_equals_per_d_kfold_cv(case, seed):
    data, basis, d_max, ridge, _ = case
    design = build_design(basis, data.X, d_max)
    got = kfold_cv_path(design, data.y, ridge, seed)
    want = kfold_cv_prefix(data, basis, d_max, ridge, seed)
    for d in range(1, d_max + 1):
        assert_prefix_close((got[d - 1], 0), (want[d - 1], 0), lambda: cv5_kappa(design, seed, d, ridge), d)


# The path fit reads size d's coefficients from the d_max inverse Cholesky
# factor W as W[:d, :d]^T W[:d, :d] b, and `ridge_lse` solves the size-d normal
# equations A alpha = b by their own factor. Each route is backward stable in A
# (a perturbation of order d eps ||A||, moving alpha by d kappa(A) eps ||alpha||
# to first order) and forms b = V^T y by a sum over the n rows, with an error
# of at most n eps | |V|^T |y| | that ||A^{-1}|| = kappa / ||A|| carries into
# alpha; when the responses cancel in b (a small alpha at d = 1), that term is
# the larger one. The training loss ||y - V alpha||^2 / n moves by at most
# (2 ||r|| + E) E / n, where E bounds the move of the residual vector: ||V|| times
# alpha's bound, plus the rounding d eps | |y| + |V| |alpha| | of forming it.
# On 9,000 random paths from the generator above the largest ratio of a
# difference to its bound at FIT_C = 1 was 0.26 for alpha and 0.20 for the loss.
FIT_C = 2


def fit_bounds(v, y, alpha, ridge):
    """Bounds on the moves of the size-d coefficients and training loss between the two fit routes."""
    n, d = v.shape
    s = np.linalg.svd(normal_matrix(v, ridge), compute_uv=False)
    kappa = s[0] / s[-1]
    rhs = np.linalg.norm(np.abs(v).T @ np.abs(y))
    alpha_bound = FIT_C * EPS * (d * kappa * np.linalg.norm(alpha) + n * rhs / s[-1])
    resid = np.linalg.norm(np.abs(y) + np.abs(v) @ np.abs(alpha))
    move = np.linalg.norm(v, 2) * alpha_bound + FIT_C * d * EPS * resid
    return alpha_bound, (2 * np.linalg.norm(y - v @ alpha) + move) * move / n


@settings(max_examples=120, deadline=None)
@given(labeled_paths())
def test_gated_fit_model_path_equals_per_d_ridge_lse(case):
    data, basis, d_max, ridge, _ = case
    full = build_design(basis, data.X, d_max)
    want = []
    for d in range(1, d_max + 1):
        try:
            want.append(ridge_lse(full[:, :d], data.y, ridge))
        except SingularDesignError:
            with pytest.raises(SingularDesignError, match=f"model size d={d}:"):
                fit_model_path(data, basis, d_max, ridge)
            return
    got = fit_model_path(data, basis, d_max, ridge)
    assert got.d_max == len(want)
    for d, w in enumerate(want, start=1):
        alpha_bound, loss_bound = fit_bounds(full[:, :d], data.y, w.alpha, ridge)
        assert np.linalg.norm(got.alpha(d) - w.alpha) <= alpha_bound
        assert abs(got.train_loss(d) - w.train_loss) <= loss_bound


# ADJ's labeled distances rho_l are the reference's, bit for bit, so the same
# pairs are skipped below RHO_FLOOR; a size whose pairs are all skipped has
# the training loss itself as its risk. The pool distance rho_u is ||R delta||
# for the triangular factor R of the pool design, where the reference takes
# the RMS difference of two pool predictions. Each row of that difference is
# within d eps (|Phi| (|alpha_j| + |alpha_d|)) of the exact one for the design;
# Householder QR gives the exact R of a design whose column k moves by a
# multiple of n' d eps ||Phi e_k|| at worst, and of order (d + n') eps in
# practice. Both moves of rho_u are thus within (d + n') eps t, with
# t = sum_k (|alpha_j| + |alpha_d|)_k rms(Phi e_k), which includes the
# reference's cancellation of two nearby models' predictions, and the ratio
# moves by that over rho_l. The pool correlation matrix would not do: its
# rounding moves delta^T C~ delta by about d eps t^2, which is rho_u^2 itself
# when rho_u and rho_l are near 1e-8, as for the nearly equal models of a
# design with few distinct rows. On 4,500 random paths from the generators
# below the largest ratio of a difference to its bound at ADJ_C = 1 was 0.52.
ADJ_C = 4


def adj_bound(path, design_l, design_u, d):
    """Bound on the move of ADJ's risk at size d between `adj_path` and `adj`; 0 where every pair is skipped."""
    alpha_d = path.alpha(d)
    rms = np.sqrt(np.mean(design_u[:, :d] ** 2, axis=0))
    worst = 0.0
    for j in range(1, d):
        alpha_j = path.alpha(j)
        rho_l = math.sqrt(float(np.mean((design_l[:, :j] @ alpha_j - design_l[:, :d] @ alpha_d) ** 2)))
        if rho_l < RHO_FLOOR:
            continue
        scale = float((np.abs(np.append(alpha_j, np.zeros(d - j))) + np.abs(alpha_d)) @ rms)
        worst = max(worst, ADJ_C * (d + len(design_u)) * EPS * scale / rho_l)
    return path.train_loss(d) * worst


@settings(max_examples=150, deadline=None)
@given(
    labeled_paths(),
    st.sampled_from([1, 7, 40, 300]),
    st.sampled_from(["gauss", "discrete"]),
    st.sampled_from(["random", "repeat", "nearby", "fitted"]),
)
def test_adj_path_equals_per_d_adj(case, pool_rows, pool_kind, models):
    data, basis, d_max, ridge, rng = case
    path = random_path(rng, basis, d_max)
    if models == "repeat":
        # a zero trailing coefficient: some models predict like the next smaller
        # one, so rho_l falls below RHO_FLOOR and the ratio is skipped
        for d in range(2, d_max + 1, 2):
            path.alphas[d - 1, :d] = np.append(path.alpha(d - 1), 0.0)
    elif models == "nearby":
        # a tiny trailing coefficient: two models' pool predictions nearly cancel
        for d in range(2, d_max + 1):
            path.alphas[d - 1, :d] = np.append(path.alpha(d - 1), 1e-9 * rng.normal())
    elif models == "fitted":
        # fitted on a few distinct rows, the larger models differ almost only
        # off those rows: rho_l is tiny or below RHO_FLOOR, and on a discrete
        # pool of the same levels so is rho_u
        path = fit_design_path(build_design(basis, data.X, d_max), data.y, basis, max(ridge, 1e-9))
    pool = UnlabeledSet(X=covariates(rng, pool_rows, basis.covariate_dim, pool_kind))
    design_l, design_u = build_design(basis, data.X, path.d_max), build_design(basis, pool.X, path.d_max)
    got = adj_path(path, design_l, np.linalg.qr(design_u, mode="r") / math.sqrt(pool_rows))
    for d in range(1, path.d_max + 1):
        want = adj(path, data.X, pool, d)
        bound = adj_bound(path, design_l, design_u, d)
        assert got[d - 1] == want if bound == 0 else abs(got[d - 1] - want) <= bound, (d, got[d - 1], want, bound)


@pytest.mark.parametrize("pool_rows, pool_kind", [(5, "discrete"), (300, "discrete"), (300, "gauss")])
def test_adj_path_on_a_path_fitted_to_few_distinct_rows(pool_rows, pool_kind):
    # Ten labeled rows at three levels: from d = 4 on the fits agree on the
    # labeled rows to within 1e-8 or less, so rho_l is tiny or below RHO_FLOOR,
    # and on a pool of the same levels so is rho_u. The quadratic form
    # delta^T C~ delta loses rho_u here; ||R delta|| does not.
    basis = BasisSpec("fourier", 1)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        data = LabeledSet(X=covariates(rng, 10, 1, "discrete"), y=rng.normal(size=10))
        path = fit_design_path(build_design(basis, data.X, 9), data.y, basis, 1e-9)
        pool = UnlabeledSet(X=covariates(rng, pool_rows, 1, pool_kind))
        design_l, design_u = build_design(basis, data.X, path.d_max), build_design(basis, pool.X, path.d_max)
        got = adj_path(path, design_l, np.linalg.qr(design_u, mode="r") / math.sqrt(pool_rows))
        for d in range(1, path.d_max + 1):
            want = adj(path, data.X, pool, d)
            bound = adj_bound(path, design_l, design_u, d)
            assert got[d - 1] == want if bound == 0 else abs(got[d - 1] - want) <= bound, (seed, d, got[d - 1], want)


@settings(max_examples=120, deadline=None)
@given(labeled_paths(), st.sampled_from(["gauss", "discrete"]))
def test_dee_and_block_paths_equal_per_d_checks(case, pool_kind):
    data, basis, d_max, ridge, rng = case
    pool = UnlabeledSet(X=covariates(rng, 4 * data.n, basis.covariate_dim, pool_kind))
    path = random_path(rng, basis, d_max)
    state = TrialState(data, pool, path, ridge, cv_seed=0)
    paths = registry_paths(state, BLOCK_VARIANTS)
    scored_names = ["mDEE3"]
    if state.b1 is None:  # a block singular at d_max leaves no split
        assert paths["mDEE1"] == paths["mDEE2"] == [(math.inf, 0)] * d_max
    else:
        scored_names += ["mDEE1", "mDEE2"]
    for name in scored_names:
        for d, (got, want) in enumerate(zip(paths[name], per_d_route(state, name)), start=1):
            assert_block_close(state, name, d, got, want)

    # DEE and rmDEE read the labeled matrix: on the path the trial fits
    fit = fitted(state)
    paths = registry_paths(fit, ["DEE", "rmDEE"])
    rmdee_want = per_d_route(fit, "rmDEE")
    for d in range(1, fit.path.d_max + 1):
        if d >= data.n:
            assert paths["DEE"][d - 1] is None and paths["rmDEE"][d - 1] is None
            continue
        c_hat = labeled_corr(fit, d)
        c_tilde = correlation_matrix(fit.pool_design[:, :d])
        scored = per_d_check(lambda: (dee_trace(c_hat, c_tilde, ridge), ()))
        want = None if scored is None else (corrected(fit, scored[0], d), 0)
        assert_prefix_close(paths["DEE"][d - 1], want, lambda: labeled_kappa(fit, d), d)
        assert_block_close(fit, "rmDEE", d, paths["rmDEE"][d - 1], rmdee_want[d - 1])


def late_singular_labeled(n=12, distinct=6):
    """Labeled rows at `distinct` levels: at ridge 1e-13 the matrices are singular above size `distinct` only."""
    rng = np.random.default_rng(7)
    X = (0.7 * (np.arange(n) % distinct))[:, None]
    return LabeledSet(X=X, y=rng.normal(size=n))


def test_cv5_gate_rechecks_a_fold_singular_near_d_max():
    data, d_max, ridge = late_singular_labeled(), 9, 1e-13
    design = build_design(BasisSpec("fourier", 1), data.X, d_max)
    mask = np.ones(data.n, dtype=bool)
    mask[np.array_split(np.random.default_rng(3).permutation(data.n), 5)[0]] = False
    normal = normal_matrix(design[mask], ridge)
    assert interlacing_gate(normal, *inverse_factor(normal))
    got = kfold_cv_path(design, data.y, ridge, seed=3)
    want = kfold_cv_prefix(data, BasisSpec("fourier", 1), d_max, ridge, 3)
    for d in range(1, d_max + 1):
        assert_prefix_close((got[d - 1], 0), (want[d - 1], 0), lambda: cv5_kappa(design, 3, d, ridge), d)
    assert all(math.isfinite(r) for r in got[:5]) and all(math.isinf(r) for r in got[6:])


def test_labeled_gate_rechecks_near_d_max():
    # The path fit's gate fires on the labeled normal matrix, n times the
    # jittered labeled correlation matrix, and its checks end the path at
    # size 6; DEE and rmDEE read the labeled matrix only at the sizes fitted,
    # so they are inf@d from 7 on and flag no size.
    data, d_max, ridge = late_singular_labeled(), 9, 1e-13
    rng = np.random.default_rng(8)
    pool = UnlabeledSet(X=rng.normal(size=(60, 1)))
    test = LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20))
    normal = normal_matrix(build_design(BasisSpec("fourier", 1), data.X, d_max), ridge)
    factor = inverse_factor(normal)
    assert factor[1] == d_max and interlacing_gate(normal, *factor)
    cfg = config(ridge, criteria=["DEE", "rmDEE"], d_max=d_max)
    result = evaluate_trial(0, {"n": data.n}, data, pool, test, d_max, cfg, cv_seed=0)
    for name in ("DEE", "rmDEE"):
        assert result.flags[name] == "inf@d7;inf@d8;inf@d9"


def assert_labeled_checks_pass(train, basis, d_max, ridge):
    """Every size 1..`top` of the path fitted at `ridge` has a jittered labeled correlation matrix within COND_LIMIT."""
    path = fit_design_path(build_design(basis, train.X, d_max), train.y, basis, ridge)
    state = TrialState(train, UnlabeledSet(X=np.empty((0, basis.covariate_dim))), path, ridge, cv_seed=0)
    for d in range(1, state.top + 1):
        kappa = float(condition_numbers(estimators._jittered(labeled_corr(state, d), state.ridge)))
        assert kappa <= COND_LIMIT, (d, kappa)


# DEE and rmDEE read the labeled matrix without checking it again. That
# matrix at size d is the path fit's normal matrix over n, and condition
# numbers do not change with scale, so every size the fit reaches has passed
# the check already. These tests hold that for the paths `evaluate_trial` fits.
@settings(max_examples=300, deadline=None)
@given(labeled_paths())
def test_every_size_of_a_fitted_path_passes_the_labeled_check(case):
    data, basis, d_max, ridge, _ = case
    assert_labeled_checks_pass(data, basis, d_max, ridge)


@pytest.mark.parametrize("ridge", [0.0, 1e-13, 1e-9])
@pytest.mark.parametrize("n, m", [(10, 1), (10, 2), (12, 1), (12, 2)])
def test_fitted_paths_on_discrete_rows_pass_the_labeled_check(n, m, ridge):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        train = LabeledSet(X=covariates(rng, n, m, "discrete"), y=rng.normal(size=n))
        for d_max in (n - 1, n, n + 1):
            assert_labeled_checks_pass(train, BasisSpec("fourier", m), d_max, ridge)


# ---------------------------------------------------------------------------
# Prefix routes against the per-d routes on the same trial state


def block_state(n, m, kind, d_max, ridge, seed, pool_rows):
    """The (kind, TrialState) that `block_states` builds from its draws; `seed` seeds the covariates and the path."""
    rng = np.random.default_rng(seed)
    train = LabeledSet(X=covariates(rng, n, m, "discrete" if kind == "discrete" else "gauss"), y=rng.normal(size=n))
    pool = covariates(rng, pool_rows, m, "discrete" if kind == "discrete" else "gauss")
    if kind == "constant_block":
        pool[:n] = 0.7  # rank one: flagged from d = 2 on at the smaller ridges
    elif kind == "zero_block":
        pool[:n] = 0.0  # every sine feature 0: singular from d = 3 on at ridge 0
    path = random_path(rng, BasisSpec("fourier", m), d_max)
    return kind, TrialState(train, UnlabeledSet(X=pool), path, ridge, cv_seed=0)


@st.composite
def block_states(draw):
    """Trial states whose pools are random, discrete, flagged, singular at ridge 0 or smaller than one block."""
    n = draw(st.integers(5, 14))
    m = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["gauss", "discrete", "constant_block", "zero_block", "small_pool"]))
    d_max = draw(st.integers(1, n + 2))
    ridge = draw(st.sampled_from([1e-9, 1e-13, 0.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    pool_rows = n - 1 if kind == "small_pool" else draw(st.integers(n, 6 * n))
    return block_state(n, m, kind, d_max, ridge, seed, pool_rows)


# Discrete pools at ridge 0 whose blocks have fewer distinct rows than d_max:
# every block matrix at d_max is singular (condition 1e16 and above), yet
# rounding keeps its Cholesky pivots positive. Unless such a pivot stops the
# factor, the prefix route reads traces of order 1/eps (rmDEE 7e15 against the
# LU route's 6.3 in the first), and in the second the b1 from W^T W differs
# from the LU `select_b1`.
@example(case=block_state(5, 1, "discrete", 3, 0.0, 37, 10))
@example(case=block_state(6, 2, "discrete", 4, 0.0, 124477, 30))
@settings(max_examples=150, deadline=None)
@given(block_states())
def test_block_prefix_paths_match_the_per_d_route(case):
    kind, state = case
    if kind == "small_pool":
        assert state.n_blocks == 0
    if state.b1 is not None:
        assert state.b1 == select_b1(blocks_of(state), state.path.basis, state.path.d_max, state.ridge)[0]
    for name in BLOCK_KINDS:
        on = fitted(state) if name == "rmDEE" else state  # rmDEE reads the labeled matrix
        got, want = scored(on, name), per_d_route(on, name)
        assert len(got) == len(want) == on.path.d_max
        if on.n_blocks == 0 or (name in harness.SPLIT_CRITERIA and on.b1 is None):
            assert got == want
            continue
        for d, (g, w) in enumerate(zip(got, want), start=1):
            assert_block_close(on, name, d, g, w)


def test_rmdee_median_survives_a_block_factor_that_stops():
    # Block 0 is five rows at one level, at ridge 0: its matrix is singular
    # from d = 2 on, where its factor stops and its trace is +inf, and where
    # the per-d reference's LU inverse fails too. The labeled factor, the path
    # fit's, and the five other blocks reach every size and keep the median of
    # the seven traces finite.
    rng = np.random.default_rng(9)
    n, ridge, basis = 5, 0.0, BasisSpec("fourier", 1)
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = rng.normal(size=(6 * n, 1))
    pool[:n] = 0.4
    path = fit_design_path(build_design(basis, train.X, n - 1), train.y, basis, ridge)
    state = TrialState(train, UnlabeledSet(X=pool), path, ridge, cv_seed=0)
    top = state.top
    assert top == path.d_max == n - 1 and state.block_factors[1].tolist() == [1] + [n - 1] * 5
    corrs = state.block_corrs[:, :top, :top]
    got = estimators.rmdee_trace_path(corrs, state.block_factors, state.labeled_factor)
    assert np.isfinite(got).all()
    for d in range(1, top + 1):
        want = rmdee_trace(corrs[:, :d, :d], labeled_corr(state, d), ridge)[0]
        read = np.concatenate((labeled_corr(state, d)[None], corrs[1:, :d, :d]))
        kappa = float(condition_numbers(estimators._jittered(read, state.ridge)).max())
        assert abs(got[d - 1] - want) <= prefix_bound(want, kappa, d), (d, got[d - 1], want)


def test_a_factor_that_stops_where_lu_inverts_makes_the_means_infinite():
    # Block 0 is made indefinite from size 3 on: its LU inverse exists at every
    # size, but its Cholesky factorization stops at leading minor 3. The means
    # that read it are None from d = 3 on, where the LU references stay finite;
    # rmDEE's median takes its trace as +inf and stays finite. rmDEE reads the
    # labeled factor, so the state holds the path the trial fits.
    rng = np.random.default_rng(11)
    n, d_max = 10, 6
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = UnlabeledSet(X=rng.normal(size=(5 * n, 1)))
    path = random_path(rng, BasisSpec("fourier", 1), d_max)
    state = fitted(TrialState(train, pool, path, 1e-9, cv_seed=0))
    assert state.path.d_max == d_max
    corrs = state.block_corrs.copy()
    corrs[0] = np.diag([1.0, 1.0, -0.5, 1.0, 1.0, 1.0])
    state.block_corrs = corrs
    assert state.block_factors[1].tolist() == [2, d_max, d_max, d_max, d_max]
    paths = registry_paths(state, ["mDEE3", "rmDEE"])
    for d in range(1, d_max + 1):
        assert (paths["mDEE3"][d - 1] is None) == (d >= 3)
        assert per_d_route(state, "mDEE3")[d - 1] is not None
        assert paths["rmDEE"][d - 1] is not None and math.isfinite(paths["rmDEE"][d - 1][0])
        for name in ("mDEE3", "rmDEE"):
            assert_block_close(state, name, d, paths[name][d - 1], per_d_route(state, name)[d - 1])


@pytest.mark.parametrize("name", ["DEE", "mDEE1", "mDEE2", "mDEE3", "rmDEE"])
@pytest.mark.parametrize("seed", range(3))
def test_one_size_views_are_the_last_entries_of_the_path_routes(name, seed):
    # `dee_trace`, `mdee_trace` and `rmdee_trace` are the last entry of their
    # path route on the factors of the jittered matrices they are given, bit
    # for bit. On well-conditioned stacks they are within `prefix_bound` of
    # the LU references and flag the same blocks.
    rng = np.random.default_rng(seed)
    basis, d, ridge, b1 = BasisSpec("fourier", 1), 4, 1e-9, 2
    corrs = block_corr_stack(rng.normal(size=(6, 10, 1)), basis, d)
    labeled = correlation_matrix(build_design(basis, rng.normal(size=(10, 1)), d))
    jitter = ridge * np.eye(d)
    if name == "DEE":
        got, flags = estimators.dee_trace(labeled, corrs[0], ridge), ()
        route = estimators.dee_trace_path(inverse_factor(labeled + jitter)[0], corrs[0])
        want, want_flags = dee_trace(labeled, corrs[0], ridge), ()
        read = labeled[None]
    elif name == "rmDEE":
        got, flags = estimators.rmdee_trace(corrs, labeled, ridge)
        read = np.concatenate((labeled[None], corrs))
        route = estimators.rmdee_trace_path(corrs, estimators.inverse_factors(read + jitter))
        want, want_flags = rmdee_trace(corrs, labeled, ridge)
    else:
        variant = BLOCK_VARIANTS[name]
        got, flags = estimators.mdee_trace(corrs, variant, b1, ridge)
        route = estimators.mdee_trace_path(corrs, estimators.inverse_factors(corrs + jitter), variant, b1)
        want, want_flags = mdee_trace(corrs, variant, b1, ridge)
        read = corrs[block_sides(variant, b1, len(corrs))[1] :]
    assert got == route[-1]
    assert flags == want_flags
    kappa = float(condition_numbers(read + jitter).max())
    assert abs(got - want) <= prefix_bound(want, kappa, d), (got, want)


@pytest.mark.parametrize("distinct", [2, 3, 4, 5, 6])
def test_a_block_of_few_distinct_rows_is_infinite_where_its_matrix_turns_singular(distinct, monkeypatch):
    # At ridge 0 a block whose rows take `distinct` values has a matrix of
    # rank `distinct`: singular from the next size on. Rounding can leave
    # that Cholesky pivot positive, but it is at rounding level, so the
    # factor stops there. The means that read the block are +inf from that
    # size on, and the trial marks those sizes inf@d on mDEE3.
    rng = np.random.default_rng(distinct)
    n, d_max = 12, 9
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = rng.normal(size=(4 * n, 1))
    pool[:n] = (np.linspace(-np.pi, np.pi, distinct, endpoint=False) + 0.1)[np.arange(n) % distinct, None]
    pool = UnlabeledSet(X=pool)
    test = LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20))
    path = random_path(rng, BasisSpec("fourier", 1), d_max)
    state = TrialState(train, pool, path, 0.0, cv_seed=0)
    ranks = [int(np.linalg.matrix_rank(state.block_corrs[0, :d, :d])) for d in range(1, d_max + 1)]
    assert ranks == [min(d, distinct) for d in range(1, d_max + 1)]
    assert state.block_factors[1].tolist() == [distinct] + [d_max] * 3
    traces = estimators.mdee_trace_path(state.block_corrs, state.block_factors, CriterionKind.MDEE3, None)
    assert np.isfinite(traces[:distinct]).all() and np.isinf(traces[distinct:]).all()
    monkeypatch.setattr(harness, "fit_design_path", lambda *args: path)
    result = evaluate_trial(0, {"n": n}, train, pool, test, d_max, config(0.0, ["mDEE3"], d_max), cv_seed=0)
    assert [int(d) for d in re.findall(r"inf@d(\d+)", result.flags["mDEE3"])] == list(range(distinct + 1, d_max + 1))


def test_cv5_prefix_stops_where_the_fold_factorization_does():
    # At ridge 0 a fold of 8 rows has a singular normal matrix from d = 9 on.
    rng = np.random.default_rng(10)
    data = LabeledSet(X=rng.normal(size=(10, 1)), y=rng.normal(size=10))
    basis, d_max = BasisSpec("fourier", 1), 10
    design = build_design(basis, data.X, d_max)
    got = kfold_cv_path(design, data.y, 0.0, seed=1)
    assert all(math.isfinite(r) for r in got[:8]) and all(math.isinf(r) for r in got[8:])
    want = kfold_cv_prefix(data, basis, d_max, 0.0, 1)
    for d in range(1, d_max + 1):
        assert_prefix_close((got[d - 1], 0), (want[d - 1], 0), lambda: cv5_kappa(design, 1, d, 0.0), d)


# ---------------------------------------------------------------------------
# One build per design and per factor: the trial state against the references


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 7]), st.integers(2, 20), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_block_corrs_from_the_pool_design_equal_block_corr_stack(m, n, extra_rows, seed):
    rng = np.random.default_rng(seed)
    d_max = int(rng.integers(1, n + 3))
    train = LabeledSet(X=rng.normal(size=(n, m)), y=rng.normal(size=n))
    pool = UnlabeledSet(X=covariates(rng, 3 * n + extra_rows, m, "discrete" if seed % 2 else "gauss"))
    path = random_path(rng, BasisSpec("fourier", m), d_max)
    state = TrialState(train, pool, path, 1e-9, cv_seed=0)
    assert np.array_equal(state.block_corrs, block_corr_stack(blocks_of(state), path.basis, d_max))


def test_a_trial_builds_each_design_once_and_runs_no_svd_when_no_gate_fires(monkeypatch):
    # One labeled, one pool and one test design per trial; on well-conditioned
    # data every gate passes, so no criterion and no fit computes an SVD.
    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran although no gate fired")

    builds = []

    def counted(basis, X, d):
        builds.append(np.shape(X)[0])
        return build_design(basis, X, d)

    rng = np.random.default_rng(13)
    n = 20
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = UnlabeledSet(X=rng.normal(size=(10 * n, 1)))
    test = LabeledSet(X=rng.normal(size=(30, 1)), y=rng.normal(size=30))
    monkeypatch.setattr(harness, "build_design", counted)
    monkeypatch.setattr(estimators, "build_design", counted)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    result = evaluate_trial(0, {"n": n}, train, pool, test, 5, config(criteria=sorted(CRITERIA)), cv_seed=0)
    assert sorted(builds) == [n, 30, 10 * n]
    assert not any("inf@d" in flags or "cond@d" in flags for flags in result.flags.values())


@pytest.mark.parametrize("seed", range(4))
def test_labeled_factor_is_the_path_fits_factor_scaled(seed):
    # The jittered labeled correlation matrix is the path fit's normal matrix
    # over n, so its inverse Cholesky factor W is sqrt(n) times the leading
    # `top` x `top` block of the fit's, and no trial factors the labeled data twice.
    rng = np.random.default_rng(seed)
    n, m = 10 + seed, 1 + seed % 2
    train = LabeledSet(X=rng.normal(size=(n, m)), y=rng.normal(size=n))
    pool = UnlabeledSet(X=rng.normal(size=(3 * n, m)))
    state = fitted(TrialState(train, pool, random_path(rng, BasisSpec("fourier", m), n), 1e-9, cv_seed=0))
    top = state.top
    assert top == n - 1 < state.path.d_max == n
    got = state.labeled_factor
    assert np.array_equal(got, math.sqrt(n) * state.path.factor[:top, :top])
    jittered = estimators._jittered(labeled_corr(state, top), state.ridge)
    kappa = float(condition_numbers(jittered))
    np.testing.assert_allclose(got @ jittered @ got.T, np.eye(top), rtol=0, atol=PREFIX_C * top * kappa * EPS)


# ---------------------------------------------------------------------------
# The recurrence design and the batched block correlations against the per-column route


def edge_trial(rng):
    """An ill-conditioned trial: d_max near n, few distinct or identical rows, a pool that may hold no block, tiny ridges."""
    n, m = int(rng.integers(5, 21)), int(rng.integers(1, 4))
    kind = rng.choice(["gauss", "discrete", "duplicated", "constant"])
    pool_rows = int(rng.choice([0, n - 1, n, n + 1, 2 * n + 1, 5 * n + 3]))
    d_max = int(rng.integers(n - 3, n + 2))
    ridge = float(10.0 ** -rng.integers(9, 15))

    def rows(count):
        if kind == "gauss":
            return rng.normal(size=(count, m))
        if kind == "constant":
            return np.full((count, m), 0.7)
        return rng.integers(0, 3 if kind == "discrete" else 2, size=(count, m)) * 0.7

    train = LabeledSet(X=rows(n), y=rng.normal(size=n))
    pool = UnlabeledSet(X=rows(pool_rows) if pool_rows else np.empty((0, m)))
    test = LabeledSet(X=rng.normal(size=(40, m)), y=rng.normal(size=40))
    return train, pool, test, d_max, config(ridge=ridge, d_max=d_max)


def scored_trial(train, pool, test, d_max, cfg, patches):
    """`evaluate_trial` under `patches` and each criterion's risk path, recorded as the registry returns it."""
    risks = {}

    def recorded(name, criterion):
        def score(state):
            risks[name], flagged = criterion(state)
            return risks[name], flagged

        return score

    with contextlib.ExitStack() as stack, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the all-infinite fallback to d = 1
        for patch in [mock.patch.dict(CRITERIA, {name: recorded(name, fn) for name, fn in CRITERIA.items()}), *patches]:
            stack.enter_context(patch)
        result = evaluate_trial(0, {"n": train.n}, train, pool, test, d_max, cfg, cv_seed=3)
    return result, risks


def test_edge_set_selections_match_the_per_column_design_route():
    # The recurrence and batched correlations move the designs and block
    # matrices in their last bits. On 576 ill-conditioned trials every
    # criterion keeps its flags and, but for ADJ, its d_hat. ADJ's labeled
    # distances between sizes that fit the labeled rows' group means exactly
    # are of the order of the ridge and rounding, so its risks there are set
    # by the last bits of the design: a flip is allowed only where the
    # labeled set has at most d_max distinct rows (a random 1-ulp jitter of
    # the reference design flips ADJ there too). The flips' margins, the
    # relative gap between the two sizes' risks, are printed.
    rng = np.random.default_rng(2016)
    reference = [
        mock.patch.object(harness, "build_design", fourier_design),
        mock.patch.object(estimators, "design_corrs", block_corrs),
    ]
    margins = []
    for trial in range(576):
        train, pool, test, d_max, cfg = edge_trial(rng)
        got, risks = scored_trial(train, pool, test, d_max, cfg, [])
        want, _ = scored_trial(train, pool, test, d_max, cfg, reference)
        assert got.flags == want.flags, trial
        for name, d_hat in got.d_hat.items():
            if d_hat == want.d_hat[name]:
                continue
            assert name == "ADJ" and len(np.unique(train.X, axis=0)) <= d_max, (trial, name)
            pair = risks[name][[d_hat - 1, want.d_hat[name] - 1]]
            margins.append(abs(pair[1] - pair[0]) / np.abs(pair).max())
    print(f"ADJ flips: {len(margins)} of 576 edge trials, margins {', '.join(f'{g:.1e}' for g in sorted(margins))}")
