"""The criterion registry against the per-d reference routines.

The registry scores each size d from designs and correlation matrices built
once at d_max and sliced; CV5, DEE and the block criteria read every size from
one Cholesky factor per fold, of the labeled matrix or per block. `dee`,
`mdee`, `rmdee`, `kfold_cv`, `adj` and `test_error` rebuild every design at
size d, and `invert_blocks` checks every block's condition and takes its LU
inverse at every d. Both routes must agree exactly on the flagged-block count
and on where the risk is undefined or infinite. ADJ and the path fit agree on
the risk to the last bit (or to 1e-12 against the references that rebuild
designs); CV5, DEE and the block criteria agree within `prefix_bound`. A
block criterion's risk is None
from the first size at which a Cholesky factor it reads stops; where LU and
Cholesky disagree on whether a matrix read can be factored, only that rule is
checked. The registry's (risk, flagged) arrays are compared through `scored`,
which reads them as per-d (risk, flag count) pairs, None where the risk is NaN.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdee import estimators, harness
from mdee.baselines import _folds, adj, adj_path, kfold_cv, kfold_cv_path
from mdee.core import (
    BasisSpec,
    FittedModel,
    LabeledSet,
    ModelPath,
    SingularDesignError,
    UnlabeledSet,
    build_design,
    condition_numbers,
    correlation_matrix,
    fit_model_path,
    interlacing_gate,
    inverse_factor,
    normal_matrix,
    ridge_lse,
)
from mdee.estimators import (
    CriterionKind,
    block_corr_stack,
    block_sides,
    dee,
    dee_trace,
    invert_blocks,
    mdee,
    mdee_trace,
    rmdee,
    rmdee_trace,
    select_b1,
)
from mdee.harness import (
    CRITERIA,
    ExperimentConfig,
    SyntheticScenario,
    TrialState,
    evaluate_trial,
    path_test_errors,
)
from mdee.harness import test_error as model_test_error

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
    path = random_path(rng, basis, n, ridge)
    test = LabeledSet(X=rng.normal(size=(15, m)), y=rng.normal(size=15))
    return kind, train, UnlabeledSet(X=pool), path, test, ridge


def random_path(rng, basis, d_max, ridge):
    """A hand-built path keeps every size fittable; only its losses, coefficients and basis enter the risks."""
    models = [
        FittedModel(d=d, alpha=rng.normal(size=d), train_loss=float(rng.uniform(0.1, 2.0)), ridge_lambda=ridge)
        for d in range(1, d_max + 1)
    ]
    return ModelPath(models=models, d_max=d_max, basis=basis)


def scored(state, name):
    """A criterion's (risk, flagged) arrays as the per-d list [(risk, flag count) | None] that the assertions compare.

    None marks a size whose risk is NaN, the inf@d sentinel.
    """
    risks, flagged = CRITERIA[name](state)
    counts = np.broadcast_to(flagged, risks.shape)
    return [None if math.isnan(r) else (r, c) for r, c in zip(risks.tolist(), counts.tolist())]


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
    if state.blocks is None or (split and state.b1 is None):
        return [(math.inf, 0)] * d_max
    scored = []
    for d in range(1, d_max + 1):
        if d >= state.train.n:
            scored.append(None)
            continue
        corners = state.block_corrs[:, :d, :d]
        if variant is CriterionKind.RMDEE:
            score = per_d_check(lambda: rmdee_trace(corners, state.labeled_corr(d), state.ridge))
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
        v_start = block_sides(variant, state.b1 if split else None, len(state.blocks))[1]
    mats, sizes = state.block_corrs[v_start:, :d, :d], state.block_factors[1][v_start:]
    if variant is CriterionKind.RMDEE:
        mats = np.concatenate((state.labeled_corr(d)[None], mats))
        sizes = np.concatenate((state.labeled_factor[1], sizes))
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
    return float(condition_numbers(state.jittered(state.labeled_corr(d))))


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
    blocks, b1 = state.blocks, state.b1
    assert (blocks is None) == (pool.n < train.n)
    paths = registry_paths(state)
    assert all(len(scored) == path.d_max for scored in paths.values())
    flagged_seen = 0
    for d in range(1, path.d_max + 1):
        assert_prefix_close(
            paths["DEE"][d - 1],
            reference_score(lambda: dee(path, train.X, pool, d, ridge)),
            lambda: labeled_kappa(state, d),
            d,
        )
        assert_prefix_close(
            paths["CV5"][d - 1],
            reference_value(lambda: kfold_cv(train, path.basis, d, 5, ridge, seed=0)),
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
        got = paths["rmDEE"][d - 1]
        if blocks is None:
            assert got == (math.inf, 0)
            continue
        want = reference_score(lambda: rmdee(path, blocks, train.X, d, ridge))
        assert_block_close(state, "rmDEE", d, got, want)
        flagged_seen += got[1] if got else 0
    if kind == "flagged_block" and blocks is not None:
        assert flagged_seen > 0

    want = [model_test_error(model, test, path.basis) for model in path.models]
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
    path = random_path(rng, BasisSpec("fourier", m), d_max, ridge)
    test = LabeledSet(X=rng.normal(size=(15, m)), y=rng.normal(size=15))
    return kind, train, UnlabeledSet(X=pool), path, test, ridge


def cond_counts(flags):
    return {int(d): int(k) for d, k in re.findall(r"cond@d(\d+)=(\d+)", flags)}


@settings(max_examples=60, deadline=None)
@given(flag_trials())
def test_shared_block_flags_match_per_d_invert_blocks(case):
    kind, train, pool, path, test, ridge = case
    cfg = config(ridge, criteria=["mDEE1", "mDEE2", "mDEE3", "rmDEE"], d_max=path.d_max)
    state = TrialState(train, pool, path, ridge, cv_seed=0)
    with mock.patch.object(harness, "fit_design_path", lambda *args: path):
        result = evaluate_trial(0, {"n": train.n}, train, pool, test, path.d_max, cfg, cv_seed=0)
    if kind == "small_pool":
        assert state.blocks is None
        assert all(not cond_counts(flags) for flags in result.flags.values())
        return

    b1 = state.b1
    paths = registry_paths(state, result.flags)
    want = {name: {} for name in result.flags}
    flagged_at = {}
    for d in range(1, path.d_max + 1):
        flagged = invert_blocks(block_corr_stack(state.blocks, path.basis, d), ridge)[1]
        flagged_at[d] = flagged
        checked, failed = state.block_checks
        assert tuple(np.flatnonzero(checked[d - 1]).tolist()) == flagged and not failed[d - 1]
        labeled = invert_blocks(correlation_matrix(state.train_design[:, :d]), ridge)[1]
        counts = {
            "mDEE1": sum(b >= b1 for b in flagged),
            "mDEE2": len(flagged),
            "mDEE3": len(flagged),
            "rmDEE": len(labeled) + len(flagged),
        }
        for name, count in counts.items():
            if count and paths[name][d - 1] is not None:  # an infinite size carries inf@d instead
                want[name][d] = count
            assert_block_close(state, name, d, paths[name][d - 1], per_d_route(state, name)[d - 1])
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
    rng = np.random.default_rng(3)
    n, ridge = 8, 0.0
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = rng.normal(size=(4 * n, 1))
    pool[:n] = 0.0
    pool = UnlabeledSet(X=pool)
    path = random_path(rng, BasisSpec("fourier", 1), n - 1, ridge)
    state = TrialState(train, pool, path, ridge, cv_seed=0)
    state.b1 = 2  # block 0 feeds only the C side of mDEE1
    names = ("mDEE1", "mDEE2", "mDEE3", "rmDEE")
    paths = registry_paths(state, names)
    assert state.block_factors[1].tolist() == [1, n - 1, n - 1, n - 1]
    for d in range(1, n):
        for name in names:
            assert_block_close(state, name, d, paths[name][d - 1], per_d_route(state, name)[d - 1])
        assert_prefix_close(
            paths["mDEE1"][d - 1],
            reference_score(lambda: mdee(path, state.blocks, CriterionKind.MDEE1, 2, d, ridge)),
            lambda: block_kappa(state, CriterionKind.MDEE1, d),
            d,
        )
        assert paths["rmDEE"][d - 1] is not None and math.isfinite(paths["rmDEE"][d - 1][0])
        for name in ("mDEE2", "mDEE3"):
            assert (paths[name][d - 1] is None) == (d >= 2)
        if d >= 3:
            for variant in (CriterionKind.MDEE2, CriterionKind.MDEE3):
                with pytest.raises(SingularDesignError, match="block 0"):
                    mdee(path, state.blocks, variant, 2, d, ridge)
            assert math.isfinite(rmdee(path, state.blocks, train.X, d, ridge).risk)


def test_singular_split_block_leaves_b1_unavailable(monkeypatch):
    # As above, block 0 is singular at ridge 0 from d = 3 on, so the b1 split
    # at d_max cannot be formed; the run records that instead of stopping.
    rng = np.random.default_rng(3)
    n, ridge = 8, 0.0
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = rng.normal(size=(4 * n, 1))
    pool[:n] = 0.0
    test = LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20))
    path = random_path(rng, BasisSpec("fourier", 1), n - 1, ridge)
    cfg = config(ridge, criteria=["mDEE1", "mDEE3", "FPE"], d_max=n - 1)
    monkeypatch.setattr(harness, "fit_design_path", lambda *args: path)
    result = evaluate_trial(0, {"n": n}, train, UnlabeledSet(X=pool), test, n - 1, cfg, cv_seed=0)
    assert result.flags["mDEE1"] == "b1_unavailable;all_infinite"
    assert "inf@d3" in result.flags["mDEE3"].split(";")
    assert result.flags["FPE"] == ""


def test_svd_failure_becomes_sentinel(monkeypatch):
    # Duplicated labeled rows and a block of duplicated pool rows at ridge 1e-13:
    # the gate fires on the labeled matrix and on that block, so every size is
    # condition-checked by an SVD, and an SVD that fails makes the size inf@d.
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    rng = np.random.default_rng(4)
    train = LabeledSet(X=np.full((10, 1), 0.7), y=rng.normal(size=10))
    pool = rng.normal(size=(40, 1))
    pool[:10] = 0.7
    test = LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20))
    path = random_path(rng, BasisSpec("fourier", 1), 4, 1e-13)
    cfg = config(ridge=1e-13, criteria=["DEE", "mDEE3", "rmDEE", "FPE"], d_max=4)
    state = TrialState(train, UnlabeledSet(X=pool), path, 1e-13, cv_seed=0)
    top = state.top
    assert interlacing_gate(state.jittered(state.labeled_corr(top)), *state.labeled_factor)
    assert interlacing_gate(state.jittered(state.block_corrs[:, :top, :top]), *state.block_factors)[0]
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(SingularDesignError, match="SVD did not converge"):
        invert_blocks(np.eye(2)[None])
    monkeypatch.setattr(harness, "fit_design_path", lambda *args: path)
    result = evaluate_trial(0, {"n": 10}, train, UnlabeledSet(X=pool), test, 4, cfg, cv_seed=0)
    for name in ("DEE", "mDEE3", "rmDEE"):
        assert result.flags[name] == "inf@d1;inf@d2;inf@d3;inf@d4;all_infinite"
    assert result.flags["FPE"] == ""


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
# Path-valued routes against their per-d references: exactly (==, inf included),
# or within `prefix_bound` for CV5, DEE and the block criteria


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
    got = kfold_cv_path(design, data.y, 5, ridge, seed)
    for d in range(1, d_max + 1):
        want = kfold_cv(data, basis, d, 5, ridge, seed)
        assert_prefix_close((got[d - 1], 0), (want, 0), lambda: cv5_kappa(design, seed, d, ridge), d)


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
    got = fit_model_path(data, basis, d_max, ridge).models
    for g, w in zip(got, want, strict=True):
        assert g.d == w.d
        assert np.array_equal(g.alpha, w.alpha)
        assert g.train_loss == w.train_loss


@settings(max_examples=120, deadline=None)
@given(labeled_paths(), st.sampled_from([1, 7, 40, 300]), st.booleans())
def test_adj_path_equals_per_d_adj(case, pool_rows, repeat_models):
    data, basis, d_max, ridge, rng = case
    path = random_path(rng, basis, d_max, ridge)
    if repeat_models:
        # a zero trailing coefficient: some models predict like the next smaller
        # one, so rho_l falls below RHO_FLOOR and the ratio is skipped
        for smaller, model in zip(path.models[::2], path.models[1::2]):
            model.alpha[:] = np.append(smaller.alpha, 0.0)
    pool = UnlabeledSet(X=covariates(rng, pool_rows, basis.covariate_dim, "discrete"))
    got = adj_path(path, build_design(basis, data.X, d_max), build_design(basis, pool.X, d_max))
    assert got == [adj(path, data.X, pool, d) for d in range(1, d_max + 1)]


@settings(max_examples=120, deadline=None)
@given(labeled_paths(), st.sampled_from(["gauss", "discrete"]))
def test_dee_and_block_paths_equal_per_d_checks(case, pool_kind):
    data, basis, d_max, ridge, rng = case
    pool = UnlabeledSet(X=covariates(rng, 4 * data.n, basis.covariate_dim, pool_kind))
    path = random_path(rng, basis, d_max, ridge)
    state = TrialState(data, pool, path, ridge, cv_seed=0)
    paths = registry_paths(state, ["DEE", *BLOCK_KINDS])
    scored_names = ["DEE", "mDEE3", "rmDEE"]
    if state.b1 is None:  # a block singular at d_max leaves no split
        assert paths["mDEE1"] == paths["mDEE2"] == [(math.inf, 0)] * d_max
    else:
        scored_names += ["mDEE1", "mDEE2"]
    references = {name: per_d_route(state, name) for name in scored_names[1:]}
    for d in range(1, d_max + 1):
        if d >= data.n:
            assert all(paths[name][d - 1] is None for name in scored_names)
            continue
        c_hat = correlation_matrix(state.train_design[:, :d])
        c_tilde = correlation_matrix(state.pool_design[:, :d])
        scored = per_d_check(lambda: (dee_trace(c_hat, c_tilde, ridge), ()))
        want = None if scored is None else (corrected(state, scored[0], d), 0)
        assert_prefix_close(paths["DEE"][d - 1], want, lambda: labeled_kappa(state, d), d)
        for name, want in references.items():
            assert_block_close(state, name, d, paths[name][d - 1], want[d - 1])


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
    got = kfold_cv_path(design, data.y, 5, ridge, seed=3)
    for d in range(1, d_max + 1):
        want = kfold_cv(data, BasisSpec("fourier", 1), d, 5, ridge, seed=3)
        assert_prefix_close((got[d - 1], 0), (want, 0), lambda: cv5_kappa(design, 3, d, ridge), d)
    assert all(math.isfinite(r) for r in got[:5]) and all(math.isinf(r) for r in got[6:])


def test_labeled_gate_rechecks_near_d_max():
    data, d_max, ridge = late_singular_labeled(), 9, 1e-13
    rng = np.random.default_rng(8)
    pool = UnlabeledSet(X=rng.normal(size=(60, 1)))
    path = random_path(rng, BasisSpec("fourier", 1), d_max, ridge)
    state = TrialState(data, pool, path, ridge, cv_seed=0)
    assert interlacing_gate(state.jittered(state.labeled_corr(d_max)), *state.labeled_factor)
    dee_path, rmdee_path = registry_paths(state, ["DEE", "rmDEE"]).values()
    assert [d for d, s in enumerate(dee_path, 1) if s is None] == [7, 8, 9]
    assert [d for d, s in enumerate(rmdee_path, 1) if s[1]] == [7, 8, 9]


# ---------------------------------------------------------------------------
# Prefix routes against the per-d routes on the same trial state


@st.composite
def block_states(draw):
    """Trial states whose pools are random, discrete, flagged, singular at ridge 0 or smaller than one block."""
    n = draw(st.integers(5, 14))
    m = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["gauss", "discrete", "constant_block", "zero_block", "small_pool"]))
    d_max = draw(st.integers(1, n + 2))
    ridge = draw(st.sampled_from([1e-9, 1e-13, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = LabeledSet(X=covariates(rng, n, m, "discrete" if kind == "discrete" else "gauss"), y=rng.normal(size=n))
    pool_rows = n - 1 if kind == "small_pool" else draw(st.integers(n, 6 * n))
    pool = covariates(rng, pool_rows, m, "discrete" if kind == "discrete" else "gauss")
    if kind == "constant_block":
        pool[:n] = 0.7  # rank one: flagged from d = 2 on at the smaller ridges
    elif kind == "zero_block":
        pool[:n] = 0.0  # every sine feature 0: singular from d = 3 on at ridge 0
    path = random_path(rng, BasisSpec("fourier", m), d_max, ridge)
    return kind, TrialState(train, UnlabeledSet(X=pool), path, ridge, cv_seed=0)


@settings(max_examples=150, deadline=None)
@given(block_states())
def test_block_prefix_paths_match_the_per_d_route(case):
    kind, state = case
    if kind == "small_pool":
        assert state.blocks is None
    if state.b1 is not None:
        assert state.b1 == select_b1(state.blocks, state.path.basis, state.path.d_max, state.ridge)[0]
    for name in BLOCK_KINDS:
        got, want = scored(state, name), per_d_route(state, name)
        assert len(got) == len(want) == state.path.d_max
        if state.blocks is None or (name in harness.SPLIT_CRITERIA and state.b1 is None):
            assert got == want
            continue
        for d, (g, w) in enumerate(zip(got, want), start=1):
            assert_block_close(state, name, d, g, w)


def test_rmdee_median_survives_a_labeled_factor_that_stops():
    # Five labeled rows at one level: at ridge 0 the labeled matrix is singular
    # from d = 2 on, so its factor stops there; the six unlabeled blocks factor
    # whole and keep rmDEE's median finite.
    rng = np.random.default_rng(9)
    n, ridge = 5, 0.0
    train = LabeledSet(X=np.full((n, 1), 0.4), y=rng.normal(size=n))
    pool = UnlabeledSet(X=rng.normal(size=(6 * n, 1)))
    path = random_path(rng, BasisSpec("fourier", 1), n - 1, ridge)
    state = TrialState(train, pool, path, ridge, cv_seed=0)
    assert state.block_factors[1].tolist() == [n - 1] * 6 and state.labeled_factor[1].tolist() == [1]
    got, want = scored(state, "rmDEE"), per_d_route(state, "rmDEE")
    assert all(score is not None and math.isfinite(score[0]) for score in got)
    for d in range(1, n):
        assert_block_close(state, "rmDEE", d, got[d - 1], want[d - 1])


def test_a_factor_that_stops_where_lu_inverts_makes_the_means_infinite():
    # Block 0 is made indefinite from size 3 on: its LU inverse exists at every
    # size, but its Cholesky factorization stops at leading minor 3. The means
    # that read it are None from d = 3 on, where the LU references stay finite;
    # rmDEE's median takes its trace as +inf and stays finite.
    rng = np.random.default_rng(11)
    n, d_max = 10, 6
    train = LabeledSet(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
    pool = UnlabeledSet(X=rng.normal(size=(5 * n, 1)))
    path = random_path(rng, BasisSpec("fourier", 1), d_max, 1e-9)
    state = TrialState(train, pool, path, 1e-9, cv_seed=0)
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


def test_cv5_prefix_stops_where_the_fold_factorization_does():
    # At ridge 0 a fold of 8 rows has a singular normal matrix from d = 9 on.
    rng = np.random.default_rng(10)
    data = LabeledSet(X=rng.normal(size=(10, 1)), y=rng.normal(size=10))
    basis, d_max = BasisSpec("fourier", 1), 10
    design = build_design(basis, data.X, d_max)
    got = kfold_cv_path(design, data.y, 5, 0.0, seed=1)
    assert all(math.isfinite(r) for r in got[:8]) and all(math.isinf(r) for r in got[8:])
    for d in range(1, d_max + 1):
        want = kfold_cv(data, basis, d, 5, 0.0, seed=1)
        assert_prefix_close((got[d - 1], 0), (want, 0), lambda: cv5_kappa(design, 1, d, 0.0), d)


# ---------------------------------------------------------------------------
# One build per design and per factor: the trial state against the references


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 7]), st.integers(2, 20), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_block_corrs_from_the_pool_design_equal_block_corr_stack(m, n, extra_rows, seed):
    rng = np.random.default_rng(seed)
    d_max = int(rng.integers(1, n + 3))
    train = LabeledSet(X=rng.normal(size=(n, m)), y=rng.normal(size=n))
    pool = UnlabeledSet(X=covariates(rng, 3 * n + extra_rows, m, "discrete" if seed % 2 else "gauss"))
    path = random_path(rng, BasisSpec("fourier", m), d_max, 1e-9)
    state = TrialState(train, pool, path, 1e-9, cv_seed=0)
    assert np.array_equal(state.block_corrs, block_corr_stack(state.blocks, path.basis, d_max))


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
