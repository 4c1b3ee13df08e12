"""The criterion registry against the per-d reference routines.

The registry scores each size d from correlation matrices built once at
d_max and sliced; `dee`, `mdee`, `rmdee` and `test_error` rebuild every
design at size d. Both routes must agree on the risk, on the flagged-block
count and on where the risk is undefined.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdee.core import (
    BasisSpec,
    FittedModel,
    LabeledSet,
    ModelPath,
    SingularDesignError,
    UnlabeledSet,
)
from mdee.estimators import CriterionKind, dee, mdee, rmdee
from mdee.harness import (
    CRITERIA,
    ExperimentConfig,
    SyntheticScenario,
    evaluate_trial,
    path_test_errors,
    trial_state,
)
from mdee.harness import test_error as model_test_error

BLOCK_VARIANTS = {
    "mDEE1": CriterionKind.MDEE1,
    "mDEE2": CriterionKind.MDEE2,
    "mDEE3": CriterionKind.MDEE3,
}


def config(ridge=1e-9, criteria=None):
    return ExperimentConfig(
        scenario=SyntheticScenario(target="step", n_values=[10], noise_vars=[0.1]),
        criteria=criteria or sorted(CRITERIA),
        repetitions=1,
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
    # d_max = n covers d = n - 1 and d = n; a hand-built path keeps every
    # size fittable, since only the training losses and basis enter the risks
    models = [
        FittedModel(d=d, alpha=rng.normal(size=d), train_loss=float(rng.uniform(0.1, 2.0)), ridge_lambda=ridge)
        for d in range(1, n + 1)
    ]
    path = ModelPath(models=models, d_max=n, basis=basis)
    test = LabeledSet(X=rng.normal(size=(15, m)), y=rng.normal(size=15))
    return kind, train, UnlabeledSet(X=pool), path, test, ridge


def registry_score(name, state, d):
    try:
        return CRITERIA[name](state, d)
    except SingularDesignError:
        return None


def reference_score(estimate):
    try:
        est = estimate()
    except ValueError:  # SingularDesignError included
        return None
    return est.risk, len(est.flagged_blocks)


def assert_same(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert got[1] == want[1]


@settings(max_examples=80, deadline=None)
@given(trials())
def test_registry_matches_per_d_reference(case):
    kind, train, pool, path, test, ridge = case
    state = trial_state(train, pool, path, config(ridge), cv_seed=0)
    blocks, b1 = state.blocks, state.b1
    assert (blocks is None) == (pool.n < train.n)
    flagged_seen = 0
    for d in range(1, path.d_max + 1):
        assert_same(
            registry_score("DEE", state, d),
            reference_score(lambda: dee(path, train.X, pool, d, ridge)),
        )
        for name, variant in BLOCK_VARIANTS.items():
            got = registry_score(name, state, d)
            if blocks is None or (variant is not CriterionKind.MDEE3 and b1 is None):
                assert got == (math.inf, 0)
                continue
            assert_same(got, reference_score(lambda: mdee(path, blocks, variant, b1, d, ridge)))
        got = registry_score("rmDEE", state, d)
        if blocks is None:
            assert got == (math.inf, 0)
            continue
        assert_same(got, reference_score(lambda: rmdee(path, blocks, train.X, d, ridge)))
        flagged_seen += got[1] if got else 0
    if kind == "flagged_block" and blocks is not None:
        assert flagged_seen > 0

    want = [model_test_error(model, test, path.basis) for model in path.models]
    np.testing.assert_allclose(path_test_errors(path, test), want, rtol=1e-12, atol=0.0)


def test_value_error_in_a_criterion_propagates(monkeypatch):
    def broken(state, d):
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
    def singular(state, d):
        if d == 2:
            raise SingularDesignError("numerically singular")
        return 1.0 / d, 0

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
