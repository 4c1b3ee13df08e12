import math

import numpy as np
import pytest

from mdee.baselines import caic, fpe
from mdee.core import (
    BasisSpec,
    LabeledSet,
    ModelPath,
    UnlabeledSet,
    build_design,
    fit_model_path,
)
from reference import adj, kfold_cv, ridge_lse

BASIS = BasisSpec("fourier", 1)


def hand_path(alphas, loss):
    """A model path with the given coefficient rows, the size-d row holding d entries, and one training loss."""
    d_max = len(alphas)
    rows = np.zeros((d_max, d_max))
    for d, alpha in enumerate(alphas, start=1):
        rows[d - 1, :d] = alpha
    return ModelPath(rows, np.full(d_max, loss), np.eye(d_max), BASIS)


class TestFpe:
    def test_arithmetic(self):
        assert fpe(1.0, 10, 2) == pytest.approx(1.5)
        assert fpe(0.0, 17, 4) == 0.0
        assert fpe(2.0, 20, 5) == pytest.approx(2.0 * 25 / 15)

    def test_sentinel(self):
        assert fpe(1.0, 5, 5) == math.inf

    def test_increasing_in_loss(self):
        assert fpe(2.0, 20, 3) > fpe(1.0, 20, 3)


class TestCaic:
    def test_arithmetic(self):
        assert caic(1.0, 20, 3) == pytest.approx(20 * 23 / 15)
        assert caic(math.e, 20, 3) == pytest.approx(20 + 20 * 23 / 15)

    def test_sentinels(self):
        assert caic(1.0, 10, 8) == math.inf  # n - d - 2 = 0
        assert caic(0.0, 20, 3) == math.inf
        assert caic(-1.0, 20, 3) == math.inf

    def test_increasing_in_loss(self):
        assert caic(2.0, 20, 3) > caic(1.0, 20, 3)


class TestKfoldCv:
    def test_noiseless_nested_truth(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 1))
        alpha_star = np.array([1.0, -0.5, 0.25])
        y = build_design(BASIS, X, 3) @ alpha_star
        data = LabeledSet(X=X, y=y)
        assert kfold_cv(data, BASIS, 3, k=5, seed=7) <= 1e-6

    def test_constant_response(self):
        rng = np.random.default_rng(1)
        data = LabeledSet(X=rng.normal(size=(20, 1)), y=np.full(20, 4.0))
        assert kfold_cv(data, BASIS, 1, k=5, seed=3) <= 1e-10

    def test_loo_matches_direct_oracle(self):
        # independent route: per-point leave-one-out at n = 8
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 1))
        y = rng.normal(size=8)
        data = LabeledSet(X=X, y=y)
        d = 2
        design = build_design(BASIS, X, d)
        errors = []
        for i in range(8):
            mask = np.arange(8) != i
            fit = ridge_lse(design[mask], y[mask], 1e-9)
            errors.append((y[i] - design[i] @ fit.alpha) ** 2)
        assert kfold_cv(data, BASIS, d, k=8, seed=99) == pytest.approx(
            np.mean(errors), rel=1e-10
        )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 1))
        y = rng.normal(size=20)
        a = kfold_cv(LabeledSet(X=X, y=y), BASIS, 3, seed=5)
        b = kfold_cv(LabeledSet(X=X, y=y), BASIS, 3, seed=5)
        assert a == b

    def test_needs_enough_rows(self):
        data = LabeledSet(X=np.ones((3, 1)), y=np.ones(3))
        with pytest.raises(ValueError):
            kfold_cv(data, BASIS, 1, k=5)


class TestAdj:
    def test_d1_returns_loss(self):
        path = hand_path([[1.0]], 0.3)
        pool = UnlabeledSet(X=np.zeros((4, 1)))
        assert adj(path, np.ones((3, 1)), pool, 1) == pytest.approx(0.3)

    def test_identical_predictions_keep_loss(self):
        # second coefficient zero makes f_1 and f_2 agree everywhere
        path = hand_path([[1.0], [1.0, 0.0]], 0.4)
        rng = np.random.default_rng(4)
        got = adj(path, rng.normal(size=(6, 1)), UnlabeledSet(X=rng.normal(size=(9, 1))), 2)
        assert got == pytest.approx(0.4)

    def test_engineered_ratio_of_two(self):
        # f_2 - f_1 is proportional to cos(x); pick points where the labeled
        # RMS of cos is exactly half the unlabeled one
        path = hand_path([[1.0], [1.0, 1.0]], 0.5)
        labeled = np.array([[math.acos(0.25)]])
        pool = UnlabeledSet(X=np.array([[math.acos(0.5)]]))
        assert adj(path, labeled, pool, 2) == pytest.approx(1.0, rel=1e-12)

    def test_equals_loss_when_pool_matches_labeled(self):
        # identical labeled and unlabeled sets force every ratio to one
        rng = np.random.default_rng(5)
        data = LabeledSet(X=rng.normal(size=(15, 1)), y=rng.normal(size=15))
        path = fit_model_path(data, BASIS, 4)
        pool = UnlabeledSet(X=data.X.copy())
        for d in range(2, 5):
            assert adj(path, data.X, pool, d) == pytest.approx(
                path.train_loss(d), rel=1e-12
            )

    def test_at_least_loss_when_some_ratio_exceeds_one(self):
        rng = np.random.default_rng(5)
        data = LabeledSet(X=rng.normal(size=(15, 1)), y=rng.normal(size=15))
        path = fit_model_path(data, BASIS, 4)
        pool = UnlabeledSet(X=rng.normal(size=(200, 1)))
        for d in range(2, 5):
            design_l = build_design(BASIS, data.X, d)
            design_u = build_design(BASIS, pool.X, d)
            ratios = []
            for j in range(1, d):
                diff_l = design_l[:, :j] @ path.alpha(j) - design_l @ path.alpha(d)
                diff_u = design_u[:, :j] @ path.alpha(j) - design_u @ path.alpha(d)
                ratios.append(
                    np.sqrt(np.mean(diff_u**2)) / np.sqrt(np.mean(diff_l**2))
                )
            value = adj(path, data.X, pool, d)
            assert value == pytest.approx(path.train_loss(d) * max(ratios), rel=1e-12)
            if max(ratios) >= 1:
                assert value >= path.train_loss(d)

    def test_degenerate_denominators_skipped(self):
        # all covariates identical: prediction differences vanish on the
        # labeled set, every j is skipped and the factor falls back to 1
        path = hand_path([[0.5], [0.5, 0.0]], 0.2)
        labeled = np.full((4, 1), 0.7)
        pool = UnlabeledSet(X=np.linspace(-1, 1, 9).reshape(9, 1))
        assert adj(path, labeled, pool, 2) == pytest.approx(0.2)
