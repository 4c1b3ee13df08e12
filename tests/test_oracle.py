import numpy as np
import pytest

from mdee.core import BasisSpec, build_design
from mdee.estimators import CriterionKind
from mdee.oracle import (
    OracleConfig,
    closed_form_h1_variance,
    mc_block_moments,
    mc_H_moments,
    mc_h1_variance_closed_form,
    mc_risk_ratio,
    mc_trace_target,
    true_corr,
)
from mdee.oracle import _moment_inputs_from, _vectorized_blocks

BASIS = BasisSpec("fourier", 1)


def make_cfg(**kwargs):
    base = dict(
        basis=BASIS,
        d=3,
        n=20,
        noise_sd=1.0,
        covariate_sd=1.0,
        truth=np.array([1.0, 0.5, -0.3]),
        reps=2000,
        seed=11,
        n_test=4000,
        c_draws=200_000,
    )
    base.update(kwargs)
    return OracleConfig(**base)


class TestConfig:
    def test_reps_positive(self):
        with pytest.raises(ValueError):
            make_cfg(reps=0)

    @pytest.mark.parametrize("d, n", [(0, 20), (-1, 20), (3, 3), (4, 3)])
    def test_model_size_below_n(self, d, n):
        with pytest.raises(ValueError, match="1 <= d < n"):
            make_cfg(d=d, n=n)

    def test_inside_model_flag(self):
        assert make_cfg().inside_model()
        assert not make_cfg(truth="sinc").inside_model()
        assert not make_cfg(truth=np.ones(5)).inside_model()


class TestTrueCorr:
    def test_cached_and_reproducible(self):
        a = true_corr(make_cfg())
        b = true_corr(make_cfg())
        assert a is b

    def test_symmetric(self):
        C = true_corr(make_cfg())
        np.testing.assert_array_equal(C, C.T)

    def test_constant_entry(self):
        # first feature is constant 1, so C[0,0] = 1 exactly up to MC noise 0
        C = true_corr(make_cfg())
        assert C[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestMcRiskRatio:
    def test_train_loss_identity(self):
        # independent oracle: E[L_D] = sigma^2 (n - d) / n for the exact LSE
        res = mc_risk_ratio(make_cfg())
        expected = 1.0 * (20 - 3) / 20
        assert abs(res.e_train_loss - expected) <= 3 * res.se_train_loss

    def test_ratio_matches_corrected_form(self):
        res = mc_risk_ratio(make_cfg(reps=3000))
        target = (1 + res.mean_tr_ccinv / 20) / (1 - 3 / 20)
        se = np.hypot(res.se_ratio, res.se_tr_ccinv / (20 * (1 - 3 / 20)))
        assert abs(res.ratio - target) <= 3 * se

    def test_degenerate_noiseless(self):
        res = mc_risk_ratio(make_cfg(noise_sd=0.0, reps=50))
        assert res.degenerate
        assert np.isnan(res.ratio)
        assert res.e_loss <= 1e-10 and res.e_train_loss <= 1e-10

    def test_requires_inside_model_truth(self):
        with pytest.raises(ValueError, match="inside-model"):
            mc_risk_ratio(make_cfg(truth="sinc"))

    def test_reproducible(self):
        a = mc_risk_ratio(make_cfg(reps=200))
        b = mc_risk_ratio(make_cfg(reps=200))
        assert a == b


class TestMcTraceTarget:
    def test_constant_basis_gives_one(self):
        res = mc_trace_target(make_cfg(d=1, reps=200))
        assert res.tr_cv == pytest.approx(1.0, abs=1e-10)

    def test_jensen_lower_bound(self):
        res = mc_trace_target(make_cfg())
        assert res.tr_cv >= 3 - 3 * res.se

    def test_matches_independent_brute_force(self):
        res = mc_trace_target(make_cfg())
        # fully separate route and stream
        rng = np.random.default_rng(987654)
        C = None
        v = build_design(BASIS, rng.normal(size=(400_000, 1)), 3)
        C = v.T @ v / v.shape[0]
        trs = []
        for _ in range(2000):
            x = rng.normal(size=(20, 1))
            phi = build_design(BASIS, x, 3)
            trs.append(np.trace(C @ np.linalg.inv(phi.T @ phi / 20)))
        ref = float(np.mean(trs))
        se_ref = float(np.std(trs, ddof=1) / np.sqrt(len(trs)))
        assert abs(res.tr_cv - ref) <= 3 * np.hypot(res.se, se_ref)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            mc_trace_target(make_cfg(reps=50))


class TestMcHMoments:
    def test_disjoint_split_unbiased(self):
        res = mc_H_moments(make_cfg(), CriterionKind.MDEE1, B=10, B1=3)
        assert abs(res.bias) <= 3 * res.se_bias

    def test_shared_pool_bias_formula(self):
        res = mc_H_moments(make_cfg(), CriterionKind.MDEE3, B=10)
        expected = (3 - res.tr_cv_ref) / 10
        se = np.hypot(res.se_mean, (1 - 1 / 10) * res.se_ref)
        assert abs((res.mean_tr - res.tr_cv_ref) - expected) <= 3 * se

    def test_intermediate_variant_shares_bias(self):
        # overlapping-split estimator carries the same bias as the shared pool
        res = mc_H_moments(make_cfg(), CriterionKind.MDEE2, B=10, B1=3)
        expected = (3 - res.tr_cv_ref) / 10
        se = np.hypot(res.se_mean, (1 - 1 / 10) * res.se_ref)
        assert abs((res.mean_tr - res.tr_cv_ref) - expected) <= 3 * se

    def test_variance_matches_closed_form(self):
        cfg = make_cfg(reps=3000)
        res = mc_H_moments(cfg, CriterionKind.MDEE1, B=10, B1=4)
        var_cf, se_cf = mc_h1_variance_closed_form(cfg, B=10, B1=4, n_blocks=20_000)
        assert abs(res.var - var_cf) <= 3 * np.hypot(res.se_var, se_cf)

    def test_b1_bounds(self):
        with pytest.raises(ValueError):
            mc_H_moments(make_cfg(), CriterionKind.MDEE1, B=10, B1=10)
        with pytest.raises(ValueError):
            mc_H_moments(make_cfg(), CriterionKind.MDEE1, B=1, B1=0)
        with pytest.raises(ValueError):
            mc_H_moments(make_cfg(), CriterionKind.MDEE1, B=10)
        # mDEE2 without a valid split would silently be mDEE3
        with pytest.raises(ValueError):
            mc_H_moments(make_cfg(), CriterionKind.MDEE2, B=10)
        with pytest.raises(ValueError):
            mc_H_moments(make_cfg(), CriterionKind.MDEE2, B=10, B1=11)
        with pytest.raises(ValueError):
            mc_H_moments(make_cfg(), CriterionKind.RMDEE, B=10)

    def test_shared_pass_equals_single_variant_runs(self):
        cfg = make_cfg(reps=500)
        variants = [CriterionKind.MDEE1, CriterionKind.MDEE2, CriterionKind.MDEE3]
        shared = mc_block_moments(cfg, variants, B=10, B1=3)
        assert list(shared) == variants
        for variant in variants:
            assert shared[variant] == mc_H_moments(cfg, variant, B=10, B1=3)


class TestMomentInputs:
    def test_nonnegative_traces(self):
        inputs = _moment_inputs_from(*_vectorized_blocks(make_cfg(d=2), 2, 2000))
        assert inputs.tr_varmu_varnu >= 0
        assert inputs.tr_varnu_mumu >= 0
        assert inputs.tr_varmu_nunu >= 0

    def test_closed_form_assembly(self):
        inputs = _moment_inputs_from(*_vectorized_blocks(make_cfg(d=2), 2, 500))
        value = closed_form_h1_variance(inputs, 2, 3)
        expected = (
            inputs.tr_varmu_varnu / 6 + inputs.tr_varnu_mumu / 3 + inputs.tr_varmu_nunu / 2
        )
        assert value == pytest.approx(expected)
