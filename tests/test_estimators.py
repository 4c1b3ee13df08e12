import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from mdee.core import (
    BasisSpec,
    LabeledSet,
    ModelPath,
    UnlabeledSet,
    block_partition,
    build_design,
    correlation_matrix,
    fit_model_path,
)
from mdee.estimators import (
    CriterionKind,
    block_corr_stack,
    block_sides,
    continuous_split,
    correction_factor,
    dee_trace,
    estimate_C_plus,
    inverse_factors,
    mdee_trace,
    optimal_split,
    rmdee_trace,
    select_model,
)
import reference
from reference import dee, mdee, rmdee, select_b1

BASIS = BasisSpec("fourier", 1)


def path_with_losses(losses, basis=BASIS):
    """Hand-built model path with prescribed training losses."""
    d_max = len(losses)
    return ModelPath(np.zeros((d_max, d_max)), np.asarray(losses, dtype=float), np.eye(d_max), basis)


def gaussian_blocks(rng, n_blocks, n, m=1):
    pool = UnlabeledSet(X=rng.normal(size=(n_blocks * n, m)))
    return block_partition(pool, n)


class TestCorrectionFactor:
    def test_arithmetic(self):
        assert correction_factor(2.0, 10, 2) == pytest.approx(1.5)
        assert correction_factor(3.0, 20, 3) == pytest.approx(1.15 / 0.85)

    def test_identity_trace_limit(self):
        for n, d in [(10, 2), (50, 7), (100, 3)]:
            assert correction_factor(float(d), n, d) == pytest.approx(
                (1 + d / n) / (1 - d / n)
            )

    def test_undefined_when_d_reaches_n(self):
        with pytest.raises(ValueError, match="undefined"):
            correction_factor(1.0, 5, 5)


class TestDee:
    def test_same_covariates_give_trace_d(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 1))
        path = path_with_losses([1.0, 1.0])
        est = dee(path, X, UnlabeledSet(X=X), 2)
        assert est.tr_H == pytest.approx(2.0, rel=1e-7)
        assert est.factor == pytest.approx(1.5, rel=1e-7)
        assert est.risk == pytest.approx(1.5, rel=1e-7)

    def test_scalar_trace_oracle(self):
        rng = np.random.default_rng(1)
        X_l = rng.normal(size=(15, 1))
        X_u = rng.normal(size=(40, 1))
        path = path_with_losses([0.7])
        est = dee(path, X_l, UnlabeledSet(X=X_u), 1, ridge=0.0)
        c_hat = correlation_matrix(build_design(BASIS, X_l, 1))[0, 0]
        c_til = correlation_matrix(build_design(BASIS, X_u, 1))[0, 0]
        assert est.tr_H == pytest.approx(c_til / c_hat, rel=1e-12)

    def test_empty_pool_rejected(self):
        path = path_with_losses([1.0])
        with pytest.raises(ValueError):
            dee(path, np.ones((5, 1)), UnlabeledSet(X=np.zeros((0, 1))), 1)

    def test_factor_and_risk_consistent(self):
        rng = np.random.default_rng(2)
        data = LabeledSet(X=rng.normal(size=(12, 1)), y=rng.normal(size=12))
        path = fit_model_path(data, BASIS, 3)
        est = dee(path, data.X, UnlabeledSet(X=rng.normal(size=(100, 1))), 3)
        assert est.factor == pytest.approx(
            (1 + est.tr_H / 12) / (1 - 3 / 12), rel=1e-12
        )
        assert est.risk == pytest.approx(est.factor * path.train_loss(3), rel=1e-12)


class TestEstimateCPlus:
    def test_matches_correlation_matrix(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(30, 1))
        expected = correlation_matrix(build_design(BASIS, rows, 4))
        np.testing.assert_array_equal(estimate_C_plus(rows, BASIS, 4), expected)

    def test_single_row_rank_one(self):
        C = estimate_C_plus(np.array([[0.3]]), BASIS, 3)
        assert np.linalg.matrix_rank(C) == 1

    def test_large_sample_close_to_mc_truth(self):
        # brute-force reference from an independent large draw
        rng = np.random.default_rng(5)
        C = estimate_C_plus(rng.normal(size=(100_000, 1)), BASIS, 3)
        ref = estimate_C_plus(rng.normal(size=(400_000, 1)), BASIS, 3)
        assert np.abs(C - ref).max() < 0.02


class TestSplitRule:
    def test_closed_form_substitution(self):
        assert continuous_split(4.0, 1.0, 30) == pytest.approx(20.0, abs=1e-9)
        assert optimal_split(4.0, 1.0, 30) == 20

    def test_equal_coefficients_take_half(self):
        assert continuous_split(2.5, 2.5, 30) == 15.0
        assert optimal_split(2.5, 2.5, 30) == 15

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=2, max_value=120),
    )
    @example(a1=0.001, a2=0.0010000000000000002, n_blocks=4)  # nearly equal coefficients
    def test_matches_exhaustive_grid(self, a1, a2, n_blocks):
        grid = np.arange(1, n_blocks)
        objective = a1 / grid + a2 / (n_blocks - grid)
        assert optimal_split(a1, a2, n_blocks) == int(grid[np.argmin(objective)])

    def test_split_requires_two_blocks(self):
        with pytest.raises(ValueError):
            optimal_split(1.0, 1.0, 1)


class TestSelectB1:
    def test_degenerate_blocks_take_half(self):
        # with a constant feature every block correlation matrix is exactly 1,
        # both coefficients vanish and the split falls back to B/2
        blocks = np.stack([np.full((4, 1), v) for v in range(6)])
        b1, a1_hat, a2_hat = select_b1(blocks, BASIS, 1)
        assert a1_hat == a2_hat == 0.0
        assert b1 == 3

    def test_b_less_than_two_rejected(self):
        blocks = np.zeros((1, 4, 1))
        with pytest.raises(ValueError):
            select_b1(blocks, BASIS, 1)

    def test_moments_match_explicit_covariance_oracle(self):
        # independent route: materialize the d^2 x d^2 covariance matrices
        rng = np.random.default_rng(6)
        blocks = gaussian_blocks(rng, n_blocks=12, n=9)
        d = 3
        _, a1_hat, a2_hat = select_b1(blocks, BASIS, d, ridge=0.0)
        corrs = block_corr_stack(blocks, BASIS, d)
        invs = np.linalg.inv(corrs)
        mu_b = corrs.reshape(12, d * d)
        nu_b = invs.reshape(12, d * d)
        mu, nu = mu_b.mean(0), nu_b.mean(0)
        var_mu = (mu_b - mu).T @ (mu_b - mu) / 11
        var_nu = (nu_b - nu).T @ (nu_b - nu) / 11
        t1 = np.trace(var_mu @ var_nu)
        a1 = t1 / 12 + nu @ var_mu @ nu
        a2 = t1 / 12 + mu @ var_nu @ mu
        assert a1_hat == pytest.approx(a1, rel=1e-10)
        assert a2_hat == pytest.approx(a2, rel=1e-10)

    def test_selected_split_minimizes_objective(self):
        rng = np.random.default_rng(7)
        blocks = gaussian_blocks(rng, n_blocks=20, n=8)
        b1, a1, a2 = select_b1(blocks, BASIS, 2)
        grid = np.arange(1, 20)
        objective = a1 / grid + a2 / (20 - grid)
        assert b1 == int(grid[np.argmin(objective)])


class TestMdee:
    def test_identical_blocks_give_trace_d(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(6, 1))
        blocks = np.stack([rows] * 5)
        path = path_with_losses([0.5] * 3)
        for variant in (CriterionKind.MDEE1, CriterionKind.MDEE2, CriterionKind.MDEE3):
            est = mdee(path, blocks, variant, b1=2, d=3)
            assert est.tr_H == pytest.approx(3.0, rel=1e-6)

    def test_mdee2_with_full_split_equals_mdee3(self):
        rng = np.random.default_rng(9)
        blocks = gaussian_blocks(rng, n_blocks=6, n=8)
        path = path_with_losses([0.5] * 2)
        est2 = mdee(path, blocks, CriterionKind.MDEE2, b1=6, d=2)
        est3 = mdee(path, blocks, CriterionKind.MDEE3, b1=None, d=2)
        assert est2.tr_H == pytest.approx(est3.tr_H, rel=1e-14)
        assert est2.risk == pytest.approx(est3.risk, rel=1e-14)

    def test_scalar_constant_basis(self):
        blocks = np.array([[[0.1], [0.2]], [[0.5], [0.9]]])
        path = path_with_losses([1.0])
        est = mdee(path, blocks, CriterionKind.MDEE3, b1=None, d=1)
        assert est.tr_H == pytest.approx(1.0, rel=1e-8)
        assert est.factor == pytest.approx((1 + 0.5) / (1 - 0.5), rel=1e-8)

    def test_b1_bounds(self):
        rng = np.random.default_rng(10)
        corrs = block_corr_stack(gaussian_blocks(rng, 4, 6), BASIS, 2)
        with pytest.raises(ValueError):
            mdee_trace(corrs, CriterionKind.MDEE1, b1=4)
        with pytest.raises(ValueError):
            mdee_trace(corrs, CriterionKind.MDEE2, b1=5)
        with pytest.raises(ValueError):
            mdee_trace(corrs, CriterionKind.MDEE1, b1=0)

    def test_block_sides(self):
        assert block_sides(CriterionKind.MDEE1, 2, 5) == (2, 2)
        assert block_sides(CriterionKind.MDEE2, 2, 5) == (2, 0)
        assert block_sides(CriterionKind.MDEE2, 5, 5) == (5, 0)
        assert block_sides(CriterionKind.MDEE3, None, 5) == (5, 0)
        for variant, b1 in [(CriterionKind.MDEE1, None), (CriterionKind.MDEE2, None), (CriterionKind.RMDEE, 2)]:
            with pytest.raises(ValueError):
                block_sides(variant, b1, 5)

    def test_within_block_row_permutation_invariant(self):
        rng = np.random.default_rng(11)
        blocks = gaussian_blocks(rng, n_blocks=4, n=7)
        shuffled = np.stack([b[rng.permutation(7)] for b in blocks])
        path = path_with_losses([0.5] * 2)
        for variant in (CriterionKind.MDEE1, CriterionKind.MDEE3):
            a = mdee(path, blocks, variant, b1=2, d=2)
            b = mdee(path, shuffled, variant, b1=2, d=2)
            assert a.tr_H == pytest.approx(b.tr_H, rel=1e-12)


class TestRmdee:
    def test_equal_traces(self):
        traces, _ = rmdee_trace(np.stack([np.eye(2)] * 5), None, ridge=0.0)
        assert traces == pytest.approx(2.0)

    def test_median_rejects_exploding_block(self):
        # scalar blocks with correlations 1, 1, and a tiny one whose inverse
        # explodes; the median keeps the clean value
        corrs = np.array([[[1.0]], [[1.0]], [[1e-9]]])
        tr, _ = rmdee_trace(corrs, None, ridge=0.0)
        c_plus = corrs.mean()
        traces = sorted(c_plus / corrs[:, 0, 0])
        assert tr == pytest.approx(traces[1])
        assert np.mean(traces) > 100 * tr

    def test_even_count_convention(self):
        corrs = np.array([[[1.0]], [[3.0]]])
        # c_plus = 2 -> traces {2, 2/3}; labeled block with corr 2 adds trace 1
        tr, _ = rmdee_trace(corrs, np.array([[2.0]]), ridge=0.0)
        assert tr == pytest.approx(1.0)
        tr2, _ = rmdee_trace(corrs, None, ridge=0.0)
        assert tr2 == pytest.approx((2.0 + 2.0 / 3.0) / 2.0)

    def test_labeled_block_switch(self):
        rng = np.random.default_rng(13)
        blocks = gaussian_blocks(rng, n_blocks=5, n=8)
        labeled_X = rng.normal(size=(8, 1))
        path = path_with_losses([0.5] * 2)
        corrs = block_corr_stack(blocks, BASIS, 2)
        expected, _ = reference.rmdee_trace(corrs, estimate_C_plus(labeled_X, BASIS, 2))
        assert rmdee(path, blocks, labeled_X, 2).tr_H == expected


class TestInverseFactors:
    def test_a_failing_block_stops_where_potrf_does(self):
        rng = np.random.default_rng(16)
        a = rng.normal(size=(3, 5, 8))
        mats = a @ a.transpose(0, 2, 1) / 8
        mats[1, 3, 3] = -1.0  # leading minor 4 is not positive definite
        mats[2, 0, 0] = -1.0  # nor is leading minor 1
        assert [dpotrf(mat, lower=1)[1] for mat in mats] == [0, 4, 1]
        factors, sizes = inverse_factors(mats)
        assert sizes.tolist() == [5, 4 - 1, 1 - 1]
        for factor, size, mat in zip(factors, sizes, mats):
            want = np.linalg.inv(np.linalg.cholesky(mat[:size, :size]))
            np.testing.assert_allclose(factor[:size, :size], want, rtol=1e-12, atol=1e-12)
            assert not factor[size:].any()


class TestSelectModel:
    def test_minimum(self):
        assert select_model([3.0, 1.0, 2.0]) == 2

    def test_tie_breaks_small(self):
        assert select_model([1.0, 1.0, 2.0]) == 1

    def test_infinite_entries_never_win(self):
        assert select_model([np.inf, 5.0, np.inf]) == 2

    def test_all_infinite_warns(self):
        with pytest.warns(UserWarning, match="infinite"):
            assert select_model([np.inf, np.inf]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_model([])

    @staticmethod
    def pair_rule(risks):
        """The per-d rule `select_model` replaced: the least (risk, d) pair, NaN read as +inf; None when all are infinite."""
        pairs = [(np.inf if np.isnan(r) else r, d) for d, r in enumerate(map(float, risks), start=1)]
        if all(np.isinf(r) for r, _ in pairs):
            return None
        return min(pairs)[1]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_the_pair_rule(self, risks):
        want = self.pair_rule(risks)
        if want is None:
            with pytest.warns(UserWarning, match="infinite"):
                assert select_model(risks) == 1
        else:
            assert select_model(risks) == want
            assert select_model(np.array(risks)) == want


class TestCoordinateInvariance:
    @staticmethod
    def random_transform(rng, d, smin=0.5, smax=2.0):
        q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
        q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
        s = rng.uniform(smin, smax, size=d)
        return q1 @ np.diag(s) @ q2

    def test_dee_trace_invariant(self):
        rng = np.random.default_rng(14)
        c_hat = correlation_matrix(build_design(BASIS, rng.normal(size=(20, 1)), 3))
        c_til = correlation_matrix(build_design(BASIS, rng.normal(size=(200, 1)), 3))
        base = dee_trace(c_hat, c_til)
        for _ in range(5):
            A = self.random_transform(rng, 3)
            transformed = dee_trace(A.T @ c_hat @ A, A.T @ c_til @ A)
            assert transformed == pytest.approx(base, rel=1e-8)

    def test_mdee_trace_invariant(self):
        rng = np.random.default_rng(15)
        corrs = block_corr_stack(gaussian_blocks(rng, 8, 10), BASIS, 3)
        base, _ = mdee_trace(corrs, CriterionKind.MDEE3, None)
        for _ in range(5):
            A = self.random_transform(rng, 3)
            moved = np.einsum("ji,bjk,kl->bil", A, corrs, A)
            got, _ = mdee_trace(moved, CriterionKind.MDEE3, None)
            assert got == pytest.approx(base, rel=1e-8)
