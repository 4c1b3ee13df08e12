import dataclasses
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from reference import (
    _quadratic_form_var,
    block_moments,
    h1_variance_closed_form,
    moment_inputs_from,
    population_corr,
    risk_ratio,
    vectorized_blocks,
)
from test_parallel import no_child_left

import mdee
from mdee import core, oracle, parallel
from mdee.core import MAX_CELLS, BasisSpec, build_design
from mdee.estimators import CriterionKind
from mdee.oracle import (
    OracleConfig,
    closed_form_h1_variance,
    mc_block_moments,
    mc_H_moments,
    mc_h1_variance_closed_form,
    mc_risk_ratio,
)
from mdee.oracle import _population_pass, _vectorized_blocks

BASIS = BasisSpec("fourier", 1)


def no_draws(*args):
    raise AssertionError("oracle draws started")


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c_draws", 0),
            ("c_draws", -3),
            ("c_draws", 2.5),
            ("c_draws", True),
            ("n_test", 0),
            ("n_test", -5),
            ("n_test", 10.5),
            ("n_test", False),
            ("reps", 2.5),
            ("reps", True),
            ("reps", "200"),
        ],
    )
    def test_counts_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value", [("n", 10**11), ("n", np.int64(2**62)), ("n_test", 10**9), ("reps", 10**8), ("c_draws", 10**9)]
    )
    def test_arrays_past_the_cell_cap_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} is too large"):
            make_cfg(**{field: value})

    def test_arrays_at_the_cell_cap_accepted(self):
        make_cfg(n=MAX_CELLS // 3, n_test=MAX_CELLS // 3, reps=MAX_CELLS // 9, c_draws=MAX_CELLS)

    def test_block_counts_past_the_cell_cap_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(oracle, "_block_stats", lambda *args: pytest.fail("blocks drawn"))
        cfg = make_cfg(reps=100)
        with pytest.raises(ValueError, match="^B is too large"):
            mc_block_moments(cfg, MOMENT_VARIANTS, B=10**8)
        with pytest.raises(ValueError, match="^n_blocks is too large"):
            mc_h1_variance_closed_form(cfg, 30, 10, n_blocks=10**8)

    # -5 and 0 draw no block; 1, 2, 10 and 11 leave groups of the error bar with fewer than 2 blocks, whose variances
    # are NaN; 99 is one below the floor; 100.5 and True are not whole numbers.
    @pytest.mark.parametrize("n_blocks", [-5, 0, 1, 2, 10, 11, 99, 100.5, True])
    def test_too_few_moment_blocks_rejected_before_any_draw(self, n_blocks, monkeypatch):
        monkeypatch.setattr(oracle, "_block_stats", lambda *args: pytest.fail("blocks drawn"))
        with pytest.raises(ValueError, match=r"^n_blocks must be a whole number >= 100, got"):
            mc_h1_variance_closed_form(make_cfg(reps=100), 10, 4, n_blocks=n_blocks)

    # B 4.5 and B1 2.5 ended in TypeErrors deep in the draws, and B1 1.5 gave a variance for B2 = 2.5
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda cfg: mc_block_moments(cfg, [CriterionKind.MDEE3], 4.5), "B"),
            (lambda cfg: mc_block_moments(cfg, [CriterionKind.MDEE1], 4, 2.5), "B1"),
            (lambda cfg: mc_h1_variance_closed_form(cfg, 4.5, 2, n_blocks=100), "B"),
            (lambda cfg: mc_h1_variance_closed_form(cfg, 4, 1.5, n_blocks=100), "B1"),
        ],
        ids=["moments B", "moments B1", "closed form B", "closed form B1"],
    )
    def test_non_whole_block_counts_rejected_before_any_draw(self, call, name, monkeypatch):
        monkeypatch.setattr(oracle, "_block_stats", lambda *args: pytest.fail("blocks drawn"))
        with pytest.raises(ValueError, match=f"^{name} must be a whole number, got"):
            call(make_cfg(reps=100))

    def test_whole_float_block_counts_give_the_int_results(self):
        cfg = make_cfg(reps=100, c_draws=1_000)
        variants = [CriterionKind.MDEE1, CriterionKind.MDEE3]
        assert mc_block_moments(cfg, variants, 4.0, 2.0) == mc_block_moments(cfg, variants, 4, 2)
        closed_form = mc_h1_variance_closed_form(cfg, 4, 2, n_blocks=100)
        assert mc_h1_variance_closed_form(cfg, 4.0, 2.0, n_blocks=100.0) == closed_form

    def test_whole_float_counts_become_ints(self):
        cfg = make_cfg(reps=200.0, n_test=50.0, c_draws=np.int64(1000), n=20.0, d=np.int64(3), seed=11.0)
        counts = cfg.reps, cfg.n_test, cfg.c_draws, cfg.n, cfg.d, cfg.seed
        assert counts == (200, 50, 1000, 20, 3, 11) and all(type(v) is int for v in counts)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 20.5), ("d", 2.5), ("seed", 2.5), ("seed", True), ("n", np.float64(20.5)), ("d", "3")],
    )
    def test_sizes_and_seed_rejected_unless_whole(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a whole number"):
            make_cfg(**{field: value})

    def test_truth_must_be_finite_coefficients(self):
        for truth in ("sinc", "1.5", [1.0, np.nan], [np.inf], [True, False], [None], [1 + 2j]):
            with pytest.raises(ValueError, match="^truth must be a vector of finite coefficients"):
                make_cfg(truth=truth)
        truth = make_cfg(truth=[[1, 2]]).truth
        assert truth.dtype == float and truth.shape == (2,)

    def test_noise_outside_its_range_rejected(self):
        # The range is 1e-60..1e60, and at least 1e-6 of the truth's largest coefficient, which keeps the fit's
        # rounding (about 1e-15 of that coefficient) a billionth of the noise or less.
        rejected = [(0.0, [1.0]), (-1.0, [1.0]), (np.nan, [1.0]), (np.inf, [1.0]), (1e61, [1.0]), (1e-7, [1.0]),
                    (1e-5, [-100.0, 1.0]), (1e-61, [0.0])]
        for noise_sd, truth in rejected:
            with pytest.raises(ValueError, match="^noise_sd must lie in"):
                make_cfg(noise_sd=noise_sd, truth=truth)
        for noise_sd, truth in [(1e60, [1.0]), (1e-6, [1.0]), (1e-4, [-100.0, 1.0]), (1e-60, [0.0]), (1e-60, [])]:
            make_cfg(noise_sd=noise_sd, truth=truth)


def pass_corr(cfg):
    """C as the oracles' one population pass returns it."""
    return _population_pass(cfg, np.eye(cfg.d))[0]


class TestTrueCorr:
    def test_reproducible_and_equals_reference(self):
        cfg = make_cfg()
        C = pass_corr(cfg)
        np.testing.assert_array_equal(C, pass_corr(cfg))
        np.testing.assert_array_equal(C, population_corr(cfg))

    def test_symmetric(self):
        C = pass_corr(make_cfg())
        np.testing.assert_array_equal(C, C.T)

    def test_constant_entry(self):
        # first feature is constant 1, so C[0,0] = 1 exactly up to MC noise 0
        C = pass_corr(make_cfg())
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

    @pytest.mark.parametrize("noise_sd", [1e-6, 1e60])
    def test_noise_range_ends_keep_the_ratio(self, noise_sd):
        # The losses scale with sigma^2 and the ratio not at all, so at either end of the noise range the ratio
        # is sigma = 1's to rounding and no step warns of an overflow or underflow.
        cfg = make_cfg(reps=50, n_test=200, c_draws=20_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mc_risk_ratio(dataclasses.replace(cfg, noise_sd=noise_sd))
        unit = mc_risk_ratio(cfg)
        assert res.ratio == pytest.approx(unit.ratio, rel=1e-9)
        assert res.se_ratio == pytest.approx(unit.se_ratio, rel=1e-6)
        assert res.e_train_loss == pytest.approx(unit.e_train_loss * noise_sd**2, rel=1e-9)

    def test_needs_two_reps(self, monkeypatch):
        # one replication ended in numpy's "Degrees of freedom <= 0" warning and NaN standard errors
        monkeypatch.setattr(parallel, "fork_map", no_draws)
        with pytest.raises(ValueError, match=r"^mc_risk_ratio needs reps >= 2$"):
            mc_risk_ratio(make_cfg(reps=1))

    def test_requires_inside_model_truth(self, monkeypatch):
        monkeypatch.setattr(parallel, "fork_map", no_draws)
        with pytest.raises(ValueError, match="at most d=3 coefficients, got 4"):
            mc_risk_ratio(make_cfg(truth=np.ones(4)))

    def test_reproducible(self):
        a = mc_risk_ratio(make_cfg(reps=200))
        b = mc_risk_ratio(make_cfg(reps=200))
        assert a == b


def block_reference(cfg):
    """The reference trace and its SE that mc_block_moments reports for cfg."""
    res = mc_H_moments(cfg, CriterionKind.MDEE3, B=4)
    return res.tr_cv_ref, res.se_ref


class TestBlockReference:
    def test_constant_basis_gives_one(self):
        tr_cv, _ = block_reference(make_cfg(d=1, reps=200))
        assert tr_cv == pytest.approx(1.0, abs=1e-10)

    def test_jensen_lower_bound(self):
        tr_cv, se = block_reference(make_cfg())
        assert tr_cv >= 3 - 3 * se

    def test_matches_independent_brute_force(self):
        tr_cv, se = block_reference(make_cfg())
        # fully separate route and stream
        rng = np.random.default_rng(987654)
        v = build_design(BASIS, rng.normal(size=(400_000, 1)), 3)
        C = v.T @ v / v.shape[0]
        trs = []
        for _ in range(2000):
            x = rng.normal(size=(20, 1))
            phi = build_design(BASIS, x, 3)
            trs.append(np.trace(C @ np.linalg.inv(phi.T @ phi / 20)))
        ref = float(np.mean(trs))
        se_ref = float(np.std(trs, ddof=1) / np.sqrt(len(trs)))
        assert abs(tr_cv - ref) <= 3 * np.hypot(se, se_ref)

    def test_reps_floor(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("block draws started")

        monkeypatch.setattr(oracle, "_block_stats", no_blocks)
        with pytest.raises(ValueError, match="reps >= 100"):
            block_reference(make_cfg(reps=50))

    def test_equals_the_risk_ratio_reference(self):
        cfg = make_cfg(reps=300, n_test=50)
        ratio = mc_risk_ratio(cfg)
        assert block_reference(cfg) == (ratio.mean_tr_ccinv, ratio.se_tr_ccinv)


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


def test_se_bias_pairs_each_trace_with_its_reference():
    cfg = make_cfg(d=2, n=8, reps=120, c_draws=20_000)
    got = mc_block_moments(cfg, [CriterionKind.MDEE1, CriterionKind.MDEE3], B=4, B1=2)
    C = population_corr(cfg)
    traces = {CriterionKind.MDEE1: [], CriterionKind.MDEE3: []}
    refs = []
    inv_sum = np.zeros((2, 2))
    for rep in range(cfg.reps):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, rep]))
        blocks = build_design(BASIS, rng.normal(size=(4 * 8, 1)), 2).reshape(4, 8, 2)
        corrs = [v.T @ v / 8 for v in blocks]
        invs = [np.linalg.inv(c) for c in corrs]
        traces[CriterionKind.MDEE1].append(np.trace(np.mean(corrs[:2], axis=0) @ np.mean(invs[2:], axis=0)))
        traces[CriterionKind.MDEE3].append(np.trace(np.mean(corrs, axis=0) @ np.mean(invs, axis=0)))
        refs.append(np.trace(C @ invs[0]))
        inv_sum += invs[0]
    # C's sampling error: the spread of phi^T V_bar phi over the population rows
    v_bar = inv_sum / cfg.reps
    designs = (oracle._design(cfg, X) for X in oracle._population_rows(cfg))
    quad = np.concatenate([np.einsum("ij,jk,ik->i", v, v_bar, v) for v in designs])
    se_c = np.sqrt(quad.var() / cfg.c_draws)
    for variant, trs in traces.items():
        diffs = np.array(trs) - np.array(refs)
        expected = np.hypot(diffs.std(ddof=1) / np.sqrt(cfg.reps), se_c)
        res = got[variant]
        assert res.se_bias == pytest.approx(expected, rel=1e-6)
        assert res.se_bias != pytest.approx(np.hypot(res.se_mean, res.se_ref), rel=1e-3)


MOMENT_VARIANTS = [CriterionKind.MDEE1, CriterionKind.MDEE2, CriterionKind.MDEE3]


def assert_moments_match_reference(cfg, B, B1):
    got = mc_block_moments(cfg, MOMENT_VARIANTS, B, B1)
    assert got == block_moments(cfg, MOMENT_VARIANTS, B, B1)


@pytest.fixture
def set_cpus(monkeypatch):
    """Set the usable-CPU count, and let this process fork as a process of one thread would."""

    def set_count(count: int) -> None:
        monkeypatch.setattr(parallel, "usable_cpus", lambda: count)
        monkeypatch.setattr(parallel, "_threads", lambda: 1)

    return set_count


# CPU counts for mc_risk_ratio's processes: the process's own (None), then 1, 2, 3 and 8. 41 replications split
# unevenly over 2, 3 and 8 processes, and 2 replications on 3 CPUs run in two processes.
RATIO_SPANS = [(None, 40), (1, 41), (2, 41), (3, 41), (3, 2), (8, 41)]


class TestChunkedReplications:
    """mc_block_moments and mc_risk_ratio equal the one-replication-at-a-time reference bit for bit."""

    @pytest.mark.parametrize(
        "B, reps, per_chunk",
        [
            (10, 120, 500),  # one partial chunk
            (25, 200, 200),  # exactly one chunk
            (25, 650, 200),  # three chunks and a remainder of 50
        ],
    )
    def test_chunk_boundaries(self, B, reps, per_chunk):
        cfg = make_cfg(reps=reps, c_draws=20_000)
        assert oracle._CHUNK // (B * cfg.n) == per_chunk
        assert_moments_match_reference(cfg, B, 3)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_model_sizes_on_two_covariates(self, d):
        # 40 replications per chunk: three chunks and a remainder of 30
        cfg = make_cfg(basis=BasisSpec("fourier", 2), d=d, n=50, reps=150, c_draws=20_000, covariate_sd=0.8)
        assert_moments_match_reference(cfg, 50, 7)

    def test_mean_inverse_adds_replications_in_order(self):
        # At d = 1 and M = 3 every C_hat^{-1} is 1/9, and se_ref is the rounding
        # noise of their mean: a pairwise sum instead of a running one moves it.
        cfg = make_cfg(basis=BasisSpec("fourier", 3), d=1, reps=400, c_draws=20_000)
        assert block_moments(cfg, [CriterionKind.MDEE3], 4)[CriterionKind.MDEE3].se_ref > 0
        assert_moments_match_reference(cfg, 4, 2)

    def test_replication_larger_than_a_chunk(self, monkeypatch):
        # B*n = 600 rows exceed the row budget, so each chunk holds one replication
        monkeypatch.setattr(oracle, "_CHUNK", 500)
        assert_moments_match_reference(make_cfg(reps=100, c_draws=5_000), 30, 10)

    @pytest.mark.parametrize(
        "d, m, cpus, reps",
        [
            pytest.param(d, m, cpus, reps, id=f"{d}-{m}" if cpus is None else f"{d}-{m}-cpus{cpus}-reps{reps}")
            for cpus, reps in RATIO_SPANS
            for d, m in [(1, 1), (2, 2), (3, 1), (3, 2)]
        ],
    )
    def test_risk_ratio(self, d, m, cpus, reps, monkeypatch):
        if cpus is not None:
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        cfg = make_cfg(basis=BasisSpec("fourier", m), d=d, truth=np.array([1.0, 0.5, -0.3])[:d], reps=reps,
                       n_test=300, c_draws=20_000)
        assert mc_risk_ratio(cfg) == risk_ratio(cfg)

    @pytest.mark.parametrize("run", ["moments", "ratio"])
    def test_one_population_pass_per_call(self, monkeypatch, run):
        cfg = make_cfg(reps=100, n_test=50, c_draws=20_000)
        passes = []
        population_rows = oracle._population_rows

        def counted(cfg):
            passes.append(cfg)
            return population_rows(cfg)

        monkeypatch.setattr(oracle, "_population_rows", counted)
        # Each call reads the population rows once, for C and its sampling error together.
        for calls in (1, 2):
            if run == "moments":
                mc_block_moments(cfg, MOMENT_VARIANTS, B=4, B1=2)
            else:
                mc_risk_ratio(cfg)
            assert len(passes) == calls


class TestChunkCaps:
    """check_pool and check_moment_blocks bound the largest chunk the loops build, on either side of the row budget."""

    @pytest.fixture
    def design_cells(self, set_cpus, monkeypatch):
        """Cells of each chunk's design, as the loops build them with a 500-row budget in this process."""
        monkeypatch.setattr(oracle, "_CHUNK", 500)
        set_cpus(1)
        cells = []
        block_stats = oracle._block_stats

        def recorded(cfg, rngs, n_blocks):
            corrs, invs = block_stats(cfg, rngs, n_blocks)
            cells.append(corrs.shape[0] * cfg.n * cfg.d)
            return corrs, invs

        monkeypatch.setattr(oracle, "_block_stats", recorded)
        return cells

    @staticmethod
    def assert_cap_is(check, cells, monkeypatch):
        """check() passes with MAX_CELLS at `cells` and fails one cell below."""
        monkeypatch.setattr(core, "MAX_CELLS", cells)
        check()
        monkeypatch.setattr(core, "MAX_CELLS", cells - 1)
        with pytest.raises(ValueError, match="is too large"):
            check()

    # B*n = 240, 480 and 520 rows: two pools a chunk, then one pool just below and just above the budget
    @pytest.mark.parametrize("B", [12, 24, 26])
    def test_pool_cap(self, B, design_cells, monkeypatch):
        cfg = make_cfg(reps=101, c_draws=1_000)
        mc_block_moments(cfg, [CriterionKind.MDEE3], B)
        self.assert_cap_is(lambda: oracle.check_pool(cfg, B), max(design_cells), monkeypatch)

    # n = 20 takes 25 blocks a chunk; n = 499 and 501 take one block, just below and just above the budget. With a
    # 400-row tile, n = 20 builds 20 blocks at once, fewer than its chunk's 25.
    @pytest.mark.parametrize(
        "n, tile", [(20, None), (499, None), (501, None), (20, 400)], ids=["20", "499", "501", "20 in tiles"]
    )
    def test_moment_block_cap(self, n, tile, design_cells, monkeypatch):
        if tile is not None:
            monkeypatch.setattr(oracle, "_TILE", tile)
        cfg = make_cfg(n=n, reps=100, c_draws=1_000)
        _vectorized_blocks(cfg, 120)
        if tile is not None:
            assert max(design_cells) == tile * cfg.d < oracle._CHUNK * cfg.d
        self.assert_cap_is(lambda: oracle.check_moment_blocks(cfg, 120), max(design_cells), monkeypatch)


class TestChunkSpans:
    """The oracles' loops give the one-process bits at any process count.

    At a 5k-row chunk a replication of B = 25 blocks of n = 20 rows takes 500
    rows: 105 replications are 11 chunks, the last of 5. The closed form's
    2,100 blocks are 9 chunks of at most 250 blocks, and the 23k population
    rows 5 chunks, the last of 3k rows. So every loop has an uneven last chunk
    and more chunks than 1, 2 or 3 processes. With a 2k-row tile a closed-form
    chunk is built as 100, 100 and 50 blocks, and its last as 100 and 50.
    """

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK", 5_000)

    @pytest.fixture
    def processes(self, set_cpus, monkeypatch, tmp_path):
        """Set the CPU count; the returned call gives how many processes built designs since."""
        design = oracle._design

        def recorded(cfg, X):
            (tmp_path / str(os.getpid())).touch()
            return design(cfg, X)

        monkeypatch.setattr(oracle, "_design", recorded)

        def ran() -> int:
            return len(list(tmp_path.iterdir()))

        def set_count(count: int):
            set_cpus(count)
            return ran

        return set_count

    @staticmethod
    def cfg():
        return make_cfg(reps=105, n_test=300, c_draws=23_000)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_block_moments(self, cpus, processes):
        expected = block_moments(self.cfg(), MOMENT_VARIANTS, 25, 3)
        ran = processes(cpus)
        assert mc_block_moments(self.cfg(), MOMENT_VARIANTS, 25, 3) == expected
        assert (ran() > 1) == (cpus > 1)
        assert no_child_left()

    @pytest.mark.parametrize(
        "cpus, tile",
        [(cpus, None) for cpus in (1, 2, 3, 8)] + [(cpus, 2_000) for cpus in (1, 2, 3, 8)],
        ids=["1", "2", "3", "8"] + [f"{cpus} in tiles of 100/100/50 blocks" for cpus in (1, 2, 3, 8)],
    )
    def test_closed_form(self, cpus, tile, processes, monkeypatch):
        cfg = self.cfg()
        mu_b, nu_b = vectorized_blocks(cfg, 2_100)
        expected = h1_variance_closed_form(cfg, 10, 4, n_blocks=2_100)
        if tile is not None:
            monkeypatch.setattr(oracle, "_TILE", tile)
        ran = processes(cpus)
        got = _vectorized_blocks(cfg, 2_100)
        assert (ran() > 1) == (cpus > 1)
        np.testing.assert_array_equal(got[0], mu_b)
        np.testing.assert_array_equal(got[1], nu_b)
        assert mc_h1_variance_closed_form(cfg, 10, 4, n_blocks=2_100) == expected
        assert no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_risk_ratio(self, cpus, processes):
        expected = risk_ratio(self.cfg())
        ran = processes(cpus)
        assert mc_risk_ratio(self.cfg()) == expected
        assert (ran() > 1) == (cpus > 1)
        assert no_child_left()

    # Each process replays the one row stream up to its chunks. Beyond the class's 5 chunks: a single chunk, which no
    # child takes; as many chunks as processes, so each child skips to its one chunk; and 3 chunks at 2 processes, the
    # last of 2k rows, so this process skips chunk 1 between its chunks 0 and 2.
    @pytest.mark.parametrize(
        "cpus, c_draws",
        [(1, 23_000), (2, 23_000), (3, 23_000), (8, 23_000), (3, 5_000), (3, 15_000), (2, 12_000)],
        ids=["1", "2", "3", "8", "one chunk at 3 CPUs", "a chunk per process", "uneven last chunk at 2 processes"],
    )
    def test_population_pass(self, cpus, c_draws, processes):
        cfg, mat = make_cfg(c_draws=c_draws), np.full((3, 3), 0.1) + np.eye(3)
        expected = population_corr(cfg), _quadratic_form_var(cfg, mat)
        ran = processes(cpus)
        C, spread = _population_pass(cfg, mat)
        assert ran() == min(cpus, len(oracle._chunks(c_draws, 1)))
        np.testing.assert_array_equal(C, expected[0])
        assert spread == expected[1]
        assert no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_closed_form_holds_less_than_one_side(self, cpus, set_cpus):
        # The blocks live in shared mappings, which tracemalloc does not trace; what it traces (a tile's rows, design
        # and matrices, a group's centered copy) must stay below one side's n_blocks * d^2 floats. Joining the chunks'
        # returned rows, or building a whole 5,000-block chunk's design at once, goes above it.
        set_cpus(cpus)
        cfg, n_blocks = make_cfg(reps=100), 23_456
        tracemalloc.start()
        try:
            mc_h1_variance_closed_form(cfg, 10, 4, n_blocks=n_blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n_blocks * cfg.d**2 * 8
        assert no_child_left()

    def test_population_pass_holds_one_chunk(self, set_cpus):
        # Drawn as one list, the rows of 5 chunks put the traced peak above 3 chunks' rows and designs, and 20 chunks
        # add 15 chunks' rows to it.
        set_cpus(1)
        mat = np.full((3, 3), 0.1) + np.eye(3)
        one_chunk = oracle._CHUNK * (1 + 3) * 8  # the float64 rows of M = 1 and their d = 3 design
        peaks = []
        for chunks in (5, 20):
            cfg = make_cfg(c_draws=chunks * oracle._CHUNK)
            tracemalloc.start()
            try:
                _population_pass(cfg, mat)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 3 * one_chunk
        assert peaks[1] - peaks[0] < oracle._CHUNK * 8


# Each oracle loop, run on a config whose designs are the loop's jobs' first call.
ORACLE_LOOPS = [
    pytest.param(lambda cfg: mc_risk_ratio(cfg), id="theorem-2 replications"),
    pytest.param(lambda cfg: mc_block_moments(cfg, MOMENT_VARIANTS, 25, 3), id="replication chunks"),
    pytest.param(lambda cfg: _vectorized_blocks(cfg, 2_000), id="closed-form chunks"),
    pytest.param(lambda cfg: _population_pass(cfg, np.eye(cfg.d)), id="population rounds"),
]


class TestForkedLoops:
    """A job that fails in a child fails the oracle call in the caller, and no child outlives it."""

    @pytest.fixture(autouse=True)
    def two_processes(self, set_cpus, monkeypatch):
        monkeypatch.setattr(oracle, "_CHUNK", 5_000)
        set_cpus(2)

    @staticmethod
    def in_children(monkeypatch, action):
        """Make every design built in a child process run action() instead."""
        parent = os.getpid()
        design = oracle._design
        monkeypatch.setattr(oracle, "_design", lambda cfg, X: action() if os.getpid() != parent else design(cfg, X))

    @staticmethod
    def cfg():
        return make_cfg(reps=105, n_test=300, c_draws=23_000)

    @pytest.mark.parametrize("loop", ORACLE_LOOPS)
    def test_a_failing_job_raises_in_the_caller(self, loop, monkeypatch):
        def fail():
            raise ValueError("chunk failed")

        self.in_children(monkeypatch, fail)
        with pytest.raises(ValueError, match="chunk failed") as raised:
            loop(self.cfg())
        assert "raised in a child process" in str(raised.value.__cause__)
        assert no_child_left()

    @pytest.mark.parametrize("loop", ORACLE_LOOPS)
    def test_a_child_that_dies_is_named(self, loop, monkeypatch):
        self.in_children(monkeypatch, lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="ended without sending its results"):
            loop(self.cfg())
        assert no_child_left()

    @pytest.mark.parametrize("loop", ORACLE_LOOPS)
    def test_an_interrupt_kills_the_children(self, loop, monkeypatch):
        # The children would sleep for a minute; the interrupt in this process ends the call at once.
        parent = os.getpid()
        design = oracle._design

        def interrupted(cfg, X):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return design(cfg, X)

        monkeypatch.setattr(oracle, "_design", interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            loop(self.cfg())
        assert time.perf_counter() - start < 30
        assert no_child_left()


def test_oracles_and_report_do_not_load_scipy():
    # SciPy's LAPACK wrappers load on the first Cholesky factor a trial takes; the oracles and the
    # re-aggregation never take one, so they skip SciPy's import time and memory. They read no
    # config either, so YAML stays unloaded too.
    trials = Path(__file__).resolve().parent / "data" / "golden" / "synthetic_step_n10" / "seed0" / "trials.csv"
    script = f"""
import contextlib, io, sys
import mdee.cli
def loaded_now():
    return sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "yaml"))
loaded = [loaded_now()]
for argv in (["oracle", "--theorem", "2", "--reps", "20", "--seed", "1"],
             ["oracle", "--theorem", "4", "--reps", "100", "--moment-blocks", "100", "--seed", "1"],
             ["report", {str(trials)!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        mdee.cli.main(argv)
    loaded.append(loaded_now())
print(loaded)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(mdee.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[[], [], [], []]"


class TestMomentInputs:
    def test_nonnegative_traces(self):
        inputs = moment_inputs_from(*_vectorized_blocks(make_cfg(d=2), 2000))
        assert inputs.tr_varmu_varnu >= 0
        assert inputs.tr_varnu_mumu >= 0
        assert inputs.tr_varmu_nunu >= 0

    def test_closed_form_assembly(self):
        inputs = moment_inputs_from(*_vectorized_blocks(make_cfg(d=2), 500))
        value = closed_form_h1_variance(inputs, 2, 3)
        expected = (
            inputs.tr_varmu_varnu / 6 + inputs.tr_varnu_mumu / 3 + inputs.tr_varmu_nunu / 2
        )
        assert value == pytest.approx(expected)


# 100 and 2,100 blocks cut into even groups of the error bar, 105 and 23,456 into groups of two sizes.
@pytest.mark.parametrize("n_blocks", [100, 105, 2_100, 23_456])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_closed_form_one_side_at_a_time_matches_reference(d, m, n_blocks):
    cfg = make_cfg(basis=BasisSpec("fourier", m), d=d, reps=100, seed=7)
    assert mc_h1_variance_closed_form(cfg, 10, 4, n_blocks=n_blocks) == h1_variance_closed_form(cfg, 10, 4, n_blocks)
