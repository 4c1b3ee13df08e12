import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdee
from mdee.core import (
    COND_LIMIT,
    MAX_CELLS,
    BasisSpec,
    LabeledSet,
    SingularDesignError,
    UnlabeledSet,
    block_partition,
    build_design,
    check_cells,
    check_condition,
    condition_numbers,
    correlation_matrix,
    fit_model_path,
    interlacing_gate,
    inverse_factor,
    is_whole,
    normal_matrix,
)
from mdee.estimators import design_corrs, inverse_factors
from reference import basis_eval, block_corrs, coordinate_sum, empirical_loss, fourier_design, predict, ridge_lse

BASIS = BasisSpec("fourier", 1)
SQRT2 = np.sqrt(2.0)


# (rows, M, d) of the test, pool and oracle designs the package builds
DESIGN_CASES = [(10000, 1, 3), (1500, 1, 23), (1000, 1, 23), (1300, 7, 7), (50, 7, 7), (20, 3, 9), (30, 2, 1), (30, 2, 2)]

# numpy's float64 cos and sin are within one ulp, a relative error of at most eps
LIBM_ULPS = 1


def designs(rows, m, d):
    """(basis, X, build_design) on random, discrete duplicated and non-contiguous covariates."""
    rng = np.random.default_rng(rows + m + d)
    basis = BasisSpec("fourier", m)
    for X in (
        rng.normal(size=(rows, m)),
        rng.integers(0, 3, size=(rows, m)) * 0.7,
        rng.normal(size=(rows, 2 * m))[:, ::2],  # not contiguous
    ):
        yield basis, X, build_design(basis, X, d)


def recurrence_bound(X, d):
    """Per-entry bound on |build_design - fourier_design|, from the rounding of both routes (first order in eps).

    Column k holds sqrt(2) cos(pt) or sqrt(2) sin(pt) with p = k // 2 summed
    over the M coordinates t. Per coordinate, with u = eps / 2 and libm's
    cos and sin within g = 2 LIBM_ULPS units u:
    - the recurrence starts from the reference's p = 1 pair, off the exact
      one by at most sqrt(2) (g + 2) u (cos t or sin t, the rounded sqrt(2)
      and the product), and each of its p - 1 rotations by the computed
      (cos t, sin t) adds at most (4 + sqrt(2) g) u to the pair's 2-norm
      error: 2 sqrt(2) u per entry for two products and a sum of terms of a
      vector of norm sqrt(2), plus sqrt(2) g u from the rotation's own
      entries (Higham, Accuracy and Stability of Numerical Algorithms);
    - the reference rounds p * t, by at most p |t| u, and then cos or sin,
      sqrt(2) and the product as above.
    In units of sqrt(2) eps that is (p - 1)(sqrt(2) + g / 2) + g + 2 + p |t| / 2
    per coordinate. The two sums over M coordinates, in the same order, each
    round by at most (M - 1) u times the sum of M terms of size sqrt(2), M (M - 1)
    units together. For p >= 2 the bound is at most c p M sqrt(2) eps with
    c = 3.2 + max |t| / 2 + (M - 1) / p.
    """
    eps = np.finfo(float).eps
    g = 2 * LIBM_ULPS
    p = np.arange(1, d + 1) // 2
    m = X.shape[1]
    per_coordinate = m * ((p - 1) * (SQRT2 + g / 2) + g + 2) + p * np.abs(X).sum(axis=1, keepdims=True) / 2
    return np.where(p >= 2, SQRT2 * eps * (per_coordinate + m * (m - 1)), 0.0)


class TestBasisEval:
    def test_constant_function(self):
        assert basis_eval(BASIS, 1, 3.7) == 1.0

    def test_cosine_at_zero(self):
        assert basis_eval(BASIS, 2, 0.0) == pytest.approx(SQRT2)

    def test_sine_at_zero(self):
        assert basis_eval(BASIS, 3, 0.0) == 0.0

    def test_frequency_indexing(self):
        # index 2p is cos(p t), index 2p+1 is sin(p t)
        t = 0.83
        assert basis_eval(BASIS, 4, t) == pytest.approx(SQRT2 * np.cos(2 * t))
        assert basis_eval(BASIS, 7, t) == pytest.approx(SQRT2 * np.sin(3 * t))

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            basis_eval(BASIS, 0, 1.0)

    @given(st.integers(min_value=1, max_value=40), st.floats(-50, 50))
    def test_paired_terms_have_constant_energy(self, p, t):
        c = basis_eval(BASIS, 2 * p, t)
        s = basis_eval(BASIS, 2 * p + 1, t)
        assert c * c + s * s == pytest.approx(2.0, abs=1e-9)


class TestBuildDesign:
    def test_single_point_at_zero(self):
        row = build_design(BASIS, [[0.0]], 3)[0]
        np.testing.assert_allclose(row, [1.0, SQRT2, 0.0], atol=1e-15)

    def test_additive_sum_over_coordinates(self):
        basis2 = BasisSpec("fourier", 2)
        row = build_design(basis2, [[0.0, 0.0]], 3)[0]
        np.testing.assert_allclose(row, [2.0, 2 * SQRT2, 0.0], atol=1e-15)

    def test_cos_pi(self):
        row = build_design(BASIS, [[np.pi]], 2)[0]
        np.testing.assert_allclose(row, [1.0, -SQRT2], atol=1e-14)

    def test_constant_column_equals_m(self):
        basis3 = BasisSpec("fourier", 3)
        X = np.random.default_rng(0).normal(size=(20, 3))
        design = build_design(basis3, X, 5)
        np.testing.assert_allclose(design[:, 0], 3.0)

    @pytest.mark.parametrize("rows, m, d", DESIGN_CASES)
    def test_equals_the_per_column_reference_bit_for_bit(self, rows, m, d):
        # a design with d <= 3 is the reference's, and so are the first three columns of every design
        for basis, X, got in designs(rows, m, d):
            assert np.array_equal(got[:, :3], fourier_design(basis, X, d)[:, :3])
        if d <= 3:
            i = int(np.random.default_rng(rows).integers(rows))
            assert build_design(basis, X[i : i + 1], d)[0, d - 1] == sum(basis_eval(basis, d, t) for t in X[i])

    @pytest.mark.parametrize("rows, m, d", [case for case in DESIGN_CASES if case[2] > 3])
    def test_recurrence_columns_within_the_derived_bound(self, rows, m, d):
        for basis, X, got in designs(rows, m, d):
            diff = np.abs(got - fourier_design(basis, X, d))
            assert (diff <= recurrence_bound(X, d)).all()
        i = int(np.random.default_rng(rows).integers(rows))
        got = build_design(basis, X[i : i + 1], d)[0, d - 1]
        assert abs(got - sum(basis_eval(basis, d, t) for t in X[i])) <= recurrence_bound(X[i : i + 1], d)[0, d - 1]

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 1))
        perm = rng.permutation(12)
        direct = build_design(BASIS, X[perm], 4)
        permuted = build_design(BASIS, X, 4)[perm]
        np.testing.assert_array_equal(direct, permuted)

    @pytest.mark.parametrize("m, X", [(1, [0.1, 0.2, 0.3]), (1, np.zeros((4, 2))), (3, np.zeros((4, 1)))],
                             ids=["1-d row", "M=1 basis, 2 columns", "M=3 basis, 1 column"])
    def test_covariate_width_other_than_the_basis_rejected(self, m, X):
        # a flat array of three values was one row of M = 3, with a first column of 3.0
        with pytest.raises(ValueError, match=rf"X has {np.atleast_2d(X).shape[1]} covariate columns.*covariate_dim={m}"):
            build_design(BasisSpec("fourier", m), X, 3)


def coordinate_designs(m):
    """(X, the (rows, d, M) stack of each coordinate's M = 1 design, build_design) for d = 1..15."""
    rng = np.random.default_rng(m)
    for X in (rng.normal(size=(40, m)) * 3.0, rng.integers(0, 3, size=(30, 2 * m))[:, ::2] * 0.7, rng.normal(size=(1, m))):
        for d in range(1, 16):
            per_coordinate = np.stack([build_design(BASIS, X[:, [j]], d) for j in range(m)], axis=-1)
            yield X, per_coordinate, build_design(BasisSpec("fourier", m), X, d)


@pytest.mark.parametrize("m", range(1, 13))
def test_design_adds_coordinates_left_to_right(m):
    # each coordinate's features are the bits of its own M = 1 design
    for _, per_coordinate, got in coordinate_designs(m):
        assert np.array_equal(got, coordinate_sum(per_coordinate))


@pytest.mark.parametrize("m", range(1, 13))
def test_design_against_numpy_row_sums(m):
    """The route before coordinate-major designs summed each (rows, M) feature array with `.sum(axis=1)`.

    numpy adds fewer than 8 values left to right, so for M <= 7 the bits are
    the same. From M = 8 it sums pairwise; both orders are within
    gamma_{M-1} = (M - 1) u / (1 - (M - 1) u), u = eps / 2, of the exact sum,
    relative to the sum of the terms' magnitudes (Higham, Accuracy and
    Stability of Numerical Algorithms, 4.2), so they differ by at most twice that.
    """
    u = np.finfo(float).eps / 2
    gamma = (m - 1) * u / (1 - (m - 1) * u)
    for _, per_coordinate, got in coordinate_designs(m):
        row_sums = per_coordinate.sum(axis=-1)
        if m <= 7:
            assert np.array_equal(got, row_sums)
        else:
            assert (np.abs(got - row_sums) <= 2 * gamma * np.abs(per_coordinate).sum(axis=-1)).all()


class TestRidgeLse:
    def test_constant_fit(self):
        fit = ridge_lse(np.array([[1.0], [1.0]]), [2.0, 2.0], 1e-9)
        assert fit.alpha[0] == pytest.approx(2.0, abs=1e-8)
        assert fit.train_loss == pytest.approx(0.0, abs=1e-15)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 1))
        design = build_design(BASIS, X, 4)
        alpha_star = np.array([0.5, -1.0, 0.25, 2.0])
        y = design @ alpha_star
        fit = ridge_lse(design, y, 1e-9)
        np.testing.assert_allclose(fit.alpha, alpha_star, atol=1e-6)

    def test_matches_normal_equation_oracle(self):
        # independent route: explicit solve of Phi'Phi alpha = Phi'y
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        expected = np.linalg.solve(phi.T @ phi, phi.T @ y)
        fit = ridge_lse(phi, y, 0.0)
        np.testing.assert_allclose(fit.alpha, expected, atol=1e-8)

    def test_residual_orthogonality_at_zero_ridge(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        fit = ridge_lse(phi, y, 0.0)
        grad = phi.T @ (y - phi @ fit.alpha)
        assert np.abs(grad).max() <= 1e-8 * np.abs(phi.T @ y).max()

    def test_degenerate_design_raises(self):
        phi = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularDesignError):
            ridge_lse(phi, [1.0, 2.0, 3.0], 0.0)

    def test_train_loss_recomputable(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        fit = ridge_lse(phi, y, 1e-9)
        recomputed = empirical_loss(phi, y, fit.alpha)
        assert fit.train_loss == pytest.approx(recomputed, rel=1e-10)


class TestEmpiricalLoss:
    def test_zero_residuals(self):
        assert empirical_loss(np.eye(2), [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mean_of_squares(self):
        phi = np.zeros((2, 1))
        assert empirical_loss(phi, [1.0, -1.0], [0.0]) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(9, 3))
        y = rng.normal(size=9)
        alpha = rng.normal(size=3)
        total = 0.0
        for i in range(9):
            pred = sum(phi[i, k] * alpha[k] for k in range(3))
            total += (y[i] - pred) ** 2
        assert empirical_loss(phi, y, alpha) == pytest.approx(total / 9, abs=1e-12)


class TestCorrelationMatrix:
    def test_symmetric_psd(self):
        rng = np.random.default_rng(7)
        C = correlation_matrix(rng.normal(size=(25, 4)))
        assert np.abs(C - C.T).max() <= 1e-12
        assert np.linalg.eigvalsh(C).min() >= -1e-10

    def test_single_row_rank_one(self):
        row = np.array([[1.0, 2.0, -1.0]])
        C = correlation_matrix(row)
        np.testing.assert_allclose(C, np.outer(row[0], row[0]))
        assert np.linalg.matrix_rank(C) == 1

    def test_large_sample_orthonormal_limit(self):
        # Fourier terms are orthonormal under the uniform law on [0, 2*pi); at
        # 1e5 rows every entry of C matches the identity within 0.02.
        rng = np.random.default_rng(8)
        t = rng.uniform(0.0, 2.0 * np.pi, size=(100_000, 1))
        C = correlation_matrix(build_design(BASIS, t, 5))
        assert np.abs(C - np.eye(5)).max() < 0.02


class TestDesignCorrs:
    @pytest.mark.parametrize("kind", ["gauss", "discrete", "not_contiguous"])
    @pytest.mark.parametrize("n_blocks, n, m, d", [(150, 10, 1, 8), (75, 20, 1, 15), (30, 50, 1, 23), (4, 7, 3, 9)])
    def test_equals_per_block_correlation_matrices(self, kind, n_blocks, n, m, d):
        # One batched product against a correlation_matrix per block: exactly
        # symmetric, and each entry within 4 eps of the scale (|V|'|V|)_jk / n
        # at which the rounding of its dot product is measured (bit for bit
        # with OpenBLAS, which runs the same kernel per block).
        rng = np.random.default_rng(n_blocks + n + m + d)
        rows = n_blocks * n
        if kind == "gauss":
            X = rng.normal(size=(rows, m))
        elif kind == "discrete":
            X = rng.integers(0, 3, size=(rows, m)) * 0.7
        else:
            X = rng.normal(size=(rows, 2 * m))[:, ::2]
        stack = build_design(BasisSpec("fourier", m), X, d).reshape(n_blocks, n, d)
        if kind == "not_contiguous":
            stack = stack[:, ::-1]
        got = design_corrs(stack)
        assert np.array_equal(got, np.swapaxes(got, 1, 2))
        scale = np.swapaxes(np.abs(stack), 1, 2) @ np.abs(stack) / n
        assert (np.abs(got - block_corrs(stack)) <= 4 * np.finfo(float).eps * scale).all()


class TestFitModelPath:
    def test_single_model(self):
        data = LabeledSet(X=[[0.1], [0.4], [-0.3]], y=[1.0, 2.0, 3.0])
        path = fit_model_path(data, BASIS, 1, 1e-9)
        assert path.d_max == 1 and path.alphas.shape == path.factor.shape == (1, 1)
        assert path.losses.shape == (1,) and len(path.alpha(1)) == 1

    def test_noiseless_truth_has_tiny_loss(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 1))
        alpha_star = np.array([1.0, -0.5, 0.7])
        y = build_design(BASIS, X, 3) @ alpha_star
        path = fit_model_path(LabeledSet(X=X, y=y), BASIS, 5, 1e-9)
        for d in (3, 4, 5):
            assert path.train_loss(d) < 1e-10

    def test_train_loss_non_increasing(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            data = LabeledSet(X=rng.normal(size=(25, 1)), y=rng.normal(size=25))
            path = fit_model_path(data, BASIS, 8, 1e-9)
            losses = path.losses.tolist()
            for a, b in zip(losses, losses[1:]):
                assert b <= a * (1.0 + 1e-6)

    def test_error_names_model_size(self):
        # duplicated covariate rows make d=2 singular at zero ridge
        data = LabeledSet(X=[[0.5]] * 6, y=[1.0] * 6)
        with pytest.raises(SingularDesignError, match="d=2"):
            fit_model_path(data, BASIS, 2, 0.0)


def gate(tops):
    """`interlacing_gate` of a (B, D, D) stack from its own `inverse_factors`."""
    return interlacing_gate(tops, *inverse_factors(tops))


@st.composite
def gate_stacks(draw):
    """Jittered block correlation stacks: random, discrete, with a duplicated-row block or rank-deficient, ridge 0 included."""
    kind = draw(st.sampled_from(["gauss", "discrete", "duplicated", "rank_deficient"]))
    ridge = draw(st.sampled_from([1e-9, 1e-13, 0.0]))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(3, 13))
    d = draw(st.integers(1, n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 3, size=(4 * n, m)) * 0.7 if kind == "discrete" else rng.normal(size=(4 * n, m))
    if kind == "duplicated":
        X[:n] = X[0]
    elif kind == "rank_deficient":
        X = X[np.arange(4 * n) % max(1, d - 2)]  # fewer distinct rows than the top's size
    designs = build_design(BasisSpec("fourier", m), X, d).reshape(4, n, d)
    return design_corrs(designs) + ridge * np.eye(d)


class TestInterlacingGate:
    def test_well_conditioned_tops_not_rechecked(self):
        assert not interlacing_gate(np.eye(3), *inverse_factor(np.eye(3)))
        assert not gate(np.stack([np.eye(3), 2.0 * np.eye(3)])).any()

    def test_tops_above_half_the_limit_rechecked(self):
        # the second top passes its own check but is within a factor 2 of the limit
        tops = np.stack([np.eye(2), np.diag([1.0, 1.0 / (0.75 * COND_LIMIT)])])
        check_condition(tops[1], "top")
        np.testing.assert_array_equal(gate(tops), [False, True])

    def test_failed_factorization_rechecks(self):
        # a factorization that stops before the top's size, and a NaN bound
        indefinite = np.diag([1.0, -1.0, 1.0])
        assert inverse_factor(indefinite)[1] == 1
        assert interlacing_gate(indefinite, *inverse_factor(indefinite))
        assert interlacing_gate(np.full((2, 2), np.nan), *inverse_factor(np.full((2, 2), np.nan)))
        assert interlacing_gate(np.eye(2), np.full((2, 2), np.nan), 2)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 1e-13]))
    def test_no_recheck_means_every_corner_passes(self, seed, ridge):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        design = build_design(BASIS, rng.normal(size=(n, 1)), n)
        normal = normal_matrix(design, ridge)
        if interlacing_gate(normal, *inverse_factor(normal)):
            return
        for d in range(1, n + 1):
            check_condition(normal_matrix(design[:, :d], ridge), "corner")

    @settings(max_examples=150, deadline=None)
    @given(gate_stacks())
    def test_factor_gate_covers_every_top_above_half_the_limit(self, tops):
        # tr(A) ||L^{-1}||_F^2 bounds the SVD condition number of each top that
        # factors whole, up to the rounding of L^{-1} (relative d kappa eps)
        factors, sizes = inverse_factors(tops)
        cond = condition_numbers(tops)
        assert gate(tops)[~(cond <= COND_LIMIT / 2)].all()
        d = tops.shape[-1]
        bound = np.trace(tops, axis1=1, axis2=2) * np.square(factors).sum(axis=(1, 2))
        decided = (sizes == d) & (cond <= COND_LIMIT)
        eps = np.finfo(float).eps
        assert (bound[decided] >= cond[decided] * (1.0 - d * cond[decided] * eps)).all()


class TestBlockPartition:
    def test_exact_division(self):
        pool = UnlabeledSet(X=np.arange(6.0).reshape(6, 1))
        part = block_partition(pool, 2)
        assert part.shape == (3, 2, 1)
        np.testing.assert_array_equal(part[1], [[2.0], [3.0]])

    def test_remainder_discarded(self):
        pool = UnlabeledSet(X=np.arange(7.0).reshape(7, 1))
        part = block_partition(pool, 2)
        assert part.shape == (3, 2, 1)
        np.testing.assert_array_equal(part.reshape(6, 1), pool.X[:6])

    def test_floor_count(self):
        pool = UnlabeledSet(X=np.zeros((1499, 1)))
        assert len(block_partition(pool, 50)) == 29

    def test_pool_too_small(self):
        pool = UnlabeledSet(X=np.zeros((3, 1)))
        with pytest.raises(ValueError, match="smaller than one block"):
            block_partition(pool, 4)

    def test_blocks_are_disjoint_slices(self):
        pool = UnlabeledSet(X=np.arange(24.0).reshape(12, 2))
        part = block_partition(pool, 3)
        for b in range(4):
            np.testing.assert_array_equal(part[b], pool.X[3 * b : 3 * b + 3])


class TestPredict:
    def test_matches_design_product(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(7, 1))
        alpha = rng.normal(size=4)
        expected = build_design(BASIS, X, 4) @ alpha
        np.testing.assert_allclose(predict(BASIS, X, alpha), expected)


@pytest.mark.parametrize(
    "value, whole",
    [(3, True), (-2, True), (np.int64(3), True), (4.0, True), (np.float64(-2.0), True), (2**70, True),
     (2.9, False), (True, False), (np.True_, False), (float("inf"), False), (float("nan"), False), ("3", False),
     (None, False), ([3], False)],
)
def test_is_whole(value, whole):
    assert is_whole(value) is whole


def test_check_cells_names_the_input_and_the_cap():
    check_cells("n", MAX_CELLS)
    with pytest.raises(ValueError, match=f"^n is too large: an array of {MAX_CELLS + 1} cells passes MAX_CELLS = "
                                         f"{MAX_CELLS}$"):
        check_cells("n", MAX_CELLS + 1)


def run_python(script: str) -> str:
    """The stdout of `script` in a fresh interpreter that imports this package from its source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(mdee.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestLapack:
    def test_trials_load_the_lapack_module_not_the_linalg_package(self):
        script = """
import sys
from mdee.harness import ExperimentConfig, SyntheticScenario, run_experiment
scenario = SyntheticScenario(target="step", n_values=[10], noise_vars=[0.1], n_unlabeled=100, n_test=50)
run_experiment(ExperimentConfig(scenario, ["DEE", "mDEE1", "mDEE2", "mDEE3", "rmDEE"], repetitions=2))
print("scipy.linalg" in sys.modules, "scipy.linalg._flapack" in sys.modules)
"""
        assert run_python(script) == "False True"

    @pytest.mark.parametrize("first", ["lapack", "scipy.linalg"])
    def test_the_functions_are_scipys_in_either_import_order(self, first):
        script = f"""
import sys
from mdee.core import lapack
if {first!r} == "scipy.linalg":
    import scipy.linalg
module = lapack()
if {first!r} == "lapack":
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
from scipy.linalg import _flapack, lapack as wrappers
print(module is _flapack, module.dpotrf is wrappers.dpotrf, module.dtrtri is wrappers.dtrtri, module is lapack())
"""
        assert run_python(script) == "True True True True"

    def test_a_missing_module_names_the_directory_searched(self):
        script = """
import importlib.machinery
from mdee.core import lapack
importlib.machinery.EXTENSION_SUFFIXES[:] = [".missing"]
try:
    lapack()
except ImportError as exc:
    print(exc)
"""
        message = run_python(script)
        assert message.startswith("SciPy's LAPACK module _flapack is not in ")
        assert str(Path("scipy", "linalg")) in message and "_flapack.missing" in message
