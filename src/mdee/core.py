"""Shared regression machinery.

Additive Fourier design matrices, the ridge-stabilized least-squares fits of
a nested model path, their condition checks and correlation matrices. Every
model selection criterion in this package is built on top of these
primitives. The per-size fit `ridge_lse` that the tests compare the path fits
with is in `tests/reference.py`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SQRT2 = float(np.sqrt(2.0))

# Ridge coefficient used throughout unless a caller overrides it.
DEFAULT_RIDGE = 1e-9

# Condition number of the (ridge-augmented) normal matrix above which a solve
# is treated as numerically singular.
COND_LIMIT = 1e12

# The most cells of any one array a trial or an oracle call allocates. 2**27
# float64 cells are 1 GiB, so an input past it is turned away before any work
# rather than failing in numpy's allocator partway through.
MAX_CELLS = 2**27


def is_whole(value) -> bool:
    """True for an int, a numpy integer or a float without a fraction part (4.0); false for a bool and for 2.9."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()


def check_cells(name: str, cells: int) -> None:
    """Raise ValueError naming the input `name` when an array it sizes, of `cells` cells, passes MAX_CELLS."""
    if cells > MAX_CELLS:
        raise ValueError(f"{name} is too large: an array of {cells} cells passes MAX_CELLS = {MAX_CELLS}")


class SingularDesignError(ValueError):
    """Normal matrix is numerically singular even after ridge augmentation."""


@dataclass(frozen=True)
class BasisSpec:
    """Feature basis description: family name plus covariate dimension M."""

    kind: str = "fourier"
    covariate_dim: int = 1

    def __post_init__(self):
        if self.kind != "fourier":
            raise ValueError(f"unknown basis kind: {self.kind!r}")
        if self.covariate_dim < 1:
            raise ValueError("covariate_dim must be a positive integer")


@dataclass
class LabeledSet:
    """Covariate matrix (n x M) paired with a response vector of length n."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y must have matching row counts")
        if self.X.shape[0] < 1:
            raise ValueError("a labeled set needs at least one row")

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass
class UnlabeledSet:
    """Covariate-only pool (n' x M)."""

    X: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass
class ModelPath:
    """The `path_fits` of every size d = 1..d_max on one labeled set, as arrays.

    Row d - 1 of the lower-triangular `alphas` is the size-d fit, and `factor`
    is the inverse Cholesky factor W = L^{-1} of the normal matrix the fits
    were read from, up to the size the fit reached.
    """

    alphas: np.ndarray
    losses: np.ndarray
    factor: np.ndarray
    basis: BasisSpec

    def __post_init__(self):
        d_max = len(self.losses)
        if self.alphas.shape != (d_max, d_max) or self.factor.shape != (d_max, d_max):
            raise ValueError("a model path needs (d_max, d_max) coefficients and factor and d_max losses")

    @property
    def d_max(self) -> int:
        return len(self.losses)

    def alpha(self, d: int) -> np.ndarray:
        return self.alphas[d - 1, :d]

    def train_loss(self, d: int) -> float:
        return float(self.losses[d - 1])


def build_design(basis: BasisSpec, X, d: int) -> np.ndarray:
    """Design matrix (rows x d) of the size-d additive model over covariate rows X.

    Column k holds sum_m phi_k(X[i, m]); coefficients are shared across
    covariate coordinates, so M > 1 sums the feature over coordinates and
    the first column is constantly M. The columns of a smaller model are
    the leading columns of a larger one. With M > 1 the features are taken
    on a coordinate-major copy of X and each column adds its coordinates
    left to right (`_coordinate_sum`).
    """
    if d < 1:
        raise ValueError("model size d must be >= 1")
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)))
    rows, m = X.shape
    if rows < 1:
        raise ValueError("design requires at least one covariate row")
    design = np.empty((rows, d))
    design[:, 0] = m
    x = X[:, 0] if m == 1 else np.ascontiguousarray(X.T)
    if d <= 3:
        # The bits of the per-column reference (`fourier_design` in
        # tests/reference.py), one temporary per column: the oracle's d = 3
        # designs come in 100k-row chunks, which holding cos t and sin t as
        # below would grow by two arrays each.
        for k, trig in ((2, np.cos), (3, np.sin))[: d - 1]:
            col = trig(x)
            col *= SQRT2
            design[:, k - 1] = col if m == 1 else _coordinate_sum(col)
        return design
    # The p = 1 columns as above; for p >= 2, sqrt(2) (cos pt, sin pt) is the
    # p - 1 pair rotated by t (angle addition), one rotation per pair instead of
    # a cos and a sin. Each rotation adds a few eps of error, so the columns of
    # frequency p differ from the reference by O(p eps) (README, Notes on numerics).
    cos1, sin1 = np.cos(x), np.sin(x)
    cos_p, sin_p = cos1 * SQRT2, sin1 * SQRT2
    for p in range(1, d // 2 + 1):
        if p > 1:
            cos_p, sin_p = cos_p * cos1 - sin_p * sin1, sin_p * cos1 + cos_p * sin1
        design[:, 2 * p - 1] = cos_p if m == 1 else _coordinate_sum(cos_p)
        if 2 * p < d:
            design[:, 2 * p] = sin_p if m == 1 else _coordinate_sum(sin_p)
    return design


def _coordinate_sum(values: np.ndarray) -> np.ndarray:
    """Sum of the rows of an (M, rows) array, M >= 2, added left to right.

    Adding contiguous rows is about ten times faster than summing the short
    rows of the (rows, M) layout. numpy sums fewer than 8 values left to right
    as well, so for M <= 7 the bits are those of `.sum(axis=1)` on the
    row-major layout; from M = 8 numpy sums pairwise and the two differ in
    the last bits (README, Notes on numerics). The loop is explicit because
    `values.sum(axis=0)` is pairwise too when there is a single row.
    """
    total = values[0] + values[1]
    for row in values[2:]:
        total += row
    return total


def condition_numbers(mats) -> np.ndarray:
    """2-norm condition numbers of a symmetric matrix or a (..., d, d) stack of them.

    A zero smallest singular value gives inf. An SVD that does not converge
    raises SingularDesignError, so the caller's risk becomes the inf@d sentinel
    like any other numerical failure.
    """
    try:
        s = np.linalg.svd(mats, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"condition check failed: {exc}") from exc
    smin = s[..., -1]
    with np.errstate(divide="ignore"):
        return np.where(smin > 0, s[..., 0] / smin, np.inf)


def check_condition(mat: np.ndarray, what: str) -> None:
    """Raise SingularDesignError when the condition number of `mat` is above COND_LIMIT."""
    cond = float(condition_numbers(mat))
    if not cond <= COND_LIMIT:
        raise SingularDesignError(f"{what} condition {cond:.3g} exceeds {COND_LIMIT:.0e}")


def lapack():
    """SciPy's compiled LAPACK wrappers, the module `scipy.linalg._flapack`, loaded on first use.

    The module is loaded from its extension file by itself, without running
    the `scipy.linalg` package, whose import pulls in some 70 modules this
    package never calls (README, notes on numerics). It is registered in
    `sys.modules` under its full name, so later calls, and a later
    `import scipy.linalg`, reuse this one module: its `dpotrf` and `dtrtri`
    are the very functions `scipy.linalg.lapack` exports. Only the small
    top-level `scipy` package is imported, to find the file. The oracles and
    `mdee report` never take a Cholesky factor, so they never load it.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    directory = Path(importlib.util.find_spec("scipy.linalg").submodule_search_locations[0])
    paths = [directory / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"SciPy's LAPACK module _flapack is not in {directory}: searched {[p.name for p in paths]}")
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader, origin=str(path)))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


def inverse_factor(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """L^{-1} for the lower Cholesky factor L of a symmetric matrix, and the size the factor reaches.

    LAPACK's potrf stops at the first leading minor k that is not positive
    definite; the factor then reaches size k - 1 and the returned
    (k - 1) x (k - 1) inverse is that of its leading block, the factor of the
    matrix's leading corner (Golub and Van Loan, Matrix Computations, 4.2).
    """
    flapack = lapack()
    low, info = flapack.dpotrf(mat, lower=1)
    size = info - 1 if info else mat.shape[0]
    if not size:
        return np.zeros((0, 0)), 0
    return flapack.dtrtri(low[:size, :size], lower=1)[0], size


def interlacing_gate(tops, factors, sizes) -> np.ndarray:
    """Which nested families need a condition check below COND_LIMIT at each size.

    `tops` is the D x D member of a family of symmetric matrices whose size-d
    member is its leading d x d corner (a normal or correlation matrix of the
    first d design columns, plus a ridge), or a (B, D, D) stack of such tops.
    `factors` holds each top's inverse Cholesky factor W = L^{-1} and `sizes`
    the size its factorization reaches (`inverse_factor`,
    `estimators.inverse_factors`). Since tr(A) >= lambda_max and
    ||W||_F^2 = tr(A^{-1}) >= 1 / lambda_min, the bound tr(A) ||W||_F^2 is at
    least the top's 2-norm condition number, and by Cauchy interlacing a
    leading corner's condition number is at most the whole matrix's. A family
    whose bound is at most COND_LIMIT / 2 thus passes the check at every size,
    D included, and only the others (True in the returned mask) are checked
    again, size by size, with `condition_numbers`. A factorization that stops
    before D, or a bound that is NaN, also gates its family. The factor-2
    margin covers the rounding of W and of the SVD near the limit and the last
    bits in which a member formed at its own size differs from the corner.
    """
    tops = np.asarray(tops)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.trace(tops, axis1=-2, axis2=-1) * np.square(factors).sum(axis=(-2, -1))
    return (np.asarray(sizes) < tops.shape[-1]) | ~(bound <= COND_LIMIT / 2)


def normal_matrix(v: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """Ridge-augmented normal matrix Phi^T Phi + n*lambda*I of a (n, d) design, symmetrized."""
    n, d = v.shape
    A = v.T @ v + n * ridge_lambda * np.eye(d)
    return 0.5 * (A + A.T)


def correlation_matrix(phi) -> np.ndarray:
    """Empirical correlation matrix (1/rows) Phi^T Phi, symmetrized."""
    v = np.atleast_2d(np.asarray(phi, dtype=float))
    C = v.T @ v / v.shape[0]
    return 0.5 * (C + C.T)


def fit_model_path(data: LabeledSet, basis: BasisSpec, d_max: int, ridge_lambda: float = DEFAULT_RIDGE) -> ModelPath:
    """Fit the LSE for every model size d = 1..d_max on the full labeled set.

    Each fit is the least-squares fit of the first d design columns, read from
    one factor (`path_fits`); a size that fails raises SingularDesignError naming it.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    path, error = _model_path(build_design(basis, data.X, d_max), data.y, basis, ridge_lambda)
    if error is not None:
        raise error
    return path


def fit_design_path(design: np.ndarray, y: np.ndarray, basis: BasisSpec, ridge_lambda: float) -> ModelPath:
    """`fit_model_path` from the labeled d_max design of `basis`, ending below the first size that fails.

    By Cauchy interlacing a larger nested normal matrix is never better
    conditioned, so the sizes lost are the largest ones.
    """
    return _model_path(design, y, basis, ridge_lambda)[0]


def _model_path(design: np.ndarray, y: np.ndarray, basis: BasisSpec, ridge_lambda: float):
    """The `path_fits` of the design as a ModelPath, with each size's training loss, and the fit's failure or None."""
    alphas, factor, error = path_fits(design, y, ridge_lambda)
    resids = y[:, None] - design[:, : len(alphas)] @ alphas.T
    return ModelPath(alphas, np.einsum("ij,ij->j", resids, resids) / len(y), factor, basis), error


def path_fits(design: np.ndarray, y: np.ndarray, ridge_lambda: float):
    """The least-squares fits of sizes 1, 2, ... of the design below the first size that fails.

    Returns their coefficients as the rows of a lower-triangular (size, size)
    array, row d - 1 holding the size-d fit, the (size, size) leading block of
    the inverse factor W below, and the failure's SingularDesignError or None.
    The d_max normal matrix is factored once. The leading d x d block of its
    lower Cholesky factor L is the factor of the size-d normal matrix, so with
    W = L^{-1} and z = W V^T y the size-d coefficients are W[:d, :d]^T z[:d],
    the first d entries of the sum of the first d rows of W scaled by z. When
    `interlacing_gate` flags the factor, each size's own normal matrix, of
    `design[:, :d]`, is condition-checked. The fits end at the first size that
    fails its check or that the factorization does not reach. They differ in
    the last bits only from fitting each size on its own (`ridge_lse` in
    `tests/reference.py`).
    """
    d_max = design.shape[1]
    normal = normal_matrix(design, ridge_lambda)
    inv, size = inverse_factor(normal)
    error = None
    if size < d_max:
        error = SingularDesignError(
            f"normal matrix factorization failed: leading minor {size + 1} not positive definite"
        )
    if interlacing_gate(normal, inv, size):
        for d in range(1, size + 1):
            try:
                check_condition(normal_matrix(design[:, :d], ridge_lambda), "normal matrix")
            except SingularDesignError as exc:
                size, error = d - 1, exc
                break
    if error is not None:
        error = SingularDesignError(f"model size d={size + 1}: {error}")
    inv = inv[:size, :size]
    z = inv @ (design[:, :size].T @ y)
    return np.cumsum(inv * z[:, None], axis=0), inv, error


def block_partition(pool: UnlabeledSet, n: int) -> np.ndarray:
    """Cut the pool into B = floor(n'/n) disjoint blocks of n rows, in pool order.

    Returns a (B, n, M) array; remainder rows are discarded so every block is
    a same-sized i.i.d. copy of the training covariate set.
    """
    if n < 1:
        raise ValueError("block size must be >= 1")
    n_pool, m = pool.X.shape
    n_blocks = n_pool // n
    if n_blocks == 0:
        raise ValueError("unlabeled pool smaller than one block")
    return pool.X[: n_blocks * n].reshape(n_blocks, n, m)
