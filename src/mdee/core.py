"""Shared regression machinery.

Fourier feature evaluation, additive design matrices, ridge-stabilized least
squares, empirical losses and correlation matrices. Every model selection
criterion in this package is built on top of these primitives.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

SQRT2 = float(np.sqrt(2.0))

# Ridge coefficient used throughout unless a caller overrides it.
DEFAULT_RIDGE = 1e-9

# Condition number of the (ridge-augmented) normal matrix above which a solve
# is treated as numerically singular.
COND_LIMIT = 1e12


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
class FittedModel:
    d: int
    alpha: np.ndarray
    train_loss: float
    ridge_lambda: float


@dataclass
class ModelPath:
    """Fitted models for every size d = 1..d_max on one labeled set."""

    models: list[FittedModel]
    d_max: int
    basis: BasisSpec

    def __post_init__(self):
        if len(self.models) != self.d_max:
            raise ValueError("model path must hold one model per size")
        for i, m in enumerate(self.models, start=1):
            if m.d != i:
                raise ValueError("models must be indexed contiguously from 1")

    def model(self, d: int) -> FittedModel:
        return self.models[d - 1]

    def train_loss(self, d: int) -> float:
        return self.models[d - 1].train_loss


def _fourier_column(k: int, t: np.ndarray) -> np.ndarray:
    """k-th Fourier function evaluated elementwise: 1, sqrt(2)cos(pt), sqrt(2)sin(pt)."""
    if k == 1:
        return np.ones_like(t)
    p = k // 2
    if k % 2 == 0:
        return SQRT2 * np.cos(p * t)
    return SQRT2 * np.sin(p * t)


def basis_eval(basis: BasisSpec, k: int, t: float) -> float:
    """Evaluate the k-th basis function at a scalar point."""
    if k < 1:
        raise ValueError("basis index k must be >= 1")
    return float(_fourier_column(k, np.asarray(t, dtype=float)))


def build_design(basis: BasisSpec, X, d: int) -> np.ndarray:
    """Design matrix (rows x d) of the size-d additive model over covariate rows X.

    Column k holds sum_m phi_k(X[i, m]); coefficients are shared across
    covariate coordinates, so M > 1 sums the feature over coordinates and
    the first column is constantly M. The columns of a smaller model are
    the leading columns of a larger one.
    """
    if d < 1:
        raise ValueError("model size d must be >= 1")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("design requires at least one covariate row")
    cols = [_fourier_column(k, X).sum(axis=1) for k in range(1, d + 1)]
    return np.column_stack(cols)


def predict(basis: BasisSpec, X, alpha: np.ndarray) -> np.ndarray:
    """Model predictions sum_k alpha_k sum_m phi_k(x_m) for each row of X."""
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    return build_design(basis, X, len(alpha)) @ alpha


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


def inverse_factor(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """L^{-1} for the lower Cholesky factor L of a symmetric matrix, and the size the factor reaches.

    LAPACK's potrf stops at the first leading minor k that is not positive
    definite; the factor then reaches size k - 1 and the returned
    (k - 1) x (k - 1) inverse is that of its leading block, the factor of the
    matrix's leading corner (Golub and Van Loan, Matrix Computations, 4.2).
    """
    low, info = dpotrf(mat, lower=1)
    size = info - 1 if info else mat.shape[0]
    if not size:
        return np.zeros((0, 0)), 0
    return dtrtri(low[:size, :size], lower=1)[0], size


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


def solve_ridge(v: np.ndarray, y: np.ndarray, ridge_lambda: float, check: bool) -> np.ndarray:
    """Coefficients of the ridge-augmented normal equations of design v and response y.

    Forms `normal_matrix(v, ridge_lambda)`, condition-checks it when `check` is
    set (as `interlacing_gate` says), and solves through its Cholesky factor.
    LAPACK's potrf/potrs are called directly, with the arguments scipy's
    `cho_factor`/`cho_solve` pass them, without that wrapper's per-call cost.
    """
    A = normal_matrix(v, ridge_lambda)
    if check:
        check_condition(A, "normal matrix")
    factor, info = dpotrf(A, lower=1, clean=0)
    if info:  # pragma: no cover - condition check first
        raise SingularDesignError(f"normal matrix factorization failed: leading minor {info} not positive definite")
    return dpotrs(factor, v.T @ y, lower=1)[0]


def _ridge_fit(v: np.ndarray, y: np.ndarray, ridge_lambda: float, check: bool) -> FittedModel:
    alpha = solve_ridge(v, y, ridge_lambda, check)
    loss = empirical_loss(v, y, alpha)
    return FittedModel(d=v.shape[1], alpha=alpha, train_loss=loss, ridge_lambda=ridge_lambda)


def ridge_lse(phi, y, ridge_lambda: float = DEFAULT_RIDGE) -> FittedModel:
    """Least squares fit through the ridge-augmented normal equations.

    Solves (Phi^T Phi + n*lambda*I) alpha = Phi^T y with a symmetric
    (Cholesky) factorization. Scaling the penalty by n keeps lambda
    comparable with the per-row correlation matrix regardless of n.
    """
    v = np.atleast_2d(np.asarray(phi, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if v.shape[0] != y.shape[0]:
        raise ValueError("design rows and response length differ")
    return _ridge_fit(v, y, ridge_lambda, check=True)


def empirical_loss(phi, y, alpha) -> float:
    """Mean squared residual (1/n) ||y - Phi alpha||^2."""
    v = np.atleast_2d(np.asarray(phi, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    resid = y - v @ alpha
    return float(resid @ resid / y.shape[0])


def correlation_matrix(phi) -> np.ndarray:
    """Empirical correlation matrix (1/rows) Phi^T Phi, symmetrized."""
    v = np.atleast_2d(np.asarray(phi, dtype=float))
    C = v.T @ v / v.shape[0]
    return 0.5 * (C + C.T)


def fit_model_path(
    data: LabeledSet,
    basis: BasisSpec,
    d_max: int,
    ridge_lambda: float = DEFAULT_RIDGE,
) -> ModelPath:
    """Fit the LSE for every model size d = 1..d_max on the full labeled set.

    Each fit equals `ridge_lse` on the first d design columns; see `_path_fits`.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    models = list(_path_fits(build_design(basis, data.X, d_max), data.y, ridge_lambda))
    return ModelPath(models=models, d_max=d_max, basis=basis)


def fit_design_path(design: np.ndarray, y: np.ndarray, basis: BasisSpec, ridge_lambda: float) -> ModelPath:
    """`fit_model_path` from the labeled d_max design of `basis`, ending below the first size that fails.

    By Cauchy interlacing a larger nested normal matrix is never better
    conditioned, so the sizes lost are the largest ones.
    """
    models = []
    with contextlib.suppress(SingularDesignError):
        for model in _path_fits(design, y, ridge_lambda):
            models.append(model)
    return ModelPath(models=models, d_max=len(models), basis=basis)


def _path_fits(design: np.ndarray, y: np.ndarray, ridge_lambda: float):
    """The fits of sizes 1, 2, ... of the design; a size that fails its condition check raises SingularDesignError.

    The normal matrices are condition-checked as `interlacing_gate` allows,
    from one Cholesky factorization at the largest size.
    """
    normal = normal_matrix(design, ridge_lambda)
    recheck = bool(interlacing_gate(normal, *inverse_factor(normal)))
    for d in range(1, design.shape[1] + 1):
        try:
            yield _ridge_fit(design[:, :d], y, ridge_lambda, recheck)
        except SingularDesignError as exc:
            raise SingularDesignError(f"model size d={d}: {exc}") from exc


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
