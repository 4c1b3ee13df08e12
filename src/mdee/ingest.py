"""Real-world dataset loading and the train/unlabeled/test split protocol."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import LabeledSet, UnlabeledSet

STD_FLOOR = 1e-12


@dataclass
class DatasetManifest:
    """Where a delimited numeric dataset lives and which columns to use.

    Columns may be named (requires a header) or zero-based integer indices.
    """

    name: str
    path: str
    response_column: str | int
    covariate_columns: list
    delimiter: str = ","
    has_header: bool = True

    def __post_init__(self):
        if len(self.covariate_columns) < 1:
            raise ValueError("need at least one covariate column")


@dataclass
class SplitSpec:
    """Row budget for one split: n labeled, n_prime unlabeled, rest test."""

    n: int
    n_prime: int
    seed: int = 0
    standardize: bool = True


def _resolve_columns(manifest: DatasetManifest, header: list[str] | None) -> tuple[list[int], int]:
    def resolve(col):
        # a bool is an int to isinstance, and a negative index would count from the row's end
        if isinstance(col, bool) or isinstance(col, int) and col < 0:
            raise ValueError(f"{manifest.name}: column {col!r} is not a zero-based column index")
        if isinstance(col, int):
            return col
        if header is None:
            raise ValueError(
                f"column {col!r} is named but the file has no header row"
            )
        try:
            return header.index(col)
        except ValueError:
            raise ValueError(f"column {col!r} not found in header {header}") from None

    cov_idx = [resolve(c) for c in manifest.covariate_columns]
    resp_idx = resolve(manifest.response_column)
    if len(set(cov_idx)) < len(cov_idx):
        raise ValueError(f"{manifest.name}: covariate_columns {manifest.covariate_columns} name a column twice")
    if resp_idx in cov_idx:
        raise ValueError("response column cannot also be a covariate")
    return cov_idx, resp_idx


def load_csv(manifest: DatasetManifest) -> np.ndarray:
    """Load a delimited numeric file into a (rows, M+1) array, response last.

    Rows with missing, non-numeric or non-finite (nan, inf) cells are
    rejected with the offending line number; no imputation is attempted.
    """
    path = Path(manifest.path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=manifest.delimiter)
        header = None
        first_line = 1
        if manifest.has_header:
            header = [cell.strip() for cell in next(reader)]
            first_line = 2
        cov_idx, resp_idx = _resolve_columns(manifest, header)
        needed = max(max(cov_idx), resp_idx) + 1
        rows = []
        for line_no, row in enumerate(reader, start=first_line):
            if len(row) < needed:
                raise ValueError(
                    f"{manifest.name}: line {line_no}: expected at least "
                    f"{needed} columns, got {len(row)}"
                )
            try:
                values = [float(row[i]) for i in cov_idx] + [float(row[resp_idx])]
            except ValueError:
                raise ValueError(
                    f"{manifest.name}: line {line_no}: non-numeric cell"
                ) from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{manifest.name}: line {line_no}: non-finite cell")
            rows.append(values)
    if not rows:
        raise ValueError(f"{manifest.name}: no data rows")
    return np.asarray(rows, dtype=float)


def split(
    table: np.ndarray, spec: SplitSpec
) -> tuple[LabeledSet, UnlabeledSet, LabeledSet]:
    """Randomly split a loaded table into train, unlabeled and test parts.

    A seeded uniform permutation assigns the first n rows to training, the
    next n_prime rows (responses dropped) to the unlabeled pool and the
    remainder to testing. With standardize on, covariates of all three parts
    are affinely rescaled to zero mean and unit variance using statistics of
    the train and unlabeled covariates only, so no test information leaks in.
    """
    table = np.asarray(table, dtype=float)
    total = table.shape[0]
    if spec.n < 1 or spec.n_prime < 0:
        raise ValueError("infeasible counts: need n >= 1 and n_prime >= 0")
    if spec.n + spec.n_prime >= total:
        raise ValueError(
            f"infeasible counts: n + n_prime = {spec.n + spec.n_prime} leaves no "
            f"test rows out of {total}"
        )
    perm = np.random.default_rng(spec.seed).permutation(total)
    shuffled = table[perm]
    train_rows = shuffled[: spec.n]
    pool_rows = shuffled[spec.n : spec.n + spec.n_prime]
    test_rows = shuffled[spec.n + spec.n_prime :]

    train_X, pool_X, test_X = train_rows[:, :-1], pool_rows[:, :-1], test_rows[:, :-1]
    if spec.standardize:
        reference = np.vstack([train_X, pool_X])
        mean = reference.mean(axis=0)
        std = reference.std(axis=0)
        scale = np.where(std > STD_FLOOR, std, 1.0)
        train_X = (train_X - mean) / scale
        pool_X = (pool_X - mean) / scale
        test_X = (test_X - mean) / scale
    train = LabeledSet(X=train_X, y=train_rows[:, -1])
    unlabeled = UnlabeledSet(X=pool_X)
    test = LabeledSet(X=test_X, y=test_rows[:, -1])
    return train, unlabeled, test


def dbar_for(n: int, m: int) -> int:
    """Largest candidate model size for n training rows and M covariates."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and M >= 1")
    return -(-(n - 1) // m)
