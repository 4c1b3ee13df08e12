"""Real-world dataset loading and the train/unlabeled/test split protocol.

The loader reads where a table lives and which columns to use off a
`harness.RealScenario`: its `name`, `path`, `response_column`,
`covariate_columns`, `delimiter` and `has_header`. Columns may be named
(requires a header) or zero-based integer indices. A table is read row by
row with csv and float().
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from .core import LabeledSet, UnlabeledSet

STD_FLOOR = 1e-12


def _resolve_columns(scenario, header: list[str] | None) -> tuple[list[int], int]:
    def resolve(col):
        # a bool is an int to isinstance, and a negative index would count from the row's end
        if isinstance(col, bool) or isinstance(col, int) and col < 0:
            raise ValueError(f"{scenario.name}: column {col!r} is not a zero-based column index")
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

    cov_idx = [resolve(c) for c in scenario.covariate_columns]
    resp_idx = resolve(scenario.response_column)
    if len(set(cov_idx)) < len(cov_idx):
        raise ValueError(f"{scenario.name}: covariate_columns {scenario.covariate_columns} name a column twice")
    if resp_idx in cov_idx:
        raise ValueError("response column cannot also be a covariate")
    return cov_idx, resp_idx


def load_csv(scenario) -> np.ndarray:
    """Load a delimited numeric file into a (rows, M+1) array, response last.

    The file is read with `read_utf8`, its header (where `has_header`) with
    csv, and its rows with `_scan`. Rows with missing, non-numeric or
    non-finite (nan, inf) cells, and blank lines, are rejected with the
    offending line number; no imputation is attempted.
    """
    path = Path(scenario.path)
    rows = csv.reader(io.StringIO(read_utf8(path), newline=""), delimiter=scenario.delimiter)
    header = None
    if scenario.has_header:
        try:
            header = [cell.strip() for cell in next(rows)]
        except StopIteration:
            raise ValueError(f"{scenario.name}: {str(path)!r} is empty, with no header row") from None
    cov_idx, resp_idx = _resolve_columns(scenario, header)
    return _scan(scenario, rows, cov_idx + [resp_idx], first_line=1 if header is None else 2)


def read_utf8(path) -> str:
    """The text of the file at `path`, decoded from UTF-8 in one pass, a byte-order mark before the first line dropped.

    A file that is not UTF-8 text raises ValueError naming the file and the
    line of its first bad byte, as csv numbers lines.
    """
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode, and exc.object starts after the byte-order mark;
        # csv ends a line at CR LF, CR or LF
        text = exc.object[: exc.start].decode()
        line = text.count("\n") + text.count("\r") - text.count("\r\n") + 1
        raise ValueError(f"{path}, line {line}: not UTF-8 text: {exc.reason}") from None


def _scan(scenario, rows, columns: list[int], first_line: int) -> np.ndarray:
    """Read the `columns` of csv records `rows` with float(), row by row: the first faulty line raises, naming its number.

    This is what a table reads as. `np.fromiter` collects the cells into one
    flat float buffer, which the returned (rows, len(columns)) array is.
    """
    needed = max(columns) + 1

    def cells():
        for line_no, row in enumerate(rows, start=first_line):
            if len(row) < needed:
                raise ValueError(f"{scenario.name}: line {line_no}: expected at least {needed} columns, got {len(row)}")
            try:
                values = [float(row[i]) for i in columns]
            except ValueError:
                raise ValueError(f"{scenario.name}: line {line_no}: non-numeric cell") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{scenario.name}: line {line_no}: non-finite cell")
            yield from values

    table = np.fromiter(cells(), dtype=float)
    if not table.size:
        raise ValueError(f"{scenario.name}: no data rows")
    return table.reshape(-1, len(columns))


def split(
    table: np.ndarray, n: int, n_prime: int, seed: int = 0, standardize: bool = True
) -> tuple[LabeledSet, UnlabeledSet, LabeledSet]:
    """Randomly split a loaded table into train, unlabeled and test parts.

    A seeded uniform permutation assigns the first n rows to training, the
    next n_prime rows (responses dropped) to the unlabeled pool and the
    remainder to testing. With standardize on, covariates of all three parts
    are affinely rescaled to zero mean and unit variance using statistics of
    the train and unlabeled covariates only, so no test information leaks in.
    The statistics are read from the leading n + n_prime shuffled rows in
    place and all rows are rescaled in one pass; the three parts are slices.
    """
    table = np.asarray(table, dtype=float)
    total = table.shape[0]
    if n < 1 or n_prime < 0:
        raise ValueError("infeasible counts: need n >= 1 and n_prime >= 0")
    labeled_rows = n + n_prime
    if labeled_rows >= total:
        raise ValueError(
            f"infeasible counts: n + n_prime = {labeled_rows} leaves no "
            f"test rows out of {total}"
        )
    shuffled = table[np.random.default_rng(seed).permutation(total)]
    X, y = shuffled[:, :-1], shuffled[:, -1]
    if standardize:
        reference = X[:labeled_rows]
        std = reference.std(axis=0)
        X = X - reference.mean(axis=0)
        X /= np.where(std > STD_FLOOR, std, 1.0)
    train = LabeledSet(X=X[:n], y=y[:n])
    unlabeled = UnlabeledSet(X=X[n:labeled_rows])
    test = LabeledSet(X=X[labeled_rows:], y=y[labeled_rows:])
    return train, unlabeled, test


def dbar_for(n: int, m: int) -> int:
    """Largest candidate model size for n training rows and M covariates."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 and M >= 1")
    return -(-(n - 1) // m)
