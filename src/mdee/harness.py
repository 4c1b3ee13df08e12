"""Config-driven experiment runner: trials, regrets, aggregation, CSV output.

One trial fixes a data split, fits a single model path, evaluates every
requested criterion on that shared path, selects a model size per criterion
and scores it by regret against the shared per-size test errors. Trials are
reproducible from (master_seed, cell index, trial index) alone, so two runs
of the same config produce byte-identical output files.
"""

from __future__ import annotations

import csv
import io
import json
import math
import platform
import re
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import __version__, baselines, datagen, estimators, ingest, parallel
from .core import (
    DEFAULT_RIDGE,
    BasisSpec,
    LabeledSet,
    ModelPath,
    SingularDesignError,
    UnlabeledSet,
    build_design,
    check_cells,
    correlation_matrix,
    fit_design_path,
    interlacing_gate,
    is_real,
    is_whole,
)
from .estimators import CriterionKind

BLOCK_CRITERIA = {"mDEE1", "mDEE2", "mDEE3", "rmDEE"}
SPLIT_CRITERIA = {"mDEE1", "mDEE2"}  # block criteria that need the mDEE1 split b1

# Candidate-count rule for the synthetic protocol; other n need an explicit
# d_max in the config.
SYNTHETIC_DBAR = {10: 8, 20: 15, 50: 23}

# Columns after the cell keys in summary.csv and trials.csv.
SUMMARY_FIELDS = ["criterion", "median", "iqr", "n_trials"]
TRIAL_FIELDS = ["trial", "criterion", "d_hat", "regret", "flags"]

SYNTHETIC_CAVEAT = (
    "synthetic covariate_var is a free choice of this harness; regret "
    "medians depend on it, so only orderings between criteria are comparable "
    "across implementations"
)


@dataclass
class SyntheticScenario:
    SECTION = "synthetic"  # its section of a config file; not a field
    target: str
    n_values: list[int]
    noise_vars: list[float]
    covariate_var: float = 1.0
    n_unlabeled: int = 1500
    n_test: int = 1000

    def cells(self) -> list[dict]:
        return [
            {"target": self.target, "n": n, "noise_var": nv}
            for n in self.n_values
            for nv in self.noise_vars
        ]


@dataclass
class RealScenario:
    SECTION = "real"
    manifest: ingest.DatasetManifest
    n_values: list[int]
    n_unlabeled: int
    standardize: bool = True

    def cells(self) -> list[dict]:
        return [{"dataset": self.manifest.name, "n": n} for n in self.n_values]

    def check_rows(self, rows: int) -> None:
        """Raise ValueError unless every n plus n_unlabeled leaves a test row of a table of `rows` rows."""
        for n in self.n_values:
            if n + self.n_unlabeled >= rows:
                raise ValueError(
                    f"n={n} plus n_unlabeled={self.n_unlabeled} leaves no test row of the {rows} rows in "
                    f"{self.manifest.path}"
                )


@dataclass
class ExperimentConfig:
    scenario: SyntheticScenario | RealScenario
    criteria: list[str]
    repetitions: int
    d_max: int | None = None
    ridge: float = DEFAULT_RIDGE
    master_seed: int = 0
    output_dir: str = "results"

    def __post_init__(self):
        """Check each field by its SCHEMA kind and make it that kind's type, then reject settings no run can use.

        A field is named as a config file names it, so a file and a code-built config fail with the same messages.
        """
        for section, key, owner, attr, kind, many in _keys(self):
            where = f"{section}.{key}" if section else key
            must_be, test, convert = KINDS[kind]
            value = getattr(owner, attr)
            # a file's lists are lists by now, a code-built one may not be
            if many and not isinstance(value, (list, tuple)):
                raise ValueError(f"{where} must be a list, got {value!r}")
            for item in value if many else [value]:
                if not test(item):
                    raise ValueError(f"{where} must be {must_be}, got {item!r}")
            setattr(owner, attr, [convert(v) for v in value] if many else convert(value))
        scen = self.scenario
        synthetic = isinstance(scen, SyntheticScenario)
        grids = {"criteria": self.criteria, "n": scen.n_values}
        if synthetic:
            grids["noise_var"] = scen.noise_vars
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        unknown = [c for c in self.criteria if c not in CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria {unknown}; valid: {sorted(CRITERIA)}")
        # a repeated criterion or grid value would be counted twice, and an empty list would leave no row to write
        for name, values in grids.items():
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.d_max is not None and self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")
        if not 0 <= self.ridge < math.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")
        if any(n < 1 for n in scen.n_values):
            raise ValueError(f"every n must be >= 1, got {scen.n_values}")
        if synthetic:
            if scen.n_test < 1:
                raise ValueError(f"n_test must be >= 1, got {scen.n_test}")
            if scen.target not in datagen.TARGETS:
                raise ValueError(f"unknown target {scen.target!r}; expected one of {datagen.TARGETS}")
            if scen.n_unlabeled < 0:
                raise ValueError("sample counts must be nonnegative")
            for noise_var in scen.noise_vars:
                if not 0 <= noise_var < math.inf:
                    raise ValueError(f"noise_var must be finite and nonnegative, got {noise_var}")
            if not 0 < scen.covariate_var < math.inf:
                raise ValueError(f"covariate_var must be finite and positive, got {scen.covariate_var}")
        elif scen.n_unlabeled < 0:
            raise ValueError(f"real n_unlabeled must be >= 0, got {scen.n_unlabeled}")
        elif self.d_max is None and min(scen.n_values) < 2:
            # the automatic d_max, ingest.dbar_for, needs two training rows
            raise ValueError(f"real.n must be >= 2 with an automatic d_max, got {scen.n_values}")
        for n in scen.n_values:
            _check_cells(self, n)
        # the path fit adds n * ridge to the normal matrix's diagonal
        if not math.isfinite(max(scen.n_values) * self.ridge):
            raise ValueError(f"ridge {self.ridge} times n={max(scen.n_values)} is not finite")


@dataclass
class TrialResult:
    trial: int
    cell: dict
    d_hat: dict[str, int]
    regret: dict[str, float]
    test_errors: list[float]
    flags: dict[str, str] = field(default_factory=dict)


@dataclass
class CriterionSummary:
    cell: dict
    criterion: str
    median: float
    iqr: float
    n_trials: int


def aggregate(regrets):
    """Median and interquartile range (linear-interpolation quantiles) along the last axis.

    A list of regrets gives two floats; a (..., reps) stack gives two arrays
    of its leading shape, each entry with the bits of a call on its row.
    """
    values = np.asarray(regrets, dtype=float)
    if values.size == 0:
        raise ValueError("aggregate needs at least one value")
    q1, q3 = np.quantile(values, [0.25, 0.75], axis=-1)
    return np.median(values, axis=-1), q3 - q1


def _summarize(cell: dict, criterion: str, regrets: list[float]) -> CriterionSummary:
    median, iqr = aggregate(regrets)
    return CriterionSummary(cell, criterion, float(median), float(iqr), len(regrets))


def _seed_int(*keys: int) -> int:
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


def _check_cells(cfg: ExperimentConfig, n: int) -> None:
    """Raise ValueError naming the key of the first array of a trial at training size n that passes MAX_CELLS.

    The arrays are the train, pool and test designs (rows x d_max), the
    normal matrix (d_max x d_max) and the pool's block correlation stack
    (blocks x d_max x d_max), so a config past the cap is turned away before
    any output exists. The shipped configs reach 1500 x 23 cells. A real
    table's test design is left out: its rows are what the table leaves,
    which no config key sets.
    """
    scen = cfg.scenario
    synthetic = isinstance(scen, SyntheticScenario)
    d = _auto_d_max(cfg, n, 1 if synthetic else len(scen.manifest.covariate_columns))
    # rows of d_max cells: the normal matrix, the train design, the pool design or, where larger, its stack of
    # d_max x d_max block correlation matrices, and the test design
    rows = {"d_max": d, "n": n, "n_unlabeled": max(scen.n_unlabeled, scen.n_unlabeled // n * d)}
    if synthetic:
        rows["n_test"] = scen.n_test
    for key, count in rows.items():
        check_cells(key, count * d)


def _auto_d_max(cfg: ExperimentConfig, n: int, m: int) -> int:
    if cfg.d_max is not None:
        return cfg.d_max
    if isinstance(cfg.scenario, RealScenario):
        return ingest.dbar_for(n, m)
    if n in SYNTHETIC_DBAR:
        return SYNTHETIC_DBAR[n]
    raise ValueError(
        f"no automatic candidate-count rule for synthetic n={n}; set d_max explicitly"
    )


@dataclass
class TrialState:
    """What the criteria of one trial read, each part built once and sliced.

    The models are nested: a size-d design is the first d columns of the d_max
    one, and a size-d correlation matrix the leading d x d corner of the largest
    one. Each design is built once at d_max, the largest size the path fitted;
    `evaluate_trial` hands over the labeled design the path was fitted on, and
    `block_corrs` reads the blocks' rows of the pool design. DEE and the block
    criteria read every size up to `top` from inverse Cholesky factors at
    `top`. The labeled one (`labeled_factor`) is the path fit's, rescaled, and
    reaches `top`. It is not checked again: the jittered labeled correlation
    matrix is the fit's normal matrix over n, and condition numbers do not
    change with scale (up to the rounding of two SVDs, about 1e-4 relative
    near COND_LIMIT). Each block factor (`block_factors`) comes with the size
    at which it stops. `interlacing_gate` reads them to say which blocks need
    a condition check at each size; only those are checked, on their own size-d
    matrices, and `block_checks` holds the results at every size. `b1`, the
    mDEE1 split, reads the block factors' inverses W^T W. Each part is built
    the first time a criterion reads it, so a trial builds only what its
    criteria need.
    """

    train: LabeledSet
    unlabeled: UnlabeledSet
    path: ModelPath
    ridge: float
    cv_seed: int

    @cached_property
    def train_design(self) -> np.ndarray:
        return build_design(self.path.basis, self.train.X, self.path.d_max)

    @cached_property
    def pool_design(self) -> np.ndarray:
        return build_design(self.path.basis, self.unlabeled.X, self.path.d_max)

    @property
    def top(self) -> int:
        """The largest size at which a DEE-family risk is defined: d_max, or n - 1 when smaller."""
        return min(self.path.d_max, self.train.n - 1)

    @cached_property
    def labeled_factor(self) -> np.ndarray:
        """The inverse Cholesky factor of the jittered labeled correlation matrix at `top`, from the path fit's.

        That matrix is the path's normal matrix over n, so its factor is
        sqrt(n) times the leading `top` x `top` block of `path.factor`.
        """
        return math.sqrt(self.train.n) * self.path.factor[: self.top, : self.top]

    @property
    def n_blocks(self) -> int:
        """How many blocks of the training size the pool holds, as `core.block_partition` cuts it; 0 below n rows."""
        return self.unlabeled.n // self.train.n

    @cached_property
    def block_corrs(self) -> np.ndarray:
        """`estimators.block_corr_stack` of the pool's blocks at d_max, read from their rows of the pool design."""
        B, n = self.n_blocks, self.train.n
        return estimators.design_corrs(self.pool_design[: B * n].reshape(B, n, -1))

    @cached_property
    def block_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The `estimators.inverse_factors` of the jittered blocks' leading `top` x `top` corners."""
        top = self.top
        return estimators.inverse_factors(estimators._jittered(self.block_corrs[:, :top, :top], self.ridge))

    @cached_property
    def block_checks(self) -> tuple[np.ndarray, np.ndarray]:
        """The condition checks of the blocks' leading corners.

        At each size d = 1..`top`, `estimators.flagged_blocks` checks the blocks
        that `interlacing_gate` names from `block_factors`. Returns a (d_max, B)
        mask of those above COND_LIMIT and a (d_max,) mask of the sizes whose
        check's SVD failed, both False above `top`.
        """
        top = self.top
        jittered = estimators._jittered(self.block_corrs[:, :top, :top], self.ridge)
        gate = np.flatnonzero(interlacing_gate(jittered, *self.block_factors))
        flagged = np.zeros((self.path.d_max, self.n_blocks), dtype=bool)
        failed = np.zeros(self.path.d_max, dtype=bool)
        for d in range(1, top + 1) if gate.size else ():
            try:
                flagged[d - 1, list(estimators.flagged_blocks(self.block_corrs[:, :d, :d], self.ridge, gate))] = True
            except SingularDesignError:
                failed[d - 1] = True
        return flagged, failed

    @cached_property
    def b1(self) -> int | None:
        """The mDEE1 split at d_max from the block factors.

        With W = L^{-1} a block's jittered inverse (L L^T)^{-1} is W^T W. None
        with fewer than two blocks, or where the factors do not reach d_max:
        `top` is below it or a block's factorization stops. A flagged block is
        kept, as the mean criteria keep it.
        """
        if self.n_blocks < 2 or self.top < self.path.d_max:
            return None
        factors, sizes = self.block_factors
        if (sizes < self.top).any():
            return None
        return estimators.moment_split(self.block_corrs, np.swapaxes(factors, 1, 2) @ factors)[0]


# A criterion maps the state to its risk path over the path's sizes d = 1..d_max as
# (risk, flagged): a float array whose NaN marks a size where the risk is undefined,
# and an int array of the number of flagged blocks at each size, or 0. evaluate_trial
# records NaN as the inf@d sentinel; an infinite risk carries no sentinel.


def _trace_risks(state: TrialState, traces: np.ndarray) -> np.ndarray:
    """The training loss times `estimators.correction_factor` for the traces at sizes 1..`state.top`.

    A size is NaN where its trace is infinite, and above `top`.
    """
    top = state.top
    traces = np.where(np.isinf(traces), np.nan, traces)
    risks = np.full(state.path.d_max, np.nan)
    risks[:top] = estimators.correction_factor(traces, state.train.n, np.arange(1, top + 1)) * state.path.losses[:top]
    return risks


def _dee_path(state: TrialState) -> tuple:
    """DEE at every size from the labeled inverse factor at `state.top`."""
    if state.unlabeled.n < 1 or state.top < 1:
        return np.full(state.path.d_max, np.nan), 0
    c_tilde = correlation_matrix(state.pool_design[:, : state.top])
    return _trace_risks(state, estimators.dee_trace_path(state.labeled_factor, c_tilde)), 0


def _block_path(variant: CriterionKind, state: TrialState) -> tuple:
    """A block criterion at every size from the inverse factors at `state.top`.

    A size is NaN where the trace is +inf, from the first size at which a
    block factor it reads stops, or where a condition check's SVD fails. A flagged
    size keeps its prefix value and counts its flagged blocks.
    """
    split = variant.value in SPLIT_CRITERIA
    if state.n_blocks == 0 or (split and state.b1 is None):
        return np.full(state.path.d_max, np.inf), 0
    corrs = state.block_corrs[:, : state.top, : state.top]
    if variant is CriterionKind.RMDEE:
        traces, v_start = estimators.rmdee_trace_path(corrs, state.block_factors, state.labeled_factor), 0
    else:
        b1 = state.b1 if split else None
        traces = estimators.mdee_trace_path(corrs, state.block_factors, variant, b1)
        v_start = estimators.block_sides(variant, b1, len(corrs))[1]
    flagged, failed = state.block_checks
    traces[failed[: state.top]] = np.inf
    return _trace_risks(state, traces), flagged[:, v_start:].sum(axis=1)


def _closed_form_path(score, state: TrialState) -> tuple:
    """A closed-form criterion `score(train_loss, n, d)` at every size."""
    return np.array([score(loss, state.train.n, d) for d, loss in enumerate(state.path.losses.tolist(), 1)]), 0


def _cv5_path(state: TrialState) -> tuple:
    if state.train.n < baselines.CV_FOLDS:
        return np.full(state.path.d_max, np.nan), 0
    return baselines.kfold_cv_path(state.train_design, state.train.y, state.ridge, state.cv_seed), 0


def _adj_path(state: TrialState) -> tuple:
    if state.unlabeled.n < 1:  # only d = 1, which has no smaller model to compare with, is defined
        return np.r_[state.path.train_loss(1), np.full(state.path.d_max - 1, np.nan)], 0
    pool_factor = np.linalg.qr(state.pool_design, mode="r") / math.sqrt(state.unlabeled.n)
    return baselines.adj_path(state.path, state.train_design, pool_factor), 0


CRITERIA = {
    "DEE": _dee_path,
    "mDEE1": partial(_block_path, CriterionKind.MDEE1),
    "mDEE2": partial(_block_path, CriterionKind.MDEE2),
    "mDEE3": partial(_block_path, CriterionKind.MDEE3),
    "rmDEE": partial(_block_path, CriterionKind.RMDEE),
    "FPE": partial(_closed_form_path, baselines.fpe),
    "cAIC": partial(_closed_form_path, baselines.caic),
    "CV5": _cv5_path,
    "ADJ": _adj_path,
}


def path_test_errors(path: ModelPath, test: LabeledSet) -> list[float]:
    """Mean squared prediction error on the test set of every model on the path, from one d_max test design."""
    design = build_design(path.basis, test.X, path.d_max)
    resids = [test.y - design[:, :d] @ path.alpha(d) for d in range(1, path.d_max + 1)]
    return [float(resid @ resid / test.n) for resid in resids]


def evaluate_trial(
    trial: int,
    cell: dict,
    train: LabeledSet,
    unlabeled: UnlabeledSet,
    test: LabeledSet,
    d_max: int,
    cfg: ExperimentConfig,
    cv_seed: int,
) -> TrialResult:
    """Score every requested criterion on one shared data split.

    Sizes from the first whose fit fails (`fit_design_path`) are inf@d for every
    criterion, and regrets are taken over the sizes fitted.
    """
    basis = BasisSpec("fourier", train.X.shape[1])
    design = build_design(basis, train.X, d_max)
    path = fit_design_path(design, train.y, basis, cfg.ridge)
    errors = path_test_errors(path, test)
    state = TrialState(train, unlabeled, path, cfg.ridge, cv_seed)
    state.train_design = design[:, : path.d_max]  # the cached part: built once for the fit and the criteria

    error_array = np.asarray(errors, dtype=float)
    best = None if (error_array <= 0).any() else error_array.min()  # `<= 0`, unlike `> 0`, lets a NaN error through
    d_hat: dict[str, int] = {}
    regrets: dict[str, float] = {}
    flags: dict[str, str] = {}
    for name in cfg.criteria:
        tokens = []
        if name in BLOCK_CRITERIA and state.n_blocks == 0:
            tokens.append("no_blocks")
        elif name in SPLIT_CRITERIA and state.b1 is None:
            tokens.append("b1_unavailable")
        risks, counts = CRITERIA[name](state)
        undefined = np.isnan(risks)
        for i in (undefined | (counts != 0)).nonzero()[0].tolist():
            tokens.append(f"inf@d{i + 1}" if undefined[i] else f"cond@d{i + 1}={counts[i]}")
        tokens += [f"inf@d{d}" for d in range(path.d_max + 1, d_max + 1)]  # the sizes the fit lost
        all_infinite = not np.isfinite(risks).any()
        if all_infinite:
            tokens.append("all_infinite")
        if name in SPLIT_CRITERIA and state.b1 is not None:
            tokens.append(f"b1={state.b1}")
        # d = 1 is also what select_model falls back to, with a warning, when every risk is infinite
        d_hat[name] = chosen = 1 if all_infinite else estimators.select_model(risks)
        if best is None:
            regrets[name] = math.nan
            tokens.append("degenerate_regret")
        else:
            regrets[name] = float(np.log(error_array[chosen - 1] / best))
        flags[name] = ";".join(tokens)
    return TrialResult(
        trial=trial,
        cell=cell,
        d_hat=d_hat,
        regret=regrets,
        test_errors=errors,
        flags=flags,
    )


def _trial(cfg, table, cell, cell_idx, trial) -> TrialResult:
    """One trial of a grid cell: synthetic data when table is None, else a split of it."""
    data_seed = _seed_int(cfg.master_seed, cell_idx, trial, 0)
    scen = cfg.scenario
    if table is None:
        train, unlabeled, test = datagen.generate(
            scen.target, cell["n"], scen.n_unlabeled, scen.n_test, cell["noise_var"], scen.covariate_var, data_seed
        )
    else:
        train, unlabeled, test = ingest.split(table, cell["n"], scen.n_unlabeled, data_seed, scen.standardize)
    d_max = _auto_d_max(cfg, cell["n"], train.X.shape[1])
    cv_seed = _seed_int(cfg.master_seed, cell_idx, trial, 1)
    return evaluate_trial(trial, cell, train, unlabeled, test, d_max, cfg, cv_seed)


def run_experiment(
    cfg: ExperimentConfig, table: np.ndarray | None = None
) -> tuple[list[TrialResult], list[CriterionSummary]]:
    """Run every (grid cell, repetition) pair and aggregate per criterion.

    Each trial draws from its own seed streams, so its result does not depend
    on the trials run before it, nor on the process it runs in: the trials are
    spread over the usable CPUs (`parallel.process_count`, `parallel.fork_map`) and put back
    in order, and aggregation folds over trial index. A real scenario's table
    is loaded here unless the caller passes it already loaded.
    """
    trials, summaries, _ = _run(cfg, table)
    return trials, summaries


def _run(cfg: ExperimentConfig, table) -> tuple[list[TrialResult], list[CriterionSummary], int]:
    """run_experiment's trials and summaries, and the number of processes the trials ran in (`parallel.process_count`)."""
    if table is None and isinstance(cfg.scenario, RealScenario):
        table = ingest.load_csv(cfg.scenario.manifest)

    cells = list(cfg.scenario.cells())
    reps = cfg.repetitions
    jobs = [(cell, cell_idx, t) for cell_idx, cell in enumerate(cells) for t in range(reps)]
    processes = parallel.process_count(len(jobs))  # the count fork_map picks, for meta.json
    trials = parallel.fork_map(lambda i: _trial(cfg, table, *jobs[i]), len(jobs))
    # (cells, criteria, reps): one aggregate call summarizes every (cell, criterion)
    regrets = np.array([[t.regret[name] for name in cfg.criteria] for t in trials])
    medians, iqrs = aggregate(regrets.reshape(len(cells), reps, -1).swapaxes(1, 2))
    summaries = [
        CriterionSummary(cell, name, float(medians[c, k]), float(iqrs[c, k]), reps)
        for c, cell in enumerate(cells)
        for k, name in enumerate(cfg.criteria)
    ]
    return trials, summaries, processes


# ---------------------------------------------------------------------------
# Output files


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_summary(handle, summaries: list[CriterionSummary]) -> None:
    """Write summary rows, header first, as CSV to an open text stream."""
    keys = list(summaries[0].cell)
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(keys + SUMMARY_FIELDS)
    for s in summaries:
        row = [_fmt(s.cell[k]) for k in keys]
        writer.writerow(row + [s.criterion, _fmt(s.median), _fmt(s.iqr), str(s.n_trials)])


def write_summary_csv(path, summaries: list[CriterionSummary]) -> None:
    with open(path, "w", newline="") as handle:
        write_summary(handle, summaries)


def write_trials_csv(path, trials: list[TrialResult], criteria: list[str]) -> None:
    keys = list(trials[0].cell)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(keys + TRIAL_FIELDS)
        for t in trials:
            prefix = [_fmt(t.cell[k]) for k in keys]
            for name in criteria:
                row = [str(t.trial), name, str(t.d_hat[name]), _fmt(t.regret[name]), t.flags.get(name, "")]
                writer.writerow(prefix + row)


def run_to_dir(cfg: ExperimentConfig, out_dir=None, table: np.ndarray | None = None) -> Path:
    """Run an experiment and write summary.csv, trials.csv and meta.json; `table` is as for run_experiment."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials, summaries, processes = _run(cfg, table)
    write_summary_csv(out / "summary.csv", summaries)
    write_trials_csv(out / "trials.csv", trials, cfg.criteria)
    meta = {
        "config": _config_dict(cfg),
        "versions": _versions(),
        "flag_counts": flag_counts(trials, cfg.criteria),
        "processes": processes,
    }
    if isinstance(cfg.scenario, SyntheticScenario):
        meta["caveat"] = SYNTHETIC_CAVEAT
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return out


# Flag tokens counted per criterion in meta.json; "inf@d" and "cond@d" count
# one per model size they mark.
COUNTED_FLAGS = ("inf@d", "cond@d", "all_infinite", "degenerate_regret")


def flag_counts(trials: list[TrialResult], criteria: list[str]) -> dict[str, dict[str, int]]:
    """Per criterion, how many of its trial flag tokens start with each COUNTED_FLAGS entry."""
    counts = {name: dict.fromkeys(COUNTED_FLAGS, 0) for name in criteria}
    for t in trials:
        for name in criteria:
            for token in t.flags.get(name, "").split(";"):
                for kind in COUNTED_FLAGS:
                    if token.startswith(kind):
                        counts[name][kind] += 1
    return counts


def _versions() -> dict[str, str]:
    import scipy  # loaded already by the trials' LAPACK (`core.lapack`)

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy < 1.26: show_config has no dict mode
        blas_version = "unknown"
    return {
        "mdee": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# Config files


# PyYAML reads YAML 1.1, where a float needs a decimal point: 1e-9 loads as a string.
_EXPONENT_FORM = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+")

# Each kind of config value: (what the error says a value must be, the test a value must pass, its conversion).
# A number is not a bool, a string or None, and an integer past the float range is not one. A flag takes only
# booleans, so a quoted "false" is not read as true. A column index is below 2**63, the largest the table parse can
# index with.
KINDS = {
    # 2.9 is rejected rather than truncated, and YAML's true is not 1
    "whole": ("a whole number", is_whole, int),
    "whole or auto": ("a whole number or auto", lambda v: v in ("auto", None) or is_whole(v),
                      lambda v: None if v in ("auto", None) else int(v)),
    "real": ("a number", is_real, float),
    "flag": ("true or false", lambda v: type(v) is bool, bool),
    "text": ("a string", lambda v: isinstance(v, str), str),
    "column": ("a column name or a zero-based index below 2**63",
               lambda v: isinstance(v, str) or type(v) is int and 0 <= v < 2**63, lambda v: v),
    "character": ("a one-character string", lambda v: isinstance(v, str) and len(v) == 1, str),
}

# Per section, None being the top level: key -> (the field that holds it, kind, takes a list). A section's fields are
# those of its dataclasses: `ExperimentConfig` at the top level, `SyntheticScenario`, and `RealScenario` with its
# `ingest.DatasetManifest`. A field without a default is a required key, and any other key is rejected, so a
# misspelled one cannot silently fall back to its default. `scenario` and the sections have no kind: `load_config`
# reads them.
SCHEMA = {
    None: {
        "scenario": ("scenario", None, False),
        "criteria": ("criteria", "text", True),
        "repetitions": ("repetitions", "whole", False),  # in the file or from `mdee run --reps`
        "d_max": ("d_max", "whole or auto", False),
        "ridge": ("ridge", "real", False),
        "master_seed": ("master_seed", "whole", False),
        "output_dir": ("output_dir", "text", False),
        "synthetic": ("synthetic", None, False),
        "real": ("real", None, False),
    },
    "synthetic": {
        "target": ("target", "text", False),
        "n": ("n_values", "whole", True),
        "noise_var": ("noise_vars", "real", True),
        "covariate_var": ("covariate_var", "real", False),
        "n_unlabeled": ("n_unlabeled", "whole", False),
        "n_test": ("n_test", "whole", False),
    },
    "real": {
        "name": ("name", "text", False),
        "path": ("path", "text", False),
        "response_column": ("response_column", "column", False),
        "covariate_columns": ("covariate_columns", "column", True),
        "delimiter": ("delimiter", "character", False),
        "has_header": ("has_header", "flag", False),
        "n": ("n_values", "whole", True),
        "n_unlabeled": ("n_unlabeled", "whole", False),
        "standardize": ("standardize", "flag", False),
    },
}


def _keys(cfg: ExperimentConfig):
    """Each key of SCHEMA that `cfg` sets: (section, key, the object holding its field, field, kind, takes a list)."""
    scen = cfg.scenario
    for section, holders in [(None, [cfg]), (scen.SECTION, [scen, getattr(scen, "manifest", None)])]:
        for key, (attr, kind, many) in SCHEMA[section].items():
            for owner in holders:
                if kind and hasattr(owner, attr):
                    yield section, key, owner, attr, kind, many


def _config_dict(cfg: ExperimentConfig) -> dict:
    """`cfg` in a config file's keys, every default filled in and an automatic d_max `auto`; JSON is YAML, so
    `load_config` reads its JSON back to an equal config."""
    config = {"scenario": cfg.scenario.SECTION, cfg.scenario.SECTION: {}}
    for section, key, owner, attr, _, _ in _keys(cfg):
        value = getattr(owner, attr)
        (config[section] if section else config)[key] = "auto" if value is None else value
    return config


def _read(section, name: str | None, *holders) -> dict:
    """The fields config section `name` (None for the top level) of dataclasses `holders` sets, by SCHEMA, `_unspelled`.

    A missing section and an unknown or missing key raise ValueError naming it. A key that takes a list takes a single
    value too. `ExperimentConfig` checks the values' kinds.
    """
    if not isinstance(section, dict):
        raise ValueError(f"scenario {name!r} needs a {name!r} section" if name else "config must be a mapping")
    schema, where = SCHEMA[name], name or "top level"
    unknown = sorted(str(k) for k in section if k not in schema)
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} in {where}; valid: {sorted(schema)}")
    required = {f.name for cls in holders for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    missing = [k for k, (attr, _, _) in schema.items() if attr in required and k not in section]
    if missing:
        raise ValueError(f"missing required config key(s) {missing} in {where}")
    values = {}
    for key, given in section.items():
        attr, kind, many = schema[key]
        items = [_unspelled(kind, v) for v in (given if many and isinstance(given, list) else [given])]
        values[attr] = items if many else items[0]
    return values


def _unspelled(kind: str | None, value):
    """A YAML value as its field holds it: YAML 1.1 reads 1e-9 as a string, and PyYAML reads JSON's escape of a
    character past U+FFFF as its two surrogates, which are joined."""
    if not isinstance(value, str):
        return value
    if kind == "real" and _EXPONENT_FORM.fullmatch(value):
        return float(value)
    return value.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def load_config(path, master_seed: int | None = None, repetitions: int | None = None) -> ExperimentConfig:
    """Parse a YAML experiment config; SCHEMA holds its keys, and the repository README tabulates them.

    `master_seed` and `repetitions`, where not None, replace the file's values as if the file set them.
    """
    import yaml  # here only: the oracles and `mdee report` read no config

    with open(path) as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from exc
    if isinstance(raw, dict):
        raw.update({k: v for k, v in [("master_seed", master_seed), ("repetitions", repetitions)] if v is not None})
    top = _read(raw, None, ExperimentConfig)
    kind = top.pop("scenario")
    if kind not in ("synthetic", "real"):
        raise ValueError("config needs scenario: synthetic or real")
    if kind == "synthetic":
        scenario = SyntheticScenario(**_read(top.get(kind), kind, SyntheticScenario))
    else:
        s = _read(top.get(kind), kind, RealScenario, ingest.DatasetManifest)
        names = {f.name for f in fields(ingest.DatasetManifest)}
        scenario = RealScenario(ingest.DatasetManifest(**{key: s.pop(key) for key in names & s.keys()}), **s)
    return ExperimentConfig(scenario, **{key: value for key, value in top.items() if key not in ("synthetic", "real")})


def reaggregate_trials(path) -> list[CriterionSummary]:
    """Rebuild per-cell summaries from a trials.csv file.

    A regret is a number, or nan where a trial flags `degenerate_regret`. A
    file that is not UTF-8 text, a header that names a column twice and an
    infinite regret are turned away, naming the file and the line.
    """
    reader = csv.reader(io.StringIO(ingest.read_utf8(path), newline=""))
    try:
        fields = next(reader, [])
        if fields[-len(TRIAL_FIELDS) :] != TRIAL_FIELDS:
            missing = [f for f in TRIAL_FIELDS if f not in fields]
            raise ValueError(f"{path}: the last columns of a trials.csv are {TRIAL_FIELDS}; missing {missing}")
        twice = sorted({f for f in fields if fields.count(f) > 1})
        if twice:
            raise ValueError(f"{path}, line {reader.line_num}: the header names {twice} more than once")
        keys = fields[: -len(TRIAL_FIELDS)]
        groups: dict[tuple, list[float]] = {}
        for cells in filter(None, reader):  # blank lines hold no row
            line = f"{path}, line {reader.line_num}"
            if len(cells) != len(fields):
                raise ValueError(f"{line}: {len(cells)} cells, the header has {len(fields)}")
            row = dict(zip(fields, cells))
            try:
                value = float(row["regret"])
            except ValueError:
                raise ValueError(f"{line}: regret {row['regret']!r} is not a number") from None
            if math.isinf(value):
                raise ValueError(f"{line}: regret {row['regret']!r} is infinite")
            groups.setdefault(tuple(row[k] for k in keys) + (row["criterion"],), []).append(value)
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if not groups:
        raise ValueError(f"{path}: no trial rows")
    return [_summarize(dict(zip(keys, g[:-1])), g[-1], values) for g, values in groups.items()]
