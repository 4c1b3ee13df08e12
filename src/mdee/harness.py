"""Config-driven experiment runner: trials, regrets, aggregation, CSV output.

One trial fixes a data split, fits a single model path, evaluates every
requested criterion on that shared path, selects a model size per criterion
and scores it by regret against the shared per-size test errors. Trials are
reproducible from (master_seed, cell index, trial index) alone, so two runs
of the same config produce byte-identical output files.
"""

from __future__ import annotations

import csv
import json
import math
import platform
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__, baselines, datagen, estimators, ingest
from .core import (
    DEFAULT_RIDGE,
    BasisSpec,
    FittedModel,
    LabeledSet,
    ModelPath,
    SingularDesignError,
    UnlabeledSet,
    block_partition,
    build_design,
    correlation_matrix,
    fit_design_path,
    interlacing_gate,
    predict,
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

    def data_config(self, cell: dict, seed: int = 0) -> datagen.SyntheticConfig:
        """The `datagen.SyntheticConfig` of one cell's trial; raises ValueError on values it cannot draw from."""
        return datagen.SyntheticConfig(
            target=self.target,
            n=cell["n"],
            n_prime=self.n_unlabeled,
            n_test=self.n_test,
            noise_var=cell["noise_var"],
            covariate_var=self.covariate_var,
            seed=seed,
        )


@dataclass
class RealScenario:
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
        self.validate()

    def validate(self) -> None:
        """Reject settings no run can use; call again after changing fields."""
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.criteria:
            raise ValueError("criteria must be nonempty")
        unknown = [c for c in self.criteria if c not in CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria {unknown}; valid: {sorted(CRITERIA)}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.d_max is not None and self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")
        if not self.ridge >= 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")
        if any(n < 1 for n in self.scenario.n_values):
            raise ValueError(f"every n must be >= 1, got {self.scenario.n_values}")
        if isinstance(self.scenario, SyntheticScenario):
            if self.scenario.n_test < 1:
                raise ValueError(f"n_test must be >= 1, got {self.scenario.n_test}")
            for cell in self.scenario.cells():
                self.scenario.data_config(cell)
        elif self.scenario.n_unlabeled < 0:
            raise ValueError(f"real n_unlabeled must be >= 0, got {self.scenario.n_unlabeled}")


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


def test_error(model: FittedModel, test: LabeledSet, basis: BasisSpec) -> float:
    """Mean squared prediction error on the test set."""
    resid = test.y - predict(basis, test.X, model.alpha)
    return float(resid @ resid / test.n)


def regret(test_errors, chosen: int) -> float:
    """Log ratio of the chosen model's test error to the best one."""
    errors = np.asarray(test_errors, dtype=float)
    if np.any(errors <= 0):
        raise ValueError("regret undefined: nonpositive test error (degenerate case)")
    return float(np.log(errors[chosen - 1] / errors.min()))


def aggregate(regrets) -> tuple[float, float]:
    """Median and interquartile range (linear-interpolation quantiles)."""
    values = np.asarray(regrets, dtype=float)
    if values.size == 0:
        raise ValueError("aggregate needs at least one value")
    q1, q3 = np.quantile(values, [0.25, 0.75])
    return float(np.median(values)), float(q3 - q1)


def _summarize(cell: dict, criterion: str, regrets: list[float]) -> CriterionSummary:
    median, iqr = aggregate(regrets)
    return CriterionSummary(cell, criterion, median, iqr, len(regrets))


def _seed_int(*keys: int) -> int:
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


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
    criteria read every size up to `top` from one set of inverse Cholesky
    factors of the jittered matrices at `top` (`labeled_factor`,
    `block_factors`), each with the size at which its factorization stops.
    `interlacing_gate` reads the same factors to say which members need a
    condition check at each size; only those are checked, on their own size-d
    matrices, and `labeled_checks` and `block_checks` hold the results at every
    size. `b1` inverts the d_max blocks for the mDEE1 split. Each part is built the first time a criterion
    reads it, so a trial builds only what its criteria need.
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

    def jittered(self, mats: np.ndarray) -> np.ndarray:
        """A matrix or a stack of them plus ridge * I."""
        return mats + self.ridge * np.eye(mats.shape[-1])

    @cached_property
    def labeled_corr(self):
        """Function of d giving the correlation matrix of the first d labeled design columns, built once per d."""
        design = self.train_design  # not self: a cycle would keep each trial's state alive until a full collection
        return cache(lambda d: correlation_matrix(design[:, :d]))

    @cached_property
    def labeled_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """The `estimators.inverse_factors` of the jittered labeled correlation matrix at `top`, as a stack of one."""
        return estimators.inverse_factors(self.jittered(self.labeled_corr(self.top)[None]))

    @cached_property
    def labeled_checks(self) -> tuple[np.ndarray, np.ndarray]:
        """`checks` of the labeled correlation matrices, each formed at its own size, as a family of one."""
        return self.checks(lambda d: self.labeled_corr(d)[None], self.labeled_factor)

    @cached_property
    def blocks(self) -> np.ndarray | None:
        """The pool as (B, n, M) blocks of the training size; None when it has fewer than n rows."""
        if self.unlabeled.n < self.train.n:
            return None
        return block_partition(self.unlabeled, self.train.n)

    @cached_property
    def block_corrs(self) -> np.ndarray:
        """`estimators.block_corr_stack` of `blocks` at d_max, read from the blocks' rows of the pool design."""
        B, n = len(self.blocks), self.train.n
        return estimators.design_corrs(self.pool_design[: B * n].reshape(B, n, -1))

    @cached_property
    def block_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The `estimators.inverse_factors` of the jittered blocks' leading `top` x `top` corners."""
        top = self.top
        return estimators.inverse_factors(self.jittered(self.block_corrs[:, :top, :top]))

    @cached_property
    def block_checks(self) -> tuple[np.ndarray, np.ndarray]:
        """`checks` of the blocks' leading corners."""
        return self.checks(lambda d: self.block_corrs[:, :d, :d], self.block_factors)

    def checks(self, stack, factors) -> tuple[np.ndarray, np.ndarray]:
        """The condition checks of a nested family whose (count, d, d) members at size d are `stack(d)`.

        At each size d = 1..`top`, `estimators.flagged_blocks` checks the members
        that `interlacing_gate` names from their `factors` at `top`. Returns a
        (d_max, count) mask of those above COND_LIMIT and a (d_max,) mask of the
        sizes whose check's SVD failed, both False above `top`.
        """
        tops = self.jittered(stack(self.top))
        gate = np.flatnonzero(interlacing_gate(tops, *factors))
        flagged = np.zeros((self.path.d_max, len(tops)), dtype=bool)
        failed = np.zeros(self.path.d_max, dtype=bool)
        for d in range(1, self.top + 1) if gate.size else ():
            try:
                flagged[d - 1, list(estimators.flagged_blocks(stack(d), self.ridge, gate))] = True
            except SingularDesignError:
                failed[d - 1] = True
        return flagged, failed

    @cached_property
    def b1(self) -> int | None:
        """The mDEE1 split at d_max; None with fewer than two blocks or a block singular at d_max."""
        if self.blocks is None or len(self.blocks) < 2:
            return None
        try:
            invs = np.linalg.inv(self.jittered(self.block_corrs))
        except np.linalg.LinAlgError:
            return None
        return estimators.moment_split(self.block_corrs, invs)[0]


# A criterion maps the state to its risk path over the path's sizes d = 1..d_max as
# (risk, flagged): a float array whose NaN marks a size where the risk is undefined,
# and an int array of the number of flagged blocks at each size, or 0. evaluate_trial
# records NaN as the inf@d sentinel; an infinite risk carries no sentinel.


def _trace_risks(state: TrialState, traces: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """The training loss times (1 + tr/n)/(1 - d/n) for the traces at sizes 1..`state.top`.

    A size is NaN where its trace is infinite or `failed` holds, and above `top`.
    """
    n, top = state.train.n, state.top
    traces = np.where(failed[:top] | np.isinf(traces), np.nan, traces)
    losses = np.array([model.train_loss for model in state.path.models[:top]])
    risks = np.full(state.path.d_max, np.nan)
    risks[:top] = (1.0 + traces / n) / (1.0 - np.arange(1, top + 1) / n) * losses
    return risks


def _dee_path(state: TrialState) -> tuple:
    """DEE at every size from the labeled inverse factor at `state.top`; a flagged labeled matrix makes its size NaN."""
    if state.unlabeled.n < 1 or state.top < 1:
        return np.full(state.path.d_max, np.nan), 0
    c_tilde = correlation_matrix(state.pool_design[:, : state.top])
    traces = estimators.dee_trace_path(state.labeled_factor, c_tilde)
    flagged, failed = state.labeled_checks
    return _trace_risks(state, traces, flagged[:, 0] | failed), 0


def _block_path(variant: CriterionKind, state: TrialState) -> tuple:
    """A block criterion at every size from the inverse factors at `state.top`.

    A size is NaN where the trace is +inf, from the first size at which a
    factor it reads stops, or where a condition check's SVD fails. A flagged
    size keeps its prefix value and counts its flagged blocks.
    """
    split = variant.value in SPLIT_CRITERIA
    if state.blocks is None or (split and state.b1 is None):
        return np.full(state.path.d_max, np.inf), 0
    rmdee = variant is CriterionKind.RMDEE
    corrs = state.block_corrs[:, : state.top, : state.top]
    if rmdee:
        traces, v_start = estimators.rmdee_trace_path(corrs, state.block_factors, state.labeled_factor), 0
    else:
        b1 = state.b1 if split else None
        traces = estimators.mdee_trace_path(corrs, state.block_factors, variant, b1)
        v_start = estimators.block_sides(variant, b1, len(corrs))[1]
    flagged, failed = state.block_checks
    counts = flagged[:, v_start:].sum(axis=1)
    if rmdee:
        labeled, labeled_failed = state.labeled_checks
        counts, failed = counts + labeled[:, 0], failed | labeled_failed
    return _trace_risks(state, traces, failed), counts


def _closed_form_path(score, state: TrialState) -> tuple:
    """A closed-form criterion `score(train_loss, n, d)` at every size."""
    return np.array([score(model.train_loss, state.train.n, model.d) for model in state.path.models]), 0


def _cv5_path(state: TrialState) -> tuple:
    if state.train.n < 5:
        return np.full(state.path.d_max, np.nan), 0
    return baselines.kfold_cv_path(state.train_design, state.train.y, 5, state.ridge, state.cv_seed), 0


def _adj_path(state: TrialState) -> tuple:
    if state.unlabeled.n < 1:  # only d = 1, which has no smaller model to compare with, is defined
        return np.r_[state.path.train_loss(1), np.full(state.path.d_max - 1, np.nan)], 0
    return np.array(baselines.adj_path(state.path, state.train_design, state.pool_design)), 0


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
    """`test_error` of every model on the path, from one d_max test design."""
    design = build_design(path.basis, test.X, path.d_max)
    resids = [test.y - design[:, : model.d] @ model.alpha for model in path.models]
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

    d_hat: dict[str, int] = {}
    regrets: dict[str, float] = {}
    flags: dict[str, str] = {}
    for name in cfg.criteria:
        tokens = []
        if name in BLOCK_CRITERIA and state.blocks is None:
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
        try:
            regrets[name] = regret(errors, chosen)
        except ValueError:
            regrets[name] = math.nan
            tokens.append("degenerate_regret")
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
        train, unlabeled, test = datagen.generate(scen.data_config(cell, data_seed))
    else:
        spec = ingest.SplitSpec(
            n=cell["n"], n_prime=scen.n_unlabeled, seed=data_seed, standardize=scen.standardize
        )
        train, unlabeled, test = ingest.split(table, spec)
    d_max = _auto_d_max(cfg, cell["n"], train.X.shape[1])
    cv_seed = _seed_int(cfg.master_seed, cell_idx, trial, 1)
    return evaluate_trial(trial, cell, train, unlabeled, test, d_max, cfg, cv_seed)


def run_experiment(cfg: ExperimentConfig) -> tuple[list[TrialResult], list[CriterionSummary]]:
    """Run every (grid cell, repetition) pair and aggregate per criterion.

    Each trial draws from its own seed streams, so its result does not depend
    on the trials run before it; aggregation folds over trial index.
    """
    table = None
    if isinstance(cfg.scenario, RealScenario):
        table = ingest.load_csv(cfg.scenario.manifest)

    trials: list[TrialResult] = []
    summaries: list[CriterionSummary] = []
    for cell_idx, cell in enumerate(cfg.scenario.cells()):
        cell_trials = [_trial(cfg, table, cell, cell_idx, t) for t in range(cfg.repetitions)]
        trials.extend(cell_trials)
        for name in cfg.criteria:
            summaries.append(_summarize(cell, name, [t.regret[name] for t in cell_trials]))
    return trials, summaries


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


def run_to_dir(cfg: ExperimentConfig, out_dir=None) -> Path:
    """Run an experiment and write summary.csv, trials.csv and meta.json."""
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials, summaries = run_experiment(cfg)
    write_summary_csv(out / "summary.csv", summaries)
    write_trials_csv(out / "trials.csv", trials, cfg.criteria)
    meta = {
        "criteria": cfg.criteria,
        "repetitions": cfg.repetitions,
        "master_seed": cfg.master_seed,
        "ridge": cfg.ridge,
        "d_max": cfg.d_max,
        "scenario": _scenario_dict(cfg.scenario),
        "versions": _versions(),
        "flag_counts": flag_counts(trials, cfg.criteria),
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
    }


def _scenario_dict(scenario) -> dict:
    if isinstance(scenario, SyntheticScenario):
        return {
            "kind": "synthetic",
            "target": scenario.target,
            "n": scenario.n_values,
            "noise_var": scenario.noise_vars,
            "covariate_var": scenario.covariate_var,
            "n_unlabeled": scenario.n_unlabeled,
            "n_test": scenario.n_test,
        }
    return {
        "kind": "real",
        "dataset": scenario.manifest.name,
        "path": scenario.manifest.path,
        "n": scenario.n_values,
        "n_unlabeled": scenario.n_unlabeled,
        "standardize": scenario.standardize,
    }


# ---------------------------------------------------------------------------
# Config files


# Every key load_config reads, per section; any other key is rejected, so a
# misspelled one cannot silently fall back to its default.
CONFIG_KEYS = {
    "top level": {
        "scenario", "criteria", "repetitions", "d_max", "ridge", "master_seed", "output_dir", "synthetic", "real"
    },
    "synthetic": {"target", "n", "noise_var", "covariate_var", "n_unlabeled", "n_test"},
    "real": {
        "name", "path", "response_column", "covariate_columns", "delimiter", "has_header", "n", "n_unlabeled",
        "standardize",
    },
}


# Keys a section must set; every other key has a default.
REQUIRED_KEYS = {
    "synthetic": ("target", "n", "noise_var"),
    "real": ("name", "path", "response_column", "covariate_columns", "n", "n_unlabeled"),
}


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def _check_keys(section: dict, name: str) -> None:
    unknown = sorted(str(k) for k in section if k not in CONFIG_KEYS[name])
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} in {name}; valid: {sorted(CONFIG_KEYS[name])}")
    missing = [k for k in REQUIRED_KEYS.get(name, ()) if k not in section]
    if missing:
        raise ValueError(f"missing required config key(s) {missing} in {name}")


def load_config(path) -> ExperimentConfig:
    """Parse a YAML experiment config; see the repository README for the schema."""
    with open(path) as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not valid YAML: {' '.join(str(exc).split())}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a mapping")
    _check_keys(raw, "top level")
    kind = raw.get("scenario")
    if kind == "synthetic":
        section = raw.get("synthetic")
        if not isinstance(section, dict):
            raise ValueError("scenario 'synthetic' needs a 'synthetic' section")
        _check_keys(section, "synthetic")
        scenario = SyntheticScenario(
            target=section["target"],
            n_values=[int(v) for v in _as_list(section["n"])],
            noise_vars=[float(v) for v in _as_list(section["noise_var"])],
            covariate_var=float(section.get("covariate_var", 1.0)),
            n_unlabeled=int(section.get("n_unlabeled", 1500)),
            n_test=int(section.get("n_test", 1000)),
        )
    elif kind == "real":
        section = raw.get("real")
        if not isinstance(section, dict):
            raise ValueError("scenario 'real' needs a 'real' section")
        _check_keys(section, "real")
        manifest = ingest.DatasetManifest(
            name=section["name"],
            path=section["path"],
            response_column=section["response_column"],
            covariate_columns=list(section["covariate_columns"]),
            delimiter=section.get("delimiter", ","),
            has_header=bool(section.get("has_header", True)),
        )
        scenario = RealScenario(
            manifest=manifest,
            n_values=[int(v) for v in _as_list(section["n"])],
            n_unlabeled=int(section["n_unlabeled"]),
            standardize=bool(section.get("standardize", True)),
        )
    else:
        raise ValueError("config needs scenario: synthetic or real")
    d_max = raw.get("d_max", "auto")
    return ExperimentConfig(
        scenario=scenario,
        # missing keys fall through to validate(), which names them
        criteria=[str(c) for c in raw.get("criteria") or []],
        repetitions=int(raw.get("repetitions", 0)),
        d_max=None if d_max in ("auto", None) else int(d_max),
        ridge=float(raw.get("ridge", DEFAULT_RIDGE)),
        master_seed=int(raw.get("master_seed", 0)),
        output_dir=str(raw.get("output_dir", "results")),
    )


def reaggregate_trials(path) -> list[CriterionSummary]:
    """Rebuild per-cell summaries from a trials.csv file."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        if fields[-len(TRIAL_FIELDS) :] != TRIAL_FIELDS:
            missing = [f for f in TRIAL_FIELDS if f not in fields]
            raise ValueError(f"{path}: the last columns of a trials.csv are {TRIAL_FIELDS}; missing {missing}")
        keys = fields[: -len(TRIAL_FIELDS)]
        groups: dict[tuple, list[float]] = {}
        for row in reader:
            group = tuple(row[k] for k in keys) + (row["criterion"],)
            groups.setdefault(group, []).append(float(row["regret"]))
    return [_summarize(dict(zip(keys, g[:-1])), g[-1], values) for g, values in groups.items()]
