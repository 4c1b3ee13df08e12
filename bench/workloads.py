"""The benchmark's workloads: inputs made from the seed, batches, checks.

A batch is one call a user of `mdee` would make and wait for: a
`harness.run_to_dir` over a small grid (grid_step, real_m7) or one
`mdee oracle` command through `cli.main` (oracle_ratio, oracle_moment).
Every batch of one run has the same size, so batch rates are comparable
and their median is the run's throughput.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

WORKLOADS = ("grid_step", "real_m7", "oracle_ratio", "oracle_moment")

# grid_step: the step-target slice of the paper grid named in ROADMAP aim 1.
GRID_N = [10, 20, 50]
GRID_NOISE_VAR = 0.1
ALL_CRITERIA = ["FPE", "cAIC", "ADJ", "CV5", "DEE", "mDEE1", "mDEE2", "mDEE3", "rmDEE"]
# Largest candidate size per n under `d_max: auto` (README, synthetic runs).
SYNTHETIC_DBAR = {10: 8, 20: 15, 50: 23}

# real_m7: a table of abalone's shape, response last.
ABALONE_ROWS = 4177
ABALONE_COVARIATES = 7
SEXES = ("M", "F", "I")

# Work per batch: repetitions per grid cell, or oracle replications.
BATCH_SIZE = {"grid_step": 3, "real_m7": 12, "oracle_ratio": 2000, "oracle_moment": 2000}
SMOKE_BATCH_SIZE = {"grid_step": 1, "real_m7": 1, "oracle_ratio": 100, "oracle_moment": 100}

# Distinct stream tags so workloads never share batch seeds.
_TAG = {name: i for i, name in enumerate(WORKLOADS)}


def batch_seed(workload: str, seed: int, batch: int) -> int:
    """Seed of one batch: a master_seed for run_to_dir or an oracle --seed."""
    state = np.random.SeedSequence([int(seed), 1000 + _TAG[workload], int(batch)])
    return int(state.generate_state(1)[0])


@dataclass
class Check:
    """Outcome of the correctness checks on one batch."""

    attempted: int
    failed: int
    drift: float = 0.0
    referenced: int = 0


# ---------------------------------------------------------------------------
# Inputs


def abalone_like_table(seed: int) -> list[str]:
    """Rows of an abalone-shaped table: sex, 7 covariates, integer rings.

    A latent maturity drives every column. Length, diameter and whole weight
    are continuous; height, shucked, viscera and shell weight are discrete
    with 6, 4, 3 and 2 levels, as measurement rounding makes them in the
    real data. Rings (the response) is an integer in 1..29.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7]))
    n = ABALONE_ROWS
    maturity = rng.beta(4.0, 2.0, n)
    sex = rng.integers(0, 3, n)
    length = 0.08 + 0.7 * maturity + rng.normal(0.0, 0.03, n)
    diameter = 0.8 * length + rng.normal(0.0, 0.02, n)
    whole = 2.5 * length**3 + rng.normal(0.0, 0.04, n)

    def levels(count: int, spread: float) -> np.ndarray:
        noisy = maturity + rng.normal(0.0, spread, n)
        cuts = np.quantile(noisy, np.linspace(0, 1, count + 1)[1:-1])
        return np.digitize(noisy, cuts)

    height = 0.05 + 0.04 * levels(6, 0.08)
    shucked = 0.1 + 0.2 * levels(4, 0.1)
    viscera = 0.05 + 0.1 * levels(3, 0.1)
    shell = 0.1 + 0.3 * levels(2, 0.15)
    rings = np.clip(np.rint(2.0 + 14.0 * maturity + 4.0 * shell + rng.normal(0.0, 2.0, n)), 1, 29)
    cols = np.column_stack([length, diameter, height, whole, shucked, viscera, shell])
    return [
        ",".join([SEXES[s]] + [f"{v:.4f}" for v in row] + [str(int(r))])
        for s, row, r in zip(sex, cols, rings)
    ]


def _load_yaml(path: Path) -> dict:
    with path.open() as handle:
        return yaml.safe_load(handle)


def write_inputs(workload: str, seed: int, workdir: Path, root: Path, size: int) -> Path | None:
    """Write the config (and table) of an experiment workload; returns the config path."""
    if workload == "grid_step":
        raw = _load_yaml(root / "configs" / "synthetic_step_n10.yaml")
        raw["criteria"] = list(ALL_CRITERIA)
        raw["synthetic"].update(n=list(GRID_N), noise_var=[GRID_NOISE_VAR])
    elif workload == "real_m7":
        raw = _load_yaml(root / "configs" / "real_abalone.yaml")
        table = workdir / "abalone_like.data"
        table.write_text("\n".join(abalone_like_table(seed)) + "\n")
        raw["real"]["path"] = str(table)
    else:
        return None
    raw["repetitions"] = size
    path = workdir / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


# ---------------------------------------------------------------------------
# Workloads


def load_seed_pool(workload: str, reps: int) -> list[int]:
    """Oracle seeds recorded as passing at `reps` by record_refs.py; [] if absent."""
    path = REFS_DIR / f"{workload}.json"
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    return list(data["seeds"]) if data["reps"] == reps else []


def load_refs(workload: str, size: int) -> dict:
    """Reference batches recorded by record_refs.py, keyed by seed; {} if absent."""
    path = REFS_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    if data["batch_size"] != size:
        return {}
    return {int(seed): batches for seed, batches in data["seeds"].items()}


class ExperimentWorkload:
    """Batches of harness.run_to_dir on one parsed config."""

    def __init__(self, name: str, seed: int, workdir: Path, config_path: Path, size: int):
        from mdee import harness

        self.name = name
        self.seed = seed
        self.size = size
        self.harness = harness
        self.cfg = harness.load_config(config_path)
        self.out = workdir / "out"
        self.refs = load_refs(name, size).get(seed, [])
        self.trials_per_batch = len(self.cfg.scenario.cells()) * size
        # Per-layer metrics are per trial.
        self.trace_units = self.trials_per_batch

    def run_batch(self, batch: int) -> int:
        """Run one batch; returns the trials it completed."""
        self.cfg.master_seed = batch_seed(self.name, self.seed, batch)
        self.harness.run_to_dir(self.cfg, self.out)
        return self.trials_per_batch

    def failed_batch(self) -> Check:
        return Check(self.trials_per_batch, self.trials_per_batch)

    def d_max(self, n: int) -> int:
        if self.name == "real_m7":
            return -(-(n - 1) // ABALONE_COVARIATES)
        return SYNTHETIC_DBAR[n]

    def read_rows(self) -> list[dict]:
        with (self.out / "trials.csv").open(newline="") as handle:
            return list(csv.DictReader(handle))

    def batch_tokens(self, rows: list[dict]) -> str:
        """The reference form of a batch: d_hat:regret per row, in file order."""
        return " ".join(f"{r['d_hat']}:{r['regret']}" for r in rows)

    def check_batch(self, batch: int) -> Check:
        """Reference d_hat/regret where recorded, range and finiteness otherwise."""
        rows = self.read_rows()
        criteria = self.cfg.criteria
        if len(rows) != self.trials_per_batch * len(criteria):
            return self.failed_batch()
        ref = self.refs[batch].split() if batch < len(self.refs) else None
        failed_trials = set()
        drift = 0.0
        for i, row in enumerate(rows):
            key = (row["n"], row["trial"])
            d_hat = int(row["d_hat"])
            value = float(row["regret"])
            if ref is not None:
                ref_d, ref_regret = ref[i].split(":")
                ref_value = float(ref_regret)
                if d_hat != int(ref_d) or math.isnan(value) != math.isnan(ref_value):
                    failed_trials.add(key)
                elif not math.isnan(value):
                    drift = max(drift, abs(value - ref_value))
                continue
            ok = 1 <= d_hat <= self.d_max(int(row["n"]))
            if "degenerate_regret" not in row["flags"]:
                ok = ok and math.isfinite(value) and value >= 0.0
            if not ok:
                failed_trials.add(key)
        referenced = self.trials_per_batch if ref is not None else 0
        return Check(self.trials_per_batch, len(failed_trials), drift, referenced)


class OracleWorkload:
    """Batches of `mdee oracle --theorem 2|4 --reps R` through cli.main, CLI defaults otherwise.

    Batch seeds come from a pool recorded by record_refs.py: oracle seeds
    whose identity checks pass at the reference commit. The checks are 3-SE
    Monte-Carlo tests, so a few seeds in a hundred miss by chance; drawing
    from the pool keeps such a miss from reading as a regression, while a
    change that breaks an identity still fails on the pool. Batch k of
    workload seed s uses pool entry (s + k) mod the pool size.
    """

    CHECKS = {2: 2, 4: 3}

    def __init__(self, name: str, seed: int, size: int):
        from mdee import cli

        self.name = name
        self.seed = seed
        self.size = size
        self.cli = cli
        self.theorem = 2 if name == "oracle_ratio" else 4
        self.pool = load_seed_pool(name, size)
        self.last = (0, "")
        # Per-layer metrics are per CLI call.
        self.trace_units = 1

    def oracle_seed(self, batch: int) -> int:
        if not self.pool:
            return batch_seed(self.name, self.seed, batch)
        return self.pool[(self.seed + batch) % len(self.pool)]

    def run_batch(self, batch: int) -> int:
        """Run one CLI call; returns the replications it made.

        Theorem 4 counts the replications of both mc_H_moments calls; their
        reference runs and the closed form ride along in the same wall time.
        """
        argv = [
            "oracle",
            "--theorem", str(self.theorem),
            "--reps", str(self.size),
            "--seed", str(self.oracle_seed(batch)),
        ]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        self.last = (code, buf.getvalue())
        return self.size if self.theorem == 2 else 2 * self.size

    def failed_batch(self) -> Check:
        expected = self.CHECKS[self.theorem]
        return Check(expected, expected)

    def check_batch(self, batch: int) -> Check:
        """Each printed identity check is one operation; a nonzero exit fails it."""
        code, text = self.last
        expected = self.CHECKS[self.theorem]
        ok = text.count("[ok]")
        failed = text.count("[FAIL]")
        if ok + failed != expected:
            return self.failed_batch()
        if code != 0:
            failed = max(failed, 1)
        return Check(expected, failed)


def make(name: str, seed: int, workdir: Path, root: Path, smoke: bool):
    size = (SMOKE_BATCH_SIZE if smoke else BATCH_SIZE)[name]
    if name.startswith("oracle"):
        return OracleWorkload(name, seed, size)
    config = write_inputs(name, seed, workdir, root, size)
    return ExperimentWorkload(name, seed, workdir, config, size)
