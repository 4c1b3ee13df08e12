import csv
import dataclasses
import json
import math
import os
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ingest import mixed_line_ends
from test_parallel import no_child_left

from mdee import __version__, baselines, estimators, harness, ingest, parallel
from mdee.cli import main
from mdee.core import BasisSpec, LabeledSet, UnlabeledSet, build_design
from mdee.harness import (
    BLOCK_CRITERIA,
    CRITERIA,
    ExperimentConfig,
    RealScenario,
    SyntheticScenario,
    TrialResult,
    aggregate,
    evaluate_trial,
    load_config,
    reaggregate_trials,
    run_experiment,
    run_to_dir,
    write_summary_csv,
    write_trials_csv,
)
from reference import FittedModel
from reference import test_error as model_test_error

BASIS = BasisSpec("fourier", 1)

RIDGE0_YAML = """
scenario: synthetic
criteria: [FPE, cAIC, ADJ, CV5, DEE, mDEE1, mDEE2, mDEE3, rmDEE]
repetitions: 20
d_max: 9
ridge: 0.0
master_seed: 5
synthetic:
  target: step
  n: 10
  noise_var: 0.1
"""


class TestTestError:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(9, 1))
        alpha = np.array([0.2, -0.4])
        y = build_design(BASIS, X, 2) @ alpha
        model = FittedModel(alpha=alpha, train_loss=0.0)
        assert model_test_error(model, LabeledSet(X=X, y=y), BASIS) == 0.0

    def test_constant_model_with_m_scaling(self):
        basis3 = BasisSpec("fourier", 3)
        X = np.random.default_rng(1).normal(size=(7, 3))
        model = FittedModel(alpha=np.array([2.0]), train_loss=0.0)
        data = LabeledSet(X=X, y=np.full(7, 6.0))  # constant column equals M = 3
        assert model_test_error(model, data, basis3) == pytest.approx(0.0, abs=1e-20)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(11, 1))
        y = rng.normal(size=11)
        alpha = rng.normal(size=3)
        model = FittedModel(alpha=alpha, train_loss=0.0)
        design = build_design(BASIS, X, 3)
        total = sum((y[i] - design[i] @ alpha) ** 2 for i in range(11))
        got = model_test_error(model, LabeledSet(X=X, y=y), BASIS)
        assert got == pytest.approx(total / 11, abs=1e-12)


class TestTrialRegret:
    """evaluate_trial's regret: the log of the chosen size's test error over the smallest one."""

    @pytest.mark.parametrize(
        "errors, chosen, regret, degenerate",
        [
            ([1.0, 0.5, 0.8], 2, 0.0, False),
            ([1.0, 0.5, 0.8], 3, math.log(1.6), False),
            ([0.5, 0.5, 0.9], 1, 0.0, False),
            ([1.0, 0.0, 0.8], 1, math.nan, True),
            ([1.0, -0.5, 0.8], 1, math.nan, True),
            # only a nonpositive error is degenerate; a NaN one carries through the smallest error
            ([1.0, math.nan, 0.8], 1, math.nan, False),
        ],
        ids=["argmin", "log ratio", "tie", "zero error", "negative error", "nan error"],
    )
    def test_regret_from_the_test_errors(self, errors, chosen, regret, degenerate, monkeypatch):
        monkeypatch.setattr(harness, "path_test_errors", lambda path, test: errors)
        monkeypatch.setitem(CRITERIA, "FPE", lambda state: (np.where(np.arange(1, 4) == chosen, 0.0, 1.0), 0))
        rng = np.random.default_rng(3)
        result = evaluate_trial(
            trial=0,
            cell={"n": 20},
            train=LabeledSet(X=rng.normal(size=(20, 1)), y=rng.normal(size=20)),
            unlabeled=UnlabeledSet(X=rng.normal(size=(40, 1))),
            test=LabeledSet(X=rng.normal(size=(5, 1)), y=rng.normal(size=5)),
            d_max=3,
            cfg=small_config(criteria=["FPE"], repetitions=1),
            cv_seed=0,
        )
        assert result.d_hat["FPE"] == chosen
        assert result.regret["FPE"] == pytest.approx(regret, abs=1e-15, nan_ok=True)
        assert ("degenerate_regret" in result.flags["FPE"].split(";")) == degenerate


class TestAggregate:
    def test_interpolated_quartiles(self):
        median, iqr = aggregate([1.0, 2.0, 3.0])
        assert median == 2.0
        assert iqr == pytest.approx(1.0)  # Q1 = 1.5, Q3 = 2.5

    def test_singleton(self):
        assert aggregate([5.0]) == (5.0, 0.0)

    def test_constant_sample(self):
        median, iqr = aggregate([2.0] * 10)
        assert median == 2.0 and iqr == 0.0

    @pytest.mark.parametrize("reps", [*range(1, 12), 100, 1000])
    def test_stack_has_the_bits_of_each_row(self, reps):
        # as run_experiment stacks its regrets: (cells, criteria, reps)
        rng = np.random.default_rng(reps)
        regrets = rng.exponential(size=(4, 9, reps))
        regrets[:2] = np.round(regrets[:2], 1)  # rounded ties
        regrets[1, ::2, reps // 2] = np.nan  # a degenerate regret
        regrets[3, 0] = 0.5  # a constant row
        stacked = np.stack(aggregate(regrets), axis=-1)
        per_row = np.array([[aggregate(row) for row in cell] for cell in regrets])
        assert stacked.shape == (4, 9, 2)
        assert stacked.tobytes() == per_row.tobytes()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_median_within_range_iqr_nonnegative(self, values):
        median, iqr = aggregate(values)
        assert min(values) <= median <= max(values)
        assert iqr >= 0.0


def small_config(**kwargs):
    base = dict(
        scenario=SyntheticScenario(
            target="sinc",
            n_values=[10],
            noise_vars=[0.1],
            n_unlabeled=200,
            n_test=100,
        ),
        criteria=["DEE", "mDEE1", "FPE"],
        repetitions=3,
        master_seed=99,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_shapes_and_fields(self):
        trials, summaries = run_experiment(small_config())
        assert len(trials) == 3
        assert len(summaries) == 3  # one per criterion for the single cell
        for t in trials:
            assert set(t.d_hat) == {"DEE", "mDEE1", "FPE"}
            assert all(r >= 0 or math.isnan(r) for r in t.regret.values())
            assert len(t.test_errors) == 8  # auto rule at n = 10

    def test_noiseless_nested_truth_zero_regret(self):
        # truth exactly inside the largest candidate model, no noise: the
        # criterion's pick coincides with the test-error argmin, regret 0
        rng = np.random.default_rng(7)
        alpha_star = np.array([0.5, -1.0, 0.8])
        X = rng.normal(size=(20, 1))
        y = build_design(BASIS, X, 3) @ alpha_star
        X_test = rng.normal(size=(200, 1))
        y_test = build_design(BASIS, X_test, 3) @ alpha_star
        result = evaluate_trial(
            trial=0,
            cell={"n": 20},
            train=LabeledSet(X=X, y=y),
            unlabeled=UnlabeledSet(X=rng.normal(size=(100, 1))),
            test=LabeledSet(X=X_test, y=y_test),
            d_max=3,
            cfg=small_config(criteria=["FPE"], repetitions=1),
            cv_seed=0,
        )
        assert result.d_hat["FPE"] == 3
        assert result.regret["FPE"] == 0.0

    def test_grid_cells(self):
        cfg = small_config(
            scenario=SyntheticScenario(
                target="step",
                n_values=[10],
                noise_vars=[0.1, 0.3],
                n_unlabeled=120,
                n_test=60,
            ),
            repetitions=2,
        )
        trials, summaries = run_experiment(cfg)
        assert len(trials) == 4
        cells = {(s.cell["n"], s.cell["noise_var"]) for s in summaries}
        assert cells == {(10, 0.1), (10, 0.3)}

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError, match="unknown criteria"):
            small_config(criteria=["AICc"])

    def test_missing_dbar_rule(self):
        # rejected when the config is built, before a run can make its output directory
        with pytest.raises(ValueError, match="d_max"):
            small_config(
                scenario=SyntheticScenario(
                    target="sinc", n_values=[17], noise_vars=[0.1], n_unlabeled=60, n_test=30
                )
            )

    def test_explicit_dmax(self):
        cfg = small_config(d_max=4)
        trials, _ = run_experiment(cfg)
        assert len(trials[0].test_errors) == 4

    def test_small_pool_flags_block_criteria(self):
        cfg = small_config(
            scenario=SyntheticScenario(
                target="sinc", n_values=[10], noise_vars=[0.1], n_unlabeled=5, n_test=30
            ),
            criteria=["mDEE3", "FPE"],
            repetitions=1,
        )
        trials, _ = run_experiment(cfg)
        assert "no_blocks" in trials[0].flags["mDEE3"]
        assert "all_infinite" in trials[0].flags["mDEE3"]
        assert trials[0].d_hat["mDEE3"] == 1
        assert trials[0].flags["FPE"] == ""

    def test_a_fit_that_stops_loses_only_its_sizes(self, tmp_path, monkeypatch):
        # At ridge 0 and n = 10 the normal matrix of some trials fails its
        # condition check at d = 8 or 9. Such a trial keeps the sizes below
        # the first that fails, every criterion is inf@d from there, and the
        # run completes.
        path = tmp_path / "ridge0.yaml"
        path.write_text(RIDGE0_YAML)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # `fitted` sees only the fits run in this process
        fitted = []
        fit = harness.fit_design_path
        monkeypatch.setattr(harness, "fit_design_path", lambda *args: fitted.append(fit(*args)) or fitted[-1])
        cfg = load_config(path)
        trials, _ = run_experiment(cfg)
        stopped = [(t, model_path.d_max + 1) for t, model_path in zip(trials, fitted) if model_path.d_max < 9]
        assert len(fitted) == 20 and stopped
        for trial, k in stopped:
            assert len(trial.test_errors) == k - 1
            for name in cfg.criteria:
                tokens = trial.flags[name].split(";")
                assert all(f"inf@d{d}" in tokens for d in range(k, 10)), (name, tokens)
                assert trial.d_hat[name] < k
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["meta.json", "summary.csv", "trials.csv"]


class TestOutputs:
    def test_determinism_byte_identical(self, tmp_path):
        cfg = small_config()
        out_a = run_to_dir(cfg, tmp_path / "a")
        out_b = run_to_dir(cfg, tmp_path / "b")
        for name in ("summary.csv", "trials.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_summary_layout(self, tmp_path):
        out = run_to_dir(small_config(), tmp_path / "run")
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0] == "target,n,noise_var,criterion,median,iqr,n_trials"
        assert len(lines) == 4

    def test_trials_layout(self, tmp_path):
        out = run_to_dir(small_config(), tmp_path / "run")
        lines = (out / "trials.csv").read_text().splitlines()
        assert lines[0] == "target,n,noise_var,trial,criterion,d_hat,regret,flags"
        assert len(lines) == 1 + 3 * 3

    def test_meta_records_caveat(self, tmp_path):
        out = run_to_dir(small_config(), tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())
        assert "caveat" in meta
        assert meta["config"]["scenario"] == "synthetic"

    def test_numpy_typed_reals_written_to_meta(self, tmp_path):
        # json.dumps used to fail on a float32 after every trial ran, so meta.json was never written
        scenario = SyntheticScenario("sinc", [10], [np.float32(0.1)], np.float32(2.0), 200, 100)
        out = run_to_dir(small_config(scenario=scenario, ridge=np.float32(1e-9)), tmp_path / "run")
        assert sorted(p.name for p in out.iterdir()) == ["meta.json", "summary.csv", "trials.csv"]
        config = json.loads((out / "meta.json").read_text())["config"]
        assert config["ridge"] == float(np.float32(1e-9)) and config["synthetic"]["covariate_var"] == 2.0
        assert config["synthetic"]["noise_var"] == [float(np.float32(0.1))]

    def test_meta_flag_counts_match_trials_csv(self, tmp_path, monkeypatch):
        # An empty pool gives DEE inf@d at every d (all_infinite), a stand-in FPE
        # flags blocks at odd d, and a zero test error on every other trial
        # makes its regrets degenerate.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # `calls` counts only the trials run in this process
        errors = harness.path_test_errors
        calls = []

        def zero_every_other(path, test):
            calls.append(None)
            return [0.0] * path.d_max if len(calls) % 2 else errors(path, test)

        def fpe(state):
            d_range = range(1, state.path.d_max + 1)
            return np.array([baselines.fpe(state.path.train_loss(d), state.train.n, d) for d in d_range]), np.array(
                [d % 2 for d in d_range]
            )

        monkeypatch.setitem(CRITERIA, "FPE", fpe)
        monkeypatch.setattr(harness, "path_test_errors", zero_every_other)
        scenario = SyntheticScenario(target="sinc", n_values=[10], noise_vars=[0.1], n_unlabeled=0, n_test=50)
        cfg = small_config(scenario=scenario, criteria=["DEE", "FPE", "cAIC"], repetitions=4)
        out = run_to_dir(cfg, tmp_path / "run")
        meta = json.loads((out / "meta.json").read_text())

        recount = {name: dict.fromkeys(harness.COUNTED_FLAGS, 0) for name in cfg.criteria}
        with open(out / "trials.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                for token in filter(None, row["flags"].split(";")):
                    kind = token.split("=")[0].rstrip("0123456789")
                    if kind in recount[row["criterion"]]:
                        recount[row["criterion"]][kind] += 1
        assert meta["flag_counts"] == recount
        assert all(any(counts[kind] for counts in recount.values()) for kind in harness.COUNTED_FLAGS)
        assert meta["versions"]["mdee"] == __version__
        assert meta["versions"]["python"] == sys.version.split()[0]
        assert meta["versions"]["numpy"] == np.__version__
        assert meta["versions"]["blas"]
        assert meta["versions"]["scipy"] == scipy.__version__

    def test_reaggregation_round_trip(self, tmp_path):
        cfg = small_config(repetitions=6)
        out = run_to_dir(cfg, tmp_path / "run")
        summaries = reaggregate_trials(out / "trials.csv")
        write_summary_csv(tmp_path / "summary2.csv", summaries)
        original = (out / "summary.csv").read_text().splitlines()
        rebuilt = (tmp_path / "summary2.csv").read_text().splitlines()
        assert rebuilt[0] == original[0]
        for a, b in zip(original[1:], rebuilt[1:]):
            a_parts, b_parts = a.split(","), b.split(",")
            assert a_parts[:4] == b_parts[:4]
            # medians agree to output precision
            assert float(a_parts[4]) == pytest.approx(float(b_parts[4]), rel=1e-5)

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order mark"])
    def test_reaggregation_names_the_line_of_a_bad_byte_past_the_first_8_kb(self, mark, tmp_path):
        lines = ["n,trial,criterion,d_hat,regret,flags"] + [f"10,{t},FPE,2,0.{t}," for t in range(1000)]
        lines[700] = lines[700].replace("FPE", "FP\u00c9")
        body, line = mixed_line_ends(lines)
        path = tmp_path / "trials.csv"
        path.write_bytes(mark + body)
        assert body.index(b"\xc9") > 8192
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: not UTF-8 text: invalid continuation byte$"):
            reaggregate_trials(path)

    def test_reaggregation_names_missing_columns(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match=r"missing \['trial', 'criterion', 'd_hat', 'regret', 'flags'\]"):
            reaggregate_trials(path)

    def test_quoted_dataset_name_round_trip(self, tmp_path):
        cell = {"dataset": "abalone, rings", "n": 20}
        trials = [
            TrialResult(trial=t, cell=cell, d_hat={"DEE": 2}, regret={"DEE": r}, test_errors=[])
            for t, r in enumerate([0.1, 0.3, 0.2])
        ]
        write_trials_csv(tmp_path / "trials.csv", trials, ["DEE"])
        assert (tmp_path / "trials.csv").read_text().splitlines()[1] == '"abalone, rings",20,0,DEE,2,0.1,'
        (summary,) = reaggregate_trials(tmp_path / "trials.csv")
        assert summary.cell == {"dataset": "abalone, rings", "n": "20"}
        assert (summary.criterion, summary.median, summary.n_trials) == ("DEE", 0.2, 3)
        write_summary_csv(tmp_path / "summary.csv", [summary])
        assert (tmp_path / "summary.csv").read_text().splitlines()[1] == '"abalone, rings",20,DEE,0.2,0.1,3'


def two_cell_config():
    """A synthetic grid of two cells, 4 trials each: 8 jobs."""
    scenario = SyntheticScenario(target="step", n_values=[10, 20], noise_vars=[0.1], n_unlabeled=200, n_test=100)
    return small_config(scenario=scenario, repetitions=4)


def toy_table(path: Path) -> Path:
    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 2))
    y = X[:, 0] + 0.1 * rng.normal(size=120)
    path.write_text("x1,x2,y\n" + "".join(f"{a},{b},{c}\n" for (a, b), c in zip(X, y)))
    return path


def toy_real_config(table: Path) -> ExperimentConfig:
    """A real-table run of one cell, 6 trials."""
    scenario = RealScenario(
        name="toy", path=str(table), response_column="y", covariate_columns=["x1", "x2"], n_values=[20], n_unlabeled=60
    )
    return ExperimentConfig(scenario=scenario, criteria=["mDEE3", "cAIC", "ADJ"], repetitions=6, master_seed=3)


class TestTrialProcesses:
    """run_experiment spreads its trials over forked processes when this one runs a single thread."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the usable-CPU count, and let this process fork as a process of one thread would."""

        def set_count(count: int) -> None:
            monkeypatch.setattr(parallel, "usable_cpus", lambda: count)
            monkeypatch.setattr(parallel, "_threads", lambda: 1)

        return set_count

    @pytest.mark.parametrize("kind", ["synthetic", "real"])
    def test_outputs_do_not_depend_on_the_process_count(self, kind, cpus, tmp_path):
        cfg = two_cell_config() if kind == "synthetic" else toy_real_config(toy_table(tmp_path / "toy.csv"))
        jobs = len(list(cfg.scenario.cells())) * cfg.repetitions
        outputs = []
        for count in (1, 2, 3, 8):
            cpus(count)
            out = run_to_dir(cfg, tmp_path / f"cpus{count}")
            outputs.append([(out / name).read_bytes() for name in ("summary.csv", "trials.csv")])
            assert json.loads((out / "meta.json").read_text())["processes"] == min(count, jobs)
        assert all(output == outputs[0] for output in outputs)
        assert no_child_left()

    @pytest.mark.parametrize("failing, lowest", [({3, 5}, 3), ({1, 4}, 1), ({2, 3}, 2)])
    def test_the_lowest_failing_job_raises(self, failing, lowest, cpus, monkeypatch):
        # On 2 processes this one runs the even jobs and a child the odd ones.
        cpus(2)
        trial = harness._trial

        def failing_trial(cfg, cell, cell_idx, t):
            job = cell_idx * cfg.repetitions + t
            if job in failing:
                raise KeyError(f"job {job} failed")
            return trial(cfg, cell, cell_idx, t)

        monkeypatch.setattr(harness, "_trial", failing_trial)
        with pytest.raises(KeyError, match=f"job {lowest} failed") as raised:
            run_experiment(two_cell_config())
        assert raised.type is KeyError
        # a child's exception carries the child's traceback as its cause
        assert ("raised in a child process" in str(raised.value.__cause__)) == (lowest % 2 == 1)
        assert no_child_left()

    def test_an_exception_that_does_not_pickle_arrives_as_its_text(self, cpus, monkeypatch):
        class Local(Exception):
            pass

        cpus(2)
        parent = os.getpid()
        trial = harness._trial

        def failing_trial(*args):
            if os.getpid() != parent:
                raise Local("not picklable")
            return trial(*args)

        monkeypatch.setattr(harness, "_trial", failing_trial)
        with pytest.raises(RuntimeError, match="Local: not picklable"):
            run_experiment(two_cell_config())
        assert no_child_left()

    def test_a_child_that_dies_is_named(self, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()
        trial = harness._trial
        monkeypatch.setattr(harness, "_trial", lambda *args: os._exit(3) if os.getpid() != parent else trial(*args))
        with pytest.raises(RuntimeError, match="ended without sending its results"):
            run_experiment(two_cell_config())
        assert no_child_left()

    def test_an_interrupt_kills_the_children(self, cpus, monkeypatch):
        # The children would sleep for a minute; the interrupt here ends the run at once.
        cpus(2)
        parent = os.getpid()

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(harness, "_trial", interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(two_cell_config())
        assert time.perf_counter() - start < 30
        assert no_child_left()

    def test_a_real_table_is_read_once_in_the_parent(self, cpus, tmp_path, monkeypatch):
        cpus(2)
        log = tmp_path / "pids.txt"

        def logged(name, func):
            def call(*args):
                with log.open("a") as handle:
                    handle.write(f"{name} {os.getpid()}\n")
                return func(*args)

            return call

        monkeypatch.setattr(ingest, "load_csv", logged("read", ingest.load_csv))
        monkeypatch.setattr(harness, "_trial", logged("trial", harness._trial))
        trials, _ = run_experiment(toy_real_config(toy_table(tmp_path / "toy.csv")))
        assert len(trials) == 6
        lines = [line.split() for line in log.read_text().splitlines()]
        assert [pid for name, pid in lines if name == "read"] == [str(os.getpid())]
        assert {pid for name, pid in lines if name == "trial"} - {str(os.getpid())}, "no trial ran in a child"
        assert no_child_left()

    def test_a_threaded_caller_runs_in_one_process(self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        parked = threading.Event()
        thread = threading.Thread(target=parked.wait)
        thread.start()
        try:
            pids = []
            trial = harness._trial
            monkeypatch.setattr(harness, "_trial", lambda *args: pids.append(os.getpid()) or trial(*args))
            out = run_to_dir(two_cell_config(), tmp_path / "run")
        finally:
            parked.set()
            thread.join()
        assert pids == [os.getpid()] * 8
        assert json.loads((out / "meta.json").read_text())["processes"] == 1


class TestRealScenario:
    @pytest.fixture
    def dataset(self, tmp_path):
        return toy_table(tmp_path / "toy.csv")

    def test_real_run(self, dataset, tmp_path):
        cfg = ExperimentConfig(
            scenario=RealScenario(
                name="toy",
                path=str(dataset),
                response_column="y",
                covariate_columns=["x1", "x2"],
                n_values=[20],
                n_unlabeled=60,
            ),
            criteria=["mDEE3", "cAIC"],
            repetitions=2,
            master_seed=3,
        )
        trials, summaries = run_experiment(cfg)
        assert len(trials) == 2
        assert len(trials[0].test_errors) == 10  # ceil(19/2)
        assert {s.criterion for s in summaries} == {"mDEE3", "cAIC"}

    @pytest.mark.parametrize(
        "table, n_unlabeled, needle",
        [
            ("absent.csv", 60, "real.path '{path}' cannot be read: No such file or directory"),
            ("toy.csv", 100, "n=20 plus n_unlabeled=100 leaves no test row of the 120 rows in {path}"),
        ],
        ids=["missing table", "no test row"],
    )
    def test_bad_table_fails_before_any_output(self, dataset, tmp_path, table, n_unlabeled, needle):
        # the missing table ended in a FileNotFoundError and the n in ingest.split's ValueError, both after the
        # output directory was made
        cfg = toy_real_config(tmp_path / table)
        cfg.scenario.n_unlabeled = n_unlabeled
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=f"^{re.escape(needle.format(path=cfg.scenario.path))}$"):
            run_to_dir(cfg, out)
        assert not out.exists()

    def test_runs_of_one_config_read_the_table_once(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # `reads` counts only the reads of this process
        reads = []
        load_csv = ingest.load_csv
        monkeypatch.setattr(ingest, "load_csv", lambda scenario: reads.append(scenario) or load_csv(scenario))
        cfg = toy_real_config(dataset)
        first, second = run_to_dir(cfg, tmp_path / "a"), run_to_dir(cfg, tmp_path / "b")
        assert len(reads) == 1
        for name in ("summary.csv", "trials.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_a_table_that_failed_to_read_is_read_again(self, tmp_path):
        cfg = toy_real_config(tmp_path / "toy.csv")
        with pytest.raises(ValueError, match="cannot be read"):
            run_to_dir(cfg, tmp_path / "out")
        toy_table(tmp_path / "toy.csv")
        assert (run_to_dir(cfg, tmp_path / "out") / "trials.csv").exists()

    def test_the_loaded_table_is_read_only(self, dataset):
        table = toy_real_config(dataset).scenario.table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0


SYNTHETIC_YAML = """
scenario: synthetic
criteria: [DEE, mDEE1, FPE]
repetitions: 4
master_seed: 17
d_max: auto
synthetic:
  target: step
  n: [10, 20]
  noise_var: [0.1, 0.3]
  covariate_var: 1.0
  n_unlabeled: 300
  n_test: 100
"""

REAL_YAML = """
scenario: real
criteria: [rmDEE]
repetitions: 2
real:
  name: toy
  path: data/toy.csv
  response_column: y
  covariate_columns: [x1, x2]
  n: 20
  n_unlabeled: 50
"""

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestLibraryConfig:
    @staticmethod
    def config(**changes):
        """A one-cell synthetic config with `changes` made; a change to a field of the table `RealScenario` reads
        (`ingest.load_csv`) makes it real."""
        table_fields = ("name", "path", "response_column", "covariate_columns", "delimiter", "has_header")
        manifest = {name: changes.pop(name) for name in table_fields if name in changes}
        if manifest:
            manifest = {"name": "toy", "path": "toy.csv", "response_column": "y", "covariate_columns": ["x"], **manifest}
            scenario = RealScenario(**manifest, n_values=[20], n_unlabeled=50)
        else:
            fields = {"target": "step", "n_values": [10], "noise_vars": [0.1]}
            fields.update({f.name: changes.pop(f.name) for f in dataclasses.fields(SyntheticScenario) if f.name in changes})
            scenario = SyntheticScenario(**fields)
        changes.setdefault("criteria", ["FPE"])
        changes.setdefault("repetitions", 2)
        return ExperimentConfig(scenario, **changes)

    @pytest.mark.parametrize(
        "change, needle",
        [
            ({"repetitions": 2.5}, "repetitions must be a whole number"),
            ({"d_max": 3.5}, "d_max must be a whole number"),
            ({"master_seed": 1.5}, "master_seed must be a whole number"),
            ({"master_seed": True}, "master_seed must be a whole number"),
            ({"n_values": [10.5]}, "synthetic.n must be a whole number"),
            ({"n_unlabeled": 100.5}, "synthetic.n_unlabeled must be a whole number"),
            ({"n_test": 50.5}, "synthetic.n_test must be a whole number"),
        ],
        ids=["repetitions", "d_max", "master_seed", "master_seed bool", "n", "n_unlabeled", "n_test"],
    )
    def test_non_whole_number_rejected_by_name(self, change, needle):
        # each ended in a deep TypeError or ran as another seed
        with pytest.raises(ValueError, match=f"^{needle}"):
            self.config(**change)

    @pytest.mark.parametrize(
        "change, needle",
        [
            ({"ridge": "1e-9"}, "ridge"),
            ({"ridge": True}, "ridge"),
            ({"ridge": None}, "ridge"),
            ({"covariate_var": "1"}, "synthetic.covariate_var"),
            ({"covariate_var": True}, "synthetic.covariate_var"),
            ({"covariate_var": None}, "synthetic.covariate_var"),
            ({"noise_vars": ["0.1"]}, "synthetic.noise_var"),
            ({"noise_vars": [0.1, False]}, "synthetic.noise_var"),
            ({"noise_vars": [None]}, "synthetic.noise_var"),
            ({"ridge": 10**400}, "ridge"),
        ],
        ids=["ridge str", "ridge bool", "ridge None", "covariate_var str", "covariate_var bool", "covariate_var None",
             "noise_var str", "noise_var bool", "noise_var None", "ridge past the float range"],
    )
    def test_non_number_rejected_by_name(self, change, needle):
        # a string or None ended in a TypeError from a comparison, and a bool ran as 0 or 1
        with pytest.raises(ValueError, match=f"^{needle} must be a number"):
            self.config(**change)

    def test_numbers_of_any_numeric_type_accepted(self):
        cfg = self.config(ridge=0, covariate_var=np.float32(2.0), noise_vars=[1, np.int64(2), np.float64(0.5)])
        assert cfg.ridge == 0 and cfg.scenario.noise_vars == [1, 2, 0.5]
        reals = [cfg.ridge, cfg.scenario.covariate_var, *cfg.scenario.noise_vars]
        assert all(type(v) is float for v in reals)

    @pytest.mark.parametrize(
        "change, needle",
        [
            ({"target": "spline"}, "unknown target 'spline'"),
            ({"noise_vars": [0.1, -1.0]}, "noise_var must be finite and nonnegative, got -1.0"),
            ({"noise_vars": [math.inf]}, "noise_var must be finite and nonnegative, got inf"),
            ({"covariate_var": 0.0}, "covariate_var must be finite and positive, got 0.0"),
            ({"covariate_var": math.nan}, "covariate_var must be finite and positive, got nan"),
            ({"n_unlabeled": -5}, "sample counts must be nonnegative"),
            ({"covariate_columns": []}, "real.covariate_columns must be nonempty"),
        ],
        ids=["target", "noise_var", "noise_var inf", "covariate_var", "covariate_var nan", "n_unlabeled",
             "covariate_columns empty"],
    )
    def test_values_no_draw_can_use_rejected(self, change, needle):
        with pytest.raises(ValueError, match=f"^{re.escape(needle)}"):
            self.config(**change)

    @pytest.mark.parametrize(
        "change, needle",
        [
            ({"n_values": 10}, "synthetic.n must be a list, got 10"),
            ({"noise_vars": 0.1}, "synthetic.noise_var must be a list, got 0.1"),
            ({"criteria": [["FPE"]]}, "criteria must be a string, got ['FPE']"),
            ({"covariate_columns": "ab"}, "real.covariate_columns must be a list, got 'ab'"),
            ({"covariate_columns": 5}, "real.covariate_columns must be a list, got 5"),
        ],
        ids=["n", "noise_var", "criteria", "covariate_columns", "covariate_columns int"],
    )
    def test_grid_that_is_not_a_list_named(self, change, needle):
        # each ended in a TypeError: 'int' or 'float' object is not iterable, or unhashable type: 'list'; a string of
        # covariate columns ran with one column per character
        with pytest.raises(ValueError, match=f"^{re.escape(needle)}$"):
            self.config(**change)

    @pytest.mark.parametrize(
        "change, needle",
        [
            ({"has_header": "false"}, "real.has_header must be true or false, got 'false'"),
            ({"delimiter": ";;"}, "real.delimiter must be a one-character string, got ';;'"),
        ],
        ids=["has_header", "delimiter"],
    )
    def test_manifest_field_of_the_wrong_kind_named(self, change, needle):
        # no check read these: "false" is truthy, so the table's first data row was dropped as a header
        with pytest.raises(ValueError, match=f"^{re.escape(needle)}$"):
            self.config(**change)

    def test_whole_numbers_become_ints(self):
        cfg = self.config(repetitions=2.0, d_max=np.int64(5), master_seed=3.0, n_values=[10.0], n_test=40.0)
        values = cfg.repetitions, cfg.d_max, cfg.master_seed, cfg.scenario.n_values[0], cfg.scenario.n_test
        assert values == (2, 5, 3, 10, 40) and all(type(v) is int for v in values)


MINIMAL_SYNTHETIC_YAML = """
scenario: synthetic
criteria: [FPE]
repetitions: 2
synthetic:
  target: step
  n: 10
  noise_var: 0.1
"""


class TestConfigFile:
    @pytest.mark.parametrize(
        "text, built",
        [
            (MINIMAL_SYNTHETIC_YAML, ExperimentConfig(SyntheticScenario("step", [10], [0.1]), ["FPE"], 2)),
            (REAL_YAML, ExperimentConfig(
                RealScenario("toy", "data/toy.csv", "y", ["x1", "x2"], [20], 50), ["rmDEE"], 2)),
        ],
        ids=["synthetic", "real"],
    )
    def test_required_keys_alone_equal_the_code_built_config(self, tmp_path, text, built):
        # the dataclasses hold the only defaults, so a file that sets none of the optional keys gets theirs, and each
        # key of such a file is required
        raw = yaml.safe_load(text)
        kind = raw["scenario"]
        path = tmp_path / "cfg.yaml"
        for section in (None, kind):
            for key in [k for k in (raw[section] if section else raw) if k != kind]:
                dropped = yaml.safe_load(text)
                (dropped[section] if section else dropped).pop(key)
                path.write_text(yaml.safe_dump(dropped))
                with pytest.raises(ValueError, match=rf"^missing required config key\(s\) \['{key}'\] in {section or 'top'}"):
                    load_config(path)
        path.write_text(text)
        assert load_config(path) == built

    def test_seed_and_repetitions_override_the_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(SYNTHETIC_YAML)
        cfg = load_config(path, master_seed=5, repetitions=3)
        assert (cfg.master_seed, cfg.repetitions) == (5, 3)
        assert load_config(path, repetitions=None).repetitions == 4
        with pytest.raises(ValueError, match="^repetitions must be a whole number"):
            load_config(path, repetitions=2.5)

    def test_synthetic_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(SYNTHETIC_YAML)
        cfg = load_config(path)
        assert cfg.repetitions == 4
        assert cfg.d_max is None
        assert cfg.scenario.n_values == [10, 20]
        assert cfg.scenario.noise_vars == [0.1, 0.3]

    def test_real_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(REAL_YAML)
        cfg = load_config(path)
        assert cfg.scenario.name == "toy"
        assert cfg.scenario.n_values == [20]

    def test_missing_criteria_named(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "scenario: synthetic\nrepetitions: 1\nsynthetic:\n  target: step\n  n: 10\n  noise_var: 0.1\n"
        )
        with pytest.raises(ValueError, match="criteria"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, key, section",
        [
            (SYNTHETIC_YAML.replace("n_unlabeled", "n_unlabled"), "n_unlabled", "synthetic"),
            (SYNTHETIC_YAML + "threads: 2\n", "threads", "top level"),
            (REAL_YAML + "  delimeter: ';'\n", "delimeter", "real"),
        ],
        ids=["synthetic", "top level", "real"],
    )
    def test_unknown_key_rejected(self, tmp_path, text, key, section):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"'{key}'.* in {section}"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, key, section",
        [
            (SYNTHETIC_YAML.replace("  target: step\n", ""), "target", "synthetic"),
            (REAL_YAML.replace("  n_unlabeled: 50\n", ""), "n_unlabeled", "real"),
        ],
        ids=["synthetic", "real"],
    )
    def test_missing_required_key_named(self, tmp_path, text, key, section):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"missing .*'{key}'.* in {section}"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, key",
        [
            (SYNTHETIC_YAML.replace("repetitions: 4", "repetitions: 2.9"), "repetitions"),
            (SYNTHETIC_YAML.replace("repetitions: 4", "repetitions: true"), "repetitions"),
            (SYNTHETIC_YAML.replace("master_seed: 17", "master_seed: 1.5"), "master_seed"),
            (SYNTHETIC_YAML.replace("d_max: auto", "d_max: 7.9"), "d_max"),
            (SYNTHETIC_YAML.replace("n: [10, 20]", "n: [10.7]"), "synthetic.n"),
            (SYNTHETIC_YAML.replace("n: [10, 20]", "n: [10, '20']"), "synthetic.n"),
            (SYNTHETIC_YAML.replace("n_unlabeled: 300", "n_unlabeled: 300.5"), "synthetic.n_unlabeled"),
            (SYNTHETIC_YAML.replace("n_test: 100", "n_test: false"), "synthetic.n_test"),
            (REAL_YAML.replace("n: 20", "n: 20.5"), "real.n"),
            (REAL_YAML.replace("n_unlabeled: 50", "n_unlabeled: .inf"), "real.n_unlabeled"),
        ],
        ids=["repetitions", "repetitions bool", "master_seed", "d_max", "n", "n string", "n_unlabeled", "n_test bool",
             "real n", "real n_unlabeled"],
    )
    def test_non_whole_number_rejected(self, tmp_path, text, key):
        # int() would truncate these: repetitions 2.9 ran 2 repetitions, and true ran 1
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{key} must be a whole number"):
            load_config(path)

    def test_whole_float_accepted(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(SYNTHETIC_YAML.replace("repetitions: 4", "repetitions: 4.0"))
        assert load_config(path).repetitions == 4

    @pytest.mark.parametrize(
        "text, key",
        [
            (SYNTHETIC_YAML.replace("noise_var: [0.1, 0.3]", "noise_var: [0.1, true]"), "synthetic.noise_var"),
            (SYNTHETIC_YAML.replace("noise_var: [0.1, 0.3]", "noise_var: ['0.1']"), "synthetic.noise_var"),
            (SYNTHETIC_YAML.replace("covariate_var: 1.0", "covariate_var: one"), "synthetic.covariate_var"),
            (SYNTHETIC_YAML + "ridge: false\n", "ridge"),
            (SYNTHETIC_YAML + "ridge: [1.0e-9]\n", "ridge"),
        ],
        ids=["noise_var bool", "noise_var string", "covariate_var", "ridge bool", "ridge list"],
    )
    def test_non_number_rejected(self, tmp_path, text, key):
        # float() would take these: noise_var [0.1, true] ran the noise levels 0.1 and 1.0
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{key} must be a number"):
            load_config(path)

    def test_exponent_without_a_decimal_point_read_as_a_number(self, tmp_path):
        # YAML 1.1 loads 1e-9 as a string
        path = tmp_path / "cfg.yaml"
        path.write_text(SYNTHETIC_YAML.replace("noise_var: [0.1, 0.3]", "noise_var: [1e-1, 3E-1]") + "ridge: 1e-9\n")
        cfg = load_config(path)
        assert cfg.scenario.noise_vars == [0.1, 0.3] and cfg.ridge == 1e-9

    @pytest.mark.parametrize(
        "setting, key",
        [
            ("has_header: 'false'", "real.has_header"),
            ("standardize: 'no'", "real.standardize"),
            ("has_header: 0", "real.has_header"),
        ],
        ids=["has_header string", "standardize string", "has_header number"],
    )
    def test_non_boolean_flag_rejected(self, tmp_path, setting, key):
        # bool() would take these as True: a headerless file then lost its first data row as a header
        path = tmp_path / "cfg.yaml"
        path.write_text(REAL_YAML + f"  {setting}\n")
        with pytest.raises(ValueError, match=rf"^{key} must be true or false"):
            load_config(path)

    def test_yaml_booleans_read_as_flags(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(REAL_YAML + "  has_header: false\n  standardize: no\n")
        cfg = load_config(path)
        assert cfg.scenario.has_header is False and cfg.scenario.standardize is False

    @pytest.mark.parametrize("path", sorted(CONFIGS_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        cfg = load_config(path)
        assert cfg.criteria and cfg.repetitions >= 1

    def test_bad_scenario(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("scenario: magic\ncriteria: [FPE]\nrepetitions: 1\n")
        with pytest.raises(ValueError, match="scenario"):
            load_config(path)


WHOLE_TYPES = (int, np.int64, float)  # a whole float is a whole number too
REAL_TYPES = (float, np.float64, np.float32)


def typed(values, types):
    """`values`, each converted to one of `types`."""
    return st.builds(lambda value, kind: kind(value), values, st.sampled_from(types))


def grid(values):
    # distinct as float32 too, so no two values meet once converted
    return st.lists(values, min_size=1, max_size=3, unique_by=lambda v: float(np.float32(v)))


@st.composite
def code_built_configs(draw):
    """A config built in code from valid values: synthetic or real, an automatic or explicit d_max, ridges that JSON
    writes in exponent form, and numbers of any numeric type."""
    d_max = draw(st.none() | typed(st.integers(1, 30), WHOLE_TYPES))
    if draw(st.booleans()):
        scenario = SyntheticScenario(
            draw(st.sampled_from(harness.datagen.TARGETS)),
            draw(grid(typed(st.sampled_from([10, 20, 50]) if d_max is None else st.integers(1, 60), WHOLE_TYPES))),
            draw(grid(typed(st.floats(0, 10), REAL_TYPES))),
            draw(typed(st.floats(1e-3, 1e3), REAL_TYPES)),
            draw(typed(st.integers(0, 2000), WHOLE_TYPES)),
            draw(typed(st.integers(1, 2000), WHOLE_TYPES)),
        )
    else:
        column = st.text() | st.integers(0, 2**63 - 1)
        manifest = dict(
            name=draw(st.text()), path=draw(st.text()), response_column=draw(column),
            covariate_columns=draw(st.lists(column, min_size=1, max_size=3)),
            delimiter=draw(st.characters()), has_header=draw(st.booleans()),
        )
        n_values = draw(grid(typed(st.integers(2 if d_max is None else 1, 60), WHOLE_TYPES)))
        scenario = RealScenario(
            **manifest, n_values=n_values, n_unlabeled=draw(typed(st.integers(0, 2000), WHOLE_TYPES)),
            standardize=draw(st.booleans()),
        )
    ridge = st.sampled_from([0.0, 1e-9, 1e-12]) | st.floats(1e-30, 1e-5) | st.floats(0, 1e3)
    return ExperimentConfig(
        scenario, draw(st.lists(st.sampled_from(sorted(CRITERIA)), min_size=1, unique=True)),
        draw(typed(st.integers(1, 1000), WHOLE_TYPES)), d_max, draw(typed(ridge, REAL_TYPES)),
        draw(typed(st.integers(0, 2**63 - 1), WHOLE_TYPES)), draw(st.text()),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=code_built_configs())
def test_meta_config_reloads_to_an_equal_config(cfg):
    # meta.json's config is JSON, which is YAML, in the file's own keys
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(harness._config_dict(cfg), indent=2, sort_keys=True) + "\n")
        assert load_config(path) == cfg


@pytest.mark.parametrize("path", sorted(CONFIGS_DIR.glob("synthetic_*.yaml")), ids=lambda p: p.name)
def test_shipped_config_reruns_from_its_meta(path, tmp_path):
    cfg = load_config(path, repetitions=2)
    first = run_to_dir(cfg, tmp_path / "first")
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps(json.loads((first / "meta.json").read_text())["config"]))
    assert load_config(rerun) == cfg
    second = run_to_dir(load_config(rerun), tmp_path / "second")
    for name in ("summary.csv", "trials.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_relative_table_path_reruns_from_another_directory(tmp_path, monkeypatch):
    # the path is resolved when the config is checked, so meta.json's config names the table from anywhere
    toy_table(tmp_path / "toy.csv")
    (tmp_path / "exp.yaml").write_text(REAL_YAML.replace("data/toy.csv", "toy.csv"))
    monkeypatch.chdir(tmp_path)
    cfg = load_config("exp.yaml")
    assert cfg.scenario.path == str(tmp_path / "toy.csv")
    first = run_to_dir(cfg, tmp_path / "first")
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps(json.loads((first / "meta.json").read_text())["config"]))
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    assert load_config(rerun) == cfg
    second = run_to_dir(load_config(rerun), tmp_path / "second")
    for name in ("summary.csv", "trials.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


class TestTrialDataSharing:
    def test_block_criteria_jitter_the_block_stack_once(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # `calls` counts only the calls of this process
        calls = []
        jittered = estimators._jittered
        monkeypatch.setattr(estimators, "_jittered", lambda mats, ridge: calls.append(None) or jittered(mats, ridge))
        run_experiment(small_config(criteria=sorted(BLOCK_CRITERIA), repetitions=1))
        assert len(calls) == 1

    def test_all_criteria_see_same_path(self):
        # regenerate the trial inputs and check the shared per-d test errors
        cfg = small_config(criteria=["FPE", "cAIC"], repetitions=1)
        trials, _ = run_experiment(cfg)
        t = trials[0]
        errors = np.asarray(t.test_errors)
        for name in ("FPE", "cAIC"):
            assert 1 <= t.d_hat[name] <= len(errors)
            expected = math.log(errors[t.d_hat[name] - 1] / errors.min())
            assert t.regret[name] == pytest.approx(expected, abs=1e-12)
