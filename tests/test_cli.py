import contextlib
import csv
import dataclasses
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdee
from mdee import cli, harness, ingest, oracle
from mdee.cli import main

CONFIG = """
scenario: synthetic
criteria: [mDEE3, FPE]
repetitions: 2
master_seed: 21
synthetic:
  target: step
  n: 10
  noise_var: 0.1
  n_unlabeled: 150
  n_test: 40
"""


REAL_CONFIG = """
scenario: real
criteria: [FPE]
repetitions: 1
real:
  name: toy
  path: {path}
  response_column: y
  covariate_columns: [x]
  n: 10
  n_unlabeled: 20
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG)
    return path


def no_draws(*args, **kwargs):
    raise AssertionError("oracle draws started")


def assert_input_error(capsys, argv, needle):
    """`mdee argv` exits 2 with one `mdee: error:` line on stderr naming `needle`."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("mdee: error: ")
    assert needle in err
    assert "Traceback" not in err


class TestRunCommand:
    def test_writes_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        assert (out / "trials.csv").exists()
        assert (out / "meta.json").exists()

    def test_reps_override(self, config_path, tmp_path):
        out = tmp_path / "results"
        main(["run", str(config_path), "--out", str(out), "--reps", "1"])
        lines = (out / "trials.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one trial x two criteria

    def test_repetitions_set_by_reps_alone(self, tmp_path, capsys):
        # the file's missing repetitions used to be read as 0 and rejected before --reps was applied
        path, out = tmp_path / "exp.yaml", tmp_path / "r"
        path.write_text(CONFIG.replace("repetitions: 2\n", ""))
        assert main(["run", str(path), "--out", str(out), "--reps", "2"]) == 0
        with open(out / "trials.csv", newline="") as handle:
            assert sorted({row["trial"] for row in csv.DictReader(handle)}) == ["0", "1"]
        assert_input_error(capsys, ["run", str(path), "--out", str(tmp_path / "s")], "'repetitions'")
        assert not (tmp_path / "s").exists()

    def test_out_that_is_a_file_rejected_before_any_trial(self, config_path, tmp_path, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(harness, "_trial", no_trials)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert_input_error(capsys, ["run", str(config_path), "--out", str(out)], str(out))
        assert out.read_text() == "not a directory\n"

    def test_zero_reps_rejected(self, config_path, tmp_path, capsys):
        argv = ["run", str(config_path), "--out", str(tmp_path / "r"), "--reps", "0"]
        assert_input_error(capsys, argv, "repetitions")

    def test_missing_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text(CONFIG.replace("  target: step\n", ""))
        assert_input_error(capsys, ["run", str(path), "--out", str(tmp_path / "r")], "'target'")
        assert not (tmp_path / "r").exists()

    def test_invalid_yaml_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_text("scenario: [synthetic\n")
        assert_input_error(capsys, ["run", str(path), "--out", str(tmp_path / "r")], "not valid YAML")
        assert not (tmp_path / "r").exists()

    def test_missing_data_file_rejected(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(harness, "_trial", no_trials)
        path = tmp_path / "exp.yaml"
        path.write_text(REAL_CONFIG.format(path=tmp_path / "missing.csv"))
        assert_input_error(capsys, ["run", str(path), "--out", str(tmp_path / "r")], "missing.csv")
        assert not (tmp_path / "r").exists()

    def test_empty_data_file_rejected(self, tmp_path, capsys):
        data, path = tmp_path / "empty.csv", tmp_path / "exp.yaml"
        data.write_text("")
        path.write_text(REAL_CONFIG.format(path=data))
        assert_input_error(capsys, ["run", str(path), "--out", str(tmp_path / "r")], "empty.csv' is empty")
        assert not (tmp_path / "r").exists()

    def test_table_that_is_not_utf8_named(self, tmp_path, capsys):
        data, path = tmp_path / "toy.csv", tmp_path / "exp.yaml"
        rows = "x,y\n" + "".join(f"{i / 40},{i % 3}\n" for i in range(40)) + "0.5,caf\u00e9\n"
        data.write_bytes(rows.encode("latin-1"))
        path.write_text(REAL_CONFIG.format(path=data))
        assert_input_error(capsys, ["run", str(path), "--out", str(tmp_path / "r")], f"{data}, line 42: not UTF-8 text")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "n_unlabeled, needle",
        [("-5", "n_unlabeled must be >= 0, got -5"), ("30", "n=10 plus n_unlabeled=30 leaves no test row of the 40")],
        ids=["negative", "no test row"],
    )
    def test_real_counts_rejected_before_any_output(self, n_unlabeled, needle, tmp_path, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(harness, "_trial", no_trials)
        data, path = tmp_path / "toy.csv", tmp_path / "exp.yaml"
        data.write_text("x,y\n" + "".join(f"{i / 40},{i % 3}\n" for i in range(40)))
        path.write_text(REAL_CONFIG.format(path=data).replace("n_unlabeled: 20", f"n_unlabeled: {n_unlabeled}"))
        assert_input_error(capsys, ["run", str(path), "--out", str(tmp_path / "r")], needle)
        assert not (tmp_path / "r").exists()

    def test_real_table_parsed_once(self, tmp_path, monkeypatch):
        loads = []
        load_csv = ingest.load_csv

        def counted(manifest):
            loads.append(manifest)
            return load_csv(manifest)

        monkeypatch.setattr(ingest, "load_csv", counted)
        data, path = tmp_path / "toy.csv", tmp_path / "exp.yaml"
        data.write_text("x,y\n" + "".join(f"{i / 40},{i % 3}\n" for i in range(40)))
        path.write_text(REAL_CONFIG.format(path=data))
        assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 0
        assert len(loads) == 1

    def test_real_counts_leaving_one_test_row_run(self, tmp_path):
        data, path = tmp_path / "toy.csv", tmp_path / "exp.yaml"
        data.write_text("x,y\n" + "".join(f"{i / 40},{i % 3}\n" for i in range(40)))
        path.write_text(REAL_CONFIG.format(path=data).replace("n_unlabeled: 20", "n_unlabeled: 29"))
        assert main(["run", str(path), "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "trials.csv").exists()

    def test_seed_override_changes_output(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(config_path), "--out", str(out_a)])
        main(["run", str(config_path), "--out", str(out_b), "--seed", "22"])
        assert (out_a / "trials.csv").read_text() != (out_b / "trials.csv").read_text()


RUN = ["run", "{config}", "--out", "{out}"]
# Cases that change text CONFIG does not hold run on REAL_CONFIG; the others on CONFIG.
REAL_COLUMNS = "covariate_columns: [x]"


@pytest.mark.parametrize(
    "old, new, argv, needle",
    [
        pytest.param("target: step", "target: foo", RUN, "'foo'", id="target"),
        pytest.param("noise_var: 0.1", "noise_var: [-0.1]", RUN, "noise_var", id="noise_var"),
        pytest.param("n_test: 40", "n_test: 40\n  covariate_var: 0", RUN, "covariate_var", id="covariate_var"),
        pytest.param("n_unlabeled: 150", "n_unlabeled: -5", RUN, "nonnegative", id="n_unlabeled"),
        pytest.param("n_test: 40", "n_test: 0", RUN, "n_test", id="n_test"),
        pytest.param("n: 10", "n: [0]", RUN, "every n", id="n"),
        pytest.param("repetitions: 2", "repetitions: 2\nd_max: 0", RUN, "d_max", id="d_max"),
        pytest.param("repetitions: 2", "repetitions: 2\nridge: -1.0", RUN, "ridge", id="ridge"),
        pytest.param("repetitions: 2", "repetitions: 2\nridge: .inf", RUN, "ridge", id="ridge inf"),
        pytest.param("noise_var: 0.1", "noise_var: [.inf]", RUN, "noise_var", id="noise_var inf"),
        pytest.param("n_test: 40", "n_test: 40\n  covariate_var: .inf", RUN, "covariate_var", id="covariate_var inf"),
        pytest.param("master_seed: 21", "master_seed: -1", RUN, "master_seed", id="master_seed"),
        pytest.param("criteria: [mDEE3, FPE]", "criteria: [FPE, FPE]", RUN, "criteria repeats", id="criteria twice"),
        pytest.param("n: 10", "n: [10, 10]", RUN, "n repeats", id="n twice"),
        pytest.param("noise_var: 0.1", "noise_var: [0.1, 0.1]", RUN, "noise_var repeats", id="noise_var twice"),
        pytest.param(None, None, RUN + ["--seed", "-5"], "master_seed", id="run --seed"),
        pytest.param(REAL_COLUMNS, REAL_COLUMNS + "\n  delimiter: ';;'", RUN, "real.delimiter", id="delimiter ;;"),
        pytest.param(REAL_COLUMNS, REAL_COLUMNS + "\n  delimiter: ''", RUN, "real.delimiter", id="delimiter empty"),
        pytest.param(REAL_COLUMNS, REAL_COLUMNS + "\n  delimiter: 5", RUN, "real.delimiter", id="delimiter 5"),
        *[
            pytest.param("criteria: [mDEE3, FPE]", f"criteria: {value}", RUN, "criteria", id=f"criteria {value}")
            for value in ("5", "-1", "true", "1.5", ".nan")
        ],
        *[
            pytest.param("path: {path}", f"path: {value}", RUN, "real.path", id=f"path {value}")
            for value in ("[x]", "5", "true", "null")
        ],
        pytest.param("name: toy", "name: [a, b]", RUN, "real.name", id="name [a, b]"),
        *[
            pytest.param(REAL_COLUMNS, f"covariate_columns: {value}", RUN, "real.covariate_columns", id=f"columns {value}")
            for value in ("-1", "true", "1.5", ".nan", "null", "[x, -2]", "{x: 1}")
        ],
        pytest.param("n: 10", "n: []", RUN, "n must be nonempty", id="n empty"),
        pytest.param("noise_var: 0.1", "noise_var: []", RUN, "noise_var must be nonempty", id="noise_var empty"),
        pytest.param(REAL_COLUMNS + "\n  n: 10", REAL_COLUMNS + "\n  n: []", RUN, "n must be nonempty", id="real n empty"),
        pytest.param(REAL_COLUMNS + "\n  n: 10", REAL_COLUMNS + "\n  n: [1]", RUN, "real.n", id="real n 1"),
        pytest.param("n: 10", "n: 5", RUN, "set d_max explicitly", id="n without a d_max rule"),
        pytest.param(
            "response_column: y", "response_column: 100000000000000000000\n  has_header: false", RUN,
            "real.response_column", id="response_column 10**20",
        ),
        pytest.param("n_test: 40", "n_test: 10000000000000", RUN, "n_test is too large", id="n_test 1e13"),
        pytest.param("n_unlabeled: 150", "n_unlabeled: 1.0e+13", RUN, "n_unlabeled is too", id="n_unlabeled 1e13"),
        pytest.param("repetitions: 2", "repetitions: 2\nd_max: 10000000000000", RUN, "d_max is too", id="d_max 1e13"),
        pytest.param("repetitions: 2", "repetitions: 2\nridge: 1.0e+308", RUN, "ridge", id="ridge 1e308"),
        *[
            pytest.param("master_seed: 21", f"master_seed: 21\noutput_dir: {v}", RUN, "output_dir", id=f"output_dir {v}")
            for v in ("[a, b]", "null")
        ],
        pytest.param(None, None, ["oracle", "--theorem", "2", "--reps", "300", "--seed", "-1"], "seed", id="oracle --seed"),
        pytest.param(None, None, ["oracle", "--theorem", "2", "--noise-sd", "nan"], "noise_sd", id="oracle --noise-sd nan"),
        pytest.param(None, None, ["oracle", "--theorem", "2", "--noise-sd", "inf"], "noise_sd", id="oracle --noise-sd inf"),
        pytest.param(None, None, ["oracle", "--theorem", "2", "--noise-sd", "0"], "noise_sd", id="oracle --noise-sd 0"),
        *[
            # overflow past the top of the range; below it the training loss is the fit's rounding floor
            pytest.param(None, None, ["oracle", "--theorem", "2", "--noise-sd", v], "noise_sd", id=f"oracle --noise-sd {v}")
            for v in ("1e100", "1e308", "1e-60", "1e-160")
        ],
        pytest.param(
            None, None, ["oracle", "--theorem", "4", "--noise-sd", "0"], "noise_sd", id="oracle --theorem 4 --noise-sd 0"
        ),
        pytest.param(
            None, None, ["oracle", "--theorem", "2", "--reps", "50", "--n", "100000000000"], "n is too large",
            id="oracle --n 1e11",
        ),
        pytest.param(
            None, None, ["oracle", "--theorem", "2", "--reps", "100000000"], "reps is too large", id="oracle --reps 1e8",
        ),
        pytest.param(
            None, None, ["oracle", "--theorem", "4", "--reps", "100", "--blocks", "100000000", "--moment-blocks", "100"],
            "--blocks is too large", id="oracle --blocks 1e8",
        ),
        pytest.param(
            None, None, ["oracle", "--theorem", "4", "--reps", "100", "--moment-blocks", "100000000"],
            "--moment-blocks is too large", id="oracle --moment-blocks 1e8",
        ),
    ],
)
def test_bad_value_rejected_before_any_output(old, new, argv, needle, tmp_path, capsys, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(harness, "_trial", no_trials)
    monkeypatch.setattr(oracle, "mc_risk_ratio", no_draws)
    monkeypatch.setattr(oracle, "mc_block_moments", no_draws)
    path, out = tmp_path / "exp.yaml", tmp_path / "r"
    base = REAL_CONFIG if old is not None and old not in CONFIG else CONFIG
    if old is not None:
        assert old in base
    text = base if old is None else base.replace(old, new)
    path.write_text(text.replace("{path}", str(tmp_path / "toy.csv")))
    assert_input_error(capsys, [arg.format(config=path, out=out) for arg in argv], needle)
    assert not out.exists()


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))
REPEAT, DROP = "repeated list", "dropped"  # a list naming the field's value twice, and the field left out
ODD_VALUES = [0, -1, 1.5, True, "x", None, [], REPEAT, DROP, 1e13, 2**63]


def _with_changes(raw: dict, changes) -> dict:
    """`raw` with each ((section or None, key), odd value) change made, sections' keys before top-level ones."""
    for (section, key), value in sorted(changes, key=lambda change: change[0][0] is None):
        fields = raw if section is None else raw[section]
        if value == DROP:
            fields.pop(key, None)
        elif value == REPEAT:
            old = fields.get(key)
            fields[key] = old * 2 if isinstance(old, list) else [old, old]
        else:
            fields[key] = value
    return raw


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_odd_config_values_run_or_fail_before_any_output(data):
    # A shipped config with one or two fields changed to an odd value either runs and writes its three files, or
    # stops with one error line before the output directory exists; nothing in between, such as a traceback.
    config = data.draw(st.sampled_from(SHIPPED_CONFIGS), label="config")
    raw = yaml.safe_load(config.read_text())
    kind = raw["scenario"]
    fields = [(None, key) for key in harness.SCHEMA[None]] + [(kind, key) for key in harness.SCHEMA[kind]]
    change = st.tuples(st.sampled_from(fields), st.sampled_from(ODD_VALUES))
    changes = data.draw(st.lists(change, min_size=1, max_size=2, unique_by=lambda c: c[0]), label="changes")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if kind == "real":  # an abalone-shaped table: 9 numeric columns, no header, rows for n 50 + 1300 unlabeled
            table = tmp / "table.data"
            np.savetxt(table, np.random.default_rng(0).normal(size=(1400, 9)), fmt="%.5f", delimiter=",")
            raw["real"]["path"] = str(table)
        path, out, err = tmp / "exp.yaml", tmp / "out", io.StringIO()
        path.write_text(yaml.safe_dump(_with_changes(raw, changes)))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", str(out), "--reps", "1"])
        if code == 0:
            assert sorted(p.name for p in out.iterdir()) == ["meta.json", "summary.csv", "trials.csv"]
        else:
            assert code == 2 and not out.exists()
            assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("mdee: error: ")


ORACLE_BASE = {2: ["--reps", "20"], 4: ["--reps", "100", "--moment-blocks", "100"]}
# Odd values of each `mdee oracle` option that argparse reads. Those the oracle accepts keep every draw small; the
# large counts are 1e9 or more, past the cell cap at every d, so the cap answers rather than a long run.
ODD_ORACLE = [
    (option, value)
    for option, values in {
        "--reps": ["0", "1", "2", "99", "100", "1000000000"],
        "--seed": ["-1", "0", str(2**63), str(2**64)],
        "--n": ["0", "1", "3", "4", "100000000000"],
        "--d": ["0", "-1", "1", "2", "19", "20"],
        "--noise-sd": ["0", "-1", "nan", "inf", "1e-160", "1e-60", "1e-7", "1e-6", "1e60", "1e77", "1e100", "1e308"],
        "--blocks": ["0", "1", "2", "11", "1000000000"],
        "--b1": ["0", "-1", "1", "29", "30"],
        "--moment-blocks": ["0", "99", "100", "1000000000"],
    }.items()
    for value in values
]


@settings(max_examples=100, deadline=None)
@given(
    theorem=st.sampled_from([2, 4]),
    changes=st.lists(st.sampled_from(ODD_ORACLE), min_size=1, max_size=2, unique_by=lambda change: change[0]),
)
@example(theorem=2, changes=[("--noise-sd", "1e100")])
@example(theorem=2, changes=[("--noise-sd", "1e308")])
@example(theorem=2, changes=[("--noise-sd", "1e77")])
@example(theorem=2, changes=[("--noise-sd", "1e-60")])
@example(theorem=2, changes=[("--noise-sd", "1e-160")])
@example(theorem=4, changes=[("--noise-sd", "0")])
@example(theorem=2, changes=[("--noise-sd", "1e60")])
@example(theorem=2, changes=[("--noise-sd", "1e-6")])
def test_odd_oracle_arguments_check_or_fail_before_any_output(theorem, changes):
    # `mdee oracle` with one or two odd arguments prints its check lines and exits 0 or 1 with nothing on stderr,
    # or stops with one error line before any check; nothing in between, such as a traceback or a numpy warning.
    argv = ["oracle", "--theorem", str(theorem), "--seed", "1", *ORACLE_BASE[theorem]]
    for option, value in changes:
        argv += [option, value]
    config = cli._oracle_config
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        # the CLI's 10k test rows and 1M population rows, cut to keep each example short; the config is checked again
        patch.setattr(cli, "_oracle_config", lambda args: dataclasses.replace(config(args), n_test=200, c_draws=20_000))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if code in (0, 1):
        lines = out.getvalue().splitlines()
        assert err.getvalue() == "" and len(lines) == (4 if theorem == 2 else 5)
        assert all(line.startswith(("  [ok] ", "  [FAIL] ")) for line in lines[1:-1])
    else:
        assert code == 2 and out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("mdee: error: ")


REPORT_TRIALS = Path(__file__).resolve().parent / "data" / "golden" / "synthetic_step_n10" / "seed0" / "trials.csv"
REPORT_ROWS = list(csv.reader(REPORT_TRIALS.read_text().splitlines()))
ODD_CELLS = ["", "nan", "inf", "-inf", "1e999", "-1", "1.5", "x", "a,b", '"', "\n", "n", "criterion", "regret"]
# row changes: dropped, repeated, a blank line before it, its last cell dropped, an extra cell
ROW_CHANGES = ["drop", "repeat", "blank", "short", "long"]


def _changed_trials(change) -> bytes:
    """REPORT_TRIALS with one cell, row or header field changed, or encoded otherwise, as the bytes of a file."""
    kind, line, column, value = change
    rows = [list(row) for row in REPORT_ROWS]
    encoding = "utf-8"
    if kind == "cell":
        rows[line][column] = value
    elif kind == "encoding":
        rows[line][column] += "\u00e9"
        encoding = value
    elif value == "drop":
        del rows[line]
    elif value in ("repeat", "blank"):
        rows.insert(line, list(rows[line]) if value == "repeat" else [])
    else:
        rows[line] = rows[line][:-1] if value == "short" else rows[line] + [""]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode(encoding)


@settings(max_examples=100, deadline=None)
@given(
    change=st.one_of(
        st.tuples(st.just("cell"), st.integers(0, len(REPORT_ROWS) - 1), st.integers(0, len(REPORT_ROWS[0]) - 1),
                  st.sampled_from(ODD_CELLS)),
        st.tuples(st.just("row"), st.integers(1, len(REPORT_ROWS) - 1), st.just(0), st.sampled_from(ROW_CHANGES)),
        st.tuples(st.just("encoding"), st.integers(0, 1), st.just(0), st.sampled_from(["utf-8-sig", "latin-1"])),
    )
)
@example(change=("cell", 0, 1, "target"))  # a header naming target twice
@example(change=("cell", 5, 6, "inf"))
@example(change=("cell", 5, 6, "-inf"))
@example(change=("cell", 5, 6, "nan"))
@example(change=("encoding", 0, 0, "utf-8-sig"))  # a byte-order mark
@example(change=("encoding", 1, 0, "latin-1"))
def test_changed_trials_report_or_fail_with_one_line(change):
    # `mdee report` on a shipped run's trials.csv with one cell, row or header field changed writes a summary with
    # nothing on stderr, or stops with one error line; nothing in between, such as a traceback or a numpy warning.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.csv"
        path.write_bytes(_changed_trials(change))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["report", str(path)])
    if code == 0:
        header = out.getvalue().splitlines()[0].split(",")
        assert err.getvalue() == "" and len(set(header)) == len(header) and "\ufeff" not in header[0]
    else:
        assert code == 2 and out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("mdee: error: ")


class TestReportCommand:
    def test_round_trip(self, config_path, tmp_path, capsys):
        out = tmp_path / "results"
        main(["run", str(config_path), "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out / "trials.csv")]) == 0
        printed = capsys.readouterr().out.splitlines()
        original = (out / "summary.csv").read_text().splitlines()
        assert printed[0] == original[0]
        assert len(printed) == len(original)

    def test_out_that_is_a_directory_named(self, tmp_path, capsys):
        assert_input_error(capsys, ["report", str(REPORT_TRIALS), "--out", str(tmp_path)], str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_missing_columns_named(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text("a,b\n1,2\n")
        assert_input_error(capsys, ["report", str(path)], "'criterion'")

    def test_header_only_file_named(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text("n,trial,criterion,d_hat,regret,flags\n")
        assert_input_error(capsys, ["report", str(path)], f"{path}: no trial rows")

    def test_non_numeric_regret_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text("n,trial,criterion,d_hat,regret,flags\n10,0,FPE,2,0.1,\n10,1,FPE,3,abc,\n")
        assert_input_error(capsys, ["report", str(path)], f"{path}, line 3: regret 'abc'")

    @pytest.mark.parametrize(
        "row, cells",
        [("10,1,FPE,3,0.2", 5), ("10,1,FPE,3,0.2,,extra", 7)],
        ids=["flags cell missing", "extra cell"],
    )
    def test_row_of_the_wrong_width_names_its_line(self, row, cells, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text(f"n,trial,criterion,d_hat,regret,flags\n10,0,FPE,2,0.1,\n{row}\n")
        assert_input_error(capsys, ["report", str(path)], f"{path}, line 3: {cells} cells, the header has 6")

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("n,n,trial,criterion,d_hat,regret,flags\n10,10,0,FPE,2,0.1,\n", "line 1: the header names ['n'] more than once"),
            ("n,trial,criterion,d_hat,regret,flags\n10,0,FPE,2,0.1,\n10,1,FPE,2,inf,\n", "line 3: regret 'inf' is infinite"),
            ("n,trial,criterion,d_hat,regret,flags\n10,0,FPE,2,-1e999,\n", "line 2: regret '-1e999' is infinite"),
        ],
        ids=["header names a column twice", "inf", "-inf"],
    )
    def test_bad_trials_named_with_their_line(self, text, needle, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text(text)
        assert_input_error(capsys, ["report", str(path)], f"{path}, {needle}")

    def test_file_that_is_not_utf8_named(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_bytes("n,trial,criterion,d_hat,regret,flags\n10,0,F\u00c9,2,0.1,\n".encode("latin-1"))
        assert_input_error(capsys, ["report", str(path)], f"{path}, line 2: not UTF-8 text")

    def test_byte_order_mark_and_nan_regret_read(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text("n,trial,criterion,d_hat,regret,flags\n10,0,FPE,2,nan,degenerate_regret\n", encoding="utf-8-sig")
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["n,criterion,median,iqr,n_trials", "10,FPE,nan,nan,1"]

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text("n,trial,criterion,d_hat,regret,flags\n10,0,FPE,2,0.1,\n\n10,1,FPE,3,0.3,\n")
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",2")


class TestOracleCommand:
    def test_theorem_2(self, capsys):
        assert main(["oracle", "--theorem", "2", "--reps", "300", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "risk ratio" in out and "[ok]" in out

    def test_theorem_4(self, capsys):
        code = main(
            [
                "oracle",
                "--theorem",
                "4",
                "--reps",
                "400",
                "--seed",
                "4",
                "--blocks",
                "8",
                "--b1",
                "3",
                "--moment-blocks",
                "4000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "disjoint-split bias" in out
        assert "shared-pool bias" in out
        assert "disjoint-split variance vs closed form" in out

    @pytest.mark.parametrize("args", [["--n", "3", "--d", "3"], ["--d", "0"]], ids=["d=n", "d=0"])
    def test_model_size_rejected(self, args, capsys):
        assert_input_error(capsys, ["oracle", "--theorem", "2", "--reps", "300"] + args, "1 <= d < n")

    def test_b1_checked_before_the_block_loop(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "mc_block_moments", no_draws)
        for b1 in ("0", "30"):
            assert_input_error(capsys, ["oracle", "--theorem", "4", "--reps", "400", "--b1", b1], "--b1")

    def test_theorem_2_needs_two_reps(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "mc_risk_ratio", no_draws)
        assert_input_error(capsys, ["oracle", "--theorem", "2", "--reps", "1"], "--reps >= 2")

    def test_theorem_4_reps_checked_before_the_block_loop(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "mc_block_moments", no_draws)
        assert_input_error(capsys, ["oracle", "--theorem", "4", "--reps", "50"], "--reps >= 100")

    def test_moment_blocks_checked_before_the_block_loop(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "mc_block_moments", no_draws)
        argv = ["oracle", "--theorem", "4", "--reps", "400", "--moment-blocks", "99"]
        assert_input_error(capsys, argv, "--moment-blocks >= 100")

    def test_moment_blocks_floor_accepted(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "mc_block_moments", no_draws)
        with pytest.raises(AssertionError, match="oracle draws started"):
            main(["oracle", "--theorem", "4", "--reps", "400", "--moment-blocks", "100"])
        assert capsys.readouterr().err == ""

    def test_value_error_after_work_starts_propagates(self, monkeypatch):
        def failing_check(cfg):
            raise ValueError("late failure")

        monkeypatch.setattr(oracle, "mc_risk_ratio", failing_check)
        with pytest.raises(ValueError, match="late failure"):
            main(["oracle", "--theorem", "2", "--reps", "300"])


def test_entry_point_prints_one_line_without_traceback():
    src = str(Path(mdee.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "mdee.cli", "oracle", "--theorem", "2", "--d", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["mdee: error: oracle needs 1 <= d < n, got d=0, n=20"]
    assert proc.stdout == ""
