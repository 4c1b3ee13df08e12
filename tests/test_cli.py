import pytest

from mdee import oracle
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


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG)
    return path


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

    def test_zero_reps_rejected(self, config_path, tmp_path):
        with pytest.raises(ValueError, match="repetitions"):
            main(["run", str(config_path), "--out", str(tmp_path / "r"), "--reps", "0"])

    def test_seed_override_changes_output(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(config_path), "--out", str(out_a)])
        main(["run", str(config_path), "--out", str(out_b), "--seed", "22"])
        assert (out_a / "trials.csv").read_text() != (out_b / "trials.csv").read_text()


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

    def test_missing_columns_named(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="missing .*'criterion'"):
            main(["report", str(path)])


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
    def test_model_size_rejected(self, args):
        with pytest.raises(ValueError, match="1 <= d < n"):
            main(["oracle", "--theorem", "2", "--reps", "300"] + args)

    def test_b1_checked_before_the_block_loop(self, monkeypatch):
        def no_loop(*args, **kwargs):
            raise AssertionError("block loop started")

        monkeypatch.setattr(oracle, "mc_block_moments", no_loop)
        for b1 in ("0", "30"):
            with pytest.raises(ValueError, match="--b1"):
                main(["oracle", "--theorem", "4", "--reps", "400", "--b1", b1])
