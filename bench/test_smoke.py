"""Smoke test: every workload emits every metric BENCHMARK.json names.

Runs each workload at its smoke size (one trial per grid cell, 100 oracle
replications, one batch per mode), with tracing off and on, through the
same command the benchmark is run with. Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Each workload's throughput also prints under the name the paper's users know.
THROUGHPUT_NAMES = {
    "grid_step": "trials_per_s",
    "real_m7": "trials_per_s",
    "oracle_ratio": "oracle_ratio_reps_per_s",
    "oracle_moment": "oracle_moment_reps_per_s",
}


def run_bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result, stdout = run_bench(
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    # Failure share and regret drift are 0 on a healthy run, so they carry no
    # relative bound in BENCHMARK.json; they are printed on every run instead.
    assert f"{THROUGHPUT_NAMES[workload]} = " in stdout
    assert "ops_failed_frac = " in stdout
    if not workload.startswith("oracle"):
        assert "regret_drift_max = " in stdout
    if trace:
        assert result["metrics"]["trace.accounted_frac"]["value"] > 0.95
        if workload.startswith("oracle"):
            assert result["metrics"]["estimators.mdee3_ms"]["value"] == 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
