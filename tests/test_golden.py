"""Golden outputs: `summary.csv` and `trials.csv` of small fixed runs, byte for byte.

Three configs run at 3 repetitions with master seeds 0 and 1: the `grid_step`
slice of the paper grid (step target, n = 10/20/50, noise variance 0.1, all 9
criteria) and the two shipped `configs/synthetic_*.yaml` files as they are. The
recorded files live under `tests/data/golden/<config>/seed<seed>/`.

A change that leaves the numerics alone must reproduce them exactly. A change
that declares a numerics change (one that moves low-order float bits, such as
the triangular-factor route of ROADMAP direction 2) re-records them in the
same change and lists every changed line in CHANGES.md; the files are never
rewritten silently. To re-record, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from mdee.harness import load_config, run_to_dir

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
ALL_CRITERIA = ["FPE", "cAIC", "ADJ", "CV5", "DEE", "mDEE1", "mDEE2", "mDEE3", "rmDEE"]
CONFIGS = ("grid_step", "synthetic_sinc_n10", "synthetic_step_n10")
SEEDS = (0, 1)
REPETITIONS = 3
FILES = ("summary.csv", "trials.csv")


def golden_config(name: str, seed: int):
    if name == "grid_step":
        cfg = load_config(ROOT / "configs" / "synthetic_step_n10.yaml")
        cfg.criteria = list(ALL_CRITERIA)
        cfg.scenario.n_values = [10, 20, 50]
        cfg.scenario.noise_vars = [0.1]
    else:
        cfg = load_config(ROOT / "configs" / f"{name}.yaml")
    cfg.repetitions = REPETITIONS
    cfg.master_seed = seed
    return cfg


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_match_recorded(name, seed, tmp_path):
    out = run_to_dir(golden_config(name, seed), tmp_path)
    for file in FILES:
        recorded = (GOLDEN / name / f"seed{seed}" / file).read_bytes()
        assert (out / file).read_bytes() == recorded, f"{name} seed {seed}: {file} differs from the recorded file"


def record() -> None:
    for name in CONFIGS:
        for seed in SEEDS:
            target = GOLDEN / name / f"seed{seed}"
            out = run_to_dir(golden_config(name, seed), target)
            (out / "meta.json").unlink()
            print(f"recorded {target}")


if __name__ == "__main__":
    sys.exit(record())
