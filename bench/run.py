"""mdee benchmark: one workload run, end-to-end or traced per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload grid_step --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20     # every workload
    python3 bench/run.py --workload oracle_ratio --smoke          # tiny sizes

Each workload runs in a fresh worker process (worker.py) with BLAS pinned to
one thread; set-up time is the median of fresh interpreters timed by
probe.py. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. See README.md in this directory for why each
workload exists and which layer metric should move which end-to-end metric.
This file imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
WORKER_GRACE_S = 120.0
# The traced run must account for at least this share of its wall time.
MIN_ACCOUNTED = 0.95

END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
OP_NAMES = {
    "grid_step": ("trials_per_s", "trials"),
    "real_m7": ("trials_per_s", "trials"),
    "oracle_ratio": ("oracle_ratio_reps_per_s", "theorem-2 replications"),
    "oracle_moment": ("oracle_moment_reps_per_s", "theorem-4 mc_H_moments replications"),
}
WORKLOADS = tuple(OP_NAMES)


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_frac") or name == "trace_overhead":
        return "ratio"
    if name == "check.regret_drift_max":
        return "nats"
    return "count"


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def run_worker(args, workdir: Path) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(
        cmd, env=_worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=args.seconds + WORKER_GRACE_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def setup_seconds(args, workdir: Path) -> float:
    """Median time from spawning a fresh interpreter to mdee being ready."""
    config = workdir / f"{args.workload}.yaml"
    cmd = [sys.executable, str(BENCH / "probe.py")] + ([str(config)] if config.exists() else [])
    samples = []
    probes = 1 if args.smoke else SETUP_PROBES
    for i in range(probes + 1):  # the first one warms the file cache and bytecode
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_worker_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=10)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with code {code}")
        if i > 0:
            samples.append(elapsed)
    return statistics.median(samples)


def report(args, result: dict, setup_s: float | None) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    failed_frac = failed / attempted if attempted else 1.0
    alias, ops = OP_NAMES[args.workload]
    checks = {
        "check.ops_failed_frac": failed_frac,
        "check.regret_drift_max": result["regret_drift_max"],
    }
    print(f"# {args.workload}: {alias} = {result['ops_per_s']:.6g} 1/s "
          f"({ops} per second at the reference machine speed, median of {result['batches']} batches)")
    print(f"# as measured: {result['raw_ops_per_s']:.6g} 1/s at {result['kernels_per_s']:.4g} "
          f"calibration kernels/s (reference speed {result['reference_kernels_per_s']:g})")
    print("# batch rates at reference speed: " + " ".join(f"{r:.4g}" for r in result["batch_rates"]))
    print(f"# ops_failed_frac = {failed_frac:.6g} ({failed} of {attempted} operations failed)")
    if args.workload in ("grid_step", "real_m7"):
        print(f"# regret_drift_max = {result['regret_drift_max']:.6g} nats over "
              f"{result['referenced']} trials with a recorded reference; the other "
              f"{attempted - result['referenced']} trials got only the range and finiteness checks")
    correct = failed == 0 and attempted > 0
    if args.trace:
        metrics = dict(result["per_layer"], **checks)
        accounted = metrics["trace.accounted_frac"]
        if accounted < MIN_ACCOUNTED:
            print(f"# trace accounts for only {accounted:.3f} of the traced wall time", file=sys.stderr)
            correct = False
        named = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in metrics.items()}
    else:
        values = {"ops_per_s": result["ops_per_s"], "setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"]}
        named = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    for name, metric in named.items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": named}


def run_one(args) -> dict:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_worker(args, workdir)
        setup_s = None if args.trace else setup_seconds(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return report(args, result, setup_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one trial per cell, 100 oracle replications, one batch")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mdee" / "__init__.py").is_file():
        print("bench: run from the root of an mdee checkout (src/mdee not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = []
    for name in names:
        try:
            outputs.append(run_one(argparse.Namespace(**dict(vars(args), workload=name))))
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
    if len(outputs) == 1:
        print(json.dumps(outputs[0]))
        return 0
    combined = {
        "correct": all(out["correct"] for out in outputs),
        "attempted": sum(out["attempted"] for out in outputs),
        "failed": sum(out["failed"] for out in outputs),
        "metrics": {
            f"{name}.{metric}": value
            for name, out in zip(names, outputs)
            for metric, value in out["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
