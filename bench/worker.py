"""One workload run in a fresh process: measure batches, check them, report.

Started by run.py with BLAS pinned to one thread. Runs batches of the
workload until --seconds have passed, with a calibration kernel before the
first batch and after each one (see calibration.py), checks every batch's
outputs, and prints one JSON object as its last stdout line. With --trace 1,
odd batches run with every public mdee function wrapped (see tracing.py) and
even ones without, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402  (after the path set-up above)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    workdir = Path(args.workdir)
    work = workloads.make(args.workload, args.seed, workdir, ROOT, args.smoke)
    tracer = tracing.Tracer() if args.trace else None
    min_batches = 2 if args.trace else 1

    rates = {False: [], True: []}
    raw_rates = []
    traced_speeds = []
    speeds = [calibration.kernels_per_second()]
    traced_units = 0
    traced_wall = 0.0
    attempted = failed = referenced = 0
    drift = 0.0
    batch = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and batch % 2 == 1
        wall = None
        try:
            with tracer.installed(batch) if traced else contextlib.nullcontext():
                start = time.perf_counter()
                ops = work.run_batch(batch)
                wall = time.perf_counter() - start
            check = work.check_batch(batch)
        except Exception:  # a failing batch is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            check = work.failed_batch()
        speeds.append(calibration.kernels_per_second())
        if wall is not None:
            speed = (speeds[-2] + speeds[-1]) / 2.0
            if not traced:
                raw_rates.append(ops / wall)
            rates[traced].append(ops / wall * calibration.NOMINAL_KERNELS_PER_S / speed)
            if traced:
                traced_units += work.trace_units
                traced_wall += wall
                traced_speeds.append(speed)
        attempted += check.attempted
        failed += check.failed
        referenced += check.referenced
        drift = max(drift, check.drift)
        batch += 1
        if batch >= min_batches and (args.smoke or time.perf_counter() >= deadline):
            break

    result = {
        "ops_per_s": statistics.median(rates[False]) if rates[False] else 0.0,
        "raw_ops_per_s": statistics.median(raw_rates) if raw_rates else 0.0,
        "kernels_per_s": statistics.median(speeds),
        "reference_kernels_per_s": calibration.NOMINAL_KERNELS_PER_S,
        "batches": batch,
        "batch_rates": rates[False],
        "attempted": attempted,
        "failed": failed,
        "referenced": referenced,
        "regret_drift_max": drift,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        scale = statistics.median(traced_speeds) / calibration.NOMINAL_KERNELS_PER_S if traced_speeds else 1.0
        metrics = tracing.layer_metrics(tracer.spans, traced_units, traced_wall, scale)
        traced_rate = statistics.median(rates[True]) if rates[True] else 0.0
        metrics["trace_overhead"] = result["ops_per_s"] / traced_rate if traced_rate else 0.0
        result["per_layer"] = metrics
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
