"""Command line interface: run experiments, oracle checks and re-aggregation."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import harness, oracle
from .core import BasisSpec
from .estimators import CriterionKind

# Fewest replications per oracle check.
MIN_REPS = {2: oracle.MIN_RATIO_REPS, 4: oracle.MIN_TRACE_REPS}


def _input_error(exc: Exception) -> int:
    """Report a bad input as one stderr line, before any work, with argparse's exit status."""
    print(f"mdee: error: {exc}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    try:
        cfg = harness.load_config(args.config, args.seed, args.reps)
        if isinstance(cfg.scenario, harness.RealScenario):
            cfg.scenario.table  # read and checked once, here, so a bad table leaves no directory
        out = Path(args.out if args.out is not None else cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)  # after the checks, which leave no directory, and before any trial
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    out = harness.run_to_dir(cfg, out)
    print(f"wrote {out / 'summary.csv'}, {out / 'trials.csv'}, {out / 'meta.json'}")
    return 0


def _oracle_config(args) -> oracle.OracleConfig:
    return oracle.OracleConfig(
        basis=BasisSpec("fourier", 1),
        d=args.d,
        n=args.n,
        noise_sd=args.noise_sd,
        covariate_sd=1.0,
        truth=np.array([1.0, 0.5, -0.3])[: args.d],
        reps=args.reps,
        seed=args.seed,
    )


def _check(label: str, value: float, target: float, se: float) -> bool:
    ok = abs(value - target) <= 3.0 * se
    mark = "ok" if ok else "FAIL"
    print(f"  [{mark}] {label}: estimate {value:.6g}, target {target:.6g}, 3*SE {3*se:.2g}")
    return ok


def _check_oracle_args(args, cfg: oracle.OracleConfig) -> None:
    """Turn away arguments the oracle config does not check itself, before any work."""
    if args.reps < MIN_REPS[args.theorem]:
        raise ValueError(f"theorem {args.theorem} needs --reps >= {MIN_REPS[args.theorem]}, got {args.reps}")
    if args.theorem == 4 and not 1 <= args.b1 <= args.blocks - 1:
        raise ValueError(f"theorem 4 needs 1 <= --b1 <= --blocks - 1, got --b1 {args.b1}, --blocks {args.blocks}")
    if args.theorem == 4 and args.moment_blocks < oracle.MIN_MOMENT_BLOCKS:
        raise ValueError(f"theorem 4 needs --moment-blocks >= {oracle.MIN_MOMENT_BLOCKS}, got {args.moment_blocks}")
    if args.theorem == 4:
        oracle.check_pool(cfg, args.blocks, "--blocks")
        oracle.check_moment_blocks(cfg, args.moment_blocks, "--moment-blocks")


def _cmd_oracle(args) -> int:
    try:
        cfg = _oracle_config(args)
        _check_oracle_args(args, cfg)
    except ValueError as exc:
        return _input_error(exc)
    t0 = time.time()
    all_ok = True
    if args.theorem == 2:
        print(f"exact-correction checks (n={cfg.n}, d={cfg.d}, reps={cfg.reps})")
        res = oracle.mc_risk_ratio(cfg)
        target = (1.0 + res.mean_tr_ccinv / cfg.n) / (1.0 - cfg.d / cfg.n)
        se = np.hypot(res.se_ratio, res.se_tr_ccinv / (cfg.n * (1 - cfg.d / cfg.n)))
        all_ok &= _check("risk ratio vs corrected form", res.ratio, target, se)
        expected_ld = cfg.noise_sd**2 * (cfg.n - cfg.d) / cfg.n
        all_ok &= _check("mean training loss", res.e_train_loss, expected_ld, res.se_train_loss)
    else:
        print(f"blockwise trace moment checks (n={cfg.n}, d={cfg.d}, reps={cfg.reps})")
        b, b1 = args.blocks, args.b1
        moments = oracle.mc_block_moments(cfg, [CriterionKind.MDEE1, CriterionKind.MDEE3], b, b1)
        res1, res3 = moments[CriterionKind.MDEE1], moments[CriterionKind.MDEE3]
        all_ok &= _check("disjoint-split bias", res1.bias, 0.0, res1.se_bias)
        target = (cfg.d - res3.tr_cv_ref) / b
        se = np.hypot(res3.se_mean, (1 - 1 / b) * res3.se_ref)
        all_ok &= _check("shared-pool bias", res3.mean_tr - res3.tr_cv_ref, target, se)
        var_cf, se_cf = oracle.mc_h1_variance_closed_form(cfg, b, b1, args.moment_blocks)
        se = np.hypot(res1.se_var, se_cf)
        all_ok &= _check("disjoint-split variance vs closed form", res1.var, var_cf, se)
    print(f"elapsed {time.time() - t0:.1f}s")
    return 0 if all_ok else 1


def _cmd_report(args) -> int:
    try:
        summaries = harness.reaggregate_trials(args.trials)
        if args.out:
            harness.write_summary_csv(args.out, summaries)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    if args.out:
        print(f"wrote {args.out}")
    else:
        harness.write_summary(sys.stdout, summaries)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdee", description="risk-estimator experiments for small-sample model selection"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a YAML experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_run.add_argument("--reps", type=int, default=None, help="override repetitions")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="run Monte-Carlo identity checks")
    p_oracle.add_argument("--theorem", type=int, choices=(2, 4), required=True)
    p_oracle.add_argument("--reps", type=int, default=5000)
    p_oracle.add_argument("--seed", type=int, default=20240601)
    p_oracle.add_argument("--n", type=int, default=20)
    p_oracle.add_argument("--d", type=int, default=3)
    p_oracle.add_argument("--noise-sd", type=float, default=1.0)
    p_oracle.add_argument("--blocks", type=int, default=30, help="block count for the trace-moment checks")
    p_oracle.add_argument("--b1", type=int, default=10, help="disjoint split size for the trace-moment checks")
    p_oracle.add_argument("--moment-blocks", type=int, default=50000)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_report = sub.add_parser("report", help="re-aggregate a trials.csv file")
    p_report.add_argument("trials", help="path to trials.csv")
    p_report.add_argument("--out", default=None, help="write summary.csv here instead of stdout")
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
