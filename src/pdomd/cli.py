"""Command line front end.

Subcommands:

  run        execute one experiment (synthetic or datacenter) across seeds,
             writing per-seed run records, a per-seed metrics table, and
             mean time-series CSVs (cumulative cost, running inequality
             excess, pacing-violation norm) for plotting
  sweep      run the synthetic scenario over a list of horizons and fit
             log-log rate slopes with bootstrap confidence intervals
  gen-trace  write a seeded synthetic electricity-price trace as CSV
  audit      re-derive a run record's metrics from files alone, checking
             its per-slot bound at each slot's worst comparator

Exit codes: 0 success, 2 configuration error, 3 runtime error.  All outputs
embed the resolved configuration hash so a record can be audited later
against the exact configuration that produced it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Optional, Sequence

import numpy as np

from .config import (
    ExperimentConfig,
    build_problem,
    generate_price_trace,
    parse_config,
    parse_seed_range,
    write_price_trace,
)
from .errors import ConfigError, PdomdError
from .experiment import run_experiment, sweep_rates
from .oracle import hindsight_optimum
from .telemetry import import_record, replay_record, summarize_metrics

AUDIT_TOL = 1e-6


def _apply_cli_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "out", None):
        updates["out_dir"] = args.out
    if getattr(args, "seeds", None):
        updates["seeds"] = parse_seed_range(args.seeds)
    return dataclasses.replace(config, **updates) if updates else config


def _cmd_run(args) -> int:
    config = _apply_cli_overrides(parse_config(args.config), args)
    result = run_experiment(config)
    _, fixed_value = result["hindsight"]
    print(f"wrote {result['out_dir']} (config hash {result['config_hash'][:12]})")
    print(f"hindsight window value: {fixed_value:.6g}")
    for seed, summary in result["metrics"]:
        regret = summary.expected_regret
        shown = f"{regret:.6g}" if regret is not None else "n/a"
        print(f"  seed {seed}: expected regret {shown}")
    return 0


def _cmd_sweep(args) -> int:
    config = _apply_cli_overrides(parse_config(args.config), args)
    report = sweep_rates(config)
    print(f"horizons: {report['horizons']} ({report['n_seeds']} seeds)")
    for key in ("regret", "ineq_scaled", "eq_scaled"):
        entry = report[key]
        if entry["degenerate"]:
            print(f"  {key}: degenerate (nonpositive mean), no slope")
        else:
            print(
                f"  {key}: slope {entry['slope']:.3f} "
                f"[{entry['ci_low']:.3f}, {entry['ci_high']:.3f}]"
            )
    print(f"  dual ratio means: {np.round(report['dual_ratio_means'], 4).tolist()}")
    return 0


def _cmd_gen_trace(args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    trace = generate_price_trace(args.slots, seed=args.seed)
    write_price_trace(trace, args.out)
    print(f"wrote {args.out}: {len(trace)} slots x {len(trace.zones)} zones")
    return 0


def _cmd_audit(args) -> int:
    config = parse_config(args.config)
    problem = build_problem(config)
    record = import_record(args.record)
    chash = config.config_hash()
    if record.config_hash and record.config_hash != chash:
        raise ConfigError(
            "config hash mismatch: record carries "
            f"{record.config_hash[:12]}, config resolves to {chash[:12]}"
        )
    if not record.config_hash:
        print("note: record carries no config hash; skipping the hash check")
    hindsight = hindsight_optimum(problem, 0, max(record.horizon, 1))
    comparator_total, residuals = replay_record(record, problem, hindsight[0])
    worst = float(np.max(residuals, initial=-np.inf))  # NaN propagates
    summary = summarize_metrics(record, hindsight, problem, comparator_total)
    print(f"slots: {record.horizon}, seed: {record.seed}")
    regret = summary.expected_regret
    if regret is not None:
        print(f"expected regret: {regret:.6g}")
    print(f"realized regret: {summary.realized_regret:.6g}")
    print(f"max dual norm: {summary.max_dual_norm:.6g}")
    # one worst comparator per checked slot 1..T-1; bench/run.py parses this line
    print(f"worst bound residual over {residuals.size} samples: {worst:.3e}")
    if not worst <= AUDIT_TOL:  # a NaN residual fails
        print(f"AUDIT FAILED: residual exceeds {AUDIT_TOL:.0e}")
        return 3
    print("audit passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdomd",
        description="Online constrained mirror-descent experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment across seeds")
    run_p.add_argument("--config", required=True, help="JSON config path")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--seeds", help="seed range a..b (overrides config)")

    sweep_p = sub.add_parser("sweep", help="horizon sweep with rate fitting")
    sweep_p.add_argument("--config", required=True, help="JSON config path")
    sweep_p.add_argument("--out", help="output directory (overrides config)")
    sweep_p.add_argument("--seeds", help="seed range a..b (overrides config)")

    gen_p = sub.add_parser("gen-trace", help="write a synthetic price trace")
    gen_p.add_argument("--out", required=True, help="output CSV path")
    gen_p.add_argument("--slots", type=int, default=2000)
    gen_p.add_argument("--seed", type=int, default=0)

    audit_p = sub.add_parser("audit", help="audit a run record from files")
    audit_p.add_argument("--config", required=True, help="JSON config path")
    audit_p.add_argument("--record", required=True, help="run record CSV/JSON")

    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "gen-trace": _cmd_gen_trace,
        "audit": _cmd_audit,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PdomdError, OSError) as exc:  # OSError: an output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
