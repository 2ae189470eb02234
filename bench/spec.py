"""Workloads and metric tables of the pdomd benchmark.

This module is the single source for what the benchmark runs and reports:
`run.py` emits exactly these metrics with these units, and
`python3 bench/run.py --write-spec` regenerates BENCHMARK.json from them.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 50
SETUP_UPFRONT = 2  # set-ups before the first round; each untraced round adds one
SEEDS_PER_RUN = 5

# name -> (why, the fixed part of the config mapping, audits per round)
WORKLOADS = {
    "synthetic-general": (
        "stock synthetic instance with the Euclidean variant: every slot runs the "
        "numeric prox on the simplex, on top of sampling, step, export and metrics replay",
        {"scenario": "synthetic", "T": 1600, "variant": "general"},
        SEEDS_PER_RUN,
    ),
    "datacenter": (
        "stock 50-server scenario at T=2000: augmented-Lagrangian hindsight, Reac "
        "replay, Monte Carlo constants and the widest CSV export; the memory case",
        {"scenario": "datacenter", "T": 2000},
        1,
    ),
}


def workload_config(name: str, seed: int, out_dir: str) -> dict:
    """The config mapping `pdomd run --config` would read for this workload.

    The workload seed picks the run seeds 5n..5n+4 and the synthetic
    instance seed. The datacenter price trace stays at seed 0: the hindsight
    solve takes 40k to 58k descent iterations depending on the trace, which
    would make the spread between seeds a property of the trace."""
    mapping = dict(WORKLOADS[name][1])
    mapping["seeds"] = list(range(SEEDS_PER_RUN * seed, SEEDS_PER_RUN * (seed + 1)))
    if mapping["scenario"] == "synthetic":
        mapping["synthetic"] = {"d": 10, "n_ineq": 2, "n_eq": 2, "instance_seed": seed}
    else:
        mapping["datacenter"] = {"trace_seed": 0}
    mapping["out_dir"] = out_dir
    return mapping


def build_problem(pdomd, config):
    """Trace and problem build through the public API, as a library user does."""
    if config.scenario == "synthetic":
        s = config.synthetic
        return pdomd.build_synthetic_problem(s.dimension, s.n_ineq, s.n_eq, s.instance_seed)
    trace = pdomd.generate_price_trace(config.horizon, config.datacenter.trace_seed)
    dc = pdomd.DatacenterConfig(pareto_shape=config.datacenter.pareto_shape)
    return pdomd.build_datacenter_problem(dc, trace)


# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "slots_per_s": ("1/s", "higher", 0.25),
    "slot_us_p50": ("us", "lower", 0.25),
    "slot_us_p99": ("us", "lower", 0.25),
    "audit_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better)
PER_LAYER = {
    "problems.build_s": ("s", "lower"),
    "problems.draws_per_slot": ("count", "lower"),
    "problems.slot_rng_us": ("us", "lower"),
    "problems.sample_slot_us": ("us", "lower"),
    "problems.observe_us": ("us", "lower"),
    "problems.reac_calls": ("count", "lower"),
    "problems.reac_us": ("us", "lower"),
    "core.step_us": ("us", "lower"),
    "core.run_s": ("s", "lower"),
    "geometry.mirror_step_us": ("us", "lower"),
    "geometry.numeric_prox_calls": ("count", "lower"),
    "geometry.numeric_prox_iters": ("count", "lower"),
    "geometry.numeric_prox_s": ("s", "lower"),
    "oracle.hindsight_s": ("s", "lower"),
    "oracle.descent_calls": ("count", "lower"),
    "oracle.descent_iters": ("count", "lower"),
    "telemetry.export_s": ("s", "lower"),
    "telemetry.export_bytes": ("bytes", "lower"),
    "telemetry.compute_metrics_s": ("s", "lower"),
    "telemetry.import_s": ("s", "lower"),
    "telemetry.dpp_audit_s": ("s", "lower"),
    "cli.replay_baselines_s": ("s", "lower"),
    "cli.write_series_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "result.regret_sqrtT": ("ratio", "lower"),
    "result.violation_sqrtT": ("ratio", "lower"),
    "result.dual_ratio": ("ratio", "lower"),
    "result.reac_cost_ratio": ("ratio", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, (why, _, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }


def write_spec(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
