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

`run` and `sweep` walk all seeds of a horizon at once, as lanes of one
engine walk (`core.iterate_run`), drawing each seed's slot functions once.
Every policy (the algorithm, the hindsight fixed point, Reac) is scored on
that one draw, one block of slots at a time as the walk draws it, so no
slot functions are kept past their block. Replaying the draws from a record
is `audit`'s path, and it too draws each slot once, in blocks
(`telemetry.replay_record`).

Exit codes: 0 success, 2 configuration error, 3 runtime error.  All outputs
embed the resolved configuration hash so a record can be audited later
against the exact configuration that produced it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import VARIANTS, AlgorithmParams, iterate_run, parameter_schedule
from .errors import ConfigError, PdomdError
from .oracle import hindsight_optimum
from .problems import (
    N_CLUSTERS,
    DatacenterConfig,
    PriceTrace,
    ProblemInstance,
    SlotFunctions,
    build_datacenter_problem,
    build_synthetic_problem,
    reac_schedule,
)
from .telemetry import (
    MetricsSummary,
    RecordCollector,
    RunRecord,
    export,
    import_record,
    replay_record,
    summarize_metrics,
    summary_cell,
    write_table,
)

Array = np.ndarray

TRACE_COLUMNS = ("slot", "zone", "price")
ZONE_OFFSETS = (1.0, 1.1, 0.9, 0.8, 1.2)
TRACE_MEAN_PRICE = 30.0  # mean of the lognormal base series
TRACE_SIGMA = 0.4  # log-scale spread of the base series
TRACE_ZONE_JITTER = 0.1  # log-scale spread of each zone's own factor
AUDIT_TOL = 1e-6
_BOOTSTRAP_RESAMPLES = 1000
_BOOTSTRAP_SEED = 1754


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True)
class SyntheticSettings:
    dimension: int = 10
    n_ineq: int = 2
    n_eq: int = 2
    instance_seed: int = 0


@dataclasses.dataclass(frozen=True)
class DatacenterSettings:
    trace: Optional[str] = None
    trace_seed: int = 0
    pareto_shape: float = 2.5


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "synthetic"
    horizon: int = 400
    seeds: Tuple[int, ...] = tuple(range(20))
    variant: Optional[str] = None
    objective_weight: Optional[float] = None
    prox_weight: Optional[float] = None
    mixing_weight: Optional[float] = None
    synthetic: SyntheticSettings = SyntheticSettings()
    datacenter: DatacenterSettings = DatacenterSettings()
    out_dir: str = "pdomd-out"
    sweep_horizons: Tuple[int, ...] = (100, 400, 1600, 6400)

    @property
    def resolved_variant(self) -> str:
        if self.variant is not None:
            return self.variant
        return "general" if self.scenario == "datacenter" else "simplex"

    @property
    def has_param_overrides(self) -> bool:
        return any(
            v is not None
            for v in (self.objective_weight, self.prox_weight, self.mixing_weight)
        )

    def params_for(self, horizon: int) -> AlgorithmParams:
        params = parameter_schedule(horizon, self.resolved_variant)
        overrides = {}
        if self.objective_weight is not None:
            overrides["objective_weight"] = self.objective_weight
        if self.prox_weight is not None:
            overrides["prox_weight"] = self.prox_weight
        if self.mixing_weight is not None:
            overrides["mixing_weight"] = self.mixing_weight
        if overrides:
            params = dataclasses.replace(params, **overrides)
        return params

    def canonical(self) -> dict:
        """Everything that affects results; the output directory does not."""

        def as_float(value):
            return None if value is None else float(value)

        return {
            "scenario": self.scenario,
            "T": self.horizon,
            "seeds": list(self.seeds),
            "variant": self.resolved_variant,
            "V": as_float(self.objective_weight),
            "alpha": as_float(self.prox_weight),
            "theta": as_float(self.mixing_weight),
            "synthetic": dataclasses.asdict(self.synthetic),
            "datacenter": dataclasses.asdict(self.datacenter),
            "sweep_T": list(self.sweep_horizons),
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _expect_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}")
    return value


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number")
    return number


def _reject_unknown(mapping: dict, allowed: Sequence[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where!r}")


def config_from_mapping(raw: dict) -> ExperimentConfig:
    raw = _expect_mapping(raw, "config")
    _reject_unknown(
        raw,
        (
            "scenario",
            "T",
            "seeds",
            "variant",
            "V",
            "alpha",
            "theta",
            "synthetic",
            "datacenter",
            "out_dir",
            "sweep_T",
            "config_hash",
        ),
        "",
    )
    config = ExperimentConfig()

    scenario = raw.get("scenario", config.scenario)
    if scenario not in ("synthetic", "datacenter"):
        raise ConfigError("scenario: must be 'synthetic' or 'datacenter'")

    horizon = _expect_int(raw.get("T", config.horizon), "T", minimum=2)

    seeds_raw = raw.get("seeds", list(config.seeds))
    if not isinstance(seeds_raw, list) or not seeds_raw:
        raise ConfigError("seeds: expected a nonempty list of integers")
    seeds = tuple(_expect_int(s, f"seeds[{i}]", minimum=0) for i, s in enumerate(seeds_raw))
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: duplicate entries")

    variant = raw.get("variant")
    if variant is not None and variant not in VARIANTS:
        raise ConfigError(f"variant: must be one of {VARIANTS}")
    if scenario == "datacenter" and variant == "simplex":
        raise ConfigError(
            "variant: the datacenter decision set is a box; "
            "the simplex variant does not apply"
        )

    v = raw.get("V")
    alpha = raw.get("alpha")
    theta = raw.get("theta")
    if v is not None:
        v = _expect_number(v, "V")
    if alpha is not None:
        alpha = _expect_number(alpha, "alpha")
    if theta is not None:
        theta = _expect_number(theta, "theta")

    synth = config.synthetic
    if "synthetic" in raw:
        section = _expect_mapping(raw["synthetic"], "synthetic")
        _reject_unknown(
            section, ("d", "n_ineq", "n_eq", "instance_seed"), "synthetic"
        )
        synth = SyntheticSettings(
            dimension=_expect_int(
                section.get("d", synth.dimension), "synthetic.d", minimum=2
            ),
            n_ineq=_expect_int(
                section.get("n_ineq", synth.n_ineq), "synthetic.n_ineq", minimum=0
            ),
            n_eq=_expect_int(
                section.get("n_eq", synth.n_eq), "synthetic.n_eq", minimum=0
            ),
            instance_seed=_expect_int(
                section.get("instance_seed", synth.instance_seed),
                "synthetic.instance_seed",
                minimum=0,
            ),
        )
        if synth.n_eq >= synth.dimension:
            raise ConfigError("synthetic.n_eq: must be smaller than synthetic.d")

    dc = config.datacenter
    if "datacenter" in raw:
        section = _expect_mapping(raw["datacenter"], "datacenter")
        _reject_unknown(section, ("trace", "trace_seed", "pareto_shape"), "datacenter")
        trace = section.get("trace", dc.trace)
        if trace is not None and not isinstance(trace, str):
            raise ConfigError("datacenter.trace: expected a path string or null")
        shape = _expect_number(
            section.get("pareto_shape", dc.pareto_shape), "datacenter.pareto_shape"
        )
        if shape <= 1.0:
            raise ConfigError("datacenter.pareto_shape: must exceed 1")
        dc = DatacenterSettings(
            trace=trace,
            trace_seed=_expect_int(
                section.get("trace_seed", dc.trace_seed), "datacenter.trace_seed", minimum=0
            ),
            pareto_shape=shape,
        )

    out_dir = raw.get("out_dir", config.out_dir)
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir: expected a nonempty string")

    sweep_raw = raw.get("sweep_T", list(config.sweep_horizons))
    if not isinstance(sweep_raw, list):
        raise ConfigError("sweep_T: expected a list of integers")
    sweep = tuple(
        _expect_int(t, f"sweep_T[{i}]", minimum=2) for i, t in enumerate(sweep_raw)
    )
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        raise ConfigError("sweep_T: horizons must be strictly increasing")

    config = ExperimentConfig(
        scenario=scenario,
        horizon=horizon,
        seeds=seeds,
        variant=variant,
        objective_weight=v,
        prox_weight=alpha,
        mixing_weight=theta,
        synthetic=synth,
        datacenter=dc,
        out_dir=out_dir,
        sweep_horizons=sweep,
    )
    if theta is not None and config.resolved_variant == "general":
        raise ConfigError("theta: the general variant has no mixing step")

    # Resolved configs written by run_experiment carry their own hash; when a
    # file declares one it must match what the values actually hash to, so a
    # hand-edited copy fails here instead of quietly becoming a new identity.
    declared = raw.get("config_hash")
    if declared is not None:
        if not isinstance(declared, str):
            raise ConfigError("config_hash: expected a string")
        actual = config.config_hash()
        if declared != actual:
            raise ConfigError(
                f"config_hash: declared {declared[:12]} does not match the "
                f"configured values ({actual[:12]})"
            )
    return config


def config_to_mapping(config: ExperimentConfig) -> dict:
    """Inverse of config_from_mapping: a mapping parse_config accepts."""
    mapping = {
        "scenario": config.scenario,
        "T": config.horizon,
        "seeds": list(config.seeds),
        "variant": config.resolved_variant,
        "synthetic": {
            "d": config.synthetic.dimension,
            "n_ineq": config.synthetic.n_ineq,
            "n_eq": config.synthetic.n_eq,
            "instance_seed": config.synthetic.instance_seed,
        },
        "datacenter": dataclasses.asdict(config.datacenter),
        "out_dir": config.out_dir,
        "sweep_T": list(config.sweep_horizons),
    }
    if config.objective_weight is not None:
        mapping["V"] = config.objective_weight
    if config.prox_weight is not None:
        mapping["alpha"] = config.prox_weight
    if config.mixing_weight is not None:
        mapping["theta"] = config.mixing_weight
    return mapping


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_mapping(raw)


def parse_seed_range(text: str) -> Tuple[int, ...]:
    """'4..7' -> (4, 5, 6, 7); a bare integer selects a single seed."""
    text = text.strip()
    first, dots, last = text.partition("..")
    try:
        lo = int(first)
        hi = int(last) if dots else lo
    except ValueError:
        raise ConfigError(f"bad seed range {text!r}") from None
    if lo < 0:
        raise ConfigError(f"bad seed range {text!r}: --seeds must be nonnegative")
    if hi < lo:
        raise ConfigError(f"bad seed range {text!r}: end before start")
    return tuple(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# price traces


def generate_price_trace(n_slots: int, seed: int = 0) -> PriceTrace:
    """Synthetic electricity prices: a lognormal base series of mean
    TRACE_MEAN_PRICE, scaled by fixed per-zone level offsets plus mild
    per-zone jitter."""
    if n_slots < 1:
        raise ConfigError("trace needs at least one slot")
    rng = np.random.default_rng(seed)
    base = rng.lognormal(
        np.log(TRACE_MEAN_PRICE) - 0.5 * TRACE_SIGMA**2, TRACE_SIGMA, size=n_slots
    )
    offsets = np.asarray(ZONE_OFFSETS)
    jitter = rng.lognormal(
        -0.5 * TRACE_ZONE_JITTER**2, TRACE_ZONE_JITTER, size=(n_slots, offsets.size)
    )
    prices = base[:, None] * offsets[None, :] * jitter
    zones = tuple(f"zone-{k}" for k in range(offsets.size))
    return PriceTrace(zones, prices)


def write_price_trace(trace: PriceTrace, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for t in range(len(trace)):
            for z, zone in enumerate(trace.zones):
                writer.writerow([t, zone, repr(float(trace.prices[t, z]))])


def ingest_price_trace(path) -> PriceTrace:
    """Read a long-format 'slot,zone,price' CSV into a PriceTrace.

    Every zone must carry exactly the slots 0..T-1 with no duplicates, so
    ragged or gappy files are rejected rather than silently reindexed.
    """
    path = Path(path)
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from None
    per_zone: Dict[str, Dict[int, float]] = {}
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != TRACE_COLUMNS:
            raise ConfigError(
                f"trace {path}: header must be {','.join(TRACE_COLUMNS)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ConfigError(f"trace {path}:{lineno}: expected 3 columns")
            try:
                slot = int(row[0])
                price = float(row[2])
            except ValueError:
                raise ConfigError(
                    f"trace {path}:{lineno}: non-numeric slot or price"
                ) from None
            if not math.isfinite(price):
                raise ConfigError(f"trace {path}:{lineno}: non-finite price")
            zone = row[1].strip()
            slots = per_zone.setdefault(zone, {})
            if slot in slots:
                raise ConfigError(
                    f"trace {path}:{lineno}: duplicate slot {slot} for zone {zone}"
                )
            slots[slot] = price
    if not per_zone:
        raise ConfigError(f"trace {path}: no rows")
    zones = tuple(sorted(per_zone))
    lengths = {zone: len(per_zone[zone]) for zone in zones}
    if len(set(lengths.values())) != 1:
        raise ConfigError(f"trace {path}: ragged zone lengths {lengths}")
    n_slots = lengths[zones[0]]
    prices = np.empty((n_slots, len(zones)))
    for z, zone in enumerate(zones):
        slots = per_zone[zone]
        for t in range(n_slots):
            if t not in slots:
                raise ConfigError(f"trace {path}: zone {zone} missing slot {t}")
            prices[t, z] = slots[t]
    return PriceTrace(zones, prices)


# ---------------------------------------------------------------------------
# experiment execution


def _build_problem(config: ExperimentConfig) -> ProblemInstance:
    if config.scenario == "synthetic":
        s = config.synthetic
        return build_synthetic_problem(s.dimension, s.n_ineq, s.n_eq, s.instance_seed)
    dc = DatacenterConfig(pareto_shape=config.datacenter.pareto_shape)
    if config.datacenter.trace is not None:
        trace = ingest_price_trace(config.datacenter.trace)
        if len(trace.zones) != N_CLUSTERS:
            raise ConfigError(
                f"datacenter.trace: has {len(trace.zones)} zones, need {N_CLUSTERS}"
            )
        if len(trace) < config.horizon:
            raise ConfigError(
                f"datacenter.trace: {len(trace)} slots, config requests "
                f"T={config.horizon}"
            )
    else:
        trace = generate_price_trace(config.horizon, config.datacenter.trace_seed)
    return build_datacenter_problem(dc, trace)


def _series_header(config: ExperimentConfig, params: AlgorithmParams) -> str:
    meta = {
        "config_hash": config.config_hash(),
        "scenario": config.scenario,
        "T": config.horizon,
        "variant": config.resolved_variant,
        "seeds": list(config.seeds),
        "V": params.objective_weight,
        "alpha": params.prox_weight,
        "theta": params.mixing_weight,
    }
    return "# pdomd-experiment v1 " + json.dumps(meta, sort_keys=True)


def _write_series(path: Path, header: str, columns: Dict[str, Array]) -> None:
    """The header line, then a table whose "t" column holds integers."""
    blocks = [
        np.asarray(values).astype(int).astype(object) if name == "t" else values
        for name, values in columns.items()
    ]
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        write_table(fh, list(columns), blocks)


def _write_metrics_table(
    path: Path, header: str, rows: List[Tuple[int, MetricsSummary]]
) -> None:
    field_names = [f.name for f in dataclasses.fields(MetricsSummary)]
    cells = np.array(
        [[seed, *(getattr(summary, name) for name in field_names)] for seed, summary in rows],
        dtype=object,
    )
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        write_table(fh, ["seed"] + field_names, [cells], summary_cell)


def _policy_series(
    record_ineq: Array, record_eq: Array, targets: Array
) -> Tuple[Array, Array]:
    """Running inequality excess and running equality-violation norm."""
    horizon = record_ineq.shape[0]
    steps = np.arange(1, horizon + 1)
    excess = np.linalg.norm(np.maximum(record_ineq, 0.0), axis=1)
    ineq_series = np.cumsum(excess) / steps
    residual = np.cumsum(record_eq - targets[None, :], axis=0) / steps[:, None]
    eq_series = np.linalg.norm(residual, axis=1)
    return ineq_series, eq_series


class _PolicyScores:
    """Each policy's (cost, inequality values, equality rows) on every slot
    of every lane of a walk, as (S, T), (S, T, L) and (S, T, M) arrays.

    Each block of slots is scored as the walk draws it, so no more than a
    block of slot functions is held. Every (slot, lane) takes the products
    a single slot takes (`SlotFunctions.evaluate`), so the columns equal a
    slot-by-slot scoring bit for bit. On the datacenter scenario Reac is
    scored too: row t of its schedule reads only the arrivals before t (and
    those of slot 0), so a block's rows, scheduled from the arrivals drawn
    up to its end, are those of `reac_schedule` over the whole horizon."""

    def __init__(self, problem: ProblemInstance, horizon: int, lanes: int, hindsight_point: Array,
                 reac: bool):
        self.hindsight_point = hindsight_point
        self.arrivals = np.empty((lanes, horizon)) if reac else None
        widths = ((), (problem.n_ineq,), (problem.n_eq,))
        self.columns = {
            name: tuple(np.empty((lanes, horizon, *width)) for width in widths)
            for name in (["hindsight", "reac"] if reac else ["hindsight"])
        }

    def score(self, block: SlotFunctions) -> None:
        """Score a block of slots laid out (slot, lane, ...)."""
        start = block.slot
        end = start + block.objective.shape[0]
        points = {"hindsight": self.hindsight_point}
        if self.arrivals is not None:
            self.arrivals[:, start:end] = block.inequalities.levels[:, :, 0].T
            points["reac"] = np.stack(
                [reac_schedule(lane[:end], start) for lane in self.arrivals], axis=1
            )
        for name, point in points.items():
            for column, values in zip(self.columns[name], block.evaluate(point)):
                column[:, start:end] = np.swapaxes(values, 0, 1)


def _scored_pass(
    problem: ProblemInstance,
    config: ExperimentConfig,
    horizon: int,
    seeds: Sequence[int],
    hindsight: Tuple[Array, float],
) -> List[Tuple[RunRecord, MetricsSummary, dict]]:
    """Walk the seeds' streams once, as lanes in lockstep, and score every
    policy on their draws as the walk goes.

    Returns, per seed in order: the algorithm's record, its metrics summary,
    and (cost, inequality values, equality rows) per policy: the algorithm,
    the hindsight fixed point, and Reac on the datacenter scenario."""
    params, variant = config.params_for(horizon), config.resolved_variant
    seeds = tuple(seeds)
    collector = RecordCollector(problem, horizon, lanes=len(seeds))
    scores = _PolicyScores(
        problem, horizon, len(seeds), np.asarray(hindsight[0], dtype=float),
        reac=config.scenario == "datacenter",
    )
    walk = iterate_run(problem, horizon, params, seeds, variant, on_block=scores.score)
    for state, outcome, _, obs in walk:
        collector.add(state, outcome, obs)
    mean_objectives = None if problem.means is None else problem.means.objective_table(0, horizon)
    chash = config.config_hash()
    results = []
    for lane, seed in enumerate(seeds):
        record = collector.record(params, seed, variant, chash, lane)
        columns = {
            "algorithm": (record.objective_realized, record.ineq_realized, record.eq_realized),
            **{name: tuple(c[lane] for c in cols) for name, cols in scores.columns.items()},
        }
        # cumsum adds in slot order, as the running total of a slot loop does
        comparator_total = float(np.cumsum(columns["hindsight"][0])[-1])
        summary = summarize_metrics(record, hindsight, problem, comparator_total, mean_objectives)
        results.append((record, summary, columns))
    return results


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured scenario across seeds and write all outputs.

    One walk advances every seed as a lane, and each seed's stream is drawn
    once: the algorithm, the hindsight fixed point and Reac are all scored
    on the slots the run consumed. Returns a summary dict with the output
    paths, the hindsight reference, per-seed metrics, and the seed-averaged
    time series that were written.
    """
    problem = _build_problem(config)
    horizon = config.horizon
    params = config.params_for(horizon)
    chash = config.config_hash()
    out_dir = Path(config.out_dir)
    records_dir = out_dir / "records"
    records_dir.mkdir(parents=True, exist_ok=True)

    hindsight = hindsight_optimum(problem, 0, horizon)
    header = _series_header(config, params)

    n_seeds = len(config.seeds)
    policies = ["algorithm", "hindsight"] + (["reac"] if config.scenario == "datacenter" else [])
    cost = {name: np.zeros(horizon) for name in policies}
    ineq = {name: np.zeros(horizon) for name in policies}
    eq = {name: np.zeros(horizon) for name in policies}
    metrics_rows: List[Tuple[int, MetricsSummary]] = []

    for record, summary, columns in _scored_pass(problem, config, horizon, config.seeds, hindsight):
        seed = record.seed
        export(record, "csv", records_dir / f"run_seed{seed}.csv")
        metrics_rows.append((seed, summary))
        for name in policies:
            policy_cost, policy_ineq, policy_eq = columns[name]
            cost[name] += np.cumsum(policy_cost)
            i_series, e_series = _policy_series(policy_ineq, policy_eq, record.targets)
            ineq[name] += i_series
            eq[name] += e_series

    for table in (cost, ineq, eq):
        for name in table:
            table[name] /= n_seeds

    t_column = np.arange(1, horizon + 1)
    paths = {}

    def emit(stem: str, table: Dict[str, Array]) -> None:
        path = out_dir / f"{stem}.csv"
        _write_series(path, header, {"t": t_column, **table})
        paths[stem] = path

    emit("cost_cumulative", cost)
    if problem.n_ineq:
        emit("violation_ineq", ineq)
    if problem.n_eq:
        emit("violation_eq", eq)

    metrics_path = out_dir / "metrics.csv"
    _write_metrics_table(metrics_path, header, metrics_rows)
    paths["metrics"] = metrics_path

    resolved = {"config_hash": chash, **config_to_mapping(config)}
    config_path = out_dir / "config_resolved.json"
    config_path.write_text(json.dumps(resolved, sort_keys=True, indent=2) + "\n")
    paths["config"] = config_path

    return {
        "out_dir": out_dir,
        "paths": paths,
        "config_hash": chash,
        "hindsight": hindsight,
        "metrics": metrics_rows,
        "series": {"cost": cost, "ineq": ineq, "eq": eq},
    }


# ---------------------------------------------------------------------------
# rate sweep


def _ols_slope(log_x: Array, log_y: Array) -> float:
    return float(np.polyfit(log_x, log_y, 1)[0])


def _slope_with_ci(
    horizons: Array, per_seed: Array, rng: np.random.Generator
) -> dict:
    """Log-log slope of the seed-mean curve with a seed-level bootstrap CI.

    per_seed has shape (n_seeds, n_horizons).  Points with nonpositive means
    cannot be log-fitted; the curve is then flagged degenerate.
    """
    means = per_seed.mean(axis=0)
    result = {
        "means": means.tolist(),
        "slope": None,
        "ci_low": None,
        "ci_high": None,
        "degenerate": bool(np.any(means <= 0.0)),
    }
    if result["degenerate"]:
        return result
    log_x = np.log(horizons)
    result["slope"] = _ols_slope(log_x, np.log(means))
    n_seeds = per_seed.shape[0]
    slopes = []
    for _ in range(_BOOTSTRAP_RESAMPLES):
        pick = rng.integers(0, n_seeds, size=n_seeds)
        resampled = per_seed[pick].mean(axis=0)
        if np.any(resampled <= 0.0):
            continue
        slopes.append(_ols_slope(log_x, np.log(resampled)))
    if slopes:
        lo, hi = np.percentile(slopes, [2.5, 97.5])
        result["ci_low"] = float(lo)
        result["ci_high"] = float(hi)
    return result


def sweep_rates(config: ExperimentConfig) -> dict:
    """Sweep horizons on the synthetic scenario and fit rate slopes.

    For each horizon the expected cumulative regret, the expected violation
    norms, and the dual-norm/sqrt(T) ratio are averaged across seeds; the
    report carries log-log slopes (regret vs T, T-scaled violations vs T)
    with 95% bootstrap confidence intervals, plus monotonicity flags.
    """
    if config.scenario != "synthetic":
        raise ConfigError("sweep supports the synthetic scenario only")
    if config.has_param_overrides:
        raise ConfigError(
            "parameter overrides fix V/alpha/theta across horizons and "
            "would break the schedule being swept; remove them"
        )
    if len(config.sweep_horizons) < 2:
        raise ConfigError("sweep needs at least two horizons to fit a slope")

    problem = _build_problem(config)
    horizons = np.asarray(config.sweep_horizons, dtype=float)
    n_h = len(config.sweep_horizons)
    n_seeds = len(config.seeds)
    chash = config.config_hash()

    regret = np.empty((n_seeds, n_h))
    ineq_viol = np.empty((n_seeds, n_h))
    eq_viol = np.empty((n_seeds, n_h))
    dual_ratio = np.empty((n_seeds, n_h))

    for i, horizon in enumerate(config.sweep_horizons):
        hindsight = hindsight_optimum(problem, 0, horizon)
        passes = _scored_pass(problem, config, horizon, config.seeds, hindsight)
        for j, (_, summary, _) in enumerate(passes):
            regret[j, i] = summary.expected_regret
            ineq_viol[j, i] = summary.ineq_violation
            eq_viol[j, i] = summary.eq_violation
            dual_ratio[j, i] = summary.dual_ratio

    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    report = {
        "config_hash": chash,
        "horizons": list(config.sweep_horizons),
        "n_seeds": n_seeds,
        "regret": _slope_with_ci(horizons, regret, rng),
        "ineq_scaled": _slope_with_ci(horizons, ineq_viol * horizons[None, :], rng),
        "eq_scaled": _slope_with_ci(horizons, eq_viol * horizons[None, :], rng),
        "ineq_violation_means": ineq_viol.mean(axis=0).tolist(),
        "eq_violation_means": eq_viol.mean(axis=0).tolist(),
        "ineq_violation_decreasing": bool(
            np.all(np.diff(ineq_viol.mean(axis=0)) < 0.0)
        ),
        "eq_violation_decreasing": bool(np.all(np.diff(eq_viol.mean(axis=0)) < 0.0)),
        "dual_ratio_means": dual_ratio.mean(axis=0).tolist(),
    }
    growth = dual_ratio.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = growth[1:] / growth[:-1]
    report["dual_ratio_steps"] = steps.tolist()

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = config.params_for(config.sweep_horizons[0])
    header = _series_header(config, params)
    columns = {
        "t": horizons,
        "regret_mean": regret.mean(axis=0),
        "ineq_violation_mean": ineq_viol.mean(axis=0),
        "eq_violation_mean": eq_viol.mean(axis=0),
        "dual_ratio_mean": growth,
    }
    _write_series(out_dir / "sweep_means.csv", header, columns)
    report_path = out_dir / "sweep_report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report


# ---------------------------------------------------------------------------
# entry point


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
    problem = _build_problem(config)
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
