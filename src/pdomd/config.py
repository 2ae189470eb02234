"""Experiment configuration: the JSON schema and its hash, the price-trace
CSV files, and `build_problem`, which builds the instance a config names.
Every bad input raises `ConfigError` naming the key, path or line."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import VARIANTS, AlgorithmParams, parameter_schedule
from .errors import ConfigError
from .problems import (
    N_CLUSTERS,
    DatacenterConfig,
    PriceTrace,
    ProblemInstance,
    build_datacenter_problem,
    build_synthetic_problem,
)

TRACE_COLUMNS = ("slot", "zone", "price")
ZONE_OFFSETS = (1.0, 1.1, 0.9, 0.8, 1.2)
TRACE_MEAN_PRICE = 30.0  # mean of the lognormal base series
TRACE_SIGMA = 0.4  # log-scale spread of the base series
TRACE_ZONE_JITTER = 0.1  # log-scale spread of each zone's own factor


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from None
    per_zone: Dict[str, Dict[int, float]] = {}
    reader = csv.reader(lines)
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


def build_problem(config: ExperimentConfig) -> ProblemInstance:
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
