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
from typing import Dict, Optional, Tuple

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


# One row per setting: (JSON key, field, kind, minimum), in the order
# config_from_mapping checks them, so that of several faults the first is
# named. An integer must be at least its minimum and a number must exceed
# it; a kind ending in "?" also takes null, and a class kind is a section.
_OVERRIDES = (
    ("V", "objective_weight", "number?", 0),
    ("alpha", "prox_weight", "number?", 0),
    ("theta", "mixing_weight", "number?", None),
)
_SECTION_ROWS = {
    SyntheticSettings: (
        ("d", "dimension", "int", 2),
        ("n_ineq", "n_ineq", "int", 0),
        ("n_eq", "n_eq", "int", 0),
        ("instance_seed", "instance_seed", "int", 0),
    ),
    DatacenterSettings: (
        ("trace", "trace", "path?", None),
        ("pareto_shape", "pareto_shape", "number", 1),
        ("trace_seed", "trace_seed", "int", 0),
    ),
}
_ROWS = (
    ("scenario", "scenario", "scenario", None),
    ("T", "horizon", "int", 2),
    ("seeds", "seeds", "seeds", 0),
    ("variant", "variant", "variant?", None),
    *_OVERRIDES,
    ("synthetic", "synthetic", SyntheticSettings, None),
    ("datacenter", "datacenter", DatacenterSettings, None),
    ("out_dir", "out_dir", "text", None),
    ("sweep_T", "sweep_horizons", "horizons", 2),
)


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
        return bool(self._overrides())

    def _overrides(self) -> dict:
        """The schedule values this config replaces, by AlgorithmParams field."""
        overrides = {}
        for _, field, _, _ in _OVERRIDES:
            if getattr(self, field) is not None:
                overrides[field] = getattr(self, field)
        return overrides

    def params_for(self, horizon: int) -> AlgorithmParams:
        params = parameter_schedule(horizon, self.resolved_variant)
        overrides = self._overrides()
        if overrides:
            params = dataclasses.replace(params, **overrides)
        return params

    def canonical(self) -> dict:
        """Everything that affects results; the output directory does not.
        An unset override hashes as null and a section under its field
        names (`dimension`, not `d`)."""
        values = config_to_mapping(self)
        del values["out_dir"]
        for key, field, kind, _ in _ROWS:
            value = getattr(self, field)
            if isinstance(kind, type):
                values[key] = dataclasses.asdict(value)
            elif kind == "number?":
                values[key] = None if value is None else float(value)
        return values

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _read(value, path: str, kind, minimum):
    """One setting's value, checked against its row's kind and minimum."""
    if isinstance(kind, type):
        return kind(**dict(_section(value, _SECTION_ROWS[kind], path)))
    if kind.endswith("?"):
        if value is None:
            return None
        kind = kind[:-1]
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        if value < minimum:
            raise ConfigError(f"{path}: must be at least {minimum}")
        return value
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number")
        if minimum is not None and number <= minimum:
            raise ConfigError(f"{path}: must exceed {minimum}")
        return number
    if kind == "seeds":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a nonempty list of integers")
        seeds = tuple(_read(s, f"{path}[{i}]", "int", minimum) for i, s in enumerate(value))
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"{path}: duplicate entries")
        return seeds
    if kind == "horizons":
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list of integers")
        horizons = tuple(_read(t, f"{path}[{i}]", "int", minimum) for i, t in enumerate(value))
        if any(b <= a for a, b in zip(horizons, horizons[1:])):
            raise ConfigError(f"{path}: horizons must be strictly increasing")
        return horizons
    if kind == "scenario" and value not in ("synthetic", "datacenter"):
        raise ConfigError(f"{path}: must be 'synthetic' or 'datacenter'")
    if kind == "variant" and value not in VARIANTS:
        raise ConfigError(f"{path}: must be one of {VARIANTS}")
    if kind == "path" and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a path string or null")
    if kind == "text" and not (isinstance(value, str) and value):
        raise ConfigError(f"{path}: expected a nonempty string")
    return value


def _section(raw, rows, path: str, extra_keys=()):
    """Yield (field, value) for each row whose key `raw` sets, in row order,
    once `raw` is known to be an object with no key outside the rows."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    known = [key for key, _, _, _ in rows] + list(extra_keys)
    for key in raw:
        if key not in known:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown key {where!r}")
    for key, field, kind, minimum in rows:
        if key in raw:
            yield field, _read(raw[key], f"{path}.{key}" if path else key, kind, minimum)


def config_from_mapping(raw: dict) -> ExperimentConfig:
    fields = {}
    for field, value in _section(raw, _ROWS, "", extra_keys=("config_hash",)):
        fields[field] = value
        if field == "variant" and value == "simplex" and fields.get("scenario") == "datacenter":
            raise ConfigError(
                "variant: the datacenter decision set is a box; "
                "the simplex variant does not apply"
            )
        if field == "synthetic" and value.n_eq >= value.dimension:
            raise ConfigError("synthetic.n_eq: must be smaller than synthetic.d")
    config = ExperimentConfig(**fields)
    if config.mixing_weight is not None:
        if config.resolved_variant == "general":
            raise ConfigError("theta: the general variant has no mixing step")
        if not 0 <= config.mixing_weight < 1:
            raise ConfigError("theta: must lie in [0, 1)")

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
    """Inverse of config_from_mapping: a mapping parse_config accepts. It
    names the resolved variant and leaves an unset override out."""
    mapping = {}
    for key, field, kind, _ in _ROWS:
        value = getattr(config, field)
        if field == "variant":
            value = config.resolved_variant
        elif isinstance(kind, type):
            value = {k: getattr(value, f) for k, f, _, _ in _SECTION_ROWS[kind]}
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            mapping[key] = value
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
