"""The experiment harness, `run_experiment`, and the rate sweep, `sweep_rates`.

Both walk all seeds of a horizon at once, as lanes of one engine walk
(`core.iterate_run`), drawing each seed's slot functions once. Every policy
(the algorithm, the hindsight fixed point, Reac) is scored on that one draw,
one block of slots at a time as the walk draws it, so no slot functions are
kept past their block. Replaying the draws from a record is `audit`'s path,
and it too draws each slot once, in blocks (`telemetry.replay_record`).

`run_experiment` writes the record CSVs only after every lane's walk has
succeeded, and spreads them across the process's CPUs: a forked child per
extra CPU writes a share of them while this process writes the rest and the
series, metrics and config files (`_records_written`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import ExperimentConfig, build_problem, config_to_mapping
from .core import AlgorithmParams, iterate_run
from .errors import ConfigError, PdomdError
from .oracle import hindsight_optimum
from .problems import ProblemInstance, SlotFunctions, reac_schedule
from .telemetry import (
    MetricsSummary,
    RecordCollector,
    RunRecord,
    export,
    summarize_metrics,
    summary_cell,
    write_table,
)

Array = np.ndarray

_BOOTSTRAP_RESAMPLES = 1000
_BOOTSTRAP_SEED = 1754


# ---------------------------------------------------------------------------
# experiment execution


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


def _write_share(
    records: Sequence[RunRecord], paths: Sequence[Path]
) -> Optional[Tuple[int, Exception]]:
    """Write the records in order; return the first failure as (seed,
    exception), or None."""
    for record, path in zip(records, paths):
        try:
            export(record, "csv", path)
        except Exception as exc:  # raised by `_records_written`, unless a lower seed failed too
            return record.seed, exc
    return None


def _report_share(records: Sequence[RunRecord], paths: Sequence[Path], report) -> None:
    """A forked record writer: write the share, then send None, or the first
    failure as (seed, exception type, message), through `report`."""
    with report:
        failure = _write_share(records, paths)
        if failure is not None:
            seed, exc = failure
            failure = seed, type(exc), str(exc)
        report.send(failure)


@contextlib.contextmanager
def _records_written(records: Sequence[RunRecord], records_dir: Path):
    """Write each record to records_dir/run_seed<seed>.csv across the
    process's CPUs, while the block writes the other outputs.

    One child per extra CPU, up to one per record, writes a share of the
    records. It is forked, so it inherits the records rather than receiving
    them pickled; with one CPU, one record or no `fork` start method, this
    process writes them all. This process writes its own share after the
    block, the smallest one, since the block's writes are on it too. Every
    child is joined before this returns or raises. A failed write is raised
    with its type and message, the lowest seed's when several fail, and a
    child that dies without reporting raises PdomdError naming its exit code."""
    paths = [records_dir / f"run_seed{record.seed}.csv" for record in records]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(records))
    if workers > 1:
        import multiprocessing  # loaded only here: it costs import time

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:
            workers = 1
    children = []
    failures: List[Tuple[int, Exception]] = []
    try:
        for k in range(workers - 1):
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(
                target=_report_share, args=(records[k::workers], paths[k::workers], writer)
            )
            with writer:
                child.start()
            children.append((child, reader, records[k].seed))
        yield
        own = slice(workers - 1, None, workers)
        failure = _write_share(records[own], paths[own])
        if failure is not None:
            failures.append(failure)
    finally:
        for child, reader, first_seed in children:
            with reader:
                try:
                    report = reader.recv()
                except EOFError:  # the child died before it could report
                    report = (first_seed, PdomdError, None)
            child.join()
            if report is not None:
                seed, kind, message = report
                if message is None:
                    message = (f"the record writer of seed {first_seed} exited with code "
                               f"{child.exitcode} without reporting")
                failures.append((seed, kind(message)))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured scenario across seeds and write all outputs.

    One walk advances every seed as a lane, and each seed's stream is drawn
    once: the algorithm, the hindsight fixed point and Reac are all scored
    on the slots the run consumed. Returns a summary dict with the output
    paths, the hindsight reference, per-seed metrics, and the seed-averaged
    time series that were written.
    """
    problem = build_problem(config)
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

    passes = _scored_pass(problem, config, horizon, config.seeds, hindsight)
    for record, summary, columns in passes:
        metrics_rows.append((record.seed, summary))
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

    with _records_written([record for record, _, _ in passes], records_dir):
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

    problem = build_problem(config)
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
