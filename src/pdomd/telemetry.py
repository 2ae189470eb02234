"""Run records, regret and violation metrics, audits, and file exchange.

A RunRecord is the complete per-slot trajectory of one run plus the header
needed to replay it (problem name, seed, parameters). Everything downstream
works from records: metric summaries, the drift-plus-penalty audit, and the
CSV/JSON exporters. `replay_record` is the one replay of a record: it draws
each slot once and checks the objective, the multiplier norms and the
drift-plus-penalty residual at each slot's worst comparator in the same
walk; `compute_metrics` and `dpp_audit` are views of it. `COLUMNS` lays
out the record's columns for `RecordCollector`, the exporters and the importers; in CSV they read
t, mu_0..mu_{d-1}, f_realized, g_0..g_{L-1}, h_0..h_{M-1}, q_norm, h_norm, drift
in repr precision, so import reproduces the record bit-exactly. Import
rejects a NaN or infinite cell and a column row out of that layout. The CSV
import checks the lines as text and converts their unquoted cells in one
call; lines end in "\r\n" or "\n", and blank ones are skipped.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import mmap
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ProblemError, ReplayMismatchError
from .geometry import VARIANT_GEOMETRY, prox_base
from .problems import SEED_BLOCK, ObservationBatch, ProblemInstance

if TYPE_CHECKING:
    from .core import AlgorithmParams, SolverState, StepOutcome

Array = np.ndarray

_REPLAY_TOL = 1e-9
TABLE_ROWS = 500  # table rows held as Python values at a time
SCORE_BLOCK = SEED_BLOCK  # slots the audit draws and checks together

#: The record's per-slot columns in file order, as (RunRecord field, CSV name).
#: A CSV name ending in "_" means a (T, k) field, one numbered column per entry.
COLUMNS = (
    ("decisions", "mu_"),
    ("objective_realized", "f_realized"),
    ("ineq_realized", "g_"),
    ("eq_realized", "h_"),
    ("ineq_dual_norm", "q_norm"),
    ("eq_dual_norm", "h_norm"),
    ("drift", "drift"),
)


@dataclass
class RunRecord:
    """Full trajectory of one run.

    The variant fixes the geometry: `geometry` names
    `VARIANT_GEOMETRY[variant]`, and an unknown variant is refused.
    Dual-norm columns hold the multiplier norms after each slot's update, so
    the final row carries the terminal norms and the drift column telescopes
    against it. The drift column stores the recorded per-slot drift, which
    the audit deliberately trusts (a corrupted value shows up as a violated
    inequality, not as a replay mismatch)."""

    problem: str
    variant: str
    seed: int
    params: "AlgorithmParams"
    targets: Array  # (M,)
    decisions: Array  # (T, d)
    objective_realized: Array  # (T,)
    ineq_realized: Array  # (T, L)
    eq_realized: Array  # (T, M), raw <h_j^t, mu^t>
    ineq_dual_norm: Array  # (T,)
    eq_dual_norm: Array  # (T,)
    drift: Array  # (T,)
    config_hash: str = ""
    wall_time_s: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANT_GEOMETRY:
            raise ProblemError(f"unknown variant {self.variant!r}")
        t = len(self.decisions)
        for field, csv_name in COLUMNS:
            shape = getattr(self, field).shape
            if shape[:1] != (t,) or len(shape) != 1 + csv_name.endswith("_"):
                raise ProblemError(f"{field} column of shape {shape} does not fit {t} slots")
        if self.eq_realized.shape[1] != self.targets.shape[0]:
            raise ProblemError("equality column count must match targets")
        if t and (np.min(self.ineq_dual_norm) < 0 or np.min(self.eq_dual_norm) < 0):
            raise ProblemError("dual norms cannot be negative")

    @property
    def geometry(self) -> str:
        return VARIANT_GEOMETRY[self.variant].name

    @property
    def horizon(self) -> int:
        return self.decisions.shape[0]

    @property
    def dimension(self) -> int:
        return self.decisions.shape[1]

    @property
    def n_ineq(self) -> int:
        return self.ineq_realized.shape[1]

    @property
    def n_eq(self) -> int:
        return self.eq_realized.shape[1]


class RecordCollector:
    """Record columns filled slot by slot from `core.iterate_run`'s yields.

    `core.run` and the experiment harness both build their records here, so
    a record means the same thing whichever of them wrote it. Given `lanes`,
    it collects a lane walk of that many seeds, one record per lane. With
    `shared`, the columns live in anonymous shared mappings, so processes
    forked after construction read the rows as they are added."""

    def __init__(self, problem: ProblemInstance, horizon: int, lanes: Optional[int] = None,
                 shared: bool = False):
        self.problem = problem
        lead = () if lanes is None else (lanes,)
        wide = {
            "decisions": problem.dimension,
            "ineq_realized": problem.n_ineq,
            "eq_realized": problem.n_eq,
        }
        zeros = _shared_zeros if shared else np.zeros
        self.columns = {
            field: zeros((*lead, horizon, wide[field]) if field in wide else (*lead, horizon))
            for field, _ in COLUMNS
        }
        self.started = time.perf_counter()

    def add(self, state: "SolverState", outcome: "StepOutcome", obs: ObservationBatch) -> None:
        t, columns = obs.slot, self.columns
        columns["decisions"][..., t, :] = state.decision
        columns["objective_realized"][..., t] = obs.objective_value
        columns["ineq_realized"][..., t, :] = obs.ineq_values
        columns["eq_realized"][..., t, :] = np.matvec(obs.eq_matrix, state.decision)
        columns["ineq_dual_norm"][..., t] = outcome.ineq_dual_norm
        columns["eq_dual_norm"][..., t] = outcome.eq_dual_norm
        columns["drift"][..., t] = outcome.drift

    def record(
        self,
        params: "AlgorithmParams",
        seed: int,
        variant: str,
        config_hash: str = "",
        lane: Optional[int] = None,
    ) -> RunRecord:
        """The record of the slots added so far (of one lane, given lanes),
        timed from construction."""
        columns = self.columns
        if lane is not None:
            columns = {field: column[lane] for field, column in columns.items()}
        return RunRecord(
            problem=self.problem.name,
            variant=variant,
            seed=seed,
            params=params,
            targets=np.asarray(self.problem.targets, dtype=float),
            config_hash=config_hash,
            wall_time_s=time.perf_counter() - self.started,
            **columns,
        )


def _shared_zeros(shape: Tuple[int, ...]) -> Array:
    size = math.prod(shape)
    # an anonymous mapping starts zeroed, and mmap refuses an empty one
    return np.frombuffer(mmap.mmap(-1, 8 * size or 1), float, size).reshape(shape)


@dataclass(frozen=True)
class MetricsSummary:
    """Headline quantities of one record.

    Violation norms clip after averaging. The expected-form fields are None
    when the problem carries no mean model."""

    horizon: int
    realized_regret: float
    expected_regret: Optional[float]
    ineq_violation: Optional[float]  # || [ (1/T) sum mean-g(mu^t) ]_+ ||_2
    eq_violation: Optional[float]  # || (1/T) sum mean-h mu^t - b ||_2
    ineq_violation_realized: float
    eq_violation_realized: float
    ineq_violation_clip_first: float  # || (1/T) sum [g^t(mu^t)]_+ ||_2
    max_dual_norm: float
    dual_ratio: float  # max dual norm / sqrt(T)
    hindsight_value: float


def compute_metrics(
    record: RunRecord,
    hindsight: tuple,
    problem: ProblemInstance,
) -> MetricsSummary:
    """Summarize a record against the fixed hindsight point.

    Realized regret needs sum_t f^t(mu*) over the record's slots, which
    `replay_record` takes on its one walk over the stream; that walk refuses
    a record that does not belong to this problem/seed."""
    comparator_total, _ = replay_record(record, problem, hindsight[0])
    return summarize_metrics(record, hindsight, problem, comparator_total)


def summarize_metrics(
    record: RunRecord,
    hindsight: tuple,
    problem: ProblemInstance,
    comparator_total: float,
    mean_objectives: Optional[Array] = None,
) -> MetricsSummary:
    """The summary of a record whose slot functions are not replayed.

    comparator_total is sum_t f^t(mu*) over the record's realized slots; the
    caller vouches that it and the record come from the same draws, as they
    do when both are taken in one pass over the stream. mean_objectives is
    the problem's `means.objective_table(0, T)`, built here when not given;
    a caller summarizing several records of one horizon builds it once."""
    mu_star, hindsight_value = hindsight
    mu_star = np.asarray(mu_star, dtype=float)
    horizon = record.horizon
    if horizon == 0:
        return MetricsSummary(
            horizon=0,
            realized_regret=0.0,
            expected_regret=None if problem.means is None else 0.0,
            ineq_violation=None if problem.means is None else 0.0,
            eq_violation=None if problem.means is None else 0.0,
            ineq_violation_realized=0.0,
            eq_violation_realized=0.0,
            ineq_violation_clip_first=0.0,
            max_dual_norm=0.0,
            dual_ratio=0.0,
            hindsight_value=float(hindsight_value),
        )
    realized_regret = float(np.sum(record.objective_realized)) - comparator_total

    expected_regret = None
    ineq_violation = None
    eq_violation = None
    if problem.means is not None:
        means = problem.means
        # One product per slot, each the one a slot-by-slot loop takes, with
        # cumsum adding in slot order as its running total does: the sums
        # equal the loop's bit for bit.
        if mean_objectives is None:
            mean_objectives = means.objective_table(0, horizon)
        objectives = mean_objectives[:, None, :]  # (T, 1, d)
        decisions = record.decisions[:, :, None]  # (T, d, 1)
        gap = (objectives @ decisions)[:, 0, 0] - (objectives @ mu_star[:, None])[:, 0, 0]
        expected_regret = float(np.cumsum(gap)[-1])
        g_avg = np.cumsum(means.inequalities.values(record.decisions), axis=0)[-1] / horizon
        ineq_violation = float(np.linalg.norm(np.maximum(g_avg, 0.0)))
        h_avg = means.eq_matrix @ (record.decisions.mean(axis=0))
        eq_violation = float(np.linalg.norm(h_avg - record.targets))

    g_realized_avg = record.ineq_realized.mean(axis=0)
    ineq_violation_realized = float(np.linalg.norm(np.maximum(g_realized_avg, 0.0)))
    clip_first = np.maximum(record.ineq_realized, 0.0).mean(axis=0)
    ineq_violation_clip_first = float(np.linalg.norm(clip_first))
    h_realized_avg = record.eq_realized.mean(axis=0)
    eq_violation_realized = float(np.linalg.norm(h_realized_avg - record.targets))

    dual_norms = np.hypot(record.ineq_dual_norm, record.eq_dual_norm)
    max_dual = float(np.max(dual_norms))
    return MetricsSummary(
        horizon=horizon,
        realized_regret=realized_regret,
        expected_regret=expected_regret,
        ineq_violation=ineq_violation,
        eq_violation=eq_violation,
        ineq_violation_realized=ineq_violation_realized,
        eq_violation_realized=eq_violation_realized,
        ineq_violation_clip_first=ineq_violation_clip_first,
        max_dual_norm=max_dual,
        dual_ratio=max_dual / math.sqrt(horizon),
        hindsight_value=float(hindsight_value),
    )


# ---------------------------------------------------------------------------
# drift-plus-penalty audit


def _check_replay(checks) -> None:
    """Refuse the record at the first slot whose replayed value disagrees
    with the recorded one; NaN disagrees. `checks` lists (first slot, what,
    replayed, recorded) over consecutive slots, in the order one slot's checks run."""
    found = []
    for order, (first, what, replayed, recorded) in enumerate(checks):
        ok = np.abs(replayed - recorded) <= _REPLAY_TOL * (1.0 + np.abs(recorded))
        bad = np.flatnonzero(~ok)
        if bad.size:
            k = bad[0]
            found.append((first + k, order, what, float(replayed[k]), float(recorded[k])))
    if found:
        slot, _, what, replayed, recorded = min(found)
        raise ReplayMismatchError(
            f"slot {slot}: replayed {what} {replayed!r} != recorded {recorded!r}"
        )


def replay_record(
    record: RunRecord,
    problem: ProblemInstance,
    mu_star: Optional[Array],
) -> Tuple[float, Array]:
    """Replay a record once: (sum_t f^t(mu_star), bound residuals).

    A record whose (dimension, n_ineq, n_eq) are not the problem's raises
    ProblemError; the divergence is the one `VARIANT_GEOMETRY` gives its variant.
    Slot t is drawn once, SCORE_BLOCK (SEED_BLOCK, as a one-lane walk)
    slots at a time by `problem.sample_block`, and each block is checked
    with stacked products. The walk checks the objective at decisions[t]
    and takes f^t(mu_star) unless mu_star is None; advances Q and H with
    slot t and checks their norms against row t+1; and evaluates the
    drift-plus-penalty residual of slot t+1, whose step used slot t's
    functions and Q(t+1), H(t+1), at its worst comparator: entry t-1 of
    the (T-1,) residuals, where positive or NaN means violated.
    A disagreement, NaN included, raises ReplayMismatchError at the first
    slot that has one. The drift column is trusted as recorded, so a
    corrupted value shows up as a violation, not a replay mismatch.

    The bound is the one `core.step` obeys on every slot, with that slot's
    own slack. Write mu, mu' for decisions t and t+1, f, g, h for slot t's
    functions (f linear with coefficients c), Q, H for the multipliers the
    step to mu' used, and p = V c + Q grad g(mu) + H h for its coefficients.
    The step advances Q' = max(Q + s, 0) and H' = H + e with

        s = g(mu) + grad g(mu) (mu' - mu),   e = h mu' - b.

    Q >= 0 gives |max(Q + s, 0)| <= |Q + s| entrywise, so the drift
    Delta = (|Q'|^2 - |Q|^2 + |H'|^2 - |H|^2) / 2 obeys

        Delta <= Q.s + H.e + M,   M = |s|^2 / 2 + |e|^2 / 2,

    with equality where no entry of Q clips. mu' minimizes
    <p, x> + alpha D(x, base), so for every z in the set the three-point
    inequality gives

        <p, mu'> + alpha D(mu', base) <= <p, z> + alpha D(z, base) - alpha D(z, mu').

    Adding the two, with g(mu) + grad g(mu) (z - mu) <= g(z) (g convex,
    Q >= 0) and f(z) - f(mu) = <c, z - mu>:

        V <c, mu' - mu> + Delta + alpha D(mu', base)
            <= V (f(z) - f(mu)) + Q.g(z) + H.(h z - b)
               + alpha (D(z, base) - D(z, mu')) + M.

    The residual is the left side less the right. The right side is convex
    in z, and D(z, base) - D(z, mu') = <grad phi(mu') - grad phi(base), z>
    + const, so it is least, and the residual largest over the whole set,
    at the row family's `minimizer` of Q.g(z) + <V c + H h + alpha
    (grad phi(mu') - grad phi(base)), z>. On a record the engine wrote that
    worst residual is at most rounding. The analyses (Yu, Neely & Wei 2017;
    Wei, Yu & Neely, arXiv 1908.00305) bound M by its supremum; the audit
    takes M from the record's own decisions instead, so a decision or a
    drift the engine did not produce breaks the bound."""
    horizon = record.horizon
    shape = (record.dimension, record.n_ineq, record.n_eq)
    wanted = (problem.dimension, problem.n_ineq, problem.n_eq)
    if shape != wanted:
        raise ProblemError(f"record shape (d, L, M) = {shape} is not the problem's {wanted}")
    if mu_star is not None:
        mu_star = np.asarray(mu_star, dtype=float)
        if mu_star.shape != (record.dimension,):
            raise ProblemError("hindsight point dimension mismatch")
    geometry = VARIANT_GEOMETRY[record.variant]
    weight, prox_weight = record.params.objective_weight, record.params.prox_weight
    at_star = np.zeros(horizon)
    residuals = np.empty(max(horizon - 1, 0))
    q, h = np.zeros(record.n_ineq), np.zeros(record.n_eq)
    for first in range(0, horizon, SCORE_BLOCK):
        end = min(first + SCORE_BLOCK, horizon)
        fns = problem.sample_block((record.seed,), first, end).lane(0)
        c, rows, eq = fns.objective, fns.inequalities, fns.eq_matrix
        # slot t steps to decision t+1; the last slot, which steps nowhere, to itself
        nxt = np.minimum(np.arange(first + 1, end + 1), horizon - 1)
        steps, after = len(nxt) - (end == horizon), slice(first + 1, end + 1)
        mu, mu_next = record.decisions[first:end], record.decisions[nxt]
        if mu_star is not None:
            at_star[first:end] = np.vecdot(c, mu_star)
        surrogate = rows.values(mu) + np.matvec(rows.grads(mu), mu_next - mu)  # s, as core.step
        eq_residual = np.matvec(eq, mu_next) - record.targets  # e
        # Q and H before each slot of the block and after its last; H adds
        # in slot order, as core.step adds it
        q_run = np.empty((len(nxt) + 1, record.n_ineq))
        q_run[0] = q
        for k in range(len(nxt)):
            q_run[k + 1] = np.maximum(q_run[k] + surrogate[k], 0.0)
        h_run = np.cumsum(np.concatenate([h[None], eq_residual]), axis=0)
        q, h = q_run[steps], h_run[steps]
        _check_replay([
            (first + 1, "|Q|", np.linalg.norm(q_run[1:steps + 1], axis=1),
             record.ineq_dual_norm[after]),
            (first + 1, "|H|", np.linalg.norm(h_run[1:steps + 1], axis=1),
             record.eq_dual_norm[after]),
            (first, "objective", np.vecdot(c, mu), record.objective_realized[first:end]),
        ])
        q_run, h_run = q_run[:-1], h_run[:-1]
        base = prox_base(record.variant, mu, record.params.mixing_weight)
        # a decision off the entropy's domain fails its divergence below
        with np.errstate(divide="ignore", invalid="ignore"):
            pull = geometry.potential_grad(mu_next) - geometry.potential_grad(base)
        slope = weight * c + np.vecmat(h_run, eq) + prox_weight * pull
        z = rows.minimizer(q_run, slope, problem.decision_set)
        lhs = (
            weight * np.vecdot(c, mu_next - mu)
            + record.drift[nxt]
            + prox_weight * geometry.divergence(mu_next, base)
        )
        rhs = (
            weight * (np.vecdot(c, z) - np.vecdot(c, mu))
            + np.vecdot(q_run, rows.values(z))
            + np.vecdot(h_run, np.matvec(eq, z) - record.targets)
            + prox_weight * (geometry.divergence(z, base) - geometry.divergence(z, mu_next))
            + 0.5 * np.vecdot(surrogate, surrogate) + 0.5 * np.vecdot(eq_residual, eq_residual)
        )
        residuals[first:first + steps] = (lhs - rhs)[:steps]
    # cumsum adds in slot order, as a running total does
    comparator_total = float(np.cumsum(at_star)[-1]) if horizon else 0.0
    return comparator_total, residuals


def dpp_audit(record: RunRecord, problem: ProblemInstance) -> float:
    """Check the per-slot drift-plus-penalty inequality at each slot's worst
    comparator.

    On every slot t >= 1, the recorded drift plus the objective-advance and
    prox-cost terms must not exceed the comparator side plus the slot's own
    slack |s|^2/2 + |e|^2/2 for any comparator in the set. Returns the
    worst residual (positive or NaN means violated; -inf for T < 2), from
    the same single walk as `compute_metrics`: see `replay_record`, which
    derives the bound."""
    return float(np.max(replay_record(record, problem, None)[1], initial=-np.inf))


# ---------------------------------------------------------------------------
# export / import


def _header_dict(record: RunRecord) -> dict:
    return {
        "problem": record.problem,
        "variant": record.variant,
        "geometry": record.geometry,
        "seed": record.seed,
        "params": dataclasses.asdict(record.params),
        "targets": [float(x) for x in record.targets],
        "config_hash": record.config_hash,
        "wall_time_s": record.wall_time_s,
    }


def _column_names(widths: Sequence[int]) -> list:
    """The CSV column row for these COLUMNS widths (read for numbered ones only)."""
    names = ["t"]
    for (_, csv_name), width in zip(COLUMNS, widths):
        if csv_name.endswith("_"):
            names += [f"{csv_name}{k}" for k in range(width)]
        else:
            names.append(csv_name)
    return names


def write_table(fh, names: Sequence[str], blocks: Sequence[Array], cell=repr) -> None:
    """Write a CSV table: the column names, then the rows of `blocks` laid
    side by side, each cell as cell(value).

    Blocks are (n,) or (n, k) arrays. TABLE_ROWS rows at a time are stacked
    and turned into Python values, so a column keeps integer cells only when
    the stack is of object dtype: pass such columns as object arrays. The
    bytes are those of csv.writer (excel dialect, "\\r\\n" line ends) with
    str(int) and repr(float) cells, since neither holds a delimiter, a quote
    or a line break that it would quote."""
    csv.writer(fh).writerow(names)
    for lo in range(0, len(blocks[0]), TABLE_ROWS):
        rows = np.column_stack([block[lo:lo + TABLE_ROWS] for block in blocks]).tolist()
        fh.writelines(",".join(map(cell, row)) + "\r\n" for row in rows)


def summary_cell(value) -> str:
    """A metrics table cell: empty for None, an integer's digits, or the
    repr of a float (a numpy float included)."""
    if value is None:
        return ""
    return str(value) if isinstance(value, (int, np.integer)) else repr(float(value))


def export(obj, fmt: str, path) -> None:
    """Write a RunRecord or MetricsSummary as csv or json."""
    if fmt not in ("csv", "json"):
        raise ProblemError(f"unknown export format {fmt!r}")
    if isinstance(obj, RunRecord):
        if fmt == "csv":
            _export_record_csv(obj, path)
        else:
            _export_record_json(obj, path)
        return
    if isinstance(obj, MetricsSummary):
        payload = dataclasses.asdict(obj)
        with open(path, "w", newline="") as fh:
            if fmt == "json":
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            else:
                cells = np.array([list(payload.values())], dtype=object)
                write_table(fh, list(payload), [cells], summary_cell)
        return
    raise ProblemError(f"cannot export object of type {type(obj).__name__}")


def _export_record_csv(record: RunRecord, path) -> None:
    table = np.column_stack([getattr(record, field) for field, _ in COLUMNS])
    with open(path, "w", newline="") as fh:
        fh.write(record_head(record))
        for lo in range(0, record.horizon, TABLE_ROWS):
            fh.write(record_rows(table[lo:lo + TABLE_ROWS], lo))


def record_head(record: RunRecord) -> str:
    """A record CSV's header line and column row."""
    names = _column_names([getattr(record, field).shape[-1] for field, _ in COLUMNS])
    return "# pdomd-run v1 " + json.dumps(_header_dict(record)) + "\n" + ",".join(names) + "\r\n"


def record_rows(table: Array, first: int) -> str:
    """The record CSV rows of slots first, first + 1, ...: `table` holds each
    slot's COLUMNS cells side by side, a (rows, width) float array. The
    bytes are those `write_table` writes with the slot index as an integer
    column."""
    return "".join(
        f"{t},{','.join(map(repr, row))}\r\n" for t, row in enumerate(table.tolist(), first)
    )


def _export_record_json(record: RunRecord, path) -> None:
    payload = _header_dict(record)
    payload["columns"] = {field: getattr(record, field).tolist() for field, _ in COLUMNS}
    # an empty record's 2-D columns read back as [] without their widths
    payload["dimension"] = record.dimension
    payload["n_ineq"] = record.n_ineq
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _record_from_header_and_columns(path, header: dict, columns: dict) -> RunRecord:
    from .core import AlgorithmParams

    # records written before V, alpha and theta were the only params also
    # carry a horizon and a drift window, which nothing reads
    fields = dict(header["params"])
    for unread in ("horizon", "drift_window"):
        fields.pop(unread, None)
    try:
        params = AlgorithmParams(**fields)
    except ConfigError as exc:
        raise ProblemError(f"{path}: bad params header: {exc}") from None
    seed = header["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ProblemError(f"{path}: bad seed header: expected a nonnegative integer")

    # an empty JSON record's 2-D columns read back as [] without their widths
    wide = {
        "decisions": header.get("dimension"),
        "ineq_realized": header.get("n_ineq"),
        "eq_realized": len(header["targets"]),
    }

    def arr(name):
        data = np.asarray(columns[name], dtype=float)
        if name in wide and data.shape == (0,):
            data = data.reshape(0, wide[name])
        bad = np.argwhere(~np.isfinite(data))
        if len(bad):
            slot, *column = bad[0]
            cell = f"{name}[{column[0]}]" if column else name
            raise ProblemError(f"{path}: non-finite {cell} at slot {slot}")
        return data

    data = {field: arr(field) for field, _ in COLUMNS}
    try:
        record = RunRecord(
            problem=header["problem"],
            variant=header["variant"],
            seed=seed,
            params=params,
            targets=np.asarray(header["targets"], dtype=float),
            config_hash=header.get("config_hash", ""),
            wall_time_s=float(header.get("wall_time_s", 0.0)),
            **data,
        )
    except ProblemError as exc:
        raise ProblemError(f"{path}: {exc}") from None
    if header["geometry"] != record.geometry:
        raise ProblemError(f"{path}: bad geometry header: {record.variant} runs {record.geometry}")
    return record


def import_record(path) -> RunRecord:
    """Read a record back from a csv or json export.

    A missing, unreadable or malformed file raises ProblemError naming it."""
    try:
        with open(path) as fh:
            first = fh.read(1)
        if first == "{":
            with open(path) as fh:
                payload = json.load(fh)
            columns = payload.pop("columns")
            return _record_from_header_and_columns(path, payload, columns)
        return _import_record_csv(path)
    except OSError as exc:
        raise ProblemError(f"cannot read record {path}: {exc.strerror}") from None
    except (LookupError, TypeError, ValueError, RecursionError) as exc:  # JSON errors: ValueError
        raise ProblemError(f"{path}: malformed record ({type(exc).__name__}: {exc})") from None


def _import_record_csv(path) -> RunRecord:
    with open(path, newline="") as fh:
        header_line, _, body = fh.read().partition("\n")
    prefix = "# pdomd-run v1 "
    if not header_line.startswith(prefix):
        raise ProblemError(f"{path}: not a run record export")
    header = json.loads(header_line[len(prefix):])
    column_row, *lines = body.split("\n")
    names = column_row.removesuffix("\r").split(",")
    widths = [
        sum(n.startswith(csv_name) and n[len(csv_name):].isdigit() for n in names)
        if csv_name.endswith("_") else 1
        for _, csv_name in COLUMNS
    ]
    if names != _column_names(widths):
        raise ProblemError(f"{path}: column row does not match the record layout")
    rows = [(number, line) for number, line in enumerate(lines, 3) if line not in ("", "\r")]

    def cells(data_lines):  # every cell after the slot cell, in one conversion
        return np.loadtxt(data_lines, delimiter=",", comments=None, quotechar=None,
                          usecols=range(1, len(names)), ndmin=2)

    try:
        # the slots read 0..T-1, in order
        if any(line.count(",") != len(names) - 1 or not line.startswith(f"{k},")
               for k, (_, line) in enumerate(rows)):
            raise ValueError("a line's cell count or slot cell")
        data = cells([line for _, line in rows]) if rows else np.empty((0, len(names) - 1))
    except ValueError:
        # name the first faulty line; within it, the first fault in this order
        for k, (number, line) in enumerate(rows):
            where = f"{path}:{number}"
            if line.count(",") != len(names) - 1:
                raise ProblemError(
                    f"{where}: expected {len(names)} columns, got {line.count(',') + 1}"
                ) from None
            if not line.startswith(f"{k},"):
                slot = line[:line.find(",")]
                raise ProblemError(f"{where}: slot cell {slot!r}, expected {k}") from None
            try:
                cells([line])
            except ValueError:
                raise ProblemError(f"{where}: non-numeric cell") from None
        raise
    blocks = np.split(data, np.cumsum(widths)[:-1], axis=1)
    columns = {
        field: block if csv_name.endswith("_") else block[:, 0]
        for (field, csv_name), block in zip(COLUMNS, blocks)
    }
    return _record_from_header_and_columns(path, header, columns)
