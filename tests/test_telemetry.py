import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdomd import (
    AlgorithmParams,
    Box,
    DatacenterConfig,
    ProblemError,
    ReplayMismatchError,
    RunRecord,
    Simplex,
    build_datacenter_problem,
    build_synthetic_problem,
    compute_metrics,
    export,
    generate_price_trace,
    import_record,
    make_linear_problem,
    run,
)
from pdomd import telemetry
from pdomd.geometry import VARIANT_GEOMETRY, prox_base
from pdomd.problems import ServiceRows
from pdomd.telemetry import (
    TABLE_ROWS,
    summarize_metrics,
    write_table,
)
from reference import member, worst_residual


def synthetic_run(horizon=200, variant="general", seed=9, d=6):
    problem = build_synthetic_problem(d, 2, 2, seed=1)
    return problem, run(problem, horizon, seed=seed, variant=variant)


class TestMetrics:
    def test_zero_objective_zero_regret(self):
        problem = make_linear_problem(Simplex(3), np.zeros(3))
        record = run(problem, 50, seed=0)
        mu_star = np.array([0.2, 0.3, 0.5])
        summary = compute_metrics(record, (mu_star, 0.0), problem)
        assert summary.realized_regret == 0.0
        assert summary.expected_regret == 0.0

    def test_replay_guard(self):
        problem, record = synthetic_run(horizon=30)
        record.objective_realized[7] += 1e-3
        with pytest.raises(ReplayMismatchError):
            compute_metrics(record, (record.decisions[0], 0.0), problem)

    def test_streaming_matches_posthoc(self):
        problem, record = synthetic_run(horizon=120)
        slots = problem.sample_block((record.seed,), 0, record.horizon).lane(0)
        replayed = sum(
            slots.at(t).objective @ record.decisions[t] for t in range(record.horizon)
        )
        streaming = float(np.sum(record.objective_realized))
        assert abs(replayed - streaming) <= 1e-9 * max(abs(streaming), 1.0)

    def test_clip_order_distinction(self):
        problem, record = synthetic_run(horizon=2)
        record.ineq_realized[:] = np.array([[1.0, 0.0], [-1.0, 0.0]])
        summary = compute_metrics(record, (record.decisions[0], 0.0), problem)
        # averaging first cancels the signs; clipping first does not
        assert summary.ineq_violation_realized == 0.0
        assert summary.ineq_violation_clip_first == 0.5

    def test_expected_fields_absent_without_means(self):
        problem, record = synthetic_run(horizon=20)
        blind = dataclasses.replace(problem, means=None)
        summary = compute_metrics(record, (record.decisions[0], 0.0), blind)
        assert summary.expected_regret is None
        assert summary.ineq_violation is None
        assert summary.eq_violation is None
        assert summary.ineq_violation_realized >= 0.0

    def test_dual_ratio(self):
        problem, record = synthetic_run(horizon=100)
        summary = compute_metrics(record, (record.decisions[0], 0.0), problem)
        manual = np.max(np.hypot(record.ineq_dual_norm, record.eq_dual_norm))
        assert summary.max_dual_norm == pytest.approx(manual)
        assert summary.dual_ratio == pytest.approx(manual / 10.0)

    def test_expected_metrics_match_slot_loop(self):
        # the slot-by-slot sums are the reference, bit for bit, for a linear
        # and a two-row service family, each with a violated row
        problem, record = synthetic_run(horizon=150)
        linear = problem.means.inequalities
        families = (
            dataclasses.replace(linear, offsets=linear.offsets - 1.0),
            ServiceRows(np.array([30.0, 0.5]), np.random.default_rng(0).uniform(0, 1, (2, 6))),
        )
        mu_star = record.decisions[-1]
        for rows in families:
            prob = dataclasses.replace(
                problem, means=dataclasses.replace(problem.means, inequalities=rows)
            )
            means = prob.means
            gap, g_sum = 0.0, np.zeros(2)
            for t in range(record.horizon):
                mean_obj = means.objective_at(t)
                gap += float(mean_obj @ record.decisions[t]) - float(mean_obj @ mu_star)
                g_sum += means.inequalities.values(record.decisions[t])
            summary = summarize_metrics(record, (mu_star, 0.0), prob, 0.0)
            assert summary.expected_regret == gap
            violation = float(np.linalg.norm(np.maximum(g_sum / record.horizon, 0.0)))
            assert summary.ineq_violation == violation > 0.0

    def test_empty_record(self):
        problem = build_synthetic_problem(4, 1, 1, seed=0)
        record = run(problem, 0)
        summary = compute_metrics(record, (np.full(4, 0.25), 0.0), problem)
        assert summary.horizon == 0
        assert summary.realized_regret == 0.0


def replayed_record(record, problem, decisions):
    """The record `decisions` imply: every column replayed from them slot by
    slot, the multipliers advanced as `core.step` advances them."""
    horizon = record.horizon
    objective = np.zeros(horizon)
    ineq = np.zeros((horizon, record.n_ineq))
    eq = np.zeros((horizon, record.n_eq))
    q_norm, h_norm, drift = np.zeros(horizon), np.zeros(horizon), np.zeros(horizon)
    q, h = np.zeros(record.n_ineq), np.zeros(record.n_eq)
    slots = problem.sample_block((record.seed,), 0, horizon).lane(0)
    for t in range(horizon):
        fns = slots.at(t)
        mu = decisions[t]
        objective[t] = fns.objective @ mu
        ineq[t] = fns.inequalities.values(mu)
        eq[t] = fns.eq_matrix @ mu
        if t + 1 == horizon:
            break
        mu_next = decisions[t + 1]
        rows = fns.inequalities
        q_new = np.maximum(q + (rows.values(mu) + rows.grads(mu) @ (mu_next - mu)), 0.0)
        h_new = h + (fns.eq_matrix @ mu_next - record.targets)
        q_norm[t + 1], h_norm[t + 1] = np.sqrt(q_new @ q_new), np.sqrt(h_new @ h_new)
        drift[t + 1] = 0.5 * (q_norm[t + 1] ** 2 - q_norm[t] ** 2) + 0.5 * (
            h_norm[t + 1] ** 2 - h_norm[t] ** 2
        )
        q, h = q_new, h_new
    return dataclasses.replace(
        record,
        decisions=decisions,
        objective_realized=objective,
        ineq_realized=ineq,
        eq_realized=eq,
        ineq_dual_norm=q_norm,
        eq_dual_norm=h_norm,
        drift=drift,
    )


def datacenter_run(horizon, seed=0):
    problem = build_datacenter_problem(DatacenterConfig(), generate_price_trace(horizon, 0))
    return problem, run(problem, horizon, seed=seed)


def shifted_record(problem, record, slot):
    """The record with decision `slot` moved 1% toward a corner of the set
    (e_0 on the simplex, the lower corner of a box) and every other column
    rebuilt from the decisions, so only the bound can tell."""
    corner = np.zeros(record.dimension)
    if isinstance(problem.decision_set, Simplex):
        corner[0] = 1.0
    else:
        corner = problem.decision_set.lower
    decisions = record.decisions.copy()
    decisions[slot] = 0.99 * decisions[slot] + 0.01 * corner
    return replayed_record(record, problem, decisions)


def slot_residuals(record, problem, comparators=None):
    """The bound residual of each slot t = 1..T-1, one slot at a time, and
    the size of its terms: the right-hand side a sampled audit evaluates, at
    comparators[t - 1], or without comparators at the slot's exact one from
    the bound's linear form in z, the row family's minimizer of
    <V c + H h + alpha (grad phi(mu') - grad phi(base)), z> + Q.g(z)."""
    geometry = VARIANT_GEOMETRY[record.variant]
    params = record.params
    q, h = np.zeros(record.n_ineq), np.zeros(record.n_eq)
    residuals = []
    slots = problem.sample_block((record.seed,), 0, record.horizon).lane(0)
    for t in range(record.horizon - 1):
        fns = slots.at(t)
        mu, mu_next = record.decisions[t], record.decisions[t + 1]
        rows = fns.inequalities
        base = prox_base(record.variant, mu, params.mixing_weight)
        if comparators is None:
            slope = (
                params.objective_weight * fns.objective + h @ fns.eq_matrix
                + params.prox_weight
                * (geometry.potential_grad(mu_next) - geometry.potential_grad(base))
            )
            z = rows.minimizer(q, slope, problem.decision_set)
        else:
            z = comparators[t]
        surrogate = rows.values(mu) + rows.grads(mu) @ (mu_next - mu)
        eq_residual = fns.eq_matrix @ mu_next - record.targets
        lhs = (
            params.objective_weight * float(fns.objective @ (mu_next - mu))
            + record.drift[t + 1]
            + params.prox_weight * geometry.divergence(mu_next, base)
        )
        rhs = params.objective_weight * (float(fns.objective @ z) - float(fns.objective @ mu))
        rhs += float(q @ rows.values(z))
        rhs += float(h @ (fns.eq_matrix @ z - record.targets))
        rhs += params.prox_weight * (geometry.divergence(z, base) - geometry.divergence(z, mu_next))
        rhs += 0.5 * float(surrogate @ surrogate) + 0.5 * float(eq_residual @ eq_residual)
        residuals.append((lhs - rhs, abs(lhs) + abs(rhs)))
        q = np.maximum(q + surrogate, 0.0)
        h = h + eq_residual
    return np.array(residuals).reshape(-1, 2)


AUDIT_SCENARIOS = ("general", "simplex", "datacenter")
STOCK_BLOCK = telemetry.SCORE_BLOCK


def scenario_run(scenario, horizon, seed=9):
    if scenario == "datacenter":
        return datacenter_run(horizon, seed)
    return synthetic_run(horizon=horizon, variant=scenario, seed=seed)


class TestDppAudit:
    def test_euclidean_synthetic_run_conforms(self):
        problem, record = synthetic_run(horizon=300, variant="general")
        worst = worst_residual(record, problem)
        assert worst <= 1e-6
        # The datacenter box, whose slot slack reaches 1e8-1e9: rounding on
        # that scale must keep clean records within the tolerance.
        for seed in range(3):
            problem, record = datacenter_run(300, seed)
            assert worst_residual(record, problem) <= 1e-6

    def test_simplex_variant_conforms(self):
        problem, record = synthetic_run(horizon=300, variant="simplex")
        worst = worst_residual(record, problem)
        assert worst <= 1e-6

    def test_corrupted_drift_flagged(self):
        problem, record = synthetic_run(horizon=120, variant="general")
        record.drift[60] += 1.0  # well under a sup-bound constant (about 25 here)
        worst = worst_residual(record, problem)
        assert worst > 0.0
        record.drift[60] = np.nan
        worst = worst_residual(record, problem)
        assert np.isnan(worst)  # a NaN residual is not dropped from the maximum

    @pytest.mark.parametrize("variant", AUDIT_SCENARIOS)
    def test_shifted_decision_flagged(self, variant, monkeypatch):
        # One decision moved 1% toward a corner, every other column rebuilt
        # from the decisions, so only the bound can tell; every slot is
        # checked, so there is no audit seed to be lucky with. (Slots 63 and
        # 64 sit on either side of a replay block's edge, with the replay's
        # blocks cut to 64 slots.)
        monkeypatch.setattr(telemetry, "SCORE_BLOCK", 64)
        problem, record = scenario_run(variant, 120)
        assert worst_residual(replayed_record(record, problem, record.decisions), problem) <= 1e-6
        for slot in (1, 60, 63, 64):
            assert worst_residual(shifted_record(problem, record, slot), problem) > 1e-6, slot

    def test_foreign_seed_is_a_replay_mismatch(self):
        problem, record = synthetic_run(horizon=60)
        record.seed += 1
        with pytest.raises(ReplayMismatchError):
            worst_residual(record, problem)

    def test_tampered_dual_norms_rejected(self):
        problem, record = synthetic_run(horizon=60)
        record.ineq_dual_norm[30] += 0.5
        with pytest.raises(ReplayMismatchError, match="slot 30: replayed [|]Q[|]"):
            worst_residual(record, problem)
        # a NaN decision must not let a later tampered norm through
        problem, record = synthetic_run(horizon=300)
        record.decisions[70, 0] = np.nan
        record.ineq_dual_norm[150] += 0.5
        with pytest.raises(ReplayMismatchError, match="slot 70: replayed [|]Q[|] nan"):
            worst_residual(record, problem)

    def test_first_mismatch_is_named(self):
        # a tampered norm ahead of a tampered objective in the same block,
        # and a slot's norms ahead of its own objective
        problem, record = synthetic_run(horizon=100)
        record.objective_realized[20] += 1.0
        record.eq_dual_norm[12] += 1.0
        with pytest.raises(ReplayMismatchError, match="slot 12: replayed [|]H[|]"):
            worst_residual(record, problem)
        record.eq_dual_norm[12] -= 1.0
        record.ineq_dual_norm[20] += 1.0
        with pytest.raises(ReplayMismatchError, match="slot 20: replayed [|]Q[|]"):
            worst_residual(record, problem)


@settings(max_examples=20, deadline=None)
@given(
    scenario=st.sampled_from(AUDIT_SCENARIOS),
    horizon=st.integers(2, 80),
    seed=st.integers(0, 20),
    tamper=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_exact_comparator_is_each_slots_worst(scenario, horizon, seed, tamper):
    """On every slot the replay's residual is the sampled right-hand side's
    at the slot's exact comparator, and at least that at any sampled member
    of the set (up to 1e-9 of the terms' size); the replay's results do not
    depend on its block size."""
    problem, record = scenario_run(scenario, horizon, seed)
    if tamper is not None:
        record = shifted_record(problem, record, round(tamper * (horizon - 1)))
    hindsight = problem.decision_set.initial_point()
    total, residuals = telemetry.replay_record(record, problem, hindsight)
    exact = slot_residuals(record, problem)
    assert np.all(np.abs(residuals - exact[:, 0]) <= 1e-9 * exact[:, 1])
    rng = np.random.default_rng(seed)
    for _ in range(5):
        points = [member(problem.decision_set, rng) for _ in range(horizon - 1)]
        sampled = slot_residuals(record, problem, points)
        assert np.all(residuals >= sampled[:, 0] - 1e-9 * (exact[:, 1] + sampled[:, 1]))
    telemetry.SCORE_BLOCK = 1
    try:
        one_by_one = telemetry.replay_record(record, problem, hindsight)
    finally:
        telemetry.SCORE_BLOCK = STOCK_BLOCK
    assert one_by_one[0] == total and one_by_one[1].tobytes() == residuals.tobytes()


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        problem, record = synthetic_run(horizon=40, variant="simplex")
        path = tmp_path / "run.csv"
        export(record, "csv", path)
        loaded = import_record(path)
        assert loaded.problem == record.problem
        assert loaded.params == record.params
        assert loaded.seed == record.seed
        for name in (
            "decisions",
            "objective_realized",
            "ineq_realized",
            "eq_realized",
            "ineq_dual_norm",
            "eq_dual_norm",
            "drift",
            "targets",
        ):
            assert np.array_equal(getattr(loaded, name), getattr(record, name)), name

    def test_json_round_trip(self, tmp_path):
        problem, record = synthetic_run(horizon=25)
        path = tmp_path / "run.json"
        export(record, "json", path)
        loaded = import_record(path)
        assert np.array_equal(loaded.decisions, record.decisions)
        assert np.array_equal(loaded.drift, record.drift)
        assert loaded.config_hash == record.config_hash

    def test_column_schema(self, tmp_path):
        problem = build_synthetic_problem(4, 2, 1, seed=2)
        record = run(problem, 3, seed=0)
        path = tmp_path / "tiny.csv"
        export(record, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# pdomd-run v1 ")
        names = lines[1].split(",")
        d, n_ineq, n_eq = 4, 2, 1
        assert names == (
            ["t"]
            + [f"mu_{k}" for k in range(d)]
            + ["f_realized"]
            + [f"g_{i}" for i in range(n_ineq)]
            + [f"h_{j}" for j in range(n_eq)]
            + ["q_norm", "h_norm", "drift"]
        )
        assert len(names) == d + n_ineq + n_eq + 5
        assert len(lines) == 2 + 3  # header comment, column row, 3 slots

    def test_empty_record_csv(self, tmp_path):
        problem = build_synthetic_problem(4, 1, 1, seed=0)
        record = run(problem, 0)
        for fmt in ("csv", "json"):
            path = tmp_path / f"empty.{fmt}"
            export(record, fmt, path)
            loaded = import_record(path)
            assert loaded.horizon == 0
            assert loaded.decisions.shape == (0, 4)
            assert loaded.ineq_realized.shape == (0, 1)

    def test_json_without_widths_loads(self, tmp_path):
        _, record = synthetic_run(horizon=5)
        path = tmp_path / "run.json"
        export(record, "json", path)
        payload = json.loads(path.read_text())
        del payload["dimension"], payload["n_ineq"]
        path.write_text(json.dumps(payload))
        assert np.array_equal(import_record(path).decisions, record.decisions)

    def test_older_params_header_loads(self, tmp_path):
        # records written while the params carried a horizon and a drift
        # window, which nothing read, still import, in both formats
        _, record = synthetic_run(horizon=5)
        prefix = "# pdomd-run v1 "
        for fmt in ("csv", "json"):
            path = tmp_path / f"old.{fmt}"
            export(record, fmt, path)
            first, rest = path.read_text().split("\n", 1)
            payload = json.loads(first.removeprefix(prefix))
            payload["params"].update(horizon=5, drift_window=2)
            head = prefix if fmt == "csv" else ""
            path.write_text(head + json.dumps(payload) + "\n" + rest)
            loaded = import_record(path)
            assert loaded.params == record.params
            assert np.array_equal(loaded.decisions, record.decisions)

    def test_summary_export(self, tmp_path):
        # export writes run records only; the harness writes the metrics table
        problem, record = synthetic_run(horizon=20)
        summary = compute_metrics(record, (record.decisions[0], 0.0), problem)
        for fmt in ("csv", "json"):
            with pytest.raises(ProblemError, match="cannot export object of type MetricsSummary"):
                export(summary, fmt, tmp_path / f"m.{fmt}")
            assert not (tmp_path / f"m.{fmt}").exists()

    def test_box_problem_round_trip(self, tmp_path):
        problem = make_linear_problem(
            Box(np.zeros(2), np.ones(2)),
            np.array([1.0, -1.0]),
            eq_rows=np.array([[1.0, 0.0]]),
            targets=np.array([0.4]),
            eq_noise=0.1,
        )
        record = run(problem, 15, seed=4)
        export(record, "csv", tmp_path / "box.csv")
        loaded = import_record(tmp_path / "box.csv")
        assert np.array_equal(loaded.eq_realized, record.eq_realized)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COLUMNS = (
    "decisions",
    "objective_realized",
    "ineq_realized",
    "eq_realized",
    "ineq_dual_norm",
    "eq_dual_norm",
    "drift",
    "targets",
)


@st.composite
def records(draw):
    horizon = draw(st.integers(0, 20))
    d, n_ineq, n_eq = (draw(st.integers(lo, hi)) for lo, hi in ((1, 6), (0, 3), (0, 3)))

    def column(*shape, elements=_FINITE):
        size = int(np.prod(shape))
        cells = draw(st.lists(elements, min_size=size, max_size=size))
        return np.array(cells, dtype=float).reshape(shape)

    nonnegative = st.floats(min_value=0.0, allow_infinity=False)
    return RunRecord(
        problem=draw(st.text(max_size=8)),
        variant=draw(st.sampled_from(["simplex", "general"])),
        seed=draw(st.integers(0, 2**32 - 1)),
        params=AlgorithmParams(
            objective_weight=draw(st.floats(min_value=1e-6, max_value=1e6)),
            prox_weight=draw(st.floats(min_value=1e-6, max_value=1e6)),
            mixing_weight=draw(st.floats(min_value=0.0, max_value=0.99)),
        ),
        targets=column(n_eq),
        decisions=column(horizon, d),
        objective_realized=column(horizon),
        ineq_realized=column(horizon, n_ineq),
        eq_realized=column(horizon, n_eq),
        ineq_dual_norm=column(horizon, elements=nonnegative),
        eq_dual_norm=column(horizon, elements=nonnegative),
        drift=column(horizon),
        config_hash=draw(st.text("0123456789abcdef", max_size=64)),
    )


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 3.0, -42.0, 2.0**53, 1e16, 0.1, np.inf, -np.inf, np.nan)


def edge_record():
    """A record holding every finite edge float in every column."""
    finite = np.array([x for x in _EDGE_FLOATS if np.isfinite(x)])
    return RunRecord(
        problem="edge",
        variant="general",
        seed=0,
        params=AlgorithmParams(objective_weight=1.0, prox_weight=1.0, mixing_weight=0.0),
        targets=finite[:2],
        decisions=np.column_stack([finite, finite[::-1]]),
        objective_realized=finite,
        ineq_realized=finite[::-1, None],
        eq_realized=np.column_stack([finite, -finite]),
        ineq_dual_norm=np.abs(finite),
        eq_dual_norm=np.abs(finite[::-1]),
        drift=-finite,
    )


@settings(max_examples=60, deadline=None)
@given(record=records())
@example(record=edge_record())
def test_record_round_trip_property(tmp_path_factory, record):
    directory = tmp_path_factory.mktemp("round_trip")
    for fmt in ("csv", "json"):
        path = directory / f"record.{fmt}"
        export(record, fmt, path)
        loaded = import_record(path)
        for name in _COLUMNS:
            got, want = getattr(loaded, name), getattr(record, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (fmt, name)
        assert (loaded.params, loaded.seed, loaded.config_hash) == (
            record.params,
            record.seed,
            record.config_hash,
        ), fmt
        assert loaded.geometry == record.geometry, fmt


_BAD_TOKENS = ("abc", "", "1_0", '"0.5"', "0x1p3", "1.5.2", "--1", "nan(1)", "\u0661")


@settings(max_examples=60, deadline=None)
@given(record=records().filter(lambda r: r.horizon > 0), data=st.data())
def test_broken_record_line_is_named(tmp_path_factory, record, data):
    """Break one data line of an exported record (a cell that is not a
    number, a dropped cell or a wrong slot number), with either line end:
    the import names that line of the file."""
    path = tmp_path_factory.mktemp("broken") / "record.csv"
    export(record, "csv", path)
    header, table = path.read_bytes().decode().split("\n", 1)
    column_row, *rows, _ = table.split("\r\n")
    slot = data.draw(st.integers(0, record.horizon - 1))
    cells = rows[slot].split(",")
    fault = data.draw(st.sampled_from(["token", "dropped", "slot"]))
    if fault == "token":
        cells[data.draw(st.integers(1, len(cells) - 1))] = data.draw(st.sampled_from(_BAD_TOKENS))
    elif fault == "dropped":
        del cells[data.draw(st.integers(0, len(cells) - 1))]
    else:
        cells[0] = data.draw(
            st.integers(0, 2 * record.horizon).filter(lambda k: k != slot).map(str)
            | st.sampled_from(["", "x", f"0{slot}", f"{slot}.0", f" {slot}"])
        )
    rows[slot] = ",".join(cells)
    ends = data.draw(st.sampled_from(["\r\n", "\n"]))
    path.write_bytes((header + "\n" + ends.join([column_row, *rows]) + ends).encode())
    with pytest.raises(ProblemError) as caught:
        import_record(path)
    assert str(caught.value).startswith(f"{path}:{slot + 3}: ")


def reference_table(names, index, blocks):
    """A table as csv.writer writes it, one str(int) / repr(float) cell at a time."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(names)
    for t, label in enumerate(index):
        row = [str(int(label))]
        for block in blocks:
            row += [repr(float(x)) for x in np.atleast_1d(block[t])]
        writer.writerow(row)
    return fh.getvalue()


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 2 * TABLE_ROWS + 3)) if draw(st.booleans()) else draw(st.integers(0, 6))
    cells = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(), st.integers(-10**6, 10**6).map(float))
    blocks = []
    for width in draw(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=1, max_size=5)):
        shape = (rows,) if width is None else (rows, width)  # None: a 1-D column
        size = int(np.prod(shape))
        fill = draw(st.lists(cells, min_size=min(size, 8), max_size=min(size, 8)))
        values = np.resize(np.array(fill, dtype=float), size) if size else np.zeros(0)
        blocks.append(values.reshape(shape))
    return blocks


@settings(max_examples=150, deadline=None)
@given(blocks=tables())
@example(blocks=[np.array([[0.0, -0.0], [5e-324, -5e-324]]), np.zeros((2, 0)), np.array([1e308, -1e308])])
@example(blocks=[np.array([3.0, -7.0, 2.0**60]), np.zeros((3, 0))])
def test_table_writer_matches_csv_writer(blocks):
    rows = blocks[0].shape[0]
    width = sum(1 if b.ndim == 1 else b.shape[1] for b in blocks)
    names = ["t"] + [f"c{k}" for k in range(width)]
    index = np.arange(rows)
    written = io.StringIO()
    write_table(written, names, [index.astype(object), *blocks])
    assert written.getvalue() == reference_table(names, index, blocks)


@settings(max_examples=60, deadline=None)
@given(record=records())
def test_record_export_matches_csv_writer(tmp_path_factory, record):
    # The record layout, eq_realized of width 0 included, through the same reference.
    path = tmp_path_factory.mktemp("export") / "record.csv"
    export(record, "csv", path)
    header, table = path.read_bytes().split(b"\n", 1)
    blocks = [record.decisions, record.objective_realized, record.ineq_realized,
              record.eq_realized, record.ineq_dual_norm, record.eq_dual_norm, record.drift]
    names = next(csv.reader([table.decode().split("\r\n", 1)[0]]))
    assert table.decode() == reference_table(names, range(record.horizon), blocks)
