import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdomd import (
    Box,
    DatacenterConfig,
    DualPoint,
    InfeasibleProblemError,
    MultiplierDivergenceError,
    OracleError,
    Simplex,
    build_datacenter_problem,
    build_synthetic_problem,
    dual_function,
    estimate_multipliers,
    generate_price_trace,
    hindsight_optimum,
    make_linear_problem,
    weak_ebc_probe,
)
from pdomd import oracle
from pdomd.problems import MeanModel, ProblemInstance, ServiceRows


def zoom_grid_minimum(problem, start, length, final_step=1e-4):
    """Brute-force reference for small simplex window programs.

    Eliminates the simplex-sum row and the equality constraints exactly:
    for every lattice assignment of the free coordinates the pinned block is
    solved from the linear system, so each candidate satisfies the equality
    constraints to machine precision.  The lattice is refined around the
    incumbent until the step drops below final_step.  Independent of any
    optimization library.
    """
    means = problem.means
    objective = means.window_objective(start, length)
    eq = np.asarray(means.eq_matrix, dtype=float)
    d = problem.dimension
    rows = np.vstack([np.ones(d), eq]) if eq.size else np.ones((1, d))
    rhs = np.concatenate([[1.0], problem.targets])
    n_pinned = rows.shape[0]
    pinned = list(range(n_pinned))
    free = list(range(n_pinned, d))
    basis = rows[:, pinned]
    assert np.linalg.cond(basis) < 1e8, "pinned block ill-conditioned"
    solve = np.linalg.solve

    def candidates(values):
        # values: (n, n_free) lattice points for the free block
        block = rhs[None, :] - values @ rows[:, free].T
        pin = solve(basis, block.T).T
        full = np.empty((values.shape[0], d))
        full[:, free] = values
        full[:, pinned] = pin
        return full

    def feasible(full):
        ok = np.all(full >= -1e-12, axis=1)
        vals = np.array([means.inequalities.values(x) for x in full])
        ok &= np.all(vals <= 1e-12, axis=1)
        return ok

    step = 0.125
    lattice = [np.arange(0.0, 1.0 + 1e-12, step)] * len(free)
    points = np.array(list(itertools.product(*lattice)))
    best_point = None
    best_value = np.inf
    while True:
        full = candidates(points)
        keep = feasible(full)
        if keep.any():
            values = np.array([objective @ x for x in full[keep]])
            k = int(np.argmin(values))
            if values[k] < best_value:
                best_value = float(values[k])
                best_point = full[keep][k]
        assert best_point is not None, "no feasible lattice point found"
        if step <= final_step:
            return best_point, best_value
        step *= 0.5
        center = best_point[free]
        axes = [
            np.clip(center[i] + step * np.arange(-4, 5), 0.0, 1.0)
            for i in range(len(free))
        ]
        points = np.array(list(itertools.product(*axes)))


# One server on [0, 10] with cost 40 x and one service row 8 - 8 log(1 + 4x):
# the only curved program here, and every answer has a closed form.
COST, LEVEL, GAIN, RATE = 40.0, 8.0, 8.0, 4.0
X_STAR = math.expm1(LEVEL / GAIN) / RATE
LAM_STAR = COST * math.exp(LEVEL / GAIN) / (GAIN * RATE)


def service_instance(objective, rows, eq_matrix, targets, decision_set):
    """A one-slot problem whose mean program has the given service rows."""
    means = MeanModel(
        objective_at=lambda t: objective, inequalities=rows, eq_matrix=eq_matrix
    )
    return ProblemInstance(
        name="service-toy",
        decision_set=decision_set,
        n_ineq=len(rows),
        n_eq=eq_matrix.shape[0],
        targets=targets,
        sample_block=lambda seeds, first, end: None,
        means=means,
    )


def service_problem(level=LEVEL):
    return service_instance(
        np.array([COST]),
        ServiceRows(np.array([level]), np.ones((1, 1)), gain=GAIN, rate=RATE),
        np.zeros((0, 1)),
        np.zeros(0),
        Box(np.zeros(1), np.full(1, 10.0)),
    )


def service_dual(lam):
    """q(lam) = min over [0, 10] of COST x + lam (LEVEL - GAIN log(1 + RATE x))."""
    x = min(max((lam * GAIN * RATE / COST - 1.0) / RATE, 0.0), 10.0)
    return COST * x + lam * (LEVEL - GAIN * math.log1p(RATE * x))


def service_ratio(radius):
    """The smaller decay ratio (q* - q) / radius of the two points at +-radius."""
    q_star = service_dual(LAM_STAR)
    return min((q_star - service_dual(LAM_STAR + s * radius)) / radius for s in (-1.0, 1.0))


def drifting_instance(seed, d=6):
    """Simplex instance whose mean objective drifts sinusoidally."""
    rng = np.random.default_rng(seed)
    anchor = np.full(d, 1.0 / d)
    tilt = rng.uniform(-0.3, 0.3, size=d) / d
    anchor = anchor + tilt - np.mean(tilt)
    anchor = np.clip(anchor, 0.2 / d, None)
    anchor = anchor / anchor.sum()
    c = rng.uniform(0.0, 1.0, size=d)
    rows = rng.standard_normal((2, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    assert np.linalg.matrix_rank(rows) == 2
    ineq_rows = rng.standard_normal((2, d)) / np.sqrt(d)
    return make_linear_problem(
        Simplex(d),
        c,
        ineq_rows=ineq_rows,
        ineq_margins=ineq_rows @ anchor + 0.25,
        eq_rows=rows,
        targets=rows @ anchor,
        objective_noise=0.2,
        ineq_noise=0.2,
        eq_noise=0.1,
        drift_amplitude=0.08,
        drift_period=64,
        name=f"drifting-s{seed}",
    )


class TestHindsight:
    def test_vertex_optimum(self):
        problem = make_linear_problem(Simplex(3), np.array([1.0, 2.0, 3.0]))
        point, value = hindsight_optimum(problem, 0, 1)
        assert np.allclose(point, [1.0, 0.0, 0.0], atol=1e-8)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_pinned_coordinate(self):
        problem = make_linear_problem(
            Simplex(2),
            np.array([1.0, 0.0]),
            eq_rows=np.array([[1.0, 0.0]]),
            targets=np.array([0.3]),
        )
        point, value = hindsight_optimum(problem, 0, 1)
        assert np.allclose(point, [0.3, 0.7], atol=1e-8)
        assert value == pytest.approx(0.3, abs=1e-8)

    def test_feasibility_residuals(self):
        problem = build_synthetic_problem(6, 2, 2, seed=3)
        point, _ = hindsight_optimum(problem, 0, 250)
        means = problem.means
        ineq = means.inequalities.values(point)
        assert np.linalg.norm(np.maximum(ineq, 0.0)) <= 1e-6
        assert np.linalg.norm(means.eq_matrix @ point - problem.targets) <= 1e-6
        assert problem.decision_set.contains(point, tol=1e-8)

    @pytest.mark.parametrize("d", [4, 10, 32])
    def test_point_keeps_the_vertex_zeros(self, d):
        # the simplex vertex is projected only when `contains` refuses it,
        # so every exact zero of the solve stays an exact zero
        for seed in range(10):
            problem = build_synthetic_problem(d, 2, 2, seed)
            raw, _, _ = oracle._solve_linear(oracle._window_program(problem, 0, 1600))
            point, _ = hindsight_optimum(problem, 0, 1600)
            assert np.array_equal(point == 0.0, raw == 0.0), seed
            assert problem.decision_set.contains(point), seed

    def test_grid_agreement_d4(self):
        problem = build_synthetic_problem(4, 2, 1, seed=11)
        point, value = hindsight_optimum(problem, 0, 64)
        _, grid_value = zoom_grid_minimum(problem, 0, 64, final_step=1e-3)
        assert abs(value - grid_value) <= 1e-3

    def test_grid_agreement_d5(self):
        problem = build_synthetic_problem(5, 2, 2, seed=7)
        point, value = hindsight_optimum(problem, 0, 64)
        _, grid_value = zoom_grid_minimum(problem, 0, 64, final_step=2e-5)
        assert abs(value - grid_value) <= 1e-4

    def test_smooth_path_service(self):
        problem = service_problem()
        point, value = hindsight_optimum(problem, 0, 1)
        assert np.allclose(point, [X_STAR], atol=1e-6)
        assert value == pytest.approx(COST * X_STAR, abs=1e-8)

    def test_infeasible_target(self):
        linear = make_linear_problem(
            Simplex(3),
            np.array([1.0, 2.0, 3.0]),
            eq_rows=np.array([[1.0, 0.0, 0.0]]),
            targets=np.array([1.5]),
        )
        # full power on [0, 10] serves GAIN log1p(RATE 10) < LEVEL
        service = service_problem(level=GAIN * math.log1p(RATE * 10.0) + 0.5)
        for problem in (linear, service):
            with pytest.raises(InfeasibleProblemError):
                hindsight_optimum(problem, 0, 1)

    def test_service_needs_a_box(self):
        problem = service_instance(
            np.array([1.0, 2.0]),
            ServiceRows(np.array([1.0]), np.ones((1, 2))),
            np.zeros((0, 2)),
            np.zeros(0),
            Simplex(2),
        )
        with pytest.raises(OracleError):
            hindsight_optimum(problem, 0, 1)

    def test_datacenter_certificate(self):
        horizon = 2000
        problem = build_datacenter_problem(
            DatacenterConfig(), generate_price_trace(horizon, 0)
        )
        point, value = hindsight_optimum(problem, 0, horizon)
        means = problem.means
        assert np.linalg.norm(np.maximum(means.inequalities.values(point), 0.0)) <= 1e-6
        assert np.linalg.norm(means.eq_matrix @ point - problem.targets) <= 1e-6
        assert problem.decision_set.contains(point, tol=0.0)
        _, mult, _ = oracle._solve_service(oracle._window_program(problem, 0, horizon))
        lower = dual_function(problem, 0, horizon, DualPoint(mult[:1], mult[1:]))
        assert abs(value - lower) <= oracle._DUAL_GAP_TOL

    def test_negated_multipliers_fail_the_certificate(self, monkeypatch):
        solve = oracle._solve_linear

        def negated(program):
            point, ineq_mult, eq_mult = solve(program)
            return point, -ineq_mult, -eq_mult

        monkeypatch.setattr(oracle, "_solve_linear", negated)
        # eta = -1 on the pinned row; lam = 1 on the capped coordinate
        pinned = make_linear_problem(
            Simplex(2),
            np.array([1.0, 0.0]),
            eq_rows=np.array([[1.0, 0.0]]),
            targets=np.array([0.3]),
        )
        capped = make_linear_problem(
            Simplex(2),
            np.array([-1.0, 0.0]),
            ineq_rows=np.array([[1.0, 0.0]]),
            ineq_margins=np.array([0.3]),
        )
        for problem in (pinned, capped):
            with pytest.raises(OracleError):
                hindsight_optimum(problem, 0, 1)

    def test_means_required(self):
        import dataclasses

        problem = dataclasses.replace(build_synthetic_problem(3, 1, 1, 0), means=None)
        with pytest.raises(OracleError):
            hindsight_optimum(problem, 0, 10)

    def test_window_bounds_checked(self):
        problem = build_synthetic_problem(3, 1, 1, 0)
        with pytest.raises(OracleError):
            hindsight_optimum(problem, -1, 5)
        with pytest.raises(OracleError):
            hindsight_optimum(problem, 0, 0)


WINDOW_CALLS = {
    "hindsight_optimum": lambda p, start, length: hindsight_optimum(p, start, length),
    "dual_function": lambda p, start, length: dual_function(
        p, start, length, DualPoint(np.zeros(1), np.zeros(1))
    ),
    "estimate_multipliers": lambda p, start, length: estimate_multipliers(p, start, length),
    "weak_ebc_probe": lambda p, start, length: weak_ebc_probe(p, start, length, 1, [1.0]),
}


@pytest.mark.parametrize("call", sorted(WINDOW_CALLS))
@pytest.mark.parametrize(
    "start, length, message",
    [
        (0, 2.5, "window length must be an integer of at least 1, got 2.5"),
        (0, 2.0, "window length must be an integer of at least 1, got 2.0"),
        (0, "3", "window length must be an integer of at least 1, got '3'"),
        (0, 0, "window length must be an integer of at least 1, got 0"),
        (1.0, 3, "window start must be an integer of at least 0, got 1.0"),
        (-1, 3, "window start must be an integer of at least 0, got -1"),
        (None, 3, "window start must be an integer of at least 0, got None"),
    ],
)
def test_window_must_be_integers(call, start, length, message):
    problem = build_synthetic_problem(3, 1, 1, 0)
    with pytest.raises(OracleError, match=f"^{message}$"):
        WINDOW_CALLS[call](problem, start, length)


def test_window_takes_numpy_integers():
    problem = build_synthetic_problem(3, 1, 1, 0)
    point, value = hindsight_optimum(problem, np.int64(0), np.int64(4))
    expected_point, expected_value = hindsight_optimum(problem, 0, 4)
    assert point.tobytes() == expected_point.tobytes() and value == expected_value


class TestDualFunction:
    def test_zero_multipliers_give_unconstrained_minimum(self):
        problem = make_linear_problem(
            Simplex(3),
            np.array([0.4, 0.9, 0.7]),
            eq_rows=np.array([[0.0, 1.0, 0.0]]),
            targets=np.array([0.5]),
        )
        value = dual_function(problem, 0, 1, DualPoint(np.zeros(0), np.zeros(1)))
        assert value == pytest.approx(0.4, abs=1e-12)

    def test_negative_multiplier_rejected(self):
        with pytest.raises(OracleError):
            DualPoint(np.array([-0.1]), np.zeros(0))

    def test_shape_mismatch_rejected(self):
        problem = build_synthetic_problem(4, 2, 1, seed=0)
        with pytest.raises(OracleError):
            dual_function(problem, 0, 1, DualPoint(np.zeros(1), np.zeros(1)))

    def test_weak_duality(self):
        problem = build_synthetic_problem(5, 2, 2, seed=5)
        _, primal = hindsight_optimum(problem, 0, 40)
        rng = np.random.default_rng(42)
        for _ in range(100):
            point = DualPoint(
                np.abs(rng.normal(size=2)) * 2.0, rng.normal(size=2) * 2.0
            )
            assert dual_function(problem, 0, 40, point) <= primal + 1e-8

    def test_concavity(self):
        problem = build_synthetic_problem(5, 2, 2, seed=6)
        rng = np.random.default_rng(7)

        def random_point():
            return DualPoint(np.abs(rng.normal(size=2)), rng.normal(size=2))

        def q(p):
            return dual_function(problem, 0, 16, p)

        for _ in range(100):
            x, y = random_point(), random_point()
            s = rng.uniform(0.05, 0.95)
            mid = DualPoint(
                s * x.ineq + (1 - s) * y.ineq, s * x.eq + (1 - s) * y.eq
            )
            assert q(mid) >= s * q(x) + (1 - s) * q(y) - 1e-8


@st.composite
def service_lagrangians(draw):
    """A box service program with 1..6 coordinates, 1..2 service rows and
    0..2 equality rows, plus multipliers lam >= 0 and a free eta."""
    d = draw(st.integers(1, 6))
    n_ineq = draw(st.integers(1, 2))
    n_eq = draw(st.integers(0, 2))

    def block(shape, low, high):
        return draw(arrays(np.float64, shape, elements=st.floats(low, high)))

    lower = block(d, 0.0, 5.0)
    rows = ServiceRows(
        block(n_ineq, -10.0, 10.0),
        block((n_ineq, d), 0.0, 3.0),
        gain=draw(st.floats(0.5, 10.0)),
        rate=draw(st.floats(0.5, 10.0)),
    )
    problem = service_instance(
        block(d, -50.0, 50.0),
        rows,
        block((n_eq, d), -5.0, 5.0),
        block(n_eq, -5.0, 5.0),
        Box(lower, lower + block(d, 0.0, 20.0)),
    )
    return problem, block(n_ineq, 0.0, 50.0), block(n_eq, -20.0, 20.0)


@settings(max_examples=200, deadline=None)
@given(case=service_lagrangians())
def test_service_lagrangian_minimum_is_stationary(case):
    problem, lam, eta = case
    program = oracle._window_program(problem, 0, 1)
    point, value, _ = oracle._lagrangian_minimum(program, np.concatenate([lam, eta]))
    rows = program.inequalities
    grad = program.objective + lam @ rows.grads(point) + eta @ program.eq_matrix
    gap = float(grad @ (point - problem.decision_set.support_minimizer(grad)))
    assert problem.decision_set.contains(point, tol=0.0)
    assert gap <= 1e-9 * (1.0 + abs(value))


def test_service_dual_overflow_clips_silently():
    """A finite ratio near the float maximum overflows the stationary point;
    the coordinate clips to the upper bound, as the limit does, without a
    RuntimeWarning."""
    program = oracle._WindowProgram(
        objective=np.full(2, 1e-300),
        inequalities=ServiceRows(np.array([1.0]), np.ones((1, 2))),
        eq_matrix=np.zeros((0, 2)),
        targets=np.zeros(0),
        decision_set=Box(np.zeros(2), np.full(2, 30.0)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point, _, _ = oracle._lagrangian_minimum(program, np.array([1e7]))
    assert point.tolist() == [30.0, 30.0]


@st.composite
def simplex_lp_windows(draw):
    """A feasible simplex LP with 2..5 coordinates, 0..2 inequality and 0..2
    equality rows, plus a window.  Entries sit on a quarter grid; the margins
    and targets hold at an interior anchor, so every window is feasible."""
    d = draw(st.integers(2, 5))

    def block(shape, low, high):
        return draw(arrays(np.float64, shape, elements=st.integers(low, high).map(lambda k: k / 4)))

    weights = block(d, 1, 4)
    anchor = weights / weights.sum()
    ineq_rows = block((draw(st.integers(0, 2)), d), -4, 4)
    eq_rows = block((draw(st.integers(0, 2)), d), -4, 4)
    problem = make_linear_problem(
        Simplex(d),
        block(d, -4, 4),
        ineq_rows=ineq_rows,
        ineq_margins=ineq_rows @ anchor + block(ineq_rows.shape[0], 0, 2),
        eq_rows=eq_rows,
        targets=eq_rows @ anchor,
        drift_amplitude=draw(st.sampled_from([0.0, 0.1])),
        drift_period=8,
    )
    return problem, draw(st.integers(0, 20)), draw(st.integers(1, 20))


@settings(max_examples=150, deadline=None)
@given(case=simplex_lp_windows())
def test_linear_multipliers_are_optimal(case):
    problem, start, length = case
    point, value = hindsight_optimum(problem, start, length)
    duals, _ = estimate_multipliers(problem, start, length)
    assert np.all(duals.ineq >= 0.0)
    assert dual_function(problem, start, length, duals) == pytest.approx(value, abs=1e-9)
    slack = duals.ineq * problem.means.inequalities.values(point)
    assert np.all(np.abs(slack) <= 1e-9)


class TestMultiplierEstimate:
    def test_slack_constraints_give_zero(self):
        problem = make_linear_problem(
            Simplex(3),
            np.array([0.3, 0.8, 0.6]),
            ineq_rows=np.array([[1.0, 1.0, 1.0]]),
            ineq_margins=np.array([10.0]),
        )
        point, bound = estimate_multipliers(problem, 0, 1)
        assert np.allclose(point.ineq, 0.0)
        assert bound <= 1e-8

    def test_pinned_equality_zero_gap(self):
        problem = make_linear_problem(
            Simplex(2),
            np.array([1.0, 0.0]),
            eq_rows=np.array([[1.0, 0.0]]),
            targets=np.array([0.3]),
        )
        point, bound = estimate_multipliers(problem, 0, 1)
        value = dual_function(problem, 0, 1, point)
        assert value == pytest.approx(0.3, abs=1e-6)
        assert bound == pytest.approx(1.0, abs=1e-3)

    def test_infeasible_problem_diverges(self):
        linear = make_linear_problem(
            Simplex(3),
            np.array([1.0, 2.0, 3.0]),
            eq_rows=np.array([[1.0, 0.0, 0.0]]),
            targets=np.array([1.5]),
        )
        # full power on [0, 10] serves GAIN log1p(RATE 10) < LEVEL
        service = service_problem(level=GAIN * math.log1p(RATE * 10.0) + 0.5)
        for problem in (linear, service):
            with pytest.raises(MultiplierDivergenceError):
                estimate_multipliers(problem, 0, 1)

    def test_bound_stable_across_windows(self):
        # A drifting objective makes distinct windows average different
        # phases, so the estimates genuinely come from different programs.
        # Window starts are deliberately offset from the drift period.
        horizon = 6400
        k = int(round(np.sqrt(horizon)))
        for seed in (1, 2):
            problem = drifting_instance(seed)
            bounds = np.array(
                [
                    estimate_multipliers(problem, start, k)[1]
                    for start in (7, 1623, 3241, 4855)
                ]
            )
            center = bounds.mean()
            assert center > 0.0
            assert np.all(np.abs(bounds - center) <= 0.10 * center)

    def test_service_dual_matches_primal(self):
        problem = service_problem()
        point, bound = estimate_multipliers(problem, 0, 1)
        # the gap stop at 1e-6 with dual curvature 8 / LAM_STAR pins lam to
        # about sqrt(2e-6 * LAM_STAR / 8)
        assert point.ineq[0] == pytest.approx(LAM_STAR, abs=1.5e-3)
        value = dual_function(problem, 0, 1, point)
        assert value == pytest.approx(COST * X_STAR, abs=1e-6)

    def test_service_multiplier_is_exact(self):
        point, bound = estimate_multipliers(service_problem(), 0, 1)
        assert point.ineq[0] == pytest.approx(LAM_STAR, abs=1e-8)
        assert bound == pytest.approx(LAM_STAR, abs=1e-8)


class TestWeakEbcProbe:
    def test_service_ratio_grows_with_radius(self):
        problem = service_problem()
        estimates = [
            weak_ebc_probe(problem, 0, 1, 12, [radius], seed=1)[0]
            for radius in (0.1, 0.2, 0.4)
        ]
        # the dual is strictly concave, so the ratio grows with the radius
        for radius, c0 in zip((0.1, 0.2, 0.4), estimates):
            assert c0 == pytest.approx(service_ratio(radius), rel=0.08)
        assert estimates[0] < estimates[1] < estimates[2]

    def test_service_combined_grid(self):
        problem = service_problem()
        c0, ell0 = weak_ebc_probe(problem, 0, 1, 12, [0.05, 0.1, 0.2], seed=2)
        assert ell0 == pytest.approx(0.05)
        assert c0 == pytest.approx(service_ratio(0.05), rel=0.1)

    def test_piecewise_linear_minimal_slope(self):
        problem = make_linear_problem(
            Simplex(2),
            np.array([0.2, 0.5]),
            eq_rows=np.array([[1.0, 0.0]]),
            targets=np.array([0.4]),
        )
        # dual q(eta) = min(0.2 + 0.6 eta, 0.5 - 0.4 eta): slopes 0.6 and 0.4
        c0, ell0 = weak_ebc_probe(problem, 0, 1, 40, [0.05, 0.1, 0.2], seed=3)
        assert c0 == pytest.approx(0.4, rel=0.10)
        assert ell0 == pytest.approx(0.05)

    def test_bad_grid_rejected(self):
        problem = service_problem()
        with pytest.raises(OracleError):
            weak_ebc_probe(problem, 0, 1, 5, [])
        with pytest.raises(OracleError):
            weak_ebc_probe(problem, 0, 1, 0, [0.1])
