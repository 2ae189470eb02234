import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdomd import (
    Box,
    ConfigError,
    DatacenterConfig,
    DecisionSet,
    EuclideanGeometry,
    GeometryError,
    NegativeEntropyGeometry,
    ProblemError,
    Simplex,
    assemble_dual_weighted_gradient,
    build_datacenter_problem,
    build_synthetic_problem,
    generate_price_trace,
    initial_state,
    iterate_run,
    make_linear_problem,
    mirror_step,
    mix_toward_uniform,
    parameter_schedule,
    run,
    step,
)
from pdomd.core import AlgorithmParams, DualState, SolverState
from pdomd.geometry import prox_base
from pdomd.problems import ObservationBatch
from reference import slot_functions


def penalty_terms(slots):
    """V <grad f, mu' - mu> + alpha D(mu', base) of every slot that steps,
    from consecutive iterate_run yields: mu and mu' are the decisions before
    and after the step, grad f is the observation the step consumed, and
    base is prox_base: mix_toward_uniform(mu, theta) on the simplex variant
    and mu on the general one."""
    terms = []
    for (before, _, _, obs), (after, _, _, _) in zip(slots, slots[1:]):
        params, mu, mu_new = after.params, before.decision, after.decision
        base = prox_base(after.variant, mu, params.mixing_weight)
        terms.append(
            params.objective_weight * float(obs.objective_grad @ (mu_new - mu))
            + params.prox_weight * after.geometry.divergence(mu_new, base)
        )
    return terms


def small_params(horizon, theta=0.0):
    return AlgorithmParams(
        objective_weight=float(np.sqrt(horizon)),
        prox_weight=float(horizon),
        mixing_weight=theta,
    )


class TestSchedule:
    def test_reference_horizon(self):
        p = parameter_schedule(10_000, "simplex")
        assert p.objective_weight == 100.0
        assert p.prox_weight == 10_000.0
        assert p.mixing_weight == 1e-4

    def test_small_horizon(self):
        p = parameter_schedule(4, "simplex")
        assert (p.objective_weight, p.prox_weight) == (2.0, 4.0)
        assert p.mixing_weight == 0.25

    def test_general_variant_has_no_mixing(self):
        assert parameter_schedule(100, "general").mixing_weight == 0.0

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(ConfigError):
            parameter_schedule(1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            parameter_schedule(100, "fancy")

    def test_bad_weights_rejected_by_name(self):
        base = dataclasses.asdict(parameter_schedule(100, "simplex"))
        for field, value in (
            ("objective_weight", float("nan")),
            ("objective_weight", float("inf")),
            ("prox_weight", float("nan")),
            ("prox_weight", -1.0),
            ("mixing_weight", float("nan")),
        ):
            with pytest.raises(ConfigError, match=field):
                AlgorithmParams(**{**base, field: value})


class TestAssembly:
    def test_direct_sum_example(self):
        problem = make_linear_problem(
            Simplex(2),
            np.array([1.0, 0.0]),
            ineq_rows=np.array([[0.0, 1.0]]),
            ineq_margins=np.array([0.0]),
        )
        params = small_params(4)
        params = AlgorithmParams(
            objective_weight=1.0,
            prox_weight=params.prox_weight,
            mixing_weight=0.0,
        )
        state = initial_state(problem, params)
        state = SolverState(
            slot=1,
            decision=state.decision,
            duals=DualState(np.array([2.0]), np.zeros(0)),
            params=params,
            decision_set=state.decision_set,
            targets=state.targets,
            variant="general",
        )
        fns = slot_functions(problem, 0, 0)
        obs = fns.observe(state.decision)
        # Build an observation with exact gradients (no sampling noise).
        coeffs = assemble_dual_weighted_gradient(state, obs)
        expected = obs.objective_grad + 2.0 * obs.ineq_grads[0]
        assert np.allclose(coeffs, expected, atol=1e-15)

    def test_zero_duals_reduce_to_objective(self):
        problem = build_synthetic_problem(5, 2, 1, seed=0)
        params = small_params(16)
        state = initial_state(problem, params)
        fns = slot_functions(problem, 3, 0)
        obs = fns.observe(state.decision)
        coeffs = assemble_dual_weighted_gradient(state, obs)
        assert np.allclose(coeffs, params.objective_weight * obs.objective_grad)


class TestStep:
    def test_first_slot_plays_initial_point(self):
        problem = build_synthetic_problem(6, 1, 1, seed=4)
        state = initial_state(problem, small_params(100))
        new_state, outcome = step(state, None)
        assert np.array_equal(new_state.decision, problem.decision_set.initial_point())
        assert outcome.drift == 0.0
        assert outcome.ineq_dual_norm == 0.0 and outcome.eq_dual_norm == 0.0
        assert new_state.slot == 1

    def test_unconstrained_box_converges_to_vertex(self):
        box = Box(np.zeros(3), np.ones(3))
        c = np.array([1.0, -2.0, 0.5])
        problem = make_linear_problem(box, c)
        record = run(problem, 400, seed=0, variant="general")
        target = box.support_minimizer(c)
        assert np.max(np.abs(record.decisions[-1] - target)) < 0.05

    def test_observation_shape_validation(self):
        problem = build_synthetic_problem(5, 2, 1, seed=0)
        state = initial_state(problem, small_params(16))
        other = build_synthetic_problem(4, 2, 1, seed=0)
        fns = slot_functions(other, 0, 0)
        obs = fns.observe(np.full(4, 0.25))
        with pytest.raises(ProblemError):
            step(state, obs)

    def test_non_finite_observation_rejected(self):
        # A NaN constraint value on the box path must not reach the
        # multipliers; every observation field is checked at entry.
        box = Box(np.zeros(3), np.ones(3))
        problem = make_linear_problem(
            box,
            np.array([1.0, -2.0, 0.5]),
            ineq_rows=np.array([[1.0, 1.0, 1.0]]),
            ineq_margins=np.array([1.0]),
            eq_rows=np.array([[1.0, 0.0, 0.0]]),
            targets=np.array([0.5]),
        )
        state = initial_state(problem, small_params(16), "general")
        state, _ = step(state, None)
        obs = slot_functions(problem, 0, 0).observe(state.decision)
        step(state, obs)
        broken = {
            "ineq_values": np.array([np.nan]),
            "objective_value": np.inf,
            "objective_grad": np.array([0.0, -np.inf, 0.0]),
            "ineq_grads": np.array([[0.0, np.nan, 0.0]]),
            "eq_matrix": np.array([[np.inf, 0.0, 0.0]]),
        }
        for field, value in broken.items():
            with pytest.raises(ProblemError, match="slot 0"):
                step(state, dataclasses.replace(obs, **{field: value}))

    @pytest.mark.parametrize("slot", [5, 9])
    def test_non_finite_slot_fails_the_run(self, slot):
        # slot 9 is the last of 10: no step consumes its observation, so
        # iterate_run checks it apart
        problem = build_synthetic_problem(5, 2, 1, seed=3)

        def sample_block(seeds, first, end):
            block = problem.sample_block(seeds, first, end)
            if first <= slot < end:
                block.objective[slot - first, list(seeds).index(2)] = np.nan
            return block

        poisoned = dataclasses.replace(problem, sample_block=sample_block)
        with pytest.raises(ProblemError, match=f"seed 2, slot {slot}: observation is not finite"):
            run(poisoned, 10, seed=2)
        params = parameter_schedule(10)
        with pytest.raises(ProblemError, match=f"seed 2, slot {slot}: observation is not finite"):
            list(iterate_run(poisoned, 10, params, (2, 6)))

    def test_equality_tracking_on_box(self):
        # One pinned coordinate: time-averaged <h, mu> should close in on b
        # at a root-T pace.
        box = Box(np.zeros(2), np.ones(2))
        errors = {}
        for horizon in (100, 400, 1600):
            problem = make_linear_problem(
                box,
                np.array([1.0, 0.1]),
                eq_rows=np.array([[1.0, 0.0]]),
                targets=np.array([0.35]),
                eq_noise=0.05,
            )
            record = run(problem, horizon, seed=3, variant="general")
            avg = record.eq_realized.mean(axis=0)[0]
            errors[horizon] = abs(avg - 0.35)
        assert errors[1600] < errors[100]
        envelope = errors[100] * np.sqrt(100) * 1.5
        assert errors[1600] <= envelope / np.sqrt(1600)


class TestRunInvariants:
    def test_dual_nonnegativity_and_telescoping(self):
        problem = build_synthetic_problem(8, 2, 2, seed=1)
        record = run(problem, 600, seed=5, variant="general")
        assert np.all(record.ineq_dual_norm >= 0.0)
        total_drift = float(np.sum(record.drift))
        final = 0.5 * (record.ineq_dual_norm[-1] ** 2 + record.eq_dual_norm[-1] ** 2)
        assert abs(total_drift - final) <= 1e-6 * max(final, 1.0)

    def test_penalty_lower_bound_each_step(self):
        # General variant: advance + prox cost >= -V^2 D1^2 / (2 alpha beta),
        # with D1 the largest realized ||grad f||_2 over the slots run.
        problem = build_synthetic_problem(6, 2, 2, seed=2)
        params = parameter_schedule(400, "general")
        from pdomd import iterate_run

        slots = list(iterate_run(problem, 400, params, seed=6, variant="general"))
        d1 = max(EuclideanGeometry().dual_norm(obs.objective_grad) for *_, obs in slots)
        floor = -(params.objective_weight**2) * d1**2 / (2.0 * params.prox_weight)
        for term in penalty_terms(slots):
            assert term >= floor - 1e-12

    def test_penalty_lower_bound_simplex(self):
        # D1 is the largest realized ||grad f||_inf over the slots run.
        problem = build_synthetic_problem(6, 2, 2, seed=2)
        params = parameter_schedule(400, "simplex")
        from pdomd import iterate_run

        slots = list(iterate_run(problem, 400, params, seed=6, variant="simplex"))
        d1 = max(NegativeEntropyGeometry().dual_norm(obs.objective_grad) for *_, obs in slots)
        floor = -(
            (params.objective_weight**2) * d1**2 / (2.0 * params.prox_weight)
            + params.objective_weight * params.mixing_weight * d1
        )
        for term in penalty_terms(slots):
            assert term >= floor - 1e-12

    def test_simplex_iterates_stay_valid(self):
        problem = build_synthetic_problem(10, 2, 2, seed=7)
        record = run(problem, 300, seed=8, variant="simplex")
        sums = record.decisions.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10
        assert np.min(record.decisions) > 0.0
        theta = record.params.mixing_weight
        d = record.dimension
        for t in range(1, record.horizon):
            mixed = mix_toward_uniform(record.decisions[t - 1], theta)
            assert np.min(mixed) >= theta / d - 1e-18

    def test_run_determinism(self):
        problem = build_synthetic_problem(6, 1, 1, seed=0)
        a = run(problem, 200, seed=11, variant="simplex")
        b = run(problem, 200, seed=11, variant="simplex")
        assert np.array_equal(a.decisions, b.decisions)
        assert np.array_equal(a.drift, b.drift)
        assert np.array_equal(a.objective_realized, b.objective_realized)
        assert a.params == b.params and a.seed == b.seed

    def test_seed_changes_trajectory(self):
        problem = build_synthetic_problem(6, 1, 1, seed=0)
        a = run(problem, 50, seed=1)
        b = run(problem, 50, seed=2)
        assert not np.array_equal(a.decisions, b.decisions)

    def test_empty_horizon(self):
        problem = build_synthetic_problem(4, 1, 1, seed=0)
        record = run(problem, 0, seed=0)
        assert record.horizon == 0
        assert record.decisions.shape == (0, 4)

    def test_slot_zero_row(self):
        problem = build_synthetic_problem(5, 2, 1, seed=3)
        record = run(problem, 10, seed=0, variant="general")
        assert record.ineq_dual_norm[0] == 0.0
        assert record.eq_dual_norm[0] == 0.0
        assert record.drift[0] == 0.0
        assert np.array_equal(record.decisions[0], np.full(5, 0.2))

    def test_geometry_mismatch_guard(self):
        box_problem = make_linear_problem(
            Box(np.zeros(2), np.ones(2)), np.array([1.0, 0.0])
        )
        with pytest.raises(ConfigError, match="needs a simplex decision set"):
            initial_state(box_problem, small_params(16), variant="simplex")

    def test_set_without_closed_form_refused_before_a_step(self):
        class Ball(DecisionSet):  # neither a box nor a simplex
            dim = 2
            contains = project = support_minimizer = sample = None

            def initial_point(self):
                return np.zeros(2)

        box_problem = make_linear_problem(Box(np.zeros(2), np.ones(2)), np.array([1.0, 0.0]))
        problem = dataclasses.replace(box_problem, decision_set=Ball())
        with pytest.raises(GeometryError, match="no closed-form prox for a Ball decision set"):
            initial_state(problem, small_params(16))

    @pytest.mark.parametrize("scenario", ["synthetic-general", "synthetic-simplex", "datacenter"])
    def test_step_is_mirror_step_bit_for_bit(self, scenario):
        # each lane's next decision is the checked library step's answer
        # from the lane's own prox base and coefficients
        horizon, variant = 40, scenario.removeprefix("synthetic-")
        if scenario == "datacenter":
            problem = build_datacenter_problem(DatacenterConfig(), generate_price_trace(horizon, 0))
            variant = "general"
        else:
            problem = build_synthetic_problem(6, 2, 2, seed=0)
        params = parameter_schedule(horizon, variant)
        slots = list(iterate_run(problem, horizon, params, (3, 4, 5), variant))
        for (before, _, _, obs), (after, _, _, _) in zip(slots, slots[1:]):
            base = prox_base(variant, before.decision, params.mixing_weight)
            coeffs = assemble_dual_weighted_gradient(before, obs)
            for lane in range(3):
                expected = mirror_step(
                    before.geometry, before.decision_set, base[lane], coeffs[lane],
                    params.prox_weight,
                )
                assert np.array_equal(after.decision[lane], expected), (after.slot, lane)


_ENTRY = st.floats(-10.0, 10.0)


def _batch(objective_grad, ineq_values, ineq_grads, eq_matrix):
    return ObservationBatch(
        slot=0,
        objective_value=0.0,
        objective_grad=np.array(objective_grad, dtype=float),
        ineq_values=np.array(ineq_values, dtype=float),
        ineq_grads=np.array(ineq_grads, dtype=float),
        eq_matrix=np.array(eq_matrix, dtype=float),
    )


@st.composite
def step_cases(draw):
    """A small problem, a starting (Q, H) and a few slots of observations."""
    d, n_ineq, n_eq, horizon = (
        draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (0, 3), (0, 2), (1, 4))
    )

    def array(*shape, elements=_ENTRY):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)

    return {
        "setting": draw(st.sampled_from(["box", "simplex-euclidean", "simplex-entropy"])),
        "d": d,
        "weights": (draw(st.floats(0.1, 10.0)), draw(st.floats(0.5, 100.0))),
        "q0": array(n_ineq, elements=st.floats(0.0, 10.0)),
        "h0": array(n_eq),
        "targets": array(n_eq),
        "slots": [
            _batch(array(d), array(n_ineq), array(n_ineq, d), array(n_eq, d))
            for _ in range(horizon)
        ],
    }


def _example(q0, h0, target, objective_grad, g_value, g_grad, h_row, expect):
    """One slot on the unit box from (0.5, 0.5) with V = alpha = 1."""
    return {
        "setting": "box",
        "d": 2,
        "weights": (1.0, 1.0),
        "q0": np.array([q0]),
        "h0": np.array([h0]),
        "targets": np.array([target]),
        "slots": [_batch(objective_grad, [g_value], [g_grad], [h_row])],
        "expect": expect,
    }


MULTIPLIER_EXAMPLES = (
    # The step moves (0.5, 0.5) to (1, 0), so <grad g, mu_new - mu_prev> = -0.5
    # for grad g = (-1, 0): Q = 2 + 1 - 0.5, and h = (1, 1) gives H = 0 + 1 - 1.
    _example(2.0, 0.0, 1.0, [-1.0, 1.0], 1.0, [-1.0, 0.0], [1.0, 1.0], ([2.5], [0.0])),
    # The same move with g = -3 and grad g = (1, 0) clips Q = 1 - 3 + 0.5 at
    # zero; H = 1 + <(2, 2), (1, 0)> - 0.5.
    _example(1.0, 1.0, 0.5, [-4.0, -1.0], -3.0, [1.0, 0.0], [2.0, 2.0], ([0.0], [2.5])),
    # No move: Q = max(0 - 1, 0) and H = -1 + 0 - 1.
    _example(0.0, -1.0, 1.0, [0.0, 0.0], -1.0, [0.0, 0.0], [0.0, 0.0], ([0.0], [-2.0])),
)


def _start(case):
    """The state a step case starts from: its (Q, H) on a problem whose own
    rows are zero, so the observations alone drive the multipliers."""
    d, setting = case["d"], case["setting"]
    decision_set = Box(np.zeros(d), np.ones(d)) if setting == "box" else Simplex(d)
    variant = "simplex" if setting == "simplex-entropy" else "general"
    problem = make_linear_problem(
        decision_set,
        np.zeros(d),
        ineq_rows=np.zeros((len(case["q0"]), d)),
        eq_rows=np.zeros((len(case["targets"]), d)),
        targets=case["targets"],
    )
    v, alpha = case["weights"]
    params = AlgorithmParams(v, alpha, 0.1 if variant == "simplex" else 0.0)
    state = initial_state(problem, params, variant)
    return dataclasses.replace(state, duals=DualState(case["q0"], case["h0"]))


def _final_duals(case):
    state = _start(case)
    for obs in case["slots"]:
        state, _ = step(state, obs)
    return state.duals.ineq.tolist(), state.duals.eq.tolist()


class TestMultiplierUpdates:
    def test_inequality_examples(self):
        for case in MULTIPLIER_EXAMPLES:
            assert _final_duals(case)[0] == case["expect"][0]

    def test_equality_examples(self):
        for case in MULTIPLIER_EXAMPLES:
            assert _final_duals(case)[1] == case["expect"][1]


@settings(max_examples=150, deadline=None)
@given(case=step_cases())
@example(case=MULTIPLIER_EXAMPLES[0])
@example(case=MULTIPLIER_EXAMPLES[1])
@example(case=MULTIPLIER_EXAMPLES[2])
def test_step_multiplier_algebra(case):
    """Q stays nonnegative, the drift is half the change of ||(Q, H)||^2,
    and H_t = H_0 + sum_s (h^s mu_{s+1} - b)."""
    targets = case["targets"]
    state = _start(case)
    h_sum = case["h0"]
    for obs in case["slots"]:
        mu_prev, q_prev, h_prev = state.decision, state.duals.ineq, state.duals.eq
        state, outcome = step(state, obs)
        mu_new, q_new, h_new = state.decision, state.duals.ineq, state.duals.eq
        assert np.all(q_new >= 0.0)
        expected_q = np.maximum(q_prev + obs.ineq_values + obs.ineq_grads @ (mu_new - mu_prev), 0.0)
        assert np.allclose(q_new, expected_q, rtol=1e-12, atol=1e-12)
        h_sum = h_sum + (obs.eq_matrix @ mu_new - targets)
        assert np.allclose(h_new, h_sum, rtol=1e-12, atol=1e-12)
        squares = np.sum(q_new**2) + np.sum(h_new**2) - np.sum(q_prev**2) - np.sum(h_prev**2)
        scale = 1.0 + np.sum(q_new**2) + np.sum(h_new**2) + np.sum(q_prev**2) + np.sum(h_prev**2)
        assert abs(outcome.drift - 0.5 * squares) <= 1e-12 * scale
