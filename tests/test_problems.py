from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdomd import (
    DatacenterConfig,
    LinearRows,
    PriceTrace,
    ProblemError,
    ServiceRows,
    Simplex,
    build_datacenter_problem,
    build_synthetic_problem,
    iterate_run,
    make_linear_problem,
    parameter_schedule,
    reac_schedule,
    run,
    service_curve,
    service_curve_inverse,
)
from pdomd import problems
from pdomd.problems import (
    ARRIVAL_MEAN,
    BUDGET_MEAN,
    CLUSTER_SIZE,
    N_CLUSTERS,
    PACING_RATIOS,
    POWER_CAP,
    SEED_BLOCK,
    SERVICE_GAIN,
    SERVICE_RATE,
    _pacing_structure,
)
from reference import slot_functions

# Frozen reference: (e^(5/8) - 1)/4
INVERSE_AT_FIVE = 0.2170614893580556


def pareto_sample(mean, shape, rng, size=None):
    """Pareto draw(s) with the given mean; scale is mean*(shape-1)/shape.

    numpy's generator exposes the Lomax form, so we shift and rescale.
    Requires shape > 1, otherwise the mean does not exist. The reference
    for the datacenter's service noise and budgets.
    """
    if shape <= 1.0:
        raise ProblemError(f"pareto shape must exceed 1 for a finite mean, got {shape}")
    if mean <= 0.0:
        raise ProblemError(f"pareto mean must be positive, got {mean}")
    scale = mean * (shape - 1.0) / shape
    return (rng.pareto(shape, size=size) + 1.0) * scale


def poisson_sample(mean, rng):
    """Single Poisson draw (mean > 0): the reference for datacenter arrivals."""
    if mean <= 0.0:
        raise ProblemError(f"poisson mean must be positive, got {mean}")
    return int(rng.poisson(mean))


def constant_trace(n_slots, price=20.0, zones=5):
    names = tuple(f"Z{i}" for i in range(zones))
    return PriceTrace(names, np.full((n_slots, zones), price))


class TestSamplers:
    def test_pareto_support_and_scale(self):
        rng = np.random.default_rng(0)
        draws = pareto_sample(5.0, 2.5, rng, size=20_000)
        assert np.all(draws >= 3.0)
        assert draws.min() < 3.01  # scale is the essential infimum

    def test_pareto_mean(self):
        rng = np.random.default_rng(1)
        draws = pareto_sample(5.0, 2.5, rng, size=1_000_000)
        assert abs(draws.mean() - 5.0) < 0.05

    def test_pareto_shape_precondition(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ProblemError):
            pareto_sample(1.0, 1.0, rng)
        with pytest.raises(ProblemError):
            pareto_sample(-1.0, 2.5, rng)

    def test_poisson_moments(self):
        rng = np.random.default_rng(3)
        draws = np.array([poisson_sample(1000.0, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 1000.0) < 10.0
        assert abs(draws.var() - 1000.0) < 50.0

    def test_poisson_small_mean(self):
        rng = np.random.default_rng(4)
        draws = [poisson_sample(1e-9, rng) for _ in range(1000)]
        assert all(x == 0 for x in draws)

    def test_poisson_seed_replay(self):
        a = np.random.default_rng(77)
        b = np.random.default_rng(77)
        seq_a = [poisson_sample(42.0, a) for _ in range(50)]
        seq_b = [poisson_sample(42.0, b) for _ in range(50)]
        assert seq_a == seq_b


def spawned_rng(seed, slot):
    """numpy's own generator for slot `slot` of seed's run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(slot,)))


def slot_generator(seed, slot):
    """The generator of one slot, as `sample_block` seeds it."""
    return np.random.Generator(problems._block_bits((seed,), slot, slot + 1)[0])


class TestSlotRng:
    """A slot's generator is numpy's spawned SeedSequence stream, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**130 - 1), st.integers(0, 2**40 - 1))
    @example(0, 511)  # the edges of the first seed block
    @example(0, 512)
    @example(0, 513)
    @example(1, 2**32 - 1)  # the last one-word slot key
    @example(1, 2**32)  # the first two-word slot key
    @example(2**32, 7)  # the first two-word seed
    @example(2**64, 2**32 + 513)  # a three-word seed
    @example(True, np.int64(513))  # a bool and a numpy integer, as numpy reads them
    def test_matches_numpy_seed_sequence(self, seed, slot):
        ours = slot_generator(seed, slot)
        reference = spawned_rng(seed, slot)
        assert ours.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(ours.uniform(size=5), reference.uniform(size=5))

    @pytest.mark.parametrize(
        "seed, slot, name", [(-1, 0, "seed"), (0, -1, "slot"), (1.5, 0, "seed"), ("3", 0, "seed")]
    )
    def test_bad_seed_or_slot_is_named(self, seed, slot, name):
        with pytest.raises(ProblemError, match=f"^{name} must be a nonnegative integer"):
            slot_generator(seed, slot)

    def test_generator_holds_only_its_pcg64_seed(self):
        rng = slot_generator(0, 0)
        with pytest.raises(ProblemError, match="PCG64's four 64-bit words"):
            rng.bit_generator.seed_seq.generate_state(8)
        with pytest.raises(TypeError):
            rng.spawn(1)

    def test_run_rejects_a_negative_seed(self):
        with pytest.raises(ProblemError, match="^seed must be a nonnegative integer, got -1"):
            run(build_synthetic_problem(10, 2, 2, 0), 5, seed=-1)


def drifting_problem():
    """Noisy objective and equality rows over a drifting mean; noiseless
    inequality rows, which make no draws."""
    rng = np.random.default_rng(11)
    return make_linear_problem(
        Simplex(5),
        rng.uniform(0.0, 1.0, 5),
        ineq_rows=rng.standard_normal((2, 5)),
        ineq_margins=np.full(2, 0.3),
        eq_rows=rng.standard_normal((1, 5)),
        targets=np.array([0.1]),
        objective_noise=0.2,
        ineq_noise=0.0,
        eq_noise=0.05,
        drift_amplitude=0.4,
        drift_period=13,
    )


DC_TRACE_SLOTS = 2 * SEED_BLOCK + 40  # crosses two seed-block edges
BLOCK_PROBLEMS = {
    "synthetic": lambda: build_synthetic_problem(6, 2, 2, seed=0),
    "drifting": drifting_problem,
    "datacenter": lambda: build_datacenter_problem(
        DatacenterConfig(pareto_shape=2.2),
        PriceTrace(
            tuple(f"Z{i}" for i in range(5)),
            np.random.default_rng(5).uniform(10.0, 50.0, (DC_TRACE_SLOTS, 5)),
        ),
    ),
}
BLOCK_FIRSTS = [0, SEED_BLOCK - 5, 2 * SEED_BLOCK - 1, 2**32 - 7, 2**32 + SEED_BLOCK - 2]


NOISE = {"synthetic": (0.2, 0.2, 0.1), "drifting": (0.2, 0.0, 0.05)}  # objective, ineq, eq


def numpy_slot(name, problem, seed, t):
    """The arrays of slot t of seed's run, by field name, from numpy's own
    samplers on the slot's spawned stream: uniform noise on the linear
    scenarios' means, in the order objective, inequalities, equalities;
    Poisson arrivals and then Pareto service noise and budgets on the
    datacenter's."""
    rng, means = spawned_rng(seed, t), problem.means
    if name == "datacenter":
        arrivals = poisson_sample(ARRIVAL_MEAN, rng)
        noise = pareto_sample(1.0, 2.2, rng, size=50)
        budgets = pareto_sample(BUDGET_MEAN, 2.2, rng, size=50)
        return {
            "objective": means.objective_at(t),
            "eq_matrix": budgets * _pacing_structure(),
            "levels": np.array([float(arrivals)]),
            "weights": noise[None, :],
        }

    def noisy(mean, level):
        return mean + rng.uniform(-level, level, mean.shape) if level else mean

    objective_noise, ineq_noise, eq_noise = NOISE[name]
    objective = noisy(means.objective_at(t), objective_noise)
    coeffs = noisy(means.inequalities.coeffs, ineq_noise)
    return {
        "objective": objective,
        "eq_matrix": noisy(means.eq_matrix, eq_noise),
        "coeffs": coeffs,
        "offsets": means.inequalities.offsets,
    }


def block_arrays(fns):
    rows = fns.inequalities
    return {
        "objective": fns.objective,
        "eq_matrix": fns.eq_matrix,
        **{name: value for name, value in vars(rows).items() if isinstance(value, np.ndarray)},
    }


class TestSampleBlock:
    """A block of lane-slots is each lane-slot's own draw from numpy's
    samplers, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(BLOCK_PROBLEMS)),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        first=st.sampled_from(BLOCK_FIRSTS) | st.integers(0, 2**33),
        length=st.integers(1, 12),
    )
    @example(name="datacenter", seeds=[0, 2**64 - 1], first=SEED_BLOCK - 5, length=12)
    @example(name="drifting", seeds=[3], first=2**32 - 7, length=12)
    def test_block_equals_stacked_slots(self, name, seeds, first, length):
        problem = BLOCK_PROBLEMS[name]()
        if name == "datacenter":  # its slots end with the price trace
            first %= DC_TRACE_SLOTS - length
        end = first + length
        block = problem.sample_block(seeds, first, end)
        slots = [[numpy_slot(name, problem, seed, t) for seed in seeds] for t in range(first, end)]
        # np.array lays the (slot, lane) grid out C-contiguous, as one slot's own arrays are
        want = {key: np.array([[lane[key] for lane in row] for row in slots]) for key in slots[0][0]}
        assert block.slot == first
        assert type(block.inequalities) is (ServiceRows if name == "datacenter" else LinearRows)
        got = block_arrays(block)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key].shape == value.shape, key
            assert got[key].tobytes() == value.tobytes(), key
            assert got[key].strides == value.strides, key

    @pytest.mark.parametrize(
        "seeds, first, end, message",
        [
            ((0, -1), 0, 4, "^seed must be a nonnegative integer, got -1"),
            ((1.5,), 0, 4, "^seed must be a nonnegative integer, got 1.5"),
            (("3",), 0, 4, "^seed must be a nonnegative integer, got '3'"),
            ((0,), -1, 4, "^slot must be a nonnegative integer, got -1"),
            ((0,), 2.0, 4, "^slot must be a nonnegative integer, got 2.0"),
            ((0,), 3, 3, "^block end must be an integer above slot 3, got 3"),
            ((0,), 3, 4.5, "^block end must be an integer above slot 3, got 4.5"),
        ],
    )
    @pytest.mark.parametrize("name", sorted(BLOCK_PROBLEMS))
    def test_bad_seed_or_slot_is_named(self, name, seeds, first, end, message):
        with pytest.raises(ProblemError, match=message):
            BLOCK_PROBLEMS[name]().sample_block(seeds, first, end)

    def test_block_past_the_trace_refused(self):
        prob = build_datacenter_problem(DatacenterConfig(), constant_trace(3))
        prob.sample_block((0, 1), 1, 3)
        with pytest.raises(ProblemError, match="slot 3 beyond trace length 3"):
            prob.sample_block((0, 1), 2, 4)

    def test_wide_walk_hashes_each_seed_block_once(self, monkeypatch):
        # the walk asks for every lane's seed block in turn, so the cache
        # must hold one per lane even past SEED_CACHE_BLOCKS lanes
        hashed = Counter()
        seed_block = problems._seed_block

        def counted(seed, block):
            hashed[seed, block] += 1
            return seed_block(seed, block)

        monkeypatch.setattr(problems, "_seed_block", counted)
        monkeypatch.setattr(problems, "_seed_blocks", {})
        lanes = tuple(range(100, 180))
        assert len(lanes) > problems.SEED_CACHE_BLOCKS
        problem = build_synthetic_problem(4, 1, 1, 0)
        horizon = SEED_BLOCK + 64
        params = parameter_schedule(horizon, "simplex")
        for _ in iterate_run(problem, horizon, params, lanes, "simplex"):
            pass
        assert hashed == {(seed, block): 1 for seed in lanes for block in (0, 1)}


class TestServiceCurve:
    def test_zero_power_serves_nothing(self):
        assert service_curve(0.0) == 0.0

    def test_inverse_frozen_value(self):
        assert abs(service_curve_inverse(5.0) - INVERSE_AT_FIVE) < 1e-12

    def test_inverse_saturates(self):
        assert service_curve_inverse(1000.0) == 30.0
        # expm1 overflows past a target of about 709 * gain; the power is the cap
        assert service_curve_inverse(6000.0) == 30.0
        assert np.all(reac_schedule([1e6]) == POWER_CAP)

    def test_round_trip_identity(self):
        power = np.linspace(0.0, 30.0, 301)
        back = service_curve_inverse(service_curve(power))
        assert np.max(np.abs(back - power)) < 1e-10

    def test_negative_target_rejected(self):
        with pytest.raises(ProblemError):
            service_curve_inverse(-0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_input_is_named(self, bad):
        with pytest.raises(ProblemError, match="^power must be finite and nonnegative"):
            service_curve(bad)
        with pytest.raises(ProblemError, match="^target must be finite and nonnegative"):
            service_curve_inverse(np.array([1.0, bad]))


class TestSyntheticProblem:
    def test_unconstrained_degenerate(self):
        prob = build_synthetic_problem(4, 0, 0, seed=0)
        assert prob.n_ineq == 0 and prob.n_eq == 0
        slot = slot_functions(prob, 0, 3)
        assert len(slot.inequalities) == 0
        assert slot.eq_matrix.shape == (0, 4)

    def test_non_finite_inputs_rejected_by_name(self):
        good = {
            "objective_mean": np.array([0.1, 0.2, 0.3]),
            "ineq_rows": np.ones((1, 3)),
            "ineq_margins": np.ones(1),
            "eq_rows": np.ones((1, 3)),
            "targets": np.full(1, 0.5),
        }
        nan_row = np.array([[1.0, np.nan, 0.0]])
        for arg, value in (
            ("objective_mean", np.array([0.1, np.nan, 0.3])),
            ("ineq_rows", nan_row),
            ("ineq_margins", np.array([np.inf])),
            ("eq_rows", nan_row),
            ("targets", np.array([-np.inf])),
            ("objective_noise", np.nan),
            ("ineq_noise", -0.1),
            ("eq_noise", np.inf),
            ("drift_amplitude", np.nan),
            ("drift_period", 0),
        ):
            with pytest.raises(ProblemError, match=arg):
                make_linear_problem(Simplex(3), **{**good, arg: value})

    def test_too_many_equalities(self):
        with pytest.raises(ProblemError):
            build_synthetic_problem(3, 0, 3, seed=0)

    def test_equality_rows_independent_and_feasible(self):
        prob = build_synthetic_problem(10, 2, 2, seed=5)
        rows = prob.means.eq_matrix
        assert np.linalg.matrix_rank(rows) == 2
        # The targets come from an interior anchor, so some simplex point
        # meets the equalities with margin to spare on the inequalities.
        # Recover one by least squares restricted to the affine slice.
        d = prob.dimension
        aug = np.vstack([rows, np.ones(d)])
        rhs = np.concatenate([prob.targets, [1.0]])
        anchor, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        assert np.all(anchor > 0.0)
        for g_value in prob.means.inequalities.values(anchor):
            assert g_value < 0.0

    def test_sampling_deterministic(self):
        prob = build_synthetic_problem(6, 2, 1, seed=9)
        s1 = slot_functions(prob, 123, 7)
        s2 = slot_functions(prob, 123, 7)
        mu = np.full(6, 1.0 / 6)
        assert s1.objective @ mu == s2.objective @ mu
        assert np.array_equal(s1.eq_matrix, s2.eq_matrix)

    def test_monte_carlo_means_match(self):
        # slots 0..n-1 of one seed: the noise is i.i.d. across slots, and
        # nothing drifts, so every slot has the same means
        prob = build_synthetic_problem(5, 2, 2, seed=11)
        mu = np.random.default_rng(1).dirichlet(np.ones(5))
        n = 100_000
        obj_sum = 0.0
        g_sum = np.zeros(2)
        h_sum = np.zeros((2, 5))
        for first in range(0, n, SEED_BLOCK):
            block = prob.sample_block((42,), first, min(n, first + SEED_BLOCK))
            obj_sum += np.sum(block.objective @ mu)
            g_sum += np.sum(block.inequalities.values(mu), axis=(0, 1))
            h_sum += np.sum(block.eq_matrix, axis=(0, 1))
        mean_obj = prob.means.objective_at(0) @ mu
        # noise is U[-s, s] per coefficient: var = s^2/3 per entry
        obj_sigma = np.sqrt((0.2**2 / 3) * np.sum(mu**2) / n)
        assert abs(obj_sum / n - mean_obj) < 3 * obj_sigma + 1e-12
        for i, g_mean in enumerate(prob.means.inequalities.values(mu)):
            g_sigma = np.sqrt((0.2**2 / 3) * np.sum(mu**2) / n)
            assert abs(g_sum[i] / n - g_mean) < 3 * g_sigma + 1e-12
        h_sigma = np.sqrt((0.1**2 / 3) / n)
        assert np.max(np.abs(h_sum / n - prob.means.eq_matrix)) < 3 * h_sigma

    def test_split_half_iid(self):
        # Constraint streams must not depend on the slot index.
        prob = build_synthetic_problem(5, 1, 1, seed=3)
        mu = np.full(5, 0.2)
        early, late = (
            prob.sample_block((8,), first, first + 4000).inequalities.values(mu)[:, 0, 0]
            for first in (0, 100_000)
        )
        pooled = np.std(np.concatenate([early, late])) / np.sqrt(len(early))
        assert abs(np.mean(early) - np.mean(late)) < 3 * pooled

    def test_pinned_coordinate_example(self):
        # h = (1,0,0), b = 0.3, objective touches only coordinate 0: the
        # feasible mean objective value is exactly 0.3 at any feasible point.
        prob = make_linear_problem(
            Simplex(3),
            np.array([1.0, 0.0, 0.0]),
            eq_rows=np.array([[1.0, 0.0, 0.0]]),
            targets=np.array([0.3]),
        )
        mu = np.array([0.3, 0.5, 0.2])
        assert abs(prob.means.objective_at(0) @ mu - 0.3) < 1e-15
        assert abs((prob.means.eq_matrix @ mu)[0] - prob.targets[0]) < 1e-15

    def test_window_objective_averages_drift(self):
        prob = make_linear_problem(
            Simplex(4),
            np.array([0.2, 0.9, 0.4, 0.7]),
            drift_amplitude=0.08,
            drift_period=64,
        )
        window = prob.means.window_objective(10, 5)
        stacked = np.mean(
            [prob.means.objective_at(10 + s) for s in range(5)],
            axis=0,
        )
        assert window == pytest.approx(stacked, abs=1e-15)
        assert not np.allclose(stacked, prob.means.objective_at(10))


class TestDatacenterProblem:
    def test_zone_count_mismatch(self):
        with pytest.raises(ProblemError):
            build_datacenter_problem(DatacenterConfig(), constant_trace(10, zones=4))

    def test_zero_power_is_infeasible(self):
        prob = build_datacenter_problem(DatacenterConfig(), constant_trace(10))
        slot = slot_functions(prob, 0, 0)
        zero = np.zeros(50)
        assert slot.inequalities.values(zero)[0] > 0.0
        assert np.allclose(slot.eq_matrix @ zero, 0.0)

    def test_mean_inequality_formula(self):
        prob = build_datacenter_problem(DatacenterConfig(), constant_trace(10))
        for c in (0.5, 1.0, 2.0):
            mu = np.full(50, c)
            expected = 1000.0 - 400.0 * np.log(1.0 + 4.0 * c)
            assert abs(prob.means.inequalities.values(mu)[0] - expected) < 1e-9

    def test_pacing_mean_residuals(self):
        prob = build_datacenter_problem(DatacenterConfig(), constant_trace(10))
        # Shares exactly matching the ratios zero every expected residual.
        betas = np.array([0.05, 0.10, 0.25, 0.60])
        matched = np.concatenate([
            np.full(10, betas[0] / 10),
            np.full(10, betas[1] / 10),
            np.full(10, betas[2] / 10),
            np.full(20, betas[3] / 20),
        ])
        res = prob.means.eq_matrix @ matched - prob.targets
        assert np.max(np.abs(res)) < 1e-12
        # Uniform power spreads shares 0.2/0.2/0.2/0.4, which is off-ratio.
        uniform = np.full(50, 1.0)
        res_uniform = prob.means.eq_matrix @ uniform - prob.targets
        assert np.max(np.abs(res_uniform)) > 0.1

    def test_sampled_constraint_means(self):
        # slots 0..n-1 of one seed, on a trace as long as the draw
        n = 20_000
        prob = build_datacenter_problem(DatacenterConfig(), constant_trace(n))
        mu = np.full(50, 1.0)
        g_vals = np.empty(n)
        h_rows = np.zeros((4, 50))
        for first in range(0, n, SEED_BLOCK):
            block = prob.sample_block((7,), first, min(n, first + SEED_BLOCK))
            g_vals[first:first + SEED_BLOCK] = block.inequalities.values(mu)[:, 0, 0]
            h_rows += np.sum(block.eq_matrix, axis=(0, 1))
        g_mean = prob.means.inequalities.values(mu)[0]
        assert abs(g_vals.mean() - g_mean) < 3 * g_vals.std() / np.sqrt(n)
        assert np.max(np.abs(h_rows / n - prob.means.eq_matrix)) < 0.15

    def test_trace_exhaustion(self):
        prob = build_datacenter_problem(DatacenterConfig(), constant_trace(3))
        assert prob.horizon_cap == 3
        with pytest.raises(ProblemError, match="slot 3 beyond trace length 3"):
            slot_functions(prob, 0, 3)

    def test_build_determinism(self):
        trace = constant_trace(5)
        p1 = build_datacenter_problem(DatacenterConfig(), trace)
        p2 = build_datacenter_problem(DatacenterConfig(), trace)
        s1 = slot_functions(p1, 55, 1)
        s2 = slot_functions(p2, 55, 1)
        mu = np.full(50, 2.0)
        assert s1.inequalities.values(mu)[0] == s2.inequalities.values(mu)[0]
        assert np.array_equal(s1.eq_matrix, s2.eq_matrix)

    def test_price_trace_validation(self):
        with pytest.raises(ProblemError):
            PriceTrace(("A", "B"), np.ones((4, 3)))
        with pytest.raises(ProblemError):
            PriceTrace(("A", "B"), np.array([[1.0, np.inf], [0.0, 1.0]]))


def reac_per_cluster(history):
    """Reac with one service-curve inverse per cluster, the reference for the
    per-server array form."""
    forecast = float(np.mean(list(history)[-10:]))
    allocation = np.zeros(N_CLUSTERS * CLUSTER_SIZE)
    loads = [PACING_RATIOS[j] * forecast for j in range(3)]
    loads += [PACING_RATIOS[3] * forecast / 2.0] * 2
    for j, load in enumerate(loads):
        allocation[j * CLUSTER_SIZE:(j + 1) * CLUSTER_SIZE] = service_curve_inverse(
            load / CLUSTER_SIZE, SERVICE_GAIN, SERVICE_RATE, POWER_CAP
        )
    return allocation


def reac_after(history, arrival):
    """Reac's decision for the slot with `arrival`, after the arrivals in
    `history`."""
    return reac_schedule(list(history) + [arrival])[len(history)]


class TestReacPolicy:
    def test_nominal_forecast(self):
        mu = reac_schedule([1000.0])[0]
        # Cluster 1 share 5%: 50 jobs over 10 servers, 5 jobs per server.
        assert np.allclose(mu[:10], INVERSE_AT_FIVE, atol=1e-12)
        # Final two clusters split the 60% share evenly: 30 jobs per server.
        expected_heavy = service_curve_inverse(30.0)
        assert np.allclose(mu[30:], expected_heavy, atol=1e-12)

    def test_zero_arrivals(self):
        mu = reac_after([0.0, 0.0], 0.0)
        assert np.all(mu == 0.0)

    def test_constant_history_constant_output(self):
        a = reac_after([800.0] * 10, 500.0)
        b = reac_after([800.0] * 4, 500.0)
        assert np.array_equal(a, b)

    def test_history_window_is_ten(self):
        long_history = [0.0] * 50 + [1000.0] * 10
        a = reac_after(long_history, 500.0)
        b = reac_after([1000.0] * 10, 500.0)
        assert np.array_equal(a, b)

    def test_empty_history_rejected(self):
        with pytest.raises(ProblemError):
            reac_schedule([])

    def test_non_finite_history_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ProblemError, match="finite"):
                reac_schedule([1000.0, bad, 900.0])
            # A non-finite arrival is refused wherever it sits.
            with pytest.raises(ProblemError, match="finite"):
                reac_schedule([bad] + [1000.0] * 10)

    def test_shape_and_layout(self):
        schedule = reac_schedule(np.linspace(900.0, 1100.0, 25))
        assert schedule.shape == (25, N_CLUSTERS * CLUSTER_SIZE)
        assert schedule.flags.c_contiguous

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=30), st.floats(0.0, 5000.0))
    def test_matches_per_cluster_reference(self, history, arrival):
        assert np.array_equal(reac_after(history, arrival), reac_per_cluster(history))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=40))
    def test_rows_match_a_trailing_window(self, arrivals):
        # Row t is the per-cluster Reac of a deque(maxlen=10) holding the
        # arrivals before slot t, or slot 0's own arrival while it is empty.
        schedule = reac_schedule(arrivals)
        window = deque(maxlen=10)
        for t, arrival in enumerate(arrivals):
            assert np.array_equal(schedule[t], reac_per_cluster(window or [arrival])), t
            window.append(arrival)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=40), st.data())
    def test_first_row_selects_the_tail(self, arrivals, data):
        first = data.draw(st.integers(0, len(arrivals) - 1))
        tail = reac_schedule(arrivals, first)
        assert tail.tobytes() == reac_schedule(arrivals)[first:].tobytes()

    def test_first_row_outside_the_horizon_rejected(self):
        for first in (-1, 3):
            with pytest.raises(ProblemError, match="first row"):
                reac_schedule([1000.0, 900.0, 950.0], first)


class TestConfigValidation:
    def test_parameters_rejected_by_name(self):
        for value in (np.nan, np.inf, 1.0):
            with pytest.raises(ProblemError, match="pareto_shape"):
                DatacenterConfig(pareto_shape=value)
