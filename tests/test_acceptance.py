"""End-to-end acceptance battery for the package.

Seven checks, one test each, covering the geometry layer, the engine
algebra, the regret/violation scaling on the stock synthetic instance,
multiplier boundedness, the hindsight oracles, the data-center pacing
experiment, and output determinism.  Each test prints a single verdict
line; run with ``pytest tests/test_acceptance.py -s`` to see them all.
The heavyweight fixtures (horizon sweep, data-center experiment) are
module-scoped and shared between the tests that read them.
"""

import dataclasses
import time

import numpy as np
import pytest

from pdomd import (
    Box,
    DualPoint,
    EuclideanGeometry,
    ExperimentConfig,
    NegativeEntropyGeometry,
    Simplex,
    build_synthetic_problem,
    dual_function,
    hindsight_optimum,
    iterate_run,
    mirror_step,
    mix_toward_uniform,
    parameter_schedule,
    run,
    run_experiment,
    sweep_rates,
)
from pdomd.config import SyntheticSettings
from reference import certified_prox, member, pushback_check, worst_residual
from test_core import penalty_terms
from test_oracle import zoom_grid_minimum

ENTROPY = NegativeEntropyGeometry()
EUCLID = EuclideanGeometry()


def verdict(index, label, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"acceptance {index}/7 {label}: {flag} ({detail})")


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    """Stock horizon sweep: d=10 simplex, 2+2 constraints, 20 seeds."""
    config = dataclasses.replace(
        ExperimentConfig(), out_dir=str(tmp_path_factory.mktemp("sweep"))
    )
    started = time.perf_counter()
    report = sweep_rates(config)
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def pacing_outcome(tmp_path_factory):
    """Data-center run at desk scale: T=2000, synthetic prices, 5 seeds."""
    config = dataclasses.replace(
        ExperimentConfig(),
        scenario="datacenter",
        horizon=2000,
        seeds=tuple(range(5)),
        out_dir=str(tmp_path_factory.mktemp("datacenter")),
    )
    started = time.perf_counter()
    result = run_experiment(config)
    return result, time.perf_counter() - started


def test_geometry_battery():
    # Five property families, 1000 fresh random instances each, d <= 10.
    started = time.perf_counter()

    rng = np.random.default_rng(101)
    pinsker_slack = np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        kl = ENTROPY.divergence(p, q)
        l1 = float(np.abs(p - q).sum())
        pinsker_slack = min(pinsker_slack, kl - 0.5 * l1 * l1)

    rng = np.random.default_rng(102)
    convexity_slack = np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        gap = EUCLID.divergence(x, y) - 0.5 * np.linalg.norm(x - y) ** 2
        convexity_slack = min(convexity_slack, gap)
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        gap = ENTROPY.divergence(p, q) - 0.5 * np.abs(p - q).sum() ** 2
        convexity_slack = min(convexity_slack, gap)

    rng = np.random.default_rng(103)
    pushback_ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        s = Simplex(d)
        y = rng.dirichlet(np.full(d, 1.5))
        grad = rng.uniform(-3.0, 3.0, size=d)
        probe = member(s, rng)
        res = pushback_check(ENTROPY, s, grad, y, float(rng.uniform(0.5, 5.0)), probe)
        pushback_ok &= res.holds
        box = Box(-rng.uniform(0.5, 2.0, size=d), rng.uniform(0.5, 2.0, size=d))
        yb = member(box, rng)
        res = pushback_check(
            EUCLID, box, rng.normal(size=d) * 2.0, yb, float(rng.uniform(0.5, 5.0)), member(box, rng)
        )
        pushback_ok &= res.holds

    rng = np.random.default_rng(104)
    mixing_ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 11))
        theta = float(rng.uniform(1e-4, 0.9))
        m1 = rng.dirichlet(np.ones(d))
        m2 = rng.dirichlet(np.ones(d))
        mixed = mix_toward_uniform(m2, theta)
        d_mixed = ENTROPY.divergence(m1, mixed)
        d_plain = ENTROPY.divergence(m1, m2)
        mixing_ok &= d_mixed - d_plain <= theta * np.log(d) + 1e-9
        mixing_ok &= d_mixed <= np.log(d / theta) + 1e-9

    rng = np.random.default_rng(105)
    prox_gap = 0.0
    for k in range(1000):
        d = int(rng.integers(2, 11))
        s = Simplex(d)
        y = rng.dirichlet(np.full(d, 2.0))
        grad = rng.uniform(-2.0, 2.0, size=d)
        alpha = float(rng.uniform(2.0, 20.0))
        closed = mirror_step(ENTROPY, s, y, grad, alpha)
        numeric = certified_prox(ENTROPY, s, y, grad, alpha)
        prox_gap = max(prox_gap, float(np.max(np.abs(closed - numeric))))
        if k % 2 == 0:
            box = Box(-rng.uniform(1.0, 3.0, size=d), rng.uniform(1.0, 3.0, size=d))
            yb = member(box, rng)
            gb = rng.normal(size=d)
            ab = float(rng.uniform(0.5, 5.0))
            closed = mirror_step(EUCLID, box, yb, gb, ab)
            numeric = certified_prox(EUCLID, box, yb, gb, ab)
            prox_gap = max(prox_gap, float(np.max(np.abs(closed - numeric))))

    elapsed = time.perf_counter() - started
    ok = (
        pinsker_slack >= -1e-12
        and convexity_slack >= -1e-12
        and pushback_ok
        and mixing_ok
        and prox_gap < 1e-8
    )
    verdict(
        1,
        "geometry battery",
        ok,
        f"pinsker slack {pinsker_slack:.2e}, prox gap {prox_gap:.2e}, {elapsed:.1f}s",
    )
    assert pinsker_slack >= -1e-12
    assert convexity_slack >= -1e-12
    assert pushback_ok
    assert mixing_ok
    assert prox_gap < 1e-8
    assert elapsed < 30.0


def test_engine_algebra():
    # Euclidean run on the stock synthetic instance at T=1600: multiplier
    # nonnegativity, the drift telescoping identity, the per-step penalty
    # floor, and the drift-plus-penalty audit at every slot's worst comparator.
    started = time.perf_counter()
    problem = build_synthetic_problem(10, 2, 2, seed=0)
    horizon = 1600
    params = parameter_schedule(horizon, "general")

    min_dual = np.inf
    d1 = 0.0  # the largest realized ||grad f||_2 over the slots run
    slots = list(iterate_run(problem, horizon, params, seed=0, variant="general"))
    for state, _, _, obs in slots:
        if state.duals.ineq.size:
            min_dual = min(min_dual, float(np.min(state.duals.ineq)))
        d1 = max(d1, float(np.linalg.norm(obs.objective_grad)))
    min_cost = min(penalty_terms(slots))
    floor = -(params.objective_weight**2) * d1**2 / (2.0 * params.prox_weight)
    min_margin = min_cost - floor

    record = run(problem, horizon, params=params, seed=0, variant="general")
    total_drift = float(np.sum(record.drift))
    final = 0.5 * (record.ineq_dual_norm[-1] ** 2 + record.eq_dual_norm[-1] ** 2)
    telescope_err = abs(total_drift - final) / max(final, 1.0)
    audit_residual = worst_residual(record, problem)
    elapsed = time.perf_counter() - started

    ok = (
        min_dual >= 0.0
        and telescope_err <= 1e-6
        and min_margin >= -1e-12
        and audit_residual <= 1e-6
    )
    verdict(
        2,
        "engine algebra",
        ok,
        f"telescope err {telescope_err:.1e}, audit residual {audit_residual:.1e}, {elapsed:.1f}s",
    )
    assert min_dual >= 0.0
    assert telescope_err <= 1e-6
    assert min_margin >= -1e-12
    assert audit_residual <= 1e-6
    assert elapsed < 60.0


def test_rate_scaling(sweep_report):
    report, elapsed = sweep_report
    assert report["horizons"] == [100, 400, 1600, 6400]
    assert report["n_seeds"] == 20
    assert not report["regret"]["degenerate"]

    slope = report["regret"]["slope"]
    ineq_down = report["ineq_violation_decreasing"]
    eq_down = report["eq_violation_decreasing"]
    ineq_scaled = report["ineq_scaled"]["slope"]
    eq_scaled = report["eq_scaled"]["slope"]
    ok = (
        0.3 <= slope <= 0.65
        and ineq_down
        and eq_down
        and ineq_scaled <= 0.65
        and eq_scaled <= 0.65
    )
    verdict(
        3,
        "rate scaling",
        ok,
        f"regret slope {slope:.3f} ci [{report['regret']['ci_low']:.3f}, "
        f"{report['regret']['ci_high']:.3f}], scaled violation slopes "
        f"{ineq_scaled:.3f}/{eq_scaled:.3f}, {elapsed:.0f}s",
    )
    assert 0.3 <= slope <= 0.65
    assert ineq_down, report["ineq_violation_means"]
    assert eq_down, report["eq_violation_means"]
    assert ineq_scaled <= 0.65
    assert eq_scaled <= 0.65
    assert elapsed < 600.0


def test_dual_norm_growth(sweep_report):
    # max_t ||(Q,H)||/sqrt(T) may grow by at most 1.5x per horizon
    # doubling; the sweep quadruples, so consecutive ratios get 1.5^2.
    report, _ = sweep_report
    steps = report["dual_ratio_steps"]
    worst = max(steps)
    ok = worst <= 2.25
    verdict(
        4,
        "dual-norm growth",
        ok,
        f"ratio means {np.round(report['dual_ratio_means'], 3).tolist()}, "
        f"worst step {worst:.3f} (cap 2.25)",
    )
    assert worst <= 2.25, steps


def test_oracle_certificates():
    started = time.perf_counter()
    window = 128
    rng = np.random.default_rng(106)

    instances = [
        build_synthetic_problem(6, 2, 2, seed=11),
        build_synthetic_problem(5, 1, 1, seed=3),
        build_synthetic_problem(4, 1, 1, seed=7),
        build_synthetic_problem(4, 2, 1, seed=2),
        build_synthetic_problem(3, 1, 1, seed=5),
    ]

    worst_feas = 0.0
    worst_duality = np.inf
    for problem in instances:
        point, value = hindsight_optimum(problem, 0, window)
        means = problem.means
        for g_value in means.inequalities.values(point):
            worst_feas = max(worst_feas, max(0.0, float(g_value)))
        if problem.n_eq:
            eq_res = float(np.max(np.abs(means.eq_matrix @ point - problem.targets)))
            worst_feas = max(worst_feas, eq_res)
        for _ in range(100):
            lam = rng.uniform(0.0, 3.0, size=problem.n_ineq)
            eta = rng.normal(0.0, 2.0, size=problem.n_eq)
            dval = dual_function(problem, 0, window, DualPoint(ineq=lam, eq=eta))
            worst_duality = min(worst_duality, value - dval)

    concave = instances[0]
    worst_concavity = np.inf
    for _ in range(100):
        lam_p = rng.uniform(0.0, 3.0, size=concave.n_ineq)
        lam_q = rng.uniform(0.0, 3.0, size=concave.n_ineq)
        eta_p = rng.normal(0.0, 2.0, size=concave.n_eq)
        eta_q = rng.normal(0.0, 2.0, size=concave.n_eq)
        w = float(rng.uniform(0.1, 0.9))
        d_p = dual_function(concave, 0, window, DualPoint(ineq=lam_p, eq=eta_p))
        d_q = dual_function(concave, 0, window, DualPoint(ineq=lam_q, eq=eta_q))
        mid = DualPoint(ineq=w * lam_p + (1 - w) * lam_q, eq=w * eta_p + (1 - w) * eta_q)
        d_mid = dual_function(concave, 0, window, mid)
        worst_concavity = min(worst_concavity, d_mid - (w * d_p + (1 - w) * d_q))

    worst_grid = 0.0
    for problem in instances[2:]:
        _, grid_value = zoom_grid_minimum(problem, 0, 64)
        _, oracle_value = hindsight_optimum(problem, 0, 64)
        worst_grid = max(worst_grid, abs(grid_value - oracle_value))

    elapsed = time.perf_counter() - started
    ok = (
        worst_feas <= 1e-6
        and worst_duality >= -1e-9
        and worst_concavity >= -1e-9
        and worst_grid <= 1e-3
    )
    verdict(
        5,
        "oracle certificates",
        ok,
        f"duality slack {worst_duality:.2e}, grid gap {worst_grid:.2e}, {elapsed:.1f}s",
    )
    assert worst_feas <= 1e-6
    assert worst_duality >= -1e-9
    assert worst_concavity >= -1e-9
    assert worst_grid <= 1e-3


def test_datacenter_pacing(pacing_outcome):
    result, elapsed = pacing_outcome
    series = result["series"]

    pacing = series["eq"]["algorithm"]
    ratio = float(pacing[-1] / pacing[99])
    ok_a = ratio <= 0.20

    final_cost = float(series["cost"]["algorithm"][-1])
    reac_cost = float(series["cost"]["reac"][-1])
    ok_b = final_cost <= reac_cost

    unserved = series["ineq"]["algorithm"]
    burn_in = float(unserved[199])
    ok_c = float(unserved[-1]) < burn_in

    ok = ok_a and ok_b and ok_c
    verdict(
        6,
        "datacenter pacing",
        ok,
        f"a: pacing ratio {ratio:.3f} vs 0.20; b: cost {final_cost:.0f} vs "
        f"Reac {reac_cost:.0f}; c: unserved end {unserved[-1]:.3f} vs "
        f"{burn_in:.3f} at burn-in; {elapsed:.0f}s",
    )
    failures = []
    if not ok_a:
        failures.append(
            f"(a) pacing norm fell to {ratio:.0%} of its t=100 level, target 20%: "
            "a longer horizon alone does not reach the target; with the stock "
            "schedule the ratio measured 0.343 at T=4000 and 0.253 at T=10000, "
            "and T=2000's schedule run on to T=10000 never fell to 0.20 (0.381 "
            "at its end)"
        )
    if not ok_b:
        failures.append(f"(b) cost {final_cost:.0f} exceeds Reac {reac_cost:.0f}")
    if not ok_c:
        failures.append(
            f"(c) running-average unserved ends at {unserved[-1]:.3f}, above its "
            f"t=200 level {burn_in:.3f}: the cumulative service deficit climbs "
            "toward its equilibrium plateau for most of this horizon, so the "
            "running average approaches the plateau from below instead of "
            "trending down"
        )
    assert not failures, "; ".join(failures)
    assert elapsed < 300.0


def test_deterministic_outputs(tmp_path):
    started = time.perf_counter()
    base = dataclasses.replace(
        ExperimentConfig(),
        horizon=60,
        seeds=(0, 1),
        synthetic=SyntheticSettings(dimension=5, n_ineq=1, n_eq=1, instance_seed=0),
    )
    first = run_experiment(dataclasses.replace(base, out_dir=str(tmp_path / "a")))
    second = run_experiment(dataclasses.replace(base, out_dir=str(tmp_path / "b")))

    names = ("metrics.csv", "cost_cumulative.csv", "violation_ineq.csv", "violation_eq.csv")
    mismatched = [
        name
        for name in names
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    elapsed = time.perf_counter() - started
    ok = not mismatched and first["config_hash"] == second["config_hash"]
    verdict(
        7,
        "determinism",
        ok,
        f"{len(names)} files byte-identical across runs, {elapsed:.1f}s",
    )
    assert first["config_hash"] == second["config_hash"]
    assert not mismatched, mismatched
