"""Cross-check of the in-house simplex against HiGHS, a test-only reference.

scipy is no runtime dependency of pdomd; without it this module is skipped.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdomd import (
    Box,
    InfeasibleProblemError,
    Simplex,
    build_synthetic_problem,
    hindsight_optimum,
    make_linear_problem,
)
from pdomd import oracle

linprog = pytest.importorskip("scipy.optimize").linprog


def highs(problem, start, length):
    """HiGHS's status and minimizer for the window program of `problem`."""
    means, dset = problem.means, problem.decision_set
    a_eq, b_eq = means.eq_matrix, problem.targets
    if isinstance(dset, Simplex):
        a_eq = np.vstack([a_eq, np.ones(dset.dim)])
        b_eq = np.append(b_eq, 1.0)
        bounds = [(0.0, 1.0)] * dset.dim
    else:
        bounds = list(zip(dset.lower, dset.upper))
    rows = means.inequalities
    res = linprog(
        means.window_objective(start, length),
        A_ub=rows.coeffs if len(rows) else None,
        b_ub=rows.offsets if len(rows) else None,
        A_eq=a_eq if b_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    return res.status, res.x


@st.composite
def linear_windows(draw):
    """A linear program on a simplex or a box with 1..5 coordinates, 0..3
    inequality and 0..3 equality rows (one of them perhaps duplicated) and
    perhaps a zero objective, every entry on a quarter grid. Margins and
    targets hold at a grid anchor in the set, or, for about one case in
    three, the targets are drawn freely and may leave it infeasible."""
    d = draw(st.integers(1, 5))

    def block(shape, low, high):
        return draw(arrays(np.float64, shape, elements=st.integers(low, high).map(lambda k: k / 4)))

    if draw(st.booleans()):
        dset = Simplex(d)
        weights = block(d, 0, 4)
        weights[0] += 1.0
        anchor = weights / weights.sum()
    else:
        lower = block(d, -8, 0)
        upper = lower + block(d, 0, 8)
        dset = Box(lower, upper)
        anchor = lower + (upper - lower) * block(d, 0, 4) / 4
    objective = np.zeros(d) if draw(st.booleans()) else block(d, -8, 8)
    ineq_rows = block((draw(st.integers(0, 3)), d), -4, 4)
    eq_rows = block((draw(st.integers(0, 3)), d), -4, 4)
    if eq_rows.shape[0] and draw(st.booleans()):
        eq_rows = np.vstack([eq_rows, eq_rows[:1]])
    targets = eq_rows @ anchor
    if draw(st.integers(0, 2)) == 0:
        targets = block(eq_rows.shape[0], -8, 8)
        if eq_rows.shape[0] > 1 and np.array_equal(eq_rows[0], eq_rows[-1]):
            targets[-1] = targets[0]
    problem = make_linear_problem(
        dset,
        objective,
        ineq_rows=ineq_rows,
        ineq_margins=ineq_rows @ anchor + block(ineq_rows.shape[0], 0, 4),
        eq_rows=eq_rows,
        targets=targets,
    )
    return problem


# infeasible by 1e-6, past HiGHS's 1e-7 feasibility tolerance
NEAR_MISSES = [
    make_linear_problem(
        Simplex(2), np.array([1.0, 2.0]), eq_rows=np.eye(1, 2), targets=np.array([1.000001])
    ),
    make_linear_problem(
        Box(np.zeros(2), np.ones(2)),
        np.array([1.0, 2.0]),
        ineq_rows=-np.ones((1, 2)),
        ineq_margins=np.array([-2.000001]),
    ),
]


@settings(max_examples=300, deadline=None)
@given(problem=linear_windows())
@example(problem=NEAR_MISSES[0])
@example(problem=NEAR_MISSES[1])
def test_simplex_matches_highs(problem):
    status, reference = highs(problem, 0, 1)
    assert status in (0, 2)
    if status == 2:
        with pytest.raises(InfeasibleProblemError):
            hindsight_optimum(problem, 0, 1)
        return
    # hindsight_optimum raises OracleError unless the certificate holds
    point, value = hindsight_optimum(problem, 0, 1)
    expected = float(problem.means.window_objective(0, 1) @ reference)
    assert abs(value - expected) <= 1e-9 * (1.0 + abs(expected))
    assert problem.decision_set.contains(point, tol=1e-9)


@pytest.mark.parametrize("d", [8, 32, 128, 512])
def test_stock_instances_match_highs(d):
    for seed in range(10):
        problem = build_synthetic_problem(d, 2, 2, seed)
        status, reference = highs(problem, 0, 1600)
        assert status == 0
        raw, _, _ = oracle._solve_linear(oracle._window_program(problem, 0, 1600))
        assert np.array_equal(raw > 0.0, reference > 0.0), seed
        point, _ = hindsight_optimum(problem, 0, 1600)
        assert np.max(np.abs(point - problem.decision_set.project(reference))) <= 1e-12
