"""Offline reference computations for a window of mean slot functions.

Everything in this module works on the exact means a problem records, never
on sampled realizations: the benchmark a run is judged against is the best
fixed decision for the mean problem over a window of slots.  The module
provides that benchmark (:func:`hindsight_optimum`), the Lagrangian dual
function of the same window program (:func:`dual_function`), the optimal
multipliers and their norm (:func:`estimate_multipliers`), and an empirical
probe of how sharply the dual falls off away from its maximizer
(:func:`weak_ebc_probe`), which is the error-bound property that keeps the
multipliers, and with them the dual iterates of the online solver, bounded.

Every Lagrangian minimum has a closed form: linear rows take the decision
set's support point, and service rows on a box (the only curved family)
take a clipped stationary point per coordinate.  Linear window programs
(a handful of rows) go to a dense two-phase simplex method with Bland's
rule, whose final basis gives the multipliers; service window programs are
solved through their dual, a concave function of a handful of multipliers,
by a safeguarded Newton method.  Either way one solve yields the minimizer
and the multipliers, certified together by the feasibility residuals and
the primal-dual gap, each at or below 1e-6.  Both solvers are numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import InfeasibleProblemError, MultiplierDivergenceError, OracleError
from .geometry import Box, DecisionSet, Simplex
from .problems import LinearRows, ProblemInstance, ServiceRows

Array = np.ndarray

_FEASIBILITY_TOL = 1e-6
_DUAL_GAP_TOL = 1e-6
_DIVERGENCE_NORM = 1e6
_NEWTON_TOL = 1e-10  # constraint residual at which the dual Newton method stops
_NEWTON_MAX_ITER = 200
_Q_SLACK = 1e-15  # relative rounding allowance in its Armijo test
_PIVOT_TOL = 1e-9  # smallest simplex pivot; ratio ties; phase-I infeasibility
_COST_TOL = 1e-12  # a reduced cost, or multiplier, below minus this is negative
_MAX_PIVOTS = 10_000  # per simplex phase


@dataclass(frozen=True)
class DualPoint:
    """A candidate multiplier pair: `ineq` for the inequality constraints
    (must be nonnegative), `eq` for the equality constraints (sign free)."""

    ineq: Array
    eq: Array

    def __post_init__(self):
        ineq = np.atleast_1d(np.asarray(self.ineq, dtype=float))
        eq = np.atleast_1d(np.asarray(self.eq, dtype=float))
        if ineq.ndim != 1 or eq.ndim != 1:
            raise OracleError("dual point components must be vectors")
        if not (np.isfinite(ineq).all() and np.isfinite(eq).all()):
            raise OracleError("dual point components must be finite")
        if ineq.size and float(np.min(ineq)) < 0.0:
            raise OracleError("inequality multipliers must be nonnegative")
        object.__setattr__(self, "ineq", ineq)
        object.__setattr__(self, "eq", eq)

    def norm(self) -> float:
        return float(np.hypot(np.linalg.norm(self.ineq), np.linalg.norm(self.eq)))


@dataclass(frozen=True)
class _WindowProgram:
    """The static convex program for one window: minimize the averaged mean
    objective subject to the mean inequality and equality constraints."""

    objective: Array  # (d,) averaged coefficients
    inequalities: LinearRows | ServiceRows
    eq_matrix: Array
    targets: Array
    decision_set: DecisionSet

    @property
    def all_linear(self) -> bool:
        return isinstance(self.inequalities, LinearRows)


def _window_program(problem: ProblemInstance, start: int, length: int) -> _WindowProgram:
    if problem.means is None:
        raise OracleError(
            f"problem {problem.name!r} records no mean model; "
            "offline references need exact means"
        )
    for name, value, least in (("start", start, 0), ("length", length, 1)):
        if not (isinstance(value, (int, np.integer)) and value >= least):
            raise OracleError(
                f"window {name} must be an integer of at least {least}, got {value!r}"
            )
    if problem.horizon_cap is not None and start + length > problem.horizon_cap:
        raise OracleError(
            f"window [{start}, {start + length}) runs past the recorded trace "
            f"of length {problem.horizon_cap}"
        )
    return _WindowProgram(
        objective=problem.means.window_objective(start, length),
        inequalities=problem.means.inequalities,
        eq_matrix=np.asarray(problem.means.eq_matrix, dtype=float),
        targets=np.asarray(problem.targets, dtype=float),
        decision_set=problem.decision_set,
    )


def _feasibility_residuals(program: _WindowProgram, point: Array) -> Tuple[float, float]:
    ineq = program.inequalities.values(point)
    ineq_res = float(np.linalg.norm(np.maximum(ineq, 0.0))) if ineq.size else 0.0
    if program.eq_matrix.shape[0]:
        eq_res = float(np.linalg.norm(program.eq_matrix @ point - program.targets))
    else:
        eq_res = 0.0
    return ineq_res, eq_res


def _pivot(tableau: Array, basis: Array, row: int, col: int) -> None:
    """Make `col` basic in `row` by Gauss-Jordan elimination."""
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= np.outer(tableau[:, col], pivot_row)
    tableau[row] = pivot_row
    basis[row] = col


def _bland(tableau: Array, basis: Array, n_enter: int) -> None:
    """Pivot the tableau (rows of constraints over a reduced-cost row, the
    right-hand side last) to an optimal basis by Bland's rule: the lowest
    eligible column among the first `n_enter` enters and, among the rows
    tied in the ratio test, the one with the lowest basic column leaves, so
    no basis repeats and the walk terminates (Bland 1977)."""
    for _ in range(_MAX_PIVOTS):
        entering = np.flatnonzero(tableau[-1, :n_enter] < -_COST_TOL)
        if not entering.size:
            return
        col = entering[0]
        column = tableau[:-1, col]
        rows = np.flatnonzero(column > _PIVOT_TOL)
        if not rows.size:
            raise OracleError("linear window program is unbounded")
        ratios = tableau[rows, -1] / column[rows]
        tied = rows[ratios <= ratios.min() + _PIVOT_TOL]
        _pivot(tableau, basis, tied[np.argmin(basis[tied])], col)
    raise OracleError(f"simplex method passed {_MAX_PIVOTS} pivots")


def _solve_linear(program: _WindowProgram) -> Tuple[Array, Array, Array]:
    """Solve a linear window program by the two-phase simplex method.

    Standard form shifts the decision to z = mu - lower >= 0 and stacks the
    inequality rows (each with a slack), a box's upper bounds (each with a
    slack) and the equality rows, a simplex's sum-to-one row last.  Rows
    with a negative right-hand side are negated.  Phase I starts from the
    slacks that fit and an artificial variable on every other row; a
    positive phase-I optimum means the window is infeasible.  An artificial
    left basic at zero is pivoted out, or its row, which the others span,
    is dropped with multiplier 0.  Phase II then minimizes the objective.
    The basic solution and the multipliers y = B^-T c_B are solved afresh
    from the original rows, free of the tableau's accumulated rounding.
    Returns the minimizer and the multipliers of the inequality and
    equality rows (the negated y).
    """
    dset, rows = program.decision_set, program.inequalities
    d, n_ineq, n_eq = dset.dim, len(rows), program.eq_matrix.shape[0]
    if isinstance(dset, Simplex):
        lower, bounds, caps = np.zeros(d), np.zeros((0, d)), np.zeros(0)
        eq_rows = np.vstack([program.eq_matrix, np.ones(d)])
        targets = np.append(program.targets, 1.0)
    elif isinstance(dset, Box):
        lower, bounds, caps = dset.lower, np.eye(d), dset.upper
        eq_rows, targets = program.eq_matrix, program.targets
    else:
        raise OracleError(f"unsupported decision set {type(dset).__name__}")
    n_slack = n_ineq + bounds.shape[0]
    a = np.block([
        [np.vstack([rows.coeffs, bounds]), np.eye(n_slack)],
        [eq_rows, np.zeros((eq_rows.shape[0], n_slack))],
    ])
    b = np.concatenate([rows.offsets, caps, targets])
    b -= a[:, :d] @ lower
    sign = np.where(b < 0.0, -1.0, 1.0)
    a *= sign[:, None]
    b *= sign
    m, n = a.shape
    cost = np.concatenate([program.objective, np.zeros(n - d)])

    # phase I: a slack with coefficient +1 starts basic, an artificial elsewhere
    artificial = np.flatnonzero((sign < 0.0) | (np.arange(m) >= n_slack))
    basis = d + np.arange(m)
    basis[artificial] = n + np.arange(artificial.size)
    tableau = np.zeros((m + 1, n + artificial.size + 1))
    tableau[:m, :n] = a
    tableau[artificial, basis[artificial]] = 1.0
    tableau[:m, -1] = b
    tableau[-1, n:-1] = 1.0
    tableau[-1] -= tableau[artificial].sum(axis=0)
    _bland(tableau, basis, tableau.shape[1] - 1)
    if -tableau[-1, -1] > _PIVOT_TOL * (1.0 + float(np.max(b, initial=0.0))):
        raise InfeasibleProblemError("window program is infeasible")
    for row in np.flatnonzero(basis >= n):
        found = np.flatnonzero(np.abs(tableau[row, :n]) > _PIVOT_TOL)
        if found.size:
            _pivot(tableau, basis, row, found[0])
    # an artificial still basic has a zero tableau row: the other rows span
    # its own row, which is dropped
    spanned = basis >= n
    keep = np.ones(m, dtype=bool)
    keep[artificial[basis[spanned] - n]] = False

    # phase II without them, artificials barred from entering
    tableau = np.vstack([tableau[:m][~spanned], np.zeros(tableau.shape[1])])
    basis = basis[~spanned]
    tableau[-1, :n] = cost
    tableau[-1] -= cost[basis] @ tableau[:-1]
    _bland(tableau, basis, n)

    square = a[keep][:, basis]
    x = np.zeros(n)
    x[basis] = np.linalg.solve(square, b[keep])
    y = np.zeros(m)
    y[keep] = np.linalg.solve(square.T, cost[basis])
    mult = -sign * y
    worst = float(np.min(mult[:n_ineq], initial=0.0))
    if worst < -_COST_TOL:
        raise OracleError(f"simplex inequality multiplier {worst:.3e} is negative")
    return lower + x[:d], np.maximum(mult[:n_ineq], 0.0), mult[n_slack : n_slack + n_eq]


def _lagrangian_minimum(program: _WindowProgram, mult: Array) -> Tuple[Array, float, Array]:
    """Lagrangian minimizer over the decision set alone, dual value and dual
    gradient (the constraint residuals there) at the stacked multipliers
    (lam, eta), all closed form: the minimizer is the row family's
    `minimizer` with slope c + eta @ A.
    """
    dset, rows, eq = program.decision_set, program.inequalities, program.eq_matrix
    if not (program.all_linear or isinstance(dset, Box)):
        raise OracleError(f"service rows need a box decision set, got {type(dset).__name__}")
    n_ineq = len(rows)
    point = rows.minimizer(mult[:n_ineq], program.objective + mult[n_ineq:] @ eq, dset)
    residual = np.concatenate([rows.values(point), eq @ point - program.targets])
    return point, float(program.objective @ point) + float(mult @ residual), residual


def _solve_service(program: _WindowProgram) -> Tuple[Array, Array, float]:
    """Maximize the concave dual of a service-row window program on a box.

    The dual q in the stacked multipliers (lam, eta) is piecewise smooth.
    On the coordinates I where the Lagrangian minimizer is interior its
    Hessian is -B B^T, column k of B being
    (-W_k sqrt(g / s_k), A_k sqrt(g s_k) / a_k) for k in I.  Multipliers
    lam_i = 0 on a slack row stay fixed; on the rest each iteration takes
    the Newton step (least squares, since the equality rows may be
    dependent), or the gradient when the gradient leaves the Hessian's range
    (too few interior coordinates).  Both backtrack on an Armijo test of q
    with lam projected onto lam >= 0 and a rounding allowance, because q is
    flat to its last digits well before the gradient is.  A full gradient
    step doubles the next one, so an unbounded dual (an infeasible program)
    passes the divergence norm within a few dozen iterations.  Returns the
    Lagrangian minimizer, the multipliers and q there; the caller certifies
    them.
    """
    rows, eq, dset = program.inequalities, program.eq_matrix, program.decision_set
    n_ineq = len(rows)
    mult = np.zeros(n_ineq + eq.shape[0])
    point, value, grad = _lagrangian_minimum(program, mult)
    grad_step = 1.0
    for _ in range(_NEWTON_MAX_ITER):
        free = np.ones(mult.size, dtype=bool)
        free[:n_ineq] = (mult[:n_ineq] > 0.0) | (grad[:n_ineq] > 0.0)
        if float(np.max(np.abs(grad[free]), initial=0.0)) <= _NEWTON_TOL:
            break
        scale = mult[:n_ineq] @ rows.weights
        slope = program.objective + mult[n_ineq:] @ eq
        inside = (point > dset.lower) & (point < dset.upper) & (slope > 0.0) & (scale > 0.0)
        root = np.sqrt(rows.gain * scale[inside])
        basis = np.vstack(
            [-rows.weights[:, inside] * (rows.gain / root), eq[:, inside] * (root / slope[inside])]
        )[free]
        hess = basis @ basis.T
        newton = np.linalg.lstsq(hess, grad[free], rcond=1e-10)[0]
        is_newton = np.linalg.norm(hess @ newton - grad[free]) <= 1e-6 * np.linalg.norm(grad[free])
        direction = np.zeros(mult.size)
        direction[free] = newton if is_newton else grad[free]
        t = 1.0 if is_newton else grad_step
        slack = _Q_SLACK * (1.0 + abs(value))
        for _ in range(60):
            trial = mult + t * direction
            trial[:n_ineq] = np.maximum(trial[:n_ineq], 0.0)
            trial_point, trial_value, trial_grad = _lagrangian_minimum(program, trial)
            if trial_value >= value + 1e-4 * float(grad @ (trial - mult)) - slack:
                break
            t *= 0.5
        else:
            break  # no ascent left at floating-point resolution
        if not is_newton:
            grad_step = 2.0 * t if t == grad_step else t
        mult, point, value, grad = trial, trial_point, trial_value, trial_grad
        if float(np.linalg.norm(mult)) > _DIVERGENCE_NORM:
            raise InfeasibleProblemError(
                f"dual iterate norm exceeded {_DIVERGENCE_NORM:.0e}; "
                "window program appears infeasible"
            )
    return point, mult, value


def _solve_window(
    problem: ProblemInstance, start: int, length: int
) -> Tuple[_WindowProgram, Array, float, DualPoint]:
    """The window program, its minimizer, value and optimal multipliers from
    one solve, certified as :func:`hindsight_optimum` describes."""
    program = _window_program(problem, start, length)
    if program.all_linear:
        point, ineq_mult, eq_mult = _solve_linear(program)
        if not program.decision_set.contains(point):
            point = program.decision_set.project(point)
    else:
        point, mult, _ = _solve_service(program)
        ineq_mult, eq_mult = np.split(mult, [len(program.inequalities)])
    duals = DualPoint(ineq_mult, eq_mult)
    ineq_res, eq_res = _feasibility_residuals(program, point)
    if ineq_res > _FEASIBILITY_TOL or eq_res > _FEASIBILITY_TOL:
        raise OracleError(
            f"solution fails verification: inequality residual {ineq_res:.3e}, "
            f"equality residual {eq_res:.3e}"
        )
    value = float(program.objective @ point)
    _, dual_value, _ = _lagrangian_minimum(program, np.concatenate([duals.ineq, duals.eq]))
    if value - dual_value > _DUAL_GAP_TOL:
        raise OracleError(
            f"duality gap {value - dual_value:.3e} exceeds {_DUAL_GAP_TOL:.0e}"
        )
    return program, point, value, duals


def hindsight_optimum(
    problem: ProblemInstance, start: int, length: int
) -> Tuple[Array, float]:
    """Best fixed decision for the mean program over a window of slots.

    Solves min f(mu) over the decision set subject to the mean inequality
    and equality constraints, where f averages the mean objectives of slots
    ``start ... start+length-1``.  Returns the minimizer and its objective
    value.  Linear programs go to the simplex method; service-row programs
    on a box are solved through their dual.  Either solve also yields the
    optimal multipliers, and the pair is verified: clipped inequality and
    equality residuals and the primal-dual gap ``value - q(lam, eta)`` must
    all come in at or below 1e-6, otherwise this raises :class:`OracleError`
    instead of returning a bad reference point.  An infeasible program (on
    the dual path, an unbounded dual) is reported as
    :class:`InfeasibleProblemError`.
    """
    _, point, value, _ = _solve_window(problem, start, length)
    return point, value


def dual_function(
    problem: ProblemInstance, start: int, length: int, point: DualPoint
) -> float:
    """Lagrangian dual of the window program at the given multipliers.

    Computes min over the decision set of
    ``f(mu) + sum_i lam_i g_i(mu) + eta @ (H mu - b)`` for the window means.
    By weak duality the result never exceeds the hindsight optimum value.
    """
    program = _window_program(problem, start, length)
    lam = np.asarray(point.ineq, dtype=float)
    eta = np.asarray(point.eq, dtype=float)
    if lam.shape != (len(program.inequalities),):
        raise OracleError(
            f"expected {len(program.inequalities)} inequality multipliers, "
            f"got shape {lam.shape}"
        )
    if eta.shape != (program.eq_matrix.shape[0],):
        raise OracleError(
            f"expected {program.eq_matrix.shape[0]} equality multipliers, "
            f"got shape {eta.shape}"
        )
    return _lagrangian_minimum(program, np.concatenate([lam, eta]))[1]


def estimate_multipliers(
    problem: ProblemInstance, start: int, length: int
) -> Tuple[DualPoint, float]:
    """The optimal multipliers of the window program and their norm.

    The multipliers come from the certified solve behind
    :func:`hindsight_optimum` (y = B^-T c_B of the simplex's final basis,
    or the dual Newton point of a service program), so the dual function there meets the
    hindsight value within 1e-6.  Their Euclidean norm is the empirical
    stand-in for a uniform multiplier bound.  An infeasible program has no
    finite maximizer, reported as :class:`MultiplierDivergenceError`.
    """
    try:
        _, _, _, duals = _solve_window(problem, start, length)
    except InfeasibleProblemError as exc:
        raise MultiplierDivergenceError(
            f"window program is infeasible, so its multipliers are unbounded: {exc}"
        ) from exc
    return duals, duals.norm()


def weak_ebc_probe(
    problem: ProblemInstance,
    start: int,
    length: int,
    n_samples: int,
    radius_grid: Sequence[float],
    seed: int = 0,
) -> Tuple[float, float]:
    """Empirical error-bound constants for the window dual function.

    Samples dual points at the given distances from the optimal multipliers
    x* of the certified window solve and measures the decay ratio
    ``(q* - q(x)) / dist(x, x*)``.  Returns ``(c0, l0)`` where ``l0`` is the
    smallest grid radius from which outward every sampled ratio stays
    positive and ``c0`` is the worst such ratio, so ``q* - q(x) >= c0 * dist``
    held on every sample at distance ``l0`` or more.  Returns
    ``(0.0, max(radius_grid))`` when no grid suffix works.  The optimal set is
    treated as the single point x*, which understates distances for
    degenerate duals with flat optimal faces.  An infeasible window raises
    :class:`InfeasibleProblemError`.
    """
    radii = np.asarray(sorted(radius_grid), dtype=float)
    if radii.size == 0 or radii[0] <= 0.0:
        raise OracleError("radius grid must contain positive radii")
    if n_samples < 1:
        raise OracleError("need at least one sample per radius")
    program, _, _, center_point = _solve_window(problem, start, length)
    center = np.concatenate([center_point.ineq, center_point.eq])
    n_ineq = center_point.ineq.shape[0]
    q_star = _lagrangian_minimum(program, center)[1]

    rng = np.random.default_rng(seed)
    worst_per_radius = np.full(radii.size, np.inf)
    for r_index, radius in enumerate(radii):
        for _ in range(n_samples):
            direction = rng.normal(size=center.size)
            scale = np.linalg.norm(direction)
            if scale == 0.0:
                continue
            candidate = center + radius * direction / scale
            # clip the inequality block back to the feasible orthant and
            # measure the distance actually achieved
            candidate[:n_ineq] = np.maximum(candidate[:n_ineq], 0.0)
            dist = float(np.linalg.norm(candidate - center))
            if dist <= 1e-12:
                continue
            q_val = _lagrangian_minimum(program, candidate)[1]
            ratio = (q_star - q_val) / dist
            worst_per_radius[r_index] = min(worst_per_radius[r_index], ratio)

    # smallest radius from which outward the bound holds with a positive c0
    suffix = np.minimum.accumulate(worst_per_radius[::-1])[::-1]
    for r_index in range(radii.size):
        if suffix[r_index] > 0.0:
            return float(suffix[r_index]), float(radii[r_index])
    return 0.0, float(radii[-1])
