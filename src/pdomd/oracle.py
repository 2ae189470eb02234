"""Offline reference computations for a window of mean slot functions.

Everything in this module works on the exact means a problem records, never
on sampled realizations: the benchmark a run is judged against is the best
fixed decision for the mean problem over a window of slots.  The module
provides that benchmark (:func:`hindsight_optimum`), the Lagrangian dual
function of the same window program (:func:`dual_function`), an estimate of
the optimal multipliers and their norm (:func:`estimate_multipliers`), and an
empirical probe of how sharply the dual falls off away from its maximizer
(:func:`weak_ebc_probe`), which is the error-bound property that keeps
multiplier estimates, and with them the dual iterates of the online solver,
bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.optimize

from ._descent import minimize_on_set
from .errors import InfeasibleProblemError, MultiplierDivergenceError, OracleError
from .geometry import Box, DecisionSet, Simplex
from .problems import LinearRows, ProblemInstance, ServiceRows

Array = np.ndarray

_FEASIBILITY_TOL = 1e-6
_STATIONARITY_TOL = 1e-6
_INNER_GAP_TOL = 1e-9
_DUAL_GAP_TOL = 1e-6
_DIVERGENCE_NORM = 1e6


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
    if start < 0:
        raise OracleError("window start must be nonnegative")
    if length < 1:
        raise OracleError("window length must be at least 1")
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


def _solve_linear(program: _WindowProgram) -> Array:
    dset = program.decision_set
    d = dset.dim
    c = program.objective
    a_ub = b_ub = None
    if len(program.inequalities):
        a_ub = program.inequalities.coeffs
        b_ub = program.inequalities.offsets
    a_eq, b_eq = program.eq_matrix, program.targets
    if isinstance(dset, Simplex):
        a_eq = np.vstack([np.ones(d), a_eq])
        b_eq = np.concatenate([[1.0], b_eq])
        bounds = [(0.0, 1.0)] * d
    elif isinstance(dset, Box):
        bounds = list(zip(dset.lower, dset.upper))
    else:
        raise OracleError(f"unsupported decision set {type(dset).__name__}")
    if not b_eq.size:
        a_eq = b_eq = None
    res = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if res.status == 2:
        raise InfeasibleProblemError("window program is infeasible")
    if res.status != 0:
        raise OracleError(f"linear solve failed: {res.message}")
    return np.asarray(res.x, dtype=float)


def _solve_smooth(program: _WindowProgram) -> Array:
    """Augmented Lagrangian loop for windows with nonlinear inequalities.

    Each pass minimizes the augmented Lagrangian over the decision set with
    the certified first-order solver, then takes the standard multiplier
    update.  At the inner optimum the augmented gradient coincides with the
    plain Lagrangian gradient at the updated multipliers, so the inner
    Frank-Wolfe gap certifies KKT stationarity for free; only feasibility
    and complementary slackness need outer iterations.  A residual that
    refuses to vanish while the penalty weight climbs is reported as
    infeasibility.
    """
    dset = program.decision_set
    ineqs = program.inequalities
    eq = program.eq_matrix
    targets = program.targets
    n_eq = eq.shape[0]

    point = np.asarray(dset.initial_point(), dtype=float)
    lam = np.zeros(len(ineqs))
    eta = np.zeros(n_eq)
    rho = 1.0
    target_res = 1e-8
    best_feasibility = np.inf
    last_gap = np.inf
    last_comp = np.inf

    for _ in range(100):
        lam_frozen, eta_frozen, rho_frozen = lam.copy(), eta.copy(), rho
        lam_squared = float(lam_frozen @ lam_frozen)

        def al_value(x: Array) -> float:
            clipped = np.maximum(lam_frozen + rho_frozen * ineqs.values(x), 0.0)
            total = float(program.objective @ x)
            total += (float(clipped @ clipped) - lam_squared) / (2.0 * rho_frozen)
            if n_eq:
                residual = eq @ x - targets
                total += float(eta_frozen @ residual)
                total += 0.5 * rho_frozen * float(residual @ residual)
            return float(total)

        def al_grad(x: Array) -> Array:
            clipped = np.maximum(lam_frozen + rho_frozen * ineqs.values(x), 0.0)
            total = program.objective + clipped @ ineqs.grads(x)
            if n_eq:
                total += eq.T @ (eta_frozen + rho_frozen * (eq @ x - targets))
            return total

        inner = minimize_on_set(
            al_value, al_grad, dset, point, gap_tol=1e-10, curvature_hint=rho
        )
        point = inner.point
        last_gap = inner.gap

        ineq_values = ineqs.values(point)
        eq_residual = eq @ point - targets if n_eq else np.zeros(0)
        lam = np.maximum(lam + rho * ineq_values, 0.0)
        eta = eta + rho * eq_residual

        feasibility = float(
            np.hypot(
                np.linalg.norm(np.maximum(ineq_values, 0.0)),
                np.linalg.norm(eq_residual),
            )
        )
        last_comp = float(np.sum(np.abs(lam * ineq_values)))
        if feasibility <= target_res and last_gap <= target_res and last_comp <= target_res:
            return point
        if feasibility > 0.25 * best_feasibility:
            rho = min(rho * 4.0, 1e12)
        best_feasibility = min(best_feasibility, feasibility)

    if best_feasibility > _FEASIBILITY_TOL:
        raise InfeasibleProblemError(
            f"penalized residual {best_feasibility:.3e} does not vanish; "
            "window program appears infeasible"
        )
    if max(last_gap, last_comp) > _STATIONARITY_TOL:
        raise OracleError(
            f"stationarity residual {max(last_gap, last_comp):.3e} exceeds "
            f"{_STATIONARITY_TOL:.0e}"
        )
    return point


def hindsight_optimum(
    problem: ProblemInstance, start: int, length: int
) -> Tuple[Array, float]:
    """Best fixed decision for the mean program over a window of slots.

    Solves min f(mu) over the decision set subject to the mean inequality
    and equality constraints, where f averages the mean objectives of slots
    ``start ... start+length-1``.  Returns the minimizer and its objective
    value.  The solution is verified: clipped inequality and equality
    residuals must both come in at or below 1e-6, otherwise this raises
    instead of returning a bad reference point.
    """
    program = _window_program(problem, start, length)
    if program.all_linear:
        raw = _solve_linear(program)
    else:
        raw = _solve_smooth(program)
    point = program.decision_set.project(raw)
    ineq_res, eq_res = _feasibility_residuals(program, point)
    if ineq_res > _FEASIBILITY_TOL or eq_res > _FEASIBILITY_TOL:
        raise OracleError(
            f"solution fails verification: inequality residual {ineq_res:.3e}, "
            f"equality residual {eq_res:.3e}"
        )
    return point, float(program.objective @ point)


def _lagrangian_minimum(
    program: _WindowProgram,
    ineq_mult: Array,
    eq_mult: Array,
    warm_start: Optional[Array] = None,
) -> Tuple[Array, float]:
    """Minimize the weighted Lagrangian over the decision set alone.

    Returns the minimizer and the dual value.  Linear problems get the exact
    support-point evaluation; otherwise the numeric solver runs to a
    certified gap of 1e-9.
    """
    dset = program.decision_set
    eta_term = eq_mult @ program.eq_matrix if eq_mult.size else 0.0
    offset_shift = float(eq_mult @ program.targets) if eq_mult.size else 0.0
    rows = program.inequalities
    if program.all_linear:
        combined = program.objective + ineq_mult @ rows.coeffs + eta_term
        constant = -float(ineq_mult @ rows.offsets) - offset_shift
        point = dset.support_minimizer(combined)
        return point, float(combined @ point + constant)

    def value(x: Array) -> float:
        total = float(program.objective @ x) + float(ineq_mult @ rows.values(x))
        if eq_mult.size:
            total += float(eta_term @ x) - offset_shift
        return total

    def grad(x: Array) -> Array:
        return program.objective + ineq_mult @ rows.grads(x) + eta_term

    start = warm_start if warm_start is not None else dset.initial_point()
    result = minimize_on_set(value, grad, dset, start, gap_tol=_INNER_GAP_TOL)
    if result.gap > 1e-8:
        raise OracleError(
            f"inner Lagrangian minimization stalled at gap {result.gap:.3e}"
        )
    return result.point, result.value


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
    _, value = _lagrangian_minimum(program, lam, eta)
    return value


def estimate_multipliers(
    problem: ProblemInstance,
    start: int,
    length: int,
    max_iter: int = 50_000,
) -> Tuple[DualPoint, float]:
    """Estimate the dual optimum of the window program and its norm.

    Runs projected supergradient ascent on the concave dual.  When the primal
    optimum is available its value doubles as an ascent target, giving a
    duality-gap stopping rule at 1e-6 and a step size proportional to the
    remaining gap.  When the primal program is infeasible no finite maximizer
    exists; the ascent then chases an unbounded direction with geometrically
    growing steps until the iterate norm passes 1e6, which is reported as
    divergence.  Returns the best dual point found and its Euclidean norm,
    the empirical stand-in for a uniform multiplier bound.
    """
    program = _window_program(problem, start, length)
    n_ineq = len(program.inequalities)
    n_eq = program.eq_matrix.shape[0]
    try:
        _, target = hindsight_optimum(problem, start, length)
    except InfeasibleProblemError:
        target = None

    lam = np.zeros(n_ineq)
    eta = np.zeros(n_eq)
    best_value = -np.inf
    best = (lam.copy(), eta.copy())
    fallback_step = 1.0
    previous_value = -np.inf
    warm: Optional[Array] = None

    for _ in range(max_iter):
        minimizer, value = _lagrangian_minimum(program, lam, eta, warm_start=warm)
        warm = minimizer
        if value > best_value:
            best_value = value
            best = (lam.copy(), eta.copy())
        if target is not None and target - value <= _DUAL_GAP_TOL:
            point = DualPoint(best[0], best[1])
            return point, point.norm()

        super_ineq = program.inequalities.values(minimizer)
        super_eq = (
            program.eq_matrix @ minimizer - program.targets
            if n_eq
            else np.zeros(0)
        )
        norm_sq = float(super_ineq @ super_ineq + super_eq @ super_eq)
        if norm_sq <= 1e-30:
            # zero supergradient: the dual is maximized exactly here
            point = DualPoint(lam, eta)
            return point, point.norm()

        if target is not None:
            step = max(target - value, 0.0) / norm_sq
        else:
            # no target available; grow the step while the dual keeps
            # improving so an unbounded dual is detected quickly
            if value > previous_value:
                fallback_step = min(fallback_step * 2.0, 2.0**40)
            else:
                fallback_step = max(fallback_step * 0.5, 1e-3)
            previous_value = value
            step = fallback_step / np.sqrt(norm_sq)

        lam = np.maximum(lam + step * super_ineq, 0.0)
        eta = eta + step * super_eq
        if float(np.hypot(np.linalg.norm(lam), np.linalg.norm(eta))) > _DIVERGENCE_NORM:
            raise MultiplierDivergenceError(
                "dual iterate norm exceeded 1e6; the multiplier set appears "
                "unbounded (constraint qualification likely fails)"
            )

    raise OracleError(
        f"dual ascent did not reach gap {_DUAL_GAP_TOL:.0e} within "
        f"{max_iter} iterations"
    )


def weak_ebc_probe(
    problem: ProblemInstance,
    start: int,
    length: int,
    n_samples: int,
    radius_grid: Sequence[float],
    seed: int = 0,
) -> Tuple[float, float]:
    """Empirical error-bound constants for the window dual function.

    Samples dual points at the given distances from the estimated dual
    optimum and measures the decay ratio ``(q* - q(x)) / dist(x, x*)``.
    Returns ``(c0, l0)`` where ``l0`` is the smallest grid radius from which
    outward every sampled ratio stays positive and ``c0`` is the worst such
    ratio, so ``q* - q(x) >= c0 * dist`` held on every sample at distance
    ``l0`` or more.  Returns ``(0.0, max(radius_grid))`` when no grid suffix
    works.  The optimal set is treated as the single estimated point, which
    understates distances for degenerate duals with flat optimal faces.
    """
    radii = np.asarray(sorted(radius_grid), dtype=float)
    if radii.size == 0 or radii[0] <= 0.0:
        raise OracleError("radius grid must contain positive radii")
    if n_samples < 1:
        raise OracleError("need at least one sample per radius")
    program = _window_program(problem, start, length)
    center_point, _ = estimate_multipliers(problem, start, length)
    center = np.concatenate([center_point.ineq, center_point.eq])
    n_ineq = center_point.ineq.shape[0]
    _, q_star = _lagrangian_minimum(program, center_point.ineq, center_point.eq)

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
            _, q_val = _lagrangian_minimum(
                program, candidate[:n_ineq], candidate[n_ineq:]
            )
            ratio = (q_star - q_val) / dist
            worst_per_radius[r_index] = min(worst_per_radius[r_index], ratio)

    # smallest radius from which outward the bound holds with a positive c0
    suffix = np.minimum.accumulate(worst_per_radius[::-1])[::-1]
    for r_index in range(radii.size):
        if suffix[r_index] > 0.0:
            return float(suffix[r_index]), float(radii[r_index])
    return 0.0, float(radii[-1])
