"""Test references and helpers, kept out of the package.

`certified_prox` is a second prox solver, a different algorithm from the
closed forms that `geometry.closed_form_prox` tabulates, so the geometry
cross-checks and acceptance 1/7 compare the two. Each coordinate of the
minimiser is closed form given the multiplier of the simplex's
normalisation constraint, which is found by bisection, and the result is
certified through a Frank-Wolfe optimality gap. `pushback_check` checks
the three-point inequality of one prox step at one probe point, and
`worst_residual` is a record's worst drift-plus-penalty residual from the
audit's replay. `member` draws a random point of a decision set, and
`slot_functions` one slot of a seed's run.
"""

from dataclasses import dataclass

import numpy as np

from pdomd.errors import GeometryError
from pdomd.geometry import Box, BregmanGeometry, DecisionSet, Simplex, _as_vector, mirror_step
from pdomd.telemetry import replay_record

Array = np.ndarray

# The inverse of each geometry's potential gradient: the mirror map back to primal.
POTENTIAL_GRAD_INVERSE = {"euclidean": lambda z: z, "negative_entropy": np.exp}


def slot_functions(problem, seed: int, t: int):
    """Slot t of seed's run: the one lane-slot of a one-slot block."""
    return problem.sample_block((seed,), t, t + 1).lane(0).at(0)


def worst_residual(record, problem) -> float:
    """The worst per-slot drift-plus-penalty residual of a record at each
    slot's worst comparator (positive or NaN means violated; -inf for T < 2)."""
    return np.max(replay_record(record, problem, None)[1], initial=-np.inf)


def member(decision_set: DecisionSet, rng: np.random.Generator) -> np.ndarray:
    """A random member of a box (uniform) or a simplex (flat Dirichlet)."""
    if isinstance(decision_set, Box):
        return rng.uniform(decision_set.lower, decision_set.upper)
    return rng.dirichlet(np.ones(decision_set.dim))


def certified_prox(
    geometry: BregmanGeometry,
    decision_set: DecisionSet,
    base: np.ndarray,
    coeffs: np.ndarray,
    prox_weight: float,
) -> np.ndarray:
    """``argmin_x <coeffs, x> + prox_weight * D(x, base)`` over a box or a
    simplex, by the certified solve: a bisection on the simplex's
    normalisation multiplier, uncapped since it stops once its bracket no
    longer splits (see ``_bisect_normalisation``), whose result must clear a
    Frank-Wolfe gap of 1e-10. Unlike `mirror_step` it takes any (geometry,
    set) pair, entropy on a box included, and checks none of its arguments.

    Raises AssertionError when the result misses its gap tolerance."""
    # Coordinate i of the minimiser is clip(grad_phi^-1(shifted_i - nu / prox_weight)),
    # where nu is the multiplier of sum(x) = 1: zero on a box, bisected on a simplex.
    grad_base = geometry.potential_grad(base)
    shifted = grad_base - coeffs / prox_weight
    if isinstance(decision_set, Box):
        with np.errstate(over="ignore"):  # an overflow clips to the upper bound
            point = decision_set.project(POTENTIAL_GRAD_INVERSE[geometry.name](shifted))
        steps = 0
    elif isinstance(decision_set, Simplex):
        point, steps = _bisect_normalisation(geometry, shifted)
    else:
        raise TypeError(f"no certified prox for a {type(decision_set).__name__} decision set")

    # An entropy coordinate that underflowed to zero has an infinite potential
    # gradient; the smallest normal float stands in for it in the certificate.
    probe = np.where(point == 0.0, np.finfo(float).tiny, point)
    grad = coeffs + prox_weight * (geometry.potential_grad(probe) - grad_base)
    gap = float(grad @ (point - decision_set.support_minimizer(grad)))
    if not gap <= 1e-10:  # a NaN gap fails too
        raise AssertionError(
            f"certified prox missed its tolerance: gap {gap:.3e} after {steps} bisection steps"
        )
    return point


def _bisect_normalisation(geometry: BregmanGeometry, shifted: np.ndarray) -> tuple:
    """Bisect ``s`` until ``x(s) = max(grad_phi^-1(shifted - s), 0)`` sums to one.

    The sum is nonincreasing in ``s``.  It is at least one where the largest
    coordinate equals one and at most one where every coordinate is at most
    ``1/d``, which brackets the root.  Each step halves a finite bracket
    until it can no longer be split in floating point: about 55 steps for a
    root of order one, at most about 1,100 beside zero where floats are
    densest.  A NaN or infinite end fails ``lo < mid < hi`` at once.  The
    upper end's point is returned with its deficit ``1 - sum`` added to its
    largest coordinate, so it lies in the simplex.
    """
    inverse = POTENTIAL_GRAD_INVERSE[geometry.name]

    def at(s: float) -> np.ndarray:
        return np.maximum(inverse(shifted - s), 0.0)

    grad_one, grad_uniform = geometry.potential_grad(np.array([1.0, 1.0 / shifted.shape[0]]))
    top = float(shifted.max())
    lo, hi = top - float(grad_one), top - float(grad_uniform)
    point = at(hi)
    total = float(point.sum())
    steps = 0
    while total != 1.0:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        steps += 1
        candidate = at(mid)
        candidate_total = float(candidate.sum())
        if candidate_total > 1.0:
            lo = mid
        else:
            hi, point, total = mid, candidate, candidate_total
    point[int(np.argmax(point))] += 1.0 - total
    return point, steps


@dataclass(frozen=True)
class PushbackResult:
    """Outcome of a three-point (pushback) inequality check."""

    holds: bool
    residual: float
    minimizer: Array


def pushback_check(
    geometry: BregmanGeometry,
    decision_set: DecisionSet,
    coeffs: Array,
    base: Array,
    prox_weight: float,
    probe: Array,
    tol: float = 1e-9,
) -> PushbackResult:
    """Verify the three-point inequality of the proximal step.

    With ``x* = argmin <coeffs, x> + a * D(x, base)`` the inequality

    ``<coeffs, x*> + a D(x*, base) <= <coeffs, z> + a D(z, base) - a D(z, x*)``

    must hold for every ``z`` in the set.  Returns the signed residual
    (right side minus left side, nonnegative when the inequality holds) and
    whether it clears ``-tol``.
    """
    probe = _as_vector(probe, "probe")
    if not decision_set.contains(probe, tol=1e-9):
        raise GeometryError("probe point must belong to the decision set")
    minimizer = mirror_step(geometry, decision_set, base, coeffs, prox_weight)
    lhs = float(coeffs @ minimizer) + prox_weight * geometry.divergence(minimizer, base)
    rhs = (
        float(coeffs @ probe)
        + prox_weight * geometry.divergence(probe, base)
        - prox_weight * geometry.divergence(probe, minimizer)
    )
    residual = rhs - lhs
    return PushbackResult(holds=bool(residual >= -tol), residual=residual, minimizer=minimizer)
