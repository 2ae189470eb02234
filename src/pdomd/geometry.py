"""Decision sets, Bregman geometries, and mirror proximal steps.

This module provides the geometric layer for online mirror descent: compact
convex decision sets (axis-aligned boxes and probability simplices), Bregman
divergences generated by a strongly convex potential (squared Euclidean norm
and negative entropy), and the proximal update

.. math::

    x^+ = \\operatorname*{argmin}_{x \\in \\Delta}
        \\; \\langle p, x \\rangle + \\alpha D(x, y),

together with its three closed forms: an exponentiated-gradient step for
the simplex under negative entropy, a clipped gradient step for a box under
the Euclidean potential, and the sort-based Euclidean projection for the
simplex under the Euclidean potential.  `closed_form_prox` is the one table
of them, and the engine's step and `mirror_step` both call it.  Every other
combination, and every `mirror_step` call with ``force_numeric``, runs a
certified solve: each coordinate is closed form given the multiplier of the
simplex's normalisation constraint, which is found by bisection, and the
result is certified through a Frank-Wolfe optimality gap.  Being a
different algorithm, it also cross-checks the closed forms.

Both geometries have strong-convexity modulus 1 with respect to their
natural norm pair (Euclidean: l2/l2; negative entropy on the simplex: l1
primal with l-infinity dual, by Pinsker's inequality).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError, ProxConvergenceError

Array = np.ndarray

#: Default membership tolerance for decision sets.
MEMBERSHIP_TOL = 1e-12


def _as_vector(x, name: str, stack: bool = False) -> Array:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 and not (stack and arr.ndim > 1):
        raise GeometryError(f"{name} must be a one-dimensional vector, got shape {arr.shape}")
    return arr


def _per_row(values: Array):
    """A float for one point's value, the array for a stack's."""
    return float(values) if values.ndim == 0 else values


# ---------------------------------------------------------------------------
# Decision sets
# ---------------------------------------------------------------------------


class DecisionSet(ABC):
    """A compact convex decision set with projection and support oracles."""

    dim: int

    @abstractmethod
    def contains(self, point: Array, tol: float = MEMBERSHIP_TOL) -> bool:
        """Whether ``point`` lies in the set up to tolerance ``tol``."""

    @abstractmethod
    def project(self, point: Array) -> Array:
        """Euclidean projection onto the set."""

    @abstractmethod
    def support_minimizer(self, direction: Array) -> Array:
        """A minimizer of ``<direction, z>`` over the set, row by row on a
        (..., d) stack of directions."""

    @abstractmethod
    def initial_point(self) -> Array:
        """Canonical interior starting point."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Array:
        """A random member of the set (used by tests and demos)."""


@dataclass(frozen=True)
class Box(DecisionSet):
    """Axis-aligned box ``{x : lower <= x <= upper}``.

    Parameters
    ----------
    lower, upper : ndarray
        Finite componentwise bounds with ``lower <= upper``.
    """

    lower: Array
    upper: Array

    def __post_init__(self):
        lower = _as_vector(self.lower, "lower")
        upper = _as_vector(self.upper, "upper")
        if lower.shape != upper.shape:
            raise GeometryError("box bounds must share a shape")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise GeometryError("box bounds must be finite")
        if np.any(lower > upper):
            raise GeometryError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, point: Array, tol: float = MEMBERSHIP_TOL) -> bool:
        point = np.asarray(point, dtype=float)
        if point.shape != self.lower.shape:
            return False
        # logical_and.reduce is np.all without its Python-level wrapper.
        return bool(
            np.logical_and.reduce(point >= self.lower - tol)
            and np.logical_and.reduce(point <= self.upper + tol)
        )

    def project(self, point: Array) -> Array:
        # Same values as np.clip, at about a third of its cost on short vectors.
        return np.minimum(np.maximum(np.asarray(point, dtype=float), self.lower), self.upper)

    def support_minimizer(self, direction: Array) -> Array:
        return np.where(np.asarray(direction) > 0.0, self.lower, self.upper)

    def initial_point(self) -> Array:
        return 0.5 * (self.lower + self.upper)

    def sample(self, rng: np.random.Generator) -> Array:
        return rng.uniform(self.lower, self.upper)


@dataclass(frozen=True)
class Simplex(DecisionSet):
    """Probability simplex ``{x >= 0 : sum(x) = 1}`` in ``dim`` coordinates."""

    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise GeometryError("simplex dimension must be at least 1")
        object.__setattr__(self, "dim", int(self.dim))
        ranks = np.arange(1, self.dim + 1)  # the projection's 1..d, built once
        ranks.flags.writeable = False
        object.__setattr__(self, "_ranks", ranks)

    def contains(self, point: Array, tol: float = MEMBERSHIP_TOL) -> bool:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            return False
        # The minimum is NaN, and fails the test, when any entry is NaN.
        return bool(
            np.minimum.reduce(point) >= -tol and abs(float(np.add.reduce(point)) - 1.0) <= tol
        )

    def project(self, point: Array) -> Array:
        v = np.asarray(point, dtype=float)
        if v.shape != (self.dim,):
            raise GeometryError(f"cannot project shape {v.shape} onto a {self.dim}-simplex")
        return self.project_rows(v)

    def project_rows(self, points: Array) -> Array:
        """Sort-based projection of each (d,) row of a (..., d) stack,
        unchecked but for a row with no support: a NaN, +inf or overflowing
        sum leaves none, and raises GeometryError."""
        # The ufuncs' own reduce methods skip np.max's and np.cumsum's wrappers.
        u = np.sort(points, axis=-1)[..., ::-1]
        ratios = (np.add.accumulate(u, axis=-1) - 1.0) / self._ranks
        # rho, the last rank whose entry stays above its ratio, picks the threshold
        rho = np.maximum.reduce((u > ratios) * self._ranks, axis=-1, keepdims=True)
        if not np.logical_and.reduce(rho, None):
            raise GeometryError("cannot project a point with NaN or overflowing entries")
        threshold = np.minimum.reduce(
            ratios, axis=-1, keepdims=True, where=self._ranks == rho, initial=np.inf
        )
        return np.maximum(points - threshold, 0.0)

    def support_minimizer(self, direction: Array) -> Array:
        return np.eye(self.dim)[np.argmin(direction, axis=-1)]

    def initial_point(self) -> Array:
        return np.full(self.dim, 1.0 / self.dim)

    def sample(self, rng: np.random.Generator) -> Array:
        return rng.dirichlet(np.ones(self.dim))


# ---------------------------------------------------------------------------
# Bregman geometries
# ---------------------------------------------------------------------------


class BregmanGeometry(ABC):
    """A Bregman divergence with its norm pair and convexity modulus.

    Attributes
    ----------
    name : str
        Stable identifier used in run headers ("euclidean",
        "negative_entropy").
    beta : float
        Strong-convexity modulus of the generating potential with respect to
        the primal norm, so ``D(x, y) >= beta/2 * norm(x - y)**2``.
    """

    name: str
    beta: float = 1.0

    @abstractmethod
    def divergence(self, x: Array, y: Array) -> float:
        """Bregman divergence ``D(x, y)``; an array of them, row by row, on
        (..., d) stacks of points."""

    @abstractmethod
    def potential_grad(self, x: Array) -> Array:
        """Gradient of the generating potential."""

    @abstractmethod
    def potential_grad_inverse(self, z: Array) -> Array:
        """Inverse of :meth:`potential_grad` (the mirror map back to primal)."""

    @abstractmethod
    def norm(self, v: Array) -> float:
        """Primal norm."""

    @abstractmethod
    def dual_norm(self, v: Array) -> float:
        """Dual norm paired with :meth:`norm`."""


class EuclideanGeometry(BregmanGeometry):
    """Squared Euclidean distance ``D(x, y) = 0.5 * ||x - y||_2**2``."""

    name = "euclidean"
    beta = 1.0

    def divergence(self, x: Array, y: Array) -> float:
        x = _as_vector(x, "x", stack=True)
        y = _as_vector(y, "y", stack=True)
        if x.shape != y.shape:
            raise GeometryError("divergence arguments must share a shape")
        diff = x - y
        return _per_row(0.5 * np.vecdot(diff, diff))

    def potential_grad(self, x: Array) -> Array:
        return np.asarray(x, dtype=float)

    def potential_grad_inverse(self, z: Array) -> Array:
        return np.asarray(z, dtype=float)

    def norm(self, v: Array) -> float:
        return float(np.linalg.norm(v))

    def dual_norm(self, v: Array) -> float:
        return float(np.linalg.norm(v))


class NegativeEntropyGeometry(BregmanGeometry):
    """Generalized Kullback-Leibler divergence from the entropy potential.

    ``D(x, y) = sum(x * log(x / y) - x + y)`` with the convention
    ``0 * log(0 / q) = 0``.  On simplex members the linear terms cancel and
    the divergence reduces to the ordinary KL divergence; off the simplex the
    generalized form keeps ``D >= 0``.  The second argument must be strictly
    positive, the first nonnegative.

    The norm pair is l1 primal / l-infinity dual; Pinsker's inequality gives
    modulus ``beta = 1`` on the simplex.
    """

    name = "negative_entropy"
    beta = 1.0

    def divergence(self, x: Array, y: Array) -> float:
        x = _as_vector(x, "x", stack=True)
        y = _as_vector(y, "y", stack=True)
        if x.shape != y.shape:
            raise GeometryError("divergence arguments must share a shape")
        if np.any(y <= 0.0):
            raise GeometryError("negative-entropy divergence needs strictly positive y")
        if np.any(x < 0.0):
            raise GeometryError("negative-entropy divergence needs nonnegative x")
        positive = x > 0.0
        terms = np.where(positive, x * np.log(np.where(positive, x, 1.0) / y), 0.0)
        return _per_row(terms.sum(axis=-1) - x.sum(axis=-1) + y.sum(axis=-1))

    def potential_grad(self, x: Array) -> Array:
        return np.log(np.asarray(x, dtype=float))

    def potential_grad_inverse(self, z: Array) -> Array:
        return np.exp(np.asarray(z, dtype=float))

    def norm(self, v: Array) -> float:
        return float(np.abs(v).sum())

    def dual_norm(self, v: Array) -> float:
        return float(np.max(np.abs(v))) if np.size(v) else 0.0


# ---------------------------------------------------------------------------
# Proximal steps
# ---------------------------------------------------------------------------


def closed_form_prox(
    geometry: BregmanGeometry, decision_set: DecisionSet
) -> Optional[Callable[[Array, Array, float], Array]]:
    """The pair's closed-form prox step, or None for a pair without one.

    The step maps ``(base, coeffs, prox_weight)`` to ``argmin_x <coeffs, x>
    + prox_weight * D(x, base)`` row by row on (..., d) stacks: the
    exponentiated-gradient step on (simplex, negative entropy), and
    ``base - coeffs / prox_weight`` projected on (simplex, Euclidean) or
    clipped on (box, Euclidean).  It is unchecked: `mirror_step` validates
    its arguments first, and the engine steps from its own decisions with
    finite observations.
    """
    # A failed isinstance costs about four times a passed one, and the
    # engine looks its step up every slot: the likeliest test comes first.
    if isinstance(geometry, EuclideanGeometry):
        if isinstance(decision_set, Simplex):
            return lambda base, coeffs, weight: decision_set.project_rows(base - coeffs / weight)
        if isinstance(decision_set, Box):
            return lambda base, coeffs, weight: decision_set.project(base - coeffs / weight)
    elif isinstance(geometry, NegativeEntropyGeometry) and isinstance(decision_set, Simplex):
        return _exponentiated_step
    return None


def _exponentiated_step(base: Array, coeffs: Array, prox_weight: float) -> Array:
    """Multiplicative weights ``x_i = base_i * exp(-coeffs_i / prox_weight) / Z``.

    The smallest scaled coefficient is subtracted before exponentiation, so
    the exponent cannot overflow, and a common shift of the coefficients
    that is exact in floating point leaves the result bit for bit the same.
    """
    scaled = coeffs / prox_weight
    shifted = scaled - np.minimum.reduce(scaled, axis=-1, keepdims=True)
    weights = base * np.exp(-shifted)
    total = np.add.reduce(weights, axis=-1, keepdims=True)
    if not np.logical_and.reduce((total > 0.0) & (total < np.inf), None):  # a NaN fails both
        raise GeometryError("exponentiated-gradient weights degenerated to zero")
    return weights / total


def mix_toward_uniform(point: Array, mixing_weight: float) -> Array:
    """Blend a simplex point with the uniform distribution.

    Returns ``(1 - mixing_weight) * point + mixing_weight / d`` so every
    component is at least ``mixing_weight / d``.
    """
    point = _as_vector(point, "point")
    if not 0.0 <= mixing_weight < 1.0:
        raise GeometryError("mixing weight must lie in [0, 1)")
    if mixing_weight == 0.0:
        return point.copy()
    return prox_base("simplex", point, mixing_weight)


#: The geometry each engine variant runs; nothing else decides it.
VARIANT_GEOMETRY = {"general": EuclideanGeometry(), "simplex": NegativeEntropyGeometry()}


def prox_base(variant: str, point: Array, mixing_weight: float) -> Array:
    """The centre of a variant's prox step from ``point``: blended toward
    uniform on the simplex variant, which keeps KL divergences finite.
    Unchecked, and row by row on a (..., d) stack; `mix_toward_uniform` is
    the checked blend."""
    if variant != "simplex" or mixing_weight == 0.0:
        return point
    return (1.0 - mixing_weight) * point + mixing_weight / point.shape[-1]


def mirror_step(
    geometry: BregmanGeometry,
    decision_set: DecisionSet,
    base: Array,
    coeffs: Array,
    prox_weight: float,
    *,
    force_numeric: bool = False,
) -> Array:
    """Solve ``argmin_x <coeffs, x> + prox_weight * D(x, base)`` over the set.

    Validates its arguments once, then takes the pair's closed form from
    `closed_form_prox`, the same step the engine takes.  A pair without one
    runs the certified solve: a bisection on the simplex's normalisation
    multiplier, uncapped since it stops once its bracket no longer splits
    (see ``_bisect_normalisation``), whose result must clear a Frank-Wolfe
    gap of 1e-10.  ``force_numeric`` routes even the closed-form pairs
    through the certified solve, which is how the closed forms are
    cross-validated.

    Raises
    ------
    GeometryError
        On malformed inputs (dimension mismatch, base outside the set, an
        entropy base with a zero entry, nonpositive prox weight, coefficients
        that are not finite once divided by it), or when the certified solve
        meets a decision set other than a box or a simplex.
    ProxConvergenceError
        When the certified solve misses its gap tolerance.
    """
    base = _as_vector(base, "base")
    coeffs = _as_vector(coeffs, "coeffs")
    if base.shape[0] != decision_set.dim or coeffs.shape != base.shape:
        raise GeometryError("base/coeffs dimensions must match the decision set")
    if prox_weight <= 0.0:
        raise GeometryError("prox_weight must be positive")
    if not decision_set.contains(base, tol=1e-9):
        raise GeometryError("base point must belong to the decision set")
    if isinstance(geometry, NegativeEntropyGeometry) and np.any(base <= 0.0):
        raise GeometryError("entropy prox needs a strictly positive base point")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        scaled = coeffs / prox_weight
    if not np.isfinite(scaled).all():
        raise GeometryError("coefficients must be finite")

    closed_form = None if force_numeric else closed_form_prox(geometry, decision_set)
    if closed_form is not None:
        return closed_form(base, coeffs, prox_weight)

    # Coordinate i of the minimiser is clip(grad_phi^-1(shifted_i - nu / prox_weight)),
    # where nu is the multiplier of sum(x) = 1: zero on a box, bisected on a simplex.
    grad_base = geometry.potential_grad(base)
    shifted = grad_base - scaled
    if isinstance(decision_set, Box):
        with np.errstate(over="ignore"):  # an overflow clips to the upper bound
            point = decision_set.project(geometry.potential_grad_inverse(shifted))
        steps = 0
    elif isinstance(decision_set, Simplex):
        point, steps = _bisect_normalisation(geometry, shifted)
    else:
        raise GeometryError(
            f"no certified prox for a {type(decision_set).__name__} decision set"
        )

    # An entropy coordinate that underflowed to zero has an infinite potential
    # gradient; the smallest normal float stands in for it in the certificate.
    probe = np.where(point == 0.0, np.finfo(float).tiny, point)
    grad = coeffs + prox_weight * (geometry.potential_grad(probe) - grad_base)
    gap = float(grad @ (point - decision_set.support_minimizer(grad)))
    if not gap <= 1e-10:
        raise ProxConvergenceError(
            f"certified prox missed its tolerance: gap {gap:.3e} "
            f"after {steps} bisection steps"
        )
    return point


def _bisect_normalisation(geometry: BregmanGeometry, shifted: Array) -> tuple[Array, int]:
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

    def at(s: float) -> Array:
        return np.maximum(geometry.potential_grad_inverse(shifted - s), 0.0)

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
