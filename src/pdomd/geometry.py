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
of them, and the engine's step and `mirror_step` both call it; a pair
without a closed form is refused.

Both geometries have strong-convexity modulus 1 with respect to their
natural norm pair (Euclidean: l2/l2; negative entropy on the simplex: l1
primal with l-infinity dual, by Pinsker's inequality).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError

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


@dataclass(frozen=True)
class Simplex(DecisionSet):
    """Probability simplex ``{x >= 0 : sum(x) = 1}`` in ``dim`` coordinates."""

    dim: int

    def __post_init__(self):
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 1):
            raise GeometryError(
                f"simplex dimension must be an integer of at least 1, got {self.dim!r}"
            )
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


# ---------------------------------------------------------------------------
# Bregman geometries
# ---------------------------------------------------------------------------


class BregmanGeometry(ABC):
    """A Bregman divergence and the gradient of its generating potential.

    Attributes
    ----------
    name : str
        Stable identifier used in run headers ("euclidean",
        "negative_entropy").
    """

    name: str

    @abstractmethod
    def divergence(self, x: Array, y: Array) -> float:
        """Bregman divergence ``D(x, y)``; an array of them, row by row, on
        (..., d) stacks of points."""

    @abstractmethod
    def potential_grad(self, x: Array) -> Array:
        """Gradient of the generating potential."""


class EuclideanGeometry(BregmanGeometry):
    """Squared Euclidean distance ``D(x, y) = 0.5 * ||x - y||_2**2``."""

    name = "euclidean"

    def divergence(self, x: Array, y: Array) -> float:
        x = _as_vector(x, "x", stack=True)
        y = _as_vector(y, "y", stack=True)
        if x.shape != y.shape:
            raise GeometryError("divergence arguments must share a shape")
        diff = x - y
        return _per_row(0.5 * np.vecdot(diff, diff))

    def potential_grad(self, x: Array) -> Array:
        return np.asarray(x, dtype=float)


class NegativeEntropyGeometry(BregmanGeometry):
    """Generalized Kullback-Leibler divergence from the entropy potential.

    ``D(x, y) = sum(x * log(x / y) - x + y)`` with the convention
    ``0 * log(0 / q) = 0``.  On simplex members the linear terms cancel and
    the divergence reduces to the ordinary KL divergence; off the simplex the
    generalized form keeps ``D >= 0``.  The second argument must be strictly
    positive, the first nonnegative.
    """

    name = "negative_entropy"

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
    if not np.isfinite(point).all():
        raise GeometryError("point must be finite")
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
) -> Array:
    """Solve ``argmin_x <coeffs, x> + prox_weight * D(x, base)`` over the set.

    Validates its arguments once, then takes the pair's closed form from
    `closed_form_prox`, the same step the engine takes.

    Raises
    ------
    GeometryError
        On malformed inputs (dimension mismatch, base outside the set, an
        entropy base with a zero entry, nonpositive prox weight, coefficients
        that are not finite once divided by it), or for a pair without a
        closed form, which `core.initial_state` refuses too.
    """
    base = _as_vector(base, "base")
    coeffs = _as_vector(coeffs, "coeffs")
    if base.shape[0] != decision_set.dim or coeffs.shape != base.shape:
        raise GeometryError("base/coeffs dimensions must match the decision set")
    if not prox_weight > 0.0:  # a NaN weight is refused here too
        raise GeometryError("prox_weight must be positive")
    if not decision_set.contains(base, tol=1e-9):
        raise GeometryError("base point must belong to the decision set")
    if isinstance(geometry, NegativeEntropyGeometry) and np.any(base <= 0.0):
        raise GeometryError("entropy prox needs a strictly positive base point")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        scaled = coeffs / prox_weight
    if not np.isfinite(scaled).all():
        raise GeometryError("coefficients must be finite")
    closed_form = closed_form_prox(geometry, decision_set)
    if closed_form is None:
        raise GeometryError(
            f"no closed-form prox for {geometry.name} on a {type(decision_set).__name__}"
        )
    return closed_form(base, coeffs, prox_weight)
