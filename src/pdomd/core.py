"""The primal-dual online mirror descent engine.

Each slot plays a decision from a proximal mirror step whose linear term
mixes the previous slot's objective subgradient with multiplier-weighted
constraint subgradients, then pushes the multipliers by the linearized
constraint residuals. The simplex variant first blends the previous decision
toward uniform, which keeps KL divergences finite.

The engine never samples anything itself: it consumes observation batches
(values and subgradients evaluated at the previous decision) and is oblivious
to where they come from. The first slot has no previous observations; by
convention the initial point is played and the multipliers stay at zero,
which is the same as starting the updates one slot late.

The state and the observations may carry a leading lane axis: decisions
(S, d), Q (S, L) and H (S, M), with V, alpha and theta shared. A lane is one
seed's run, and `iterate_run` walks the lanes of several seeds in lockstep,
one step over all of them per slot; a single seed is walked with no lane
axis, by the same code. Every operation acts along the last axis, and every
product takes each lane in the form a single run takes, so a lane's numbers
equal its own run's bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, GeometryError, ProblemError
from .geometry import (
    VARIANT_GEOMETRY, BregmanGeometry, Box, DecisionSet, Simplex, exponentiated_rows, prox_base
)
from .problems import SEED_BLOCK, ObservationBatch, ProblemInstance, SlotFunctions
from .telemetry import RecordCollector, RunRecord

Array = np.ndarray

VARIANTS = tuple(VARIANT_GEOMETRY)
BLOCK_LANE_SLOTS = SEED_BLOCK  # lane-slots a walk draws together at most


@dataclass(frozen=True)
class AlgorithmParams:
    """Engine weights: V, alpha, theta, the horizon, and a window length
    used only by multiplier diagnostics."""

    objective_weight: float  # V
    prox_weight: float  # alpha
    mixing_weight: float  # theta, simplex variant only
    horizon: int
    drift_window: int

    def __post_init__(self):
        for name in ("objective_weight", "prox_weight"):
            weight = getattr(self, name)
            if not (math.isfinite(weight) and weight > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {weight!r}")
        if not 0.0 <= self.mixing_weight < 1.0:  # NaN fails too
            raise ConfigError(f"mixing_weight must lie in [0, 1), got {self.mixing_weight!r}")
        for name in ("horizon", "drift_window"):
            count = getattr(self, name)
            if not (isinstance(count, numbers.Real) and float(count).is_integer()):  # NaN fails too
                raise ConfigError(f"{name} must be an integer, got {count!r}")
        if self.drift_window < 1 or self.drift_window > max(self.horizon, 1):
            raise ConfigError("drift window must lie in [1, horizon]")


def parameter_schedule(horizon: int, variant: str = "general") -> AlgorithmParams:
    """The rate-optimal schedule: V = sqrt(T), alpha = T, theta = 1/T."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    if horizon < 2:
        raise ConfigError("schedule needs a horizon of at least 2")
    return AlgorithmParams(
        objective_weight=float(np.sqrt(horizon)),
        prox_weight=float(horizon),
        mixing_weight=1.0 / horizon if variant == "simplex" else 0.0,
        horizon=horizon,
        drift_window=int(round(np.sqrt(horizon))),
    )


@dataclass(frozen=True)
class DualState:
    ineq: Array  # Q, elementwise nonnegative: (L,), or (S, L) with lanes
    eq: Array  # H, signed: (M,), or (S, M)
    norms: Tuple[Array, Array] = field(init=False, repr=False, compare=False)  # ‖Q‖, ‖H‖

    def __post_init__(self):
        # Computed once: a step reports them, and the next step reads them
        # back for its drift.
        object.__setattr__(self, "norms", (_norm(self.ineq), _norm(self.eq)))


def _norm(v: Array) -> Array:
    """sqrt(v @ v) of each lane: the value np.linalg.norm computes, with
    less call overhead. A scalar without lanes."""
    return np.sqrt(np.vecdot(v, v))


def _half_change(q_old: float, h_old: float, q: float, h: float) -> float:
    """The drift from the norms before and after a step, squared by libm
    pow as a Python float's `**` squares: numpy's square of an array is
    x * x, which differs from pow in the last bit."""
    return 0.5 * (math.pow(q, 2) - math.pow(q_old, 2)) + 0.5 * (
        math.pow(h, 2) - math.pow(h_old, 2)
    )


@dataclass(frozen=True)
class SolverState:
    """The engine between slots; its variant fixes its geometry. `seed` is
    the run's seed, or the tuple of its lanes' seeds, which errors name; it
    is None for a state made outside `iterate_run`."""

    slot: int
    decision: Array  # the decision currently in play: (d,), or (S, d)
    duals: DualState
    params: AlgorithmParams
    decision_set: DecisionSet
    targets: Array  # (M,)
    variant: str
    seed: Union[int, Tuple[int, ...], None] = None

    @property
    def geometry(self) -> BregmanGeometry:
        return VARIANT_GEOMETRY[self.variant]

    def advanced(self, decision: Array, duals: DualState) -> "SolverState":
        """The next slot's state (cheaper than dataclasses.replace)."""
        return SolverState(
            self.slot + 1, decision, duals, self.params, self.decision_set, self.targets,
            self.variant, self.seed,
        )


@dataclass(frozen=True)
class StepOutcome:
    """What the record needs about one slot: the drift of the multipliers
    and their post-update norms, each a float, or an (S,) array with lanes."""

    drift: float
    ineq_dual_norm: float
    eq_dual_norm: float


def initial_state(
    problem: ProblemInstance,
    params: AlgorithmParams,
    variant: str = "general",
    seed: Union[int, Sequence[int], None] = None,
) -> SolverState:
    """Slot 0: the decision set's initial point with zero multipliers.

    The variant fixes the geometry: negative entropy for `simplex`,
    Euclidean for `general`. A tuple or list of seeds gives one lane per
    seed."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    decision_set = problem.decision_set
    if variant == "simplex" and not isinstance(decision_set, Simplex):
        raise ConfigError("the simplex variant needs a simplex decision set")
    lanes = ()
    if isinstance(seed, (tuple, list)):
        if not seed:
            raise ProblemError("a lane walk needs at least one seed")
        seed = tuple(seed)
        lanes = (len(seed),)
    return SolverState(
        slot=0,
        decision=np.tile(decision_set.initial_point(), (*lanes, 1)),
        duals=DualState(np.zeros((*lanes, problem.n_ineq)), np.zeros((*lanes, problem.n_eq))),
        params=params,
        decision_set=decision_set,
        targets=np.asarray(problem.targets, dtype=float),
        variant=variant,
        seed=seed,
    )


def assemble_dual_weighted_gradient(state: SolverState, obs: ObservationBatch) -> Array:
    """Linear coefficients of the proximal subproblem:
    V grad f + sum_i Q_i grad g_i + sum_j H_j h_j."""
    coeffs = state.params.objective_weight * obs.objective_grad
    duals = state.duals
    if duals.ineq.shape[-1]:
        coeffs = coeffs + np.vecmat(duals.ineq, obs.ineq_grads)
    if duals.eq.shape[-1]:
        coeffs = coeffs + np.vecmat(duals.eq, obs.eq_matrix)
    return coeffs


def _prox(state: SolverState, base: Array, coeffs: Array) -> Array:
    """The variant's closed-form prox step from `base`, lane by lane.

    Unchecked: `step` has validated the observation, and the base is the
    engine's own decision, so `mirror_step`'s argument checks are left to
    library callers."""
    decision_set, prox_weight = state.decision_set, state.params.prox_weight
    if state.variant == "simplex":
        return exponentiated_rows(base, coeffs / prox_weight)
    if isinstance(decision_set, Simplex):
        return decision_set.project_rows(base - coeffs / prox_weight)
    if isinstance(decision_set, Box):
        return decision_set.project(base - coeffs / prox_weight)
    raise GeometryError(f"no closed-form prox for a {type(decision_set).__name__} decision set")


def _check_finite(state: SolverState, obs: ObservationBatch) -> None:
    """Refuse an observation with a NaN or infinite entry, naming 'seed s,
    slot t' for the first lane with one (all the lanes' seeds if their sum
    alone overflows), or 'slot t' when the state names no seed. The sum is
    finite exactly when every entry is, short of an overflow the multiplier
    arithmetic could not absorb either, at one reduction per array."""
    total = (
        np.add.reduce(obs.objective_value, None)
        + np.add.reduce(obs.objective_grad, None)
        + np.add.reduce(obs.ineq_values, None)
        + np.add.reduce(obs.ineq_grads, None)
        + np.add.reduce(obs.eq_matrix, None)
    )
    if math.isfinite(total):
        return
    seed = state.seed
    if isinstance(seed, tuple):
        fields = (obs.objective_value, obs.objective_grad, obs.ineq_values, obs.ineq_grads,
                  obs.eq_matrix)
        lanes = (s for k, s in enumerate(seed) if not all(np.isfinite(f[k]).all() for f in fields))
        seed = next(lanes, seed)
    where = f"slot {obs.slot}" if seed is None else f"seed {seed}, slot {obs.slot}"
    raise ProblemError(f"{where}: observation is not finite")


def step(
    state: SolverState, obs: Optional[ObservationBatch]
) -> Tuple[SolverState, StepOutcome]:
    """Advance one slot, on every lane at once. obs carries the previous
    slot's functions evaluated at the current decision; None means there is
    no previous slot."""
    params = state.params
    if obs is None:
        q_norm, h_norm = state.duals.norms
        drift = np.zeros(np.shape(q_norm))[()]
        return state.advanced(state.decision, state.duals), StepOutcome(drift, q_norm, h_norm)

    duals, dim = state.duals, state.decision.shape[-1]
    if obs.objective_grad.shape != state.decision.shape:
        raise ProblemError("objective gradient dimension mismatch")
    if (
        obs.ineq_values.shape != duals.ineq.shape
        or obs.ineq_grads.shape != (*duals.ineq.shape, dim)
    ):
        raise ProblemError("inequality observation shape mismatch")
    if obs.eq_matrix.shape != (*duals.eq.shape, dim):
        raise ProblemError("equality observation shape mismatch")
    _check_finite(state, obs)  # the prox step below trusts it

    mu_prev = state.decision
    base = prox_base(state.variant, mu_prev, params.mixing_weight)
    mu_new = _prox(state, base, assemble_dual_weighted_gradient(state, obs))

    # The grouping is the record's: Q + (g + grad g . move) and H + (h mu' - b).
    if duals.ineq.shape[-1]:
        move = mu_new - mu_prev
        surrogate = obs.ineq_values + np.matvec(obs.ineq_grads, move)
        q_new = np.maximum(duals.ineq + surrogate, 0.0)
    else:
        q_new = duals.ineq
    if duals.eq.shape[-1]:
        h_new = duals.eq + (np.matvec(obs.eq_matrix, mu_new) - state.targets)
    else:
        h_new = duals.eq

    new_duals = DualState(q_new, h_new)
    q_norm, h_norm = new_duals.norms
    norms = (*duals.norms, q_norm, h_norm)
    drift = np.array(list(map(_half_change, *norms))) if q_norm.ndim else _half_change(*norms)
    return state.advanced(mu_new, new_duals), StepOutcome(drift, q_norm, h_norm)


def iterate_run(
    problem: ProblemInstance,
    horizon: int,
    params: AlgorithmParams,
    seed: Union[int, Sequence[int]],
    variant: str = "general",
    on_block: Optional[Callable[[SlotFunctions], None]] = None,
) -> Iterator[Tuple[SolverState, StepOutcome, SlotFunctions, ObservationBatch]]:
    """Drive the engine against sampled slots, yielding per-slot results.

    Yields (state after the slot, outcome, the slot's sampled functions, the
    observation of those functions at the played decision). A slot's
    functions are fixed by (seed, t), so drawing a block ahead of the
    decisions changes nothing the engine sees: the walk draws
    `_block_length` slots at a time with `problem.sample_block`, before it
    steps into the block's first slot, so a bad seed fails before any step.
    `on_block`, if given, receives each drawn block, laid out (slot, lane,
    ...), before its slots are walked. A non-finite observation is refused
    as `step` refuses one, the last slot's too. The variant fixes the
    geometry, as in `initial_state`.

    A tuple or list of seeds walks one lane per seed in lockstep: each slot
    steps and observes all lanes at once, so the yielded state, outcome and
    observation carry a leading lane axis and the functions are the slot's
    view of the block, every lane's. Each lane's numbers equal those of its
    seed's own walk bit for bit."""
    if problem.horizon_cap is not None and horizon > problem.horizon_cap:
        raise ProblemError(
            f"horizon {horizon} exceeds the problem's trace length "
            f"{problem.horizon_cap}"
        )
    state = initial_state(problem, params, variant, seed)
    lanes = isinstance(state.seed, tuple)
    seeds = state.seed if lanes else (seed,)
    length = _block_length(len(seeds))
    obs = None
    for first in range(0, horizon, length):
        block = problem.sample_block(seeds, first, min(first + length, horizon))
        if on_block is not None:
            on_block(block)
        if not lanes:
            block = block.lane(0)
        for k in range(block.objective.shape[0]):
            state, outcome = step(state, obs)
            fns = block.at(k)
            obs = fns.observe(state.decision)
            if fns.slot + 1 == horizon:  # no step consumes, and so checks, the last observation
                _check_finite(state, obs)
            yield state, outcome, fns, obs


def _block_length(lanes: int) -> int:
    """Slots a walk of `lanes` seeds draws at a time: the largest power of
    two whose lane-slots fit in BLOCK_LANE_SLOTS, and at least 1. Blocks
    start on multiples of it, so none crosses a SEED_BLOCK edge."""
    return 1 << (max(BLOCK_LANE_SLOTS // lanes, 1).bit_length() - 1)


def run(
    problem: ProblemInstance,
    horizon: int,
    params: Optional[AlgorithmParams] = None,
    seed: int = 0,
    variant: str = "general",
    config_hash: str = "",
) -> RunRecord:
    """Run the full loop and collect the trajectory record."""
    if params is None:
        params = parameter_schedule(max(horizon, 2), variant)
    collector = RecordCollector(problem, horizon)
    slots = iterate_run(problem, horizon, params, seed, variant)
    for state, outcome, _, obs in slots:
        collector.add(state, outcome, obs)
    return collector.record(params, seed, variant, config_hash)
