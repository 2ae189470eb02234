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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Tuple

import numpy as np

from .errors import ConfigError, ProblemError
from .geometry import (
    VARIANT_GEOMETRY, BregmanGeometry, DecisionSet, Simplex, mirror_step, prox_base
)
from .problems import ObservationBatch, ProblemInstance, SlotFunctions, slot_rng
from .telemetry import RecordCollector, RunRecord

Array = np.ndarray

VARIANTS = tuple(VARIANT_GEOMETRY)


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
    ineq: Array  # Q, elementwise nonnegative
    eq: Array  # H, signed

    def norms(self) -> Tuple[float, float]:
        # np.linalg.norm computes the same sqrt(v @ v), with more call overhead.
        return math.sqrt(self.ineq @ self.ineq), math.sqrt(self.eq @ self.eq)


@dataclass(frozen=True)
class SolverState:
    """The engine between slots; its variant fixes its geometry."""

    slot: int
    decision: Array  # the decision currently in play
    duals: DualState
    params: AlgorithmParams
    decision_set: DecisionSet
    targets: Array  # (M,)
    variant: str

    @property
    def geometry(self) -> BregmanGeometry:
        return VARIANT_GEOMETRY[self.variant]


@dataclass(frozen=True)
class StepOutcome:
    """What the record needs about one slot: the drift of the multipliers
    and their post-update norms."""

    drift: float
    ineq_dual_norm: float
    eq_dual_norm: float


def initial_state(
    problem: ProblemInstance, params: AlgorithmParams, variant: str = "general"
) -> SolverState:
    """Slot 0: the decision set's initial point with zero multipliers.

    The variant fixes the geometry: negative entropy for `simplex`,
    Euclidean for `general`."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    decision_set = problem.decision_set
    if variant == "simplex" and not isinstance(decision_set, Simplex):
        raise ConfigError("the simplex variant needs a simplex decision set")
    return SolverState(
        slot=0,
        decision=decision_set.initial_point(),
        duals=DualState(np.zeros(problem.n_ineq), np.zeros(problem.n_eq)),
        params=params,
        decision_set=decision_set,
        targets=np.asarray(problem.targets, dtype=float),
        variant=variant,
    )


def assemble_dual_weighted_gradient(state: SolverState, obs: ObservationBatch) -> Array:
    """Linear coefficients of the proximal subproblem:
    V grad f + sum_i Q_i grad g_i + sum_j H_j h_j."""
    coeffs = state.params.objective_weight * obs.objective_grad
    if state.duals.ineq.size:
        coeffs = coeffs + state.duals.ineq @ obs.ineq_grads
    if state.duals.eq.size:
        coeffs = coeffs + state.duals.eq @ obs.eq_matrix
    return coeffs


def step(
    state: SolverState, obs: Optional[ObservationBatch]
) -> Tuple[SolverState, StepOutcome]:
    """Advance one slot. obs carries the previous slot's functions evaluated
    at the current decision; None means there is no previous slot."""
    params = state.params
    if obs is None:
        return replace(state, slot=state.slot + 1), StepOutcome(0.0, *state.duals.norms())

    n_ineq, n_eq = state.duals.ineq.shape[0], state.duals.eq.shape[0]
    dim = state.decision.shape[0]
    if obs.objective_grad.shape != (dim,):
        raise ProblemError("objective gradient dimension mismatch")
    if obs.ineq_values.shape != (n_ineq,) or obs.ineq_grads.shape != (n_ineq, dim):
        raise ProblemError("inequality observation shape mismatch")
    if obs.eq_matrix.shape != (n_eq, dim):
        raise ProblemError("equality observation shape mismatch")
    # The sum is finite exactly when every entry is, short of an overflow the
    # multiplier arithmetic could not absorb either; it costs one reduction
    # per array, cheaper than an elementwise test.
    total = (
        obs.objective_value
        + np.add.reduce(obs.objective_grad, None)
        + np.add.reduce(obs.ineq_values, None)
        + np.add.reduce(obs.ineq_grads, None)
        + np.add.reduce(obs.eq_matrix, None)
    )
    if not math.isfinite(total):
        raise ProblemError(f"slot {obs.slot}: observation is not finite")

    mu_prev = state.decision
    base = prox_base(state.variant, mu_prev, params.mixing_weight)
    coeffs = assemble_dual_weighted_gradient(state, obs)
    mu_new = mirror_step(
        state.geometry, state.decision_set, base, coeffs, params.prox_weight
    )

    move = mu_new - mu_prev
    surrogate = obs.ineq_values + obs.ineq_grads @ move if n_ineq else np.zeros(0)
    q_new = np.maximum(state.duals.ineq + surrogate, 0.0)
    eq_residual = obs.eq_matrix @ mu_new - state.targets if n_eq else np.zeros(0)
    h_new = state.duals.eq + eq_residual

    q_norm_old, h_norm_old = state.duals.norms()
    new_duals = DualState(q_new, h_new)
    q_norm, h_norm = new_duals.norms()
    drift = 0.5 * (q_norm**2 - q_norm_old**2) + 0.5 * (h_norm**2 - h_norm_old**2)

    new_state = replace(state, slot=state.slot + 1, decision=mu_new, duals=new_duals)
    return new_state, StepOutcome(drift, q_norm, h_norm)


def iterate_run(
    problem: ProblemInstance,
    horizon: int,
    params: AlgorithmParams,
    seed: int,
    variant: str = "general",
) -> Iterator[Tuple[SolverState, StepOutcome, SlotFunctions, ObservationBatch]]:
    """Drive the engine against sampled slots, yielding per-slot results.

    Yields (state after the slot, outcome, the slot's sampled functions, the
    observation of those functions at the played decision). The functions
    are sampled after the decision is made, matching the play order. The
    variant fixes the geometry, as in `initial_state`."""
    if problem.horizon_cap is not None and horizon > problem.horizon_cap:
        raise ProblemError(
            f"horizon {horizon} exceeds the problem's trace length "
            f"{problem.horizon_cap}"
        )
    state = initial_state(problem, params, variant)
    obs = None
    for t in range(horizon):
        state, outcome = step(state, obs)
        fns = problem.sample_slot(t, slot_rng(seed, t))
        obs = fns.observe(state.decision)
        yield state, outcome, fns, obs


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
