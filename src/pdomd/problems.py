"""Problem models and the two built-in scenarios.

A problem instance bundles a decision set with per-slot samplers for the
objective, the inequality constraints, and the equality constraint vectors.
Constraint samplers are i.i.d. across slots; the objective may drift with t.
Where exact means are known they are stored alongside, which is what makes
hindsight benchmarks and expected-regret metrics possible.

A slot's functions are arrays. The objective is a coefficient vector, since
every objective here is linear. The inequalities are one row family,
`LinearRows` or `ServiceRows` (weighted log-service deficits), whose
`values` and `grads` evaluate all rows at once. The equalities are the rows
of a matrix.

Two scenarios ship with the package: a seeded synthetic linear problem on the
simplex whose equality rows are linearly independent and whose interior
anchor point makes the windowed static programs well posed, and a data-center
power allocation scenario (50 servers in 5 clusters, electricity prices per
zone, Poisson arrivals, Pareto service noise, budget-pacing equalities).
Its layout and distribution parameters are module constants; only the Pareto
shape is set per instance, through `DatacenterConfig`.

Every slot of a run draws from its own stream, exactly numpy's
`default_rng(SeedSequence(entropy=seed, spawn_key=(t,)))`. So a slot's
functions are fixed by (seed, t): any slot can be replayed alone, which is
what the record audit relies on, and drawing a block of slots ahead of the
decisions changes nothing the engine sees. The SeedSequence hash is computed
for blocks of `SEED_BLOCK` slots at once, and the `SEED_CACHE_BLOCKS` most
recently used blocks (1 MiB), or one per lane of a wider walk, are kept.

Each scenario defines its distribution once, as a function from a slot's raw
draws to its `SlotFunctions`, over any leading axes. Its
`sample_block(seeds, first, end)` draws slots first..end-1 of every seed,
each from its own stream, and applies that function once to the whole
block, laid out (slot, lane, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random.bit_generator import ISeedSequence

from .errors import ProblemError
from .geometry import Box, DecisionSet, Simplex

Array = np.ndarray

REAC_WINDOW = 10  # arrivals in Reac's trailing average

# The data-center scenario's fixed layout and distribution parameters.
N_CLUSTERS = 5  # one price zone per cluster
CLUSTER_SIZE = 10  # servers per cluster
POWER_CAP = 30.0  # per-server power bound
ARRIVAL_MEAN = 1000.0  # Poisson jobs per slot
SERVICE_GAIN = 8.0  # the service curve gain * log(1 + rate * power)
SERVICE_RATE = 4.0
BUDGET_MEAN = 5.0  # Pareto budget per server and slot
PACING_RATIOS = (0.05, 0.10, 0.25, 0.60)  # the last is shared by the final two clusters
SERVER_CLUSTER = np.repeat(np.arange(N_CLUSTERS), CLUSTER_SIZE)  # cluster of each server
SERVER_CLUSTER.flags.writeable = False


# ---------------------------------------------------------------------------
# sampling primitives


SEED_BLOCK = 512  # slots hashed together; a power of two, so 2**32 is a block edge
SEED_CACHE_BLOCKS = 64  # 16 KiB of seed words per block

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_INTEGER = (int, np.integer)  # what a seed or slot may be; a bool is an int


def _check_index(name: str, value) -> None:
    if not (isinstance(value, _INTEGER) and value >= 0):
        raise ProblemError(f"{name} must be a nonnegative integer, got {value!r}")


def _block_bits(seeds: Sequence[int], first: int, end: int) -> list:
    """The PCG64 bit generators of slots first..end-1 of every seed, in
    (slot, lane) order. Slot t of a seed gets the state of
    `default_rng(SeedSequence(entropy=seed, spawn_key=(t,)))`: its
    SeedSequence words come from `_cached_seed_block`, and numpy seeds the
    PCG64 from them. Spawning off the slot index means any single slot's
    draws can be reproduced without replaying the slots before it.

    Raises ProblemError, naming the argument, unless every seed and the
    first slot are nonnegative integers (Python or numpy; a bool counts as
    0 or 1) and the end an integer above it."""
    for seed in seeds:
        _check_index("seed", seed)
    _check_index("slot", first)
    if not (isinstance(end, _INTEGER) and end > first):
        raise ProblemError(f"block end must be an integer above slot {first}, got {end!r}")
    first, end = int(first), int(end)
    words = np.empty((end - first, len(seeds), 4), dtype=np.uint64)
    for lane, seed in enumerate(seeds):
        t = first
        while t < end:  # one piece per seed block the range touches
            block, offset = divmod(t, SEED_BLOCK)
            stop = min(end, (block + 1) * SEED_BLOCK)
            piece = _cached_seed_block(int(seed), block, len(seeds))[offset:offset + stop - t]
            words[t - first:stop - first, lane] = piece
            t = stop
    return [np.random.PCG64(_SlotSeed(slot_words)) for slot_words in words.reshape(-1, 4)]


class _SlotSeed(ISeedSequence):
    """One slot's SeedSequence output, `generate_state(4, np.uint64)`,
    handed to PCG64, which asks for nothing else."""

    __slots__ = ("_words",)

    def __init__(self, words: Array):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:  # PCG64's request, word for word
            return self._words
        raise ProblemError("a slot seed holds only PCG64's four 64-bit words")


def _words32(n: int) -> list:
    """A nonnegative integer's 32-bit words, least significant first."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashmix(value, hash_const, mult=_MULT_A):
    """numpy's hashmix on a word or a uint32 array; the constant is
    returned advanced. Masking keeps Python ints to 32 bits; uint32 arrays
    wrap by themselves (and, unlike numpy scalars, without a warning)."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    """numpy's mix of a pool word with a hashed word, either side an array."""
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return result ^ result >> 16


_seed_blocks: dict = {}  # (seed, block) -> words, least recently used first


def _cached_seed_block(seed: int, block: int, lanes: int) -> Array:
    """`_seed_block(seed, block)`, kept among the SEED_CACHE_BLOCKS most
    recently used blocks, or the `lanes` most recent if more: a walk asks
    for each lane's block in turn, so a smaller cache would miss them all."""
    words = _seed_blocks.pop((seed, block), None)
    if words is None:
        words = _seed_block(seed, block)
    _seed_blocks[seed, block] = words
    while len(_seed_blocks) > max(SEED_CACHE_BLOCKS, lanes):
        del _seed_blocks[next(iter(_seed_blocks))]
    return words


def _seed_block(seed: int, block: int) -> Array:
    """`SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(4, np.uint64)`
    for the SEED_BLOCK slots t of a block, as a read-only (SEED_BLOCK, 4) array.

    This is numpy's SeedSequence algorithm, run once for the whole block:
    the seed's words padded to the pool size, then the slot's words, hashed
    into a pool of four words, which then generates eight 32-bit words. The
    hash constants advance the same way whatever the data, so every slot
    runs the same operations; the seed-only part runs on Python ints and
    the rest on uint32 arrays with one entry per slot. Only the lowest word
    of the slot varies within a block, since blocks are aligned to
    SEED_BLOCK, which divides 2**32: a slot of 2**32 or more has the same
    higher words as its block's first slot."""
    first = block * SEED_BLOCK
    low = first & _MASK32
    seed_words = _words32(seed)
    entropy = (
        seed_words
        + [0] * (_POOL_SIZE - len(seed_words))
        + [np.arange(low, low + SEED_BLOCK, dtype=np.uint32)]
        + _words32(first)[1:]
    )
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    state = np.empty((8, SEED_BLOCK), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        state[i], hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
    # numpy pairs the words little-endian, whatever the host's byte order.
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


def service_curve(power, gain=SERVICE_GAIN, rate=SERVICE_RATE):
    """Mean jobs served by one server at the given power draw."""
    power = np.asarray(power, dtype=float)
    if not (np.isfinite(power).all() and (power >= 0.0).all()):
        raise ProblemError("power must be finite and nonnegative")
    served = gain * np.log1p(rate * power)
    return float(served) if served.ndim == 0 else served


def service_curve_inverse(target, gain=SERVICE_GAIN, rate=SERVICE_RATE, power_cap=POWER_CAP):
    """Power needed to serve `target` jobs on average, clipped to the range."""
    target = np.asarray(target, dtype=float)
    if not (np.isfinite(target).all() and (target >= 0.0).all()):
        raise ProblemError("target must be finite and nonnegative")
    with np.errstate(over="ignore"):  # an overflow is past the cap, and clips to it
        power = np.clip(np.expm1(target / gain) / rate, 0.0, power_cap)
    return float(power) if power.ndim == 0 else power


# ---------------------------------------------------------------------------
# per-slot functions


@dataclass(frozen=True)
class LinearRows:
    """Rows g_i(x) = <coeffs_i, x> - offsets_i."""

    coeffs: Array  # (L, d), or (..., L, d) for a stack of slots
    offsets: Array  # (L,), or (..., L)

    def __len__(self) -> int:
        return self.offsets.shape[-1]

    def values(self, point: Array) -> Array:
        return np.matvec(self.coeffs, point) - self.offsets

    def grads(self, point: Array) -> Array:
        return self.coeffs

    def select(self, index) -> "LinearRows":
        """The rows at `index` of the leading axes of a stack."""
        return LinearRows(self.coeffs[index], self.offsets[index])

    def minimizer(self, mult: Array, slope: Array, decision_set: DecisionSet) -> Array:
        """A minimizer over the set of <slope, x> + mult . g(x): its support
        point for slope + mult A. Row by row on stacks, as ServiceRows'."""
        return decision_set.support_minimizer(slope + np.vecmat(mult, self.coeffs))


@dataclass(frozen=True)
class ServiceRows:
    """Rows g_i(x) = levels_i - sum_k weights_ik * gain * log(1 + rate * x_k).

    Convex and decreasing in each coordinate; a level is an arrival count
    and the weighted log terms are the (noisy) served jobs.
    """

    levels: Array  # (L,), or (..., L) for a stack of slots
    weights: Array  # (L, d), or (..., L, d)
    gain: float = SERVICE_GAIN
    rate: float = SERVICE_RATE

    def __len__(self) -> int:
        return self.levels.shape[-1]

    def values(self, point: Array) -> Array:
        return self.levels - np.matvec(self.weights, self.gain * np.log1p(self.rate * point))

    def grads(self, point: Array) -> Array:
        return -self.weights * (self.gain * self.rate) / (1.0 + self.rate * point[..., None, :])

    def select(self, index) -> "ServiceRows":
        """The rows at `index` of the leading axes of a stack."""
        return ServiceRows(self.levels[index], self.weights[index], self.gain, self.rate)

    def minimizer(self, mult: Array, slope: Array, box: Box) -> Array:
        """The minimizer over a box of <slope, x> + mult . g(x), mult >= 0.
        It is separable: with s = mult W, coordinate k minimizes
        slope_k x - s_k gain log(1 + rate x) on [lower_k, upper_k]: the
        stationary point (s_k gain rate / slope_k - 1) / rate clipped to the
        box when slope_k > 0, and upper_k otherwise (the term is then
        nonincreasing, as W >= 0 and mult >= 0)."""
        scale = np.vecmat(mult, self.weights)
        # a ratio or a stationary point past the float range is +inf, and
        # its coordinate clips to the upper bound, as the limit does
        with np.errstate(over="ignore"):
            ratio = np.divide(scale, slope, out=np.full(slope.shape, np.inf), where=slope > 0.0)
            stationary = (ratio * (self.gain * self.rate) - 1.0) / self.rate
        return np.clip(stationary, box.lower, box.upper)


@dataclass(frozen=True)
class SlotFunctions:
    """The realized functions of one slot, evaluable anywhere on the set.

    Every objective is linear, so it is its coefficient vector. A block of
    slots (`ProblemInstance.sample_block`) lays its slots and lanes along
    leading axes, (slot, lane, ...), under its first slot's index; every
    method then evaluates each of them at its own point of a (..., d)
    stack, or all of them at one (d,) point, with one product per slot of
    the same form a single slot takes, so the values equal a slot-by-slot
    loop bit for bit. Row families evaluate points of shape (..., d) the
    same way. A block's arrays are C-contiguous, so each slot's view is
    laid out as that slot's own arrays would be: numpy picks BLAS or a
    plain loop by stride, and the two round differently."""

    slot: int
    objective: Array  # (d,), or (..., d)
    inequalities: LinearRows | ServiceRows
    eq_matrix: Array  # (M, d) rows h_j, or (..., M, d)

    def at(self, k: int) -> "SlotFunctions":
        """Slot `slot + k` of a block, as a view (every lane of it, if any)."""
        return self._select(k, self.slot + k)

    def lane(self, j: int) -> "SlotFunctions":
        """Lane j of a block, laid out (slot, ...): a view."""
        return self._select((slice(None), j), self.slot)

    def _select(self, index, slot: int) -> "SlotFunctions":
        return SlotFunctions(
            slot, self.objective[index], self.inequalities.select(index), self.eq_matrix[index]
        )

    def evaluate(self, point: Array) -> Tuple[Array, Array, Array]:
        """(objective values, inequality values, equality rows) at `point`."""
        return (
            np.vecdot(self.objective, point),
            self.inequalities.values(point),
            np.matvec(self.eq_matrix, point),
        )

    def observe(self, point: Array) -> "ObservationBatch":
        """Package values and subgradients at `point` for the engine."""
        point = np.asarray(point, dtype=float)
        return ObservationBatch(
            slot=self.slot,
            objective_value=np.vecdot(self.objective, point),
            objective_grad=self.objective,
            ineq_values=self.inequalities.values(point),
            ineq_grads=self.inequalities.grads(point),
            eq_matrix=self.eq_matrix,
        )


@dataclass(frozen=True)
class ObservationBatch:
    """What the engine sees at the start of a slot.

    Plain values and subgradients of the previous slot's functions, all
    evaluated at the decision that was played; a lane walk's batch carries
    a leading lane axis on every field but the slot.
    """

    slot: int
    objective_value: float  # or (S,)
    objective_grad: Array  # (d,), or (S, d)
    ineq_values: Array  # (L,), or (S, L)
    ineq_grads: Array  # (L, d), or (S, L, d)
    eq_matrix: Array  # (M, d), or (S, M, d)


# ---------------------------------------------------------------------------
# problem containers


@dataclass(frozen=True)
class MeanModel:
    """Exact means of the random slot functions.

    Constraint means are time-invariant (the streams are i.i.d.); the mean
    objective may vary with the slot, hence the callable."""

    objective_at: Callable[[int], Array]  # slot -> (d,) coefficients
    inequalities: LinearRows | ServiceRows
    eq_matrix: Array  # (M, d)

    def objective_table(self, start: int, length: int) -> Array:
        """(length, d) mean objectives of slots start ... start+length-1."""
        if length < 1:
            raise ProblemError("window length must be at least 1")
        return np.array([self.objective_at(s) for s in range(start, start + length)])

    def window_objective(self, start: int, length: int) -> Array:
        return np.mean(self.objective_table(start, length), axis=0)


@dataclass(frozen=True)
class ProblemInstance:
    """A decision set, its slot sampler and the exact means where known.

    `sample_block(seeds, first, end)` returns slots first..end-1 of every
    seed as one `SlotFunctions` laid out (slot, lane, ...), each lane-slot
    drawn from its own stream, and raises ProblemError for a bad seed or
    slot before it draws."""

    name: str
    decision_set: DecisionSet
    n_ineq: int
    n_eq: int
    targets: Array  # (M,)
    sample_block: Callable[[Sequence[int], int, int], SlotFunctions]
    means: Optional[MeanModel] = None
    horizon_cap: Optional[int] = None

    @property
    def dimension(self) -> int:
        return self.decision_set.dim


# ---------------------------------------------------------------------------
# synthetic linear scenario


def make_linear_problem(
    decision_set: DecisionSet,
    objective_mean: Array,
    *,
    ineq_rows: Optional[Array] = None,
    ineq_margins: Optional[Array] = None,
    eq_rows: Optional[Array] = None,
    targets: Optional[Array] = None,
    objective_noise: float = 0.0,
    ineq_noise: float = 0.0,
    eq_noise: float = 0.0,
    drift_amplitude: float = 0.0,
    drift_period: int = 64,
    name: str = "linear",
) -> ProblemInstance:
    """Linear problem with uniform coefficient noise and optional drift.

    Slot t draws coefficient perturbations uniformly from [-s, s] per entry.
    The mean objective is objective_mean plus a deterministic sinusoidal
    drift (per-coordinate phases), so exact means stay available.
    Inequalities are <a_i, mu> - margin_i <= 0; equalities <h_j, mu> = b_j.
    """
    d = decision_set.dim
    c_base = np.asarray(objective_mean, dtype=float)
    if c_base.shape != (d,):
        raise ProblemError("objective_mean dimension mismatch")

    a_rows = np.zeros((0, d)) if ineq_rows is None else np.asarray(ineq_rows, dtype=float)
    margins = (
        np.zeros(a_rows.shape[0])
        if ineq_margins is None
        else np.asarray(ineq_margins, dtype=float)
    )
    h_rows = np.zeros((0, d)) if eq_rows is None else np.asarray(eq_rows, dtype=float)
    b = np.zeros(h_rows.shape[0]) if targets is None else np.asarray(targets, dtype=float)
    n_ineq, n_eq = a_rows.shape[0], h_rows.shape[0]
    if a_rows.shape != (n_ineq, d) or margins.shape != (n_ineq,):
        raise ProblemError("inequality row/margin shape mismatch")
    if h_rows.shape != (n_eq, d) or b.shape != (n_eq,):
        raise ProblemError("equality row/target shape mismatch")
    for arg, values in (
        ("objective_mean", c_base),
        ("ineq_rows", a_rows),
        ("ineq_margins", margins),
        ("eq_rows", h_rows),
        ("targets", b),
        ("drift_amplitude", drift_amplitude),
    ):
        if not np.all(np.isfinite(values)):
            raise ProblemError(f"{arg} must be finite")
    for arg, level in (
        ("objective_noise", objective_noise),
        ("ineq_noise", ineq_noise),
        ("eq_noise", eq_noise),
    ):
        if not (math.isfinite(level) and level >= 0.0):
            raise ProblemError(f"{arg} must be finite and nonnegative, got {level!r}")
    if not drift_period >= 1:
        raise ProblemError(f"drift_period must be at least 1, got {drift_period!r}")

    c_base = np.array(c_base)  # a read-only copy: the mean objective when nothing drifts
    c_base.flags.writeable = False
    phases = 2.0 * np.pi * np.arange(d) / max(d, 1)

    def mean_objective(t) -> Array:
        """The mean objective of slot t, or the (..., d) mean objectives of
        an integer array t of shape (..., 1). One expression serves both, so
        a block's sines equal a slot's."""
        if drift_amplitude == 0.0:
            return c_base
        return c_base + drift_amplitude * np.sin(2.0 * np.pi * t / drift_period + phases)

    # The uniforms of each noisy component, in the order the slot's stream
    # gives them: numpy's uniform(-s, s, shape) is -s + 2s * u, u its next
    # double, so `functions` makes the numbers that call makes.
    spans, n_draws = {}, 0
    for part, size, level in (
        ("objective", d, objective_noise),
        ("ineq", n_ineq * d, ineq_noise),
        ("eq", n_eq * d, eq_noise),
    ):
        if size and level > 0.0:
            spans[part] = (slice(n_draws, n_draws + size), level)
            n_draws += size

    def functions(slot: int, t, u: Array) -> SlotFunctions:
        """The functions of slot t from its uniforms u (n_draws,); or of a
        block's slots t (B, 1, 1), the first being `slot`, from u (B, S, n_draws)."""
        lead = u.shape[:-1]

        def part(name: str, mean: Array, shape: tuple) -> Array:
            out = np.empty((*lead, *shape))  # C-contiguous, so each slot's view is too
            if name in spans:
                span, level = spans[name]
                low = -level
                np.add(mean, (low + (level - low) * u[..., span]).reshape(out.shape), out=out)
            else:
                out[...] = mean
            return out

        return SlotFunctions(
            slot=slot,
            objective=part("objective", mean_objective(t), (d,)),
            inequalities=LinearRows(
                part("ineq", a_rows, (n_ineq, d)), part("margins", margins, (n_ineq,))
            ),
            eq_matrix=part("eq", h_rows, (n_eq, d)),
        )

    def sample_block(seeds: Sequence[int], first: int, end: int) -> SlotFunctions:
        raw = np.array(
            [lane_slot.random_raw(n_draws) for lane_slot in _block_bits(seeds, first, end)],
            dtype=np.uint64,
        ).reshape(end - first, len(seeds), n_draws)
        uniforms = (raw >> 11) * 2.0**-53  # PCG64's next double, as `Generator.random` makes it
        return functions(first, np.arange(first, end).reshape(-1, 1, 1), uniforms)

    means = MeanModel(
        objective_at=mean_objective,
        inequalities=LinearRows(a_rows.copy(), margins.copy()),
        eq_matrix=h_rows.copy(),
    )
    return ProblemInstance(
        name=name,
        decision_set=decision_set,
        n_ineq=n_ineq,
        n_eq=n_eq,
        targets=b,
        sample_block=sample_block,
        means=means,
    )


def build_synthetic_problem(d: int, n_ineq: int, n_eq: int, seed: int) -> ProblemInstance:
    """Seeded linear test bed on the simplex with well-posed multipliers.

    The equality rows are drawn until linearly independent and the targets
    come from an interior anchor point, so every windowed static program is
    strictly feasible on the equality slice and the dual optima stay bounded.
    Three choices keep the instance from degenerating into something the
    run solves for free. The anchor sits well away from the centroid, so a
    run started at uniform pays a visible transient before it can track the
    optimum. The objective keeps only a small component along the equality
    row span; most of its pull is parallel to the feasible slice, so drifting
    off the slice buys little objective and the regret is not swamped by
    that trade. The first inequality leans against the objective with a
    modest margin, which makes it active at the static optimum with a
    positive multiplier; the remaining rows stay slack at the anchor.
    """
    if n_eq >= d:
        raise ProblemError("need fewer equality constraints than dimensions")
    rng = np.random.default_rng(seed)
    decision_set = Simplex(d)

    anchor = np.full(d, 1.0 / d)
    tilt = rng.uniform(-1.2, 1.2, size=d) / d
    anchor = anchor + tilt - np.mean(tilt)
    anchor = np.clip(anchor, 0.2 / d, None)
    anchor = anchor / anchor.sum()

    c_base = rng.uniform(0.0, 1.0, size=d)

    eq_rows = None
    targets = None
    if n_eq:
        for _ in range(16):
            rows = rng.standard_normal((n_eq, d))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            if np.linalg.matrix_rank(rows) == n_eq:
                eq_rows = rows
                break
        else:
            raise ProblemError("failed to draw independent equality rows")
        targets = eq_rows @ anchor
        gram_inv = np.linalg.pinv(eq_rows @ eq_rows.T)
        c_base = c_base - 0.9 * eq_rows.T @ (gram_inv @ (eq_rows @ c_base))

    ineq_rows = None
    margins = None
    if n_ineq:
        ineq_rows = rng.standard_normal((n_ineq, d)) / np.sqrt(d)
        slacks = np.full(n_ineq, 0.25)
        lean = 0.65 * (-c_base / np.linalg.norm(c_base)) + 0.35 * (
            ineq_rows[0] / np.linalg.norm(ineq_rows[0])
        )
        ineq_rows[0] = lean / np.linalg.norm(lean)
        slacks[0] = 0.10
        margins = ineq_rows @ anchor + slacks

    return make_linear_problem(
        decision_set,
        c_base,
        ineq_rows=ineq_rows,
        ineq_margins=margins,
        eq_rows=eq_rows,
        targets=targets,
        objective_noise=0.2,
        ineq_noise=0.2,
        eq_noise=0.1,
        name=f"synthetic-d{d}-L{n_ineq}-M{n_eq}-s{seed}",
    )


# ---------------------------------------------------------------------------
# data-center scenario


@dataclass(frozen=True)
class PriceTrace:
    """Electricity prices per zone: names plus a (T, zones) array."""

    zones: tuple
    prices: Array

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        if prices.ndim != 2 or prices.shape[1] != len(self.zones):
            raise ProblemError("price array must be (slots, zones)")
        if not np.all(np.isfinite(prices)):
            raise ProblemError("prices must be finite")
        object.__setattr__(self, "prices", prices)

    def __len__(self) -> int:
        return self.prices.shape[0]


@dataclass(frozen=True)
class DatacenterConfig:
    """The one settable parameter of the power scenario: the Pareto shape of
    its service noise and budgets. The rest are the module constants."""

    pareto_shape: float = 2.5

    def __post_init__(self):
        if not (math.isfinite(self.pareto_shape) and self.pareto_shape > 1.0):
            raise ProblemError(
                f"pareto_shape must be finite and exceed 1, got {self.pareto_shape!r}"
            )


def _pacing_structure() -> Array:
    """Rows chi_j - beta_j * 1; the last row merges the final two clusters."""
    group = np.minimum(SERVER_CLUSTER, len(PACING_RATIOS) - 1)
    members = group == np.arange(len(PACING_RATIOS))[:, None]
    return members - np.array(PACING_RATIOS)[:, None]


def build_datacenter_problem(
    config: DatacenterConfig, prices: PriceTrace
) -> ProblemInstance:
    """Power allocation for 50 servers under one service-level inequality
    and four budget-pacing equalities.

    Objective: slot electricity cost sum_k c_k^t mu_k (prices from the trace,
    one zone per cluster). Inequality: arrivals minus noisy served jobs.
    Equalities: each cluster's expected budget spend pinned to its pacing
    share of the total, in homogeneous form with target zero.
    """
    if len(prices.zones) != N_CLUSTERS:
        raise ProblemError(f"trace has {len(prices.zones)} zones, need {N_CLUSTERS}")
    if len(prices) == 0:
        raise ProblemError("price trace is empty")
    d = SERVER_CLUSTER.size
    zone_prices = prices.prices

    structure = _pacing_structure()
    shape = config.pareto_shape

    objectives = np.take(zone_prices, SERVER_CLUSTER, axis=1)  # one zone per cluster
    objectives.flags.writeable = False  # every slot and lane shares its row

    def objective_at(t: int) -> Array:
        if t >= objectives.shape[0]:
            raise ProblemError(f"slot {t} beyond trace length {objectives.shape[0]}")
        return objectives[t]

    noise_scale = 1.0 * (shape - 1.0) / shape  # Lomax + 1 times this has mean 1
    budget_scale = BUDGET_MEAN * (shape - 1.0) / shape

    def functions(slot: int, rows: Array, arrivals, lomax: Array) -> SlotFunctions:
        """The functions of a slot with objective `rows` (d,), from its
        Poisson arrivals and its Lomax draws (2d,), service noise then
        budgets; or of a block, first slot `slot`, from rows (B, 1, d),
        arrivals (B, S) and draws (B, S, 2d). Every array is C-contiguous."""
        lead = np.shape(arrivals)
        objective = np.empty((*lead, d))
        objective[...] = rows
        levels = np.empty((*lead, 1))
        levels[..., 0] = arrivals
        weights = np.empty((*lead, 1, d))
        np.multiply(lomax[..., None, :d] + 1.0, noise_scale, out=weights)
        budgets = (lomax[..., d:] + 1.0) * budget_scale
        eq_matrix = np.empty((*lead, *structure.shape))
        np.multiply(budgets[..., None, :], structure, out=eq_matrix)
        return SlotFunctions(slot, objective, ServiceRows(levels, weights), eq_matrix)

    def sample_block(seeds: Sequence[int], first: int, end: int) -> SlotFunctions:
        bits = _block_bits(seeds, first, end)
        objective_at(end - 1)  # refuses a block past the trace
        arrivals = np.empty(len(bits))
        lomax = np.empty((len(bits), 2 * d))
        for k, lane_slot in enumerate(bits):  # one generator per lane-slot
            rng = np.random.Generator(lane_slot)
            arrivals[k] = rng.poisson(ARRIVAL_MEAN)
            lomax[k] = rng.pareto(shape, 2 * d)
        lanes = (end - first, len(seeds))
        return functions(
            first, objectives[first:end, None, :], arrivals.reshape(lanes),
            lomax.reshape(*lanes, 2 * d),
        )

    means = MeanModel(
        objective_at=objective_at,
        inequalities=ServiceRows(np.array([ARRIVAL_MEAN]), np.ones((1, d))),
        eq_matrix=BUDGET_MEAN * structure,
    )
    return ProblemInstance(
        name="datacenter",
        decision_set=Box(np.zeros(d), np.full(d, POWER_CAP)),
        n_ineq=1,
        n_eq=4,
        targets=np.zeros(4),
        sample_block=sample_block,
        means=means,
        horizon_cap=len(prices),
    )


def reac_schedule(arrivals: Sequence[float], first: int = 0) -> Array:
    """Reactive baseline over a horizon: row t of the (T, d) result is
    Reac's decision for slot t, given the slot arrivals `arrivals` (T,).
    Given `first`, only rows first..T-1 are made, and returned.

    Row t forecasts the arrivals by the mean of the REAC_WINDOW before it,
    arrivals[max(0, t - REAC_WINDOW):t]; row 0 has none and forecasts
    arrivals[0]. The forecast is split by pacing ratio (the last ratio
    shared evenly by the final two clusters) and the service curve is
    inverted per server. Every arrival must be finite."""
    arrivals = np.asarray(arrivals, dtype=float)
    if arrivals.ndim != 1 or arrivals.size == 0:
        raise ProblemError("arrivals must be a nonempty vector")
    if not 0 <= first < arrivals.size:
        raise ProblemError(f"first row {first!r} is not a slot of {arrivals.size}")
    if not np.isfinite(arrivals).all():
        raise ProblemError("arrivals must be finite")
    forecast = np.empty(arrivals.size - first)
    if first == 0:
        forecast[0] = arrivals[0]
    for t in range(max(first, 1), min(arrivals.size, REAC_WINDOW)):  # the windows still filling
        forecast[t - first] = np.mean(arrivals[:t])
    full = max(first, REAC_WINDOW)  # the first row of a full window
    if arrivals.size > full:
        windows = sliding_window_view(arrivals[full - REAC_WINDOW:-1], REAC_WINDOW)
        forecast[full - first:] = np.mean(windows, axis=1)
    cluster_loads = forecast[:, None] * np.array([*PACING_RATIOS, PACING_RATIOS[3]])
    cluster_loads[:, 3:] /= 2.0  # the final two clusters split the last share evenly
    power = service_curve_inverse(cluster_loads / CLUSTER_SIZE)
    # np.take keeps the rows C-contiguous; power[:, index] comes out
    # F-ordered, and a product over a strided row can differ in the last bit
    # from the same product over a slot's own contiguous point.
    return np.take(power, SERVER_CLUSTER, axis=1)
