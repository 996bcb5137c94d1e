"""Vector-neuron associative memories with Hebbian couplings.

A network stores M patterns of N neurons.  Each neuron state is a basis
vector of R^q, optionally carrying a sign:

* ``NetworkKind.PNN2`` -- signed states (2q states per neuron).  With q=1 the
  model is the classical Hopfield network.
* ``NetworkKind.PNN3`` -- unsigned states (q states per neuron, q >= 2); the
  stored patterns enter the couplings centered by the mean activity e/q.

Couplings are never materialized as N^2 blocks.  The Hebbian sum factorizes
through per-pattern overlaps

    m_mu = sum_j <w_j^mu, x_j>,

where ``w`` is the stored pattern (PNN2) or the centered stored pattern
(PNN3) and ``x`` is the running state, so a neuron's local field costs O(M)
once the overlaps are known.  Overlaps and field amplitudes are kept as
exact scaled integers internally (scale N for PNN2, N*q^2 for PNN3); the
single final division is exact enough that float comparisons reproduce the
integer comparisons bit-for-bit at any realistic size.

Levels are 1-based (they index the basis vectors e_1..e_q); neuron positions
are 0-based sequence indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LevelOutOfRange,
    SignNotAllowed,
)


class NetworkKind(Enum):
    """Architecture selector; Hopfield is PNN2 with q = 1."""

    PNN2 = "pnn2"
    PNN3 = "pnn3"


class UpdateOrder(Enum):
    """Neuron visiting order for asynchronous retrieval."""

    SEQUENTIAL = "sequential"
    RANDOM_PERMUTATION = "random-permutation"


@dataclass(frozen=True)
class NeuronState:
    """One neuron: a sign in {-1,+1} and a 1-based level in [1, q]."""

    sign: int
    level: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise SignNotAllowed(f"sign must be -1 or +1, got {self.sign}")
        if self.level < 1:
            raise LevelOutOfRange(f"level must be >= 1, got {self.level}")


class Pattern:
    """A length-N sequence of neuron states, stored as sign/level arrays.

    The arrays are read-only after construction; build a new Pattern to
    modify.  The owning network's q bounds the levels and is checked when
    the pattern meets a Memory.
    """

    __slots__ = ("signs", "levels")

    def __init__(self, signs, levels):
        signs = np.asarray(signs, dtype=np.int8)
        levels = np.asarray(levels, dtype=np.int64)
        if signs.ndim != 1 or levels.ndim != 1 or signs.shape != levels.shape:
            raise DimensionMismatch("signs and levels must be 1-d arrays of equal length")
        if signs.size == 0:
            raise DimensionMismatch("pattern must contain at least one neuron")
        if not np.all(np.abs(signs) == 1):
            raise SignNotAllowed("signs must be -1 or +1")
        if levels.min() < 1:
            raise LevelOutOfRange("levels must be >= 1")
        signs = signs.copy()
        levels = levels.copy()
        signs.setflags(write=False)
        levels.setflags(write=False)
        self.signs = signs
        self.levels = levels

    @classmethod
    def from_states(cls, states: Iterable[NeuronState]) -> "Pattern":
        states = list(states)
        return cls([s.sign for s in states], [s.level for s in states])

    @property
    def n_neurons(self) -> int:
        return self.signs.size

    def __len__(self) -> int:
        return self.signs.size

    def __getitem__(self, i: int) -> NeuronState:
        return NeuronState(int(self.signs[i]), int(self.levels[i]))

    def states(self) -> list[NeuronState]:
        return [self[i] for i in range(len(self))]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return bool(
            np.array_equal(self.signs, other.signs)
            and np.array_equal(self.levels, other.levels)
        )

    def __hash__(self):
        return hash((self.signs.tobytes(), self.levels.tobytes()))

    def sign_flipped(self) -> "Pattern":
        """The pattern with every sign inverted (levels unchanged)."""
        return Pattern(-self.signs, self.levels)

    def __repr__(self):
        return f"Pattern(N={len(self)})"


@dataclass(frozen=True)
class FieldAmplitudes:
    """Coefficients of a neuron's local field in the unit-vector basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=np.float64)
        if a.ndim != 1 or a.size < 1:
            raise DimensionMismatch("amplitudes must be a non-empty 1-d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def __len__(self):
        return self.amplitudes.size

    def __getitem__(self, i):
        return float(self.amplitudes[i])


@dataclass
class RetrievalResult:
    """Outcome of asynchronous retrieval.

    ``converged`` is True only when a full sweep changed no neuron, which
    makes ``final_state`` a fixed point.  ``trace`` (when requested) holds a
    snapshot of the state after every single neuron visit.
    """

    final_state: Pattern
    converged: bool
    sweeps_used: int
    updates_changed: int
    trace: list[Pattern] | None = field(default=None, repr=False)


class Memory:
    """An immutable trained network: kind, dimensions and stored patterns.

    Weights are implicit; every field evaluation works from the stored
    pattern arrays.  Instances are safe to share across threads/processes.
    The constructor rejects invalid arrays with the same typed errors as
    ``build_memory``.
    """

    __slots__ = ("kind", "n_neurons", "q", "pattern_signs", "pattern_levels")

    def __init__(self, kind: NetworkKind, q: int, pattern_signs, pattern_levels):
        q = int(q)
        if q < 1:
            raise LevelOutOfRange("q must be >= 1")
        if kind is NetworkKind.PNN3 and q < 2:
            raise LevelOutOfRange("PNN3 requires q >= 2 (centering by e/q annihilates q=1 states)")
        signs = np.asarray(pattern_signs)
        levels = np.asarray(pattern_levels)
        if signs.ndim != 2 or signs.shape != levels.shape or signs.size == 0:
            raise DimensionMismatch("signs and levels must be non-empty (M, N) arrays of one shape")
        if not np.all(np.abs(signs) == 1):
            raise SignNotAllowed("signs must be -1 or +1")
        if levels.min() < 1:
            raise LevelOutOfRange("levels must be >= 1")
        if levels.max() > q:
            raise LevelOutOfRange(f"pattern level {int(levels.max())} exceeds q={q}")
        if kind is NetworkKind.PNN3 and np.any(signs != 1):
            raise SignNotAllowed("PNN3 states carry no sign; all signs must be +1")
        self.kind = kind
        self.q = q
        signs = signs.astype(np.int8)
        levels = levels.astype(np.int64)
        signs.setflags(write=False)
        levels.setflags(write=False)
        self.pattern_signs = signs
        self.pattern_levels = levels
        self.n_neurons = signs.shape[1]

    @property
    def n_patterns(self) -> int:
        return self.pattern_signs.shape[0]

    @property
    def patterns(self) -> list[Pattern]:
        return [
            Pattern(self.pattern_signs[mu], self.pattern_levels[mu])
            for mu in range(self.n_patterns)
        ]

    def __repr__(self):
        return (
            f"Memory(kind={self.kind.value}, N={self.n_neurons}, "
            f"q={self.q}, M={self.n_patterns})"
        )


def _stack_patterns(patterns: Sequence[Pattern]) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) sign and level arrays of a non-empty list of equally long patterns."""
    if not patterns:
        raise DimensionMismatch("at least one pattern is required")
    n = len(patterns[0])
    for p in patterns:
        if len(p) != n:
            raise DimensionMismatch(f"pattern lengths differ: {len(p)} vs {n}")
    return np.stack([p.signs for p in patterns]), np.stack([p.levels for p in patterns])


def build_memory(patterns: Sequence[Pattern], kind: NetworkKind, q: int) -> Memory:
    """Store a pattern set with generalized Hebbian couplings.

    Raises DimensionMismatch for ragged inputs, LevelOutOfRange for levels
    above q, SignNotAllowed when a PNN3 network receives a signed state.
    """
    return Memory(kind, q, *_stack_patterns(patterns))


def _check_state(memory: Memory, state: Pattern) -> None:
    if len(state) != memory.n_neurons:
        raise DimensionMismatch(
            f"state length {len(state)} != network size {memory.n_neurons}"
        )
    if state.levels.max() > memory.q:
        raise LevelOutOfRange(
            f"state level {int(state.levels.max())} exceeds q={memory.q}"
        )
    if memory.kind is NetworkKind.PNN3 and np.any(state.signs != 1):
        raise SignNotAllowed("PNN3 states carry no sign; all signs must be +1")


# -- exact integer internals ------------------------------------------------
#
# PNN2: <w_j^mu, x_j> = s_j^mu s_j [l_j^mu == l_j]          (integers)
# PNN3: q <w_j^mu, x_j> = q [l_j^mu == l_j] - 1             (integers)
#
# Amplitude denominators: N (PNN2) and N q^2 (PNN3).


def _overlaps_scaled(memory: Memory, signs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per-pattern overlaps of the current state, as scaled int64."""
    agree = memory.pattern_levels == levels[None, :]
    if memory.kind is NetworkKind.PNN2:
        prod = (memory.pattern_signs * signs[None, :]).astype(np.int64)
        return np.sum(prod * agree, axis=1)
    return memory.q * np.sum(agree, axis=1, dtype=np.int64) - memory.n_neurons


def _self_terms_scaled(memory: Memory, signs, levels, i: int) -> np.ndarray:
    """Coordinate i's own contribution to each overlap (scaled int64)."""
    agree = memory.pattern_levels[:, i] == levels[i]
    if memory.kind is NetworkKind.PNN2:
        return memory.pattern_signs[:, i].astype(np.int64) * int(signs[i]) * agree
    return memory.q * agree.astype(np.int64) - 1


def _field_scaled(memory: Memory, m_scaled, signs, levels, i: int, self_terms=None) -> np.ndarray:
    """Scaled amplitudes at neuron i, exact integers held in float64."""
    if self_terms is None:
        self_terms = _self_terms_scaled(memory, signs, levels, i)
    f = (m_scaled - self_terms).astype(np.float64)
    pat_levels = memory.pattern_levels[:, i]
    if memory.kind is NetworkKind.PNN2:
        w = memory.pattern_signs[:, i] * f
        return np.bincount(pat_levels - 1, weights=w, minlength=memory.q)
    binned = np.bincount(pat_levels - 1, weights=f, minlength=memory.q)
    return memory.q * binned - f.sum()


def _field_denominator(memory: Memory) -> float:
    if memory.kind is NetworkKind.PNN2:
        return float(memory.n_neurons)
    return float(memory.n_neurons) * memory.q * memory.q


def local_field(memory: Memory, state: Pattern, i: int) -> FieldAmplitudes:
    """Local-field amplitudes at neuron i for the given state.

    Algebraically equal to the naive double sum over patterns and the other
    N-1 neurons (self-coupling excluded); evaluated in O(M + q) via overlaps.
    """
    _check_state(memory, state)
    if not 0 <= i < memory.n_neurons:
        raise IndexOutOfRange(f"neuron index {i} outside [0, {memory.n_neurons})")
    m = _overlaps_scaled(memory, state.signs, state.levels)
    scaled = _field_scaled(memory, m, state.signs, state.levels, i)
    return FieldAmplitudes(scaled / _field_denominator(memory))


def _decide(kind: NetworkKind, amps: np.ndarray, cur_sign: int, cur_level: int):
    """Apply the alignment rule to one neuron's amplitudes.

    PNN2 aligns with the largest-modulus amplitude and takes its sign; PNN3
    takes the (signed) largest amplitude.  Ties keep the current level if it
    is among the maximizers, otherwise the lowest maximizing index wins; a
    zero amplitude at the chosen level keeps the current sign (so an
    all-zero field leaves the neuron untouched).
    """
    score = np.abs(amps) if kind is NetworkKind.PNN2 else amps
    top = score.max()
    if score[cur_level - 1] == top:
        k = cur_level - 1
    else:
        k = int(np.argmax(score == top))
    if kind is NetworkKind.PNN3:
        return 1, k + 1
    a = amps[k]
    if a > 0:
        return 1, k + 1
    if a < 0:
        return -1, k + 1
    return cur_sign, k + 1


def neuron_update(
    kind: NetworkKind, amplitudes: FieldAmplitudes | np.ndarray, current: NeuronState
) -> NeuronState:
    """The state the neuron takes under the given field (see ``_decide``)."""
    amps = np.asarray(getattr(amplitudes, "amplitudes", amplitudes), dtype=np.float64)
    if current.level > amps.size:
        raise LevelOutOfRange(f"current level {current.level} exceeds q={amps.size}")
    sign, level = _decide(kind, amps, current.sign, current.level)
    return NeuronState(sign, level)


def synchronous_step(memory: Memory, state: Pattern) -> Pattern:
    """One parallel update of all neurons from fields on the input state."""
    _check_state(memory, state)
    n, q = memory.n_neurons, memory.q
    m = _overlaps_scaled(memory, state.signs, state.levels)

    # (M, N) matrix of per-coordinate self terms, then scaled amplitudes per neuron
    agree = memory.pattern_levels == state.levels[None, :]
    if memory.kind is NetworkKind.PNN2:
        selfs = (memory.pattern_signs * state.signs[None, :]).astype(np.int64) * agree
    else:
        selfs = q * agree.astype(np.int64) - 1
    f = (m[:, None] - selfs).astype(np.float64)

    amps = np.zeros((n, q))
    flat_idx = (np.arange(n)[None, :] * q + memory.pattern_levels - 1).ravel()
    if memory.kind is NetworkKind.PNN2:
        np.add.at(amps.ravel(), flat_idx, (memory.pattern_signs * f).ravel())
    else:
        np.add.at(amps.ravel(), flat_idx, f.ravel())
        amps = q * amps - f.sum(axis=0)[:, None]

    score = np.abs(amps) if memory.kind is NetworkKind.PNN2 else amps
    top = score.max(axis=1)
    cur_idx = state.levels - 1
    rows = np.arange(n)
    keep = score[rows, cur_idx] == top
    k = np.where(keep, cur_idx, (score == top[:, None]).argmax(axis=1))
    if memory.kind is NetworkKind.PNN2:
        a = amps[rows, k]
        new_signs = np.where(a == 0, state.signs, np.sign(a)).astype(np.int8)
    else:
        new_signs = np.ones(n, dtype=np.int8)
    return Pattern(new_signs, k + 1)


def is_fixed_point(memory: Memory, state: Pattern) -> bool:
    """True iff the update rule leaves every neuron unchanged."""
    return synchronous_step(memory, state) == state


def asynchronous_retrieve(
    memory: Memory,
    input_state: Pattern,
    max_sweeps: int,
    order: UpdateOrder = UpdateOrder.SEQUENTIAL,
    rng: np.random.Generator | None = None,
    record_trace: bool = False,
) -> RetrievalResult:
    """Relax the input one neuron at a time until a sweep changes nothing.

    Fields are always evaluated on the current state; overlaps are updated
    incrementally, so each neuron visit costs O(M + q).  Energy never
    increases along the way.  ``rng`` is required for the seeded
    random-permutation order.
    """
    _check_state(memory, input_state)
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if order is UpdateOrder.RANDOM_PERMUTATION and rng is None:
        raise ValueError("random-permutation order needs an rng")

    n = memory.n_neurons
    signs = input_state.signs.astype(np.int8).copy()
    levels = input_state.levels.astype(np.int64).copy()
    m = _overlaps_scaled(memory, signs, levels)
    trace: list[Pattern] | None = [] if record_trace else None

    converged = False
    sweeps = 0
    changed_total = 0
    for _ in range(max_sweeps):
        sweeps += 1
        if order is UpdateOrder.SEQUENTIAL:
            visit = range(n)
        else:
            visit = rng.permutation(n)
        changed_this_sweep = 0
        for i in visit:
            i = int(i)
            old_self = _self_terms_scaled(memory, signs, levels, i)
            scaled = _field_scaled(memory, m, signs, levels, i, self_terms=old_self)
            sign, level = _decide(
                memory.kind, scaled, int(signs[i]), int(levels[i])
            )
            if sign != signs[i] or level != levels[i]:
                signs[i] = sign
                levels[i] = level
                m += _self_terms_scaled(memory, signs, levels, i) - old_self
                changed_this_sweep += 1
            if trace is not None:
                trace.append(Pattern(signs, levels))
        changed_total += changed_this_sweep
        if changed_this_sweep == 0:
            converged = True
            break

    return RetrievalResult(
        final_state=Pattern(signs, levels),
        converged=converged,
        sweeps_used=sweeps,
        updates_changed=changed_total,
        trace=trace,
    )


def energy(memory: Memory, state: Pattern) -> float:
    """E = -1/2 sum_i <x_i, h_i>; the 1/2 counts each symmetric pair once.

    Strictly decreases under any accepted single-neuron update and is exact
    up to one float division (the sums are integers).
    """
    _check_state(memory, state)
    agree = memory.pattern_levels == state.levels[None, :]
    if memory.kind is NetworkKind.PNN2:
        g = (memory.pattern_signs * state.signs[None, :]).astype(np.int64) * agree
    else:
        g = memory.q * agree.astype(np.int64) - 1
    m = g.sum(axis=1)
    total = int(np.sum(m * m) - np.sum(g * g))
    return -0.5 * total / _field_denominator(memory)
