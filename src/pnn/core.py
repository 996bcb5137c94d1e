"""Vector-neuron associative memories with Hebbian couplings.

A network stores M patterns of N neurons.  Each neuron state is a basis
vector of R^q, optionally carrying a sign:

* ``NetworkKind.PNN2`` -- signed states (2q states per neuron).  With q=1 the
  model is the classical Hopfield network.
* ``NetworkKind.PNN3`` -- unsigned states (q states per neuron, q >= 2); the
  stored patterns enter the couplings centered by the mean activity e/q.

Both kinds use the Hebbian couplings J_ij = 1/N sum_mu w_i^mu (w_j^mu)^T,
J_ii = 0, and differ only in the stored vector w of a neuron in state s*e_l:

    w = alpha * s * e_l - beta * e        (e: the all-ones vector of R^q)

in integers, with (alpha, beta) = (1, 0) for PNN2 and (q, 1) for PNN3 (q
times the Potts-centered e_l - e/q).  Couplings are never materialized: the
field factorizes through per-pattern overlaps with the running state x,

    m_mu = sum_j <w_j^mu, x_j>,      h_i = sum_mu w_i^mu m_mu - J_ii x_i,

where the second term removes the self-coupling that the first includes.
It depends on the patterns only through how many have each level at each
neuron, an (N, q) count table built once per Memory, so a field costs O(M)
once the overlaps are known.  Overlaps and fields are exact integers scaled
by N * alpha^2; the single final division reproduces the integer
comparisons bit-for-bit at any realistic size.

Every kernel decides on one decision field (``_decision_field``), the
scaled field over alpha shifted alike at every level, which the alignment
rule cannot tell from the field itself; ``local_field`` builds the field
from it.  The kernels hold the overlaps plus beta, so that neuron i's sums
of sigma_i m by level already hold the field's beta term.  The
asynchronous visit bins them with ``bincount``, and after a run of
unchanged visits decides the next neurons as a block (``_decide_block``),
kept up to the first that moves; a move shifts m by sigma_i times a
(q + 1)-entry table at the stored levels.  ``synchronous_step`` is one block
of all N neurons.  ``retrieve_batch`` takes the sums as m @ W_i, the
(B, M) overlaps times neuron i's signed one-hot (M, q) matrix, and decides
a neuron in all B states by one argmax of an integer key (``_decide_keys``).
Sums and keys are integers in float64, exact below 2**53.  Its kernel can
also take the synchronous step of its inputs in its first sweep.

Levels are 1-based (they index the basis vectors e_1..e_q); neuron positions
are 0-based sequence indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LevelOutOfRange,
    PnnError,
    SignNotAllowed,
)


class NetworkKind(Enum):
    """Architecture selector; Hopfield is PNN2 with q = 1."""

    PNN2 = "pnn2"
    PNN3 = "pnn3"


def _check_levels(levels: np.ndarray, q: int | None = None) -> None:
    """Raise LevelOutOfRange unless every level is a whole number in [1, q].

    Levels must also be below 2**63, so that they cast to int64; only
    non-integer and unsigned dtypes can hold larger values.
    """
    if levels.dtype.kind not in "iu":
        if np.any(levels % 1 != 0):
            raise LevelOutOfRange("levels must be whole numbers")
        if levels.max() >= 2.0**63:
            raise LevelOutOfRange(f"level {levels.max()} does not fit in int64")
    elif levels.dtype == np.uint64 and levels.max() >= 2**63:  # no other unsigned type reaches it
        raise LevelOutOfRange(f"level {levels.max()} does not fit in int64")
    if levels.min() < 1:
        raise LevelOutOfRange("levels must be >= 1")
    if q is not None and levels.max() > q:
        raise LevelOutOfRange(f"level {int(levels.max())} exceeds q={q}")


def _check_values(signs, levels, q: int | None = None, unsigned: bool = False) -> None:
    """Raise unless signs are +-1 (+1 when unsigned) and levels whole numbers in [1, q]."""
    if not np.all(np.abs(signs) == 1):
        raise SignNotAllowed("signs must be -1 or +1")
    _check_levels(levels, q)
    if unsigned and np.any(signs != 1):
        raise SignNotAllowed("PNN3 states carry no sign; all signs must be +1")


def _level_sums(levels: np.ndarray, q: int, signs=None, m=None) -> np.ndarray:
    """(N, q) table of sums over each row i of (N, M) levels, binned by level.

    Bin (i, l - 1) counts the entries of row i at level l (int64), or, given
    (N, M) signs and an (M,) vector m, sums signs[i, mu] * m[mu] over them
    (float64).  Summed about 2**16 entries a block, so each block's bincount
    index and weights stay in cache and no (N, M) temporary is allocated;
    every bin belongs to one row, hence one block, so no sum changes.
    """
    n, count = levels.shape
    per = min(n, max(1, (1 << 16) // count))
    sums = np.empty((n, q), dtype=np.int64 if m is None else np.float64)
    offsets = np.arange(-1, per * q - 1, q)[:, None]  # row r's level l goes to bin r*q + l - 1
    for lo in range(0, n, per):
        block = levels[lo:lo + per]
        weights = None if m is None else (signs[lo:lo + per] * m).ravel()
        sums[lo:lo + per] = np.bincount(
            (block + offsets[:len(block)]).ravel(), weights=weights, minlength=len(block) * q
        ).reshape(-1, q)
    return sums


class Pattern:
    """A length-N sequence of neuron states, stored as sign/level arrays.

    The arrays are read-only after construction; build a new Pattern to
    modify.  ``signs`` are int8.  ``levels`` are in the narrowest unsigned
    integer type that holds the highest level (uint8 up to 255), a function
    of the values, so equal Patterns hold equal bytes; cast before
    subtracting levels.  The owning network's q bounds the levels and is
    checked when the pattern meets a Memory.
    """

    __slots__ = ("signs", "levels")

    def __init__(self, signs, levels):
        signs = np.asarray(signs)
        levels = np.asarray(levels)
        if signs.ndim != 1 or levels.ndim != 1 or signs.shape != levels.shape:
            raise DimensionMismatch("signs and levels must be 1-d arrays of equal length")
        if signs.size == 0:
            raise DimensionMismatch("pattern must contain at least one neuron")
        _check_values(signs, levels)
        self._freeze(signs, levels)

    @classmethod
    def _of(cls, signs: np.ndarray, levels: np.ndarray) -> "Pattern":
        """The Pattern of state arrays the library made from checked or drawn values, cast and
        frozen with no second check; public inputs go through ``__init__``."""
        pattern = object.__new__(cls)
        pattern._freeze(signs, levels)
        return pattern

    def _freeze(self, signs: np.ndarray, levels: np.ndarray) -> None:
        # astype copies, so the caller's arrays stay its own; a 1-byte type holds no level above
        # 255, so its levels need no max to narrow
        narrow = np.uint8 if levels.itemsize == 1 else np.min_scalar_type(int(levels.max()))
        self.signs, self.levels = signs.astype(np.int8), levels.astype(narrow)
        self.signs.setflags(write=False)
        self.levels.setflags(write=False)

    def __len__(self) -> int:
        return self.signs.size

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
        return Pattern._of(-self.signs, self.levels)

    def __repr__(self):
        return f"Pattern(N={len(self)})"


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
    pattern arrays and the (N, q) table ``_level_counts`` of how many
    patterns have level l at neuron i.  The patterns are stored
    neuron-major: row i of ``_signs`` (int8) and ``_levels`` (the narrowest
    unsigned type holding q) is neuron i of every pattern, contiguous, which
    is what one neuron visit reads.  ``pattern_signs`` and
    ``pattern_levels`` are read-only (M, N) views of them.  Instances are
    safe to share across threads/processes.  The constructor rejects
    invalid arrays with the same typed errors as ``build_memory``.
    """

    __slots__ = ("kind", "n_neurons", "q", "_signs", "_levels", "_alpha", "_beta", "_level_counts")

    def __init__(self, kind: NetworkKind, q: int, pattern_signs, pattern_levels):
        q = _network_q(kind, q)
        signs, levels = np.asarray(pattern_signs), np.asarray(pattern_levels)
        if signs.ndim != 2 or signs.shape != levels.shape or signs.size == 0:
            raise DimensionMismatch("signs and levels must be non-empty (M, N) arrays of one shape")
        self._fill(kind, q, *signs.shape, lambda lo, hi: (signs[lo:hi], levels[lo:hi]))

    def _fill(self, kind: NetworkKind, q: int, m: int, n: int, rows) -> "Memory":
        """Store, and return, the (M, N) patterns whose rows lo:hi are ``rows(lo, hi)``: blocks of
        max(1, 2**16 // N) patterns are checked at their own dtype, then written transposed."""
        if 4 * m * n * q >= 2**53:  # the largest batched key, 4 M q N, must be exact
            raise DimensionMismatch(f"4 M q N = {4 * m * n * q} must stay below 2**53")
        unsigned = kind is NetworkKind.PNN3
        signs, levels = np.empty((n, m), np.int8), np.empty((n, m), np.min_scalar_type(q))
        per = max(1, (1 << 16) // n)
        for lo in range(0, m, per):
            block_signs, block_levels = rows(lo, lo + per)
            try:
                _check_values(block_signs, block_levels, q, unsigned)
            except PnnError:  # raise the input's first fault, as one check of all M rows does
                _check_values(*rows(0, m), q, unsigned)
                raise
            signs[:, lo:lo + per] = block_signs.T
            # cast before transposing, so the transposing copy moves narrow elements
            levels[:, lo:lo + per] = block_levels.astype(levels.dtype, copy=False).T
        self.kind, self.q, self.n_neurons = kind, q, n
        # stored vector w = alpha * s * e_l - beta * e, in integers
        self._alpha, self._beta = (q, 1) if unsigned else (1, 0)
        counts = _level_sums(levels, q)
        for arr in (signs, levels, counts):
            arr.setflags(write=False)
        self._signs, self._levels, self._level_counts = signs, levels, counts
        return self

    @property
    def pattern_signs(self) -> np.ndarray:
        """(M, N) read-only view of the stored signs."""
        return self._signs.T

    @property
    def pattern_levels(self) -> np.ndarray:
        """(M, N) read-only view of the stored levels.

        Its dtype is the narrowest unsigned integer type that holds q (uint8
        up to q = 255), so cast before subtracting levels.
        """
        return self._levels.T

    @property
    def n_patterns(self) -> int:
        return self._signs.shape[1]

    def __repr__(self):
        return (
            f"Memory(kind={self.kind.value}, N={self.n_neurons}, "
            f"q={self.q}, M={self.n_patterns})"
        )


def _network_q(kind: NetworkKind, q) -> int:
    """q as an int, checked to be a whole number >= 1 (>= 2 for PNN3) once kind is a NetworkKind."""
    if not isinstance(kind, NetworkKind):
        raise ValueError(f"kind must be a NetworkKind, got {kind!r}")
    if not (q >= 1 and q % 1 == 0):
        raise LevelOutOfRange(f"q must be a whole number >= 1, got {q}")
    if kind is NetworkKind.PNN3 and q < 2:
        raise LevelOutOfRange("PNN3 requires q >= 2 (centering by e/q annihilates q=1 states)")
    return int(q)


def build_memory(patterns: Sequence[Pattern], kind: NetworkKind, q: int) -> Memory:
    """Store a pattern set with generalized Hebbian couplings.

    Raises ValueError for a kind that is not a NetworkKind, DimensionMismatch
    for ragged inputs, LevelOutOfRange for a q that is not a whole number
    >= 1 (>= 2 for PNN3) or levels above q, SignNotAllowed when a PNN3
    network receives a signed state.
    """
    if not patterns:
        raise DimensionMismatch("at least one pattern is required")
    n = len(patterns[0])
    for p in patterns:
        if len(p) != n:
            raise DimensionMismatch(f"pattern lengths differ: {len(p)} vs {n}")
    return object.__new__(Memory)._fill(kind, _network_q(kind, q), len(patterns), n, lambda i, j: (
        np.stack([p.signs for p in patterns[i:j]]), np.stack([p.levels for p in patterns[i:j]])))


def _check_state(memory: Memory, state: Pattern) -> None:
    if len(state) != memory.n_neurons:
        raise DimensionMismatch(f"state length {len(state)} != network size {memory.n_neurons}")
    _check_values(state.signs, state.levels, memory.q, unsigned=memory.kind is NetworkKind.PNN3)


def _check_retrieval(max_sweeps) -> int:
    """The sweep cap of a retrieval as an int, checked to be a whole number >= 1."""
    if not (max_sweeps >= 1 and max_sweeps % 1 == 0):
        raise ValueError(f"max_sweeps must be a whole number >= 1, got {max_sweeps}")
    return int(max_sweeps)


# -- exact integer internals, scaled by N alpha^2 ---------------------------
#
# With sigma, lev the stored signs and levels and C = memory._level_counts:
#   <w_j^mu, x_j> = alpha sigma_j^mu s_j [lev_j^mu == l_j] - beta
#   J_ii e_l      = alpha^2 C_il e_l - alpha beta (C_i + C_il e) + beta^2 M e
# (beta is nonzero only for PNN3, whose signs are all +1).


def _overlaps(memory: Memory, signs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Scaled per-pattern overlaps m of the state (signs, levels), int64: the
    sum over neurons of <w_j^mu, x_j>, a block of at most 2**20 (neuron x
    pattern) terms at a time.  PNN2 keeps its +-1/0 products in int8; PNN3,
    whose stored and checked input signs are all +1, counts level matches,
    each block of at most 127 neurons in int8, which holds its count exactly."""
    n, per = memory.n_neurons, max(1, (1 << 20) // memory.n_patterns)
    levels = levels.astype(memory._levels.dtype, copy=False)[:, None]
    sums = np.zeros(memory.n_patterns, dtype=np.int64)
    if memory._beta:
        per = min(per, 127)
        for lo in range(0, n, per):
            match = memory._levels[lo:lo + per] == levels[lo:lo + per]
            sums += match.view(np.int8).sum(axis=0, dtype=np.int8)
        return memory._alpha * sums - memory._beta * n
    # every partial column sum lies in [-N, N], so the narrowest type holding +-N sums exactly
    signs, acc = signs.astype(np.int8)[:, None], np.min_scalar_type(-n - 1)
    for lo in range(0, n, per):
        agree = memory._signs[lo:lo + per] * (memory._levels[lo:lo + per] == levels[lo:lo + per])
        agree *= signs[lo:lo + per]
        sums += agree.sum(axis=0, dtype=acc)
    return memory._alpha * sums - memory._beta * n


def _stack_inputs(memory: Memory, inputs: Sequence[Pattern]):
    """Check B input states; their neuron-major (N, B) int64 signs and
    levels, and their (B, M) float64 scaled overlaps plus beta, so that the
    sums of sigma_i m by level hold the decision field's beta C_i."""
    if len(inputs) == 0:
        raise DimensionMismatch("at least one input state is required")
    for state in inputs:
        _check_state(memory, state)
    # int64 working copies: narrow levels would wrap in the kernels' index arithmetic
    signs = np.stack([p.signs for p in inputs], axis=1, dtype=np.int64)
    levels = np.stack([p.levels for p in inputs], axis=1, dtype=np.int64)
    m = np.stack([_overlaps(memory, p.signs, p.levels) for p in inputs]) + memory._beta
    return signs, levels, m.astype(np.float64)


def _field_denominator(memory: Memory) -> float:
    return float(memory.n_neurons * memory._alpha ** 2)


def _decision_field(memory: Memory, i: int, s: int, l: int, mb: np.ndarray) -> np.ndarray:
    """Scaled decision field D of neuron i in state (s, l), float64, from the overlaps plus beta,
    mb = m + beta (as ``_stack_inputs`` gives them): a ``bincount`` of sigma_i mb by level, which
    holds beta C_i as PNN3 signs are all +1, less s alpha C_il at level l.  The scaled field of
    ``local_field`` is alpha D - beta sum(m) - s (beta^2 M - alpha beta C_il), the same shift at
    every level, so the alignment rule picks the same state on D."""
    weights = memory._signs[i] * mb if memory._beta == 0 else mb  # PNN3 signs are all +1
    # bin 0 stays empty, as levels start at 1
    d = np.bincount(memory._levels[i], weights=weights, minlength=memory.q + 1)[1:]
    d[l - 1] -= s * memory._alpha * memory._level_counts[i, l - 1]
    return d


def local_field(memory: Memory, state: Pattern, i: int) -> np.ndarray:
    """Local-field amplitudes at neuron i for the given state.

    A read-only float64 array of shape (q,): amplitude l - 1 is the field's
    coefficient on e_l.  Algebraically equal to the naive double sum over
    patterns and the other N-1 neurons (self-coupling excluded); evaluated
    in O(M + q) from the decision field D of ``_decision_field`` as the
    scaled exact integers alpha D - beta sum(m) - s (beta^2 M - alpha beta C_il),
    divided once by N alpha^2.
    """
    _check_state(memory, state)
    if not (0 <= i < memory.n_neurons and i % 1 == 0):
        raise IndexOutOfRange(f"neuron index {i} is not a whole number in [0, {memory.n_neurons})")
    i, a, b = int(i), memory._alpha, memory._beta
    m = _overlaps(memory, state.signs, state.levels)
    s, l = int(state.signs[i]), int(state.levels[i])
    c_l = int(memory._level_counts[i, l - 1])
    h = a * _decision_field(memory, i, s, l, m + b)
    h -= b * int(m.sum()) + s * (b * b * memory.n_patterns - a * b * c_l)
    amplitudes = h / _field_denominator(memory)
    amplitudes.setflags(write=False)
    return amplitudes


def _decide_block(memory: Memory, rows, s: np.ndarray, l: np.ndarray, mb: np.ndarray):
    """The (signs, levels) that neurons ``rows`` (a slice or an index array) in states (s, l) take
    at the overlaps plus beta mb, each by the rule of an ``asynchronous_retrieve`` visit."""
    d = _level_sums(memory._levels[rows], memory.q, memory._signs[rows], mb)
    at = np.arange(len(d)), l - 1
    d[at] -= s * memory._alpha * memory._level_counts[rows][at]
    pnn2 = memory.kind is NetworkKind.PNN2
    key = np.abs(d) if pnn2 else d  # PNN3 takes no sign from D, so may overwrite it
    key[at] += 0.5
    level = key.argmax(axis=1)
    amp = d[at[0], level] if pnn2 else 0  # PNN3 keeps its sign, +1
    return np.where(amp > 0, 1, np.where(amp < 0, -1, s)), level + 1


# (scale, the signs of a level's S states, tie) of the key of ``_decide_keys``
_KEY = {NetworkKind.PNN2: (4.0, np.array([1.0, -1.0]), 2.5),
        NetworkKind.PNN3: (2.0, np.ones(1), 0.5)}


def _lockstep_inputs(memory: Memory, states: Sequence[Pattern]):
    """Check B states.  Return their (N, B) int64 state indices z, z = S (l - 1) + [s = -1] among
    a neuron's Q = S q states (S = 2 for PNN2, 1 for PNN3); their (B, M) overlaps plus beta
    (``_stack_inputs``); the key's (Q,) scale s' at each state z'; and the (N, Q)
    table of s (1/2 - scale alpha C_il) at each z = (s, l), S floats per level count."""
    signs, levels, m = _stack_inputs(memory, states)
    scale, sign, _ = _KEY[memory.kind]
    signs_q = np.tile(sign, memory.q)
    own = (0.5 - scale * memory._alpha * memory._level_counts).repeat(len(sign), axis=1)
    own *= signs_q
    return len(sign) * (levels - 1) + (signs < 0), m, scale * signs_q, own


def _patterns(memory: Memory, z: np.ndarray) -> list[Pattern]:
    """The states of (N, B) state indices z, one Pattern a column."""
    shift = len(_KEY[memory.kind][1]) - 1  # S is 1 or 2, so z >> shift is l - 1
    # cast once, to the types that hold every sign and every level up to q
    signs = (1 - 2 * (z & shift)).astype(np.int8)
    levels = ((z >> shift) + 1).astype(memory._levels.dtype)
    return [Pattern._of(signs[:, r], levels[:, r]) for r in range(z.shape[1])]


def _decide_keys(kind: NetworkKind, scale, h: np.ndarray, z: np.ndarray, base, own):
    """The new state indices of one neuron in B states z, or of K neurons in B states each, from
    their (B, q) or (K, B, q) sums h: the argmax of an integer key, the alignment rule to the tie.
    ``scale`` and ``own`` (at z) are from ``_lockstep_inputs``; ``base``, shaped (S,) + z.shape,
    is Q times each state's position in z plus its sign slot.  At z = (s, l) the key of z' =
    (s', l') is 4 s' D_l' + 2 [l' = l] + [z' = z] for PNN2 and 2 D_l' + [z' = z] for PNN3, so
    scale s' h_l' plus tie + s' s (1/2 - scale alpha C_il) at level l, with D_l's -s alpha C_il.
    The scale keeps distinct D apart; the bonuses prefer the current level, then the current
    sign, so a zero D keeps it, then the lowest level."""
    _, sign, tie = _KEY[kind]
    key = h.repeat(len(sign), axis=-1)  # state z' at [..., z']
    key *= scale
    key.reshape(-1)[base + (z & -len(sign))] += np.multiply.outer(sign, own) + tie  # z's level
    return key.argmax(axis=-1)


def synchronous_step(memory: Memory, state: Pattern) -> Pattern:
    """One parallel update of all neurons from fields on the input state: one
    ``_decide_block`` of all N neurons at the state's fixed overlaps, each by
    the rule of an ``asynchronous_retrieve`` visit."""
    signs, levels, m = _stack_inputs(memory, [state])
    return Pattern._of(*_decide_block(memory, slice(None), signs[:, 0], levels[:, 0], m[0]))


def is_fixed_point(memory: Memory, state: Pattern) -> bool:
    """True iff the update rule leaves every neuron unchanged."""
    return synchronous_step(memory, state) == state


def asynchronous_retrieve(
    memory: Memory,
    input_state: Pattern,
    max_sweeps: int,
    rng: np.random.Generator | None = None,
    record_trace: bool = False,
) -> RetrievalResult:
    """Relax the input one neuron at a time until a sweep changes nothing.

    Each visit takes one argmax of |D| (PNN2) or D (PNN3) over the decision
    field of ``_decision_field``, with 1/2 added at the current level so that
    it wins ties, and the sign of D there; a zero D keeps the current sign.
    On a change from (s, l) to (s', l') a (q + 1)-entry table holds alpha s'
    at l' and -alpha s at l, and the overlaps move by sigma_i times the table
    at lev_i, so a visit costs O(M + q).  Energy never increases.  After k >= 8
    unchanged visits in a row, across sweeps, the next k neurons of the sweep
    (8 or more, cut at its end) are decided as one block (``_decide_block``)
    and kept up to the first that moves, as nothing moves before it.  Neurons
    are visited in sequential order, or, given ``rng``, in a fresh
    ``rng.permutation(N)`` each sweep; ``retrieve_batch`` relaxes many inputs
    at once in sequential order.
    """
    signs, levels, m = _stack_inputs(memory, [input_state])
    signs, levels, m = signs[:, 0], levels[:, 0], m[0]
    max_sweeps = _check_retrieval(max_sweeps)

    n, a, pnn2 = memory.n_neurons, memory._alpha, memory.kind is NetworkKind.PNN2
    step = np.zeros(memory.q + 1)  # the overlap step by stored level; zero between changes
    trace: list[Pattern] | None = [] if record_trace else None

    changed_total = run = 0  # run: the unchanged visits since the last change
    for sweeps in range(1, max_sweeps + 1):
        perm = None if rng is None else rng.permutation(n)
        visit = range(n) if perm is None else perm.tolist()
        changed_this_sweep = k = 0
        while k < n:
            if run >= 8 and n - k >= 8:  # run-ahead: the next run neurons of the sweep at once
                rows = slice(k, k + run) if perm is None else perm[k:k + run]
                s, l = signs[rows], levels[rows]
                new_s, new_l = _decide_block(memory, rows, s, l, m)  # exact up to the first mover
                moved = ((new_s != s) | (new_l != l)).nonzero()[0]
                size, quiet = len(s), int(moved[0]) if moved.size else len(s)
                if quiet < size:
                    s, l, sign, level = s[quiet], l[quiet], new_s[quiet], new_l[quiet]
            else:
                s, l = signs.item(visit[k]), levels.item(visit[k])
                d = _decision_field(memory, visit[k], s, l, m)
                key = np.abs(d) if pnn2 else d  # PNN3 takes no sign from D, so may overwrite it
                key[l - 1] += 0.5  # exact, as Memory's bound keeps the integer |D| below 2**52
                level = int(key.argmax()) + 1
                amp = d.item(level - 1) if pnn2 else 0.0  # PNN3 keeps its sign, +1
                sign = 1 if amp > 0 else -1 if amp < 0 else s
                size, quiet = 1, int(sign == s and level == l)
            run, k = run + quiet, k + quiet
            if trace is not None and quiet:
                trace.extend([Pattern._of(signs, levels)] * quiet)
            if quiet == size:
                continue
            i = visit[k]  # neuron i moves from (s, l) to (sign, level)
            signs[i], levels[i] = sign, level
            step[l] = -a * s
            step[level] += a * sign
            delta = step.take(memory._levels[i])
            m += memory._signs[i] * delta if pnn2 else delta  # PNN3 signs are all +1
            step[l] = step[level] = 0.0
            changed_this_sweep += 1
            run, k = 0, k + 1
            if trace is not None:
                trace.append(Pattern._of(signs, levels))
        changed_total += changed_this_sweep
        if changed_this_sweep == 0:
            break

    return RetrievalResult(
        final_state=Pattern._of(signs, levels),
        converged=changed_this_sweep == 0,
        sweeps_used=sweeps,
        updates_changed=changed_total,
        trace=trace,
    )


def retrieve_batch(
    memory: Memory, inputs: Sequence[Pattern], max_sweeps: int
) -> list[RetrievalResult]:
    """Relax several inputs in lockstep, visiting neurons in sequential order.

    Result r equals ``asynchronous_retrieve(memory, inputs[r], max_sweeps)``
    bit for bit.  A visit to neuron i scatters its signed one-hot (M, q) matrix
    W_i into a zeroed scratch and decides every still-active input from its
    sums m @ W_i (``_decide_keys``).  The k inputs that moved from z to z' add
    (step[z'] - step[z]) @ W_i^T to their overlaps, step[z] = alpha s e_l,
    in products of at most 2**18 multiply-adds, which OpenBLAS keeps on one
    thread.  A sweep changes a neuron at most once, so its changes are the
    neurons that differ from its start.  An input drops out after the first
    sweep that changes nothing in it.  One input is faster serially."""
    return _lockstep(memory, inputs, max_sweeps)[0]


def _lockstep(memory: Memory, inputs: Sequence[Pattern], max_sweeps: int, step_rows: bool = False):
    """``retrieve_batch(memory, inputs, max_sweeps)`` and, given ``step_rows``, also the list of
    ``synchronous_step(memory, x)`` for x in inputs (else None) from one input pass.  The step
    rows are a copy of the inputs after the live rows in sweep 1: each visit decides them with the
    same product and key into their own z, and their overlaps never move, so sweep 1 is the
    synchronous step at their frozen m.  They are dropped after it.  W_i[mu, lev_i^mu - 1] =
    sigma_i^mu sits in the scratch w for its visit only; the products and keys are integers,
    exact in any summation order below 2**53, as ``Memory`` requires 4 M q N < 2**53."""
    z, m, scale, own = _lockstep_inputs(memory, inputs)  # z and m: the active rows
    max_sweeps = _check_retrieval(max_sweeps)
    n, q, kind, s = memory.n_neurons, memory.q, memory.kind, scale.size // memory.q
    buf = np.pad(memory._alpha * _KEY[kind][1], s * q - s)  # S (q - 1) zeros each side
    # step[z] = alpha s e_l for z = S (l - 1) + t with no (Q, q) table: row z starts z floats into
    # buf[S (q - 1):] and steps S back a column, so only column l - 1 meets alpha sign[t]
    step = as_strided(buf[s * q - s:], (s * q, q), (8, -8 * s), writeable=False)
    index = np.arange(len(inputs))  # input of each active row
    n_changed = np.zeros(len(inputs), dtype=np.int64)
    w = np.zeros((memory.n_patterns, q))
    flat_w, offsets = w.reshape(-1), np.arange(-1, w.size - 1, q)  # W_i[mu] at offsets + lev_i
    per = max(1, (1 << 18) // w.size)  # rows per block of the overlap update
    results: list = [None] * len(inputs)
    steps, live = None, len(inputs)  # live: the active rows; step rows follow them in sweep 1
    if step_rows:
        z, m = np.hstack([z, z]), np.vstack([m, m])

    for sweeps in range(1, max_sweeps + 1):
        start = z[:, :live].copy()
        base = s * q * np.arange(z.shape[1]) + np.arange(s)[:, None]
        for i in range(n):
            zi = z[i]
            at = memory._levels[i] + offsets
            flat_w[at] = memory._signs[i].astype(np.float64)  # same-type scatter: the faster
            new = _decide_keys(kind, scale, m @ w, zi, base, own[i].take(zi))
            zi[live:] = new[live:]  # the step rows take their update and so never move
            moved = (new != zi).nonzero()[0]
            if moved.size:
                d = step[new[moved]] - step[zi[moved]]  # fancy indexing reads only k rows
                for lo in range(0, moved.size, per):
                    m[moved[lo:lo + per]] += d[lo:lo + per] @ w.T
                zi[moved] = new[moved]
            flat_w[at] = 0
        if step_rows and sweeps == 1:
            steps = _patterns(memory, z[:, live:])
        changed = np.count_nonzero(z[:, :live] != start, axis=0)
        n_changed += changed
        done = (changed == 0) | (sweeps == max_sweeps)
        ends, keep = np.flatnonzero(done), np.flatnonzero(~done)  # below live: step rows go too
        for r, final in zip(ends, _patterns(memory, z[:, ends])):
            results[index[r]] = RetrievalResult(final, not changed[r], sweeps, int(n_changed[r]))
        index, z, m, n_changed, live = index[keep], z[:, keep], m[keep], n_changed[keep], keep.size
        if live == 0:
            break
    return results, steps


def energy(memory: Memory, state: Pattern) -> float:
    """E = -1/2 sum_i <x_i, h_i>; the 1/2 counts each symmetric pair once.

    sum_i <x_i, h_i> = m.m - sum_i J_ii[l_i, l_i], where the diagonal-block
    entry is J_ii[l, l] = (alpha^2 - 2 alpha beta) C_il + beta^2 M.  Strictly
    decreases under any accepted single-neuron update and is exact up to one
    float division (the sums are integers).
    """
    _check_state(memory, state)
    a, b = memory._alpha, memory._beta
    m = _overlaps(memory, state.signs, state.levels)
    c_l = memory._level_counts[np.arange(memory.n_neurons), state.levels - 1]
    diag = (a * a - 2 * a * b) * int(c_l.sum()) + b * b * memory.n_patterns * memory.n_neurons
    return -0.5 * (int(m @ m) - diag) / _field_denominator(memory)
