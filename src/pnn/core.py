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
comparisons bit-for-bit at any realistic size.  ``_overlaps`` compares the
stored codes in blocks of neurons that hold about ``_FILL_BLOCK`` codes, and
sums each block in int8 runs of 127 neurons.

A Memory stores each coordinate as one code and nothing else: the index c =
S (lev - 1) + [sigma = -1] of the stored state among a neuron's S q states
(S = 2 for PNN2, 1 for PNN3), as ``_lockstep`` indexes its inputs.  The
kernels read the kind only through S and (alpha, beta): past validation,
the kinds differ in the sign bit alone, and in the alignment rule, which
takes |D| and D's sign (PNN2) or D (PNN3) in each of its four forms.
``_codes_of`` codes states; ``_code_signs`` and ``_code_levels`` decode
their signs and levels, and ``_states`` both.  Every kernel
decides on one decision field (``_decision_field``), the scaled field over
alpha shifted alike at every level, which the alignment rule cannot tell
from the field itself; ``local_field`` builds the field from it.  The
kernels hold the overlaps plus beta, so that neuron i's sums of sigma_i m by
level already hold the field's beta term.  The asynchronous visit bins m by
stored code with ``bincount``, with no sign product: a PNN2 level's sum is
its + bin less its - bin, and decides by one scalar rule (``_visit_rule``).
After a run of unchanged visits it bins the D of the next neurons as one
block, through buffers made when the retrieval starts, and keeps them up to
the first that fails the quiet test (``_quiet_prefix``, ``_keeps``): D is
integral, so a visit keeps (s, l) exactly when s D_l >= max |D| (PNN2) or
D_l >= max D (PNN3).  That first mover's new state comes from its D row by
the same scalar rule; a move shifts m by an (S q)-entry table at the stored
codes.  ``synchronous_step`` decides all N neurons by the rule's vector form
(``_decide_block``).  ``retrieve_batch`` takes the sums as m @ W_i, the
(B, M) overlaps times neuron i's signed one-hot (M, q) matrix, and decides
a neuron in all B states by one argmax of an integer key (``_decide_keys``).
It has the same run-ahead: after ``_RUN_AHEAD`` visits in a row that moved
no live state, one stacked product of the next neurons' W_i gives their
sums at the current m, and the states are kept up to the first neuron that
moves one (``_lockstep_prefix``).  The W_i of a block and of a single visit
share one stack, made when the retrieval starts.  Sums and keys are
integers in float64, exact below 2**53.  Its kernel can also take the
synchronous step of its inputs in its first sweep.

At q = 1 (Hopfield) a neuron's decision field is one integer, D_i = sigma_i .
m - s_i M, and two neurons couple through one integer, N J_ij = sigma_i .
sigma_j, so ``retrieve_batch`` walks a Hopfield memory in blocks of
``_COUPLING_BLOCK`` neurons instead (``_coupling_walk``): one product gives
every input's D in a block, and only a block in which an input moves makes
its (K, K) couplings, corrects the D of its later neurons flip by flip, and
moves m by one product at its end (``_coupling_block``; a block with one
live input is walked in Python floats).  For q >= 2 a coupling is a q x q
block, q^2 times the work, so those memories keep the W_i walk.  A
sequential, untraced ``asynchronous_retrieve`` of a Hopfield memory takes
the coupling walk with one input; given an ``rng`` or a trace, and at
q >= 2, it keeps its one-neuron visit.

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


# about this many codes make one block of ``Memory._fill`` and of ``_overlaps``.  Measured for
# ``_fill`` at N = M = 2000, q = 16 (2-core x86-64, numpy 2.4, medians of 31 interleaved rounds):
# the block's transposed writes are per-row bound at 2**16 (32 patterns, 2,000 rows of 32 bytes),
# and building from (M, N) arrays took 41.8 ms at 2**18 against 47.1 ms at 2**16; at 2**19 the
# staged blocks lift the build's peak from 2.3 to 2.7 bytes per coordinate.
_FILL_BLOCK = 1 << 18

# about this many codes make one chunk of a ``_code_sums`` binning, so that its intp index and
# float64 weights buffers (256 KB each) stay in cache and are allocated once per retrieval; a
# lockstep run-ahead block's W stack holds at most this many floats
_BIN_CHUNK = 1 << 15

# neurons per block of the q = 1 coupling walk (``_coupling_walk``).  Measured on a 2-core x86-64
# host (numpy 2.4, OpenBLAS 0.3.31, medians of 9 interleaved rounds) at K = 8, 16, 32, 64, 128 and
# 256: dpnn-bench's 40-input Hopfield batch (N = 800, M = 200) took 12.9, 12.7, 12.7, 13.8, 17.6
# and 24.3 ms, and 40 inputs with step rows at N = 1000, M = 160 took 137, 127, 133, 145, 186 and
# 265 ms.  A block's products take K M B multiply-adds, under the 2**18 below which OpenBLAS keeps
# a product on one thread at dpnn's B = 40, but not at the batch cap: there (B = 128 and its step
# rows, N = 1000, M = 150) one thread and the default two read 280 and 286 ms (4 of 11
# interleaved rounds faster on two), as the walk's time goes to its per-neuron steps, not to them.
_COUPLING_BLOCK = 16

# after this many visits in a row that moved nothing, both retrieval engines decide the next
# neurons as one run-ahead block
_RUN_AHEAD = 8


class NetworkKind(Enum):
    """Architecture selector; Hopfield is PNN2 with q = 1."""

    PNN2 = "pnn2"
    PNN3 = "pnn3"


def _check_levels(levels: np.ndarray, q: int | None = None) -> None:
    """Raise LevelOutOfRange unless every level is a whole number in [1, q].

    Levels must be real (bool, integer or float dtype), and below 2**63,
    so that they cast to int64; only float and unsigned dtypes can hold
    larger values.  Finiteness is checked before ``% 1``, which warns on inf.
    """
    if levels.dtype.kind not in "biuf":
        raise LevelOutOfRange(f"levels need a bool, integer or float dtype, not {levels.dtype}")
    if levels.dtype.kind not in "iu":
        if not np.all(np.isfinite(levels)) or np.any(levels % 1 != 0):
            raise LevelOutOfRange("levels must be finite whole numbers")
        if levels.max() >= 2.0**63:
            raise LevelOutOfRange(f"level {levels.max()} does not fit in int64")
    elif levels.dtype == np.uint64 and levels.max() >= 2**63:  # no other unsigned type reaches it
        raise LevelOutOfRange(f"level {levels.max()} does not fit in int64")
    if levels.min() < 1:
        raise LevelOutOfRange("levels must be >= 1")
    if q is not None and levels.max() > q:
        raise LevelOutOfRange(f"level {int(levels.max())} exceeds q={q}")


def _check_values(signs, levels, q: int | None = None, unsigned: bool = False) -> None:
    """Raise unless signs are real +-1 (+1 when unsigned) and levels whole numbers in [1, q]."""
    if signs.dtype.kind not in "biuf" or not np.all(np.abs(signs) == 1):
        raise SignNotAllowed("signs must be -1 or +1")
    _check_levels(levels, q)
    if unsigned and np.any(signs != 1):
        raise SignNotAllowed("PNN3 states carry no sign; all signs must be +1")


def _codes_of(signs, levels, shift: int, dtype) -> np.ndarray:
    """The state codes ((l - 1) << shift) + [s = -1] of checked (signs, levels), with the sign
    bit for shift = 1 (PNN2) only, in the unsigned ``dtype`` that holds them.  l - 1 is cast,
    as l itself may not fit (PNN3 at q = 256)."""
    codes = (levels - 1).astype(dtype, copy=False)
    if shift:
        codes <<= 1
        codes |= signs < 0
    return codes


def _code_signs(memory: Memory, codes: np.ndarray) -> np.ndarray:
    """The int8 signs of ``memory``'s state codes: the sign bit of a PNN2 code (S = 2), else +1."""
    signs = (codes & memory._shift).astype(np.int8)
    signs *= -2
    signs += 1
    return signs


def _code_levels(memory: Memory, codes: np.ndarray) -> np.ndarray:
    """The levels of ``memory``'s state codes, in the narrowest unsigned type that holds q."""
    # l - 1, widened before the + 1; the shifted codes are a fresh array, so need no second copy
    levels = (codes >> memory._shift).astype(np.min_scalar_type(memory.q), copy=False)
    levels += 1
    return levels


def _states(memory: Memory, codes: np.ndarray):
    """The states of ``memory``'s state codes, the inverse of ``_codes_of``: their signs and
    levels, each decoded alone by ``_code_signs`` and ``_code_levels``."""
    return _code_signs(memory, codes), _code_levels(memory, codes)


def _bins(rows: int, count: int, width: int, weighted: bool = True):
    """Scratch for ``_code_sums`` of up to ``rows`` rows of ``count`` codes into ``width`` bins
    each, reusable across calls: an intp index buffer and (when ``weighted``, else None) a float64
    weights buffer of min(rows, max(1, _BIN_CHUNK // count)) rows, one binning chunk, and the
    offsets r * width at which chunk row r's bins start."""
    per = min(rows, max(1, _BIN_CHUNK // count))
    return (np.empty((per, count), np.intp), np.empty((per, count)) if weighted else None,
            np.arange(0, per * width, width)[:, None])


def _code_sums(codes: np.ndarray, width: int, m=None, bins=None) -> np.ndarray:
    """(N, width) table of sums over each row i of (N, M) codes, binned by code.

    Bin (i, c) counts the entries of row i whose code is c (int64), or,
    given an (M,) vector m, sums m[mu] over them (float64).  Binned one
    chunk of rows of the ``_bins`` scratch at a time (``bins``, else
    allocated here): the chunk's bincount index is written into the index
    buffer, and its weights are the rows of the weights buffer, each a copy
    of m made once per call, so no (N, M) temporary is allocated.  Every bin
    belongs to one row, hence one chunk, so no sum changes.
    """
    n, count = codes.shape
    index, weights, offsets = _bins(n, count, width, m is not None) if bins is None else bins
    per = len(index)
    if m is not None:
        weights[:min(n, per)] = m
    sums = None if n <= per else np.empty((n, width), dtype=np.int64 if m is None else np.float64)
    for lo in range(0, n, per):
        block = codes[lo:lo + per]
        at = index[:len(block)]
        np.add(block, offsets[:len(block)], out=at)
        part = np.bincount(at.ravel(), weights=None if m is None else weights[:len(block)].ravel(),
                           minlength=len(block) * width).reshape(-1, width)
        if sums is None:
            return part
        sums[lo:lo + per] = part
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

    @classmethod
    def _rows(cls, signs: np.ndarray, levels: np.ndarray) -> list["Pattern"]:
        """The Patterns of the rows of (k, N) int8 signs and unsigned levels the library drew,
        each a read-only view of its rows with no copy; the arrays are frozen.  As ``_freeze``
        narrows, a row whose highest level fits a narrower type is narrowed into a copy."""
        signs.setflags(write=False)
        levels.setflags(write=False)
        patterns = []
        for row_signs, row_levels in zip(signs, levels):
            pattern = object.__new__(cls)
            if row_levels.itemsize > 1:
                narrow = np.min_scalar_type(int(row_levels.max()))
                row_levels = row_levels.astype(narrow, copy=False)
                row_levels.setflags(write=False)
            pattern.signs, pattern.levels = row_signs, row_levels
            patterns.append(pattern)
        return patterns

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
    state codes and the (N, q) table ``_level_counts`` of how many patterns
    have level l at neuron i.  The codes are stored neuron-major: row i of
    ``_codes`` is neuron i of every pattern, contiguous, which is what one
    neuron visit reads.  A code is the stored state's index c = S (lev - 1)
    + [sigma = -1] among the neuron's S q states, S = 2 for PNN2 and 1 for
    PNN3 (``_shift`` is log2 S), in the narrowest unsigned type holding
    S q - 1.  So a Memory keeps 1 byte per coordinate for PNN2 up to
    q = 128 and PNN3 up to q = 256, and 2 bytes above.  ``pattern_signs``
    and ``pattern_levels`` are read-only (M, N) arrays derived from the
    codes on each call, so read them once, not per element.  Instances are
    safe to share across threads.  The constructor rejects
    invalid arrays with the same typed errors as ``build_memory``.
    """

    __slots__ = ("kind", "n_neurons", "q", "_codes", "_shift", "_alpha", "_beta", "_level_counts")

    def __init__(self, kind: NetworkKind, q: int, pattern_signs, pattern_levels):
        q = _network_q(kind, q)
        signs, levels = np.asarray(pattern_signs), np.asarray(pattern_levels)
        if signs.ndim != 2 or signs.shape != levels.shape or signs.size == 0:
            raise DimensionMismatch("signs and levels must be non-empty (M, N) arrays of one shape")
        self._fill(kind, q, *signs.shape, lambda lo, hi: (signs[lo:hi], levels[lo:hi]))

    def _fill(self, kind: NetworkKind, q: int, m: int, n: int, rows) -> "Memory":
        """Store, and return, the (M, N) patterns whose rows lo:hi are ``rows(lo, hi)``: blocks of
        max(1, _FILL_BLOCK // N) patterns are checked at their own dtype, coded, then written
        transposed."""
        if 4 * m * n * q >= 2**53:  # the largest batched key, 4 M q N, must be exact
            raise DimensionMismatch(f"4 M q N = {4 * m * n * q} must stay below 2**53")
        unsigned = kind is NetworkKind.PNN3
        shift = 0 if unsigned else 1
        codes = np.empty((n, m), np.min_scalar_type((q << shift) - 1))
        per = max(1, _FILL_BLOCK // n)
        for lo in range(0, m, per):
            block_signs, block_levels = rows(lo, lo + per)
            try:
                _check_values(block_signs, block_levels, q, unsigned)
            except PnnError:  # raise the input's first fault, as one check of all M rows does
                _check_values(*rows(0, m), q, unsigned)
                raise
            # coded before the transposing copy, so that it moves narrow elements
            codes[:, lo:lo + per] = _codes_of(block_signs, block_levels, shift, codes.dtype).T
        self.kind, self.q, self.n_neurons, self._shift = kind, q, n, shift
        # stored vector w = alpha * s * e_l - beta * e, in integers
        self._alpha, self._beta = (q, 1) if unsigned else (1, 0)
        counts = _code_sums(codes, q << shift)
        if shift:  # a level's count is the sum of its + and - code bins
            counts = counts[:, ::2] + counts[:, 1::2]
        for arr in (codes, counts):
            arr.setflags(write=False)
        self._codes, self._level_counts = codes, counts
        return self

    @property
    def pattern_signs(self) -> np.ndarray:
        """(M, N) read-only int8 array of the stored signs, derived from the codes on each call."""
        signs = _code_signs(self, self._codes).T
        signs.setflags(write=False)
        return signs

    @property
    def pattern_levels(self) -> np.ndarray:
        """(M, N) read-only array of the stored levels, derived from the codes on each call.

        Its dtype is the narrowest unsigned integer type that holds q (uint8
        up to q = 255), so cast before subtracting levels.
        """
        levels = _code_levels(self, self._codes).T
        levels.setflags(write=False)
        return levels

    def _pattern(self, mu: int) -> Pattern:
        """Stored pattern mu, decoded from one column of the codes, copied once to be read twice."""
        return Pattern._of(*_states(self, np.ascontiguousarray(self._codes[:, mu])))

    @property
    def n_patterns(self) -> int:
        return self._codes.shape[1]

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


def _whole(name: str, value, least: int = 1) -> int:
    """value as an int, checked to be a whole number >= least; a ValueError names it if not."""
    if not (value >= least and value % 1 == 0):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value}")
    return int(value)


# -- exact integer internals, scaled by N alpha^2 ---------------------------
#
# With sigma, lev the stored signs and levels and C = memory._level_counts:
#   <w_j^mu, x_j> = alpha sigma_j^mu s_j [lev_j^mu == l_j] - beta
#   J_ii e_l      = alpha^2 C_il e_l - alpha beta (C_i + C_il e) + beta^2 M e
# (beta is nonzero only for PNN3, whose signs are all +1).


def _overlaps(memory: Memory, signs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Scaled per-pattern overlaps m of the state (signs, levels), int64: the
    sum over neurons of <w_j^mu, x_j> = alpha sigma s [lev == l] - beta,
    from the stored codes and the state's code x at each neuron.  sigma s
    [lev == l] is [c == x], less [c == x ^ 1] for PNN2 (x ^ 1 is x's level
    with the other sign), as PNN3's stored and checked input signs are all
    +1.  It is kept in int8 and taken a block of neurons at a time: about
    _FILL_BLOCK // M neurons, rounded down to a multiple of 127 from 127 on,
    one neuron for M > _FILL_BLOCK.  Each block is compared once (twice for
    PNN2), and its int8 column sums of at most 127 neurons, which no partial
    sum leaves, are added into int64."""
    n, count, codes, shift = memory.n_neurons, memory.n_patterns, memory._codes, memory._shift
    per = max(1, _FILL_BLOCK // count)
    if per >= 127:
        per -= per % 127
    x = _codes_of(signs, levels, shift, codes.dtype)[:, None]
    sums = np.zeros(count, dtype=np.int64)
    for lo in range(0, n, per):
        block, at = codes[lo:lo + per], x[lo:lo + per]
        agree = (block == at).view(np.int8)
        if shift:
            agree -= (block == at ^ 1).view(np.int8)
        for part in range(0, len(agree), 127):
            sums += agree[part:part + 127].sum(axis=0, dtype=np.int8)
    sums *= memory._alpha
    sums -= memory._beta * n
    return sums


def _check_inputs(memory: Memory, inputs: Sequence[Pattern]) -> None:
    """Raise unless there is at least one input state and each is a state of ``memory``."""
    if len(inputs) == 0:
        raise DimensionMismatch("at least one input state is required")
    for state in inputs:
        _check_state(memory, state)


def _stack_inputs(memory: Memory, inputs: Sequence[Pattern]):
    """Check B input states; their neuron-major (N, B) int64 signs and
    levels, and their (B, M) float64 scaled overlaps plus beta, so that the
    sums of sigma_i m by level hold the decision field's beta C_i."""
    _check_inputs(memory, inputs)
    # int64 working copies: narrow levels would wrap in the kernels' index arithmetic
    signs = np.stack([p.signs for p in inputs], axis=1, dtype=np.int64)
    levels = np.stack([p.levels for p in inputs], axis=1, dtype=np.int64)
    m = np.stack([_overlaps(memory, p.signs, p.levels) for p in inputs]) + memory._beta
    return signs, levels, m.astype(np.float64)


def _field_denominator(memory: Memory) -> float:
    return float(memory.n_neurons * memory._alpha ** 2)


def _decision_field(memory: Memory, i: int, s: int, l: int, mb: np.ndarray) -> np.ndarray:
    """Scaled decision field D of neuron i in state (s, l), float64, from the overlaps plus beta,
    mb = m + beta (as ``_stack_inputs`` gives them): the sums of sigma_i mb by level, which hold
    beta C_i as PNN3 signs are all +1, less s alpha C_il at level l.  The sums are a ``bincount``
    of mb by stored code, a PNN2 level's + bin less its - bin.  The scaled field of
    ``local_field`` is alpha D - beta sum(m) - s (beta^2 M - alpha beta C_il), the same shift at
    every level, so the alignment rule picks the same state on D."""
    d = np.bincount(memory._codes[i], weights=mb, minlength=memory.q << memory._shift)
    if memory._shift:
        d = d[::2] - d[1::2]
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


def _block_field(memory: Memory, rows, s: np.ndarray, l: np.ndarray, mb: np.ndarray, bins=None):
    """The (r, q) decision fields D of neurons ``rows`` (a slice or an index array) in states
    (s, l) at the overlaps plus beta mb, binned as in ``_decision_field`` (through the ``_bins``
    scratch ``bins``, if given), and the index r q + l - 1 of each row's D_l in the flat D."""
    q = memory.q
    d = _code_sums(memory._codes[rows], q << memory._shift, mb, bins=bins)
    if memory._shift:
        d = d[:, ::2] - d[:, 1::2]
    at = np.arange(-1, len(s) * q - 1, q) + l
    d.reshape(-1)[at] -= memory._level_counts[rows].reshape(-1).take(at) * (memory._alpha * s)
    return d, at


def _decide_block(memory: Memory, s: np.ndarray, l: np.ndarray, mb: np.ndarray):
    """The (signs, levels) that all N neurons in states (s, l) take at the overlaps plus beta
    mb, each by the rule of an ``asynchronous_retrieve`` visit, the levels in the narrowest
    unsigned type that holds q."""
    d, at = _block_field(memory, slice(None), s, l, mb)
    key = np.abs(d) if memory._shift else d  # PNN3 takes no sign from D, so may overwrite it
    key.reshape(-1)[at] += 0.5
    level = key.argmax(axis=1)
    amp = d[np.arange(len(d)), level] if memory._shift else 0  # PNN3 keeps its sign, +1
    return np.where(amp > 0, 1, np.where(amp < 0, -1, s)), _as_levels(memory, level + 1)


def _as_levels(memory: Memory, levels: np.ndarray) -> np.ndarray:
    """Levels in the narrowest unsigned type that holds q, in which a Pattern freezes them with
    no max for q <= 255."""
    return levels.astype(np.min_scalar_type(memory.q))


def _visit_rule(d: np.ndarray, s: int, l: int, pnn2: bool):
    """The (sign, level) that a neuron in state (s, l) takes at its (q,) decision field D, as
    Python ints: the argmax of |D| (PNN2) or D (PNN3) with 1/2 added at level l, and D's sign
    there, a zero keeping s.  May overwrite a PNN3 D."""
    key = np.abs(d) if pnn2 else d  # PNN3 takes no sign from D, so may overwrite it
    key[l - 1] += 0.5  # exact, as Memory's bound keeps the integer |D| below 2**52
    level = int(key.argmax()) + 1
    amp = d.item(level - 1) if pnn2 else 0.0  # PNN3 keeps its sign, +1
    return (1 if amp > 0 else -1 if amp < 0 else s), level


def _keeps(d: np.ndarray, own: np.ndarray, s: np.ndarray, pnn2: bool) -> np.ndarray:
    """Whether ``_visit_rule`` keeps each row's state (s, l), from the rows' (r, q) decision
    fields D and own = D_l.  D is integral, so the 1/2 at level l turns the argmax into >=: a
    PNN2 row stays when s D_l >= max |D| (which also makes D_l's sign s, or D_l zero), a PNN3
    row when D_l >= max D."""
    if pnn2:
        return s * own >= np.abs(d).max(axis=1)
    return own >= d.max(axis=1)


def _quiet_prefix(memory: Memory, rows, s: np.ndarray, l: np.ndarray, mb: np.ndarray, bins):
    """How many of the neurons ``rows`` (a slice or an index array) in states (s, l) keep their
    state at the overlaps plus beta mb, before the first that moves, and that neuron's (q,)
    decision field D (None if none moves), binned through the ``_bins`` scratch ``bins``."""
    d, at = _block_field(memory, rows, s, l, mb, bins)
    quiet = _keeps(d, d.reshape(-1).take(at), s, memory._shift)
    first = int(quiet.argmin())
    return (len(s), None) if quiet[first] else (first, d[first])


# the signs of a level's S states, in code order: (+1, -1)[:S]
_SIGNS = np.array([1.0, -1.0])


def _lockstep_inputs(memory: Memory, states: Sequence[Pattern]):
    """Check B states.  Return their (N, B) int64 state indices z, z = S (l - 1) + [s = -1] among
    a neuron's Q = S q states (S = 2 for PNN2, 1 for PNN3); their (B, M) overlaps plus beta
    (``_stack_inputs``); the key's (Q,) scale 4 s' at each state z'; and the (N, Q)
    table of s (1/2 - 4 alpha C_il) at each z = (s, l), S floats per level count."""
    signs, levels, m = _stack_inputs(memory, states)
    sign = _SIGNS[:1 << memory._shift]
    signs_q = np.tile(sign, memory.q)
    own = (0.5 - 4 * memory._alpha * memory._level_counts).repeat(len(sign), axis=1)
    own *= signs_q
    return _codes_of(signs, levels, memory._shift, np.int64), m, 4 * signs_q, own


def _patterns(memory: Memory, z: np.ndarray) -> list[Pattern]:
    """The states of (N, B) state indices z, one Pattern a column."""
    signs, levels = _states(memory, z)
    return [Pattern._of(signs[:, r], levels[:, r]) for r in range(z.shape[1])]


def _decide_keys(scale, h: np.ndarray, z: np.ndarray, base, own):
    """The new state indices of one neuron in B states z, or of K neurons in B states each, from
    their (B, q) or (K, B, q) sums h: the argmax of an integer key, the alignment rule to the tie.
    ``scale`` and ``own`` (at z) are from ``_lockstep_inputs``; ``base``, shaped (S,) + z.shape,
    is Q times each state's position in z plus its sign slot.  At z = (s, l) the key of z' =
    (s', l') is 4 s' D_l' + 2 [l' = l] + [z' = z] for both kinds (a PNN3 state is its level, so
    its own key gets + 3), so 4 s' h_l' plus 5/2 + s' s (1/2 - 4 alpha C_il) at level l, with
    D_l's -s alpha C_il.  The scale keeps distinct D apart; the bonuses prefer the current level,
    then the current sign, so a zero D keeps it, then the lowest level.  The largest key, 4 M q
    N, is exact, as ``Memory`` keeps it below 2**53."""
    sign = _SIGNS[:len(base)]
    key = h.repeat(len(sign), axis=-1)  # state z' at [..., z']
    key *= scale
    key.reshape(-1)[base + (z & -len(sign))] += np.multiply.outer(sign, own) + 2.5  # z's level
    return key.argmax(axis=-1)


def _lockstep_prefix(scale, m: np.ndarray, w: np.ndarray, z: np.ndarray, i: int, base, own, live):
    """How many of the K neurons i, i + 1, ... come before the first that moves one of the first
    ``live`` of the B states z (N, B) at the overlaps plus beta m (K if none does), and the new
    state indices (K, B) of them all, from their (K, M, q) stack w of W_i and by
    ``_decide_keys``, whose ``scale``, ``base`` and ``own`` table ``_lockstep`` passes on.  Each
    neuron's sums are one (B, M) @ (M, q) product, as a single visit's are."""
    zk, ks = z[i:i + len(w)], own.shape[1] * np.arange(len(w))[:, None]  # ks: Q per neuron
    new = _decide_keys(scale, np.matmul(m, w), zk, base[:, None] + ks * len(m),
                       own[i:i + len(w)].reshape(-1).take(zk + ks))
    moves = (new[:, :live] != zk[:, :live]).any(axis=1)
    first = int(moves.argmax())
    return (first if moves[first] else len(w)), new


def synchronous_step(memory: Memory, state: Pattern) -> Pattern:
    """One parallel update of all neurons from fields on the input state: one
    ``_decide_block`` of all N neurons at the state's fixed overlaps, each by
    the rule of an ``asynchronous_retrieve`` visit."""
    signs, levels, m = _stack_inputs(memory, [state])
    return Pattern._of(*_decide_block(memory, signs[:, 0], levels[:, 0], m[0]))


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
    On a change from (s, l) to (s', l') an (S q)-entry table by stored code
    holds alpha s' sigma at each code of level l' and -alpha s sigma at each
    code of level l, and the overlaps move by the table at neuron i's stored
    codes, so a visit costs O(M + q).  Energy never increases.  After k >= 8
    unchanged visits in a row, across sweeps, the D of the next k neurons of
    the sweep (8 or more, cut at its end) are binned as one block at the
    current overlaps, through buffers made when the call starts, and the
    neurons are kept up to the first that a visit would move, as nothing
    moves before it.  D is integral, so the 1/2 makes the rule keep (s, l)
    exactly when s D_l >= max |D| (PNN2) or D_l >= max D (PNN3); that one
    comparison a row finds the first mover, whose new state its D row gives
    by the same scalar rule as a single visit's.  Neurons
    are visited in sequential order, or, given ``rng``, in a fresh
    ``rng.permutation(N)`` each sweep; ``retrieve_batch`` relaxes many inputs
    at once in sequential order.  A sequential, untraced call on a Hopfield
    memory (q = 1) is ``retrieve_batch`` of the one input, whose coupling
    walk gives the same result: at dpnn-bench's Hopfield memory (N = 800,
    M = 200) an input took 2.7-3.0 ms there against 6.0-9.4 ms by the visits
    (2-core x86-64, numpy 2.4).  Raises ValueError for an ``rng`` that is
    neither None nor a ``np.random.Generator``.
    """
    if not (rng is None or isinstance(rng, np.random.Generator)):
        raise ValueError(f"rng must be None or a numpy Generator, got {rng!r}")
    if memory.q == 1 and rng is None and not record_trace:  # the q = 1 coupling walk
        return _lockstep(memory, [input_state], max_sweeps)[0][0]
    signs, levels, m = _stack_inputs(memory, [input_state])
    signs, levels, m = signs[:, 0], _as_levels(memory, levels[:, 0]), m[0]
    max_sweeps = _whole("max_sweeps", max_sweeps)

    n, a, shift = memory.n_neurons, memory._alpha, memory._shift
    step = np.zeros(memory.q << shift)  # the overlap step by stored code; zero between changes
    bins = _bins(n, memory.n_patterns, memory.q << shift)  # the run-ahead's binning scratch
    trace: list[Pattern] | None = [] if record_trace else None

    changed_total = run = 0  # run: the unchanged visits since the last change
    for sweeps in range(1, max_sweeps + 1):
        perm = None if rng is None else rng.permutation(n)
        visit = range(n) if perm is None else perm.tolist()
        changed_this_sweep = k = 0
        while k < n:
            if run >= _RUN_AHEAD and n - k >= _RUN_AHEAD:  # run-ahead: the next run neurons at once
                rows = slice(k, k + run) if perm is None else perm[k:k + run]
                s, l = signs[rows], levels[rows]
                size, (quiet, d) = len(s), _quiet_prefix(memory, rows, s, l, m, bins)
                if quiet < size:  # Python ints, which a narrow level's code arithmetic needs
                    s, l = int(s[quiet]), int(l[quiet])
                    sign, level = _visit_rule(d, s, l, shift)
            else:
                s, l = signs.item(visit[k]), levels.item(visit[k])
                sign, level = _visit_rule(_decision_field(memory, visit[k], s, l, m), s, l, shift)
                size, quiet = 1, int(sign == s and level == l)
            run, k = run + quiet, k + quiet
            if trace is not None and quiet:
                trace.extend([Pattern._of(signs, levels)] * quiet)
            if quiet == size:
                continue
            i = visit[k]  # neuron i moves from (s, l) to (sign, level)
            signs[i], levels[i] = sign, level
            old, new = (l - 1) << shift, (level - 1) << shift  # the + code of each level
            step[old] = -a * s
            step[new] += a * sign
            if shift:  # PNN2: a level's - code steps against its + code
                step[old + 1], step[new + 1] = -step[old], -step[new]
            m += step.take(memory._codes[i])
            step[old:old + 1 + shift] = step[new:new + 1 + shift] = 0.0
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
    bit for bit.  For q >= 2 a visit to neuron i scatters its signed one-hot
    (M, q) matrix W_i into a zeroed scratch and decides every still-active
    input from its sums m @ W_i (``_decide_keys``).  The k inputs that moved from z to z' add
    (step[z'] - step[z]) @ W_i^T to their overlaps, step[z] = alpha s e_l,
    in products of at most 2**18 multiply-adds, which OpenBLAS keeps on one
    thread.  A sweep changes a neuron at most once, so its changes are the
    neurons that differ from its start.  An input drops out after the first
    sweep that changes nothing in it.  After a quiet stretch it decides the
    next neurons at once (see ``_key_walk``).  A Hopfield memory (q = 1)
    is walked in blocks of consecutive neurons instead, through their
    one-integer couplings (see ``_coupling_walk``).  For q >= 2 one input is
    faster serially: alone, an input took 2.1-4.0 times as long here as in
    ``asynchronous_retrieve`` (2-core x86-64, numpy 2.4; PNN2 q = 4 and 16
    and PNN3 q = 16 at N = 200, M = 400, and PNN2 q = 16 at N = M = 2000).
    At q = 1 it is not, so a sequential, untraced ``asynchronous_retrieve``
    of a Hopfield memory runs this walk with its one input."""
    return _lockstep(memory, inputs, max_sweeps)[0]


def _lockstep(memory: Memory, inputs: Sequence[Pattern], max_sweeps: int, step_rows: bool = False):
    """``retrieve_batch(memory, inputs, max_sweeps)`` and, given ``step_rows``, also the list of
    ``synchronous_step(memory, x)`` for x in inputs (else None) from one input pass.  The step
    rows are a copy of the inputs after the live rows in sweep 1: each visit decides them as it
    decides the live rows, into their own state, and their overlaps never move, so sweep 1 is the
    synchronous step at their frozen m.  They are dropped after it.  A sweep is walked by
    ``_coupling_walk`` for q = 1 (Hopfield) and by ``_key_walk`` for every other memory; both
    hold the (B, M) float64 overlaps m and take integer products and sums, exact in any
    summation order below 2**53, as ``Memory`` requires 4 M q N < 2**53.  A sweep changes a
    neuron at most once, so its changes are the neurons that differ from its start, and a row
    ends after the first sweep that changes nothing in it."""
    hopfield = memory.q == 1
    z, m, sweep = (_coupling_walk if hopfield else _key_walk)(memory, inputs)  # the active rows
    max_sweeps = _whole("max_sweeps", max_sweeps)
    index = np.arange(len(inputs))  # input of each active row
    n_changed = np.zeros(len(inputs), dtype=np.int64)
    results: list = [None] * len(inputs)
    steps, live = None, len(inputs)  # live: the active rows; step rows follow them in sweep 1
    if step_rows:
        z, m = np.hstack([z, z]), np.vstack([m, m])

    def patterns(z):  # the coupling walk holds signs, whose state codes are [s = -1]
        return _patterns(memory, (z < 0).view(np.uint8) if hopfield else z)

    for sweeps in range(1, max_sweeps + 1):
        start = z[:, :live].copy()
        sweep(z, m, live)
        if step_rows and sweeps == 1:
            steps = patterns(z[:, live:])
        changed = np.count_nonzero(z[:, :live] != start, axis=0)
        n_changed += changed
        done = (changed == 0) | (sweeps == max_sweeps)
        ends, keep = np.flatnonzero(done), np.flatnonzero(~done)  # below live: step rows go too
        for r, final in zip(ends, patterns(z[:, ends])):
            results[index[r]] = RetrievalResult(final, not changed[r], sweeps, int(n_changed[r]))
        index, z, m, n_changed, live = index[keep], z[:, keep], m[keep], n_changed[keep], keep.size
        if live == 0:
            break
    return results, steps


def _key_walk(memory: Memory, inputs: Sequence[Pattern]):
    """The sweep of ``_lockstep`` for q >= 2: the inputs' (N, B) int64 state indices z and (B, M)
    overlaps plus beta m (``_lockstep_inputs``), and ``sweep(z, m, live)``, which walks one
    sweep over them in place.  W_i[mu, lev_i^mu - 1] = sigma_i^mu sits in a zeroed (cap, M, q)
    stack, made here, for its visit only: a visit's W_i in stack[0], a run-ahead block's in its
    first slots, all scattered and cleared through one flat view.  A visit decides every row from
    its sums m @ W_i by ``_decide_keys``; the k live rows that moved from z to z' add (step[z'] -
    step[z]) @ W_i^T to their overlaps, step[z] = alpha s e_l, in products of at most 2**18
    multiply-adds, which OpenBLAS keeps on one thread.

    Run-ahead: once ``_RUN_AHEAD`` visits in a row have moved no live row, the next neurons, as
    many as that run, are decided at once at the current m by ``_lockstep_prefix``.  A block is
    cut at the end of the chunk of decoded stored rows and at cap = max(1, _BIN_CHUNK // (M
    max(q, 4))) neurons, so that the stack holds at most ``_BIN_CHUNK`` floats, or one W_i, and
    a block's scatter index a quarter of that.  A block of one is a visit, so from M max(q, 4) >
    _BIN_CHUNK / 2 on (N = M = 2000, q = 16, say) there are only visits.  Each neuron's sums
    are its own (B, M) @ (M, q) product, as in a visit: one wide product would wake OpenBLAS's
    helper thread.  Before the first neuron that moves a live row no live m moves, so each
    decision before it is its visit's: the live rows keep their states and the step rows take
    their update.  The first mover, decided at the m of its own visit, is moved as a visit moves
    it, and the walk goes on after it."""
    z, m, scale, own = _lockstep_inputs(memory, inputs)
    n, q, s = memory.n_neurons, memory.q, 1 << memory._shift
    buf = np.pad(memory._alpha * _SIGNS[:s], s * q - s)  # S (q - 1) zeros each side
    # step[z] = alpha s e_l for z = S (l - 1) + t with no (Q, q) table: row z starts z floats into
    # buf[S (q - 1):] and steps S back a column, so only column l - 1 meets alpha sign[t]
    step = as_strided(buf[s * q - s:], (s * q, q), (8, -8 * s), writeable=False)
    neurons = max(1, _BIN_CHUNK // memory.n_patterns)  # neurons per chunk of decoded stored rows
    cap = max(1, _BIN_CHUNK // (memory.n_patterns * max(q, 4)))  # neurons per run-ahead block
    # the W stack: a visit's W_i at stack[0], a block's k-th at stack[k], and W_k[mu] at
    # offsets[k, mu] + lev in the flat view
    stack = np.zeros((cap, memory.n_patterns, q))
    flat, offsets = stack.reshape(-1), np.arange(-1, stack.size - 1, q).reshape(cap, -1)
    per = max(1, (1 << 18) // stack[0].size)  # rows per block of the overlap update
    run = 0  # the visits since the last that moved a live row

    def sweep(z: np.ndarray, m: np.ndarray, live: int) -> None:
        nonlocal run
        base = s * q * np.arange(z.shape[1]) + np.arange(s)[:, None]
        for chunk in range(0, n, neurons):
            # sigma_i and lev_i of every stored pattern, decoded once for a chunk of neurons
            signs, levels = _states(memory, memory._codes[chunk:chunk + neurons])
            signs = signs.astype(np.float64)
            i, end = chunk, chunk + len(levels)
            while i < end:
                if run >= _RUN_AHEAD and (size := min(run, end - i, cap)) > 1:
                    # run-ahead: the next neurons of the chunk decided at once at the current m
                    rows = slice(i - chunk, i - chunk + size)
                    at = levels[rows] + offsets[:size]
                    flat[at] = signs[rows]
                    quiet, new = _lockstep_prefix(scale, m, stack[:size], z, i, base, own, live)
                    z[i:i + quiet, live:] = new[:quiet, live:]  # the step rows' updates
                    if quiet == size:
                        flat[at] = 0
                        run, i = run + size, i + size
                        continue
                    # the first mover, decided at the m of its own visit, is moved as one
                    i, new, wi = i + quiet, new[quiet], stack[quiet]
                    zi = z[i]
                else:
                    zi, wi = z[i], stack[0]
                    at = levels[i - chunk] + offsets[0]
                    flat[at] = signs[i - chunk]  # same-type scatter: the faster
                    new = _decide_keys(scale, m @ wi, zi, base, own[i].take(zi))
                zi[live:] = new[live:]  # the step rows take their update and so never move
                moved = (new != zi).nonzero()[0]
                if moved.size:
                    d = step[new[moved]] - step[zi[moved]]  # fancy indexing reads only k rows
                    for lo in range(0, moved.size, per):
                        m[moved[lo:lo + per]] += d[lo:lo + per] @ wi.T
                    zi[moved] = new[moved]
                flat[at] = 0
                run = 0 if moved.size else run + 1
                i += 1

    return z, m, sweep


def _coupling_walk(memory: Memory, inputs: Sequence[Pattern]):
    """The sweep of ``_lockstep`` for q = 1: the inputs' (N, B) float64 signs x and (B, M)
    overlaps m = x^T sigma, and ``sweep(x, m, live)``, which walks one sweep over them in place.

    At q = 1 neuron i's decision field is one integer, D_i = sigma_i . m - s_i M, and a row
    moves there exactly when s D_i < 0, that is s sigma_i . m < M (a zero keeps the sign).  Two
    neurons couple through one integer, N J_ij = sigma_i . sigma_j, so the sweep walks
    ``_COUPLING_BLOCK`` neurons at a time: one (K, M) @ (M, B) product gives sigma_i . m for
    every row, the live rows are walked through the block by ``_coupling_block`` only when one
    of them moves in it, and the step rows take their decisions and nothing else.  For q >= 2 a
    coupling is a q x q block, q^2 times the work, so the other memories take ``_key_walk``.
    The stored signs are decoded a block at a time into one scratch, for the overlaps here and
    again in every sweep."""
    _check_inputs(memory, inputs)
    x = np.stack([p.signs for p in inputs], axis=1, dtype=np.float64)
    n, count = memory.n_neurons, memory.n_patterns
    blocks = [slice(lo, lo + _COUPLING_BLOCK) for lo in range(0, n, _COUPLING_BLOCK)]
    scratch = np.empty((min(n, _COUPLING_BLOCK), count))

    def sigma(rows: slice) -> np.ndarray:  # the stored signs of neurons rows: _SIGNS at a code
        codes = memory._codes[rows]
        return _SIGNS.take(codes, out=scratch[:len(codes)], mode="clip")

    m = np.zeros((len(inputs), count))
    for rows in blocks:
        m += x[rows].T @ sigma(rows)

    def sweep(x: np.ndarray, m: np.ndarray, live: int) -> None:
        for rows in blocks:
            sig, s = sigma(rows), x[rows]
            h = sig @ m.T  # (K, B): sigma_i . m
            moves = s * h < count
            if live < len(m):  # the step rows take their decisions, at their frozen m
                np.negative(s[:, live:], out=s[:, live:], where=moves[:, live:])
            if moves[:, :live].any():
                _coupling_block(sig, h[:, :live], s[:, :live], m[:live], moves[:, :live])

    return x, m, sweep


def _coupling_block(sig: np.ndarray, h: np.ndarray, s: np.ndarray, m: np.ndarray,
                    moves: np.ndarray) -> None:
    """Walk B live rows through one block of K neurons in order, in place, given the block's
    (K, M) stored signs sig, the rows' (K, B) signs s and sums h = sigma_i . m at the block's
    start, their (B, M) overlaps m, and whether each row moves at each neuron at that start.
    A neuron's decision stands once the walk has passed it.  A row that flips neuron i, s to
    -s, moves sigma_j . m by -2 s N J_ji for each later neuron j, so the walk corrects that row's
    h, decides its later neurons again, and goes on to the next neuron at which a row moves.
    The (K, K) couplings are made here, for a block that has a mover, and m moves once, by the
    (B, K) @ (K, M) product of the flips and the stored signs.  One row (B = 1, as every
    sequential, untraced ``asynchronous_retrieve`` of a Hopfield memory gives, and a batch once
    its other rows have ended) is walked in Python floats: h, s and the couplings are read once
    as lists, and each flip corrects the later neurons' h in a plain loop, where the numpy walk
    pays about ten calls a mover.  For B > 1 the numpy walk stays: walking each of dpnn-bench's
    40 rows in Python took 18.9-19.0 ms a batch against its 13.0-14.6 ms (2-core x86-64,
    numpy 2.4)."""
    couple = sig @ sig.T  # N J_ij off the diagonal, doubled below
    couple *= 2.0
    count = sig.shape[1]
    if len(m) == 1:  # one row: the same walk in Python floats, with no numpy call a neuron
        hs, ss, couple = h[:, 0].tolist(), s[:, 0].tolist(), couple.tolist()
        flips = [0.0] * len(ss)
        for i, si in enumerate(ss):
            if si * hs[i] < count:
                flips[i] = -2.0 * si
                row = couple[i]
                for j in range(i + 1, len(ss)):
                    hs[j] -= row[j] * si
        delta = np.array(flips)[:, None]
    else:
        i = int(moves.any(axis=1).argmax())  # the first neuron at which a row moves
        while i < len(s):
            flip = s[i] * moves[i]  # s where the row moves at neuron i, else 0
            later = slice(i + 1, None)
            h[later] -= np.multiply.outer(couple[i, later], flip)
            np.less(s[later] * h[later], count, out=moves[later])
            ahead = np.logical_or.reduce(moves[later], axis=1).nonzero()[0]
            i += 1 + (int(ahead[0]) if ahead.size else len(s))
        delta = s * moves  # each row's flips: s' - s = -2 s
        delta *= -2.0
    s += delta
    m += delta.T @ sig


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
