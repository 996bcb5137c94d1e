"""Seeded pattern ensembles and the two distortion channels.

Sign noise ``a`` flips a coordinate's sign with probability a; level noise
``b`` replaces a coordinate's level with a uniform draw over the q-1 *other*
levels with probability b.  So b is the probability that the level actually
changes (the observable event).  Binary helpers cover the q=1 case used by
the decorrelating pipeline.

All generators are pure functions of their arguments and the supplied
``numpy`` Generator (see :mod:`pnn.rng`): same seed and stream, same output.
A q-ary pattern set is drawn in blocks of about 2**16 draws, with the values
and the generator state of one ``integers`` call for each pattern's levels
and (PNN2) one for its signs; a PNN2 block maps raw 32-bit generator words
as numpy maps them, which bounds q at 2**32 for drawn patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NetworkKind, Pattern, _network_q, _whole
from .dpnn import _as_signs
from .errors import LevelOutOfRange


@dataclass(frozen=True)
class NoiseSpec:
    """Distortion rates: sign-flip probability a, level-change probability b."""

    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must be in [0, 1], got {self.a}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


def random_qnary_patterns(
    m: int, n: int, q: int, kind: NetworkKind, rng: np.random.Generator
) -> list[Pattern]:
    """M random patterns with i.i.d. equiprobable coordinates.

    PNN2 coordinates are uniform over 2q signed states, PNN3 over q unsigned
    states (all signs +1).  The draws, and the generator state they leave, are
    those of M draws of ``rng.integers(1, q + 1, size=n)`` each followed (PNN2)
    by ``rng.integers(0, 2, size=n)`` for the signs.  Raises LevelOutOfRange
    for q above 2**32, the largest range numpy draws from one 32-bit word.
    Each Pattern views one row of its block's read-only arrays.
    """
    m, n, q = _whole("m", m), _whole("n", n), _drawn_q(kind, q)
    patterns = []
    for signs, levels in _qnary_blocks(m, n, q, kind, rng):
        patterns += Pattern._rows(signs, levels)
    return patterns


def _qnary_arrays(
    m: int, n: int, q: int, kind: NetworkKind, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The patterns of ``random_qnary_patterns`` as (M, N) int8 signs and levels in the
    narrowest unsigned type that holds q, one row a pattern, with no Pattern built."""
    m, n, q = _whole("m", m), _whole("n", n), _drawn_q(kind, q)
    signs, levels = np.empty((m, n), dtype=np.int8), np.empty((m, n), np.min_scalar_type(q))
    lo = 0
    for block_signs, block_levels in _qnary_blocks(m, n, q, kind, rng):
        hi = lo + len(block_levels)
        signs[lo:hi], levels[lo:hi] = block_signs, block_levels
        lo = hi
    return signs, levels


_WORD = 1 << 32  # numpy draws from a range up to 2**32 with one 32-bit word per value
_BLOCK = 1 << 16  # draws per block


def _drawn_q(kind: NetworkKind, q) -> int:
    """q as an int, checked as a ``Memory`` checks it (kind too) and to be at most 2**32."""
    q = _network_q(kind, q)
    if q > _WORD:
        raise LevelOutOfRange(f"drawn patterns need q <= 2**32, got q={q}")
    return q


def _qnary_blocks(m: int, n: int, q: int, kind: NetworkKind, rng: np.random.Generator):
    """Yield the checked arguments' M patterns as (k, N) blocks of int8 signs and levels in the
    narrowest unsigned type that holds q, each block about 2**16 draws.

    PNN3 levels come from one ``rng.integers(1, q + 1, size=(k, N))`` call, which yields the
    values, and leaves the generator in the state, of k calls of size N.  A PNN2 block is k
    patterns of w = N [q > 1] + N words from one call for uint32 words, which takes one 32-bit
    word from the bit generator per value, and each pattern's words are its levels, then its
    signs.  numpy maps a word x to the level floor(x q / 2**32) + 1 and rejects, and replaces
    with the next word, an x with (x q) mod 2**32 < 2**32 mod q (Lemire's method); a sign is
    2 (x >> 31) - 1, which no word is rejected for.
    """
    narrow = np.min_scalar_type(q)
    if kind is NetworkKind.PNN3:
        per, ones = max(1, _BLOCK // n), np.ones(n, dtype=np.int8)
        for lo in range(0, m, per):
            k = min(per, m - lo)
            yield np.broadcast_to(ones, (k, n)), rng.integers(1, q + 1, size=(k, n)).astype(narrow)
        return
    w = n + n * (q > 1)
    per = max(1, _BLOCK // w)
    for lo in range(0, m, per):
        k = min(per, m - lo)
        words = rng.integers(0, _WORD, size=k * w, dtype=np.uint32)
        if q == 1:
            yield _signs(words.reshape(k, n)), np.ones((k, n), dtype=narrow)
            continue
        if _WORD % q:  # q is not a power of 2, so numpy can reject a level word
            words = _drop_rejected(words, k, n, q, rng)
        pairs = words.reshape(k, 2, n)
        levels = pairs[:, 0].astype(np.uint64)
        levels *= q  # in place: below 2**64, and faster than a fresh product
        levels >>= 32
        levels = levels.astype(narrow, copy=False)
        levels += 1
        yield _signs(pairs[:, 1]), levels


def _signs(words: np.ndarray) -> np.ndarray:
    """The int8 signs 2 (x >> 31) - 1 numpy draws from uint32 words x for ``integers(0, 2)``."""
    return 2 * (words >> 31).astype(np.int8) - 1


def _drop_rejected(words: np.ndarray, k: int, n: int, q: int, rng) -> np.ndarray:
    """A block of k PNN2 patterns' 2 k N words with each level word numpy rejects dropped, and
    as many more words drawn at the end of the block as were dropped.

    A word is rejected when (x q) mod 2**32 < 2**32 mod q.  A pattern's levels are the first N
    kept words from where its run starts, and its signs the N words after them, so a dropped
    word moves every later run.  Each round walks the runs over the words drawn so far and draws
    one more word for each word their level runs drop, never more than the block still needs,
    until the k runs end exactly at the last word.
    """
    threshold = _WORD % q
    if not (words.reshape(k, 2, n)[:, 0] * np.uint32(q) < threshold).any():
        return words  # the common case: a word is rejected with probability below q / 2**32
    while True:
        kept = words * np.uint32(q) >= threshold  # the uint32 product wraps mod 2**32
        before = np.concatenate(([0], np.cumsum(kept)))  # kept words before each index
        drop, start = [], 0
        for _ in range(k):
            end = int(np.searchsorted(before, before[start] + n))  # just past the N-th kept word
            drop.append(start + np.flatnonzero(~kept[start:end]))
            start = end + n
            if start > len(words):  # the run outlasts the words
                break
        drop = np.concatenate(drop)
        if start == len(words):
            return np.delete(words, drop)
        more = rng.integers(0, _WORD, size=2 * k * n + len(drop) - len(words), dtype=np.uint32)
        words = np.concatenate((words, more))


def apply_qnary_noise(
    pattern: Pattern, q: int, spec: NoiseSpec, rng: np.random.Generator
) -> Pattern:
    """Distort each coordinate independently per ``spec``.

    A triggered level replacement never reproduces the old level.  With q=1
    there are no other levels, so only the sign channel acts.  Raises
    LevelOutOfRange unless q is a whole number >= the pattern's highest level.
    """
    if not (q % 1 == 0 and q >= pattern.levels.max()):
        raise LevelOutOfRange(f"q must be a whole number >= every level, got {q}")
    signs, levels = pattern.signs.copy(), pattern.levels
    n = len(pattern)
    if spec.a > 0:
        flip = rng.random(n) < spec.a
        signs[flip] = -signs[flip]
    if spec.b > 0 and q > 1:
        hit = rng.random(n) < spec.b
        shifted = levels + rng.integers(1, q, size=n)  # int64, in [2, 2q - 1]
        shifted[shifted > q] -= int(q)
        levels = np.where(hit, shifted, levels)
    # a type that holds q, so that a Pattern freezes the levels with no max for q <= 255
    return Pattern._of(signs, levels.astype(np.min_scalar_type(int(q)), copy=False))


def apply_binary_noise(y: np.ndarray, a: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each +-1 coordinate independently with probability a.  y is checked as
    ``map_binary`` checks it, with the same errors."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must be in [0, 1], got {a}")
    out = _as_signs(y)  # a fresh int8 copy
    flip = rng.random(out.size) < a
    out[flip] = -out[flip]
    return out


def correlated_binary_patterns(
    m: int, n: int, overlap_fraction: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """M +-1 vectors sharing a random template.

    Each coordinate copies the template with probability ``overlap_fraction``
    and is drawn uniformly otherwise, giving strongly correlated ensembles
    for stress-testing binary retrieval.
    """
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError(f"overlap_fraction must be in [0, 1), got {overlap_fraction}")
    m, n = _whole("m", m), _whole("n", n)
    template = (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)
    patterns = []
    for _ in range(m):
        fresh = (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)
        copy_mask = rng.random(n) < overlap_fraction
        patterns.append(np.where(copy_mask, template, fresh).astype(np.int8))
    return patterns
