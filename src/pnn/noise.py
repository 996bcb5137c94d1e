"""Seeded pattern ensembles and the two distortion channels.

Sign noise ``a`` flips a coordinate's sign with probability a; level noise
``b`` replaces a coordinate's level with a uniform draw over the q-1 *other*
levels with probability b.  So b is the probability that the level actually
changes (the observable event).  Binary helpers cover the q=1 case used by
the decorrelating pipeline.

All generators are pure functions of their arguments and the supplied
``numpy`` Generator (see :mod:`pnn.rng`): same seed and stream, same output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

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
    states (all signs +1).
    """
    draws = _qnary_draws(m, n, q, kind, rng)
    # rows in this type freeze with no max for q <= 255 (PNN3 rows are drawn in it)
    narrow = np.min_scalar_type(int(q))
    return [Pattern._of(signs, levels.astype(narrow, copy=False)) for signs, levels in draws]


def _qnary_arrays(
    m: int, n: int, q: int, kind: NetworkKind, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The patterns of ``random_qnary_patterns`` as (M, N) int8 signs and levels in the
    narrowest unsigned type that holds q, one row a pattern, with no Pattern built."""
    draws = _qnary_draws(m, n, q, kind, rng)
    signs, levels = np.empty((m, n), dtype=np.int8), np.empty((m, n), np.min_scalar_type(int(q)))
    for mu, (row_signs, row_levels) in enumerate(draws):
        signs[mu], levels[mu] = row_signs, row_levels
    return signs, levels


def _qnary_draws(m: int, n: int, q: int, kind: NetworkKind, rng: np.random.Generator):
    """Check the arguments of ``random_qnary_patterns``, kind and q as a ``Memory`` checks them;
    return an iterator over its M patterns' (signs, levels).  A PNN2 pattern is drawn when
    reached: its levels (int64), then its signs.  PNN3 levels come from (k, N) draws of about
    2**16 levels, which yield the values, and leave the generator in the state, of k draws of N;
    each is cast, as drawn, to the narrowest type holding q, so no int64 copy of all M patterns
    is made."""
    q, m, n = _network_q(kind, q), _whole("m", m), _whole("n", n)
    if kind is NetworkKind.PNN3:
        per, narrow = max(1, (1 << 16) // n), np.min_scalar_type(q)
        blocks = (rng.integers(1, q + 1, size=(min(per, m - lo), n)).astype(narrow)
                  for lo in range(0, m, per))
        return zip(repeat(np.ones(n, dtype=np.int8)), chain.from_iterable(blocks))
    draws = (rng.integers(1, q + 1, size=n) for _ in range(m))
    return ((2 * rng.integers(0, 2, size=n) - 1, levels) for levels in draws)  # levels, then signs


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
