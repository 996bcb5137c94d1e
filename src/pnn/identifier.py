"""Pattern-number identification via enumerated coordinates.

Instead of retrieving all N coordinates of a stored pattern, each pattern is
extended with n = ceil(log_q M) extra coordinates spelling its index in base
q, and only the couplings between enumerated and true coordinates are kept
(centered Hebbian form on both sides).  Identification then needs exactly n
field evaluations: each enumerated coordinate's field, driven by the N true
coordinates of the (noisy) input, points at the pattern's digit directly.
Couplings among enumerated coordinates are zero, so whatever digits the
input is seeded with cannot influence the answer, and iterating cannot help;
one pass is all there is.

The true coordinates are those of a PNN3 ``Memory``, which stores each
level as q e_l - e, q times the centered e_l - e/q, and whose per-pattern
overlaps with the input are the drive of every enumerated field.

The pattern body itself is never retrieved here; once the number is known
the caller looks the pattern up (here: list indexing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Memory, NetworkKind, Pattern, build_memory
from .core import _check_levels, _check_state, _field_denominator, _overlaps
from .errors import DimensionMismatch, IndexOutOfRange, UnknownPattern


def digit_count(m: int, q: int) -> int:
    """Base-q digits needed to number m patterns: ceil(log_q m), at least 1."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    n = 1
    span = q
    while span < m:
        span *= q
        n += 1
    return n


def asymptotic_digit_estimate(n_true: int, q: int) -> float:
    """Digit count when m sits at the unsigned network's capacity: 2 + ln N / ln q."""
    if n_true < 2 or q < 2:
        raise ValueError("need n_true >= 2 and q >= 2")
    return 2.0 + math.log(n_true) / math.log(q)


@dataclass
class OpCounter:
    """Instrumentation for the one-pass claim."""

    enumerated_field_evals: int = 0


class IdentifierNet:
    """A PNN3 memory of M patterns plus their base-q index digits, cross-coupled only.

    ``memory`` holds the true coordinates; ``digit_codes[mu]`` is the base-q
    representation of mu (most significant digit first, digits 0..q-1).
    Couplings are evaluated on demand from the stored arrays; storage is
    O(M (N + n)), not (N + n)^2 blocks.  Instances are immutable after
    construction.
    """

    __slots__ = ("memory", "n_digits", "digit_codes")

    def __init__(self, memory: Memory):
        if not isinstance(memory, Memory) or memory.kind is not NetworkKind.PNN3:
            raise ValueError(f"identifier needs a PNN3 Memory, got {memory!r}")
        self.memory = memory
        m, q = memory.n_patterns, memory.q
        self.n_digits = digit_count(m, q)
        codes = np.empty((m, self.n_digits), dtype=np.int64)
        idx = np.arange(m)
        for j in range(self.n_digits - 1, -1, -1):
            codes[:, j] = idx % q
            idx = idx // q
        codes.setflags(write=False)
        self.digit_codes = codes

    def __repr__(self):
        mem = self.memory
        return (
            f"IdentifierNet(q={mem.q}, N={mem.n_neurons}, "
            f"M={mem.n_patterns}, n={self.n_digits})"
        )


def build_identifier(patterns: Sequence[Pattern], q: int) -> IdentifierNet:
    """Number the patterns by list position and wire the cross couplings.

    Raises as ``build_memory`` does for a PNN3 network of q levels.
    """
    return IdentifierNet(build_memory(patterns, NetworkKind.PNN3, q))


def _digit_amplitudes(net: IdentifierNet, m: np.ndarray, m_sum: int, j: int) -> np.ndarray:
    """q^2 N times the amplitudes of enumerated coordinate j, given the
    memory's overlaps m with the input (m_sum = sum(m)): q bincount - sum(m)."""
    q = net.memory.q
    return q * np.bincount(net.digit_codes[:, j], weights=m, minlength=q) - m_sum


def enumerated_field(net: IdentifierNet, state: Pattern, j: int) -> np.ndarray:
    """Amplitudes of enumerated coordinate j under the input's true coordinates.

    A_l = (1/N) sum_mu <e_l, y_j^mu - e/q> (sum_i <x_i^mu - e/q, x_i>); the
    sums are exact integers scaled by q^2 until the final division.
    """
    memory = net.memory
    _check_state(memory, state)
    if not 0 <= j < net.n_digits:
        raise IndexOutOfRange(f"digit position {j} outside [0, {net.n_digits})")
    m = _overlaps(memory, state.signs, state.levels)
    return _digit_amplitudes(net, m, int(m.sum()), j) / _field_denominator(memory)


def identify(
    net: IdentifierNet,
    state: Pattern,
    enumerated_init: Sequence[int] | None = None,
    counter: OpCounter | None = None,
) -> int:
    """Read off the pattern number of a (possibly distorted) input.

    ``enumerated_init`` mirrors presenting the input with arbitrary seed
    digits; they are validated and have no effect, since enumerated
    coordinates are not coupled to each other.  Raises UnknownPattern when
    the decoded digits name an index >= M (possible once noise is high or q
    does not divide the numbering range evenly).
    """
    memory = net.memory
    _check_state(memory, state)
    if enumerated_init is not None:
        init = np.asarray(enumerated_init)
        if init.shape != (net.n_digits,):
            raise DimensionMismatch(f"enumerated_init must have length {net.n_digits}")
        _check_levels(init, memory.q)

    m = _overlaps(memory, state.signs, state.levels)
    m_sum = int(m.sum())
    index = 0
    for j in range(net.n_digits):
        scaled = _digit_amplitudes(net, m, m_sum, j)
        digit = int(scaled.argmax())
        if counter is not None:
            counter.enumerated_field_evals += 1
        index = index * memory.q + digit
    if index >= memory.n_patterns:
        exc = UnknownPattern(f"decoded index {index} >= stored pattern count {memory.n_patterns}")
        exc.decoded_index = index
        raise exc
    return index
