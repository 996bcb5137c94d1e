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

The pattern body itself is never retrieved here; once the number is known
the caller looks the pattern up (here: list indexing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Pattern, _check_levels, _stack_patterns
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LevelOutOfRange,
    SignNotAllowed,
    UnknownPattern,
)


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
    true_field_evals: int = 0


class IdentifierNet:
    """M unsigned patterns plus their base-q index digits, cross-coupled only.

    ``digit_codes[mu]`` is the base-q representation of mu (most significant
    digit first, digits 0..q-1).  Couplings are evaluated on demand from the
    stored arrays; storage is O(M (N + n)), not (N + n)^2 blocks.
    Instances are immutable after construction, and the constructor rejects
    invalid levels with the same typed errors as ``build_identifier``.
    """

    __slots__ = ("q", "n_true", "n_digits", "pattern_levels", "digit_codes")

    def __init__(self, q: int, pattern_levels: np.ndarray):
        q = int(q)
        if q < 2:
            raise LevelOutOfRange("identifier needs q >= 2")
        levels = np.asarray(pattern_levels)
        if levels.ndim != 2 or levels.size == 0:
            raise DimensionMismatch("pattern levels must be a non-empty (M, N) array")
        _check_levels(levels, q)
        self.q = q
        levels = levels.astype(np.int64)
        levels.setflags(write=False)
        self.pattern_levels = levels
        self.n_true = levels.shape[1]
        m = levels.shape[0]
        self.n_digits = digit_count(m, self.q)
        codes = np.empty((m, self.n_digits), dtype=np.int64)
        idx = np.arange(m)
        for j in range(self.n_digits - 1, -1, -1):
            codes[:, j] = idx % self.q
            idx = idx // self.q
        codes.setflags(write=False)
        self.digit_codes = codes

    @property
    def n_patterns(self) -> int:
        return self.pattern_levels.shape[0]

    def __repr__(self):
        return (
            f"IdentifierNet(q={self.q}, N={self.n_true}, "
            f"M={self.n_patterns}, n={self.n_digits})"
        )


def build_identifier(patterns: Sequence[Pattern], q: int) -> IdentifierNet:
    """Number the patterns by list position and wire the cross couplings."""
    signs, levels = _stack_patterns(patterns)
    if np.any(signs != 1):
        raise SignNotAllowed("identifier patterns are unsigned; all signs must be +1")
    return IdentifierNet(q, levels)


def _check_input(net: IdentifierNet, state: Pattern) -> None:
    if len(state) != net.n_true:
        raise DimensionMismatch(
            f"input length {len(state)} != true-coordinate count {net.n_true}"
        )
    if np.any(state.signs != 1):
        raise SignNotAllowed("identifier inputs are unsigned; all signs must be +1")
    if state.levels.max() > net.q:
        raise LevelOutOfRange(f"input level {int(state.levels.max())} exceeds q={net.q}")


def _drive(net: IdentifierNet, state: Pattern) -> np.ndarray:
    """q * sum_i <w_i^mu, x_i> for every pattern mu, exact integers in float64."""
    matches = np.sum(net.pattern_levels == state.levels[None, :], axis=1, dtype=np.int64)
    return (net.q * matches - net.n_true).astype(np.float64)


def enumerated_field(net: IdentifierNet, state: Pattern, j: int) -> np.ndarray:
    """Amplitudes of enumerated coordinate j under the input's true coordinates.

    A_l = (1/N) sum_mu <e_l, y_j^mu - e/q> (sum_i <x_i^mu - e/q, x_i>); the
    sums are exact integers scaled by q^2 until the final division.
    """
    _check_input(net, state)
    if not 0 <= j < net.n_digits:
        raise IndexOutOfRange(f"digit position {j} outside [0, {net.n_digits})")
    q = net.q
    drive = _drive(net, state)
    binned = np.bincount(net.digit_codes[:, j], weights=drive, minlength=q)
    scaled = q * binned - drive.sum()                 # q^2 * N * A_l
    return scaled / (float(net.n_true) * q * q)


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
    _check_input(net, state)
    if enumerated_init is not None:
        init = np.asarray(enumerated_init)
        if init.shape != (net.n_digits,):
            raise DimensionMismatch(
                f"enumerated_init must have length {net.n_digits}"
            )
        _check_levels(init, net.q)

    q = net.q
    drive = _drive(net, state)
    total = drive.sum()

    index = 0
    for j in range(net.n_digits):
        binned = np.bincount(net.digit_codes[:, j], weights=drive, minlength=q)
        scaled = q * binned - total
        digit = int(np.argmax(scaled == scaled.max()))
        if counter is not None:
            counter.enumerated_field_evals += 1
        index = index * q + digit
    if index >= net.n_patterns:
        exc = UnknownPattern(
            f"decoded index {index} >= stored pattern count {net.n_patterns}"
        )
        exc.decoded_index = index
        raise exc
    return index

