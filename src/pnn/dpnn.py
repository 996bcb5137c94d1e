"""Decorrelating pipeline: binary patterns as vector-neuron internal images.

A +-1 vector of length N is cut into n fragments of k+1 elements.  Each
fragment becomes one signed unit vector in R^(2^k): the first element gives
the sign, the remaining k elements are read as the binary digits of the
level.  Fragments differing anywhere in their last k positions map to
orthogonal levels, which is what washes out correlations between patterns.

Recognition runs in three stages: map the (noisy) binary input, relax it in
a signed vector-neuron memory built from the mapped patterns, and map the
fixed point back.  With k=0 the whole pipeline degenerates to a plain
Hopfield network on the raw bits.

The mapping parameter cannot grow freely: the image must keep at least 100
vector-neurons for the error estimates to apply (k+1 <= N/100), and enough
fragments must survive the bit noise untouched (n (1-a)^(k+1) >= 2).
``k_critical`` returns the largest k meeting both plus divisibility;
``capacity_exponent`` evaluates the resulting storage-capacity growth rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Memory, NetworkKind, Pattern, asynchronous_retrieve, build_memory
from .errors import LengthNotDivisible, LevelOutOfRange, NoFeasibleK
from .theory import capacity_pnn2

MIN_VECTOR_NEURONS = 100
MIN_INTACT_FRAGMENTS = 2.0


@dataclass(frozen=True)
class MappingParams:
    """Fragmentation geometry: N = n * (k+1) bits, q = 2^k levels."""

    k: int
    n: int
    n_bits: int
    q: int

    @classmethod
    def for_length(cls, n_bits: int, k: int) -> "MappingParams":
        if k < 0:
            raise ValueError(f"mapping parameter k must be >= 0, got {k}")
        if k > 62:
            raise LevelOutOfRange(f"mapping parameter k={k} > 62: levels up to 2^k overflow int64")
        if n_bits < 1 or n_bits % (k + 1) != 0:
            raise LengthNotDivisible(
                f"binary length {n_bits} is not a positive multiple of k+1={k + 1}"
            )
        return cls(k=k, n=n_bits // (k + 1), n_bits=n_bits, q=2**k)


class BindingConstraint(Enum):
    """Which restriction stops k_critical from being larger."""

    FRAGMENT_COUNT = "fragment-count"        # k+1 <= N/100
    INTACT_FRAGMENTS = "intact-fragments"    # n (1-a)^(k+1) >= 2
    DIVISIBILITY = "divisibility"            # (k+1) | N


@dataclass(frozen=True)
class KCriticalResult:
    k: int
    binding: frozenset


def _as_signs(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1 or y.size == 0:
        raise LengthNotDivisible("binary vector must be a non-empty 1-d array")
    if not np.all(np.abs(y) == 1):
        raise ValueError("binary vectors must contain only -1 and +1")
    return y


def map_binary(y, k: int) -> Pattern:
    """Map a +-1 vector into its internal image (one neuron per fragment)."""
    y = _as_signs(y)
    params = MappingParams.for_length(y.size, k)
    frames = y.reshape(params.n, k + 1)
    signs = frames[:, 0]
    if k == 0:
        levels = np.ones(params.n, dtype=np.int64)
    else:
        bits = (frames[:, 1:] + 1) // 2
        weights = 2 ** np.arange(k - 1, -1, -1, dtype=np.int64)
        levels = 1 + bits @ weights
    return Pattern(signs, levels)


def unmap_binary(image: Pattern, k: int) -> np.ndarray:
    """Invert ``map_binary``; exact on every valid internal image."""
    q = MappingParams.for_length(len(image) * (k + 1), k).q  # checks k
    if image.levels.max() > q:
        raise LengthNotDivisible(
            f"image level {int(image.levels.max())} exceeds 2^k={q}"
        )
    n = len(image)
    frames = np.empty((n, k + 1), dtype=np.int8)
    frames[:, 0] = image.signs
    if k > 0:
        value = image.levels - 1
        for pos in range(k):
            shift = k - 1 - pos
            frames[:, 1 + pos] = 2 * ((value >> shift) & 1) - 1
    return frames.reshape(-1)


def _constraint_fragment_count(n_bits: int, d: int) -> bool:
    return d * MIN_VECTOR_NEURONS <= n_bits


def _constraint_intact(n_bits: int, a: float, d: int) -> bool:
    return (n_bits / d) * (1 - a) ** d >= MIN_INTACT_FRAGMENTS


def _divisors(n: int) -> list[int]:
    out = set()
    for i in range(1, int(math.isqrt(n)) + 1):
        if n % i == 0:
            out.add(i)
            out.add(n // i)
    return sorted(out)


def _check_k_inputs(n_bits: int, a: float) -> None:
    if n_bits < 2:
        raise ValueError(f"binary length must be >= 2, got {n_bits}")
    if not 0.0 <= a < 0.5:
        raise ValueError(f"bit-noise a must be in [0, 0.5), got {a}")


def k_critical(n_bits: int, a: float) -> int:
    """Largest buildable k: (k+1) | N, k+1 <= N/100, n (1-a)^(k+1) >= 2."""
    return k_critical_detail(n_bits, a).k


def k_critical_detail(n_bits: int, a: float) -> KCriticalResult:
    """``k_critical`` plus which restriction is binding.

    A restriction is binding when dropping it (alone) would admit a larger
    k.  When neither inequality is binding but some non-divisor fragment
    size would be feasible, divisibility is reported.
    """
    _check_k_inputs(n_bits, a)
    divisors = _divisors(n_bits)
    feasible = [
        d
        for d in divisors
        if _constraint_fragment_count(n_bits, d) and _constraint_intact(n_bits, a, d)
    ]
    if not feasible:
        raise NoFeasibleK(
            f"no fragment size satisfies both restrictions for N={n_bits}, a={a}"
        )
    best = max(feasible)

    binding = set()
    without_count = [d for d in divisors if _constraint_intact(n_bits, a, d)]
    if without_count and max(without_count) > best:
        binding.add(BindingConstraint.FRAGMENT_COUNT)
    without_intact = [d for d in divisors if _constraint_fragment_count(n_bits, d)]
    if without_intact and max(without_intact) > best:
        binding.add(BindingConstraint.INTACT_FRAGMENTS)
    if not binding and k_critical_asymptotic(n_bits, a) > best - 1:
        binding.add(BindingConstraint.DIVISIBILITY)
    return KCriticalResult(k=best - 1, binding=frozenset(binding))


def k_critical_asymptotic(n_bits: int, a: float) -> int:
    """Largest k meeting both restrictions, divisibility ignored.

    This is the right notion for asymptotic capacity statements, where the
    exact factorization of N is an artifact of the chosen size; buildable
    networks must still use ``k_critical``.
    """
    _check_k_inputs(n_bits, a)
    best = None
    for d in range(1, n_bits // MIN_VECTOR_NEURONS + 1):
        if _constraint_intact(n_bits, a, d):
            best = d - 1
    if best is None:
        raise NoFeasibleK(
            f"no fragment size satisfies both restrictions for N={n_bits}, a={a}"
        )
    return best


def dpnn_capacity(n_bits: int, a: float, k: int) -> float:
    """Storage capacity of the pipeline at mapping parameter k.

    Exponential in k while 2(1-a) > 1.  At k=0 the mapping is the identity
    up to encoding, so the plain Hopfield capacity applies (the k >= 1
    formula divides by k).
    """
    _check_k_inputs(n_bits, a)
    if k < 0:
        raise ValueError(f"mapping parameter k must be >= 0, got {k}")
    if k == 0:
        return capacity_pnn2(n_bits, 1, a, 0.0)
    log_n = math.log(n_bits)
    hopfield = n_bits * (1 - 2 * a) ** 2 / (2 * log_n)
    return hopfield * (2 * (1 - a)) ** (2 * k) / (k * (1 + k / log_n))


def capacity_exponent(n_bits: int, a: float) -> float:
    """Growth exponent R with M(k_c) ~ N^R at the critical mapping parameter.

    Uses the divisibility-free critical k; see ``k_critical_asymptotic``.
    """
    k_star = k_critical_asymptotic(n_bits, a)
    return math.log(dpnn_capacity(n_bits, a, k_star)) / math.log(n_bits)


def dpnn_build(binary_patterns, k: int) -> Memory:
    """Map a binary pattern set and store the images in a signed memory."""
    if not len(binary_patterns):
        raise LengthNotDivisible("at least one binary pattern is required")
    images = [map_binary(y, k) for y in binary_patterns]
    return build_memory(images, NetworkKind.PNN2, max(1, 2**k))


def dpnn_retrieve(memory: Memory, noisy_y, k: int, max_sweeps: int) -> np.ndarray:
    """Three-stage recognition: map, relax to a fixed point (sequential
    order), map back."""
    image = map_binary(noisy_y, k)
    result = asynchronous_retrieve(memory, image, max_sweeps)
    return unmap_binary(result.final_state, k)
