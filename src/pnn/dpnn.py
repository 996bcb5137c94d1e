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

from .core import Memory, NetworkKind, Pattern, _whole
from .errors import DimensionMismatch, LengthNotDivisible, LevelOutOfRange, NoFeasibleK
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
        k = _whole("mapping parameter k", k, 0)
        if k > 62:
            raise LevelOutOfRange(f"mapping parameter k={k} > 62: levels up to 2^k overflow int64")
        if n_bits < 1 or n_bits % (k + 1) != 0:
            raise LengthNotDivisible(
                f"k+1={k + 1} must divide the binary length N >= 1, got N={n_bits}"
            )
        n_bits = int(n_bits)  # a whole float length acts as an int
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
    """y as an int8 array, checked before the cast, so a fractional entry is not truncated."""
    y = np.asarray(y)
    if y.ndim != 1 or y.size == 0:
        raise LengthNotDivisible("binary vector must be a non-empty 1-d array")
    if y.dtype.kind not in "biuf" or not np.all(np.abs(y) == 1):
        raise ValueError("binary vectors must contain only -1 and +1")
    return y.astype(np.int8)


def map_binary(y, k: int) -> Pattern:
    """Map a +-1 vector into its internal image (one neuron per fragment)."""
    y = _as_signs(y)
    return Pattern._of(*_map_rows(y, MappingParams.for_length(y.size, k).k))


def _map_rows(y: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs and levels of the images of the checked +-1 rows y (..., N), N a multiple of k+1:
    fragment f of a row has the sign of its first element and, as level, 1 plus its other k
    elements read as binary digits (+1 is 1), in the narrowest unsigned type that holds 2^k."""
    frames = y.reshape(*y.shape[:-1], -1, k + 1)
    levels = np.zeros(frames.shape[:-1], dtype=np.min_scalar_type(2**k))
    for pos in range(1, k + 1):
        levels <<= 1
        levels |= frames[..., pos] > 0
    levels += 1
    return frames[..., 0], levels


def unmap_binary(image: Pattern, k: int) -> np.ndarray:
    """Invert ``map_binary``; exact on every valid internal image."""
    params = MappingParams.for_length(len(image) * (k + 1), k)  # checks k
    k, q = params.k, params.q
    if image.levels.max() > q:
        raise LengthNotDivisible(
            f"image level {int(image.levels.max())} exceeds 2^k={q}"
        )
    n = len(image)
    frames = np.empty((n, k + 1), dtype=np.int8)
    frames[:, 0] = image.signs
    if k > 0:
        value = image.levels.astype(np.int64) - 1  # signed, so 2 * bit - 1 cannot wrap
        for pos in range(k):
            shift = k - 1 - pos
            frames[:, 1 + pos] = 2 * ((value >> shift) & 1) - 1
    return frames.reshape(-1)


def _constraint_intact(n_bits: int, a: float, d: int) -> bool:
    return (n_bits / d) * (1 - a) ** d >= MIN_INTACT_FRAGMENTS


def _intact_limit(n_bits: int, a: float, hi: int) -> int:
    """The largest d <= hi with (N/d)(1-a)^d >= 2, 0 when there is none.  That product falls as
    d grows, so the feasible d are 1..d*; bisect with d* in [lo, hi]."""
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _constraint_intact(n_bits, a, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _largest_divisor_at_most(n: int, x: int) -> int:
    """The largest divisor of n that is <= x, 0 when x < 1.  A divisor d >= sqrt(n) is n / c for
    a co-divisor c <= sqrt(n), and the smallest c >= n / x gives the largest such d <= x; so the
    co-divisors are walked up from ceil(n / x) to sqrt(n), then the divisors down from sqrt(n)."""
    if x < 1:
        return 0
    if x >= n:
        return n
    root = math.isqrt(n)
    for c in range(-(-n // x), root + 1):
        if n % c == 0:
            return n // c
    return next(d for d in range(min(x, root), 0, -1) if n % d == 0)


def _check_k_inputs(n_bits: int, a: float) -> int:
    """The binary length as an int, checked to be a whole number >= 2, with a checked too."""
    n_bits = _whole("binary length", n_bits, 2)
    if not 0.0 <= a < 0.5:
        raise ValueError(f"bit-noise a must be in [0, 0.5), got {a}")
    return n_bits


def k_critical(n_bits: int, a: float) -> int:
    """Largest buildable k: (k+1) | N, k+1 <= N/100, n (1-a)^(k+1) >= 2."""
    return k_critical_detail(n_bits, a).k


def k_critical_detail(n_bits: int, a: float) -> KCriticalResult:
    """``k_critical`` plus which restriction is binding.

    A restriction is binding when dropping it (alone) would admit a larger
    k.  When neither inequality is binding but some non-divisor fragment
    size would be feasible, divisibility is reported.

    Each restriction admits the fragment sizes d up to a limit (N // 100,
    and the bisected intact limit), so the answer is found from the largest
    divisor of N under each limit.  That search is quick when N has a
    divisor near the limit, as N with small factors do, but takes O(sqrt N)
    steps for N with no small factor, such as 10^18 + 9.
    """
    n_bits = _check_k_inputs(n_bits, a)
    count_limit = n_bits // MIN_VECTOR_NEURONS  # d * 100 <= N
    intact_limit = _intact_limit(n_bits, a, n_bits)
    by_count = _largest_divisor_at_most(n_bits, count_limit)
    by_intact = _largest_divisor_at_most(n_bits, intact_limit)
    best = min(by_count, by_intact)  # the largest divisor under both limits
    if best < 1:
        raise NoFeasibleK(
            f"no fragment size satisfies both restrictions for N={n_bits}, a={a}"
        )

    binding = set()
    if by_intact > best:
        binding.add(BindingConstraint.FRAGMENT_COUNT)
    if by_count > best:
        binding.add(BindingConstraint.INTACT_FRAGMENTS)
    if not binding and min(count_limit, intact_limit) > best:
        binding.add(BindingConstraint.DIVISIBILITY)
    return KCriticalResult(k=best - 1, binding=frozenset(binding))


def k_critical_asymptotic(n_bits: int, a: float) -> int:
    """Largest k meeting both restrictions, divisibility ignored.

    This is the right notion for asymptotic capacity statements, where the
    exact factorization of N is an artifact of the chosen size; buildable
    networks must still use ``k_critical``.
    """
    n_bits = _check_k_inputs(n_bits, a)
    limit = _intact_limit(n_bits, a, n_bits // MIN_VECTOR_NEURONS)
    if limit == 0:
        raise NoFeasibleK(
            f"no fragment size satisfies both restrictions for N={n_bits}, a={a}"
        )
    return limit - 1


def dpnn_capacity(n_bits: int, a: float, k: int) -> float:
    """Storage capacity of the pipeline at mapping parameter k.

    Exponential in k while 2(1-a) > 1.  At k=0 the mapping is the identity
    up to encoding, so the plain Hopfield capacity applies (the k >= 1
    formula divides by k).
    """
    n_bits = _check_k_inputs(n_bits, a)
    k = _whole("mapping parameter k", k, 0)
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
    """Map a binary pattern set and store the images in a signed memory.

    Each pattern is checked as ``map_binary`` checks it, then the set is cast once to an (M, N)
    int8 array and mapped in one pass; raises DimensionMismatch when the lengths differ.
    """
    if not len(binary_patterns):
        raise LengthNotDivisible("at least one binary pattern is required")
    params = {MappingParams.for_length(_as_signs(row).size, k) for row in binary_patterns}
    if len(params) > 1:
        lengths = sorted(p.n_bits for p in params)
        raise DimensionMismatch(f"binary pattern lengths differ: {lengths}")
    k = params.pop().k
    return Memory(NetworkKind.PNN2, 2**k, *_map_rows(np.asarray(binary_patterns, dtype=np.int8), k))

