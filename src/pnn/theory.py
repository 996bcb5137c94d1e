"""Closed-form one-step error bounds and storage-capacity estimates.

These are the quantities the Monte Carlo experiments are checked against:

* PNN2 (signed vector neurons):
    perr  < sqrt(N M) * exp(-N (1-2a)^2 q^2 (1-b)^2 / (2M))
    M_max = N (1-2a)^2 q^2 (1-b)^2 / (2 ln N)
* PNN3 (unsigned, centered couplings), with b_eff = q b / (q-1):
    perr  < sqrt(N M) * exp(-(N/2M) * (q(q-1)/2) * (1-b_eff)^2)
    M_max = (N / (2 ln N)) * (q(q-1)/2) * (1-b_eff)^2

At a fixed load M/N the PNN2 exponent, q^2 (1-b)^2 (1-2a)^2 / (2 M/N), does
not depend on N; only the sqrt(N M) prefactor grows with it.

All logarithms are natural.  A bound above 1 carries no information; it is
returned verbatim with ``vacuous=True`` rather than clamped, so the exponent
stays visible in tables.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class ErrorBound(NamedTuple):
    """A probability bound and whether it exceeds 1 (vacuous)."""

    value: float
    vacuous: bool


def _check_probs(a: float, b: float) -> None:
    if not 0.0 <= a < 0.5:
        raise ValueError(f"sign-noise a must be in [0, 0.5), got {a}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"level-noise b must be in [0, 1], got {b}")


def level_noise_rescaled(q: int, b: float) -> float:
    """b_eff = q b / (q-1), the rescaling entering the PNN3 formulas."""
    if q < 2:
        raise ValueError(f"PNN3 formulas need q >= 2, got {q}")
    _check_probs(0.0, b)
    return q * b / (q - 1)


def _pnn3_signal(q: int, b: float) -> float:
    """(1 - b_eff)^2, the signal factor of both PNN3 formulas, which need b_eff < 1."""
    b_eff = level_noise_rescaled(q, b)
    if b_eff >= 1.0:
        raise ValueError(
            f"rescaled level noise {b_eff:.4f} >= 1 (b must stay below (q-1)/q)"
        )
    return (1 - b_eff) ** 2


def perr_pnn2(n: int, m: int, q: int, a: float = 0.0, b: float = 0.0) -> ErrorBound:
    """One-step retrieval error bound for PNN2 (Hopfield when q=1, b=0)."""
    _check_probs(a, b)
    if n < 1 or m < 1 or q < 1:
        raise ValueError("need n, m, q >= 1")
    exponent = n * (1 - 2 * a) ** 2 * q**2 * (1 - b) ** 2 / (2 * m)
    value = math.sqrt(n * m) * math.exp(-exponent)
    return ErrorBound(value, value > 1.0)


def capacity_pnn2(n: int, q: int, a: float = 0.0, b: float = 0.0) -> float:
    """Asymptotic PNN2 storage capacity."""
    _check_probs(a, b)
    if n < 2:
        raise ValueError(f"capacity needs n >= 2 (ln n > 0), got {n}")
    if q < 1:
        raise ValueError("need q >= 1")
    return n * (1 - 2 * a) ** 2 * q**2 * (1 - b) ** 2 / (2 * math.log(n))


def perr_pnn3(n: int, m: int, q: int, b: float = 0.0) -> ErrorBound:
    """One-step retrieval error bound for PNN3."""
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    exponent = (n / (2 * m)) * (q * (q - 1) / 2) * _pnn3_signal(q, b)
    value = math.sqrt(n * m) * math.exp(-exponent)
    return ErrorBound(value, value > 1.0)


def capacity_pnn3(n: int, q: int, b: float = 0.0) -> float:
    """Asymptotic PNN3 storage capacity (about half of PNN2's at large q)."""
    if n < 2:
        raise ValueError(f"capacity needs n >= 2 (ln n > 0), got {n}")
    return (n / (2 * math.log(n))) * (q * (q - 1) / 2) * _pnn3_signal(q, b)
