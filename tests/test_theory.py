"""Closed-form bounds and capacities against hand-derived values.

The frozen constants below were evaluated independently at 30 significant
digits (mpmath) from the printed formulas; the implementation must agree to
1e-9 relative.
"""

import math

import pytest

from pnn import (
    capacity_pnn2,
    capacity_pnn3,
    level_noise_rescaled,
    perr_pnn2,
    perr_pnn3,
)

# sqrt(200*400) * exp(-200/(2*400) * 16^2 * (1-0.5)^2)
EQ4_SPOT = 3.18297540664004198e-05
# 1000 / (2 ln 1000)
EQ5_Q1 = 72.3824136505419713
EQ5_Q64 = 296478.366312619914
# sqrt(200*100) * exp(-(200/200) * 28 * (1 - 8*0.25/7)^2)
EQ8_SPOT = 8.83706630415492683e-05
EQ9_Q2 = 72.3824136505419713
EXP_HIGH_NOISE = 4.096          # q=64, b=0.9, load 5
EXP_HIGH_NOISE_P = 0.0166390988617236276
EXP_MANY_PATTERNS = 5.0176      # q=64, b=0.65, load 50
EXP_MANY_PATTERNS_P = 0.00662039660968005042


class TestPerrPnn2:
    def test_spot_value(self):
        got = perr_pnn2(200, 400, 16, a=0.0, b=0.5)
        assert got.value == pytest.approx(EQ4_SPOT, rel=1e-9)
        assert not got.vacuous

    def test_full_level_noise_leaves_prefactor(self):
        got = perr_pnn2(100, 50, 8, a=0.0, b=1.0)
        assert got.value == pytest.approx(math.sqrt(100 * 50), rel=1e-12)
        assert got.vacuous

    def test_q1_matches_hopfield_bound(self):
        n, m, a = 400, 30, 0.1
        got = perr_pnn2(n, m, 1, a=a, b=0.0)
        want = math.sqrt(n * m) * math.exp(-n * (1 - 2 * a) ** 2 / (2 * m))
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_decreasing_in_q_and_in_one_minus_b(self):
        values_q = [perr_pnn2(200, 100, q, b=0.3).value for q in (2, 4, 8, 16)]
        assert all(x > y for x, y in zip(values_q, values_q[1:]))
        values_b = [perr_pnn2(200, 100, 8, b=b).value for b in (0.0, 0.2, 0.4, 0.6)]
        assert all(x < y for x, y in zip(values_b, values_b[1:]))

    def test_at_capacity_equals_prefactor_over_n(self):
        n, q, a, b = 5000, 8, 0.05, 0.2
        m = capacity_pnn2(n, q, a, b)
        got = perr_pnn2(n, int(round(m)), q, a, b)
        want = math.sqrt(n * round(m)) * math.exp(
            -n * (1 - 2 * a) ** 2 * q**2 * (1 - b) ** 2 / (2 * round(m))
        )
        assert got.value == pytest.approx(want, rel=1e-12)
        # with M exactly at capacity the exponential factor is 1/N
        exact = math.sqrt(n * m) / n
        assert math.sqrt(n * m) * math.exp(-math.log(n)) == pytest.approx(exact, rel=1e-12)

    def test_rejects_a_of_half_and_beyond(self):
        with pytest.raises(ValueError):
            perr_pnn2(100, 10, 4, a=0.5)


@pytest.mark.parametrize("call, match", [
    (lambda: perr_pnn2(100, 10, 4, b=-0.1), "level-noise b must be in \\[0, 1\\], got -0.1"),
    (lambda: perr_pnn2(100, 10, 4, b=1.5), "level-noise b must be in \\[0, 1\\], got 1.5"),
    (lambda: perr_pnn2(0, 10, 4), "need n, m, q >= 1"),
    (lambda: capacity_pnn2(100, 0), "need q >= 1"),
    (lambda: perr_pnn3(0, 10, 4), "need n, m >= 1"),
    # PNN3's b is checked as PNN2's is, before it is rescaled
    (lambda: perr_pnn3(100, 10, 4, -0.5), "level-noise b must be in \\[0, 1\\], got -0.5"),
    (lambda: perr_pnn3(100, 10, 4, math.nan), "level-noise b must be in \\[0, 1\\], got nan"),
    (lambda: capacity_pnn3(100, 4, -0.5), "level-noise b must be in \\[0, 1\\], got -0.5"),
    (lambda: capacity_pnn3(100, 4, math.nan), "level-noise b must be in \\[0, 1\\], got nan"),
    (lambda: level_noise_rescaled(4, -1), "level-noise b must be in \\[0, 1\\], got -1"),
    (lambda: level_noise_rescaled(4, math.nan), "level-noise b must be in \\[0, 1\\], got nan"),
], ids=["perr-pnn2-b-below-0", "perr-pnn2-b-above-1", "perr-pnn2-n0", "capacity-pnn2-q0",
        "perr-pnn3-n0", "perr-pnn3-b-below-0", "perr-pnn3-b-nan", "capacity-pnn3-b-below-0",
        "capacity-pnn3-b-nan", "rescaled-b-below-0", "rescaled-b-nan"])
def test_bad_arguments_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestCapacityPnn2:
    def test_spot_values(self):
        assert capacity_pnn2(1000, 1) == pytest.approx(EQ5_Q1, rel=1e-9)
        assert capacity_pnn2(1000, 64) == pytest.approx(EQ5_Q64, rel=1e-9)

    def test_quadratic_in_q(self):
        for q in (1, 2, 5, 16):
            ratio = capacity_pnn2(500, 2 * q) / capacity_pnn2(500, q)
            assert ratio == 4.0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            capacity_pnn2(1, 4)


class TestPnn3:
    def test_rescaled_noise(self):
        assert level_noise_rescaled(8, 0.25) == pytest.approx(8 * 0.25 / 7, rel=1e-15)
        with pytest.raises(ValueError):
            level_noise_rescaled(1, 0.1)

    def test_perr_spot_value(self):
        got = perr_pnn3(200, 100, 8, b=0.25)
        assert got.value == pytest.approx(EQ8_SPOT, rel=1e-9)

    def test_capacity_spot_value(self):
        assert capacity_pnn3(1000, 2, b=0.0) == pytest.approx(EQ9_Q2, rel=1e-9)

    def test_capacity_ratio_approaches_half(self):
        # PNN3/PNN2 capacity ratio at b=0 is (q-1)/(2q) -> 1/2
        for q, tol in ((8, 0.07), (64, 0.01), (1000, 6e-4)):
            ratio = capacity_pnn3(1000, q) / capacity_pnn2(1000, q)
            assert ratio == pytest.approx((q - 1) / (2 * q), rel=1e-12)
            assert abs(ratio - 0.5) < tol

    def test_saturated_rescaled_noise_rejected(self):
        with pytest.raises(ValueError):
            perr_pnn3(100, 10, 8, b=7 / 8)
        with pytest.raises(ValueError):
            capacity_pnn3(100, 8, b=0.9)


def exponent_at_load(n, load, q, b, a=0.0):
    """E in perr_pnn2 = sqrt(N M) exp(-E) at M = load N."""
    m = load * n
    return math.log(math.sqrt(n * m)) - math.log(perr_pnn2(n, m, q, a, b).value)


class TestErrorExponent:
    """perr_pnn2's exponent at a fixed load M/N, the same at every N."""

    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_high_noise_regime(self, n):
        expo = exponent_at_load(n, 5, 64, 0.9)
        assert expo == pytest.approx(EXP_HIGH_NOISE, rel=1e-9)
        assert math.exp(-expo) == pytest.approx(EXP_HIGH_NOISE_P, abs=1e-12)

    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_many_patterns_regime(self, n):
        expo = exponent_at_load(n, 50, 64, 0.65)
        assert expo == pytest.approx(EXP_MANY_PATTERNS, rel=1e-9)
        assert math.exp(-expo) == pytest.approx(EXP_MANY_PATTERNS_P, abs=1e-12)

    def test_hopfield_regime(self):
        assert exponent_at_load(1000, 0.1, 1, 0.0, a=0.3) == pytest.approx(0.8, rel=1e-12)
