"""Pattern generators and distortion channels."""

import math
import re

import numpy as np
import pytest

from pnn import (
    LevelOutOfRange,
    Memory,
    NetworkKind,
    NoiseSpec,
    Pattern,
    PnnError,
    apply_binary_noise,
    apply_qnary_noise,
    build_memory,
    correlated_binary_patterns,
    make_rng,
    map_binary,
    random_qnary_patterns,
)
from oracles import random_binary_patterns, reference_qnary_noise, reference_qnary_patterns
from pnn.noise import _qnary_arrays


def three_sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


class TestNoiseSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            NoiseSpec(a=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(b=1.5)


class TestQnaryGeneration:
    def test_q1_is_binary(self):
        patterns = random_qnary_patterns(5, 100, 1, NetworkKind.PNN2, make_rng(1))
        for p in patterns:
            assert np.all(p.levels == 1)
            assert set(np.unique(p.signs)) <= {-1, 1}

    def test_level_frequencies_uniform(self):
        q = 5
        p = random_qnary_patterns(1, 100_000, q, NetworkKind.PNN2, make_rng(2))[0]
        for level in range(1, q + 1):
            freq = np.mean(p.levels == level)
            assert abs(freq - 1 / q) < three_sigma(1 / q, 100_000)

    def test_sign_frequencies_uniform(self):
        p = random_qnary_patterns(1, 100_000, 3, NetworkKind.PNN2, make_rng(3))[0]
        assert abs(np.mean(p.signs == 1) - 0.5) < three_sigma(0.5, 100_000)

    def test_pnn3_unsigned(self):
        patterns = random_qnary_patterns(4, 50, 6, NetworkKind.PNN3, make_rng(4))
        for p in patterns:
            assert np.all(p.signs == 1)

    def test_deterministic_given_seed_and_stream(self):
        a = random_qnary_patterns(3, 40, 4, NetworkKind.PNN2, make_rng(9, 7))
        b = random_qnary_patterns(3, 40, 4, NetworkKind.PNN2, make_rng(9, 7))
        assert a == b
        c = random_qnary_patterns(3, 40, 4, NetworkKind.PNN2, make_rng(9, 8))
        assert a != c

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            random_qnary_patterns(0, 10, 2, NetworkKind.PNN2, make_rng(0))
        with pytest.raises(ValueError):
            random_qnary_patterns(1, 0, 2, NetworkKind.PNN2, make_rng(0))

    @pytest.mark.parametrize("args, error, match", [
        ((0, 4, 2, NetworkKind.PNN2), ValueError, "m must be a whole number >= 1, got 0"),
        ((2, 0, 2, NetworkKind.PNN3), ValueError, "n must be a whole number >= 1, got 0"),
        ((2.5, 4, 2, NetworkKind.PNN2), ValueError, "m must be a whole number >= 1, got 2.5"),
        ((2, 4.5, 2, NetworkKind.PNN3), ValueError, "n must be a whole number >= 1, got 4.5"),
        ((2, 4, 0, NetworkKind.PNN2), LevelOutOfRange, "q must be a whole number >= 1, got 0"),
        ((2, 4, 2.5, NetworkKind.PNN3), LevelOutOfRange, "q must be a whole number >= 1, got 2.5"),
        ((2, 3, 1, NetworkKind.PNN3), LevelOutOfRange, "PNN3 requires q >= 2"),
        ((2, 4, 3, "pnn2"), ValueError, "kind must be a NetworkKind"),
    ], ids=["m0", "n0", "m-fractional", "n-fractional", "q0", "q-fractional", "pnn3-q1",
            "kind-str"])
    @pytest.mark.parametrize("draw", [random_qnary_patterns, _qnary_arrays])
    def test_patterns_and_arrays_reject_the_same_arguments(self, draw, args, error, match):
        # kind and q are checked as a Memory checks them
        with pytest.raises(error, match=match):
            draw(*args, make_rng(0))

    @pytest.mark.parametrize("kind, q", [
        (NetworkKind.PNN2, 1), (NetworkKind.PNN2, 3), (NetworkKind.PNN2, 16),
        (NetworkKind.PNN3, 3), (NetworkKind.PNN3, 16), (NetworkKind.PNN3, 1000),
        (NetworkKind.PNN2, 4.0), (NetworkKind.PNN3, 4.0),  # a whole float q acts as an int
    ])
    def test_drawn_arrays_build_the_memory_of_the_drawn_patterns(self, kind, q):
        # q = 1 draws no level words, and q = 3 rejects some of them; PNN3 draws its M
        # patterns in one call, which must leave the generator where M calls of N leave it
        rngs = [make_rng(5, 2) for _ in range(3)]
        patterns = reference_qnary_patterns(30, 17, q, kind, rngs[0])
        assert random_qnary_patterns(30, 17, q, kind, rngs[1]) == patterns
        want = build_memory(patterns, kind, q)
        got = Memory(kind, q, *_qnary_arrays(30, 17, q, kind, rngs[2]))
        for name in ("_codes", "_level_counts"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))
        after = [rng.integers(0, 2**62, size=5).tolist() for rng in rngs]
        assert after[1] == after[0] and after[2] == after[0]

    @pytest.mark.parametrize("kind", [NetworkKind.PNN2, NetworkKind.PNN3])
    def test_fractional_q_rejected(self, kind):
        with pytest.raises(LevelOutOfRange):
            random_qnary_patterns(1, 4, 2.5, kind, make_rng(0))

    @pytest.mark.parametrize("kind", ["pnn2", "pnn3", None])
    def test_kind_must_be_a_network_kind(self, kind):
        with pytest.raises(ValueError, match="NetworkKind"):
            random_qnary_patterns(2, 4, 3, kind, make_rng(0))


class TestQnaryNoise:
    def test_zero_rates_identity(self):
        p = random_qnary_patterns(1, 200, 4, NetworkKind.PNN2, make_rng(5))[0]
        assert apply_qnary_noise(p, 4, NoiseSpec(0, 0), make_rng(6)) == p

    def test_full_sign_noise_flips_everything(self):
        p = random_qnary_patterns(1, 200, 4, NetworkKind.PNN2, make_rng(7))[0]
        out = apply_qnary_noise(p, 4, NoiseSpec(1, 0), make_rng(8))
        assert out == p.sign_flipped()

    def test_full_sign_noise_is_involution(self):
        p = random_qnary_patterns(1, 100, 3, NetworkKind.PNN2, make_rng(9))[0]
        once = apply_qnary_noise(p, 3, NoiseSpec(1, 0), make_rng(10))
        twice = apply_qnary_noise(once, 3, NoiseSpec(1, 0), make_rng(11))
        assert twice == p

    def test_level_change_fraction_binomial(self):
        n, b = 100_000, 0.5
        p = random_qnary_patterns(1, n, 8, NetworkKind.PNN2, make_rng(12))[0]
        out = apply_qnary_noise(p, 8, NoiseSpec(0, b), make_rng(13))
        changed = np.mean(out.levels != p.levels)
        assert abs(changed - b) < three_sigma(b, n)

    def test_triggered_replacement_always_changes_level(self):
        # b=1 must change every level, staying inside [1, q]
        p = random_qnary_patterns(1, 5000, 3, NetworkKind.PNN2, make_rng(14))[0]
        out = apply_qnary_noise(p, 3, NoiseSpec(0, 1), make_rng(15))
        assert np.all(out.levels != p.levels)
        assert out.levels.min() >= 1 and out.levels.max() <= 3

    def test_replacement_uniform_over_other_levels(self):
        q, n = 4, 120_000
        p = Pattern(np.ones(n, dtype=np.int8), np.full(n, 2))
        out = apply_qnary_noise(p, q, NoiseSpec(0, 1), make_rng(16))
        for level in (1, 3, 4):
            freq = np.mean(out.levels == level)
            assert abs(freq - 1 / 3) < three_sigma(1 / 3, n)

    def test_q1_has_no_level_channel(self):
        p = random_qnary_patterns(1, 100, 1, NetworkKind.PNN2, make_rng(17))[0]
        out = apply_qnary_noise(p, 1, NoiseSpec(0, 0.9), make_rng(18))
        assert out == p

    @pytest.mark.parametrize("q", [2, 2.5, 3.5, 0])
    def test_q_below_a_level_or_fractional_rejected(self, q):
        p = Pattern(np.ones(3, dtype=np.int8), [1, 3, 2])
        with pytest.raises(LevelOutOfRange):
            apply_qnary_noise(p, q, NoiseSpec(0, 1), make_rng(19))

    def test_q_above_every_level_accepted(self):
        p = Pattern(np.ones(3, dtype=np.int8), [1, 3, 2])
        out = apply_qnary_noise(p, 4.0, NoiseSpec(0, 1), make_rng(20))
        assert np.all(out.levels != p.levels) and out.levels.max() <= 4

    @pytest.mark.parametrize("q", [256, 300, 2**14])
    def test_narrow_levels_take_new_levels_above_255(self, q):
        # levels all <= 255 are held in uint8; a new level up to q must not wrap in that type
        rng = make_rng(60)
        p = Pattern(1 - 2 * rng.integers(0, 2, size=500), rng.integers(1, 256, size=500))
        assert p.levels.dtype == np.uint8
        for a, b in [(0.3, 0.9), (0.0, 1.0), (0.5, 0.0)]:
            got = apply_qnary_noise(p, q, NoiseSpec(a, b), make_rng(61))
            signs, levels = reference_qnary_noise(p, q, a, b, make_rng(61))
            assert np.array_equal(got.signs, signs) and np.array_equal(got.levels, levels)
            assert hash(got) == hash(Pattern(got.signs, got.levels.astype(np.int64)))
            assert (got.levels.max() > 255) == (b > 0)


class TestBinary:
    def test_generation_uniform(self):
        y = random_binary_patterns(1, 100_000, make_rng(21))[0]
        assert abs(np.mean(y == 1) - 0.5) < three_sigma(0.5, 100_000)

    def test_zero_noise_identity(self):
        y = random_binary_patterns(1, 500, make_rng(22))[0]
        assert np.array_equal(apply_binary_noise(y, 0.0, make_rng(23)), y)

    def test_full_noise_complements(self):
        y = random_binary_patterns(1, 500, make_rng(24))[0]
        assert np.array_equal(apply_binary_noise(y, 1.0, make_rng(25)), -y)

    def test_flip_fraction_binomial(self):
        n, a = 100_000, 0.1
        y = random_binary_patterns(1, n, make_rng(26))[0]
        out = apply_binary_noise(y, a, make_rng(27))
        flipped = np.mean(out != y)
        assert abs(flipped - a) < three_sigma(a, n)

    @pytest.mark.parametrize("call, match", [
        (lambda rng: random_binary_patterns(0, 5, rng), "need m, n >= 1, got m=0 n=5"),
        (lambda rng: random_binary_patterns(2, 0, rng), "need m, n >= 1, got m=2 n=0"),
        (lambda rng: correlated_binary_patterns(0, 5, 0.2, rng), "m must be a whole number >= 1"),
        (lambda rng: correlated_binary_patterns(2, 0, 0.2, rng), "n must be a whole number >= 1"),
        (lambda rng: correlated_binary_patterns(2.5, 4, 0.1, rng), "m must be .* >= 1, got 2.5"),
        (lambda rng: correlated_binary_patterns(2, 4.5, 0.1, rng), "n must be .* >= 1, got 4.5"),
        (lambda rng: apply_binary_noise(np.ones(4), -0.1, rng), "must be in \\[0, 1\\], got -0.1"),
        (lambda rng: apply_binary_noise(np.ones(4), 1.5, rng), "must be in \\[0, 1\\], got 1.5"),
        # an int8 cast alone would pass these through as [2, 1], [0, 1] and [0, 1]
        (lambda rng: apply_binary_noise(np.array([2, 1]), 0.0, rng), "only -1 and \\+1"),
        (lambda rng: apply_binary_noise(np.array([0.5, 1]), 0.0, rng), "only -1 and \\+1"),
        (lambda rng: apply_binary_noise(np.array([1j, 1]), 0.0, rng), "only -1 and \\+1"),
        (lambda rng: apply_binary_noise(np.array([1, -1, 2]), 0.5, rng), "only -1 and \\+1"),
    ], ids=["random-m0", "random-n0", "correlated-m0", "correlated-n0", "correlated-m-fractional",
            "correlated-n-fractional", "noise-below-0",
            "noise-above-1", "noise-of-2", "noise-of-half", "noise-of-1j", "noise-of-2-at-half"])
    def test_bad_arguments_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call(make_rng(0))

    @pytest.mark.parametrize("y", [[0.5, 1], np.ones((2, 2)), []])
    def test_input_rejected_as_map_binary_rejects_it(self, y):
        with pytest.raises((ValueError, PnnError)) as mapped:
            map_binary(y, 1)
        with pytest.raises(type(mapped.value), match=re.escape(str(mapped.value))):
            apply_binary_noise(y, 0.0, make_rng(0))


class TestCorrelatedBinary:
    def test_full_overlap_limit_equals_template(self):
        # c -> 1 limit: draw at c extremely close to 1
        patterns = correlated_binary_patterns(4, 2000, 0.999999, make_rng(31))
        for p in patterns[1:]:
            assert np.mean(p == patterns[0]) > 0.999

    def test_rejects_c_of_one_and_negative(self):
        with pytest.raises(ValueError):
            correlated_binary_patterns(2, 10, 1.0, make_rng(32))
        with pytest.raises(ValueError):
            correlated_binary_patterns(2, 10, -0.2, make_rng(32))

    def test_zero_overlap_agreement_like_random(self):
        a, b = correlated_binary_patterns(2, 100_000, 0.0, make_rng(33))
        agreement = np.mean(a == b)
        assert abs(agreement - 0.5) < three_sigma(0.5, 100_000)

    def test_agreement_matches_sampling_oracle(self):
        # expected agreement estimated by a brute-force two-pattern sampler
        c, n = 0.6, 100_000
        rng = make_rng(34)
        samples = 200_000
        template = 2 * rng.integers(0, 2, size=samples) - 1
        draw_a = np.where(rng.random(samples) < c, template, 2 * rng.integers(0, 2, size=samples) - 1)
        draw_b = np.where(rng.random(samples) < c, template, 2 * rng.integers(0, 2, size=samples) - 1)
        oracle_agreement = np.mean(draw_a == draw_b)

        x, y = correlated_binary_patterns(2, n, c, make_rng(35))
        agreement = np.mean(x == y)
        assert abs(agreement - oracle_agreement) < three_sigma(oracle_agreement, n) + three_sigma(oracle_agreement, samples)

    def test_deterministic(self):
        a = correlated_binary_patterns(3, 100, 0.4, make_rng(36, 2))
        b = correlated_binary_patterns(3, 100, 0.4, make_rng(36, 2))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
