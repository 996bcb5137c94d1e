"""Digit bookkeeping, cross-block couplings and one-pass identification."""

import numpy as np
import pytest

from pnn import (
    DimensionMismatch,
    IdentifierNet,
    LevelOutOfRange,
    Memory,
    NetworkKind,
    NoiseSpec,
    OpCounter,
    Pattern,
    SignNotAllowed,
    UnknownPattern,
    apply_qnary_noise,
    build_identifier,
    build_memory,
    capacity_pnn3,
    digit_count,
    identify,
    make_rng,
    random_qnary_patterns,
)
from oracles import coupling_block, naive_identifier_field
from pnn.core import _field_denominator, _overlaps
from pnn.identifier import _digit_amplitudes


def make_net(m, n, q, seed=0):
    patterns = random_qnary_patterns(m, n, q, NetworkKind.PNN3, make_rng(seed))
    return build_identifier(patterns, q), patterns


class TestDigitCount:
    def test_examples(self):
        assert digit_count(1000, 32) == 2
        assert digit_count(32, 32) == 1
        assert digit_count(32**3 + 1, 32) == 4

    def test_single_pattern(self):
        assert digit_count(1, 7) == 1

    def test_exact_powers(self):
        assert digit_count(8**3, 8) == 3
        assert digit_count(8**3 + 1, 8) == 4


class TestBuild:
    def test_digit_codes_are_base_q_indices(self):
        net, _ = make_net(9, 10, 3)
        assert net.n_digits == 2
        assert list(net.digit_codes[0]) == [0, 0]
        assert list(net.digit_codes[5]) == [1, 2]
        assert list(net.digit_codes[8]) == [2, 2]

    def test_q_squared_patterns_use_two_digits(self):
        net, _ = make_net(16, 8, 4)
        assert net.n_digits == 2
        assert list(net.digit_codes[-1]) == [3, 3]

    def test_single_pattern_code(self):
        net, _ = make_net(1, 5, 4)
        assert net.n_digits == 1
        assert list(net.digit_codes[0]) == [0]

    def test_signed_pattern_rejected(self):
        p = Pattern([1, -1], [1, 2])
        with pytest.raises(SignNotAllowed):
            build_identifier([p], 2)

    def test_level_out_of_range(self):
        p = Pattern([1, 1], [1, 5])
        with pytest.raises(LevelOutOfRange):
            build_identifier([p], 4)

    def test_ragged_rejected(self):
        a = Pattern([1, 1], [1, 2])
        b = Pattern([1, 1, 1], [1, 2, 1])
        with pytest.raises(DimensionMismatch):
            build_identifier([a, b], 2)

    def test_constructor_rejects_level_above_q(self):
        with pytest.raises(LevelOutOfRange):
            IdentifierNet(Memory(NetworkKind.PNN3, 4, [[1, 1]], [[1, 9]]))

    def test_constructor_rejects_fractional_level(self):
        with pytest.raises(LevelOutOfRange):
            IdentifierNet(Memory(NetworkKind.PNN3, 4, [[1, 1]], [[1.0, 2.5]]))

    def test_fractional_q_rejected(self):
        p = Pattern([1, 1], [1, 2])
        with pytest.raises(LevelOutOfRange):
            build_identifier([p], 3.5)

    @pytest.mark.parametrize("memory", [
        build_memory([Pattern([1, -1], [1, 2])], NetworkKind.PNN2, 2),
        None,
    ])
    def test_constructor_needs_a_pnn3_memory(self, memory):
        with pytest.raises(ValueError, match="PNN3 Memory"):
            IdentifierNet(memory)


@pytest.mark.parametrize("call, error, match", [
    (lambda net, patterns: digit_count(0, 4), ValueError, "m must be a whole number >= 1, got 0"),
    (lambda net, patterns: digit_count(5, 1), ValueError, "q must be a whole number >= 2, got 1"),
    (lambda net, patterns: digit_count(2.5, 4), ValueError,
     "m must be a whole number >= 1, got 2.5"),
    (lambda net, patterns: digit_count(5, 2.5), ValueError,
     "q must be a whole number >= 2, got 2.5"),
    (lambda net, patterns: identify(net, patterns[0], enumerated_init=[1, 2, 3]),
     DimensionMismatch, "enumerated_init must have length 2"),
], ids=["digit-count-m0", "digit-count-q1", "digit-count-m-fractional", "digit-count-q-fractional",
        "init-too-long"])
def test_bad_arguments_rejected(call, error, match):
    net, patterns = make_net(10, 12, 4)  # 10 patterns at q = 4 take two digits
    with pytest.raises(error, match=match):
        call(net, patterns)


class TestCouplingStructure:
    def test_true_true_block_is_zero(self):
        net, _ = make_net(6, 7, 3)
        n = net.n_digits
        assert np.all(coupling_block(net, n, n + 3) == 0)
        assert np.all(coupling_block(net, n + 1, n + 1) == 0)

    def test_enumerated_enumerated_block_is_zero(self):
        net, _ = make_net(6, 7, 3)
        assert np.all(coupling_block(net, 0, 1) == 0)
        assert np.all(coupling_block(net, 1, 0) == 0)

    def test_enumerated_true_block_matches_centered_hebbian(self):
        from oracles import centered_vector

        net, _ = make_net(5, 6, 3)
        block = coupling_block(net, 1, net.n_digits + 2)
        want = np.zeros((3, 3))
        for mu in range(net.memory.n_patterns):
            y = centered_vector(int(net.digit_codes[mu, 1]) + 1, 3)
            x = centered_vector(int(net.memory.pattern_levels[mu, 2]), 3)
            want += np.outer(y, x)
        np.testing.assert_allclose(block, want, atol=1e-12)

    def test_enumerated_field_matches_naive(self):
        # the amplitudes identify takes each digit's argmax of, scaled back to the field
        net, patterns = make_net(8, 9, 4)
        memory = net.memory
        state = apply_qnary_noise(patterns[3], 4, NoiseSpec(0, 0.3), make_rng(5))
        m = _overlaps(memory, state.signs, state.levels)
        for j in range(net.n_digits):
            got = _digit_amplitudes(net, m, int(m.sum()), j) / _field_denominator(memory)
            want = naive_identifier_field(net, state, j)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestIdentify:
    def test_clean_inputs_identified_exactly(self):
        net, patterns = make_net(50, 30, 8)
        for idx in (0, 7, 23, 49):
            assert identify(net, patterns[idx]) == idx

    def test_noisy_inputs_identified(self):
        net, patterns = make_net(40, 60, 16, seed=3)
        rng = make_rng(4)
        hits = 0
        for t in range(60):
            idx = t % 40
            noisy = apply_qnary_noise(patterns[idx], 16, NoiseSpec(0, 0.3), rng)
            hits += identify(net, noisy) == idx
        assert hits >= 57

    def test_enumerated_seeds_do_not_matter(self):
        net, patterns = make_net(30, 25, 5, seed=6)
        noisy = apply_qnary_noise(patterns[11], 5, NoiseSpec(0, 0.4), make_rng(7))
        rng = make_rng(8)
        results = {
            identify(net, noisy, enumerated_init=rng.integers(1, 6, size=net.n_digits))
            for _ in range(10)
        }
        assert len(results) == 1

    def test_counter_counts_one_field_per_digit(self):
        net, patterns = make_net(200, 20, 8, seed=9)
        counter = OpCounter()
        identify(net, patterns[123], counter=counter)
        assert counter.enumerated_field_evals == net.n_digits == 3

    def test_unknown_pattern_raised_for_out_of_range_decode(self):
        # M=3 with q=2 leaves decoded index 3 unmapped; a state far from all
        # patterns can decode to it
        levels = np.array([[1, 1, 1, 1], [1, 2, 1, 2], [2, 1, 2, 1]])
        patterns = [Pattern(np.ones(4, dtype=np.int8), lv) for lv in levels]
        net = build_identifier(patterns, 2)
        probe = Pattern(np.ones(4, dtype=np.int8), [2, 2, 2, 2])
        with pytest.raises(UnknownPattern) as excinfo:
            identify(net, probe)
        assert excinfo.value.decoded_index == 3

    def test_input_validation(self):
        net, _ = make_net(10, 12, 4)
        with pytest.raises(DimensionMismatch):
            identify(net, Pattern(np.ones(11), np.ones(11)))
        with pytest.raises(LevelOutOfRange):
            identify(net, Pattern(np.ones(12), np.full(12, 9)))
        with pytest.raises(SignNotAllowed):
            identify(net, Pattern(-np.ones(12), np.ones(12)))
        with pytest.raises(LevelOutOfRange):
            identify(net, _[0], enumerated_init=[0, 1])
        with pytest.raises(LevelOutOfRange):
            identify(net, _[0], enumerated_init=[1.5, 2])

    def test_zero_noise_exact_far_from_capacity(self):
        n, q = 80, 8
        m = int(capacity_pnn3(n, q, b=0.0) / 10)
        net, patterns = make_net(m, n, q, seed=12)
        for idx in range(0, m, 7):
            assert identify(net, patterns[idx]) == idx
