"""Network construction, fields, updates, dynamics and energy."""

import tracemalloc

import numpy as np
import pytest

import pnn.core
from pnn import (
    DimensionMismatch,
    IndexOutOfRange,
    LevelOutOfRange,
    Memory,
    NetworkKind,
    Pattern,
    SignNotAllowed,
    asynchronous_retrieve,
    build_memory,
    energy,
    is_fixed_point,
    local_field,
    make_rng,
    random_qnary_patterns,
    retrieve_batch,
    synchronous_step,
)
from oracles import (
    ScalarHopfield,
    exact_local_field,
    naive_decide,
    naive_energy,
    naive_local_field,
    reference_asynchronous_retrieve,
    with_neuron,
)
from pnn.core import _overlaps


def random_memory(rng, n, q, m, kind):
    patterns = random_qnary_patterns(m, n, q, kind, rng)
    return build_memory(patterns, kind, q), patterns


def random_state(rng, n, q, kind):
    levels = rng.integers(1, q + 1, size=n)
    if kind is NetworkKind.PNN2:
        signs = 2 * rng.integers(0, 2, size=n) - 1
    else:
        signs = np.ones(n, dtype=np.int8)
    return Pattern(signs, levels)


def naive_step(mem, state):
    """The synchronous step by the naive rule on every naive field.  The field is an integer
    over N alpha^2, which divides N q^2; rounding the float oracle to that grid keeps exact
    ties tied."""
    scale = mem.n_neurons * mem.q * mem.q
    fields = [np.round(naive_local_field(mem, state, i) * scale) for i in range(mem.n_neurons)]
    rule = [naive_decide(mem.kind, h, int(state.signs[i]), int(state.levels[i]))
            for i, h in enumerate(fields)]
    return Pattern(*zip(*rule))


class TestConstruction:
    def test_single_pattern_memory_is_stable(self):
        p = Pattern([1, -1], [1, 2])
        mem = build_memory([p], NetworkKind.PNN2, 2)
        assert mem.n_patterns == 1
        assert is_fixed_point(mem, p)

    def test_ragged_patterns_rejected(self):
        a = Pattern([1, 1, 1], [1, 1, 1])
        b = Pattern([1, 1, 1, 1], [1, 1, 1, 1])
        with pytest.raises(DimensionMismatch):
            build_memory([a, b], NetworkKind.PNN2, 2)

    def test_signed_state_rejected_by_pnn3(self):
        p = Pattern([1, -1], [1, 2])
        with pytest.raises(SignNotAllowed):
            build_memory([p], NetworkKind.PNN3, 2)

    def test_level_above_q_rejected(self):
        p = Pattern([1, 1], [1, 3])
        with pytest.raises(LevelOutOfRange):
            build_memory([p], NetworkKind.PNN2, 2)

    def test_empty_pattern_list_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_memory([], NetworkKind.PNN2, 2)

    def test_pnn3_with_q1_rejected(self):
        p = Pattern([1, 1], [1, 1])
        with pytest.raises(LevelOutOfRange):
            build_memory([p], NetworkKind.PNN3, 1)

    def test_constructor_rejects_level_above_q(self):
        with pytest.raises(LevelOutOfRange):
            Memory(NetworkKind.PNN2, 2, [[1, -1]], [[1, 5]])

    def test_constructor_rejects_signed_pnn3_state(self):
        with pytest.raises(SignNotAllowed):
            Memory(NetworkKind.PNN3, 2, [[1, -1]], [[1, 2]])

    @pytest.mark.parametrize("signs, levels, error", [
        ([1.5, -1], [2, 1], SignNotAllowed),
        ([1, -1], [2.9, 1], LevelOutOfRange),
        ([1], [1e20], LevelOutOfRange),
        ([1], [2.0**63], LevelOutOfRange),
        ([1], np.array([2**63], dtype=np.uint64), LevelOutOfRange),
        ([1], np.array([2**64 - 1], dtype=np.uint64), LevelOutOfRange),
    ])
    def test_pattern_rejects_fractional_values(self, signs, levels, error):
        with pytest.raises(error):
            Pattern(signs, levels)

    @pytest.mark.parametrize("signs, levels, error", [
        ([0, 1], [1, 1], SignNotAllowed),
        ([1, 1], [0, 1], LevelOutOfRange),
    ])
    def test_pattern_rejects_zero_sign_and_level(self, signs, levels, error):
        with pytest.raises(error):
            Pattern(signs, levels)

    def test_constructor_rejects_fractional_level(self):
        with pytest.raises(LevelOutOfRange):
            Memory(NetworkKind.PNN2, 3, [[1.0, -1.0]], [[2.5, 1.0]])

    @pytest.mark.parametrize("kind", ["pnn3", "pnn2", None])
    def test_constructor_rejects_kind_not_a_network_kind(self, kind):
        with pytest.raises(ValueError, match="NetworkKind"):
            Memory(kind, 3, [[1, 1, 1]], [[2, 1, 3]])
        with pytest.raises(ValueError, match="NetworkKind"):
            build_memory([Pattern([1, 1, 1], [2, 1, 3])], kind, 3)

    @pytest.mark.parametrize("q", [3.7, 2.5, float("nan")])
    def test_constructor_rejects_non_integral_q(self, q):
        with pytest.raises(LevelOutOfRange):
            Memory(NetworkKind.PNN2, q, [[1, -1]], [[2, 1]])

    def test_whole_float_values_accepted(self):
        mem = Memory(NetworkKind.PNN2, 3, [[1.0, -1.0]], [[3.0, 1.0]])
        assert np.array_equal(mem.pattern_signs, [[1, -1]])
        assert np.array_equal(mem.pattern_levels, [[3, 1]])

    # a fill block holds 2**16 // N = 4 patterns at N = 2**14: M = 9 spans three, the last partial
    @pytest.mark.parametrize("kind, field, value, error", [
        (NetworkKind.PNN2, "levels", 4, LevelOutOfRange),  # q + 1
        (NetworkKind.PNN2, "signs", 0, SignNotAllowed),
        (NetworkKind.PNN3, "signs", -1, SignNotAllowed),
        (NetworkKind.PNN2, "levels", 2.5, LevelOutOfRange),  # no Pattern holds it
        (NetworkKind.PNN2, "levels", np.nan, LevelOutOfRange),  # a cast before the check warns
    ])
    def test_bad_entry_in_the_last_fill_block_rejected(self, kind, field, value, error):
        n, m, q = 2**14, 9, 3
        rows = {"signs": np.ones((m, n)), "levels": np.full((m, n), 2.0)}
        rows[field][m - 1, n - 1] = value
        with pytest.raises(error) as from_arrays:
            Memory(kind, q, rows["signs"], rows["levels"])
        if value % 1 == 0:
            # Pattern._of skips the checks of Pattern(...), so a zero sign reaches build_memory
            patterns = [Pattern._of(s, l) for s, l in zip(rows["signs"], rows["levels"])]
            with pytest.raises(error) as from_patterns:
                build_memory(patterns, kind, q)
            assert str(from_patterns.value) == str(from_arrays.value)

    def test_faults_in_two_fill_blocks_reported_as_one_whole_input_check_does(self):
        # the signed state in block 0 is checked after the level above q in block 2
        n, m, q = 2**14, 9, 3
        signs, levels = np.ones((m, n), dtype=np.int8), np.full((m, n), 2)
        signs[0, 0], levels[m - 1, 0], levels[m - 1, 1] = -1, 4, 5
        with pytest.raises(LevelOutOfRange, match="level 5 exceeds q=3"):
            Memory(NetworkKind.PNN3, q, signs, levels)
        with pytest.raises(LevelOutOfRange, match="level 5 exceeds q=3"):
            build_memory([Pattern(s, l) for s, l in zip(signs, levels)], NetworkKind.PNN3, q)

    @pytest.mark.parametrize("q", [255, 65535])
    def test_level_that_the_narrow_type_would_wrap_rejected(self, q):
        # 257 in uint8 and 65537 in uint16 would wrap to level 1
        levels = np.array([1, q + 2], dtype=np.int64)
        with pytest.raises(LevelOutOfRange, match=f"level {q + 2} exceeds q={q}"):
            build_memory([Pattern([1, 1], levels)], NetworkKind.PNN2, q)
        with pytest.raises(LevelOutOfRange, match=f"level {q + 2} exceeds q={q}"):
            Memory(NetworkKind.PNN2, q, [[1, 1]], levels[None])

    def test_level_counts_match_naive_count_across_blocks(self):
        # M = 1000 counts 65 neurons per block: three blocks, the last partial
        mem, _ = random_memory(make_rng(39), 150, 5, 1000, NetworkKind.PNN2)
        levels = mem.pattern_levels
        naive = np.stack([np.count_nonzero(levels == l, axis=0) for l in range(1, 6)], axis=1)
        assert np.array_equal(mem._level_counts, naive)

    def test_exactness_premise_checked_before_the_count_table(self, monkeypatch):
        # the batched keys reach 4 M q N, exact in float64 only below 2**53
        def count_table(*args):
            raise AssertionError("count table allocated")

        monkeypatch.setattr("pnn.core._level_sums", count_table)
        with pytest.raises(DimensionMismatch, match="2\\*\\*53"):
            Memory(NetworkKind.PNN2, 2**51, [[1]], [[1]])
        with pytest.raises(AssertionError, match="count table"):  # 4 M q N = 2**53 - 4
            Memory(NetworkKind.PNN2, 2**51 - 1, [[1]], [[1]])

    def test_memory_arrays_immutable(self):
        mem, _ = random_memory(make_rng(0), 10, 3, 2, NetworkKind.PNN2)
        with pytest.raises(ValueError):
            mem.pattern_levels[0, 0] = 2


class TestLocalField:
    def test_hand_evaluated_single_pattern(self):
        x = Pattern([1, 1], [1, 2])
        mem = build_memory([x], NetworkKind.PNN2, 2)
        np.testing.assert_allclose(local_field(mem, x, 0), [0.5, 0.0])

    def test_hand_evaluated_flipped_neighbor(self):
        x = Pattern([1, 1], [1, 2])
        mem = build_memory([x], NetworkKind.PNN2, 2)
        state = Pattern([1, -1], [1, 2])
        np.testing.assert_allclose(local_field(mem, state, 0), [-0.5, 0.0])

    def test_index_out_of_range(self):
        x = Pattern([1, 1], [1, 2])
        mem = build_memory([x], NetworkKind.PNN2, 2)
        with pytest.raises(IndexOutOfRange):
            local_field(mem, x, 2)
        with pytest.raises(IndexOutOfRange):
            local_field(mem, x, -1)
        with pytest.raises(IndexOutOfRange):
            local_field(mem, x, 1.5)

    def test_returns_read_only_float64_amplitudes(self):
        mem, _ = random_memory(make_rng(14), 6, 3, 2, NetworkKind.PNN3)
        h = local_field(mem, random_state(make_rng(15), 6, 3, NetworkKind.PNN3), 2)
        assert (type(h), h.dtype, h.shape) == (np.ndarray, np.float64, (3,))
        with pytest.raises(ValueError):
            h[0] = 1.0

    @pytest.mark.parametrize("kind", [NetworkKind.PNN2, NetworkKind.PNN3])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_matches_naive_double_sum(self, kind, q):
        rng = make_rng(11, q)
        mem, _ = random_memory(rng, 8, q, 4, kind)
        for trial in range(5):
            state = random_state(rng, 8, q, kind)
            for i in (0, 3, 7):
                got = local_field(mem, state, i)
                want = naive_local_field(mem, state, i)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_q1_reduces_to_hopfield_field(self):
        rng = make_rng(12)
        mem, patterns = random_memory(rng, 20, 1, 3, NetworkKind.PNN2)
        oracle = ScalarHopfield([p.signs for p in patterns])
        state = random_state(rng, 20, 1, NetworkKind.PNN2)
        for i in range(20):
            got = local_field(mem, state, i)
            want = oracle.field(state.signs, i) / 20
            np.testing.assert_allclose(got, [want], rtol=1e-12, atol=1e-15)

    def test_additive_over_pattern_sets(self):
        # Hebbian sums are linear in the stored set
        rng = make_rng(13)
        n, q = 10, 4
        first = random_qnary_patterns(3, n, q, NetworkKind.PNN2, rng)
        second = random_qnary_patterns(2, n, q, NetworkKind.PNN2, rng)
        mem_a = build_memory(first, NetworkKind.PNN2, q)
        mem_b = build_memory(second, NetworkKind.PNN2, q)
        mem_ab = build_memory(first + second, NetworkKind.PNN2, q)
        state = random_state(rng, n, q, NetworkKind.PNN2)
        for i in range(n):
            combined = local_field(mem_ab, state, i)
            split = local_field(mem_a, state, i) + local_field(mem_b, state, i)
            np.testing.assert_allclose(combined, split, atol=1e-12)


    @pytest.mark.parametrize("n", [127, 128, 32767, 32768])
    def test_overlaps_reach_plus_and_minus_n_at_the_accumulator_bounds(self, n):
        # the column sums run in the narrowest type that holds +-N: int8 up to N = 127,
        # int16 up to 32767, so each N here sits at one end of a type's range
        ones = np.ones(n, dtype=np.int8)
        mem = Memory(NetworkKind.PNN2, 1, np.stack([ones, -ones]), np.ones((2, n), dtype=np.int8))
        for sign in (1, -1):
            m = _overlaps(mem, sign * ones, ones)
            assert m.dtype == np.int64 and m.tolist() == [sign * n, -sign * n]


class TestNeuronUpdate:
    """Hand-worked cases of the oracle decision rule the dynamics are checked against."""

    def test_unique_max_modulus(self):
        assert naive_decide(NetworkKind.PNN2, [0.5, 0.0], 1, 2) == (1, 1)

    def test_sign_carried_from_amplitude(self):
        assert naive_decide(NetworkKind.PNN2, [-0.3, 0.2], 1, 2) == (-1, 1)

    def test_tie_keeps_current_level_with_field_sign(self):
        assert naive_decide(NetworkKind.PNN2, [0.5, -0.5], 1, 2) == (-1, 2)

    def test_tie_without_current_level_picks_lowest(self):
        assert naive_decide(NetworkKind.PNN2, [0.5, -0.5, 0.1], 1, 3) == (1, 1)

    def test_pnn3_signed_argmax(self):
        assert naive_decide(NetworkKind.PNN3, [0.1, 0.4, -0.9], 1, 1) == (1, 2)

    def test_all_zero_field_keeps_state(self):
        assert naive_decide(NetworkKind.PNN2, np.zeros(3), -1, 2) == (-1, 2)
        assert naive_decide(NetworkKind.PNN3, np.zeros(3), 1, 2) == (1, 2)

    def test_zero_at_chosen_level_keeps_sign(self):
        # the largest modulus is zero only when every amplitude is; the
        # current level wins the tie and keeps its negative sign
        assert naive_decide(NetworkKind.PNN2, [0.0, 0.0, 0.0], -1, 1) == (-1, 1)


class TestSynchronousStep:
    def test_stored_pattern_is_fixed(self):
        rng = make_rng(21)
        mem, patterns = random_memory(rng, 12, 4, 1, NetworkKind.PNN2)
        assert synchronous_step(mem, patterns[0]) == patterns[0]

    def test_single_corruption_corrected(self):
        x = Pattern([1, 1, 1], [1, 2, 1])
        mem = build_memory([x], NetworkKind.PNN2, 2)
        corrupted = Pattern([1, 1, 1], [1, 2, 2])
        assert synchronous_step(mem, corrupted) == x

    def test_q1_matches_scalar_oracle(self):
        rng = make_rng(22)
        for case in range(10):
            mem, patterns = random_memory(rng, 15, 1, 3, NetworkKind.PNN2)
            oracle = ScalarHopfield([p.signs for p in patterns])
            state = random_state(rng, 15, 1, NetworkKind.PNN2)
            got = synchronous_step(mem, state)
            want = oracle.synchronous_step(state.signs)
            assert np.array_equal(got.signs, want)
            assert np.all(got.levels == 1)

    def test_global_sign_symmetry(self):
        rng = make_rng(23)
        mem, _ = random_memory(rng, 15, 4, 5, NetworkKind.PNN2)
        state = random_state(rng, 15, 4, NetworkKind.PNN2)
        out = synchronous_step(mem, state)
        out_flipped = synchronous_step(mem, state.sign_flipped())
        assert out_flipped == out.sign_flipped()

    def test_dimension_mismatch(self):
        mem, _ = random_memory(make_rng(24), 10, 2, 2, NetworkKind.PNN2)
        with pytest.raises(DimensionMismatch):
            synchronous_step(mem, Pattern(np.ones(9), np.ones(9)))

    def test_step_at_q1_by_hand(self):
        # Hopfield couplings of [1, 1, 1] and [1, -1, -1]: J_01 = J_02 = 0 and
        # J_12 = 2, so neuron 0 sees a zero field and keeps its sign, while
        # neurons 1 and 2 copy each other's sign
        mem = Memory(NetworkKind.PNN2, 1, [[1, 1, 1], [1, -1, -1]], np.ones((2, 3)))
        a, b = Pattern([-1, 1, -1], [1, 1, 1]), Pattern([1, 1, 1], [1, 1, 1])
        assert synchronous_step(mem, a) == Pattern([-1, -1, 1], [1, 1, 1])
        assert synchronous_step(mem, b) == b

    @pytest.mark.parametrize("kind", list(NetworkKind))
    def test_large_q_follows_the_naive_rule(self, kind):
        # at q = 2**14 each step's one block decision bins N q = 163,840
        # level sums; levels spread over all of q
        n, q = 10, 2**14
        rng = make_rng(26)
        levels = rng.choice([1, 2, 5000, q - 1, q], size=(3, n))
        signs = np.ones((3, n)) if kind is NetworkKind.PNN3 else rng.choice([-1, 1], size=(3, n))
        mem = Memory(kind, q, signs, levels)
        # states from the same few levels, so that the self-coupling terms
        # decide some neurons, and two neurons at any level
        states = []
        for _ in range(3):
            lv = rng.choice([1, 2, 5000, q - 1, q], size=n)
            lv[:2] = rng.integers(1, q + 1, size=2)
            s = np.ones(n) if kind is NetworkKind.PNN3 else rng.choice([-1, 1], size=n)
            states.append(Pattern(s, lv))
        assert [synchronous_step(mem, state) for state in states] == [
            naive_step(mem, state) for state in states
        ]

    def test_step_rejects_a_bad_state(self):
        mem, _ = random_memory(make_rng(25), 10, 2, 2, NetworkKind.PNN2)
        with pytest.raises(LevelOutOfRange):
            synchronous_step(mem, Pattern(np.ones(10), np.full(10, 3)))


class TestAsynchronousRetrieve:
    def test_stored_pattern_converges_immediately(self):
        rng = make_rng(31)
        mem, patterns = random_memory(rng, 12, 4, 2, NetworkKind.PNN2)
        res = asynchronous_retrieve(mem, patterns[0], 5)
        assert res.converged and res.sweeps_used == 1 and res.updates_changed == 0
        assert res.final_state == patterns[0]

    def test_pnn3_moves_with_alpha_beyond_int8(self):
        # PNN3 scales by alpha = q; from q = 128 on, alpha times the int8
        # stored signs no longer fits in int8
        mem, patterns = random_memory(make_rng(32), 6, 200, 2, NetworkKind.PNN3)
        target = patterns[0]
        noisy = with_neuron(target, 0, 1, int(target.levels[0]) % 200 + 1)
        res = asynchronous_retrieve(mem, noisy, 3)
        assert (res.final_state, res.updates_changed) == (target, 1)

    def test_single_agreement_recovers_pattern(self):
        # N=4 single stored pattern; input agrees only at neuron 0
        x = Pattern([1, 1, 1, 1], [1, 2, 1, 2])
        mem = build_memory([x], NetworkKind.PNN2, 2)
        inp = Pattern([1, 1, 1, -1], [1, 1, 2, 1])
        res = asynchronous_retrieve(mem, inp, 5)
        assert res.converged and res.sweeps_used <= 2
        assert res.final_state == x

    def test_anti_agreement_recovers_flipped_pattern(self):
        x = Pattern([1, 1, 1, 1], [1, 2, 1, 2])
        mem = build_memory([x], NetworkKind.PNN2, 2)
        inp = Pattern([-1, 1, 1, -1], [1, 1, 2, 1])
        res = asynchronous_retrieve(mem, inp, 5)
        assert res.converged
        assert res.final_state == x.sign_flipped()

    def test_max_sweeps_zero_rejected(self):
        mem, patterns = random_memory(make_rng(32), 10, 2, 2, NetworkKind.PNN2)
        with pytest.raises(ValueError):
            asynchronous_retrieve(mem, patterns[0], 0)

    @pytest.mark.parametrize("max_sweeps", [0, 2.5, -1])
    def test_bad_max_sweeps_rejected_alike_by_both_entry_points(self, max_sweeps):
        mem, patterns = random_memory(make_rng(32), 10, 2, 2, NetworkKind.PNN2)
        with pytest.raises(ValueError, match="max_sweeps must be a whole number >= 1"):
            asynchronous_retrieve(mem, patterns[0], max_sweeps)
        with pytest.raises(ValueError, match="max_sweeps must be a whole number >= 1"):
            retrieve_batch(mem, patterns, max_sweeps)

    def test_unconverged_flagged(self):
        # overloaded q=1 network: one sweep from a random state rarely settles
        rng = make_rng(33)
        mem, _ = random_memory(rng, 30, 1, 25, NetworkKind.PNN2)
        for attempt in range(20):
            state = random_state(rng, 30, 1, NetworkKind.PNN2)
            res = asynchronous_retrieve(mem, state, 1)
            if not res.converged:
                break
        else:
            pytest.fail("never saw an unconverged single-sweep run")
        assert res.sweeps_used == 1

    def test_converged_result_is_fixed_point(self):
        rng = make_rng(34)
        for kind in (NetworkKind.PNN2, NetworkKind.PNN3):
            mem, _ = random_memory(rng, 20, 4, 6, kind)
            state = random_state(rng, 20, 4, kind)
            res = asynchronous_retrieve(mem, state, 50)
            assert res.converged
            assert is_fixed_point(mem, res.final_state)

    def test_random_permutation_order_is_seeded(self):
        rng = make_rng(35)
        mem, _ = random_memory(rng, 20, 3, 5, NetworkKind.PNN2)
        state = random_state(rng, 20, 3, NetworkKind.PNN2)
        a = asynchronous_retrieve(mem, state, 5, rng=make_rng(77))
        b = asynchronous_retrieve(mem, state, 5, rng=make_rng(77))
        assert a.final_state == b.final_state and a.sweeps_used == b.sweeps_used

    def test_trace_records_every_visit(self):
        mem, patterns = random_memory(make_rng(36), 8, 2, 2, NetworkKind.PNN2)
        res = asynchronous_retrieve(mem, patterns[0], 3, record_trace=True)
        assert len(res.trace) == 8 * res.sweeps_used
        assert res.trace[-1] == res.final_state

    P2, P3 = NetworkKind.PNN2, NetworkKind.PNN3
    # name: (kind, q, stored signs, stored levels, input signs, input levels), then the visit
    # that shows the case, with its state (s, l) and exact field h (scaled by N alpha^2)
    VISIT_CASES = {
        "pnn2 zero field at every level": (
            (P2, 3, [[-1, -1, -1]], [[1, 2, 1]], [1, -1, -1], [3, 3, 2]), (1, (-1, 3), [0, 0, 0])),
        "pnn2 tie with the current level": (
            (P2, 2, [[-1, 1, -1], [1, -1, 1]], [[2, 2, 1], [2, 1, 1]], [1, 1, 1], [1, 2, 1]),
            (1, (1, 2), [-2, -2])),
        "pnn3 tie with the current level": (
            (P3, 3, [[1, 1, 1]], [[1, 3, 1]], [1, 1, 1], [3, 1, 2]), (0, (1, 3), [-4, 2, 2])),
        "pnn2 tie without the current level": (
            (P2, 3, [[1, 1, 1], [1, -1, -1]], [[1, 3, 3], [3, 2, 1]], [-1, 1, -1], [2, 3, 1]),
            (0, (-1, 2), [1, 0, 1])),
        "pnn3 tie without the current level": (
            (P3, 3, [[1, 1, 1]], [[2, 1, 2]], [1, 1, 1], [2, 2, 3]), (0, (1, 2), [2, -4, 2])),
        # a zero at the new level itself cannot arise: the largest |h| is zero only when all
        # are, and PNN3 amplitudes sum to zero; so the zero sits at the level that is left
        "pnn2 zero at the current level, a new level's sign": (
            (P2, 3, [[1, -1, 1]], [[3, 2, 2]], [1, 1, 1], [3, 3, 1]), (1, (1, 3), [0, -1, 0])),
        "hopfield zero field keeps a negative sign": (
            (P2, 1, [[-1, -1, 1]], [[1, 1, 1]], [-1, 1, 1], [1, 1, 1]), (0, (-1, 1), [0])),
        "pnn2 sign flip at the current level": (
            (P2, 3, [[-1, 1, 1], [1, -1, -1]], [[2, 3, 2], [1, 2, 1]], [-1, 1, -1], [1, 3, 2]),
            (1, (1, 3), [0, 1, -1])),
        "pnn2 a sign flip, then a level move": (
            (P2, 2, [[-1, 1, -1], [-1, -1, 1]], [[1, 1, 2], [2, 1, 2]], [1, 1, -1], [1, 2, 2]),
            (1, (1, 2), [3, 0])),
        "pnn3 moves at two neurons": (
            (P3, 3, [[1, 1, 1]], [[1, 3, 2]], [1, 1, 1], [3, 1, 2]), (1, (1, 1), [-4, -4, 8])),
    }

    @pytest.mark.parametrize("name", list(VISIT_CASES))
    def test_one_traced_sweep_follows_the_naive_rule_at_each_visit(self, name):
        arrays, (at, at_state, at_field) = self.VISIT_CASES[name]
        kind, q, signs, levels, x_signs, x_levels = arrays
        mem, state = Memory(kind, q, signs, levels), Pattern(x_signs, x_levels)
        res = asynchronous_retrieve(mem, state, 1, record_trace=True)
        changed = 0
        for i, after in enumerate(res.trace):
            h, _ = exact_local_field(mem, state, i)
            old = int(state.signs[i]), int(state.levels[i])
            if i == at:
                assert (old, h) == (at_state, at_field)
            new = naive_decide(kind, h, *old)
            changed += new != old
            state = with_neuron(state, i, *new)
            assert after == state, (i, h)
        assert res.final_state == state and res.updates_changed == changed

    # name: (kind, q, the neurons moved off a stored pattern), then the blocks that the run-ahead
    # of a 40-neuron sequential retrieval decides, as (first row, rows): after 8 unchanged visits
    # a block of as many rows as the unchanged run, cut at the sweep's end
    RUN_AHEAD_CASES = {
        "first mover at block offset 0": (
            (NetworkKind.PNN2, 3, [8]), [(8, 8), (17, 8), (25, 15), (0, 31), (31, 9)]),
        "first mover mid-block": (
            (NetworkKind.PNN2, 3, [20]), [(8, 8), (16, 16), (29, 8), (0, 19), (19, 21)]),
        "first mover on a block's last row": (
            (NetworkKind.PNN2, 3, [31]), [(8, 8), (16, 16), (0, 8), (8, 16), (24, 16)]),
        "a block that ends the sweep moves its last row": (
            (NetworkKind.PNN2, 3, [39]), [(8, 8), (16, 16), (32, 8), (8, 8), (16, 16), (32, 8)]),
        "hopfield": ((NetworkKind.PNN2, 1, [12]), [(8, 8), (21, 8), (29, 11), (0, 27), (27, 13)]),
        "pnn3 movers in two blocks": (
            (NetworkKind.PNN3, 3, [8, 20]), [(8, 8), (17, 8), (29, 8), (0, 19), (19, 21)]),
    }

    @staticmethod
    def spy_blocks(monkeypatch):
        """The rows (a slice or an index array) and the size of every block decision of
        asynchronous_retrieve, in call order."""
        blocks = []
        decide = pnn.core._decide_block

        def spy(memory, rows, s, l, mb):
            blocks.append((rows, len(s)))
            return decide(memory, rows, s, l, mb)

        monkeypatch.setattr(pnn.core, "_decide_block", spy)
        return blocks

    @pytest.mark.parametrize("name", list(RUN_AHEAD_CASES))
    def test_run_ahead_blocks_keep_every_visit_of_the_reference(self, name, monkeypatch):
        (kind, q, movers), want_blocks = self.RUN_AHEAD_CASES[name]
        mem, patterns = random_memory(make_rng(41), 40, q, 3, kind)
        state = patterns[0]
        for i in movers:  # a flipped sign, or for PNN3 the next level
            s, l = int(state.signs[i]), int(state.levels[i])
            state = with_neuron(state, i, *((1, l % q + 1) if kind is NetworkKind.PNN3 else (-s, l)))
        want = reference_asynchronous_retrieve(mem, state, 5, record_trace=True)
        # the case as named: sweep 1 moves the given neurons back and nothing else, sweep 2 none
        moved = [i for i, (a, b) in enumerate(zip([state] + want.trace, want.trace)) if a != b]
        assert (moved, want.final_state, want.sweeps_used) == (movers, patterns[0], 2)
        blocks = self.spy_blocks(monkeypatch)
        got = asynchronous_retrieve(mem, state, 5, record_trace=True)
        assert [(rows.start, size) for rows, size in blocks] == want_blocks
        assert (got.final_state, got.converged, got.sweeps_used, got.updates_changed) == (
            want.final_state, want.converged, want.sweeps_used, want.updates_changed)
        assert got.trace == want.trace

    def test_run_ahead_blocks_take_their_rows_from_the_permutation(self, monkeypatch):
        mem, patterns = random_memory(make_rng(42), 40, 3, 3, NetworkKind.PNN2)
        state = with_neuron(patterns[0], 5, -int(patterns[0].signs[5]), int(patterns[0].levels[5]))
        blocks = self.spy_blocks(monkeypatch)
        got = asynchronous_retrieve(mem, state, 5, rng=make_rng(43), record_trace=True)
        want = reference_asynchronous_retrieve(mem, state, 5, rng=make_rng(43), record_trace=True)
        assert (got.final_state, got.sweeps_used, got.updates_changed) == (patterns[0], 2, 1)
        assert (want.final_state, want.sweeps_used, want.updates_changed) == (patterns[0], 2, 1)
        assert got.trace == want.trace
        # neuron 5 comes 23rd in sweep 1, so the blocks are these stretches of the permutations
        replay = make_rng(43)
        perms = [replay.permutation(40) for _ in range(2)]
        assert perms[0][22] == 5
        want_blocks = [(0, 8, 8), (0, 16, 16), (0, 31, 8), (1, 0, 17), (1, 17, 23)]
        assert [rows.tolist() for rows, _ in blocks] == [
            perms[sweep][start:start + size].tolist() for sweep, start, size in want_blocks]


class TestRetrieveBatch:
    @pytest.mark.parametrize("kind, q", [
        (NetworkKind.PNN2, 1), (NetworkKind.PNN2, 3), (NetworkKind.PNN3, 4),
    ])
    def test_rows_equal_serial_retrieval(self, kind, q):
        # random inputs: some hit the 3-sweep cap, the others converge
        rng = make_rng(37)
        mem, _ = random_memory(rng, 40, q, 10, kind)
        inputs = [random_state(rng, 40, q, kind) for _ in range(12)]
        batch = retrieve_batch(mem, inputs, 3)
        serial = [asynchronous_retrieve(mem, x, 3) for x in inputs]
        assert {r.converged for r in serial} == {True, False}
        for got, want in zip(batch, serial):
            assert got.final_state == want.final_state
            assert (got.converged, got.sweeps_used, got.updates_changed) == (
                want.converged, want.sweeps_used, want.updates_changed
            )

    def test_one_visit_moves_rows_by_sign_by_level_and_by_both(self):
        # three noisy copies of a stored pattern that differ from it at neuron 0
        # by the sign, by the level and by both: the first visit moves all three
        # back, so one overlap update covers each shape of the delta, and the
        # later visits see whether it was right
        rng = make_rng(16)
        mem, patterns = random_memory(rng, 10, 3, 3, NetworkKind.PNN2)
        target = patterns[0]
        signs = target.signs.copy()
        signs[rng.choice(np.arange(1, 10), 3, replace=False)] *= -1
        noisy = Pattern(signs, target.levels)
        s0, l0 = int(target.signs[0]), int(target.levels[0])
        other = l0 % 3 + 1
        inputs = [
            with_neuron(noisy, 0, -s0, l0),
            with_neuron(noisy, 0, s0, other),
            with_neuron(noisy, 0, -s0, other),
        ]
        for x in inputs:
            first = asynchronous_retrieve(mem, x, 1, record_trace=True).trace[0]
            assert (first.signs[0], first.levels[0]) == (s0, l0)
        for x, got in zip(inputs, retrieve_batch(mem, inputs, 3)):
            want = asynchronous_retrieve(mem, x, 3)
            assert got.final_state == want.final_state == target
            assert (got.converged, got.sweeps_used, got.updates_changed) == (
                want.converged, want.sweeps_used, want.updates_changed
            ) == (True, 2, 4)

    @pytest.mark.parametrize("kind", [NetworkKind.PNN2, NetworkKind.PNN3])
    def test_large_q_needs_no_table_quadratic_in_q(self, kind):
        # at q = 2**14 a (2q, q) float64 table alone would take 4 GB; what the
        # kernels allocate stays a few float64 per level and neuron or pattern
        q, rng = 2**14, make_rng(39)
        mem, patterns = random_memory(rng, 6, q, 3, kind)
        inputs = [with_neuron(p, 0, 1, int(p.levels[0]) % q + 1) for p in patterns]
        inputs += [random_state(rng, 6, q, kind) for _ in range(2)]
        tracemalloc.start()
        try:
            batch = retrieve_batch(mem, inputs, 3)
            steps = [synchronous_step(mem, x) for x in inputs]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        for got, x in zip(batch, inputs):
            want = asynchronous_retrieve(mem, x, 3)
            assert got.final_state == want.final_state
            assert (got.converged, got.sweeps_used, got.updates_changed) == (
                want.converged, want.sweeps_used, want.updates_changed
            )
        # the lockstep kernel's step rows decide the same steps by their integer key
        assert steps == pnn.core._lockstep(mem, inputs, 1, step_rows=True)[1]

    def test_building_and_stepping_stage_no_whole_copy(self):
        # a Memory keeps 2 bytes per coordinate; building one stages a block of patterns at a
        # time, and an overlap sum a block of neurons, so no (M, N) copy is made on the way
        n = m = 2000
        patterns = random_qnary_patterns(m, n, 16, NetworkKind.PNN2, make_rng(40))
        state = patterns[0].sign_flipped()

        def traced(fn):
            tracemalloc.start()
            try:
                return fn(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mem, built = traced(lambda: build_memory(patterns, NetworkKind.PNN2, 16))
        copy, constructed = traced(
            lambda: Memory(NetworkKind.PNN2, 16, mem.pattern_signs, mem.pattern_levels)
        )
        step, stepped = traced(lambda: synchronous_step(mem, state))
        assert built <= 2.5 * n * m and constructed <= 2.5 * n * m
        assert stepped < 4 * 2**20
        assert np.array_equal(copy._signs, mem._signs) and np.array_equal(copy._levels, mem._levels)
        assert step == state  # the flipped stored pattern is a fixed point, as the pattern is

    @pytest.mark.parametrize("kind", list(NetworkKind))
    def test_drawn_patterns_keep_two_bytes_per_coordinate(self, kind):
        # a drawn Pattern holds int8 signs and, for q <= 255, uint8 levels: M patterns of N
        # retain about 2 bytes per coordinate, where int64 levels took 9, and no int64 draw
        # of all M patterns is staged on the way
        n = m = 2000
        tracemalloc.start()
        try:
            patterns = random_qnary_patterns(m, n, 16, kind, make_rng(41))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= peak <= 2.5 * n * m
        assert len(patterns) == m and patterns[0].levels.dtype == np.uint8

    def test_empty_inputs_rejected(self):
        mem, _ = random_memory(make_rng(38), 10, 2, 2, NetworkKind.PNN2)
        with pytest.raises(DimensionMismatch):
            retrieve_batch(mem, [], 5)

    def test_ragged_inputs_rejected(self):
        mem, patterns = random_memory(make_rng(38), 10, 2, 2, NetworkKind.PNN2)
        short = Pattern(patterns[1].signs[:9], patterns[1].levels[:9])
        with pytest.raises(DimensionMismatch):
            retrieve_batch(mem, [patterns[0], short], 5)

    def test_every_input_validated(self):
        mem, patterns = random_memory(make_rng(38), 10, 2, 2, NetworkKind.PNN3)
        with pytest.raises(LevelOutOfRange):
            retrieve_batch(mem, [patterns[0], Pattern(np.ones(10), np.full(10, 3))], 5)
        with pytest.raises(SignNotAllowed):
            retrieve_batch(mem, [patterns[0], patterns[1].sign_flipped()], 5)


class TestNarrowLevels:
    """A Pattern whose levels are all <= 255 holds them in uint8.  In a network with q > 255,
    retrieval from such inputs must reach the higher levels, with no level wrapping in uint8."""

    @staticmethod
    def memory_and_inputs(kind, q):
        # every other neuron of each stored pattern sits above level 255; each input is a
        # stored pattern with those neurons moved to levels of at most 255
        rng, n, m = make_rng(70), 24, 3
        levels = rng.integers(1, 256, size=(m, n))
        levels[:, ::2] = rng.integers(256, q + 1, size=(m, n // 2))
        signs = np.ones((m, n)) if kind is NetworkKind.PNN3 else rng.choice([-1, 1], size=(m, n))
        inputs = [Pattern(s, np.where(lv > 255, rng.integers(1, 256, size=n), lv))
                  for s, lv in zip(signs, levels)]
        assert all(x.levels.dtype == np.uint8 for x in inputs)
        return Memory(kind, q, signs, levels), inputs

    @staticmethod
    def assert_hashes_as_int64(patterns):
        for p in patterns:
            assert hash(p) == hash(Pattern(p.signs, p.levels.astype(np.int64)))

    @pytest.mark.parametrize("kind", list(NetworkKind))
    @pytest.mark.parametrize("q", [256, 300, 2**14])
    def test_retrieval_reaches_levels_above_255_as_the_oracle_does(self, kind, q):
        mem, inputs = self.memory_and_inputs(kind, q)
        batch = retrieve_batch(mem, inputs, 5)
        for x, lockstep in zip(inputs, batch):
            want = reference_asynchronous_retrieve(mem, x, 5, record_trace=True)
            serial = asynchronous_retrieve(mem, x, 5, record_trace=True)
            assert want.final_state.levels.max() > 255
            for got in (serial, lockstep):
                assert (got.final_state, got.converged, got.sweeps_used, got.updates_changed) == (
                    want.final_state, want.converged, want.sweeps_used, want.updates_changed)
            assert serial.trace == want.trace
            self.assert_hashes_as_int64([serial.final_state, lockstep.final_state, *serial.trace])

    @pytest.mark.parametrize("kind", list(NetworkKind))
    @pytest.mark.parametrize("q", [256, 300, 2**14])
    def test_synchronous_step_reaches_levels_above_255_as_the_naive_rule_does(self, kind, q):
        mem, inputs = self.memory_and_inputs(kind, q)
        steps = [synchronous_step(mem, x) for x in inputs]
        assert steps == [naive_step(mem, x) for x in inputs]
        assert steps == pnn.core._lockstep(mem, inputs, 1, step_rows=True)[1]
        assert all(p.levels.max() > 255 for p in steps)
        self.assert_hashes_as_int64(steps)


class TestEnergy:
    def test_hand_evaluated_value(self):
        x = Pattern([1, 1], [1, 2])
        mem = build_memory([x], NetworkKind.PNN2, 2)
        assert energy(mem, x) == pytest.approx(-0.5, abs=1e-15)

    def test_even_under_global_sign_flip(self):
        rng = make_rng(41)
        mem, _ = random_memory(rng, 15, 3, 4, NetworkKind.PNN2)
        state = random_state(rng, 15, 3, NetworkKind.PNN2)
        assert energy(mem, state) == pytest.approx(energy(mem, state.sign_flipped()), abs=1e-12)

    @pytest.mark.parametrize("kind", [NetworkKind.PNN2, NetworkKind.PNN3])
    def test_matches_naive_energy(self, kind):
        rng = make_rng(42)
        mem, _ = random_memory(rng, 8, 3, 3, kind)
        for _ in range(5):
            state = random_state(rng, 8, 3, kind)
            assert energy(mem, state) == pytest.approx(naive_energy(mem, state), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", [NetworkKind.PNN2, NetworkKind.PNN3])
    def test_never_increases_along_dynamics(self, kind):
        rng = make_rng(43)
        mem, _ = random_memory(rng, 20, 4, 8, kind)
        for _ in range(3):
            state = random_state(rng, 20, 4, kind)
            last = energy(mem, state)
            for i in rng.integers(0, 20, size=60):
                i = int(i)
                old = int(state.signs[i]), int(state.levels[i])
                new = naive_decide(mem.kind, local_field(mem, state, i), *old)
                if new != old:
                    state = with_neuron(state, i, *new)
                    current = energy(mem, state)
                    assert current < last  # strict drop on every accepted change
                    last = current
                else:
                    assert energy(mem, state) == last

    def test_retrieval_end_energy_not_above_start(self):
        rng = make_rng(44)
        mem, _ = random_memory(rng, 25, 3, 6, NetworkKind.PNN2)
        state = random_state(rng, 25, 3, NetworkKind.PNN2)
        res = asynchronous_retrieve(mem, state, 30)
        assert energy(mem, res.final_state) <= energy(mem, state) + 1e-12


class TestFixedPoint:
    def test_stored_pattern_true(self):
        mem, patterns = random_memory(make_rng(51), 12, 3, 1, NetworkKind.PNN2)
        assert is_fixed_point(mem, patterns[0])

    def test_perturbed_single_pattern_false(self):
        x = Pattern([1, 1, 1], [1, 2, 1])
        mem = build_memory([x], NetworkKind.PNN2, 2)
        perturbed = Pattern([1, 1, 1], [2, 2, 1])
        assert not is_fixed_point(mem, perturbed)

    def test_lightly_loaded_patterns_all_fixed(self):
        # M well below N q^2 / (20 ln N)
        rng = make_rng(52)
        for kind in (NetworkKind.PNN2, NetworkKind.PNN3):
            mem, patterns = random_memory(rng, 60, 4, 6, kind)
            assert all(is_fixed_point(mem, p) for p in patterns)


class TestHopfieldEquivalence:
    def test_full_trace_matches_scalar_oracle(self):
        rng = make_rng(61)
        for case in range(10):
            n = int(rng.integers(5, 30))
            m = int(rng.integers(1, 5))
            mem, patterns = random_memory(rng, n, 1, m, NetworkKind.PNN2)
            oracle = ScalarHopfield([p.signs for p in patterns])
            state = random_state(rng, n, 1, NetworkKind.PNN2)
            res = asynchronous_retrieve(mem, state, 10, record_trace=True)
            o_final, o_conv, o_sweeps, o_changed, o_trace = oracle.retrieve(state.signs, 10)
            assert np.array_equal(res.final_state.signs, o_final)
            assert res.converged == o_conv
            assert res.sweeps_used == o_sweeps
            assert res.updates_changed == o_changed
            assert len(res.trace) == len(o_trace)
            for mine, theirs in zip(res.trace, o_trace):
                assert np.array_equal(mine.signs, theirs)
