"""Binary-to-vector mapping, critical mapping parameter, capacity, pipeline."""

import itertools
import math

import numpy as np
import pytest

from pnn import (
    BindingConstraint,
    DimensionMismatch,
    LengthNotDivisible,
    LevelOutOfRange,
    MappingParams,
    NoFeasibleK,
    Pattern,
    apply_binary_noise,
    asynchronous_retrieve,
    capacity_exponent,
    capacity_pnn2,
    correlated_binary_patterns,
    dpnn_build,
    dpnn_capacity,
    k_critical,
    k_critical_asymptotic,
    k_critical_detail,
    make_rng,
    map_binary,
    unmap_binary,
)
from pnn import dpnn
from oracles import (
    DenseVectorHopfield,
    ScalarHopfield,
    random_binary_patterns,
    reference_map_binary,
    reference_map_fragment,
    reference_unmap_binary,
)

# hand evaluation of the capacity formula at N=1000, a=0, k=1:
# (1000/(2 ln 1000)) * 4 / (1 * (1 + 1/ln 1000))
CAPACITY_1000_0_1 = 252.916273890741103


def pipeline(memory, noisy_y, k, max_sweeps):
    """Three-stage recognition: map, relax to a fixed point (sequential order), map back."""
    result = asynchronous_retrieve(memory, map_binary(noisy_y, k), max_sweeps)
    return unmap_binary(result.final_state, k)


class TestMapping:
    def test_fragment_hand_values(self):
        img = map_binary(np.array([1, -1, 1]), 2)
        assert img.signs[0] == 1 and img.levels[0] == 2
        img = map_binary(np.array([-1, 1, 1]), 2)
        assert img.signs[0] == -1 and img.levels[0] == 4

    def test_k0_is_plain_encoding(self):
        y = np.array([1, -1, -1, 1])
        img = map_binary(y, 0)
        assert np.array_equal(img.signs, y)
        assert np.all(img.levels == 1)

    def test_length_not_divisible(self):
        with pytest.raises(LengthNotDivisible):
            map_binary(np.ones(7, dtype=np.int8), 2)

    @pytest.mark.parametrize("call, error, match", [
        (lambda: map_binary(np.ones((2, 2)), 1), LengthNotDivisible, "non-empty 1-d array"),
        (lambda: map_binary([], 1), LengthNotDivisible, "non-empty 1-d array"),
        (lambda: unmap_binary(Pattern([1, 1], [2, 3]), 1), LengthNotDivisible,
         "image level 3 exceeds 2\\^k=2"),
        (lambda: dpnn_capacity(1000, 0.1, -1), ValueError,
         "mapping parameter k must be a whole number >= 0, got -1"),
        # a fractional k is rejected wherever k enters, before any length or level is checked
        (lambda: MappingParams.for_length(5, 1.5), ValueError,
         "mapping parameter k must be a whole number >= 0, got 1.5"),
        (lambda: map_binary([1] * 5, 1.5), ValueError, "k must be a whole number >= 0, got 1.5"),
        (lambda: dpnn_build([[1] * 5], 1.5), ValueError, "k must be a whole number >= 0, got 1.5"),
        (lambda: unmap_binary(Pattern([1, 1], [1, 2]), 1.5), ValueError,
         "k must be a whole number >= 0, got 1.5"),
        (lambda: dpnn_capacity(1000, 0.1, 1.5), ValueError,
         "k must be a whole number >= 0, got 1.5"),
        (lambda: k_critical(1000.5, 0.1), ValueError,
         "binary length must be a whole number >= 2, got 1000.5"),
        (lambda: k_critical_asymptotic(1000.5, 0.1), ValueError,
         "binary length must be a whole number >= 2, got 1000.5"),
        (lambda: dpnn_capacity(1000.5, 0.1, 1), ValueError,
         "binary length must be a whole number >= 2, got 1000.5"),
        (lambda: k_critical(1, 0.1), ValueError, "binary length must be a whole number >= 2"),
        (lambda: MappingParams.for_length(12.5, 2), LengthNotDivisible,
         "k\\+1=3 must divide the binary length N >= 1, got N=12.5"),
    ], ids=["map-2d", "map-empty", "unmap-level-above-2-to-the-k", "capacity-negative-k",
            "params-fractional-k", "map-fractional-k", "build-fractional-k", "unmap-fractional-k",
            "capacity-fractional-k", "k-critical-fractional-n", "k-asymptotic-fractional-n",
            "capacity-fractional-n", "k-critical-n1", "params-fractional-length"])
    def test_bad_arguments_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_matches_reference_fragment_reader(self):
        rng = make_rng(101)
        for k in (1, 2, 4):
            y = random_binary_patterns(1, 12 * (k + 1), rng)[0]
            img = map_binary(y, k)
            for f in range(12):
                frag = y[f * (k + 1):(f + 1) * (k + 1)]
                sign, level = reference_map_fragment(frag)
                assert img.signs[f] == sign and img.levels[f] == level

    def test_unmap_hand_value(self):
        img = Pattern([-1], [4])
        assert np.array_equal(unmap_binary(img, 2), np.array([-1, 1, 1]))
        assert np.array_equal(unmap_binary(Pattern([1], [1]), 0), np.array([1]))

    def test_roundtrip_exhaustive_small(self):
        for bits in itertools.product((-1, 1), repeat=6):
            y = np.array(bits, dtype=np.int8)
            assert np.array_equal(unmap_binary(map_binary(y, 1), 1), y)

    def test_roundtrip_randomized_large(self):
        rng = make_rng(102)
        for y in random_binary_patterns(200, 100, rng):
            assert np.array_equal(unmap_binary(map_binary(y, 4), 4), y)

    def test_differing_payload_bits_give_orthogonal_levels(self):
        # change any of the last k bits: different level (orthogonal vectors)
        rng = make_rng(103)
        k = 4
        y = random_binary_patterns(1, k + 1, rng)[0]
        base = map_binary(y, k)
        for pos in range(1, k + 1):
            other = y.copy()
            other[pos] = -other[pos]
            mapped = map_binary(other, k)
            assert mapped.levels[0] != base.levels[0]

    def test_differing_sign_bit_gives_opposite_sign_same_level(self):
        y = np.array([1, -1, 1, 1, -1], dtype=np.int8)
        flipped = y.copy()
        flipped[0] = -1
        a, b = map_binary(y, 4), map_binary(flipped, 4)
        assert a.levels[0] == b.levels[0] and a.signs[0] == -b.signs[0]

    def test_mapping_params(self):
        p = MappingParams.for_length(1000, 9)
        assert (p.n, p.q) == (100, 512)
        with pytest.raises(LengthNotDivisible):
            MappingParams.for_length(1000, 6)

    def test_whole_float_k_and_length_act_as_ints(self):
        y = make_rng(104).choice([-1, 1], size=12)
        assert map_binary(y, 2.0) == map_binary(y, 2)
        assert np.array_equal(unmap_binary(map_binary(y, 2), 2.0), y)
        assert dpnn_build([y], 2.0).q == 4
        assert dpnn_capacity(1000.0, 0.1, 2.0) == dpnn_capacity(1000, 0.1, 2)
        assert k_critical(1000.0, 0.1) == k_critical(1000, 0.1) == 9
        assert type(k_critical_asymptotic(1000.0, 0.1)) is int
        params = MappingParams.for_length(12.0, 2.0)
        assert params == MappingParams.for_length(12, 2)
        assert (type(params.n), type(params.n_bits)) == (int, int)

    def test_levels_up_to_2_to_the_62_fit_and_larger_k_is_rejected(self):
        # levels reach 2^k, which int64 holds up to k = 62
        y = np.ones(63, dtype=np.int8)
        img = map_binary(y, 62)
        assert img.levels[0] == 2**62
        assert np.array_equal(unmap_binary(img, 62), y)
        for k in (63, 65):
            with pytest.raises(LevelOutOfRange, match=f"k={k}"):
                MappingParams.for_length(k + 1, k)
            with pytest.raises(LevelOutOfRange, match=f"k={k}"):
                map_binary(np.ones(k + 1, dtype=np.int8), k)
            with pytest.raises(LevelOutOfRange, match=f"k={k}"):
                unmap_binary(Pattern([1], [1]), k)


class TestKCritical:
    def test_value_at_n1000(self):
        assert k_critical(1000, 0.1) == 9

    def test_binding_constraint_small_n(self):
        detail = k_critical_detail(1000, 0.1)
        assert detail.k == 9
        assert detail.binding == frozenset({BindingConstraint.FRAGMENT_COUNT})

    def test_binding_constraint_large_n(self):
        for a in (0.05, 0.1, 0.2, 0.3, 0.4):
            detail = k_critical_detail(10000, a)
            assert detail.binding == frozenset({BindingConstraint.INTACT_FRAGMENTS})

    def test_zero_noise_hits_fragment_floor(self):
        assert k_critical(1000, 0.0) == 9

    def test_result_satisfies_all_restrictions(self):
        for n, a in ((1000, 0.1), (800, 0.2), (10000, 0.3), (2000, 0.05)):
            k = k_critical(n, a)
            d = k + 1
            assert n % d == 0
            assert d * 100 <= n
            assert (n / d) * (1 - a) ** d >= 2
            # the next k must fail divisibility or one of the restrictions
            nd = k + 2
            assert (
                n % nd != 0
                or nd * 100 > n
                or (n / nd) * (1 - a) ** nd < 2
            )

    def test_no_feasible_k(self):
        with pytest.raises(NoFeasibleK):
            k_critical(80, 0.1)

    def test_asymptotic_variant_ignores_divisibility(self):
        assert k_critical_asymptotic(10000, 0.1) == 43
        assert k_critical(10000, 0.1) == 39

    def test_asymptotic_variant_bisects_at_n_1e14(self, monkeypatch):
        """The feasible fragment sizes are a prefix, so about log2 N restriction checks find the
        largest; a scan of every size up to N/100 would make 10^12 of them."""
        n, calls, intact = 10**14, [], dpnn._constraint_intact
        monkeypatch.setattr(
            dpnn, "_constraint_intact", lambda *args: calls.append(args) or intact(*args)
        )
        for a in (0.0, 0.1, 0.49):
            calls.clear()
            k = k_critical_asymptotic(n, a)
            assert 0 < len(calls) <= 2 * math.log2(n)
            assert intact(n, a, k + 1) and (k + 2 > n // 100 or not intact(n, a, k + 2))
        assert k_critical_asymptotic(n, 0.0) == n // 100 - 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            k_critical(1000, 0.5)
        with pytest.raises(ValueError):
            k_critical(1000, -0.1)


class TestCapacity:
    def test_hand_value(self):
        assert dpnn_capacity(1000, 0.0, 1) == pytest.approx(CAPACITY_1000_0_1, rel=1e-9)

    def test_k0_delegates_to_hopfield(self):
        assert dpnn_capacity(500, 0.1, 0) == capacity_pnn2(500, 1, 0.1, 0.0)

    def test_monotone_in_k(self):
        values = [dpnn_capacity(1000, 0.1, k) for k in range(1, 10)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_exponent_ranges(self):
        assert 1.5 <= capacity_exponent(1000, 0.1) <= 2.5
        assert 5 <= capacity_exponent(10000, 0.1) <= 7
        assert 3 <= capacity_exponent(10000, 0.15) <= 5


class TestPipeline:
    def test_stored_pattern_roundtrips_clean(self):
        rng = make_rng(111)
        patterns = random_binary_patterns(5, 40, rng)
        memory = dpnn_build(patterns, 3)
        for y in patterns:
            assert np.array_equal(pipeline(memory, y, 3, max_sweeps=5), y)

    def test_single_pattern_recovers_under_noise(self):
        # one stored pattern: a couple of intact fragments carry the field
        rng = make_rng(112)
        y = random_binary_patterns(1, 60, rng)[0]
        memory = dpnn_build([y], 2)
        noisy = apply_binary_noise(y, 0.2, rng)
        out = pipeline(memory, noisy, 2, max_sweeps=10)
        assert np.array_equal(out, y) or np.array_equal(out, -y)

    def test_two_intact_fragments_suffice_for_single_pattern(self):
        # M=1, k=2: keep two fragments intact and steer every other fragment
        # to a level orthogonal to the stored one; the two intact fragments
        # alone pull the whole image back
        rng = make_rng(115)
        k, n_frag = 2, 10
        y = random_binary_patterns(1, n_frag * (k + 1), rng)[0]
        memory = dpnn_build([y], k)
        image = map_binary(y, k)
        corrupted_levels = image.levels.copy()
        corrupted_signs = image.signs.copy()
        for f in range(2, n_frag):
            corrupted_levels[f] = image.levels[f] % (2**k) + 1  # different level
            corrupted_signs[f] = -image.signs[f]
        noisy = unmap_binary(Pattern(corrupted_signs, corrupted_levels), k)
        out = pipeline(memory, noisy, k, max_sweeps=5)
        assert np.array_equal(out, y)

    def test_k0_reduces_to_scalar_hopfield(self):
        rng = make_rng(113)
        patterns = random_binary_patterns(4, 30, rng)
        memory = dpnn_build(patterns, 0)
        oracle = ScalarHopfield(patterns)
        for _ in range(5):
            noisy = apply_binary_noise(patterns[0], 0.15, rng)
            got = pipeline(memory, noisy, 0, max_sweeps=10)
            want, converged, sweeps, changed, _ = oracle.retrieve(noisy, 10)
            assert np.array_equal(got, want)
            # the k = 0 image is the bits, and the whole outcome is the oracle's
            result = asynchronous_retrieve(memory, map_binary(noisy, 0), 10)
            assert np.array_equal(result.final_state.signs, want)
            assert (result.converged, result.sweeps_used, result.updates_changed) == (
                converged, sweeps, changed)

    @pytest.mark.parametrize(
        "n_bits, k, m, a, c, seed",
        [
            # acceptance c09's c=0.6 ensemble, where every trial collapses onto the template
            (800, 4, 200, 0.1, 0.6, 9000),
            # small and overloaded, so ties and the zero self-coupling decide updates
            (60, 2, 8, 0.3, 0.3, 116),
        ],
    )
    def test_matches_dense_vector_oracle(self, n_bits, k, m, a, c, seed):
        ensemble = correlated_binary_patterns(m, n_bits, c, make_rng(seed, 0))
        memory = dpnn_build(ensemble, k)
        oracle = DenseVectorHopfield([reference_map_binary(y, k) for y in ensemble], 2**k)
        for t in range(5):
            noisy = apply_binary_noise(ensemble[t % m], a, make_rng(seed, 1 + t))
            mine = asynchronous_retrieve(memory, map_binary(noisy, k), 10)
            o_signs, o_levels, o_conv, o_sweeps = oracle.retrieve(
                *reference_map_binary(noisy, k), 10
            )
            assert np.array_equal(mine.final_state.signs, o_signs)
            assert np.array_equal(mine.final_state.levels, o_levels)
            assert (mine.converged, mine.sweeps_used) == (o_conv, o_sweeps)
            assert np.array_equal(
                pipeline(memory, noisy, k, 10),
                reference_unmap_binary(o_signs, o_levels, k),
            )

    @pytest.mark.parametrize("bad", [[1.5, -1.7], [-1.0, 1.2], [1, -1, 0.5, 1]])
    def test_fractional_entries_rejected_and_whole_floats_accepted(self, bad):
        # checked before any cast to integers, which would truncate 1.5 to 1
        for call in (lambda: map_binary(bad, 0), lambda: dpnn_build([bad], 0)):
            with pytest.raises(ValueError, match="only -1 and \\+1"):
                call()
        assert map_binary([1.0, -1.0], 0) == map_binary([1, -1], 0)
        memory = dpnn_build([[1.0, -1.0]], 0)
        assert np.array_equal(memory.pattern_signs, [[1, -1]])
        assert np.array_equal(pipeline(memory, [1.0, -1.0], 0, 3), [1, -1])

    def test_build_validates(self):
        with pytest.raises(LengthNotDivisible):
            dpnn_build([], 2)
        with pytest.raises(LengthNotDivisible):
            dpnn_build([np.ones(7, dtype=np.int8)], 1)
        with pytest.raises(DimensionMismatch):
            dpnn_build([np.ones(8, dtype=np.int8), np.ones(6, dtype=np.int8)], 1)
        with pytest.raises(LengthNotDivisible):  # each length is checked before any is compared
            dpnn_build([np.ones(8, dtype=np.int8), np.ones(7, dtype=np.int8)], 1)
        with pytest.raises(ValueError, match="only -1 and \\+1"):
            dpnn_build([np.ones(8, dtype=np.int8), np.zeros(8, dtype=np.int8)], 1)
        with pytest.raises(LevelOutOfRange):
            dpnn_build([np.ones(64, dtype=np.int8)], 63)


class TestDecorrelation:
    def test_correlated_bits_become_nearly_orthogonal_images(self):
        # coordinate agreement of the images drops from ~c to ~(agree)^(k+1)
        rng = make_rng(114)
        k = 4
        a, b = correlated_binary_patterns(2, 5000 * (k + 1), 0.8, rng)
        bit_agreement = np.mean(a == b)
        img_a, img_b = map_binary(a, k), map_binary(b, k)
        image_agreement = np.mean(
            (img_a.levels == img_b.levels) & (img_a.signs == img_b.signs)
        )
        assert bit_agreement > 0.75
        assert image_agreement < bit_agreement**4
