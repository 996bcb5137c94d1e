"""Property tests against the naive oracles and the serial dynamics.

Hypothesis draws small memories of both kinds, with pattern levels drawn
from [1, used] for a random used <= q, so that levels no pattern uses (a
zero level count at a neuron) come up often, and states over all of [1, q].
Fields are checked against the naive sums and, to the bit, against the
exact integer field, energy against the naive sum, both dynamics (the
asynchronous one in either visiting order, visit by visit) and the
synchronous step against the naive decision rule on the naive field, the
batched argmax key against the naive rule on small integer fields,
batched retrieval against its serial form, the first sweep's one-step
rows against the synchronous step of each input, asynchronous
retrieval with its run-ahead blocks against the visit-by-visit reference
on wider memories (N in 16..60, so that blocks are taken), both Memory
constructions against one whole-array transpose and the blocked overlap sum
against the one-pass sum, each across several blocks, the patterns the
library freezes unchecked against the checked Pattern, the one-pass DPNN
build against the images stored one by one, the bisected critical mapping
parameter against the linear scan, the critical mapping parameter and its
binding restrictions against the search of the list of all divisors, the
binary mapping against its literal reference and the identifier's digits
against the naive identifier field.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pnn import (
    IdentifierNet,
    Memory,
    NetworkKind,
    NoFeasibleK,
    NoiseSpec,
    Pattern,
    UnknownPattern,
    apply_qnary_noise,
    asynchronous_retrieve,
    build_memory,
    dpnn_build,
    energy,
    identify,
    k_critical_asymptotic,
    k_critical_detail,
    local_field,
    map_binary,
    random_qnary_patterns,
    retrieve_batch,
    synchronous_step,
    unmap_binary,
)
from oracles import (
    exact_local_field,
    naive_decide,
    naive_energy,
    naive_identifier_field,
    naive_local_field,
    reference_asynchronous_retrieve,
    reference_k_critical_asymptotic,
    reference_k_critical_detail,
    reference_map_binary,
    reference_overlaps,
    reference_unmap_binary,
    with_neuron,
)
from pnn.core import _decide_keys, _lockstep, _lockstep_inputs, _overlaps


@st.composite
def memory_and_states(draw, count=st.just(1), kind=st.sampled_from(NetworkKind), q=None):
    """A memory and ``count`` states; later states may repeat earlier ones."""
    kind = draw(kind)
    q = draw(st.integers(2 if kind is NetworkKind.PNN3 else 1, 5) if q is None else q)
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2, 7))
    used = draw(st.integers(1, q))
    sign = st.just(1) if kind is NetworkKind.PNN3 else st.sampled_from((-1, 1))

    def row(element):
        return st.lists(element, min_size=n, max_size=n)

    def rows(element):
        return draw(st.lists(row(element), min_size=m, max_size=m))

    memory = Memory(kind, q, rows(sign), rows(st.integers(1, used)))
    states = []
    for _ in range(draw(count)):
        if states and draw(st.booleans()):
            states.append(draw(st.sampled_from(states)))
        else:
            states.append(Pattern(draw(row(sign)), draw(row(st.integers(1, q)))))
    return memory, states


def memory_and_state():
    return memory_and_states().map(lambda case: (case[0], case[1][0]))


def naive_update(memory, state, i):
    """The naive rule's (sign, level) for neuron i on the oracle's field,
    rounded so exact ties stay ties.

    The oracle sums floats; its field differs from the exact one by far less
    than 1e-9, while distinct exact amplitudes differ by at least
    1/(N q^2) >= 1/175 at these sizes.
    """
    field = np.round(naive_local_field(memory, state, i), 9)
    return naive_decide(memory.kind, field, int(state.signs[i]), int(state.levels[i]))


@given(memory_and_state())
def test_local_field_matches_naive_double_sum(case):
    memory, state = case
    for i in range(memory.n_neurons):
        got = local_field(memory, state, i)
        np.testing.assert_allclose(got, naive_local_field(memory, state, i), rtol=1e-12, atol=1e-12)


@given(memory_and_state())
def test_local_field_is_the_exact_integer_field_to_the_bit(case):
    memory, state = case
    for i in range(memory.n_neurons):
        field, scale = exact_local_field(memory, state, i)
        assert local_field(memory, state, i).tolist() == [h / scale for h in field]


@given(memory_and_state())
def test_energy_matches_naive_energy(case):
    memory, state = case
    assert energy(memory, state) == pytest.approx(naive_energy(memory, state), rel=1e-12, abs=1e-12)


@given(memory_and_state())
def test_synchronous_step_applies_the_rule_to_every_naive_field(case):
    memory, state = case
    signs, levels = zip(*(naive_update(memory, state, i) for i in range(memory.n_neurons)))
    assert synchronous_step(memory, state) == Pattern(signs, levels)


@given(memory_and_state(), st.data())
def test_batched_key_decides_small_integer_fields_like_the_naive_rule(case, data):
    # decision fields in -2..2 make ties and zeros common; every neuron is
    # put in every one of its states, by the state index z = S (l - 1) +
    # [s = -1] (S = 2 for PNN2, 1 for PNN3), in both call shapes
    memory, _ = case
    kind, q, n = memory.kind, memory.q, memory.n_neurons
    per_level, alpha = (2, 1) if kind is NetworkKind.PNN2 else (1, q)
    states = [(1 - 2 * (z % per_level), z // per_level + 1) for z in range(per_level * q)]
    fields = data.draw(arrays(np.int64, (n, len(states), q), elements=st.integers(-2, 2)))
    # the sums the key is built from: the field with the self-coupling
    # term s alpha C_il put back at the current level l
    sums = fields.astype(np.float64)
    for i in range(n):
        for z, (s, l) in enumerate(states):
            sums[i, z, l - 1] += s * alpha * np.count_nonzero(memory.pattern_levels[:, i] == l)
    _, _, scale, own = _lockstep_inputs(memory, [case[1]])  # own: (n, Q), one entry a state
    base = len(states) * np.arange(n * len(states)).reshape(n, len(states))
    base = base + np.arange(per_level).reshape(-1, 1, 1)
    z = np.tile(np.arange(len(states)), (n, 1))
    column = _decide_keys(kind, scale, sums, z, base, own)
    for i in range(n):
        one = _decide_keys(kind, scale, sums[i], z[i], base[:, 0], own[i])
        for z_now, (s, l) in enumerate(states):
            want = naive_decide(kind, fields[i, z_now], s, l)
            assert states[column[i, z_now]] == states[one[z_now]] == want


@given(memory_and_state(), st.booleans(), st.integers(0, 2**32 - 1))
def test_every_visit_follows_the_naive_field_and_changes_lower_energy(case, permuted, seed):
    memory, state = case
    n = memory.n_neurons
    rng = np.random.default_rng(seed) if permuted else None
    result = asynchronous_retrieve(memory, state, max_sweeps=4, rng=rng, record_trace=True)
    # the visiting order rebuilt from the same seed: one permutation per sweep
    replay = np.random.default_rng(seed)
    visits = [
        int(i) for _ in range(result.sweeps_used)
        for i in (replay.permutation(n) if permuted else range(n))
    ]
    prev, prev_energy = state, naive_energy(memory, state)
    for i, snapshot in zip(visits, result.trace, strict=True):
        assert snapshot == with_neuron(prev, i, *naive_update(memory, prev, i))
        if snapshot != prev:
            snapshot_energy = naive_energy(memory, snapshot)
            assert snapshot_energy < prev_energy - 1e-9
            prev, prev_energy = snapshot, snapshot_energy
    assert result.final_state == prev


@given(memory_and_states(count=st.integers(1, 5)), st.integers(1, 4))
def test_batched_retrieval_equals_serial_retrieval(case, max_sweeps):
    memory, inputs = case
    batch = retrieve_batch(memory, inputs, max_sweeps)
    assert len(batch) == len(inputs)
    for state, got in zip(inputs, batch):
        want = asynchronous_retrieve(memory, state, max_sweeps)
        assert got.final_state == want.final_state
        assert (got.converged, got.sweeps_used, got.updates_changed) == (
            want.converged, want.sweeps_used, want.updates_changed
        )


def outcome(result):
    return result.final_state, result.converged, result.sweeps_used, result.updates_changed


@st.composite
def wide_memory_and_state(draw):
    """A memory of 16 to 60 neurons and an input that is random, a fixed point or one or two
    neurons off a fixed point, so that runs of unchanged visits, and blocks, are common."""
    kind = draw(st.sampled_from(NetworkKind))
    q = draw(st.integers(2 if kind is NetworkKind.PNN3 else 1, 5))
    n, m = draw(st.integers(16, 60)), draw(st.integers(1, 12))
    sign = st.just(1) if kind is NetworkKind.PNN3 else st.sampled_from((-1, 1))
    memory = Memory(kind, q, draw(arrays(np.int8, (m, n), elements=sign)),
                    draw(arrays(np.int64, (m, n), elements=st.integers(1, q))))
    state = Pattern(draw(arrays(np.int8, n, elements=sign)),
                    draw(arrays(np.int64, n, elements=st.integers(1, q))))
    start = draw(st.sampled_from(["random", "fixed point", "off a fixed point"]))
    if start != "random":
        relaxed = reference_asynchronous_retrieve(memory, state, 200)
        assume(relaxed.converged)
        state = relaxed.final_state
    if start == "off a fixed point":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            state = with_neuron(state, i, draw(sign), draw(st.integers(1, q)))
    return memory, state


@given(wide_memory_and_state(), st.booleans(), st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_run_ahead_retrieval_keeps_every_visit_of_the_reference(case, permuted, seed, max_sweeps):
    memory, state = case
    got, want = (
        retrieve(memory, state, max_sweeps, np.random.default_rng(seed) if permuted else None,
                 record_trace=True)
        for retrieve in (asynchronous_retrieve, reference_asynchronous_retrieve)
    )
    assert outcome(got) == outcome(want)
    assert got.trace == want.trace


@pytest.mark.parametrize("kind, q", [
    (NetworkKind.PNN2, st.just(1)), (NetworkKind.PNN2, st.integers(2, 5)),
    (NetworkKind.PNN3, st.integers(2, 5)),
], ids=["hopfield", "pnn2", "pnn3"])
@pytest.mark.parametrize("count, sweeps", [
    (st.just(1), st.just(1)), (st.integers(1, 5), st.integers(1, 4)),
], ids=["one-input-one-sweep", "batch"])
@given(data=st.data())
def test_step_rows_are_the_synchronous_step_and_leave_retrieval_alone(kind, q, count, sweeps, data):
    memory, inputs = data.draw(memory_and_states(count, st.just(kind), q))
    max_sweeps = data.draw(sweeps)
    fixed = data.draw(st.booleans())
    if fixed:  # the inputs relaxed to fixed points, which neither kernel may move
        relaxed = [asynchronous_retrieve(memory, state, 200) for state in inputs]
        assume(all(r.converged for r in relaxed))
        inputs = [r.final_state for r in relaxed]
    results, steps = _lockstep(memory, inputs, max_sweeps, step_rows=True)
    assert steps == [synchronous_step(memory, state) for state in inputs]
    want = retrieve_batch(memory, inputs, max_sweeps)
    assert [outcome(r) for r in results] == [outcome(r) for r in want]
    if fixed:
        assert steps == inputs
        assert [outcome(r) for r in results] == [(state, True, 1, 0) for state in inputs]


@st.composite
def stored_rows(draw):
    """A kind, a q on either side of the uint8 bound and (M, N) int64 signs and levels, with M
    up to one more than three of the fill's blocks of 2**16 // N patterns (N from 330, so that
    a block holds at most 198 patterns)."""
    kind = draw(st.sampled_from(NetworkKind))
    q = draw(st.sampled_from([2, 5, 255, 256] if kind is NetworkKind.PNN3 else [1, 2, 5, 255, 256]))
    n = draw(st.integers(330, 6000))
    m = draw(st.integers(1, 3 * ((1 << 16) // n) + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.integers(1, q + 1, size=(m, n))
    signs = np.ones_like(levels) if kind is NetworkKind.PNN3 else 1 - 2 * rng.integers(0, 2, (m, n))
    return kind, q, signs, levels


@given(stored_rows(), st.sampled_from([np.int8, np.float64]),
       st.sampled_from([np.uint16, np.int64, np.float64]))
def test_both_constructions_store_the_whole_array_transpose(case, sign_type, level_type):
    kind, q, signs, levels = case
    n = signs.shape[1]
    want_levels = levels.astype(np.min_scalar_type(q)).T
    want_counts = np.zeros((n, q), dtype=np.int64)
    np.add.at(want_counts, (np.arange(n), levels - 1), 1)
    patterns = [Pattern(s, l) for s, l in zip(signs, levels)]
    for memory in (
        build_memory(patterns, kind, q),
        Memory(kind, q, signs.astype(sign_type), levels.astype(level_type)),
    ):
        assert memory._signs.dtype == np.int8 and np.array_equal(memory._signs, signs.T)
        assert memory._levels.dtype == want_levels.dtype
        assert np.array_equal(memory._levels, want_levels)
        assert np.array_equal(memory._level_counts, want_counts)


@settings(max_examples=40)
@given(st.sampled_from(NetworkKind), st.integers(1, 5),
       st.sampled_from([(127, 40), (128, 40), (254, 40), (255, 40), (127, 8300), (128, 8300),
                        (2500, 1000)]),
       st.sampled_from(["stored", "flipped", "random"]), st.integers(0, 2**32 - 1))
def test_blocked_overlaps_equal_the_one_pass_sum(kind, q, shape, state, seed):
    """At N = 127 and 128 PNN2's sums widen from int8 to int16; above 2**20 (neuron x pattern)
    entries they run in blocks of neurons (2 blocks at M = 8300, 3 at N = 2500).  PNN3 counts
    level matches in int8 blocks of at most 127 neurons (2 at N = 254, 3 at N = 255 and 20 at
    N = 2500).  A stored state puts some overlap at +-N, and fills each full PNN3 block of its
    pattern to exactly +127."""
    q = max(q, 2) if kind is NetworkKind.PNN3 else q
    (n, m), rng = shape, np.random.default_rng(seed)
    levels = rng.integers(1, q + 1, size=(m, n), dtype=np.uint8)
    signs = np.ones((m, n), dtype=np.int8)
    if kind is NetworkKind.PNN2:
        signs -= 2 * rng.integers(0, 2, size=(m, n), dtype=np.int8)
    memory = Memory(kind, q, signs, levels)
    mu = int(rng.integers(m))
    s, l = signs[mu], levels[mu]
    if state == "flipped" and kind is NetworkKind.PNN2:
        s = -s
    elif state == "random":
        l = rng.integers(1, q + 1, size=n)
        s = s if kind is NetworkKind.PNN3 else 1 - 2 * rng.integers(0, 2, size=n)
    got, want = _overlaps(memory, s, l), reference_overlaps(memory, s, l)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@settings(max_examples=60)
@given(st.sampled_from(NetworkKind), st.integers(1, 4), st.integers(1, 12),
       st.one_of(st.integers(1, 8), st.integers(256, 2**20)), st.floats(0, 1), st.floats(0, 1),
       st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_patterns_the_library_makes_equal_their_checked_pattern(kind, m, n, q, a, b, k, seed):
    """Patterns frozen unchecked (drawn, distorted, sign-flipped and binary images) hold
    int8 signs and levels in [1, q] in the narrowest unsigned type that holds their highest
    level, and equal, and hash as, the Pattern that checks their arrays, at any level dtype."""
    q = max(q, 2) if kind is NetworkKind.PNN3 else q
    rng = np.random.default_rng(seed)
    made = random_qnary_patterns(m, n, q, kind, rng)
    made += [apply_qnary_noise(p, q, NoiseSpec(a, b), rng) for p in made]
    made += [p.sign_flipped() for p in made]
    image = map_binary(1 - 2 * rng.integers(0, 2, size=n * (k + 1)), k)
    assert image.levels.max() <= 2**k
    for p in made + [image]:
        assert p.signs.dtype == np.int8
        assert p.levels.dtype == np.min_scalar_type(int(p.levels.max()))
        assert not (p.signs.flags.writeable or p.levels.flags.writeable)
        assert p == Pattern(p.signs, p.levels)
        assert hash(p) == hash(Pattern(p.signs, p.levels.astype(np.int64)))
    assert all(1 <= p.levels.min() and p.levels.max() <= q for p in made)


@given(st.integers(0, 4), st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_dpnn_build_stores_the_image_of_every_pattern(k, m, fragments, seed):
    """One pass over the staged (M, N) ensemble stores what ``build_memory`` stores from the
    ``map_binary`` image of each pattern."""
    rng = np.random.default_rng(seed)
    ensemble = [(1 - 2 * rng.integers(0, 2, size=fragments * (k + 1))).astype(np.int8)
                for _ in range(m)]
    got = dpnn_build(ensemble, k)
    want = build_memory([map_binary(y, k) for y in ensemble], NetworkKind.PNN2, 2**k)
    assert (got.kind, got.q, got.n_neurons, got.n_patterns) == (
        want.kind, want.q, want.n_neurons, want.n_patterns)
    for name in ("_signs", "_levels", "_level_counts"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w)


@given(st.integers(2, 10**5), st.floats(0.0, 0.5, exclude_max=True))
def test_k_critical_asymptotic_bisection_equals_the_linear_scan(n_bits, a):
    want = reference_k_critical_asymptotic(n_bits, a)
    if want is None:
        with pytest.raises(NoFeasibleK):
            k_critical_asymptotic(n_bits, a)
    else:
        assert k_critical_asymptotic(n_bits, a) == want


@given(
    st.one_of(st.integers(2, 3000), st.integers(2, 10**6)),
    st.one_of(st.sampled_from((0.0, 0.01, 0.1, 0.3, 0.45, 0.49)),
              st.floats(0.0, 0.5, exclude_max=True)),
)
def test_k_critical_detail_equals_the_divisor_list_search(n_bits, a):
    want = reference_k_critical_detail(n_bits, a)
    if want is None:
        with pytest.raises(NoFeasibleK):
            k_critical_detail(n_bits, a)
    else:
        assert k_critical_detail(n_bits, a) == want


@st.composite
def binary_vector(draw):
    k = draw(st.integers(0, 5))
    fragments = draw(st.integers(1, 6))
    bits = st.sampled_from((-1, 1))
    y = draw(st.lists(bits, min_size=fragments * (k + 1), max_size=fragments * (k + 1)))
    return np.array(y), k


@given(binary_vector())
def test_map_binary_matches_reference_and_round_trips(case):
    y, k = case
    image = map_binary(y, k)
    signs, levels = reference_map_binary(y, k)
    assert np.array_equal(image.signs, signs)
    assert np.array_equal(image.levels, levels)
    assert np.array_equal(unmap_binary(image, k), reference_unmap_binary(signs, levels, k))
    assert np.array_equal(unmap_binary(image, k), y)


@given(st.integers(0, 5), st.data())
def test_unmap_binary_matches_reference_and_round_trips(k, data):
    n = data.draw(st.integers(1, 6))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    levels = data.draw(st.lists(st.integers(1, 2**k), min_size=n, max_size=n))
    image = Pattern(signs, levels)
    y = unmap_binary(image, k)
    assert np.array_equal(y, reference_unmap_binary(signs, levels, k))
    assert map_binary(y, k) == image


@st.composite
def identifier_and_input(draw):
    q = draw(st.integers(2, 5))
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 6))
    used = draw(st.integers(1, q))
    level_row = st.lists(st.integers(1, used), min_size=n, max_size=n)
    pattern_levels = draw(st.lists(level_row, min_size=m, max_size=m))
    net = IdentifierNet(Memory(NetworkKind.PNN3, q, np.ones((m, n)), pattern_levels))
    levels = draw(st.lists(st.integers(1, q), min_size=n, max_size=n))
    return net, Pattern(np.ones(n, dtype=np.int8), levels)


@given(identifier_and_input())
def test_identify_decodes_the_naive_identifier_field(case):
    """Digit j is the lowest maximizer of the naive field at enumerated
    coordinate j, rounded so exact ties stay ties (distinct amplitudes differ
    by at least 1/(N q^2) >= 1/150 here), most significant digit first."""
    net, state = case
    want = 0
    for j in range(net.n_digits):
        field = np.round(naive_identifier_field(net, state, j), 9)
        want = want * net.memory.q + int(field.argmax())
    try:
        got = identify(net, state)
    except UnknownPattern as exc:
        assert want >= net.memory.n_patterns
        got = exc.decoded_index
    assert got == want
