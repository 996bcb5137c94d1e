"""Property tests against the naive oracles and the serial dynamics.

Hypothesis draws small memories of both kinds, with pattern levels drawn
from [1, used] for a random used <= q, so that levels no pattern uses (a
zero level count at a neuron) come up often, and states over all of [1, q].
Fields are checked against the naive sums and, to the bit, against the
exact integer field, energy against the naive sum, both dynamics (the
asynchronous one in either visiting order, visit by visit) and the batched
synchronous step against the naive decision rule on the naive field, the
batched argmax key against the naive rule on small integer fields,
batched retrieval and the batched step against their serial forms, the
first sweep's one-step rows against the batched step, asynchronous
retrieval with its run-ahead blocks against the visit-by-visit reference
on wider memories (N in 16..60, so that blocks are taken), the
binary mapping against its literal reference and the identifier's digits
against the naive identifier field.
"""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from pnn import (
    IdentifierNet,
    Memory,
    NetworkKind,
    Pattern,
    UnknownPattern,
    UpdateOrder,
    asynchronous_retrieve,
    energy,
    identify,
    local_field,
    map_binary,
    retrieve_batch,
    synchronous_batch,
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
    reference_map_binary,
    reference_unmap_binary,
    with_neuron,
)
from pnn.core import _decide_keys, _lockstep, _lockstep_inputs


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


@given(memory_and_states(count=st.integers(1, 5)))
def test_batched_synchronous_step_equals_serial_step_and_naive_rule(case):
    memory, states = case
    batch = synchronous_batch(memory, states)
    assert len(batch) == len(states)
    for state, got in zip(states, batch):
        assert got == synchronous_step(memory, state)
        signs, levels = zip(*(naive_update(memory, state, i) for i in range(memory.n_neurons)))
        assert got == Pattern(signs, levels)


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


@given(memory_and_state(), st.sampled_from(UpdateOrder), st.integers(0, 2**32 - 1))
def test_every_visit_follows_the_naive_field_and_changes_lower_energy(case, order, seed):
    memory, state = case
    n = memory.n_neurons
    result = asynchronous_retrieve(
        memory, state, max_sweeps=4, order=order, rng=np.random.default_rng(seed), record_trace=True
    )
    # the visiting order rebuilt from the same seed: one permutation per sweep
    replay = np.random.default_rng(seed)
    visits = [
        int(i) for _ in range(result.sweeps_used)
        for i in (range(n) if order is UpdateOrder.SEQUENTIAL else replay.permutation(n))
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


@given(wide_memory_and_state(), st.sampled_from(UpdateOrder), st.integers(0, 2**32 - 1),
       st.integers(1, 6))
def test_run_ahead_retrieval_keeps_every_visit_of_the_reference(case, order, seed, max_sweeps):
    memory, state = case
    got, want = (
        retrieve(memory, state, max_sweeps, order, np.random.default_rng(seed), record_trace=True)
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
    assert steps == synchronous_batch(memory, inputs)
    want = retrieve_batch(memory, inputs, max_sweeps)
    assert [outcome(r) for r in results] == [outcome(r) for r in want]
    if fixed:
        assert steps == inputs
        assert [outcome(r) for r in results] == [(state, True, 1, 0) for state in inputs]


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
