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
rows against the synchronous step of each input, the q = 1 coupling walk
across block edges, alone and inside a batch whose other rows have ended,
against the serial reference and the scalar Hopfield oracle's retrieval
and synchronous step, asynchronous
retrieval with its run-ahead blocks against the visit-by-visit reference
on wider memories (N in 16..60, so that blocks are taken), both Memory
constructions against one whole-array transpose and the blocked overlap sum
against the one-pass sum, each across several blocks, the patterns the
library freezes unchecked against the checked Pattern, the pattern sets
drawn in blocks of generator words, and the generator state they leave,
against patterns drawn one call at a time, the one-pass DPNN build against
the images stored one by one, the bisected critical mapping parameter
against the linear scan, the critical mapping parameter and its
binding restrictions against the search of the list of all divisors, the
binary mapping against its literal reference, the identifier's digits
against the naive identifier field, level noise against its modular
reference, and every kernel against its oracle at the q where the stored
codes or levels outgrow uint8.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import pnn.core
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
    ScalarHopfield,
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
    reference_qnary_noise,
    reference_qnary_patterns,
    reference_unmap_binary,
    with_neuron,
)
from pnn.core import (
    _FILL_BLOCK, _codes_of, _decide_keys, _keeps, _lockstep, _lockstep_inputs,
    _overlaps, _states, _visit_rule,
)
from pnn.noise import _qnary_arrays
from spies import expected_coupling_blocks, spy_coupling_blocks


@st.composite
def memory_and_states(draw, count=st.just(1), kind=st.sampled_from(NetworkKind), q=None,
                      level=None):
    """A memory and ``count`` states; later states may repeat earlier ones.  Stored and state
    levels are drawn from ``level(q)`` when given."""
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

    stored_level, state_level = (st.integers(1, used), st.integers(1, q)) if level is None else (
        level(q), level(q))
    memory = Memory(kind, q, rows(sign), rows(stored_level))
    states = []
    for _ in range(draw(count)):
        if states and draw(st.booleans()):
            states.append(draw(st.sampled_from(states)))
        else:
            states.append(Pattern(draw(row(sign)), draw(row(state_level))))
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


@pytest.mark.parametrize("kind, q", [
    (NetworkKind.PNN2, 1), (NetworkKind.PNN2, None), (NetworkKind.PNN3, None)],
    ids=["hopfield", "pnn2", "pnn3"])
@given(data=st.data())
def test_batched_key_decides_integer_fields_like_the_naive_rule(kind, q, data):
    # decision fields in -2..2 make ties and zeros common, also after a shift of each row to
    # just inside the key's exactness edge, 4 |D| + 3 < 2**53, where a key of 5 |D| would round
    # a step of 1 into a tie.  Every
    # neuron is put in every one of its states, by the state index z = S (l - 1) + [s = -1]
    # (S = 2 for PNN2, 1 for PNN3), in both call shapes
    q = st.integers(2, 5) if q is None else st.just(q)
    memory, inputs = data.draw(memory_and_states(kind=st.just(kind), q=q))
    q, n = memory.q, memory.n_neurons
    per_level, alpha = (2, 1) if kind is NetworkKind.PNN2 else (1, q)
    states = [(1 - 2 * (z % per_level), z // per_level + 1) for z in range(per_level * q)]
    fields = data.draw(arrays(np.int64, (n, len(states), q), elements=st.integers(-2, 2)))
    edge = st.integers(2**51 - 64, 2**51 - 3)
    wide = st.just(0) | edge | edge.map(lambda e: -e)
    fields += data.draw(arrays(np.int64, (n, len(states), 1), elements=wide))
    # the sums the key is built from: the field with the self-coupling
    # term s alpha C_il put back at the current level l
    sums = fields.astype(np.float64)
    for i in range(n):
        for z, (s, l) in enumerate(states):
            sums[i, z, l - 1] += s * alpha * np.count_nonzero(memory.pattern_levels[:, i] == l)
    _, _, scale, own = _lockstep_inputs(memory, inputs)  # own: (n, Q), one entry a state
    base = len(states) * np.arange(n * len(states)).reshape(n, len(states))
    base = base + np.arange(per_level).reshape(-1, 1, 1)
    z = np.tile(np.arange(len(states)), (n, 1))
    column = _decide_keys(scale, sums, z, base, own)
    for i in range(n):
        one = _decide_keys(scale, sums[i], z[i], base[:, 0], own[i])
        for z_now, (s, l) in enumerate(states):
            want = naive_decide(kind, fields[i, z_now], s, l)
            assert states[column[i, z_now]] == states[one[z_now]] == want


@pytest.mark.parametrize("kind, q", [
    (NetworkKind.PNN2, 1), (NetworkKind.PNN2, None), (NetworkKind.PNN3, None)],
    ids=["hopfield", "pnn2", "pnn3"])
@given(data=st.data())
def test_quiet_test_and_visit_rule_decide_integer_fields_like_the_naive_rule(kind, q, data):
    # decision fields in -2..2 make ties and zeros common; the wide ones reach the 2**52 bound
    q = q or data.draw(st.integers(2, 5))
    rows = data.draw(st.integers(1, 12))
    value = st.one_of(st.integers(-2, 2), st.integers(-(2**52 - 1), 2**52 - 1))
    d = data.draw(arrays(np.int64, (rows, q), elements=value)).astype(np.float64)
    levels = data.draw(arrays(np.int64, rows, elements=st.integers(1, q)))
    sign = st.just(1) if kind is NetworkKind.PNN3 else st.sampled_from((-1, 1))
    signs = data.draw(arrays(np.int64, rows, elements=sign))
    pnn2 = kind is NetworkKind.PNN2
    keeps = _keeps(d, d[np.arange(rows), levels - 1], signs, pnn2)
    for row, s, l, kept in zip(d, signs.tolist(), levels.tolist(), keeps.tolist()):
        want = naive_decide(kind, row, s, l)
        assert kept == (want == (s, l))
        assert _visit_rule(row.copy(), s, l, pnn2) == want


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
    # at q = 1 both run the coupling walk, so the reference checks them
    batch = retrieve_batch(memory, inputs, max_sweeps)
    assert len(batch) == len(inputs)
    for state, got in zip(inputs, batch):
        want = outcome(reference_asynchronous_retrieve(memory, state, max_sweeps))
        assert outcome(got) == outcome(asynchronous_retrieve(memory, state, max_sweeps)) == want


def outcome(result):
    return result.final_state, result.converged, result.sweeps_used, result.updates_changed


@st.composite
def wide_memory_and_state(draw, kind=st.sampled_from(NetworkKind), q=None, level=None):
    """A memory of 16 to 60 neurons and an input that is random, a fixed point or one or two
    neurons off a fixed point, so that runs of unchanged visits, and blocks, are common.
    Levels are drawn from ``level(q)`` when given."""
    kind = draw(kind)
    q = draw(st.integers(2 if kind is NetworkKind.PNN3 else 1, 5) if q is None else q)
    level = st.integers(1, q) if level is None else level(q)
    n, m = draw(st.integers(16, 60)), draw(st.integers(1, 12))
    sign = st.just(1) if kind is NetworkKind.PNN3 else st.sampled_from((-1, 1))
    memory = Memory(kind, q, draw(arrays(np.int8, (m, n), elements=sign)),
                    draw(arrays(np.int64, (m, n), elements=level)))
    state = Pattern(draw(arrays(np.int8, n, elements=sign)),
                    draw(arrays(np.int64, n, elements=level)))
    start = draw(st.sampled_from(["random", "fixed point", "off a fixed point"]))
    if start != "random":
        relaxed = reference_asynchronous_retrieve(memory, state, 200)
        assume(relaxed.converged)
        state = relaxed.final_state
    if start == "off a fixed point":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            state = with_neuron(state, i, draw(sign), draw(level))
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
        relaxed = [reference_asynchronous_retrieve(memory, state, 200) for state in inputs]
        assume(all(r.converged for r in relaxed))
        inputs = [r.final_state for r in relaxed]
    results, steps = _lockstep(memory, inputs, max_sweeps, step_rows=True)
    assert steps == [synchronous_step(memory, state) for state in inputs]
    want = [outcome(reference_asynchronous_retrieve(memory, x, max_sweeps)) for x in inputs]
    assert [outcome(r) for r in results] == want
    if fixed:
        assert steps == inputs
        assert [outcome(r) for r in results] == [(state, True, 1, 0) for state in inputs]


def hopfield_outcomes(memory, hopfield, inputs, max_sweeps):
    """The ``outcome`` of each q = 1 input by the reference, which must equal the ScalarHopfield
    oracle's, and the oracle's per-visit traces."""
    scalar = [hopfield.retrieve(x.signs, max_sweeps) for x in inputs]
    want = [outcome(reference_asynchronous_retrieve(memory, x, max_sweeps)) for x in inputs]
    assert want == [(Pattern(s, np.ones(len(s))), converged, sweeps, changed)
                    for s, converged, sweeps, changed, _ in scalar]
    return want, [trace for *_, trace in scalar]


def assert_coupling_blocks(calls, inputs, traces, block):
    """The ``spy_coupling_blocks`` record ``calls`` of one ``_lockstep`` call is the one that
    ``expected_coupling_blocks`` predicts (a block's first neuron among the owners its stored
    signs match, as small memories repeat blocks)."""
    expected = expected_coupling_blocks([x.signs for x in inputs], traces, block)
    assert [rows for _, rows in calls] == [rows for _, rows in expected]
    assert all(lo in owners for (owners, _), (lo, _) in zip(calls, expected))


@settings(max_examples=150)
@given(data=st.data())
def test_coupling_walk_equals_the_oracles_across_block_edges(data):
    # the q = 1 walk in blocks of 4 neurons, over 1 to 3 blocks + 1 neurons, so that blocks end
    # inside and at the end of a sweep, with one input (so every block it moves in takes the
    # one-row walk) or several, that are random, repeated, a stored pattern with a few flips or a
    # fixed point, and a sweep cap that some rows reach.  Each input alone, as a sequential
    # asynchronous_retrieve takes it, is also checked, and every _coupling_block call of the batch
    # is predicted from the scalar oracle's trace
    block = 4
    n, m = data.draw(st.integers(1, 3 * block + 1)), data.draw(st.integers(1, 8))
    sign = st.sampled_from((-1, 1))
    stored = data.draw(arrays(np.int8, (m, n), elements=sign))
    memory = Memory(NetworkKind.PNN2, 1, stored, np.ones((m, n), np.int8))
    hopfield = ScalarHopfield(stored)
    inputs = []
    for _ in range(data.draw(st.one_of(st.just(1), st.integers(2, 9)))):
        start = data.draw(
            st.sampled_from(["random", "repeat", "near a stored pattern", "fixed point"]))
        if start == "repeat" and inputs:
            inputs.append(data.draw(st.sampled_from(inputs)))
            continue
        if start == "near a stored pattern":
            signs = stored[data.draw(st.integers(0, m - 1))].copy()
            signs[data.draw(st.lists(st.integers(0, n - 1), max_size=3))] *= -1
        else:
            signs = data.draw(arrays(np.int8, n, elements=sign))
        if start == "fixed point":  # sequential Hopfield dynamics reach one in a few sweeps
            signs, converged, *_ = hopfield.retrieve(signs, 200)
            assert converged
        inputs.append(Pattern(signs, np.ones(n, np.int8)))
    max_sweeps = data.draw(st.integers(1, 3))
    want, traces = hopfield_outcomes(memory, hopfield, inputs, max_sweeps)
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_coupling_blocks(patch, memory, block)
        batch, none = _lockstep(memory, inputs, max_sweeps)
        walked = calls.copy()
        results, steps = _lockstep(memory, inputs, max_sweeps, step_rows=True)
        alone = [asynchronous_retrieve(memory, x, max_sweeps) for x in inputs]
    assert none is None
    assert [outcome(r) for r in batch] == [outcome(r) for r in results] == want
    assert [outcome(r) for r in alone] == want
    assert steps == [Pattern(hopfield.synchronous_step(x.signs), np.ones(n)) for x in inputs]
    assert_coupling_blocks(walked, inputs, traces, block)


@settings(max_examples=50)
@given(data=st.data())
def test_coupling_walk_walks_a_row_left_alone_in_a_batch_as_one_row(data):
    # rows that end at different sweeps: fixed points, which end after sweep 1, and a random
    # input that still moves in sweep 2, alone by then, in a loaded memory (M = 6 to 8 at N = 12
    # to 41, where a third or more of the random inputs do), so the one-row walk runs inside a
    # multi-row batch.  The patterns and states are drawn from a seeded generator, as drawn
    # arrays lean to constant ones.  Every _coupling_block call is predicted from the scalar
    # oracle's trace
    block = 4
    n, m = data.draw(st.integers(12, 10 * block + 1)), data.draw(st.integers(6, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def draw_signs(*shape):
        return (1 - 2 * rng.integers(0, 2, shape)).astype(np.int8)

    stored = draw_signs(m, n)
    memory = Memory(NetworkKind.PNN2, 1, stored, np.ones((m, n), np.int8))
    hopfield = ScalarHopfield(stored)
    for _ in range(20):
        lead = draw_signs(n)
        _, converged, sweeps, _, _ = hopfield.retrieve(lead, 2)
        if sweeps == 2 and not converged:  # the lead moves in sweep 2
            break
    else:
        assume(False)
    fixed = []
    for _ in range(data.draw(st.integers(1, 3))):
        signs, converged, *_ = hopfield.retrieve(draw_signs(n), 200)
        assert converged
        fixed.append(signs)
    inputs = [Pattern(signs, np.ones(n, np.int8))
              for signs in data.draw(st.permutations(fixed + [lead]))]
    max_sweeps = data.draw(st.integers(2, 4))
    want, traces = hopfield_outcomes(memory, hopfield, inputs, max_sweeps)
    with pytest.MonkeyPatch.context() as patch:
        calls = spy_coupling_blocks(patch, memory, block)
        batch = retrieve_batch(memory, inputs, max_sweeps)
    assert [outcome(r) for r in batch] == want
    assert_coupling_blocks(calls, inputs, traces, block)
    assert 1 in [rows for _, rows in calls] and len(inputs) > 1


# q at either side of the code type's uint8 bound, S q - 1 = 255 (S = 2 for PNN2, 1 for PNN3),
# and of the level type's, q = 255
CODE_WIDTH_EDGES = [(NetworkKind.PNN2, q) for q in (1, 2, 128, 129, 255, 256, 300)] + [
    (NetworkKind.PNN3, q) for q in (2, 256, 257, 300)]


def top_levels(q):
    """Levels of [1, q], half of them among the top three, whose codes reach S q - 1."""
    return st.one_of(st.integers(max(1, q - 2), q), st.integers(1, q))


@pytest.mark.parametrize("kind, q", CODE_WIDTH_EDGES, ids=lambda v: getattr(v, "value", v))
@settings(max_examples=15)
@given(data=st.data())
def test_kernels_equal_the_oracles_at_the_code_width_edges(kind, q, data):
    memory, states = data.draw(
        memory_and_states(st.integers(1, 3), st.just(kind), st.just(q), top_levels))
    state, n = states[0], memory.n_neurons
    i = data.draw(st.integers(0, n - 1))
    field, scale = exact_local_field(memory, state, i)
    assert local_field(memory, state, i).tolist() == [h / scale for h in field]
    assert energy(memory, state) == pytest.approx(naive_energy(memory, state), rel=1e-12, abs=1e-12)
    signs, levels = zip(*(naive_update(memory, state, j) for j in range(n)))
    assert synchronous_step(memory, state) == Pattern(signs, levels)
    seed = data.draw(st.integers(0, 2**32 - 1))
    for rng in (None, seed):
        got, want = (
            retrieve(memory, state, 4, None if rng is None else np.random.default_rng(rng),
                     record_trace=True)
            for retrieve in (asynchronous_retrieve, reference_asynchronous_retrieve)
        )
        assert outcome(got) == outcome(want) and got.trace == want.trace
    want = [outcome(reference_asynchronous_retrieve(memory, x, 4)) for x in states]
    assert [outcome(r) for r in retrieve_batch(memory, states, 4)] == want
    if kind is NetworkKind.PNN3:
        assert_identify_decodes_the_naive_identifier_field(IdentifierNet(memory), state)


@pytest.mark.parametrize("kind, q", CODE_WIDTH_EDGES, ids=lambda v: getattr(v, "value", v))
@settings(max_examples=20)
@given(data=st.data())
def test_run_ahead_retrieval_keeps_every_visit_of_the_reference_at_the_code_width_edges(
        kind, q, data):
    memory, state = data.draw(wide_memory_and_state(st.just(kind), st.just(q), top_levels))
    seed = data.draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    got, want = (
        retrieve(memory, state, 3, None if seed is None else np.random.default_rng(seed),
                 record_trace=True)
        for retrieve in (asynchronous_retrieve, reference_asynchronous_retrieve)
    )
    assert outcome(got) == outcome(want)
    assert got.trace == want.trace


@pytest.mark.parametrize("kind, q", CODE_WIDTH_EDGES, ids=lambda v: getattr(v, "value", v))
@settings(max_examples=15)
@given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_states_decode_the_codes_of_every_state_at_the_code_width_edges(kind, q, m, n, seed):
    """``_states`` inverts ``_codes_of`` at the stored codes' type and at the lockstep's int64,
    and a Memory's derived arrays are its constructor's inputs."""
    rng = np.random.default_rng(seed)
    top = rng.integers(max(1, q - 2), q + 1, (m, n))  # codes up to S q - 1
    levels = np.where(rng.integers(0, 2, (m, n)), top, rng.integers(1, q + 1, (m, n)))
    signs = np.ones_like(levels) if kind is NetworkKind.PNN3 else 1 - 2 * rng.integers(0, 2, (m, n))
    memory, level_type = Memory(kind, q, signs, levels), np.min_scalar_type(q)
    for dtype in (memory._codes.dtype, np.int64):
        got_signs, got_levels = _states(memory, _codes_of(signs, levels, memory._shift, dtype))
        assert got_signs.dtype == np.int8 and got_levels.dtype == level_type
        assert np.array_equal(got_signs, signs) and np.array_equal(got_levels, levels)
    for got, want, dtype in ((memory.pattern_signs, signs, np.int8),
                             (memory.pattern_levels, levels, level_type)):
        assert got.dtype == dtype and not got.flags.writeable and np.array_equal(got, want)


@st.composite
def stored_rows(draw):
    """A kind, a q on either side of the uint8 bound of the levels and of the codes (S q - 1,
    S = 2 for PNN2, 1 for PNN3) and (M, N) int64 signs and levels, with M up to one more than
    three of the fill's blocks of _FILL_BLOCK // N patterns (N from 1324, so that a block holds
    at most 198 patterns)."""
    kind = draw(st.sampled_from(NetworkKind))
    pnn3 = kind is NetworkKind.PNN3
    q = draw(st.sampled_from([2, 5, 255, 256, 257] if pnn3 else [1, 2, 5, 128, 129, 255, 256]))
    n = draw(st.integers(1324, 24000))
    m = draw(st.integers(1, 3 * (_FILL_BLOCK // n) + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.integers(1, q + 1, size=(m, n))
    signs = np.ones_like(levels) if kind is NetworkKind.PNN3 else 1 - 2 * rng.integers(0, 2, (m, n))
    return kind, q, signs, levels


@given(stored_rows(), st.sampled_from([np.int8, np.float64]),
       st.sampled_from([np.uint16, np.int64, np.float64]))
def test_both_constructions_store_the_whole_array_transpose(case, sign_type, level_type):
    kind, q, signs, levels = case
    n = signs.shape[1]
    per_level = 2 if kind is NetworkKind.PNN2 else 1
    want_codes = per_level * (levels - 1) + (signs < 0)
    want_codes = want_codes.astype(np.min_scalar_type(per_level * q - 1)).T
    want_counts = np.zeros((n, q), dtype=np.int64)
    np.add.at(want_counts, (np.arange(n), levels - 1), 1)
    patterns = [Pattern(s, l) for s, l in zip(signs, levels)]
    for memory in (
        build_memory(patterns, kind, q),
        Memory(kind, q, signs.astype(sign_type), levels.astype(level_type)),
    ):
        assert memory.pattern_signs.dtype == np.int8
        assert np.array_equal(memory.pattern_signs, signs)
        assert memory._codes.dtype == want_codes.dtype
        assert np.array_equal(memory._codes, want_codes)
        assert np.array_equal(memory._level_counts, want_counts)


@settings(max_examples=80)
@given(st.sampled_from(NetworkKind), st.integers(1, 5),
       st.sampled_from([(n, m) for m in (40, 1032, 1033) for n in (126, 127, 128, 254, 255, 256)]
                       + [(2500, 1000), (128, 8300), (3, _FILL_BLOCK + 1)]),
       st.sampled_from(["stored", "flipped", "random"]), st.integers(0, 2**32 - 1))
def test_blocked_overlaps_equal_the_one_pass_sum(kind, q, shape, state, seed):
    """Both kinds take one path, whose blocks follow M: _FILL_BLOCK // M neurons, rounded down
    to a multiple of 127 from 127 on, each summed in int8 runs of 127 neurons.  One block at
    M = 40; blocks of 254 neurons at M = 1032 and of 127 at M = 1033, the two sides of a
    block-size step; 10 blocks of at most 254 at N = 2500, M = 1000; 5 of at most 31 at N = 128,
    M = 8300; and 3 of one neuron above _FILL_BLOCK patterns.  Each N sits at a run's edge (126 to 128 and
    254 to 256).  A stored state puts some overlap at +-N, and fills each full run of its
    pattern to exactly +127, or -127 when PNN2's state is flipped."""
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


_BIT_GENERATORS = {
    "philox": np.random.Philox,
    "pcg64": np.random.PCG64,
    "mt19937": np.random.MT19937,
    # a 64-bit generator that holds the unused half of its last word for the next uint32
    "philox-half-word": lambda seed: _with_half_word(np.random.Philox(seed)),
}


def _with_half_word(bit_generator):
    np.random.Generator(bit_generator).integers(0, 2**32, size=1, dtype=np.uint32)
    return bit_generator


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(NetworkKind),
       st.sampled_from([1, 2, 3, 16, 100, 129, 300, 3 * 2**30, 2**31 + 1, 2**32]),
       st.integers(1, 7), st.one_of(st.integers(1, 64), st.integers(2**14, 2**15 + 1)),
       st.sampled_from(sorted(_BIT_GENERATORS)), st.integers(0, 2**32 - 1))
def test_drawn_patterns_equal_patterns_drawn_one_call_at_a_time(kind, q, m, n, bits, seed):
    """The patterns and the arrays drawn in blocks of generator words hold the values and the
    dtypes of patterns drawn with one call for each pattern's levels and one for its signs, and
    leave the generator where those calls leave it.  n from 2**14 puts a few patterns in a
    block, so that M spans several; q = 3 * 2**30 and 2**31 + 1 reject a quarter and half of
    the level words, and q = 2**32 takes each word as it is."""
    assume(kind is NetworkKind.PNN2 or q > 1)
    rngs = [np.random.Generator(_BIT_GENERATORS[bits](seed)) for _ in range(3)]
    want = reference_qnary_patterns(m, n, q, kind, rngs[0])
    got = random_qnary_patterns(m, n, q, kind, rngs[1])
    signs, levels = _qnary_arrays(m, n, q, kind, rngs[2])
    assert got == want
    assert [p.levels.dtype for p in got] == [p.levels.dtype for p in want]
    assert all(p.signs.dtype == np.int8 for p in got)
    assert signs.dtype == np.int8 and levels.dtype == np.min_scalar_type(q)
    assert np.array_equal(signs, np.stack([p.signs for p in want]))
    assert np.array_equal(levels, np.stack([p.levels.astype(np.uint64) for p in want]))
    after = [rng.integers(0, 2**62, size=3).tolist() for rng in rngs]
    assert after[1] == after[0] and after[2] == after[0]


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


@given(st.one_of(st.integers(1, 8), st.integers(250, 2**16)), st.integers(1, 40),
       st.floats(0, 1), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_noise_draws_the_levels_of_the_modular_reference(q, n, a, b, seed):
    """Subtracting q where l + offset exceeds q gives the reference's (l - 1 + offset) mod q + 1
    from the same draws, in the narrowest type holding the highest level."""
    rng = np.random.default_rng(seed)
    pattern = Pattern(1 - 2 * rng.integers(0, 2, size=n), rng.integers(1, q + 1, size=n))
    got = apply_qnary_noise(pattern, q, NoiseSpec(a, b), np.random.default_rng(seed))
    signs, levels = reference_qnary_noise(pattern, q, a, b, np.random.default_rng(seed))
    assert np.array_equal(got.signs, signs) and np.array_equal(got.levels, levels)
    assert got.levels.dtype == np.min_scalar_type(int(levels.max()))


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
    for name in ("_codes", "_level_counts"):
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
    assert_identify_decodes_the_naive_identifier_field(*case)


def assert_identify_decodes_the_naive_identifier_field(net, state):
    """Digit j is the lowest maximizer of the naive field at enumerated
    coordinate j, rounded so exact ties stay ties (distinct amplitudes differ
    by at least 1/(N q^2) >= 1/(7 * 300^2) here), most significant digit first."""
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
