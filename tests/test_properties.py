"""Property tests: fields, energy and both dynamics against the naive oracles.

Hypothesis draws small memories of both kinds, with pattern levels drawn
from [1, used] for a random used <= q, so that levels no pattern uses (a
zero level count at a neuron) come up often, and states over all of [1, q].
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pnn import (
    Memory,
    NetworkKind,
    Pattern,
    asynchronous_retrieve,
    energy,
    local_field,
    neuron_update,
    synchronous_step,
)
from oracles import naive_energy, naive_local_field


@st.composite
def memory_and_state(draw):
    kind = draw(st.sampled_from(NetworkKind))
    q = draw(st.integers(2 if kind is NetworkKind.PNN3 else 1, 5))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2, 7))
    used = draw(st.integers(1, q))
    sign = st.just(1) if kind is NetworkKind.PNN3 else st.sampled_from((-1, 1))

    def row(element):
        return st.lists(element, min_size=n, max_size=n)

    def rows(element):
        return draw(st.lists(row(element), min_size=m, max_size=m))

    memory = Memory(kind, q, rows(sign), rows(st.integers(1, used)))
    return memory, Pattern(draw(row(sign)), draw(row(st.integers(1, q))))


def naive_update(memory, state, i):
    """The update rule on the oracle's field, rounded so exact ties stay ties.

    The oracle sums floats; its field differs from the exact one by far less
    than 1e-9, while distinct exact amplitudes differ by at least
    1/(N q^2) >= 1/175 at these sizes.
    """
    field = np.round(naive_local_field(memory, state, i), 9)
    return neuron_update(memory.kind, field, state[i])


@given(memory_and_state())
def test_local_field_matches_naive_double_sum(case):
    memory, state = case
    for i in range(memory.n_neurons):
        got = local_field(memory, state, i).amplitudes
        np.testing.assert_allclose(got, naive_local_field(memory, state, i), rtol=1e-12, atol=1e-12)


@given(memory_and_state())
def test_energy_matches_naive_energy(case):
    memory, state = case
    assert energy(memory, state) == pytest.approx(naive_energy(memory, state), rel=1e-12, abs=1e-12)


@given(memory_and_state())
def test_synchronous_step_applies_the_rule_to_every_naive_field(case):
    memory, state = case
    want = [naive_update(memory, state, i) for i in range(memory.n_neurons)]
    assert synchronous_step(memory, state) == Pattern.from_states(want)


@given(memory_and_state())
def test_every_visit_follows_the_naive_field_and_changes_lower_energy(case):
    memory, state = case
    result = asynchronous_retrieve(memory, state, max_sweeps=4, record_trace=True)
    prev, prev_energy = state, naive_energy(memory, state)
    for t, snapshot in enumerate(result.trace):
        i = t % memory.n_neurons
        want = prev.states()
        want[i] = naive_update(memory, prev, i)
        assert snapshot == Pattern.from_states(want)
        if snapshot != prev:
            snapshot_energy = naive_energy(memory, snapshot)
            assert snapshot_energy < prev_energy - 1e-9
            prev, prev_energy = snapshot, snapshot_energy
    assert result.final_state == prev
