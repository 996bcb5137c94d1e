"""Spies on the q = 1 coupling walk, shared by the unit and the property tests.

Each spy replaces one internal of ``pnn.core`` through a pytest
``MonkeyPatch`` (the ``monkeypatch`` fixture, or ``pytest.MonkeyPatch.context()``
inside a Hypothesis example), calls the original, and returns the list that it
appends to in call order.  ``expected_coupling_blocks`` predicts the block
spy's record from an oracle's per-visit trace.
"""

import numpy as np

import pnn.core


def spy_coupling_walks(monkeypatch):
    """The number of inputs of every ``_coupling_walk`` call, the q = 1 walk of ``_lockstep``."""
    walk, calls = pnn.core._coupling_walk, []

    def spy(memory, inputs):
        calls.append(len(inputs))
        return walk(memory, inputs)

    monkeypatch.setattr(pnn.core, "_coupling_walk", spy)
    return calls


def spy_coupling_blocks(monkeypatch, memory, block):
    """For each ``_coupling_block`` call of the q = 1 walk, cut into blocks of ``block``
    neurons: the first neurons of the blocks whose stored signs it was given (one, for distinct
    blocks), and how many overlap rows it was given."""
    monkeypatch.setattr(pnn.core, "_COUPLING_BLOCK", block)
    stored, walk, calls = memory.pattern_signs.T, pnn.core._coupling_block, []

    def spy(sig, h, s, m, moves):
        starts = range(0, memory.n_neurons, block)
        owners = [lo for lo in starts if np.array_equal(sig, stored[lo:lo + block])]
        calls.append((owners, len(m)))
        walk(sig, h, s, m, moves)

    monkeypatch.setattr(pnn.core, "_coupling_block", spy)
    return calls


def expected_coupling_blocks(inputs, traces, block):
    """The (first neuron, overlap rows) of each ``_coupling_block`` call that a ``_lockstep``
    call with no step rows makes, predicted from each input's signs and its per-visit sign
    vectors ``traces`` in sequential order (N visits a sweep; the ``ScalarHopfield`` trace): in
    sweep k the rows that have not ended are live, and each block of ``block`` neurons in which
    a live row moves is walked once, given the overlap rows of every live row."""
    n, calls = len(inputs[0]), []
    sweeps = [len(trace) // n for trace in traces]
    for k in range(max(sweeps)):
        live = [r for r, used in enumerate(sweeps) if used > k]
        starts = set()
        for r in live:
            visits = [inputs[r] if k == 0 else traces[r][k * n - 1]] + traces[r][k * n:(k + 1) * n]
            starts |= {i - i % block for i in range(n) if np.any(visits[i] != visits[i + 1])}
        calls += [(lo, len(live)) for lo in sorted(starts)]
    return calls
