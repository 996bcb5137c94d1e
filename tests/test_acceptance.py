"""End-to-end acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure), so the whole gate can be read off a single run:

    pytest tests/test_acceptance.py -s

Monte Carlo criteria use fixed seeds; every threshold is pinned in the test
body.
"""

import itertools
import math

import numpy as np
import pytest

from pnn import (
    BindingConstraint,
    NetworkKind,
    NoiseSpec,
    OpCounter,
    Pattern,
    UnknownPattern,
    apply_binary_noise,
    apply_qnary_noise,
    asynchronous_retrieve,
    build_identifier,
    build_memory,
    capacity_exponent,
    capacity_pnn2,
    capacity_pnn3,
    correlated_binary_patterns,
    dpnn_build,
    dpnn_capacity,
    energy,
    identify,
    is_fixed_point,
    k_critical,
    k_critical_detail,
    local_field,
    make_rng,
    map_binary,
    perr_pnn2,
    perr_pnn3,
    random_qnary_patterns,
    retrieve_batch,
    synchronous_step,
    unmap_binary,
)
from pnn.cli import main as cli_main
from oracles import ScalarHopfield, naive_decide, random_binary_patterns, with_neuron


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _random_state(rng, n, q, kind):
    levels = rng.integers(1, q + 1, size=n)
    if kind is NetworkKind.PNN2:
        signs = 2 * rng.integers(0, 2, size=n) - 1
    else:
        signs = np.ones(n, dtype=np.int8)
    return Pattern(signs, levels)


def _retrieval_errors(kind, n, q, m, a, b, trials, seed, max_sweeps=12):
    """(async pattern-error rate, sync pattern-error rate) over seeded trials."""
    patterns = random_qnary_patterns(m, n, q, kind, make_rng(seed, 0))
    memory = build_memory(patterns, kind, q)
    spec = NoiseSpec(a, b)
    targets = [patterns[t % m] for t in range(trials)]
    inputs = [
        apply_qnary_noise(target, q, spec, make_rng(seed, 1 + t))
        for t, target in enumerate(targets)
    ]
    sync_errs = sum(synchronous_step(memory, x) != target for x, target in zip(inputs, targets))
    results = retrieve_batch(memory, inputs, max_sweeps)
    async_errs = sum(r.final_state != target for r, target in zip(results, targets))
    return async_errs / trials, sync_errs / trials


def test_c01_energy_monotonicity():
    """50 random memories, 1000 single-neuron updates each by the oracle
    rule ``naive_decide`` on ``local_field``: energy never rises above the
    previous value + 1e-12 and drops strictly on a change."""
    combos = list(itertools.product(
        (NetworkKind.PNN2, NetworkKind.PNN3), (2, 8), (10, 50)
    ))
    n = 100
    worst_rise = -np.inf
    checked_changes = 0
    for memory_index in range(50):
        kind, q, m = combos[memory_index % len(combos)]
        rng = make_rng(1000 + memory_index)
        patterns = random_qnary_patterns(m, n, q, kind, rng)
        memory = build_memory(patterns, kind, q)
        state = _random_state(rng, n, q, kind)
        last = energy(memory, state)
        for step in range(1000):
            if step % 200 == 199:
                state = _random_state(rng, n, q, kind)
                last = energy(memory, state)
            i = int(rng.integers(0, n))
            old = int(state.signs[i]), int(state.levels[i])
            new = naive_decide(kind, local_field(memory, state, i), *old)
            if new != old:
                state = with_neuron(state, i, *new)
                current = energy(memory, state)
                worst_rise = max(worst_rise, current - last)
                assert current < last, "energy must drop strictly on a change"
                checked_changes += 1
                last = current
    _report(1, "energy monotonicity", worst_rise < 1e-12 and checked_changes > 0,
            f"worst rise {worst_rise:.3e} over {checked_changes} accepted changes")


def test_c02_fixed_point_stability():
    """N=200, q=8, M=40, signed networks: every stored pattern is a fixed
    point across 100 random memories."""
    stable = total = 0
    for memory_index in range(100):
        rng = make_rng(2000 + memory_index)
        patterns = random_qnary_patterns(40, 200, 8, NetworkKind.PNN2, rng)
        memory = build_memory(patterns, NetworkKind.PNN2, 8)
        for p in patterns:
            stable += is_fixed_point(memory, p)
            total += 1
    _report(2, "fixed-point stability", stable == total == 4000,
            f"{stable}/{total} stored patterns stable")


def test_c03_hopfield_oracle_equivalence():
    """q=1 dynamics reproduce an independent scalar Hopfield implementation
    update for update on 100 random cases."""
    mismatches = 0
    for case in range(100):
        rng = make_rng(3000 + case)
        n = int(rng.integers(5, 51))
        m = int(rng.integers(1, 6))
        patterns = random_qnary_patterns(m, n, 1, NetworkKind.PNN2, rng)
        memory = build_memory(patterns, NetworkKind.PNN2, 1)
        oracle = ScalarHopfield([p.signs for p in patterns])
        start = _random_state(rng, n, 1, NetworkKind.PNN2)
        mine = asynchronous_retrieve(memory, start, 10, record_trace=True)
        o_final, o_conv, o_sweeps, o_changed, o_trace = oracle.retrieve(start.signs, 10)
        same = (
            np.array_equal(mine.final_state.signs, o_final)
            and mine.converged == o_conv
            and mine.sweeps_used == o_sweeps
            and mine.updates_changed == o_changed
            and len(mine.trace) == len(o_trace)
            and all(np.array_equal(s.signs, t) for s, t in zip(mine.trace, o_trace))
        )
        mismatches += not same
    _report(3, "scalar Hopfield trace equivalence", mismatches == 0,
            f"{100 - mismatches}/100 exact trace matches")


def test_c04_noise_immunity_trend():
    """N=200, M=400, half the levels distorted: full-retrieval pattern error
    falls strictly with q and is tiny by q=16, while a classical network at
    the same load with 25% sign noise fails at least half the time."""
    errors = {}
    for q in (4, 8, 16):
        errors[q], _ = _retrieval_errors(NetworkKind.PNN2, 200, q, 400, 0.0, 0.5, 200, seed=4000 + q)
    hopfield_err, _ = _retrieval_errors(NetworkKind.PNN2, 200, 1, 400, 0.25, 0.0, 200, seed=4100)
    ok = (
        errors[4] > errors[8] > errors[16]
        and errors[16] <= 0.02
        and hopfield_err >= 0.5
    )
    _report(4, "noise-immunity trend in q", ok,
            f"err(q=4)={errors[4]:.3f} > err(q=8)={errors[8]:.3f} > "
            f"err(q=16)={errors[16]:.3f} (<=2%); hopfield-load err={hopfield_err:.2f} (>=50%)")


def test_c05_bound_exponents_at_fixed_load():
    """The exponent E of perr_pnn2 = sqrt(N M) exp(-E) at a fixed load M/N is
    the same at N=1000 and N=10000, and reproduces the two high-noise
    operating points: exp(-4.096) ~ 0.0166 at (q=64, b=0.9, load 5) and
    exp(-5.0176) ~ 0.0066 at (q=64, b=0.65, load 50)."""

    def exponent(n, load, b):
        m = load * n
        return math.log(math.sqrt(n * m)) - math.log(perr_pnn2(n, m, 64, 0.0, b).value)

    ok, details = True, []
    for n in (1000, 10_000):
        first, second = exponent(n, 5, 0.9), exponent(n, 50, 0.65)
        ok &= (
            abs(np.exp(-first) - 0.0166390988617236276) < 1e-3
            and abs(np.exp(-second) - 0.00662039660968005042) < 1e-3
            and first == pytest.approx(4.096, rel=1e-9)
            and second == pytest.approx(5.0176, rel=1e-9)
        )
        details.append(f"N={n}: exp(-{first:.3f})={np.exp(-first):.4f}, "
                       f"exp(-{second:.4f})={np.exp(-second):.4f}")
    _report(5, "bound exponents at fixed load", ok, "; ".join(details))


def test_c06_pnn3_vs_pnn2():
    """Unsigned networks may not beat signed ones at equal parameters
    (N=200, q=8, M=200, b=0.4): pattern error of PNN3 >= PNN2 for both the
    one-step and the full-retrieval readout."""
    pnn2_async, pnn2_sync = _retrieval_errors(NetworkKind.PNN2, 200, 8, 200, 0.0, 0.4, 200, seed=6000)
    pnn3_async, pnn3_sync = _retrieval_errors(NetworkKind.PNN3, 200, 8, 200, 0.0, 0.4, 200, seed=6000)
    ok = pnn3_async >= pnn2_async and pnn3_sync >= pnn2_sync
    _report(6, "unsigned vs signed error ordering", ok,
            f"async {pnn3_async:.3f}>={pnn2_async:.3f}, one-step {pnn3_sync:.3f}>={pnn2_sync:.3f}")


def test_c07_theory_spot_checks():
    """Closed-form formulas agree with independently hand-derived values to
    1e-9 relative (constants frozen from a 30-digit evaluation)."""
    checks = [
        (perr_pnn2(200, 400, 16, 0.0, 0.5).value, 3.18297540664004198e-05),
        (capacity_pnn2(1000, 1), 72.3824136505419713),
        (capacity_pnn2(1000, 64), 296478.366312619914),
        (perr_pnn3(200, 100, 8, 0.25).value, 8.83706630415492683e-05),
        (capacity_pnn3(1000, 2, 0.0), 72.3824136505419713),
        # pipeline capacity at N=1000, a=0, k=1
        (dpnn_capacity(1000, 0.0, 1), 252.916273890741103),
    ]
    worst = max(abs(got - want) / want for got, want in checks)
    _report(7, "theory formula spot checks", worst < 1e-9,
            f"worst relative deviation {worst:.2e} over {len(checks)} values")


def test_c08_mapping_bijectivity():
    """Round trip through the fragment mapping: exhaustive at 6 bits, k=1,
    and 10^4 random vectors at 100 bits, k=4."""
    failures = 0
    for bits in itertools.product((-1, 1), repeat=6):
        y = np.array(bits, dtype=np.int8)
        failures += not np.array_equal(unmap_binary(map_binary(y, 1), 1), y)
    rng = make_rng(8000)
    for y in random_binary_patterns(10_000, 100, rng):
        failures += not np.array_equal(unmap_binary(map_binary(y, 4), 4), y)
    _report(8, "mapping bijectivity", failures == 0,
            f"{failures} round-trip failures over {64 + 10_000} vectors")


def _dpnn_outputs(ensemble, k, a, trials, seed):
    """Pipeline outputs on seeded noisy copies, relaxed together by ``retrieve_batch`` as
    ``pnn dpnn-bench`` relaxes them; trial t probes pattern t mod M."""
    memory = dpnn_build(ensemble, k)
    noisy = [apply_binary_noise(ensemble[t % len(ensemble)], a, make_rng(seed, 1 + t))
             for t in range(trials)]
    results = retrieve_batch(memory, [map_binary(y, k) for y in noisy], 10)
    return [unmap_binary(r.final_state, k) for r in results]


def test_c09_dpnn_on_correlated_patterns():
    """Decorrelating pipeline on template ensembles (N=800, k=4, M=200,
    a=0.1, 100 trials, seed 9000).

    Retrieval claim, at template overlap c=0.3: the pipeline retrieves
    >= 95% of patterns exactly and strictly beats the raw classical network
    (k=0) on the same ensemble.  Measured: pipeline 1.00 here and at seeds
    9100-9700, while raw Hopfield converges onto the shared template in
    every trial.  The pinned raw baseline, 0.00, was derived from the
    independent ``ScalarHopfield`` oracle on these 100 inputs, not from the
    library: the oracle retrieved none of them, and the library's k=0 path
    reached the oracle's final state on all 100.

    Documented limit, at c=0.6: the feasibility boundary sits near c~0.35
    at this load.  Past it, the uncentered Hebbian sum of the mapped images
    makes the template itself the deepest attractor (its image-aligned
    field is ~12 against a retrieval signal of ~0.6), so all 100 trials
    must unmap to the template, taken here as the bitwise majority of the
    ensemble, with no tied column.  The dense vector-neuron oracle in
    test_dpnn reaches the same final states, so this collapse belongs to
    the method, not to the implementation.  At c=0.6 the pipeline still
    scores 1.00 when M<=10.
    """
    n_bits, k, m, a, trials, seed = 800, 4, 200, 0.1, 100, 9000

    feasible = correlated_binary_patterns(m, n_bits, 0.3, make_rng(seed, 0))

    def accuracy(mapping_k):
        outputs = _dpnn_outputs(feasible, mapping_k, a, trials, seed)
        return sum(np.array_equal(y, feasible[t % m]) for t, y in enumerate(outputs)) / trials

    pipeline_acc = accuracy(k)
    raw_acc = accuracy(0)
    pinned_raw_baseline = 0.00

    collapsing = correlated_binary_patterns(m, n_bits, 0.6, make_rng(seed, 0))
    column_sums = np.sum(collapsing, axis=0, dtype=np.int64)
    template = np.sign(column_sums)
    on_template = sum(
        np.array_equal(y, template) for y in _dpnn_outputs(collapsing, k, a, trials, seed)
    )
    ok = (
        pipeline_acc >= 0.95
        and pipeline_acc > raw_acc
        and abs(raw_acc - pinned_raw_baseline) <= 0.05
        and np.all(column_sums != 0)
        and on_template == trials
    )
    _report(9, "decorrelating pipeline on correlated ensemble", ok,
            f"c=0.3: pipeline {pipeline_acc:.2f} (need >=0.95), raw {raw_acc:.2f} "
            f"(pinned oracle baseline {pinned_raw_baseline:.2f}); c=0.6: "
            f"{on_template}/{trials} trials on the majority template (need all)")


def test_c10_critical_mapping_parameter():
    """k_critical values and binding restrictions, plus capacity growth
    exponents at N=10^4."""
    detail_small = k_critical_detail(1000, 0.1)
    bindings_large = {
        a: k_critical_detail(10000, a).binding
        for a in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
    }
    r_low_noise = capacity_exponent(10000, 0.1)
    r_mid_noise = capacity_exponent(10000, 0.15)
    ok = (
        k_critical(1000, 0.1) == 9
        and detail_small.binding == frozenset({BindingConstraint.FRAGMENT_COUNT})
        and all(
            b == frozenset({BindingConstraint.INTACT_FRAGMENTS})
            for b in bindings_large.values()
        )
        and 5 <= r_low_noise <= 7
        and 3 <= r_mid_noise <= 5
    )
    _report(10, "critical mapping parameter", ok,
            f"k_c(1000,0.1)={detail_small.k} bound by fragment count; "
            f"N=10^4 bound by intact fragments for a in [0.05,0.4]; "
            f"R(0.1)={r_low_noise:.2f}, R(0.15)={r_mid_noise:.2f}")


def test_c11_identifier():
    """N=200, q=32, M=1000 (2 digits), 30% level noise, 500 trials:
    >= 99% correct identification, exactly 2 enumerated-field evaluations
    per query, and the answer ignores the enumerated seed values."""
    n, q, m, b, trials = 200, 32, 1000, 0.3, 500
    patterns = random_qnary_patterns(m, n, q, NetworkKind.PNN3, make_rng(11000, 0))
    net = build_identifier(patterns, q)
    hits = 0
    eval_counts = set()
    seed_dependent = 0
    for t in range(trials):
        rng = make_rng(11000, 1 + t)
        idx = t % m
        noisy = apply_qnary_noise(patterns[idx], q, NoiseSpec(0.0, b), rng)
        counter = OpCounter()
        try:
            got = identify(net, noisy, counter=counter)
        except UnknownPattern:
            got = -1
        eval_counts.add(counter.enumerated_field_evals)
        hits += got == idx
        if t % 50 == 0:  # seed-independence probe on a subsample
            for _ in range(3):
                seeds = rng.integers(1, q + 1, size=net.n_digits)
                try:
                    again = identify(net, noisy, enumerated_init=seeds)
                except UnknownPattern:
                    again = -1
                seed_dependent += again != got
    accuracy = hits / trials
    ok = accuracy >= 0.99 and eval_counts == {2} and seed_dependent == 0
    _report(11, "q-nary identifier", ok,
            f"accuracy {accuracy:.3f} (need >=0.99), field evals per query "
            f"{sorted(eval_counts)}, seed-dependent answers {seed_dependent}")


def test_c12_cli_determinism(tmp_path):
    """Same configuration and seed give byte-identical CSVs for every
    command, at ``--jobs 1`` and at ``--jobs 2``, which is accepted and
    changes no byte."""
    cases = {
        "sweep": [
            "sweep", "--sweep", "q", "--values", "2,4", "--N", "50", "--M", "75",
            "--b", "0.4", "--trials", "24", "--seed", "12",
        ],
        "dpnn": [
            "dpnn-bench", "--N", "120", "--k", "1", "--M", "15", "--a", "0.1",
            "--overlap", "0.4", "--trials", "16", "--seed", "12",
        ],
        "identify": [
            "identify-bench", "--N", "60", "--q", "8", "--M", "100", "--b", "0.3",
            "--trials", "30", "--seed", "12",
        ],
        "theory": ["theory-table", "--N", "500,1000", "--q", "1,8", "--b", "0,0.2"],
    }
    all_same = True
    details = []
    for name, args in cases.items():
        first = tmp_path / f"{name}_1.csv"
        second = tmp_path / f"{name}_2.csv"
        jobs_one = ["--jobs", "1"] if name != "theory" else []
        jobs_two = ["--jobs", "2"] if name != "theory" else []
        assert cli_main(args + jobs_one + ["--out", str(first)]) == 0
        assert cli_main(args + jobs_two + ["--out", str(second)]) == 0
        same = first.read_bytes() == second.read_bytes()
        all_same &= same
        details.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    _report(12, "seeded CLI determinism", all_same, ", ".join(details))
