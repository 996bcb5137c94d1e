"""Independent reference implementations used to check the library.

Everything here is deliberately naive: explicit q-dimensional basis vectors,
explicit N x N weight matrices, triple loops.  None of it shares code with
the package internals; ``random_binary_patterns`` draws the uniform +-1 test
inputs of the binary pipeline.  The exceptions in kind are
``reference_asynchronous_retrieve``, a copy of the package's earlier serial
kernel, one visit at a time, written out from the public pattern arrays,
``reference_overlaps``, the package's earlier overlap sum over all N neurons
at once, and ``reference_k_critical_detail``, the package's earlier search of
the list of all divisors of N.
"""

import math

import numpy as np

from pnn import (
    BindingConstraint,
    IndexOutOfRange,
    KCriticalResult,
    Memory,
    NetworkKind,
    Pattern,
    RetrievalResult,
)


def unit_vector(level: int, q: int, sign: int = 1) -> np.ndarray:
    v = np.zeros(q)
    v[level - 1] = float(sign)
    return v


def centered_vector(level: int, q: int) -> np.ndarray:
    """Unsigned unit vector minus the mean activity e/q."""
    v = unit_vector(level, q)
    return v - np.full(q, 1.0 / q)


def stored_vectors(memory: Memory) -> list[list[np.ndarray]]:
    """The coupling vectors w_j^mu, indexed [mu][j]: the pattern states, centered for PNN3."""
    q, signs, levels = memory.q, memory.pattern_signs.tolist(), memory.pattern_levels.tolist()
    if memory.kind is NetworkKind.PNN3:
        return [[centered_vector(level, q) for level in row] for row in levels]
    return [[unit_vector(level, q, sign) for sign, level in zip(*rows)]
            for rows in zip(signs, levels)]


def state_vector(memory: Memory, state: Pattern, j: int) -> np.ndarray:
    return unit_vector(int(state.levels[j]), memory.q, int(state.signs[j]))


def naive_local_field(memory: Memory, state: Pattern, i: int) -> np.ndarray:
    """The double sum over patterns and the other N-1 neurons, in floats."""
    q, n, w = memory.q, memory.n_neurons, stored_vectors(memory)
    h = np.zeros(q)
    for mu in range(memory.n_patterns):
        w_i = w[mu][i]
        for j in range(n):
            if j == i:
                continue
            w_j = w[mu][j]
            x_j = state_vector(memory, state, j)
            h += w_i * float(w_j @ x_j)
    return h / n


def exact_local_field(memory: Memory, state: Pattern, i: int) -> tuple[list[int], int]:
    """Neuron i's field as exact integers, and the scale that divides them.

    Sums w_i^mu <w_j^mu, x_j> over patterns and the other N-1 neurons with
    the integer stored vectors alpha*s*e_l - beta*e ((alpha, beta) = (1, 0)
    for PNN2 and (q, 1) for PNN3, q times the centered vector), in Python
    integers; the field is the sum divided by N*alpha^2.
    """
    q, n = memory.q, memory.n_neurons
    alpha, beta = (1, 0) if memory.kind is NetworkKind.PNN2 else (q, 1)

    signs, levels = memory.pattern_signs.tolist(), memory.pattern_levels.tolist()

    def stored(mu, j):
        sign, level = signs[mu][j], levels[mu][j]
        return [alpha * sign * (lv == level) - beta for lv in range(1, q + 1)]

    def current(j):
        sign, level = int(state.signs[j]), int(state.levels[j])
        return [sign * (lv == level) for lv in range(1, q + 1)]

    h = [0] * q
    for mu in range(memory.n_patterns):
        overlap = sum(
            sum(w * x for w, x in zip(stored(mu, j), current(j))) for j in range(n) if j != i
        )
        h = [hk + wk * overlap for hk, wk in zip(h, stored(mu, i))]
    return h, n * alpha * alpha


def naive_decide(kind: NetworkKind, amplitudes, sign: int, level: int) -> tuple[int, int]:
    """The (sign, level) a neuron in state (sign, level) takes under a field.

    PNN2 aligns with the amplitude of largest modulus and takes its sign;
    PNN3 aligns with the largest signed amplitude and stays unsigned.  Among
    tied maximizers the current level wins if it is one of them, otherwise
    the lowest level; a zero amplitude keeps the current sign.
    """
    amps = np.asarray(amplitudes).tolist()  # plain Python numbers, exact as given
    score = [abs(a) for a in amps] if kind is NetworkKind.PNN2 else amps
    top = max(score)
    winners = [lv for lv in range(1, len(amps) + 1) if score[lv - 1] == top]
    chosen = level if level in winners else winners[0]
    if kind is NetworkKind.PNN3:
        return 1, chosen
    amp = amps[chosen - 1]
    return (1 if amp > 0 else -1 if amp < 0 else sign), chosen


def with_neuron(state: Pattern, i: int, sign: int, level: int) -> Pattern:
    """``state`` with neuron i set to (sign, level)."""
    signs, levels = state.signs.copy(), state.levels.astype(np.int64)  # holds any new level
    signs[i], levels[i] = sign, level
    return Pattern(signs, levels)


def reference_asynchronous_retrieve(
    memory: Memory,
    input_state: Pattern,
    max_sweeps: int,
    rng: np.random.Generator | None = None,
    record_trace: bool = False,
) -> RetrievalResult:
    """Asynchronous retrieval one visit at a time, with no run-ahead blocks.

    Each visit bins sigma_i (m + beta) by level, subtracts s alpha C_il at
    the current level l to get the decision field D, and takes one argmax of
    |D| (PNN2) or D (PNN3) with 1/2 added at l; the sign is D's at the
    chosen level, a zero keeping the current sign.  A change moves the
    float64 overlaps by sigma_i times a (q + 1)-entry step table at the
    stored levels.  The overlaps m and the level counts C are built here
    from ``pattern_signs`` and ``pattern_levels``.
    """
    n, q = memory.n_neurons, memory.q
    a, b = (1, 0) if memory.kind is NetworkKind.PNN2 else (q, 1)
    pnn2 = memory.kind is NetworkKind.PNN2
    stored_signs = memory.pattern_signs.T.astype(np.int64)  # (N, M)
    stored_levels = memory.pattern_levels.T.astype(np.int64)
    counts = np.stack([np.count_nonzero(stored_levels == lv, axis=1) for lv in range(1, q + 1)], 1)
    signs, levels = input_state.signs.astype(int).tolist(), input_state.levels.astype(int).tolist()
    agree = stored_signs * (stored_levels == np.array(levels)[:, None]) * np.array(signs)[:, None]
    m = (a * agree.sum(axis=0) - b * n + b).astype(np.float64)  # the overlaps plus beta
    step = np.zeros(q + 1)
    trace: list[Pattern] | None = [] if record_trace else None

    changed_total = 0
    for sweeps in range(1, max_sweeps + 1):
        visit = range(n) if rng is None else rng.permutation(n).tolist()
        changed_this_sweep = 0
        for i in visit:
            s, l = signs[i], levels[i]
            d = np.bincount(stored_levels[i], weights=stored_signs[i] * m, minlength=q + 1)[1:]
            d[l - 1] -= s * a * counts[i, l - 1]
            key = np.abs(d) if pnn2 else d
            key[l - 1] += 0.5
            level = int(key.argmax()) + 1
            amp = d.item(level - 1) if pnn2 else 0.0
            sign = 1 if amp > 0 else -1 if amp < 0 else s
            if sign != s or level != l:
                signs[i], levels[i] = sign, level
                step[l] = -a * s
                step[level] += a * sign
                m += stored_signs[i] * step.take(stored_levels[i])
                step[l] = step[level] = 0.0
                changed_this_sweep += 1
            if trace is not None:
                trace.append(Pattern(signs, levels))
        changed_total += changed_this_sweep
        if changed_this_sweep == 0:
            break

    return RetrievalResult(
        final_state=Pattern(signs, levels),
        converged=changed_this_sweep == 0,
        sweeps_used=sweeps,
        updates_changed=changed_total,
        trace=trace,
    )


def reference_overlaps(memory: Memory, signs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The scaled per-pattern overlaps of the state (signs, levels), int64, from one (N, M)
    array of the +-1/0 products sigma s [lev == l] summed over all neurons at once, in the
    narrowest type that holds +-N, read from ``pattern_signs`` and ``pattern_levels``."""
    alpha, beta = (1, 0) if memory.kind is NetworkKind.PNN2 else (memory.q, 1)
    stored_levels = memory.pattern_levels.T
    agree = memory.pattern_signs.T * (stored_levels == levels.astype(stored_levels.dtype)[:, None])
    agree *= signs.astype(np.int8)[:, None]
    sums = agree.sum(axis=0, dtype=np.min_scalar_type(-memory.n_neurons - 1)).astype(np.int64)
    return alpha * sums - beta * memory.n_neurons


def naive_energy(memory: Memory, state: Pattern) -> float:
    total = 0.0
    for i in range(memory.n_neurons):
        x_i = state_vector(memory, state, i)
        total += float(x_i @ naive_local_field(memory, state, i))
    return -0.5 * total


class ScalarHopfield:
    """Classical +-1 Hopfield network with an explicit weight matrix.

    Weights are kept as unnormalized integers (sum over patterns of outer
    products, zero diagonal); scaling by 1/N never changes a sign decision,
    and integer fields make the zero-field tie exact.  The update is
    sign(h) with sign(0) keeping the current value.
    """

    def __init__(self, patterns):
        stacked = np.stack([np.asarray(p, dtype=np.int64) for p in patterns])
        self.n = stacked.shape[1]
        self.weights = stacked.T @ stacked
        np.fill_diagonal(self.weights, 0)

    def field(self, state: np.ndarray, i: int) -> int:
        return int(self.weights[i] @ state)

    def synchronous_step(self, state: np.ndarray) -> np.ndarray:
        h = self.weights @ state.astype(np.int64)
        return np.where(h > 0, 1, np.where(h < 0, -1, state)).astype(np.int8)

    def retrieve(self, state: np.ndarray, max_sweeps: int, rng=None):
        """Asynchronous retrieval in sequential order, or, given ``rng``, in a fresh
        ``rng.permutation(n)`` each sweep; returns the per-update trace."""
        s = np.asarray(state, dtype=np.int8).copy()
        trace = []
        converged = False
        sweeps = 0
        changed_total = 0
        for _ in range(max_sweeps):
            sweeps += 1
            changed = 0
            for i in range(self.n) if rng is None else rng.permutation(self.n):
                h = self.field(s, i)
                new = 1 if h > 0 else (-1 if h < 0 else int(s[i]))
                if new != s[i]:
                    s[i] = new
                    changed += 1
                trace.append(s.copy())
            changed_total += changed
            if changed == 0:
                converged = True
                break
        return s, converged, sweeps, changed_total, trace

    def energy(self, state: np.ndarray) -> float:
        s = state.astype(np.int64)
        return -0.5 * float(s @ self.weights @ s) / self.n


class DenseVectorHopfield:
    """Signed vector-neuron network (PNN2) with an explicit coupling matrix.

    A neuron in state (sign, level) is the vector sign * e_level of R^q, and
    a network state is the N*q concatenation of those vectors.  The weights
    are the unnormalized integer sum over patterns of outer products of such
    states, with every q x q diagonal block (a neuron's coupling to itself)
    zeroed; scaling by 1/N never changes a decision, and integer fields make
    ties exact.  Each neuron follows ``naive_decide`` for PNN2.
    """

    def __init__(self, images, q: int):
        """``images`` is a sequence of (signs, levels) pairs, levels 1-based."""
        self.q = q
        self.n = len(images[0][0])
        stacked = np.stack([self.embed(s, l) for s, l in images])
        # float64 products are exact here: each entry sums at most M terms in {-1, 0, 1}
        self.weights = (stacked.T @ stacked).astype(np.int64)
        for i in range(self.n):
            self.weights[i * q:(i + 1) * q, i * q:(i + 1) * q] = 0

    def embed(self, signs, levels) -> np.ndarray:
        return np.concatenate(
            [unit_vector(int(l), self.q, int(s)) for s, l in zip(signs, levels)]
        )

    def field(self, x: np.ndarray, i: int) -> np.ndarray:
        return self.weights[i * self.q:(i + 1) * self.q] @ x

    def retrieve(self, signs, levels, max_sweeps: int):
        """Sequential asynchronous retrieval from the state (signs, levels).

        Returns (signs, levels, converged, sweeps_used).
        """
        signs = [int(s) for s in signs]
        levels = [int(l) for l in levels]
        x = self.embed(signs, levels).astype(np.int64)
        converged = False
        sweeps = 0
        for _ in range(max_sweeps):
            sweeps += 1
            changed = 0
            for i in range(self.n):
                sign, level = naive_decide(NetworkKind.PNN2, self.field(x, i), signs[i], levels[i])
                if (sign, level) != (signs[i], levels[i]):
                    signs[i], levels[i] = sign, level
                    x[i * self.q:(i + 1) * self.q] = unit_vector(level, self.q, sign)
                    changed += 1
            if changed == 0:
                converged = True
                break
        return np.array(signs), np.array(levels), converged, sweeps


def reference_qnary_patterns(m: int, n: int, q: int, kind: NetworkKind, rng) -> list[Pattern]:
    """M random patterns drawn one at a time: its levels, then (PNN2) its signs."""
    patterns = []
    for _ in range(m):
        levels = rng.integers(1, q + 1, size=n)
        if kind is NetworkKind.PNN2:
            signs = 2 * rng.integers(0, 2, size=n) - 1
        else:
            signs = np.ones(n, dtype=np.int8)
        patterns.append(Pattern(signs, levels))
    return patterns


def random_binary_patterns(m: int, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """M i.i.d. uniform +-1 vectors of length n."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m} n={n}")
    return [(2 * rng.integers(0, 2, size=n) - 1).astype(np.int8) for _ in range(m)]


def reference_qnary_noise(pattern: Pattern, q: int, a: float, b: float, rng):
    """The (signs, levels) of ``apply_qnary_noise`` in int64 arrays, drawn in its order: sign
    flips (when a > 0), then level hits and offsets (when b > 0 and q > 1); a hit level l
    becomes (l - 1 + offset) mod q + 1, in Python integers, exact for any q below 2**63."""
    signs, levels = pattern.signs.astype(np.int64), pattern.levels.astype(np.int64)
    n = signs.size
    if a > 0:
        signs[rng.random(n) < a] *= -1
    if b > 0 and q > 1:
        hit = rng.random(n) < b
        offsets = rng.integers(1, q, size=n)
        levels[hit] = [(level - 1 + offset) % q + 1
                       for level, offset in zip(levels[hit].tolist(), offsets[hit].tolist())]
    return signs, levels


def reference_map_fragment(fragment) -> tuple[int, int]:
    """Read a +-1 fragment as (sign, level) by literal binary notation."""
    sign = int(fragment[0])
    bits = "".join("1" if v == 1 else "0" for v in fragment[1:])
    level = 1 + (int(bits, 2) if bits else 0)
    return sign, level


def reference_map_binary(y, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``reference_map_fragment`` over consecutive fragments of k+1 bits."""
    pairs = [reference_map_fragment(y[f:f + k + 1]) for f in range(0, len(y), k + 1)]
    return np.array([s for s, _ in pairs]), np.array([l for _, l in pairs])


def reference_unmap_binary(signs, levels, k: int) -> np.ndarray:
    """Write each (sign, level) back as a sign bit and level-1 in k binary digits."""
    bits = []
    for sign, level in zip(signs, levels):
        bits.append(int(sign))
        if k:
            bits.extend(1 if d == "1" else -1 for d in format(int(level) - 1, f"0{k}b"))
    return np.array(bits, dtype=np.int8)


def reference_k_critical_asymptotic(n_bits: int, a: float) -> int | None:
    """The largest k whose fragment size d = k+1 has d <= N/100 and (N/d)(1-a)^d >= 2, by
    trying every d in turn; None when no d qualifies."""
    best = None
    for d in range(1, n_bits // 100 + 1):
        if (n_bits / d) * (1 - a) ** d >= 2.0:
            best = d - 1
    return best


def _divisors(n: int) -> list[int]:
    out = set()
    for i in range(1, int(math.isqrt(n)) + 1):
        if n % i == 0:
            out.add(i)
            out.add(n // i)
    return sorted(out)


def reference_k_critical_detail(n_bits: int, a: float) -> KCriticalResult | None:
    """``k_critical_detail`` by listing every divisor d = k+1 of N and testing each restriction
    on each; None when no divisor meets both."""

    def count(d):
        return d * 100 <= n_bits

    def intact(d):
        return (n_bits / d) * (1 - a) ** d >= 2.0

    divisors = _divisors(n_bits)
    feasible = [d for d in divisors if count(d) and intact(d)]
    if not feasible:
        return None
    best = max(feasible)
    binding = set()
    without_count = [d for d in divisors if intact(d)]
    if without_count and max(without_count) > best:
        binding.add(BindingConstraint.FRAGMENT_COUNT)
    without_intact = [d for d in divisors if count(d)]
    if without_intact and max(without_intact) > best:
        binding.add(BindingConstraint.INTACT_FRAGMENTS)
    if not binding and reference_k_critical_asymptotic(n_bits, a) > best - 1:
        binding.add(BindingConstraint.DIVISIBILITY)
    return KCriticalResult(k=best - 1, binding=frozenset(binding))


def naive_identifier_field(net, state: Pattern, j: int) -> np.ndarray:
    """Cross-coupling field at enumerated coordinate j, from basis vectors."""
    q = net.memory.q
    h, stored_levels = np.zeros(q), net.memory.pattern_levels
    for mu in range(net.memory.n_patterns):
        y = centered_vector(int(net.digit_codes[mu, j]) + 1, q)
        acc = 0.0
        for i in range(net.memory.n_neurons):
            w = centered_vector(int(stored_levels[mu, i]), q)
            x = unit_vector(int(state.levels[i]), q)
            acc += float(w @ x)
        h += y * acc
    return h / net.memory.n_neurons


def coupling_block(net, row: int, col: int) -> np.ndarray:
    """The (q x q) coupling block between extended coordinates row and col.

    Extended indexing: positions 0..n-1 are enumerated, n..n+N-1 are true.
    Only enumerated->true blocks are nonzero; everything else is cut.  The
    identifier never forms these blocks; this spells them out for inspection.
    """
    total = net.n_digits + net.memory.n_neurons
    if not (0 <= row < total and 0 <= col < total):
        raise IndexOutOfRange(f"extended index outside [0, {total})")
    q = net.memory.q
    block = np.zeros((q, q))
    if row < net.n_digits <= col:
        digits = net.digit_codes[:, row]
        levels = net.memory.pattern_levels[:, col - net.n_digits]
        for d, l in zip(digits, levels):
            left = -np.ones(q) / q
            left[d] += 1.0
            right = -np.ones(q) / q
            right[l - 1] += 1.0
            block += np.outer(left, right)
    return block
