"""Benchmark workloads: pnn CLI commands and their replay through the library.

Every workload is one or more ``pnn`` commands shaped like the README
examples.  For each command the benchmark

* runs it in-process through ``pnn.cli.main`` and reads back the CSV, and
* replays the same trials through the public library functions, drawing
  from the same Philox streams the CLI uses.  A ``sweep`` point p generates
  its patterns from stream ``p * 2**32`` and drives trial t from stream
  ``p * 2**32 + 1 + t``; ``dpnn-bench`` and ``identify-bench`` use streams 0
  and ``1 + t``.

The replay's tallies must equal the CSV cells.  A trial fails when it raises,
breaks an invariant (checked in the traced replay) or belongs to a CSV row
whose cells differ from the replay; a wrong attractor is a result, not a
failure.

The workload seed is passed unchanged to both the CLI and the replay.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from pnn import (
    NetworkKind,
    NoiseSpec,
    OpCounter,
    UnknownPattern,
    apply_binary_noise,
    apply_qnary_noise,
    asynchronous_retrieve,
    build_identifier,
    build_memory,
    correlated_binary_patterns,
    digit_count,
    dpnn_build,
    dpnn_capacity,
    energy,
    identify,
    is_fixed_point,
    k_critical,
    make_rng,
    map_binary,
    perr_pnn2,
    perr_pnn3,
    random_qnary_patterns,
    synchronous_step,
    unmap_binary,
)
from pnn.cli import main as cli_main

from tracing import NO_TRACE

PREFIX_COLUMNS = [
    "experiment", "N", "q", "M", "a", "b", "k", "trials", "seed",
    "coord_err", "pattern_err", "avg_sweeps", "theory_perr", "vacuous_flag",
]
GEN_STREAM_STRIDE = 1 << 32
MAX_SWEEPS = 20  # the CLI's default --max-sweeps, which the commands keep
CACHE_LINE = 64


def _mean(values) -> float:
    return math.fsum(values) / len(values)


def _coord_errors(result, target) -> int:
    return int(np.count_nonzero((result.signs != target.signs) | (result.levels != target.levels)))


def _theory_bound(tr, kind: NetworkKind, n, m, q, a, b):
    """(value, vacuous flag) of the one-step bound; empty cells when undefined."""
    try:
        if kind is NetworkKind.PNN2:
            bound = tr.call("theory.perr_pnn2", perr_pnn2, n, m, q, a, b)
        else:
            bound = tr.call("theory.perr_pnn3", perr_pnn3, n, m, q, b)
    except ValueError:
        return "", ""
    return bound.value, int(bound.vacuous)


@dataclass
class Detail:
    """What one trial hands to the invariant checks and the per-layer counts."""

    retrievals: list = field(default_factory=list)   # (memory, input state, RetrievalResult)
    roundtrips: list = field(default_factory=list)   # (binary vector, k)
    field_evals: list = field(default_factory=list)  # (counted, expected)


# ----------------------------------------------------------------------
# commands


@dataclass(frozen=True)
class Sweep:
    """``pnn sweep --sweep q``: full asynchronous retrieval plus one synchronous step."""

    kind: str
    n: int
    m: int
    b: float
    qs: tuple
    trials: int
    jobs: int = 1
    extras = ("sync_coord_err", "sync_pattern_err", "sign_flip")

    def argv(self, seed: int) -> list[str]:
        argv = [
            "sweep", "--sweep", "q", "--values", ",".join(map(str, self.qs)),
            "--kind", self.kind, "--N", str(self.n), "--M", str(self.m),
            "--b", str(self.b), "--trials", str(self.trials), "--seed", str(seed),
        ]
        return argv + (["--jobs", str(self.jobs)] if self.jobs > 1 else [])

    def rows(self) -> list:
        return list(enumerate(self.qs))

    def setup(self, row, seed: int, tr):
        point, q = row
        kind = NetworkKind(self.kind)
        base = point * GEN_STREAM_STRIDE
        rng = tr.call("noise.make_rng", make_rng, seed, base)
        patterns = tr.call("noise.random_qnary_patterns", random_qnary_patterns, self.m, self.n, q, kind, rng)
        memory = tr.call("core.build_memory", build_memory, patterns, kind, q)
        return SimpleNamespace(
            q=q, kind=kind, base=base, patterns=patterns, memory=memory, spec=NoiseSpec(0.0, self.b)
        )

    def trial(self, ctx, seed: int, t: int, tr, detail: Detail | None):
        rng = tr.call("noise.make_rng", make_rng, seed, ctx.base + 1 + t)
        target = ctx.patterns[t % self.m]
        noisy = tr.call("noise.apply_qnary_noise", apply_qnary_noise, target, ctx.q, ctx.spec, rng)
        sync = tr.call("core.synchronous_step", synchronous_step, ctx.memory, noisy)
        result = tr.call(
            "core.asynchronous_retrieve", asynchronous_retrieve, ctx.memory, noisy, MAX_SWEEPS
        )
        final = result.final_state
        sync_errs = _coord_errors(sync, target)
        errs = _coord_errors(final, target)
        sign_flip = int(
            ctx.kind is NetworkKind.PNN2
            and np.array_equal(final.signs, -target.signs)
            and np.array_equal(final.levels, target.levels)
        )
        if detail is not None:
            detail.retrievals.append((ctx.memory, noisy, result))
        return (sync_errs, int(sync_errs > 0), errs, int(errs > 0), sign_flip, result.sweeps_used)

    def expected_row(self, ctx, seed: int, records: list, tr) -> list:
        sync_coord, sync_pat, coord, pat, flips, sweeps = zip(*records)
        theory, vacuous = _theory_bound(tr, ctx.kind, self.n, self.m, ctx.q, 0.0, self.b)
        return [
            "sweep-q", self.n, ctx.q, self.m, 0.0, self.b, "", self.trials, seed,
            _mean(coord) / self.n, _mean(pat), _mean(sweeps), theory, vacuous,
            _mean(sync_coord) / self.n, _mean(sync_pat), _mean(flips),
        ]


@dataclass(frozen=True)
class DpnnBench:
    """``pnn dpnn-bench``: the decorrelating pipeline against raw Hopfield (k=0)."""

    n: int
    k: int
    m: int
    a: float
    overlap: float
    trials: int
    extras = ("hopfield_coord_err", "hopfield_pattern_err", "k_critical", "capacity", "note")

    def argv(self, seed: int) -> list[str]:
        return [
            "dpnn-bench", "--N", str(self.n), "--k", str(self.k), "--M", str(self.m),
            "--a", str(self.a), "--overlap", str(self.overlap),
            "--trials", str(self.trials), "--seed", str(seed),
        ]

    def rows(self) -> list:
        return [None]

    def setup(self, row, seed: int, tr):
        k_c = tr.call("dpnn.k_critical", k_critical, self.n, self.a)
        rng = tr.call("noise.make_rng", make_rng, seed, 0)
        ensemble = tr.call(
            "noise.correlated_binary_patterns", correlated_binary_patterns,
            self.m, self.n, self.overlap, rng,
        )
        dpnn_memory = tr.call("dpnn.dpnn_build", dpnn_build, ensemble, self.k)
        hopfield_memory = tr.call("dpnn.dpnn_build", dpnn_build, ensemble, 0)
        return SimpleNamespace(k_c=k_c, ensemble=ensemble, dpnn=dpnn_memory, hopfield=hopfield_memory)

    def trial(self, ctx, seed: int, t: int, tr, detail: Detail | None):
        rng = tr.call("noise.make_rng", make_rng, seed, 1 + t)
        target = ctx.ensemble[t % len(ctx.ensemble)]
        noisy = tr.call("noise.apply_binary_noise", apply_binary_noise, target, self.a, rng)
        tallies = []
        for memory, k in ((ctx.dpnn, self.k), (ctx.hopfield, 0)):
            image = tr.call("dpnn.map_binary", map_binary, noisy, k)
            result = tr.call(
                "core.asynchronous_retrieve", asynchronous_retrieve, memory, image, MAX_SWEEPS
            )
            recovered = tr.call("dpnn.unmap_binary", unmap_binary, result.final_state, k)
            errs = int(np.count_nonzero(recovered != target))
            tallies.append((errs, int(errs > 0), result.sweeps_used))
            if detail is not None:
                detail.retrievals.append((memory, image, result))
                detail.roundtrips.append((noisy, k))
        (coord, pat, sweeps), (hop_coord, hop_pat, _) = tallies
        return (coord, pat, sweeps, hop_coord, hop_pat)

    def expected_row(self, ctx, seed: int, records: list, tr) -> list:
        coord, pat, sweeps, hop_coord, hop_pat = zip(*records)
        q = max(1, 2**self.k)
        image_level_noise = 1.0 - (1.0 - self.a) ** self.k
        theory, vacuous = _theory_bound(
            tr, NetworkKind.PNN2, self.n // (self.k + 1), self.m, q, self.a, image_level_noise
        )
        capacity = tr.call("dpnn.dpnn_capacity", dpnn_capacity, self.n, self.a, self.k)
        return [
            "dpnn-bench", self.n, q, self.m, self.a, "", self.k, self.trials, seed,
            _mean(coord) / self.n, _mean(pat), _mean(sweeps), theory, vacuous,
            _mean(hop_coord) / self.n, _mean(hop_pat),
            ctx.k_c, capacity, "k>k_critical" if self.k > ctx.k_c else "",
        ]


@dataclass(frozen=True)
class IdentifyBench:
    """``pnn identify-bench``: read a noisy input's pattern number, no iteration."""

    n: int
    q: int
    m: int
    b: float
    trials: int
    extras = ("n_digits", "field_evals_per_query")

    def argv(self, seed: int) -> list[str]:
        return [
            "identify-bench", "--N", str(self.n), "--q", str(self.q), "--M", str(self.m),
            "--b", str(self.b), "--trials", str(self.trials), "--seed", str(seed),
        ]

    def rows(self) -> list:
        return [None]

    def setup(self, row, seed: int, tr):
        rng = tr.call("noise.make_rng", make_rng, seed, 0)
        patterns = tr.call(
            "noise.random_qnary_patterns", random_qnary_patterns,
            self.m, self.n, self.q, NetworkKind.PNN3, rng,
        )
        net = tr.call("identifier.build_identifier", build_identifier, patterns, self.q)
        return SimpleNamespace(
            patterns=patterns, net=net, n_digits=digit_count(self.m, self.q), spec=NoiseSpec(0.0, self.b)
        )

    def trial(self, ctx, seed: int, t: int, tr, detail: Detail | None):
        q = self.q
        rng = tr.call("noise.make_rng", make_rng, seed, 1 + t)
        idx = t % self.m
        noisy = tr.call("noise.apply_qnary_noise", apply_qnary_noise, ctx.patterns[idx], q, ctx.spec, rng)
        seeds = tr.call("noise.integers", rng.integers, 1, q + 1, size=ctx.n_digits)
        counter = OpCounter()
        try:
            got = tr.call("identifier.identify", identify, ctx.net, noisy, enumerated_init=seeds, counter=counter)
        except UnknownPattern as exc:
            got = exc.decoded_index
        digit_errs = 0
        want, have = idx, got
        for _ in range(ctx.n_digits):
            digit_errs += int(want % q != have % q)
            want //= q
            have //= q
        if detail is not None:
            detail.field_evals.append((counter.enumerated_field_evals, ctx.n_digits))
        return (digit_errs, int(got != idx), counter.enumerated_field_evals)

    def expected_row(self, ctx, seed: int, records: list, tr) -> list:
        digit_errs, misses, evals = zip(*records)
        theory, vacuous = _theory_bound(tr, NetworkKind.PNN3, self.n, self.m, self.q, 0.0, self.b)
        return [
            "identify-bench", self.n, self.q, self.m, 0.0, self.b, "", self.trials, seed,
            _mean(digit_errs) / ctx.n_digits, _mean(misses), 1.0, theory, vacuous,
            ctx.n_digits, _mean(evals),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    setup_reps: int  # set-ups timed per round; the median is reported
    speed_probe: str  # the reference loop that tracks this workload's speed (see harness)

    @property
    def trials_per_round(self) -> int:
        return sum(c.trials * len(c.rows()) for c in self.commands)

    @property
    def jobs(self) -> int:
        return max(getattr(c, "jobs", 1) for c in self.commands)


# Never more workers than cores: the CLI's pool forks every worker at once.
JOBS = min(2, os.cpu_count() or 1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-small",
            "README sweep (PNN2 N=200 M=400 b=0.5 q=4,8,16) plus PNN3 q=16: per-visit numpy "
            "overhead; q=4 runs towards the 20-sweep cap, so tails and non-convergence show",
            (Sweep("pnn2", 200, 400, 0.5, (4, 8, 16), trials=30), Sweep("pnn3", 200, 400, 0.5, (16,), trials=110)),
            setup_reps=3,
            speed_probe="calls",
        ),
        Workload(
            "retrieve-large",
            "PNN2 N=2000 M=2000 q=16 b=0.5 at --jobs 2: array-bound visits, synchronous_step, "
            "set-up, and the pool pickling the 36 MB Memory per batch",
            (Sweep("pnn2", 2000, 2000, 0.5, (16,), trials=8, jobs=JOBS),),
            setup_reps=1,
            speed_probe="scan",
        ),
        Workload(
            "dpnn",
            "README dpnn-bench (N=800 k=4 M=200 a=0.1 overlap 0.3): map/unmap/build, and the k=0 "
            "Hopfield comparison exercises the q=1 retrieval branch",
            (DpnnBench(800, 4, 200, 0.1, 0.3, trials=40),),
            setup_reps=3,
            speed_probe="calls",
        ),
        Workload(
            "identify",
            "README identify-bench (N=200 q=32 M=1000 b=0.3): no iteration, so it bypasses core "
            "retrieval and a retrieval-kernel change must not move it",
            (IdentifyBench(200, 32, 1000, 0.3, trials=500),),
            setup_reps=1,
            speed_probe="scan",
        ),
    )
}


# ----------------------------------------------------------------------
# running the CLI and checking its CSV


@dataclass
class CliRun:
    wall_s: float
    sha256: str
    rows: list          # CSV body rows, each a list of cells
    problems: list      # exit code, header or framing problems
    payload_bytes: int  # pickled into a process pool; counted when tracing


@contextlib.contextmanager
def _recording_pool_payloads(sent: list):
    """Record what the CLI submits to any ProcessPoolExecutor; pickled later."""
    original = ProcessPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        sent.append((fn, args, kwargs))
        return original(self, fn, *args, **kwargs)

    ProcessPoolExecutor.submit = submit
    try:
        yield
    finally:
        ProcessPoolExecutor.submit = original


def run_cli(command, seed: int, out_path: Path, tr=NO_TRACE) -> CliRun:
    argv = command.argv(seed) + ["--out", str(out_path)]
    out_path.unlink(missing_ok=True)
    sent: list = []
    err = io.StringIO()
    recording = _recording_pool_payloads(sent) if tr.enabled else contextlib.nullcontext()
    with recording, contextlib.redirect_stderr(err):
        start = perf_counter()
        with tr.span("cli.main"):
            code = cli_main(argv)
        wall = perf_counter() - start
    problems = []
    data = out_path.read_bytes() if code == 0 and out_path.is_file() else b""
    if code != 0:
        problems.append(f"exit code {code}: {err.getvalue().strip()}")
    rows = []
    if data:
        if b"\r" in data or not data.endswith(b"\n"):
            problems.append("CSV is not \\n-terminated")
        table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        header, rows = table[0], table[1:]
        expected_header = PREFIX_COLUMNS + list(command.extras)
        if header != expected_header:
            problems.append(f"CSV header {header} != {expected_header}")
        if len(rows) != len(command.rows()):
            problems.append(f"CSV has {len(rows)} rows, expected {len(command.rows())}")
    # the pool pickles each payload once; pickling them again here computes the bytes
    sent_bytes = sum(len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)) for item in sent)
    return CliRun(wall, hashlib.sha256(data).hexdigest(), rows, problems, sent_bytes)


def _cell_matches(want, got: str) -> bool:
    if isinstance(want, str):
        return got == want
    try:
        return float(got) == float(format(float(want), ".10g"))
    except ValueError:
        return False


def compare_row(header: list, expected: list, cells: list | None) -> list[str]:
    """Cells where the CSV row and the replay disagree."""
    if cells is None:
        return ["CSV row missing"]
    if len(cells) != len(header):
        return [f"CSV row has {len(cells)} cells, header has {len(header)}"]
    return [
        f"{col}: csv {got!r} != replay {want!r}"
        for col, want, got in zip(header, expected, cells)
        if not _cell_matches(want, got)
    ]


# ----------------------------------------------------------------------
# replay


def check_invariants(detail: Detail, tr) -> list[str]:
    """Per-trial invariants; each violation fails the trial."""
    bad = []
    for memory, start, result in detail.retrievals:
        final = result.final_state
        if result.converged and not tr.call("core.is_fixed_point", is_fixed_point, memory, final):
            bad.append("converged state is not a fixed point")
        if tr.call("core.energy", energy, memory, final) > tr.call("core.energy", energy, memory, start):
            bad.append("energy rose during retrieval")
    for y, k in detail.roundtrips:
        image = tr.call("dpnn.map_binary", map_binary, y, k)
        if not np.array_equal(tr.call("dpnn.unmap_binary", unmap_binary, image, k), y):
            bad.append(f"unmap_binary(map_binary(y, {k}), {k}) != y")
    for counted, expected in detail.field_evals:
        if counted != expected:
            bad.append(f"{counted} field evaluations, digit_count gives {expected}")
    return bad


def bytes_per_visit(memory) -> int:
    """Computed bytes one neuron visit reads from the memory's stored arrays.

    Each stored array with an axis of length N (the last such axis when
    several match, as in the (M, N) pattern arrays) is read at one neuron:
    size/N elements.  Elements at least a cache line apart cost a line each;
    closer ones cost their spacing.  Cache hits are ignored.
    """
    n = memory.n_neurons
    names = list(getattr(type(memory), "__slots__", ())) + list(getattr(memory, "__dict__", {}))
    total = 0
    for name in names:
        arr = getattr(memory, name, None)
        if not isinstance(arr, np.ndarray) or arr.ndim < 2 or n not in arr.shape:
            continue
        axis = max(i for i, size in enumerate(arr.shape) if size == n)
        spacing = min(abs(s) for i, s in enumerate(arr.strides) if i != axis)
        total += (arr.size // n) * min(max(spacing, arr.itemsize), CACHE_LINE)
    return total


@dataclass
class Replay:
    """Timings, failures and (traced) counts of one replay of a command."""

    setup_s: list = field(default_factory=list)    # per set-up repetition, summed over rows
    trial_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    retrievals: list = field(default_factory=list)  # (N, sweeps_used, updates_changed, converged, bytes/visit)
    field_evals: list = field(default_factory=list)


def replay(
    command, seed: int, cli: CliRun, tr=NO_TRACE, setup_reps: int = 1, checks: bool = False,
    between_trials=lambda: None,
) -> Replay:
    """Replay every trial of ``command`` and compare the tallies with ``cli``'s CSV.

    ``between_trials`` is called after each timed trial, outside its timing.
    """
    out = Replay(setup_s=[0.0] * setup_reps)
    header = PREFIX_COLUMNS + list(command.extras)
    out.problems.extend(cli.problems)
    for row_index, row in enumerate(command.rows()):
        visit_bytes = {}
        for rep in range(setup_reps):
            start = perf_counter()
            with tr.span("setup"):
                ctx = command.setup(row, seed, tr)
            out.setup_s[rep] += perf_counter() - start
        records, bad = [], set()
        for t in range(command.trials):
            detail = Detail() if checks else None
            start = perf_counter()
            try:
                with tr.span("trial"):
                    records.append(command.trial(ctx, seed, t, tr, detail))
            except Exception as exc:  # a raising trial is a failed trial, never a skipped one
                out.problems.append(f"row {row_index} trial {t}: {type(exc).__name__}: {exc}")
                bad.add(t)
                continue
            out.trial_s.append(perf_counter() - start)
            between_trials()
            if detail is None:
                continue
            with tr.span("check"):
                violations = check_invariants(detail, tr)
            if violations:
                out.problems.extend(f"row {row_index} trial {t}: {v}" for v in violations)
                bad.add(t)
            for memory, _, result in detail.retrievals:
                if id(memory) not in visit_bytes:
                    visit_bytes[id(memory)] = bytes_per_visit(memory)
                out.retrievals.append((
                    memory.n_neurons, result.sweeps_used, result.updates_changed,
                    result.converged, visit_bytes[id(memory)],
                ))
            out.field_evals.extend(counted for counted, _ in detail.field_evals)
        if not bad and not cli.problems:
            with tr.span("score"):
                expected = command.expected_row(ctx, seed, records, tr)
            cells = cli.rows[row_index] if row_index < len(cli.rows) else None
            mismatches = compare_row(header, expected, cells)
            if mismatches:
                out.problems.extend(f"row {row_index}: {m}" for m in mismatches)
                bad = set(range(command.trials))
        else:
            bad = set(range(command.trials))
        out.attempted += command.trials
        out.failed += len(bad)
    return out
