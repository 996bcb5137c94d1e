"""Rounds, traced replays and the metrics they yield; see run.py for usage."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import pnn

from tracing import NO_TRACE, Tracer
from workloads import WORKLOADS, replay, run_cli

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(samples: int) -> float:
    """Highest percentile in the ladder with at least ten of ``samples`` beyond it.

    It is taken per round, over that round's trials, and the median across
    rounds is reported: pooled over a whole run, the top percent of the
    trials holds the moments the process waited for a shared core.
    """
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# Reference loops for the machine's speed.  On a host whose cores are shared
# and whose clock changes, a fixed loop's time moves by up to 1.8x (measured
# on a 2-vCPU 2.1 GHz x86_64 VM), in spells from a fraction of a second to
# minutes.  So each end-to-end time is divided by the slowdown measured right
# next to it: a reference loop's time over its reference time below.  Every
# replayed trial is paired with a measurement taken at most PROBE_EVERY_S
# after it, and every CLI run with measurements just before and after it.
# The loops use no pnn code, so a change to pnn cannot move them.  Contention
# and clock changes slow numpy call overhead and array scans by different
# factors, so each workload names the loop that tracks it: "calls" for many
# calls on small arrays (neuron visits at N <= 800), "scan" for scans of
# arrays of a few MB.
_REF = np.random.default_rng(12345)
_REF_SMALL = _REF.integers(1, 17, size=(400, 200))
_REF_WEIGHTS = _REF.random(400)
_REF_LARGE = _REF.integers(1, 33, size=(1000, 200))


def _calls_loop() -> None:
    for i in range(200):
        col = _REF_SMALL[:, i]
        np.bincount(col - 1, weights=_REF_WEIGHTS * (col == _REF_SMALL[0, i]), minlength=16).argmax()


def _scan_loop() -> None:
    for i in range(8):
        np.sum(_REF_LARGE == _REF_LARGE[i], axis=1).max()


# probe -> (loop, its reference time in seconds: a typical time on that VM)
SPEED_PROBES = {"calls": (_calls_loop, 0.00175), "scan": (_scan_loop, 0.0023)}
PROBE_EVERY_S = 0.1


class SpeedProbe:
    def __init__(self, probe: str):
        self.loop, self.reference_s = SPEED_PROBES[probe]
        self.last = float("-inf")

    def measure(self) -> float:
        """The slowdown now: median of three loop times over the reference time."""
        times = []
        for _ in range(3):
            start = perf_counter()
            self.loop()
            times.append(perf_counter() - start)
        self.last = perf_counter()
        return statistics.median(times) / self.reference_s


@dataclass
class Round:
    """Every command once: its CLI run, its untraced replay and the slowdowns next to them."""

    cli_runs: list = field(default_factory=list)
    replays: list = field(default_factory=list)
    cli_slowdown: list = field(default_factory=list)    # per command
    trial_slowdown: list = field(default_factory=list)  # per replayed trial, in order

    def cli_wall_s(self, scaled: bool = False) -> float:
        return sum(c.wall_s / (s if scaled else 1.0) for c, s in zip(self.cli_runs, self.cli_slowdown))

    def trial_s(self, scaled: bool = False) -> list:
        raw = [t for r in self.replays for t in r.trial_s]
        return [t / s for t, s in zip(raw, self.trial_slowdown)] if scaled else raw

    def setup_s(self, scaled: bool = False) -> list:
        """Set-up time of the whole round per set-up repetition, scaled by the round's median trial slowdown."""
        factor = statistics.median(self.trial_slowdown) if scaled and self.trial_slowdown else 1.0
        return [sum(rep) / factor for rep in zip(*(r.setup_s for r in self.replays))]

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.replays)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.replays)

    @property
    def problems(self) -> list:
        return [p for r in self.replays for p in r.problems]

    @property
    def sha256(self) -> list:
        return [c.sha256 for c in self.cli_runs]


def play_round(workload, seed: int, tr, probe: SpeedProbe) -> Round:
    """Each command once through the CLI, then once through the untraced replay."""
    rnd = Round()
    pending = 0

    def between_trials():
        nonlocal pending
        pending += 1
        if perf_counter() - probe.last >= PROBE_EVERY_S:
            rnd.trial_slowdown.extend([probe.measure()] * pending)
            pending = 0

    for i, command in enumerate(workload.commands):
        before = probe.measure()
        rnd.cli_runs.append(run_cli(command, seed, OUT_DIR / f"{workload.name}-{seed}-{i}.csv", tr))
        rnd.cli_slowdown.append((before + probe.measure()) / 2)
        rnd.replays.append(replay(
            command, seed, rnd.cli_runs[-1], NO_TRACE,
            setup_reps=workload.setup_reps, between_trials=between_trials,
        ))
        rnd.trial_slowdown.extend([probe.measure()] * pending)
        pending = 0
    return rnd


def repeat(fn, budget_s: float, at_least: int) -> list:
    """Call fn until the next call would overrun the budget, at least ``at_least`` times."""
    results = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(fn())
        last = perf_counter() - t0
        if len(results) >= at_least and perf_counter() - start + last > budget_s:
            return results


def failed_trials(rounds: list, traced: list) -> tuple[int, list]:
    """Failed trials and problems; a round whose CSVs differ from the first round's fails whole."""
    failed = sum(t.failed for t in traced)
    problems = [p for t in traced for p in t.problems]
    for r in rounds:
        problems += r.problems
        if r.sha256 != rounds[0].sha256:
            problems.append("CSV bytes differ between rounds of the same seed")
            failed += r.attempted
        else:
            failed += r.failed
    return failed, problems


def end_to_end(workload, rounds: list) -> list:
    """(name, value, unit, how it was taken) for every end-to-end metric; times are scaled."""
    timed = [t for t in (r.trial_s(scaled=True) for r in rounds) if t]
    setups = [s for r in rounds for s in r.setup_s(scaled=True)]
    pct = tail_percentile(workload.trials_per_round)
    per_round = f"{len(timed)} rounds of {workload.trials_per_round} trials"
    return [
        ("cli_wall_s", _median([r.cli_wall_s(scaled=True) for r in rounds]), "s",
         f"median of {len(rounds)} CLI runs at --jobs {workload.jobs}"),
        ("trials_per_s", _median([len(t) / sum(t) for t in timed]), "1/s", f"median over {per_round}"),
        ("trial_p50_ms", 1e3 * _median([statistics.median(t) for t in timed]), "ms",
         f"median over {per_round} of the round's p50"),
        ("trial_tail_ms", 1e3 * _median([float(np.percentile(t, pct)) for t in timed]), "ms",
         f"median over {per_round} of the round's p{pct:g}"),
        ("setup_s", _median(setups), "s", f"median of {len(setups)} set-ups"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "benchmark process; largest pool worker "
         f"{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0:.1f} MB"),
    ]


# per-layer metric -> (span names whose per-call median it reports, scale, unit)
PER_CALL = {
    "core.synchronous_step_ms": (("core.synchronous_step",), 1e3, "ms"),
    "core.build_memory_s": (("core.build_memory",), 1.0, "s"),
    "core.energy_ms": (("core.energy",), 1e3, "ms"),
    "noise.patterns_s": (("noise.random_qnary_patterns", "noise.correlated_binary_patterns"), 1.0, "s"),
    "noise.apply_us": (("noise.apply_qnary_noise", "noise.apply_binary_noise"), 1e6, "us"),
    "dpnn.map_us": (("dpnn.map_binary",), 1e6, "us"),
    "dpnn.unmap_us": (("dpnn.unmap_binary",), 1e6, "us"),
    "dpnn.build_s": (("dpnn.dpnn_build",), 1.0, "s"),
    "dpnn.k_critical_us": (("dpnn.k_critical",), 1e6, "us"),
    "identifier.identify_us": (("identifier.identify",), 1e6, "us"),
    "identifier.build_s": (("identifier.build_identifier",), 1.0, "s"),
    "theory.call_us": (("theory.perr_pnn2", "theory.perr_pnn3"), 1e6, "us"),
}
SELF_LAYERS = ("core", "noise", "dpnn", "identifier")


def per_layer(workload, rounds: list, traced: list, passes: int, tracer: Tracer) -> list:
    """(name, value, unit, how) per layer metric, unscaled; layers a workload never calls read 0."""
    retrievals = [r for t in traced for r in t.retrievals]
    field_evals = [f for t in traced for f in t.field_evals]
    visits = sum(n * sweeps for n, sweeps, _, _, _ in retrievals)
    changed = sum(c for _, _, c, _, _ in retrievals)
    retrieve_s = sum(tracer.durations("core.asynchronous_retrieve"))
    traced_trials = [s for t in traced for s in t.trial_s]
    untraced_trials = [s for r in rounds for s in r.trial_s()]
    summary = tracer.summary("trial")
    cli_walls = [r.cli_wall_s() for r in rounds]
    # with --jobs J the CLI's trials could at best run J at a time
    ideal_cli_s = _median([statistics.fmean(r.setup_s()) for r in rounds]) + _median(
        [sum(r.trial_s()) for r in rounds]
    ) / workload.jobs

    rows = [
        ("core.visits", visits / passes, "count", "exact: sum of sweeps_used * N per replay"),
        ("core.visit_us", 1e6 * retrieve_s / visits if visits else 0.0, "us",
         "asynchronous_retrieve busy time / visits"),
        ("core.bytes_per_visit",
         sum(n * s * b for n, s, _, _, b in retrievals) / visits if visits else 0.0, "B",
         "computed from dtypes and strides of the stored arrays"),
        ("core.sweeps_mean", statistics.fmean(r[1] for r in retrievals) if retrievals else 0.0, "count",
         f"exact: over {len(retrievals) // passes} retrievals per replay"),
        ("core.nonconverged_ratio",
         sum(not r[3] for r in retrievals) / len(retrievals) if retrievals else 0.0, "ratio",
         "exact: retrievals that hit max_sweeps / retrievals"),
        ("core.changed_ratio", changed / visits if visits else 0.0, "ratio",
         "exact: updates_changed / visits"),
    ]
    for name, (spans, scale, unit) in PER_CALL.items():
        durations = [d for s in spans for d in tracer.durations(s)]
        rows.append((name, scale * _median(durations), unit, f"median of {len(durations)} calls"))
    rows += [
        ("identifier.field_evals", statistics.fmean(field_evals) if field_evals else 0.0, "count",
         "exact: enumerated field evaluations per query"),
        ("cli.payload_mb", sum(c.payload_bytes for c in rounds[0].cli_runs) / 1e6, "MB",
         "exact, computed: bytes pickled into the process pool per CLI run"),
        ("cli.overhead_s", _median(cli_walls) - ideal_cli_s, "s",
         f"median CLI wall ({len(cli_walls)} rounds) - replay set-up - replay trial time / jobs {workload.jobs}"),
    ]
    for layer in SELF_LAYERS:
        rows.append((f"{layer}.self_ms", 1e3 * summary["self_s"].get(layer, 0.0) / max(1, len(traced_trials)),
                     "ms", "self time per traced trial"))
    traced_rate = len(traced_trials) / sum(traced_trials) if traced_trials else 0.0
    untraced_rate = len(untraced_trials) / sum(untraced_trials) if untraced_trials else 0.0
    rows += [
        ("trace.uncovered_share", summary["uncovered_s"] / summary["root_s"] if summary["root_s"] else 0.0,
         "ratio", "trial time no library span covers"),
        ("trace.overhead_ratio", traced_rate / untraced_rate if untraced_rate else 0.0, "ratio",
         f"traced {traced_rate:.4g} trials/s / untraced {untraced_rate:.4g} trials/s"),
    ]
    return rows


def run(workload_name: str, seed: int, seconds: float, trace: int) -> int:
    src = ROOT / "src" / "pnn"
    if Path(pnn.__file__).resolve().parent != src.resolve():
        print(f"error: imported pnn from {pnn.__file__}, not from {src}", file=sys.stderr)
        return 2
    if workload_name not in WORKLOADS:
        print(f"error: unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[workload_name]
    OUT_DIR.mkdir(exist_ok=True)

    meta = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(ROOT), "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "jobs": workload.jobs, "machine": platform.machine(),
    }
    print("meta " + json.dumps(meta))
    print(f"why: {workload.why}")
    for command in workload.commands:
        print("command: pnn " + " ".join(command.argv(seed)))

    traced = []
    probe = SpeedProbe(workload.speed_probe)
    if trace == 0:
        rounds = repeat(lambda: play_round(workload, seed, NO_TRACE, probe), seconds, MIN_ROUNDS)
    else:
        tracer = Tracer()
        rounds = repeat(lambda: play_round(workload, seed, tracer, probe), seconds / 2, 1)

        def traced_pass():
            with tracer.span("pass"):
                return [
                    replay(command, seed, cli, tracer, checks=True)
                    for command, cli in zip(workload.commands, rounds[-1].cli_runs)
                ]

        traced = [r for batch in repeat(traced_pass, seconds / 2, 1) for r in batch]
    attempted = sum(r.attempted for r in rounds) + sum(t.attempted for t in traced)
    failed, problems = failed_trials(rounds, traced)
    for i, sha in enumerate(rounds[0].sha256):
        print(f"csv sha256 [{i}]: {sha}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")
    print(f"rounds: {len(rounds)}  attempted: {attempted}  failed: {failed}  "
          f"failed_ratio: {failed / attempted:.6g} (failed / attempted trials)")

    if trace == 0:
        rows = end_to_end(workload, rounds)
        slowdowns = [s for r in rounds for s in r.trial_slowdown + r.cli_slowdown]
        print(f"machine slowdown ({workload.speed_probe} probe): median {_median(slowdowns):.4f}, "
              f"min {min(slowdowns):.4f}, max {max(slowdowns):.4f}; unscaled: cli_wall_s "
              f"{_median([r.cli_wall_s() for r in rounds]):.6g}, trials_per_s "
              f"{_median([len(t) / sum(t) for t in (r.trial_s() for r in rounds)]):.6g}")
    else:
        passes = len(traced) // len(workload.commands)
        rows = per_layer(workload, rounds, traced, passes, tracer)
        retrievals = [r for t in traced[: len(workload.commands)] for r in t.retrievals]
        histogram = sorted(Counter(r[1] for r in retrievals).items())
        print(f"traced replays: {passes}")
        print("sweeps_used histogram per replay (exact): "
              + (", ".join(f"{k}:{v}" for k, v in histogram) or "no retrievals"))
        tracer.dump(OUT_DIR / f"spans-{workload.name}-{seed}.json")
    for name, value, unit, how in rows:
        print(f"{name:28s} {value:14.6g} {unit:6s} {how}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0
