"""Seeded Monte Carlo experiment harness with CSV output.

Four subcommands:

* ``sweep``          -- retrieval error vs theory while sweeping q, M, a or b
* ``dpnn-bench``     -- decorrelating pipeline vs raw Hopfield on a
                        correlated binary ensemble
* ``identify-bench`` -- pattern-number identification accuracy and cost
* ``theory-table``   -- closed-form bounds/capacities over a parameter grid

Each subcommand declares its options once, in an option table; its argparse
subparser and the keys its config file may contain are both built from
that table.

Every CSV starts with the same column prefix

    experiment,N,q,M,a,b,k,trials,seed,coord_err,pattern_err,avg_sweeps,
    theory_perr,vacuous_flag

followed by command-specific columns (documented per command below).  Each
command returns its rows as ``{column: value}``; a column a row does not name
is left empty.  Output bytes are a pure function of the configuration and
seed: trials draw from counter-based streams keyed by trial index and run in
this process.  Each command makes its trials as a stream of per-trial records
and sums them in trial order; ``sweep`` and ``dpnn-bench`` relax them in
batches of at most 128, whose size cannot change the result, and
``identify-bench`` runs them one at a time.  ``--jobs`` is accepted and
checked, but runs nothing in parallel.  A trial
counts as a pattern error unless the final state matches the target exactly;
for signed networks an exact global sign flip is still an error but is also
reported in ``sign_flip``.

Exit codes: 0 success, 1 output pipe closed by its reader, 2 configuration error or out of
memory, 3 infeasible parameters.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import sys
import time
from collections import Counter
from typing import Callable, Iterable, NamedTuple, Sequence, get_args, get_origin

import numpy as np

from .core import (
    Memory, NetworkKind, Pattern, _lockstep, _whole, retrieve_batch,
)
from .dpnn import (
    MappingParams, capacity_exponent, dpnn_build, dpnn_capacity, k_critical, map_binary,
    unmap_binary,
)
from .errors import NoFeasibleK, PnnError, UnknownPattern
from .identifier import IdentifierNet, OpCounter, identify
from .noise import (
    NoiseSpec, _drawn_q, _qnary_arrays, apply_binary_noise, apply_qnary_noise,
    correlated_binary_patterns,
)
from .rng import make_rng
from .theory import capacity_pnn2, capacity_pnn3, perr_pnn2, perr_pnn3

PREFIX_COLUMNS = [
    "experiment", "N", "q", "M", "a", "b", "k", "trials", "seed",
    "coord_err", "pattern_err", "avg_sweeps", "theory_perr", "vacuous_flag",
]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# ----------------------------------------------------------------------
# option tables and their resolution

REQUIRED = object()  # default of an option that must be given


class Option(NamedTuple):
    """One row of a subcommand's option table.

    ``name`` is the config-file key; the flag is ``--`` plus the name with
    '_' written as '-'.  ``type`` is int, float or str, or list[int] /
    list[float] for a comma-separated list.
    """

    name: str
    type: object
    default: object
    help: str


_SEED = Option("seed", int, 0, "experiment seed (default 0)")
_OUT = Option("out", str, None, "CSV path (default stdout)")
_TRIALS = Option("trials", int, REQUIRED, "Monte Carlo trials per point")
_JOBS = Option("jobs", int, 1, "checked to be >= 1; every trial runs in this process (default 1)")
_MAX_SWEEPS = Option("max_sweeps", int, 20, "retrieval sweep cap (default 20)")


def _read_config_file(path: str, options: Sequence[Option]) -> dict:
    """Flat ``key=value`` lines; '#' starts a comment, blanks are ignored."""
    known = {opt.name for opt in options}
    settings = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                settings[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return settings


def _parse_list(text: str, caster, what: str) -> list:
    if text.strip() == "":
        return []
    try:
        return [caster(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}: {exc}") from exc


def _cast(opt: Option, value, from_file: bool):
    """A given value in its row's type; argparse has already cast int/float flags."""
    if get_origin(opt.type) is list:
        return _parse_list(value, get_args(opt.type)[0], opt.name)
    if not from_file:
        return value
    try:
        return opt.type(value)
    except ValueError as exc:
        raise ConfigError(f"config key {opt.name}={value!r}: {exc}") from exc


def _resolve(options: Sequence[Option], args: argparse.Namespace, config: dict) -> dict:
    """Every option's value: flag beats config file beats default."""
    values = {}
    for opt in options:
        value = getattr(args, opt.name)
        from_file = value is None and opt.name in config
        if from_file:
            value = config[opt.name]
        if value is not None:
            values[opt.name] = _cast(opt, value, from_file)
        elif opt.default is REQUIRED:
            raise ConfigError(f"--{opt.name} is required")
        else:
            values[opt.name] = opt.default
    return values


def _positive(value: int, what: str) -> int:
    if value < 1:
        raise ConfigError(f"{what} must be >= 1, got {value}")
    return value


def _pattern_count(m: int | None, load: float | None, n: int) -> int:
    """M from ``--M`` or from ``--load`` times N; exactly one must be given."""
    if m is not None and load is not None:
        raise ConfigError("give either --M or --load, not both")
    if load is not None:
        if not (load > 0 and math.isfinite(load)):
            raise ConfigError(f"--load must be a positive finite number, got {load}")
        m = int(round(load * n))
    if m is None:
        raise ConfigError("pattern count required: --M or --load")
    return _positive(m, "M")


# ----------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".10g")
    return str(x)


def _write_csv(fh, header: Sequence[str], rows: list[dict]) -> None:
    """The header, then each row's cells in header order.  A row that names a column the header
    lacks is a fault of the command that made it, so it raises KeyError and is not exit 2."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        unknown = row.keys() - set(header)
        if unknown:
            raise KeyError(f"columns not in the header: {sorted(unknown)}")
        writer.writerow([_fmt(row.get(column)) for column in header])


# ----------------------------------------------------------------------
# trial runner

# Most trials one batch holds, and so one lockstep retrieval relaxes at once.
# It bounds the (B, M) float64 overlaps of a batch, doubled in the first
# sweep by the synchronous step's rows (800 KB at B=128, M=400), and the
# (k, M) rows of the moved states' overlap update.  128 was measured on the
# bincount kernel that preceded the matrix products (README q sweep, 200
# trials: it beat 32, 64 and one batch of 200); on the product kernel one
# batch of 200 beat 128 + 72 in 6 of 8 runs, so it is due to be sized by
# work instead.
_BATCH_TRIALS = 128


def _batches(trials: int):
    """The contiguous ranges of at most ``_BATCH_TRIALS`` trial indices that cover
    0..trials-1, in order, each made only when its turn comes, so a huge ``trials``
    holds no list of them."""
    return (range(lo, min(lo + _BATCH_TRIALS, trials)) for lo in range(0, trials, _BATCH_TRIALS))


def _column_sums(records: Iterable[dict]) -> Counter:
    """The sums of records that share their keys, added in record order.  Every column is an
    integer tally, so the sums are exact and do not depend on how the trials were batched."""
    sums = Counter()
    for record in records:
        sums.update(record)
    return sums


def _cells(sums: dict, trials: int, per_coord: int) -> dict:
    """Each sum as its cell: a mean per trial, and a ``*coord_err`` mean per coordinate too."""
    return {
        column: total / trials / per_coord if column.endswith("coord_err") else total / trials
        for column, total in sums.items()
    }


_GEN_STREAM_STRIDE = 1 << 32  # per-sweep-point stream block; trial t uses base + 1 + t


def _or_empty(fn, *args):
    """fn(*args), or an empty cell where the formula is undefined or overflows float64."""
    try:
        return fn(*args)
    except (ValueError, OverflowError, PnnError):
        return None


def _theory_bound(kind: NetworkKind, n, m, q, a, b, columns=("theory_perr", "vacuous_flag")):
    """The cells of the one-step bound and its vacuous flag, none when the bound is undefined or
    beyond float64."""
    if kind is NetworkKind.PNN2:
        bound = _or_empty(perr_pnn2, n, m, q, a, b)
    else:
        bound = _or_empty(perr_pnn3, n, m, q, b)
    return {} if bound is None else dict(zip(columns, (bound.value, int(bound.vacuous))))


# ----------------------------------------------------------------------
# sweep

SWEEP_OPTIONS = (
    _SEED, _OUT, _TRIALS, _JOBS,
    Option("sweep", str, REQUIRED, "variable to sweep: q, M, a or b"),
    Option("values", str, "", "comma-separated sweep values"),
    Option("N", int, REQUIRED, "neurons"),
    Option("q", int, 1, "levels per neuron (default 1)"),
    Option("M", int, None, "stored patterns"),
    Option("load", float, None, "patterns as a multiple of N (alternative to --M)"),
    Option("a", float, 0.0, "sign-flip probability (default 0)"),
    Option("b", float, 0.0, "level-change probability (default 0)"),
    Option("kind", str, "pnn2", "pnn2 (signed, default) or pnn3 (unsigned)"),
    _MAX_SWEEPS,
)

SWEEP_EXTRAS = ["sync_coord_err", "sync_pattern_err", "sign_flip"]


def _coord_errors(result: Pattern, target: Pattern) -> int:
    return np.count_nonzero((result.signs != target.signs) | (result.levels != target.levels))


def _errors(prefix: str, errs: int) -> dict:
    """A trial's ``{prefix}coord_err`` and ``{prefix}pattern_err`` tallies from its count of
    wrong coordinates."""
    return {prefix + "coord_err": int(errs), prefix + "pattern_err": int(errs > 0)}


def _sweep_records(memory: Memory, spec: NoiseSpec, seed, stream_base, trials, max_sweeps):
    """Each trial's record, the trials of one batch relaxed in one lockstep retrieval."""
    signed = memory.kind is NetworkKind.PNN2
    for batch in _batches(trials):
        targets = [memory._pattern(t % memory.n_patterns) for t in batch]
        inputs = [
            apply_qnary_noise(target, memory.q, spec, make_rng(seed, stream_base + 1 + t))
            for t, target in zip(batch, targets)
        ]
        results, syncs = _lockstep(memory, inputs, max_sweeps, step_rows=True)
        for target, sync, retrieval in zip(targets, syncs, results):
            final = retrieval.final_state
            yield {
                **_errors("sync_", _coord_errors(sync, target)),
                **_errors("", _coord_errors(final, target)),
                "sign_flip": int(signed and final == target.sign_flipped()),
                "avg_sweeps": retrieval.sweeps_used,
            }


def _point_noise(kind: NetworkKind, sweep: str, *, q, M, a, b) -> NoiseSpec:
    """A sweep point's noise, once its a, b, q and a swept M are checked (the draw checks N)."""
    spec = NoiseSpec(a, b)
    if kind is NetworkKind.PNN3 and a > 0:
        raise ConfigError("PNN3 states carry no sign; sign noise a must be 0")
    _drawn_q(kind, q)
    if q == 1 and b > 0:
        raise ConfigError("q=1 has no level noise; set b=0")
    if sweep == "M":
        _positive(M, "M")
    return spec


def cmd_sweep(*, seed, trials, sweep, values, N, q, M, load, a, b, kind, max_sweeps) -> list:
    kind = NetworkKind(kind.lower())
    points = _parse_list(values, int if sweep in ("q", "M") else float, "values")
    if sweep == "M" and (M is not None or load is not None):
        raise ConfigError("--sweep M takes the pattern counts from --values; drop --M and --load")
    # with M swept, every point sets its own pattern count
    base = {"q": q, "M": 1 if sweep == "M" else _pattern_count(M, load, N), "a": a, "b": b}
    if sweep not in base:
        raise ConfigError(f"sweep variable must be one of q, M, b, a; got {sweep!r}")
    if not points:
        raise ConfigError("sweep needs a non-empty --values list")
    _positive(trials, "trials")
    _whole("max_sweeps", max_sweeps)

    settings = [{**base, sweep: value} for value in points]
    specs = [_point_noise(kind, sweep, **setting) for setting in settings]  # before any draw

    rows = []
    for point, (setting, spec) in enumerate(zip(settings, specs)):
        q, m, a, b = setting["q"], setting["M"], setting["a"], setting["b"]
        stream_base = point * _GEN_STREAM_STRIDE
        memory = Memory(kind, q, *_qnary_arrays(m, N, q, kind, make_rng(seed, stream_base)))
        records = _sweep_records(memory, spec, seed, stream_base, trials, max_sweeps)
        rows.append(dict(
            experiment=f"sweep-{sweep}", N=N, q=q, M=m, a=a, b=b, trials=trials, seed=seed,
            **_theory_bound(kind, N, m, q, a, b), **_cells(_column_sums(records), trials, N),
        ))
    return rows


# ----------------------------------------------------------------------
# dpnn-bench

DPNN_OPTIONS = (
    _SEED, _OUT, _TRIALS, _JOBS,
    Option("N", int, REQUIRED, "binary pattern length"),
    Option("k", int, REQUIRED, "mapping parameter (k+1 must divide N)"),
    Option("M", int, None, "stored patterns"),
    Option("load", float, None, "patterns as a multiple of N"),
    Option("a", float, 0.0, "binary noise level (default 0)"),
    Option("overlap", float, 0.0, "template overlap fraction c (default 0)"),
    _MAX_SWEEPS,
)

DPNN_EXTRAS = [
    "hopfield_coord_err", "hopfield_pattern_err", "k_critical", "capacity", "note",
]


def _dpnn_records(pipeline: Memory, hopfield: Memory, ensemble, k, a, seed, trials, max_sweeps):
    """Each trial's record, the trials of one batch relaxed in one ``retrieve_batch`` call on
    the k-mapped pipeline and one on the raw Hopfield network."""
    for batch in _batches(trials):
        targets = [ensemble[t % len(ensemble)] for t in batch]
        inputs = [apply_binary_noise(y, a, make_rng(seed, 1 + t)) for t, y in zip(batch, targets)]
        mapped = retrieve_batch(pipeline, [map_binary(y, k) for y in inputs], max_sweeps)
        raw = retrieve_batch(hopfield, [map_binary(y, 0) for y in inputs], max_sweeps)
        for target, retrieval, hop_retrieval in zip(targets, mapped, raw):
            errs = np.count_nonzero(unmap_binary(retrieval.final_state, k) != target)
            hop_errs = np.count_nonzero(unmap_binary(hop_retrieval.final_state, 0) != target)
            yield {
                **_errors("", errs), **_errors("hopfield_", hop_errs),
                "avg_sweeps": retrieval.sweeps_used,
            }


def cmd_dpnn_bench(*, seed, trials, N, k, M, load, a, overlap, max_sweeps) -> list:
    m = _pattern_count(M, load, N)
    _positive(trials, "trials")
    _whole("max_sweeps", max_sweeps)
    params = MappingParams.for_length(N, k)
    k_c = k_critical(N, a)  # checks N >= 2 and a; NoFeasibleK propagates (exit 3)
    ensemble = correlated_binary_patterns(m, N, overlap, make_rng(seed, 0))
    note = ""
    if k > k_c:
        note = "k>k_critical"
        print(
            f"warning: k={k} exceeds k_critical={k_c}; retrieval is expected to collapse",
            file=sys.stderr,
        )

    pipeline, hopfield = dpnn_build(ensemble, k), dpnn_build(ensemble, 0)
    sums = _column_sums(_dpnn_records(pipeline, hopfield, ensemble, k, a, seed, trials, max_sweeps))

    image_level_noise = 1.0 - (1.0 - a) ** k
    return [dict(
        experiment="dpnn-bench", N=N, q=params.q, M=m, a=a, k=k, trials=trials, seed=seed,
        **_theory_bound(NetworkKind.PNN2, params.n, m, params.q, a, image_level_noise),
        **_cells(sums, trials, N),
        k_critical=k_c, capacity=dpnn_capacity(N, a, k), note=note,
    )]


# ----------------------------------------------------------------------
# identify-bench

IDENTIFY_OPTIONS = (
    _SEED, _OUT, _TRIALS, _JOBS,
    Option("N", int, REQUIRED, "true coordinates"),
    Option("q", int, REQUIRED, "levels per coordinate"),
    Option("M", int, None, "stored patterns"),
    Option("load", float, None, "patterns as a multiple of N"),
    Option("b", float, 0.0, "level-change probability (default 0)"),
)

IDENTIFY_EXTRAS = ["n_digits", "field_evals_per_query"]


def _identify_records(net: IdentifierNet, spec: NoiseSpec, seed, trials):
    """Each trial's record, the trials identified one at a time."""
    q, m_count = net.memory.q, net.memory.n_patterns
    for t in range(trials):
        rng = make_rng(seed, 1 + t)
        idx = t % m_count
        noisy = apply_qnary_noise(net.memory._pattern(idx), q, spec, rng)
        seeds = rng.integers(1, q + 1, size=net.n_digits)
        counter = OpCounter()
        start = time.perf_counter_ns()
        try:
            got = identify(net, noisy, enumerated_init=seeds, counter=counter)
        except UnknownPattern as exc:
            got = exc.decoded_index
        elapsed_ns = time.perf_counter_ns() - start
        # got and idx have n_digits base-q digits, so a wrong got, an index >= M included,
        # differs from idx in at least one of them
        digit_errs = sum((idx // q**j) % q != (got // q**j) % q for j in range(net.n_digits))
        yield {
            **_errors("", digit_errs), "field_evals_per_query": counter.enumerated_field_evals,
            "elapsed_ns": elapsed_ns,  # not a column: the wall time goes to stderr
        }


def cmd_identify_bench(*, seed, trials, N, q, M, load, b) -> list:
    m = _pattern_count(M, load, N)
    _positive(trials, "trials")
    # q and b, checked before the patterns are drawn (the draw checks M, N)
    _drawn_q(NetworkKind.PNN3, q)
    spec = NoiseSpec(0.0, b)

    signs, levels = _qnary_arrays(m, N, q, NetworkKind.PNN3, make_rng(seed, 0))
    net = IdentifierNet(Memory(NetworkKind.PNN3, q, signs, levels))
    sums = _column_sums(_identify_records(net, spec, seed, trials))
    elapsed_ns = sums.pop("elapsed_ns")

    # wall time varies run to run; keep it out of the deterministic CSV
    print(
        f"identify-bench: mean {elapsed_ns / 1e3 / trials:.1f} us/query over {trials} trials",
        file=sys.stderr,
    )
    return [dict(
        experiment="identify-bench", N=N, q=q, M=m, a=0.0, b=b, trials=trials, seed=seed,
        avg_sweeps=1.0, **_theory_bound(NetworkKind.PNN3, N, m, q, 0.0, b),
        **_cells(sums, trials, net.n_digits), n_digits=net.n_digits,
    )]


# ----------------------------------------------------------------------
# theory-table

THEORY_OPTIONS = (
    _SEED, _OUT,
    Option("N", list[int], (1000,), "comma-separated sizes (default 1000)"),
    Option("q", list[int], (1,), "comma-separated level counts (default 1)"),
    Option("M", list[int], (100,), "comma-separated pattern counts (default 100)"),
    Option("a", list[float], (0.0,), "comma-separated sign-noise rates (default 0)"),
    Option("b", list[float], (0.0,), "comma-separated level-noise rates (default 0)"),
    Option("k", list[int], (1,), "comma-separated mapping parameters (default 1)"),
)

THEORY_EXTRAS = [
    "capacity_pnn2", "perr_pnn3", "perr_pnn3_vacuous", "capacity_pnn3",
    "dpnn_capacity", "dpnn_exponent", "k_critical",
]


def cmd_theory_table(*, seed, **grids) -> list:
    rows = []
    # grids arrive in table order: N, q, M, a, b, k
    for n, q, m, a, b, k in itertools.product(*grids.values()):
        rows.append(dict(
            experiment="theory", N=n, q=q, M=m, a=a, b=b, k=k, seed=seed,
            **_theory_bound(NetworkKind.PNN2, n, m, q, a, b),
            **_theory_bound(NetworkKind.PNN3, n, m, q, 0.0, b, ("perr_pnn3", "perr_pnn3_vacuous")),
            capacity_pnn2=_or_empty(capacity_pnn2, n, q, a, b),
            capacity_pnn3=_or_empty(capacity_pnn3, n, q, b),
            dpnn_capacity=_or_empty(dpnn_capacity, n, a, k),
            dpnn_exponent=_or_empty(capacity_exponent, n, a),
            k_critical=_or_empty(k_critical, n, a),
        ))
    return rows


# ----------------------------------------------------------------------
# argument parsing and dispatch

class Command(NamedTuple):
    help: str
    options: tuple
    run: Callable[..., list[dict]]
    extras: list


COMMANDS = {
    "sweep": Command(
        "retrieval error vs theory over one swept variable",
        SWEEP_OPTIONS, cmd_sweep, SWEEP_EXTRAS,
    ),
    "dpnn-bench": Command(
        "decorrelating pipeline vs raw Hopfield", DPNN_OPTIONS, cmd_dpnn_bench, DPNN_EXTRAS,
    ),
    "identify-bench": Command(
        "pattern-number identification benchmark",
        IDENTIFY_OPTIONS, cmd_identify_bench, IDENTIFY_EXTRAS,
    ),
    "theory-table": Command(
        "closed-form bounds over a parameter grid",
        THEORY_OPTIONS, cmd_theory_table, THEORY_EXTRAS,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnn",
        description="Monte Carlo experiments for vector-neuron associative memories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        for opt in command.options:
            p.add_argument(
                "--" + opt.name.replace("_", "-"),
                dest=opt.name,
                type=opt.type if opt.type in (int, float) else None,
                help=opt.help,
            )
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    command = COMMANDS[args.command]
    config = _read_config_file(args.config, command.options) if args.config else {}
    values = _resolve(command.options, args, config)
    out = values.pop("out")
    _positive(values.pop("jobs", 1), "jobs")  # accepted and checked; trials run in this process
    if out is None or out == "-":
        sink = contextlib.nullcontext(sys.stdout)
    else:  # opened before any trial runs, so an unwritable path fails at once
        try:
            sink = open(out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out}: {exc}") from exc
    with sink as fh:
        _write_csv(fh, PREFIX_COLUMNS + command.extras, command.run(**values))
    return 0


# the options that set how much memory a command needs, named when it runs out
_SIZES = ("N", "M", "load", "q", "trials")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except NoFeasibleK as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, PnnError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        sizes = [f"--{o.name}" for o in COMMANDS[args.command].options if o.name in _SIZES]
        sizes = f"{', '.join(sizes[:-1])} or {sizes[-1]}"
        print(f"error: out of memory; lower {sizes}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the output: send what stdout still buffers to devnull, so that the
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
