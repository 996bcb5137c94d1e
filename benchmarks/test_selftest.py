"""Fast self-test of the benchmark: ``python3 -m pytest -q benchmarks``.

At tiny sizes, for every kind of command the workloads use, the replay
reproduces the CLI's CSV (untraced, and traced with the invariant checks),
and a planted tally mismatch fails every trial of its row.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import tail_percentile  # noqa: E402
from tracing import NO_TRACE, Tracer  # noqa: E402
from workloads import JOBS, PREFIX_COLUMNS, WORKLOADS, DpnnBench, IdentifyBench, Sweep, replay, run_cli  # noqa: E402

SEED = 7
TINY = {
    "sweep-pnn2": Sweep("pnn2", 30, 20, 0.3, (2, 4), trials=4),
    "sweep-pnn3": Sweep("pnn3", 30, 20, 0.3, (4,), trials=4),
    "sweep-jobs": Sweep("pnn2", 30, 20, 0.3, (4,), trials=4, jobs=JOBS),
    "dpnn-bench": DpnnBench(200, 1, 10, 0.1, 0.3, trials=4),
    "identify-bench": IdentifyBench(40, 8, 100, 0.3, trials=20),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_replay_reproduces_cli_csv(name, tmp_path):
    command = TINY[name]
    cli = run_cli(command, SEED, tmp_path / "out.csv")
    assert cli.problems == []
    assert len(cli.rows) == len(command.rows())
    for tr, checks in ((NO_TRACE, False), (Tracer(), True)):
        result = replay(command, SEED, cli, tr, checks=checks)
        assert result.problems == []
        assert result.failed == 0
        assert result.attempted == command.trials * len(command.rows())


@pytest.mark.parametrize("name", sorted(TINY))
def test_planted_tally_mismatch_fails_its_row(name, tmp_path):
    command = TINY[name]
    cli = run_cli(command, SEED, tmp_path / "out.csv")
    column = PREFIX_COLUMNS.index("pattern_err")
    cli.rows[0][column] = repr(float(cli.rows[0][column]) + 1.0)
    result = replay(command, SEED, cli)
    assert result.failed == command.trials
    assert any("pattern_err" in problem for problem in result.problems)


def test_workloads_never_ask_for_more_workers_than_cores():
    for workload in WORKLOADS.values():
        assert 1 <= workload.jobs <= (os.cpu_count() or 1)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(24) == 50.0
    assert tail_percentile(450) == 95.0
    assert tail_percentile(6000) == 99.0


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "identify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
