"""Experiment harness: CSV schema, determinism, exit codes."""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pnn import (
    NetworkKind,
    NoiseSpec,
    apply_binary_noise,
    apply_qnary_noise,
    asynchronous_retrieve,
    build_memory,
    capacity_pnn2,
    capacity_pnn3,
    correlated_binary_patterns,
    dpnn_build,
    make_rng,
    map_binary,
    perr_pnn2,
    perr_pnn3,
    random_qnary_patterns,
    retrieve_batch,
    synchronous_step,
    unmap_binary,
)
from oracles import ScalarHopfield
from pnn import cli
from pnn.cli import _BATCH_TRIALS, COMMANDS, PREFIX_COLUMNS, _fmt, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# one small run per subcommand, every key given as its flag name
CONFIG_SETTINGS = {
    "sweep": {
        "N": "40", "q": "2", "M": "30", "b": "0.3", "trials": "10", "seed": "4",
        "sweep": "b", "values": "0.1,0.3", "max_sweeps": "15", "kind": "pnn2",
    },
    "dpnn-bench": {
        "N": "100", "k": "1", "load": "0.15", "a": "0.1", "overlap": "0.5",
        "trials": "12", "seed": "6", "max_sweeps": "10",
    },
    "identify-bench": {
        "N": "60", "q": "8", "M": "100", "b": "0.3", "trials": "20", "seed": "8",
    },
    "theory-table": {
        "N": "500,1000", "q": "1,8", "M": "50", "a": "0,0.1", "b": "0,0.25",
        "k": "1,2", "seed": "3",
    },
}


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


class TestSweep:
    def test_error_drops_with_q(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "q", "--values", "2,8",
            "--N", "60", "--M", "90", "--b", "0.5", "--trials", "40", "--seed", "5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[: len(PREFIX_COLUMNS)] == PREFIX_COLUMNS
        assert len(rows) == 2
        assert float(rows[0]["pattern_err"]) > float(rows[1]["pattern_err"])
        assert rows[0]["experiment"] == "sweep-q"

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sweep", "q", "--values", "2",
            "--N", "20", "--M", "5", "--trials", "0",
        )
        assert code == 2
        assert "trials" in err

    def test_missing_values_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--sweep", "q", "--values", "",
            "--N", "20", "--M", "5", "--trials", "5",
        )
        assert code == 2

    def test_pnn3_with_sign_noise_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sweep", "b", "--values", "0.1", "--kind", "pnn3",
            "--N", "20", "--q", "4", "--M", "5", "--a", "0.2", "--trials", "5",
        )
        assert code == 2
        assert "sign" in err

    def test_load_flag_sets_pattern_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "b", "--values", "0.2",
            "--N", "40", "--load", "0.5", "--q", "4", "--trials", "5", "--seed", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["M"] == "20"

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        args = [
            "sweep", "--sweep", "M", "--values", "10,30", "--N", "40", "--q", "2",
            "--b", "0.3", "--trials", "20", "--seed", "9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_trials_identical_output(self, tmp_path):
        args = [
            "sweep", "--sweep", "q", "--values", "2,4", "--N", "40", "--M", "60",
            "--b", "0.4", "--trials", "24", "--seed", "3",
        ]
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(args + ["--jobs", "3", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("N = 40\nq = 2\nM = 30\ntrials = 0\nsweep = q\nvalues = 2\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--trials", "5")
        assert code == 0


class TestDpnnBench:
    def test_pipeline_beats_hopfield_on_correlated_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "dpnn-bench", "--N", "200", "--k", "1", "--M", "40",
            "--a", "0.05", "--overlap", "0.6", "--trials", "30", "--seed", "2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["pattern_err"]) <= float(row["hopfield_pattern_err"])
        assert row["k_critical"] == "1"

    def test_k_above_critical_warns_and_collapses(self, capsys):
        code, out, err = run_cli(
            capsys, "dpnn-bench", "--N", "200", "--k", "3", "--M", "30",
            "--a", "0.1", "--overlap", "0.5", "--trials", "20", "--seed", "3",
        )
        assert code == 0
        assert "k_critical" in err
        _, rows = parse_csv(out)
        assert rows[0]["note"] == "k>k_critical"
        assert float(rows[0]["pattern_err"]) > 0.5

    def test_k0_matches_raw_hopfield_exactly(self, capsys):
        code, out, _ = run_cli(
            capsys, "dpnn-bench", "--N", "120", "--k", "0", "--M", "12",
            "--a", "0.1", "--overlap", "0.0", "--trials", "25", "--seed", "4",
        )
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["coord_err"] == row["hopfield_coord_err"]
        assert row["pattern_err"] == row["hopfield_pattern_err"]
        assert row["note"] == ""

    def test_indivisible_k_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "dpnn-bench", "--N", "200", "--k", "2", "--M", "10",
            "--trials", "5",
        )
        assert code == 2
        assert "divide" in err

    def test_k_beyond_int64_levels_is_exit_2_naming_k(self, capsys):
        code, _, err = run_cli(
            capsys, "dpnn-bench", "--N", "7100", "--k", "70", "--M", "2", "--trials", "1",
        )
        assert code == 2
        assert "k=70" in err

    def test_infeasible_parameters_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "dpnn-bench", "--N", "80", "--k", "0", "--M", "10",
            "--a", "0.1", "--trials", "5",
        )
        assert code == 3
        assert "infeasible" in err

    def test_parallel_determinism(self, tmp_path):
        args = [
            "dpnn-bench", "--N", "100", "--k", "1", "--M", "15", "--a", "0.1",
            "--overlap", "0.5", "--trials", "16", "--seed", "6",
        ]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(args + ["--jobs", "2", "--out", str(one)]) == 0
        assert main(args + ["--jobs", "1", "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()


def _mean(values):
    return math.fsum(values) / len(values)


def _coord_errors(result, target):
    return int(np.count_nonzero((result.signs != target.signs) | (result.levels != target.levels)))


class TestBatchedTrials:
    """More trials than one batch holds, so the CLI relaxes two lockstep
    batches; every CSV cell the trials produce must equal a recomputation
    that relaxes each trial alone with ``asynchronous_retrieve``, or, for
    the raw Hopfield memory, whose sequential calls are the same walk, with
    the scalar Hopfield oracle."""

    TRIALS = _BATCH_TRIALS + 5
    MAX_SWEEPS = 4

    @pytest.mark.parametrize("kind, q, a", [("pnn2", 3, 0.1), ("pnn3", 4, 0.0)])
    def test_sweep_cells_equal_serial_recomputation(self, capsys, kind, q, a):
        n, m, b, seed = 24, 12, 0.3, 11
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "q", "--values", str(q), "--kind", kind,
            "--N", str(n), "--M", str(m), "--a", str(a), "--b", str(b),
            "--trials", str(self.TRIALS), "--seed", str(seed), "--max-sweeps", str(self.MAX_SWEEPS),
        )
        assert code == 0
        kind = NetworkKind(kind)
        patterns = random_qnary_patterns(m, n, q, kind, make_rng(seed, 0))
        memory = build_memory(patterns, kind, q)
        records = []
        for t in range(self.TRIALS):
            target = patterns[t % m]
            noisy = apply_qnary_noise(target, q, NoiseSpec(a, b), make_rng(seed, 1 + t))
            sync = synchronous_step(memory, noisy)
            result = asynchronous_retrieve(memory, noisy, self.MAX_SWEEPS)
            final = result.final_state
            records.append((
                _coord_errors(final, target), int(final != target), result.sweeps_used,
                _coord_errors(sync, target), int(sync != target),
                int(kind is NetworkKind.PNN2 and final == target.sign_flipped()),
            ))
        coord, pat, sweeps, sync_coord, sync_pat, flips = zip(*records)
        want = {
            "coord_err": _mean(coord) / n, "pattern_err": _mean(pat), "avg_sweeps": _mean(sweeps),
            "sync_coord_err": _mean(sync_coord) / n, "sync_pattern_err": _mean(sync_pat),
            "sign_flip": _mean(flips),
        }
        _, rows = parse_csv(out)
        assert {col: rows[0][col] for col in want} == {col: _fmt(v) for col, v in want.items()}

    def test_dpnn_cells_equal_serial_recomputation(self, capsys):
        n, k, m, a, overlap, seed = 100, 1, 8, 0.1, 0.3, 12
        code, out, _ = run_cli(
            capsys, "dpnn-bench", "--N", str(n), "--k", str(k), "--M", str(m), "--a", str(a),
            "--overlap", str(overlap), "--trials", str(self.TRIALS), "--seed", str(seed),
            "--max-sweeps", str(self.MAX_SWEEPS),
        )
        assert code == 0
        ensemble = correlated_binary_patterns(m, n, overlap, make_rng(seed, 0))
        memory, hopfield = dpnn_build(ensemble, k), ScalarHopfield(ensemble)
        records = []
        for t in range(self.TRIALS):
            target = ensemble[t % m]
            noisy = apply_binary_noise(target, a, make_rng(seed, 1 + t))
            result = asynchronous_retrieve(memory, map_binary(noisy, k), self.MAX_SWEEPS)
            errs = int(np.count_nonzero(unmap_binary(result.final_state, k) != target))
            hop_errs = int(np.count_nonzero(hopfield.retrieve(noisy, self.MAX_SWEEPS)[0] != target))
            records.append((errs, int(errs > 0), result.sweeps_used, hop_errs, int(hop_errs > 0)))
        coord, pat, sweeps, hop_coord, hop_pat = zip(*records)
        want = {
            "coord_err": _mean(coord) / n, "pattern_err": _mean(pat), "avg_sweeps": _mean(sweeps),
            "hopfield_coord_err": _mean(hop_coord) / n, "hopfield_pattern_err": _mean(hop_pat),
        }
        _, rows = parse_csv(out)
        assert {col: rows[0][col] for col in want} == {col: _fmt(v) for col, v in want.items()}

    def test_serial_walk_equals_the_lockstep_at_the_sweep_small_q4_point(self):
        # the inputs of `pnn sweep --sweep q --values 4,... --N 200 --M 400 --b 0.5 --trials 30
        # --seed 1`, which take many sweeps with a few changes each, so the serial walk's
        # run-ahead blocks keep short prefixes; four inputs reach the 20-sweep cap
        n, m, q, seed = 200, 400, 4, 1
        patterns = random_qnary_patterns(m, n, q, NetworkKind.PNN2, make_rng(seed, 0))
        memory = build_memory(patterns, NetworkKind.PNN2, q)
        inputs = [apply_qnary_noise(patterns[t % m], q, NoiseSpec(0.0, 0.5), make_rng(seed, 1 + t))
                  for t in range(30)]
        serial = [asynchronous_retrieve(memory, x, 20) for x in inputs]
        assert sum(not r.converged and r.sweeps_used == 20 for r in serial) == 4
        for got, want in zip(retrieve_batch(memory, inputs, 20), serial, strict=True):
            assert (got.final_state, got.converged, got.sweeps_used, got.updates_changed) == (
                want.final_state, want.converged, want.sweeps_used, want.updates_changed)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--sweep", "q", "--values", "3", "--kind", "pnn2", "--N", "24", "--M", "12",
         "--a", "0.1", "--b", "0.3"],
        ["sweep", "--sweep", "q", "--values", "4", "--kind", "pnn3", "--N", "24", "--M", "12",
         "--b", "0.3"],
        ["dpnn-bench", "--N", "100", "--k", "1", "--M", "8", "--a", "0.1", "--overlap", "0.3"],
        ["identify-bench", "--N", "60", "--q", "8", "--M", "100", "--b", "0.3"],
    ], ids=["sweep-pnn2", "sweep-pnn3", "dpnn-bench", "identify-bench"])
    def test_csv_bytes_do_not_depend_on_the_batch_cap(self, capsys, monkeypatch, argv):
        # a cap of 1 relaxes every trial, and takes its synchronous step, alone
        trials = 23
        argv = argv + ["--trials", str(trials), "--seed", "13", "--jobs", "1"]
        _, want, _ = run_cli(capsys, *argv)
        for cap in (1, 7, trials):
            monkeypatch.setattr("pnn.cli._BATCH_TRIALS", cap)
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == (0, want)


class TestIdentifyBench:
    def test_accuracy_and_op_count(self, capsys):
        code, out, err = run_cli(
            capsys, "identify-bench", "--N", "80", "--q", "16", "--M", "300",
            "--b", "0.2", "--trials", "60", "--seed", "7",
        )
        assert code == 0
        _, rows = parse_csv(out)
        row = rows[0]
        assert row["n_digits"] == "3"
        assert float(row["field_evals_per_query"]) == 3.0
        assert float(row["pattern_err"]) <= 0.05
        assert "us/query" in err  # wall time goes to stderr, not the CSV

    def test_determinism(self, tmp_path):
        args = [
            "identify-bench", "--N", "60", "--q", "8", "--M", "100",
            "--b", "0.3", "--trials", "40", "--seed", "8",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTheoryTable:
    def test_spot_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory-table", "--N", "1000", "--q", "1", "--M", "100",
            "--a", "0", "--b", "0", "--k", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["capacity_pnn2"]) == pytest.approx(72.38241365, rel=1e-8)
        assert rows[0]["vacuous_flag"] == "1"  # M=100 > capacity: bound above 1

    def test_grid_size(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory-table", "--N", "500,1000", "--q", "1,8,64",
            "--M", "50,100", "--b", "0,0.25",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2 * 3 * 2 * 2

    def test_empty_grid_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "theory-table", "--N", "")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("experiment,N,q,M")

    def test_pnn3_columns_blank_for_q1(self, capsys):
        code, out, _ = run_cli(capsys, "theory-table", "--q", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["perr_pnn3"] == "" and rows[0]["capacity_pnn3"] == ""

    def test_each_closed_form_cell_comes_from_its_own_formula(self, capsys):
        """At N = 1 only the capacities (ln N = 0) are undefined; both error bounds are filled."""
        code, out, err = run_cli(capsys, "theory-table", "--N", "1,2", "--q", "4", "--M", "1")
        assert (code, err) == (0, "")
        _, (one, two) = parse_csv(out)
        for row, n in ((one, 1), (two, 2)):
            assert float(row["theory_perr"]) == pytest.approx(perr_pnn2(n, 1, 4).value)
            assert float(row["perr_pnn3"]) == pytest.approx(perr_pnn3(n, 1, 4).value)
            assert row["perr_pnn3_vacuous"] == str(int(perr_pnn3(n, 1, 4).vacuous))
        assert float(one["perr_pnn3"]) == pytest.approx(0.0498, abs=1e-4)
        assert one["capacity_pnn2"] == one["capacity_pnn3"] == ""
        assert float(two["capacity_pnn2"]) == pytest.approx(capacity_pnn2(2, 4))
        assert float(two["capacity_pnn3"]) == pytest.approx(capacity_pnn3(2, 4))

    @pytest.mark.parametrize("b", ["-0.5", "nan"])
    def test_level_noise_outside_0_1_leaves_every_bound_empty(self, capsys, b):
        code, out, err = run_cli(capsys, "theory-table", "--N", "1000", "--q", "4", "--M", "100",
                                 "--b", b)
        assert (code, err) == (0, "")
        _, (row,) = parse_csv(out)
        bounds = ["theory_perr", "vacuous_flag", "capacity_pnn2",
                  "perr_pnn3", "perr_pnn3_vacuous", "capacity_pnn3"]
        assert [row[column] for column in bounds] == [""] * len(bounds)
        assert row["dpnn_capacity"] != ""  # the cells that take no b are still filled

    @pytest.mark.parametrize("args, blank", [
        (["--N", "1000", "--k", "600"], ["dpnn_capacity"]),  # (2 (1 - a))**(2 k)
        (["--q", "1" + "0" * 200], ["theory_perr", "vacuous_flag", "capacity_pnn2"]),  # float(q)
    ], ids=["dpnn-capacity", "huge-q"])
    def test_a_formula_beyond_float64_leaves_its_cell_empty(self, capsys, args, blank):
        code, out, err = run_cli(capsys, "theory-table", *args)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [rows[0][column] for column in blank] == [""] * len(blank)
        assert rows[0]["dpnn_exponent"] != ""  # the other cells are still filled


# the README's four commands at reduced trial counts and the sha256 of the CSV
# each writes; a change that keeps retrieval bit-identical keeps these bytes
README_CSV_SHA256 = [
    pytest.param(
        ["sweep", "--sweep", "q", "--values", "4,8,16", "--N", "200", "--M", "400",
         "--b", "0.5", "--trials", "20", "--seed", "1"],
        "716391ef69ce625d72380d49cc5dcd073f1608e00259bd77929ee9264be057b0", id="sweep"),
    pytest.param(
        ["dpnn-bench", "--N", "800", "--k", "4", "--M", "200", "--a", "0.1",
         "--overlap", "0.3", "--trials", "10", "--seed", "1"],
        "25d4a856b4d45a3bdba466826535d7e4b48fd04fa2ccffd2224a55a57b498fa5", id="dpnn-bench"),
    pytest.param(
        ["identify-bench", "--N", "200", "--q", "32", "--M", "1000", "--b", "0.3",
         "--trials", "100", "--seed", "1"],
        "cec59484cbe80feeff59e2f0e35378887478b38e4185720e883b3b13072f314c", id="identify-bench"),
    pytest.param(
        ["theory-table", "--N", "1000,10000", "--q", "1,16,64", "--M", "100",
         "--a", "0,0.1", "--b", "0,0.5", "--k", "1"],
        "2935b49e1ae6e934f51dd6d9dd613def7b82d41f957e1c551ce99184f6f3fa9d", id="theory-table"),
]
# the same bytes with --jobs 2, for every command that has --jobs: it is accepted and changes
# no byte
README_CSV_SHA256 += [
    pytest.param(p.values[0] + ["--jobs", "2"], p.values[1], id=f"{p.id}-jobs2")
    for p in README_CSV_SHA256 if p.id != "theory-table"
]


# sweeps over other variables than q: M sets each point's own pattern count,
# and a PNN3 sweep over b takes M from --load; then sweeps over b whose
# networks store wide codes or levels, or sum their overlaps in slabs
OTHER_SWEEPS_CSV_SHA256 = [
    pytest.param(
        ["sweep", "--sweep", "M", "--values", "60,120", "--N", "120", "--q", "4", "--b", "0.4",
         "--trials", "24", "--seed", "2", "--jobs", jobs],
        "649e22fdedf4c085aba5cca9e745346cdeca02de2925179051b11b377959f550",
        id=f"sweep-M-jobs{jobs}")
    for jobs in ("1", "2")
] + [
    pytest.param(
        ["sweep", "--sweep", "b", "--values", "0.2,0.5", "--kind", "pnn3", "--N", "120", "--q", "4",
         "--load", "0.75", "--trials", "24", "--seed", "3", "--jobs", jobs],
        "c4debcd545562744728a53bfeece62fba81113dcb5536a8dad7f57ecc8b24ef0",
        id=f"sweep-b-pnn3-jobs{jobs}")
    for jobs in ("1", "2")
] + [
    # a q > 255 network end to end: levels above 255 must not wrap in a narrow type
    pytest.param(
        ["sweep", "--sweep", "b", "--values", "0.3", "--kind", "pnn3", "--q", "300", "--N", "60",
         "--M", "20", "--trials", "4", "--seed", "1"],
        "cdd90f363156ec596be5019835d9e822ecc0fda9ed14c842814b878d8a9363fb", id="sweep-b-pnn3-q300"),
    # a PNN2 network at q = 200 stores uint16 codes while its levels fit uint8
    pytest.param(
        ["sweep", "--sweep", "b", "--values", "0.3", "--kind", "pnn2", "--q", "200", "--N", "60",
         "--M", "20", "--trials", "4", "--seed", "1"],
        "43857414cd2a60702179049d6fa8f64d51b78faeb2c2b90c552158cb0ec00104", id="sweep-b-pnn2-q200"),
    # PNN2 at q = 129 stores uint16 codes while its levels fit uint8; --jobs 2 changes no byte
    pytest.param(
        ["sweep", "--sweep", "b", "--values", "0.3", "--kind", "pnn2", "--q", "129", "--N", "60",
         "--M", "20", "--trials", "6", "--jobs", "2", "--seed", "1"],
        "fae2b375e2ffb42f1f24db79a69de1e88e3bae1f21887c38de56ce5e42094ca2",
        id="sweep-b-pnn2-q129-jobs2"),
] + [
    # a PNN2 network at M = 1000, whose overlaps are summed in int8 slabs of 127 neurons
    pytest.param(
        ["sweep", "--sweep", "b", "--values", "0.3", "--kind", "pnn2", "--q", "16", "--N", "300",
         "--M", "1000", "--trials", "6", "--seed", "1", "--jobs", jobs],
        "dc112bf0c5e0307a577b7f5c6f16caf072acfce30d1a737a1ef290c706dd24ad",
        id=f"sweep-b-pnn2-slabs-jobs{jobs}")
    for jobs in ("1", "2")
] + [
    # Hopfield (q = 1) points either side of its finite-load jump at M/N = 0.138: coord_err
    # 0.0047 and 0.13 after 3.65 and 12.15 sweeps on average
    pytest.param(
        ["sweep", "--sweep", "M", "--values", "120,160", "--N", "1000", "--q", "1", "--a", "0.1",
         "--trials", "40", "--seed", "4"],
        "6c11435fe3f499d92a9f78a0e391f4ad0ea3237a06d08926dde2b95e1c88f613",
        id="sweep-M-hopfield-transition"),
    # the README's q = 1 example at 300 trials, which ends in a short batch of 44
    pytest.param(
        ["sweep", "--sweep", "M", "--values", "40", "--N", "200", "--q", "1", "--trials", "300",
         "--seed", "11", "--max-sweeps", "1"],
        "d2f33fb4f372dfa5eac93f88d7877fb54a2da48c6a17c4f750f2ce7a272b009c",
        id="sweep-M-hopfield-short-batch"),
]


@pytest.mark.parametrize("argv, digest", README_CSV_SHA256)
def test_readme_commands_keep_their_csv_bytes(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", OTHER_SWEEPS_CSV_SHA256)
def test_other_sweeps_keep_their_csv_bytes(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestArgumentHandling:
    def test_unknown_sweep_variable(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--sweep", "N", "--values", "10",
            "--N", "20", "--M", "5", "--trials", "5",
        )
        assert code == 2

    def test_m_and_load_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sweep", "q", "--values", "2", "--N", "20",
            "--M", "5", "--load", "0.5", "--trials", "5",
        )
        assert code == 2
        assert "not both" in err

    @pytest.mark.parametrize("load", ["inf", "nan", "-inf", "0"])
    @pytest.mark.parametrize("command, args", [
        ("sweep", ["--sweep", "q", "--values", "2"]), ("dpnn-bench", ["--k", "1"]),
        ("identify-bench", ["--q", "4"]),
    ])
    def test_load_not_positive_and_finite_rejected(self, capsys, command, args, load):
        code, out, err = run_cli(capsys, command, *args, "--N", "20", f"--load={load}", "--trials", "2")
        assert code == 2
        assert out == ""
        assert "--load" in err and "Traceback" not in err

    def test_config_load_inf_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("N = 20\ntrials = 2\nsweep = q\nvalues = 2\nload = inf\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "--load must be a positive finite number, got inf" in err

    @pytest.mark.parametrize("count", [["--M", "5"], ["--load", "0.5"], ["--M", "5", "--load", "0.5"]])
    def test_sweep_over_m_rejects_pattern_count(self, capsys, count):
        code, out, err = run_cli(
            capsys, "sweep", "--sweep", "M", "--values", "3,4", "--N", "20", "--trials", "3",
            *count,
        )
        assert code == 2
        assert out == ""
        assert "--sweep M" in err

    @pytest.mark.parametrize("argv, needle, draws", [
        (["sweep", "--sweep", "q", "--values", "4,0", "--N", "20", "--M", "5"], "got 0", 0),
        (["sweep", "--sweep", "M", "--values", "5,0", "--N", "20", "--q", "4"], "got 0", 0),
        # a q above 2**32 is rejected at once, where a Memory of it would fail to allocate
        (["sweep", "--sweep", "q", "--values", "4294967297", "--N", "10", "--M", "2"],
         "drawn patterns need q <= 2**32, got q=4294967297", 0),
        (["sweep", "--sweep", "q", "--values", "4,4294967297", "--N", "10", "--M", "2"],
         "drawn patterns need q <= 2**32, got q=4294967297", 0),
        (["identify-bench", "--N", "10", "--q", "4294967297", "--M", "2"],
         "drawn patterns need q <= 2**32, got q=4294967297", 0),
        (["sweep", "--sweep", "b", "--values", "0.1", "--N", "0", "--q", "4", "--M", "5"],
         "n must be a whole number >= 1, got 0", 0),
        (["sweep", "--sweep", "b", "--values", "1.5", "--N", "20", "--q", "4", "--M", "5"],
         "got 1.5", 0),
        (["sweep", "--sweep", "q", "--values", "4", "--N", "20", "--M", "5", "--max-sweeps", "0"],
         "max_sweeps must be a whole number >= 1, got 0", 0),
        (["sweep", "--sweep", "q", "--values", "4", "--N", "20", "--M", "5", "--max-sweeps", "0",
          "--jobs", "2"], "max_sweeps must be a whole number >= 1, got 0", 0),
        (["sweep", "--sweep", "q", "--values", "1", "--kind", "pnn3", "--N", "20", "--M", "5"],
         "q=1", 0),
        (["dpnn-bench", "--N", "800", "--k", "-1", "--M", "10"], "got -1", 0),
        (["dpnn-bench", "--N", "800", "--k", "-1", "--M", "10", "--jobs", "2"], "got -1", 0),
        (["dpnn-bench", "--N", "800", "--k", "1", "--M", "10", "--a", "0.7"], "got 0.7", 0),
        (["dpnn-bench", "--N", "800", "--k", "1", "--M", "10", "--overlap", "1"], "got 1.0", 0),
        (["dpnn-bench", "--N", "1", "--k", "0", "--M", "10"], "got 1", 0),
        (["identify-bench", "--N", "20", "--q", "1", "--M", "5"], "q=1", 0),
        (["identify-bench", "--N", "20", "--q", "4", "--M", "5", "--b", "2"], "got 2.0", 0),
    ])
    def test_library_rejects_before_drawing_patterns(
        self, capsys, monkeypatch, argv, needle, draws
    ):
        """Inputs the library's validators reject exit 2 with the library's message, and no
        pattern set is drawn."""
        drawn = []

        def recording(draw):
            def wrapper(*args):
                patterns = draw(*args)
                drawn.append(args)
                return patterns
            return wrapper

        for name in ("_qnary_arrays", "correlated_binary_patterns"):
            monkeypatch.setattr(f"pnn.cli.{name}", recording(getattr(cli, name)))
        code, out, err = run_cli(capsys, *argv, "--trials", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and needle in err and "Traceback" not in err
        assert len(drawn) == draws

    @pytest.mark.parametrize("argv, needle", [
        (["sweep", "--config", "{tmp}/no-equals.cfg"], "no-equals.cfg:2: expected key=value"),
        (["sweep", "--config", "{tmp}/missing.cfg"], "cannot read config file {tmp}/missing.cfg"),
        (["theory-table", "--N", "1,x"], "bad N list '1,x'"),
        (["sweep", "--sweep", "q", "--values", "2", "--N", "20", "--M", "5"], "--trials is required"),
        (["sweep", "--sweep", "q", "--values", "2", "--N", "20", "--trials", "2"],
         "pattern count required: --M or --load"),
        (["sweep", "--sweep", "a", "--values", "0.1", "--N", "20", "--M", "5", "--q", "1",
          "--b", "0.3", "--trials", "2"], "q=1 has no level noise; set b=0"),
        (["sweep", "--sweep", "q", "--values", "4", "--N", "20", "--M", "5", "--trials", "2",
          "--jobs", "0"], "jobs must be >= 1, got 0"),
        (["dpnn-bench", "--N", "100", "--k", "1", "--M", "5", "--trials", "2", "--jobs", "0"],
         "jobs must be >= 1, got 0"),
        (["identify-bench", "--N", "20", "--q", "4", "--M", "5", "--trials", "2", "--jobs", "0"],
         "jobs must be >= 1, got 0"),
    ], ids=["config-line-without-equals", "unreadable-config", "bad-list", "no-trials",
            "no-pattern-count", "level-noise-at-q1", "sweep-jobs-0", "dpnn-bench-jobs-0",
            "identify-bench-jobs-0"])
    def test_configuration_error_is_exit_2_with_its_message(self, capsys, tmp_path, argv, needle):
        (tmp_path / "no-equals.cfg").write_text("N = 40\ntrials 5\n")
        code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and needle.format(tmp=tmp_path) in err

    def test_a_row_naming_a_column_its_header_lacks_raises(self, capsys, monkeypatch):
        # a command that names a column its header lacks is at fault itself: not exit 2
        def typo(**values):
            return [{"experiment": "theory", "N": 1000, "capacity_pnn": 1.0}]

        monkeypatch.setitem(COMMANDS, "theory-table", COMMANDS["theory-table"]._replace(run=typo))
        with pytest.raises(KeyError, match="capacity_pnn"):
            main(["theory-table"])

    def test_closed_output_pipe_exits_1_quietly(self):
        """A reader that stops after one line: exit 1 and an empty stderr.  The handler points
        file descriptor 1 at devnull, so it runs in its own process."""
        argv = ["theory-table", "--N", "1000", "--q", "16", "--M", ",".join(map(str, range(1, 2001)))]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-m", "pnn", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"experiment,N,q,M")
        proc.stdout.close()  # 2,000 rows overflow the pipe, so the writer meets the closed end
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")

    def test_out_of_memory_is_exit_2_naming_the_sizes(self, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr("pnn.cli.Memory", no_memory)
        code, out, err = run_cli(
            capsys, "sweep", "--sweep", "q", "--values", "2", "--N", "20", "--M", "5",
            "--trials", "2",
        )
        assert (code, out) == (2, "")
        assert err == "error: out of memory; lower --trials, --N, --q, --M or --load\n"

    @pytest.mark.parametrize("argv, sizes", [
        (["dpnn-bench", "--N", "8", "--k", "1", "--M", "2", "--trials", "2"],
         "--trials, --N, --M or --load"),
        (["theory-table"], "--N, --q or --M"),
    ])
    def test_out_of_memory_names_only_the_command_s_own_sizes(
        self, capsys, monkeypatch, argv, sizes
    ):
        def no_memory(**values):
            raise MemoryError

        command = COMMANDS[argv[0]]
        monkeypatch.setitem(COMMANDS, argv[0], command._replace(run=no_memory))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: out of memory; lower {sizes}\n")

    def test_unwritable_out_is_config_error_before_any_trial(self, capsys, tmp_path, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials ran before --out was opened")

        monkeypatch.setattr("pnn.cli._run_trials", no_trials)
        code, _, err = run_cli(
            capsys, "sweep", "--sweep", "q", "--values", "2", "--N", "20", "--M", "5",
            "--trials", "5", "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 2
        assert "cannot write --out" in err

    def test_bad_kind(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--sweep", "q", "--values", "2", "--N", "20",
            "--M", "5", "--trials", "5", "--kind", "pnn9",
        )
        assert code == 2

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    @pytest.mark.parametrize("command, key", [
        ("sweep", "overlap"), ("identify-bench", "max_sweeps"),
    ])
    def test_config_key_of_another_command_rejected(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(f"N = 40\n{key} = 0.5\n")
        code, _, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert f"unknown key {key!r}" in err

    @pytest.mark.parametrize("key, value", [("M", "abc"), ("load", "x")])
    def test_config_cast_error_names_key(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cast.cfg"
        cfg.write_text(f"N = 40\ntrials = 5\nsweep = q\nvalues = 2\n{key} = {value}\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert f"config key {key}={value!r}" in err

    @pytest.mark.parametrize("command", list(CONFIG_SETTINGS))
    def test_config_file_equivalent_to_flags(self, tmp_path, capsys, command):
        settings = CONFIG_SETTINGS[command]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment line\n" + "".join(f"{key} = {value}\n" for key, value in settings.items())
        )
        flags = [
            arg for key, value in settings.items()
            for arg in ("--" + key.replace("_", "-"), value)
        ]
        code_file, from_file, _ = run_cli(capsys, command, "--config", str(cfg))
        code_flags, with_flags, _ = run_cli(capsys, command, *flags)
        assert code_file == code_flags == 0
        assert len(from_file.splitlines()) > 1
        assert from_file == with_flags

    @pytest.mark.parametrize("argv", [
        ["sweep", "--sweep", "q", "--values", "2", "--N", "30", "--M", "20", "--b", "0.2",
         "--trials", "12"],
        ["dpnn-bench", "--N", "100", "--k", "1", "--M", "15", "--a", "0.1", "--overlap", "0.5",
         "--trials", "16"],
        ["identify-bench", "--N", "60", "--q", "8", "--M", "100", "--b", "0.3", "--trials", "20"],
    ], ids=["sweep", "dpnn-bench", "identify-bench"])
    def test_jobs_runs_every_trial_in_this_process(self, capsys, monkeypatch, argv):
        """``--jobs 4`` on 4 CPUs starts no process and writes the bytes of the same command
        without it."""
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setattr("os.fork", no_process)
        monkeypatch.setattr("multiprocessing.process.BaseProcess.start", no_process)
        argv = argv + ["--seed", "1"]
        code, want, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--jobs", "4")[:2] == (0, want)

    def test_batches_are_made_in_order_and_summed_exactly(self):
        batches = []

        def trials_fn(ctx, batch):
            batches.append(batch)
            return {"trials": len(batch), "indices": sum(batch), "halves": 0.5}

        trials = 3000 * _BATCH_TRIALS + 7
        totals = cli._run_trials(trials_fn, None, trials)
        assert batches == [range(lo, min(lo + _BATCH_TRIALS, trials))
                           for lo in range(0, trials, _BATCH_TRIALS)]
        assert totals == {
            "trials": trials, "indices": trials * (trials - 1) // 2, "halves": 0.5 * len(batches),
        }

    def test_a_failing_batch_stops_a_huge_run_at_once(self):
        # 10**12 trials make about 7.8e9 batches, none of which may be made ahead of its turn
        calls = []

        def trials_fn(ctx, batch):
            calls.append(batch)
            if len(calls) == 3:
                raise RuntimeError("third batch")
            return {"trials": len(batch)}

        with pytest.raises(RuntimeError, match="third batch"):
            cli._run_trials(trials_fn, None, 10**12)
        assert len(calls) == 3
