"""Run one pnn benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0

Each round runs the workload's CLI command(s) in-process through
``pnn.cli.main`` and replays the same trials through the library with an
untraced closed loop (one caller, waiting for each trial).  Rounds
repeat until ``--seconds`` is used up, with at least three.

``--trace 0`` reports the end-to-end metrics.  Their times are divided by
the machine's slowdown measured right next to them with a fixed numpy
reference loop that uses no pnn code (see ``harness.SpeedProbe``), because
a host with shared cores can change speed by up to 1.8x within minutes; the
unscaled CLI wall time and trial rate are printed as well.

``--trace 1`` spends half the time on untraced rounds and half on traced
replays, which record a span around every call into the library and check
the per-trial invariants, and reports the unscaled per-layer metrics.
Spans are written to ``.bench_out/spans-<workload>-<seed>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without the library sources in ``src/pnn`` next to this
directory the run exits with code 2 and prints no result.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "pnn" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC / 'pnn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import run

    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
