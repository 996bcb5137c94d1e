import sys
from pathlib import Path

from hypothesis import settings

# make oracles.py importable regardless of how pytest was invoked
sys.path.insert(0, str(Path(__file__).resolve().parent))

# The same examples on every run, with no example database to replay, so the
# suite's outcome is fixed; no deadline, since a shared host can stall any
# single example; max_examples bounds the property tests to a few seconds.
settings.register_profile("pnn", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("pnn")
