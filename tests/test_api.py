"""The package's public names, pinned so none appears or disappears unnoticed, each used
outside the tests, and the README's library example, run as written."""

import re
from pathlib import Path

import pnn

PUBLIC_NAMES = [
    "BindingConstraint",
    "DimensionMismatch",
    "ErrorBound",
    "IdentifierNet",
    "IndexOutOfRange",
    "KCriticalResult",
    "LengthNotDivisible",
    "LevelOutOfRange",
    "MappingParams",
    "Memory",
    "NetworkKind",
    "NoFeasibleK",
    "NoiseSpec",
    "OpCounter",
    "Pattern",
    "PnnError",
    "RetrievalResult",
    "SignNotAllowed",
    "UnknownPattern",
    "apply_binary_noise",
    "apply_qnary_noise",
    "asynchronous_retrieve",
    "build_identifier",
    "build_memory",
    "capacity_exponent",
    "capacity_pnn2",
    "capacity_pnn3",
    "correlated_binary_patterns",
    "digit_count",
    "dpnn_build",
    "dpnn_capacity",
    "energy",
    "identify",
    "is_fixed_point",
    "k_critical",
    "k_critical_asymptotic",
    "k_critical_detail",
    "level_noise_rescaled",
    "local_field",
    "make_rng",
    "map_binary",
    "perr_pnn2",
    "perr_pnn3",
    "random_qnary_patterns",
    "retrieve_batch",
    "synchronous_step",
    "unmap_binary",
]


ROOT = Path(__file__).resolve().parents[1]


def test_public_names_are_pinned():
    assert sorted(pnn.__all__) == PUBLIC_NAMES


def test_every_public_name_is_used_outside_the_tests():
    """Each name is in the README, in a benchmark script, or in a package module other than
    ``__init__.py`` on a line that is not its own def or class line: a name that only the tests
    call belongs in the tests."""
    sources = [ROOT / "README.md", *sorted((ROOT / "benchmarks").glob("*.py")),
               *sorted(p for p in (ROOT / "src" / "pnn").glob("*.py") if p.name != "__init__.py")]
    lines = [line for path in sources for line in path.read_text().splitlines()]
    unused = [
        name for name in pnn.__all__
        if not any(re.search(rf"\b{name}\b", line)
                   and not re.match(rf"\s*(def|class) {name}\b", line) for line in lines)
    ]
    assert unused == []


def test_readme_library_example_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
