"""The package's public names, pinned so none appears or disappears unnoticed, and the
README's library example, run as written."""

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
    "asymptotic_digit_estimate",
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
    "dpnn_retrieve",
    "energy",
    "enumerated_field",
    "error_exponent",
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
    "random_binary_patterns",
    "random_qnary_patterns",
    "retrieve_batch",
    "synchronous_step",
    "unmap_binary",
]


def test_public_names_are_pinned():
    assert sorted(pnn.__all__) == PUBLIC_NAMES


def test_readme_library_example_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
