"""Vector-neuron associative memories and their experiment harness."""

from types import ModuleType as _ModuleType

from .core import (
    Memory,
    NetworkKind,
    Pattern,
    RetrievalResult,
    UpdateOrder,
    asynchronous_retrieve,
    build_memory,
    energy,
    is_fixed_point,
    local_field,
    retrieve_batch,
    synchronous_batch,
    synchronous_step,
)
from .dpnn import (
    BindingConstraint,
    KCriticalResult,
    MappingParams,
    capacity_exponent,
    dpnn_build,
    dpnn_capacity,
    dpnn_retrieve,
    k_critical,
    k_critical_asymptotic,
    k_critical_detail,
    map_binary,
    unmap_binary,
)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LengthNotDivisible,
    LevelOutOfRange,
    NoFeasibleK,
    PnnError,
    SignNotAllowed,
    UnknownPattern,
)
from .identifier import (
    IdentifierNet,
    OpCounter,
    asymptotic_digit_estimate,
    build_identifier,
    digit_count,
    enumerated_field,
    identify,
)
from .noise import (
    NoiseSpec,
    apply_binary_noise,
    apply_qnary_noise,
    correlated_binary_patterns,
    random_binary_patterns,
    random_qnary_patterns,
)
from .rng import make_rng
from .theory import (
    ErrorBound,
    capacity_pnn2,
    capacity_pnn3,
    error_exponent,
    level_noise_rescaled,
    perr_pnn2,
    perr_pnn3,
)

__version__ = "0.1.0"

# the public names imported above, not the submodules they come from
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
