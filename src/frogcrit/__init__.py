"""Critical parameters of geometric-lifetime growth processes on directed
trees, with exact renewal recursions and seeded Monte Carlo validation."""

from .critical import (
    ConeTableRow,
    CriticalResult,
    FrogTableRow,
    Model,
    ModelBounds,
    bound_table,
    bounds_on_d,
    cone_percolation_bounds,
    explicit_bounds_c3,
    invert_bounds_c2,
    literature_cone_bounds,
    literature_original_upper,
    literature_self_avoiding_upper,
    original_frog_upper,
    p_of_r,
    r_of_p,
    removal_bounds,
    self_avoiding_upper,
    solve_qc,
    survival_series,
    table_cone,
    table_frogs,
)
from .distributions import (
    HazardSpec,
    TreeParams,
    defect_mass,
    interarrival_pmf,
    interarrival_survival,
    pochhammer,
)
from .errors import ActivationCapError, BracketError, ParameterError
from .renewal import (
    Growth,
    RateResult,
    RenewalProbs,
    convergence_rate,
    generating_function,
    growth_classifier,
    growth_sequence,
    renewal_probabilities,
)

__version__ = "0.1.0"

# The simulator is the only numpy user among these names, so it loads on
# first use (PEP 562): the exact layer above runs without importing numpy.
_SIMULATOR_NAMES = (
    "FrogSimConfig",
    "SimOutcome",
    "simulate_firework",
    "simulate_frog",
)
# classes and functions: the imports above also bind their submodules here
__all__ = [name for name, value in globals().items() if callable(value) and not name.startswith("_")]
__all__ += _SIMULATOR_NAMES


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SIMULATOR_NAMES))
