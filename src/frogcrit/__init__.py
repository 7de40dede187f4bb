"""Critical parameters of geometric-lifetime growth processes on directed
trees, with exact renewal recursions and seeded Monte Carlo validation.

Each public name loads its submodule on first use (PEP 562), through the
one table below: `import frogcrit` loads none of them, the exact layer
runs without numpy, and a CLI command loads only the layers it calls.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "critical": """
        ConeTableRow CriticalResult FrogTableRow ModelBounds bound_table bounds_on_d
        cone_percolation_bounds explicit_bounds_c3 invert_bounds_c2 literature_cone_bounds
        literature_original_upper literature_self_avoiding_upper original_frog_upper
        p_of_r r_of_p removal_bounds self_avoiding_upper solve_qc survival_series
        table_cone table_frogs
    """,
    "distributions": """
        HazardSpec TreeParams defect_mass interarrival_pmf interarrival_survival
    """,
    "errors": "ActivationCapError BracketError ParameterError",
    "models": "Model",
    "renewal": """
        Growth RateResult RenewalProbs convergence_rate generating_function
        growth_classifier growth_sequence renewal_probabilities
    """,
    "simulator": "FrogSimConfig SimOutcome simulate_firework simulate_frog",
}
# public name -> its submodule
_NAMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_NAMES)


def __getattr__(name):
    if name in _NAMES:
        return getattr(importlib.import_module(f".{_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_NAMES))
