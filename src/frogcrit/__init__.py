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
from .simulator import (
    FrogSimConfig,
    SimOutcome,
    estimate_branch_hit,
    simulate_firework,
    simulate_frog,
)

__version__ = "0.1.0"
