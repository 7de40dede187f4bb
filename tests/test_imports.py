"""The exact layer runs without numpy, and every public name still resolves.

frogcrit/__init__ loads the simulator, the only numpy user among its names,
on first use, so solving, rates, classification and tables never import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import frogcrit

# Every name the package exported when the simulator was imported eagerly.
PUBLIC_NAMES = """
    ConeTableRow CriticalResult FrogTableRow Model ModelBounds bound_table
    bounds_on_d cone_percolation_bounds explicit_bounds_c3 invert_bounds_c2
    literature_cone_bounds literature_original_upper
    literature_self_avoiding_upper original_frog_upper p_of_r r_of_p
    removal_bounds self_avoiding_upper solve_qc survival_series table_cone
    table_frogs HazardSpec TreeParams defect_mass interarrival_pmf
    interarrival_survival pochhammer ActivationCapError BracketError
    ParameterError Growth RateResult RenewalProbs convergence_rate
    generating_function growth_classifier growth_sequence renewal_probabilities
    FrogSimConfig SimOutcome estimate_branch_hit simulate_firework simulate_frog
""".split()

EXACT_CALLS = """
import sys

import frogcrit
from frogcrit import HazardSpec, Model
from frogcrit.distributions import gap_head

qc = frogcrit.solve_qc(2, 1.0).q_c
frogcrit.convergence_rate(HazardSpec(1.0, qc))
below = frogcrit.growth_classifier(2, HazardSpec(1.0, 0.95 * qc), 5000)
above = frogcrit.growth_classifier(2, HazardSpec(1.0, 1.05 * qc), 5000)
assert (below.value, above.value) == ("subcritical", "supercritical")
frogcrit.generating_function(HazardSpec(1.0, 0.25), 2.0)
frogcrit.survival_series(2, 1.0, 0.25)
frogcrit.defect_mass(HazardSpec(1.0, 0.25))
frogcrit.interarrival_pmf(HazardSpec(1.0, 0.25), 5)
frogcrit.interarrival_survival(HazardSpec(1.0, 0.25), 5)
gap_head(HazardSpec(1.0, 0.25), 100, 2.0)
for model in Model:
    frogcrit.bound_table(model, [2, 3, 10])
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_the_exact_layer_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(frogcrit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_CALLS], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_resolves_and_is_listed(name):
    namespace = {}
    exec(f"from frogcrit import {name}", namespace)
    assert namespace[name] is getattr(frogcrit, name)
    assert name in dir(frogcrit)
    assert name in frogcrit.__all__


def test_all_lists_the_public_names_and_no_submodule():
    assert set(frogcrit.__all__) == set(PUBLIC_NAMES)
    assert len(frogcrit.__all__) == len(PUBLIC_NAMES)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'simulate_cone'"):
        frogcrit.simulate_cone
    with pytest.raises(ImportError):
        exec("from frogcrit import simulate_cone", {})
