"""Each layer loads on first use, every public name still resolves, and the CLI's exit hook.

Every public name of frogcrit loads its submodule when it is first read,
and frogcrit.cli reads each library name through the package.  So
importing either loads no solver, renewal layer, simulator or numpy; the
exact layer and the qc, gamma and table commands never import numpy; and
gamma and simulate never load the solver.  Importing frogcrit.cli loads
only frogcrit.errors and builtin modules (argparse loads with the parser),
and no command loads dataclasses.  Only frogcrit.cli freezes the garbage
collector at exit, so a live cyclic finalizer still runs at exit in a
process that uses the library alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import frogcrit
from frogcrit import cli

# Every public name of the package.
PUBLIC_NAMES = """
    ConeTableRow CriticalResult FrogTableRow Model ModelBounds bound_table
    bounds_on_d cone_percolation_bounds explicit_bounds_c3 invert_bounds_c2
    literature_cone_bounds literature_original_upper
    literature_self_avoiding_upper original_frog_upper p_of_r r_of_p
    removal_bounds self_avoiding_upper solve_qc survival_series table_cone
    table_frogs HazardSpec TreeParams defect_mass interarrival_pmf
    interarrival_survival ActivationCapError BracketError
    ParameterError Growth RateResult RenewalProbs convergence_rate
    generating_function growth_classifier growth_sequence renewal_probabilities
    FrogSimConfig SimOutcome simulate_firework simulate_frog
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


# The exact commands, then the commands given as arguments, through cli.main in one process.
CLI_CALLS = """
import contextlib
import io
import sys

from frogcrit import Model, cli


def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "numpy")


commands = ["qc --d 2 --c 1", "gamma --c 1 --q 0.25"]
commands += [f"table --model {model.value} --d 2..10,15,100" for model in Model]
for command in commands:
    for fmt in ("plain", "csv", "jsonl"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(f"{command} --format {fmt}".split()) == 0, (command, fmt)
print(loaded())
for command in sys.argv[1:]:
    assert cli.main(command.split()) == 0, command
print("numpy" in loaded())
"""
SIMULATIONS = (
    "simulate firework --c 1 --q 0.25 --n 30 --replicates 20000 --seed 7 --format csv",
    "simulate frog --d 4 --c 0.8 --q 0.2 --max-depth 1 --replicates 2000 --seed 0 --format csv",
)


def _golden():
    blocks = (Path(__file__).parent / "cli_golden.txt").read_text().split("$ ")[1:]
    return dict(block.split("\n", 1) for block in blocks)


def _fresh_python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(frogcrit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_the_exact_layer_never_imports_numpy():
    assert _fresh_python(EXACT_CALLS) == "[]\n"


def test_the_exact_cli_commands_never_import_numpy_and_simulate_does():
    before, rest = _fresh_python(CLI_CALLS, *SIMULATIONS).split("\n", 1)
    assert before == "[]"
    assert rest == "".join(_golden()[command] for command in SIMULATIONS) + "True\n"


# Imports the module named first, runs the command given after it (if any)
# through cli.main, then prints which of the lazily loaded modules are loaded.
LOADED = """
import importlib
import sys

importlib.import_module(sys.argv[1])
if len(sys.argv) > 2:
    from frogcrit import cli

    assert cli.main(sys.argv[2].split()) == 0
lazy = ("frogcrit.critical", "frogcrit.distributions", "frogcrit.renewal",
        "frogcrit.simulator", "frogcrit.rng", "dataclasses", "numpy")
print(sorted(name for name in sys.modules if name.startswith(lazy)))
"""


@pytest.mark.parametrize("module", ["frogcrit", "frogcrit.cli"])
def test_importing_the_package_or_the_cli_loads_no_layer(module):
    assert _fresh_python(LOADED, module) == "[]\n"


@pytest.mark.parametrize("command", ["gamma --c 0.3 --q 0.6 --format csv", *SIMULATIONS])
def test_gamma_and_simulate_never_load_the_solver(command):
    *out, loaded = _fresh_python(LOADED, "frogcrit.cli", command).splitlines(keepends=True)
    assert "".join(out) == _golden()[command]
    assert "frogcrit.renewal" in loaded and "frogcrit.critical" not in loaded


def test_importing_the_cli_loads_only_errors_and_builtin_modules():
    code = (
        "import sys\n"
        "import frogcrit\n"
        "before = set(sys.modules)\n"
        "import frogcrit.cli\n"
        "new = set(sys.modules) - before - set(sys.builtin_module_names)\n"
        "print(sorted(new), 'argparse' in sys.modules, 'dataclasses' in sys.modules)\n"
    )
    assert _fresh_python(code) == "['frogcrit.cli', 'frogcrit.errors'] False False\n"


# Runs each command given as an argument through cli.main; stops at the first to load dataclasses.
NO_DATACLASSES = """
import contextlib
import io
import sys

from frogcrit import cli

for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(command.split()) == 0, command
    assert "dataclasses" not in sys.modules, command
print("ok")
"""


def test_no_command_loads_dataclasses():
    commands = ["qc --d 2 --c 1", "gamma --c 0.3 --q 0.6"]
    commands += [f"table --model {model.value} --d 2..5" for model in frogcrit.Model]
    assert _fresh_python(NO_DATACLASSES, *commands, *SIMULATIONS) == "ok\n"


# A cyclic object with a finalizer, alive until the interpreter exits.
CYCLE_AT_EXIT = """
import os
import sys

import frogcrit

if sys.argv[1] == "library":
    frogcrit.solve_qc(2, 1.0)
else:
    import frogcrit.cli


class Cycle:
    def __init__(self):
        self.me = self

    def __del__(self, write=os.write):
        write(1, b"finalized\\n")


alive = Cycle()
"""


@pytest.mark.parametrize("user, output", [("library", "finalized\n"), ("cli", "")])
def test_only_the_cli_skips_the_collections_at_exit(user, output):
    assert _fresh_python(CYCLE_AT_EXIT, user) == output


def test_model_is_one_enum():
    from frogcrit import critical, models

    assert frogcrit.Model is critical.Model is models.Model


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
    with pytest.raises(AttributeError, match="'frogcrit.cli' has no attribute 'simulate_cone'"):
        cli.simulate_cone
    with pytest.raises(ImportError):
        exec("from frogcrit import simulate_cone", {})
