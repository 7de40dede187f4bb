"""Every name the benchmark tracer patches must exist in the package.

bench/tracing.py replaces module attributes by name, so a renamed or
removed function would only show up as a failed benchmark run; this
check makes it a tier-1 failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from frogcrit import cli


def _load_tracing():
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()
_NAMES = [(entry[0], entry[1]) for entry in _TRACING.SPANS + _TRACING.COUNTERS]


@pytest.mark.parametrize("module,attribute", _NAMES, ids=[f"{m}.{a}" for m, a in _NAMES])
def test_traced_name_resolves_to_a_callable(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))


# A command that calls each frogcrit.cli name the tracer patches.
_FIREWORK = "simulate firework --c 1 --q 0.25 --n 5 --replicates 100 --seed 7 --format csv"
_FROG = "simulate frog --d 2 --c 1 --q 0.3 --max-depth 4 --replicates 100 --seed 7 --format csv"
_CLI_CALLS = {
    "_emit": "qc --d 2 --c 1 --format csv",
    "simulate_firework": _FIREWORK,
    "renewal_probabilities": _FIREWORK,
    "simulate_frog": _FROG,
    "growth_classifier": _FROG,
}
_CLI_NAMES = [entry[1] for entry in _TRACING.SPANS if entry[0] == "frogcrit.cli"]


@pytest.mark.parametrize("attribute", _CLI_NAMES)
def test_a_patched_cli_name_is_the_one_that_runs_until_restored(attribute, capsys):
    """A span the CLI bypasses would read 0 calls under --trace 1 without failing."""
    argv = _CLI_CALLS[attribute].split()
    original = getattr(cli, attribute)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    setattr(cli, attribute, counting)
    try:
        assert cli.main(argv) == 0
    finally:
        setattr(cli, attribute, original)
    patched = capsys.readouterr().out
    wrapped = len(calls)
    assert wrapped >= 1
    assert getattr(cli, attribute) is original
    assert cli.main(argv) == 0
    assert (len(calls), capsys.readouterr().out) == (wrapped, patched)
