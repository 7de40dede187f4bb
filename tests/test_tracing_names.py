"""Every name the benchmark tracer patches must exist in the package.

bench/tracing.py replaces module attributes by name, so a renamed or
removed function would only show up as a failed benchmark run; this
check makes it a tier-1 failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


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
