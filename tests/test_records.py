"""The result and parameter records are checked, immutable named tuples.

Each record that checks its input runs the same checks, with the same
messages, whether it is built by its constructor or by _replace; records
that hold arrays keep them read-only either way.
"""

import re

import numpy as np
import pytest

from frogcrit import (
    ConeTableRow,
    CriticalResult,
    FrogSimConfig,
    FrogTableRow,
    HazardSpec,
    ModelBounds,
    ParameterError,
    RateResult,
    RenewalProbs,
    SimOutcome,
    TreeParams,
    convergence_rate,
    cone_percolation_bounds,
    renewal_probabilities,
    simulate_frog,
    solve_qc,
    table_cone,
    table_frogs,
)

SPEC = HazardSpec(0.5, 0.25)
PARAMS = TreeParams(2, 1.0, 0.3)
CONFIG = FrogSimConfig(PARAMS, 4, 10, 1)


def _records():
    return {
        "HazardSpec": SPEC,
        "TreeParams": PARAMS,
        "RenewalProbs": renewal_probabilities(SPEC, 5),
        "RateResult": convergence_rate(SPEC),
        "CriticalResult": solve_qc(2, 1.0),
        "ModelBounds": cone_percolation_bounds(3),
        "ConeTableRow": table_cone([3])[0],
        "FrogTableRow": table_frogs([3])[0],
        "FrogSimConfig": CONFIG,
        "SimOutcome": simulate_frog(CONFIG),
    }


# (record, field, invalid value, the ParameterError text)
INVALID = [
    ("HazardSpec", "c", 0.0, "c must be in (0, 1], got 0.0"),
    ("HazardSpec", "q", 1.0, "q must be in (0, 1), got 1.0"),
    ("TreeParams", "d", 1, "d must be an integer >= 2, got 1"),
    ("TreeParams", "c", 1.5, "c must be in (0, 1], got 1.5"),
    ("TreeParams", "q", 0.6, "d*q must be <= 1 so that c*(d*q)^n stays below 1, got 1.2"),
    ("TreeParams", "q", 0.5, "c*d*q must be < 1, got 1.0"),
    ("CriticalResult", "q_c", 0.6, "q_c must lie in (0, 1/d), got 0.6"),
    ("CriticalResult", "lower_c2", 0.4, "lower-bound ordering violated in CriticalResult"),
    ("ModelBounds", "upper", 1.0, "upper bound must be < 1, got 1.0"),
    ("ModelBounds", "lower", 0.5, "ModelBounds requires 0 < lower <= upper"),
    ("FrogSimConfig", "max_depth", 0, "max_depth must be >= 1, got 0"),
    ("FrogSimConfig", "max_depth", 63, "max_depth must be < 63 at d=2"),
    ("FrogSimConfig", "replicates", 0, "replicates must be >= 1, got 0"),
    ("FrogSimConfig", "seed", -1, "seed must be a 64-bit unsigned integer, got -1"),
    ("FrogSimConfig", "activation_cap", 0, "activation_cap must be >= 1, got 0"),
    ("SimOutcome", "replicates", 11, "histogram mass must equal the replicate count"),
    ("SimOutcome", "branch_hits", [1, 3], "branch_hits must be nonincreasing"),
]


@pytest.mark.parametrize("name, field, value, message", INVALID)
def test_the_constructor_and_replace_raise_the_same_error(name, field, value, message):
    record = _records()[name]
    with pytest.raises(ParameterError) as built:
        type(record)(**{**record._asdict(), field: value})
    with pytest.raises(ParameterError) as replaced:
        record._replace(**{field: value})
    assert str(built.value) == str(replaced.value)
    assert re.match(re.escape(message), str(built.value))


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_immutable_tuples(name):
    record = _records()[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and len(record) == len(record._fields)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert type(record)(*record)._asdict().keys() == record._asdict().keys()


def test_records_compare_and_hash_as_plain_tuples():
    assert SPEC == (0.5, 0.25) and hash(SPEC) == hash((0.5, 0.25))
    assert tuple(PARAMS) == (2, 1.0, 0.3)
    assert PARAMS.hazard_spec == HazardSpec(1.0, 0.3)


def test_replace_keeps_the_arrays_read_only():
    probs = renewal_probabilities(SPEC, 5)
    for replaced in (probs._replace(spec=HazardSpec(0.5, 0.5)), probs._replace(values=[1, 0.5])):
        assert replaced.values.dtype == np.float64 and not replaced.values.flags.writeable
    assert probs._replace(values=[1, 0.5]).horizon == 1
    outcome = simulate_frog(CONFIG)
    for replaced in (outcome._replace(seed=5),
                     outcome._replace(reached_depth=[4, 6], branch_hits=[3, 2])):
        for array in (replaced.reached_depth, replaced.branch_hits):
            assert array is None or (array.dtype == np.int64 and not array.flags.writeable)
    assert outcome._replace(branch_hits=[3, 2]).branch_hits.tolist() == [3, 2]


def test_keyword_construction_and_the_default_cap():
    assert HazardSpec(q=0.25, c=0.5) == SPEC
    assert TreeParams(d=2, c=1.0, q=0.3) == PARAMS
    assert FrogSimConfig(params=PARAMS, max_depth=4, replicates=10, seed=1) == CONFIG
    assert CONFIG.activation_cap == FrogSimConfig._field_defaults["activation_cap"] == 10_000_000
    assert FrogSimConfig._fields == ("params", "max_depth", "replicates", "seed", "activation_cap")
    result = solve_qc(2, 1.0)
    assert CriticalResult(**result._asdict()) == result
    bounds = cone_percolation_bounds(3)
    assert ModelBounds(model=bounds.model, d=3, lower=bounds.lower, upper=bounds.upper) == bounds
    assert RenewalProbs(values=[1.0], spec=SPEC).horizon == 0
    assert SimOutcome(reached_depth=[1], branch_hits=None, replicates=1, seed=0).replicates == 1
    assert RateResult(gamma=2.0, residual=0.0, bracket=(1.0, 3.0), truncation_K=5).bracket == (1.0, 3.0)
    assert ConeTableRow._fields == table_cone([3])[0]._fields
    assert FrogTableRow(*range(7)).self_avoiding_known == 6
