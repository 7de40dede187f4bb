"""Property tests of the pathwise coupling that shared seeds give the line engine."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from frogcrit import HazardSpec, simulate_firework  # noqa: E402

scales = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)  # c in (0, 1]
ratios = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
steps = st.floats(min_value=0.0, max_value=0.1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    c=scales, q=ratios, dc=steps, dq=steps,
    n=st.integers(1, 40), replicates=st.integers(1, 20), seed=st.integers(0, 2**64 - 1),
)
def test_hits_are_monotone_in_q_and_in_c(c, q, dc, dq, n, replicates, seed):
    """Radii are nondecreasing in c and in q for a shared uniform, so hits are too.

    Few replicates and nearby parameters keep the counts close, so runs
    that drew independent uniforms would break the order.
    """
    c_hi = min(1.0, c + dc)
    q_hi = q + dq * (1.0 - q)
    base = simulate_firework(HazardSpec(c, q), n, replicates, seed).branch_hits
    more_q = simulate_firework(HazardSpec(c, q_hi), n, replicates, seed).branch_hits
    more_c = simulate_firework(HazardSpec(c_hi, q), n, replicates, seed).branch_hits
    assert np.all(more_q >= base)
    assert np.all(more_c >= base)
