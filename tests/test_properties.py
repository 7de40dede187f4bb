"""Property tests: the pathwise coupling that shared seeds give both engines,
the agreement of the tree engine with the scalar work queue, the round
trip of the visit-probability map r(p), and the CLI's exit codes on any degree."""

import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from frogcrit import (  # noqa: E402
    FrogSimConfig,
    HazardSpec,
    ParameterError,
    TreeParams,
    p_of_r,
    r_of_p,
    simulate_firework,
    simulate_frog,
)
from frogcrit import cli, simulator  # noqa: E402
from frogcrit.distributions import gap_head, pmf_sequence  # noqa: E402
from frogcrit.rng import replicate_key  # noqa: E402
from frogcrit.simulator import _frog_replicate, _level_bases  # noqa: E402

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    c=scales, q=ratios, n=st.integers(1, 40), block=st.sampled_from([1, 7, 4096]),
    seed=st.integers(0, 2**64 - 1), data=st.data(),
)
def test_line_block_size_does_not_change_the_outcome(c, q, n, block, seed, data):
    """Blocks partition the replicates and every draw is keyed, so any block
    size gives the counts of the default block, which covers these runs whole."""
    replicates = data.draw(st.integers(1, 3 * block + 40), label="replicates")
    spec = HazardSpec(c, q)
    whole = simulate_firework(spec, n, replicates, seed)
    with mock.patch.object(simulator, "_LINE_BLOCK", block):
        blocked = simulate_firework(spec, n, replicates, seed)
    assert np.array_equal(blocked.branch_hits, whole.branch_hits)
    assert np.array_equal(blocked.reached_depth, whole.reached_depth)


def _reach_fractions(d, c, q, max_depth, replicates, seed):
    try:
        params = TreeParams(d, c, q)
    except ParameterError:
        assume(False)  # d q > 1 or c d q >= 1
    config = FrogSimConfig(params=params, max_depth=max_depth, replicates=replicates, seed=seed)
    return simulate_frog(config).reach_fractions()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 4), c=scales, dq=scales, c_step=steps, dq_step=steps,
    max_depth=st.integers(1, 12), replicates=st.integers(1, 20), seed=st.integers(0, 2**64 - 1),
)
def test_tree_reach_is_monotone_in_q_and_in_c(d, c, dq, c_step, dq_step, max_depth, replicates, seed):
    """Walker reaches are nondecreasing in c and in q for a shared uniform, so depths are too.

    Path choices depend on neither parameter, so a longer walk retraces
    the shorter one and activates a superset of its vertices.
    """
    q = dq / d
    q_hi = (dq + dq_step * (1.0 - dq)) / d
    c_hi = min(1.0, c + c_step)
    base = _reach_fractions(d, c, q, max_depth, replicates, seed)
    more_q = _reach_fractions(d, c, q_hi, max_depth, replicates, seed)
    more_c = _reach_fractions(d, c_hi, q, max_depth, replicates, seed)
    assert np.all(more_q >= base)
    assert np.all(more_c >= base)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 5), c=scales, dq=scales, max_depth=st.integers(1, 10),
    replicates=st.integers(1, 20),
    seed=st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1),
)
def test_level_engine_and_scalar_queue_give_one_histogram(d, c, dq, max_depth, replicates, seed):
    """simulate_frog's histogram is the bincount of the scalar queue's outcomes."""
    try:
        params = TreeParams(d, c, dq / d)
    except ParameterError:
        assume(False)  # c d q >= 1
    bases = _level_bases(d, max_depth + 1)
    config = FrogSimConfig(params=params, max_depth=max_depth, replicates=replicates, seed=seed)
    want = [
        _frog_replicate(
            replicate_key(seed, rep), d, params.c, d * params.q, max_depth, bases
        )
        for rep in range(replicates)
    ]
    got = simulate_frog(config).reached_depth
    assert np.array_equal(got, np.bincount(want, minlength=max_depth + 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(-2, 10**400))
def test_any_degree_exits_0_2_or_3_with_at_most_one_error_line(d):
    """A degree below 2 or past the largest float is a domain error, never a traceback."""
    for args in (
        f"qc --d {d} --c 1",
        f"table --model cone --d {d}",
        f"simulate frog --d {d} --c 1 --q 0.1 --max-depth 2 --replicates 10 --seed 1",
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args.split())
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3), (args, code)
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), (args, lines)


degrees = st.sampled_from([2, 3, 5, 10, 100, 1000, 10**6])
# uniform on the grid k / 2^53 of (0, 1), from 2^-53 up to 1 - 2^-53
walk_ps = st.integers(1, 2**53 - 1).map(lambda k: k / 2**53)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(d=degrees, p=walk_ps)
def test_p_of_r_inverts_r_of_p_to_two_ulps(d, p):
    """p_of_r(d, r_of_p(d, p)) is p to 2 ulps (4.5e-16 relative).

    Two ulps below 1 that error can round the result up to 1.0, which
    p_of_r rejects as outside the invertible range.
    """
    r = r_of_p(d, p)
    try:
        back = p_of_r(d, r)
    except ParameterError:
        assert p >= 1.0 - 2**-52
    else:
        assert abs(back - p) <= 4.5e-16 * p


@pytest.mark.parametrize("d,raises", [(2, True), (3, False), (1000, True)])
def test_round_trip_at_the_largest_p_below_one(d, raises):
    p = 1.0 - 2**-53
    r = r_of_p(d, p)
    if raises:
        with pytest.raises(ParameterError, match="computed p = 1.0 >= 1"):
            p_of_r(d, r)
    else:
        assert p_of_r(d, r) == 1.0 - 2**-52


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=degrees, p=walk_ps, q=walk_ps)
def test_r_of_p_is_increasing(d, p, q):
    """r(p) increases with p; two floats apart, strictly.

    Adjacent floats can round to the same r (about 9% of random p).
    """
    lo, hi = min(p, q), max(p, q)
    assume(lo < hi)
    assert r_of_p(d, lo) <= r_of_p(d, hi)
    if hi >= math.nextafter(math.nextafter(lo, 1.0), 1.0):
        assert r_of_p(d, lo) < r_of_p(d, hi)


def _scalar_pmf_loop(spec: HazardSpec, n: int) -> np.ndarray:
    """f_1..f_n in the kernel's scalar arithmetic: a running c q^k, factors 1 - c q**k from pow."""
    c, q = spec.c, spec.q
    out = np.zeros(n + 1)
    scale = c * q
    surv = 1.0
    for k in range(1, n + 1):
        out[k] = scale * surv
        surv *= 1.0 - c * q**k
        scale *= q
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=scales, q=ratios, n=st.integers(0, 3000))
def test_pmf_sequence_is_bit_equal_to_the_scalar_loop(c, q, n):
    spec = HazardSpec(c, q)
    assert pmf_sequence(spec, n).tobytes() == _scalar_pmf_loop(spec, n).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    c=scales,
    q=st.floats(min_value=0.0, max_value=0.5, exclude_min=True),
    alpha=st.sampled_from([1, 2, 10, 1000]),
)
def test_gap_head_is_the_prefix_of_pmf_sequence_and_at_most_54_long(c, q, alpha):
    """At q <= 1/2, c q^k rounds away from 1 by k = 54; the gaps past the head are geometric."""
    spec = HazardSpec(c, q)
    head = gap_head(spec, 10**6, alpha)
    assert len(head) <= 54
    gaps = pmf_sequence(spec, len(head) + 40, alpha)
    assert gaps[1 : len(head) + 1].tobytes() == np.array(head).tobytes()
    m = len(head)
    geometric = [head[-1] * (alpha * q) ** (k - m) for k in range(m, m + 41)]
    # subnormal gaps round on their own grid, so they agree only within tiny
    np.testing.assert_allclose(gaps[m:], geometric, rtol=1e-13, atol=np.finfo(float).tiny)
