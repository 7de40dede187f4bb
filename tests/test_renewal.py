"""Tests for the renewal recursion, generating function, and decay rate."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from frogcrit import (
    BracketError,
    Growth,
    HazardSpec,
    ParameterError,
    convergence_rate,
    defect_mass,
    generating_function,
    growth_classifier,
    growth_sequence,
    interarrival_pmf,
    renewal_probabilities,
    solve_qc,
)
from frogcrit.distributions import gap_head, pmf_sequence
from frogcrit import renewal
from frogcrit.renewal import _generating_function, _renewal_recursion, _series_exceeds_one

from reference_tables import GENFUNC_C1_Q025_A2


def _u_by_enumeration(spec: HazardSpec, n: int) -> float:
    """Brute-force u_n: sum over all gap compositions of n.

    A composition is encoded by its cut points; this never touches the
    convolution recursion.
    """
    if n == 0:
        return 1.0
    total = 0.0
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts = []
        size = 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        prob = 1.0
        for k in parts:
            prob *= interarrival_pmf(spec, k)
        total += prob
    return total


class TestRenewalProbabilities:
    def test_first_values(self):
        spec = HazardSpec(0.7, 0.3)
        u = renewal_probabilities(spec, 1).values
        assert u[0] == 1.0
        assert u[1] == pytest.approx(0.21, abs=1e-15)

    def test_matches_path_enumeration(self):
        """Composition-enumeration oracle, n <= 6."""
        for spec in (HazardSpec(1.0, 0.25), HazardSpec(0.6, 0.4), HazardSpec(0.3, 0.7)):
            u = renewal_probabilities(spec, 6).values
            for n in range(7):
                assert u[n] == pytest.approx(_u_by_enumeration(spec, n), rel=1e-12)

    def test_hand_value_n2(self):
        # f_1^2 + f_2 = 0.0625 + 0.046875
        u = renewal_probabilities(HazardSpec(1.0, 0.25), 2).values
        assert u[2] == pytest.approx(0.109375, abs=1e-15)

    def test_supermultiplicative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            spec = HazardSpec(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.05, 0.9)))
            u = renewal_probabilities(spec, 40).values
            for n in range(1, 40):
                for m in range(1, 41 - n):
                    assert u[n + m] >= u[n] * u[m] * (1.0 - 1e-12)

    def test_values_are_probabilities_and_frozen(self):
        probs = renewal_probabilities(HazardSpec(0.9, 0.5), 100)
        assert np.all(probs.values >= 0.0) and np.all(probs.values <= 1.0)
        assert probs.horizon == 100
        with pytest.raises(ValueError):
            probs.values[3] = 0.5

    def test_negative_horizon(self):
        with pytest.raises(ParameterError):
            renewal_probabilities(HazardSpec(0.5, 0.5), -1)


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def _full_recursion(f: np.ndarray, stop_above: float = math.inf) -> np.ndarray:
    """u_n = sum_{k=1}^{n} f_k u_{n-k} over every gap as a numpy dot, nothing carried.

    Stops at the first n >= 1 with u_n > stop_above and returns u_0..u_n.
    """
    reversed_f = f[::-1].copy()  # f_n, ..., f_1 as one contiguous slice
    top = len(f) - 1
    u = np.zeros(len(f))
    u[0] = 1.0
    for n in range(1, len(f)):
        u[n] = reversed_f[top - n : top] @ u[:n]
        if u[n] > stop_above:
            return u[: n + 1]
    return u


def _full_sequence_rule(v) -> Growth:
    """growth_classifier's rule applied to a whole sequence v_0..v_N."""
    v = np.asarray(v)
    N = len(v) - 1
    if np.any(v[1:] > 1.0):
        return Growth.SUPERCRITICAL
    tail = v[max(0, N - max(2, N // 4)) :]
    if np.all(tail < 1.0) and np.all(tail[1:] <= (1.0 - 1e-6) * tail[:-1]):
        return Growth.SUBCRITICAL
    return Growth.INDETERMINATE


def _relative_difference(v, w) -> float:
    """max |v_n - w_n| / w_n over the normal floats w_n; below them |v_n - w_n| < tiny."""
    v, w = np.asarray(v), np.asarray(w)
    assert len(v) == len(w)
    normal = w >= TINY
    assert np.all(np.abs(v - w)[~normal] < TINY)
    return float(np.max(np.abs(v - w)[normal] / w[normal]))


def _oracle_sequence(c: float, q: float, alpha: float, N: int, mpmath) -> list:
    """v_0..v_N at 60 digits, from gaps built exactly from the same float c, q and alpha."""
    C, Q, A = mpmath.mpf(c), mpmath.mpf(q), mpmath.mpf(alpha)
    gaps = [mpmath.mpf(0)]
    scale, qk, surv = A * Q, Q, mpmath.mpf(1)
    for _ in range(N):
        gaps.append(C * scale * surv)
        surv *= 1 - C * qk
        qk *= Q
        scale *= A * Q
    v = [mpmath.mpf(1)]
    for n in range(1, N + 1):
        v.append(mpmath.fsum(gaps[k] * v[n - k] for k in range(1, n + 1)))
    return v


# The kernel's relative error against the 60-digit oracle, in units of eps;
# the worst case on the grid below is 94.
ORACLE_BOUND_EPS = 128


class TestRenewalRecursion:
    @pytest.mark.parametrize("d", [2, 10])
    @pytest.mark.parametrize("c", [0.25, 1.0])
    @pytest.mark.parametrize("ratio", [0.95, 1.05])
    def test_geometric_tail_matches_the_full_recursion(self, d, c, ratio):
        """growth_sequence within 1e-12 of the O(N^2) loop over all 5000 gaps; same verdict."""
        spec = HazardSpec(c, solve_qc(d, c).q_c * ratio)
        g = pmf_sequence(spec, 5000, d)
        assert len(gap_head(spec, 5000, d)) <= 54  # the tail carries the other gaps
        full = _full_recursion(g)
        assert _relative_difference(growth_sequence(d, spec, 5000), full) <= 1e-12
        verdict = growth_classifier(d, spec, 5000)
        assert verdict is _full_sequence_rule(full)
        expected = Growth.SUBCRITICAL if ratio < 1.0 else Growth.SUPERCRITICAL
        assert verdict is expected

    @pytest.mark.parametrize("alpha", [1, 3, 1000])
    @pytest.mark.parametrize("q", [0.05, 0.25, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("c", [1.0, 0.3, 1e-9])
    def test_against_a_60_digit_oracle(self, c, q, alpha):
        """Every v_n before the first overflow within ORACLE_BOUND_EPS of the exact sequence.

        At q = 0.9 and 0.999, k* > N and the head is the whole sum.  At
        alpha = 1000 (and at alpha = 3, q >= 0.5) alpha q > 1, and at
        alpha = 1000 the sequence overflows before N = 200.  A head gap
        overflows with its majorant c (alpha q)^k, which folds c in, so at
        c = 1e-9 the sequence overflows at the same n as the exact one.
        """
        mpmath = pytest.importorskip("mpmath")
        N = 200
        spec = HazardSpec(c, q)
        v = _renewal_recursion(gap_head(spec, N, alpha), alpha * q, N)
        assert not any(math.isnan(x) for x in v)
        finite = [x for x in v if math.isfinite(x)]
        assert v[: len(finite)] == finite  # inf only from the first overflow on
        with mpmath.workdps(60):
            exact = _oracle_sequence(c, q, alpha, N, mpmath)
            for n, x in enumerate(finite):
                assert abs(mpmath.mpf(x) - exact[n]) <= ORACLE_BOUND_EPS * EPS * exact[n], n

    def test_one_gap_is_all_tail(self):
        """Gaps a r^(j-1) have v_n = a (a + r)^(n-1), exact in binary for a = 1/4, r = 1/2."""
        v = _renewal_recursion([0.25], 0.5, 30)
        assert v == [1.0] + [0.25 * 0.75 ** (n - 1) for n in range(1, 31)]
        # the same law with an explicit head
        head = [0.25 * 0.5**j for j in range(5)]
        assert _renewal_recursion(head, 0.5, 30) == v

    def test_an_underflowed_survival_product_ends_the_head(self):
        """At c = 1, q = 0.999 the product underflows at k = 353; every gap past it is 0."""
        spec = HazardSpec(1.0, 0.999)
        f = pmf_sequence(spec, 1000)
        head = gap_head(spec, 1000)
        assert len(head) == 353 and head[-1] == 0.0 < head[-2]
        assert np.all(f[353:] == 0.0)
        assert list(f[1:354]) == head
        u = renewal_probabilities(spec, 1000).values
        assert _relative_difference(u, _full_recursion(f)) <= 1e-12

    def test_stop_above_returns_the_prefix_through_the_first_exceedance(self):
        # f_k = 0.5 for every k: u = 1, 0.5, 0.75, 1.125, ...
        full = _full_recursion(np.array([0.0, 0.5, 0.5, 0.5, 0.5]))
        assert _renewal_recursion([0.5], 1.0, 4, stop_above=1.0) == list(full[:4])
        assert _renewal_recursion([0.5], 1.0, 4, stop_above=10.0) == list(full)
        # u_2 = 1 exactly is not an exceedance
        assert _renewal_recursion([0.5, 0.75, 0.1], 0.5, 3, stop_above=1.0) == [1.0, 0.5, 1.0, 0.975]
        # a nan, which only inf * 0 in a gap can make, counts as an exceedance
        v = _renewal_recursion([0.5, math.nan], 0.5, 5)
        assert v[:2] == [1.0, 0.5] and len(v) == 3 and math.isnan(v[2])


def _gaps_loop(spec: HazardSpec, N: int, alpha: float) -> np.ndarray:
    """alpha^k f_k = c (alpha q)^k prod_{i<k}(1 - c q^i) in the kernel's scalar arithmetic.

    The majorant c (alpha q)^k is a running product; each survival factor
    takes q**k from pow.
    """
    c, q = spec.c, spec.q
    g = np.zeros(N + 1)
    aq = alpha * q
    scale = c * aq
    surv = 1.0
    for k in range(1, N + 1):
        g[k] = scale * surv
        surv *= 1.0 - c * q**k
        scale *= aq
    return g


def _running_form_head(d: int, spec: HazardSpec, N: int) -> list[float]:
    """The gap head with running (d q)^k and q^k and c applied last, an independent form.

    It ends where that form's survival product stops changing, as gap_head does.
    """
    c, q = spec.c, spec.q
    head = []
    scale = qk = surv = 1.0
    for k in range(1, N + 1):
        scale *= d * q
        qk *= q
        head.append(c * scale * surv)
        factor = 1.0 - c * qk
        if factor == 1.0 or surv == 0.0:
            break
        surv *= factor
    return head


_SWEEP_CELLS = list(itertools.product((2, 3, 5, 10, 30, 100), (0.25, 0.5, 1.0)))  # (d, c)


def _sweep_grid():
    """18 (d, c) cells x q_c * {0.8, .., 1.2} x N in {200, 5000}: 216 calls."""
    for d, c in _SWEEP_CELLS:
        qc = solve_qc(d, c).q_c
        for ratio, N in itertools.product((0.8, 0.95, 0.99, 1.01, 1.05, 1.2), (200, 5000)):
            yield d, HazardSpec(c, qc * ratio), N


class TestTiltedGaps:
    """pmf_sequence(spec, N, d), the gaps of growth_sequence and growth_classifier."""

    def test_bit_equal_to_the_scalar_loop_on_the_sweep_grid(self):
        calls = 0
        for d, spec, N in _sweep_grid():
            assert np.array_equal(pmf_sequence(spec, N, d), _gaps_loop(spec, N, d))
            calls += 1
        assert calls == 216

    @pytest.mark.parametrize(
        "d, c, q, N",
        [
            (2, 1.0, 0.3, 0),
            (2, 1.0, 0.3, 1),
            (2, 1.0, 0.999999, 5000),
            (2, 1.0, 0.6, 5000),  # d q > 1: c (d q)^k overflows to inf
            (1000, 0.3, 0.7, 3000),
            (3, 1e-9, 0.2, 400),
        ],
    )
    def test_bit_equal_to_the_scalar_loop_at_the_edges(self, d, c, q, N):
        spec = HazardSpec(c, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaps = pmf_sequence(spec, N, d)
        assert gaps.tobytes() == _gaps_loop(spec, N, d).tobytes()

    def test_classifier_matches_the_full_recursion_and_the_running_form_on_the_sweep_grid(self):
        """Per call: the verdict of the O(N^2) loop over all gaps, within 1e-12 of its values.

        Taking q^k from a running product in place of pow, with c applied
        last, moves no verdict either.
        """
        worst = 0.0
        calls = 0
        for d, spec, N in _sweep_grid():
            verdict = growth_classifier(d, spec, N)
            full = _full_recursion(pmf_sequence(spec, N, d), stop_above=1.0)
            assert verdict is _full_sequence_rule(full)
            v = _renewal_recursion(gap_head(spec, N, d), d * spec.q, N, stop_above=1.0)
            worst = max(worst, _relative_difference(v, full))
            running = _renewal_recursion(_running_form_head(d, spec, N), d * spec.q, N, 1.0)
            assert verdict is _full_sequence_rule(running)
            calls += 1
        assert calls == 216
        assert worst <= 1e-12


def _kernel_cases():
    """(c, q, alpha): the sweep grid's 18 (d, q_c) cells at alpha = d, and gamma --c 0.3 --q 0.6."""
    for d, c in _SWEEP_CELLS:
        yield c, solve_qc(d, c).q_c, d
    yield 0.3, 0.6, convergence_rate(HazardSpec(0.3, 0.6)).gamma


class TestOneGapKernel:
    """The solver's series and the gap sequences read their terms from one loop."""

    def test_generating_function_sums_the_gaps_of_pmf_sequence(self):
        for c, q, alpha in _kernel_cases():
            value, K = _generating_function(c, q, alpha, 1e-14)
            total = 0.0
            for gap in pmf_sequence(HazardSpec(c, q), K, alpha)[1:]:
                total += float(gap)  # left to right, as the series adds them
            assert value == total, (c, q, alpha)

    def test_interarrival_pmf_is_the_gap_of_pmf_sequence(self):
        for c, q, _ in _kernel_cases():
            spec = HazardSpec(c, q)
            gaps = pmf_sequence(spec, 60)
            assert [interarrival_pmf(spec, k) for k in range(1, 61)] == list(gaps[1:]), (c, q)


class TestGeneratingFunction:
    def test_at_one_equals_total_mass(self):
        """F(1) = P(T < inf) = 1 - defect, strictly below 1."""
        rng = np.random.default_rng(5)
        for _ in range(8):
            spec = HazardSpec(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.05, 0.9)))
            f1 = generating_function(spec, 1.0, 1e-13)
            assert f1 < 1.0
            assert f1 == pytest.approx(1.0 - defect_mass(spec, 1e-13), abs=1e-12)

    def test_against_extended_precision_sum(self):
        """Frozen 1e4-term mpmath sum at c=1, q=0.25, alpha=2."""
        got = generating_function(HazardSpec(1.0, 0.25), 2.0, 1e-13)
        assert got == pytest.approx(GENFUNC_C1_Q025_A2, abs=1e-12)

    def test_divergence_domain_error(self):
        spec = HazardSpec(1.0, 0.25)
        with pytest.raises(ParameterError):
            generating_function(spec, 4.0)
        with pytest.raises(ParameterError):
            generating_function(spec, 5.0)

    def test_grows_without_bound_near_radius(self):
        spec = HazardSpec(1.0, 0.25)
        values = [
            generating_function(spec, (1.0 - eps) / spec.q, 1e-6)
            for eps in (1e-1, 1e-2, 1e-3)
        ]
        assert values[0] < values[1] < values[2]
        assert values[2] > 100.0

    def test_strictly_increasing_in_alpha(self):
        spec = HazardSpec(0.8, 0.3)
        grid = np.linspace(1.0, 1.0 / spec.q - 1e-3, 40)
        vals = [generating_function(spec, float(a), 1e-12) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestConvergenceRate:
    def test_root_residual(self):
        res = convergence_rate(HazardSpec(1.0, 0.25))
        assert abs(generating_function(HazardSpec(1.0, 0.25), res.gamma, 1e-13) - 1.0) < 1e-10

    def test_random_specs_meet_tolerance(self):
        """Root residual across 100 random hazard laws."""
        rng = np.random.default_rng(77)
        for _ in range(100):
            spec = HazardSpec(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 0.95)))
            res = convergence_rate(spec)
            assert res.residual <= 1e-10
            assert 1.0 < res.gamma < 1.0 / spec.q
            assert res.bracket[0] <= res.gamma <= res.bracket[1]

    def test_matches_tree_degree_at_critical_point(self):
        """At q = q_c(d, c) the decay rate equals d."""
        qc = solve_qc(2, 1.0).q_c
        res = convergence_rate(HazardSpec(1.0, qc))
        assert res.gamma == pytest.approx(2.0, abs=1e-6)

    def test_log_rate_matches_long_horizon_decay(self):
        """-log(u_n)/n converges to log(gamma) at first order."""
        spec = HazardSpec(1.0, solve_qc(2, 1.0).q_c)
        res = convergence_rate(spec)
        u200 = renewal_probabilities(spec, 200).values[200]
        assert abs(-math.log(u200) / 200 - math.log(res.gamma)) < 0.01

    def test_continuity_in_q(self):
        """Small perturbations of q move gamma by o(1): smoke test."""
        q = solve_qc(2, 1.0).q_c
        base = convergence_rate(HazardSpec(1.0, q)).gamma
        for dq in (+1e-6, -1e-6):
            moved = convergence_rate(HazardSpec(1.0, q + dq)).gamma
            assert abs(moved - base) < 1e-3

    @pytest.mark.parametrize("q", [1e-6, 1e-8, 1e-13])
    def test_small_q_brackets_below_the_radius(self, q):
        """1/q - 1e-12 rounds to 1/q at small q; the bracket must stay below it.

        At c = 1 the root F(gamma) = gamma q/(1 - gamma q) * (1 - O(q)) = 1
        gives gamma q -> 1/2 as q -> 0.
        """
        spec = HazardSpec(1.0, q)
        res = convergence_rate(spec)
        assert abs(generating_function(spec, res.gamma, 1e-15) - 1.0) <= 1e-12
        assert res.residual <= 1e-12
        assert abs(res.gamma * q - 0.5) <= 1e-5

    @pytest.mark.parametrize("c,q", [(0.01, 1e-308), (1.0, 5.6e-309), (0.5, 5.6e-309), (0.01, 5.6e-309)])
    def test_rate_near_the_float_maximum_solves(self, c, q):
        """The bracket nears 1.8e308, where lo + hi overflows; the midpoint must not.

        As q -> 0, F(gamma) = c gamma q/(1 - gamma q) = 1 gives gamma q -> 1/(1 + c).
        """
        res = convergence_rate(HazardSpec(c, q))
        assert res.residual <= 1e-12
        assert abs(res.gamma * q * (1.0 + c) - 1.0) <= 1e-12

    def test_sign_test_raises_past_the_term_cap(self, monkeypatch):
        """A sign that needs more terms than the cap is refused; one within it is unchanged."""
        far, near = (1.0, 0.25, 2.0), (1e-3, 0.3, convergence_rate(HazardSpec(1e-3, 0.3)).gamma)
        signs = _series_exceeds_one(*far), _series_exceeds_one(*near)
        monkeypatch.setattr(renewal, "_MAX_SERIES_TERMS", 1000)
        assert _series_exceeds_one(*far) == signs[0]
        with pytest.raises(ParameterError, match="needs over 1000 terms"):
            _series_exceeds_one(*near)

    @pytest.mark.parametrize("q", [1e-310, 5e-324])
    def test_subnormal_q_is_rejected_for_its_unrepresentable_rate(self, q):
        """1/q overflows, so gamma ~ 1/(2q) has no float; the error must say so."""
        with pytest.raises(ParameterError, match="1/q overflows"):
            convergence_rate(HazardSpec(1.0, q))


class TestGrowthClassifier:
    def test_supercritical_above_upper_bound(self):
        # q = 0.35 exceeds the d=2 upper bound 0.2772
        assert growth_classifier(2, HazardSpec(1.0, 0.35), 200) is Growth.SUPERCRITICAL

    def test_subcritical_below_lower_bound(self):
        # q = 0.18 sits below the d=2 lower bound 0.2696
        assert growth_classifier(2, HazardSpec(1.0, 0.18), 200) is Growth.SUBCRITICAL

    def test_indeterminate_at_the_critical_point(self):
        qc = solve_qc(2, 1.0).q_c
        assert growth_classifier(2, HazardSpec(1.0, qc), 200) is Growth.INDETERMINATE

    def test_sequence_definition(self):
        spec = HazardSpec(1.0, 0.2)
        v = growth_sequence(2, spec, 50)
        u = renewal_probabilities(spec, 50).values
        np.testing.assert_allclose(v, [2.0**n * u[n] for n in range(51)], rtol=1e-10)

    def test_long_supercritical_horizon_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = growth_classifier(2, HazardSpec(1.0, 0.35), 10_000)
        assert verdict is Growth.SUPERCRITICAL

    @pytest.mark.parametrize(
        "d, c, ratio, N",
        [(2, 1.0, None, 10_000)]  # q = 0.35
        + [(d, c, 1.2, 5000) for d in (2, 5, 100) for c in (0.25, 1.0)],
    )
    def test_sequence_overflow_raises_at_its_first_index(self, d, c, ratio, N):
        """The n named is the first non-finite term of the unguarded recursion."""
        spec = HazardSpec(c, 0.35 if ratio is None else solve_qc(d, c).q_c * ratio)
        unguarded = _renewal_recursion(gap_head(spec, N, d), d * spec.q, N)
        first = next(n for n, x in enumerate(unguarded) if not math.isfinite(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"overflows at n = {first} .*growth_classifier"
            with pytest.raises(ParameterError, match=message):
                growth_sequence(d, spec, N)
        assert growth_classifier(d, spec, N) is Growth.SUPERCRITICAL

    def test_horizon_one_judges_two_values(self):
        """v_0 = 1 and v_1 = 0.2: one step cannot show a decrease below 1."""
        spec = HazardSpec(1.0, 0.1)
        assert growth_classifier(2, spec, 1) is Growth.INDETERMINATE
        assert growth_classifier(2, spec, 2) is Growth.INDETERMINATE

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("q", [0.01, 0.1, 0.2, 0.35])
    def test_short_horizons_follow_the_full_sequence_rule(self, q, N):
        spec = HazardSpec(1.0, q)
        assert growth_classifier(2, spec, N) is _full_sequence_rule(growth_sequence(2, spec, N))

    def test_validation(self):
        with pytest.raises(ParameterError):
            growth_classifier(2, HazardSpec(0.5, 0.5), 0)
        with pytest.raises(ParameterError):
            growth_sequence(1, HazardSpec(0.5, 0.5), 10)

    @pytest.mark.parametrize(
        "function, d, N, message",
        [
            (growth_sequence, 1, 10, "d must be an integer >= 2, got 1"),
            (growth_sequence, 2.5, 10, "d must be an integer >= 2, got 2.5"),
            (growth_sequence, 2, -1, "N must be >= 0, got -1"),
            (growth_classifier, 1, 10, "d must be an integer >= 2, got 1"),
            (growth_classifier, 2.5, 10, "d must be an integer >= 2, got 2.5"),
            (growth_classifier, 2, 0, "N must be >= 1, got 0"),
        ],
    )
    def test_degree_and_horizon_are_checked_before_the_gaps_are_built(
        self, function, d, N, message
    ):
        """pmf_sequence takes any alpha, so each entry point checks d and N itself."""
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            function(d, HazardSpec(0.5, 0.5), N)


def test_bracket_error_is_reachable_only_by_construction():
    # valid specs always have F(1) < 1, so the solver brackets; the error
    # type still exists for internal-invariant violations
    assert issubclass(BracketError, RuntimeError)
