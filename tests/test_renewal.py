"""Tests for the renewal recursion, generating function, and decay rate."""

import itertools
import math
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
from frogcrit.distributions import pmf_sequence
from frogcrit.renewal import _renewal_recursion, _tilted_gaps

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


TINY = np.finfo(float).tiny


def _full_recursion(f: np.ndarray) -> np.ndarray:
    """u_n = sum_{k=1}^{n} f_k u_{n-k} over every gap, nothing dropped."""
    u = np.zeros(len(f))
    u[0] = 1.0
    for n in range(1, len(f)):
        u[n] = f[1 : n + 1] @ u[n - 1 :: -1]
    return u


def _full_sequence_rule(v: np.ndarray) -> Growth:
    """growth_classifier's rule applied to a whole sequence v_0..v_N."""
    N = len(v) - 1
    if np.any(v[1:] > 1.0):
        return Growth.SUPERCRITICAL
    tail = v[max(0, N - max(2, N // 4)) :]
    if np.all(tail < 1.0) and np.all(tail[1:] <= (1.0 - 1e-6) * tail[:-1]):
        return Growth.SUBCRITICAL
    return Growth.INDETERMINATE


def _last_normal_gap(f: np.ndarray) -> int:
    return int(np.flatnonzero(f[1:] >= TINY)[-1]) + 1


class TestRenewalRecursion:
    @pytest.mark.parametrize("d", [2, 10])
    @pytest.mark.parametrize("c", [0.25, 1.0])
    @pytest.mark.parametrize("ratio", [0.95, 1.05])
    def test_truncation_and_early_exit_change_nothing(self, d, c, ratio):
        """Bit-equal to the full O(N^2) loop; the verdict is the full-sequence rule."""
        spec = HazardSpec(c, solve_qc(d, c).q_c * ratio)
        g = _tilted_gaps(d, spec, 5000)
        assert _last_normal_gap(g) < 5000  # the recursion drops gaps here
        full = _full_recursion(g)
        assert np.array_equal(_renewal_recursion(g), full)
        assert np.array_equal(growth_sequence(d, spec, 5000), full)
        verdict = growth_classifier(d, spec, 5000)
        assert verdict is _full_sequence_rule(full)
        expected = Growth.SUBCRITICAL if ratio < 1.0 else Growth.SUPERCRITICAL
        assert verdict is expected

    @pytest.mark.parametrize("c", [1.0, 0.001])
    def test_truncation_bound_against_mpmath(self, c):
        """|u_n - exact| stays within (n - K) tiny max_{m<n} u_m plus rounding.

        At q = 0.05 the gaps pass below tiny at K = 234..236.  At c = 1 the
        u_n are far above tiny there, at c = 0.001 they are not, and the
        dropped gaps move u_n by up to 80%.  The oracle runs the recursion
        on the same float64 gaps with all N terms at 60 digits.
        """
        mpmath = pytest.importorskip("mpmath")
        N = 500
        spec = HazardSpec(c, 0.05)
        f = pmf_sequence(spec, N)
        K = _last_normal_gap(f)
        assert K < N and np.any((f > 0.0) & (f < TINY))
        u = renewal_probabilities(spec, N).values
        eps = np.finfo(float).eps
        with mpmath.workdps(60):
            gaps = [mpmath.mpf(float(x)) for x in f]
            exact = [mpmath.mpf(1)]
            for n in range(1, N + 1):
                exact.append(mpmath.fsum(gaps[k] * exact[n - k] for k in range(1, n + 1)))
            # dropped amounts are not amplified while the gaps sum below 1
            spread = 1 / (1 - mpmath.fsum(gaps))
            for n in range(1, N + 1):
                dropped = max(n - K, 0) * TINY * max(exact[:n])
                rounding = n * n * eps * exact[n] + n * n * 2.0**-1074
                assert abs(mpmath.mpf(float(u[n])) - exact[n]) <= spread * dropped + rounding
        if c < 1.0:
            assert not np.array_equal(u, _full_recursion(f))

    def test_truncation_rule_on_small_gap_laws(self):
        # f_1 is normal, f_2 and f_3 are not, and u_2, u_3 sit at tiny's scale
        small = 2.0**-1000
        falling = np.array([0.0, small, TINY / 2, TINY / 4])
        assert np.array_equal(_renewal_recursion(falling), [1.0, small, 0.0, 0.0])
        # gaps that rise again past K keep every term
        rising = np.array([0.0, small, TINY / 4, TINY / 2])
        assert np.array_equal(_renewal_recursion(rising), [1.0, small, TINY / 4, TINY / 2])
        # no normal gap at all: K = 0
        assert np.array_equal(_renewal_recursion(np.array([0.0, TINY / 2])), [1.0, 0.0])

    def test_stop_above_returns_the_prefix_through_the_first_exceedance(self):
        f = np.array([0.0, 0.5, 0.5, 0.5, 0.5])  # u = 1, 0.5, 0.75, 1.125, ...
        full = _full_recursion(f)
        assert np.array_equal(_renewal_recursion(f, stop_above=1.0), full[:4])
        assert np.array_equal(_renewal_recursion(f, stop_above=10.0), full)
        # u_2 = 1 exactly is not an exceedance
        f = np.array([0.0, 0.5, 0.75, 0.1])
        assert np.array_equal(_renewal_recursion(f, stop_above=1.0), [1.0, 0.5, 1.0, 0.975])


def _tilted_gaps_loop(d: int, spec: HazardSpec, N: int) -> np.ndarray:
    """g_k = c (d q)^k prod_{i<k}(1 - c q^i) as one scalar running product."""
    c, q = spec.c, spec.q
    g = np.zeros(N + 1)
    scale = 1.0
    surv = 1.0
    for k in range(1, N + 1):
        scale *= d * q
        g[k] = c * scale * surv
        surv *= 1.0 - c * q**k
    return g


class TestTiltedGaps:
    def test_bit_equal_to_the_scalar_loop_on_the_sweep_grid(self):
        """18 (d, c) cells x q_c * {0.8, .., 1.2} x N in {200, 5000}: 216 calls."""
        calls = 0
        for d, c in itertools.product((2, 3, 5, 10, 30, 100), (0.25, 0.5, 1.0)):
            qc = solve_qc(d, c).q_c
            for ratio, N in itertools.product((0.8, 0.95, 0.99, 1.01, 1.05, 1.2), (200, 5000)):
                spec = HazardSpec(c, qc * ratio)
                assert np.array_equal(_tilted_gaps(d, spec, N), _tilted_gaps_loop(d, spec, N))
                calls += 1
        assert calls == 216

    @pytest.mark.parametrize(
        "d, c, q, N",
        [
            (2, 1.0, 0.3, 0),
            (2, 1.0, 0.3, 1),
            (2, 1.0, 0.999999, 5000),  # where a SIMD power can miss pow's last bit
            (2, 1.0, 0.6, 5000),  # d q > 1: (d q)^k overflows, g_k is nan
            (1000, 0.3, 0.7, 3000),
            (3, 1e-9, 0.2, 400),
        ],
    )
    def test_bit_equal_to_the_scalar_loop_at_the_edges(self, d, c, q, N):
        spec = HazardSpec(c, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gaps = _tilted_gaps(d, spec, N)
        assert gaps.tobytes() == _tilted_gaps_loop(d, spec, N).tobytes()


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
        res = convergence_rate(HazardSpec(1.0, 0.25), 1e-10)
        assert abs(generating_function(HazardSpec(1.0, 0.25), res.gamma, 1e-13) - 1.0) < 1e-10

    def test_random_specs_meet_tolerance(self):
        """Root residual across 100 random hazard laws."""
        rng = np.random.default_rng(77)
        for _ in range(100):
            spec = HazardSpec(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 0.95)))
            res = convergence_rate(spec, 1e-10)
            assert res.residual <= 1e-10
            assert 1.0 < res.gamma < 1.0 / spec.q
            assert res.bracket[0] <= res.gamma <= res.bracket[1]

    def test_matches_tree_degree_at_critical_point(self):
        """At q = q_c(d, c) the decay rate equals d."""
        qc = solve_qc(2, 1.0).q_c
        res = convergence_rate(HazardSpec(1.0, qc), 1e-12)
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
        with np.errstate(over="ignore"):
            unguarded = _renewal_recursion(_tilted_gaps(d, spec, N))
        first = int(np.flatnonzero(~np.isfinite(unguarded))[0])
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


def test_bracket_error_is_reachable_only_by_construction():
    # valid specs always have F(1) < 1, so the solver brackets; the error
    # type still exists for internal-invariant violations
    assert issubclass(BracketError, RuntimeError)
