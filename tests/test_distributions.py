"""Tests for the geometric-hazard gap law."""

import math
import random
import sys
import time

import numpy as np
import pytest

from frogcrit import (
    HazardSpec,
    ParameterError,
    TreeParams,
    defect_mass,
    generating_function,
    interarrival_pmf,
    interarrival_survival,
    invert_bounds_c2,
    solve_qc,
    survival_series,
)
from frogcrit import distributions
from frogcrit.distributions import gap_head, pmf_sequence

from reference_tables import DEFECT_C1_Q05, POCHHAMMER_03_09_50


def random_specs(count, seed=20240613, c_lo=0.05, q_hi=0.95):
    rng = np.random.default_rng(seed)
    return [
        HazardSpec(float(rng.uniform(c_lo, 1.0)), float(rng.uniform(0.02, q_hi)))
        for _ in range(count)
    ]


class TestSurvivalProduct:
    """interarrival_survival is the survival product S_n that _tilted_gaps carries."""

    def test_bit_equal_to_the_left_to_right_product(self):
        random.seed(1)
        for _ in range(2000):
            c, q, n = random.uniform(0.01, 1), random.uniform(0.01, 0.99), random.randint(2, 60)
            want = 1.0
            for i in range(1, n):
                want *= 1.0 - c * q**i
            assert interarrival_survival(HazardSpec(c, q), n) == want, (c, q, n)

    def test_against_extended_precision_loop(self):
        """Frozen value of the 50-factor product prod_{i<50}(1 - 0.3 * 0.9^i) (mpmath)."""
        spec = HazardSpec(0.3 / 0.9, 0.9)
        assert interarrival_survival(spec, 51) == pytest.approx(POCHHAMMER_03_09_50, abs=1e-12)

    @pytest.mark.parametrize(
        "c, q, n",
        [(1.0, 0.95, 401), (0.5, 0.99, 2001), (0.1 / 0.999999, 0.999999, 3001), (0.3 / 0.999, 0.999, 2001)],
    )
    def test_long_product_near_q_one_against_oracle(self, c, q, n):
        """The n - 1 factor product within 1e-14 of a 60-digit product of the same floats.

        Each factor takes q**i from pow, one rounding where a running q^i
        carries about i; that running form reads 3e-13 and 5e-13 in the
        last two cases.
        """
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            want = mpmath.mpf(1)
            t = mpmath.mpf(c) * mpmath.mpf(q)
            for _ in range(n - 1):
                want *= 1 - t
                t *= q
            got = mpmath.mpf(interarrival_survival(HazardSpec(c, q), n))
            assert abs(got - want) <= 1e-14 * want

    def test_nonincreasing_in_n_and_c(self):
        for q in (0.1, 0.5, 0.9, 0.97):
            for c in (0.05, 0.3, 0.8):
                vals = [interarrival_survival(HazardSpec(c, q), n) for n in range(1, 13)]
                assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))
            for n in (2, 6, 21):
                vals = [interarrival_survival(HazardSpec(float(c), q), n)
                        for c in np.linspace(0.05, 1.0, 12)]
                assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_reads_the_kernel_only_until_its_values_stop_changing(self, monkeypatch):
        """Survival stops at the first frozen k, the pmf at its first 0.0 gap (k = 1074 here)."""
        kernel, reads = distributions._tilted_gaps, []

        def counting(*args):
            reads.append(0)
            for item in kernel(*args):
                reads[-1] += 1
                assert reads[-1] <= 10**5, "read more than 10^5 kernel items"
                yield item

        monkeypatch.setattr(distributions, "_tilted_gaps", counting)
        spec = HazardSpec(0.5, 0.5)
        at_100 = interarrival_survival(spec, 100)
        assert interarrival_survival(spec, 10**7) == at_100
        assert 1 <= reads[-1] <= 60
        assert interarrival_pmf(spec, 10**7) == 0.0
        assert reads[-1] <= 1100
        assert interarrival_survival(spec, 10**30) == at_100
        assert interarrival_pmf(spec, 10**30) == 0.0

    def test_integer_arguments(self):
        spec = HazardSpec(0.5, 0.5)
        assert interarrival_survival(spec, np.int64(5)) == interarrival_survival(spec, 5)
        assert interarrival_pmf(spec, np.int64(5)) == interarrival_pmf(spec, 5)
        with pytest.raises(ParameterError, match="^n must be an integer >= 1, got 2.5$"):
            interarrival_survival(spec, 2.5)
        with pytest.raises(ParameterError, match="^k must be an integer >= 1, got 2.5$"):
            interarrival_pmf(spec, 2.5)
        with pytest.raises(ParameterError, match="^n must be >= 1, got 0$"):
            interarrival_survival(spec, 0)
        with pytest.raises(ParameterError, match="^k must be an integer >= 1, got 2.5$"):
            spec.hazard(2.5)


class TestTermCap:
    """A survival or pmf walk past _MAX_SERIES_TERMS steps raises ParameterError."""

    @pytest.mark.parametrize("function", [interarrival_survival, interarrival_pmf])
    def test_a_walk_sure_to_pass_the_cap_raises_at_once(self, function):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="^q=0.999999999 is too close to 1 for c=1e-12"):
            function(HazardSpec(1e-12, 1 - 1e-9), 10**30)
        assert time.perf_counter() - start < 1.0

    def test_a_long_walk_within_the_cap_keeps_its_value(self):
        """About 10^6 steps to k*, the value the uncapped walk returned."""
        got = interarrival_survival(HazardSpec(1e-12, 1 - 1e-5), 10**30)
        assert got == float.fromhex("0x1.fffffca50c527p-1")

    @pytest.mark.parametrize("function", [interarrival_survival, interarrival_pmf])
    def test_a_product_that_underflows_fast_is_not_refused(self, function):
        """At c = 1 the first factors 1 - q^i are near 0, so S_k is 0.0 long before k*."""
        assert function(HazardSpec(1.0, 1 - 1e-9), 10**30) == 0.0

    @pytest.mark.parametrize("function, spec, within, value", [
        # S_k stalls at 1e-323 in the subnormals from k = 1840 until k* = 73,456
        (interarrival_survival, HazardSpec(0.5, 0.9995), 9000, 1e-323),
        # the gap stalls at 2.5e-323 from k = 7005 on and never reaches 0.0
        (interarrival_pmf, HazardSpec(0.01, 0.9), 9000, 2.5e-323),
    ])
    def test_a_walk_stalled_in_the_subnormals_raises_at_the_cap(
            self, function, spec, within, value, monkeypatch):
        monkeypatch.setattr(distributions, "_MAX_SERIES_TERMS", 10**4)
        assert function(spec, within) == value
        with pytest.raises(ParameterError, match="needs more than 10000 terms$"):
            function(spec, 10**30)


class TestInterarrival:
    def test_pmf_first_gap(self):
        # k = 1 carries the empty product: f_1 = c*q
        spec = HazardSpec(0.7, 0.3)
        assert interarrival_pmf(spec, 1) == pytest.approx(0.21, abs=1e-15)

    def test_pmf_hand_expansion(self):
        # 0.25^3 * (1 - 0.25)(1 - 0.0625)
        spec = HazardSpec(1.0, 0.25)
        assert interarrival_pmf(spec, 3) == pytest.approx(0.010986328125, abs=1e-15)

    def test_survival_starts_at_one(self):
        for spec in random_specs(10):
            assert interarrival_survival(spec, 1) == 1.0

    def test_survival_hand_product(self):
        spec = HazardSpec(1.0, 0.25)
        assert interarrival_survival(spec, 3) == pytest.approx(0.703125, abs=1e-15)

    def test_survival_decreasing_and_above_defect(self):
        # strict decrease is only visible while the hazard c q^n clears
        # machine epsilon; the computed defect overshoots the true limit
        # by up to its truncation tolerance, hence the slacks
        for spec in random_specs(5):
            d = defect_mass(spec, 1e-13)
            prev = interarrival_survival(spec, 1)
            for n in range(2, 40):
                cur = interarrival_survival(spec, n)
                if spec.hazard(n - 1) > 1e-14:
                    assert cur < prev
                else:
                    assert cur <= prev
                assert cur >= d - 1e-12
                prev = cur

    def test_pmf_is_survival_difference(self):
        for spec in random_specs(8):
            for n in range(1, 51):
                diff = interarrival_survival(spec, n) - interarrival_survival(spec, n + 1)
                assert diff == pytest.approx(interarrival_pmf(spec, n), abs=1e-15)

    def test_pmf_is_hazard_times_survival(self):
        for spec in random_specs(8):
            for k in range(1, 40):
                want = spec.hazard(k) * interarrival_survival(spec, k)
                assert interarrival_pmf(spec, k) == pytest.approx(want, rel=1e-13)

    def test_telescoping_mass_split(self):
        """sum_{k<=K} f_k + P(T >= K+1) telescopes to exactly 1."""
        for spec in random_specs(6):
            total = sum(interarrival_pmf(spec, k) for k in range(1, 201))
            assert total + interarrival_survival(spec, 201) == pytest.approx(1.0, abs=1e-12)

    def test_mass_split_long_horizon(self):
        spec = HazardSpec(1.0, 0.95)
        total = sum(interarrival_pmf(spec, k) for k in range(1, 1001))
        assert total + interarrival_survival(spec, 1001) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        spec = HazardSpec(0.5, 0.5)
        with pytest.raises(ParameterError):
            interarrival_pmf(spec, 0)
        with pytest.raises(ParameterError):
            interarrival_survival(spec, 0)
        with pytest.raises(ParameterError):
            spec.hazard(0)


class TestDefectMass:
    def test_approaches_one_for_vanishing_q(self):
        assert defect_mass(HazardSpec(1.0, 1e-9)) == pytest.approx(1.0, abs=1e-8)

    def test_against_extended_precision_product(self):
        """Frozen value of the 200-term product at c=1, q=0.5 (mpmath)."""
        assert defect_mass(HazardSpec(1.0, 0.5), 1e-12) == pytest.approx(
            DEFECT_C1_Q05, abs=1e-12
        )

    def test_long_product_near_q_one(self):
        # defect_mass multiplies about 640 factors at q = 0.95; cross-check against mpmath
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        want = mp.mpf(1)
        for i in range(1, 2000):
            want *= 1 - mp.mpf("0.95") ** i
        got = defect_mass(HazardSpec(1.0, 0.95), 1e-13)
        assert got == pytest.approx(float(want), abs=1e-12)

    def test_positive_everywhere(self):
        for spec in random_specs(40, q_hi=0.98):
            assert defect_mass(spec, 1e-10) > 0.0

    def test_complements_total_pmf_mass(self):
        for spec in random_specs(6, q_hi=0.8):
            tol = 1e-10
            total = sum(interarrival_pmf(spec, k) for k in range(1, 400))
            assert total == pytest.approx(1.0 - defect_mass(spec, tol), abs=100 * tol)

    def test_tol_validation(self):
        with pytest.raises(ParameterError):
            defect_mass(HazardSpec(0.5, 0.5), 0.0)

    @pytest.mark.parametrize("c", [1.0, 0.5, 1e-3])
    @pytest.mark.parametrize("q", [1e-9, 0.3, 0.9, 0.999, 0.9999])
    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
    def test_binary_search_finds_the_index_of_the_linear_search(self, c, q, tol):
        K = 1
        while c * q ** (K + 1) / ((1.0 - q) * (1.0 - c * q ** (K + 1))) > tol:
            K += 1
        spec = HazardSpec(c, q)
        assert defect_mass(spec, tol) == interarrival_survival(spec, K + 1)

    @pytest.mark.parametrize("q", [1 - 1e-7, 1 - 1e-9, 1 - 2**-53])
    def test_an_index_past_the_term_cap_fails_fast(self, q):
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="too close to 1"):
            defect_mass(HazardSpec(1.0, q))
        assert time.perf_counter() - start < 1.0


TOL_CALLS = {
    "solve_qc": lambda tol: solve_qc(2, 1.0, tol),
    "invert_bounds_c2": lambda tol: invert_bounds_c2(2, 1.0, tol),
    "survival_series": lambda tol: survival_series(2, 1.0, 0.2, tol),
    "generating_function": lambda tol: generating_function(HazardSpec(1.0, 0.3), 2.0, tol),
    "defect_mass": lambda tol: defect_mass(HazardSpec(1.0, 0.3), tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-12])
@pytest.mark.parametrize("name", sorted(TOL_CALLS))
def test_every_tolerance_outside_zero_to_inf_is_refused(name, tol):
    """nan compares false with everything, so only `0 < tol < inf` refuses it."""
    with pytest.raises(ParameterError, match=r"^tol must be in \(0, inf\), got "):
        TOL_CALLS[name](tol)


class TestSpecValidation:
    def test_hazard_spec_ranges(self):
        with pytest.raises(ParameterError):
            HazardSpec(0.0, 0.5)
        with pytest.raises(ParameterError):
            HazardSpec(1.5, 0.5)
        with pytest.raises(ParameterError):
            HazardSpec(0.5, 0.0)
        with pytest.raises(ParameterError):
            HazardSpec(0.5, 1.0)

    def test_tree_params_ranges(self):
        with pytest.raises(ParameterError):
            TreeParams(1, 0.5, 0.3)
        with pytest.raises(ParameterError):
            TreeParams(2, 0.5, 0.6)  # d*q > 1
        with pytest.raises(ParameterError):
            TreeParams(2, 1.0, 0.5)  # c*d*q = 1
        params = TreeParams(2, 0.5, 0.5)  # d*q = 1 is allowed when c < 1
        assert params.hazard_spec == HazardSpec(0.5, 0.5)

    def test_tree_params_degree_past_the_largest_float(self):
        """d q overflows for such a d, whatever q; the largest float itself is a degree."""
        top = int(sys.float_info.max)
        assert TreeParams(top, 1.0, 1e-309).d == top
        for d in (top + 1, 10**400):
            with pytest.raises(ParameterError, match="^d must be at most the largest float"):
                TreeParams(d, 1.0, 1e-309)


def test_pmf_sequence_matches_pointwise():
    for spec in random_specs(4, q_hi=0.97):
        seq = pmf_sequence(spec, 60)
        for k in range(1, 61):
            assert seq[k] == pytest.approx(interarrival_pmf(spec, k), rel=1e-12)


@pytest.mark.parametrize("c, q, n", [(1.0, 0.95, 400), (0.5, 0.99, 2000)])
def test_pmf_sequence_near_q_one_against_oracle(c, q, n):
    """Every f_k within 2e-14 of a 50-digit evaluation from the same float c and q."""
    mpmath = pytest.importorskip("mpmath")
    got = pmf_sequence(HazardSpec(c, q), n)
    with mpmath.workdps(50):
        C, Q = mpmath.mpf(c), mpmath.mpf(q)
        surv, qk = mpmath.mpf(1), Q
        for k in range(1, n + 1):
            want = C * qk * surv
            assert abs(mpmath.mpf(got[k]) - want) <= 2e-14 * want, k
            surv *= 1 - C * qk
            qk *= Q


@pytest.mark.parametrize(
    "c, q, bound", [(1.0, 0.999999, 2e-11), (1.0, 0.9999, 5e-13), (0.5, 0.999, 1e-14)]
)
def test_gap_head_near_q_one_against_a_60_digit_oracle(c, q, bound):
    """Every normal gap of gap_head(spec, 200) within bound of the exact f_k of the same floats.

    The error is in 1 - c q**k, which cancels as q -> 1: a running q^k
    would carry about k roundings into it, pow carries one.
    """
    mpmath = pytest.importorskip("mpmath")
    head = gap_head(HazardSpec(c, q), 200)
    with mpmath.workdps(60):
        C, Q = mpmath.mpf(c), mpmath.mpf(q)
        surv, qk = mpmath.mpf(1), Q
        for k, gap in enumerate(head, 1):
            want = C * qk * surv
            if gap >= sys.float_info.min:
                assert abs(mpmath.mpf(gap) - want) <= bound * want, k
            surv *= 1 - C * qk
            qk *= Q
