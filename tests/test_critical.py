"""Tests for the critical-parameter solver, bound inversion, and model maps."""

import math
import re
import sys

import numpy as np
import pytest

from frogcrit import (
    BracketError,
    CriticalResult,
    HazardSpec,
    Model,
    ParameterError,
    bounds_on_d,
    cone_percolation_bounds,
    convergence_rate,
    explicit_bounds_c3,
    invert_bounds_c2,
    literature_cone_bounds,
    literature_original_upper,
    literature_self_avoiding_upper,
    original_frog_upper,
    p_of_r,
    r_of_p,
    removal_bounds,
    self_avoiding_upper,
    solve_qc,
    survival_series,
)
from frogcrit import critical
from frogcrit.renewal import _bisect, _series_exceeds_one

from reference_tables import (
    CONE_D2_BOUNDS,
    ORIGINAL_D2_UPPER,
    REMOVAL_D2_BOUNDS,
    SELF_AVOIDING_D2_UPPER,
    SERIES_D3_C1_Q01,
    TABLE_CONE,
)


class TestSurvivalSeries:
    def test_vanishes_with_q(self):
        assert survival_series(2, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_unit_value_at_solved_root(self):
        # the tabulated d=2 interval [0.269594, 0.277206] brackets the
        # unit crossing; the series hits 1 only at the solved root inside
        root = solve_qc(2, 1.0).q_c
        assert survival_series(2, 1.0, root, 1e-13) == pytest.approx(1.0, abs=1e-11)
        assert survival_series(2, 1.0, 0.269594) < 1.0 < survival_series(2, 1.0, 0.277206)

    def test_against_extended_precision_sum(self):
        """Frozen 1e4-term mpmath sum at d=3, c=1, q=0.1."""
        assert survival_series(3, 1.0, 0.1, 1e-13) == pytest.approx(
            SERIES_D3_C1_Q01, abs=1e-12
        )

    def test_divergence_error(self):
        with pytest.raises(ParameterError):
            survival_series(2, 1.0, 0.5)
        with pytest.raises(ParameterError):
            survival_series(3, 0.5, 0.4)


def _q_pochhammer(a: float, q: float) -> float:
    """(a; q)_inf = prod_{i>=0} (1 - a q^i), up to its first factor that rounds to 1."""
    out, qi = 1.0, 1.0
    while 1.0 - a * qi != 1.0:
        out *= 1.0 - a * qi
        qi *= q
    return out


def heine_series(d: int, c: float, q: float) -> float:
    """G(q) by Heine's first transformation; it shares no loop with distributions._tilted_gaps.

    With x = d q, G = c x 2phi1(cq, q; 0; q, x) (Gasper and Rahman, Basic
    Hypergeometric Series, 2nd ed., 2004, section 1.4), which equals
    c x (q;q)_inf (cqx;q)_inf / (x;q)_inf * sum_{n>=0} (x;q)_n q^n / ((q;q)_n (cqx;q)_n).
    Every term is positive and shrinks like q^n, so the sum stops once a term
    no longer moves it, whatever c.
    """
    x = d * q
    y = c * q * x
    total, term, qn = 0.0, 1.0, 1.0
    while total + term != total:
        total += term
        term *= (1.0 - x * qn) * q / ((1.0 - q * qn) * (1.0 - y * qn))
        qn *= q
    return c * x * _q_pochhammer(q, q) * _q_pochhammer(y, q) / _q_pochhammer(x, q) * total


def _ulps(got: float, want: float) -> float:
    return abs(got - want) / math.ulp(want)


HEINE_CELLS = [(d, c, None) for d in (2, 3, 5, 10, 30, 100, 1000) for c in (0.25, 0.5, 1.0)] + [
    (d, c, r / d) for d in (10**4, 10**5, 10**6) for r in (0.3, 0.45, 0.49) for c in (0.25, 0.5, 1.0)
]


class TestHeineForm:
    """survival_series against a second formula for G: the series leg's cross-check.

    A fault in _tilted_gaps, such as starting its product at i = 0, moves
    the series root and the renewal rate together; it does not move Heine's
    value.  Cells without a q are taken at their solved q_c.
    """

    @pytest.mark.parametrize("d, c, q", HEINE_CELLS)
    def test_heine_form_is_within_8_ulp_of_a_60_digit_series(self, d, c, q):
        mpmath = pytest.importorskip("mpmath")
        q = solve_qc(d, c).q_c if q is None else q
        with mpmath.workdps(60):
            C, X = mpmath.mpf(c), d * mpmath.mpf(q)
            total, scale, surv, qk = mpmath.mpf(0), C * X, mpmath.mpf(1), mpmath.mpf(q)
            while scale * X / (1 - X) > mpmath.mpf(10) ** -60:
                total += scale * surv
                surv *= 1 - C * qk
                qk *= q
                scale *= X
            want = float(total)
        assert _ulps(heine_series(d, c, q), want) <= 8  # 6 read

    @pytest.mark.parametrize("d, c, q", HEINE_CELLS)
    def test_survival_series_is_within_64_ulp_of_heine(self, d, c, q):
        q = solve_qc(d, c).q_c if q is None else q
        assert _ulps(survival_series(d, c, q, 1e-15), heine_series(d, c, q)) <= 64  # 60 read

    @pytest.mark.parametrize("c, q_c, bound", [
        # solve_qc(2, c).q_c, stored: it takes ~2 s to solve at c = 1e-4.  The bounds are the
        # distances the term-by-term tail reads; summing the tail in closed form is to bring
        # them to 64 ulp.
        (1e-2, 0.4950964966404773, 28),
        (1e-3, 0.49950099635043377, 365),
        (1e-4, 0.4999500099963351, 4236),
    ])
    def test_survival_series_at_small_c_keeps_its_recorded_distance_to_heine(self, c, q_c, bound):
        assert _ulps(survival_series(2, c, q_c, 1e-15), heine_series(2, c, q_c)) <= bound


def _scan_solve_qc(d, c, tol=1e-12):
    """solve_qc as it was with a 64-point sign scan: the reference of the binary-search bracket."""
    critical._validate_dc(d, c)
    critical.check_tol(tol)
    edge = 1.0 / d
    grid = [edge * j / 65 for j in range(1, 65)]
    signs = [_series_exceeds_one(c, q, d) for q in grid]
    changes = [j for j in range(1, len(signs)) if signs[j] != signs[j - 1]]
    if signs[0]:
        raise BracketError("G already exceeds 1 at the smallest scan point")
    if len(changes) > 1:
        raise BracketError(f"{len(changes)} sign changes of G - 1 detected on (0, 1/d)")
    if changes:
        lo, hi = grid[changes[0] - 1], grid[changes[0]]
    elif not signs[-1] and _series_exceeds_one(c, edge * (1.0 - 1e-9), d):
        lo, hi = grid[-1], edge * (1.0 - 1e-9)
    else:
        raise BracketError("no sign change of G - 1 found on (0, 1/d)")
    series_tol = max(1e-15, tol * 1e-2)

    def converged(lo, hi):
        return hi - lo <= tol and abs(survival_series(d, c, 0.5 * (lo + hi), series_tol) - 1.0) <= tol

    lo, hi = _bisect(lambda q: _series_exceeds_one(c, q, d), lo, hi, converged)
    q_c = 0.5 * (lo + hi)
    residual = abs(survival_series(d, c, q_c, series_tol) - 1.0)
    lower_c3, upper_c3 = explicit_bounds_c3(d, c)
    return CriticalResult(d, c, q_c, residual, *invert_bounds_c2(d, c, tol), lower_c3, upper_c3)


def _outcome(solve, d, c):
    try:
        return solve(d, c)
    except (BracketError, ParameterError) as exc:
        return type(exc), str(exc)


# 24 degrees x 9 scales; c = 0.01 puts the root past the last grid point, c = 1e-12
# leaves no sign change, and d = 10^4 at c = 1 fails the lower-bound ordering
_ORACLE_DEGREES = [*range(2, 22), 50, 100, 1000, 10_000]
_ORACLE_SCALES = [1e-12, 0.01, 0.05, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0]


class TestSolveQc:
    def test_binary_search_bracket_equals_the_scan_on_216_cells(self):
        kinds = set()
        for d in _ORACLE_DEGREES:
            for c in _ORACLE_SCALES:
                expected = _outcome(_scan_solve_qc, d, c)
                assert _outcome(solve_qc, d, c) == expected, (d, c)
                if isinstance(expected, CriticalResult):
                    kinds.add("past last grid point" if expected.q_c > 64 / (65 * d) else "on grid")
                else:
                    kinds.add(expected[1].split(";")[0][:30])
        assert kinds == {"past last grid point", "on grid",
                         "no sign change of G - 1 found ", "lower-bound ordering violated "}

    @pytest.mark.parametrize("d, c", [(2, 1.0), (2, 0.01), (5, 0.3), (100, 1.0), (2, 1e-12)])
    def test_bracket_takes_at_most_eight_sign_tests(self, d, c, monkeypatch):
        calls = []

        class Bracketed(Exception):
            pass

        def counting(*args):
            calls.append(args)
            return _series_exceeds_one(*args)

        def stop_at_the_bisection(*args):
            raise Bracketed

        monkeypatch.setattr(critical, "_series_exceeds_one", counting)
        monkeypatch.setattr(critical, "_bisect", stop_at_the_bisection)
        with pytest.raises((Bracketed, BracketError)):
            solve_qc(d, c)
        assert 1 <= len(calls) <= 8

    def test_d2_lands_in_tabulated_bracket(self):
        res = solve_qc(2, 1.0)
        assert 0.269594 <= res.q_c <= 0.277206
        assert res.residual < 1e-12

    def test_d10_lands_in_tabulated_bracket(self):
        res = solve_qc(10, 1.0)
        assert 0.050649 <= res.q_c <= 0.050684

    def test_within_inverted_bounds_for_partial_activation(self):
        q_lo, q_hi = invert_bounds_c2(2, 0.5)
        res = solve_qc(2, 0.5)
        assert q_lo <= res.q_c <= q_hi

    def test_result_is_ordered_and_in_range(self):
        for d, c in [(2, 1.0), (3, 0.25), (7, 0.6), (50, 1.0)]:
            res = solve_qc(d, c)
            assert 0.0 < res.q_c < 1.0 / d
            assert res.lower_c3 <= res.lower_c2 <= res.q_c <= res.upper_c2
            if d >= 3:
                assert res.upper_c2 <= res.upper_c3
            else:
                assert res.upper_c3 is None

    def test_validation(self):
        with pytest.raises(ParameterError):
            solve_qc(1, 1.0)
        with pytest.raises(ParameterError):
            solve_qc(2, 1.5)
        with pytest.raises(ParameterError):
            solve_qc(2, 1.0, tol=0.0)

    def test_a_degree_past_the_largest_float_is_a_parameter_error(self):
        """1/d overflows for such a d.  At the largest float itself the root lies below the normal
        floats, so the residual series refuses the bracket's midpoint."""
        for d in (int(sys.float_info.max) + 1, 10**400):
            with pytest.raises(ParameterError, match="^d must be at most the largest float"):
                solve_qc(d, 1.0)
        with pytest.raises(ParameterError, match="^c and q must be normal floats, got c = 1.0, q = 2.8"):
            solve_qc(int(sys.float_info.max), 1.0)


class TestBoundsOnD:
    def test_lower_expression_crosses_two_at_tabulated_lower_q(self):
        # 0.269594 is the q at which the lower-d expression equals 2
        lower_d, _ = bounds_on_d(1.0, 0.269594)
        assert lower_d == pytest.approx(2.0, rel=5e-3)

    def test_upper_expression_crosses_two_at_tabulated_upper_q(self):
        # 0.277206 is the q at which the upper-d expression equals 2
        _, upper_d = bounds_on_d(1.0, 0.277206)
        assert upper_d == pytest.approx(2.0, rel=5e-3)

    def test_sandwich_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = float(rng.uniform(0.1, 1.0))
            q = float(rng.uniform(0.01, 0.4))
            lower_d, upper_d = bounds_on_d(c, q)
            assert lower_d <= upper_d

    def test_domain_error_on_negative_discriminant(self):
        with pytest.raises(ParameterError):
            bounds_on_d(1.0, 0.99)


class TestInvertBoundsC2:
    def test_d2_matches_table(self):
        q_lo, q_hi = invert_bounds_c2(2, 1.0)
        assert q_lo == pytest.approx(0.269594, abs=1e-6)
        assert q_hi == pytest.approx(0.277206, abs=1e-6)

    def test_d100_matches_table(self):
        q_lo, q_hi = invert_bounds_c2(100, 1.0)
        assert q_lo == pytest.approx(0.005006, abs=1e-6)
        assert q_hi == pytest.approx(0.005006, abs=1e-6)

    def test_brackets_the_solved_root(self):
        """solve_qc as the oracle for the inversion, across (d, c).

        (d=2, c=0.25) is excluded: the upper inversion genuinely fails
        to bracket there (see test_upper_bracket_defect_small_c).
        """
        for d in range(2, 11):
            for c in (0.25, 0.5, 1.0):
                if (d, c) == (2, 0.25):
                    continue
                q_lo, q_hi = invert_bounds_c2(d, c)
                assert q_lo <= solve_qc(d, c).q_c <= q_hi

    def test_both_expressions_stay_below_two_at_the_top_of_their_interval(self, monkeypatch):
        """Why the inversion checks only the bottom of its interval: at the top, expr < 2 <= d.

        The grid spans 5e-324 (where 4 c^2 underflows to 0), both sides of
        c = 0.5469 (where the upper interval leaves its clip at 1), the
        self-avoiding scales d/(d+1) and c = 1, where the upper expression
        tends to the golden ratio 2/((c+1) r) with r^2 + r = 1.
        """
        invert = critical._invert_decreasing
        at_top = []

        def recording(expr, d, c, q_max, tol):
            at_top.append((expr(c, q_max), c))
            return invert(expr, d, c, q_max, tol)

        monkeypatch.setattr(critical, "_invert_decreasing", recording)
        scales = [5e-324, 1e-170, 1e-150, 1e-12, 1e-3, 0.25, 0.5, 0.5468, 0.547, 0.75,
                  *(d / (d + 1.0) for d in (2, 3, 10, 100, 10_000)), 1.0]
        for c in scales:
            invert_bounds_c2(2, c)
        assert len(at_top) == 2 * len(scales)
        value, c = max(at_top)
        assert value < 2.0 and c == 1.0
        assert value == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-5)

    def test_scales_where_four_c_squared_underflows_invert_as_1e_160(self):
        expected = (0.49999999999954525, 0.49999999999954525)
        for c in (1e-160, 1e-170, 1e-300, 5e-324):
            assert invert_bounds_c2(2, c) == expected, c

    def test_a_degree_past_the_bottom_of_the_interval_is_a_bracket_error(self):
        with pytest.raises(BracketError, match=r"^no crossing: expression is already below d=1000000000000 at q=1e-12$"):
            invert_bounds_c2(10**12, 1.0)

    def test_upper_bracket_defect_small_c(self):
        """The upper inversion undershoots the root at small c, not only at d=2.

        The derivation of the upper expression uses the product minorant
        1 - c q - c q^2, which is false for c < 1 (counterexample below);
        the lower inversion is unaffected.  Frozen as a regression check
        of the known behavior.
        """
        for d, c, excess, slack in ((2, 0.25, 2.77e-4, 2e-5), (10, 0.05, 8.37e-8, 1e-9)):
            res = solve_qc(d, c)
            assert res.lower_c2 <= res.q_c  # majorant side always brackets
            assert res.q_c > res.upper_c2  # minorant side fails here
            assert res.q_c - res.upper_c2 == pytest.approx(excess, abs=slack)


class TestExplicitBoundsC3:
    def test_d2_lower(self):
        lower, upper = explicit_bounds_c3(2, 1.0)
        assert lower == pytest.approx(1.0 / 3.75, abs=1e-12)
        assert upper is None

    def test_d3_upper(self):
        assert explicit_bounds_c3(3, 1.0)[1] == pytest.approx(0.176559, abs=1e-6)

    def test_lower_stays_below_one_over_d(self):
        for d in range(2, 60):
            for c in (0.1, 0.5, 1.0):
                assert explicit_bounds_c3(d, c)[0] < 1.0 / d


class TestConePercolation:
    def test_d2_bounds(self):
        b = cone_percolation_bounds(2)
        assert b.model is Model.CONE_PERCOLATION
        assert b.lower == pytest.approx(CONE_D2_BOUNDS[0], abs=1e-6)
        assert b.upper == pytest.approx(CONE_D2_BOUNDS[1], abs=1e-6)

    def test_d5_upper(self):
        assert cone_percolation_bounds(5).upper == pytest.approx(0.103255, abs=1e-6)

    def test_improves_known_bounds(self):
        for d in range(2, 101):
            known_lo, known_hi = literature_cone_bounds(d)
            b = cone_percolation_bounds(d)
            assert known_lo < b.lower
            assert b.upper < known_hi


class TestVisitProbabilityMap:
    def test_vanishes_with_p(self):
        assert r_of_p(2, 1e-9) == pytest.approx(0.0, abs=1e-9)

    def test_solves_its_quadratic(self):
        """r is the minus root of d p r^2 - (d+1) r + p = 0."""
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(2, 30))
            p = float(rng.uniform(0.01, 0.99))
            r = r_of_p(d, p)
            assert d * p * r * r - (d + 1) * r + p == pytest.approx(0.0, abs=1e-12)

    def test_increasing_in_p(self):
        grid = np.linspace(0.01, 0.99, 60)
        vals = [r_of_p(3, float(p)) for p in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_maps_tabulated_pair(self):
        assert r_of_p(2, 0.720836) == pytest.approx(0.277206, abs=1e-5)

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = int(rng.integers(2, 40))
            r = float(rng.uniform(1e-4, 1.0 / d))  # invertible range
            assert r_of_p(d, p_of_r(d, r)) == pytest.approx(r, abs=1e-12)

    def test_inverse_maps_tabulated_pair(self):
        assert p_of_r(2, 0.277206) == pytest.approx(0.720836, abs=1e-5)

    def test_range_error(self):
        with pytest.raises(ParameterError):
            p_of_r(4, 0.5)  # p would be 1.25

    @pytest.mark.parametrize(
        "function, value, message",
        [(r_of_p, 1.5, "p must be in (0, 1), got 1.5"), (p_of_r, 0.0, "r must be in (0, 1), got 0.0")],
    )
    def test_argument_outside_the_open_unit_interval(self, function, value, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            function(2, value)


class TestModelUpperBounds:
    def test_original_d2(self):
        assert original_frog_upper(2).upper == pytest.approx(ORIGINAL_D2_UPPER, abs=1e-6)

    def test_original_d10(self):
        assert original_frog_upper(10).upper == pytest.approx(0.544355, abs=1e-6)

    def test_original_improves_known(self):
        for d in range(2, 101):
            assert original_frog_upper(d).upper < literature_original_upper(d)

    def test_original_matches_50_digit_oracle(self):
        """p_of_r of the explicit bound is within 4 eps of the exact value.

        Oracle: r = 7/(A + sqrt(A^2 - 14)) with A = 7d - 1, then
        p = (d+1) r / (1 + d r^2), both at 50 digits.
        """
        mpmath = pytest.importorskip("mpmath")
        eps = 2.0**-52
        with mpmath.workdps(50):
            for d in [*range(3, 1001), 10**4, 10**5, 10**6, 10**7]:
                A = mpmath.mpf(7 * d - 1)
                r = 7 / (A + mpmath.sqrt(A * A - 14))
                want = (d + 1) * r / (1 + d * r * r)
                got = mpmath.mpf(original_frog_upper(d).upper)
                assert abs(got - want) <= 4 * eps * want, d

    def test_self_avoiding_d2(self):
        assert self_avoiding_upper(2).upper == pytest.approx(
            SELF_AVOIDING_D2_UPPER, abs=2e-6
        )

    def test_self_avoiding_d5(self):
        assert self_avoiding_upper(5).upper == pytest.approx(0.561544, abs=1e-6)

    def test_self_avoiding_improves_known(self):
        for d in range(2, 101):
            assert self_avoiding_upper(d).upper < literature_self_avoiding_upper(d)

    def test_removal_d2(self):
        b = removal_bounds(2)
        assert b.lower == pytest.approx(REMOVAL_D2_BOUNDS[0], abs=1e-5)
        assert b.upper == pytest.approx(REMOVAL_D2_BOUNDS[1], abs=1e-5)

    def test_removal_lower_closed_form(self):
        for d in range(2, 30):
            assert removal_bounds(d).lower == pytest.approx(
                (d + 1) / (2 * d - 0.25), rel=1e-12
            )

    def test_removal_upper_stays_below_one(self):
        """(d + 1) times the cone upper bound peaks at d = 2, far below 1."""
        uppers = [removal_bounds(d).upper for d in [*range(2, 5000, 7), *(10**k for k in range(4, 19))]]
        assert max(uppers) == uppers[0] < 0.84

    def test_removal_d3_upper_is_scaled_cone_value(self):
        assert removal_bounds(3).upper == pytest.approx(4 * 0.176559, abs=4e-6)


class TestCriticalInvariants:
    def test_unit_residual_at_solution(self):
        for d, c in [(2, 1.0), (5, 0.5), (20, 0.25)]:
            res = solve_qc(d, c, 1e-12)
            assert abs(survival_series(d, c, res.q_c, 1e-14) - 1.0) < 1e-11

    def test_decay_rate_equals_degree_at_critical_point(self):
        for d, c in [(2, 1.0), (4, 0.5)]:
            qc = solve_qc(d, c).q_c
            assert convergence_rate(HazardSpec(c, qc)).gamma == pytest.approx(
                d, abs=1e-6
            )

    def test_product_majorant_always(self):
        """prod_{i<n}(1 - c q^i) <= 1 - cq for n >= 2, any (c, q)."""
        rng = np.random.default_rng(42)
        for _ in range(1000):
            c = float(rng.uniform(0.05, 1.0))
            q = float(rng.uniform(0.01, 0.99))
            n = int(rng.integers(2, 80))
            prod = 1.0
            for i in range(1, n):
                prod *= 1.0 - c * q**i
            assert prod <= 1.0 - c * q + 1e-12

    def test_product_minorant_at_full_hazard_scale(self):
        """1 - q - q^2 <= prod_{i<n}(1 - q^i) holds at c = 1 (only)."""
        rng = np.random.default_rng(43)
        for _ in range(1000):
            q = float(rng.uniform(0.01, 0.99))
            n = int(rng.integers(2, 80))
            prod = 1.0
            for i in range(1, n):
                prod *= 1.0 - q**i
            assert 1.0 - q - q * q <= prod + 1e-12

    def test_product_minorant_fails_below_full_scale(self):
        """Exact-rational counterexample: the minorant is false for c < 1.

        (1 - 1/40)(1 - 1/400)(1 - 1/4000) < 1 - 1/40 - 1/400, i.e. the
        four-gap product at c = 1/4, q = 1/10 drops below 1 - cq - cq^2.
        """
        from fractions import Fraction

        c, q = Fraction(1, 4), Fraction(1, 10)
        prod = (1 - c * q) * (1 - c * q**2) * (1 - c * q**3)
        assert prod < 1 - c * q - c * q**2

    def test_sqrt_polynomial_envelopes(self):
        # sqrt(1-x) <= 1 - x/2 - x^2/8 on [0, 1]
        x = np.linspace(0.0, 1.0, 100001)
        assert np.all(np.sqrt(1.0 - x) <= 1.0 - x / 2.0 - x * x / 8.0 + 1e-15)
        # sqrt(1-x) >= 1 - x/2 - x^2/7 on [0, 0.24]
        x = np.linspace(0.0, 0.24, 100001)
        assert np.all(np.sqrt(1.0 - x) >= 1.0 - x / 2.0 - x * x / 7.0 - 1e-15)

    def test_bound_ordering_grid(self):
        for d in (3, 4, 10, 40, 100):
            for c in (0.25, 0.5, 0.75, 1.0):
                res = solve_qc(d, c)
                assert (
                    res.lower_c3
                    <= res.lower_c2
                    <= res.q_c
                    <= res.upper_c2
                    <= res.upper_c3
                )


def test_known_cone_upper_closed_form():
    assert literature_cone_bounds(2)[1] == pytest.approx(1 - math.sqrt(0.5), abs=1e-12)
    assert TABLE_CONE[2][5] == pytest.approx(1 - math.sqrt(0.5), abs=1e-6)
