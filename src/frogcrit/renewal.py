"""Undelayed renewal sequence of the geometric-hazard gap law.

Y_0 = 1 and Y_n = 1 iff some partial sum of i.i.d. gaps equals n.  The
exact probabilities u_n = P(Y_n = 1) follow the convolution recursion
u_n = sum_{k=1}^{n} f_k u_{n-k}.  Because the gap law is defective, u_n
decays like gamma^{-n} where the decay rate gamma in (1, 1/q) is the
unique root of the gap generating function F(alpha) = sum alpha^k f_k = 1.

The scaled sequence d^n u_n separates growth regimes on the d-ary tree:
it diverges when d exceeds gamma and vanishes when d is below it.

The recursion runs on plain floats in O(N k*): from the index k* at
which the float survival product prod(1 - c q^i) stops changing (k* <= 54
whenever q <= 1/2) the gaps are geometric, so the sum over them is carried
from one step to the next instead of recomputed.  Its gaps and the terms
of F(alpha) come from one loop, distributions._tilted_gaps.  Every result
is a Python float or a tuple of them; this module does not import numpy.
"""

import math
import sys
from collections import deque, namedtuple
from enum import Enum
from itertools import islice
from operator import mul

# pmf_sequence is not called here; bench/tracing.py wraps it by this module's name
from .distributions import (  # noqa: F401
    _MAX_SERIES_TERMS, HazardSpec, _tilted_gaps, check_degree, check_tol, checked_record, gap_head,
    pmf_sequence,
)
from .errors import BracketError, ParameterError

_MAX_BISECT = 200
# finite-horizon surrogate for "eventually decreasing": the trailing
# quarter must decrease with ratio at least this far below 1
_RATIO_MARGIN = 1e-6
_RESIDUAL_TOL = 1e-14  # series tolerance of convergence_rate's residual
_FLOAT_MAX = sys.float_info.max
# multiply-adds of renewal_probabilities and growth_sequence, N times their head
# length, past which _capped_head refuses N: at ~13 ns each, N = 14142 at (c, q) =
# (0.5, 0.999) takes 2.5 s, and the CLI's --n limit of 10^6 would take hours
_MAX_RENEWAL_MADDS = 200_000_000


class Growth(Enum):
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"
    INDETERMINATE = "indeterminate"


class RenewalProbs(checked_record("RenewalProbs", "values spec")):
    """Exact renewal probabilities u_0..u_N, a tuple of floats, for one hazard law."""

    __slots__ = ()

    def __new__(cls, values, spec: HazardSpec):
        return super().__new__(cls, tuple(map(float, values)), spec)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1


class RateResult(namedtuple("RateResult", "gamma residual bracket truncation_K")):
    """Solved decay rate gamma with solver diagnostics; bracket is the final (lo, hi)."""

    __slots__ = ()


def renewal_probabilities(spec: HazardSpec, N: int) -> RenewalProbs:
    """u_0..u_N via the convolution recursion u_n = sum f_k u_{n-k}.

    The recursion costs N times the gap head's length in multiply-adds;
    past _MAX_RENEWAL_MADDS it is refused with ParameterError.
    """
    return RenewalProbs(values=_renewal_recursion(_capped_head(spec, N), spec.q, N), spec=spec)


def _capped_head(spec: HazardSpec, N: int, alpha: float = 1.0) -> list[float]:
    # gap_head(spec, N, alpha), walked at most one gap past what the cap admits:
    # a head that long refuses N, and a shorter one is the whole gap_head
    if N < 0:
        raise ParameterError(f"N must be >= 0, got {N}")
    head = gap_head(spec, min(N, _MAX_RENEWAL_MADDS // max(N, 1) + 1), alpha)
    if N * len(head) > _MAX_RENEWAL_MADDS:
        raise ParameterError(
            f"N = {N} needs at least {N * len(head)} multiply-adds at this hazard "
            f"law, more than {_MAX_RENEWAL_MADDS}"
        )
    return head


def _renewal_recursion(
    gaps: list[float], ratio: float, N: int, stop_above: float = math.inf
) -> list[float]:
    """v_0 = 1 and v_n = sum_{j=1}^{n} g_j v_{n-j} for n = 1..N, in O(N m) float operations.

    gaps = [g_1, ..., g_m] is a gap_head: past m the gaps go on as
    g_j = g_m ratio^(j - m), with ratio = alpha q; f_k at alpha = 1 for
    renewal_probabilities, the tilted d^k f_k at alpha = d for
    growth_sequence and growth_classifier.  The head g_1..g_{m-1} is summed
    term by term, and the geometric tail T_n = sum_{j>=m} g_j v_{n-j} is
    carried as T_n = ratio T_{n-1} + g_m v_{n-m}, so no gap is dropped.
    Once the terms fall below the normal floats, the carried tail can stay
    at a subnormal value where a term-by-term sum has underflowed to 0; the
    two differ by less than the smallest normal float.  The recursion stops
    at the first n >= 1 with v_n > stop_above, or v_n nan, and returns
    v_0..v_n.
    """
    m = len(gaps)
    *head, start = gaps or [0.0]  # no gaps only at N = 0
    v = [1.0]
    recent = deque(v, maxlen=len(head))  # v_{n-1}, v_{n-2}, ..., paired with g_1, g_2, ...
    tail = 0.0
    for n in range(1, N + 1):
        if n >= m:
            tail = ratio * tail + start * v[n - m]
        x = sum(map(mul, head, recent)) + tail
        v.append(x)
        if not x <= stop_above:
            break
        recent.appendleft(x)
    return v


def _check_series_terms(c: float, aq: float, alpha: float, tol: float) -> None:
    # ParameterError if the smallest K with c aq^(K+1) / (1 - aq) <= tol passes
    # _MAX_SERIES_TERMS.  K grows with aq, and every root of F(alpha) = 1 has
    # aq above 1/(1 + c), where the majorant sum c aq / (1 - aq) is 1.
    target = tol * (1.0 - aq) / c
    if target < aq and math.ceil(math.log(target) / math.log(aq)) - 1 > _MAX_SERIES_TERMS:
        raise ParameterError(f"alpha={alpha} is too close to 1/q for tol={tol}")


def generating_function(spec: HazardSpec, alpha: float, tol: float = 1e-12) -> float:
    """F(alpha) = sum_{k>=1} alpha^k f_k with truncation error below tol.

    The tail after K terms is bounded by c (alpha q)^{K+1} / (1 - alpha q).
    Diverges when alpha*q >= 1, which is rejected as a domain error.
    """
    return _generating_function(spec.c, spec.q, alpha, tol)[0]


def _generating_function(c: float, q: float, alpha: float, tol: float) -> tuple[float, int]:
    """(F(alpha), terms used) for the hazard law (c, q); G(q) at alpha = d."""
    if alpha < 1.0:
        raise ParameterError(f"alpha must be >= 1, got {alpha}")
    check_tol(tol)
    aq = alpha * q
    if aq >= 1.0:
        raise ParameterError(f"alpha*q must be < 1 (series diverges), got {aq}")
    _check_series_terms(c, aq, alpha, tol)
    total = 0.0
    for k, (gap, scale, _, _) in enumerate(_tilted_gaps(c, q, alpha), 1):
        total += gap
        if scale * aq / (1.0 - aq) <= tol:
            return total, k


def _series_exceeds_one(c: float, q: float, alpha: float) -> bool:
    """Sign of F(alpha) - 1 (of G(q) - 1 at alpha = d) by early-exit partial sums.

    Partial sums are increasing, so "above" is certain once the running
    sum exceeds 1, and "not above" once the sum plus its tail bound stays
    at or below 1.  The third exit is not certain: it answers "not above"
    once the tail bound drops below 1e-15 while the sum is still at or
    below 1; the bisections rely on it near the root.  ParameterError past
    _MAX_SERIES_TERMS terms.
    """
    aq = alpha * q
    total = 0.0
    for gap, scale, _, _ in islice(_tilted_gaps(c, q, alpha), _MAX_SERIES_TERMS):
        total += gap
        if total > 1.0:
            return True
        tail = scale * aq / (1.0 - aq)
        if total + tail <= 1.0 or tail < 1e-15:
            return False
    raise ParameterError(f"the sign of F({alpha}) - 1 at q={q} needs over {_MAX_SERIES_TERMS} terms")


def _bisect(above, lo: float, hi: float, done=lambda lo, hi: False) -> tuple[float, float]:
    """Halve [lo, hi], kept with above(lo) false and above(hi) true.

    Stops after _MAX_BISECT halvings, when the midpoint no longer splits
    the bracket in floating point, or as soon as done(lo, hi).
    """
    for _ in range(_MAX_BISECT):
        mid = 0.5 * lo + 0.5 * hi  # lo + hi can overflow near the top of the float range
        if mid <= lo or mid >= hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
        if done(lo, hi):
            break
    return lo, hi


def convergence_rate(spec: HazardSpec) -> RateResult:
    """Unique alpha in (1, 1/q) with F(alpha) = 1, by bracketed bisection.

    F(1) = P(T < inf) < 1 because the gap law is defective, and F blows
    up at the radius of convergence 1/q, so a root always exists; F is
    strictly increasing, so it is unique.  gamma is bisected to float
    resolution, and the residual |F(gamma) - 1| is summed to within 1e-14.
    Past _MAX_SERIES_TERMS terms of it, ParameterError comes before the sign
    tests, unless c aq/(1 - aq) <= 1 at hi, so that no root lies below hi.
    """
    c, q = spec.c, spec.q
    lo = 1.0 + 1e-12
    hi = 1.0 / q - 1e-12  # finite: q is a normal float
    while hi * q >= 1.0:  # at small q the 1e-12 step rounds away
        hi = math.nextafter(hi, 0.0)
    if lo * q >= 1.0 or hi <= lo:
        raise ParameterError(f"q = {q} leaves no room for a rate in (1, 1/q)")
    if c * (hi * q) / (1.0 - hi * q) > 1.0:
        _check_series_terms(c, 1.0 / (1.0 + c), 1.0 / ((1.0 + c) * q), _RESIDUAL_TOL)
    if _series_exceeds_one(c, q, lo):
        raise BracketError(
            "F(1) >= 1: the gap law is not defective enough to bracket a root"
        )
    if not _series_exceeds_one(c, q, hi):
        raise BracketError("F stays below 1 up to the radius of convergence")
    lo, hi = _bisect(lambda alpha: _series_exceeds_one(c, q, alpha), lo, hi)
    gamma = 0.5 * lo + 0.5 * hi
    value, K = _generating_function(c, q, gamma, _RESIDUAL_TOL)
    return RateResult(
        gamma=gamma, residual=abs(value - 1.0), bracket=(lo, hi), truncation_K=K
    )


def growth_sequence(d: int, spec: HazardSpec, N: int) -> tuple[float, ...]:
    """Scaled renewal probabilities v_n = d^n u_n for n = 0..N, a tuple of floats.

    Computed by running the convolution recursion directly on the tilted
    gaps d^k f_k, which avoids the underflow of u_n at long horizons; the
    one gap builder makes them as it makes the f_k of renewal_probabilities
    at alpha = 1.  Past k* the tilted gaps are geometric with ratio d q, so
    the recursion costs O(N k*) and sums every gap (see _renewal_recursion).
    In the supercritical regime v_n grows without bound: once some v_n
    overflows, ParameterError names that n; past the work cap of
    renewal_probabilities it refuses N.  growth_classifier runs the same
    recursion, uncapped, but stops at the first v_n > 1, so it never overflows.
    """
    check_degree(d)
    # only inf exceeds the largest float, so the recursion stops at the overflow
    v = _renewal_recursion(_capped_head(spec, N, d), d * spec.q, N, stop_above=_FLOAT_MAX)
    if len(v) <= N:
        raise ParameterError(
            f"d^n u_n overflows at n = {len(v) - 1} of horizon N = {N}; "
            "growth_classifier decides the regime without overflowing"
        )
    return tuple(v)


def growth_classifier(d: int, spec: HazardSpec, N: int) -> Growth:
    """Classify the growth of d^n u_n over the horizon n <= N.

    Supercritical as soon as some d^n u_n exceeds 1: the recursion stops
    at that n, so it never runs into the overflow of growth_sequence.
    Subcritical when the trailing quarter of the horizon, and never fewer
    than two values of it, is strictly decreasing below 1 with ratio
    bounded away from 1; at N = 1 those are v_0 = 1 and v_1.  Indeterminate
    otherwise (the near-critical regime at finite horizon).  The
    sequence is growth_sequence's.
    """
    check_degree(d)
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    v = _renewal_recursion(gap_head(spec, N, d), d * spec.q, N, stop_above=1.0)
    if not v[-1] <= 1.0:
        return Growth.SUPERCRITICAL
    tail = v[max(0, N - max(2, N // 4)) :]
    decreasing = all(b <= (1.0 - _RATIO_MARGIN) * a for a, b in zip(tail, tail[1:]))
    if all(x < 1.0 for x in tail) and decreasing:
        return Growth.SUBCRITICAL
    return Growth.INDETERMINATE
