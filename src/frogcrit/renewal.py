"""Undelayed renewal sequence of the geometric-hazard gap law.

Y_0 = 1 and Y_n = 1 iff some partial sum of i.i.d. gaps equals n.  The
exact probabilities u_n = P(Y_n = 1) follow the convolution recursion
u_n = sum_{k=1}^{n} f_k u_{n-k}.  Because the gap law is defective, u_n
decays like gamma^{-n} where the decay rate gamma in (1, 1/q) is the
unique root of the gap generating function F(alpha) = sum alpha^k f_k = 1.

The scaled sequence d^n u_n separates growth regimes on the d-ary tree:
it diverges when d exceeds gamma and vanishes when d is below it.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import HazardSpec, check_degree, check_tol, pmf_sequence
from .errors import BracketError, ParameterError

_MAX_BISECT = 200
# finite-horizon surrogate for "eventually decreasing": the trailing
# quarter must decrease with ratio at least this far below 1
_RATIO_MARGIN = 1e-6
_MAX_SERIES_TERMS = 20_000_000
_TINY = np.finfo(float).tiny
_FLOAT_MAX = np.finfo(float).max


class Growth(Enum):
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RenewalProbs:
    """Exact renewal probabilities u_0..u_N for one hazard law."""

    values: np.ndarray
    spec: HazardSpec

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def horizon(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class RateResult:
    """Solved decay rate gamma with solver diagnostics."""

    gamma: float
    residual: float
    bracket: tuple[float, float]
    truncation_K: int


def renewal_probabilities(spec: HazardSpec, N: int) -> RenewalProbs:
    """u_0..u_N via the convolution recursion u_n = sum f_k u_{n-k}."""
    if N < 0:
        raise ParameterError(f"N must be >= 0, got {N}")
    return RenewalProbs(values=_renewal_recursion(pmf_sequence(spec, N)), spec=spec)


def _renewal_recursion(f: np.ndarray, stop_above: float | None = None) -> np.ndarray:
    """u_0 = 1 and u_n = sum_{k=1}^{min(n, K)} f_k u_{n-k} for gaps f_1..f_N (f[0] unused).

    K is the last gap index with f_K >= tiny, the smallest normal float,
    when the gaps beyond K are nonincreasing, and K = N otherwise.  Every
    dropped gap is below tiny, so the terms dropped at step n add at most
    (n - K) * tiny * max_{m<n} |u_m| to u_n; multiply-adds on subnormal
    gaps are what the truncation saves.  With stop_above, the recursion
    stops at the first n >= 1 with u_n > stop_above and returns u_0..u_n.
    """
    N = len(f) - 1
    normal = np.flatnonzero(f[1:] >= _TINY)
    K = int(normal[-1]) + 1 if normal.size else 0
    if np.any(np.diff(f[K + 1 :]) > 0.0):
        K = N
    u = np.zeros(N + 1)
    u[0] = 1.0
    for n in range(1, N + 1):
        m = min(n, K)
        u[n] = f[1 : m + 1] @ u[n - m : n][::-1]
        if stop_above is not None and u[n] > stop_above:
            return u[: n + 1]
    return u


def _series_terms_needed(c: float, aq: float, tol: float) -> int:
    # smallest K with c * aq^(K+1) / (1 - aq) <= tol
    target = tol * (1.0 - aq) / c
    if target >= aq:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(aq)) - 1)


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
        raise ParameterError(
            f"alpha*q must be < 1 (series diverges), got {aq}"
        )
    if _series_terms_needed(c, aq, tol) > _MAX_SERIES_TERMS:
        raise ParameterError(
            f"alpha={alpha} is too close to 1/q for tol={tol}"
        )
    total = 0.0
    surv = 1.0
    scale = c * aq  # c * (alpha q)^k
    k = 1
    while True:
        total += scale * surv
        if scale * aq / (1.0 - aq) <= tol:
            return total, k
        surv *= 1.0 - c * q**k
        scale *= aq
        k += 1


def _series_exceeds_one(c: float, q: float, alpha: float) -> bool:
    """Sign of F(alpha) - 1 (of G(q) - 1 at alpha = d) by early-exit partial sums.

    Partial sums are increasing, so the answer is certain as soon as the
    running sum exceeds 1 or the sum plus its tail bound stays at or
    below 1.
    """
    aq = alpha * q
    total = 0.0
    surv = 1.0
    scale = c * aq
    k = 1
    while True:
        total += scale * surv
        if total > 1.0:
            return True
        tail = scale * aq / (1.0 - aq)
        if total + tail <= 1.0 or tail < 1e-15:
            return total > 1.0
        surv *= 1.0 - c * q**k
        scale *= aq
        k += 1


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


def convergence_rate(spec: HazardSpec, tol: float = 1e-12) -> RateResult:
    """Unique alpha in (1, 1/q) with F(alpha) = 1, by bracketed bisection.

    F(1) = P(T < inf) < 1 because the gap law is defective, and F blows
    up at the radius of convergence 1/q, so a root always exists; F is
    strictly increasing, so it is unique.
    """
    check_tol(tol)
    c, q = spec.c, spec.q
    lo = 1.0 + 1e-12
    hi = 1.0 / q - 1e-12
    if not math.isfinite(hi):
        raise ParameterError(
            f"q = {q} is too small: 1/q overflows, so the rate (~1/(2q) at c = 1) "
            "is not representable"
        )
    while hi * q >= 1.0:  # at small q the 1e-12 step rounds away
        hi = math.nextafter(hi, 0.0)
    if lo * q >= 1.0 or hi <= lo:
        raise ParameterError(f"q = {q} leaves no room for a rate in (1, 1/q)")
    if _series_exceeds_one(c, q, lo):
        raise BracketError(
            "F(1) >= 1: the gap law is not defective enough to bracket a root"
        )
    if not _series_exceeds_one(c, q, hi):
        raise BracketError("F stays below 1 up to the radius of convergence")
    lo, hi = _bisect(lambda alpha: _series_exceeds_one(c, q, alpha), lo, hi)
    gamma = 0.5 * lo + 0.5 * hi
    value, K = _generating_function(c, q, gamma, min(tol * 1e-2, 1e-13))
    return RateResult(
        gamma=gamma, residual=abs(value - 1.0), bracket=(lo, hi), truncation_K=K
    )


def growth_sequence(d: int, spec: HazardSpec, N: int) -> np.ndarray:
    """Scaled renewal probabilities v_n = d^n u_n for n = 0..N.

    Computed by running the convolution recursion directly on the tilted
    gaps g_k = d^k f_k = c (d q)^k prod_{i<k}(1 - c q^i), which avoids
    the underflow of u_n at long horizons.  The recursion drops the gaps
    beyond the last one at or above the smallest normal float; those add
    at most (n - K) * tiny * max_{m<n} |v_m| to v_n (see
    _renewal_recursion).  In the supercritical regime v_n grows without
    bound: once some v_n overflows, ParameterError names that n.
    growth_classifier runs the same recursion but stops at the first
    v_n > 1, so it never overflows.
    """
    # only inf exceeds the largest float, so the recursion stops at the overflow
    with np.errstate(over="ignore"):
        v = _renewal_recursion(_tilted_gaps(d, spec, N), stop_above=_FLOAT_MAX)
    if len(v) <= N:
        raise ParameterError(
            f"d^n u_n overflows at n = {len(v) - 1} of horizon N = {N}; "
            "growth_classifier decides the regime without overflowing"
        )
    return v


def _tilted_gaps(d: int, spec: HazardSpec, N: int) -> np.ndarray:
    # Running products, not d^k * pmf_sequence: at long horizons d^k
    # overflows where f_k underflows.  multiply.accumulate multiplies in
    # index order, so each product is the one a scalar loop would form.
    check_degree(d)
    if N < 0:
        raise ParameterError(f"N must be >= 0, got {N}")
    c, q = spec.c, spec.q
    # q**i is Python's pow: numpy's vectorized power can differ in the last bit
    qi = np.array([q**i for i in range(1, N)])
    g = np.zeros(N + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.multiply.accumulate(np.full(N, d * q))  # (d q)^k
        surv = np.multiply.accumulate(np.append(1.0, 1.0 - c * qi))  # prod_{i<k}(1 - c q^i)
        g[1:] = c * scale * surv[:N]
    return g


def growth_classifier(d: int, spec: HazardSpec, N: int) -> Growth:
    """Classify the growth of d^n u_n over the horizon n <= N.

    Supercritical as soon as some d^n u_n exceeds 1: the recursion stops
    at that n, so it never runs into the overflow of growth_sequence.
    Subcritical when the trailing quarter of the horizon, and never fewer
    than two values of it, is strictly decreasing below 1 with ratio
    bounded away from 1; at N = 1 those are v_0 = 1 and v_1.  Indeterminate
    otherwise (the near-critical regime at finite horizon).  The
    sequence is growth_sequence's, truncated gaps included.
    """
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    v = _renewal_recursion(_tilted_gaps(d, spec, N), stop_above=1.0)
    if v[-1] > 1.0:
        return Growth.SUPERCRITICAL
    window = max(2, N // 4)
    tail = v[max(0, N - window) :]
    decreasing = np.all(tail[1:] <= (1.0 - _RATIO_MARGIN) * tail[:-1])
    if np.all(tail < 1.0) and decreasing:
        return Growth.SUBCRITICAL
    return Growth.INDETERMINATE
