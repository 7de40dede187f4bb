"""Geometric-hazard inter-arrival law.

The gap variable T on {1, 2, ...} u {inf} is defined through its hazard
rate P(T = k | T >= k) = c*q^k, with 0 < c <= 1 and 0 < q < 1.  This gives

    pmf        f_k      = c q^k * prod_{i=1}^{k-1} (1 - c q^i),   k >= 1
    survival   P(T>=n)  =         prod_{i=1}^{n-1} (1 - c q^i),   n >= 1
    defect     P(T=inf) =         prod_{i>=1}      (1 - c q^i)  >  0

The distribution is defective (positive mass at infinity), which is what
makes the associated renewal probabilities decay geometrically.  One
loop, _tilted_gaps, forms every gap alpha^k f_k the package sums.  Every
truncation carries a tail bound from the majorant f_k <= c q^k.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import count, islice
from typing import TYPE_CHECKING

from .errors import ParameterError

if TYPE_CHECKING:
    import numpy as np

_MAX_SERIES_TERMS = 20_000_000  # cap on the terms of any series or product
_DEFAULT_CAP = 10_000_000  # default cap on activated vertices per tree replicate


@dataclass(frozen=True)
class HazardSpec:
    """Parameters (c, q) of the hazard h_k = c * q^k."""

    c: float
    q: float

    def __post_init__(self):
        if not 0.0 < self.c <= 1.0:
            raise ParameterError(f"c must be in (0, 1], got {self.c}")
        if not 0.0 < self.q < 1.0:
            raise ParameterError(f"q must be in (0, 1), got {self.q}")

    def hazard(self, k: int) -> float:
        """Hazard rate c * q^k at gap length k >= 1."""
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        return self.c * self.q**k


def check_degree(d) -> None:
    """Raise ParameterError unless the tree degree d is an integer from 2 to the largest float."""
    if not isinstance(d, int) or d < 2:
        raise ParameterError(f"d must be an integer >= 2, got {d}")
    if d > sys.float_info.max:
        raise ParameterError(f"d must be at most the largest float, got a {d.bit_length()}-bit integer")


def check_tol(tol) -> None:
    """Raise ParameterError unless the tolerance tol lies in (0, inf); nan fails too."""
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be in (0, inf), got {tol}")


@dataclass(frozen=True)
class TreeParams:
    """Parameters (d, c, q) of the process on the directed d-ary tree.

    The walker lifetime satisfies P(T >= n) = c * (d q)^n, so validity
    requires d*q <= 1 and c*d*q < 1.
    """

    d: int
    c: float
    q: float

    def __post_init__(self):
        check_degree(self.d)
        HazardSpec(self.c, self.q)  # the checks on c and q
        if self.d * self.q > 1.0:
            raise ParameterError(
                f"d*q must be <= 1 so that c*(d*q)^n stays below 1, got {self.d * self.q}"
            )
        if self.c * self.d * self.q >= 1.0:
            raise ParameterError(
                f"c*d*q must be < 1, got {self.c * self.d * self.q}"
            )

    @property
    def hazard_spec(self) -> HazardSpec:
        """Hazard law (c, q) of the per-branch gap distribution."""
        return HazardSpec(self.c, self.q)


def pochhammer(a: float, x: float, k: int) -> float:
    """Finite product prod_{i=0}^{k-1} (1 - a * x^i); 1 for k = 0.

    Requires 0 <= a < 1 and 0 <= x < 1 so every factor lies in (0, 1].
    Each factor takes x**i from pow, as the gap kernel _tilted_gaps does,
    so it carries one rounding where a running x^i carries about i; no
    log1p sum, which is less accurate for x near 1.  interarrival_survival
    and defect_mass evaluate their products here.
    """
    if not 0.0 <= a < 1.0:
        raise ParameterError(f"a must be in [0, 1), got {a}")
    if not 0.0 <= x < 1.0:
        raise ParameterError(f"x must be in [0, 1), got {x}")
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    p = 1.0
    for i in range(k):
        p *= 1.0 - a * x**i
    return p


def interarrival_pmf(spec: HazardSpec, k: int) -> float:
    """Gap probability f_k = c q^k * prod_{i=1}^{k-1}(1 - c q^i), k >= 1.

    The k-th gap of _tilted_gaps at alpha = 1: pmf_sequence(spec, n)[k] for n >= k.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return next(islice(_tilted_gaps(spec.c, spec.q, 1.0), k - 1, None))[0]


def interarrival_survival(spec: HazardSpec, n: int) -> float:
    """P(T >= n) = prod_{i=1}^{n-1}(1 - c q^i); equals 1 at n = 1."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return pochhammer(spec.c * spec.q, spec.q, n - 1)


def defect_mass(spec: HazardSpec, tol: float = 1e-12) -> float:
    """Mass at infinity prod_{i>=1}(1 - c q^i), truncated to error < tol.

    The index K is chosen from the tail bound
    |log prod_{i>K}(1 - c q^i)| <= c q^{K+1} / ((1-q)(1 - c q^{K+1})),
    which also bounds the absolute truncation error since the partial
    product is at most 1.  The bound falls as K grows, so K is found by
    binary search; ParameterError when K would pass _MAX_SERIES_TERMS.
    """
    check_tol(tol)
    c, q = spec.c, spec.q
    K = 1 + bisect_left(range(1, _MAX_SERIES_TERMS + 1), True, key=lambda K: (
        c * q ** (K + 1) / ((1.0 - q) * (1.0 - c * q ** (K + 1))) <= tol))
    if K > _MAX_SERIES_TERMS:
        raise ParameterError(f"q={q} is too close to 1 for tol={tol}")
    return pochhammer(c * q, q, K)


def _tilted_gaps(c: float, q: float, alpha: float):
    """Yield (g_k, b_k, frozen) for k = 1, 2, ...: the one loop that forms the gap law.

    g_k = alpha^k f_k = b_k prod_{i<k}(1 - c q^i), with the majorant
    b_k = c (alpha q)^k a running product and each factor 1 - c q**k from
    pow.  The solver's series (renewal._generating_function and
    _series_exceeds_one, which bound their tails by b_k), gap_head,
    pmf_sequence and interarrival_pmf all read their terms here.  frozen
    is true from k*, the first k at which the float survival product stops
    changing: 1 - c q^k rounds to 1 (k* <= 54 whenever q <= 1/2) or the
    product has underflowed to 0.  From k* on the gaps are b_k times one
    constant, exactly geometric with ratio alpha q up to the rounding of b_k.
    """
    aq = alpha * q
    scale, surv = c * aq, 1.0  # b_k and prod_{i<k}(1 - c q^i)
    for k in count(1):
        factor = 1.0 - c * q**k
        yield scale * surv, scale, factor == 1.0 or surv == 0.0
        surv *= factor
        scale *= aq


def gap_head(spec: HazardSpec, n: int, alpha: float = 1.0) -> list[float]:
    """Tilted gaps [g_1, ..., g_m] through m = min(n, k*), the gaps the renewal recursion needs.

    They are the first m gaps of pmf_sequence, so at most 54 of them
    whenever q <= 1/2.  When m = k*, every later gap is g_m (alpha q)^(k - m)
    (see _tilted_gaps); when k* > n, the head holds every gap up to n.
    """
    head = []
    for gap, _, frozen in islice(_tilted_gaps(spec.c, spec.q, alpha), n):
        head.append(gap)
        if frozen:
            break
    return head


def pmf_sequence(spec: HazardSpec, n: int, alpha: float = 1.0) -> np.ndarray:
    """Tilted gaps alpha^k f_k = c (alpha q)^k prod_{i<k}(1 - c q^i), k = 1..n; index 0 is 0.

    Every gap of _tilted_gaps as a numpy array: f_k at alpha = 1, d^k f_k
    at alpha = d.  Past the first overflow of the majorant c (alpha q)^k,
    which folds c in, a gap is inf, or nan where the survival product has
    underflowed to 0.
    """
    import numpy as np

    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    out = np.zeros(n + 1)
    out[1:] = [gap for gap, _, _ in islice(_tilted_gaps(spec.c, spec.q, alpha), n)]
    return out
