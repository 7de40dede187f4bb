"""Geometric-hazard inter-arrival law.

The gap variable T on {1, 2, ...} u {inf} is defined through its hazard
rate P(T = k | T >= k) = c*q^k, with 0 < c <= 1 and 0 < q < 1.  This gives

    pmf        f_k      = c q^k * prod_{i=1}^{k-1} (1 - c q^i),   k >= 1
    survival   P(T>=n)  =         prod_{i=1}^{n-1} (1 - c q^i),   n >= 1
    defect     P(T=inf) =         prod_{i>=1}      (1 - c q^i)  >  0

The distribution is defective (positive mass at infinity), which is what
makes the associated renewal probabilities decay geometrically.  One
loop, _tilted_gaps, forms every product of this law: each gap alpha^k f_k
the package sums and each survival product, the defect included.  Every
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
        _check_index("k", k)
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


def _check_index(name: str, n) -> None:
    """Raise ParameterError unless n is an integer >= 1; numpy integers pass too."""
    if not hasattr(n, "__index__"):
        raise ParameterError(f"{name} must be an integer >= 1, got {n!r}")
    if n < 1:
        raise ParameterError(f"{name} must be >= 1, got {n}")


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


def interarrival_pmf(spec: HazardSpec, k: int) -> float:
    """Gap probability f_k = c q^k * prod_{i=1}^{k-1}(1 - c q^i), k >= 1.

    The k-th gap of _tilted_gaps at alpha = 1, read up to its first 0.0 gap:
    both factors of a gap only shrink at alpha = 1, so every later one is 0.0.
    """
    _check_index("k", k)
    for j, (gap, _, _, _) in enumerate(_tilted_gaps(spec.c, spec.q, 1.0), 1):
        if j == k or gap == 0.0:
            return gap


def interarrival_survival(spec: HazardSpec, n: int) -> float:
    """P(T >= n) = prod_{i=1}^{n-1}(1 - c q^i); equals 1 at n = 1.

    S_n of _tilted_gaps, final from k* on, so it takes min(n, k*) steps.
    """
    _check_index("n", n)
    for k, (_, _, surv, frozen) in enumerate(_tilted_gaps(spec.c, spec.q, 1.0), 1):
        if k == n or frozen:
            return surv


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
    return interarrival_survival(spec, K + 1)


def _tilted_gaps(c: float, q: float, alpha: float):
    """Yield (g_k, b_k, S_k, frozen) for k = 1, 2, ...: the one loop that forms the gap law.

    g_k = alpha^k f_k = b_k S_k, with the majorant b_k = c (alpha q)^k a
    running product and the survival S_k = prod_{i<k}(1 - c q^i) = P(T >= k)
    taking each q**i from pow (one rounding where a running q^i carries ~i).
    The solver's series (renewal._generating_function and _series_exceeds_one,
    which bound their tails by b_k) and every gap, pmf and survival function
    here read their values from it.  frozen is true from k*, the first k at
    which S stops changing: 1 - c q^k rounds to 1 (k* <= 54 whenever q <= 1/2)
    or S has underflowed to 0.  From k* on S_k is final and the gaps are b_k
    S_{k*}, exactly geometric with ratio alpha q up to the rounding of b_k.
    """
    aq = alpha * q
    scale, surv = c * aq, 1.0  # b_k and prod_{i<k}(1 - c q^i)
    for k in count(1):
        factor = 1.0 - c * q**k
        yield scale * surv, scale, surv, factor == 1.0 or surv == 0.0
        surv *= factor
        scale *= aq


def gap_head(spec: HazardSpec, n: int, alpha: float = 1.0) -> list[float]:
    """Tilted gaps [g_1, ..., g_m] through m = min(n, k*), the gaps the renewal recursion needs.

    They are the first m gaps of pmf_sequence, so at most 54 of them
    whenever q <= 1/2.  When m = k*, every later gap is g_m (alpha q)^(k - m)
    (see _tilted_gaps); when k* > n, the head holds every gap up to n.
    """
    head = []
    for gap, _, _, frozen in islice(_tilted_gaps(spec.c, spec.q, alpha), n):
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
    out[1:] = [gap for gap, _, _, _ in islice(_tilted_gaps(spec.c, spec.q, alpha), n)]
    return out
