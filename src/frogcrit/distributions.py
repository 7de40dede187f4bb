"""Geometric-hazard inter-arrival law.

The gap variable T on {1, 2, ...} u {inf} is defined through its hazard
rate P(T = k | T >= k) = c*q^k, with 0 < c <= 1 and 0 < q < 1.  This gives

    pmf        f_k      = c q^k * prod_{i=1}^{k-1} (1 - c q^i),   k >= 1
    survival   P(T>=n)  =         prod_{i=1}^{n-1} (1 - c q^i),   n >= 1
    defect     P(T=inf) =         prod_{i>=1}      (1 - c q^i)  >  0

The distribution is defective (positive mass at infinity), which is what
makes the associated renewal probabilities decay geometrically.  All
truncations carry explicit analytic tail bounds derived from the
geometric majorant f_k <= c q^k; no truncation index is hard-coded.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


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
    """Raise ParameterError unless the tree degree d is an integer >= 2."""
    if not isinstance(d, int) or d < 2:
        raise ParameterError(f"d must be an integer >= 2, got {d}")


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
    The factors are multiplied directly, also for x near 1, where summed
    log1p terms are less accurate.  interarrival_pmf, interarrival_survival
    and defect_mass all evaluate their products here.
    """
    if not 0.0 <= a < 1.0:
        raise ParameterError(f"a must be in [0, 1), got {a}")
    if not 0.0 <= x < 1.0:
        raise ParameterError(f"x must be in [0, 1), got {x}")
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    p = 1.0
    t = a
    for _ in range(k):
        p *= 1.0 - t
        t *= x
    return p


def interarrival_pmf(spec: HazardSpec, k: int) -> float:
    """Gap probability f_k = c q^k * prod_{i=1}^{k-1}(1 - c q^i), k >= 1."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    return spec.c * spec.q**k * pochhammer(spec.c * spec.q, spec.q, k - 1)


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
    product is at most 1.
    """
    check_tol(tol)
    c, q = spec.c, spec.q
    K = 1
    while c * q ** (K + 1) / ((1.0 - q) * (1.0 - c * q ** (K + 1))) > tol:
        K += 1
    return pochhammer(c * q, q, K)


def pmf_sequence(spec: HazardSpec, n: int, alpha: float = 1.0) -> np.ndarray:
    """Tilted gaps alpha^k f_k = c (alpha q)^k prod_{i<k}(1 - c q^i), k = 1..n; index 0 is 0.

    The one builder of the gap law: f_k at alpha = 1 (renewal_probabilities),
    d^k f_k at alpha = d (growth_sequence, growth_classifier).  Each factor
    is a running product, since alpha^k times f_k overflows where f_k
    underflows; multiply.accumulate multiplies in index order, as a scalar
    loop would.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    c, q = spec.c, spec.q
    out = np.zeros(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # (alpha q)^k overflows once alpha q > 1
        qk = np.multiply.accumulate(np.full(n, q))  # q^k
        scale = np.multiply.accumulate(np.full(n, alpha * q))  # (alpha q)^k
        surv = np.multiply.accumulate(np.append(1.0, 1.0 - c * qk[:-1]))  # prod_{i<k}(1 - c q^i)
        out[1:] = c * scale * surv[:n]
    return out
