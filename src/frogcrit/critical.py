"""Critical-parameter localization and bounds on the directed d-ary tree.

The critical parameter q_c of the geometric-lifetime growth process is
the unique root in (0, 1/d) of

    G(q) = sum_{k>=1} c (d q)^k prod_{i=1}^{k-1} (1 - c q^i) = 1.

Two-sided closed-form expressions sandwich d between functions of (c, q);
inverting them numerically sandwiches q_c.  Looser but fully explicit
bounds come from polynomial estimates of sqrt(1 - x).  Coupling maps then
carry these bounds to related spreading models: long-range cone
percolation (c = 1, q = p), the free random-walk model via the branch
visit probability r(p), the self-avoiding variant (c = d/(d+1), q = p/d),
and the single-activation removal variant (c = 1, q = p/(d+1)).
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from enum import Enum

from .distributions import HazardSpec, check_degree, check_tol
from .errors import BracketError, ParameterError
from .renewal import _bisect, _check_series_terms, _generating_function, _series_exceeds_one

_SCAN_POINTS = 64


class Model(Enum):
    CONE_PERCOLATION = "cone"
    ORIGINAL_FROG = "original"
    SELF_AVOIDING_FROG = "selfavoiding"
    REMOVAL = "removal"


@dataclass(frozen=True)
class CriticalResult:
    """Solved q_c together with the four closed-form bounds."""

    d: int
    c: float
    q_c: float
    residual: float
    lower_c2: float
    upper_c2: float
    lower_c3: float
    upper_c3: float | None

    def __post_init__(self):
        if not 0.0 < self.q_c < 1.0 / self.d:
            raise ParameterError(f"q_c must lie in (0, 1/d), got {self.q_c}")
        # Only the lower chain is enforced: it rests on the product
        # majorant prod(1 - c q^i) <= 1 - c q, valid for every c.  The
        # upper estimates rest on the minorant 1 - c q - c q^2, which
        # genuinely fails for c < 1 (e.g. c=1/4, q=1/10, four factors),
        # so for small enough c the root exceeds upper_c2 at every d.
        if not self.lower_c3 <= self.lower_c2 <= self.q_c:
            raise ParameterError(
                f"lower-bound ordering violated in CriticalResult: lower_c3 = {self.lower_c3!r}, "
                f"lower_c2 = {self.lower_c2!r}, q_c = {self.q_c!r}; the bisections' absolute "
                "tolerance is coarser than the gaps between them"
            )


@dataclass(frozen=True)
class ModelBounds:
    """Critical-parameter bounds for one of the coupled models."""

    model: Model
    d: int
    lower: float | None
    upper: float

    def __post_init__(self):
        if self.lower is not None and not 0.0 < self.lower <= self.upper:
            raise ParameterError("ModelBounds requires 0 < lower <= upper")
        if not self.upper < 1.0:
            raise ParameterError(f"upper bound must be < 1, got {self.upper}")


def _validate_dc(d: int, c: float) -> None:
    check_degree(d)
    if not 0.0 < c <= 1.0:
        raise ParameterError(f"c must be in (0, 1], got {c}")


def survival_series(d: int, c: float, q: float, tol: float = 1e-12) -> float:
    """G(q) = sum_{k>=1} c (d q)^k prod_{i=1}^{k-1}(1 - c q^i), error < tol.

    Terms are dominated by c (d q)^k, so the tail after K terms is at
    most c (d q)^{K+1} / (1 - d q); requires d*q < 1.  This is the gap
    generating function F(alpha) of the hazard law (c, q) at alpha = d.
    """
    check_degree(d)
    HazardSpec(c, q)  # the checks on c and q
    return _generating_function(c, q, d, tol)[0]


def solve_qc(d: int, c: float, tol: float = 1e-12) -> CriticalResult:
    """Solve G(q_c) = 1 on (0, 1/d) by grid-search-bracketed bisection.

    G - 1 changes sign once: sum_n d^n u_n = 1/(1 - G(q)) is finite iff
    G(q) < 1 (Feller, vol. 1, ch. XIII), and each u_n is nondecreasing in q
    under the shared-uniform coupling.  So a binary search brackets the root
    on a 64-point grid and the edge point (1 - 1e-9)/d, in at most 7 sign
    tests; it skips the first point, where G <= c d q/(1 - d q) = c/64.  The
    residual |G(q_c) - 1| is summed with a tighter tolerance than the solve;
    where it would need over _MAX_SERIES_TERMS terms (c below about 1.6e-6 at
    the default tol), ParameterError comes before the sign tests, unless
    c d q/(1 - d q) <= 1 at the edge point, so that no root lies below it.
    """
    _validate_dc(d, c)
    check_tol(tol)
    edge = 1.0 / d
    grid = [edge * j / (_SCAN_POINTS + 1) for j in range(1, _SCAN_POINTS + 1)] + [edge * (1.0 - 1e-9)]
    series_tol = max(1e-15, tol * 1e-2)
    if c * (d * grid[-1]) / (1.0 - d * grid[-1]) > 1.0:
        _check_series_terms(c, 1.0 / (1.0 + c), d, series_tol)

    def above(q):
        return _series_exceeds_one(c, q, d)

    j = bisect_left(grid, True, lo=1, key=above)
    if j == len(grid):
        raise BracketError("no sign change of G - 1 found on (0, 1/d)")
    lo, hi = grid[j - 1], grid[j]

    def converged(lo, hi):
        # the residual series runs only once the bracket is within tol
        return hi - lo <= tol and abs(survival_series(d, c, 0.5 * (lo + hi), series_tol) - 1.0) <= tol

    lo, hi = _bisect(above, lo, hi, converged)
    q_c = 0.5 * (lo + hi)
    residual = abs(survival_series(d, c, q_c, series_tol) - 1.0)
    q_lower, q_upper = invert_bounds_c2(d, c, tol)
    lower_c3, upper_c3 = explicit_bounds_c3(d, c)
    return CriticalResult(
        d=d,
        c=c,
        q_c=q_c,
        residual=residual,
        lower_c2=q_lower,
        upper_c2=q_upper,
        lower_c3=lower_c3,
        upper_c3=upper_c3,
    )


def _rationalized_d(c: float, q: float, y: float) -> float:
    # 2/((c+1) q (1 + sqrt(1-y))): rationalized, so free of the cancellation in 1 - sqrt(1-y)
    if y > 1.0:
        raise ParameterError(f"discriminant negative at q={q} (q too large for c={c})")
    return 2.0 / ((c + 1.0) * q * (1.0 + math.sqrt(1.0 - y)))


def _lower_d_expr(c: float, q: float) -> float:
    # lower bound on d, decreasing in q: (c+1)(1 - sqrt(1-y))/(2 q^2 c^2), y = 4 q c^2/(c+1)^2
    return _rationalized_d(c, q, 4.0 * q * c * c / (c + 1.0) ** 2)


def _upper_d_expr(c: float, q: float) -> float:
    # upper bound on d, decreasing in q: same rationalized shape, y = 4 c^2 q(q+1)/(c+1)^2
    return _rationalized_d(c, q, 4.0 * c * c / (c + 1.0) ** 2 * q * (q + 1.0))


def bounds_on_d(c: float, q: float) -> tuple[float, float]:
    """Closed-form estimates lower_d and upper_d of d at parameters (c, q).

    Both expressions come from bounding the product in G(q) between
    1 - c q - c q^2 and 1 - c q and summing the resulting geometric
    series.  At q = q_c(d, c), lower_d <= d holds for every c: it rests
    on the majorant prod(1 - c q^i) <= 1 - c q.  d <= upper_d rests on the
    minorant 1 - c q - c q^2, a theorem only at c = 1, and can fail below
    it; at small c the root then exceeds q_upper (see invert_bounds_c2).
    Domain error when a discriminant turns negative.
    """
    HazardSpec(c, q)  # the checks on c and q
    return _lower_d_expr(c, q), _upper_d_expr(c, q)


def _invert_decreasing(expr, d: int, c: float, q_max: float, tol: float) -> float:
    # root of expr(c, q) = d on (0, q_max]; expr decreases from ~1/((c+1)q) to below 2 <= d
    lo = 1e-12
    if not expr(c, lo) > d:
        raise BracketError(
            f"no crossing: expression is already below d={d} at q={lo}"
        )
    lo, hi = _bisect(lambda q: not expr(c, q) > d, lo, q_max, lambda lo, hi: hi - lo <= tol)
    return 0.5 * (lo + hi)


def invert_bounds_c2(d: int, c: float, tol: float = 1e-12) -> tuple[float, float]:
    """Numerically invert the two-sided d-sandwich to bracket q_c.

    q_lower is the root of the lower-d expression = d and q_upper the
    root of the upper-d expression = d; both expressions decrease from
    +inf on their valid q-interval to below 2 (at most the golden ratio,
    at c = 1), so each crossing is monotone; BracketError when d is so
    large that the expression is already below it at q = 1e-12.

    q_lower <= q_c always holds.  q_upper rests on the product minorant
    1 - c q - c q^2, which fails for c < 1: for small enough c the root
    exceeds q_upper at every d tested, by up to 4.9e-4 at d = 2 (c = 0.16)
    and by less at larger d (8.4e-8 at d = 10, c = 0.05; 2.3e-11 at
    d = 40, c = 0.02).  At c = 1 the bracket holds.
    """
    _validate_dc(d, c)
    check_tol(tol)
    eps = 1e-12
    # discriminant-valid endpoints, clipped into (0, 1): the lower one, min(m, 1), is 1 for
    # c <= 1; the upper one is clipped for c <= 0.5469, also where c^2 underflows to 0
    m = (c + 1.0) ** 2 / (4.0 * c * c) if c * c else math.inf
    edge_upper = min((-1.0 + math.sqrt(1.0 + 4.0 * m)) / 2.0, 1.0) - eps
    q_lower = _invert_decreasing(_lower_d_expr, d, c, 1.0 - eps, tol)
    q_upper = _invert_decreasing(_upper_d_expr, d, c, edge_upper, tol)
    return q_lower, q_upper


def explicit_bounds_c3(d: int, c: float) -> tuple[float, float | None]:
    """Fully explicit bounds on q_c from polynomial sqrt(1-x) estimates.

    lower = 1 / (d(c+1) - (c/(c+1))^2) holds for every d >= 2; the upper
    bound, the smaller root of 8 c^2 q^2 - F q + 7 (c+1)^2 with
    F = 7 d (c+1)^3 - 8 c^2, requires d >= 3 and is None for d = 2.
    """
    _validate_dc(d, c)
    lower = 1.0 / (d * (c + 1.0) - (c / (c + 1.0)) ** 2)
    if d == 2:
        return lower, None
    F = 7.0 * d * (c + 1.0) ** 3 - 8.0 * c * c
    # smaller root (F - sqrt(F^2 - 224 c^2 (c+1)^2))/(16 c^2), rationalized
    gap = 224.0 * c * c * (c + 1.0) ** 2
    upper = 14.0 * (c + 1.0) ** 2 / (F + math.sqrt(F * F - gap))
    return lower, upper


def _explicit_upper(d: int, c: float) -> float:
    """The explicit upper bound on q_c, or the c2 inversion at d = 2 where it has none."""
    if d == 2:
        return invert_bounds_c2(2, c)[1]
    return explicit_bounds_c3(d, c)[1]


def cone_percolation_bounds(d: int) -> ModelBounds:
    """Bounds for long-range percolation with geometric radii (c=1, q=p)."""
    lower = explicit_bounds_c3(d, 1.0)[0]  # checks d
    # d >= 3: 7/(a + sqrt(a^2 - 14)), a = 7d - 1, which the c3 formula gives to the bit
    upper = _explicit_upper(d, 1.0)
    return ModelBounds(model=Model.CONE_PERCOLATION, d=d, lower=lower, upper=upper)


def r_of_p(d: int, p: float) -> float:
    """Per-edge branch visit probability r for walk parameter p.

    r is the minus root of d p r^2 - (d+1) r + p = 0, the probability
    that the walk started at a vertex ever visits a fixed vertex at
    distance 1 below it; visits at distance n have probability r^n.
    Strictly increasing in p.
    """
    check_degree(d)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must be in (0, 1), got {p}")
    dp1 = d + 1.0
    # minus root, rationalized: 2p / (d+1 + sqrt((d+1)^2 - 4 d p^2))
    return 2.0 * p / (dp1 + math.sqrt(dp1 * dp1 - 4.0 * d * p * p))


def p_of_r(d: int, r: float) -> float:
    """Inverse of r_of_p: p = (d+1) r / (1 + d r^2).

    Range error when the computed p reaches 1, which happens for
    r in (1/d, 1) outside the image of r_of_p.
    """
    check_degree(d)
    if not 0.0 < r < 1.0:
        raise ParameterError(f"r must be in (0, 1), got {r}")
    p = (d + 1.0) * r / (1.0 + d * r * r)
    if p >= 1.0:
        raise ParameterError(f"computed p = {p} >= 1: r outside the invertible range")
    return p


def original_frog_upper(d: int) -> ModelBounds:
    """Upper bound for the free random-walk model on the undirected tree.

    The coupling uses c = 1 and q = r(p), so the bound is p_of_r of the
    explicit q_c upper bound (the c2 inversion at d = 2).
    """
    upper = p_of_r(d, _explicit_upper(d, 1.0))  # _explicit_upper checks d
    return ModelBounds(model=Model.ORIGINAL_FROG, d=d, lower=None, upper=upper)


def self_avoiding_upper(d: int) -> ModelBounds:
    """Upper bound for the self-avoiding variant via c = d/(d+1), q = p/d."""
    check_degree(d)
    upper = d * _explicit_upper(d, d / (d + 1.0))
    return ModelBounds(model=Model.SELF_AVOIDING_FROG, d=d, lower=None, upper=upper)


def removal_bounds(d: int) -> ModelBounds:
    """Bounds for the single-activation removal variant: c = 1, q = p/(d+1)."""
    cone = cone_percolation_bounds(d)
    lower = (d + 1.0) * cone.lower
    upper = (d + 1.0) * cone.upper
    return ModelBounds(model=Model.REMOVAL, d=d, lower=lower, upper=upper)


def literature_cone_bounds(d: int) -> tuple[float, float]:
    """Previously known cone-percolation bounds 1/(2d) and 1 - sqrt(1 - 1/d)."""
    check_degree(d)
    return 1.0 / (2.0 * d), 1.0 - math.sqrt(1.0 - 1.0 / d)


def literature_original_upper(d: int) -> float:
    """Previously known free-walk upper bound (d+1)/(2d)."""
    check_degree(d)
    return (d + 1.0) / (2.0 * d)


def literature_self_avoiding_upper(d: int) -> float:
    """Previously known self-avoiding upper bound (2d+1 - sqrt(4d^2-3))/2."""
    check_degree(d)
    return (2.0 * d + 1.0 - math.sqrt(4.0 * d * d - 3.0)) / 2.0


@dataclass(frozen=True)
class ConeTableRow:
    """One row of the cone-percolation bound table (c = 1)."""

    d: int
    lower_c2: float
    lower_explicit: float
    lower_known: float
    upper_c2: float
    upper_explicit: float
    upper_known: float


@dataclass(frozen=True)
class FrogTableRow:
    """One row of the upper-bound table for the two walk models."""

    d: int
    original_c2: float
    original_explicit: float
    original_known: float
    self_avoiding_c2: float
    self_avoiding_explicit: float
    self_avoiding_known: float


def _cone_row(d: int) -> tuple:
    q_lower, q_upper = invert_bounds_c2(d, 1.0)
    cone = cone_percolation_bounds(d)
    known_lower, known_upper = literature_cone_bounds(d)
    return (d, q_lower, cone.lower, known_lower, q_upper, cone.upper, known_upper)


def _original_row(d: int) -> tuple:
    return (d, p_of_r(d, invert_bounds_c2(d, 1.0)[1]), original_frog_upper(d).upper,
            literature_original_upper(d))


def _self_avoiding_row(d: int) -> tuple:
    return (d, d * invert_bounds_c2(d, d / (d + 1.0))[1], self_avoiding_upper(d).upper,
            literature_self_avoiding_upper(d))


def _removal_row(d: int) -> tuple:
    bounds = removal_bounds(d)
    return (d, bounds.lower, bounds.upper)


_WALK_COLUMNS = ("d", "upper_c2", "upper_explicit", "upper_known")

# each model's table: its column names and the row of values for one degree
_TABLES = {
    Model.CONE_PERCOLATION: (tuple(f.name for f in fields(ConeTableRow)), _cone_row),
    Model.ORIGINAL_FROG: (_WALK_COLUMNS, _original_row),
    Model.SELF_AVOIDING_FROG: (_WALK_COLUMNS, _self_avoiding_row),
    Model.REMOVAL: (("d", "lower", "upper"), _removal_row),
}


def bound_table(model: Model, d_list) -> tuple[tuple[str, ...], list[tuple]]:
    """Column names and one row per degree of the bound table of model.

    Every degree is checked before any row is built.
    """
    ds = list(d_list)
    if not ds:
        raise ParameterError("d_list must not be empty")
    for d in ds:
        check_degree(d)
    columns, row = _TABLES[model]
    return columns, [row(d) for d in ds]


def table_cone(d_list) -> list[ConeTableRow]:
    """Cone-percolation bound table (Table 1), one row per requested degree."""
    return [ConeTableRow(*row) for row in bound_table(Model.CONE_PERCOLATION, d_list)[1]]


def table_frogs(d_list) -> list[FrogTableRow]:
    """Walk-model upper-bound table (Table 2), one row per requested degree."""
    ds = list(d_list)
    original = bound_table(Model.ORIGINAL_FROG, ds)[1]
    self_avoiding = bound_table(Model.SELF_AVOIDING_FROG, ds)[1]
    return [FrogTableRow(*o, *s[1:]) for o, s in zip(original, self_avoiding)]
