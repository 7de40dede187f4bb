"""Seeded Monte Carlo engines for the tree process and its line restriction.

Two engines share one law.  ``simulate_frog`` grows the activation
cluster on the directed d-ary tree: each activated vertex launches a
walker that takes a random number of forward steps (P(steps >= n) =
c (d q)^n) along a uniformly chosen descending path, activating every
vertex it visits.  ``simulate_firework`` runs the equivalent one-line
spreading process on 0, 1, 2, ...: site i transmits to all sites within
an independent radius D_i with P(D >= k) = c q^k, which is exactly the
law of how far a tree walker penetrates one fixed branch.  The fraction
of runs informing site n estimates the exact renewal probability u_n.

All randomness is counter-based and keyed by (seed, replicate, entity,
draw index), so outcomes are reproducible under any execution order and
runs that share a seed are pathwise coupled across parameter values.
Draw indices: the firework radius uses 0; the branch-restricted
estimator uses 1 (walk reach) and 2 (first off-branch turn); tree
walkers use 0 for their reach and j >= 1 for the j-th path choice.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import HazardSpec, TreeParams, check_degree
from .errors import ActivationCapError, ParameterError
from .rng import replicate_key, replicate_keys, uniform, uniform_matrix, uniforms

_DEFAULT_CAP = 10_000_000
_SEED_MAX = 2**64
# uniform() reduces entity keys mod 2^64, so vertices numbered v and
# v + 2^64 would share every draw
_KEY_SPACE = 2**64


def _check_run(replicates: int, seed: int, n: int = 1) -> None:
    # n is the line length of the line engines; the tree engine has none
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    if not 0 <= seed < _SEED_MAX:
        raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")


@dataclass(frozen=True)
class FrogSimConfig:
    """Replicated tree-growth experiment: parameters, horizon, seed."""

    params: TreeParams
    max_depth: int
    replicates: int
    seed: int
    activation_cap: int = _DEFAULT_CAP

    def __post_init__(self):
        if self.max_depth < 1:
            raise ParameterError(f"max_depth must be >= 1, got {self.max_depth}")
        limit = _first_aliased_depth(self.params.d)
        if self.max_depth >= limit:
            raise ParameterError(
                f"max_depth must be < {limit} at d={self.params.d}: deeper vertex "
                f"numbers reach 2^64 and would share random draws, got {self.max_depth}"
            )
        _check_run(self.replicates, self.seed)
        if self.activation_cap < 1:
            raise ParameterError(f"activation_cap must be >= 1, got {self.activation_cap}")


@dataclass(frozen=True)
class SimOutcome:
    """Aggregated Monte Carlo record.

    reached_depth[k] counts replicates whose deepest activated level is
    exactly k.  branch_hits[k] (line engine only) counts replicates in
    which site k was informed; it is nonincreasing in k because the
    informed set is always a prefix of the line.
    """

    reached_depth: np.ndarray
    branch_hits: np.ndarray | None
    replicates: int
    seed: int

    def __post_init__(self):
        hist = np.asarray(self.reached_depth, dtype=np.int64)
        hist.setflags(write=False)
        object.__setattr__(self, "reached_depth", hist)
        if int(hist.sum()) != self.replicates:
            raise ParameterError("histogram mass must equal the replicate count")
        if self.branch_hits is not None:
            hits = np.asarray(self.branch_hits, dtype=np.int64)
            hits.setflags(write=False)
            object.__setattr__(self, "branch_hits", hits)
            if np.any(np.diff(hits) > 0):
                raise ParameterError("branch_hits must be nonincreasing")

    def reach_fractions(self) -> np.ndarray:
        """Fraction of replicates whose deepest level is >= k, per k."""
        tail = np.cumsum(self.reached_depth[::-1])[::-1]
        return tail / float(self.replicates)


@dataclass(frozen=True)
class VertexId:
    """Tree vertex addressed by its child-index path from the root.

    The root has d + 1 children (indices 0..d), every other vertex has d
    (indices 0..d-1).
    """

    path: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.path)

    def number(self, d: int) -> int:
        """Canonical breadth-first index, used as the RNG entity key."""
        check_degree(d)
        bases = _level_bases(d, len(self.path))
        num = 0
        for depth, child in enumerate(self.path):
            fanout = d + 1 if depth == 0 else d
            if not 0 <= child < fanout:
                raise ParameterError(
                    f"child index {child} out of range 0..{fanout - 1} at depth {depth}"
                )
            num = _child_number(num, depth, child, d, bases)
        return num


def _level_bases(d: int, levels: int) -> list[int]:
    # bases[l] = number of vertices at depth < l
    bases = [0, 1]
    width = d + 1
    for _ in range(levels):
        bases.append(bases[-1] + width)
        width *= d
    return bases


def _first_aliased_depth(d: int) -> int:
    """Shallowest depth holding a breadth-first vertex number >= 2^64."""
    bases = _level_bases(d, 64)  # depth 64 holds such numbers for every d >= 2
    return next(depth for depth in range(65) if bases[depth + 1] - 1 >= _KEY_SPACE)


def _child_number(v: int, depth: int, child: int, d: int, bases) -> int:
    if v == 0:
        return 1 + child
    return bases[depth + 1] + (v - bases[depth]) * d + child


def _reach_from_uniform(u: float, c: float, dq: float, budget: int) -> int:
    # forward steps of one walker, P(steps >= n) = c (d q)^n, capped at
    # budget; an inverse transform, so for a shared u it is nondecreasing in q
    steps = 0
    threshold = c * dq
    while u <= threshold and steps < budget:
        steps += 1
        threshold *= dq
    return steps


def simulate_frog(config: FrogSimConfig) -> SimOutcome:
    """Deepest-activated-level histogram over seeded replicates.

    Per replicate, a work queue starts at the root; each activated
    vertex draws its reach and walks a uniform descending path,
    activating every not-yet-activated vertex on it.  The replicate
    stops as soon as max_depth is activated (nothing deeper is needed
    for the histogram) or the queue drains.  The terminal activation
    set does not depend on the processing order because every draw is
    keyed to its vertex.
    """
    p = config.params
    d, c, q = p.d, p.c, p.q
    bases = _level_bases(d, config.max_depth + 1)
    hist = np.zeros(config.max_depth + 1, dtype=np.int64)
    for rep in range(config.replicates):
        base = replicate_key(config.seed, rep)
        deepest = _frog_replicate(
            base, d, c, d * q, config.max_depth, config.activation_cap, bases
        )
        hist[deepest] += 1
    return SimOutcome(
        reached_depth=hist, branch_hits=None,
        replicates=config.replicates, seed=config.seed,
    )


def _frog_replicate(base, d, c, dq, max_depth, cap, bases) -> int:
    activated = {0}
    queue = [(0, 0)]  # (vertex number, depth)
    deepest = 0
    head = 0
    while head < len(queue):
        vertex, depth = queue[head]
        head += 1
        budget = max_depth - depth
        if budget <= 0:
            continue
        reach = _reach_from_uniform(uniform(base, vertex, 0), c, dq, budget)
        cur = vertex
        cur_depth = depth
        for j in range(1, reach + 1):
            fanout = d + 1 if cur == 0 else d
            choice = int(uniform(base, cur, j) * fanout)
            if choice == fanout:  # u == 1.0 endpoint
                choice -= 1
            cur = _child_number(cur, cur_depth, choice, d, bases)
            cur_depth += 1
            if cur not in activated:
                activated.add(cur)
                if len(activated) > cap:
                    raise ActivationCapError(
                        f"activated set exceeded cap of {cap} vertices"
                    )
                queue.append((cur, cur_depth))
                if cur_depth > deepest:
                    deepest = cur_depth
                    if deepest >= max_depth:
                        return deepest
    return deepest


def _radii_from_uniforms(u: np.ndarray, c: float, q: float) -> np.ndarray:
    # inverse transform of P(D >= k) = c q^k: D = floor(log(u/c) / log q).
    # For subnormal c, u / c overflows to inf and the radius is 0, as it should be.
    with np.errstate(over="ignore"):
        return np.maximum(np.floor(np.log(u / c) / np.log(q)), 0.0)


def _informed_counts(radii: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Prefix propagation on the line: hits per site and rightmost-site histogram.

    radii[:, i] is site i's transmission radius (sites 0..n-1; site n's
    own radius cannot matter).  Site j is informed iff some informed
    i < j has i + D_i >= j, so the informed set is a prefix and one
    running maximum per replicate suffices.
    """
    replicates = radii.shape[0]
    hits = np.zeros(n + 1, dtype=np.int64)
    hits[0] = replicates
    rightmost = np.zeros(replicates, dtype=np.int64)
    reach = radii[:, 0].copy()  # max of i + D_i over informed i so far
    for j in range(1, n + 1):
        informed = reach >= j
        hits[j] = int(np.count_nonzero(informed))
        rightmost[informed] = j
        if j < n:
            reach = np.where(informed, np.maximum(reach, j + radii[:, j]), reach)
    depth_hist = np.bincount(rightmost, minlength=n + 1)
    return hits, depth_hist


def simulate_firework(spec: HazardSpec, n: int, replicates: int, seed: int) -> SimOutcome:
    """Line spreading from site 0 with i.i.d. radii P(D >= k) = c q^k.

    branch_hits[k] / replicates estimates the renewal probability u_k.
    Radii are inverse transforms of per-(replicate, site) uniforms, so
    two runs sharing a seed are coupled monotonically in q.

    One pass over the sites keeps only the replicates whose informed
    prefix reaches the current site and draws the next radius for those
    alone; it stops once none remain, so memory is O(replicates + n).
    The result is bit-identical to ``_informed_counts`` on the full
    radius matrix, which ``estimate_branch_hit`` still builds.
    """
    _check_run(replicates, seed, n)
    c, q = spec.c, spec.q
    keys = replicate_keys(seed, replicates)
    reach = _radii_from_uniforms(uniforms(keys, 0, 0), c, q)  # max of i + D_i so far
    hits = np.zeros(n + 1, dtype=np.int64)
    hits[0] = replicates
    for j in range(1, n + 1):
        informed = reach >= j
        keys, reach = keys[informed], reach[informed]
        hits[j] = keys.size
        if keys.size == 0:
            break
        if j < n:
            reach = np.maximum(reach, j + _radii_from_uniforms(uniforms(keys, j, 0), c, q))
    # the informed set is a prefix: exactly hits[k] - hits[k + 1] stop at site k
    depth_hist = hits - np.append(hits[1:], 0)
    return SimOutcome(
        reached_depth=depth_hist, branch_hits=hits, replicates=replicates, seed=seed
    )


def estimate_branch_hit(params: TreeParams, n: int, replicates: int, seed: int) -> float:
    """Estimate the probability that a fixed vertex at distance n activates.

    Simulates the tree dynamics restricted to one branch: each site's
    transmission distance is the minimum of its walker's reach
    (P >= m: c (d q)^m) and its first off-branch turn (P >= m: d^-m),
    which compounds to the line law c q^m.  Statistically matches
    ``simulate_firework`` on (c, q) while sampling through a different
    factorization.
    """
    _check_run(replicates, seed, n)
    d, c, q = params.d, params.c, params.q
    dq = d * q
    u_reach = uniform_matrix(seed, replicates, n, draw=1)
    u_turn = uniform_matrix(seed, replicates, n, draw=2)
    if dq >= 1.0:
        reach = np.where(u_reach <= c, np.inf, 0.0)
    else:
        reach = _radii_from_uniforms(u_reach, c, dq)
    on_branch = np.floor(np.log(u_turn) / -np.log(d))
    radii = np.minimum(reach, on_branch)
    hits, _ = _informed_counts(radii, n)
    return hits[n] / replicates
