"""Seeded Monte Carlo engines for the tree process and its line restriction.

Two engines share one law.  ``simulate_frog`` grows the activation
cluster on the directed d-ary tree: each activated vertex launches a
walker that takes a random number of forward steps (P(steps >= n) =
c (d q)^n) along a uniformly chosen descending path, activating every
vertex it visits.  It grows clusters level by level, one record per
activated vertex, and retires a replicate once a walker launches with
reach to the depth horizon.  ``simulate_firework`` runs the equivalent
one-line spreading process on 0, 1, 2, ...: site i transmits to all sites within
an independent radius D_i with P(D >= k) = c q^k, which is exactly the
law of how far a tree walker penetrates one fixed branch.  The fraction
of runs informing site n estimates the exact renewal probability u_n.

All randomness is counter-based and keyed by (seed, replicate, entity,
draw index), so outcomes are reproducible under any execution order and
runs that share a seed are pathwise coupled across parameter values.
Draw indices: the firework radius uses 0; tree walkers use 0 for their
reach and j >= 1 for the j-th path choice.
"""

import numpy as np

from .distributions import HazardSpec, TreeParams, checked_record
from .errors import ActivationCapError, ParameterError
# uniform_matrix and _informed_counts stay only as the tests' matrix reference
# and as names bench/tracing.py patches, until the tracer reads counters
from .rng import _hash_round, _to_unit, replicate_key_range, uniform, uniform_matrix, uniforms

_DEFAULT_CAP = 10_000_000  # default cap on activated vertices per tree replicate
# replicates per pass of the level engine; bounds its memory whatever the run size
_BLOCK = 4096
# live walkers per pass of the level engine; a block past it reruns as two halves
_WALKERS = 2**20
# entries per walker up to which the level engine marks keys, not sorts them
_DENSE = 8
# replicates per pass of the line engine, set by timing 10^5 replicates x 200
# sites.  A pass makes a few numpy calls per site, so 8192 took 1.2x as long
# as 12288 at q = 0.25, where the frontier dies out early.  From 13312 up, a
# wide frontier (q = 0.9) page-faults ~10^4-10^5 times per call, apparently
# because the allocator no longer reuses the freed per-site temporaries;
# 16384 took 1.2x as long there.
_LINE_BLOCK = 12288
# the rng reduces every key mod 2^64, so seeds s and s + 2^64, or vertices
# numbered v and v + 2^64, would share every draw
_KEY_SPACE = 2**64


def _key_blocks(seed: int, replicates: int, block: int):
    """Base keys of replicates 0..replicates-1 in consecutive blocks of `block`."""
    for start in range(0, replicates, block):
        yield replicate_key_range(seed, start, min(start + block, replicates))


def _check_run(replicates: int, seed: int, n: int = 1) -> None:
    # n is the line length of the line engine; the tree engine has none
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    if not 0 <= seed < _KEY_SPACE:
        raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")


class FrogSimConfig(checked_record(
        "FrogSimConfig", "params max_depth replicates seed activation_cap", (_DEFAULT_CAP,))):
    """Replicated tree-growth experiment: parameters (a TreeParams), horizon, seed."""

    __slots__ = ()

    def __new__(cls, params: TreeParams, max_depth: int, replicates: int, seed: int,
                activation_cap: int = _DEFAULT_CAP):
        if max_depth < 1:
            raise ParameterError(f"max_depth must be >= 1, got {max_depth}")
        limit = _first_aliased_depth(params.d)
        if max_depth >= limit:
            raise ParameterError(
                f"max_depth must be < {limit} at d={params.d}: deeper vertex "
                f"numbers reach 2^64 and would share random draws, got {max_depth}"
            )
        _check_run(replicates, seed)
        if activation_cap < 1:
            raise ParameterError(f"activation_cap must be >= 1, got {activation_cap}")
        return super().__new__(cls, params, max_depth, replicates, seed, activation_cap)


class SimOutcome(checked_record("SimOutcome", "reached_depth branch_hits replicates seed")):
    """Aggregated Monte Carlo record; its arrays are read-only int64.

    reached_depth[k] counts replicates whose deepest activated level is
    exactly k.  branch_hits[k] (line engine only, else None) counts
    replicates in which site k was informed; it is nonincreasing in k
    because the informed set is always a prefix of the line.
    """

    __slots__ = ()

    def __new__(cls, reached_depth, branch_hits, replicates: int, seed: int):
        hist = np.asarray(reached_depth, dtype=np.int64)
        hist.setflags(write=False)
        if int(hist.sum()) != replicates:
            raise ParameterError("histogram mass must equal the replicate count")
        if branch_hits is not None:
            branch_hits = np.asarray(branch_hits, dtype=np.int64)
            branch_hits.setflags(write=False)
            if np.any(branch_hits[1:] > branch_hits[:-1]):
                raise ParameterError("branch_hits must be nonincreasing")
        return super().__new__(cls, hist, branch_hits, replicates, seed)

    def reach_fractions(self) -> np.ndarray:
        """Fraction of replicates whose deepest level is >= k, per k."""
        tail = np.cumsum(self.reached_depth[::-1])[::-1]
        return tail / float(self.replicates)


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


def _child_number(v, depth: int, child, d: int, bases):
    # breadth-first number of child `child` of vertex v at `depth`, on ints or
    # on uint64 arrays with np.uint64 bases; bases[1] = 1 numbers the root's
    # children 1..d+1.  Every random draw of a tree vertex is keyed by it.
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


def _reach_thresholds(c: float, dq: float, levels: int) -> np.ndarray:
    # t[k] is the threshold _reach_from_uniform compares u with before step
    # k + 1: the running product of [c dq, dq, dq, ...] in the loop's order
    factors = np.full(levels, dq)
    factors[0] = c * dq
    return np.multiply.accumulate(factors)


def _reach_from_thresholds(u: np.ndarray, thresholds: np.ndarray, budget: int) -> np.ndarray:
    # _reach_from_uniform on an array: d q <= 1 makes the thresholds
    # nonincreasing, so the steps taken are the k < budget with u <= t[k]
    return np.searchsorted(-thresholds[:budget], -u, side="right")


def simulate_frog(config: FrogSimConfig) -> SimOutcome:
    """Deepest-activated-level histogram over seeded replicates.

    Each activated vertex draws its reach and walks a uniform descending
    path, activating every not-yet-activated vertex on it; a replicate's
    outcome is the deepest level its activation set reaches, capped at
    max_depth.  The set does not depend on the processing order because
    every draw is keyed to its vertex.

    Blocks of _BLOCK replicates run level by level (_frog_levels), so
    memory does not grow with the replicate count; a block whose live
    walkers pass _WALKERS runs again as two halves.
    """
    p, max_depth = config.params, config.max_depth
    bases = _level_bases(p.d, max_depth + 1)
    thresholds = _reach_thresholds(p.c, p.d * p.q, max_depth)
    hist = np.zeros(max_depth + 1, dtype=np.int64)
    for block in _key_blocks(config.seed, config.replicates, _BLOCK):
        pending = [block]
        while pending:
            keys = pending.pop()
            deepest = _frog_levels(keys, p.d, thresholds, max_depth, bases, config.activation_cap)
            if deepest is None:
                pending += np.array_split(keys, 2)[::-1]
            else:
                hist += np.bincount(deepest, minlength=max_depth + 1)
    return SimOutcome(
        reached_depth=hist, branch_hits=None,
        replicates=config.replicates, seed=config.seed,
    )


def _frog_levels(keys, d, thresholds, max_depth, bases, cap) -> np.ndarray | None:
    """Deepest activated level of each replicate keyed by `keys`.

    All live walkers of all replicates sit at one depth and take their
    next step together.  A vertex at depth L + 1 can only be reached by a
    step from depth L, so the vertices this step activates are exactly
    its distinct (replicate, vertex) pairs.  Each is recorded once, by its
    replicate, its breadth-first number and its entity hash (the first of
    the two rounds of ``uniform``), and launches a walker that holds only
    its slot among the records, its next draw and its steps left.  The
    roots are the records of depth 0, hashed and launched by the same lines
    as every later level.  A replicate retires when a walker launches with
    reach to max_depth: its outcome is then known.  One that has not
    retired may hold `cap` vertices, else ActivationCapError.
    None means more than _WALKERS walkers of two or more replicates were live.
    """
    level_start = [np.uint64(b) for b in bases[: max_depth + 2]]
    deepest = np.zeros(keys.size, dtype=np.int64)  # max_depth once retired
    activated = np.zeros(keys.size, dtype=np.int64)  # vertices per replicate
    # records: rep, num, hash; walkers: slot, draw, left.  draw and left are at
    # most max_depth + 1 <= _first_aliased_depth(d) <= 63, so they fit in a byte
    rep = np.arange(keys.size)  # the roots
    num = np.zeros(keys.size, dtype=np.uint64)
    slot = np.empty(0, dtype=np.intp)
    draw = left = np.empty(0, dtype=np.uint8)
    # no record forms at max_depth: a walker bound there retires its replicate at launch
    for depth in range(max_depth):
        # hash the records new at this depth; each launches a walker, reach at draw 0
        hash_ = _hash_round(keys[rep], num)
        deepest[rep] = depth
        activated += np.bincount(rep, minlength=keys.size)
        budget = max_depth - depth
        reach = _reach_from_thresholds(
            _to_unit(_hash_round(hash_.copy(), np.uint8(0))), thresholds, budget
        ).astype(np.uint8)
        deepest[rep[reach == budget]] = max_depth  # retired: a walker is bound for max_depth
        slot = np.concatenate((slot, np.arange(rep.size)))
        draw = np.concatenate((draw, np.ones(rep.size, dtype=np.uint8)))
        left = np.concatenate((left, reach))
        del reach
        if np.any((activated > cap) & (deepest < max_depth)):
            raise ActivationCapError(f"activated set exceeded cap of {cap} vertices")
        live = np.flatnonzero((left > 0) & (deepest < max_depth)[rep][slot])
        if live.size == 0:
            break
        if live.size > _WALKERS and keys.size > 1:
            return None
        slot, draw, left = slot[live], draw[live], left[live]
        del live
        fanout = d + 1 if depth == 0 else d
        slot, parent, choice = _first_visits(hash_, slot, draw, fanout)
        rep = rep[parent]
        num = _child_number(num[parent], depth, choice, d, level_start)
        del parent, choice
        draw += np.uint8(1)
        left -= np.uint8(1)
    return deepest


def _first_visits(hash_, slot, draw, fanout):
    """One step of the walkers at records `slot`: where each lands, and the new vertices.

    A walker's path choice is the draw round of its record's entity hash
    at its draw.  One walker per new vertex: a duplicate would repeat the
    same draws, and its copies would multiply level after level.  Two
    walkers reach one vertex iff they leave one slot by one choice.
    Returns next_slot (each walker's new record), and the parent slot and
    the choice, as uint64, of each new record, in the order of the new
    records.
    """
    u = _to_unit(_hash_round(hash_[slot], draw))
    u *= fanout
    choice = u.astype(np.uint64)
    del u
    np.minimum(choice, fanout - 1, out=choice)  # u == 1.0 endpoint
    key = slot * fanout
    key += choice.view(np.int64)  # choice < fanout, so the view is its value
    top = int(key.max())
    if top < _DENSE * key.size:
        rank = np.zeros(top + 1, dtype=np.intp)
        rank[key] = 1
        np.cumsum(rank, out=rank)
        next_slot = rank[key]
        del rank
        next_slot -= 1
        owner = np.empty(int(next_slot.max()) + 1, dtype=np.intp)
        owner[next_slot] = np.arange(key.size)
    else:  # few walkers on a wide level (large d): sort their keys
        _, owner, next_slot = np.unique(key, return_index=True, return_inverse=True)
    return next_slot, slot[owner], choice[owner]


def _frog_replicate(base, d, c, dq, max_depth, bases) -> int:
    # the scalar work queue of one replicate: the tests' reference for _frog_levels
    activated = {0}
    queue = [(0, 0)]  # (vertex number, depth)
    deepest = 0
    head = 0
    while head < len(queue):
        vertex, depth = queue[head]
        head += 1
        # reaching max_depth returns at once, so every queued vertex lies above it
        reach = _reach_from_uniform(uniform(base, vertex, 0), c, dq, max_depth - depth)
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
                queue.append((cur, cur_depth))
                if cur_depth > deepest:
                    deepest = cur_depth
                    if deepest >= max_depth:
                        return deepest
    return deepest


def _radii_from_uniforms(u: np.ndarray, c: float, q: float) -> np.ndarray:
    # inverse transform of P(D >= k) = c q^k: D = floor(log(u/c) / log q)
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
    two runs sharing a seed are coupled monotonically in q.  Each block of
    _LINE_BLOCK replicates walks the sites, drawing radii only for
    replicates whose informed prefix reaches the site, so memory is
    O(block + n).  Every draw is keyed: hits equal ``_informed_counts`` on
    the full radius matrix, whatever the block size.
    """
    _check_run(replicates, seed, n)
    c, q = spec.c, spec.q
    hits = np.zeros(n + 1, dtype=np.int64)
    for keys in _key_blocks(seed, replicates, _LINE_BLOCK):
        reach = np.zeros(keys.size)  # max of i + D_i over informed i < j
        for j in range(n + 1):
            informed = reach >= j
            keys, reach = keys[informed], reach[informed]
            hits[j] += keys.size
            if keys.size == 0:
                break
            if j < n:
                reach = np.maximum(reach, j + _radii_from_uniforms(uniforms(keys, j, 0), c, q))
    # the informed set is a prefix: exactly hits[k] - hits[k + 1] stop at site k
    depth_hist = hits.copy()
    depth_hist[:-1] -= hits[1:]
    return SimOutcome(
        reached_depth=depth_hist, branch_hits=hits, replicates=replicates, seed=seed
    )
