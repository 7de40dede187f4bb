"""Tests for the Monte Carlo engines against exact laws and recursions."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from frogcrit import (
    ActivationCapError,
    FrogSimConfig,
    HazardSpec,
    ParameterError,
    SimOutcome,
    TreeParams,
    growth_sequence,
    renewal_probabilities,
    simulate_firework,
    simulate_frog,
    solve_qc,
)
from frogcrit import simulator
from frogcrit.cli import main
from frogcrit.rng import replicate_key, replicate_key_range, uniform, uniform_matrix, uniforms
from frogcrit.simulator import (
    _BLOCK,
    _LINE_BLOCK,
    _child_number,
    _first_aliased_depth,
    _frog_levels,
    _frog_replicate,
    _informed_counts,
    _level_bases,
    _radii_from_uniforms,
    _reach_from_thresholds,
    _reach_from_uniform,
    _reach_thresholds,
)


def binom_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def reaches(params: TreeParams, seed: int, n: int, budget: int = 1000) -> list[int]:
    """Walker reaches of n replicates, each from its counter-based draw 0."""
    u = uniforms(replicate_key_range(seed, 0, n), 0, 0)
    dq = params.d * params.q
    return [_reach_from_uniform(x, params.c, dq, budget) for x in u.tolist()]


class TestReachFromUniform:
    def test_first_step_probability(self):
        params = TreeParams(2, 0.7, 0.35)
        n = 300_000
        hits = sum(r >= 1 for r in reaches(params, 1, n))
        p = params.c * params.d * params.q
        assert abs(hits / n - p) <= 4 * binom_se(p, n)

    def test_geometric_continuation_ratio(self):
        # conditional on reaching 2 steps, a third follows with prob d*q
        params = TreeParams(2, 0.9, 0.4)
        at_least_2 = [r for r in reaches(params, 2, 300_000) if r >= 2]
        frac = sum(r >= 3 for r in at_least_2) / len(at_least_2)
        dq = params.d * params.q
        assert abs(frac - dq) <= 4 * binom_se(dq, len(at_least_2))

    def test_fixed_descendant_visit_probability(self):
        """Visiting a fixed vertex at distance 3 has probability c q^3."""
        params = TreeParams(2, 0.9, 0.3)
        n = 300_000
        keys = replicate_key_range(3, 0, n)
        # uniform child choices from a non-root start (draws 1..3, as in the
        # tree engine), fixed target path: child 0 at every step
        on_path = np.ones(n, dtype=bool)
        for j in range(1, 4):
            on_path &= uniforms(keys, 0, j) * params.d < 1.0
        far = np.array(reaches(params, 3, n)) >= 3
        want = params.c * params.q**3
        assert abs(np.count_nonzero(far & on_path) / n - want) <= 4 * binom_se(want, n)

    def test_budget_caps_unbounded_reach(self):
        params = TreeParams(2, 0.5, 0.5)  # d*q == 1: infinite reach w.p. c
        capped = reaches(params, 4, 1000, budget=10)
        assert max(capped) == 10
        assert all(r in (0, 10) for r in capped)

    @pytest.mark.parametrize("c, dq", [(1.0, 0.7), (0.3, 0.45), (0.9, 1.0)])
    def test_threshold_table_gives_the_scalar_reach(self, c, dq):
        """The level engine's table lookup against the scalar loop, element by element.

        u = 1.0, every threshold and one ulp either side of it, and
        counter-based draws; d q = 1 makes every threshold equal c.
        """
        max_depth = 12
        table = _reach_thresholds(c, dq, max_depth)
        edges = [1.0]
        for t in table.tolist():
            edges += [math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)]
        u = np.concatenate((edges, uniforms(replicate_key_range(6, 0, 2000), 0, 0)))
        for budget in (0, 1, 5, max_depth):
            want = [_reach_from_uniform(x, c, dq, budget) for x in u.tolist()]
            assert _reach_from_thresholds(u, table, budget).tolist() == want

    def test_threshold_table_is_the_scalar_running_product(self):
        """Bit for bit, for every table length 1..70, down into subnormal tails.

        Any other association of the products, such as c times the powers
        of d q, differs in the last bit somewhere here.
        """
        rng = np.random.default_rng(13)
        tails = []
        for c, dq in zip(rng.uniform(0.0, 1.0, 300), 10.0 ** rng.uniform(-7.0, 0.0, 300)):
            c, dq = float(c), float(dq)
            want, threshold = [], c * dq
            for _ in range(70):
                want.append(threshold)
                threshold *= dq
            for levels in range(1, 71):
                assert _reach_thresholds(c, dq, levels).tolist() == want[:levels]
            tails.append(want[-1])
        assert any(0.0 < t < sys.float_info.min for t in tails)


class TestSimulateFrog:
    def test_degenerate_movement_probability(self):
        # c*d*q = 1e-9: essentially no particle ever moves
        config = FrogSimConfig(
            params=TreeParams(2, 1.0, 0.5e-9), max_depth=12,
            replicates=1000, seed=11,
        )
        outcome = simulate_frog(config)
        assert outcome.reached_depth[0] == 1000

    def test_supercritical_regime_reaches_depth(self):
        # q = 0.35 sits above the d=2 upper bound 0.277206
        config = FrogSimConfig(
            params=TreeParams(2, 1.0, 0.35), max_depth=12,
            replicates=10_000, seed=12,
        )
        outcome = simulate_frog(config)
        frac = outcome.reach_fractions()[12]
        assert frac > 5 * binom_se(frac, config.replicates)

    def test_reach_fractions_nonincreasing(self):
        for seed in (0, 1, 2):
            config = FrogSimConfig(
                params=TreeParams(3, 0.8, 0.2), max_depth=10,
                replicates=2000, seed=seed,
            )
            fractions = simulate_frog(config).reach_fractions()
            assert np.all(np.diff(fractions) <= 0.0)
            assert fractions[0] == 1.0

    def test_deterministic_given_seed(self):
        config = FrogSimConfig(
            params=TreeParams(2, 1.0, 0.3), max_depth=8,
            replicates=500, seed=99,
        )
        a = simulate_frog(config)
        b = simulate_frog(config)
        assert a.reached_depth.tobytes() == b.reached_depth.tobytes()

    def test_monotone_in_q_under_shared_seed(self):
        """Shared uniforms couple the runs: higher q never loses depth."""
        lo = FrogSimConfig(
            params=TreeParams(2, 1.0, 0.24), max_depth=10,
            replicates=3000, seed=5,
        )
        hi = FrogSimConfig(
            params=TreeParams(2, 1.0, 0.30), max_depth=10,
            replicates=3000, seed=5,
        )
        f_lo = simulate_frog(lo).reach_fractions()
        f_hi = simulate_frog(hi).reach_fractions()
        assert np.all(f_hi >= f_lo)

    def test_processing_order_does_not_change_outcomes(self):
        """Draws are keyed to vertices, so queue discipline is irrelevant.

        Reimplements one replicate with a LIFO stack from the same keyed
        uniforms and checks it reaches the same deepest level as the
        engine's FIFO queue, replicate by replicate.
        """
        from frogcrit.simulator import _child_number

        d, c, q, max_depth, seed = 2, 1.0, 0.3, 7, 17
        bases = _level_bases(d, max_depth + 1)

        def lifo_deepest(base):
            activated = {0}
            stack = [(0, 0)]
            deepest = 0
            while stack:
                vertex, depth = stack.pop()
                reach = _reach_from_uniform(
                    uniform(base, vertex, 0), c, d * q, max_depth - depth
                )
                cur, cur_depth = vertex, depth
                for j in range(1, reach + 1):
                    fanout = d + 1 if cur == 0 else d
                    choice = min(int(uniform(base, cur, j) * fanout), fanout - 1)
                    cur = _child_number(cur, cur_depth, choice, d, bases)
                    cur_depth += 1
                    if cur not in activated:
                        activated.add(cur)
                        stack.append((cur, cur_depth))
                        deepest = max(deepest, cur_depth)
                        if deepest >= max_depth:
                            return deepest
            return deepest

        for rep in range(400):
            base = replicate_key(seed, rep)
            fifo = _frog_replicate(base, d, c, d * q, max_depth, bases)
            assert lifo_deepest(base) == fifo

    def test_activation_cap_raises(self):
        config = FrogSimConfig(
            params=TreeParams(2, 1.0, 0.35), max_depth=30,
            replicates=200, seed=7, activation_cap=5,
        )
        with pytest.raises(ActivationCapError, match="^activated set exceeded cap of 5 vertices$"):
            simulate_frog(config)

    @pytest.mark.parametrize("d, c, q, max_depth, cap", [(2, 1.0, 0.35, 12, 30), (3, 0.5, 0.3, 10, 10)])
    def test_the_cap_binds_only_until_a_replicate_retires(self, d, c, q, max_depth, cap):
        """Some replicate here passes `cap` vertices in the step that retires it.

        Its outcome is known by then, so the run does not raise and gives
        the uncapped histogram.  Counting retired replicates too would raise.
        """
        def run(activation_cap):
            config = FrogSimConfig(
                params=TreeParams(d, c, q), max_depth=max_depth, replicates=200, seed=7,
                activation_cap=activation_cap,
            )
            return simulate_frog(config).reached_depth

        assert np.array_equal(run(cap), run(10**7))

    def test_config_validation(self):
        params = TreeParams(2, 1.0, 0.3)
        with pytest.raises(ParameterError):
            FrogSimConfig(params=params, max_depth=0, replicates=10, seed=1)
        with pytest.raises(ParameterError):
            FrogSimConfig(params=params, max_depth=5, replicates=0, seed=1)
        with pytest.raises(ParameterError):
            FrogSimConfig(params=params, max_depth=5, replicates=10, seed=-1)

    def test_rejects_depths_whose_vertex_numbers_alias(self):
        """uniform() keys vertices mod 2^64, so numbers >= 2^64 are refused."""
        base = replicate_key(1, 0)
        assert uniform(base, 5, 0) == uniform(base, 5 + 2**64, 0)
        for d, first in ((2, 63), (3, 40), (10, 20), (100, 10)):
            assert _first_aliased_depth(d) == first
            # the last vertex of level L is one below the first of level L + 1
            last = [_level_bases(d, L + 1)[L + 1] - 1 for L in (first - 1, first)]
            assert last[0] < 2**64 <= last[1]
            params = TreeParams(d, 1.0, 0.1 / d)
            config = FrogSimConfig(params=params, max_depth=first - 1, replicates=5, seed=1)
            assert simulate_frog(config).replicates == 5
            with pytest.raises(ParameterError, match="2\\^64"):
                FrogSimConfig(params=params, max_depth=first, replicates=5, seed=1)


# (d, c, q, max_depth) for the level engine against the scalar queue
LEVEL_GRID = [
    (2, 1.0, 0.35, 12),  # the bench's supercritical shape
    (2, 1.0, 0.2729, 21),  # near-critical
    (2, 0.9, 0.5, 16),  # d q = 1: every walker either stays or runs to max_depth
    (2, 1.0, 0.2, 20),  # subcritical
    (3, 0.5, 0.3, 10),
    (3, 1.0, 0.3, 1),
    (10, 1.0, 0.09, 5),
    # trees larger than the default cap of 10^7 vertices
    (2, 1.0, 0.25, 30),
    (2, 1.0, 0.2729, 40),
    (3, 1.0, 0.19, 25),
]


def _queue_deepest(keys, d, c, q, max_depth):
    bases = _level_bases(d, max_depth + 1)
    return [_frog_replicate(int(k), d, c, d * q, max_depth, bases) for k in keys]


def _cluster_levels(base, d, c, q, max_depth):
    """One replicate's cluster grown in full: vertices per depth, and the
    shallowest depth whose walker launches with reach to max_depth.

    The scalar queue's draws without its stop at max_depth: every walker
    runs to its reach, capped at max_depth.  The depth is max_depth + 1
    when no walker has that reach, so counts[:depth].sum() is the most
    vertices the replicate holds before it retires.
    """
    bases = _level_bases(d, max_depth + 1)
    depth_of = {0: 0}
    queue = [0]
    retires = max_depth + 1
    for vertex in queue:  # the queue grows while it is read
        depth = depth_of[vertex]
        budget = max_depth - depth
        reach = _reach_from_uniform(uniform(base, vertex, 0), c, d * q, budget)
        if reach == budget:
            retires = min(retires, depth)
        cur = vertex
        for j in range(1, reach + 1):
            fanout = d + 1 if cur == 0 else d
            choice = min(int(uniform(base, cur, j) * fanout), fanout - 1)
            cur = _child_number(cur, depth + j - 1, choice, d, bases)
            if cur not in depth_of:
                depth_of[cur] = depth + j
                queue.append(cur)
    return np.bincount(list(depth_of.values()), minlength=max_depth + 1), retires


def _counting_child_number(monkeypatch):
    """Route _child_number through a spy; return the list of its output sizes."""
    sizes = []

    def spy(v, *args):
        sizes.append(np.size(v))
        return _child_number(v, *args)

    monkeypatch.setattr(simulator, "_child_number", spy)
    return sizes


class TestLevelEngine:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("d, c, q, max_depth", LEVEL_GRID)
    def test_matches_the_scalar_queue_replicate_by_replicate(self, d, c, q, max_depth, seed):
        bases = _level_bases(d, max_depth + 1)
        keys = replicate_key_range(seed, 0, 500)
        table = _reach_thresholds(c, d * q, max_depth)
        got = _frog_levels(keys, d, table, max_depth, bases, bases[max_depth + 1])
        want = [
            _frog_replicate(int(k), d, c, d * q, max_depth, bases)
            for k in keys
        ]
        assert got.tolist() == want
        assert 0 < got.max()

    @pytest.mark.parametrize("d, c, q, max_depth", [(2, 1.0, 0.28, 60), (3, 1.0, 0.19, 38)])
    def test_deep_shapes_run_full_blocks(self, d, c, q, max_depth, monkeypatch):
        """Levels wider than 2^64 / _BLOCK vertices take whole blocks.

        The dedup key of a step, slot * fanout + choice, is below fanout
        times the vertices activated at the level before, whatever the
        level's width.  q is just above q_c, so surviving clusters sink
        level by level without retiring early.
        """
        bases = _level_bases(d, max_depth + 1)
        assert _BLOCK * (bases[max_depth + 1] - bases[max_depth]) > 2**64
        replicates, seed = _BLOCK + 3, 3
        runs = []

        def spy(keys, *args):
            deepest = _frog_levels(keys, *args)
            runs.append((keys, deepest))
            return deepest

        monkeypatch.setattr(simulator, "_frog_levels", spy)
        config = FrogSimConfig(
            params=TreeParams(d, c, q), max_depth=max_depth, replicates=replicates, seed=seed,
        )
        hist = simulate_frog(config).reached_depth
        assert [keys.size for keys, _ in runs] == [_BLOCK, 3]
        keys = np.concatenate([keys for keys, _ in runs])
        assert np.array_equal(keys, replicate_key_range(seed, 0, replicates))
        want = _queue_deepest(keys, d, c, q, max_depth)
        assert np.concatenate([deepest for _, deepest in runs]).tolist() == want
        assert np.array_equal(hist, np.bincount(want, minlength=max_depth + 1))
        assert hist[max_depth] > 0

    def test_sorted_and_marked_keys_give_one_outcome(self, monkeypatch):
        """Both dedups of a step number the new vertices in key order."""
        for d, c, q, max_depth in LEVEL_GRID:
            bases = _level_bases(d, max_depth + 1)
            keys = replicate_key_range(8, 0, 300)
            table = _reach_thresholds(c, d * q, max_depth)
            runs = []
            for dense in (0, 2**62):
                monkeypatch.setattr(simulator, "_DENSE", dense)
                runs.append(_frog_levels(keys, d, table, max_depth, bases, 10**9).tolist())
            assert runs[0] == runs[1] == _queue_deepest(keys, d, c, q, max_depth)

    @pytest.mark.parametrize("d", [10**6, 2**31, 2**62])
    def test_huge_degrees(self, d):
        """A step from the root has d + 1 choices: far more than there are walkers."""
        c, q = 0.99, 1.0 / d
        max_depth = _first_aliased_depth(d) - 1
        bases = _level_bases(d, max_depth + 1)
        keys = replicate_key_range(9, 0, 300)
        table = _reach_thresholds(c, d * q, max_depth)
        got = _frog_levels(keys, d, table, max_depth, bases, bases[max_depth + 1])
        assert got.tolist() == _queue_deepest(keys, d, c, q, max_depth)

    @pytest.mark.parametrize("d, c, q, max_depth, replicates, seed", [
        # the simulate frog goldens
        (2, 1.0, 0.35, 12, 30000, 7),
        (3, 0.5, 0.3, 10, 3000, 2**64 - 1),
        (2, 1.0, 0.2729, 21, 5000, 3),
        (2, 0.9, 0.5, 16, 4000, 11),
        (4, 0.8, 0.2, 1, 2000, 0),
        (10, 1.0, 0.09, 7, 2000, 5),
        (2, 1.0, 0.2729, 40, 2000, 3),
        # c d q = 0.99: most walkers launch with reach to the horizon
        (1000, 1.0, 0.00099, 5, 2000, 0),
    ])
    def test_no_record_forms_at_the_horizon(self, d, c, q, max_depth, replicates, seed,
                                            monkeypatch):
        """A walker that could reach max_depth retires its replicate when it launches.

        So every step leaves a depth of at most max_depth - 2, no vertex at
        max_depth is ever numbered, and the level loop stops before max_depth.
        """
        depths = []

        def spy(v, depth, *args):
            depths.append(depth)
            return _child_number(v, depth, *args)

        monkeypatch.setattr(simulator, "_child_number", spy)
        config = FrogSimConfig(
            params=TreeParams(d, c, q), max_depth=max_depth, replicates=replicates, seed=seed,
        )
        assert simulate_frog(config).reached_depth[max_depth] > 0
        assert all(depth <= max_depth - 2 for depth in depths)

    def test_one_record_per_activated_vertex(self, monkeypatch):
        """Each level numbers its new vertices in one _child_number call.

        No replicate here reaches max_depth, so every cluster grows in
        full: a block makes one call per level down to its deepest vertex,
        and each call numbers exactly the vertices activated at that level,
        summed over the block's replicates.  bench/tracing.py counts these
        calls as simulator.tree.steps.
        """
        d, c, q, max_depth = 2, 1.0, 0.15, 20
        replicates, seed = _BLOCK + 300, 4
        sizes = _counting_child_number(monkeypatch)
        blocks = []

        def spy(keys, *args):
            start = len(sizes)
            deepest = _frog_levels(keys, *args)
            blocks.append((keys, sizes[start:]))
            return deepest

        monkeypatch.setattr(simulator, "_frog_levels", spy)
        config = FrogSimConfig(
            params=TreeParams(d, c, q), max_depth=max_depth, replicates=replicates, seed=seed,
        )
        assert simulate_frog(config).reached_depth[max_depth] == 0
        assert [keys.size for keys, _ in blocks] == [_BLOCK, 300]
        for keys, block_sizes in blocks:
            counts = sum(_cluster_levels(int(k), d, c, q, max_depth)[0] for k in keys)
            levels = np.flatnonzero(counts).max()
            assert len(block_sizes) == levels
            assert block_sizes == counts[1 : levels + 1].tolist()

    @pytest.mark.parametrize("d, c, ratio, max_depth, levels, seed", [
        (2, 1.0, 0.75, 30, 14, 25),
        (2, 1.0, 1.0, 30, 14, 26),
        (2, 1.0, 1.05, 30, 14, 27),
        (3, 0.5, 0.9, 39, 12, 28),
        (3, 0.5, 1.0, 39, 12, 29),
    ])
    def test_mean_level_counts_are_d_to_the_n_times_u_n(self, d, c, ratio, max_depth, levels,
                                                         seed, monkeypatch):
        """E Z_n = d^n u_n, with Z_n the vertices activated at depth n.

        Only its own branch reaches a vertex at depth n, and the root's
        walker enters that branch w.p. 1/(d+1), so the vertex activates
        w.p. (d/(d+1)) u_n; there are (d+1) d^(n-1) of them.  A block's
        _child_number calls number its new vertices level by level (see
        test_one_record_per_activated_vertex).  A replicate stops growing
        when it retires, which needs a walker from a depth L < levels with
        reach max_depth - L >= 17: sum_L d^L u_L c (d q)^(max_depth - L)
        expects at most 16 of the 10^5 replicates to retire before the last
        tested level (at q/q_c = 1.05), far too few to move a mean by one
        standard error.  That error is a batch mean over blocks; a block
        past _WALKERS (None) runs again as halves.
        """
        params = TreeParams(d, c, ratio * solve_qc(d, c).q_c)
        replicates = 10**5
        sizes = _counting_child_number(monkeypatch)
        batches = []

        def spy(keys, *args):
            start = len(sizes)
            deepest = _frog_levels(keys, *args)
            if deepest is not None:
                counts = np.zeros(levels + 1)
                block_sizes = sizes[start : start + levels]
                counts[1 : len(block_sizes) + 1] = block_sizes
                batches.append((keys.size, counts))
            return deepest

        monkeypatch.setattr(simulator, "_frog_levels", spy)
        config = FrogSimConfig(params=params, max_depth=max_depth, replicates=replicates, seed=seed)
        simulate_frog(config)
        reps = np.array([size for size, _ in batches])
        totals = np.array([counts for _, counts in batches])
        assert reps.sum() == replicates
        mean = totals.sum(axis=0) / replicates
        spread = ((totals - np.outer(reps, mean)) ** 2).sum(axis=0)
        se = np.sqrt(len(batches) / (len(batches) - 1) * spread) / replicates
        exact = growth_sequence(d, params.hazard_spec, levels)
        z = (mean[1:] - exact[1:]) / se[1:]
        assert np.all(np.abs(z) <= 4.0), z

    def test_a_block_past_the_cap_in_total_runs_uncapped(self):
        """The cap is counted per replicate that has not retired.

        The cap is the most vertices any replicate holds before it retires,
        so the block's total passes it.  Replicates retire when a walker
        launches with reach to max_depth, and would pass the cap had they
        grown on.
        """
        d, c, q, max_depth = 2, 1.0, 0.35, 12
        bases = _level_bases(d, max_depth + 1)
        keys = replicate_key_range(10, 0, 200)
        table = _reach_thresholds(c, d * q, max_depth)
        held = []
        for k in keys:
            counts, retires = _cluster_levels(int(k), d, c, q, max_depth)
            held.append(int(counts[:retires].sum()))
        cap = max(held)
        want = _queue_deepest(keys, d, c, q, max_depth)
        assert sum(held) > cap and want.count(max_depth) > 0
        assert _frog_levels(keys, d, table, max_depth, bases, cap).tolist() == want
        with pytest.raises(ActivationCapError, match=f"^activated set exceeded cap of {cap - 1} "):
            _frog_levels(keys, d, table, max_depth, bases, cap - 1)

    def test_a_lone_replicate_raises_at_the_level_it_passes_the_cap(self, monkeypatch):
        """Vertices up to depth L, root included, number cap + 1: the engine
        raises before its (L + 1)-th _child_number call."""
        d, c, q, max_depth = 2, 1.0, 0.2729, 21
        bases = _level_bases(d, max_depth + 1)
        table = _reach_thresholds(c, d * q, max_depth)
        clusters = {}
        for k in replicate_key_range(11, 0, 300):
            counts, retires = _cluster_levels(int(k), d, c, q, max_depth)
            if retires > max_depth:
                clusters[int(k)] = counts
        key = max(clusters, key=lambda k: clusters[k].sum())
        counts = clusters[key]
        levels = np.flatnonzero(counts).max()
        assert levels >= 5
        keys = np.array([key], dtype=np.uint64)
        sizes = _counting_child_number(monkeypatch)
        for level in range(1, levels + 1):
            cap = int(counts[: level + 1].sum()) - 1
            sizes.clear()
            with pytest.raises(ActivationCapError, match=f"^activated set exceeded cap of {cap} "):
                _frog_levels(keys, d, table, max_depth, bases, cap)
            assert len(sizes) == level
        sizes.clear()
        assert _frog_levels(keys, d, table, max_depth, bases, cap + 1).tolist() == [levels]
        assert len(sizes) == levels

    def test_a_root_walker_bound_for_max_depth_retires_before_the_cap_check(self):
        """At cap 1 any step would raise, so these replicates never step."""
        d, c, q, max_depth = 2, 1.0, 0.45, 5
        bases = _level_bases(d, max_depth + 1)
        table = _reach_thresholds(c, d * q, max_depth)
        keys = replicate_key_range(12, 0, 400)
        root = [_reach_from_uniform(u, c, d * q, max_depth) for u in uniforms(keys, 0, 0).tolist()]
        keys = keys[np.array(root) == max_depth]
        assert keys.size > 100
        got = _frog_levels(keys, d, table, max_depth, bases, 1)
        assert got.tolist() == [max_depth] * keys.size

    def test_a_block_past_the_walker_budget_runs_again_as_halves(self, monkeypatch):
        calls = []

        def spy(keys, *args):
            calls.append(keys.size)
            return _frog_levels(keys, *args)

        def run(replicates, walkers):
            calls.clear()
            monkeypatch.setattr(simulator, "_WALKERS", walkers)
            config = FrogSimConfig(
                params=TreeParams(2, 1.0, 0.35), max_depth=20, replicates=replicates, seed=5,
            )
            return simulate_frog(config).reached_depth.tobytes()

        monkeypatch.setattr(simulator, "_frog_levels", spy)
        whole = run(_BLOCK + 100, 2**20)
        assert calls == [_BLOCK, 100]
        assert run(_BLOCK + 100, 2**10) == whole
        assert len(calls) > 2 and calls[:2] == [_BLOCK, _BLOCK // 2]
        assert np.frombuffer(whole, dtype=np.int64)[20] > 0
        # a block of one replicate is not split: the cap bounds it
        whole = run(5, 2**20)
        assert run(5, 0) == whole
        assert calls == [5, 3, 2, 1, 1]  # the first 3 have no live walker to split on


class TestSimulateFirework:
    def test_first_site_probability(self):
        spec = HazardSpec(0.7, 0.3)
        outcome = simulate_firework(spec, 5, 100_000, 21)
        p_hat = outcome.branch_hits[1] / 100_000
        assert abs(p_hat - 0.21) <= 4 * binom_se(0.21, 100_000)

    @staticmethod
    def _agrees_with_recursion(c, q, seed, replicates=100_000):
        spec = HazardSpec(c, q)
        outcome = simulate_firework(spec, 20, replicates, seed)
        u = renewal_probabilities(spec, 20).values
        return all(
            abs(outcome.branch_hits[n] / replicates - u[n])
            <= 4 * binom_se(u[n], replicates)
            for n in range(1, 21)
        )

    def test_matches_renewal_recursion_on_grid(self):
        """Estimates track exact u_n over a 3x3 (c, q) grid, n <= 20.

        At most one cell may miss at 4 sigma; a rerun with a fresh seed
        must then pass.
        """
        failed = [
            (c, q)
            for c in (0.5, 0.8, 1.0)
            for q in (0.1, 0.25, 0.27)
            if not self._agrees_with_recursion(c, q, seed=31)
        ]
        assert len(failed) <= 1, failed
        assert all(self._agrees_with_recursion(c, q, seed=32) for c, q in failed)

    def test_monotone_coupling_in_q(self):
        """Same seed, larger q: no site is ever un-informed."""
        lo = simulate_firework(HazardSpec(1.0, 0.20), 15, 20_000, 8)
        hi = simulate_firework(HazardSpec(1.0, 0.25), 15, 20_000, 8)
        assert np.all(hi.branch_hits >= lo.branch_hits)

    def test_deterministic_given_seed(self):
        a = simulate_firework(HazardSpec(0.8, 0.3), 10, 5000, 77)
        b = simulate_firework(HazardSpec(0.8, 0.3), 10, 5000, 77)
        assert a.branch_hits.tobytes() == b.branch_hits.tobytes()
        assert a.reached_depth.tobytes() == b.reached_depth.tobytes()

    def test_hits_consistent_with_depth_histogram(self):
        outcome = simulate_firework(HazardSpec(0.9, 0.3), 12, 10_000, 3)
        # hits[k] counts rightmost >= k
        tail = np.cumsum(outcome.reached_depth[::-1])[::-1]
        np.testing.assert_array_equal(outcome.branch_hits, tail)

    def test_seed_range_validation(self):
        for seed in (-1, 2**64):
            with pytest.raises(ParameterError, match="64-bit unsigned"):
                simulate_firework(HazardSpec(0.5, 0.4), 5, 100, seed)

    def test_a_line_without_sites_is_refused(self):
        with pytest.raises(ParameterError, match="^n must be >= 1, got 0$"):
            simulate_firework(HazardSpec(1, 0.3), 0, 10, 1)

    def test_growth_direction_flips_across_the_critical_point(self):
        """d^n p_hat grows above q_c and shrinks below it (d=2, c=1).

        p_3 and p_9 come from one run: hitting site 9 implies hitting
        site 3, so they covary positively and the independent sigma bounds
        that of their difference.
        """
        qc = solve_qc(2, 1.0).q_c
        replicates = 400_000
        for offset, expect_growth in ((+0.02, True), (-0.02, False)):
            spec = HazardSpec(1.0, qc + offset)
            u = renewal_probabilities(spec, 9).values
            hits = simulate_firework(spec, 9, replicates, 71).branch_hits
            v3, v9 = 2**3 * hits[3] / replicates, 2**9 * hits[9] / replicates
            sigma = math.hypot(
                2**3 * binom_se(u[3], replicates), 2**9 * binom_se(u[9], replicates)
            )
            if expect_growth:
                assert v9 - v3 > 4 * sigma
            else:
                assert v3 - v9 > 4 * sigma


def _matrix_line(spec: HazardSpec, n: int, replicates: int, seed: int):
    """Every (replicate, site) radius as one matrix, then one prefix scan."""
    radii = _radii_from_uniforms(uniform_matrix(seed, replicates, n, draw=0), spec.c, spec.q)
    return _informed_counts(radii, n)


class TestFrontierEngine:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("c, q", [(1.0, 0.25), (1.0, 0.6), (1.0, 0.9), (0.5, 0.95), (0.3, 0.05)])
    def test_bit_equal_to_the_matrix_pipeline(self, c, q, seed):
        """Dies out early at q = 0.05 and 0.25, still alive at site 200 at q >= 0.9."""
        spec = HazardSpec(c, q)
        for n in (1, 20, 200):
            for replicates in (1, 7, 5000):
                outcome = simulate_firework(spec, n, replicates, seed)
                hits, depth_hist = _matrix_line(spec, n, replicates, seed)
                assert np.array_equal(outcome.branch_hits, hits)
                assert np.array_equal(outcome.reached_depth, depth_hist)

    def test_memory_is_linear_in_replicates_plus_sites(self):
        """10^7 sites: the radius matrix of 1000 replicates would take 80 GB."""
        n, replicates = 10**7, 1000
        outcome = simulate_firework(HazardSpec(1.0, 0.25), n, replicates, 5)
        hits = outcome.branch_hits
        assert len(hits) == n + 1 and hits[0] == replicates
        last = int(np.flatnonzero(hits)[-1])
        assert 1 <= last < 100
        assert not hits[last + 1 :].any()
        assert not outcome.reached_depth[last + 1 :].any()
        assert outcome.reached_depth[last] == hits[last]


class TestLineBlocks:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("c, q", [(1.0, 0.25), (1.0, 0.9)])
    @pytest.mark.parametrize("n", [1, 200])
    def test_bit_equal_to_the_matrix_pipeline_across_block_ends(self, n, c, q, seed):
        """One replicate short of a block, a full block, one over, two and a bit."""
        spec = HazardSpec(c, q)
        for replicates in (_LINE_BLOCK - 1, _LINE_BLOCK, _LINE_BLOCK + 1, 2 * _LINE_BLOCK + 3):
            outcome = simulate_firework(spec, n, replicates, seed)
            hits, depth_hist = _matrix_line(spec, n, replicates, seed)
            assert np.array_equal(outcome.branch_hits, hits)
            assert np.array_equal(outcome.reached_depth, depth_hist)


def _traced_peak_mib(engine, *args) -> float:
    tracemalloc.start()
    try:
        engine(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemoryIsSetByTheBlock:
    """Peak traced memory must not grow with the replicate count."""

    @staticmethod
    def _assert_flat(small, large):
        assert large - small <= 0.25, (small, large)
        assert large < 2.0, large

    def test_line_engine(self):
        spec = HazardSpec(1.0, 0.25)
        self._assert_flat(
            _traced_peak_mib(simulate_firework, spec, 200, 10**5, 9),
            _traced_peak_mib(simulate_firework, spec, 200, 10**6, 9),
        )

    def test_long_line_keeps_one_extra_per_site_array(self):
        # branch_hits and reached_depth are n+1 int64 each; a third such array exceeds the bound
        n = 10**6
        peak_bytes = _traced_peak_mib(simulate_firework, HazardSpec(1.0, 0.25), n, 1000, 9) * 2**20
        assert peak_bytes <= 2.5 * 8 * (n + 1)

    def test_level_engine_at_the_benchmark_shape(self):
        def config(replicates):
            return FrogSimConfig(
                params=TreeParams(2, 1.0, 0.35), max_depth=12, replicates=replicates, seed=9
            )

        self._assert_flat(
            _traced_peak_mib(simulate_frog, config(30_000)),
            _traced_peak_mib(simulate_frog, config(120_000)),
        )

    def test_level_engine_on_a_deep_supercritical_shape(self, monkeypatch):
        """Clusters sink to depth 40 before they retire, so a block's walkers
        grow with its replicates until the walker budget splits it.

        Unsplit, the 1024 replicates of one block peak past twice the bound.
        Under a budget of 2^12 walkers, 128 and 512 replicates peak alike,
        below 256 bytes per walker of the budget.
        """
        def config(replicates):
            return FrogSimConfig(
                params=TreeParams(2, 1.0, 0.35), max_depth=40, replicates=replicates, seed=2
            )

        bound = 256 * 2**12 / 2**20
        assert _traced_peak_mib(simulate_frog, config(1024)) > 2 * bound
        monkeypatch.setattr(simulator, "_WALKERS", 2**12)
        small = _traced_peak_mib(simulate_frog, config(128))
        large = _traced_peak_mib(simulate_frog, config(512))
        assert large < bound and large < 1.25 * small, (small, large)


def test_level_engine_block_peak_stays_under_its_guard():
    """One _frog_levels call at the benchmark's block shape: (2, 1, 0.35),
    depth 12, 4096 replicates.  Records carry their entity hash and walkers
    a byte-wide draw, so the traced peak stays below 600 KB: 465 KB on
    numpy 2.4.6, where the engine that hashed every draw from its key
    peaked at 808 KB."""
    max_depth = 12
    keys = replicate_key_range(7, 0, 4096)
    bases = _level_bases(2, max_depth + 1)
    thresholds = _reach_thresholds(1.0, 0.7, max_depth)
    peak = _traced_peak_mib(_frog_levels, keys, 2, thresholds, max_depth, bases, 10**7) * 2**20
    assert peak < 600_000, peak


def test_subnormal_scale_is_refused_before_the_line_engine(capsys):
    """u / c would overflow for subnormal c; the hazard law refuses c, and the CLI exits 2."""
    message = "c and q must be normal floats, got c = 1e-310, q = 0.5"
    with pytest.raises(ParameterError, match=f"^{message}$"):
        HazardSpec(1e-310, 0.5)
    args = "simulate firework --c 1e-310 --q 0.5 --n 5 --replicates 10 --seed 1".split()
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _path_number(path, d):
    """Breadth-first number of the vertex reached by a child-index path."""
    bases = _level_bases(d, len(path))
    v = 0
    for depth, child in enumerate(path):
        v = _child_number(v, depth, child, d, bases)
    return v


class TestChildNumber:
    def test_breadth_first_numbering(self):
        assert _path_number((), 2) == 0
        assert _path_number((2,), 2) == 3  # root has children 1..3
        # child 1 of vertex 3 (depth 1): level-2 block starts at 4
        assert _path_number((2, 1), 2) == 4 + 2 * 2 + 1

    def test_numbering_is_injective_per_level(self):
        d = 3
        level2 = [_path_number((a, b), d) for a in range(d + 1) for b in range(d)]
        assert len(set(level2)) == len(level2)

    @pytest.mark.parametrize("d", [2, 3, 10, 100])
    def test_uint64_arrays_equal_the_int_form(self, d):
        """The level engine's uint64 form, at every depth whose numbers fit in 64 bits.

        Each level takes its first and last vertex, with the smallest and
        largest child index, plus random vertices and children; the last
        vertex's children below _first_aliased_depth(d) come near 2^64.
        """
        rng = np.random.default_rng(d)
        limit = _first_aliased_depth(d)
        bases = _level_bases(d, limit)
        level_start = [np.uint64(b) for b in bases[: limit + 1]]
        for depth in range(limit - 1):
            fanout = d + 1 if depth == 0 else d
            first, last = bases[depth], bases[depth + 1] - 1
            v = [first, last, first, last] + [
                int(x) for x in rng.integers(first, last, 6, endpoint=True, dtype=np.uint64)
            ]
            child = [0, fanout - 1, fanout - 1, 0] + rng.integers(0, fanout, 6).tolist()
            got = _child_number(
                np.array(v, dtype=np.uint64), depth, np.array(child, dtype=np.uint64),
                d, level_start,
            )
            want = [_child_number(a, depth, b, d, bases) for a, b in zip(v, child)]
            assert got.dtype == np.uint64
            assert [int(x) for x in got] == want
            assert max(want) == bases[depth + 2] - 1
        # the deepest children checked lie within a factor d + 1 of 2^64
        assert (bases[limit] - 1) * (d + 1) > 2**64


class TestSimOutcome:
    def test_mass_must_match_replicates(self):
        with pytest.raises(ParameterError):
            SimOutcome(
                reached_depth=np.array([1, 2, 3]), branch_hits=None,
                replicates=7, seed=0,
            )

    def test_branch_hits_must_be_nonincreasing(self):
        with pytest.raises(ParameterError):
            SimOutcome(
                reached_depth=np.array([1, 1]), branch_hits=np.array([1, 2]),
                replicates=2, seed=0,
            )
