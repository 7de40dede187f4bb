"""Tests for the Monte Carlo engines against exact laws and recursions."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from frogcrit import (
    ActivationCapError,
    FrogSimConfig,
    HazardSpec,
    ParameterError,
    SimOutcome,
    TreeParams,
    estimate_branch_hit,
    renewal_probabilities,
    simulate_firework,
    simulate_frog,
    solve_qc,
)
from frogcrit import simulator
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
            fifo = _frog_replicate(base, d, c, d * q, max_depth, 10**6, bases)
            assert lifo_deepest(base) == fifo

    def test_activation_cap_raises(self):
        config = FrogSimConfig(
            params=TreeParams(2, 1.0, 0.35), max_depth=30,
            replicates=200, seed=7, activation_cap=5,
        )
        with pytest.raises(ActivationCapError, match="^activated set exceeded cap of 5 vertices$"):
            simulate_frog(config)

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
    (2, 1.0, 0.2729, 21),  # near-critical, and the deepest level-engine tree at d = 2
    (2, 0.9, 0.5, 16),  # d q = 1: every walker either stays or runs to max_depth
    (2, 1.0, 0.2, 20),  # subcritical
    (3, 0.5, 0.3, 10),
    (3, 1.0, 0.3, 1),
    (10, 1.0, 0.09, 5),
]


class TestLevelEngine:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("d, c, q, max_depth", LEVEL_GRID)
    def test_matches_the_scalar_queue_replicate_by_replicate(self, d, c, q, max_depth, seed):
        bases = _level_bases(d, max_depth + 1)
        keys = replicate_key_range(seed, 0, 500)
        table = _reach_thresholds(c, d * q, max_depth)
        got = _frog_levels(keys, d, table, max_depth, bases)
        want = [
            _frog_replicate(int(k), d, c, d * q, max_depth, bases[max_depth + 1], bases)
            for k in keys
        ]
        assert got.tolist() == want
        assert 0 < got.max()

    def test_dispatch_boundary(self, monkeypatch):
        """The level engine runs iff the whole tree fits under the cap; both agree."""
        d, max_depth, replicates = 3, 6, _BLOCK + 3
        bases = _level_bases(d, max_depth + 1)
        calls = {"levels": 0, "scalar": 0}

        def spy(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(simulator, "_frog_levels", spy("levels", _frog_levels))
        monkeypatch.setattr(simulator, "_frog_replicate", spy("scalar", _frog_replicate))

        def run(cap):
            config = FrogSimConfig(
                params=TreeParams(d, 0.8, 0.25), max_depth=max_depth,
                replicates=replicates, seed=4, activation_cap=cap,
            )
            return simulate_frog(config).reached_depth

        fitting = run(bases[max_depth + 1])
        assert calls == {"levels": 2, "scalar": 0}
        too_big = run(bases[max_depth + 1] - 1)
        assert calls == {"levels": 2, "scalar": replicates}
        assert np.array_equal(fitting, too_big)
        assert fitting[0] > 0 and fitting[max_depth] > 0


def test_level_blocks_shrink_where_the_packed_key_would_wrap(monkeypatch):
    """Blocks of _BLOCK replicates times a level width past 2^64 would wrap the key.

    At d = 2 and depth 60 a level holds 3 * 2^59 vertices, so each block
    takes 2^64 // width = 10 replicates.  Walkers are short (d q = 0.56)
    and q is just above q_c = 0.2729, so surviving clusters sink level by
    level without retiring early, down to where one block of all the
    replicates would wrap its keys (it miscounts 25 of them).
    """
    d, c, q, max_depth, seed = 2, 1.0, 0.28, 60, 3
    bases = _level_bases(d, max_depth + 1)
    tree = bases[max_depth + 1]
    width = tree - bases[max_depth]
    assert _BLOCK * width > 2**64
    block = 2**64 // width
    assert block == 10
    replicates = 40 * block + 3
    runs = []

    def spy(keys, *args):
        deepest = _frog_levels(keys, *args)
        runs.append((keys, deepest))
        return deepest

    monkeypatch.setattr(simulator, "_frog_levels", spy)
    config = FrogSimConfig(
        params=TreeParams(d, c, q), max_depth=max_depth, replicates=replicates,
        seed=seed, activation_cap=tree,
    )
    hist = simulate_frog(config).reached_depth
    assert [keys.size for keys, _ in runs] == [block] * 40 + [3]
    keys = np.concatenate([keys for keys, _ in runs])
    assert np.array_equal(keys, replicate_key_range(seed, 0, replicates))
    want = [_frog_replicate(int(k), d, c, d * q, max_depth, tree, bases) for k in keys]
    assert np.concatenate([deepest for _, deepest in runs]).tolist() == want
    assert np.array_equal(hist, np.bincount(want, minlength=max_depth + 1))
    assert hist[max_depth] > 0


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


def _matrix_line(spec: HazardSpec, n: int, replicates: int, seed: int):
    """Every (replicate, site) radius as one matrix, then one prefix scan."""
    radii = _radii_from_uniforms(uniform_matrix(seed, replicates, n, draw=0), spec.c, spec.q)
    return _informed_counts(radii, n)


def _matrix_branch_hit(params: TreeParams, n: int, replicates: int, seed: int) -> float:
    """estimate_branch_hit as reach and off-branch-turn matrices, then one prefix scan."""
    d, c, q = params.d, params.c, params.q
    dq = d * q
    u_reach = uniform_matrix(seed, replicates, n, draw=1)
    u_turn = uniform_matrix(seed, replicates, n, draw=2)
    if dq >= 1.0:
        reach = np.where(u_reach <= c, np.inf, 0.0)
    else:
        reach = _radii_from_uniforms(u_reach, c, dq)
    on_branch = np.floor(np.log(u_turn) / -np.log(d))
    hits, _ = _informed_counts(np.minimum(reach, on_branch), n)
    return hits[n] / replicates


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

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("params", [TreeParams(2, 1.0, 0.25), TreeParams(2, 0.5, 0.5)],
                             ids=["dq<1", "dq=1"])
    @pytest.mark.parametrize("n", [1, 12])
    def test_branch_hit_bit_equal_to_the_matrix_pipeline_across_block_ends(self, n, params, seed):
        for replicates in (_LINE_BLOCK - 1, _LINE_BLOCK, _LINE_BLOCK + 1, 2 * _LINE_BLOCK + 3):
            assert estimate_branch_hit(params, n, replicates, seed) == _matrix_branch_hit(
                params, n, replicates, seed
            )


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
        params = TreeParams(2, 1.0, 0.25)
        self._assert_flat(
            _traced_peak_mib(estimate_branch_hit, params, 20, 10**4, 9),
            _traced_peak_mib(estimate_branch_hit, params, 20, 10**5, 9),
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


class TestEstimateBranchHit:
    def test_first_site_probability(self):
        params = TreeParams(2, 0.7, 0.3)
        p_hat = estimate_branch_hit(params, 1, 100_000, 41)
        assert abs(p_hat - 0.21) <= 4 * binom_se(0.21, 100_000)

    def test_matches_renewal_recursion(self):
        params = TreeParams(2, 1.0, 0.25)
        u = renewal_probabilities(params.hazard_spec, 12).values
        replicates = 100_000
        for n in (3, 8, 12):
            p_hat = estimate_branch_hit(params, n, replicates, 51)
            assert abs(p_hat - u[n]) <= 4 * binom_se(u[n], replicates)

    def test_agrees_with_line_engine(self):
        """Two samplers of the same law agree within combined 4 sigma."""
        params = TreeParams(3, 0.9, 0.2)
        n, replicates = 10, 100_000
        p_branch = estimate_branch_hit(params, n, replicates, 61)
        fw = simulate_firework(params.hazard_spec, n, replicates, 61)
        p_line = fw.branch_hits[n] / replicates
        u = renewal_probabilities(params.hazard_spec, n).values[n]
        sigma_diff = math.sqrt(2.0) * binom_se(u, replicates)
        assert abs(p_branch - p_line) <= 4 * sigma_diff

    def test_unit_step_budget_edge(self):
        # d*q == 1: the walker's reach is infinite with probability c, but
        # the first off-branch turn still compounds to the line law c q^m
        params = TreeParams(2, 0.5, 0.5)
        u = renewal_probabilities(params.hazard_spec, 8).values
        replicates = 100_000
        for n in (2, 8):
            p_hat = estimate_branch_hit(params, n, replicates, 81)
            assert abs(p_hat - u[n]) <= 4 * binom_se(u[n], replicates)

    def test_seed_range_validation(self):
        with pytest.raises(ParameterError):
            simulate_firework(HazardSpec(0.5, 0.5), 5, 100, -1)
        with pytest.raises(ParameterError):
            estimate_branch_hit(TreeParams(2, 0.5, 0.4), 5, 100, 2**64)

    def test_growth_direction_flips_across_the_critical_point(self):
        """d^n p_hat grows above q_c and shrinks below it (d=2, c=1)."""
        qc = solve_qc(2, 1.0).q_c
        replicates = 400_000
        for offset, expect_growth in ((+0.02, True), (-0.02, False)):
            params = TreeParams(2, 1.0, qc + offset)
            u = renewal_probabilities(params.hazard_spec, 9).values
            v3 = 2**3 * estimate_branch_hit(params, 3, replicates, 71)
            v9 = 2**9 * estimate_branch_hit(params, 9, replicates, 72)
            sigma = math.hypot(
                2**3 * binom_se(u[3], replicates), 2**9 * binom_se(u[9], replicates)
            )
            if expect_growth:
                assert v9 - v3 > 4 * sigma
            else:
                assert v3 - v9 > 4 * sigma


def test_subnormal_scale_informs_nobody_without_warning():
    """u / c overflows to inf for subnormal c; the radius is 0 and stays silent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = simulate_firework(HazardSpec(1e-310, 0.5), 5, 10, 1)
        assert outcome.branch_hits.tolist() == [10, 0, 0, 0, 0, 0]
        assert estimate_branch_hit(TreeParams(2, 1e-310, 0.3), 3, 10, 1) == 0.0


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
