"""The array form of the uniform source against the scalar form, bit for bit."""

import numpy as np
import pytest

from frogcrit.rng import (
    _hash_round,
    _to_unit,
    replicate_key,
    replicate_key_range,
    uniform,
    uniform_matrix,
    uniforms,
)

SEEDS = [0, 1, 2**63, 2**64 - 1, *np.random.default_rng(20).integers(0, 2**63, 4).tolist()]
EDGE_ENTITIES = [0, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_replicate_keys_match_scalar(seed):
    keys = replicate_key_range(seed, 0, 9)
    assert keys.dtype == np.uint64
    assert [int(k) for k in keys] == [replicate_key(seed, r) for r in range(9)]
    block = replicate_key_range(seed, 2046, 2051)
    assert [int(k) for k in block] == [replicate_key(seed, r) for r in range(2046, 2051)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("draw", [0, 1, 2])
def test_uniforms_match_scalar_at_edge_entities(seed, draw):
    keys = replicate_key_range(seed, 0, 6)
    for entity in EDGE_ENTITIES:
        got = uniforms(keys, entity, draw)
        want = [uniform(replicate_key(seed, r), entity, draw) for r in range(6)]
        assert got.tolist() == want


def test_uniforms_broadcast_entities_and_draws():
    keys = replicate_key_range(41, 0, 5)[:, None, None]
    entities = np.array(EDGE_ENTITIES + [7], dtype=np.uint64)[None, :, None]
    draws = np.arange(3, dtype=np.uint64)[None, None, :]
    got = uniforms(keys, entities, draws)
    assert got.shape == (5, 4, 3)
    for r in range(5):
        base = replicate_key(41, r)
        for e, entity in enumerate(EDGE_ENTITIES + [7]):
            for draw in range(3):
                assert got[r, e, draw] == uniform(base, entity, draw)


def test_scalar_key_gives_the_scalar_value():
    base = replicate_key(2**64 - 1, 3)
    assert uniforms(base, 2**64 - 1, 2) == uniform(base, 2**64 - 1, 2)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_uniform_matrix_is_uniforms_over_the_grid(seed):
    mat = uniform_matrix(seed, 40, 30, 1)
    keys = replicate_key_range(seed, 0, 40)
    for j in range(30):
        assert np.array_equal(mat[:, j], uniforms(keys, j, 1))
    assert mat[39, 29] == uniform(replicate_key(seed, 39), 29, 1)


def _owned(x):
    return np.array(x, dtype=np.uint64)


def test_uniforms_leaves_its_inputs_unchanged():
    """The hash rounds run in place, on an array uniforms allocates itself."""
    keys = replicate_key_range(5, 0, 8)
    entities = np.arange(8, dtype=np.uint64) * np.uint64(2**61)
    draws = np.full(8, 62, dtype=np.uint64)
    before = [a.tobytes() for a in (keys, entities, draws)]
    want = uniforms(keys.copy(), entities.copy(), draws.copy())
    assert np.array_equal(uniforms(keys, entities, draws), want)
    uniforms(keys[::2], entities[1::2], draws[:4])  # views
    uniforms(keys[3, ...], entities[3, ...], draws[3, ...])  # 0-d views
    uniforms(keys, keys, draws)  # one array twice
    uniforms(keys, keys, keys)
    uniforms(keys[:, None], entities[None, :], 0)
    assert [a.tobytes() for a in (keys, entities, draws)] == before
    assert np.array_equal(uniforms(keys, entities, draws), want)


@pytest.mark.parametrize("key", [0, 2**64 - 1])
@pytest.mark.parametrize("draw", [0, 62])
def test_entity_round_then_draw_round_is_the_scalar_uniform(key, draw):
    entity = 2**64 - 1
    want = uniform(key, entity, draw)
    zero_d = _to_unit(_hash_round(_hash_round(_owned(key), _owned(entity)), _owned(draw)))
    assert zero_d.shape == () and float(zero_d) == want
    one_d = _to_unit(_hash_round(_hash_round(_owned([key] * 3), entity), np.uint8(draw)))
    assert one_d.tolist() == [want] * 3
    grid = np.empty((2, 3), dtype=np.uint64)
    grid[...] = _owned([key, key])[:, None]
    entities = _owned([entity, 0, 7])[None, :]
    got = _to_unit(_hash_round(_hash_round(grid, entities), _owned([[draw], [draw]])))
    assert got.tolist() == [[uniform(key, e, draw) for e in (entity, 0, 7)]] * 2
