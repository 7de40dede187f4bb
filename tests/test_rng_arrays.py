"""The array form of the uniform source against the scalar form, bit for bit."""

import numpy as np
import pytest

from frogcrit.rng import (
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
