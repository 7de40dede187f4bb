"""Counter-based uniform variates keyed by (seed, replicate, entity, draw).

Each uniform is a pure function of its integer key, built from the
SplitMix64 finalizer.  This makes every draw reproducible under any
execution order, lets replicates run independently (and in parallel)
without shared state, and attaches randomness to simulation entities
(vertices, sites) rather than to the order in which they are processed.
The latter is what allows monotone-coupling arguments: two runs that
share a seed consume identical uniforms per entity, whatever the model
parameters.

Outputs lie in (0, 1], never 0, so inverse-transform sampling can take
logarithms safely.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0**-53


def _finalize(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


def replicate_key(seed: int, replicate: int) -> int:
    """Mix a master seed and a replicate index into a 64-bit base key."""
    h = _finalize((seed + _GOLDEN) & _MASK)
    return _finalize(((h ^ replicate) + _GOLDEN) & _MASK)


def uniform(base_key: int, entity: int, draw: int) -> float:
    """Uniform on (0, 1] for draw number `draw` of `entity` under `base_key`."""
    h = _finalize(((base_key ^ entity) + _GOLDEN) & _MASK)
    h = _finalize(((h ^ draw) + _GOLDEN) & _MASK)
    return ((h >> 11) + 1) * _INV53


def _finalize_u64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def replicate_key_range(seed: int, start: int, stop: int) -> np.ndarray:
    """uint64 base keys ``replicate_key(seed, r)`` for r = start..stop-1."""
    h0 = np.uint64(_finalize((seed + _GOLDEN) & _MASK))
    reps = np.arange(start, stop, dtype=np.uint64)
    return _finalize_u64((h0 ^ reps) + np.uint64(_GOLDEN))


def uniforms(base_keys, entity, draw) -> np.ndarray:
    """Array form of ``uniform``: (0, 1] uniforms for broadcast keys, entities, draws.

    Keys, entities and draws must lie in [0, 2^64).  Bit-identical to
    ``uniform`` element by element.
    """
    g = np.uint64(_GOLDEN)
    keys = np.asarray(base_keys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _finalize_u64((keys ^ np.asarray(entity, dtype=np.uint64)) + g)
        h = _finalize_u64((h ^ np.asarray(draw, dtype=np.uint64)) + g)
    return ((h >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53


def uniform_matrix(seed: int, replicates: int, entities: int, draw: int) -> np.ndarray:
    """(replicates, entities) matrix of (0, 1] uniforms, one draw index.

    Bit-identical to calling ``uniform(replicate_key(seed, r), e, draw)``
    for every pair (r, e), but vectorized.
    """
    keys = replicate_key_range(seed, 0, replicates)[:, None]
    return uniforms(keys, np.arange(entities, dtype=np.uint64)[None, :], draw)
