"""Deterministic seed derivation for bootstrap replicates and simulations.

``mix_seed`` is a splitmix64-style hash so substreams derived from
(seed, index...) never depend on scheduling or worker count.  Bit-exact
definition (all arithmetic mod 2^64):

    h = scramble(seed)
    for each index v:  h = scramble(h XOR (v mod 2^64))

    scramble(x): x += 0x9E3779B97F4B9255
                 x = (x XOR (x >> 30)) * 0xBF58476D1CE4E5B9
                 x = (x XOR (x >> 27)) * 0x94D049BB133111EB
                 return x XOR (x >> 31)

Generators are numpy Philox (counter-based) keyed by the mixed value.
"""

import numpy as np

_M64 = (1 << 64) - 1


def _scramble(x):
    x = (x + 0x9E3779B97F4B9255) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def mix_seed(seed, *indices):
    """Derive a 64-bit substream seed from a base seed and integer indices."""
    h = _scramble(int(seed) & _M64)
    for v in indices:
        h = _scramble(h ^ (int(v) & _M64))
    return h


def _key(seed, indices):
    return mix_seed(seed, *indices) if indices else int(seed) & _M64


def rng_from(seed, *indices):
    """Counter-based generator keyed by ``mix_seed(seed, *indices)``."""
    return np.random.Generator(np.random.Philox(key=_key(seed, indices)))


_ZERO4 = np.zeros(4, dtype=np.uint64)


def rekey(rng, seed, *indices):
    """Reset the Philox generator ``rng`` to the state a fresh
    ``rng_from(seed, *indices)`` starts in (zero counter, key
    [mix_seed(seed, *indices), 0], empty buffer), so its next draws equal
    that generator's.  Cheaper than ``rng_from`` for many short streams:
    the key-only ``Philox`` constructor also draws OS entropy it never uses.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": np.array([_key(seed, indices), 0], dtype=np.uint64)},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
