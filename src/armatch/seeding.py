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
Bootstrap replicate b of order p draws from the stream mix(seed, p, b);
``stream_integers`` draws the bounded integers of all B streams of an
order in one pass, bit-identical to one generator per stream.
"""

import numpy as np

_M64 = (1 << 64) - 1
_M32 = (1 << 32) - 1


def _scramble(x):
    # x is a Python int or a uint64 array: the masks are then no-ops and
    # the multiplies wrap mod 2^64 by themselves.
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


def stream_integers(seed, p, bs, n, size):
    """Row i is ``rng_from(seed, p, bs[i]).integers(0, n, size)``, bit for
    bit; shape (len(bs), size), dtype int64.

    The keys mix(seed, p, b) come from one vectorised scramble.  One Philox
    generator is reset to each key in turn (zero counter, empty buffer, as
    a fresh ``rng_from`` starts) and gives its first ceil(size / 2) raw
    64-bit words.  numpy draws an integer below n, for 1 <= n <= 2^32 - 1,
    by Lemire's rule: the next 32-bit half u of the word stream (low half
    first) maps to (u * n) >> 32, unless (u * n) mod 2^32 falls below
    (2^32 - n) mod n, when it is rejected and the next half is tried.  All
    words are mapped at once; a row with a rejected half, and every row
    when n is outside that range, is drawn by numpy itself.
    """
    bs = np.asarray(bs, dtype=np.int64)
    if not 1 <= n <= _M32:
        return np.stack([rng_from(seed, p, b).integers(0, n, size) for b in bs.tolist()])
    keys = _scramble(np.uint64(mix_seed(seed, p)) ^ bs.astype(np.uint64))
    words = np.empty((bs.shape[0], -(-size // 2)), dtype=np.uint64)
    bitgen = np.random.Philox(key=0)
    key = np.zeros(2, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i, k in enumerate(keys.tolist()):
        key[0] = k
        bitgen.state = state
        words[i] = bitgen.random_raw(words.shape[1])
    draws = np.empty((bs.shape[0], 2 * words.shape[1]), dtype=np.uint64)
    np.bitwise_and(words, np.uint64(_M32), out=draws[:, 0::2])
    np.right_shift(words, np.uint64(32), out=draws[:, 1::2])
    draws = draws[:, :size]
    draws *= np.uint64(n)
    threshold = (_M32 + 1 - n) % n
    rejected = np.flatnonzero(((draws & np.uint64(_M32)) < threshold).any(axis=1)) if threshold else []
    draws >>= np.uint64(32)
    out = draws.view(np.int64)
    for i in rejected:
        out[i] = rng_from(seed, p, bs[i]).integers(0, n, size)
    return out
