"""Counter-based random substreams.

Every randomized protocol in this package takes a single master seed, an
integer in [0, 2**128). Independent units of work (trials, sweep points,
preparation cells) each get their own substream: substream ``i`` of master
seed ``s`` is the Philox bit generator ``Philox(key=s)`` with its 256-bit
counter advanced to ``i * 2**128``. Substreams therefore never overlap, and
results cannot depend on the order in which trials are executed.

Samplers that need only the first few uniforms of many substreams draw them
as arrays through `substream_uniforms`, which evaluates the Philox4x64-10
block function (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11) directly in numpy and agrees with `substream` bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import PreconditionError

# Counter stride between substreams, in Philox 256-bit counter units.
STREAM_STRIDE = 2 ** 128

# Substreams drawn per array pass by `uniform_chunks`: bounds the memory of
# a sampler independently of its trial count.
SUBSTREAM_CHUNK = 2 ** 16

# Philox4x64-10 constants (Random123): round multipliers and key increments.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_WORD = 2 ** 64


def _checked_integer(value, what: str, bits: int) -> int:
    """`value` as an int when it is an integer in [0, 2**bits), numpy's
    included, else PreconditionError (for a bool, a float and text too)."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not 0 <= int(value) < 2 ** bits):
        raise PreconditionError(f"{what} must be an integer in [0, 2**{bits}), got {value!r}")
    return int(value)


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for substream `index` of master seed `seed`."""
    seed = _checked_integer(seed, "master seed", 128)
    index = _checked_integer(index, "substream index", 64)
    return np.random.Generator(np.random.Philox(key=seed, counter=index * STREAM_STRIDE))


def as_generator(seed) -> np.random.Generator:
    """Accept either a master seed or an already-built Generator; a master
    seed means its substream 0."""
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(seed, 0)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple:
    """Low and high 64-bit words of the 128-bit products m * x, from
    32-bit limbs so that no partial product overflows uint64."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    cross_a = x_lo * m_hi
    cross_b = x_hi * m_lo
    carry = ((x_lo * m_lo) >> _SHIFT32) + (cross_a & _LOW32) + (cross_b & _LOW32)
    high = x_hi * m_hi + (cross_a >> _SHIFT32) + (cross_b >> _SHIFT32) + (carry >> _SHIFT32)
    return m * x, high


def _substream_indices(indices) -> np.ndarray:
    """`indices` as a flat uint64 array; PreconditionError if any lies
    outside [0, 2**64), the indices `substream` can address."""
    if not (isinstance(indices, np.ndarray) and indices.dtype.kind in "iu"):
        # python ints, which numpy would round through float64 past 2**63
        indices = np.array([operator.index(i) for i in indices], dtype=object)
    indices = indices.reshape(-1)
    if indices.size:
        lo, hi = int(indices.min()), int(indices.max())
        if lo < 0 or hi >= _WORD:
            raise PreconditionError(
                f"substream index {lo if lo < 0 else hi} outside [0, 2**64)"
            )
    return indices.astype(np.uint64)


def substream_uniforms(seed: int, indices, k: int = 1) -> np.ndarray:
    """The first `k` (<= 4) uniforms of each substream in `indices`.

    Row j equals `substream(seed, indices[j]).random(k)` bit for bit. Those
    uniforms come from the first Philox block of the substream: numpy
    bumps the counter before its first block, so the block is the
    Philox4x64-10 function of counter [1, 0, index, 0] under key
    (seed mod 2**64, seed >> 64), and uniform i is (word_i >> 11) * 2**-53.
    The work is a fixed number of uint64 array operations per call, so
    callers pass many indices at once; `uniform_chunks` bounds their count.
    """
    seed = _checked_integer(seed, "master seed", 128)
    if not 1 <= k <= 4:
        raise PreconditionError(f"a Philox block holds 1 to 4 uniforms, got k={k}")
    c2 = _substream_indices(indices)
    c0 = np.ones_like(c2)
    c1 = np.zeros_like(c2)
    c3 = np.zeros_like(c2)
    key0, key1 = seed % _WORD, seed // _WORD
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0 = (key0 + _PHILOX_W[0]) % _WORD
            key1 = (key1 + _PHILOX_W[1]) % _WORD
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ np.uint64(key1), lo0
    words = np.stack((c0, c1, c2, c3)[:k], axis=1)
    return (words >> _SHIFT11) * 2.0 ** -53


def uniform_chunks(seed: int, start: int, stop: int, k: int = 1):
    """Yield the uniforms of substreams start .. stop-1, in order, as
    `substream_uniforms(seed, indices, k)` blocks of at most SUBSTREAM_CHUNK
    consecutive indices, so a sampler that reduces each block before the
    next keeps flat memory for any number of trials.
    """
    _checked_integer(seed, "master seed", 128)
    if start < stop and (start < 0 or stop > _WORD):
        raise PreconditionError(
            f"substream indices {start} .. {stop - 1} outside [0, 2**64)"
        )
    for first in range(start, stop, SUBSTREAM_CHUNK):
        count = min(SUBSTREAM_CHUNK, stop - first)
        indices = np.arange(count, dtype=np.uint64) + np.uint64(first)
        yield substream_uniforms(seed, indices, k)


class SubstreamSampler:
    """The substreams of one master seed, selected by index.

    `select(i)` is `substream(seed, i)`. No sampler in the package calls
    it: they draw through `substream_uniforms`. It is kept because the
    benchmark tracer (`perfbench/tracer.py`) binds `SubstreamSampler.select`
    when it installs.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def select(self, index: int) -> np.random.Generator:
        """A fresh Generator for substream `index`."""
        return substream(self.seed, index)
