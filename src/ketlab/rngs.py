"""Counter-based random substreams.

Every randomized protocol in this package takes a single master seed, an
integer in [0, 2**128). Independent units of work (trials, sweep points,
preparation cells) each get their own substream: substream ``i`` of master
seed ``s`` is the Philox bit generator ``Philox(key=s)`` with its 256-bit
counter advanced to ``i * 2**128``. Substreams therefore never overlap, and
results cannot depend on the order in which trials are executed.

Samplers draw through one of three draws, each equal to `substream` bit
for bit. Two of them evaluate the Philox4x64-10 block function (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) directly in
numpy, in one kernel over counters [c0, 0, c2, 0]: `uniform_chunks` reads
the first few uniforms of each of a range of substreams (c2 the substream),
and `leading_uniforms` the first n uniforms of substream 0 (c0 the
block), which is all a sampled `protective` run needs. Given an integer
seed, neither builds a Generator, so neither loads `numpy.random`, whose
import costs a warm process about 6 MB of RSS (half of it the libcrypto
that `secrets` pulls in) and over 10 ms. The price is per draw: the
kernel takes 220-370 us for 400 uniforms, where building numpy's Philox
and drawing them takes 17-29 us. `stream_chunks` reads a range of uniforms along one substream,
in blocks of SUBSTREAM_CHUNK, through numpy's own Philox: on long runs
its C loop is 7 to 9x faster per uniform than the array kernel (8192
uniforms in 70-110 us against 570-780 us, best of 7 on one CPU of a
shared 2-vCPU Xeon). `nogo`'s Haar unitaries keep a Generator too: they
come from `standard_normal`, whose ziggurat tables nothing in the package
reproduces bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

# Counter stride between substreams, in Philox 256-bit counter units.
STREAM_STRIDE = 2 ** 128

# Rows drawn per array pass by the three draws (Philox blocks, for
# `leading_uniforms`): bounds the memory of a sampler independently of its
# trial count. At 2**13 rows a `pbr_experiment` block's temporaries peak
# near 1.3 MB, so they stay in a 2 MiB L2 cache; of 2**11 .. 2**16, 2**13
# ran both samplers fastest, as larger blocks spill the cache and smaller
# ones pay more per-block calls.
SUBSTREAM_CHUNK = 2 ** 13

# Philox4x64-10 constants (Random123): round multipliers and key increments.
# The multipliers are stacked as a (2, 1) column, one per multiplied word.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32
_WORD = 2 ** 64

# The integers each argument takes: (lowest, highest, the range as printed).
_SEEDS = (0, 2 ** 128 - 1, "[0, 2**128)")
_INDICES = (0, _WORD - 1, "[0, 2**64)")
_BOUNDS = (0, _WORD, "[0, 2**64]")          # start and stop of a range of substreams
_BLOCK = (1, 4, "[1, 4]")                   # uniforms drawn per Philox block
_POSITIONS = (0, 2 ** 130, "[0, 2**130]")   # start and stop along one substream
_COUNTS = (0, _WORD - 1, "[0, 2**64)")      # uniforms read from a substream's start


def _checked_integer(value, what: str, rule: tuple) -> int:
    """`value` as an int when it is an integer in the range `rule` names,
    numpy's included, else PreconditionError (for a bool, a float and text
    too)."""
    low, high, span = rule
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not low <= int(value) <= high):
        raise PreconditionError(f"{what} must be an integer in {span}, got {value!r}")
    return int(value)


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for substream `index` of master seed `seed`."""
    seed = _checked_integer(seed, "master seed", _SEEDS)
    index = _checked_integer(index, "substream index", _INDICES)
    return np.random.Generator(np.random.Philox(key=seed, counter=index * STREAM_STRIDE))


def as_generator(seed) -> np.random.Generator:
    """Accept either a master seed or an already-built Generator; a master
    seed means its substream 0."""
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(seed, 0)


def _round_keys(seed: int) -> np.ndarray:
    """The ten Philox4x64-10 round keys of `seed`, as a (10, 2, 1) uint64
    array: key word w of round r is (seed word w + r * W_w) mod 2**64."""
    words = (seed % _WORD, seed // _WORD)
    return np.array([[[(words[w] + r * _PHILOX_W[w]) % _WORD] for w in (0, 1)]
                     for r in range(_PHILOX_ROUNDS)], dtype=np.uint64)


def _philox_uniforms(round_keys: np.ndarray, c0, c2, k: int) -> np.ndarray:
    """The first `k` uniforms of the Philox4x64-10 block of each counter
    [c0, 0, c2, 0], one row per block, for uint64 c0 and c2 broadcast to
    one length. Uniform i is (word_i >> 11) * 2**-53.

    Each round multiplies words 0 and 2 as one stacked (2, m) array x. The
    high word of m * x comes from 32-bit limbs, so no partial product
    overflows uint64: u = x_hi * m_lo + (x_lo * m_lo >> 32) and
    v = x_lo * m_hi + (u & 0xFFFFFFFF) fit in 64 bits, and the high word is
    x_hi * m_hi + (u >> 32) + (v >> 32). With hi_w and lo_w the words of
    word w's product, the round maps [c0, c1, c2, c3] to
    [hi_2 ^ c1 ^ k0, lo_2, hi_0 ^ c3 ^ k1, lo_0], which on the stacks is
    x <- hi[::-1] ^ y ^ key and y <- lo[::-1], with y the stack of words 1
    and 3. A function of its own, so its temporaries are freed before a
    caller keeps or yields the result.
    """
    c0, c2 = np.broadcast_arrays(np.asarray(c0, dtype=np.uint64), np.asarray(c2, dtype=np.uint64))
    x = np.stack((c0, c2))
    y = np.zeros_like(x)                    # words 1 and 3 of the counter are 0
    for key in round_keys:
        lo = x * _PHILOX_M
        x_lo = x & _LOW32
        x_hi = np.right_shift(x, _SHIFT32, out=x)
        u = x_hi * _PHILOX_M_LO
        t = np.multiply(x_lo, _PHILOX_M_LO)
        t >>= _SHIFT32
        u += t
        x_lo *= _PHILOX_M_HI
        x_lo += np.bitwise_and(u, _LOW32, out=t)
        u >>= _SHIFT32
        x_hi *= _PHILOX_M_HI
        x_hi += u
        x_lo >>= _SHIFT32
        x_hi += x_lo                        # the high words
        x = x_hi[::-1] ^ y
        x ^= key
        y = lo[::-1]
    return (np.stack((x[0], y[0], x[1], y[1])[:k], axis=1) >> _SHIFT11) * 2.0 ** -53


def uniform_chunks(seed: int, start: int, stop: int, k: int = 1):
    """Yield the first `k` (<= 4) uniforms of substreams start .. stop-1, in
    order, in blocks of at most SUBSTREAM_CHUNK rows, so a sampler that
    reduces each block before the next keeps flat memory for any number of
    trials.

    Row j of the range equals `substream(seed, start + j).random(k)` bit for
    bit. Those uniforms come from the first Philox block of the substream:
    numpy bumps the counter before its first block, so the block is the
    Philox4x64-10 function of counter [1, 0, index, 0] under key
    (seed mod 2**64, seed >> 64). Each block costs a fixed number of uint64
    array operations.
    """
    seed = _checked_integer(seed, "master seed", _SEEDS)
    k = _checked_integer(k, "uniforms per substream k", _BLOCK)
    start = _checked_integer(start, "substream start", _BOUNDS)
    stop = _checked_integer(stop, "substream stop", _BOUNDS)
    round_keys = _round_keys(seed)
    for first in range(start, stop, SUBSTREAM_CHUNK):
        count = min(SUBSTREAM_CHUNK, stop - first)
        yield _philox_uniforms(round_keys, 1, np.arange(count, dtype=np.uint64) + np.uint64(first), k)


def leading_uniforms(seed, n: int) -> np.ndarray:
    """The next `n` uniforms of `as_generator(seed)`, equal to
    `as_generator(seed).random(n)` bit for bit. An integer seed (numpy's
    too) builds no Generator, so the draw does not load `numpy.random`; a
    Generator draws its own, and any other seed raises as `as_generator`
    does.

    numpy bumps the counter before each block, so uniforms 4j .. 4j+3 of
    substream 0 are the Philox4x64-10 block of counter [j + 1, 0, 0, 0]:
    the kernel runs over c0 = 1 .. ceil(n / 4), SUBSTREAM_CHUNK blocks at a
    time, so its temporaries stay cache-sized. n lies in [0, 2**64), so c0
    never carries into the counter's second word.
    """
    n = _checked_integer(n, "uniform count", _COUNTS)
    if not isinstance(seed, (int, np.integer)):     # a Generator, or a bad seed
        return as_generator(seed).random(n)
    round_keys = _round_keys(_checked_integer(seed, "master seed", _SEEDS))
    out = np.empty(n)
    for first in range(0, n, 4 * SUBSTREAM_CHUNK):
        count = min(4 * SUBSTREAM_CHUNK, n - first)
        blocks = np.arange(first // 4 + 1, (first + count + 3) // 4 + 1, dtype=np.uint64)
        out[first:first + count] = _philox_uniforms(round_keys, blocks, 0, 4).ravel()[:count]
    return out


def stream_chunks(seed: int, index: int, start: int, stop: int):
    """Yield uniforms start .. stop-1 of `substream(seed, index)`, in order,
    in blocks of at most SUBSTREAM_CHUNK, so a sampler that reduces each
    block before the next keeps flat memory for any length of run.

    The run equals `substream(seed, index).random(stop)[start:]` bit for
    bit. Philox turns each counter block into four uniforms, so the stream
    skips start // 4 blocks by `advance` and discards the first start % 4
    uniforms of the next. A substream owns 2**128 blocks, so start and stop
    lie in [0, 2**130].
    """
    start = _checked_integer(start, "stream start", _POSITIONS)
    stop = _checked_integer(stop, "stream stop", _POSITIONS)
    rng = substream(seed, index)
    rng.bit_generator.advance(start // 4)
    rng.random(start % 4)
    for first in range(start, stop, SUBSTREAM_CHUNK):
        yield rng.random(min(SUBSTREAM_CHUNK, stop - first))


class SubstreamSampler:
    """The substreams of one master seed, selected by index.

    `select(i)` is `substream(seed, i)`. No sampler in the package calls
    it: they draw through `uniform_chunks`, `leading_uniforms` and
    `stream_chunks`. It is kept because the benchmark tracer
    (`perfbench/tracer.py`) binds `SubstreamSampler.select` when it installs.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def select(self, index: int) -> np.random.Generator:
        """A fresh Generator for substream `index`."""
        return substream(self.seed, index)
