"""Counter-based random substreams.

Every randomized protocol in this package takes a single master seed, an
integer in [0, 2**128). Independent units of work (trials, sweep points,
preparation cells) each get their own substream: substream ``i`` of master
seed ``s`` is the Philox bit generator ``Philox(key=s)`` with its 256-bit
counter advanced to ``i * 2**128``. Substreams therefore never overlap, and
results cannot depend on the order in which trials are executed.

Every sampler, `strong_measure` and `epr_steering` included, takes an
integer master seed and draws through one array draw, `uniform_chunks`,
which reads any block of substreams x uniforms and equals `substream` bit
for bit. It evaluates the Philox4x64-10 block function (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) directly in numpy,
in one array kernel over full 256-bit counters, and takes integer master
seeds only, so it builds no Generator and no command loads `numpy.random`,
whose import costs a process about 6 MB of RSS (half of it the libcrypto
that `secrets` pulls in) and over 10 ms. `substream` and
`SubstreamSampler`, numpy's own Philox, remain only as the reference the
tests check `uniform_chunks` against. The price is per uniform: the
kernel draws the 400,000 uniforms of an `onto --mc-trials 100000` run,
one per trial of each of its four cells, in about 35 ms, where numpy's
own Philox takes about 4 ms (one CPU of a shared 2-vCPU host).
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

# Counter stride between substreams, in Philox 256-bit counter units.
STREAM_STRIDE = 2 ** 128

# Philox blocks per kernel pass of `uniform_chunks` (whole rows, at least
# one), and the most uniforms of one row a pass holds: bounds the memory
# of a sampler independently of its trial count. At 2**13 rows a
# `pbr_experiment` block's temporaries peak near 1.3 MB, so they stay in a
# 2 MiB L2 cache; of 2**11 .. 2**16, 2**13 ran both samplers fastest, as
# larger blocks spill the cache and smaller ones pay more per-block calls.
SUBSTREAM_CHUNK = 2 ** 13

# Philox4x64-10 constants (Random123): round multipliers and key increments.
# The multipliers are stacked as a (2, 1) column, one per multiplied word.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32
_WORD = 2 ** 64

# The integers each argument takes: (lowest, highest, the range as printed).
_SEEDS = (0, 2 ** 128 - 1, "[0, 2**128)")
_INDICES = (0, _WORD - 1, "[0, 2**64)")     # a substream index
_BOUNDS = (0, _WORD, "[0, 2**64]")          # start and stop of a range of substreams
_POSITIONS = (0, 2 ** 130, "[0, 2**130]")   # first and last along each substream


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


def _round_keys(seed: int) -> np.ndarray:
    """The ten Philox4x64-10 round keys of master seed `seed`, checked
    first, as a (10, 2, 1) uint64 array: key word w of round r is
    (seed word w + r * W_w) mod 2**64."""
    seed = _checked_integer(seed, "master seed", _SEEDS)
    words = (seed % _WORD, seed // _WORD)
    return np.array([[[(words[w] + r * _PHILOX_W[w]) % _WORD] for w in (0, 1)]
                     for r in range(_PHILOX_ROUNDS)], dtype=np.uint64)


def _philox_uniforms(round_keys: np.ndarray, counter: tuple, k: int) -> np.ndarray:
    """The first `k` uniforms of the Philox4x64-10 block of each 256-bit
    counter [c0, c1, c2, c3], one row per block, for uint64 words that
    broadcast to one shape, read in row-major order. Uniform i is
    (word_i >> 11) * 2**-53.

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
    c0, c1, c2, c3 = (w.ravel() for w in np.broadcast_arrays(
        *(np.asarray(w, dtype=np.uint64) for w in counter)))
    x, y = np.stack((c0, c2)), np.stack((c1, c3))
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
    return (np.stack((x[0], y[0], x[1], y[1])[:k], axis=1) >> np.uint64(11)) * 2.0 ** -53


def _run_counters(first: int, count: int) -> tuple:
    """The four words of the 256-bit counters first .. first + count - 1:
    word 0 as a uint64 array, which wraps where the run carries, and
    words 1-3 as arrays that take the carry."""
    low, high = np.uint64(first % _WORD), first // _WORD
    c0 = np.arange(count, dtype=np.uint64) + low
    words = [[(h >> 64 * w) % _WORD for h in (high, high + 1)] for w in range(3)]
    return (c0, *np.array(words, dtype=np.uint64)[:, (c0 < low).astype(np.intp)])


def uniform_chunks(seed: int, start: int, stop: int, first: int = 0, last: int = 1):
    """Yield uniforms first .. last-1 of substreams start .. stop-1 as 2-D
    blocks, one row per substream, in order, so a sampler that reduces each
    block before the next keeps flat memory for any number or length of
    rows. Row j equals `substream(seed, start + j).random(last)[first:]` bit
    for bit. A pass holds max(1, SUBSTREAM_CHUNK // span) whole rows, for a
    row spanning `span` Philox blocks, except that a row longer than
    SUBSTREAM_CHUNK uniforms comes alone, in runs of that many. An empty
    range of substreams or of uniforms yields no block.

    numpy bumps the counter before each block, so uniform p of substream i
    is word p % 4 of the Philox4x64-10 block of counter
    i * 2**128 + p // 4 + 1 under key (seed mod 2**64, seed >> 64). A
    substream owns 2**128 blocks, so first and last lie in [0, 2**130], and
    the counter of its last block carries into word 2, or, for the last
    substream, into word 3. A block that holds a whole row is read for only
    the words the row needs. Each pass costs a fixed number of uint64 array
    operations.
    """
    round_keys = _round_keys(seed)
    start = _checked_integer(start, "substream start", _BOUNDS)
    stop = _checked_integer(stop, "substream stop", _BOUNDS)
    first = _checked_integer(first, "first uniform", _POSITIONS)
    last = _checked_integer(last, "last uniform", _POSITIONS)
    if first >= last:
        return
    span = (last + 3) // 4 - first // 4
    rows = 1 if last - first > SUBSTREAM_CHUNK else max(1, SUBSTREAM_CHUNK // span)
    for row in range(start, stop, rows):
        streams = np.arange(min(rows, stop - row), dtype=np.uint64)[:, None] + np.uint64(row)
        for p in range(first, last, SUBSTREAM_CHUNK):
            block, end = p // 4, min(p + SUBSTREAM_CHUNK, last)
            c0, c1, c2, c3 = _run_counters(block + 1, (end + 3) // 4 - block)
            c2 = c2 + streams
            counters = (c0, c1, c2, c3 + (c2 < streams))
            uniforms = _philox_uniforms(round_keys, counters, min(4, end - 4 * block))
            yield uniforms.reshape(len(streams), -1)[:, p - 4 * block:end - 4 * block]


class SubstreamSampler:
    """The substreams of one master seed, selected by index.

    `select(i)` is `substream(seed, i)`. No function in the package calls
    it or `substream`: every sampler draws through `uniform_chunks`, which
    builds no Generator. Both are kept as the tests' bit-for-bit reference
    and because the benchmark tracer (`perfbench/tracer.py`) binds them
    when it installs.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def select(self, index: int) -> np.random.Generator:
        """A fresh Generator for substream `index`."""
        return substream(self.seed, index)
