"""Counter-based random substreams.

Every randomized protocol in this package takes a single master seed, an
integer from 0 to `MAX_SEED` = 2**128 - 1. Independent units of work
(trials, sweep points, preparation cells) each get their own substream:
substream ``i`` of master seed ``s`` is the Philox bit generator
``Philox(key=s)`` with its 256-bit counter advanced to ``i * 2**128``.
Substreams therefore never overlap, and results cannot depend on the order
in which trials are executed.

Two limits apply, and they are not the same. `MAX_SUBSTREAMS` = 2**64 is
the counter range: the substream indices, and the uniforms read from one
substream, that `uniform_chunks` can address without a counter word
carrying. `MAX_UNIFORMS` = 2**25 is the work budget: the most uniforms one
run of a sampler draws. Each sampler's count cap is the budget divided by
the uniforms one unit of its work draws: `pbr_experiment` 2 a trial, a
`steer` round 1 a basis, `monte_carlo_onto` 1 a trial in each cell of its
scenario, and a `nogo` sweep 2d**2 for its d-dimensional unitary. A count
past its cap is refused before any draw, so every accepted run ends on
a desk: on a shared 2-vCPU host `pbr_experiment` at 2**24 trials takes
3.5 to 4 s, and a cold `nogo` process at 2**20 sweeps 5 to 7 s, each
pass of its draws built and checked as one stack of unitaries. A
sampled protective run draws at most its 2**16 steps, far inside the
budget.

Every sampler, `strong_measure` and `epr_steering` included, takes an
integer master seed and draws through one array draw, `uniform_chunks`,
which reads the leading uniforms of a range of substreams and equals
`substream` bit for bit. It evaluates the Philox4x64-10 block function
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11)
directly in numpy, in one array kernel over the two counter words the
first 2**64 uniforms of a substream use, and takes integer master seeds
only, so it builds no Generator and no command loads `numpy.random`,
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

from .hilbert import _checked_count

# The largest master seed, and the number of substreams of one seed: the
# Philox key is two 64-bit words, and a substream index is one counter word.
MAX_SEED = 2 ** 128 - 1
MAX_SUBSTREAMS = 2 ** 64

# The work budget: the most uniforms one sampler run draws (see the module
# docstring for each sampler's reading of it).
MAX_UNIFORMS = 2 ** 25

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


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for substream `index` of master seed `seed`."""
    seed = _checked_count(seed, "master seed", MAX_SEED)
    index = _checked_count(index, "substream index", MAX_SUBSTREAMS - 1)
    return np.random.Generator(np.random.Philox(key=seed, counter=index * STREAM_STRIDE))


def _round_keys(seed: int) -> np.ndarray:
    """The ten Philox4x64-10 round keys of master seed `seed`, checked
    first, as a (10, 2, 1) uint64 array: key word w of round r is
    (seed word w + r * W_w) mod 2**64."""
    seed = _checked_count(seed, "master seed", MAX_SEED)
    words = (seed % _WORD, seed // _WORD)
    return np.array([[[(words[w] + r * _PHILOX_W[w]) % _WORD] for w in (0, 1)]
                     for r in range(_PHILOX_ROUNDS)], dtype=np.uint64)


def _philox_uniforms(round_keys: np.ndarray, c0, c2, k: int) -> np.ndarray:
    """The first `k` uniforms of the Philox4x64-10 block of each counter
    [c0, 0, c2, 0], one row per block, for uint64 c0 and c2 that broadcast
    to one shape, read in row-major order. Uniform i is
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
    x = np.stack([w.ravel() for w in np.broadcast_arrays(
        np.asarray(c0, dtype=np.uint64), np.asarray(c2, dtype=np.uint64))])
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
    return (np.stack((x[0], y[0], x[1], y[1])[:k], axis=1) >> np.uint64(11)) * 2.0 ** -53


def uniform_chunks(seed: int, start: int, stop: int, last: int = 1):
    """Yield uniforms 0 .. last-1 of substreams start .. stop-1 as 2-D
    blocks, one row per substream, in order, so a sampler that reduces each
    block before the next keeps flat memory for any number or length of
    rows. Row j equals `substream(seed, start + j).random(last)` bit for
    bit. A pass holds max(1, SUBSTREAM_CHUNK // span) whole rows, for a
    row spanning `span` Philox blocks, except that a row longer than
    SUBSTREAM_CHUNK uniforms comes alone, in runs of that many. An empty
    range of substreams or of uniforms yields no block.

    numpy bumps the counter before each block, so uniform p of substream i
    is word p % 4 of the Philox4x64-10 block of counter
    i * 2**128 + p // 4 + 1 under key (seed mod 2**64, seed >> 64). The
    seed runs from 0 to MAX_SEED, and start, stop and last from 0 to
    MAX_SUBSTREAMS = 2**64, so that block number stays below 2**64, the
    counter is [p // 4 + 1, 0, i, 0] and no word carries. A block that
    holds a whole row is read for only the words the row needs. Each pass
    costs a fixed number of uint64 array operations.
    """
    round_keys = _round_keys(seed)
    start = _checked_count(start, "substream start", MAX_SUBSTREAMS)
    stop = _checked_count(stop, "substream stop", MAX_SUBSTREAMS)
    last = _checked_count(last, "last uniform", MAX_SUBSTREAMS)
    if last == 0:                           # no block, however many substreams
        return
    rows = 1 if last > SUBSTREAM_CHUNK else max(1, SUBSTREAM_CHUNK // ((last + 3) // 4))
    for row in range(start, stop, rows):
        streams = np.arange(min(rows, stop - row), dtype=np.uint64)[:, None] + np.uint64(row)
        for p in range(0, last, SUBSTREAM_CHUNK):
            block, end = p // 4, min(p + SUBSTREAM_CHUNK, last)
            blocks = np.arange(block + 1, (end + 3) // 4 + 1, dtype=np.uint64)
            # yielded unnamed, so this frame holds no pass while the next is drawn
            yield (_philox_uniforms(round_keys, blocks, streams, min(4, end - 4 * block))
                   .reshape(len(streams), -1)[:, p - 4 * block:end - 4 * block])


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
