import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ketlab
import ketlab.cli
import ketlab.hilbert
import ketlab.ontology
import ketlab.pbr
import ketlab.protective
from ketlab import rngs
from ketlab.errors import PreconditionError
from ketlab.protective import MAX_STEPS
from ketlab.rngs import (
    MAX_UNIFORMS,
    STREAM_STRIDE,
    SUBSTREAM_CHUNK,
    SubstreamSampler,
    substream,
    uniform_chunks,
)


def test_substream_is_deterministic():
    a = substream(42, 5).random(16)
    b = substream(42, 5).random(16)
    np.testing.assert_array_equal(a, b)


def test_distinct_substreams_differ():
    a = substream(42, 0).random(16)
    b = substream(42, 1).random(16)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = substream(1, 0).random(16)
    b = substream(2, 0).random(16)
    assert not np.array_equal(a, b)


def test_stride_leaves_room_for_long_streams():
    # each substream owns a full 2**128 counter block
    assert STREAM_STRIDE == 2 ** 128


@pytest.mark.parametrize("index", [0, 1, 2, 17, 1000, 2 ** 32, 2 ** 64 - 1])
def test_sampler_matches_documented_substream_construction(index):
    sampler = SubstreamSampler(99)
    got = sampler.select(index).random(8)
    want = substream(99, index).random(8)
    np.testing.assert_array_equal(got, want)


def test_sampler_reuse_does_not_leak_state_between_streams():
    sampler = SubstreamSampler(7)
    first = sampler.select(3).random(4)
    sampler.select(12).random(4)
    again = sampler.select(3).random(4)
    np.testing.assert_array_equal(first, again)


def test_sampler_rejects_out_of_range_indices():
    sampler = SubstreamSampler(0)
    with pytest.raises(PreconditionError):
        sampler.select(-1)
    with pytest.raises(PreconditionError):
        sampler.select(2 ** 64)


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5, 2 ** 127])
def test_as_generator_keeps_the_master_seed_stream(seed):
    """Substream 0 of a master seed, the stream `strong_measure`,
    `epr_steering` and sampled `protective` read, is numpy's Philox keyed
    by the seed with its counter at 0."""
    want = np.random.Generator(np.random.Philox(key=seed))
    got = substream(seed, 0)
    np.testing.assert_array_equal(got.random(8), want.random(8))
    np.testing.assert_array_equal(got.standard_normal(5), want.standard_normal(5))


UNIFORM_INDICES = [0, 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1, 2 ** 64 + 12345])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_uniform_chunks_match_substreams_bit_for_bit(seed, k):
    got = [u for i in UNIFORM_INDICES for u in uniform_chunks(seed, i, i + 1, k)]
    want = [substream(seed, i).random((1, k)) for i in UNIFORM_INDICES]
    np.testing.assert_array_equal(np.concatenate(got), np.concatenate(want))


def test_uniform_chunks_match_a_contiguous_range():
    (got,) = uniform_chunks(11, 1000, 1300, 2)
    want = np.array([substream(11, i).random(2) for i in range(1000, 1300)])
    np.testing.assert_array_equal(got, want)


def test_uniform_chunks_reject_bad_seeds_and_block_sizes():
    with pytest.raises(PreconditionError):
        list(uniform_chunks(-1, 0, 1))
    with pytest.raises(PreconditionError):
        list(uniform_chunks(2 ** 128, 0, 1))
    with pytest.raises(PreconditionError, match="must be an integer in"):
        list(uniform_chunks(0, 0, 1, 2 ** 64 + 1))


def test_uniform_chunks_cover_the_range_in_order(monkeypatch):
    start, stop = 5, 2 * SUBSTREAM_CHUNK + 9
    blocks = list(uniform_chunks(3, start, stop, 2))
    assert [len(u) for u in blocks] == [SUBSTREAM_CHUNK, SUBSTREAM_CHUNK, 4]
    joined = np.concatenate(blocks)
    for i in (start, start + SUBSTREAM_CHUNK - 1, start + SUBSTREAM_CHUNK, stop - 1):
        np.testing.assert_array_equal(joined[i - start], substream(3, i).random(2))
    monkeypatch.setattr(rngs, "SUBSTREAM_CHUNK", stop)
    (whole,) = uniform_chunks(3, start, stop, 2)
    np.testing.assert_array_equal(joined, whole)
    assert list(uniform_chunks(3, 4, 4)) == []
    assert list(uniform_chunks(3, 4, 9, 0)) == []


@pytest.mark.parametrize("k", [5, 8, 32, 33])
def test_uniform_chunks_of_several_blocks_match_substreams_across_chunk_edges(monkeypatch, k):
    """Past k = 4 each substream reads ceil(k / 4) Philox blocks. With the
    chunk patched to 40 blocks, which no row of k uniforms outgrows, a pass
    holds 40 // ceil(k / 4) whole rows, so the range, which ends at the
    last substream, crosses several passes."""
    monkeypatch.setattr(rngs, "SUBSTREAM_CHUNK", 40)
    seed, start, stop = 2 ** 64 + 12345, 2 ** 64 - 23, 2 ** 64
    rows = 40 // -(-k // 4)
    blocks = list(uniform_chunks(seed, start, stop, k))
    assert [len(u) for u in blocks] == [rows] * (23 // rows) + [23 % rows] * (23 % rows > 0)
    want = np.array([substream(seed, i).random(k) for i in range(start, stop)])
    np.testing.assert_array_equal(np.concatenate(blocks), want)


def test_nogo_draws_sweep_k_from_the_start_of_substream_k(tmp_path, monkeypatch):
    """A sweep's 4 x 4 unitary takes the first 2 * 4**2 = 32 uniforms of
    its own substream: the rows of the blocks the Haar calls get, in order."""
    seen = []
    haar = ketlab.hilbert.haar_random_unitary

    def recording(dim, uniforms):
        seen.append(np.array(uniforms))
        return haar(dim, uniforms)

    monkeypatch.setattr(ketlab.hilbert, "haar_random_unitary", recording)
    monkeypatch.chdir(tmp_path)
    seed = 2 ** 100 + 3
    assert ketlab.cli.main(["nogo", "--sweeps", "6", "--seed", str(seed)]) == 0
    np.testing.assert_array_equal(np.concatenate(seen),
                                  np.array([substream(seed, k).random(32) for k in range(6)]))


def test_uniform_chunks_reject_ranges_past_the_last_substream():
    with pytest.raises(PreconditionError):
        list(uniform_chunks(0, 2 ** 64 - 1, 2 ** 64 + 1))


def test_uniform_chunks_reach_the_last_substream():
    """start and stop may be 2**64, one past the last substream index, and
    so may last, whose row comes in runs of SUBSTREAM_CHUNK uniforms."""
    (block,) = uniform_chunks(0, np.uint64(2 ** 64 - 1), 2 ** 64)
    np.testing.assert_array_equal(block, substream(0, 2 ** 64 - 1).random((1, 1)))
    assert list(uniform_chunks(0, 2 ** 64, 2 ** 64)) == []
    run = next(uniform_chunks(5, 9, 10, 2 ** 64))
    np.testing.assert_array_equal(run, substream(5, 9).random((1, SUBSTREAM_CHUNK)))


def joined(seed, index, last):
    """Row 0 of `uniform_chunks(seed, index, index + 1, last)`, its runs
    joined, as a sampled `protective` run joins them."""
    draw = uniform_chunks(seed, index, index + 1, last)
    return np.concatenate([np.empty(0), *(run[0] for run in draw)])


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5, 99_999, 100_000, 100_001])
@pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (2 ** 64 + 12345, 2 ** 64 - 1)])
def test_uniform_chunks_match_a_run_along_a_substream_bit_for_bit(seed, index, start):
    np.testing.assert_array_equal(joined(seed, index, start + 11),
                                  substream(seed, index).random(start + 11))


def test_uniform_chunks_cover_a_long_row_in_runs_in_order(monkeypatch):
    """A row longer than SUBSTREAM_CHUNK uniforms comes alone, in runs of
    that many, and the next row's runs follow."""
    monkeypatch.setattr(rngs, "SUBSTREAM_CHUNK", 8)
    blocks = list(uniform_chunks(3, 2, 4, 30))
    assert [u.shape for u in blocks] == [(1, 8), (1, 8), (1, 8), (1, 6)] * 2
    np.testing.assert_array_equal(np.concatenate([u[0] for u in blocks]),
                                  np.concatenate([substream(3, i).random(30) for i in (2, 3)]))


@given(seed=st.integers(0, 2 ** 128 - 1), start=st.integers(0, 2 ** 64),
       rows=st.integers(0, 3), chunk=st.sampled_from((5, 8)), data=st.data())
def test_uniform_chunks_equal_the_leading_uniforms_of_each_substream(seed, start, rows,
                                                                     chunk, data):
    """Row j of `uniform_chunks(seed, start, stop, last)` is
    `substream(seed, start + j).random(last)` bit for bit, for rows that
    span one or two passes of a chunk that is, or is not, a multiple of
    four uniforms."""
    stop, last = min(start + rows, 2 ** 64), data.draw(st.integers(0, 2 * chunk))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rngs, "SUBSTREAM_CHUNK", chunk)
        blocks = list(uniform_chunks(seed, start, stop, last))
    got = np.concatenate([np.empty(0), *(u.ravel() for u in blocks)])
    want = np.concatenate([np.empty(0), *(substream(seed, i).random(last)
                                          for i in range(start, stop))])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 400, MAX_STEPS])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 128 - 1])
def test_uniform_chunks_match_the_first_n_uniforms_of_substream_zero(seed, n):
    got = joined(seed, 0, n)
    want = substream(seed, 0).random(n)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_uniform_chunks_cross_their_kernel_passes_in_order(monkeypatch):
    """With the chunk patched to 2 or 5 uniforms, every residue of last
    mod 4 crosses a kernel call's edge, and calls start inside a Philox
    block."""
    want = substream(5, 0).random(26)
    for chunk in (2, 5):
        monkeypatch.setattr(rngs, "SUBSTREAM_CHUNK", chunk)
        for last in range(26):
            np.testing.assert_array_equal(joined(np.uint64(5), 0, last), want[:last])


def _onto(seed):
    scenario = ketlab.qubit_scenario()
    return ketlab.monte_carlo_onto(ketlab.orthodox_model(scenario), scenario, 10, seed=seed)


def _measure(seed):
    return ketlab.strong_measure(ketlab.ket_plus(), ketlab.eigendecompose(ketlab.sigma_z()), seed)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: ketlab.protective_measure(ketlab.ket_plus(), ketlab.sigma_z(), n=5,
                                                   mode="sampled", seed=1.5),
                 id="sampled-protective-float-seed"),
    pytest.param(lambda: _onto(1.5), id="onto-float-seed"),
    pytest.param(lambda: _onto(-1), id="onto-negative-seed"),
    pytest.param(lambda: ketlab.pbr_experiment(10, seed=1.5), id="pbr-float-seed"),
    pytest.param(lambda: ketlab.pbr_experiment(10, seed=True), id="pbr-bool-seed"),
    pytest.param(lambda: ketlab.pbr_experiment(0, seed=1.5), id="pbr-zero-trials-float-seed"),
    pytest.param(lambda: substream(0, 2 ** 64), id="substream-index-2**64"),
    pytest.param(lambda: substream(0, -1), id="substream-negative-index"),
    pytest.param(lambda: substream(0, 1.5), id="substream-float-index"),
    pytest.param(lambda: substream(2 ** 128, 0), id="substream-seed-2**128"),
    pytest.param(lambda: substream("7", 0), id="substream-text-seed"),
    pytest.param(lambda: _measure(True), id="strong-measure-bool-seed"),
    pytest.param(lambda: _measure(substream(0, 0)), id="strong-measure-generator-seed"),
    pytest.param(lambda: ketlab.epr_steering("z", True), id="epr-steering-bool-seed"),
    pytest.param(lambda: ketlab.epr_steering("x", substream(0, 0)),
                 id="epr-steering-generator-seed"),
    pytest.param(lambda: SubstreamSampler(1.5).select(0), id="sampler-float-seed"),
    pytest.param(lambda: list(uniform_chunks(True, 0, 1)), id="chunks-bool-seed"),
    pytest.param(lambda: list(uniform_chunks(np.float64(3.0), 0, 0)), id="chunks-float-seed"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 1, 2.0)), id="chunks-float-last"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 3, True)), id="chunks-bool-last"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 0, 2 ** 130 + 1)),
                 id="chunks-empty-range-last-past-2**130"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 0, 2 ** 64 + 1)),
                 id="chunks-empty-range-last-past-2**64"),
    pytest.param(lambda: list(uniform_chunks(0, True, 3)), id="chunks-bool-start"),
    pytest.param(lambda: list(uniform_chunks(0, 0.5, 3)), id="chunks-float-start"),
    pytest.param(lambda: list(uniform_chunks(0, -1, 3)), id="chunks-negative-start"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 3.0)), id="chunks-float-stop"),
    pytest.param(lambda: list(uniform_chunks(0, 0, np.False_)), id="chunks-numpy-bool-stop"),
    pytest.param(lambda: list(uniform_chunks(0, 5, 2 ** 64 + 1)), id="chunks-stop-past-2**64"),
    # a run along one substream, and the first n uniforms of substream 0
    pytest.param(lambda: list(uniform_chunks(True, 0, 1, 1)), id="stream-bool-seed"),
    pytest.param(lambda: list(uniform_chunks(2 ** 128, 0, 1, 1)), id="stream-seed-2**128"),
    pytest.param(lambda: list(uniform_chunks(0, 2 ** 64, 2 ** 64 + 1, 1)),
                 id="stream-index-2**64"),
    pytest.param(lambda: list(uniform_chunks(0, 1.0, 2, 1)), id="stream-float-index"),
    pytest.param(lambda: list(uniform_chunks(0, -1, 1, 3)), id="stream-negative-start"),
    pytest.param(lambda: list(uniform_chunks(0, np.True_, 1, 3)), id="stream-numpy-bool-start"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 1, 3.0)), id="stream-float-stop"),
    pytest.param(lambda: ketlab.protective_measure(ketlab.ket_plus(), ketlab.sigma_z(), n=5,
                                                   mode="sampled", seed=True),
                 id="sampled-protective-bool-seed"),
    pytest.param(lambda: ketlab.protective_measure(ketlab.ket_plus(), ketlab.sigma_z(), n=5,
                                                   mode="sampled", seed=2 ** 128),
                 id="sampled-protective-seed-2**128"),
    pytest.param(lambda: ketlab.protective_measure(ketlab.ket_plus(), ketlab.sigma_z(), n=5,
                                                   mode="sampled", seed=substream(0, 0)),
                 id="sampled-protective-generator-seed"),
    pytest.param(lambda: list(uniform_chunks(True, 0, 1, 4)), id="leading-bool-seed"),
    pytest.param(lambda: list(uniform_chunks(np.float64(3.0), 0, 1, 4)),
                 id="leading-float-seed"),
    pytest.param(lambda: list(uniform_chunks(-1, 0, 1, 4)), id="leading-negative-seed"),
    pytest.param(lambda: list(uniform_chunks(2 ** 128, 0, 1, 4)), id="leading-seed-2**128"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 1, False)), id="leading-bool-count"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 1, 4.0)), id="leading-float-count"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 1, -1)), id="leading-negative-count"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 1, 2 ** 130 + 1)),
                 id="leading-count-past-2**130"),
])
def test_master_seeds_and_substream_indices_follow_one_rule(call):
    """A master seed is an integer (numpy's too, not a bool) in [0, 2**128),
    and never a Generator; a substream index one in [0, 2**64), the start
    and stop of a range of substreams ones in [0, 2**64], and the number
    of uniforms read from each substream one in [0, 2**64], wherever they
    enter, even where the range they bound is empty."""
    with pytest.raises(PreconditionError, match="must be an integer in"):
        call()


class _Accepted(Exception):
    """Raised where a call's work would start: its arguments passed."""


def _accepted(*args, **kwargs):
    raise _Accepted


# Each integer argument: the name its message gives it, the lowest and the
# highest value it takes, and a call that passes it a value.
INTEGER_ARGUMENTS = {
    # a grid's point count is a power of two from 16 up, a later rule of its own
    "grid-n_points": ("n_points", 1, 4096, lambda v: ketlab.PointerGrid(v, 0.1)),
    "basis-index": ("basis index", 0, 3, lambda v: ketlab.basis_state(4, v)),
    "protective-n": ("step count", 0, 65536, lambda v: ketlab.protective_measure(
        ketlab.ket_plus(), ketlab.sigma_z(), n=v)),
    # a sampler's count runs up to the uniforms budget over the uniforms a unit draws
    "monte-carlo-trials": ("trials", 0, MAX_UNIFORMS // 8, lambda v: ketlab.monte_carlo_onto(
        ketlab.orthodox_model(ketlab.qubit_scenario()), ketlab.qubit_scenario(), v)),
    "monte-carlo-pbr-trials": ("trials", 0, MAX_UNIFORMS // 4, lambda v: ketlab.monte_carlo_onto(
        ketlab.orthodox_model(ketlab.pbr_scenario()), ketlab.pbr_scenario(), v)),
    "pbr-trials": ("trials", 0, MAX_UNIFORMS // 2, lambda v: ketlab.pbr_experiment(v)),
    "chunks-seed": ("master seed", 0, 2 ** 128 - 1, lambda v: next(uniform_chunks(v, 0, 1))),
    "chunks-start": ("substream start", 0, 2 ** 64,
                     lambda v: next(uniform_chunks(0, v, 2 ** 64), None)),
    "chunks-stop": ("substream stop", 0, 2 ** 64, lambda v: next(uniform_chunks(0, 0, v), None)),
    "chunks-last": ("last uniform", 0, 2 ** 64,
                    lambda v: next(uniform_chunks(0, 0, 1, v), None)),
    "substream-seed": ("master seed", 0, 2 ** 128 - 1, lambda v: substream(v, 0)),
    "substream-index": ("substream index", 0, 2 ** 64 - 1, lambda v: substream(0, v)),
}

# Each value tried: the value from the argument's (low, high), and whether it is taken.
TRIED_VALUES = {
    "low-1": (lambda low, high: low - 1, False),
    "low": (lambda low, high: low, True),
    "high": (lambda low, high: high, True),
    "high+1": (lambda low, high: high + 1, False),
    "True": (lambda low, high: True, False),
    "1.0": (lambda low, high: 1.0, False),
    "text-1": (lambda low, high: "1", False),
    "np.int64": (lambda low, high: np.int64(low), True),
}


@pytest.mark.parametrize("tried", TRIED_VALUES)
@pytest.mark.parametrize("argument", INTEGER_ARGUMENTS)
def test_every_integer_argument_takes_exactly_its_range(argument, tried, monkeypatch):
    """Every integer argument takes an int or a numpy integer from its low
    to its high end, and refuses one past either end, a bool, a float and
    text with one message; the engines stop where their work would start,
    so a count at its cap costs nothing."""
    monkeypatch.setattr(ketlab.protective, "default_grid", _accepted)
    monkeypatch.setattr(ketlab.ontology, "uniform_chunks", _accepted)
    monkeypatch.setattr(ketlab.pbr, "uniform_chunks", _accepted)
    what, low, high, call = INTEGER_ARGUMENTS[argument]
    make, taken = TRIED_VALUES[tried]
    value = make(low, high)
    if taken:
        try:
            call(value)
        except _Accepted:
            pass
        except PreconditionError as exc:
            assert str(exc).startswith("n_points must be a power of two"), exc
    else:
        message = f"{what} must be an integer in [{low}, {high}], got {value!r}"
        with pytest.raises(PreconditionError, match=re.escape(message) + "$"):
            call(value)


def test_numpy_integer_seeds_and_indices_draw_the_same_stream():
    want = substream(3, 2).random(4)
    np.testing.assert_array_equal(substream(np.uint64(3), np.int64(2)).random(4), want)
    np.testing.assert_array_equal(SubstreamSampler(np.int32(3)).select(2).random(4), want)
