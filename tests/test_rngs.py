import numpy as np
import pytest

import ketlab
from ketlab import rngs
from ketlab.errors import PreconditionError
from ketlab.protective import MAX_STEPS
from ketlab.rngs import (
    STREAM_STRIDE,
    SUBSTREAM_CHUNK,
    SubstreamSampler,
    as_generator,
    leading_uniforms,
    stream_chunks,
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


def test_as_generator_passes_generators_through():
    gen = substream(5, 0)
    assert as_generator(gen) is gen


def test_as_generator_accepts_integer_seeds():
    a = as_generator(11).random(4)
    b = as_generator(11).random(4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5, 2 ** 127])
def test_as_generator_keeps_the_master_seed_stream(seed):
    want = np.random.Generator(np.random.Philox(key=seed))
    got = as_generator(seed)
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
    with pytest.raises(PreconditionError):
        list(uniform_chunks(0, 0, 1, k=5))


def test_uniform_chunks_cover_the_range_in_order(monkeypatch):
    start, stop = 5, 2 * SUBSTREAM_CHUNK + 9
    blocks = list(uniform_chunks(3, start, stop, k=2))
    assert [len(u) for u in blocks] == [SUBSTREAM_CHUNK, SUBSTREAM_CHUNK, 4]
    joined = np.concatenate(blocks)
    for i in (start, start + SUBSTREAM_CHUNK - 1, start + SUBSTREAM_CHUNK, stop - 1):
        np.testing.assert_array_equal(joined[i - start], substream(3, i).random(2))
    monkeypatch.setattr(rngs, "SUBSTREAM_CHUNK", stop)
    (whole,) = uniform_chunks(3, start, stop, k=2)
    np.testing.assert_array_equal(joined, whole)
    assert list(uniform_chunks(3, 4, 4)) == []


def test_uniform_chunks_reject_ranges_past_the_last_substream():
    with pytest.raises(PreconditionError):
        list(uniform_chunks(0, 2 ** 64 - 1, 2 ** 64 + 1))


def test_uniform_chunks_reach_the_last_substream():
    """start and stop may be 2**64, one past the last substream index."""
    (block,) = uniform_chunks(0, np.uint64(2 ** 64 - 1), 2 ** 64)
    np.testing.assert_array_equal(block, substream(0, 2 ** 64 - 1).random((1, 1)))
    assert list(uniform_chunks(0, 2 ** 64, 2 ** 64)) == []


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5, 99_999, 100_000, 100_001])
@pytest.mark.parametrize("seed, index", [(0, 0), (7, 3), (2 ** 64 + 12345, 2 ** 64 - 1)])
def test_stream_chunks_match_the_substream_bit_for_bit(seed, index, start):
    got = np.concatenate(list(stream_chunks(seed, index, start, start + 11)))
    np.testing.assert_array_equal(got, substream(seed, index).random(start + 11)[start:])


def test_stream_chunks_cover_the_run_in_order(monkeypatch):
    monkeypatch.setattr(rngs, "SUBSTREAM_CHUNK", 8)
    blocks = list(stream_chunks(3, 2, 5, 30))
    assert [len(u) for u in blocks] == [8, 8, 8, 1]
    np.testing.assert_array_equal(np.concatenate(blocks), substream(3, 2).random(30)[5:])
    assert list(stream_chunks(3, 2, 4, 4)) == []
    assert list(stream_chunks(3, 2, 9, 4)) == []


def test_stream_chunks_reach_the_end_of_a_substream_and_stop_there():
    """A substream owns 2**128 Philox blocks of four uniforms: its last
    block is the one numpy draws first from a counter one below the next
    substream's."""
    seed, index = 5, 9
    last = np.random.Generator(np.random.Philox(key=seed, counter=(index + 1) * STREAM_STRIDE - 1))
    (block,) = stream_chunks(seed, index, 2 ** 130 - 4, 2 ** 130)
    np.testing.assert_array_equal(block, last.random(4))
    assert list(stream_chunks(seed, index, 2 ** 130, 2 ** 130)) == []


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 400, MAX_STEPS])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 128 - 1])
def test_leading_uniforms_match_substream_zero_bit_for_bit(seed, n):
    got = leading_uniforms(seed, n)
    want = substream(seed, 0).random(n)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_leading_uniforms_cross_their_kernel_blocks_in_order(monkeypatch):
    """With the chunk patched to 2 blocks (8 uniforms), every residue of n
    mod 4 and mod 8 crosses a kernel call's edge."""
    monkeypatch.setattr(rngs, "SUBSTREAM_CHUNK", 2)
    for n in range(0, 26):
        np.testing.assert_array_equal(leading_uniforms(np.uint64(5), n),
                                      substream(5, 0).random(n))


def test_leading_uniforms_draw_a_generator_s_own_next_uniforms():
    gen, twin = substream(5, 2), substream(5, 2)
    gen.random(3), twin.random(3)
    np.testing.assert_array_equal(leading_uniforms(gen, 6), twin.random(6))
    np.testing.assert_array_equal(leading_uniforms(gen, 2), twin.random(2))


def _onto(seed):
    scenario = ketlab.qubit_scenario()
    return ketlab.monte_carlo_onto(ketlab.orthodox_model(scenario), scenario, 10, seed=seed)


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
    pytest.param(lambda: as_generator(True), id="as-generator-bool-seed"),
    pytest.param(lambda: SubstreamSampler(1.5).select(0), id="sampler-float-seed"),
    pytest.param(lambda: list(uniform_chunks(True, 0, 1)), id="chunks-bool-seed"),
    pytest.param(lambda: list(uniform_chunks(np.float64(3.0), 0, 0)), id="chunks-float-seed"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 1, k=2.0)), id="chunks-float-k"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 1, k=0)), id="chunks-zero-k"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 3, k=True)), id="chunks-bool-k"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 0, k=5)), id="chunks-empty-range-k-5"),
    pytest.param(lambda: list(uniform_chunks(0, True, 3)), id="chunks-bool-start"),
    pytest.param(lambda: list(uniform_chunks(0, 0.5, 3)), id="chunks-float-start"),
    pytest.param(lambda: list(uniform_chunks(0, -1, 3)), id="chunks-negative-start"),
    pytest.param(lambda: list(uniform_chunks(0, 0, 3.0)), id="chunks-float-stop"),
    pytest.param(lambda: list(uniform_chunks(0, 0, np.False_)), id="chunks-numpy-bool-stop"),
    pytest.param(lambda: list(uniform_chunks(0, 5, 2 ** 64 + 1)), id="chunks-stop-past-2**64"),
    pytest.param(lambda: list(stream_chunks(True, 0, 0, 1)), id="stream-bool-seed"),
    pytest.param(lambda: list(stream_chunks(2 ** 128, 0, 0, 1)), id="stream-seed-2**128"),
    pytest.param(lambda: list(stream_chunks(0, 2 ** 64, 0, 1)), id="stream-index-2**64"),
    pytest.param(lambda: list(stream_chunks(0, 1.0, 0, 1)), id="stream-float-index"),
    pytest.param(lambda: list(stream_chunks(0, 0, -1, 3)), id="stream-negative-start"),
    pytest.param(lambda: list(stream_chunks(0, 0, np.True_, 3)), id="stream-numpy-bool-start"),
    pytest.param(lambda: list(stream_chunks(0, 0, 0, 3.0)), id="stream-float-stop"),
    pytest.param(lambda: list(stream_chunks(0, 0, 0, 2 ** 130 + 1)), id="stream-stop-past-2**130"),
    pytest.param(lambda: ketlab.protective_measure(ketlab.ket_plus(), ketlab.sigma_z(), n=5,
                                                   mode="sampled", seed=True),
                 id="sampled-protective-bool-seed"),
    pytest.param(lambda: ketlab.protective_measure(ketlab.ket_plus(), ketlab.sigma_z(), n=5,
                                                   mode="sampled", seed=2 ** 128),
                 id="sampled-protective-seed-2**128"),
    pytest.param(lambda: leading_uniforms(True, 4), id="leading-bool-seed"),
    pytest.param(lambda: leading_uniforms(np.float64(3.0), 4), id="leading-float-seed"),
    pytest.param(lambda: leading_uniforms(-1, 4), id="leading-negative-seed"),
    pytest.param(lambda: leading_uniforms(2 ** 128, 4), id="leading-seed-2**128"),
    pytest.param(lambda: leading_uniforms(0, False), id="leading-bool-count"),
    pytest.param(lambda: leading_uniforms(0, 4.0), id="leading-float-count"),
    pytest.param(lambda: leading_uniforms(0, -1), id="leading-negative-count"),
    pytest.param(lambda: leading_uniforms(0, 2 ** 64), id="leading-count-2**64"),
])
def test_master_seeds_and_substream_indices_follow_one_rule(call):
    """A master seed is an integer (numpy's too, not a bool) in [0, 2**128),
    a substream index one in [0, 2**64), the start and stop of a range of
    substreams ones in [0, 2**64], the start and stop of a run along one
    substream ones in [0, 2**130], the uniforms drawn per substream k
    one in [1, 4], and the count of uniforms read from the start of a
    substream one in [0, 2**64), wherever they enter."""
    with pytest.raises(PreconditionError, match="must be an integer in"):
        call()


def test_numpy_integer_seeds_and_indices_draw_the_same_stream():
    want = substream(3, 2).random(4)
    np.testing.assert_array_equal(substream(np.uint64(3), np.int64(2)).random(4), want)
    np.testing.assert_array_equal(SubstreamSampler(np.int32(3)).select(2).random(4), want)
