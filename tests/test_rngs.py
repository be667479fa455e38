import numpy as np
import pytest

import ketlab
from ketlab.errors import PreconditionError
from ketlab.rngs import (
    STREAM_STRIDE,
    SUBSTREAM_CHUNK,
    SubstreamSampler,
    as_generator,
    substream,
    substream_uniforms,
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
def test_substream_uniforms_match_substreams_bit_for_bit(seed, k):
    got = substream_uniforms(seed, UNIFORM_INDICES, k)
    want = np.array([substream(seed, i).random(k) for i in UNIFORM_INDICES])
    np.testing.assert_array_equal(got, want)


def test_substream_uniforms_accept_integer_arrays():
    indices = np.arange(1000, 1300, 7)
    got = substream_uniforms(11, indices, 2)
    want = np.array([substream(11, int(i)).random(2) for i in indices])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("indices", [[-1], [0, 2 ** 64], np.array([3, -2])])
def test_substream_uniforms_reject_out_of_range_indices(indices):
    with pytest.raises(PreconditionError, match="outside"):
        substream_uniforms(0, indices)


def test_substream_uniforms_reject_bad_seeds_and_block_sizes():
    with pytest.raises(PreconditionError):
        substream_uniforms(-1, [0])
    with pytest.raises(PreconditionError):
        substream_uniforms(2 ** 128, [0])
    with pytest.raises(PreconditionError):
        substream_uniforms(0, [0], k=5)


def test_uniform_chunks_cover_the_range_in_order():
    start, stop = 5, 2 * SUBSTREAM_CHUNK + 9
    blocks = list(uniform_chunks(3, start, stop, k=2))
    assert [len(u) for u in blocks] == [SUBSTREAM_CHUNK, SUBSTREAM_CHUNK, 4]
    joined = np.concatenate(blocks)
    np.testing.assert_array_equal(joined, substream_uniforms(3, np.arange(start, stop), 2))
    assert list(uniform_chunks(3, 4, 4)) == []


def test_uniform_chunks_reject_ranges_past_the_last_substream():
    with pytest.raises(PreconditionError):
        list(uniform_chunks(0, 2 ** 64 - 1, 2 ** 64 + 1))


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
    pytest.param(lambda: substream_uniforms(True, [0]), id="uniforms-bool-seed"),
    pytest.param(lambda: list(uniform_chunks(np.float64(3.0), 0, 0)), id="chunks-float-seed"),
])
def test_master_seeds_and_substream_indices_follow_one_rule(call):
    """A master seed is an integer (numpy's too, not a bool) in [0, 2**128)
    and a substream index one in [0, 2**64), wherever a seed enters."""
    with pytest.raises(PreconditionError, match="must be an integer in"):
        call()


def test_numpy_integer_seeds_and_indices_draw_the_same_stream():
    want = substream(3, 2).random(4)
    np.testing.assert_array_equal(substream(np.uint64(3), np.int64(2)).random(4), want)
    np.testing.assert_array_equal(SubstreamSampler(np.int32(3)).select(2).random(4), want)
