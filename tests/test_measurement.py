import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ketlab.errors import DegenerateInputError, PreconditionError, WraparoundError
from ketlab.hilbert import (
    MAX_DIM,
    EigenDecomposition,
    HermitianOperator,
    StateVector,
    eigendecompose,
    equal_up_to_phase,
    expectation,
    ket_one,
    ket_plus,
    ket_zero,
    qubit_state,
    sigma_z,
)
from ketlab.measurement import (
    DEFAULT_EXTENT_WIDTHS,
    FORBIDDEN_TOL,
    WIDTH_SPACING_FACTOR,
    GridWavefunction,
    JointSystemPointerState,
    PointerGrid,
    Scenario,
    born_outcomes,
    born_probabilities,
    couple_pointer,
    coupling_phases,
    default_grid,
    inverse_cdf,
    make_pointer,
    postselected_cycles,
    postselected_multiplier,
    strong_measure,
)
from ketlab.ontology import paired_shared_reality_model
from ketlab.rngs import substream
from oracles import (amplitudes_from_json, haar_random_state, pointer_marginal,
                     pointer_position_mean, product_state, random_observable,
                     reference_postselected_cycle)

seeds = st.integers(0, 2 ** 32 - 1)
angles = st.floats(-6.0, 6.0, allow_nan=False)


# ---------------------------------------------------------------------------
# grid

def test_grid_rejects_non_power_of_two():
    with pytest.raises(PreconditionError):
        PointerGrid(100, 0.1)
    with pytest.raises(PreconditionError):
        PointerGrid(8, 0.1)


def test_grid_rejects_nonpositive_spacing():
    with pytest.raises(PreconditionError):
        PointerGrid(64, 0.0)


@pytest.mark.parametrize("spacing,center", [
    ("x", 0.0), ([1], 0.0), (math.inf, 0.0), (math.nan, 0.0), ("0.1", 0.0), (True, 0.0),
    (10 ** 400, 0.0), (0.1, math.nan), (0.1, -math.inf), (0.1, "0"), (0.1, False),
])
def test_grid_spacing_and_center_must_be_finite_real_numbers(spacing, center):
    with pytest.raises(PreconditionError, match="must be a finite real number"):
        PointerGrid(16, spacing, center)


def test_grid_reads_integer_and_numpy_spacing_and_center_as_floats():
    grid = PointerGrid(16, 1, np.int64(2))
    assert (grid.spacing, grid.center) == (1.0, 2.0)
    assert type(grid.spacing) is float and type(grid.center) is float
    assert PointerGrid(16, np.float64(0.5)).spacing == 0.5


def test_grid_rejects_more_points_than_the_cap():
    assert PointerGrid(MAX_DIM, 0.1).n_points == MAX_DIM
    with pytest.raises(PreconditionError, match="cap"):
        PointerGrid(2 * MAX_DIM, 0.1)
    # rejected at construction: positions and momenta (8 TiB each) are
    # only computed on first use
    with pytest.raises(PreconditionError, match="cap"):
        default_grid(1.0, 2 ** 40)


def test_grid_geometry():
    grid = PointerGrid(64, 0.5, center=2.0)
    assert grid.extent == 32.0
    assert grid.positions[32] == 2.0                 # center sits on a grid point
    assert abs(grid.positions[1] - grid.positions[0] - 0.5) < 1e-15
    np.testing.assert_allclose(grid.momenta, 2 * np.pi * np.fft.fftfreq(64, 0.5))


def test_default_grid_covers_forty_widths():
    grid = default_grid(width=2.0)
    assert abs(grid.extent - 80.0) < 1e-12
    assert grid.n_points == 512


@pytest.mark.parametrize("width,n_points", [
    ("1", 512), (np.array(1.0), 512), (math.nan, 512), (True, 512), (1.0, np.array(512)),
    (1.0, 512.0), (1.0, 0), (1.0, None),
], ids=["text-width", "0d-array-width", "nan-width", "bool-width", "0d-array-n", "float-n",
        "zero-n", "none-n"])
def test_default_grid_checks_its_arguments_before_the_lookup(width, n_points):
    """Its cache is keyed on the arguments, so they are checked first:
    an unhashable or invalid one is a PreconditionError, not a TypeError."""
    with pytest.raises(PreconditionError):
        default_grid(width, n_points)


def test_grid_wavefunction_norm_enforced():
    grid = PointerGrid(64, 0.25)
    with pytest.raises(PreconditionError):
        GridWavefunction(grid, np.ones(64))


def test_grid_and_joint_states_reject_nan_amplitudes():
    grid = PointerGrid(64, 0.25)
    with pytest.raises(PreconditionError):
        GridWavefunction(grid, np.full(64, np.nan))
    with pytest.raises(PreconditionError):
        JointSystemPointerState(2, grid, np.full((2, 64), np.nan))


# ---------------------------------------------------------------------------
# ready pointer

def test_pointer_profile_is_normalized_gaussian():
    grid = default_grid(1.0)
    chi = make_pointer(grid, 1.0)
    norm = np.sum(np.abs(chi.amplitudes) ** 2) * grid.spacing
    assert abs(norm - 1.0) < 1e-12
    density = np.abs(chi.amplitudes) ** 2
    mean = np.sum(grid.positions * density) * grid.spacing
    var = np.sum((grid.positions - mean) ** 2 * density) * grid.spacing
    assert abs(mean) < 1e-12
    assert abs(var - 1.0) < 1e-6   # |chi|^2 has standard deviation = width


def test_pointer_rejects_under_resolved_width():
    grid = PointerGrid(64, 0.5)
    with pytest.raises(PreconditionError):
        make_pointer(grid, 1.0)    # needs >= 4 spacings


def test_pointer_rejects_too_small_extent():
    grid = PointerGrid(16, 1.0)
    with pytest.raises(PreconditionError):
        make_pointer(grid, 4.0)    # extent 16 < 20 widths


# ---------------------------------------------------------------------------
# kept setup: one default grid per (width, N), one pointer per (grid, width)

def test_default_grids_and_their_pointers_are_kept_read_only():
    grid = default_grid(1.0, 512)
    assert default_grid(1.0) is grid and default_grid(width=1, n_points=512) is grid
    assert default_grid(1.0, 1024) is not grid and default_grid(2.0, 512) is not grid
    pointer = make_pointer(grid, 1.0)
    assert make_pointer(grid, 1.0) is pointer and make_pointer(grid, 1) is pointer
    assert make_pointer(grid, 2.0) is not pointer
    assert pointer.occupied_momenta is pointer.occupied_momenta
    for arr in (grid.positions, grid.momenta, pointer.amplitudes, pointer.spectra,
                pointer.occupied_momenta):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_a_pointer_is_kept_per_grid_object_and_matches_a_fresh_build():
    grid = default_grid(1.0, 512)
    twin = PointerGrid(grid.n_points, grid.spacing)
    pointer, other = make_pointer(grid, 1.0), make_pointer(twin, 1.0)
    assert pointer.grid is grid and other.grid is twin
    assert other is not pointer
    np.testing.assert_array_equal(other.amplitudes, pointer.amplitudes)
    fresh = GridWavefunction.normalized(twin, np.exp(-twin.positions ** 2 / 4.0))
    np.testing.assert_array_equal(fresh.amplitudes, pointer.amplitudes)
    np.testing.assert_array_equal(fresh.spectra, pointer.spectra)


@pytest.mark.parametrize("width", ["1", True, None, math.nan, math.inf, np.array(1.0)])
def test_a_pointer_width_must_be_a_finite_real_number(width):
    with pytest.raises(PreconditionError, match="must be a finite real number"):
        make_pointer(default_grid(1.0, 512), width)


def test_make_pointer_checks_every_width_after_a_cache_hit():
    grid = default_grid(1.0, 512)      # spacing 0.078125, extent 40
    assert make_pointer(grid, 1.0) is make_pointer(grid, 1.0)
    with pytest.raises(PreconditionError, match="under-resolved"):
        make_pointer(grid, 0.3)        # needs >= 4 spacings = 0.3125
    with pytest.raises(PreconditionError, match="too small"):
        make_pointer(grid, 2.5)        # needs extent >= 20 widths = 50


# ---------------------------------------------------------------------------
# born probabilities and strong measurement

@given(angles)
def test_born_probabilities_on_sigma_z(theta):
    psi = qubit_state(theta)
    probs = born_probabilities(psi, eigendecompose(sigma_z()))
    # ascending eigenvalue order: outcome 0 is the -1 eigenvector |1>
    assert abs(probs[0] - math.sin(theta) ** 2) < 1e-12
    assert abs(probs[1] - math.cos(theta) ** 2) < 1e-12


def test_born_probabilities_dimension_mismatch():
    basis = eigendecompose(HermitianOperator(3, np.eye(3)))
    with pytest.raises(PreconditionError, match="^dimension mismatch: state 2 vs basis 3$"):
        born_probabilities(ket_zero(), basis)


def sequential_walk(weights, u):
    """The inverse-CDF walk as a loop, one weight at a time: the oracle
    for `inverse_cdf`. The total is the same running sum, in the same
    order."""
    total = 0.0
    for w in weights:
        total += w
    scaled = u * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if scaled < acc:
            return i
    return len(weights) - 1


@pytest.mark.parametrize("n", [1, 2, 4, 9, 17])
def test_inverse_cdf_matches_the_sequential_walk(n):
    rng = np.random.default_rng(n)
    weights = rng.random(n)
    weights[rng.random(n) < 0.3] = 0.0
    uniforms = np.concatenate([rng.random(500), [0.0, 1.0 - 2.0 ** -53]])
    got = inverse_cdf(weights, uniforms)
    assert list(got) == [sequential_walk(weights, u) for u in uniforms]


def test_inverse_cdf_skips_outcomes_whose_cumulative_weight_it_reaches():
    # u * total equal to a cumulative weight selects the next outcome, so a
    # zero-weight outcome is never drawn, not even by u = 0
    weights = np.array([0.0, 1.0, 1.0])
    uniforms = [0.0, 0.5, 1.0 - 2.0 ** -53]
    assert list(inverse_cdf(weights, uniforms)) == [1, 2, 2]
    assert [sequential_walk(weights, u) for u in uniforms] == [1, 2, 2]


def test_inverse_cdf_never_draws_an_outcome_of_weight_zero():
    # a pairwise sum of 8 or more weights can exceed the sequential one by
    # an ulp; scaled by it, a uniform near 1 passed every cumulative weight
    last = 1.0 - 2.0 ** -53
    row = np.asarray(paired_shared_reality_model(0.07).preparations["+0"])
    assert row[-1] == 0.0 and row[inverse_cdf(row, [last])[0]] > 0.0
    rng = np.random.default_rng(28)
    for n in (9, 17):
        tables = rng.random((4000, n))
        tables[np.arange(n) >= rng.integers(1, n, size=(4000, 1))] = 0.0
        uniforms = np.concatenate([np.full(2000, last), rng.random(2000)])
        drawn = inverse_cdf(tables, uniforms, rows=np.arange(4000))
        assert (tables[np.arange(4000), drawn] > 0.0).all()
        assert list(drawn[:200]) == [sequential_walk(t, last) for t in tables[:200]]


def test_inverse_cdf_walks_one_table_per_uniform():
    rng = np.random.default_rng(3)
    tables = rng.random((400, 4))
    uniforms = rng.random(400)
    got = inverse_cdf(tables, uniforms, rows=np.arange(400))
    assert list(got) == [sequential_walk(t, u) for t, u in zip(tables, uniforms)]


def broadcast_walk(weights, uniforms):
    """The inverse-CDF walk as one broadcast comparison of every cumulative
    weight with every scaled uniform: the oracle for `inverse_cdf`'s binary
    search on finite tables."""
    weights = np.asarray(weights, dtype=float)
    cdf = np.cumsum(weights, axis=-1)
    scaled = np.asarray(uniforms) * cdf[..., -1]
    return np.minimum(np.sum(cdf <= scaled[..., None], axis=-1), weights.shape[-1] - 1)


@pytest.mark.parametrize("n", [1, 2, 4, 9, 16, 17])
def test_inverse_cdf_matches_the_broadcast_walk_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)
    uniforms = np.concatenate([rng.random(2000), [0.0, 1.0 - 2.0 ** -53]])
    tables = rng.random((60, n))
    tables[rng.random((60, n)) < 0.4] = 0.0
    tables[:5, 0] = tables[5:10, -1] = 0.0
    for table in tables:
        np.testing.assert_array_equal(inverse_cdf(table, uniforms),
                                      broadcast_walk(table, uniforms))
    picks = rng.integers(0, 60, size=len(uniforms))
    want = broadcast_walk(tables[picks], uniforms)
    np.testing.assert_array_equal(
        inverse_cdf(tables[picks], uniforms, rows=np.arange(len(uniforms))), want)
    np.testing.assert_array_equal(inverse_cdf(tables, uniforms, rows=picks), want)


@pytest.mark.parametrize("table", [[np.nan, 1.0], [0.5, np.nan, 0.5], [0.0, 0.0, 0.0]])
def test_a_nan_or_all_zero_table_falls_through_to_the_last_outcome(table):
    """On one shared table, on one table per uniform and on a table picked
    from a stack by `rows` alike; the broadcast oracle would put a NaN
    table on outcome 0, since nothing is <= NaN."""
    uniforms = [0.0, 0.5, 1.0 - 2.0 ** -53]
    last = len(table) - 1
    with np.errstate(invalid="ignore"):
        assert list(inverse_cdf(table, uniforms)) == [last] * 3
        assert list(inverse_cdf([table] * 3, uniforms, rows=np.arange(3))) == [last] * 3
        assert list(inverse_cdf([[1.0] * len(table), table], uniforms, rows=[1] * 3)) == [last] * 3
        assert int(inverse_cdf(table, 0.25)) == last


def test_strong_measure_on_eigenstate_is_deterministic():
    eig = eigendecompose(sigma_z())
    for seed in range(20):
        sample = strong_measure(ket_one(), eig, seed)
        assert sample.eigenvalue == -1.0
        assert sample.probability > 1.0 - 1e-12
        assert equal_up_to_phase(sample.collapsed, ket_one())


def test_strong_measure_frequencies_track_born_weights():
    eig = eigendecompose(sigma_z())
    psi = qubit_state(0.2)
    n = 4000
    hits = sum(strong_measure(psi, eig, s).eigenvalue == 1.0 for s in range(n))
    p = math.cos(0.2) ** 2
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 5 * sigma


EDGE_SEEDS = [*range(40), 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 127 + 5, 2 ** 128 - 1]


def test_strong_measure_walks_uniform_0_of_substream_0():
    """`strong_measure` picks the outcome `inverse_cdf` picks from the Born
    weights with the first uniform of numpy's own substream 0, on a
    degenerate three-level observable and on a qubit."""
    cases = [(StateVector.normalized([1.0, 0.7j, 0.5]),
              eigendecompose(HermitianOperator(3, np.diag([1.0, 1.0, 3.0])))),
             (qubit_state(1.1, 0.3), eigendecompose(sigma_z()))]
    for psi, eig in cases:
        eigenvalues, weights, projections = born_outcomes(psi, eig)
        seen = set()
        for seed in EDGE_SEEDS:
            k = int(inverse_cdf(weights, substream(seed, 0).random()))
            sample = strong_measure(psi, eig, seed)
            assert (sample.outcome_index, sample.eigenvalue) == (k, eigenvalues[k])
            np.testing.assert_array_equal(sample.collapsed.amplitudes,
                                          StateVector.normalized(projections[k]).amplitudes)
            seen.add(k)
        assert seen == set(range(len(weights)))


def test_strong_measure_is_reproducible():
    eig = eigendecompose(sigma_z())
    a = strong_measure(ket_plus(), eig, 77)
    b = strong_measure(ket_plus(), eig, 77)
    assert a.outcome_index == b.outcome_index


def test_measuring_the_collapsed_state_repeats_the_outcome():
    eig = eigendecompose(sigma_z())
    first = strong_measure(ket_plus(), eig, 3)
    again = strong_measure(first.collapsed, eig, 99)
    assert again.outcome_index == first.outcome_index
    assert again.probability > 1.0 - 1e-12


def test_degenerate_outcomes_collapse_onto_the_eigenspace():
    # observable with a two-dimensional eigenspace: diag(1, 1, 3)
    op = HermitianOperator(3, np.diag([1.0, 1.0, 3.0]))
    eig = eigendecompose(op)
    psi = StateVector.normalized([1.0, 1.0, 0.0])
    sample = strong_measure(psi, eig, 0)
    assert sample.eigenvalue == 1.0
    assert sample.probability > 1.0 - 1e-12
    # the superposition inside the eigenspace survives the collapse
    assert equal_up_to_phase(sample.collapsed, psi)


def test_strong_measure_rejects_vanishing_total_weight():
    partial = EigenDecomposition((1.0,), ket_zero().amplitudes[:, None])
    with pytest.raises(DegenerateInputError):
        strong_measure(ket_one(), partial, 0)


# ---------------------------------------------------------------------------
# pointer coupling

def test_coupling_translates_pointer_by_g_times_eigenvalue():
    grid = default_grid(1.0)
    joint = product_state(ket_zero(), make_pointer(grid, 1.0))
    coupled = couple_pointer(joint, sigma_z(), 0.25)
    assert abs(pointer_position_mean(coupled) - 0.25) < 1e-10
    coupled = couple_pointer(joint, sigma_z(), -0.25)
    assert abs(pointer_position_mean(coupled) + 0.25) < 1e-10


@given(angles, st.floats(-0.5, 0.5), seeds)
def test_mean_pointer_shift_equals_g_times_expectation(theta, g, seed):
    rng = np.random.default_rng(seed)
    op = random_observable(2, rng)
    psi = qubit_state(theta)
    grid = default_grid(1.0)
    joint = product_state(psi, make_pointer(grid, 1.0))
    coupled = couple_pointer(joint, op, g)
    assert abs(pointer_position_mean(coupled) - g * expectation(op, psi)) < 1e-9


@given(st.floats(-2.0, 2.0), seeds)
def test_coupling_is_unitary_on_the_grid(g, seed):
    rng = np.random.default_rng(seed)
    op = random_observable(2, rng)
    grid = default_grid(1.0)
    joint = product_state(qubit_state(0.9, 0.3), make_pointer(grid, 1.0))
    coupled = couple_pointer(joint, op, g)
    norm = np.sum(np.abs(coupled.amplitudes) ** 2) * grid.spacing
    assert abs(norm - 1.0) < 1e-12


def test_superposition_splits_the_pointer_into_two_packets():
    grid = default_grid(1.0)
    joint = product_state(ket_plus(), make_pointer(grid, 1.0))
    coupled = couple_pointer(joint, sigma_z(), 3.0)
    density = pointer_marginal(coupled)
    half = grid.n_points // 2
    left = np.sum(density[:half]) * grid.spacing
    right = np.sum(density[half:]) * grid.spacing
    assert abs(left - 0.5) < 1e-3
    assert abs(right - 0.5) < 1e-3
    assert abs(pointer_position_mean(coupled)) < 1e-10


def test_wraparound_shift_is_rejected():
    grid = default_grid(1.0)    # extent 40, quarter 10
    joint = product_state(ket_zero(), make_pointer(grid, 1.0))
    with pytest.raises(WraparoundError):
        couple_pointer(joint, sigma_z(), 11.0)


def test_coupling_phases_guard_the_accumulated_shift():
    grid = default_grid(1.0)    # extent 40, quarter 10
    eig = eigendecompose(sigma_z())
    coupling_phases(eig, 0.125, grid, 80)      # 80 couplings shift by exactly 10
    with pytest.raises(WraparoundError):
        coupling_phases(eig, 0.125, grid, 81)
    np.testing.assert_array_equal(
        coupling_phases(eig, 0.125, grid, 1),
        np.exp(-1j * 0.125 * np.outer(eig.eigenvalues, grid.momenta)),
    )


def test_coupling_dimension_mismatch():
    grid = default_grid(1.0)
    joint = product_state(ket_zero(), make_pointer(grid, 1.0))
    with pytest.raises(PreconditionError):
        couple_pointer(joint, HermitianOperator(3, np.eye(3)), 0.1)


@given(st.integers(8, 10), st.integers(1, 300), st.sampled_from([0.01, 0.078125, 0.3, 2.5]),
       st.floats(-50.0, 50.0), st.floats(0.0, 0.999), st.booleans(), seeds)
def test_postselected_cycles_match_the_fft_readout(log_n, cycles, spacing, center, reach,
                                                   narrow, seed):
    """Weights and means read in momentum space, block by block, agree with
    the inverse-FFT readout of each cycle's spectrum phi0^ M1 M^(k-1): a
    Gaussian pointer of 40 widths per extent, or the narrowest one
    `make_pointer` accepts, under random postselected multipliers, at any
    grid size, spacing and centre, over runs of one block to nineteen
    (BLOCK_ELEMENTS // K rows for the K momenta the pointer occupies: 106
    for the wide pointer, 66 to 16 for the narrow one)."""
    grid = PointerGrid(2 ** log_n, spacing, center)
    width = WIDTH_SPACING_FACTOR * spacing if narrow else grid.extent / DEFAULT_EXTENT_WIDTHS
    pointer = make_pointer(grid, width)
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    eig = eigendecompose(random_observable(d, rng))
    g = reach * grid.extent / 4.0 / (cycles * max(abs(v) for v in eig.eigenvalues))
    phases = coupling_phases(eig, g, grid, cycles)
    c = haar_random_state(d, rng).amplitudes
    first = postselected_multiplier(eig, g, phases, c, haar_random_state(d, rng).amplitudes)
    repeated = postselected_multiplier(eig, g, phases, c, c)
    weights, means = postselected_cycles(pointer, first, repeated, cycles)
    powers = np.cumprod([np.ones(grid.n_points)] + [repeated[0]] * (cycles - 1), axis=0)
    spectra = np.fft.fft(pointer.amplitudes) * first[0] * powers
    _, want_weights, want_means = reference_postselected_cycle(spectra, grid)
    np.testing.assert_allclose(weights, want_weights, rtol=1e-12, atol=0.0)
    # a mean near 0 has no scale of its own; its rounding scales with the positions
    scale = np.max(np.abs(grid.positions))
    np.testing.assert_allclose(means, want_means, rtol=0.0, atol=1e-12 * scale)


def test_the_kernel_sums_over_the_momenta_the_pointer_occupies():
    """A pointer occupies the momenta where b = |phi0^|^2 >= eps^2 max b:
    77 for a width-1 pointer on the default grid of any size, and 245 of
    512 for the narrowest pointer `make_pointer` accepts. Every other
    momentum is dropped, and the kernel reads no multiplier there."""
    eps = np.finfo(float).eps
    pointers = [make_pointer(default_grid(1.0, n), 1.0) for n in (256, 512, 1024, 4096)]
    assert [p.occupied_momenta.size for p in pointers] == [77] * 4
    grid = default_grid(1.0, 512)
    narrow = make_pointer(grid, WIDTH_SPACING_FACTOR * grid.spacing)
    assert narrow.occupied_momenta.size == 245
    eig = eigendecompose(sigma_z())
    for pointer in [*pointers, narrow]:
        b = np.abs(np.fft.fft(pointer.amplitudes)) ** 2
        kept = pointer.occupied_momenta
        assert np.all(np.delete(b, kept) < eps ** 2 * b.max())
        assert np.all(b[kept] >= eps ** 2 * b.max())
        phases = coupling_phases(eig, 0.01, pointer.grid, 20)
        multiplier = postselected_multiplier(eig, 0.01, phases, ket_plus().amplitudes,
                                             ket_plus().amplitudes)
        blind = np.full_like(multiplier, np.nan)
        blind[:, kept] = multiplier[:, kept]
        np.testing.assert_array_equal(postselected_cycles(pointer, multiplier, multiplier, 20),
                                      postselected_cycles(pointer, blind, blind, 20))


def test_joint_state_json_round_trip():
    grid = default_grid(1.0, n_points=256)
    joint = product_state(qubit_state(0.4, 0.2), make_pointer(grid, 1.0))
    data = joint.to_json_dict()
    again = JointSystemPointerState(data["system_dim"], PointerGrid(**data["grid"]),
                                    amplitudes_from_json(data).reshape(2, -1))
    np.testing.assert_allclose(again.amplitudes, joint.amplitudes, atol=1e-15)


# ---------------------------------------------------------------------------
# scenarios

def test_a_scenario_forbids_exactly_the_outcomes_below_the_amplitude_tolerance():
    """A qutrit against its standard basis: an outcome whose amplitude
    |<v_k|psi>| is below FORBIDDEN_TOL is forbidden; one with amplitude 1e-11
    is allowed, though its Born weight 1e-22 is far below 1e-12."""
    assert FORBIDDEN_TOL == 1e-12
    eps, tiny = 1e-11, 1e-13
    allowed = StateVector(3, np.array([0.0, eps, math.sqrt(1.0 - eps ** 2)]))
    nearly = StateVector(3, np.array([tiny, math.sqrt(1.0 - tiny ** 2), 0.0]))
    basis = EigenDecomposition((1.0, 2.0, 3.0), np.eye(3))
    scenario = Scenario("qutrit", {"allowed": allowed, "nearly": nearly,
                                   "spread": StateVector.normalized(np.ones(3))},
                        {"std": basis})
    assert scenario.forbidden == {"allowed": (("std", 0),),
                                  "nearly": (("std", 0), ("std", 2))}
