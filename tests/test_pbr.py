"""The four-outcome antidistinguishing measurement, EPR steering, and the
overlap-preservation check."""

import json
import math

import numpy as np
import pytest

import ketlab

from ketlab import (
    HermitianOperator,
    PbrCounts,
    PreconditionError,
    StateVector,
    eigendecompose,
    epr_steering,
    equal_up_to_phase,
    haar_random_unitary,
    ket_minus,
    ket_one,
    ket_plus,
    ket_zero,
    overlap_preservation_check,
    pbr_experiment,
    pbr_scenario,
    preparation_states,
    sigma_x,
    sigma_z,
    steering_table,
    substream,
)
from ketlab.errors import InternalError
from ketlab.hilbert import EigenDecomposition, canonical_phase
from ketlab.cli import main, parse_state_spec
from ketlab.measurement import born_outcomes, born_probabilities, inverse_cdf
from ketlab.pbr import (
    PREPARATION_IDS,
    SteeringSample,
    _forbidden_map,
    _singlet,
)
from ketlab.rngs import SUBSTREAM_CHUNK, SubstreamSampler, uniform_chunks
from oracles import reference_overlap_preservation_check, traced_peak

KET0 = np.array([1.0, 0.0])
KETP = np.array([1.0, 1.0]) / math.sqrt(2.0)


def raw_preparations():
    """The four product preparations built from scratch with numpy only."""
    single = {"0": KET0, "+": KETP}
    return {a + b: np.kron(single[a], single[b]) for a in "0+" for b in "0+"}


@pytest.fixture(scope="module")
def basis():
    """The antidistinguishing measurement of the PBR scenario."""
    return pbr_scenario().measurements["xi"]


@pytest.fixture(scope="module")
def forbidden_map():
    """{preparation id: forbidden outcome} as the PBR scenario derives it."""
    return _forbidden_map(pbr_scenario())


def test_basis_is_orthonormal_and_complete(basis):
    mat = basis.basis_matrix
    np.testing.assert_allclose(mat.conj().T @ mat, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(mat @ mat.conj().T, np.eye(4), atol=1e-12)


def test_forbidden_map_pairs_each_preparation_with_its_own_outcome(forbidden_map):
    assert forbidden_map == {"00": 0, "0+": 1, "+0": 2, "++": 3}


def test_each_preparation_is_orthogonal_to_its_forbidden_state(basis, forbidden_map):
    for prep_id, prep in raw_preparations().items():
        xi = basis.basis_matrix[:, forbidden_map[prep_id]]
        assert abs(np.vdot(xi, prep)) < 1e-12


def test_born_weights_for_00_preparation(basis):
    # independent of the package: raw overlaps of |00> with the four states
    prep = raw_preparations()["00"]
    probs = [abs(np.vdot(xi, prep)) ** 2 for xi in basis.basis_matrix.T]
    np.testing.assert_allclose(probs, [0.0, 0.25, 0.25, 0.5], atol=1e-12)


def test_basis_constructor_rejects_degenerate_state_list(basis):
    doubled = basis.basis_matrix[:, [0, 0, 2, 3]]
    with pytest.raises(PreconditionError):
        EigenDecomposition((1.0, 2.0, 3.0, 4.0), doubled)


def test_pbr_scenario_rejects_a_pairing_that_is_not_a_bijection(monkeypatch):
    """With all four preparations |00>, each forbids outcome 0: the derived
    pairing is no bijection, and the scenario is refused."""
    zero_zero = preparation_states()["00"]
    monkeypatch.setattr(ketlab.pbr, "preparation_states",
                        lambda: {p: zero_zero for p in PREPARATION_IDS})
    with pytest.raises(InternalError, match="not a bijection"):
        pbr_scenario()


def test_preparation_states_match_raw_construction():
    """The scenario keeps the preparations in PREPARATION_IDS order, the
    order of the rows of its Born table that `pbr_experiment` samples."""
    assert tuple(pbr_scenario().preparations) == tuple(preparation_states()) == PREPARATION_IDS
    raw = raw_preparations()
    for prep_id, state in preparation_states().items():
        np.testing.assert_allclose(state.amplitudes, raw[prep_id], atol=1e-15)


# ---------------------------------------------------------------------------
# the sampled experiment


def test_experiment_never_fires_a_forbidden_outcome(forbidden_map):
    result = pbr_experiment(20000, seed=5)
    for prep_id in ("00", "0+", "+0", "++"):
        assert result.counts[prep_id][forbidden_map[prep_id]] == 0


def test_experiment_frequencies_match_born_weights(basis):
    trials = 20000
    result = pbr_experiment(trials, seed=5)
    raw = raw_preparations()
    for prep_id, prep in raw.items():
        born = np.array([abs(np.vdot(xi, prep)) ** 2 for xi in basis.basis_matrix.T])
        for k in range(4):
            p = 0.25 * born[k]
            sigma = math.sqrt(trials * p * (1.0 - p)) if p > 0 else 0.0
            assert abs(result.counts[prep_id][k] - trials * p) <= max(5.0 * sigma, 1.0)


def test_experiment_is_reproducible_and_seed_sensitive():
    a = pbr_experiment(2000, seed=9)
    b = pbr_experiment(2000, seed=9)
    c = pbr_experiment(2000, seed=10)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_experiment_point_mass_weights_fill_one_row():
    result = pbr_experiment(500, mixture_weights=(0.0, 1.0, 0.0, 0.0), seed=2)
    totals = result.row_totals()
    assert totals == {"00": 0, "0+": 500, "+0": 0, "++": 0}


def test_experiment_replays_trial_by_trial_through_strong_measure(basis):
    """The experiment's cached-weight sampling must stay bit-identical to
    drawing each trial explicitly: one uniform picks the preparation, then
    the trial's next uniform walks the chosen state's Born outcomes, the
    walk `strong_measure` takes with its one uniform."""
    trials = 200
    result = pbr_experiment(trials, seed=3)
    preps = preparation_states()
    ids = ("00", "0+", "+0", "++")
    cdf = np.cumsum([0.25, 0.25, 0.25, 0.25])
    replay = {p: [0, 0, 0, 0] for p in ids}
    for t in range(trials):
        rng = substream(3, t)
        which = int(np.searchsorted(cdf, rng.random() * float(cdf[-1]), side="right"))
        prep_id = ids[min(which, 3)]
        _, weights, _ = born_outcomes(preps[prep_id], basis)
        replay[prep_id][int(inverse_cdf(weights, rng.random()))] += 1
    assert replay == result.counts


def reference_pbr_counts(trials, mixture_weights, seed):
    """The former per-trial loop of `pbr_experiment`, kept verbatim as the
    oracle for the array version: one substream and two walks per trial."""
    weights = np.asarray(mixture_weights, dtype=float)
    basis = pbr_scenario().measurements["xi"]
    preps = preparation_states()
    mix_cdf = [float(c) for c in np.cumsum(weights)]
    outcome_weights = {}
    outcome_totals = {}
    for p in PREPARATION_IDS:
        born = born_probabilities(preps[p], basis)
        outcome_weights[p] = [float(w) for w in born]
        outcome_totals[p] = float(born.sum())
    counts = {p: [0, 0, 0, 0] for p in PREPARATION_IDS}
    sampler = SubstreamSampler(seed)
    for t in range(trials):
        rng = sampler.select(t)
        u = rng.random() * mix_cdf[-1]
        which = 3
        for i in range(4):
            if u < mix_cdf[i]:
                which = i
                break
        prep_id = PREPARATION_IDS[which]
        row = outcome_weights[prep_id]
        u = rng.random() * outcome_totals[prep_id]
        acc = 0.0
        outcome = 3
        for i in range(4):
            acc += row[i]
            if u < acc:
                outcome = i
                break
        counts[prep_id][outcome] += 1
    return counts


def _random_mixture(seed):
    w = np.random.default_rng(seed).random(4)
    return tuple(w / w.sum())


@pytest.mark.parametrize("trials,weights,seed", [
    (3000, _random_mixture(1), 0),
    (3000, _random_mixture(2), 12345),
    (3000, _random_mixture(3), 2 ** 64 - 1),
    (3000, (0.0, 0.5, 0.0, 0.5), 4),
    (3000, (1.0, 0.0, 0.0, 0.0), 5),
    (0, (0.25, 0.25, 0.25, 0.25), 6),
    (SUBSTREAM_CHUNK + 1, _random_mixture(4), 7),
])
def test_experiment_matches_the_per_trial_reference(trials, weights, seed):
    got = pbr_experiment(trials, weights, seed=seed)
    assert got.counts == reference_pbr_counts(trials, weights, seed)
    assert all(type(c) is int for row in got.counts.values() for c in row)


def test_experiment_memory_does_not_grow_with_trials():
    """1e5 trials in blocks of SUBSTREAM_CHUNK hold under 2 MB at once."""
    assert traced_peak(lambda: pbr_experiment(100_000, seed=8)) < 2e6


def test_experiment_rejects_bad_mixture_weights():
    with pytest.raises(PreconditionError):
        pbr_experiment(10, mixture_weights=(0.5, 0.5, 0.5, -0.5))
    with pytest.raises(PreconditionError):
        pbr_experiment(10, mixture_weights=(0.3, 0.3, 0.3, 0.3))
    with pytest.raises(PreconditionError):
        pbr_experiment(10, mixture_weights=(1.0, 0.0, 0.0))
    with pytest.raises(PreconditionError):
        pbr_experiment(-1)


def test_experiment_rejects_mixture_weights_given_as_text():
    with pytest.raises(PreconditionError, match="mixture_weights must hold real numbers"):
        pbr_experiment(10, mixture_weights=("0.25",) * 4)


def test_experiment_rejects_mixture_weights_given_as_booleans():
    """True would otherwise read as weight 1 and put every trial on 00."""
    with pytest.raises(PreconditionError, match="mixture_weights must hold real numbers"):
        pbr_experiment(10, mixture_weights=(True, False, False, False))


def test_experiment_rejects_complex_mixture_weights():
    """A weight is a real number, though numpy would drop an imaginary part."""
    for weights in ((0.25 + 0j,) * 4, np.full(4, 0.25, dtype=complex)):
        with pytest.raises(PreconditionError, match="mixture_weights must hold real numbers"):
            pbr_experiment(10, mixture_weights=weights)


@pytest.mark.parametrize("trials", [True, 10.0, "10"])
def test_experiment_rejects_trial_counts_that_are_not_integers(trials):
    with pytest.raises(PreconditionError, match="trials must be an integer"):
        pbr_experiment(trials)


def test_experiment_rejects_nan_mixture_weights():
    with pytest.raises(PreconditionError):
        pbr_experiment(1000, mixture_weights=(np.nan, 0.0, 0.0, 1.0))


def test_counts_table_rejects_forbidden_hits(forbidden_map):
    rows = {"00": [1, 10, 10, 20], "0+": [10, 0, 10, 20],
            "+0": [10, 10, 0, 20], "++": [10, 10, 20, 0]}
    with pytest.raises(PreconditionError):
        PbrCounts(counts=rows, trials=161, seed=0, forbidden_map=forbidden_map)


def test_counts_table_rejects_negative_and_mismatched_totals(forbidden_map):
    good = {"00": [0, 10, 10, 20], "0+": [10, 0, 10, 20],
            "+0": [10, 10, 0, 20], "++": [10, 10, 20, 0]}
    PbrCounts(counts=good, trials=160, seed=0, forbidden_map=forbidden_map)
    with pytest.raises(PreconditionError):
        PbrCounts(counts=good, trials=161, seed=0, forbidden_map=forbidden_map)
    bad = dict(good)
    bad["00"] = [0, -1, 11, 20]
    with pytest.raises(PreconditionError):
        PbrCounts(counts=bad, trials=160, seed=0, forbidden_map=forbidden_map)
    with pytest.raises(PreconditionError):
        PbrCounts(counts={"00": [0, 10, 10, 20]}, trials=40, seed=0,
                  forbidden_map=forbidden_map)


def test_counts_json_payload(basis):
    result = pbr_experiment(100, seed=1)
    payload = result.to_json_dict()
    assert payload["trials"] == 100
    assert payload["seed"] == 1
    assert payload["preparations"] == ["00", "0+", "+0", "++"]
    assert payload["forbidden_outcome"] == {"00": 0, "0+": 1, "+0": 2, "++": 3}
    assert sum(sum(row) for row in payload["counts"].values()) == 100


# ---------------------------------------------------------------------------
# steering


def test_steering_z_outcomes_steer_bob_into_the_z_basis():
    seen = set()
    for seed in range(40):
        sample = epr_steering("z", seed)
        seen.add(sample.alice_outcome)
        target = ket_zero() if sample.alice_outcome == 1.0 else ket_one()
        assert equal_up_to_phase(sample.bob_conditional, target)
        assert sample.bob_marginal_check < 1e-12
    assert seen == {1.0, -1.0}


def test_steering_x_outcomes_steer_bob_into_the_x_basis():
    seen = set()
    for seed in range(40):
        sample = epr_steering("x", seed)
        seen.add(sample.alice_outcome)
        target = ket_minus() if sample.alice_outcome == 1.0 else ket_plus()
        assert equal_up_to_phase(sample.bob_conditional, target)
        assert sample.bob_marginal_check < 1e-12
    assert seen == {1.0, -1.0}


def test_steering_outcomes_are_unbiased():
    ups = sum(epr_steering("z", seed).alice_outcome == 1.0 for seed in range(400))
    # 5 sigma around 200 at sd = 10
    assert 150 <= ups <= 250


def _alice_observable(basis: str) -> HermitianOperator:
    if basis == "z":
        qubit_op = -sigma_z().matrix       # |1><1| - |0><0|
    elif basis == "x":
        qubit_op = sigma_x().matrix        # |+><+| - |-><-|
    else:
        raise PreconditionError(f"alice_basis must be 'z' or 'x', got {basis!r}")
    return HermitianOperator(4, np.kron(qubit_op, np.eye(2)))


def _bob_reduced(joint_amps: np.ndarray) -> np.ndarray:
    c = joint_amps.reshape(2, 2)
    return c.T @ c.conj()


def reference_steering(alice_basis, u):
    """The former `epr_steering`, kept as the oracle for the tabulated
    rounds: a full eigensolve per round, and the uniform `u` walking its
    Born outcomes as `strong_measure` walks them."""
    state = _singlet()
    op = _alice_observable(alice_basis)
    eig = eigendecompose(op)
    eigenvalues, weights, projections = born_outcomes(state, eig)
    k = int(inverse_cdf(weights, u))
    bob_rho = _bob_reduced(StateVector.normalized(projections[k]).amplitudes)
    _, vecs = np.linalg.eigh(bob_rho)
    bob_state = StateVector.normalized(canonical_phase(vecs[:, -1]))
    # exact average over outcomes, from projections rather than samples
    averaged = np.zeros((2, 2), dtype=complex)
    mat = eig.basis_matrix
    overlaps = mat.conj().T @ state.amplitudes
    for _, idx in eig.groups:
        idx = list(idx)
        projected = mat[:, idx] @ overlaps[idx]
        averaged += _bob_reduced(projected)
    deviation = averaged - np.eye(2) / 2.0
    check = float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(deviation))))
    return SteeringSample(
        alice_basis=alice_basis,
        alice_outcome=eigenvalues[k],
        bob_conditional=bob_state,
        bob_marginal_check=check,
    )


@pytest.mark.parametrize("alice_basis", ["z", "x"])
@pytest.mark.parametrize("seed", [7, 11, 12345])
def test_steering_table_matches_reference_round_by_round(alice_basis, seed):
    """Round i of a run walks the table with the first uniform of substream
    i, as `steer` does; the reference walks a fresh eigensolve with it."""
    table = steering_table(alice_basis)
    for i in range(200):
        u = substream(seed, i).random()
        k = int(inverse_cdf(table.weights, u))
        want = reference_steering(alice_basis, u)
        assert table.alice_basis == want.alice_basis
        assert table.eigenvalues[k] == want.alice_outcome
        np.testing.assert_allclose(table.bob_states[k].amplitudes,
                                   want.bob_conditional.amplitudes, rtol=0, atol=1e-12)
        assert table.bob_marginal_check == want.bob_marginal_check


def test_steering_single_round_matches_reference_from_a_master_seed():
    for seed in range(20):
        got = epr_steering("x", seed)
        want = reference_steering("x", substream(seed, 0).random())
        assert got.alice_outcome == want.alice_outcome
        np.testing.assert_allclose(got.bob_conditional.amplitudes,
                                   want.bob_conditional.amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("alice_basis", ["z", "x"])
def test_epr_steering_is_the_one_round_of_steer(tmp_path, monkeypatch, alice_basis):
    """`epr_steering(b, s)` is `ketlab steer --basis b --trials 1 --seed s`:
    the same outcome, and Bob's state to the bit, at the edge seeds too."""
    monkeypatch.chdir(tmp_path)
    seen = set()
    for seed in [*range(10), 2 ** 64 - 1, 2 ** 64, 2 ** 127 + 5, 2 ** 128 - 1]:
        sample = epr_steering(alice_basis, seed)
        argv = ["steer", "--basis", alice_basis, "--trials", "1", "--seed", str(seed)]
        assert main(argv) == 0
        ran = json.loads((tmp_path / "steer.json").read_text())["bases"][alice_basis]
        key = f"{sample.alice_outcome:+g}"
        assert ran["outcome_counts"] == {key: 1}
        assert ran["bob_states"] == {key: sample.bob_conditional.to_json_dict()}
        seen.add(key)
    assert seen == {"+1", "-1"}


def test_steering_rejects_unknown_basis():
    with pytest.raises(PreconditionError):
        epr_steering("y", 0)


# ---------------------------------------------------------------------------
# unitarity preserves overlaps


def test_overlap_preserved_by_haar_unitaries():
    ready = ket_zero()
    for k in range(25):
        u = haar_random_unitary(4, substream(99, k).random(32))
        before, after = overlap_preservation_check(u, ket_zero(), ket_plus(), ready)
        assert before == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert abs(before - after) < 1e-10


def test_overlap_check_rejects_non_unitary_matrix():
    with pytest.raises(PreconditionError):
        overlap_preservation_check(0.5 * np.eye(4), ket_zero(), ket_plus(), ket_zero())


@pytest.mark.parametrize("stack", [False, True])
def test_overlap_check_refuses_a_nan_unitary(stack):
    """A NaN entry, in one unitary or a stack, is refused by the number
    rule before the unitarity product computes with it."""
    u = np.eye(4)
    u[2, 1] = np.nan
    with pytest.raises(PreconditionError, match="^unitary must be finite$"):
        overlap_preservation_check(np.stack([np.eye(4), u]) if stack else u,
                                   ket_zero(), ket_plus(), ket_zero())


def test_overlap_check_rejects_wrong_shape():
    with pytest.raises(PreconditionError):
        overlap_preservation_check(np.eye(2), ket_zero(), ket_plus(), ket_zero())


def test_overlap_check_takes_a_unitary_of_numbers_only():
    """Text and bools would convert to matrix entries silently. Nested
    lists, a stack's included, check as their array does."""
    overlap_preservation_check(np.eye(4).tolist(), ket_zero(), ket_plus(), ket_zero())
    stack = np.eye(4)[None]
    np.testing.assert_equal(
        overlap_preservation_check(stack.tolist(), ket_zero(), ket_plus(), ket_zero()),
        overlap_preservation_check(stack, ket_zero(), ket_plus(), ket_zero()))
    for entries in (np.eye(4).astype(str), np.eye(4, dtype=bool), np.eye(4).astype(str).tolist()):
        with pytest.raises(PreconditionError, match="^unitary must hold numbers$"):
            overlap_preservation_check(entries, ket_zero(), ket_plus(), ket_zero())


def _nogo_stack(rows: int) -> np.ndarray:
    """The 4 x 4 unitaries of `nogo`'s first `rows` sweeps at seed 7, as one stack."""
    (uniforms,) = uniform_chunks(7, 0, rows, 32)
    return haar_random_unitary(4, uniforms)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("ready, first, second", [
    ("0", "0", "+"), ("0", "+", "-"), ("+", "0", "+"), ("0.3:0.2", "0.1:1.0", "-"),
])
def test_a_stack_check_gives_each_unitarys_overlaps_bit_for_bit(ready, first, second, rows):
    """Checking a stack gives the before of the one-matrix oracle and, for
    each member, the after the oracle gives for that unitary alone, to the
    bit (one `np.vdot` a unitary: a batched product moves the last bit of
    some); one unitary gives a float after, as before."""
    ready, s1, s2 = (parse_state_spec(spec) for spec in (ready, first, second))
    stack = _nogo_stack(rows)
    before, after = overlap_preservation_check(stack, s1, s2, ready)
    assert isinstance(after, np.ndarray) and after.shape == (rows,)
    assert [(before, a) for a in after.tolist()] == [
        reference_overlap_preservation_check(u, s1, s2, ready) for u in stack]
    one = overlap_preservation_check(stack[-1], s1, s2, ready)
    assert type(one[1]) is float
    assert one == reference_overlap_preservation_check(stack[-1], s1, s2, ready)


@pytest.mark.parametrize("bad", [0, 3, 6], ids=["first", "middle", "last"])
def test_a_stack_with_one_non_unitary_member_is_refused_as_that_member(bad):
    stack = _nogo_stack(7)
    stack[bad] *= 0.5
    states = (ket_zero(), ket_plus(), ket_zero())
    with pytest.raises(PreconditionError, match="^matrix is not unitary") as alone:
        reference_overlap_preservation_check(stack[bad], *states)
    with pytest.raises(PreconditionError) as stacked:
        overlap_preservation_check(stack, *states)
    assert str(stacked.value) == str(alone.value)


def test_overlap_check_refuses_a_stack_of_stacks():
    with pytest.raises(PreconditionError, match="^unitary must be 4x4, or a stack of them"):
        overlap_preservation_check(_nogo_stack(2)[None], ket_zero(), ket_plus(), ket_zero())


def test_an_empty_stack_checks_no_overlap_after():
    before, after = overlap_preservation_check(np.zeros((0, 4, 4)), ket_zero(), ket_plus(),
                                               ket_zero())
    assert before == reference_overlap_preservation_check(np.eye(4), ket_zero(), ket_plus(),
                                                          ket_zero())[0]
    assert isinstance(after, np.ndarray) and after.shape == (0,)


def test_overlap_check_rejects_mismatched_system_states():
    from ketlab import StateVector

    three = StateVector(3, np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(PreconditionError):
        overlap_preservation_check(np.eye(6), ket_zero(), three, ket_zero())
