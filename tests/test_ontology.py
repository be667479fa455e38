"""Ontological models: validation, the orthodox and shared-reality
constructions, and the certified minimum violation."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ketlab.hilbert
import ketlab.ontology
from ketlab import (
    PREPARATION_IDS,
    CertificationError,
    OntologicalModel,
    PreconditionError,
    Scenario,
    ViolationBound,
    born_consistency_gap,
    born_probabilities,
    build_shared_reality_model,
    monte_carlo_onto,
    orthodox_model,
    overlap,
    paired_shared_reality_model,
    pbr_min_violation,
    pbr_scenario,
    predict,
    qubit_scenario,
    substream,
)
from ketlab.ontology import DUALITY_GAP_TOL, ONTIC_OVERLAP_TOL
from ketlab.pbr import _forbidden_map
from oracles import traced_peak

# q**2 / 4, pinned for the values the acceptance run sweeps
EXPECTED_MIN_VIOLATION = {
    0.0: 0.0,
    0.25: 0.015625,
    0.5: 0.0625,
    0.75: 0.140625,
    1.0: 0.25,
}


def test_lambda_space_rejects_empty_and_duplicate_labels():
    with pytest.raises(PreconditionError, match="lambda space cannot be empty"):
        OntologicalModel((), {}, {})
    with pytest.raises(PreconditionError, match="lambda labels must be distinct"):
        OntologicalModel(("a", "b", "a"), {}, {})
    with pytest.raises(PreconditionError, match="lambda labels must be text"):
        OntologicalModel(("a", 1), {}, {})   # not converted to "1"
    assert OntologicalModel(["a", "b"], {}, {}).labels == ("a", "b")


def test_lambda_labels_given_as_one_string_are_refused():
    """One string is one label's worth of text, not a sequence of one-letter
    labels, so it is refused before the labels are read."""
    for labels in ("ab", "a", ""):
        with pytest.raises(PreconditionError, match="lambda labels must be a sequence"):
            OntologicalModel(labels, {"p": [0.5, 0.5]}, {})


def test_model_rejects_malformed_distributions():
    space = ("a", "b")
    with pytest.raises(PreconditionError):
        OntologicalModel(space, {"p": [0.7, 0.7]}, {})
    with pytest.raises(PreconditionError):
        OntologicalModel(space, {"p": [1.2, -0.2]}, {})
    with pytest.raises(PreconditionError):
        OntologicalModel(space, {"p": [1.0, 0.0, 0.0]}, {})


def test_model_rejects_malformed_response_tables():
    space = ("a", "b")
    prep = {"p": [0.5, 0.5]}
    with pytest.raises(PreconditionError):
        OntologicalModel(space, prep, {"m": [[0.5, 0.5]]})  # one row for two lambdas
    with pytest.raises(PreconditionError):
        OntologicalModel(space, prep, {"m": [[0.5, 0.4], [0.5, 0.5]]})
    with pytest.raises(PreconditionError):
        OntologicalModel(space, prep, {"m": [0.5, 0.5]})  # not a table


@pytest.mark.parametrize("preparations,responses", [
    ({0: [1.0, 0.0], "0": [0.0, 1.0]}, {}),     # str() would fold these into one
    ({"p": [0.5, 0.5]}, {None: [[1.0], [1.0]]}),
    ({("p",): [0.5, 0.5]}, {}),
])
def test_model_ids_must_be_text(preparations, responses):
    with pytest.raises(PreconditionError, match="ids must be text"):
        OntologicalModel(("a", "b"), preparations, responses)


@pytest.mark.parametrize("rows,message", [
    ([[1.0, 0.0], [0.5, 0.5], [0.7, 0.7]], "response table 'm' row 2 sums to 1.4"),
    ([[1.0, 0.0], [1.5, -0.5], [0.7, 0.7]], "response table 'm' row 1 has negative entries"),
])
def test_a_bad_response_row_is_named_by_its_index(rows, message):
    with pytest.raises(PreconditionError, match=message):
        OntologicalModel(("a", "b", "c"), {"p": [1.0, 0.0, 0.0]}, {"m": rows})


def test_model_rejects_nan_distributions():
    space = ("a", "b")
    with pytest.raises(PreconditionError):
        OntologicalModel(space, {"p": [np.nan, 1.0]}, {})
    with pytest.raises(PreconditionError):
        OntologicalModel(space, {"p": [0.5, 0.5]}, {"m": [[np.nan, 1.0], [0.5, 0.5]]})


@pytest.mark.parametrize("data", [
    [1, 2],
    {"lambda": 3, "preparations": {}, "responses": {}},
    {"lambda": ["a"], "preparations": [], "responses": {}},
    {"lambda": ["a"], "preparations": {"p": ["x"]}, "responses": {}},
    {"lambda": ["a"], "preparations": {}, "responses": {"m": [[1.0], ["x"]]}},
])
def test_model_json_rejects_malformed_fields(data):
    with pytest.raises(PreconditionError):
        OntologicalModel.from_json_dict(data)


def test_scenario_measurements_need_one_outcome_per_basis_vector():
    scenario = qubit_scenario()
    model = OntologicalModel(("a",), {"0": [1.0]}, {"z": [[0.5, 0.25, 0.25]]})
    with pytest.raises(PreconditionError, match="3 outcomes"):
        born_consistency_gap(model, scenario)
    with pytest.raises(PreconditionError, match="3 outcomes"):
        monte_carlo_onto(model, scenario, 10)


def test_model_json_round_trip():
    model = OntologicalModel(
        ("a", "b"),
        {"p": [0.25, 0.75]},
        {"m": [[1.0, 0.0], [0.25, 0.75]]},
    )
    again = OntologicalModel.from_json_dict(model.to_json_dict())
    assert again.labels == ("a", "b")
    np.testing.assert_allclose(predict(again, "p", "m"), predict(model, "p", "m"))
    with pytest.raises(PreconditionError):
        OntologicalModel.from_json_dict({"lambda": ["a"]})


def test_predict_rejects_unknown_ids():
    model = orthodox_model(qubit_scenario())
    with pytest.raises(PreconditionError):
        predict(model, "nope", "z")
    with pytest.raises(PreconditionError):
        predict(model, "0", "nope")


@pytest.mark.parametrize("prep_id,meas_id,message", [
    (["0"], "z", "unknown preparation id ['0']"),
    (0, "z", "unknown preparation id 0"),
    (None, "z", "unknown preparation id None"),
    ("0", {}, "unknown measurement id {}"),
    ("0", ("z",), "unknown measurement id ('z',)"),
])
def test_predict_refuses_ids_that_are_not_text(prep_id, meas_id, message):
    model = orthodox_model(qubit_scenario())
    with pytest.raises(PreconditionError, match="^" + re.escape(message) + "$"):
        predict(model, prep_id, meas_id)


@pytest.mark.parametrize("scenario_factory", [qubit_scenario, pbr_scenario])
def test_orthodox_model_reproduces_born_exactly(scenario_factory):
    scenario = scenario_factory()
    model = orthodox_model(scenario)
    for prep_id, state in scenario.preparations.items():
        for meas_id, basis in scenario.measurements.items():
            np.testing.assert_allclose(
                predict(model, prep_id, meas_id),
                born_probabilities(state, basis),
                atol=1e-12,
            )


def test_overlap_rejects_unknown_ids():
    model = orthodox_model(qubit_scenario())
    for first, second in (("nope", "0"), ("0", "nope")):
        with pytest.raises(PreconditionError, match="^unknown preparation id 'nope'$"):
            overlap(model, first, second)


@pytest.mark.parametrize("first,second,message", [
    (["0"], "1", "unknown preparation id ['0']"),
    ("0", {"1": 1}, "unknown preparation id {'1': 1}"),
    ("0", 1, "unknown preparation id 1"),
])
def test_overlap_refuses_ids_that_are_not_text(first, second, message):
    model = orthodox_model(qubit_scenario())
    with pytest.raises(PreconditionError, match="^" + re.escape(message) + "$"):
        overlap(model, first, second)


def test_orthodox_preparations_never_share_reality():
    model = orthodox_model(qubit_scenario())
    ids = list(model.preparations)
    for i, first in enumerate(ids):
        for second in ids[i + 1:]:
            report = overlap(model, first, second)
            assert report["variational_overlap"] == 0.0
            assert not report["shares_reality"]


def test_born_consistency_gap_is_zero_for_orthodox():
    scenario = pbr_scenario()
    gaps = born_consistency_gap(orthodox_model(scenario), scenario)
    assert list(gaps) == ["xi"]
    assert gaps["xi"] < 1e-15


def test_born_gaps_cover_only_the_preparations_the_model_defines():
    """A model of "0" and "1" alone, plus an id the scenario lacks, gets
    one gap per measurement it responds to, over its own preparations:
    "0" fires its Born outcome and "1" always the other one."""
    scenario = qubit_scenario()
    model = OntologicalModel(("a", "b"), {"0": [1.0, 0.0], "1": [1.0, 0.0], "q": [0.0, 1.0]},
                             {"z": [[0.0, 1.0], [1.0, 0.0]]})
    gaps = born_consistency_gap(model, scenario)
    assert list(gaps) == ["z"]
    assert gaps["z"] == pytest.approx(1.0, abs=1e-15)
    assert born_consistency_gap(OntologicalModel(("a",), {}, {"x": [[0.5, 0.5]]}),
                                scenario) == {"x": 0.0}


def test_born_consistency_gap_flags_a_flat_response_model():
    scenario = pbr_scenario()
    paired = paired_shared_reality_model(0.5)
    flat = OntologicalModel(paired.labels, paired.preparations, {"xi": np.full((9, 4), 0.25)})
    assert born_consistency_gap(flat, scenario)["xi"] > 0.1


# ---------------------------------------------------------------------------
# the shared-reality family


@given(q=st.floats(min_value=0.0, max_value=1.0))
@example(q=ONTIC_OVERLAP_TOL)   # an overlap at the tolerance shares reality
def test_shared_reality_overlap_equals_q(q):
    model = build_shared_reality_model(q)
    report = overlap(model, "0", "+")
    assert report["variational_overlap"] == pytest.approx(q, abs=1e-12)
    assert report["shares_reality"] == (q >= 1e-12)


def test_shared_reality_rejects_weight_outside_unit_interval():
    with pytest.raises(PreconditionError):
        build_shared_reality_model(-0.1)
    with pytest.raises(PreconditionError):
        build_shared_reality_model(1.1)


def test_paired_model_obeys_preparation_independence():
    q = 0.6
    single = build_shared_reality_model(q)
    paired = paired_shared_reality_model(q)
    assert len(paired.labels) == 9
    assert paired.labels[0] == "shared|shared"
    marginals = {"0": single.preparations["0"], "+": single.preparations["+"]}
    for pid in PREPARATION_IDS:
        np.testing.assert_allclose(
            paired.preparations[pid],
            np.kron(marginals[pid[0]], marginals[pid[1]]),
            atol=1e-15,
        )


def test_paired_model_structure_pins_the_bound():
    """Cross-check the q^2/4 shape by hand: every preparation puts weight
    q^2 on the fully shared lambda pair, and every other pair is invisible
    to at least one preparation, whose forbidden outcome is then a free
    dump for that row's response mass."""
    q = 0.3
    paired = paired_shared_reality_model(q)
    weights = np.stack([paired.preparations[p] for p in PREPARATION_IDS])
    shared_col = paired.labels.index("shared|shared")
    np.testing.assert_allclose(weights[:, shared_col], q * q, atol=1e-15)
    for col in range(9):
        if col == shared_col:
            continue
        assert weights[:, col].min() < 1e-15


# ---------------------------------------------------------------------------
# the certified bound


@pytest.mark.parametrize("q,expected", sorted(EXPECTED_MIN_VIOLATION.items()))
def test_min_violation_is_a_quarter_q_squared(q, expected):
    bound = pbr_min_violation(q)
    assert bound.upper_bound == pytest.approx(expected, abs=1e-9)
    assert bound.lower_bound == pytest.approx(expected, abs=1e-9)
    assert bound.lower_bound <= bound.upper_bound + 1e-15
    assert bound.duality_gap <= 1e-6


@given(q=st.floats(min_value=0.0, max_value=1.0))
def test_min_violation_certifies_at_arbitrary_q(q):
    bound = pbr_min_violation(q)
    assert bound.upper_bound == pytest.approx(q * q / 4.0, abs=1e-9)
    assert bound.duality_gap <= 1e-6


def test_min_violation_witness_achieves_the_bound():
    bound = pbr_min_violation(0.75)
    model = bound.witness
    forbidden = dict(zip(bound.preparation_ids, bound.forbidden_outcomes))
    worst = max(
        predict(model, pid, "xi")[forbidden[pid]] for pid in bound.preparation_ids
    )
    assert worst == pytest.approx(bound.upper_bound, abs=1e-12)
    assert worst >= 0.75**2 / 4.0 - 1e-12


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
def test_the_witness_is_the_paired_model_with_its_even_split_table(q):
    """The bound carries the model it certifies: the paired shared-reality
    model at q, whose one response table "xi" is the witnessing table
    that the payload writes under the nine lambda pairs."""
    bound = pbr_min_violation(q)
    paired = paired_shared_reality_model(q)
    assert bound.witness.labels == paired.labels
    assert list(bound.witness.preparations) == list(PREPARATION_IDS)
    for pid in PREPARATION_IDS:
        np.testing.assert_array_equal(bound.witness.preparations[pid], paired.preparations[pid])
    assert list(bound.witness.responses) == ["xi"]
    payload = bound.to_json_dict()
    assert payload["lambda_pairs"] == list(paired.labels)
    assert list(payload["witnessing_responses"].values()) == bound.witness.responses["xi"].tolist()


def test_min_violation_aggregations_are_consistent():
    bound = pbr_min_violation(1.0)
    assert bound.forbidden_mean == pytest.approx(bound.forbidden_sum / 4.0, abs=1e-15)
    assert bound.upper_bound >= bound.forbidden_mean - 1e-15


def test_min_violation_json_payload():
    payload = pbr_min_violation(0.5).to_json_dict()
    assert payload["q"] == 0.5
    assert payload["violation_lower_bound"] == pytest.approx(0.0625, abs=1e-9)
    assert payload["upper_bound"] == pytest.approx(0.0625, abs=1e-9)
    assert payload["preparations"] == list(PREPARATION_IDS)
    assert sorted(payload["forbidden_outcomes"]) == [0, 1, 2, 3]
    assert len(payload["witnessing_responses"]) == 9
    for row in payload["witnessing_responses"].values():
        assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_min_violation_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        pbr_min_violation(-0.5)


def test_min_violation_reports_indeterminate_instead_of_guessing(monkeypatch):
    """A witness that misses the lower bound must surface as an explicit
    certification failure, not be rounded into a result."""
    def all_on_first_outcome(cost):
        return np.eye(cost.shape[0])[np.zeros(cost.shape[1], dtype=int)]

    monkeypatch.setattr(ketlab.ontology, "_even_split", all_on_first_outcome)
    with pytest.raises(CertificationError, match="indeterminate"):
        pbr_min_violation(1.0)


def test_default_resolution_certifies_without_the_solver(monkeypatch):
    """The even-split witness and the uniform dual point close the gap
    exactly, so no linear program is ever solved."""
    def forbidden(*args, **kwargs):
        pytest.fail("linprog was called although the closed-form certificate closes")

    monkeypatch.setattr(ketlab.ontology, "linprog", forbidden)
    for q in np.linspace(0.0, 1.0, 201):
        bound = pbr_min_violation(float(q))
        assert bound.duality_gap == 0.0
        assert bound.upper_bound == pytest.approx(q * q / 4.0, abs=1e-12)


def preparation_weights(q):
    """(weights, forbidden): row p holds preparation p's weights over the
    lambda pairs, and forbidden[p] is the outcome it never fires."""
    model = paired_shared_reality_model(q)
    weights = np.stack([model.preparations[p] for p in PREPARATION_IDS])
    pairing = _forbidden_map(pbr_scenario())
    return weights, tuple(pairing[p] for p in PREPARATION_IDS)


def solve_minimax_lp(weights, forbidden):
    """The exact minimax LP, solved through `ketlab.ontology.linprog`:
    minimize t subject to each preparation's forbidden-outcome probability
    <= t, every table row a distribution. Variables: t, then the table
    row-major."""
    n_out, n_pairs = weights.shape
    n_vars = 1 + n_pairs * n_out
    c = np.zeros(n_vars)
    c[0] = 1.0
    a_ub = np.zeros((n_out, n_vars))
    for p in range(n_out):
        a_ub[p, 0] = -1.0
        for pair in range(n_pairs):
            a_ub[p, 1 + pair * n_out + forbidden[p]] = weights[p, pair]
    a_eq = np.zeros((n_pairs, n_vars))
    for pair in range(n_pairs):
        a_eq[pair, 1 + pair * n_out: 1 + (pair + 1) * n_out] = 1.0
    return ketlab.ontology.linprog(c, A_ub=a_ub, b_ub=np.zeros(n_out), A_eq=a_eq,
                                   b_eq=np.ones(n_pairs), bounds=[(0.0, 1.0)] * n_vars,
                                   method="highs")


def lp_table(res, n_pairs, n_out):
    """The LP solution's response table, clipped and renormalized."""
    table = np.clip(res.x[1:].reshape(n_pairs, n_out), 0.0, None)
    return table / table.sum(axis=1, keepdims=True)


def test_even_split_equals_the_lp_optimum():
    """No response table beats the even split: the exact LP optimum, and the
    worst violation of the LP's own table, both meet it."""
    for q in np.linspace(0.0, 1.0, 41):
        bound = pbr_min_violation(float(q))
        weights, forbidden = preparation_weights(float(q))
        res = solve_minimax_lp(weights, forbidden)
        assert res.success, res.message
        assert res.fun == pytest.approx(bound.upper_bound, abs=1e-12), q
        table = lp_table(res, weights.shape[1], len(forbidden))
        lp_worst = max(weights[p] @ table[:, k] for p, k in enumerate(forbidden))
        assert lp_worst >= bound.upper_bound - 1e-15, q


def reference_min_violation(q, resolution=8):
    """The former `pbr_min_violation`, a simplex grid of `resolution` points
    per row with per-pair loops, an LP re-table and a second lower bound
    from the LP's dual weights, kept as the oracle."""
    weights, forbidden = preparation_weights(q)
    paired = paired_shared_reality_model(q)
    n_pairs, n_out = weights.shape[1], len(forbidden)
    prep_of_outcome = {forbidden[p]: p for p in range(n_out)}

    def max_violation(responses):
        return max(float(weights[p] @ responses[:, forbidden[p]]) for p in range(n_out))

    def dual_lower_bound(mu):
        total = 0.0
        for pair in range(n_pairs):
            total += min(mu[prep_of_outcome[k]] * weights[prep_of_outcome[k], pair]
                         for k in range(n_out))
        return total

    candidate = np.zeros((n_pairs, n_out))
    for pair in range(n_pairs):
        cost = np.array([weights[prep_of_outcome[k], pair] for k in range(n_out)])
        support = np.flatnonzero(cost <= cost.min() + 1e-15)
        counts = np.zeros(n_out, dtype=int)
        base, extra = divmod(resolution, len(support))
        counts[support] = base
        counts[support[:extra]] += 1
        candidate[pair] = counts / resolution
    upper = max_violation(candidate)
    lower = dual_lower_bound(np.full(n_out, 1.0 / n_out))

    if upper - lower > DUALITY_GAP_TOL:
        res = solve_minimax_lp(weights, forbidden)
        if res.success:
            refined = lp_table(res, n_pairs, n_out)
            refined_upper = max_violation(refined)
            if refined_upper < upper:
                candidate, upper = refined, refined_upper
            raw = np.clip(-np.asarray(res.ineqlin.marginals, dtype=float), 0.0, None)
            if raw.sum() > 1e-12:
                lower = max(lower, dual_lower_bound(raw / raw.sum()))

    gap = upper - lower
    if gap > DUALITY_GAP_TOL:
        raise CertificationError(f"duality gap {gap:.3e}")
    return ViolationBound(
        q=float(q),
        lower_bound=float(lower),
        upper_bound=float(upper),
        duality_gap=float(gap),
        witness=OntologicalModel(paired.labels, paired.preparations, {"xi": candidate}),
        preparation_ids=PREPARATION_IDS,
        forbidden_outcomes=forbidden,
        forbidden_sum=float(sum(
            weights[p] @ candidate[:, forbidden[p]] for p in range(n_out)
        )),
        forbidden_mean=float(np.mean([
            weights[p] @ candidate[:, forbidden[p]] for p in range(n_out)
        ])),
    )


# q values for the oracle comparison: the ends, the smallest subnormal and
# the largest double below 1, dyadic and decimal points, values whose
# shared-row cost falls below DUALITY_GAP_TOL or the 1e-15 tie tolerance,
# and points between
ORACLE_QS = sorted({*np.linspace(0.0, 1.0, 201), 5e-324, 1e-300, 1e-16, 1e-8, 1e-4,
                    3e-4, 1e-3, 3e-3, 0.1234, 0.3333333333333333, 0.61803398875,
                    0.8765, 0.99, 0.999999, 1.0 - 1e-16})


def test_min_violation_matches_the_reference_exactly():
    """Against the former grid at resolution 8: every scalar bit for bit,
    and every table row alike except rows with three tied cheapest
    outcomes, which the grid split 3/8, 3/8, 2/8 and the witness splits
    1/3 each. Those three outcomes cost nothing, so no scalar moves."""
    three_tie_rows = 0
    for q in ORACLE_QS:
        got = pbr_min_violation(float(q))
        want = reference_min_violation(float(q))
        got_json, want_json = got.to_json_dict(), want.to_json_dict()
        got_rows = got_json.pop("witnessing_responses")
        want_rows = want_json.pop("witnessing_responses")
        assert got_json == want_json, q
        assert list(got_rows) == list(want_rows)
        for label, row in got_rows.items():
            if row == want_rows[label]:
                continue
            ties = [k for k, x in enumerate(row) if x > 0]
            assert len(ties) == 3, (q, label, row)
            assert row == [1 / 3 if k in ties else 0.0 for k in range(4)], (q, label)
            assert sorted(want_rows[label][k] for k in ties) == [0.25, 0.375, 0.375]
            three_tie_rows += 1
    assert three_tie_rows > 0


# ---------------------------------------------------------------------------
# scenario bookkeeping and sampling


def test_qubit_scenario_forbidden_outcomes():
    scenario = qubit_scenario()
    assert scenario.forbidden == {
        "0": (("z", 0),),
        "1": (("z", 1),),
        "+": (("x", 0),),
        "-": (("x", 1),),
    }


def test_pbr_scenario_forbidden_matches_basis():
    scenario = pbr_scenario()
    assert scenario.forbidden == {
        "00": (("xi", 0),),
        "0+": (("xi", 1),),
        "+0": (("xi", 2),),
        "++": (("xi", 3),),
    }


def test_monte_carlo_matches_born_for_orthodox():
    scenario = qubit_scenario()
    model = orthodox_model(scenario)
    trials = 20000
    report = monte_carlo_onto(model, scenario, trials, seed=4)
    assert report.max_forbidden_frequency == 0.0
    for prep_id, state in scenario.preparations.items():
        for meas_id, basis in scenario.measurements.items():
            born = born_probabilities(state, basis)
            for k, p in enumerate(born):
                sigma = math.sqrt(trials * p * (1.0 - p))
                got = report.counts[prep_id][meas_id][k]
                assert abs(got - trials * p) <= max(5.0 * sigma, 1.0)


def test_monte_carlo_detects_the_unavoidable_violation():
    report = monte_carlo_onto(pbr_min_violation(1.0).witness, pbr_scenario(), 20000, seed=6)
    # every preparation is forced onto the shared pair, whose row spreads
    # mass 1/4 onto each forbidden outcome
    assert report.max_forbidden_frequency == pytest.approx(0.25, abs=0.016)


def test_monte_carlo_is_reproducible():
    scenario = qubit_scenario()
    model = orthodox_model(scenario)
    a = monte_carlo_onto(model, scenario, 500, seed=11)
    b = monte_carlo_onto(model, scenario, 500, seed=11)
    for prep_id in scenario.preparations:
        for meas_id in scenario.measurements:
            np.testing.assert_array_equal(
                a.counts[prep_id][meas_id], b.counts[prep_id][meas_id]
            )


def reference_monte_carlo_counts(model, scenario, trials, seed):
    """A per-trial joint walk, kept as an oracle: trial t of cell i reads
    uniform t of numpy's own substream i, and counts the cumulative
    weights of the flattened (lambda, outcome) table mu(lambda) xi(k | lambda)
    at or below u times the total; the outcome is that index mod K."""
    counts = {}
    cell = 0
    for prep_id in scenario.preparations:
        counts[prep_id] = {}
        for meas_id in scenario.measurements:
            table = model.responses[meas_id]
            uniforms = substream(seed, cell).random(trials)
            cell += 1
            cdf = np.cumsum(model.preparations[prep_id][:, None] * table)
            index = np.sum(cdf <= uniforms[:, None] * cdf[-1], axis=1)
            index = np.minimum(index, cdf.size - 1)
            counts[prep_id][meas_id] = np.bincount(index % table.shape[1],
                                                   minlength=table.shape[1])
    return counts


def random_model(scenario, rng):
    size = int(rng.integers(1, 7))
    return OntologicalModel(
        tuple(f"l{i}" for i in range(size)),
        {p: rng.dirichlet(np.full(size, 0.5)) for p in scenario.preparations},
        {m: rng.dirichlet(np.full(basis.dim, 0.5), size=size)
         for m, basis in scenario.measurements.items()},
    )


def test_monte_carlo_counts_equal_the_former_walk_cell_for_cell():
    """Against `reference_monte_carlo_counts`, the per-trial joint walk:
    the orthodox qubit and pbr models, the paired model at four q and 20
    random models, each at three seeds, with 3000 trials per cell."""
    rng = np.random.default_rng(5)
    cases = [(orthodox_model(s), s) for s in (qubit_scenario(), pbr_scenario())]
    for q in (0.0, 0.3, 0.7, 1.0):
        cases.append((pbr_min_violation(q).witness, pbr_scenario()))
    for _ in range(10):
        for scenario in (qubit_scenario(), pbr_scenario()):
            cases.append((random_model(scenario, rng), scenario))
    for model, scenario in cases:
        for seed in (0, 7, 12345):
            got = monte_carlo_onto(model, scenario, 3000, seed=seed).counts
            want = reference_monte_carlo_counts(model, scenario, 3000, seed)
            for prep_id in scenario.preparations:
                for meas_id in scenario.measurements:
                    np.testing.assert_array_equal(got[prep_id][meas_id],
                                                  want[prep_id][meas_id])


@pytest.mark.parametrize("trials", [0, 1, 3, 4, 5, 8, 9, 3001])
def test_monte_carlo_blocks_equal_the_former_walk_at_every_edge(monkeypatch, trials):
    """Kernel passes of eight uniforms, so a cell's run crosses pass and
    Philox block edges, or ends on one, against the per-trial joint walk
    of `reference_monte_carlo_counts`."""
    monkeypatch.setattr(ketlab.rngs, "SUBSTREAM_CHUNK", 8)
    cases = [(orthodox_model(qubit_scenario()), qubit_scenario()),
             (pbr_min_violation(0.7).witness, pbr_scenario())]
    for model, scenario in cases:
        for seed in (0, 2 ** 64 + 9):
            got = monte_carlo_onto(model, scenario, trials, seed=seed).counts
            want = reference_monte_carlo_counts(model, scenario, trials, seed)
            for prep_id in scenario.preparations:
                for meas_id in scenario.measurements:
                    np.testing.assert_array_equal(got[prep_id][meas_id],
                                                  want[prep_id][meas_id])


def test_monte_carlo_memory_does_not_grow_with_trials():
    """At 2**20 trials a cell the four cells of PBR's scenario hold under
    2 MB at once: a whole run of 2**20 uniforms would take 8 MiB."""
    model = pbr_min_violation(0.5).witness
    scenario = pbr_scenario()
    trials = 2 ** 20
    assert traced_peak(lambda: monte_carlo_onto(model, scenario, trials, seed=4)) < 2e6


def test_monte_carlo_rejects_models_missing_scenario_ids():
    scenario = qubit_scenario()
    bare = build_shared_reality_model(0.5)  # lacks "1", "-", and every response
    with pytest.raises(PreconditionError):
        monte_carlo_onto(bare, scenario, 10)


@pytest.mark.parametrize("q", ["0.5", True, None, math.nan])
def test_shared_weights_that_are_not_finite_numbers_are_rejected(q):
    with pytest.raises(PreconditionError, match="shared weight q"):
        pbr_min_violation(q)
    with pytest.raises(PreconditionError, match="shared weight q"):
        build_shared_reality_model(q)


@pytest.mark.parametrize("trials", [10.5, 10.0, True, "10"])
def test_monte_carlo_trial_counts_must_be_integers(trials):
    scenario = qubit_scenario()
    with pytest.raises(PreconditionError, match="trials must be an integer"):
        monte_carlo_onto(orthodox_model(scenario), scenario, trials)


@pytest.mark.parametrize("seed", ["x", "7", 7.0, True, None, -1, 2 ** 128])
def test_monte_carlo_checks_its_seed_before_any_work(monkeypatch, seed):
    """A seed outside the integer rule is refused even when no cell would
    draw, and before any draw when cells would."""
    def no_draws(*args, **kwargs):
        raise AssertionError("a substream was drawn for a bad seed")

    monkeypatch.setattr(ketlab.ontology, "uniform_chunks", no_draws)
    scenario = qubit_scenario()
    message = f"master seed must be an integer in [0, {2 ** 128 - 1}], got {seed!r}"
    model = orthodox_model(scenario)
    for cells in (Scenario("e", {}, {}), scenario):
        with pytest.raises(PreconditionError, match="^" + re.escape(message) + "$"):
            monte_carlo_onto(model, cells, 5, seed=seed)


def test_monte_carlo_over_the_trial_cap_is_rejected_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a substream was drawn for an over-large run")

    monkeypatch.setattr(ketlab.ontology, "uniform_chunks", no_draws)
    scenario = qubit_scenario()     # eight cells of one uniform a trial each
    trials = 2 ** 22 + 1
    message = f"trials must be an integer in [0, {2 ** 22}], got {trials}"
    with pytest.raises(PreconditionError, match=re.escape(message) + "$"):
        monte_carlo_onto(orthodox_model(scenario), scenario, trials)


def test_monte_carlo_never_draws_a_zero_weight_cell_at_a_boundary_uniform(monkeypatch):
    """Each cell's two uniforms are patched to 0 and 0.5, which land exactly
    on cumulative weights of the orthodox qubit model's joint tables: the
    walk passes a cumulative weight it reaches, so neither draws a
    zero-weight entry, no preparation fires its forbidden outcome, and |+>
    on z reads one of each outcome."""
    def boundary_uniforms(seed, start, stop, last):
        yield np.array([[0.0, 0.5]])

    monkeypatch.setattr(ketlab.ontology, "uniform_chunks", boundary_uniforms)
    scenario = qubit_scenario()
    report = monte_carlo_onto(orthodox_model(scenario), scenario, 2)
    assert report.max_forbidden_frequency == 0.0
    assert {p: {m: row.tolist() for m, row in cells.items()}
            for p, cells in report.counts.items()} == {
        "0": {"z": [0, 2], "x": [1, 1]}, "1": {"z": [2, 0], "x": [1, 1]},
        "+": {"z": [1, 1], "x": [0, 2]}, "-": {"z": [1, 1], "x": [2, 0]},
    }


def test_monte_carlo_zero_trials_yields_no_frequency():
    scenario = qubit_scenario()
    model = orthodox_model(scenario)
    report = monte_carlo_onto(model, scenario, 0)
    assert report.max_forbidden_frequency is None
    assert all(
        int(report.counts[p][m].sum()) == 0
        for p in scenario.preparations for m in scenario.measurements
    )
    with pytest.raises(PreconditionError):
        monte_carlo_onto(model, scenario, -1)


def test_monte_carlo_json_payload():
    scenario = qubit_scenario()
    model = orthodox_model(scenario)
    payload = monte_carlo_onto(model, scenario, 100, seed=2).to_json_dict()
    assert payload["trials"] == 100
    assert payload["seed"] == 2
    assert payload["max_forbidden_frequency"] == 0.0
    assert set(payload["counts"]) == {"0", "1", "+", "-"}
    assert sum(payload["counts"]["0"]["z"]) == 100


def test_the_qubit_scenario_shares_the_paulis_eigenbases(monkeypatch):
    solved = []
    solve = ketlab.hilbert.eigendecompose

    def counted(op):
        solved.append(op)
        return solve(op)

    monkeypatch.setattr(ketlab.hilbert, "eigendecompose", counted)
    for _ in range(2):
        scenario = qubit_scenario()
        for m in "zx":
            assert scenario.measurements[m] is ketlab.hilbert.pauli(m).eigen
    assert tuple(scenario.preparations) == ("0", "1", "+", "-")
    assert len(solved) <= 2
