"""Finite ontological (hidden-variable) models and a certified no-go bound.

A model posits a finite space of physical states lambda. Preparing a
quantum state samples lambda from a distribution; measuring consults a
response table P(outcome | lambda, measurement). Quantum states are
epistemic exactly when distinct preparations can share lambda support:
the `overlap` of two preparation distributions, sum_lambda min(p, q), is
the fraction of runs on which the two preparations are ontologically
identical.

Two constructions anchor everything:

* the orthodox model, whose lambda IS the prepared quantum state and whose
  responses are the scenario's Born table `Scenario.born`; it reproduces
  quantum statistics exactly and has zero overlap between distinct
  preparations, and
* the shared-reality family for {|0>, |+>}: one lambda common to both
  preparations carrying weight q, plus one private lambda each.

Quantum scenarios are `measurement.Scenario`s, which derive their own
forbidden outcomes: `qubit_scenario` here, and `pbr.pbr_scenario` for the
four-outcome antidistinguishability measurement, whose pairing of
preparations with forbidden outcomes `pbr_min_violation` reads.

For the four-outcome antidistinguishability measurement on two independent
shared-reality qubits, `pbr_min_violation` computes how badly the best
possible response table must violate the quantum prediction that each
preparation's forbidden outcome never fires. The answer is certified in
closed form: a table that splits each lambda pair's row evenly over its
cheapest outcomes gives the upper bound, and the uniform dual point a
matching lower bound; no linear program is solved. Preparation
independence -- the lambda pair distribution of a product preparation is
the product of the single-system distributions -- is assumed by the
construction and asserted in tests; it is the one extra premise the
argument needs.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import CertificationError, InternalError, PreconditionError
from .hilbert import (
    QUBIT_KETS,
    _checked_count,
    _finite_real,
    _number_array,
    _readonly,
    pauli,
    record,
)
from .measurement import Scenario, tally
from .pbr import PREPARATION_IDS, _forbidden_map, pbr_scenario
from .rngs import MAX_SEED, MAX_UNIFORMS, uniform_chunks

DISTRIBUTION_TOL = 1e-12     # rows and preparation vectors must sum to 1 within this
PREDICT_SUM_TOL = 1e-11      # predicted outcome distributions must sum to 1 within this
DUALITY_GAP_TOL = 1e-6       # certification threshold for the violation bound
ONTIC_OVERLAP_TOL = 1e-12    # below this, preparations share no lambda support

SHARED_REALITY_LABELS = ("shared", "zero_only", "plus_only")


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first call.

    The package solves no linear program: `pbr_min_violation` certifies in
    closed form. The tests' LP oracle solves through this name, and
    tracers bind it, so it stays a plain module attribute that they can
    replace. scipy is needed only when it is called.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _distributions(values, what: str, size: int, table: bool = False) -> np.ndarray:
    """`values` as a read-only float array of shape (size,), or (size, k)
    for a response `table`, whose rows (a preparation is one row) are each
    a probability distribution: no entry below -DISTRIBUTION_TOL and a sum
    within DISTRIBUTION_TOL of 1. Entries are clipped at 0. Else
    PreconditionError, naming the first row that fails."""
    arr = _number_array(values, what)
    if arr.ndim != 1 + table or len(arr) != size:
        raise PreconditionError(f"{what} has shape {arr.shape}; lambda takes {size} values")
    rows = np.atleast_2d(arr)
    with np.errstate(over="ignore", invalid="ignore"):   # an inf or nan sum fails below
        sums = rows.sum(axis=1)
    negative = np.any(rows < -DISTRIBUTION_TOL, axis=1)
    bad = negative | ~(np.abs(sums - 1.0) <= DISTRIBUTION_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        name = f"{what} row {i}" if table else what
        raise PreconditionError(f"{name} has negative entries" if negative[i] else
                                f"{name} sums to {float(sums[i])!r}, expected 1 "
                                f"within {DISTRIBUTION_TOL}")
    return _readonly(np.clip(arr, 0.0, None, out=arr))


@record
class OntologicalModel:
    """Preparation distributions over the lambda `labels`, a non-empty tuple
    of distinct text labels (one string is refused, not split into
    characters), plus outcome response tables."""

    labels: tuple
    preparations: Mapping[str, np.ndarray]
    responses: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        if isinstance(self.labels, str):
            raise PreconditionError(f"lambda labels must be a sequence, got {self.labels!r}")
        labels = tuple(self.labels)
        if not all(isinstance(b, str) for b in labels):
            raise PreconditionError("lambda labels must be text")
        if not labels:
            raise PreconditionError("lambda space cannot be empty")
        if len(set(labels)) != len(labels):
            raise PreconditionError("lambda labels must be distinct")
        size = len(labels)
        preps, resps = dict(self.preparations), dict(self.responses)
        if not all(isinstance(key, str) for key in (*preps, *resps)):
            raise PreconditionError("preparation and response ids must be text")
        preps = {key: _distributions(vec, f"preparation {key!r}", size)
                 for key, vec in preps.items()}
        resps = {key: _distributions(table, f"response table {key!r}", size, table=True)
                 for key, table in resps.items()}
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "preparations", preps)
        object.__setattr__(self, "responses", resps)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.labels),
            "preparations": {k: v.tolist() for k, v in self.preparations.items()},
            "responses": {k: table.tolist() for k, table in self.responses.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OntologicalModel":
        if not isinstance(data, dict):
            raise PreconditionError("a model must be a JSON object")
        missing = {"lambda", "preparations", "responses"} - set(data)
        if missing:
            raise PreconditionError(f"missing model fields: {sorted(missing)}")
        if not isinstance(data["lambda"], list):
            raise PreconditionError(f"model 'lambda' must be a list, got {data['lambda']!r}")
        for field in ("preparations", "responses"):
            if not isinstance(data[field], dict):
                raise PreconditionError(f"model {field!r} must map ids to entries")
        return cls(
            labels=tuple(data["lambda"]),
            preparations=data["preparations"],
            responses=data["responses"],
        )


def predict(model: OntologicalModel, prep_id: str, meas_id: str) -> np.ndarray:
    """Outcome distribution the model assigns to one preparation/measurement.
    An id that is not text is unknown."""
    if not (isinstance(prep_id, str) and prep_id in model.preparations):
        raise PreconditionError(f"unknown preparation id {prep_id!r}")
    if not (isinstance(meas_id, str) and meas_id in model.responses):
        raise PreconditionError(f"unknown measurement id {meas_id!r}")
    dist = model.preparations[prep_id] @ model.responses[meas_id]
    total = float(dist.sum())
    if abs(total - 1.0) > PREDICT_SUM_TOL:
        raise InternalError(
            f"predicted distribution sums to {total!r}, expected 1 within {PREDICT_SUM_TOL}"
        )
    return dist


def overlap(model: OntologicalModel, first: str, second: str) -> dict:
    """sum_lambda min(p_first, p_second), the shared-reality fraction, as
    the record `onto` writes for the pair. An id that is not text is
    unknown."""
    for key in (first, second):
        if not (isinstance(key, str) and key in model.preparations):
            raise PreconditionError(f"unknown preparation id {key!r}")
    value = float(np.minimum(model.preparations[first], model.preparations[second]).sum())
    return {"first": first, "second": second, "variational_overlap": value,
            "shares_reality": value >= ONTIC_OVERLAP_TOL}


# ---------------------------------------------------------------------------
# quantum scenarios and the orthodox model

def qubit_scenario() -> Scenario:
    """Single-qubit z and x measurements on the four standard preparations."""
    return Scenario(
        name="qubit_zx",
        preparations={name: ket() for name, ket in QUBIT_KETS.items()},
        measurements={m: pauli(m).eigen for m in "zx"},
    )


def orthodox_model(scenario: Scenario) -> OntologicalModel:
    """Lambda is the quantum state itself: one-hot preparations, and the
    scenario's Born table `scenario.born` as the responses.

    The model reproduces quantum statistics exactly, and distinct
    preparations never share lambda support: quantum states read as ontic.
    """
    prep_ids = tuple(scenario.preparations)
    return OntologicalModel(
        labels=prep_ids,
        preparations=dict(zip(prep_ids, np.eye(len(prep_ids)))),
        responses=scenario.born,
    )


def _scenario_responses(model: OntologicalModel, scenario: Scenario,
                        meas_id: str) -> np.ndarray:
    """The model's response table for a scenario measurement, which needs
    one outcome per basis vector of that measurement."""
    if meas_id not in model.responses:
        raise PreconditionError(f"model lacks measurement {meas_id!r}")
    table = model.responses[meas_id]
    outcomes = scenario.measurements[meas_id].dim
    if table.shape[1] != outcomes:
        raise PreconditionError(
            f"response table {meas_id!r} has {table.shape[1]} outcomes; "
            f"the scenario measures {outcomes}"
        )
    return table


def born_consistency_gap(model: OntologicalModel, scenario: Scenario) -> dict:
    """{measurement id: summed total-variation distance between model
    predictions and the rows of the scenario's Born table `scenario.born`},
    for each scenario measurement the model responds to, summed over the
    scenario preparations the model defines: the `born_gaps` record `onto`
    writes.

    Summing over the discriminating preparations makes the overlap bound a
    theorem: for orthogonal quantum preparations, variational overlap never
    exceeds this gap, so a gap under 1e-9 forces overlap under 1e-9.
    """
    gaps = {}
    for meas_id, rows in scenario.born.items():
        if meas_id not in model.responses:
            continue
        _scenario_responses(model, scenario, meas_id)
        gap = 0.0
        for pid, born in zip(scenario.preparations, rows):
            if pid in model.preparations:
                gap += 0.5 * float(np.sum(np.abs(predict(model, pid, meas_id) - born)))
        gaps[meas_id] = gap
    return gaps


# ---------------------------------------------------------------------------
# the shared-reality family

def build_shared_reality_model(q: float) -> OntologicalModel:
    """Single-qubit model where |0> and |+> share one lambda with weight q.

    Lambda space: one shared value plus one private value per preparation.
    q = 1 forces the two preparations onto the same physical state on every
    run; q = 0 reduces to disjoint (ontic) supports.
    """
    if not 0.0 <= _finite_real(q, "shared weight q") <= 1.0:
        raise PreconditionError(f"shared weight q must lie in [0, 1], got {q!r}")
    return OntologicalModel(
        labels=SHARED_REALITY_LABELS,
        preparations={
            "0": np.array([q, 1.0 - q, 0.0]),
            "+": np.array([q, 0.0, 1.0 - q]),
        },
        responses={},
    )


def paired_shared_reality_model(q: float) -> OntologicalModel:
    """Two independent shared-reality qubits, with no response tables.

    Preparation independence: each product preparation's distribution over
    lambda pairs is the tensor product of the single-qubit distributions.
    """
    single = build_shared_reality_model(q)
    return OntologicalModel(
        labels=tuple(f"{a}|{b}" for a in single.labels for b in single.labels),
        preparations={pid: np.kron(single.preparations[pid[0]], single.preparations[pid[1]])
                      for pid in PREPARATION_IDS},
        responses={},
    )


# ---------------------------------------------------------------------------
# the certified minimum violation

@record
class ViolationBound:
    """Certified minimax violation of the forbidden-outcome predictions.

    The contracted metric is the worst forbidden-outcome probability over
    the four preparations; `forbidden_sum` and `forbidden_mean` report the
    same witnessing table under alternative aggregations. lower_bound is
    dual-feasible (no response table can do better), upper_bound is
    achieved by `witness`, and the two agree within `duality_gap` <=
    DUALITY_GAP_TOL. `witness` is the model the bound certifies: the two
    shared-reality qubits at q, with the witnessing table as its response
    table "xi" over the nine lambda pairs.
    """

    q: float
    lower_bound: float
    upper_bound: float
    duality_gap: float
    witness: OntologicalModel
    preparation_ids: tuple
    forbidden_outcomes: tuple
    forbidden_sum: float
    forbidden_mean: float

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "violation_lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "duality_gap": self.duality_gap,
            "forbidden_sum": self.forbidden_sum,
            "forbidden_mean": self.forbidden_mean,
            "preparations": list(self.preparation_ids),
            "forbidden_outcomes": list(self.forbidden_outcomes),
            "lambda_pairs": list(self.witness.labels),
            "witnessing_responses": dict(zip(self.witness.labels,
                                             self.witness.responses["xi"].tolist())),
        }


def _forbidden_cost(q: float) -> tuple:
    """(cost, forbidden, model) of two shared-reality qubits at q, `model`
    being `paired_shared_reality_model(q)`.

    forbidden[p] is the outcome preparation p never fires. Row k of `cost`
    holds the weights over lambda pairs of the preparation that forbids
    outcome k: what a response table pays, in that preparation's
    violation, per unit of mass it puts on outcome k in a pair's row."""
    model = paired_shared_reality_model(q)   # checks q before any other work
    pairing = _forbidden_map(pbr_scenario())
    weights = np.stack([model.preparations[p] for p in PREPARATION_IDS])
    forbidden = tuple(pairing[p] for p in PREPARATION_IDS)
    return weights[np.argsort(forbidden)], forbidden, model


def _violations(cost: np.ndarray, forbidden, table: np.ndarray) -> list:
    """Forbidden-outcome probability of each preparation under `table`."""
    return [float(cost[k] @ table[:, k]) for k in forbidden]


def _even_split(cost: np.ndarray) -> np.ndarray:
    """Witness table: each lambda-pair row splits its mass evenly over its
    cheapest outcomes (cost within 1e-15 of the column minimum)."""
    cheapest = cost <= cost.min(axis=0) + 1e-15
    return (cheapest / cheapest.sum(axis=0)).T


def pbr_min_violation(q: float) -> ViolationBound:
    """Minimum unavoidable forbidden-outcome probability at shared weight q.

    Searches all response tables for the antidistinguishability measurement
    over lambda pairs of two independent shared-reality qubits, minimizing
    the worst forbidden-outcome probability across the four preparations.
    The certificate is the uniform weighting of the preparations: no table
    can push their average violation below the sum over lambda pairs of
    each pair's cheapest outcome cost, divided by four, so that sum is the
    lower bound. The witness splits each pair's row evenly over its
    cheapest outcomes. The fully shared pair costs q^2 on all four, so each
    preparation pays q^2/4 there; every other pair misses some preparation,
    whose outcome costs nothing. So the witness meets the lower bound and
    no linear program is solved. The two bounds are still compared in
    numpy: a gap above DUALITY_GAP_TOL is reported as indeterminate
    (CertificationError), never silently rounded.
    """
    cost, forbidden, model = _forbidden_cost(q)
    table = _even_split(cost)
    violations = _violations(cost, forbidden, table)
    lower = sum(cost.min(axis=0) / len(forbidden))
    upper = max(violations)
    gap = upper - lower
    if gap > DUALITY_GAP_TOL:
        raise CertificationError(
            f"violation bound at q={q} indeterminate: duality gap {gap:.3e} exceeds "
            f"{DUALITY_GAP_TOL}"
        )
    return ViolationBound(
        q=float(q),
        lower_bound=float(lower),
        upper_bound=float(upper),
        duality_gap=float(gap),
        witness=OntologicalModel(model.labels, model.preparations, {"xi": table}),
        preparation_ids=PREPARATION_IDS,
        forbidden_outcomes=forbidden,
        forbidden_sum=float(sum(violations)),
        forbidden_mean=float(np.mean(violations)),
    )


# ---------------------------------------------------------------------------
# sampling a model

@record
class MonteCarloReport:
    """Empirical outcome tables for every (preparation, measurement) cell."""

    counts: dict
    trials: int
    seed: int
    max_forbidden_frequency: float | None

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "max_forbidden_frequency": self.max_forbidden_frequency,
            "counts": {
                prep: {meas: row.tolist() for meas, row in cells.items()}
                for prep, cells in self.counts.items()
            },
        }


def monte_carlo_onto(model: OntologicalModel, scenario: Scenario,
                     trials: int, seed: int = 0) -> MonteCarloReport:
    """Sample (lambda, outcome) `trials` times per scenario cell.

    A cell (preparation, measurement) draws lambda and the outcome k
    together, from their joint law mu(lambda) xi(k | lambda): the
    preparation's weights times lambda's response row, flattened to one
    table of |Lambda| x K entries. Cell number i reads uniforms
    0 .. trials-1 of random substream i of the master seed, one per trial,
    as one `uniform_chunks` row that `tally` walks block by block, so
    memory does not grow with `trials`; the outcome is the drawn index
    mod K. An exact zero product is never drawn, so an outcome no lambda
    of the preparation fires stays at 0. The model must define every
    preparation and measurement id the scenario names. More than
    MAX_UNIFORMS // cells trials (one uniform a trial in each of the
    scenario's preparation x measurement cells), and a seed outside the
    integer rule's range of master seeds, are rejected before any draw.
    """
    cells = len(scenario.preparations) * len(scenario.measurements)
    trials = _checked_count(trials, "trials", MAX_UNIFORMS // max(1, cells))
    seed = _checked_count(seed, "master seed", MAX_SEED)
    counts: dict = {}
    draws = (uniform_chunks(seed, cell, cell + 1, trials) for cell in range(cells))
    for prep_id in scenario.preparations:
        if prep_id not in model.preparations:
            raise PreconditionError(f"model lacks preparation {prep_id!r}")
        prep = model.preparations[prep_id]
        counts[prep_id] = {}
        for meas_id in scenario.measurements:
            table = _scenario_responses(model, scenario, meas_id)
            joint = tally((prep[:, None] * table).ravel(), next(draws))
            counts[prep_id][meas_id] = joint.reshape(table.shape).sum(axis=0)
    max_forbidden = None
    if scenario.forbidden and trials > 0:
        max_forbidden = float(max(
            counts[prep_id][meas_id][k] / trials
            for prep_id, entries in scenario.forbidden.items()
            for meas_id, k in entries
        ))
    return MonteCarloReport(
        counts=counts, trials=trials, seed=seed,
        max_forbidden_frequency=max_forbidden,
    )
