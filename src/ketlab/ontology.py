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
  responses are Born probabilities; it reproduces quantum statistics
  exactly and has zero overlap between distinct preparations, and
* the shared-reality family for {|0>, |+>}: one lambda common to both
  preparations carrying weight q, plus one private lambda each.

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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CertificationError, InternalError, PreconditionError
from .hilbert import (
    EigenDecomposition,
    StateVector,
    eigendecompose,
    ket_minus,
    ket_one,
    ket_plus,
    ket_zero,
    sigma_x,
    sigma_z,
)
from .measurement import born_probabilities, inverse_cdf
from .pbr import PREPARATION_IDS, pbr_basis, preparation_states
from .rngs import substream

DISTRIBUTION_TOL = 1e-12     # rows and preparation vectors must sum to 1 within this
PREDICT_SUM_TOL = 1e-11      # predicted outcome distributions must sum to 1 within this
DUALITY_GAP_TOL = 1e-6       # certification threshold for the violation bound
MAX_MC_TRIALS = 2 ** 20      # Monte Carlo trials per scenario cell (~53 bytes each)
ONTIC_OVERLAP_TOL = 1e-12    # below this, preparations share no lambda support
FORBIDDEN_BORN_TOL = 1e-12   # Born weight counting as a forbidden outcome

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


def _as_real_array(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:   # OverflowError: ints past 1e308
        raise PreconditionError(f"{what} must hold real numbers, got {value!r}") from exc


def _check_distribution(vec: np.ndarray, what: str) -> np.ndarray:
    arr = _as_real_array(vec, what).reshape(-1)
    if np.any(arr < -DISTRIBUTION_TOL):
        raise PreconditionError(f"{what} has negative entries")
    if not abs(float(arr.sum()) - 1.0) <= DISTRIBUTION_TOL:
        raise PreconditionError(
            f"{what} sums to {float(arr.sum())!r}, expected 1 within {DISTRIBUTION_TOL}"
        )
    arr = np.clip(arr, 0.0, None)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LambdaSpace:
    """Finite set of candidate physical states."""

    labels: tuple

    def __post_init__(self) -> None:
        labels = tuple(str(b) for b in self.labels)
        if not labels:
            raise PreconditionError("lambda space cannot be empty")
        if len(set(labels)) != len(labels):
            raise PreconditionError("lambda labels must be distinct")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class OntologicalModel:
    """Preparation distributions over lambda plus outcome response tables."""

    lambda_space: LambdaSpace
    preparations: Mapping[str, np.ndarray]
    responses: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        size = self.lambda_space.size
        preps = {}
        for key, vec in dict(self.preparations).items():
            arr = _check_distribution(vec, f"preparation {key!r}")
            if arr.shape != (size,):
                raise PreconditionError(
                    f"preparation {key!r} has {arr.shape[0]} entries for "
                    f"{size} lambda values"
                )
            preps[str(key)] = arr
        resps = {}
        for key, table in dict(self.responses).items():
            arr = _as_real_array(table, f"response table {key!r}")
            if arr.ndim != 2 or arr.shape[0] != size:
                raise PreconditionError(
                    f"response table {key!r} must have one row per lambda value"
                )
            rows = np.stack([
                _check_distribution(arr[i], f"response row {key!r}[{i}]")
                for i in range(size)
            ])
            rows.setflags(write=False)
            resps[str(key)] = rows
        object.__setattr__(self, "preparations", preps)
        object.__setattr__(self, "responses", resps)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lambda_space.labels),
            "preparations": {k: [float(x) for x in v] for k, v in self.preparations.items()},
            "responses": {
                k: [[float(x) for x in row] for row in table]
                for k, table in self.responses.items()
            },
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
            lambda_space=LambdaSpace(tuple(data["lambda"])),
            preparations=data["preparations"],
            responses=data["responses"],
        )


@dataclass(frozen=True, eq=False)
class OverlapReport:
    """Variational overlap of two preparation distributions."""

    first: str
    second: str
    variational_overlap: float
    shares_reality: bool


def predict(model: OntologicalModel, prep_id: str, meas_id: str) -> np.ndarray:
    """Outcome distribution the model assigns to one preparation/measurement."""
    if prep_id not in model.preparations:
        raise PreconditionError(f"unknown preparation id {prep_id!r}")
    if meas_id not in model.responses:
        raise PreconditionError(f"unknown measurement id {meas_id!r}")
    dist = model.preparations[prep_id] @ model.responses[meas_id]
    total = float(dist.sum())
    if abs(total - 1.0) > PREDICT_SUM_TOL:
        raise InternalError(
            f"predicted distribution sums to {total!r}, expected 1 within {PREDICT_SUM_TOL}"
        )
    return dist


def overlap(model: OntologicalModel, first: str, second: str) -> OverlapReport:
    """sum_lambda min(p_first, p_second): the shared-reality fraction."""
    for key in (first, second):
        if key not in model.preparations:
            raise PreconditionError(f"unknown preparation id {key!r}")
    value = float(np.minimum(model.preparations[first], model.preparations[second]).sum())
    return OverlapReport(
        first=first,
        second=second,
        variational_overlap=value,
        shares_reality=value >= ONTIC_OVERLAP_TOL,
    )


# ---------------------------------------------------------------------------
# quantum scenarios and the orthodox model

@dataclass(frozen=True, eq=False)
class Scenario:
    """Named preparations and measurements, with known forbidden outcomes.

    `forbidden` maps a preparation id to (measurement id, outcome index)
    pairs the Born rule assigns zero probability.
    """

    name: str
    preparations: Mapping[str, StateVector]
    measurements: Mapping[str, EigenDecomposition]
    forbidden: Mapping[str, tuple]

    def __post_init__(self) -> None:
        object.__setattr__(self, "preparations", dict(self.preparations))
        object.__setattr__(self, "measurements", dict(self.measurements))
        object.__setattr__(self, "forbidden", dict(self.forbidden))


def _derive_forbidden(preparations: Mapping[str, StateVector],
                      measurements: Mapping[str, EigenDecomposition]) -> dict:
    found = {}
    for prep_id, state in preparations.items():
        for meas_id, basis in measurements.items():
            probs = born_probabilities(state, basis)
            for k, p in enumerate(probs):
                if p < FORBIDDEN_BORN_TOL:
                    found.setdefault(prep_id, []).append((meas_id, k))
    return {k: tuple(v) for k, v in found.items()}


def pbr_scenario() -> Scenario:
    """The four product preparations and the antidistinguishing measurement."""
    basis = pbr_basis()
    preps = preparation_states()
    return Scenario(
        name="pbr",
        preparations=preps,
        measurements={"xi": basis.measurement},
        forbidden={p: (("xi", basis.forbidden_map[p]),) for p in PREPARATION_IDS},
    )


def qubit_scenario() -> Scenario:
    """Single-qubit z and x measurements on the four standard preparations."""
    preps = {"0": ket_zero(), "1": ket_one(), "+": ket_plus(), "-": ket_minus()}
    measurements = {"z": eigendecompose(sigma_z()), "x": eigendecompose(sigma_x())}
    return Scenario(
        name="qubit_zx",
        preparations=preps,
        measurements=measurements,
        forbidden=_derive_forbidden(preps, measurements),
    )


def orthodox_model(scenario: Scenario) -> OntologicalModel:
    """Lambda is the quantum state itself; responses are Born probabilities.

    The model reproduces quantum statistics exactly, and distinct
    preparations never share lambda support: quantum states read as ontic.
    """
    prep_ids = tuple(scenario.preparations)
    size = len(prep_ids)
    preparations = {
        pid: np.eye(size)[i] for i, pid in enumerate(prep_ids)
    }
    responses = {}
    for meas_id, basis in scenario.measurements.items():
        responses[meas_id] = np.stack([
            born_probabilities(scenario.preparations[pid], basis) for pid in prep_ids
        ])
    return OntologicalModel(
        lambda_space=LambdaSpace(prep_ids),
        preparations=preparations,
        responses=responses,
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


def born_consistency_gap(model: OntologicalModel, scenario: Scenario,
                         prep_ids, meas_id: str) -> float:
    """Summed total-variation distance between model predictions and Born.

    Summing over the discriminating preparations makes the overlap bound a
    theorem: for orthogonal quantum preparations, variational overlap never
    exceeds this gap, so a gap under 1e-9 forces overlap under 1e-9.
    """
    gap = 0.0
    basis = scenario.measurements[meas_id]
    _scenario_responses(model, scenario, meas_id)
    for pid in prep_ids:
        target = born_probabilities(scenario.preparations[pid], basis)
        got = predict(model, pid, meas_id)
        gap += 0.5 * float(np.sum(np.abs(got - target)))
    return gap


# ---------------------------------------------------------------------------
# the shared-reality family

def build_shared_reality_model(q: float) -> OntologicalModel:
    """Single-qubit model where |0> and |+> share one lambda with weight q.

    Lambda space: one shared value plus one private value per preparation.
    q = 1 forces the two preparations onto the same physical state on every
    run; q = 0 reduces to disjoint (ontic) supports.
    """
    if not 0.0 <= q <= 1.0:
        raise PreconditionError(f"shared weight q must lie in [0, 1], got {q!r}")
    return OntologicalModel(
        lambda_space=LambdaSpace(SHARED_REALITY_LABELS),
        preparations={
            "0": np.array([q, 1.0 - q, 0.0]),
            "+": np.array([q, 0.0, 1.0 - q]),
        },
        responses={},
    )


def _pair_labels(single: LambdaSpace) -> tuple:
    return tuple(f"{a}|{b}" for a in single.labels for b in single.labels)


def paired_shared_reality_model(q: float, xi_responses=None) -> OntologicalModel:
    """Two independent shared-reality qubits, optionally with a response table.

    Preparation independence: each product preparation's distribution over
    lambda pairs is the tensor product of the single-qubit distributions.
    `xi_responses`, when given, is a (9, 4) response table for the
    four-outcome measurement, keyed "xi".
    """
    single = build_shared_reality_model(q)
    marginals = {"0": single.preparations["0"], "+": single.preparations["+"]}
    preparations = {
        pid: np.kron(marginals[pid[0]], marginals[pid[1]]) for pid in PREPARATION_IDS
    }
    responses = {}
    if xi_responses is not None:
        responses["xi"] = np.asarray(xi_responses, dtype=float)
    return OntologicalModel(
        lambda_space=LambdaSpace(_pair_labels(single.lambda_space)),
        preparations=preparations,
        responses=responses,
    )


# ---------------------------------------------------------------------------
# the certified minimum violation

@dataclass(frozen=True, eq=False)
class ViolationBound:
    """Certified minimax violation of the forbidden-outcome predictions.

    The contracted metric is the worst forbidden-outcome probability over
    the four preparations; `forbidden_sum` and `forbidden_mean` report the
    same witnessing table under alternative aggregations. lower_bound is
    dual-feasible (no response table can do better), upper_bound is
    achieved by `witnessing_responses`, and the two agree within
    `duality_gap` <= DUALITY_GAP_TOL.
    """

    q: float
    lower_bound: float
    upper_bound: float
    duality_gap: float
    witnessing_responses: np.ndarray
    pair_labels: tuple
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
            "forbidden_outcomes": [int(k) for k in self.forbidden_outcomes],
            "lambda_pairs": list(self.pair_labels),
            "witnessing_responses": {
                label: [float(x) for x in row]
                for label, row in zip(self.pair_labels, self.witnessing_responses)
            },
        }


def _forbidden_cost(q: float) -> tuple:
    """(cost, forbidden, pair_labels) of two shared-reality qubits at q.

    forbidden[p] is the outcome preparation p never fires. Row k of `cost`
    holds the weights over lambda pairs of the preparation that forbids
    outcome k: what a response table pays, in that preparation's
    violation, per unit of mass it puts on outcome k in a pair's row."""
    basis = pbr_basis()
    model = paired_shared_reality_model(q)
    weights = np.stack([model.preparations[p] for p in PREPARATION_IDS])
    forbidden = tuple(basis.forbidden_map[p] for p in PREPARATION_IDS)
    return weights[np.argsort(forbidden)], forbidden, model.lambda_space.labels


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
    if not 0.0 <= q <= 1.0:
        raise PreconditionError(f"shared weight q must lie in [0, 1], got {q!r}")
    cost, forbidden, pair_labels = _forbidden_cost(q)
    witness = _even_split(cost)
    violations = _violations(cost, forbidden, witness)
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
        witnessing_responses=witness,
        pair_labels=tuple(pair_labels),
        preparation_ids=PREPARATION_IDS,
        forbidden_outcomes=forbidden,
        forbidden_sum=float(sum(violations)),
        forbidden_mean=float(np.mean(violations)),
    )


# ---------------------------------------------------------------------------
# sampling a model

@dataclass(frozen=True, eq=False)
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
                prep: {meas: [int(c) for c in row] for meas, row in cells.items()}
                for prep, cells in self.counts.items()
            },
        }


def monte_carlo_onto(model: OntologicalModel, scenario: Scenario,
                     trials: int, seed: int = 0) -> MonteCarloReport:
    """Sample lambda, then an outcome, `trials` times per scenario cell.

    Cell (preparation, measurement) number i uses random substream i of the
    master seed: its first `trials` uniforms pick lambda from the
    preparation and the next `trials` pick each outcome from lambda's
    response row, both through the `inverse_cdf` walk, once per row. The
    model must define every preparation and measurement id the scenario
    names. More than MAX_MC_TRIALS trials are rejected before any draw.
    """
    if trials < 0:
        raise PreconditionError(f"trials must be >= 0, got {trials}")
    if trials > MAX_MC_TRIALS:
        raise PreconditionError(f"trials {trials} exceed the {MAX_MC_TRIALS} cap")
    counts: dict = {}
    cell = 0
    for prep_id in scenario.preparations:
        if prep_id not in model.preparations:
            raise PreconditionError(f"model lacks preparation {prep_id!r}")
        counts[prep_id] = {}
        for meas_id in scenario.measurements:
            table = _scenario_responses(model, scenario, meas_id)
            rng = substream(seed, cell)
            cell += 1
            lam = inverse_cdf(model.preparations[prep_id], rng.random(trials))
            draws = rng.random(trials)
            # one walk per lambda's row: no (trials x outcomes) table is built
            counts[prep_id][meas_id] = sum(
                np.bincount(inverse_cdf(row, draws[lam == k]), minlength=len(row))
                for k, row in enumerate(table)
            )
    max_forbidden = None
    if scenario.forbidden and trials > 0:
        freqs = [
            counts[prep_id][meas_id][k] / trials
            for prep_id, entries in scenario.forbidden.items()
            for meas_id, k in entries
        ]
        if freqs:
            max_forbidden = float(max(freqs))
    return MonteCarloReport(
        counts=counts, trials=trials, seed=int(seed),
        max_forbidden_frequency=max_forbidden,
    )
