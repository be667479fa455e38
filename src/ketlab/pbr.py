"""Antidistinguishability of {|0>, |+>}, EPR steering, and a unitarity check.

The centerpiece is the four-outcome entangled measurement on two qubits
each independently prepared in |0> or |+>. Its basis states are built so
that every one of the four product preparations is orthogonal to exactly
one outcome: that outcome is "forbidden" for that preparation, and quantum
mechanics predicts it never fires. Any model in which the two single-qubit
preparations share an underlying physical state on some fraction of runs
must put nonzero probability on a forbidden outcome (the ontology module
quantifies the minimum); the experiment here samples the quantum side.

`pbr_scenario()` describes the experiment once, as a `Scenario` of the
four preparations and the measurement "xi". The forbidden pairing is the
one the scenario derives from the states by the package-wide rule
(amplitude below FORBIDDEN_TOL), checked to be a bijection, never
hard-coded; `pbr_experiment` and the ontology module both read it there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalError, PreconditionError
from .hilbert import (
    QUBIT_KETS,
    EigenDecomposition,
    StateVector,
    _checked_count,
    _number_array,
    canonical_phase,
    record,
    tensor,
)
from .measurement import Scenario, inverse_cdf, tally
from .rngs import MAX_UNIFORMS, uniform_chunks

UNITARY_TOL = 1e-10       # max |U^H U - 1| entry allowed
WEIGHT_SUM_TOL = 1e-9     # mixture weights must sum to 1 within this

PREPARATION_IDS = ("00", "0+", "+0", "++")


def preparation_states() -> dict:
    """The four product preparations keyed by their two-character id."""
    return {a + b: tensor(QUBIT_KETS[a](), QUBIT_KETS[b]()) for a in "0+" for b in "0+"}


def pbr_scenario() -> Scenario:
    """The four product preparations and the antidistinguishing measurement.

    The measurement's basis states are read as a nondegenerate observable
    (eigenvalues 1..4), whose `EigenDecomposition` checks them orthonormal;
    four orthonormal states of a 4-dimensional space are also complete.
    The `Scenario` derives which outcome each preparation forbids;
    that pairing is checked to give every preparation exactly one
    forbidden outcome, as a bijection onto the four outcomes.
    """
    zero, one, plus, minus = (QUBIT_KETS[name]().amplitudes for name in "01+-")
    s = 1.0 / math.sqrt(2.0)
    mat = np.column_stack([
        s * (np.kron(a1, b1) + np.kron(a2, b2))
        for (a1, b1), (a2, b2) in (
            ((zero, one), (one, zero)),
            ((zero, minus), (one, plus)),
            ((plus, one), (minus, zero)),
            ((plus, minus), (minus, plus)),
        )
    ])
    scenario = Scenario("pbr", preparation_states(),
                        {"xi": EigenDecomposition((1.0, 2.0, 3.0, 4.0), mat)})
    hits = {p: tuple(k for _, k in scenario.forbidden.get(p, ())) for p in PREPARATION_IDS}
    if sorted(hits.values()) != [(0,), (1,), (2,), (3,)]:
        raise InternalError(f"forbidden pairing is not a bijection onto 0..3: {hits}")
    return scenario


def _forbidden_map(scenario: Scenario) -> dict:
    """{preparation id: its one forbidden outcome} of `pbr_scenario()`."""
    return {p: k for p, ((_, k),) in scenario.forbidden.items()}


@record
class PbrCounts:
    """Contingency table of an antidistinguishability experiment."""

    counts: dict
    trials: int
    seed: int
    forbidden_map: dict

    def __post_init__(self) -> None:
        total = 0
        for prep_id in PREPARATION_IDS:
            row = self.counts.get(prep_id)
            if row is None or len(row) != 4:
                raise PreconditionError(f"counts need a 4-entry row for {prep_id!r}")
            if any(c < 0 for c in row):
                raise PreconditionError(f"negative count in row {prep_id!r}")
            total += sum(row)
            forbidden_count = row[self.forbidden_map[prep_id]]
            if forbidden_count != 0:
                raise PreconditionError(
                    f"forbidden outcome fired {forbidden_count} times for "
                    f"preparation {prep_id!r}; quantum mechanics forbids it exactly"
                )
        if total != self.trials:
            raise PreconditionError(
                f"counts sum to {total}, expected {self.trials} trials"
            )

    def row_totals(self) -> dict:
        return {p: int(sum(self.counts[p])) for p in PREPARATION_IDS}

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "preparations": list(PREPARATION_IDS),
            "counts": {p: [int(c) for c in self.counts[p]] for p in PREPARATION_IDS},
            "forbidden_outcome": {p: int(self.forbidden_map[p]) for p in PREPARATION_IDS},
        }


def pbr_experiment(trials: int, mixture_weights=(0.25, 0.25, 0.25, 0.25),
                   seed: int = 0) -> PbrCounts:
    """Sample preparations from a mixture and measure in the basis.

    Trial t uses random substream t of the master seed (first draw picks
    the preparation, the next drives the projective outcome), so trials
    are independent and reproducible regardless of execution order.

    The preparations are fixed, so their Born rows are the rows of the
    scenario's Born table, `pbr_scenario().born["xi"]`, in PREPARATION_IDS
    order. The trials run as arrays, one `uniform_chunks` block of
    both uniforms at a time: one `inverse_cdf` walk over the mixture picks
    each trial's preparation, and `tally` walks preparation p's Born row
    with the second uniforms of the trials that picked p: for each trial
    the walk `strong_measure` takes. Unit tests pin the equivalence with
    the per-trial loop.
    """
    trials = _checked_count(trials, "trials", MAX_UNIFORMS // 2)      # two uniforms a trial
    weights = _number_array(mixture_weights, "mixture_weights")
    if weights.shape != (4,) or np.any(weights < 0):
        raise PreconditionError("mixture_weights must be four nonnegative reals")
    total = sum(weights.tolist())   # Python floats: an inf sum, with no warning, fails below
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise PreconditionError(f"mixture_weights sum to {total!r}, expected 1")
    scenario = pbr_scenario()
    cells = np.zeros((4, 4), dtype=np.int64)
    for uniforms in uniform_chunks(seed, 0, trials, 2):
        which = inverse_cdf(weights, uniforms[:, 0])
        for prep, row in enumerate(scenario.born["xi"]):
            cells[prep] += tally(row, [uniforms[which == prep, 1]])
    counts = dict(zip(PREPARATION_IDS, cells.tolist()))
    return PbrCounts(counts=counts, trials=trials, seed=int(seed),
                     forbidden_map=_forbidden_map(scenario))


# ---------------------------------------------------------------------------
# EPR steering on the singlet

@record
class SteeringSample:
    """One steering round: Alice's outcome and Bob's conditional state."""

    alice_basis: str
    alice_outcome: float
    bob_conditional: StateVector
    bob_marginal_check: float


def _singlet() -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0 / math.sqrt(2.0)   # |0>|1>
    amps[2] = -1.0 / math.sqrt(2.0)  # |1>|0>
    return StateVector(4, amps)


@record
class SteeringTable:
    """Alice's outcomes in one basis, with everything a round needs.

    `eigenvalues[k]`, `weights[k]` and `bob_states[k]` are outcome k's
    eigenvalue, Born weight and Bob's conditional state;
    `bob_marginal_check` is the trace distance of Bob's exactly averaged
    marginal from 1/2. None of them depends on the draw, so a run computes
    them once per basis and each round only draws an outcome: `inverse_cdf`
    walks `weights` with the round's uniform, in `epr_steering` and in
    `steer` alike.
    """

    alice_basis: str
    eigenvalues: tuple
    weights: np.ndarray
    bob_states: tuple
    bob_marginal_check: float


def steering_table(alice_basis: str) -> SteeringTable:
    """Tabulate Alice's measurement of her half of the singlet.

    Alice's outcomes are -1 and +1, with her qubit kets a_k: |0> and |1>
    in the z basis (outcome operator |1><1| - |0><0|), |-> and |+> in the
    x basis. With the singlet's amplitudes as the 2x2 matrix C, outcome k
    leaves Bob in b_k = a_k^H C, unnormalized, with Born weight |b_k|^2:
    outcome +1 leaves him in |0> (z) or |-> (x), and -1 in |1> or |+>.
    Each outcome has probability 1/2, and the marginal check averages
    Bob's state over the outcomes with their Born weights, sum_k b_k b_k^H,
    not over sampled outcomes.
    """
    names = {"z": "01", "x": "-+"}.get(alice_basis) if isinstance(alice_basis, str) else None
    if names is None:
        raise PreconditionError(f"alice_basis must be 'z' or 'x', got {alice_basis!r}")
    amps = _singlet().amplitudes.reshape(2, 2)
    conditionals = [QUBIT_KETS[name]().amplitudes.conj() @ amps for name in names]
    weights = np.array([np.vdot(b, b).real for b in conditionals])
    unnormalized = [np.outer(b, b.conj()) for b in conditionals]
    bob_states = []
    for rho, weight in zip(unnormalized, weights):
        # an eigenvector, not b / |b|: the phase flip of b's exact zero
        # would write -0.0 into the artifact
        _, vecs = np.linalg.eigh(rho / weight)
        bob_states.append(StateVector.normalized(canonical_phase(vecs[:, -1])))
    deviation = sum(unnormalized) - np.eye(2) / 2.0
    weights.setflags(write=False)
    return SteeringTable(
        alice_basis=alice_basis,
        eigenvalues=(-1.0, 1.0),
        weights=weights,
        bob_states=tuple(bob_states),
        bob_marginal_check=float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(deviation)))),
    )


def epr_steering(alice_basis: str, seed: int) -> SteeringSample:
    """Alice measures her half of the singlet; Bob's half steers.

    One round drawn from `steering_table(alice_basis)`: uniform 0 of
    substream 0 of the integer master seed `seed` (a Generator is no seed),
    read through `uniform_chunks`, picks Alice's outcome by `inverse_cdf`,
    exactly as round 0 of `steer` does.
    """
    table = steering_table(alice_basis)
    k = int(inverse_cdf(table.weights, next(uniform_chunks(seed, 0, 1))[0, 0]))
    return SteeringSample(alice_basis, table.eigenvalues[k], table.bob_states[k],
                          table.bob_marginal_check)


# ---------------------------------------------------------------------------
# overlaps survive unitary evolution

def overlap_preservation_check(u: np.ndarray, s1: StateVector, s2: StateVector,
                               ready: StateVector) -> tuple[float, float | np.ndarray]:
    """|<ready (x) s1 | ready (x) s2>| before and after a joint unitary `u`,
    or after each of an (m, dim, dim) stack of them.

    A measurement that left the device in different orthogonal records for
    s1 and s2 would need `after` to differ from `before`; unitarity forbids
    it, which is the obstruction this check exhibits numerically. `after`
    is a float for one unitary and an array of m floats for a stack, each
    one `np.vdot` of its own unitary's images, so bit for bit what that
    unitary gives alone. Non-unitary input, one member of a stack
    included, is rejected with the largest deviation; a NaN or infinite
    entry is refused by the number rule before that product.
    """
    if s1.dim != s2.dim:
        raise PreconditionError(f"system dimension mismatch: {s1.dim} vs {s2.dim}")
    u = _number_array(u, "unitary", complex)
    dim = ready.dim * s1.dim
    if u.shape[-2:] != (dim, dim) or u.ndim > 3:
        raise PreconditionError(
            f"unitary must be {dim}x{dim}, or a stack of them, for device {ready.dim} "
            f"(x) system {s1.dim}, got {u.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):   # a huge entry fails below
        dev = float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(dim)), initial=0.0))
    if not dev <= UNITARY_TOL:
        raise PreconditionError(
            f"matrix is not unitary: max |U^H U - 1| entry = {dev:.3e}"
        )
    v1, v2 = np.kron(ready.amplitudes, [s1.amplitudes, s2.amplitudes])
    before = float(abs(np.vdot(v1, v2)))
    images = zip(*np.reshape([u @ v1, u @ v2], (2, -1, dim)))
    after = np.array([abs(np.vdot(a, b)) for a, b in images])
    return before, float(after[0]) if u.ndim == 2 else after
