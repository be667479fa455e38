"""Protective measurement: expectation values from a single system.

One cycle couples the pointer weakly to the observable, then "protects"
the system by projecting it back onto the known prepared state (the
measurement {|psi><psi|, 1 - |psi><psi|} an external protection apparatus
would perform). Over n cycles of strength g the pointer accumulates a
shift of n * g * <psi|A|psi> while the system, conditioned on surviving
every protection, keeps returning to |psi>. Reading the accumulated shift
off a single system is the whole point: no ensemble is consumed.

Two modes:

* "deterministic" follows the renormalized success branch and tracks its
  a-priori probability (the default, and what the tomography chain uses);
* "sampled" draws each protection outcome; a failure aborts the run and is
  reported as a distinct, non-failing outcome on the result.

Protecting a state other than the prepared one models a mismatched
protection apparatus: the first cycles leak the system into the protected
state, with survival probability |<protected|prepared>|^2.

A successful protection leaves the system exactly in the protected state,
so the engine never carries the system along: after the first cycle the
joint state is |protected> (x) pointer, and each cycle acts on the pointer
alone, as one multiplication in momentum space. The survivor of any run
with n > 0 is the protected state itself.

After cycle k the pointer's spectrum is, before normalization,
phi0^ M1 M^(k-1), and a cycle's survival weight and pointer mean are read
from it without leaving momentum space (`postselected_cycles`): the norm by
Parseval and the mean by x <-> i d/dp, from real powers of |M|^2, summed
over the K momenta the pointer occupies. The cycles run in blocks of
max(1, BLOCK_ELEMENTS // K), a fixed working set of 64 KB per real block
array, 106 cycles for the default pointer (K = 77 at any grid size). The
survivals follow from all weights at once, and the per-step log is two
float columns, which the JSON artifact takes as they are
(`serialize.Records`). The final joint state, the run's one inverse FFT,
is built only when it is read.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from . import DEFAULT_COUPLING, DEFAULT_STEPS
from .errors import NotPureError, PreconditionError
from .hilbert import (
    HermitianOperator,
    StateVector,
    _checked_count,
    _checked_dim,
    _number_array,
    _readonly,
    canonical_phase,
    inner_product,
    record,
)
from .measurement import (
    MIN_PHASE_STEP,
    JointSystemPointerState,
    PointerGrid,
    couple_pointer,
    coupling_phases,
    default_grid,
    make_pointer,
    postselected_cycles,
    postselected_multiplier,
)
from .rngs import MAX_SEED, uniform_chunks
from .serialize import Records

NOT_PURE_TOL = 1e-3          # largest rho eigenvalue below 1 - this: not pure
ORTHOGONAL_LEAK_TOL = 1e-15  # |<protected|prepared>| below this: empty result
COMPLETENESS_RANK_TOL = 1e-8
MAX_STEPS = 2 ** 16          # cycles per run; its JSON log peaks at ~0.8 KB of RSS each


@record
class ProtectiveRunResult:
    """Outcome of one protective measurement run.

    The per-step log is two columns, one entry per cycle run: survivals[i]
    is the survival probability and pointer_means[i] the pointer mean after
    cycle i + 1; `to_json_dict` hands them on as the columns of a
    `Records`, with no dict per cycle. `final_joint` is built by
    `build_joint` on first read.
    """

    steps: int
    coupling: float
    pointer_mean_shift: float
    survival_probability: float
    inferred_expectation: float | None
    survivals: np.ndarray
    pointer_means: np.ndarray
    mode: str
    build_joint: Callable[[], JointSystemPointerState]
    aborted_at_step: int | None = None

    def __post_init__(self) -> None:
        if not -1e-12 <= self.survival_probability <= 1.0 + 1e-12:
            raise PreconditionError(
                f"survival probability {self.survival_probability!r} outside [0, 1]"
            )
        if self.inferred_expectation is not None and not math.isfinite(self.inferred_expectation):
            raise PreconditionError("inferred expectation must be finite when defined")

    @cached_property
    def final_joint(self) -> JointSystemPointerState:
        return self.build_joint()

    def to_json_dict(self) -> dict:
        return {
            "steps": self.steps,
            "coupling": self.coupling,
            "mode": self.mode,
            "pointer_mean_shift": self.pointer_mean_shift,
            "survival_probability": self.survival_probability,
            "inferred_expectation": self.inferred_expectation,
            "aborted_at_step": self.aborted_at_step,
            "per_step_log": Records(("step", "survival", "pointer_mean"), (
                list(range(1, len(self.survivals) + 1)), self.survivals.tolist(),
                self.pointer_means.tolist())),
        }


@record
class LeakResult:
    """Survival and surviving state of a mismatched-protection run."""

    survival: float
    surviving_state: StateVector | None


def _protective_loop(initial: StateVector, protected: StateVector,
                     op: HermitianOperator, n: int, g: float,
                     grid: PointerGrid | None, width: float,
                     mode: str, seed) -> ProtectiveRunResult | None:
    """Shared engine: couple, protect, log.

    Every input is checked before any work: the mode, n an integer (not a
    bool) with 0 <= n <= MAX_STEPS, the master seed (None means 0) by the
    integer rule in either mode, one dimension for op and both states,
    the MAX_DIM cap on the joint state, the pointer, the checks of
    `coupling_phases` on g (finite, and within the wraparound guard), and
    a nonzero g's largest phase step |g| max|a_j| max|p|, over the momenta
    the pointer occupies, at least MIN_PHASE_STEP: below it the readout is
    rounding, and g = 0 still runs and infers nothing.
    Only then does an orthogonal pair (|<protected|initial>| below
    ORTHOGONAL_LEAK_TOL, which no protection survives) return None, and
    only when n > 0: a run of no cycles protects nothing and survives.

    A successful protection leaves the system exactly in |protected>, so the
    joint state is |protected> (x) phi and the run is a recursion on the
    pointer alone. In momentum space a cycle multiplies phi's spectrum by
    M(p) = sum_j |<v_j|c>|^2 exp(-i g a_j p) over the eigenpairs (a_j, v_j)
    of op, with c the protected state; the first cycle, which starts from
    the prepared state, uses M1(p) = sum_j <c|v_j><v_j|prepared> exp(-i g a_j p).
    M is M1 itself when the run protects the very state it prepared, and
    is never read by a run of at most one cycle; only other runs build it.
    Both are `postselected_multiplier`s, read with their p-derivatives by
    `postselected_cycles` (a weak readout is this engine's deterministic
    run of one cycle, with |post> as the protected state): it returns each
    cycle's squared norm W_k (W_0 = 1) and pointer mean, read in blocks of
    real powers of |M|^2 with no inverse FFT, so cycle k's survival weight
    is W_k / W_(k-1).
    A sampled run draws its n uniforms at once and aborts at the first
    cycle whose uniform exceeds its weight, found by one comparison over
    the run. The uniforms are the first n of substream 0 of the integer
    master seed `seed` (None means 0), joined from row 0 of
    `rngs.uniform_chunks`, which builds no Generator; a Generator is no
    seed. The survivals of the cycles run are one `np.cumprod` of their
    weights.
    final_joint, built on first read, is |protected> (x) phi after the last
    cycle, with phi the normalized inverse FFT of phi0^ M1 M^(k-1), the
    run's one inverse FFT; the product state before any cycle ran, or the
    coupled state of a sampled abort.
    """
    if mode not in ("deterministic", "sampled"):
        raise PreconditionError(f"unknown mode {mode!r}")
    n = _checked_count(n, "step count", MAX_STEPS)
    seed = _checked_count(0 if seed is None else seed, "master seed", MAX_SEED)
    if not (op.dim == initial.dim == protected.dim):
        raise PreconditionError(
            f"dimension mismatch: operator {op.dim}, prepared {initial.dim}, "
            f"protected {protected.dim}"
        )
    grid = default_grid(width) if grid is None else grid
    _checked_dim(initial.dim * grid.n_points, "joint dimension")
    pointer = make_pointer(grid, width)
    eig = op.eigen
    phases = coupling_phases(eig, g, grid, n)
    step = abs(g) * np.max(np.abs(eig.eigenvalues)) * np.max(np.abs(
        grid.momenta[pointer.occupied_momenta]))
    if 0.0 < step < MIN_PHASE_STEP:
        raise PreconditionError(
            f"coupling g={g!r} is too small to resolve: its largest phase step {step:.3g} "
            f"(|g| max|a_j| max|p| over the pointer's momenta) is below {MIN_PHASE_STEP}"
        )
    if n and abs(inner_product(protected, initial)) < ORTHOGONAL_LEAK_TOL:
        return None
    uniforms = np.zeros(n)                  # deterministic: no uniform exceeds a weight >= 0
    if mode == "sampled":
        draw = uniform_chunks(seed, 0, 1, n)
        uniforms = np.concatenate([np.empty(0), *(run[0] for run in draw)])
    c = protected.amplitudes
    first = postselected_multiplier(eig, g, phases, c, initial.amplitudes)
    repeated = (first if initial is protected or n <= 1
                else postselected_multiplier(eig, g, phases, c, c))
    weights, means = postselected_cycles(pointer, first, repeated, n)
    step_weights = weights / np.concatenate(([1.0], weights[:-1]))
    misses = np.flatnonzero(uniforms > step_weights)
    ran = int(misses[0]) if misses.size else n     # cycles run
    aborted = ran + 1 if misses.size else None
    survivals = np.cumprod(np.minimum(step_weights[:ran], 1.0))
    survival = float(survivals[-1]) if ran else 1.0
    shift = float(means[ran - 1]) if ran else 0.0

    def build_joint() -> JointSystemPointerState:
        amplitudes = pointer.amplitudes
        if ran:
            spectrum = pointer.spectra[0] * first[0] * repeated[0] ** (ran - 1)
            amplitudes = np.fft.ifft(spectrum) / math.sqrt(weights[ran - 1])
        system = protected if ran else initial
        joint = JointSystemPointerState(system.dim, grid, np.outer(system.amplitudes, amplitudes))
        return couple_pointer(joint, op, g) if aborted is not None else joint

    denominator = ran * g
    return ProtectiveRunResult(
        steps=n,
        coupling=g,
        pointer_mean_shift=shift,
        survival_probability=max(min(survival, 1.0), 0.0),
        inferred_expectation=shift / denominator if denominator != 0.0 else None,
        survivals=_readonly(survivals),
        pointer_means=_readonly(means[:ran]),
        mode=mode,
        aborted_at_step=aborted,
        build_joint=build_joint,
    )


def protective_measure(psi: StateVector, op: HermitianOperator, n: int = DEFAULT_STEPS,
                       g: float = DEFAULT_COUPLING, grid: PointerGrid | None = None,
                       width: float = 1.0, mode: str = "deterministic",
                       seed=None) -> ProtectiveRunResult:
    """Run n protective cycles of strength g, protecting the input state.

    The inferred expectation value is pointer_mean_shift / (n * g), defined
    whenever some coupling accumulated. For psi an eigenstate of op the run
    is exact: shift n * g * eigenvalue with survival 1.
    """
    return _protective_loop(psi, psi, op, n, g, grid, width, mode, seed)


def protection_leak(prepared: StateVector, protected: StateVector,
                    op: HermitianOperator, n: int = DEFAULT_STEPS,
                    g: float = DEFAULT_COUPLING, grid: PointerGrid | None = None,
                    width: float = 1.0) -> LeakResult:
    """Protect a different state than was prepared (deterministic mode).

    The first protection collapses the prepared state into the protected
    one, so the run survives with probability |<protected|prepared>|^2 (up
    to O(g^2) coupling corrections) and survivors emerge in the protected
    state. An orthogonal pair that passes every check of a run of at
    least one cycle returns the explicit empty result: survival 0 and no
    surviving state. At n = 0 nothing is protected, so every pair survives
    with survival 1 in the prepared state.
    """
    run = _protective_loop(prepared, protected, op, n, g, grid, width, "deterministic", None)
    if run is None:
        return LeakResult(survival=0.0, surviving_state=None)
    surviving = (protected if n > 0 else prepared).amplitudes
    return LeakResult(survival=run.survival_probability,
                      surviving_state=StateVector.normalized(canonical_phase(surviving)))


# ---------------------------------------------------------------------------
# tomography from protective readouts

def _real_embedding(matrices) -> np.ndarray:
    """Rows [Re vec M, Im vec M], one per matrix. For Hermitian A and B the
    dot product of their rows is tr(A B), the real Frobenius inner product."""
    flat = np.array([np.asarray(m, dtype=complex).reshape(-1) for m in matrices])
    return np.concatenate([flat.real, flat.imag], axis=1)


def reconstruct_state(operators, expectations) -> StateVector:
    """Least-squares density matrix fit, then the dominant eigenvector.

    At least one operator is needed, all of one dimension d, each with one
    finite expectation under the package's number rule (`_number_array`).
    rho = 1/d + X with X traceless and Hermitian, and each readout asks
    tr(X T) = <A> - tr(A)/d of the traceless part T = A - tr(A)/d of its
    operator A. In the real embedding of `_real_embedding` that is one
    linear system, solved by one `np.linalg.lstsq`. Its minimum-norm
    solution is a combination of the rows, so X is traceless and Hermitian
    by construction.

    The set must be informationally complete: together with the identity
    (whose expectation normalization fixes at 1) the operators must span
    the real space of Hermitian d x d matrices, a rank of d^2. The
    identity is orthogonal to every traceless part, so that rank is 1 plus
    the number of the solve's own singular values above
    COMPLETENESS_RANK_TOL; a smaller one is PreconditionError. The bare
    Pauli triple passes for qubits on that reading, and the fit is then
    the unique least-squares one.

    Raises NotPureError when the fitted density matrix has largest
    eigenvalue below 1 - NOT_PURE_TOL: the expectations describe something
    too mixed (noisy or inconsistent input) to report as a ket.
    """
    operators = tuple(operators)
    exps = _number_array(expectations, "expectations")
    if not operators:
        raise PreconditionError("tomography needs at least one operator")
    if exps.shape != (len(operators),):
        raise PreconditionError(
            f"{len(operators)} operators but expectation values of shape {exps.shape}"
        )
    d = operators[0].dim
    if any(op.dim != d for op in operators):
        raise PreconditionError("tomography operators must share one dimension")
    identity = np.eye(d)
    traces = np.array([np.trace(op.matrix).real for op in operators])
    design = _real_embedding([op.matrix - t / d * identity for op, t in zip(operators, traces)])
    x, _, _, singular_values = np.linalg.lstsq(design, exps - traces / d, rcond=None)
    rank = 1 + int(np.count_nonzero(singular_values > COMPLETENESS_RANK_TOL))
    if rank < d * d:
        raise PreconditionError(
            f"operator set is informationally incomplete: rank {rank} < {d * d}"
        )
    rho = identity / d + (x[:d * d] + 1j * x[d * d:]).reshape(d, d)
    vals, vecs = np.linalg.eigh(rho)
    if vals[-1] < 1.0 - NOT_PURE_TOL:
        raise NotPureError(
            f"reconstructed density matrix has largest eigenvalue {vals[-1]:.6f} "
            f"< {1.0 - NOT_PURE_TOL}; input expectations are not those of a pure state"
        )
    return StateVector.normalized(canonical_phase(vecs[:, -1]))


def protective_tomography(psi: StateVector, operators, n: int = DEFAULT_STEPS,
                          g: float = DEFAULT_COUPLING, grid: PointerGrid | None = None,
                          width: float = 1.0) -> tuple[StateVector, float]:
    """Measure each operator protectively on one and the same system.

    The pointer is reset between operators. The system needs no carrying
    over: every successful protection returns it exactly to |psi>, so each
    operator's run starts from |psi>. The inferred expectations go to
    `reconstruct_state` as they are, with the operators, so an incomplete
    set is refused there, after the runs. Returns the reconstructed state
    and the probability that the whole chain survived protection.
    """
    operators = tuple(operators)
    total_survival = 1.0
    inferred = []
    for op in operators:
        run = protective_measure(psi, op, n=n, g=g, grid=grid, width=width)
        if run.inferred_expectation is None:
            raise PreconditionError(
                "tomography needs n > 0 steps and g != 0 to infer expectations"
            )
        total_survival *= run.survival_probability
        inferred.append(run.inferred_expectation)
    return reconstruct_state(operators, inferred), total_survival
