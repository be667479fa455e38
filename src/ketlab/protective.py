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

The cycles run in blocks. After cycle k the pointer's spectrum is, before
normalization, phi0^ M1 M^(k-1), so the powers of M are computed once per
run and a block of cycles is the carried spectrum times those powers, read
with one batched inverse FFT. A block holds max(1, BLOCK_ELEMENTS // N)
cycles for N grid points: a fixed working set of 128 KB per block array,
16 cycles at the default 512 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotPureError, PreconditionError
from .hilbert import (
    HermitianOperator,
    StateVector,
    _checked_count,
    _checked_dim,
    canonical_phase,
    eigendecompose,
    inner_product,
)
from .measurement import (
    JointSystemPointerState,
    PointerGrid,
    couple_pointer,
    coupling_phases,
    default_grid,
    make_pointer,
    postselected_cycle,
    postselected_multiplier,
)
from .rngs import as_generator

NOT_PURE_TOL = 1e-3          # largest rho eigenvalue below 1 - this: not pure
ORTHOGONAL_LEAK_TOL = 1e-15  # |<protected|prepared>| below this: empty result
COMPLETENESS_RANK_TOL = 1e-8
DEFAULT_STEPS = 400
DEFAULT_COUPLING = 5e-3
MAX_STEPS = 2 ** 16          # cycles per run; the per-step log keeps ~1.3 KB each
BLOCK_ELEMENTS = 2 ** 13     # complex entries (128 KB) per array of a block of cycles


class StepRecord(NamedTuple):
    step: int
    survival: float
    pointer_mean: float


@dataclass(frozen=True, eq=False)
class ProtectiveRunResult:
    """Outcome of one protective measurement run."""

    steps: int
    coupling: float
    pointer_mean_shift: float
    survival_probability: float
    inferred_expectation: float | None
    per_step_log: tuple
    mode: str
    aborted_at_step: int | None = None
    final_joint: JointSystemPointerState | None = None

    def __post_init__(self) -> None:
        if not -1e-12 <= self.survival_probability <= 1.0 + 1e-12:
            raise PreconditionError(
                f"survival probability {self.survival_probability!r} outside [0, 1]"
            )
        if self.inferred_expectation is not None and not math.isfinite(self.inferred_expectation):
            raise PreconditionError("inferred expectation must be finite when defined")

    def to_json_dict(self) -> dict:
        return {
            "steps": self.steps,
            "coupling": self.coupling,
            "mode": self.mode,
            "pointer_mean_shift": self.pointer_mean_shift,
            "survival_probability": self.survival_probability,
            "inferred_expectation": self.inferred_expectation,
            "aborted_at_step": self.aborted_at_step,
            "per_step_log": [
                {"step": r.step, "survival": r.survival, "pointer_mean": r.pointer_mean}
                for r in self.per_step_log
            ],
        }


@dataclass(frozen=True, eq=False)
class LeakResult:
    """Survival and surviving state of a mismatched-protection run."""

    survival: float
    surviving_state: StateVector | None


def _protective_loop(initial: StateVector, protected: StateVector,
                     op: HermitianOperator, n: int, g: float,
                     grid: PointerGrid | None, width: float,
                     mode: str, seed) -> ProtectiveRunResult | None:
    """Shared engine: couple, protect, renormalize, log.

    Every input is checked before any work: the mode, n an integer (not a
    bool) with 0 <= n <= MAX_STEPS, one dimension for op and both states,
    the MAX_DIM cap on the joint state, the pointer, and the checks of
    `coupling_phases` on g (finite, and within the wraparound guard).
    Only then does an orthogonal pair (|<protected|initial>| below
    ORTHOGONAL_LEAK_TOL, which no protection survives) return None.

    A successful protection leaves the system exactly in |protected>, so the
    joint state is |protected> (x) phi and the run is a recursion on the
    pointer alone. In momentum space a cycle multiplies phi's spectrum by
    M(p) = sum_j |<v_j|c>|^2 exp(-i g a_j p) over the eigenpairs (a_j, v_j)
    of op, with c the protected state; the first cycle, which starts from
    the prepared state, uses M1(p) = sum_j <c|v_j><v_j|prepared> exp(-i g a_j p).
    Both are `postselected_multiplier`s. Before normalization the spectrum
    after cycle k is S_k = phi0^ M1 M^(k-1), so the cycles run in blocks:
    the powers M^0 .. M^B are one `np.cumprod`, computed once per run, and a
    block of up to B cycles is the carried normalized spectrum times
    M1 [1, M, ..] (first block) or [M, .., M^b] (later blocks), read by one
    `postselected_cycle`, the kernel a weak readout runs on a block of one.
    B is max(1, BLOCK_ELEMENTS // N) for N grid points, a fixed working set
    per block array. Row k's squared norm W_k is relative to the carried
    spectrum (W_0 = 1), so cycle k's survival weight is W_k / W_(k-1).
    A sampled run draws its n uniforms at once and aborts at the first
    cycle whose uniform exceeds its weight; the uniforms are those of n
    single draws.
    final_joint is |protected> (x) phi after the last cycle, the product
    state before any cycle ran, or the coupled state of a sampled abort.
    """
    if mode not in ("deterministic", "sampled"):
        raise PreconditionError(f"unknown mode {mode!r}")
    n = _checked_count(n, "step count", MAX_STEPS)
    if not (op.dim == initial.dim == protected.dim):
        raise PreconditionError(
            f"dimension mismatch: operator {op.dim}, prepared {initial.dim}, "
            f"protected {protected.dim}"
        )
    grid = default_grid(width) if grid is None else grid
    _checked_dim(initial.dim * grid.n_points, "joint dimension")
    pointer = make_pointer(grid, width).amplitudes
    eig = eigendecompose(op)
    phases = coupling_phases(eig, g, grid, n)
    if abs(inner_product(protected, initial)) < ORTHOGONAL_LEAK_TOL:
        return None
    uniforms = None
    if mode == "sampled":
        uniforms = as_generator(seed if seed is not None else 0).random(n)
    c = protected.amplitudes
    rows = min(n, max(1, BLOCK_ELEMENTS // grid.n_points))
    powers = np.empty((rows + 1, grid.n_points), dtype=complex)
    powers[0] = 1.0
    powers[1:] = postselected_multiplier(eig, phases, c, c)
    np.cumprod(powers, axis=0, out=powers)          # row k is M^k
    # the first block starts from the spectrum after cycle 1, at power 0
    spectrum = np.fft.fft(pointer) * postselected_multiplier(eig, phases, c, initial.amplitudes)
    lead = 0
    survival = 1.0
    log = []
    aborted = None
    while len(log) < n and aborted is None:
        done = len(log)
        size = min(rows, n - done)
        block = spectrum * powers[lead:lead + size]
        phi, weights, means = postselected_cycle(block, grid)
        step_weights = weights.copy()
        step_weights[1:] /= weights[:-1]
        if uniforms is not None:
            misses = np.flatnonzero(uniforms[done:done + size] > step_weights)
            if misses.size:
                size = int(misses[0])
                aborted = done + size + 1
        if size == 0:
            break
        survivals = np.cumprod(np.concatenate(([survival], np.minimum(step_weights[:size], 1.0))))
        survival = float(survivals[-1])
        log.extend(map(StepRecord, range(done + 1, done + size + 1),
                       survivals[1:].tolist(), means[:size].tolist()))
        norm = math.sqrt(weights[size - 1])
        spectrum = block[size - 1] / norm
        pointer = phi[size - 1] / norm
        lead = 1
    system = protected if log else initial
    joint = JointSystemPointerState(system.dim, grid, np.outer(system.amplitudes, pointer))
    if aborted is not None:
        joint = couple_pointer(joint, op, g, decomposition=eig)
    shift = log[-1].pointer_mean if log else 0.0
    denominator = len(log) * g
    return ProtectiveRunResult(
        steps=n,
        coupling=g,
        pointer_mean_shift=shift,
        survival_probability=max(min(survival, 1.0), 0.0),
        inferred_expectation=shift / denominator if denominator != 0.0 else None,
        per_step_log=tuple(log),
        mode=mode,
        aborted_at_step=aborted,
        final_joint=joint,
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
    state. An orthogonal pair that passes every check of the run returns
    the explicit empty result: survival 0 and no surviving state.
    """
    run = _protective_loop(prepared, protected, op, n, g, grid, width, "deterministic", None)
    if run is None:
        return LeakResult(survival=0.0, surviving_state=None)
    surviving = (protected if n > 0 else prepared).amplitudes
    return LeakResult(survival=run.survival_probability,
                      surviving_state=StateVector.normalized(canonical_phase(surviving)))


# ---------------------------------------------------------------------------
# tomography from protective readouts

@dataclass(frozen=True, eq=False)
class TomographySet:
    """Expectation values of an informationally complete operator set.

    The operators, together with the identity (whose expectation is fixed
    at 1 by normalization), must span the real space of Hermitian matrices:
    their real embedding (`_real_embedding`, the one `reconstruct_state`
    solves in) must have rank dim^2. The bare Pauli triple passes for
    qubits on that reading.
    """

    operators: tuple
    expectations: tuple

    def __post_init__(self) -> None:
        ops = tuple(self.operators)
        exps = tuple(float(e) for e in self.expectations)
        if not ops:
            raise PreconditionError("tomography needs at least one operator")
        if len(ops) != len(exps):
            raise PreconditionError(
                f"{len(ops)} operators but {len(exps)} expectation values"
            )
        d = ops[0].dim
        if any(o.dim != d for o in ops):
            raise PreconditionError("tomography operators must share one dimension")
        stacked = _real_embedding([np.eye(d)] + [o.matrix for o in ops])
        rank = np.linalg.matrix_rank(stacked, tol=COMPLETENESS_RANK_TOL)
        if rank < d * d:
            raise PreconditionError(
                f"operator set is informationally incomplete: rank {rank} < {d * d}"
            )
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "expectations", exps)


def _real_embedding(matrices) -> np.ndarray:
    """Rows [Re vec M, Im vec M], one per matrix. For Hermitian A and B the
    dot product of their rows is tr(A B), the real Frobenius inner product."""
    flat = np.array([np.asarray(m, dtype=complex).reshape(-1) for m in matrices])
    return np.concatenate([flat.real, flat.imag], axis=1)


def reconstruct_state(data: TomographySet) -> StateVector:
    """Least-squares density matrix fit, then the dominant eigenvector.

    rho = 1/d + X with X traceless and Hermitian, and each readout asks
    tr(X T) = <A> - tr(A)/d of the traceless part T = A - tr(A)/d of its
    operator A. In the real embedding of `_real_embedding` that is one
    linear system, solved by one `np.linalg.lstsq`. Its minimum-norm
    solution is a combination of the rows, so X is traceless and Hermitian
    by construction; for an informationally complete set it is the unique
    least-squares fit.

    Raises NotPureError when the fitted density matrix has largest
    eigenvalue below 1 - NOT_PURE_TOL: the expectations describe something
    too mixed (noisy or inconsistent input) to report as a ket.
    """
    d = data.operators[0].dim
    identity = np.eye(d)
    traces = np.array([np.trace(op.matrix).real for op in data.operators])
    design = _real_embedding([op.matrix - t / d * identity
                              for op, t in zip(data.operators, traces)])
    x, *_ = np.linalg.lstsq(design, np.array(data.expectations) - traces / d, rcond=None)
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
    operator's run starts from |psi>. Returns the reconstructed state and
    the probability that the whole chain survived protection.
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
    reconstructed = reconstruct_state(TomographySet(operators, tuple(inferred)))
    return reconstructed, total_survival
