"""Random instances and pointer readouts that only the tests use.

No `ketlab` command or public function needs these, so they live here as
the oracles the tests build states, observables and pointer readouts
from: the reference protective loop, the reference weak readout and the
coupling checks compare the package's kernels against them.
"""

import numpy as np

from ketlab.hilbert import HermitianOperator, StateVector, haar_random_unitary
from ketlab.measurement import GridWavefunction, JointSystemPointerState


def projector(psi: StateVector) -> HermitianOperator:
    """|psi><psi| as a HermitianOperator."""
    return HermitianOperator(psi.dim, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def haar_random_state(dim: int, rng: np.random.Generator) -> StateVector:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.normalized(z)


def random_observable(dim: int, rng: np.random.Generator,
                      max_eigenvalue: float = 1.0) -> HermitianOperator:
    """Random Hermitian with Haar eigenvectors and spectrum in [-m, m]."""
    u = haar_random_unitary(dim, rng)
    vals = rng.uniform(-max_eigenvalue, max_eigenvalue, size=dim)
    return HermitianOperator(dim, (u * vals) @ u.conj().T)


def product_state(system: StateVector, pointer: GridWavefunction) -> JointSystemPointerState:
    """system (x) pointer as a joint state."""
    return JointSystemPointerState(
        system.dim, pointer.grid, np.outer(system.amplitudes, pointer.amplitudes)
    )


def pointer_marginal(joint: JointSystemPointerState) -> np.ndarray:
    """Position probability density of the pointer (sums to 1 over dx)."""
    return np.sum(np.abs(joint.amplitudes) ** 2, axis=0)


def pointer_position_mean(joint: JointSystemPointerState) -> float:
    """First moment of the pointer position distribution."""
    density = pointer_marginal(joint)
    return float(np.sum(joint.grid.positions * density) * joint.grid.spacing)
