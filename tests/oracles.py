"""Random instances, formulas and pointer readouts that only the tests use.

No `ketlab` command or public function needs these, so they live here as
the oracles the tests build states, observables and pointer readouts
from: the reference protective loop, the reference weak readout and the
coupling checks compare the package's kernels against them. The weak-value
formula is the oracle of `weak_pointer_shift` and the direct scan, the
postselected-cycle readout by inverse FFT and json's own indented encoder
those of `postselected_cycles` and `dump_json`, `amplitudes_from_json`
reads back the amplitudes an artifact stores, and `traced_peak` weighs
the memory a sampler holds at once.
"""

import json
import tracemalloc

import numpy as np

from ketlab.hilbert import (HermitianOperator, StateVector, haar_random_unitary, sigma_x,
                            sigma_y, sigma_z)
from ketlab.measurement import GridWavefunction, JointSystemPointerState


def projector(psi: StateVector) -> HermitianOperator:
    """|psi><psi| as a HermitianOperator."""
    return HermitianOperator(psi.dim, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def pauli_operators() -> tuple:
    """(sigma_x, sigma_y, sigma_z): informationally complete for qubits."""
    return (sigma_x(), sigma_y(), sigma_z())


def weak_value(op: HermitianOperator, pre: StateVector, post: StateVector) -> complex:
    """<post|op|pre> / <post|pre>."""
    return complex(np.vdot(post.amplitudes, op.matrix @ pre.amplitudes)
                   / np.vdot(post.amplitudes, pre.amplitudes))


def amplitudes_from_json(data: dict) -> np.ndarray:
    """The flat complex amplitudes that `complex_json` stored in `data`."""
    return np.array(data["re"]) + 1j * np.array(data["im"])


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


def reference_postselected_cycle(spectra: np.ndarray, grid) -> tuple:
    """(phi, weights, means) of a (B, N) stack of pointer spectra, one per
    row, read the way `postselected_cycles` replaced: an inverse FFT per
    row, the density |phi|^2 and one `np.sum` per moment on the periodic
    grid. Means are relative to the grid centre."""
    phi = np.fft.ifft(spectra, axis=1)
    density = np.abs(phi) ** 2
    weights = np.sum(density, axis=1) * grid.spacing
    moments = np.sum(grid.positions * density, axis=1) * grid.spacing
    return phi, weights, moments / weights - grid.center


def canonical_json(value) -> str:
    """The text `dump_json` must write: json's own indented encoder."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def traced_peak(call) -> int:
    """Peak bytes that Python and numpy allocations reach, by tracemalloc,
    during `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
