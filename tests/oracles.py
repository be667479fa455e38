"""Random instances, formulas and pointer readouts that only the tests use.

No `ketlab` command or public function needs these, so they live here as
the oracles the tests build states, observables and pointer readouts
from: the reference protective loop, the reference weak readout and the
coupling checks compare the package's kernels against them. The weak-value
formula is the oracle of `weak_pointer_shift` and the direct scan, the
postselected-cycle readout by inverse FFT and json's own indented encoder
those of `postselected_cycles` and `dump_json`, `amplitudes_from_json`
reads back the amplitudes an artifact stores, `traced_peak` weighs the
memory a sampler holds at once, and `reference_write_csv`, the row-by-row
writer `write_csv` replaced, is the oracle of its bytes and refusals.
`reference_haar_random_unitary` and `reference_overlap_preservation_check`,
the one-matrix bodies that `nogo`'s stacked draw replaced, are the oracles
of each row of a stack.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np

from ketlab.errors import InternalError, PreconditionError
from ketlab.hilbert import (HermitianOperator, StateVector, _box_muller, _checked_dim,
                            _number_array, haar_random_unitary, sigma_x, sigma_y, sigma_z)
from ketlab.measurement import GridWavefunction, JointSystemPointerState
from ketlab.pbr import UNITARY_TOL


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
    u = haar_random_unitary(dim, rng.random(2 * dim * dim))
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


def reference_write_csv(path, header, rows) -> None:
    """Write a CSV with a header row, each cell as its `str`: text as it
    is, an int or float by repr, so floats round-trip exactly. Fields must
    not contain commas or newlines."""
    lines = [",".join(map(str, header))]
    for row in rows:
        line = ",".join(map(str, row))
        if "\n" in line or line.count(",") >= max(len(row), 1):
            cell = next(c for c in map(str, row) if "," in c or "\n" in c)
            raise InternalError(f"CSV cell needs quoting, refusing: {cell!r}")
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_haar_random_unitary(dim: int, uniforms) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix (Mezzadri,
    Notices AMS 54, 592 (2007)), built from exactly 2 * dim**2 `uniforms`
    in [0, 1): entry (i, j) is `_box_muller` of uniforms i * dim + j and
    dim**2 + i * dim + j."""
    dim = _checked_dim(dim)
    u = _number_array(uniforms, "uniforms", shape=(2 * dim * dim,))
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise PreconditionError("uniforms must lie in [0, 1)")
    q, r = np.linalg.qr(_box_muller(*u.reshape(2, dim, dim)))
    # fix the phase ambiguity so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reference_overlap_preservation_check(u: np.ndarray, s1: StateVector, s2: StateVector,
                                         ready: StateVector) -> tuple[float, float]:
    """|<ready (x) s1 | ready (x) s2>| before and after one joint unitary,
    checked as one dim x dim matrix."""
    if s1.dim != s2.dim:
        raise PreconditionError(f"system dimension mismatch: {s1.dim} vs {s2.dim}")
    u = _number_array(u, "unitary", complex)
    dim = ready.dim * s1.dim
    if u.shape != (dim, dim):
        raise PreconditionError(
            f"unitary must be {dim}x{dim} for device {ready.dim} (x) system {s1.dim}, "
            f"got {u.shape}"
        )
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if dev > UNITARY_TOL:
        raise PreconditionError(
            f"matrix is not unitary: max |U^H U - 1| entry = {dev:.3e}"
        )
    v1 = np.kron(ready.amplitudes, s1.amplitudes)
    v2 = np.kron(ready.amplitudes, s2.amplitudes)
    before = float(abs(np.vdot(v1, v2)))
    after = float(abs(np.vdot(u @ v1, u @ v2)))
    return before, after
