"""Dense complex state vectors and Hermitian observables.

Conventions, fixed package-wide:

* Tensor products are row-major with the leftmost factor most significant:
  the amplitude of ``|i> (x) |j>`` lives at index ``i * dim_b + j``.
* Global phase carries no physics. States are compared with
  `equal_up_to_phase`, never componentwise.
* hbar = 1 throughout.

Every type in this module is an immutable value (frozen dataclass over
read-only arrays), so instances can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalError, PreconditionError

NORM_TOL = 1e-12           # allowed |sum |a|^2 - 1| at construction
HERMITIAN_TOL = 1e-12      # allowed max-entry |M - M^H| at construction
EIGEN_TOL = 1e-10          # reconstruction / orthonormality tolerance
DEGENERACY_TOL = 1e-10     # eigenvalues closer than this share an eigenspace
IMAG_RESIDUE_TOL = 1e-10   # expectation() aborts above this imaginary part
PHASE_TOL = 1e-10          # equal-up-to-phase tolerance on |<a|b>|
MAX_DIM = 4096             # desk-scale cap, system (x) pointer included


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized ket over a finite-dimensional complex Hilbert space."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dim = int(self.dim)
        if dim < 1:
            raise PreconditionError(f"dim must be >= 1, got {dim}")
        if dim > MAX_DIM:
            raise PreconditionError(f"dim {dim} exceeds the {MAX_DIM} cap")
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (dim,):
            raise PreconditionError(
                f"expected {dim} amplitudes, got shape {np.shape(self.amplitudes)}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise PreconditionError(
                f"state norm^2 = {norm_sq!r} differs from 1 by more than {NORM_TOL}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build a state from unnormalized amplitudes."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(amps))
        if norm <= 0.0:
            raise PreconditionError("cannot normalize an all-zero vector")
        return cls(len(amps), amps / norm)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "re": [float(a.real) for a in self.amplitudes],
            "im": [float(a.imag) for a in self.amplitudes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "StateVector":
        dim, re, im = _unpack_json(data, expect_len=None)
        if len(re) != dim:
            raise PreconditionError(f"state of dim {dim} needs {dim} amplitudes, got {len(re)}")
        return cls(dim, np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dim x dim complex matrix equal to its own conjugate transpose."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = int(self.dim)
        if dim < 1:
            raise PreconditionError(f"dim must be >= 1, got {dim}")
        if dim > MAX_DIM:
            raise PreconditionError(f"dim {dim} exceeds the {MAX_DIM} cap")
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise PreconditionError(
                f"expected a {dim}x{dim} matrix, got shape {np.shape(self.matrix)}"
            )
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > HERMITIAN_TOL:
            raise PreconditionError(
                f"matrix is not Hermitian: max |M - M^H| entry = {dev:.3e}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", _readonly(mat))

    def to_json_dict(self) -> dict:
        flat = self.matrix.reshape(-1)
        return {
            "dim": self.dim,
            "re": [float(a.real) for a in flat],
            "im": [float(a.imag) for a in flat],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HermitianOperator":
        dim, re, im = _unpack_json(data, expect_len=None)
        if len(re) != dim * dim:
            raise PreconditionError(
                f"operator of dim {dim} needs {dim * dim} entries, got {len(re)}"
            )
        mat = (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)).reshape(dim, dim)
        return cls(dim, mat)


def _unpack_json(data: dict, expect_len) -> tuple[int, list, list]:
    if not isinstance(data, dict):
        raise PreconditionError(f"expected a JSON object, got {type(data).__name__}")
    missing = {"dim", "re", "im"} - set(data)
    if missing:
        raise PreconditionError(f"missing JSON fields: {sorted(missing)}")
    dim = int(data["dim"])
    re, im = data["re"], data["im"]
    if len(re) != len(im):
        raise PreconditionError(f"re/im length mismatch: {len(re)} vs {len(im)}")
    return dim, re, im


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and an orthonormal eigenbasis of an observable."""

    eigenvalues: tuple
    eigenvectors: tuple

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.eigenvalues)
        vecs = tuple(self.eigenvectors)
        if len(vals) != len(vecs) or not vecs:
            raise PreconditionError("need one eigenvector per eigenvalue")
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise PreconditionError("eigenvalues must be sorted ascending")
        dims = {v.dim for v in vecs}
        if len(dims) != 1:
            raise PreconditionError(f"eigenvectors of mixed dimension: {sorted(dims)}")
        mat = np.column_stack([v.amplitudes for v in vecs])
        gram = mat.conj().T @ mat
        dev = float(np.max(np.abs(gram - np.eye(len(vecs)))))
        if dev > EIGEN_TOL:
            raise PreconditionError(
                f"eigenvectors not orthonormal: max Gram deviation {dev:.3e}"
            )
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvectors[0].dim

    @cached_property
    def basis_matrix(self) -> np.ndarray:
        """Eigenvectors as columns, in eigenvalue order."""
        return _readonly(np.column_stack([v.amplitudes for v in self.eigenvectors]))

    @cached_property
    def groups(self) -> tuple:
        """Degenerate eigenvalues clustered within DEGENERACY_TOL.

        Returns ((value, (index, ...)), ...) with one entry per distinct
        outcome; `value` is the mean eigenvalue of the cluster.
        """
        out = []
        current = [0]
        for i in range(1, len(self.eigenvalues)):
            if self.eigenvalues[i] - self.eigenvalues[current[-1]] <= DEGENERACY_TOL:
                current.append(i)
            else:
                out.append(current)
                current = [i]
        out.append(current)
        return tuple(
            (float(np.mean([self.eigenvalues[i] for i in idx])), tuple(idx))
            for idx in out
        )


# ---------------------------------------------------------------------------
# operations

def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise PreconditionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """a (x) b with the leftmost factor most significant."""
    if a.dim * b.dim > MAX_DIM:
        raise PreconditionError(
            f"tensor dimension {a.dim * b.dim} exceeds the {MAX_DIM} cap"
        )
    return StateVector(a.dim * b.dim, np.kron(a.amplitudes, b.amplitudes))


def expectation(op: HermitianOperator, psi: StateVector) -> float:
    """<psi|op|psi>; any imaginary residue is checked, then discarded."""
    if op.dim != psi.dim:
        raise PreconditionError(f"dimension mismatch: operator {op.dim} vs state {psi.dim}")
    val = complex(np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes))
    if abs(val.imag) >= IMAG_RESIDUE_TOL:
        raise InternalError(
            f"expectation value has imaginary residue {val.imag:.3e} (>= {IMAG_RESIDUE_TOL})"
        )
    return float(val.real)


def projector(psi: StateVector) -> HermitianOperator:
    """|psi><psi| as a HermitianOperator."""
    return HermitianOperator(psi.dim, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def eigendecompose(op: HermitianOperator) -> EigenDecomposition:
    """Full eigendecomposition with ascending eigenvalues.

    The reconstruction sum_i a_i |v_i><v_i| is checked against the input
    to EIGEN_TOL; a failure there (or non-convergence) is an internal
    error, not a caller mistake.
    """
    try:
        vals, vecs = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise InternalError(
            f"eigendecomposition did not converge for matrix:\n{op.matrix!r}"
        ) from exc
    recon = (vecs * vals) @ vecs.conj().T
    dev = float(np.max(np.abs(recon - op.matrix)))
    if dev > EIGEN_TOL:
        raise InternalError(
            f"eigendecomposition reconstruction off by {dev:.3e} for matrix:\n{op.matrix!r}"
        )
    states = tuple(StateVector(op.dim, vecs[:, i]) for i in range(op.dim))
    return EigenDecomposition(tuple(float(v) for v in vals), states)


def equal_up_to_phase(a: StateVector, b: StateVector, tol: float = PHASE_TOL) -> bool:
    """True when |<a|b>| = 1 within tol (states differ by a global phase)."""
    return abs(abs(inner_product(a, b)) - 1.0) <= tol


def canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the largest-magnitude component onto the positive real axis."""
    pivot = vec[int(np.argmax(np.abs(vec)))]
    if abs(pivot) == 0.0:
        return vec
    return vec * (abs(pivot) / pivot)


# ---------------------------------------------------------------------------
# common states and observables

def basis_state(dim: int, index: int) -> StateVector:
    if not 0 <= index < dim:
        raise PreconditionError(f"basis index {index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(dim, amps)


def ket_zero() -> StateVector:
    return basis_state(2, 0)


def ket_one() -> StateVector:
    return basis_state(2, 1)


def ket_plus() -> StateVector:
    return StateVector(2, np.array([1.0, 1.0]) / math.sqrt(2.0))


def ket_minus() -> StateVector:
    return StateVector(2, np.array([1.0, -1.0]) / math.sqrt(2.0))


def qubit_state(theta: float, phi: float = 0.0) -> StateVector:
    """cos(theta)|0> + e^{i phi} sin(theta)|1>."""
    return StateVector(
        2, np.array([math.cos(theta), cmath.exp(1j * phi) * math.sin(theta)])
    )


def sigma_x() -> HermitianOperator:
    return HermitianOperator(2, np.array([[0.0, 1.0], [1.0, 0.0]]))


def sigma_y() -> HermitianOperator:
    return HermitianOperator(2, np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def sigma_z() -> HermitianOperator:
    return HermitianOperator(2, np.array([[1.0, 0.0], [0.0, -1.0]]))


def pauli_operators() -> tuple:
    """(sigma_x, sigma_y, sigma_z): informationally complete for qubits."""
    return (sigma_x(), sigma_y(), sigma_z())


# ---------------------------------------------------------------------------
# random instances (tests, sweeps)

def haar_random_state(dim: int, rng: np.random.Generator) -> StateVector:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector.normalized(z)


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_observable(dim: int, rng: np.random.Generator,
                      max_eigenvalue: float = 1.0) -> HermitianOperator:
    """Random Hermitian with Haar eigenvectors and spectrum in [-m, m]."""
    u = haar_random_unitary(dim, rng)
    vals = rng.uniform(-max_eigenvalue, max_eigenvalue, size=dim)
    return HermitianOperator(dim, (u * vals) @ u.conj().T)
