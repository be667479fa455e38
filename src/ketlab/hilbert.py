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
import sys
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


def _checked_dim(value, what: str = "dim") -> int:
    """`value` as an int when it is an integer from 1 to MAX_DIM, numpy's
    included, else PreconditionError (for a bool, a float and text too)."""
    dim = _checked_count(value, what)
    if dim < 1:
        raise PreconditionError(f"{what} must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise PreconditionError(f"{what} {dim} exceeds the {MAX_DIM} cap")
    return dim


def _checked_count(value, what: str) -> int:
    """`value` as an int when it is a nonnegative integer, numpy's
    included, else PreconditionError (for a bool, a float and text too)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise PreconditionError(f"{what} must be an integer, got {value!r}")
    if value < 0:
        raise PreconditionError(f"{what} must be >= 0, got {value}")
    return int(value)


def _is_real(value) -> bool:
    """True for an int or float, numpy's included; False for a bool or text."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _finite_real(value, what: str) -> float:
    """`value` as a float when it is a finite real number, else PreconditionError."""
    # an int past 1e308 compares exactly, where float() would overflow
    if not (_is_real(value) and abs(value) <= sys.float_info.max):
        raise PreconditionError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _all_real(values) -> bool:
    """True when every entry of `values` is a real number: an ndarray by its
    dtype, nested lists entry by entry (JSON text and booleans would
    otherwise convert to numbers silently)."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf"
    if isinstance(values, (list, tuple)):
        return all(_all_real(v) for v in values)
    return _is_real(values)


def _real_array(values, what: str) -> np.ndarray:
    """`values` as a float array when it holds only real numbers, else
    PreconditionError (for a ragged input and ints past 1e308 too)."""
    try:
        if _all_real(values):
            return np.asarray(values, dtype=float)
    except (ValueError, OverflowError):
        pass
    raise PreconditionError(f"{what} must hold real numbers")


def _complex_array(values, shape: tuple) -> np.ndarray:
    """A fresh complex array of exactly `shape` holding `values`, else
    PreconditionError (for a ragged or non-numeric input too)."""
    try:
        arr = np.array(values, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"expected an array of numbers: {exc}") from None
    if arr.shape != shape:
        raise PreconditionError(f"expected shape {shape}, got {arr.shape}")
    return arr


def complex_json(values: np.ndarray) -> dict:
    """{"re": [...], "im": [...]}: the entries of `values` in row-major order."""
    flat = values.reshape(-1)
    return {"re": flat.real.tolist(), "im": flat.imag.tolist()}


def complex_from_json(data: dict, shape: tuple) -> np.ndarray:
    """The array of `shape` that `complex_json` stored in `data`, else
    PreconditionError."""
    size = (math.prod(shape),)
    re, im = (_complex_array(_real_array(_json_field(data, key), f"{key!r}"), size)
              for key in ("re", "im"))
    return (re + 1j * im).reshape(shape)


def _json_field(data: dict, key: str):
    if not isinstance(data, dict):
        raise PreconditionError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise PreconditionError(f"missing JSON field: {key}")
    return data[key]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized ket over a finite-dimensional complex Hilbert space."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dim = _checked_dim(self.dim)
        amps = _complex_array(self.amplitudes, (dim,))
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
        return {"dim": self.dim, **complex_json(self.amplitudes)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StateVector":
        dim = _checked_dim(_json_field(data, "dim"))
        return cls(dim, complex_from_json(data, (dim,)))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dim x dim complex matrix equal to its own conjugate transpose."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = _checked_dim(self.dim)
        mat = _complex_array(self.matrix, (dim, dim))
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if not dev <= HERMITIAN_TOL:
            raise PreconditionError(
                f"matrix is not Hermitian: max |M - M^H| entry = {dev:.3e}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", _readonly(mat))

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, **complex_json(self.matrix)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "HermitianOperator":
        dim = _checked_dim(_json_field(data, "dim"))
        return cls(dim, complex_from_json(data, (dim, dim)))


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
    dim = _checked_dim(a.dim * b.dim, "tensor dimension")
    return StateVector(dim, np.kron(a.amplitudes, b.amplitudes))


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


def equal_up_to_phase(a: StateVector, b: StateVector) -> bool:
    """True when |<a|b>| = 1 within PHASE_TOL (states differ by a global phase)."""
    return abs(abs(inner_product(a, b)) - 1.0) <= PHASE_TOL


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

def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))
