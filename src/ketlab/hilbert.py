"""Dense complex state vectors and Hermitian observables.

Conventions, fixed package-wide:

* Tensor products are row-major with the leftmost factor most significant:
  the amplitude of ``|i> (x) |j>`` lives at index ``i * dim_b + j``.
* Global phase carries no physics. States are compared with
  `equal_up_to_phase`, never componentwise.
* hbar = 1 throughout.
* The qubit vocabulary lives here once: `QUBIT_KETS` maps the names "0",
  "1", "+" and "-" to their ket constructors, and `pauli` gives the one
  operator of each name "x", "y" and "z" per process, so every run and
  scenario that reads a Pauli shares its kept `eigen`.
* Operator checks are measured at the operator's scale: the Hermitian,
  reconstruction and imaginary-residue tolerances are multiplied by
  max(1, max |A_ij|), and the degeneracy tolerance by max(1, max |a_j|).
  At unit scale, the Paulis' included, they are the bare constants below.

Every type in this module is an immutable value (a `record` over
read-only arrays), so instances can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import cache, cached_property

import numpy as np

from . import record
from .errors import InternalError, PreconditionError

NORM_TOL = 1e-12           # allowed |sum |a|^2 - 1| at construction
HERMITIAN_TOL = 1e-12      # allowed max-entry |M - M^H| at construction, times _scale
EIGEN_TOL = 1e-10          # orthonormality tolerance; reconstruction's times _scale
DEGENERACY_TOL = 1e-10     # eigenvalues closer than this times _scale share an eigenspace
IMAG_RESIDUE_TOL = 1e-10   # expectation() aborts above this imaginary part times _scale
PHASE_TOL = 1e-10          # equal-up-to-phase tolerance on |<a|b>|
MAX_DIM = 4096             # desk-scale cap, system (x) pointer included


def _scale(values) -> float:
    """max(1, max |v|) over `values`: the factor that turns a unit-scale
    tolerance into one for an operator or spectrum of that size."""
    return max(1.0, float(np.max(np.abs(values))))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _checked_dim(value, what: str = "dim") -> int:
    """`value` as an int when it is an integer from 1 to MAX_DIM (see
    `_checked_count`), else PreconditionError."""
    return _checked_count(value, what, MAX_DIM, 1)


def _checked_count(value, what: str, high: int, low: int = 0) -> int:
    """`value` as an int when it is an integer from `low` to `high`,
    numpy's included, else PreconditionError (for a bool, a float and text
    too): the package's one rule for counts, sizes, indices and seeds."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not low <= int(value) <= high):
        raise PreconditionError(f"{what} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


_REAL = (int, float, np.integer, np.floating)
_COMPLEX = (*_REAL, complex, np.complexfloating)


def _is_number(value, types: tuple = _REAL) -> bool:
    """True for an instance of `types` that is not a bool: by default an
    int or a float, numpy's included."""
    return isinstance(value, types) and not isinstance(value, bool)


def _finite_real(value, what: str) -> float:
    """`value` as a float when it is a finite real number, else PreconditionError."""
    # an int past 1e308 compares exactly, where float() would overflow
    if not (_is_number(value) and abs(value) <= sys.float_info.max):
        raise PreconditionError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def _number_array(values, what: str, dtype: type = float, shape: tuple | None = None):
    """A fresh `dtype` array (float or complex) of finite numbers holding
    `values`, of exactly `shape` when one is given, else PreconditionError.

    An ndarray is checked by its dtype. Anything else is laid out by numpy
    as an object array, refused past 32 dimensions, then checked in one
    flat pass: every entry must be an int or a float, numpy's included, or
    a complex number when `dtype` is complex. Text, bools, None, ragged
    and deeper nesting are refused, as are ints past 1e308. Every entry
    of the built array must then be finite: NaN and infinities are
    refused before any arithmetic on them can warn."""
    types, kinds, name = ((_COMPLEX, "iufc", "numbers") if dtype is complex
                          else (_REAL, "iuf", "real numbers"))
    try:
        if not isinstance(values, np.ndarray):
            values = np.array(values, dtype=object)
        # numpy nests to 64 dimensions but iterates only 32: count them first
        ok = (values.ndim <= 32 and all(_is_number(v, types) for v in values.flat)
              if values.dtype == object else values.dtype.kind in kinds)
        arr = np.array(values, dtype=dtype) if ok else None
    except (ValueError, OverflowError):
        arr = None
    if arr is None:
        raise PreconditionError(f"{what} must hold {name}")
    if not np.isfinite(arr).all():
        raise PreconditionError(f"{what} must be finite")
    if shape is not None and arr.shape != shape:
        raise PreconditionError(f"expected shape {shape}, got {arr.shape}")
    return arr


def complex_json(values: np.ndarray) -> dict:
    """{"re": [...], "im": [...]}: the entries of `values` in row-major order."""
    flat = values.reshape(-1)
    return {"re": flat.real.tolist(), "im": flat.imag.tolist()}


@record
class StateVector:
    """Normalized ket over a finite-dimensional complex Hilbert space."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dim = _checked_dim(self.dim)
        amps = _number_array(self.amplitudes, "amplitudes", complex, (dim,))
        with np.errstate(over="ignore", invalid="ignore"):   # a huge entry fails below
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
        amps = _number_array(amplitudes, "amplitudes", complex).reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):   # huge entries give an infinite norm
            norm = float(np.linalg.norm(amps))
        if not 0.0 < norm < math.inf:
            raise PreconditionError(f"cannot normalize a vector of norm {norm!r}")
        return cls(len(amps), amps / norm)

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, **complex_json(self.amplitudes)}


@record
class HermitianOperator:
    """A dim x dim complex matrix equal to its own conjugate transpose."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = _checked_dim(self.dim)
        mat = _number_array(self.matrix, "matrix", complex, (dim, dim))
        with np.errstate(over="ignore", invalid="ignore"):   # a huge skew pair fails below
            dev = float(np.max(np.abs(mat - mat.conj().T)))
        tol = HERMITIAN_TOL * _scale(mat)
        if not dev <= tol:
            raise PreconditionError(
                f"matrix is not Hermitian: max |M - M^H| entry = {dev:.3e} (allowed {tol:.3e})"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", _readonly(mat))

    @cached_property
    def eigen(self) -> EigenDecomposition:
        """`eigendecompose(self)`, solved on the first read and kept: every
        run that couples a pointer to this operator shares one eigenbasis."""
        return eigendecompose(self)


@record
class EigenDecomposition:
    """Eigenvalues (ascending) and an orthonormal eigenbasis of an observable,
    the eigenvectors as the columns of `basis_matrix`, in order.

    Both follow the package's number rule (`_number_array`), so every
    entry is finite, and the eigenvalues must be sorted. The Gram matrix
    of the columns must be the identity: each column's norm^2 within
    NORM_TOL, as a `StateVector`'s is, and every other entry within
    EIGEN_TOL.
    """

    eigenvalues: tuple
    basis_matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _number_array(self.basis_matrix, "basis_matrix", complex)
        if mat.ndim != 2 or mat.shape[1] == 0:
            raise PreconditionError("basis_matrix must hold one eigenvector per column")
        _checked_dim(mat.shape[0], "basis dimension")
        vals = _number_array(self.eigenvalues, "eigenvalues", shape=mat.shape[1:])
        if not np.all(vals[1:] >= vals[:-1]):
            raise PreconditionError("eigenvalues must be sorted ascending")
        with np.errstate(over="ignore", invalid="ignore"):   # a huge entry fails below
            dev = np.abs(mat.conj().T @ mat - np.eye(len(vals)))
        norm_dev, gram_dev = float(np.max(np.diagonal(dev))), float(np.max(dev))
        if not (norm_dev <= NORM_TOL and gram_dev <= EIGEN_TOL):
            raise PreconditionError(
                f"eigenvectors not orthonormal: max norm^2 deviation {norm_dev:.3e} "
                f"(allowed {NORM_TOL}), max Gram deviation {gram_dev:.3e} (allowed {EIGEN_TOL})"
            )
        object.__setattr__(self, "eigenvalues", tuple(vals.tolist()))
        object.__setattr__(self, "basis_matrix", _readonly(mat))

    @property
    def dim(self) -> int:
        return self.basis_matrix.shape[0]

    @cached_property
    def groups(self) -> tuple:
        """Degenerate eigenvalues clustered within DEGENERACY_TOL times the
        spectrum's `_scale`.

        Returns ((value, (index, ...)), ...) with one entry per distinct
        outcome; `value` is the mean eigenvalue of the cluster. A cluster
        ends wherever two consecutive eigenvalues differ by more than
        that tolerance.
        """
        vals = np.array(self.eigenvalues)
        cuts = np.flatnonzero(np.diff(vals) > DEGENERACY_TOL * _scale(vals)) + 1
        return tuple((float(np.mean(vals[idx])), tuple(idx.tolist()))
                     for idx in np.split(np.arange(len(vals)), cuts))


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
    """<psi|op|psi>; any imaginary residue is checked against
    IMAG_RESIDUE_TOL times the operator's `_scale`, then discarded."""
    if op.dim != psi.dim:
        raise PreconditionError(f"dimension mismatch: operator {op.dim} vs state {psi.dim}")
    val = complex(np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes))
    tol = IMAG_RESIDUE_TOL * _scale(op.matrix)
    if not abs(val.imag) <= tol:
        raise InternalError(
            f"expectation value has imaginary residue {val.imag:.3e} (allowed {tol:.3e})"
        )
    return float(val.real)


def eigendecompose(op: HermitianOperator) -> EigenDecomposition:
    """Full eigendecomposition with ascending eigenvalues.

    The reconstruction sum_i a_i |v_i><v_i| is checked against the input
    to EIGEN_TOL times the operator's `_scale`; a failure there (a NaN
    included, or non-convergence) is an internal error, not a caller
    mistake.
    """
    try:
        vals, vecs = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise InternalError(
            f"eigendecomposition did not converge for matrix:\n{op.matrix!r}"
        ) from exc
    with np.errstate(over="ignore", invalid="ignore"):   # an inf or NaN fails below
        dev = float(np.max(np.abs((vecs * vals) @ vecs.conj().T - op.matrix)))
    if not dev <= EIGEN_TOL * _scale(op.matrix):
        raise InternalError(
            f"eigendecomposition reconstruction off by {dev:.3e} for matrix:\n{op.matrix!r}"
        )
    return EigenDecomposition(vals, vecs)


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
    dim = _checked_dim(dim)
    index = _checked_count(index, "basis index", dim - 1)
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
    """cos(theta)|0> + e^{i phi} sin(theta)|1>, for finite real theta and phi."""
    theta, phi = _finite_real(theta, "theta"), _finite_real(phi, "phi")
    return StateVector(
        2, np.array([math.cos(theta), cmath.exp(1j * phi) * math.sin(theta)])
    )


def sigma_x() -> HermitianOperator:
    return HermitianOperator(2, np.array([[0.0, 1.0], [1.0, 0.0]]))


def sigma_y() -> HermitianOperator:
    return HermitianOperator(2, np.array([[0.0, -1.0j], [1.0j, 0.0]]))


def sigma_z() -> HermitianOperator:
    return HermitianOperator(2, np.array([[1.0, 0.0], [0.0, -1.0]]))


# each read builds a fresh ket, as its constructor does
QUBIT_KETS = {"0": ket_zero, "1": ket_one, "+": ket_plus, "-": ket_minus}
# each builds its operator once: `pauli` gives one per name and process
_PAULIS = {"x": cache(sigma_x), "y": cache(sigma_y), "z": cache(sigma_z)}


def pauli(name: str) -> HermitianOperator:
    """The Pauli operator sigma_<name> for `name` 'x', 'y' or 'z': one
    instance per name and process, so every run and scenario that reads it
    shares its kept `eigen`. Any other name, one that is not text
    included, is a PreconditionError."""
    if not (isinstance(name, str) and name in _PAULIS):
        raise PreconditionError(f"a Pauli is named 'x', 'y' or 'z', got {name!r}")
    return _PAULIS[name]()


# ---------------------------------------------------------------------------
# random instances (tests, sweeps)

def _box_muller(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard complex normals sqrt(-2 log(1 - u)) e^(2 pi i v) from
    uniforms u and v in [0, 1) (Box-Muller): the real and imaginary parts
    of each are independent standard normals."""
    return np.sqrt(-2.0 * np.log1p(-u)) * np.exp(2j * np.pi * v)


def haar_random_unitary(dim: int, uniforms) -> np.ndarray:
    """Haar-distributed unitaries via QR of complex Ginibre matrices
    (Mezzadri, Notices AMS 54, 592 (2007)), one per row of `uniforms`, an
    array of shape (..., 2 * dim**2) in [0, 1): the result has shape
    (..., dim, dim), so one row gives one unitary and a stack of rows a
    stack of them, each bit for bit the unitary its row gives alone. Entry
    (i, j) is `_box_muller` of a row's uniforms i * dim + j and
    dim**2 + i * dim + j."""
    dim = _checked_dim(dim)
    u = _number_array(uniforms, "uniforms")
    if u.shape[-1:] != (2 * dim * dim,) or not np.all((u >= 0.0) & (u < 1.0)):
        raise PreconditionError(f"uniforms must be rows of {2 * dim * dim} numbers in [0, 1)")
    q, r = np.linalg.qr(_box_muller(*np.moveaxis(u.reshape(u.shape[:-1] + (2, dim, dim)), -3, 0)))
    # fix the phase ambiguity of each column so the distribution is exactly Haar
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
