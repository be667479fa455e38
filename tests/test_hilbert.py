import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ketlab.errors import InternalError, PreconditionError
from ketlab.hilbert import (
    MAX_DIM,
    EigenDecomposition,
    HermitianOperator,
    StateVector,
    basis_state,
    eigendecompose,
    equal_up_to_phase,
    expectation,
    haar_random_unitary,
    inner_product,
    ket_minus,
    ket_one,
    ket_plus,
    ket_zero,
    pauli_operators,
    qubit_state,
    sigma_x,
    sigma_y,
    sigma_z,
    tensor,
)
from ketlab.measurement import JointSystemPointerState
from ketlab.ontology import OntologicalModel
from oracles import haar_random_state, projector, random_observable

angles = st.floats(-10.0, 10.0, allow_nan=False)
seeds = st.integers(0, 2 ** 32 - 1)


# ---------------------------------------------------------------------------
# construction and validation

def test_state_requires_unit_norm():
    with pytest.raises(PreconditionError):
        StateVector(2, np.array([1.0, 1.0]))


def test_state_rejects_nan_amplitudes():
    with pytest.raises(PreconditionError):
        StateVector(2, np.array([np.nan, 0.0]))


def test_state_requires_matching_length():
    with pytest.raises(PreconditionError):
        StateVector(3, np.array([1.0, 0.0]))


def test_state_rejects_dimension_cap():
    with pytest.raises(PreconditionError):
        StateVector(MAX_DIM + 1, np.zeros(MAX_DIM + 1))


def test_normalized_classmethod():
    psi = StateVector.normalized([3.0, 4.0])
    np.testing.assert_allclose(psi.amplitudes, [0.6, 0.8])
    with pytest.raises(PreconditionError):
        StateVector.normalized([0.0, 0.0])


def test_state_amplitudes_are_read_only():
    psi = ket_zero()
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_operator_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        HermitianOperator(2, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_state_json_round_trip():
    psi = qubit_state(0.7, 1.3)
    again = StateVector.from_json_dict(psi.to_json_dict())
    np.testing.assert_array_equal(psi.amplitudes, again.amplitudes)


def test_operator_json_round_trip():
    op = sigma_y()
    again = HermitianOperator.from_json_dict(op.to_json_dict())
    np.testing.assert_array_equal(op.matrix, again.matrix)


def test_json_rejects_missing_fields():
    with pytest.raises(PreconditionError):
        StateVector.from_json_dict({"dim": 2, "re": [1.0, 0.0]})
    with pytest.raises(PreconditionError):
        HermitianOperator.from_json_dict({"dim": 2, "re": [0.0] * 3, "im": [0.0] * 3})


def test_json_re_and_im_must_hold_real_numbers():
    with pytest.raises(PreconditionError, match="real numbers"):
        StateVector.from_json_dict({"dim": 1, "re": ["1j"], "im": [0.0]})
    # numeric text and booleans convert to numbers silently unless rejected
    for re, im in ((["0.6", "0.8"], [0, 0]), ([0.6, 0.8], [False, False]),
                   ([True, False], [0.0, 0.0]), ([0.6, None], [0.0, 0.0])):
        with pytest.raises(PreconditionError, match="real numbers"):
            StateVector.from_json_dict({"dim": 2, "re": re, "im": im})
    state = StateVector.from_json_dict({"dim": 2, "re": [0, 1], "im": [0.0, 0]})
    np.testing.assert_array_equal(state.amplitudes, [0.0, 1.0])



@pytest.mark.parametrize("dim,size", [(2.5, 2), (2.0, 2), ("2", 2), (True, 1)])
def test_json_readers_refuse_a_dim_that_is_not_an_integer(dim, size):
    """A dim read from JSON must be an integer: a float, numeric text or a
    bool is refused, not truncated, though the rest of the data would fit
    the dim it converts to."""
    unit = [1.0] + [0.0] * (size - 1)
    valid = [
        (StateVector, "dim", {"dim": size, "re": unit, "im": [0.0] * size}),
        (HermitianOperator, "dim",
         {"dim": size, "re": np.eye(size).ravel().tolist(), "im": [0.0] * size ** 2}),
        (JointSystemPointerState, "system_dim",
         {"system_dim": size, "grid": {"n_points": 16, "spacing": 1.0, "center": 0.0},
          "re": unit + [0.0] * (15 * size), "im": [0.0] * (16 * size)}),
    ]
    for cls, key, data in valid:
        assert getattr(cls.from_json_dict(data), key) == size
        with pytest.raises(PreconditionError, match=f"^{key} must be an integer"):
            cls.from_json_dict({**data, key: dim})
    with pytest.raises(PreconditionError, match="^dim must be an integer"):
        StateVector(dim, unit)

_JSON_KEYS = ["dim", "re", "im", "system_dim", "grid", "n_points", "spacing", "center",
              "lambda", "preparations", "responses"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.lists(st.integers(-2, 2) | st.floats(-1.0, 1.0), max_size=40),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(_JSON_KEYS) | st.text(max_size=3), children, max_size=6),
    max_leaves=24,
)


@pytest.mark.parametrize("cls", [StateVector, HermitianOperator, JointSystemPointerState,
                                 OntologicalModel])
@settings(max_examples=100, deadline=None)
@given(data=_json_values)
@example(data={"dim": "x", "re": [], "im": []})
@example(data={"dim": float("inf"), "re": [], "im": []})
@example(data={"dim": 1, "re": [[1.0]], "im": [[0.0]]})
@example(data={"dim": 1, "re": [10 ** 400], "im": [0]})
@example(data={"dim": 2, "re": [float("nan")] * 4, "im": [0.0] * 4})
@example(data={"system_dim": 2, "grid": {"n_points": 16, "spacing": 1.0},
               "re": [0.0] * 31, "im": [0.0] * 31})
@example(data={"system_dim": 1, "grid": {"n_points": 16, "spacing": "x"},
               "re": [0.5] * 16, "im": [0.0] * 16})
@example(data={"system_dim": 1, "grid": [16, 1.0], "re": [], "im": []})
@example(data={"lambda": ["a"], "preparations": {"p": [10 ** 400]}, "responses": {}})
def test_json_readers_return_a_value_or_raise_precondition_error(cls, data):
    """Whatever JSON a reader is handed, it builds a value of its type or
    rejects the input with PreconditionError, never another exception."""
    try:
        value = cls.from_json_dict(data)
    except PreconditionError:
        return
    assert isinstance(value, cls)


# ---------------------------------------------------------------------------
# inner products and tensor structure

def test_zero_plus_overlap_is_inverse_root_two():
    assert abs(inner_product(ket_zero(), ket_plus()) - 1.0 / math.sqrt(2.0)) < 1e-15


def test_tensor_index_convention_left_factor_most_significant():
    joint = tensor(basis_state(2, 1), basis_state(3, 2))
    assert joint.amplitudes[1 * 3 + 2] == 1.0
    assert np.sum(np.abs(joint.amplitudes)) == 1.0


def test_tensor_overlap_factorizes():
    a = tensor(ket_zero(), ket_plus())
    b = tensor(ket_plus(), ket_zero())
    assert abs(inner_product(a, b) - 0.5) < 1e-15


@given(seeds)
def test_inner_product_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = haar_random_state(4, rng)
    b = haar_random_state(4, rng)
    assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-12


def test_inner_product_dimension_mismatch():
    with pytest.raises(PreconditionError):
        inner_product(ket_zero(), basis_state(3, 0))


# ---------------------------------------------------------------------------
# expectations and eigenstructure

@given(angles, angles)
def test_expectation_matches_quadratic_form(theta, phi):
    psi = qubit_state(theta, phi)
    want = math.cos(theta) ** 2 - math.sin(theta) ** 2
    assert abs(expectation(sigma_z(), psi) - want) < 1e-12


def test_expectation_of_eigenstate_is_eigenvalue():
    assert abs(expectation(sigma_z(), ket_zero()) - 1.0) < 1e-15
    assert abs(expectation(sigma_x(), ket_minus()) + 1.0) < 1e-15


@given(seeds)
def test_eigendecompose_reconstructs_and_sorts(seed):
    rng = np.random.default_rng(seed)
    op = random_observable(3, rng)
    eig = eigendecompose(op)
    assert all(eig.eigenvalues[i] <= eig.eigenvalues[i + 1] for i in range(2))
    recon = (eig.basis_matrix * eig.eigenvalues) @ eig.basis_matrix.conj().T
    assert np.max(np.abs(recon - op.matrix)) < 1e-10


def test_eigendecomposition_rejects_unsorted_values():
    with pytest.raises(PreconditionError):
        EigenDecomposition((1.0, -1.0), (ket_zero(), ket_one()))


def test_eigendecomposition_rejects_non_orthonormal_vectors():
    with pytest.raises(PreconditionError):
        EigenDecomposition((0.0, 1.0), (ket_zero(), ket_plus()))


def test_degenerate_eigenvalues_group_together():
    eye = HermitianOperator(3, np.eye(3))
    groups = eigendecompose(eye).groups
    assert len(groups) == 1
    value, indices = groups[0]
    assert abs(value - 1.0) < 1e-12
    assert indices == (0, 1, 2)


def test_distinct_eigenvalues_stay_separate():
    groups = eigendecompose(sigma_z()).groups
    assert [v for v, _ in groups] == [-1.0, 1.0]


def test_projector_is_idempotent():
    p = projector(ket_plus())
    assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) < 1e-15


# ---------------------------------------------------------------------------
# phases and named states

def test_equal_up_to_phase_ignores_global_phase():
    psi = qubit_state(0.3, 0.4)
    rotated = StateVector(2, np.exp(0.77j) * psi.amplitudes)
    assert equal_up_to_phase(psi, rotated)
    assert not equal_up_to_phase(ket_zero(), ket_one())


def test_qubit_state_formula():
    psi = qubit_state(0.3, 1.1)
    np.testing.assert_allclose(
        psi.amplitudes,
        [math.cos(0.3), np.exp(1.1j) * math.sin(0.3)],
        atol=1e-15,
    )


def test_named_kets():
    np.testing.assert_allclose(ket_plus().amplitudes, [2 ** -0.5, 2 ** -0.5])
    np.testing.assert_allclose(ket_minus().amplitudes, [2 ** -0.5, -(2 ** -0.5)])
    assert basis_state(2, 0).amplitudes[0] == 1.0
    with pytest.raises(PreconditionError):
        basis_state(2, 2)


def test_pauli_operators_square_to_identity():
    for op in pauli_operators():
        assert np.max(np.abs(op.matrix @ op.matrix - np.eye(2))) < 1e-15


# ---------------------------------------------------------------------------
# random instances

@given(seeds)
def test_haar_unitary_is_unitary(seed):
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(4, rng)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


def test_haar_state_is_normalized(rng):
    psi = haar_random_state(8, rng)
    assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-12


@given(seeds)
def test_random_observable_spectrum_is_bounded(seed):
    rng = np.random.default_rng(seed)
    op = random_observable(3, rng, max_eigenvalue=0.7)
    vals = np.linalg.eigvalsh(op.matrix)
    assert np.all(np.abs(vals) <= 0.7 + 1e-12)


def test_expectation_rejects_imaginary_residue():
    # feed a non-Hermitian matrix through the dataclass by bypassing checks
    op = sigma_y()
    object.__setattr__(op, "matrix", np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InternalError):
        expectation(op, qubit_state(math.pi / 4.0, math.pi / 2.0))
