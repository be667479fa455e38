import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ketlab.hilbert
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
    qubit_state,
    record,
    sigma_x,
    sigma_y,
    sigma_z,
    tensor,
)
from ketlab.measurement import GridWavefunction, JointSystemPointerState, PointerGrid
from ketlab.ontology import OntologicalModel
from ketlab.pbr import overlap_preservation_check
from ketlab.rngs import uniform_chunks
from oracles import (amplitudes_from_json, haar_random_state, pauli_operators, projector,
                     random_observable, reference_haar_random_unitary)

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
    data = psi.to_json_dict()
    again = StateVector(data["dim"], amplitudes_from_json(data))
    np.testing.assert_array_equal(psi.amplitudes, again.amplitudes)


_GRID = PointerGrid(16, 1.0)
_VALUE_CONSTRUCTORS = {   # each builds a valid value from these entries, exact in complex64
    "state": ([0.5 + 0.5j, 0.5 - 0.5j], lambda e: StateVector(2, e)),
    "operator": ([1.0, 0.5j, -0.5j, 1], lambda e: HermitianOperator(2, [e[:2], e[2:]])),
    "wavefunction": ([0.5 + 0.5j, 0.5 - 0.5j] + [0] * 14, lambda e: GridWavefunction(_GRID, e)),
    "joint": ([0.5 + 0.5j, 0.5 - 0.5j] + [0.0] * 14,
              lambda e: JointSystemPointerState(1, _GRID, [e])),
    "normalized state": ([3, 4j], StateVector.normalized),
    "normalized wavefunction": ([3, 4j] + [0] * 14,
                                lambda e: GridWavefunction.normalized(_GRID, e)),
}


@pytest.mark.parametrize("name", list(_VALUE_CONSTRUCTORS))
def test_value_constructors_take_numbers_complex_ones_included(name):
    """Text, bools and None are not amplitudes, though numpy would convert
    the first two; Python and numpy complex numbers are."""
    entries, make = _VALUE_CONSTRUCTORS[name]
    make(entries)
    make([np.complex64(v) if isinstance(v, complex) else v for v in entries])
    for bad in ("0.6", True, np.bool_(True), None):
        with pytest.raises(PreconditionError, match="must hold numbers$"):
            make([bad, *entries[1:]])
    with pytest.raises(PreconditionError, match="must hold numbers$"):
        make(np.array(entries).astype(str))


_FINITE_CASES = {   # (entries, make, the index of the entry made non-finite)
    **{name: (*case, 0) for name, case in _VALUE_CONSTRUCTORS.items()},
    "operator off the diagonal": (*_VALUE_CONSTRUCTORS["operator"], 1),
    "eigenbasis": ([1.0, 0.0, 0.0, 1.0],
                   lambda e: EigenDecomposition((0.0, 1.0), [e[:2], e[2:]]), 0),
    "unitary": (np.eye(4).ravel().tolist(),
                lambda e: overlap_preservation_check(np.reshape(e, (4, 4)), ket_zero(), ket_plus(),
                                                     ket_zero()), 0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(_FINITE_CASES))
def test_a_non_finite_entry_is_refused_before_any_arithmetic(name, value):
    """NaN and infinities are refused by the number rule, as "<what> must
    be finite", before a norm, a Hermitian or a Gram check computes with
    them: a RuntimeWarning from that arithmetic fails the suite."""
    entries, make, index = _FINITE_CASES[name]
    make(entries)
    with pytest.raises(PreconditionError, match=" must be finite$"):
        make([value if i == index else e for i, e in enumerate(entries)])



@pytest.mark.parametrize("dim,size", [(2.5, 2), (2.0, 2), ("2", 2), (True, 1)])
def test_json_readers_refuse_a_dim_that_is_not_an_integer(dim, size):
    """A dim read from JSON goes to a constructor, which takes only an
    integer: a float, numeric text or a bool is refused, not truncated,
    though the amplitudes would fit the dim it converts to."""
    unit = [1.0] + [0.0] * (size - 1)
    joint = np.zeros((size, 16))
    joint[0, 0] = 1.0
    valid = [
        ("dim", lambda d: StateVector(d, unit)),
        ("dim", lambda d: HermitianOperator(d, np.eye(size))),
        ("system_dim", lambda d: JointSystemPointerState(d, PointerGrid(16, 1.0), joint)),
    ]
    for key, make in valid:
        assert getattr(make(size), key) == size
        with pytest.raises(PreconditionError, match=f"^{key} must be an integer"):
            make(dim)


@pytest.mark.parametrize("cls", [OntologicalModel])
@settings(max_examples=100, deadline=None)
@given(data=st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.lists(st.integers(-2, 2) | st.floats(-1.0, 1.0), max_size=40),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(["lambda", "preparations", "responses"]) | st.text(max_size=3),
        children, max_size=6),
    max_leaves=24,
))
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


def test_expectation_dimension_mismatch():
    with pytest.raises(PreconditionError, match="^dimension mismatch: operator 2 vs state 3$"):
        expectation(sigma_z(), basis_state(3, 0))


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
        EigenDecomposition((1.0, -1.0), np.eye(2))


def test_eigendecomposition_rejects_non_orthonormal_vectors():
    with pytest.raises(PreconditionError):
        EigenDecomposition((0.0, 1.0), np.column_stack([ket_zero().amplitudes,
                                                         ket_plus().amplitudes]))


def test_eigendecomposition_holds_its_eigenvalues_and_matrix():
    eig = EigenDecomposition(np.array([-1.0, 1.0]), [[1, 0], [0, 1j]])
    assert eig.eigenvalues == (-1.0, 1.0)
    assert all(type(v) is float for v in eig.eigenvalues)
    assert eig.basis_matrix.dtype == complex and not eig.basis_matrix.flags.writeable
    np.testing.assert_array_equal(eig.basis_matrix, [[1, 0], [0, 1j]])
    assert eig.dim == 2
    assert EigenDecomposition.__match_args__ == ("eigenvalues", "basis_matrix")
    # a partial basis: fewer columns than rows
    assert EigenDecomposition((1.0,), [[0.0], [1.0]]).dim == 2


def _off_norm(eps):
    """The standard qubit basis with the first column's norm^2 off by eps:
    a Gram deviation of eps, inside EIGEN_TOL, outside NORM_TOL."""
    mat = np.eye(2)
    mat[0, 0] = math.sqrt(1.0 + eps)
    return mat


@pytest.mark.parametrize("values,matrix", [
    pytest.param((0.0, 1.0), [[np.nan, 0.0], [0.0, 1.0]], id="nan-entry"),
    pytest.param((0.0, 1.0), np.full((2, 2), np.nan), id="nan-basis"),
    pytest.param((0.0, 1.0), _off_norm(5e-11), id="norm-off-by-5e-11"),
    pytest.param((0.0, 1.0), _off_norm(-5e-11), id="norm-short-by-5e-11"),
    pytest.param((0.0, 1.0), [[1.0, 2e-10], [0.0, 1.0]], id="pair-off-orthogonal-by-2e-10"),
    pytest.param((0.0, 1.0, 2.0), np.eye(2), id="more-eigenvalues-than-columns"),
    pytest.param((0.0,), np.eye(2), id="more-columns-than-eigenvalues"),
    pytest.param((), np.zeros((2, 0)), id="no-eigenvalues"),
    pytest.param((0.0, 1.0), (ket_zero(), ket_one()), id="tuple-of-kets"),
    pytest.param((0.0, 1.0), [1.0, 0.0], id="one-dimensional"),
    pytest.param((0.0, 1.0), np.eye(2)[None], id="three-dimensional"),
    pytest.param((0.0, 1.0), [["1", 0], [0, 1]], id="text-entry"),
    pytest.param((0.0, 1.0), [[True, False], [False, True]], id="bool-entries"),
    pytest.param((np.nan, 1.0), np.eye(2), id="nan-eigenvalue"),
    pytest.param((0.0, np.inf), np.eye(2), id="infinite-eigenvalue"),
    pytest.param(("0", "1"), np.eye(2), id="text-eigenvalues"),
    pytest.param((False, True), np.eye(2), id="bool-eigenvalues"),
    pytest.param(((0.0, 1.0),), np.eye(2), id="nested-eigenvalues"),
    pytest.param((0.0,), np.eye(MAX_DIM + 1, 1), id="rows-past-max-dim"),
])
def test_eigendecomposition_refuses_a_bad_basis(values, matrix):
    with pytest.raises(PreconditionError):
        EigenDecomposition(values, matrix)


def test_eigendecomposition_accepts_a_norm_inside_the_tolerance():
    assert EigenDecomposition((0.0, 1.0), _off_norm(5e-13)).dim == 2


@pytest.mark.parametrize("values,want", [
    ((1.0,), ((1.0, (0,)),)),
    ((0.0, 5e-11, 1.0, 1.0 + 9e-11, 1.0 + 1.8e-10, 3.0),
     ((2.5e-11, (0, 1)), (np.mean([1.0, 1.0 + 9e-11, 1.0 + 1.8e-10]), (2, 3, 4)),
      (3.0, (5,)))),
    ((0.0, 2e-10, 4e-10), ((0.0, (0,)), (2e-10, (1,)), (4e-10, (2,)))),
])
def test_groups_chain_consecutive_eigenvalues_within_the_tolerance(values, want):
    """A cluster ends only where two consecutive eigenvalues differ by more
    than DEGENERACY_TOL, so a chain of close steps spans more than it."""
    groups = EigenDecomposition(values, np.eye(len(values))).groups
    assert groups == want
    assert all(type(v) is float and all(type(i) is int for i in idx) for v, idx in groups)


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


@pytest.mark.parametrize("theta,phi", [
    ("a", 0.0), (None, 0.0), (math.inf, 0.0), (True, 0.0), (10 ** 400, 0.0),
    (0.3, math.nan), (0.3, "0"), (0.3, False), (0.3, [1.0]),
], ids=["text", "none", "inf", "bool", "int-past-1e308", "nan-phi", "text-phi", "bool-phi",
        "list-phi"])
def test_qubit_state_angles_must_be_finite_real_numbers(theta, phi):
    with pytest.raises(PreconditionError, match="must be a finite real number"):
        qubit_state(theta, phi)


def test_named_kets():
    np.testing.assert_allclose(ket_plus().amplitudes, [2 ** -0.5, 2 ** -0.5])
    np.testing.assert_allclose(ket_minus().amplitudes, [2 ** -0.5, -(2 ** -0.5)])
    assert basis_state(2, 0).amplitudes[0] == 1.0
    with pytest.raises(PreconditionError):
        basis_state(2, 2)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: basis_state(2, 1.0), id="basis-float-index"),
    pytest.param(lambda: basis_state(2, True), id="basis-bool-index"),
    pytest.param(lambda: basis_state(2, -1), id="basis-negative-index"),
    pytest.param(lambda: basis_state(2.0, 1), id="basis-float-dim"),
    pytest.param(lambda: basis_state(0, 0), id="basis-zero-dim"),
    pytest.param(lambda: haar_random_unitary(2.0, np.zeros(8)), id="haar-float-dim"),
    pytest.param(lambda: haar_random_unitary(True, np.zeros(2)), id="haar-bool-dim"),
    pytest.param(lambda: haar_random_unitary(0, np.zeros(0)), id="haar-zero-dim"),
    pytest.param(lambda: haar_random_unitary(MAX_DIM + 1, np.zeros(0)),
                 id="haar-dim-past-max"),
])
def test_integer_arguments_are_checked(call):
    with pytest.raises(PreconditionError):
        call()


def test_numpy_integer_arguments_build_the_same_values():
    np.testing.assert_array_equal(basis_state(np.int64(3), np.uint8(2)).amplitudes,
                                  basis_state(3, 2).amplitudes)
    uniforms = np.random.default_rng(4).random(18)
    np.testing.assert_array_equal(haar_random_unitary(np.int32(3), uniforms),
                                  haar_random_unitary(3, uniforms))


def test_pauli_operators_square_to_identity():
    for op in pauli_operators():
        assert np.max(np.abs(op.matrix @ op.matrix - np.eye(2))) < 1e-15


def test_the_pauli_builders_return_new_operators():
    """A caller may corrupt its own operator (as the imaginary-residue test
    does) without reaching anyone else's, or anyone else's kept eigenbasis."""
    for build in (sigma_x, sigma_y, sigma_z):
        assert build() is not build()


def test_an_operator_keeps_one_read_only_eigenbasis():
    op = HermitianOperator(3, np.diag([2.0, -1.0, 0.5]))
    eig = op.eigen
    assert op.eigen is eig
    assert eig.eigenvalues == eigendecompose(op).eigenvalues == (-1.0, 0.5, 2.0)
    np.testing.assert_array_equal(eig.basis_matrix, eigendecompose(op).basis_matrix)
    assert not eig.basis_matrix.flags.writeable
    assert sigma_z().eigen is not sigma_z().eigen


# ---------------------------------------------------------------------------
# random instances

@given(seeds)
def test_haar_unitary_is_unitary(seed):
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(4, rng.random(32))
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


@pytest.mark.parametrize("uniforms", [
    pytest.param(np.full(7, 0.5), id="too-few"),
    pytest.param(np.full(9, 0.5), id="too-many"),
    pytest.param(np.full((2, 4), 0.5), id="not-flat"),
    pytest.param(np.append(np.full(7, 0.5), 1.0), id="one"),
    pytest.param(np.append(np.full(7, 0.5), -0.25), id="negative"),
    pytest.param(np.append(np.full(7, 0.5), np.nan), id="nan"),
    pytest.param(["0.5"] * 8, id="text"),
    pytest.param(np.random.default_rng(0), id="generator"),
    pytest.param(np.full((3, 7), 0.5), id="stack-too-few"),
    pytest.param(np.append(np.full(23, 0.5), 1.0).reshape(3, 8), id="stack-last-row-one"),
    pytest.param(np.float64(0.5), id="scalar"),
])
def test_haar_unitaries_take_two_dim_squared_uniforms_in_the_unit_interval(uniforms):
    with pytest.raises(PreconditionError, match=r"^uniforms must (be rows of 8 |hold |be finite$)"):
        haar_random_unitary(2, uniforms)


def test_nested_lists_take_the_array_path_up_to_numpys_32_dimensions():
    """A stack of uniform rows as nested lists gives the unitaries the
    array gives. numpy iterates at most 32 dimensions, so a list nested 33
    deep is refused as not numbers, and one nested 32 deep is taken."""
    (u,) = uniform_chunks(0, 0, 3, 8)
    np.testing.assert_array_equal(haar_random_unitary(2, u.tolist()), haar_random_unitary(2, u))
    deep = 0.5
    for _ in range(32):
        deep = [deep]
    assert ketlab.hilbert._number_array(deep, "x").shape == (1,) * 32
    with pytest.raises(PreconditionError, match="^x must hold real numbers$"):
        ketlab.hilbert._number_array([deep], "x")


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_a_stack_of_uniform_rows_gives_each_rows_unitary_bit_for_bit(dim, rows):
    """One stacked QR and phase fix give row i the unitary the one-matrix
    oracle builds from row i alone, to the bit, and one row alone gives
    one unitary."""
    (uniforms,) = uniform_chunks(dim, 0, rows, 2 * dim * dim)
    stack = haar_random_unitary(dim, uniforms)
    assert stack.shape == (rows, dim, dim)
    for row, u in zip(uniforms, stack):
        assert u.tobytes() == reference_haar_random_unitary(dim, row).tobytes()
    one = haar_random_unitary(dim, uniforms[-1])
    assert one.shape == (dim, dim)
    assert one.tobytes() == stack[-1].tobytes()


def test_an_empty_stack_of_uniform_rows_gives_an_empty_stack():
    assert haar_random_unitary(3, np.zeros((0, 18))).shape == (0, 3, 3)


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
    # feed a non-Hermitian matrix through the record by bypassing checks
    op = sigma_y()
    object.__setattr__(op, "matrix", np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InternalError):
        expectation(op, qubit_state(math.pi / 4.0, math.pi / 2.0))


# ---------------------------------------------------------------------------
# records

@record
class Pair:
    first: int
    second: str = "b"
    third: tuple = ()


def test_a_record_takes_its_fields_by_position_keyword_or_default():
    assert vars(Pair(1, "x", (2,))) == {"first": 1, "second": "x", "third": (2,)}
    assert vars(Pair(third=(3,), first=1)) == {"first": 1, "second": "b", "third": (3,)}
    assert vars(Pair(1, third=(4,))) == {"first": 1, "second": "b", "third": (4,)}
    assert vars(Pair(1)) == {"first": 1, "second": "b", "third": ()}
    assert Pair.__match_args__ == ("first", "second", "third")


@pytest.mark.parametrize("args,kwargs", [
    ((), {}),                         # a missing field
    ((), {"second": "x"}),            # a missing field, with others given
    ((1,), {"fourth": 4}),            # an unknown field
    ((1,), {"first": 2}),             # a field given twice
    ((1, "x", (), 4), {}),            # too many positional arguments
], ids=["none", "missing", "unknown", "repeated", "too-many"])
def test_a_record_refuses_a_bad_set_of_fields(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_a_record_needs_fields_of_its_own():
    """A class that annotates nothing, a subclass of a record included,
    is refused rather than made a record with no fields."""
    with pytest.raises(TypeError, match="annotates no fields"):
        record(type("Empty", (), {}))
    with pytest.raises(TypeError, match="annotates no fields"):
        record(type("MorePair", (Pair,), {}))


@pytest.mark.parametrize("make", [lambda: Pair(1), ket_zero], ids=["record", "StateVector"])
def test_a_record_refuses_assignment_and_deletion(make):
    value = make()
    name = type(value).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, 2)
    with pytest.raises(AttributeError):
        setattr(value, "new_attribute", 2)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert name in vars(value) and "new_attribute" not in vars(value)


def test_post_init_runs_and_may_set_fields_through_object_setattr():
    @record
    class Doubled:
        value: int

        def __post_init__(self):
            object.__setattr__(self, "value", 2 * self.value)
            object.__setattr__(self, "derived", self.value + 1)

    doubled = Doubled(3)
    assert (doubled.value, doubled.derived) == (6, 7)
    assert Doubled(value=4).value == 8


def test_an_operator_solves_its_eigenbasis_once(monkeypatch):
    calls = []
    solve = ketlab.hilbert.eigendecompose
    monkeypatch.setattr(ketlab.hilbert, "eigendecompose", lambda op: calls.append(op) or solve(op))
    op = sigma_x()
    assert op.eigen is op.eigen is op.eigen
    assert calls == [op]
    assert sigma_x().eigen is not op.eigen     # another instance solves its own
    assert len(calls) == 2
