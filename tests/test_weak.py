"""Weak values, postselected pointer shifts, and the direct scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ketlab.protective
from ketlab import (
    GridWavefunction,
    HermitianOperator,
    PostselectionError,
    PreconditionError,
    ScanUndefinedError,
    StateVector,
    UndefinedWeakValueError,
    WraparoundError,
    default_grid,
    direct_wavefunction_scan,
    inner_product,
    ket_minus,
    ket_one,
    ket_plus,
    ket_zero,
    make_pointer,
    momentum_zero_amplitude,
    qubit_state,
    sigma_x,
    sigma_z,
    weak_pointer_shift,
)
from ketlab.cli import _scan_input
from ketlab.measurement import PointerGrid, couple_pointer
from ketlab.protective import protective_measure
from oracles import haar_random_state, product_state, random_observable, weak_value


def gaussian_packet(grid, sigma, offset=0.0, phase=0.0):
    x = grid.positions
    amp = np.exp(-((x - offset) ** 2) / (4.0 * sigma**2)) * np.exp(1j * phase * x)
    amp /= math.sqrt(float(np.sum(np.abs(amp) ** 2)) * grid.spacing)
    return GridWavefunction(grid, amp)


def test_weak_value_plus_preselect_zero_postselect():
    # <0|sz|+> / <0|+> = (1/sqrt2) / (1/sqrt2)
    assert weak_value(sigma_z(), ket_plus(), ket_zero()) == pytest.approx(1.0)


@given(
    theta=st.floats(min_value=0.1, max_value=1.4),
    phi=st.floats(min_value=0.0, max_value=6.2),
)
def test_weak_value_reduces_to_expectation_when_post_equals_pre(theta, phi):
    psi = qubit_state(theta, phi)
    expected = math.cos(theta) ** 2 - math.sin(theta) ** 2
    value = weak_value(sigma_z(), psi, psi)
    assert value.real == pytest.approx(expected, abs=1e-12)
    assert abs(value.imag) < 1e-10


def test_weak_value_escapes_spectrum_near_orthogonal_postselection():
    """sigma_z has spectrum {-1, +1}; a weak value can sit a hundred times
    outside it when the postselection nearly misses the preparation."""
    pre = qubit_state(math.pi / 4.0 + 0.01, 0.0)
    value = weak_value(sigma_z(), pre, ket_minus())
    assert abs(value) > 50.0
    assert value.real == pytest.approx(-99.99666664444477, rel=1e-10)


def test_weak_value_is_linear_in_the_operator():
    pre = qubit_state(0.7, 0.4)
    post = qubit_state(1.1, 2.0)
    combined = HermitianOperator(2, 0.6 * sigma_z().matrix + 1.3 * sigma_x().matrix)
    lhs = weak_value(combined, pre, post)
    rhs = 0.6 * weak_value(sigma_z(), pre, post) + 1.3 * weak_value(sigma_x(), pre, post)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_weak_value_can_be_complex():
    assert abs(weak_value(sigma_x(), qubit_state(0.5, 1.0), ket_zero()).imag) > 0.1


def test_pointer_shift_approaches_real_weak_value():
    pre = qubit_state(0.9, 0.3)
    post = qubit_state(0.3, 1.1)
    grid = default_grid(1.0, n_points=512)
    target = weak_value(sigma_z(), pre, post).real
    errors = []
    for g in (1e-2, 1e-3):
        shift, _prob = weak_pointer_shift(pre, sigma_z(), post, g, grid, 1.0)
        errors.append(abs(shift / g - target))
    assert errors[1] < 1e-6
    assert errors[1] < errors[0] / 10.0


def test_pointer_shift_success_probability_tends_to_overlap_squared():
    pre = qubit_state(0.9, 0.3)
    post = qubit_state(0.3, 1.1)
    grid = default_grid(1.0, n_points=512)
    expected = abs(inner_product(post, pre)) ** 2
    _shift, prob = weak_pointer_shift(pre, sigma_z(), post, 1e-3, grid, 1.0)
    assert prob == pytest.approx(expected, abs=1e-6)


def test_pointer_shift_rejects_orthogonal_postselection():
    grid = default_grid(1.0, n_points=512)
    with pytest.raises(UndefinedWeakValueError):
        weak_pointer_shift(ket_zero(), sigma_z(), ket_one(), 1e-3, grid, 1.0)


def test_pointer_shift_rejects_vanishing_success_probability():
    # Overlap 1e-8 clears the weak-value gate, but the postselection
    # probability ~1e-16 lands below the statistics floor.
    grid = default_grid(1.0, n_points=512)
    amps = np.array([1.0, 1e-8], dtype=complex)
    pre = StateVector(2, amps / np.linalg.norm(amps))
    with pytest.raises(PostselectionError):
        weak_pointer_shift(pre, sigma_z(), ket_one(), 1e-6, grid, 1.0)


def reference_pointer_shift(psi, op, post, g, grid, width):
    """The former readout, kept as an oracle: build psi (x) pointer, couple
    the joint state, postselect the system on |post>."""
    joint = product_state(psi, make_pointer(grid, width))
    coupled = couple_pointer(joint, op, g)
    conditional = post.amplitudes.conj() @ coupled.amplitudes
    prob = float(np.sum(np.abs(conditional) ** 2) * grid.spacing)
    density = np.abs(conditional) ** 2
    mean = float(np.sum(grid.positions * density) * grid.spacing / prob)
    return mean - grid.center, prob


def test_pointer_shift_matches_the_joint_state_readout_on_random_cases():
    """One postselected cycle against the coupled joint state, on 120
    random cases: d = 2-4, random observable, pre- and postselection,
    coupling, grid size, width and grid center."""
    rng = np.random.default_rng(99)
    for _ in range(120):
        d = int(rng.integers(2, 5))
        pre, post = haar_random_state(d, rng), haar_random_state(d, rng)
        op = random_observable(d, rng, max_eigenvalue=float(rng.uniform(0.1, 3.0)))
        width = float(rng.uniform(0.5, 2.0))
        grid = PointerGrid(int(rng.choice([256, 512, 1024])), width / 8.0,
                           center=float(rng.uniform(-5.0, 5.0)))
        g = float(rng.choice([1e-4, 1e-2, rng.uniform(0.0, 1.0)]))
        args = (pre, op, post, g, grid, width)
        shift, prob = weak_pointer_shift(*args)
        ref_shift, ref_prob = reference_pointer_shift(*args)
        assert shift == pytest.approx(ref_shift, rel=0, abs=1e-12)
        assert prob == pytest.approx(ref_prob, rel=0, abs=1e-12)


def test_a_weak_readout_is_one_protective_cycle():
    """Postselecting on the preparation itself is what the first protection
    of a protective run does: the shift and the success probability are
    that cycle's pointer mean and survival."""
    psi = qubit_state(0.8, 0.3)
    grid = default_grid(1.0)
    shift, prob = weak_pointer_shift(psi, sigma_x(), psi, 0.05, grid, 1.0)
    run = protective_measure(psi, sigma_x(), n=1, g=0.05, grid=grid)
    assert shift == run.pointer_means[0]
    assert prob == run.survivals[0]


def test_pointer_shift_rejects_wraparound_and_dimension_mismatch():
    """A weak readout refuses what every protective run refuses, with the
    engine's own messages: a shift past a quarter of the grid, a mismatched
    operator, a nonzero g too small to resolve, and d * N above MAX_DIM."""
    grid = default_grid(1.0)    # extent 40, quarter 10
    with pytest.raises(WraparoundError):
        weak_pointer_shift(ket_plus(), sigma_z(), ket_zero(), 10.5, grid, 1.0)
    with pytest.raises(PreconditionError):
        weak_pointer_shift(ket_plus(), HermitianOperator(3, np.eye(3)), ket_zero(), 0.1,
                           grid, 1.0)
    with pytest.raises(PreconditionError, match="coupling g=1e-25 is too small to resolve"):
        weak_pointer_shift(ket_plus(), sigma_z(), ket_zero(), 1e-25, grid, 1.0)
    with pytest.raises(PreconditionError, match=r"joint dimension .* \[1, 4096\], got 8192"):
        weak_pointer_shift(ket_plus(), sigma_z(), ket_zero(), 0.1, PointerGrid(4096, 1.0 / 64.0),
                           1.0)


def test_a_dimension_mismatch_is_rejected_before_the_pointer_is_built(monkeypatch):
    def no_pointer(*args, **kwargs):
        raise AssertionError("the pointer was built for a mismatched readout")

    monkeypatch.setattr(ketlab.protective, "make_pointer", no_pointer)
    grid = default_grid(1.0)
    three = StateVector(3, np.array([1.0, 0.0, 0.0]))
    for psi, op, post in [(ket_zero(), HermitianOperator(3, np.eye(3)), ket_zero()),
                          (three, sigma_z(), ket_zero()),
                          (ket_zero(), sigma_z(), three)]:
        with pytest.raises(PreconditionError, match="dimension mismatch"):
            weak_pointer_shift(psi, op, post, 0.1, grid, 1.0)


def test_momentum_zero_amplitude_matches_gaussian_integral():
    grid = default_grid(1.0, n_points=512)
    chi = make_pointer(grid, 1.0)
    analytic = 2.0 * math.sqrt(math.pi) / (2.0 * math.pi) ** 0.25
    assert momentum_zero_amplitude(chi) == pytest.approx(analytic, abs=1e-12)


def test_scan_times_zero_momentum_amplitude_recovers_wavefunction():
    grid = default_grid(1.0, n_points=512)
    psi = gaussian_packet(grid, 1.3, offset=2.0, phase=0.7)
    scan = direct_wavefunction_scan(psi)
    rebuilt = scan * momentum_zero_amplitude(psi)
    np.testing.assert_allclose(rebuilt, psi.amplitudes, atol=1e-12)


def test_scan_rejects_odd_wavefunction():
    grid = default_grid(1.0, n_points=512)
    x = grid.positions
    amp = x * np.exp(-(x**2) / 2.0)
    amp = amp.astype(complex) / math.sqrt(float(np.sum(np.abs(amp) ** 2)) * grid.spacing)
    with pytest.raises(ScanUndefinedError):
        direct_wavefunction_scan(GridWavefunction(grid, amp))


def scan_accepts(profile, width, offset, separation, phase) -> bool:
    """Whether `direct_wavefunction_scan` accepts the profile `ketlab scan`
    builds from these flags, on its default grid of 512 points."""
    psi = _scan_input({"profile": profile, "width": width, "offset": offset,
                       "separation": separation, "phase": phase, "grid_points": 512})
    try:
        direct_wavefunction_scan(psi)
    except ScanUndefinedError:
        return False
    return True


@pytest.mark.parametrize("profile,phase,accepted", [
    ("gaussian", 0.0, True),
    ("double", 0.0, True),
    ("double", math.pi / 2.0, True),
    ("double", math.pi, False),    # the humps cancel in <p=0|psi>, leaving rounding
])
def test_the_scan_decision_holds_at_every_length_scale(profile, phase, accepted):
    for c in [10.0 ** k for k in range(-20, 21, 5)]:
        assert scan_accepts(profile, 1.3 * c, 0.7 * c, 3.0 * c, phase) is accepted, c


@settings(max_examples=60, deadline=None)
@given(profile=st.sampled_from(["gaussian", "double"]), width=st.floats(0.3, 3.0),
       offset=st.floats(-5.0, 5.0), separation=st.floats(0.5, 10.0),
       phase=st.sampled_from([0.0, 1.0, math.pi / 2.0, 2.5, math.pi, -math.pi]),
       exponent=st.integers(-20, 20))
def test_scaling_width_offset_and_separation_together_keeps_the_scan_decision(
        profile, width, offset, separation, phase, exponent):
    """Scaling every length of the profile by c scales psi by 1/sqrt(c) and
    both <p=0|psi> and sum |psi| h by sqrt(c), so the scan accepts or
    refuses the same profile at any c from 1e-20 to 1e20 (offset and
    separation in widths here)."""
    c = 10.0 ** exponent
    assert (scan_accepts(profile, width * c, offset * width * c, separation * width * c, phase)
            is scan_accepts(profile, width, offset * width, separation * width, phase))


def test_scan_agrees_with_cell_projector_weak_values():
    """Run the scan the long way on a small grid: preselect the state whose
    amplitudes are psi(x_j) sqrt(dx), postselect the flat vector, and take
    the weak value of each cell projector weighted 1/dx. Cell by cell this
    must reproduce direct_wavefunction_scan."""
    grid = default_grid(0.25, n_points=16)
    psi = gaussian_packet(grid, 0.3, offset=0.1, phase=0.4)
    dx = grid.spacing
    n = grid.n_points

    pre = StateVector(n, psi.amplitudes * math.sqrt(dx))
    post = StateVector(n, np.full(n, 1.0 / math.sqrt(n), dtype=complex))
    scan = direct_wavefunction_scan(psi)

    for j in range(n):
        cell = np.zeros((n, n), dtype=complex)
        cell[j, j] = 1.0 / dx
        got = weak_value(HermitianOperator(n, cell), pre, post)
        assert got == pytest.approx(scan[j], abs=1e-9)
