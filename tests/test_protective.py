"""Protective measurement: adiabatic-style expectation readout by repeated
weak coupling plus projection back onto the protected state."""

import math
import re
from typing import NamedTuple

import numpy as np
import pytest

import ketlab.protective
from ketlab import (
    HermitianOperator,
    NotPureError,
    PreconditionError,
    StateVector,
    TomographySet,
    WraparoundError,
    default_grid,
    equal_up_to_phase,
    expectation,
    ket_one,
    ket_plus,
    ket_zero,
    protection_leak,
    protective_measure,
    protective_tomography,
    qubit_state,
    reconstruct_state,
    sigma_x,
    sigma_y,
    sigma_z,
    substream,
    weak_pointer_shift,
)
from ketlab.hilbert import eigendecompose
from ketlab.measurement import (
    BLOCK_ELEMENTS,
    JointSystemPointerState,
    PointerGrid,
    couple_pointer,
    make_pointer,
)
from ketlab.protective import _protective_loop
from ketlab.serialize import dump_json, load_json
from oracles import (haar_random_state, pauli_operators, pointer_position_mean, product_state,
                     random_observable, traced_peak)


@pytest.fixture
def tilted_state():
    return qubit_state(math.pi / 6.0, 0.0)


def test_eigenstate_run_is_exact():
    run = protective_measure(ket_zero(), sigma_z(), n=50, g=0.01)
    assert run.inferred_expectation == pytest.approx(1.0, abs=1e-12)
    assert run.survival_probability == pytest.approx(1.0, abs=1e-12)
    assert run.aborted_at_step is None


def test_eigenstate_run_is_exact_at_the_guard_edge():
    """The smallest extent the pointer allows (20 widths) at the full shift
    the wraparound guard allows (a quarter of it): the shifted pointer's
    tail reaches past the grid's edge, and the mean still counts it where
    it is, not where periodic wraparound would put it."""
    run = protective_measure(ket_zero(), sigma_z(), n=50, g=0.1,
                             grid=PointerGrid(256, 20.0 / 256), width=1.0)
    assert run.inferred_expectation == pytest.approx(1.0, abs=1e-12)
    assert run.survival_probability == pytest.approx(1.0, abs=1e-12)


def test_superposition_readout_matches_expectation(tilted_state):
    run = protective_measure(tilted_state, sigma_z())
    target = expectation(sigma_z(), tilted_state)
    assert run.inferred_expectation == pytest.approx(target, abs=2e-3)
    assert 0.99 <= run.survival_probability < 1.0


def test_survival_deficit_follows_variance_rate(tilted_state):
    # per cycle the protection sheds ~ g^2 Var(A) / (4 width^2) of the norm
    run = protective_measure(tilted_state, sigma_z(), n=400, g=5e-3, width=1.0)
    variance = 1.0 - expectation(sigma_z(), tilted_state) ** 2
    predicted_deficit = 400 * (5e-3) ** 2 * variance / 4.0
    assert 1.0 - run.survival_probability == pytest.approx(predicted_deficit, rel=0.05)


def test_bias_shrinks_quadratically_at_fixed_total_coupling(tilted_state):
    target = expectation(sigma_z(), tilted_state)
    coarse = abs(
        protective_measure(tilted_state, sigma_z(), n=400, g=5e-3).inferred_expectation
        - target
    )
    fine = abs(
        protective_measure(tilted_state, sigma_z(), n=800, g=2.5e-3).inferred_expectation
        - target
    )
    # halving g at fixed n*g should cut the bias by ~4
    assert 3.0 < coarse / fine < 5.0


@pytest.mark.parametrize("psi,op", [
    (qubit_state(0.5236), sigma_z()),
    (qubit_state(0.5236), sigma_x()),
    (haar_random_state(3, np.random.default_rng(7)),
     random_observable(3, np.random.default_rng(8))),
], ids=["z", "x", "random-d3"])
def test_the_readout_bias_is_physics_from_g_1e_3_down_to_1e_20(psi, op):
    """n = 400 cycles of a width-1 pointer infer <A> - g^2 k3 / 8 to
    leading order, k3 = <(A - <A>)^3> the third cumulant of A in psi: the
    phase of M^n holds n g^3 k3 p^3 / 6, which moves the mean by
    n g^3 k3 <p^2> / 2, and <p^2> = 1/4. The error stays within 1% of that
    bias plus 3e-15 at every g from 1e-3 to 1e-20. Unless the ready
    pointer's own mean, -2.7e-17 of rounding, is subtracted from each
    mean, it adds -2.7e-17 / (n g) to the readout: 6.8e-12 at g = 1e-8 and
    6.8 at 1e-20."""
    vals, vecs = np.linalg.eigh(op.matrix)
    weights = np.abs(vecs.conj().T @ psi.amplitudes) ** 2
    k3 = weights @ (vals - weights @ vals) ** 3
    true = expectation(op, psi)
    for g in np.geomspace(1e-20, 1e-3, 35):
        bias = -g * g * k3 / 8.0
        error = protective_measure(psi, op, n=400, g=g).inferred_expectation - true
        assert abs(error - bias) <= 1e-2 * abs(bias) + 3e-15, (g, error, bias)


@pytest.mark.parametrize("g", [-1e-21, 1e-30, 5e-324])
def test_a_coupling_too_small_to_resolve_is_refused(g):
    """The default pointer occupies momenta up to |p| = 5.97, so with
    max|a_j| = 1 a |g| under 1.7e-21 takes a phase step under
    MIN_PHASE_STEP = 1e-20, and the readout would be rounding."""
    for run in (lambda: protective_measure(ket_plus(), sigma_z(), g=g),
                lambda: protection_leak(ket_plus(), ket_zero(), sigma_z(), g=g)):
        with pytest.raises(PreconditionError, match=f"coupling g={g!r} is too small"):
            run()
    assert protective_measure(ket_plus(), sigma_z(), g=0.0).inferred_expectation is None


def test_per_step_log_tracks_survival_and_shift(tilted_state):
    run = protective_measure(tilted_state, sigma_z(), n=20, g=5e-3)
    assert len(run.survivals) == len(run.pointer_means) == 20
    assert run.to_json_dict()["per_step_log"].columns[0] == list(range(1, 21))
    survivals = run.survivals
    assert all(a >= b - 1e-15 for a, b in zip(survivals, survivals[1:]))
    target_shift = 20 * 5e-3 * expectation(sigma_z(), tilted_state)
    assert run.pointer_means[-1] == pytest.approx(target_shift, abs=1e-4)
    assert run.pointer_mean_shift == run.pointer_means[-1]


def test_zero_steps_yields_no_inference(tilted_state):
    run = protective_measure(tilted_state, sigma_z(), n=0)
    assert run.inferred_expectation is None
    assert run.survival_probability == 1.0
    assert run.survivals.size == run.pointer_means.size == 0


def test_rejects_bad_mode_and_negative_steps(tilted_state):
    with pytest.raises(PreconditionError):
        protective_measure(tilted_state, sigma_z(), mode="averaged")
    with pytest.raises(PreconditionError):
        protective_measure(tilted_state, sigma_z(), n=-1)


def test_accumulated_shift_wraparound_is_rejected(tilted_state):
    # 400 cycles at g = 0.1 want a shift of 40 on a grid of extent 40
    with pytest.raises(WraparoundError):
        protective_measure(tilted_state, sigma_z(), n=400, g=0.1)


def test_an_oversized_joint_state_is_rejected_before_any_cycle(tilted_state, monkeypatch):
    """A 4096-point grid makes a qubit's joint state 8192-dimensional, over
    the cap: the run must stop before it builds the pointer, not after
    every cycle has run."""
    def no_pointer(*args, **kwargs):
        raise AssertionError("the pointer was built for an oversized run")

    monkeypatch.setattr(ketlab.protective, "make_pointer", no_pointer)
    grid = default_grid(1.0, 4096)
    message = re.escape("joint dimension must be an integer in [1, 4096], got 8192") + "$"
    with pytest.raises(PreconditionError, match=message):
        protective_measure(tilted_state, sigma_z(), n=4000, g=0.0005, grid=grid)
    with pytest.raises(PreconditionError, match=message):
        protection_leak(ket_plus(), ket_zero(), sigma_z(), n=4000, g=0.0005, grid=grid)


@pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
def test_a_non_finite_coupling_is_rejected_before_any_fft(g, monkeypatch):
    """A NaN coupling passes the wraparound guard's comparison, so each
    entry point must reject a non-finite g itself, before its first FFT."""
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran for a non-finite coupling")

    grid = default_grid(1.0)
    joint = product_state(ket_plus(), make_pointer(grid, 1.0))
    monkeypatch.setattr(np.fft, "fft", no_fft)
    monkeypatch.setattr(np.fft, "ifft", no_fft)
    runs = [
        lambda: protective_measure(ket_plus(), sigma_z(), n=3, g=g),
        lambda: protection_leak(ket_plus(), ket_zero(), sigma_z(), n=3, g=g),
        lambda: couple_pointer(joint, sigma_z(), g),
        lambda: weak_pointer_shift(ket_plus(), sigma_z(), ket_plus(), g, grid, 1.0),
    ]
    for run in runs:
        with pytest.raises(PreconditionError, match="coupling g must be a finite real number"):
            run()


@pytest.mark.parametrize("n", [True, False, 2.5, 3.0, "3", None])
def test_a_step_count_that_is_not_an_integer_is_rejected_before_any_work(n, monkeypatch):
    """The engine sizes its arrays from n: a bool, a float or text is
    refused before the grid is built, not run as a count."""
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built for a step count that is not an integer")

    monkeypatch.setattr(ketlab.protective, "default_grid", no_grid)
    message = "step count must be an integer"
    with pytest.raises(PreconditionError, match=message):
        protective_measure(ket_plus(), sigma_z(), n=n)
    with pytest.raises(PreconditionError, match=message):
        protection_leak(ket_plus(), ket_zero(), sigma_z(), n=n)


def test_a_numpy_integer_step_count_runs_as_its_int(tilted_state):
    run = protective_measure(tilted_state, sigma_z(), n=np.int64(7))
    assert run.steps == 7 and type(run.steps) is int
    assert len(run.survivals) == 7


def test_a_run_over_the_step_cap_is_rejected_before_any_work(tilted_state, monkeypatch):
    """The per-step log grows with every cycle, so more than MAX_STEPS
    cycles must stop before the grid or the pointer is built."""
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was built for an over-long run")

    monkeypatch.setattr(ketlab.protective, "default_grid", no_grid)
    n = ketlab.protective.MAX_STEPS + 1
    message = re.escape(f"step count must be an integer in [0, {n - 1}], got {n}") + "$"
    with pytest.raises(PreconditionError, match=message):
        protective_measure(tilted_state, sigma_z(), n=n, g=1e-9)
    with pytest.raises(PreconditionError, match=message):
        protection_leak(ket_plus(), ket_zero(), sigma_z(), n=n, g=1e-9)


def test_sampled_runs_are_reproducible(tilted_state):
    a = protective_measure(tilted_state, sigma_z(), mode="sampled", seed=11)
    b = protective_measure(tilted_state, sigma_z(), mode="sampled", seed=11)
    assert a.aborted_at_step == b.aborted_at_step
    assert a.survival_probability == b.survival_probability
    assert a.inferred_expectation == b.inferred_expectation


def test_sampled_eigenstate_never_aborts():
    for seed in range(20):
        run = protective_measure(ket_zero(), sigma_z(), n=100, g=0.01,
                                 mode="sampled", seed=seed)
        assert run.aborted_at_step is None
        assert run.inferred_expectation == pytest.approx(1.0, abs=1e-10)


def test_sampled_aborts_appear_at_the_expected_rate():
    """At n=100, g=0.05 on |+>-like input the chain survives with p ~ 0.94,
    so of 60 seeds a handful should abort partway."""
    aborted = []
    for seed in range(60):
        run = protective_measure(qubit_state(math.pi / 4.0, 0.0), sigma_z(),
                                 n=100, g=0.05, mode="sampled", seed=seed)
        if run.aborted_at_step is not None:
            aborted.append(run)
    assert 1 <= len(aborted) <= 20
    for run in aborted:
        assert 1 <= run.aborted_at_step <= 100
        assert len(run.survivals) == run.aborted_at_step - 1


def test_run_result_round_trips_to_json(tilted_state, tmp_path):
    """The per-step log leaves the run as its columns, and its JSON holds
    one record of those columns' cells per cycle, the CSV's rows."""
    run = protective_measure(tilted_state, sigma_z(), n=5)
    payload = run.to_json_dict()
    assert payload["steps"] == 5
    assert payload["mode"] == "deterministic"
    log = payload["per_step_log"]
    assert log.keys == ("step", "survival", "pointer_mean")
    assert log.columns == ([1, 2, 3, 4, 5], run.survivals.tolist(), run.pointer_means.tolist())
    dump_json(payload, tmp_path / "run.json")
    assert load_json(tmp_path / "run.json")["per_step_log"] == [
        dict(zip(log.keys, row)) for row in zip(*log.columns)]


# ---------------------------------------------------------------------------
# protecting the wrong state


def test_leak_survival_is_overlap_squared():
    result = protection_leak(ket_plus(), ket_zero(), sigma_z())
    assert result.survival == pytest.approx(0.5, abs=1e-3)
    assert equal_up_to_phase(result.surviving_state, ket_zero())


def test_leak_survivor_carries_protected_expectations():
    result = protection_leak(ket_plus(), ket_zero(), sigma_z())
    follow_up = protective_measure(result.surviving_state, sigma_z())
    assert follow_up.inferred_expectation == pytest.approx(1.0, abs=2e-3)


def test_leak_between_orthogonal_states_is_empty():
    result = protection_leak(ket_zero(), ket_one(), sigma_x())
    assert result.survival == 0.0
    assert result.surviving_state is None


@pytest.mark.parametrize("kwargs", [
    {"n": ketlab.protective.MAX_STEPS + 1},
    {"g": 1e6},                                  # wraps around the grid
    {"grid": default_grid(1.0, 4096)},           # joint dimension 8192
    {"grid": default_grid(1.0, 16)},             # under-resolved pointer
])
def test_an_orthogonal_pair_gets_every_check_of_the_run(kwargs):
    """The empty result of an orthogonal pair comes only after the checks
    any other pair gets, so one invalid size is rejected for every pair."""
    for protected in (ket_one(), ket_plus()):
        with pytest.raises(PreconditionError):
            protection_leak(ket_zero(), protected, sigma_z(), **kwargs)


def test_leak_rejects_dimension_mismatch():
    with pytest.raises(PreconditionError):
        protection_leak(ket_zero(), ket_plus(), HermitianOperator(3, np.eye(3)))


def test_leak_rejects_negative_steps():
    with pytest.raises(PreconditionError):
        protection_leak(ket_plus(), ket_zero(), sigma_z(), n=-5)


def test_leak_without_cycles_keeps_the_prepared_state():
    result = protection_leak(ket_plus(), ket_zero(), sigma_z(), n=0)
    assert result.survival == 1.0
    assert equal_up_to_phase(result.surviving_state, ket_plus())


# ---------------------------------------------------------------------------
# tomography


def test_tomography_set_accepts_pauli_triple():
    ops = pauli_operators()
    data = TomographySet(ops, (0.0, 0.0, 1.0))
    assert len(data.operators) == 3


def test_tomography_set_rejects_incomplete_operators():
    with pytest.raises(PreconditionError):
        TomographySet((sigma_z(),), (1.0,))


@pytest.mark.parametrize("ops,exps,message", [
    ((), (), "tomography needs at least one operator"),
    ((*pauli_operators(), HermitianOperator(3, np.eye(3))), (0.0, 0.0, 1.0, 1.0),
     "tomography operators must share one dimension"),
], ids=["empty", "mixed-dimensions"])
def test_tomography_set_needs_operators_of_one_dimension(ops, exps, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        TomographySet(ops, exps)


def test_tomography_set_rejects_length_mismatch():
    with pytest.raises(PreconditionError):
        TomographySet(pauli_operators(), (0.0, 0.0))


@pytest.mark.parametrize("bad", ["0.5", True, None, math.nan, math.inf, -math.inf])
def test_tomography_set_takes_finite_real_expectations(bad):
    """Numeric text and bools would convert silently and NaN or inf would
    fail late inside the fit; each is refused at construction."""
    with pytest.raises(PreconditionError, match="^expectations must"):
        TomographySet(pauli_operators(), (bad, 0.0, 0.0))


def test_reconstruct_state_from_exact_expectations(rng):
    psi = haar_random_state(2, rng)
    data = TomographySet(
        pauli_operators(),
        tuple(expectation(op, psi) for op in pauli_operators()),
    )
    rebuilt = reconstruct_state(data)
    assert abs(np.vdot(rebuilt.amplitudes, psi.amplitudes)) == pytest.approx(1.0, abs=1e-10)


def test_reconstruct_state_rejects_mixed_expectations():
    # all-zero Bloch vector is the maximally mixed state
    with pytest.raises(NotPureError):
        reconstruct_state(TomographySet(pauli_operators(), (0.0, 0.0, 0.0)))


def reference_reconstruct_state(data):
    """The former fit, kept as an oracle: coordinates in a Frobenius-
    orthonormal (generalized Gell-Mann) basis of traceless Hermitian
    matrices, built in loops, then the dominant eigenvector."""
    d = data.operators[0].dim
    basis = []
    for i in range(d):
        for j in range(i + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / math.sqrt(2.0)
            basis.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[i, j] = -1j / math.sqrt(2.0)
            asym[j, i] = 1j / math.sqrt(2.0)
            basis.append(asym)
    for k in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        diag[np.diag_indices(d)] = [1.0] * k + [-float(k)] + [0.0] * (d - k - 1)
        basis.append(diag / math.sqrt(float(k * (k + 1))))
    design = np.array([
        [float(np.trace(t @ op.matrix).real) for t in basis]
        for op in data.operators
    ])
    rhs = np.array([
        e - float(np.trace(op.matrix).real) / d
        for op, e in zip(data.operators, data.expectations)
    ])
    coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    rho = np.eye(d, dtype=complex) / d
    for c, t in zip(coeffs, basis):
        rho += c * t
    vals, vecs = np.linalg.eigh(rho)
    if vals[-1] < 1.0 - ketlab.protective.NOT_PURE_TOL:
        raise NotPureError("not pure")
    return StateVector.normalized(vecs[:, -1])


def reconstruct_or_none(fit, data):
    try:
        return fit(data)
    except NotPureError:
        return None


def assert_fits_agree(data):
    """Both fits raise NotPureError, or both return one state to 1e-12."""
    new = reconstruct_or_none(reconstruct_state, data)
    old = reconstruct_or_none(reference_reconstruct_state, data)
    assert (new is None) == (old is None)
    if new is not None:
        phase = np.vdot(new.amplitudes, old.amplitudes)    # unit modulus when they agree
        np.testing.assert_allclose(new.amplitudes * phase, old.amplitudes, rtol=0, atol=1e-12)
    return new is None


def test_reconstruction_matches_the_gell_mann_fit_on_random_sets():
    """1000 random sets: d = 2-4, d^2 - 1 to d^2 + 3 random operators, and
    the expectations of a nearly pure state plus noise up to 0.1."""
    rng = np.random.default_rng(2024)
    rejected = 0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        ops = [random_observable(d, rng) for _ in range(int(rng.integers(d * d - 1, d * d + 4)))]
        psi = haar_random_state(d, rng).amplitudes
        purity = rng.choice([1.0, rng.uniform(0.99, 1.0)])
        rho = purity * np.outer(psi, psi.conj()) + (1.0 - purity) * np.eye(d) / d
        noise = rng.choice([0.0, 1e-4, rng.uniform(0.0, 0.1)])
        exps = [float(np.trace(rho @ op.matrix).real) + noise * rng.standard_normal()
                for op in ops]
        rejected += assert_fits_agree(TomographySet(tuple(ops), tuple(exps)))
    assert 100 < rejected < 900, rejected   # both decisions are exercised


@pytest.mark.parametrize("ops,exps", [
    # z read twice, once +1 and once -1: the fit averages them to the
    # maximally mixed state
    ((sigma_x(), sigma_y(), sigma_z(), sigma_z()), (0.0, 0.0, 1.0, -1.0)),
    # an overcomplete qubit set whose readouts disagree by 0.3
    ((sigma_x(), sigma_y(), sigma_z(), sigma_x(), sigma_y()), (0.6, 0.0, 0.8, 0.3, 0.0)),
])
def test_inconsistent_overcomplete_sets_are_not_pure_on_both_fits(ops, exps):
    assert assert_fits_agree(TomographySet(ops, exps))


def test_reconstruction_from_a_slightly_noisy_overcomplete_set(rng):
    psi = haar_random_state(3, rng)
    ops = tuple(random_observable(3, rng) for _ in range(12))
    exps = tuple(expectation(op, psi) + 1e-6 * rng.standard_normal() for op in ops)
    rebuilt = reconstruct_state(TomographySet(ops, exps))
    assert abs(np.vdot(rebuilt.amplitudes, psi.amplitudes)) == pytest.approx(1.0, abs=1e-8)


def test_protective_tomography_recovers_the_state():
    psi = qubit_state(0.7, 1.9)
    rebuilt, chain_survival = protective_tomography(psi, pauli_operators())
    fidelity = abs(np.vdot(rebuilt.amplitudes, psi.amplitudes)) ** 2
    assert fidelity >= 1.0 - 1e-4
    assert 0.97 <= chain_survival <= 1.0


def test_protective_tomography_needs_nonzero_coupling():
    with pytest.raises(PreconditionError):
        protective_tomography(ket_plus(), pauli_operators(), n=0)


# ---------------------------------------------------------------------------
# the pointer-only engine against the joint-state loop it replaced


class StepRecord(NamedTuple):
    step: int
    survival: float
    pointer_mean: float


def block_rows(grid):
    """Cycles per block of the kernel for a pointer of width 1 on `grid`."""
    return BLOCK_ELEMENTS // make_pointer(grid, 1.0).occupied_momenta.size


def reference_loop(initial, protected, op, n, g, grid, width, mode, seed):
    """The former engine, kept as an oracle: every cycle couples the full
    system (x) pointer state, projects it onto the protected state and
    renormalizes it."""
    eig = eigendecompose(op)
    max_eig = max(abs(v) for v in eig.eigenvalues)
    total_shift = abs(g) * n * max_eig
    if total_shift > grid.extent / 4.0:
        raise WraparoundError(
            f"accumulated pointer shift {total_shift:.4g} exceeds a quarter of the "
            f"grid extent ({grid.extent / 4.0:.4g}); the grid needs extent >= "
            f"{4.0 * total_shift:.4g}"
        )
    rng = substream(0 if seed is None else seed, 0) if mode == "sampled" else None
    joint = product_state(initial, make_pointer(grid, width))
    c = protected.amplitudes
    survival = 1.0
    log = []
    aborted = None
    for step in range(1, n + 1):
        joint = couple_pointer(joint, op, g)
        conditional = c.conj() @ joint.amplitudes
        weight = float(np.sum(np.abs(conditional) ** 2) * grid.spacing)
        if mode == "sampled" and rng.random() > weight:
            aborted = step
            break
        survival *= min(weight, 1.0)
        joint = JointSystemPointerState(
            joint.system_dim, grid, np.outer(c, conditional) / math.sqrt(weight)
        )
        mean_shift = pointer_position_mean(joint) - grid.center
        log.append(StepRecord(step, survival, mean_shift))
    return log, max(min(survival, 1.0), 0.0), aborted, joint


def assert_engines_agree(initial, protected, op, n, g, mode="deterministic", seed=None,
                         grid=None):
    grid = default_grid(1.0) if grid is None else grid
    args = (initial, protected, op, n, g, grid, 1.0, mode, seed)
    run = _protective_loop(*args)
    ref_log, ref_survival, ref_aborted, ref_joint = reference_loop(*args)
    assert len(run.survivals) == len(run.pointer_means) == len(ref_log)
    assert run.aborted_at_step == ref_aborted
    np.testing.assert_allclose(run.pointer_means, [r.pointer_mean for r in ref_log],
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(run.survivals, [r.survival for r in ref_log],
                               rtol=0, atol=1e-10)
    assert run.survival_probability == pytest.approx(ref_survival, abs=1e-10)
    np.testing.assert_allclose(run.final_joint.amplitudes, ref_joint.amplitudes,
                               rtol=0, atol=1e-12)
    return run.aborted_at_step


@pytest.mark.parametrize("dim", [2, 3])
def test_engine_matches_reference_on_haar_states(dim, rng):
    for _ in range(4):
        psi = haar_random_state(dim, rng)
        assert_engines_agree(psi, psi, random_observable(dim, rng), n=200, g=5e-3)


@pytest.mark.parametrize("dim", [2, 3])
def test_engine_matches_reference_when_protecting_another_state(dim, rng):
    for _ in range(4):
        prepared = haar_random_state(dim, rng)
        protected = haar_random_state(dim, rng)
        assert_engines_agree(prepared, protected, random_observable(dim, rng), n=100, g=0.01)
    assert_engines_agree(ket_plus(), ket_zero(), sigma_z(), n=400, g=5e-3)


def test_engine_matches_reference_without_cycles(rng):
    prepared = haar_random_state(3, rng)
    assert_engines_agree(prepared, haar_random_state(3, rng), random_observable(3, rng),
                         n=0, g=5e-3)
    assert_engines_agree(ket_plus(), ket_plus(), sigma_x(), n=0, g=5e-3, mode="sampled",
                         seed=1)


def test_engine_matches_reference_on_sampled_aborts():
    psi = qubit_state(math.pi / 4.0, 0.0)
    aborts = [assert_engines_agree(psi, psi, sigma_z(), n=100, g=0.05,
                                   mode="sampled", seed=seed)
              for seed in range(60)]
    assert any(step is not None for step in aborts)


# a pointer of width 1 occupies 77 momenta on the default grid of any size and
# about half the grid at 4 points per width, so the blocks differ in length
DEFAULT_512 = PointerGrid(512, 40.0 / 512)
DEFAULT_1024 = PointerGrid(1024, 40.0 / 1024)
NARROW_512 = PointerGrid(512, 0.25)
NARROW_1024 = PointerGrid(1024, 0.25)


@pytest.mark.parametrize("grid,rows", [
    pytest.param(grid, rows, id=f"{grid.n_points}-{rows}")
    for grid, rows in [(DEFAULT_512, 106), (DEFAULT_1024, 106), (NARROW_512, 33),
                       (NARROW_1024, 16)]
])
def test_engine_matches_reference_at_block_edges(grid, rows, rng):
    """Cycles run in blocks of BLOCK_ELEMENTS // K rows for the K momenta
    the pointer occupies: runs one short of a block, filling one, spilling
    one cycle into the next, and spilling one past two blocks, each under a
    matched and a mismatched protection."""
    assert block_rows(grid) == rows
    for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
        prepared = haar_random_state(2, rng)
        op = random_observable(2, rng)
        assert_engines_agree(prepared, prepared, op, n=n, g=5e-3, grid=grid)
        assert_engines_agree(prepared, haar_random_state(2, rng), op, n=n, g=5e-3, grid=grid)


# sampled runs of |+> under sigma_z, (grid, n, g) within the wraparound guard
SAMPLED = {DEFAULT_512: (120, 0.08), DEFAULT_1024: (120, 0.08), NARROW_512: (70, 0.45),
           NARROW_1024: (40, 0.5)}


@pytest.mark.parametrize("grid,seed,step", [
    pytest.param(grid, seed, step, id=f"{grid.n_points}-{seed}-{step}")
    for grid, seed, step in [
        (DEFAULT_512, 812, 1), (DEFAULT_512, 476, 106), (DEFAULT_512, 1474, 107),
        (DEFAULT_1024, 476, 106), (DEFAULT_1024, 1474, 107),
        (NARROW_512, 8, 1), (NARROW_512, 49, 33), (NARROW_512, 61, 34),
        (NARROW_512, 252, 66), (NARROW_512, 93, 67),
        (NARROW_1024, 8, 1), (NARROW_1024, 23, 16), (NARROW_1024, 42, 17),
        (NARROW_1024, 105, 32), (NARROW_1024, 49, 33),
    ]
])
def test_sampled_aborts_on_block_edges_match_the_reference(grid, seed, step):
    """A cycle of |+> under sigma_z aborts now and then, and these seeds
    abort on the first or the last row of a block (106, 33 and 16 rows):
    the abort step is the reference's and the coupled joint state of the
    abort matches it to 1e-12."""
    assert step % block_rows(grid) in (0, 1)
    n, g = SAMPLED[grid]
    aborted = assert_engines_agree(ket_plus(), ket_plus(), sigma_z(), n=n, g=g,
                                   mode="sampled", seed=seed, grid=grid)
    assert aborted == step


@pytest.mark.parametrize("grid,n,g,seed,misses", [
    pytest.param(DEFAULT_512, 20, 0.5, 4, (6, 8), id="512"),
    pytest.param(DEFAULT_1024, 20, 0.5, 4, (6, 8), id="1024"),
    pytest.param(NARROW_512, 70, 0.45, 74, (36, 58), id="512-narrow"),
    pytest.param(NARROW_1024, 40, 0.5, 64, (17, 32), id="1024-narrow"),
])
def test_the_first_miss_in_a_block_is_the_abort(grid, n, g, seed, misses):
    """Each seed's uniforms exceed the cycle weights at two steps of one
    block (the first of 106 rows, or the second of 33 or 16): the run
    aborts at the first of them, as the reference does."""
    first, second = misses
    rows = block_rows(grid)
    assert (first - 1) // rows == (second - 1) // rows
    survivals = protective_measure(ket_plus(), sigma_z(), n=n, g=g, grid=grid).survivals
    weights = survivals / np.concatenate(([1.0], survivals[:-1]))
    uniforms = substream(seed, 0).random(n)
    assert tuple(np.flatnonzero(uniforms > weights)[:2] + 1) == misses
    aborted = assert_engines_agree(ket_plus(), ket_plus(), sigma_z(), n=n, g=g,
                                   mode="sampled", seed=seed, grid=grid)
    assert aborted == first


@pytest.mark.parametrize("grid,n,g,seed,aborted", [
    pytest.param(DEFAULT_512, 20, 0.5, 4, 6, id="512"),
    pytest.param(DEFAULT_1024, 20, 0.5, 4, 6, id="1024"),
    pytest.param(NARROW_512, 70, 0.45, 74, 36, id="512-narrow"),
    pytest.param(NARROW_1024, 40, 0.5, 64, 17, id="1024-narrow"),
    pytest.param(DEFAULT_512, 20, 0.5, 1, None, id="512-survives"),
    pytest.param(DEFAULT_512, 20, 0.5, np.uint64(4), 6, id="512-numpy-seed"),
    pytest.param(DEFAULT_512, 20, 0.5, 2 ** 128 - 1, 3, id="512-top-seed"),
])
def test_an_integer_seed_draws_what_its_substream_zero_generator_draws(grid, n, g, seed,
                                                                        aborted):
    """An integer seed reads substream 0 through the Philox kernel of
    `rngs.uniform_chunks`; the reference loop, drawing one uniform a cycle
    from that substream's Generator, gives the same run, aborting or
    not."""
    run = protective_measure(ket_plus(), sigma_z(), n=n, g=g, grid=grid, mode="sampled", seed=seed)
    log, _, ref_aborted, _ = reference_loop(ket_plus(), ket_plus(), sigma_z(), n, g, grid, 1.0,
                                            "sampled", seed)
    assert run.aborted_at_step == ref_aborted == aborted
    np.testing.assert_allclose(run.survivals, [r.survival for r in log], rtol=0, atol=1e-10)
    np.testing.assert_allclose(run.pointer_means, [r.pointer_mean for r in log],
                               rtol=0, atol=1e-10)


def test_a_sampled_run_peaks_no_higher_than_a_deterministic_one():
    """At MAX_STEPS the sampled draw's kernel temporaries stay below the
    run's own peak (3.05 MiB). Both modes run once untraced first, so
    one-time caches weigh on neither. The 4 KiB allowance covers the few
    hundred bytes of small objects that the interpreter's free lists and
    numpy's shape cache keep after the draw."""
    def run(mode):
        return protective_measure(ket_plus(), sigma_z(), n=ketlab.protective.MAX_STEPS, g=1e-4,
                                  mode=mode, seed=3)

    for mode in ("deterministic", "sampled"):
        run(mode)
    assert run("sampled").aborted_at_step is None
    deterministic = traced_peak(lambda: run("deterministic"))
    assert traced_peak(lambda: run("sampled")) <= deterministic + 4096


def test_zero_cycles_return_the_product_state(rng):
    grid = default_grid(1.0)
    prepared = haar_random_state(3, rng)
    for mode in ("deterministic", "sampled"):
        run = _protective_loop(prepared, haar_random_state(3, rng), random_observable(3, rng),
                               0, 5e-3, grid, 1.0, mode, 3)
        assert run.survivals.size == 0 and run.aborted_at_step is None
        np.testing.assert_array_equal(
            run.final_joint.amplitudes,
            np.outer(prepared.amplitudes, make_pointer(grid, 1.0).amplitudes))
