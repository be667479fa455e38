"""Acceptance suite: ten numbered criteria, each printing one PASS/FAIL line
with its runtime. Tolerances and time budgets are part of the assertions.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
"""

import math
import time

import numpy as np
import pytest

from ketlab import (
    born_probabilities,
    epr_steering,
    equal_up_to_phase,
    expectation,
    haar_random_unitary,
    ket_minus,
    ket_one,
    ket_plus,
    ket_zero,
    monte_carlo_onto,
    orthodox_model,
    overlap_preservation_check,
    pbr_experiment,
    pbr_min_violation,
    pbr_scenario,
    predict,
    preparation_states,
    protection_leak,
    protective_measure,
    protective_tomography,
    qubit_scenario,
    qubit_state,
    sigma_z,
    substream,
)
from ketlab.measurement import default_grid
from ketlab.pbr import _forbidden_map
from ketlab.weak import direct_wavefunction_scan, momentum_zero_amplitude
from ketlab.measurement import GridWavefunction
from oracles import haar_random_state, pauli_operators, random_observable


def run_criterion(number, name, budget_seconds, body):
    start = time.perf_counter()
    ok = False
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} ran {elapsed:.2f}s, budget {budget_seconds}s"
        )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {number:02d}: {verdict} - {name} ({elapsed:.2f}s)")


def raw_born_rows():
    """Born rows for all four preparations, rebuilt from raw numpy only."""
    k0 = np.array([1.0, 0.0])
    kp = np.array([1.0, 1.0]) / math.sqrt(2.0)
    single = {"0": k0, "+": kp}
    basis = pbr_scenario().measurements["xi"]
    rows = {}
    for a in "0+":
        for b in "0+":
            prep = np.kron(single[a], single[b])
            rows[a + b] = np.array(
                [abs(np.vdot(xi, prep)) ** 2 for xi in basis.basis_matrix.T]
            )
    return rows


def test_criterion_01_basis_suite():
    def body():
        scenario = pbr_scenario()
        mat = scenario.measurements["xi"].basis_matrix
        forbidden_map = _forbidden_map(scenario)
        assert float(np.max(np.abs(mat.conj().T @ mat - np.eye(4)))) < 1e-12
        assert float(np.max(np.abs(mat @ mat.conj().T - np.eye(4)))) < 1e-12
        for prep_id, prep in preparation_states().items():
            xi = mat[:, forbidden_map[prep_id]]
            assert abs(np.vdot(xi, prep.amplitudes)) ** 2 < 1e-12
        assert sorted(forbidden_map.values()) == [0, 1, 2, 3]

    run_criterion(1, "antidistinguishing basis suite", 1.0, body)


def test_criterion_02_pbr_experiment():
    def body():
        rows = raw_born_rows()  # independent oracle, fixed before sampling
        point_mass = {
            "00": (1.0, 0.0, 0.0, 0.0),
            "0+": (0.0, 1.0, 0.0, 0.0),
            "+0": (0.0, 0.0, 1.0, 0.0),
            "++": (0.0, 0.0, 0.0, 1.0),
        }
        trials = 100000
        forbidden_map = _forbidden_map(pbr_scenario())
        for seed, (prep_id, weights) in enumerate(point_mass.items(), start=7):
            result = pbr_experiment(trials, mixture_weights=weights, seed=seed)
            assert result.row_totals()[prep_id] == trials
            counts = result.counts[prep_id]
            assert counts[forbidden_map[prep_id]] == 0
            for k, p in enumerate(rows[prep_id]):
                sigma = math.sqrt(trials * p * (1.0 - p))
                assert abs(counts[k] - trials * p) <= max(5.0 * sigma, 1.0)

    run_criterion(2, "antidistinguishability experiment, 1e5 trials/preparation", 10.0, body)


def test_criterion_03_protective_convergence():
    def body():
        for i in range(20):
            rng = substream(1003, i)
            psi = haar_random_state(2, rng)
            op = random_observable(2, rng)
            run = protective_measure(psi, op, n=400, g=5e-3)
            assert abs(run.inferred_expectation - expectation(op, psi)) < 2e-3
            assert run.survival_probability >= 0.99
        # error order in g at fixed n * g = 2
        psi = qubit_state(math.pi / 6.0, 0.0)
        target = expectation(sigma_z(), psi)
        ladder = [(200, 1e-2), (400, 5e-3), (800, 2.5e-3)]
        errors = [
            abs(protective_measure(psi, sigma_z(), n=n, g=g).inferred_expectation - target)
            for n, g in ladder
        ]
        slope = np.polyfit(
            np.log([g for _, g in ladder]), np.log(errors), 1
        )[0]
        assert slope >= 1.0

    run_criterion(3, "protective readout converges, order >= 1 in g", 60.0, body)


def test_criterion_04_protection_leak():
    def body():
        leak = protection_leak(ket_plus(), ket_zero(), sigma_z())
        assert abs(leak.survival - 0.5) < 1e-3
        for op in pauli_operators():
            follow = protective_measure(leak.surviving_state, op)
            assert abs(follow.inferred_expectation - expectation(op, ket_zero())) < 2e-3

    run_criterion(4, "protection leak at |<0|+>|^2 = 1/2", 10.0, body)


def test_criterion_05_direct_scan():
    def body():
        grid = default_grid(1.0, n_points=512)
        x = grid.positions
        amps = np.exp(-((x - 1.0) ** 2) / 4.0).astype(complex)
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2) * grid.spacing))
        psi = GridWavefunction(grid, amps)
        rebuilt = direct_wavefunction_scan(psi) * momentum_zero_amplitude(psi)
        scale = float(np.max(np.abs(psi.amplitudes)))
        mask = np.abs(psi.amplitudes) > 1e-12 * scale
        rel = np.abs(rebuilt[mask] - psi.amplitudes[mask]) / np.abs(psi.amplitudes[mask])
        assert float(np.max(rel)) < 1e-9
        assert float(np.max(np.abs(rebuilt[~mask] - psi.amplitudes[~mask]))) < 1e-9 * scale

    run_criterion(5, "direct scan recovers the wavefunction pointwise", 1.0, body)


def test_criterion_06_unitarity_nogo():
    def body():
        for k in range(100):
            u = haar_random_unitary(4, substream(1006, k).random(32))
            before, after = overlap_preservation_check(
                u, ket_zero(), ket_plus(), ket_zero()
            )
            assert abs(before - 1.0 / math.sqrt(2.0)) < 1e-12
            assert abs(before - after) < 1e-10

    run_criterion(6, "overlaps preserved by 100 Haar unitaries", 5.0, body)


def test_criterion_07_ontology_bound():
    def body():
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            bound = pbr_min_violation(q)
            assert abs(bound.upper_bound - q * q / 4.0) < 1e-6
            assert abs(bound.lower_bound - q * q / 4.0) < 1e-6
            assert bound.duality_gap < 1e-6

    run_criterion(7, "certified minimum violation q^2/4", 120.0, body)


def test_criterion_08_orthodox_equivalence():
    def body():
        trials = 100000
        for scenario in (qubit_scenario(), pbr_scenario()):
            model = orthodox_model(scenario)
            for prep_id, state in scenario.preparations.items():
                for meas_id, basis in scenario.measurements.items():
                    born = born_probabilities(state, basis)
                    got = predict(model, prep_id, meas_id)
                    assert float(np.max(np.abs(got - born))) < 1e-12
            report = monte_carlo_onto(model, scenario, trials, seed=8)
            for prep_id, state in scenario.preparations.items():
                for meas_id, basis in scenario.measurements.items():
                    born = born_probabilities(state, basis)
                    counts = report.counts[prep_id][meas_id]
                    for k, p in enumerate(born):
                        sigma = math.sqrt(trials * p * (1.0 - p))
                        assert abs(counts[k] - trials * p) <= max(5.0 * sigma, 1.0)

    run_criterion(8, "orthodox model == Born, analytic and sampled", 30.0, body)


def test_criterion_09_tomography_round_trip():
    def body():
        for i in range(50):
            psi = haar_random_state(2, substream(1009, i))
            rebuilt, _survival = protective_tomography(psi, pauli_operators())
            fidelity = abs(np.vdot(rebuilt.amplitudes, psi.amplitudes)) ** 2
            assert fidelity >= 1.0 - 1e-4

    run_criterion(9, "protective tomography on 50 random qubits", 120.0, body)


def test_criterion_10_steering():
    def body():
        targets = {
            "z": {1.0: ket_zero(), -1.0: ket_one()},
            "x": {1.0: ket_minus(), -1.0: ket_plus()},
        }
        for basis, mapping in targets.items():
            seen = set()
            for seed in range(40):
                sample = epr_steering(basis, seed)
                assert sample.bob_marginal_check < 1e-12
                assert equal_up_to_phase(
                    sample.bob_conditional, mapping[sample.alice_outcome]
                )
                seen.add(sample.alice_outcome)
            assert seen == {1.0, -1.0}

    run_criterion(10, "steering conditional states and marginal", 5.0, body)
