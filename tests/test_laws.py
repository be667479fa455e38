"""Sampled numbers against the exact laws they follow.

Goldens and digests pin an artifact's bytes, and they pin wrong bytes as
firmly as right ones. Here each sampled mode is checked against the law
ketlab computes for it exactly, by a chi-square test on a fixed seed set,
so each test passes or fails deterministically. The cells and the bar
p >= 1e-3 were fixed before any run; a correct sampler fails only if the
pinned seeds are that unlucky, so a failure is a finding, not a reason to
change the seeds or the cells.
"""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

import ketlab.hilbert
from ketlab import (PREPARATION_IDS, born_probabilities, pbr_experiment, pbr_scenario,
                    protective_measure, qubit_state, sigma_z)
from ketlab.cli import main
from ketlab.hilbert import _box_muller, haar_random_unitary
from ketlab.ontology import monte_carlo_onto, pbr_min_violation, predict
from ketlab.rngs import uniform_chunks
from ketlab.serialize import load_json

P_FLOOR = 1e-3


def assert_law(observed, expected) -> float:
    """The chi-square p-value of `observed` counts under `expected` counts
    of the same total, asserted to be at least P_FLOOR."""
    p = float(chisquare(np.asarray(observed, float), np.asarray(expected, float)).pvalue)
    assert p >= P_FLOOR, f"p = {p:.3g} < {P_FLOOR}: observed {observed}, expected {expected}"
    return p


def test_sampled_protective_runs_abort_by_the_deterministic_survivals():
    """A sampled run aborts at step k with probability S_(k-1) - S_k and
    survives with S_n, the survivals of the deterministic run. Cells: an
    abort in steps 1-4, 5-8, 9-12, 13-16 or 17-20, and survival."""
    psi, n, g, seeds = qubit_state(math.pi / 6.0), 20, 0.4, range(2000)
    survivals = protective_measure(psi, sigma_z(), n=n, g=g).survivals
    edges = np.concatenate(([1.0], survivals[3::4]))
    expected = len(seeds) * np.append(-np.diff(edges), survivals[-1])
    observed = np.zeros(6, dtype=int)
    for seed in seeds:
        step = protective_measure(psi, sigma_z(), n=n, g=g, mode="sampled",
                                  seed=seed).aborted_at_step
        observed[5 if step is None else (step - 1) // 4] += 1
    assert_law(observed, expected)


def test_pbr_counts_follow_the_born_rule_and_never_fire_a_forbidden_outcome():
    """Each preparation is drawn with weight 1/4 and measured by its Born
    row, so the 12 allowed cells are multinomial over 0.25 x the Born rows,
    and the 4 forbidden cells stay exactly 0."""
    trials = 100_000
    result = pbr_experiment(trials, seed=0)
    scenario = pbr_scenario()
    born = np.stack([born_probabilities(scenario.preparations[p], scenario.measurements["xi"])
                     for p in PREPARATION_IDS])
    counts = np.array([result.counts[p] for p in PREPARATION_IDS])
    allowed = np.ones((4, 4), dtype=bool)
    allowed[range(4), [result.forbidden_map[p] for p in PREPARATION_IDS]] = False
    assert np.all(counts[~allowed] == 0)
    assert_law(counts[allowed], trials * 0.25 * born[allowed])


def test_steering_outcomes_are_fair_coins_in_each_basis(tmp_path, monkeypatch):
    """Either outcome of Alice's half of the singlet has probability 1/2,
    in both bases of a default `steer` run."""
    monkeypatch.chdir(tmp_path)
    assert main(["steer"]) == 0
    data = load_json(tmp_path / "steer.json")
    for basis in ("z", "x"):
        counts = data["bases"][basis]["outcome_counts"]
        observed = [counts.get("+1", 0), counts.get("-1", 0)]
        assert_law(observed, [data["trials"] / 2] * 2)


def test_monte_carlo_counts_follow_the_model_in_every_cell():
    """A (preparation, measurement) cell draws lambda from the preparation
    and then an outcome from lambda's response row, so its counts are
    multinomial over `predict(model, preparation, measurement)`. The model
    is the certified bound's witness at q = 0.7, the paired shared-reality
    model with the witnessing responses, whose four predictions differ in
    every cell."""
    trials, q = 20_000, 0.7
    model = pbr_min_violation(q).witness
    report = monte_carlo_onto(model, pbr_scenario(), trials, seed=0)
    for prep in PREPARATION_IDS:
        assert_law(report.counts[prep]["xi"], trials * predict(model, prep, "xi"))


def _nogo_uniforms(seed: int, count: int) -> np.ndarray:
    """Rows of the 32 uniforms that `nogo` turns into sweep k's 4 x 4
    unitary, for sweeps 0 .. count-1."""
    return np.concatenate(list(uniform_chunks(seed, 0, count, 32)))


def _corner_cells(unitaries) -> np.ndarray:
    """Counts of U_00 over 5 bins of |U_00|^2, equally likely under
    Beta(1, 3), times the 4 quadrants of its phase."""
    corner = np.array([u[0, 0] for u in unitaries])
    modulus = np.digitize(np.abs(corner) ** 2, 1.0 - (1.0 - np.arange(1, 5) / 5) ** (1 / 3))
    quadrant = np.floor(np.angle(corner) / (np.pi / 2)).astype(int) % 4
    return np.bincount(5 * quadrant + modulus, minlength=20)


def test_haar_unitaries_follow_the_haar_law_of_a_corner(monkeypatch):
    """Under Haar measure on U(4), |U_00|^2 is Beta(1, 3), whose CDF is
    1 - (1 - t)^3, and the phase of U_00 is uniform and independent of it.
    Cells: the 20 of `_corner_cells`, each of probability 1/20. Two
    mutants fail the law: QR without the phase fix, whose U_00 has a real
    part <= 0 (numpy's QR leaves R's diagonal real), and a real Ginibre
    matrix, whose U_00 is real with |U_00|^2 Beta(1/2, 3/2)."""
    draws = _nogo_uniforms(0, 4000)
    expected = [len(draws) / 20] * 20
    assert_law(_corner_cells(haar_random_unitary(4, u) for u in draws), expected)
    with pytest.raises(AssertionError):
        assert_law(_corner_cells(np.linalg.qr(_box_muller(*u.reshape(2, 4, 4)))[0]
                                 for u in draws), expected)
    monkeypatch.setattr(ketlab.hilbert, "_box_muller", lambda u, v: _box_muller(u, v).real)
    with pytest.raises(AssertionError):
        assert_law(_corner_cells(haar_random_unitary(4, u) for u in draws), expected)


def test_ginibre_entries_have_exponential_squared_moduli():
    """A standard complex normal z, real and imaginary parts independent
    N(0, 1), has |z|^2 / 2 ~ Exp(1). Cells: 10 bins, equally likely under
    Exp(1), of the 16 entries of 1000 Ginibre matrices. Two mutants fail
    the law: a real Gaussian x, whose x^2 / 2 is Gamma(1/2, 1), and
    Box-Muller without its factor 2, whose |z|^2 / 2 is Exp(2)."""
    draws = _nogo_uniforms(1, 1000)
    entries = _box_muller(draws[:, :16], draws[:, 16:]).ravel()
    edges = -np.log1p(-np.arange(1, 10) / 10)
    expected = [len(entries) / 10] * 10

    def cells(values):
        return np.bincount(np.digitize(np.abs(values) ** 2 / 2, edges), minlength=10)

    assert_law(cells(entries), expected)
    for mutant in (entries.real, entries / np.sqrt(2.0)):
        with pytest.raises(AssertionError):
            assert_law(cells(mutant), expected)
