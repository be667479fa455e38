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
from scipy.stats import chisquare

from ketlab import (PREPARATION_IDS, born_probabilities, pbr_experiment, pbr_scenario,
                    protective_measure, qubit_state, sigma_z)
from ketlab.cli import main
from ketlab.ontology import (monte_carlo_onto, paired_shared_reality_model, pbr_min_violation,
                             predict)
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
    is the paired shared-reality one at q = 0.7 with the certified bound's
    witnessing responses, whose four predictions differ in every cell."""
    trials, q = 20_000, 0.7
    model = paired_shared_reality_model(q, xi_responses=pbr_min_violation(q).witnessing_responses)
    report = monte_carlo_onto(model, pbr_scenario(), trials, seed=0)
    for prep in PREPARATION_IDS:
        assert_law(report.counts[prep]["xi"], trials * predict(model, prep, "xi"))
