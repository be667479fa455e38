#!/usr/bin/env python3
"""Check that the tests still kill each named mutant of the package.

    python3 scripts/mutants.py

Each row of MUTANTS names a mutant, the file of `src/ketlab` it edits,
the text it replaces there (which must occur exactly once), the text that
replaces it, and the tests that must kill it (test files or pytest node
ids). For each row the script copies `src`, `tests`, `scripts` (which
the tests load) and `pyproject.toml` to a temporary directory, applies
that one substitution, runs the row's tests there with `pytest -x` and
prints `killed` or `SURVIVED` with the time the run took. It exits 1 if any mutant survives, if an anchor text
does not occur exactly once, or if a run ends other than in passes or
failures (a collection error, say), and 0 otherwise.

The list must run in under a minute, so rows name the test that kills
them rather than a whole slow file, and two rows run at a time, since
each pays about 2 s of interpreter, pytest and import start-up of its
own. `tests/test_scripts.py` checks that every anchor still occurs
exactly once in the package.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ketlab"


class Mutant(NamedTuple):
    name: str
    file: str           # under src/ketlab
    old: str
    new: str
    tests: tuple        # test files or node ids, relative to the repository root


MUTANTS = (
    Mutant("M' sign flipped", "measurement.py",
           "-1j * g * np.asarray(eig.eigenvalues) * w", "1j * g * np.asarray(eig.eigenvalues) * w",
           ("tests/test_engine_laws.py",)),
    Mutant("survival clip as a factor 1 - 1e-12", "protective.py",
           "np.minimum(step_weights[:ran], 1.0)", "step_weights[:ran] * (1.0 - 1e-12)",
           ("tests/test_engine_laws.py",)),
    Mutant("inverse-CDF boundary on the left", "measurement.py",
           'side="right"', 'side="left"',
           ("tests/test_ontology.py::"
            "test_monte_carlo_never_draws_a_zero_weight_cell_at_a_boundary_uniform",)),
    Mutant("postselection weight not conjugated", "measurement.py",
           "w = (post.conj() @ v)", "w = (post @ v)",
           ("tests/test_engine_laws.py",)),
    Mutant("grid momenta at the default spacing", "measurement.py",
           "fftfreq(self.n_points, d=self.spacing)", "fftfreq(self.n_points, d=0.078125)",
           ("tests/test_engine_laws.py",)),
    Mutant("pointer means not less the ready mean", "measurement.py",
           ") / sums[1:, 0] - origin", ") / sums[1:, 0]",
           ("tests/test_protective.py::"
            "test_the_readout_bias_is_physics_from_g_1e_3_down_to_1e_20",)),
    Mutant("Box-Muller without its factor 2", "hilbert.py",
           "np.sqrt(-2.0 * np.log1p(-u))", "np.sqrt(-np.log1p(-u))",
           ("tests/test_laws.py::test_ginibre_entries_have_exponential_squared_moduli",)),
    Mutant("QR without the phase fix", "hilbert.py",
           "return q * (d / np.abs(d))[..., None, :]", "return q",
           ("tests/test_laws.py::test_haar_unitaries_follow_the_haar_law_of_a_corner",)),
    # a row-phased Q is unitary with the corner law of Haar: only the oracle sees it
    Mutant("QR phase fix along the row axis", "hilbert.py",
           "(d / np.abs(d))[..., None, :]", "(d / np.abs(d))[..., :, None]",
           ("tests/test_hilbert.py::"
            "test_a_stack_of_uniform_rows_gives_each_rows_unitary_bit_for_bit",)),
    Mutant("Philox high word without its carry", "rngs.py",
           "x_hi += u", "pass",
           ("tests/test_rngs.py",)),
    Mutant("Philox key word shifted by 2**20", "rngs.py",
           "r * _PHILOX_W[w]", "r * (_PHILOX_W[w] + 2 ** 20)",
           ("tests/test_rngs.py",)),
    Mutant("strong_measure reads uniform 1", "measurement.py",
           "u = next(uniform_chunks(seed, 0, 1))[0, 0]",
           "u = next(uniform_chunks(seed, 0, 1, 2))[0, 1]",
           ("tests/test_measurement.py::test_strong_measure_walks_uniform_0_of_substream_0",)),
    Mutant("epr_steering reads uniform 1", "pbr.py",
           "table.weights, next(uniform_chunks(seed, 0, 1))[0, 0]",
           "table.weights, next(uniform_chunks(seed, 0, 1, 2))[0, 1]",
           ("tests/test_pbr.py::test_epr_steering_is_the_one_round_of_steer",)),
    Mutant("pbr walks each Born row with the preparation's uniform", "pbr.py",
           "uniforms[which == prep, 1]", "uniforms[which == prep, 0]",
           ("tests/test_pbr.py::test_experiment_replays_trial_by_trial_through_strong_measure",)),
    Mutant("the draw budget at the substream range", "rngs.py",
           "MAX_UNIFORMS = 2 ** 25", "MAX_UNIFORMS = 2 ** 64",
           ("tests/test_cli.py::test_each_sampler_draws_up_to_its_edge_of_the_budget",)),
    Mutant("Philox block counter without numpy's bump", "rngs.py",
           "np.arange(block + 1, (end + 3) // 4 + 1, dtype=np.uint64)",
           "np.arange(block, (end + 3) // 4, dtype=np.uint64)",
           ("tests/test_rngs.py",)),
    Mutant("(k - 1) factor of the pointer mean read as k", "measurement.py",
           "np.arange(done, done + size)", "np.arange(done + 1, done + size + 1)",
           ("tests/test_engine_laws.py",)),
    Mutant("|M|^2 shrunk by 1 - 1e-12 per cycle", "measurement.py",
           "return m.real ** 2 + m.imag ** 2,", "return (m.real ** 2 + m.imag ** 2) * (1 - 1e-12),",
           ("tests/test_engine_laws.py",)),
    Mutant("sampled cycles compare uniforms against sqrt(w)", "protective.py",
           "uniforms > step_weights", "uniforms > np.sqrt(step_weights)",
           ("tests/test_protective.py::test_engine_matches_reference_on_sampled_aborts",)),
    Mutant("a real Ginibre matrix", "hilbert.py",
           "np.exp(2j * np.pi * v)", "np.cos(2 * np.pi * v)",
           ("tests/test_laws.py::test_ginibre_entries_have_exponential_squared_moduli",)),
    Mutant("CSV column check by isinstance, so a bool passes as an int", "cli.py",
           "if tuple(map(type, row)) != kinds:",
           "if not all(map(isinstance, row, kinds)) or len(row) != len(kinds):",
           ("tests/test_cli.py::test_the_csv_check_names_the_file_and_line_it_rejects",)),
    Mutant("CSV writer without its comma count", "serialize.py",
           'body.count(",") != template.count(",") or ', "",
           ("tests/test_serialize.py::test_write_csv_refuses_cells_needing_quotes",)),
    Mutant("nogo's largest change over the overlaps after alone", "cli.py",
           "max(afters.max() - before, before - afters.min())",
           "max(afters.max(), -afters.min())",
           ("tests/test_cli.py::test_default_runs_match_golden",)),
    Mutant("the integer rule refuses its low end", "hilbert.py",
           "low <= int(value) <= high", "low < int(value) <= high",
           ("tests/test_rngs.py::test_every_integer_argument_takes_exactly_its_range",)),
    Mutant("non-finite entries pass the number rule", "hilbert.py",
           "if not np.isfinite(arr).all():", "if False:",
           ("tests/test_hilbert.py::test_a_non_finite_entry_is_refused_before_any_arithmetic",)),
    Mutant("the wraparound guard counts no coupling at n = 0", "measurement.py",
           "couplings = max(couplings, 1)", "couplings = couplings",
           ("tests/test_cli.py::test_degenerate_sizes_keep_the_exit_code_contract",)),
    Mutant("nogo reports |<s1|s2>| as the overlap before", "cli.py",
           "before = overlap_preservation_check(np.eye(dim), s1, s2, ready)[0]",
           "before = abs(complex(np.vdot(s1.amplitudes, s2.amplitudes)))",
           ("tests/test_cli.py::test_nogo_measures_the_change_from_the_before_it_reports",)),
    # killed by the oracle test's @example of a float column holding NaN
    Mutant("a float column written raw without its finiteness guard, NaN as nan",
           "serialize.py",
           "kinds == {float} and math.isfinite(sum(column))", "kinds == {float}",
           ("tests/test_serialize.py::test_dump_json_writes_the_oracles_bytes",)),
    # killed by the oracle test's @example with the keys "%" and "%s"
    Mutant("record keys laid into the template without their % doubled", "serialize.py",
           '.replace("%", "%%") + ": %s"', ' + ": %s"',
           ("tests/test_serialize.py::test_dump_json_writes_the_oracles_bytes",)),
    Mutant("weak readout protects its preselection", "weak.py",
           "_protective_loop(psi, post,", "_protective_loop(psi, psi,",
           ("tests/test_weak.py::"
            "test_pointer_shift_matches_the_joint_state_readout_on_random_cases",)),
    # killed by the buffered --help runs, which exit 120 with a BrokenPipeError
    Mutant("main leaves argparse's help text unflushed", "cli.py",
           "        _flush_stdout()\n    return 0\n", "        pass\n    return 0\n",
           ("tests/test_cli.py::test_a_stdout_closed_by_its_reader_keeps_the_run_a_success",)),
    Mutant("completeness counts the solve's singular values without the identity",
           "protective.py", "rank = 1 + int(", "rank = int(",
           ("tests/test_protective.py::test_protective_tomography_recovers_the_state",)),
    Mutant("a leak run reuses the first cycle's multiplier", "protective.py",
           "first if initial is protected or n <= 1", "first if True",
           ("tests/test_protective.py::test_leak_survival_is_overlap_squared",)),
    # killed by the fuzzer's @example of an empty --output with a sweep
    Mutant("the sweep path derived by with_name", "cli.py",
           'cfg.output.parent / (cfg.output.stem + ".sweep.csv")',
           'cfg.output.with_name(cfg.output.stem + ".sweep.csv")',
           ("tests/test_exit_codes.py::"
            "test_random_invocations_keep_the_exit_code_contract[protective]",)),
    Mutant("the cli imports numpy at module level", "cli.py",
           "from .serialize import Records, dump_json, load_json, write_csv\n",
           "from .serialize import Records, dump_json, load_json, write_csv\nimport numpy as np\n",
           ("tests/test_imports.py::test_importing_the_cli_and_its_early_exits_load_no_numpy",)),
    # the run still exits 4, but with a KeyError message instead of the kind rule's
    Mutant("validate_artifact takes any kind", "cli.py",
           ' or data.get("kind") not in SCHEMAS', "",
           ("tests/test_cli.py::test_an_artifact_of_unknown_kind_exits_4_and_writes_nothing",)),
    Mutant("leak's orthogonal shortcut also at n = 0", "protective.py",
           "if n and abs(inner_product(protected, initial))",
           "if abs(inner_product(protected, initial))",
           ("tests/test_protective.py::"
            "test_a_leak_of_no_cycles_protects_nothing_and_survives_as_prepared",)),
    Mutant("a sweep point with no readout written as 0.0", "cli.py",
           "math.nan if inferred is None", "0.0 if inferred is None",
           ("tests/test_cli.py::test_a_sampled_sweep_point_that_aborts_at_once_is_a_nan_row",)),
    # killed by the property test's @example at q = ONTIC_OVERLAP_TOL
    Mutant("an overlap at the tolerance shares no reality", "ontology.py",
           "value >= ONTIC_OVERLAP_TOL", "value > ONTIC_OVERLAP_TOL",
           ("tests/test_ontology.py::test_shared_reality_overlap_equals_q",)),
    Mutant("model lambda labels may repeat", "ontology.py",
           "if len(set(labels)) != len(labels):", "if False:",
           ("tests/test_ontology.py::test_lambda_space_rejects_empty_and_duplicate_labels",)),
    Mutant("leak predicts the overlap at n = 0", "cli.py",
           'if p["n"] > 0 else 1.0', "if True else 1.0",
           ("tests/test_cli.py::test_a_leak_of_no_cycles_survives_as_prepared_at_any_overlap",)),
    Mutant("Born gaps over every scenario preparation", "ontology.py",
           "if pid in model.preparations:", "if True:",
           ("tests/test_ontology.py::"
            "test_born_gaps_cover_only_the_preparations_the_model_defines",)),
    Mutant("the witness without its xi table", "ontology.py",
           '{"xi": table}', "{}",
           ("tests/test_ontology.py::"
            "test_the_witness_is_the_paired_model_with_its_even_split_table",)),
    Mutant("model lambda labels given as one string are split", "ontology.py",
           "if isinstance(self.labels, str):", "if False:",
           ("tests/test_ontology.py::test_lambda_labels_given_as_one_string_are_refused",)),
    # no other tier-1 test pins the counts of `pbr --weights`
    Mutant("pbr reads its --weights in reverse", "cli.py",
           'pbr_experiment(p["trials"], p["weights"], seed=cfg.seed)',
           'pbr_experiment(p["trials"], p["weights"][::-1], seed=cfg.seed)',
           ("tests/test_cli.py::test_digest_runs_match_their_seeded_goldens",)),
    Mutant("pbr tallies the Born table's rows in reverse", "pbr.py",
           'enumerate(scenario.born["xi"])', 'enumerate(scenario.born["xi"][::-1])',
           ("tests/test_pbr.py::test_experiment_replays_trial_by_trial_through_strong_measure",)),
    Mutant("the orthodox model's one-hot preparations permuted", "ontology.py",
           "np.eye(len(prep_ids))", "np.eye(len(prep_ids))[::-1]",
           ("tests/test_ontology.py::test_orthodox_model_reproduces_born_exactly",)),
    Mutant("a deterministic run skips the seed check", "protective.py",
           'seed = _checked_count(0 if seed is None else seed, "master seed", MAX_SEED)',
           'seed = seed if mode == "deterministic" else _checked_count('
           '0 if seed is None else seed, "master seed", MAX_SEED)',
           ("tests/test_protective.py::test_a_protective_run_checks_its_seed_in_either_mode",)),
    # only tomo.json, which is pinned by its reduction alone, holds a chain survival
    Mutant("protective writes the main run's survival as the tomography chain's", "cli.py",
           '"chain_survival": chain_survival,', '"chain_survival": result.survival_probability,',
           ("tests/test_cli.py::test_digest_runs_match_their_golden_reductions",)),
    # tomo.json's fidelity is 1 - 2.3e-13, so its modulus passes every golden's tolerance
    Mutant("the tomography fidelity written without its square", "cli.py",
           '"fidelity": abs(inner_product(psi, reconstructed)) ** 2,',
           '"fidelity": abs(inner_product(psi, reconstructed)),',
           ("tests/test_cli.py::test_protective_optional_artifacts",)),
)


def run(mutant: Mutant) -> tuple:
    """(verdict, seconds) of one mutant: 'killed', 'SURVIVED', or an
    'ERROR ...' for an anchor that is not unique or a run that neither
    passed nor failed."""
    source = (PACKAGE / mutant.file).read_text()
    if source.count(mutant.old) != 1:
        return f"ERROR anchor occurs {source.count(mutant.old)} times", 0.0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for tree in ("tests", "scripts"):
            shutil.copytree(ROOT / tree, copy / tree,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "src" / "ketlab" / mutant.file).write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    verdicts = {0: "SURVIVED", 1: "killed"}
    return verdicts.get(done.returncode, f"ERROR pytest exit {done.returncode}"), seconds


def main() -> int:
    failed = 0
    total = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:     # `map` yields in row order
        for mutant, (verdict, seconds) in zip(MUTANTS, pool.map(run, MUTANTS)):
            failed += verdict != "killed"
            print(f"{verdict:<9} {seconds:5.1f} s  {mutant.name}  ({', '.join(mutant.tests)})",
                  flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
