#!/usr/bin/env python3
"""Check that the tests still kill each named mutant of the package.

    python3 scripts/mutants.py

Each row of MUTANTS names a mutant, the file of `src/ketlab` it edits,
the text it replaces there (which must occur exactly once), the text that
replaces it, and the tests that must kill it (test files or pytest node
ids). For each row the script copies `src`, `tests` and `pyproject.toml`
to a temporary directory, applies that one substitution, runs the row's
tests there with `pytest -x` and prints `killed` or `SURVIVED` with the
time the run took. It exits 1 if any mutant survives, if an anchor text
does not occur exactly once, or if a run ends other than in passes or
failures (a collection error, say), and 0 otherwise.

The list must run in under a minute, so rows name the test that kills
them rather than a whole slow file; `tests/test_scripts.py` checks that
every anchor still occurs exactly once in the package.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
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
           "return q * (d / np.abs(d))", "return q",
           ("tests/test_laws.py::test_haar_unitaries_follow_the_haar_law_of_a_corner",)),
    Mutant("Philox high word without its carry", "rngs.py",
           "x_hi += u", "pass",
           ("tests/test_rngs.py",)),
    Mutant("Philox key word shifted by 2**20", "rngs.py",
           "r * _PHILOX_W[w]", "r * (_PHILOX_W[w] + 2 ** 20)",
           ("tests/test_rngs.py",)),
    Mutant("strong_measure reads uniform 1", "measurement.py",
           "u = next(uniform_chunks(seed, 0, 1))[0, 0]",
           "u = next(uniform_chunks(seed, 0, 1, 1, 2))[0, 0]",
           ("tests/test_measurement.py::test_strong_measure_walks_uniform_0_of_substream_0",)),
    Mutant("epr_steering reads uniform 1", "pbr.py",
           "table.weights, next(uniform_chunks(seed, 0, 1))[0, 0]",
           "table.weights, next(uniform_chunks(seed, 0, 1, 1, 2))[0, 0]",
           ("tests/test_pbr.py::test_epr_steering_is_the_one_round_of_steer",)),
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
        shutil.copytree(ROOT / "tests", copy / "tests",
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
    for mutant in MUTANTS:
        verdict, seconds = run(mutant)
        failed += verdict != "killed"
        print(f"{verdict:<9} {seconds:5.1f} s  {mutant.name}  ({', '.join(mutant.tests)})",
              flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
