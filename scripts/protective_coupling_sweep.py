#!/usr/bin/env python3
"""How the protective readout error scales with coupling strength.

Holds the accumulated coupling n*g fixed while g shrinks, so the pointer
shift stays the same but each cycle disturbs the state less. The bias in
the inferred expectation should fall off as g^2; the last column lets you
check the order by eye (consecutive ratios near 4).

    python3 scripts/protective_coupling_sweep.py [out.csv]
"""

import math
import sys

from ketlab import expectation, protective_measure, qubit_state, sigma_z
from ketlab.serialize import write_csv

TOTAL_COUPLING = 2.0          # n * g, kept fixed along the sweep
THETA = math.pi / 6.0         # prepared state, <sigma_z> = 1/2
LADDER = (100, 200, 400, 800, 1600)


def sweep():
    psi = qubit_state(THETA, 0.0)
    op = sigma_z()                # one operator, so every rung shares its eigenbasis
    target = expectation(op, psi)
    rows = []
    previous_error = None
    for n in LADDER:
        g = TOTAL_COUPLING / n
        run = protective_measure(psi, op, n=n, g=g)
        error = abs(run.inferred_expectation - target)
        ratio = previous_error / error if previous_error else float("nan")
        rows.append((n, g, run.inferred_expectation, error,
                     run.survival_probability, ratio))
        previous_error = error
        print(f"n={n:5d} g={g:.5f} error={error:.3e} "
              f"survival={run.survival_probability:.6f}")
    return rows


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "coupling_sweep.csv"
    rows = sweep()
    write_csv(out, ("n", "g", "inferred", "abs_error", "survival", "error_ratio"),
              rows)
    print(f"wrote {out}")
