#!/usr/bin/env python3
"""Run every experiment into one output directory.

    python3 scripts/run_all_experiments.py [outdir]

Each subcommand runs at its defaults, except that `protective` adds
`--tomography` and `onto` adds a 100000-trial Monte Carlo check
(`--mc-trials 100000`). outdir defaults to ./lab_runs. Each subcommand
writes its artifact plus a manifest; the console shows the one-line
summaries as they land.
"""

import os
import sys
from pathlib import Path

from ketlab.cli import main

RUNS = (
    ["protective", "--tomography"],
    ["leak"],
    ["scan"],
    ["pbr"],
    ["steer"],
    ["onto", "--mc-trials", "100000"],
    ["nogo"],
)


if __name__ == "__main__":
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "lab_runs")
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)
    for argv in RUNS:
        print(f"$ ketlab {' '.join(argv)}")
        code = main(list(argv))
        if code != 0:
            sys.exit(code)
        print()
    print(f"all artifacts in {outdir.resolve()}")
