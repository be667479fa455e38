#!/usr/bin/env python3
"""Print the sha256 of every file a fixed set of `ketlab` runs writes.

    python3 scripts/artifact_digests.py

Runs each command in COMMANDS in-process, in one temporary directory, and
prints one `sha256  name` line per file written there, manifests
included, sorted by name. Two trees write byte-identical artifacts when
their outputs are identical, so diff this script's output on both:

    PYTHONPATH=<other tree>/src python3 scripts/artifact_digests.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from ketlab.cli import main

COMMANDS = (
    # the seven defaults
    ["protective"],
    ["leak"],
    ["scan"],
    ["pbr"],
    ["steer"],
    ["onto"],
    ["nogo"],
    # pbr, onto and model evaluations off their defaults
    ["pbr", "--format", "json", "-o", "p.json", "--weights", "0.1,0.2,0.3,0.4"],
    ["onto", "--q", "0.6", "--mc-trials", "5000", "-o", "mc.json"],
    ["onto", "--model", "orthodox", "--scenario", "pbr", "-o", "orth_pbr.json"],
    ["onto", "--model", "orthodox", "--scenario", "qubit", "-o", "orth_q.json",
     "--prep", "+", "--meas", "x", "--mc-trials", "2000"],
    # every artifact `protective` can add
    ["protective", "--tomography", "--per-step-csv", "tomo_steps.csv",
     "--dump-joint", "tomo_joint.json", "-o", "tomo.json"],
    ["protective", "--mode", "sampled", "--observable", "x",
     "--dump-joint", "sampled_joint.json", "-o", "sampled.json"],
    ["protective", "--sweep-g", "0.002,0.005,0.01", "-o", "sweep.json"],
    ["protective", "--n", "800", "--grid-points", "1024", "-o", "big.json"],
)


def digest_lines(directory) -> list:
    """Run every command in `directory`, then return one `sha256  name`
    line per file there, sorted by name."""
    directory = Path(directory)
    here = Path.cwd()
    os.chdir(directory)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(list(argv))
            if code != 0:
                raise SystemExit(f"ketlab {' '.join(argv)} exited {code}")
    finally:
        os.chdir(here)
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in sorted(directory.iterdir())]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(tmp)
    sys.stdout.write("".join(line + "\n" for line in lines))
