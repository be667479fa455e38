#!/usr/bin/env python3
"""Print the sha256 of every file a fixed set of `ketlab` runs writes.

    python3 scripts/artifact_digests.py

Writes the orthodox qubit model to `model.json` in one temporary
directory, runs each command in COMMANDS there in-process, and prints one
`sha256  name` line per file written there, manifests and the model file
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
from ketlab.ontology import orthodox_model, qubit_scenario
from ketlab.serialize import dump_json

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
    ["onto", "--q", "0.3", "-o", "q03.json"],
    ["onto", "--model", "orthodox", "--scenario", "pbr", "-o", "orth_pbr.json"],
    ["onto", "--model", "orthodox", "--scenario", "pbr", "--mc-trials", "3000",
     "-o", "orth_pbr_mc.json"],
    ["onto", "--model", "orthodox", "--scenario", "qubit", "-o", "orth_q.json",
     "--prep", "+", "--meas", "x", "--mc-trials", "2000"],
    # the model file reader, on the orthodox model written to model.json
    ["onto", "--model", "model.json", "--scenario", "qubit", "--prep", "0", "--meas", "z",
     "-o", "model_eval.json"],
    # the joint (lambda, outcome) draw over a model file's lambda space, and
    # over a table whose zero-weight cells must stay at 0
    ["onto", "--model", "model.json", "--scenario", "qubit", "--mc-trials", "3000",
     "-o", "model_mc.json"],
    ["onto", "--q", "0", "--mc-trials", "5000", "-o", "mc_q0.json"],
    # every artifact `protective` can add
    ["protective", "--tomography", "--per-step-csv", "tomo_steps.csv",
     "--dump-joint", "tomo_joint.json", "-o", "tomo.json"],
    ["protective", "--mode", "sampled", "--observable", "x",
     "--dump-joint", "sampled_joint.json", "-o", "sampled.json"],
    ["protective", "--sweep-g", "0.002,0.005,0.01", "-o", "sweep.json"],
    # sampled sweeps: the mode and seed reach every sweep point, and in the
    # second its g=0.2 point aborts at step 28, as its main run does
    ["protective", "--mode", "sampled", "--sweep-g", "0.002,0.005,0.01", "--seed", "3",
     "-o", "sampled_sweep.json"],
    ["protective", "--mode", "sampled", "--n", "40", "--g", "0.2", "--seed", "0",
     "--sweep-g", "0.1,0.2", "-o", "abort_sweep.json"],
    ["protective", "--n", "800", "--grid-points", "1024", "-o", "big.json"],
    # a sampled run that aborts at step 28, through `couple_pointer`
    ["protective", "--mode", "sampled", "--n", "40", "--g", "0.2", "--seed", "0",
     "--dump-joint", "abort_joint.json", "--per-step-csv", "abort_steps.csv",
     "-o", "abort.json"],
    # steer off its defaults, and nogo on another pair
    ["steer", "--basis", "x", "--trials", "7", "-o", "steer_x.json"],
    ["steer", "--basis", "z", "--trials", "0", "-o", "steer_z0.json"],
    ["steer", "--trials", "5000", "--seed", "12345", "-o", "steer_big.json"],
    ["nogo", "--pair", "+", "-", "--sweeps", "20", "-o", "nogo_pm.json"],
    # runs that cross a kernel pass of every draw: 8192 trials of steer,
    # 1024 sweeps of nogo, 8192 uniforms of a Monte Carlo cell or sampled run
    ["steer", "--trials", "9000", "-o", "steer_passes.json"],
    ["nogo", "--sweeps", "1100", "-o", "nogo_passes.json"],
    ["onto", "--q", "0.6", "--mc-trials", "9001", "-o", "mc_passes.json"],
    ["protective", "--mode", "sampled", "--n", "9000", "--g", "0.001",
     "-o", "sampled_passes.json"],
)


def write_model(directory) -> None:
    """Write the model file COMMANDS read, `model.json`, to `directory`."""
    dump_json(orthodox_model(qubit_scenario()).to_json_dict(), Path(directory) / "model.json")


def digest_lines(directory) -> list:
    """Write `model.json` and run every command in `directory`, then
    return one `sha256  name` line per file there, sorted by name."""
    directory = Path(directory)
    write_model(directory)
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
