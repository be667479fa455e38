#!/usr/bin/env python3
"""Rebuild tests/golden from the CLI factory defaults (seed 7), and
tests/golden_seeded from the runs of scripts/artifact_digests.py.

Run after an intentional change to any default or seeded output:

    python3 scripts/regenerate_golden.py

then review the diff before committing.
"""

import importlib.util
import os
import shutil
import tempfile
from pathlib import Path

from ketlab import cli

SCRIPTS = Path(__file__).resolve().parent
GOLDEN = SCRIPTS.parent / "tests" / "golden"
SEEDED = GOLDEN.parent / "golden_seeded"   # tests/golden holds files only
SEEDED_MAX_BYTES = 4096   # a larger artifact is pinned by its digest line alone

# every subcommand with no flags, in the order of the CLI's command table
COMMANDS = tuple([name] for name in cli.COMMANDS)


def load_digests():
    """scripts/artifact_digests.py, whose COMMANDS the seeded goldens run."""
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  SCRIPTS / "artifact_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seeded_files(directory) -> list:
    """The files of a digest run in `directory` that have a seeded golden,
    sorted by name: every artifact under SEEDED_MAX_BYTES. The manifests,
    which name the host's library versions, and the model file the runs
    read are not artifacts of a run."""
    return sorted(path for path in Path(directory).iterdir()
                  if not path.name.endswith(".manifest.json") and path.name != "model.json"
                  and path.stat().st_size < SEEDED_MAX_BYTES)


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    os.chdir(GOLDEN)
    for argv in COMMANDS:
        code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"ketlab {' '.join(argv)} exited {code}")


def regenerate_seeded() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        load_digests().digest_lines(tmp)
        shutil.rmtree(SEEDED, ignore_errors=True)
        SEEDED.mkdir(parents=True)
        for path in seeded_files(tmp):
            shutil.copy(path, SEEDED)


if __name__ == "__main__":
    regenerate()
    regenerate_seeded()
