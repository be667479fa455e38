#!/usr/bin/env python3
"""Rebuild tests/golden from the CLI factory defaults (seed 7), and
tests/golden_seeded and tests/golden_reductions.json from the runs of
scripts/artifact_digests.py.

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
from ketlab.serialize import dump_json, load_json

SCRIPTS = Path(__file__).resolve().parent
GOLDEN = SCRIPTS.parent / "tests" / "golden"
SEEDED = GOLDEN.parent / "golden_seeded"   # tests/golden holds files only
# beside both directories: perfbench reads every entry of tests/golden as a
# file, and the seeded goldens' test every file of SEEDED as an artifact
REDUCTIONS = GOLDEN.parent / "golden_reductions.json"
SEEDED_MAX_BYTES = 4096   # a larger artifact is pinned by its reduction

# every subcommand with no flags, in the order of the CLI's command table
COMMANDS = tuple([name] for name in cli.COMMANDS)


def load_digests():
    """scripts/artifact_digests.py, whose COMMANDS the seeded goldens run."""
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  SCRIPTS / "artifact_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def artifact_files(directory) -> list:
    """The artifacts of a digest run in `directory`, sorted by name. The
    manifests, which name the host's library versions, and the model file
    the runs read are not artifacts of a run."""
    return sorted(path for path in Path(directory).iterdir()
                  if not path.name.endswith(".manifest.json") and path.name != "model.json")


def seeded_files(directory) -> list:
    """The artifacts of a digest run in `directory` that have a seeded
    golden, sorted by name: every one under SEEDED_MAX_BYTES."""
    return [path for path in artifact_files(directory)
            if path.stat().st_size < SEEDED_MAX_BYTES]


def reduce_values(value):
    """A JSON value reduced: a non-empty list of numbers to its length,
    sum, min and max, a non-empty list of records (dicts of one set of
    keys) to its columns, each reduced, other containers entry by entry,
    and every scalar (int, float, text, bool, null) as it is."""
    if isinstance(value, dict):
        return {key: reduce_values(item) for key, item in value.items()}
    if not isinstance(value, list):
        return value
    if value and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
        return {"length": len(value), "sum": sum(value), "min": min(value), "max": max(value)}
    if value and all(isinstance(x, dict) and x.keys() == value[0].keys() for x in value):
        return {key: reduce_values([x[key] for x in value]) for key in value[0]}
    return [reduce_values(x) for x in value]


def reduction(path):
    """The reduction of one artifact: a JSON file's value by
    `reduce_values`, and a CSV column by column, each cell read by its
    column's type in the CLI's table of CSV layouts."""
    path = Path(path)
    if path.suffix == ".json":
        return reduce_values(load_json(path))
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    kinds = cli._CSV_COLUMNS[tuple(header)]
    return {name: reduce_values([kind(row[i]) for row in rows])
            for i, (name, kind) in enumerate(zip(header, kinds))}


def reductions(directory) -> dict:
    """{name: reduction} of each artifact of a digest run in `directory`
    that has no seeded golden."""
    small = seeded_files(directory)
    return {path.name: reduction(path) for path in artifact_files(directory)
            if path not in small}


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
        dump_json(reductions(tmp), REDUCTIONS)


if __name__ == "__main__":
    regenerate()
    regenerate_seeded()
