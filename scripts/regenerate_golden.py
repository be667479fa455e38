#!/usr/bin/env python3
"""Rebuild the golden store, tests/golden, from one run of
scripts/artifact_digests.py, which pins each artifact it writes once: it
holds each command's artifact at its factory defaults (seed 7) with its
manifest, every other artifact under 4 KB, and in reductions.json a
reduction of each larger one.

Run after an intentional change to any default or seeded output:

    python3 scripts/regenerate_golden.py

then review the diff before committing.
"""

import importlib.util
import shutil
import tempfile
from pathlib import Path

from ketlab import cli
from ketlab.serialize import dump_json, load_json

SCRIPTS = Path(__file__).resolve().parent
GOLDEN = SCRIPTS.parent / "tests" / "golden"   # files only: perfbench reads each as text
REDUCTIONS = GOLDEN / "reductions.json"
SEEDED_MAX_BYTES = 4096   # a larger artifact is pinned by its reduction

# {command: the artifact it writes with no flags}, in the order of the
# CLI's command table; the digest run's bare commands write them
DEFAULTS = {name: f"{name}.{spec.formats[0]}" for name, spec in cli.COMMANDS.items()}


def load_digests():
    """scripts/artifact_digests.py, whose COMMANDS write every golden."""
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  SCRIPTS / "artifact_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def artifact_files(directory) -> list:
    """The artifacts of a digest run in `directory`, or the file pins of
    GOLDEN, sorted by name. The manifests, which name the host's library
    versions, the model file the runs read and the reductions are not
    artifacts of a run."""
    return sorted(path for path in Path(directory).iterdir()
                  if not path.name.endswith(".manifest.json")
                  and path.name not in ("model.json", REDUCTIONS.name))


def seeded_files(directory) -> list:
    """The artifacts of a digest run in `directory` that have a seeded
    golden, sorted by name: every one under SEEDED_MAX_BYTES but the
    DEFAULTS."""
    return [path for path in artifact_files(directory)
            if path.stat().st_size < SEEDED_MAX_BYTES and path.name not in DEFAULTS.values()]


def reduce_values(value):
    """A JSON value reduced: a non-empty list of numbers x_0 .. x_(n-1) to
    its length, sum, min, max and weighted sum (the sum of i * x_i, which
    a swap of two unequal numbers changes, so row order counts), a
    non-empty list of records (dicts of one set of keys) to its columns,
    each reduced, other containers entry by entry, and every scalar (int,
    float, text, bool, null) as it is."""
    if isinstance(value, dict):
        return {key: reduce_values(item) for key, item in value.items()}
    if not isinstance(value, list):
        return value
    if value and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
        return {"length": len(value), "sum": sum(value), "min": min(value), "max": max(value),
                "weighted": sum(i * x for i, x in enumerate(value))}
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
    that has neither a default nor a seeded golden."""
    return {path.name: reduction(path) for path in artifact_files(directory)
            if path.stat().st_size >= SEEDED_MAX_BYTES and path.name not in DEFAULTS.values()}


def refill(store, paths) -> None:
    """Empty the directory `store` and copy `paths` into it."""
    shutil.rmtree(store, ignore_errors=True)
    store.mkdir(parents=True)
    for path in paths:
        shutil.copy(path, store)


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        load_digests().digest_lines(tmp)
        refill(GOLDEN, [Path(tmp, name + suffix) for name in DEFAULTS.values()
                        for suffix in ("", ".manifest.json")] + seeded_files(tmp))
        dump_json(reductions(tmp), REDUCTIONS)


if __name__ == "__main__":
    regenerate()
