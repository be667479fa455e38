#!/usr/bin/env python3
"""Rebuild tests/golden from the CLI factory defaults (seed 7).

Run after an intentional change to any default output:

    python3 scripts/regenerate_golden.py

then review the diff before committing.
"""

import os
from pathlib import Path

from ketlab import cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

# every subcommand with no flags, in the order of the CLI's command table
COMMANDS = tuple([name] for name in cli.COMMANDS)


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    os.chdir(GOLDEN)
    for argv in COMMANDS:
        code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"ketlab {' '.join(argv)} exited {code}")


if __name__ == "__main__":
    regenerate()
