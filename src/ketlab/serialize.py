"""Canonical JSON and CSV output.

Every artifact the command line writes goes through these helpers so that
the same configuration and seed always produce byte-identical files:
JSON is sorted and indented with a trailing newline, floats go through
repr() to keep shortest-roundtrip formatting, and CSV rows are plain
comma-joined fields with no quoting surprises.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InternalError


def to_builtin(value):
    """Recursively convert numpy scalars/arrays into plain Python types."""
    if isinstance(value, dict):
        return {str(k): to_builtin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_builtin(v) for v in value]
    if isinstance(value, np.ndarray):
        return [to_builtin(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.complexfloating, complex)):
        return {"re": float(value.real), "im": float(value.imag)}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise InternalError(f"cannot serialize value of type {type(value).__name__}")


def _encode(value):
    """`to_builtin`'s form of a value json cannot encode itself. json
    writes numpy's float64, a float subclass, by float's repr, as
    `to_builtin` would."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return to_builtin(value)


def dump_json(data, path) -> None:
    """Write canonically formatted JSON (sorted keys, indent 2, newline):
    the bytes of `to_builtin`'s output, encoded in one walk. Keys must be
    text, as every artifact's are."""
    path = Path(path)
    text = json.dumps(data, sort_keys=True, indent=2, default=_encode)
    path.write_text(text + "\n", encoding="utf-8")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def format_cell(value) -> str:
    """One CSV cell: floats by repr for exact round-trips, rest by str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a CSV with a header row. Fields must not contain commas."""
    path = Path(path)
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        cells = [format_cell(v) for v in row]
        for cell in cells:
            if "," in cell or "\n" in cell:
                raise InternalError(f"CSV cell needs quoting, refusing: {cell!r}")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
