"""Canonical JSON and CSV output.

Every artifact the command line writes goes through these helpers so that
the same configuration and seed always produce byte-identical files. They
take plain values only: JSON values in, canonical bytes out. JSON is laid
out exactly as `json.dumps(data, sort_keys=True, indent=2)` would write it,
plus a trailing newline: keys sorted, two-space indent, strings
ASCII-escaped, floats by repr() (shortest round-trip) with json's NaN and
Infinity. `dump_json` builds that text itself, one `join` per container:
with an indent, json falls back to its pure-Python generator encoder, which
is slower. CSV rows are plain comma-joined fields with no quoting surprises.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import InternalError

_INDENT = "  "
_CONSTANTS = {None: "null", True: "true", False: "false"}
_INF = float("inf")


def _float_text(value: float) -> str:
    """json's text for a float: repr, but NaN, Infinity and -Infinity."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _layout(value, indent: str) -> str:
    """`value` as json's indented encoder writes it at depth `indent`."""
    kind = type(value)
    if kind is float:
        return _float_text(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    if kind is list:
        if not value:
            return "[]"
        inner = indent + _INDENT
        items = [_layout(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        inner = indent + _INDENT
        items = [encode_basestring_ascii(k) + ": " + _layout(value[k], inner)
                 for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise InternalError(f"cannot serialize value of type {type(value).__name__}")


def dump_json(data, path) -> None:
    """Write canonically formatted JSON (sorted keys, indent 2, newline):
    the bytes `json.dumps(data, sort_keys=True, indent=2)` gives. `data`
    must be plain JSON: dicts with text keys, lists, and values of exactly
    str, int, float, bool or None. Anything else (a numpy value, a tuple, a
    complex number, a subclass of str, int or float) raises InternalError
    before the file is opened, so a refusal writes nothing."""
    Path(path).write_text(_layout(data, "") + "\n", encoding="utf-8")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def format_cell(value) -> str:
    """One CSV cell from a plain str, int or float: text as it is, numbers
    by repr, so floats round-trip exactly. Any other value is written by
    str, which is the text the CSV check then names when it refuses it."""
    kind = type(value)
    if kind is str:
        return value
    if kind is float:
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
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
