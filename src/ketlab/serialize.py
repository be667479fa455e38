"""Canonical JSON and CSV output.

Every artifact the command line writes goes through these helpers so that
the same configuration and seed always produce byte-identical files. They
take plain values only: JSON values in, canonical bytes out. JSON is laid
out exactly as `json.dumps(data, sort_keys=True, indent=2)` would write it,
plus a trailing newline: keys sorted, two-space indent, strings
ASCII-escaped, floats by repr() (shortest round-trip) with json's NaN and
Infinity. With an indent, json falls back to its pure-Python generator
encoder, which is slow, so `dump_json` lays the containers out itself and
hands runs of scalars to json's C encoder, which json uses when there is no
indent: a list or dict of scalars is one encoder call whose item separator
carries the newline and indent, and a list of records that share their
keys and hold only scalars (a per-step log) is one call over all their
values. Anything else is laid out container by container. CSV rows are
plain comma-joined fields with no quoting surprises, all rendered by one
`%` format.
"""

from __future__ import annotations

import functools
import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .errors import InternalError

_INDENT = "  "
_CONSTANTS = {None: "null", True: "true", False: "false"}
_INF = float("inf")
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _float_text(value: float) -> str:
    """json's text for a float: repr, but NaN, Infinity and -Infinity."""
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


@functools.cache
def _encode_run(separator: str):
    """json's C encoder, its items split by `separator`: a list or dict of
    scalars comes out as `[` or `{`, its items, then `]` or `}`."""
    return json.JSONEncoder(sort_keys=True, separators=(separator, ": ")).encode


def _records(value: list, indent: str) -> str | None:
    """`value` laid out when it is a list of dicts that share one set of
    text keys and hold only scalars, else None. All their values are one
    encoder call, split on the newlines ASCII-escaped JSON never holds and
    filled into one template per record."""
    first = value[0]
    if (not {dict}.issuperset(map(type, value)) or not first
            or not all(type(k) is str for k in first)
            or not all(map(first.keys().__eq__, map(dict.keys, value)))):
        return None
    keys = sorted(first)
    get = itemgetter(*keys)
    values = list(map(get, value) if len(keys) == 1 else chain.from_iterable(map(get, value)))
    if not _SCALARS.issuperset(map(type, values)):
        return None
    inner, field = indent + _INDENT, indent + 2 * _INDENT
    record = "{\n" + field + (",\n" + field).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys
    ) + "\n" + inner + "}"
    texts = _encode_run("\n")(values)[1:-1].split("\n")
    return "[\n" + inner + (",\n" + inner).join([record] * len(value)) % tuple(texts) \
        + "\n" + indent + "]"


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
        if _SCALARS.issuperset(map(type, value)):
            return "[\n" + inner + _encode_run(",\n" + inner)(value)[1:-1] + "\n" + indent + "]"
        text = _records(value, indent)
        if text is not None:
            return text
        items = [_layout(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        inner = indent + _INDENT
        if _SCALARS.issuperset(map(type, value.values())):
            return "{\n" + inner + _encode_run(",\n" + inner)(value)[1:-1] + "\n" + indent + "}"
        items = [encode_basestring_ascii(k) + ": " + _layout(value[k], inner)
                 for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise InternalError(f"cannot serialize value of type {type(value).__name__}")


def dump_json(data, path) -> None:
    """Write canonically formatted JSON (sorted keys, indent 2, newline):
    the bytes `json.dumps(data, sort_keys=True, indent=2)` gives, with
    each run of scalars and each list of scalar records written by one
    call to json's C encoder. `data` must be plain JSON: dicts with text
    keys, lists, and values of exactly str, int, float, bool or None.
    Anything else (a numpy value, a tuple, a complex number, a subclass of
    str, int or float) raises InternalError before the file is opened, so
    a refusal writes nothing."""
    Path(path).write_text(_layout(data, "") + "\n", encoding="utf-8")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path, header, rows) -> None:
    """Write a CSV with a header row, each cell as its `str`: text as it
    is, an int or float by repr, so floats round-trip exactly. All rows are
    rendered by one `%` format of one template, `%s` cells joined by commas
    and ended by newlines. Fields must not contain commas or newlines: a
    body with more of either than its template refuses, naming the first
    such cell, before the file is opened."""
    rows = list(rows)
    template = "".join([",".join(["%s"] * len(row)) + "\n" for row in rows])
    cells = tuple(chain.from_iterable(rows))
    body = template % cells
    if body.count(",") != template.count(",") or body.count("\n") != len(rows):
        cell = next(c for c in map(str, cells) if "," in c or "\n" in c)
        raise InternalError(f"CSV cell needs quoting, refusing: {cell!r}")
    Path(path).write_text(",".join(map(str, header)) + "\n" + body, encoding="utf-8")
