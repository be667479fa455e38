"""Canonical JSON and CSV output.

Every artifact the command line writes goes through these helpers so that
the same configuration and seed always produce byte-identical files. They
take plain values only: JSON values in, canonical bytes out, where a list
of records may come as `Records`, its columns. JSON is laid out exactly as
`json.dumps(data, sort_keys=True, indent=2)` would write it, plus a
trailing newline: keys sorted, two-space indent, strings ASCII-escaped,
floats by repr() (shortest round-trip) with json's NaN and Infinity. With
an indent, json falls back to its pure-Python generator encoder, which is
slow, so `dump_json` lays the containers out itself and hands runs of
scalars to json's C encoder, which json uses when there is no indent: a
list or dict of scalars is one encoder call whose item separator carries
the newline and indent. A `Records` (a per-step log) is one `%` pass over
one per-record template, its columns handed in as they are or as the
encoder's texts, with no dict built per record. Anything else is laid out
container by container. CSV rows are plain comma-joined fields with no
quoting surprises, all rendered by one `%` format.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import record
from .errors import InternalError

_INDENT = "  "
_CONSTANTS = {None: "null", True: "true", False: "false"}
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encode_run(separator: str):
    """json's C encoder, its items split by `separator`: a list or dict of
    scalars comes out as `[` or `{`, its items, then `]` or `}`."""
    return json.JSONEncoder(sort_keys=True, separators=(separator, ": ")).encode


def _column_cells(column: list) -> list:
    """A column of plain scalars as the cells of a `%s` template: exact
    ints, or exact floats whose sum is finite (so each is), as they are,
    since `str` of those is json's text; any other column as json's
    C-encoder texts, split on the newlines ASCII-escaped JSON never holds.
    A cell that is not plain JSON raises InternalError naming its type."""
    kinds = set(map(type, column))
    if kinds <= {int} or kinds == {float} and math.isfinite(sum(column)):
        return column
    if kinds <= _SCALARS:
        return _encode_run("\n")(column)[1:-1].split("\n")
    raise InternalError("cannot serialize value of type " + next(
        kind for kind in map(type, column) if kind not in _SCALARS).__name__)


@record
class Records:
    """A JSON list of records held as columns: record i maps keys[j] to
    columns[j][i]. `dump_json` writes it as it writes that list of dicts."""

    keys: tuple
    columns: tuple

    @functools.cached_property
    def cells(self) -> tuple:
        """The keys sorted, and their columns in that order as
        `_column_cells`. A key that is not text or repeats, a column that
        is not a list, columns of unequal lengths or not one per key, and a
        cell that is not plain JSON raise InternalError."""
        keys, columns = self.keys, self.columns
        if not all(type(key) is str for key in keys) or len(set(keys)) < len(keys):
            raise InternalError(f"records need distinct text keys, not {keys!r}")
        lengths = [len(column) if type(column) is list else type(column).__name__
                   for column in columns]
        if len(columns) != len(keys) or len(set(lengths)) > 1 or str in map(type, lengths):
            raise InternalError(f"records need one list per key, all of one length: "
                                f"{len(keys)} keys, columns {lengths}")
        named = dict(zip(keys, columns))
        return sorted(named), [_column_cells(named[key]) for key in sorted(named)]


def _layout(value, indent: str) -> str:
    """`value` as json's indented encoder writes it at depth `indent`."""
    kind = type(value)
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    if kind is float:                   # NaN and the infinities, json's way
        return _encode_run("")([value])[1:-1]
    if kind is list:
        if not value:
            return "[]"
        inner = indent + _INDENT
        if _SCALARS.issuperset(map(type, value)):
            return "[\n" + inner + _encode_run(",\n" + inner)(value)[1:-1] + "\n" + indent + "]"
        items = [_layout(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is Records:
        keys, cells = value.cells
        if not cells or not cells[0]:
            return "[]"
        inner, field = indent + _INDENT, indent + 2 * _INDENT
        template = "{\n" + field + (",\n" + field).join(
            encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
        ) + "\n" + inner + "}"
        return ("[\n" + inner + (",\n" + inner).join([template] * len(cells[0])) + "\n"
                + indent + "]") % tuple(chain.from_iterable(zip(*cells)))
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
    the bytes `json.dumps(data, sort_keys=True, indent=2)` gives for `data`
    with each `Records` as its list of dicts, each run of scalars written
    by one call to json's C encoder. `data` must be plain JSON: dicts with
    text keys, lists, `Records`, and values of exactly str, int, float,
    bool or None. Anything else (a numpy value, a tuple, a complex number,
    a subclass of str, int or float, a malformed `Records`) raises
    InternalError before the file is opened, so a refusal writes nothing."""
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
