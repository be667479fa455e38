import json
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ketlab import InternalError
from ketlab.serialize import Records, dump_json, load_json, write_csv
from oracles import canonical_json, reference_write_csv


def test_dump_json_is_canonical(tmp_path):
    path = tmp_path / "out.json"
    dump_json({"b": 2, "a": 0.1}, path)
    text = path.read_text()
    assert text == '{\n  "a": 0.1,\n  "b": 2\n}\n'
    assert load_json(path) == {"a": 0.1, "b": 2}


def test_dump_json_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    payload = {"x": [1 / 3, 2], "y": {"z": True}}
    dump_json(payload, first)
    dump_json(json.loads(first.read_text()), second)
    assert first.read_bytes() == second.read_bytes()


def test_write_csv_cells_round_trip_floats(tmp_path):
    """Each cell is its value's str: floats by repr, so they round-trip,
    and text as it is."""
    path = tmp_path / "t.csv"
    floats = (0.1, 1.0 / 3.0, -2.5e-17, 1e300)
    write_csv(path, ("x", "n", "label"), [(x, np.int64(4), "label") for x in floats])
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == list(floats)
    assert all(row[1:] == ["4", "label"] for row in rows)


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("x", "y"), [(1, 0.5), (2, 0.25)])
    assert path.read_text() == "x,y\n1,0.5\n2,0.25\n"


def test_write_csv_refuses_cells_needing_quotes(tmp_path):
    with pytest.raises(InternalError):
        write_csv(tmp_path / "t.csv", ("a",), [("x,y",)])
    with pytest.raises(InternalError, match=r"^CSV cell needs quoting, refusing: 'x\\ny'$"):
        write_csv(tmp_path / "t.csv", ("a", "b"), [(1, 2), (3, "x\ny")])
    assert not (tmp_path / "t.csv").exists()


def test_dump_json_refuses_values_that_are_not_plain_json(tmp_path):
    """Only plain JSON is laid out: anything else raises, naming its type,
    and leaves no file behind. That holds in a nested list, in a run of
    scalars, in a list of records and in a column of `Records` alike, and
    a `Records` whose keys repeat or are not text, or whose columns are
    not lists of one length, one per key, is refused too."""
    path = tmp_path / "payload.json"
    for value, kind in [(np.float64(0.5), "float64"), (np.arange(2), "ndarray"),
                        (1 + 2j, "complex"), ((1, 2), "tuple"), (Pair(1, 2), "Pair"),
                        (Label("x"), "Label"), (Count(3), "Count"), ({1: 0}, "dict")]:
        for payload in ({"nested": [value]}, [0.5, value], [{"a": 1}, {"a": value}],
                        {"log": Records(("a", "b"), ([1, 2], [0.5, value]))},
                        [Records(("a",), ([value, 1],))]):
            with pytest.raises(InternalError,
                               match=f"cannot serialize value of type {kind}$"):
                dump_json(payload, path)
            assert not path.exists()
    for records, message in [
        (Records(("a", "b"), ([1], [0.5, 0.25])), r"2 keys, columns \[1, 2\]$"),
        (Records(("a",), ([1], [2])), r"1 keys, columns \[1, 1\]$"),
        (Records(("a", "b"), ([0.5], (0.5,))), r"2 keys, columns \[1, 'tuple'\]$"),
        (Records(("a", "b", "a"), ([1], [2], [3])), "distinct text keys"),
        (Records(("a", 1), ([1], [2])), "distinct text keys"),
    ]:
        with pytest.raises(InternalError, match=message):
            dump_json({"log": records}, path)
        assert not path.exists()


def test_dump_json_refuses_unknown_types(tmp_path):
    with pytest.raises(InternalError, match="cannot serialize value of type object"):
        dump_json({"a": object()}, tmp_path / "bad.json")


class Pair(NamedTuple):
    first: object
    second: object


class Label(str):
    pass


class Count(int):
    pass


# repr switches to exponent form below 1e-4 and from 1e16 on
_EDGE_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                                1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
                                5e-324, 1.7976931348623157e308])
_FLOATS = st.one_of(st.floats(), _EDGE_FLOATS)
_TEXT = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r",
                                              "caf\u00e9", "\u2028", "\U0001f600", ""]))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


# keys that a %-template or a format string would misread
_KEYS = st.one_of(_TEXT, st.sampled_from(["%", "%s", "%%", "{}", "{0}", '"', "caf\u00e9", ""]))


@st.composite
def _records(draw):
    """A `Records` of 0-5 rows whose columns are all ints, all floats
    (NaN, the infinities, -0.0, 1e16 and 5e-324 among them) or any
    scalars, under keys that a `%` template would misread."""
    keys = draw(st.lists(_KEYS, max_size=4, unique=True))
    rows = draw(st.integers(min_value=0, max_value=5))
    cells = st.sampled_from([st.integers(), _FLOATS, _LEAVES])
    return Records(tuple(keys), tuple(draw(st.lists(draw(cells), min_size=rows, max_size=rows))
                                      for _ in keys))


# `Records`, bare or at any depth of lists and dicts
_RECORD_PAYLOADS = st.recursive(
    _records(),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(_KEYS, children, max_size=3)),
    max_leaves=4,
)


def _as_dicts(value):
    """`value` with each `Records` in it turned into its list of dicts."""
    if type(value) is Records:
        return [dict(zip(value.keys, row)) for row in zip(*value.columns)]
    if type(value) is dict:
        return {key: _as_dicts(item) for key, item in value.items()}
    if type(value) is list:
        return [_as_dicts(item) for item in value]
    return value


@given(st.one_of(_PAYLOADS, _RECORD_PAYLOADS))
@example({"a": [], "b": {}, "c": [[], {}], "d": [{}]})
@example({"flags": [True, 1, False, 0]})
@example({"keys": {"10": 1, "9": 2, "\u00e9": 3, "": 4}})
@example([{"%s": 1, "a": float("nan")}, {"%s": -0.0, "a": "x\ny"}])
@example([{"": "%d", "{}": float("-inf")}, {"": None, "{}": True}])
@example({"log": [{"step": 1, "survival": 1.0}, {"step": 2, "survival": 0.5, "extra": 0}]})
@example([{"a": 1}, {"a": [2.5]}])
@example(float("inf"))
@example([float("-inf"), {}])
@example(Records(("mean", "step"), ([0.5, float("nan")], [1, 2])))       # NaN, not nan
@example({"log": Records(("%", "%s", "b"), ([1.5], ["x"], [None]))})     # keys with %
@example([Records(("x",), ([1, 0.5, True, None, "a\nb", -0.0],))])
@example(Records(("a", "b"), ([1e16, 5e-324, 1.7976931348623157e308] * 2, [0] * 6)))
@example({"empty": Records(("a",), ([],)), "keyless": Records((), ())})
def test_dump_json_writes_the_oracles_bytes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        dump_json(payload, path)
        assert path.read_text(encoding="utf-8") == canonical_json(_as_dicts(payload))


# CSV cells: ints, floats (nan, the infinities, -0.0, 1e300 and subnormals
# among the edges), their numpy scalars, and text that needs no quoting
_PLAIN_TEXT = _TEXT.filter(lambda text: "," not in text and "\n" not in text)
_CELLS = st.one_of(st.integers(), _FLOATS, st.sampled_from([1e300, 2.5e-310, -5e-324]),
                   st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), _FLOATS.map(np.float64),
                   _PLAIN_TEXT)
_CSV_ROWS = st.lists(st.lists(_CELLS, max_size=6), max_size=6)   # of unequal widths
_QUOTED = st.tuples(_TEXT, st.sampled_from([",", "\n"]), _TEXT).map("".join)


@given(st.lists(_PLAIN_TEXT, max_size=6), _CSV_ROWS)
@example(("x", "n"), [[float("nan"), -0.0], [], [np.float64(1e300), np.int64(-3), 5e-324]])
def test_write_csv_writes_the_oracles_bytes(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_csv(got, header, rows)
        reference_write_csv(want, header, rows)
        assert got.read_bytes() == want.read_bytes()


@given(_CSV_ROWS, st.lists(st.tuples(st.integers(0), st.integers(0), _QUOTED), min_size=1,
                           max_size=3))
@example([[1, 2.5]], [(0, 2, "x,y"), (0, 0, "\n")])
def test_write_csv_refuses_the_cells_the_oracle_refuses(rows, insertions):
    """A cell holding a comma or a newline, in any row at any position,
    raises the oracle's message, naming the first such cell, and leaves
    no file."""
    for i, j, cell in insertions:
        i %= len(rows) + 1
        if i == len(rows):
            rows.append([])
        rows[i].insert(j % (len(rows[i]) + 1), cell)
    messages = []
    with tempfile.TemporaryDirectory() as tmp:
        for write in (write_csv, reference_write_csv):
            path = Path(tmp) / "t.csv"
            with pytest.raises(InternalError) as refused:
                write(path, ("a",), rows)
            assert not path.exists()
            messages.append(str(refused.value))
    assert messages[0] == messages[1]
