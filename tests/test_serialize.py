import json
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ketlab import InternalError
from ketlab.serialize import dump_json, load_json, write_csv
from oracles import canonical_json


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
    scalars and in a list of records alike."""
    path = tmp_path / "payload.json"
    for value, kind in [(np.float64(0.5), "float64"), (np.arange(2), "ndarray"),
                        (1 + 2j, "complex"), ((1, 2), "tuple"), (Pair(1, 2), "Pair"),
                        (Label("x"), "Label"), (Count(3), "Count"), ({1: 0}, "dict")]:
        for payload in ({"nested": [value]}, [0.5, value], [{"a": 1}, {"a": value}]):
            with pytest.raises(InternalError,
                               match=f"cannot serialize value of type {kind}$"):
                dump_json(payload, path)
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
def _record_lists(draw):
    """Two or more records that share their keys and hold only scalars,
    or a near miss: one record with an extra key, or one holding a
    container, which must be laid out record by record."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    records = [{key: draw(_LEAVES) for key in keys}
               for _ in range(draw(st.integers(min_value=2, max_value=5)))]
    miss = draw(st.sampled_from([None, "extra key", "nested"]))
    record = records[draw(st.integers(min_value=0, max_value=len(records) - 1))]
    if miss == "extra key":
        record[draw(_KEYS.filter(lambda key: key not in keys))] = draw(_LEAVES)
    elif miss == "nested":
        record[draw(st.sampled_from(keys))] = draw(st.sampled_from([[], {}, [1.5], {"a": None}]))
    return records if draw(st.booleans()) else {"log": records}


@given(st.one_of(_PAYLOADS, _record_lists()))
@example({"a": [], "b": {}, "c": [[], {}], "d": [{}]})
@example({"flags": [True, 1, False, 0]})
@example({"keys": {"10": 1, "9": 2, "\u00e9": 3, "": 4}})
@example([{"%s": 1, "a": float("nan")}, {"%s": -0.0, "a": "x\ny"}])
@example([{"": "%d", "{}": float("-inf")}, {"": None, "{}": True}])
@example({"log": [{"step": 1, "survival": 1.0}, {"step": 2, "survival": 0.5, "extra": 0}]})
@example([{"a": 1}, {"a": [2.5]}])
def test_dump_json_writes_the_oracles_bytes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        dump_json(payload, path)
        assert path.read_text(encoding="utf-8") == canonical_json(payload)
