import json
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ketlab import InternalError
from ketlab.serialize import dump_json, format_cell, load_json, write_csv


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


def test_format_cell_round_trips_floats():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 1e300):
        assert float(format_cell(x)) == x
    assert format_cell(np.int64(4)) == "4"
    assert format_cell("label") == "label"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("x", "y"), [(1, 0.5), (2, 0.25)])
    assert path.read_text() == "x,y\n1,0.5\n2,0.25\n"


def test_write_csv_refuses_cells_needing_quotes(tmp_path):
    with pytest.raises(InternalError):
        write_csv(tmp_path / "t.csv", ("a",), [("x,y",)])


def test_dump_json_refuses_values_that_are_not_plain_json(tmp_path):
    """Only plain JSON is laid out: anything else raises, naming its type,
    and leaves no file behind."""
    path = tmp_path / "payload.json"
    for value, kind in [(np.float64(0.5), "float64"), (np.arange(2), "ndarray"),
                        (1 + 2j, "complex"), ((1, 2), "tuple"), (Pair(1, 2), "Pair"),
                        (Label("x"), "Label"), (Count(3), "Count"), ({1: 0}, "dict")]:
        with pytest.raises(InternalError, match=f"cannot serialize value of type {kind}$"):
            dump_json({"nested": [value]}, path)
        assert not path.exists()


def test_dump_json_refuses_unknown_types(tmp_path):
    with pytest.raises(InternalError, match="cannot serialize value of type object"):
        dump_json({"a": object()}, tmp_path / "bad.json")


def oracle(value) -> str:
    """The bytes `dump_json` must write: json's own indented encoder."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


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


@given(_PAYLOADS)
@example({"a": [], "b": {}, "c": [[], {}], "d": [{}]})
@example({"flags": [True, 1, False, 0]})
@example({"keys": {"10": 1, "9": 2, "\u00e9": 3, "": 4}})
def test_dump_json_writes_the_oracles_bytes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        dump_json(payload, path)
        assert path.read_text(encoding="utf-8") == oracle(payload)
