import json
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ketlab import InternalError
from ketlab.serialize import dump_json, format_cell, load_json, to_builtin, write_csv


def test_to_builtin_strips_numpy_types():
    data = {
        "a": np.float64(1.5),
        "b": np.int32(7),
        "c": np.array([1.0, 2.0]),
        "d": np.bool_(True),
        "e": (1, 2),
        "f": None,
    }
    out = to_builtin(data)
    assert out == {"a": 1.5, "b": 7, "c": [1.0, 2.0], "d": True, "e": [1, 2], "f": None}
    assert type(out["a"]) is float
    assert type(out["b"]) is int


def test_to_builtin_splits_complex_numbers():
    assert to_builtin(1.0 + 2.0j) == {"re": 1.0, "im": 2.0}
    assert to_builtin(np.complex128(3.0)) == {"re": 3.0, "im": 0.0}


def test_to_builtin_refuses_unknown_types():
    with pytest.raises(InternalError):
        to_builtin(object())


def test_dump_json_is_canonical(tmp_path):
    path = tmp_path / "out.json"
    dump_json({"b": 2, "a": np.float64(0.1)}, path)
    text = path.read_text()
    assert text == '{\n  "a": 0.1,\n  "b": 2\n}\n'
    assert load_json(path) == {"a": 0.1, "b": 2}


def test_dump_json_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    payload = {"x": [np.float64(1) / 3, 2], "y": {"z": True}}
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


def test_dump_json_gives_the_bytes_of_the_builtin_walk(tmp_path):
    """The layout walk writes what json's indented encoder writes after
    to_builtin, numpy values and complex numbers included."""
    payload = {
        "count": np.int64(3),
        "values": np.array([[0.1, 2.5e-17], [np.inf, -0.0]]),
        "amplitudes": np.array([1.0 + 2.0j, -0.5j]),
        "flag": np.bool_(False),
        "z": 0.25 - 1.5j,
        "nested": [{"w": np.complex128(1.0), "x": np.float32(0.5)}, (np.float64(0.1), None)],
    }
    path = tmp_path / "payload.json"
    dump_json(payload, path)
    want = json.dumps(to_builtin(payload), sort_keys=True, indent=2) + "\n"
    assert path.read_text(encoding="utf-8") == want


def test_dump_json_refuses_unknown_types(tmp_path):
    with pytest.raises(InternalError, match="cannot serialize value of type object"):
        dump_json({"a": object()}, tmp_path / "bad.json")


def test_to_builtin_of_zero_dimensional_arrays_is_their_scalar(tmp_path):
    assert to_builtin(np.array(0.5)) == 0.5
    assert type(to_builtin(np.array(0.5))) is float
    assert to_builtin(np.array(3)) == 3 and type(to_builtin(np.array(3))) is int
    assert to_builtin(np.array(1 + 2j)) == {"re": 1.0, "im": 2.0}
    payload = {"x": np.array(0.5), "z": np.array(1 + 2j)}
    dump_json(payload, tmp_path / "scalars.json")
    assert load_json(tmp_path / "scalars.json") == to_builtin(payload)


def oracle(value) -> str:
    """The bytes `dump_json` must write: json's own indented encoder,
    after `to_builtin`."""
    return json.dumps(to_builtin(value), sort_keys=True, indent=2) + "\n"


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
_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.uint8, np.bool_,
                           np.complex128]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT,
    _TEXT.map(Label), st.integers().map(Count),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.complex_numbers(), st.complex_numbers().map(np.complex128), _ARRAYS,
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.builds(Pair, children, children),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(st.integers(-20, 20), children, max_size=3),
    ),
    max_leaves=20,
)


@given(_PAYLOADS)
@example({"a": [], "b": {}, "c": [[], {}], "d": [{}]})
@example({"flags": [True, 1, False, 0, np.bool_(True), np.int64(1)]})
@example({"keys": {"10": 1, "9": 2, "\u00e9": 3, "": 4}})
def test_dump_json_writes_the_oracles_bytes(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        dump_json(payload, path)
        assert path.read_text(encoding="utf-8") == oracle(payload)


@given(_FLOATS)
def test_to_builtin_gives_numpys_floats_as_exact_floats(x):
    out = to_builtin(np.float64(x))
    assert type(out) is float
    assert out == x or (out != out and x != x)
