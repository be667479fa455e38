import json

import numpy as np
import pytest

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
    """One walk with json's default hook writes what the two walks (to_builtin,
    then json.dumps) wrote, numpy values and complex numbers included."""
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
