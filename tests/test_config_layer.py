"""The `--config` layer: a JSON value and the equivalent flag write the same
bytes, a value of the wrong type exits 2 naming its parameter, and a null
keeps a default of None but is a config error anywhere else."""

import json

import pytest

from ketlab.cli import main


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run_in(directory, monkeypatch, argv) -> int:
    directory.mkdir()
    monkeypatch.chdir(directory)
    return main(argv)


def _config(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return str(path)


@pytest.mark.parametrize("argv,key,value,flag", [
    (["protective", "--n", "40"], "sweep_g", [0.002, 0.005], "0.002,0.005"),
    (["pbr", "--trials", "2000"], "weights", [0.1, 0.2, 0.3, 0.4], "0.1,0.2,0.3,0.4"),
])
def test_a_config_list_writes_what_its_flag_writes(tmp_path, monkeypatch, argv, key, value,
                                                   flag):
    config = _config(tmp_path, {key: value})
    assert _run_in(tmp_path / "file", monkeypatch, ["--config", config, *argv]) == 0
    option = "--" + key.replace("_", "-")
    assert _run_in(tmp_path / "flag", monkeypatch, [*argv, option, flag]) == 0
    written = _files(tmp_path / "file")
    assert len(written) == (3 if key == "sweep_g" else 2)
    assert written == _files(tmp_path / "flag")


@pytest.mark.parametrize("command,key,value", [
    ("protective", "n", True),
    ("protective", "g", True),
    ("protective", "tomography", "yes"),
    ("onto", "model", 5),
    ("pbr", "weights", 5),
    ("nogo", "pair", ["0"]),
])
def test_a_config_value_of_the_wrong_type_exits_2(tmp_path, monkeypatch, capsys, command,
                                                  key, value):
    config = _config(tmp_path, {key: value})
    assert _run_in(tmp_path / "run", monkeypatch, ["--config", config, command]) == 2
    assert f"parameter {key!r}" in capsys.readouterr().err
    assert _files(tmp_path / "run") == {}


@pytest.mark.parametrize("argv,key", [
    (["onto"], "model"),
    (["protective", "--n", "40"], "per_step_csv"),
    (["protective", "--n", "40"], "sweep_g"),
])
def test_a_null_keeps_a_default_of_none(tmp_path, monkeypatch, argv, key):
    config = _config(tmp_path, {key: None})
    assert _run_in(tmp_path / "null", monkeypatch, ["--config", config, *argv]) == 0
    assert _run_in(tmp_path / "absent", monkeypatch, argv) == 0
    assert _files(tmp_path / "null") == _files(tmp_path / "absent")


def test_a_null_for_a_default_that_is_not_none_exits_2(tmp_path, monkeypatch, capsys):
    """`{"weights": null}` is a config error, not a rejected precondition:
    only a parameter whose default is None takes a null."""
    config = _config(tmp_path, {"weights": None})
    assert _run_in(tmp_path / "run", monkeypatch,
                   ["--config", config, "pbr", "--trials", "100"]) == 2
    assert "parameter 'weights'" in capsys.readouterr().err
    assert _files(tmp_path / "run") == {}
