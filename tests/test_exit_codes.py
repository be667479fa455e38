"""The exit-code contract under random input.

Every subcommand is driven in-process with random flags and a random
`--config` file: numbers that are nan, infinite, negative or huge, strings
that are not numbers, missing or malformed model files, and artifact paths
that clash or point into missing directories. Each run must exit 0, 2, 3
or 4, exit 4 only from the package's own internal errors and never from an
exception that escaped a stage, and a run that exits non-zero must leave
its directory exactly as it found it. Sizes stay small (at most 2048 grid
points, 50 cycles, 2000 trials and 5 sweeps), so no example asks for a
large allocation.
"""

import contextlib
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ketlab.cli import COMMANDS, main

CONTRACT_EXITS = {0, 2, 3, 4}

TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=6,
)
FLOATS = st.one_of(
    st.sampled_from([0.0, 0.005, 0.5, 1.0, -1.0, math.nan, math.inf, -math.inf, 1e300]),
    st.floats(),
)


def counts(bound):
    return st.one_of(st.integers(min_value=-3, max_value=bound),
                     st.sampled_from([0, 1, bound]))


def choices(*options):
    return st.sampled_from([*options, "bogus"])


STATES = st.one_of(
    st.sampled_from(["0", "1", "+", "-", "0.5:1.2", "nan:0", "inf:1", "1:2:3"]),
    st.builds(lambda a, b: f"{a!r}:{b!r}", FLOATS, FLOATS),
    TEXT,
)

# one strategy per parameter name; each draws a value of the type the
# parameter takes, or something else
PARAMS = {
    "theta": FLOATS, "phi": FLOATS, "g": FLOATS, "width": FLOATS, "q": FLOATS,
    "offset": FLOATS, "separation": FLOATS, "phase": FLOATS,
    "n": counts(50),
    "grid_points": st.one_of(counts(2048), st.sampled_from([16, 64, 512, 2048])),
    "trials": counts(2000),
    "sweeps": counts(5),
    "mc_trials": counts(2000),
    "observable": choices("z", "x", "y"),
    "mode": choices("deterministic", "sampled"),
    "profile": choices("gaussian", "double"),
    "basis": choices("z", "x", "both"),
    "scenario": choices("pbr", "qubit"),
    "tomography": st.one_of(st.booleans(), TEXT),
    "sweep_g": st.lists(FLOATS, min_size=0, max_size=3),
    "weights": st.lists(FLOATS, min_size=3, max_size=5),
    "per_step_csv": st.sampled_from(["steps.csv", "steps.json", "protective.json",
                                     "cfg.json", "missing/steps.csv"]),
    "dump_joint": st.sampled_from(["joint.json", "joint.csv", "protective.json",
                                   "steps.csv", "missing/joint.json"]),
    "model": st.one_of(st.sampled_from(["orthodox", "missing.json", "not_json.json",
                                        "list.json", "scalar_lambda.json",
                                        "text_weights.json", "wrong_outcomes.json",
                                        "model.json"]), TEXT),
    "prep": st.sampled_from(["0", "+", "00", "0+", "nope"]),
    "meas": st.sampled_from(["z", "x", "xi", "nope"]),
    "ready": STATES,
    "prepared": STATES,
    "protected": STATES,
    "pair": st.lists(STATES, min_size=2, max_size=2),
}

# model files every example starts with; `--model` may name any of them
MODEL_FILES = {
    "not_json.json": "{not json",
    "list.json": "[1, 2]",
    "scalar_lambda.json": '{"lambda": 3, "preparations": {}, "responses": {}}',
    "text_weights.json": json.dumps(
        {"lambda": ["a"], "preparations": {"0": ["x"]}, "responses": {}}),
    "wrong_outcomes.json": json.dumps(
        {"lambda": ["a"], "preparations": {"0": [1.0]},
         "responses": {"z": [[0.5, 0.25, 0.25]]}}),
    "model.json": json.dumps(
        {"lambda": ["a", "b"], "preparations": {"0": [1.0, 0.0], "+": [0.5, 0.5]},
         "responses": {"z": [[1.0, 0.0], [0.5, 0.5]], "x": [[0.5, 0.5], [1.0, 0.0]]}}),
}


def _text(value) -> str:
    if isinstance(value, list):
        return ",".join(_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def invocations(draw, name):
    """(argv, config): each parameter is left at its default, given as a
    flag, or put in the config file."""
    spec = COMMANDS[name]
    argv, config = [name], {}
    extras = {
        "seed": st.one_of(st.integers(min_value=-2, max_value=2 ** 64 + 2), TEXT),
        "output": st.sampled_from([f"{name}.{spec.formats[0]}", "out.json", "out.csv",
                                   "cfg.json", "missing/out.json", "out.txt"]),
        "format": choices(*spec.formats),
    }
    for key, strategy in [*extras.items(), *((p.name, PARAMS[p.name]) for p in spec.params)]:
        where = draw(st.sampled_from(["default", "default", "flag", "config"]))
        if where == "default":
            continue
        value = draw(strategy)
        if where == "config":
            config[key] = value
            continue
        flag = "--" + key.replace("_", "-")
        param = next((p for p in spec.params if p.name == key), None)
        if param is not None and param.is_flag:
            if value is True:
                argv.append(flag)
        elif param is not None and param.nargs:
            argv += [flag, *map(_text, value)]
        else:
            argv.append(f"{flag}={_text(value)}")
    return argv, config


def _snapshot(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() if p.is_file() else None
            for p in directory.rglob("*")}


@contextlib.contextmanager
def _chdir(path):
    """Run the body in `path`, then return to the previous directory
    (`contextlib.chdir` needs Python 3.11; the package supports 3.10)."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:   # argparse rejects unknown flags and choices
        return exc.code


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_random_invocations_keep_the_exit_code_contract(name, capsys):
    @settings(max_examples=30, deadline=None, print_blob=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocation=invocations(name))
    def check(invocation):
        argv, config = invocation
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for file_name, text in MODEL_FILES.items():
                (root / file_name).write_text(text)
            if config:
                (root / "cfg.json").write_text(json.dumps(config))
                argv = ["--config", "cfg.json", *argv]
            before = _snapshot(root)
            capsys.readouterr()
            with _chdir(root):
                code = _exit_code(argv)
            assert code in CONTRACT_EXITS, (argv, config, code)
            # exit 4 is for the package's own internal errors; an exception
            # from elsewhere (a leaked warning, say) is a bug
            err = capsys.readouterr().err
            assert "ketlab: internal error: unexpected " not in err, (argv, config, err)
            if code != 0:
                assert _snapshot(root) == before, (argv, config, code)

    check()


@pytest.mark.parametrize("argv", [["--config", "deep.json", "protective"],
                                  ["onto", "--model", "deep.json"]])
def test_input_nested_past_the_recursion_limit_exits_2(tmp_path, capsys, argv):
    """json gives up on arrays nested deeper than Python recurses with a
    RecursionError: that is bad input, like any other unparsable file."""
    (tmp_path / "deep.json").write_text("[" * 200000)
    before = _snapshot(tmp_path)
    with _chdir(tmp_path):
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ketlab: config error: ") and "deep.json is not valid JSON" in err
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("depth", [65, 500, 900])
@pytest.mark.parametrize("field", ["preparations", "responses"])
def test_a_model_nested_past_its_table_exits_3(tmp_path, capsys, field, depth):
    """A preparation holds a list of numbers and a response table a list of
    rows: deeper nesting is refused as bad numbers, past numpy's 64
    dimensions and past the recursion limit too, and writes nothing."""
    entry = 1.0
    for _ in range(depth - 1):
        entry = [entry]
    model = {"lambda": ["a"], "preparations": {"0": [1.0]}, "responses": {"z": [[1.0]]}}
    model[field] = {key: entry for key in model[field]}
    (tmp_path / "deep.json").write_text(json.dumps(model))
    before = _snapshot(tmp_path)
    with _chdir(tmp_path):
        assert main(["onto", "--model", "deep.json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ketlab: precondition rejected: ") and "must hold real numbers" in err
    assert _snapshot(tmp_path) == before
