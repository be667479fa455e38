"""The in-package schema check against `jsonschema` as its oracle.

`ketlab.cli` checks artifacts with a small reader of the JSON Schema
keywords `SCHEMAS` uses. These tests hold it to `jsonschema` (with the same
strict integer) on real artifacts of every kind and on mutations of them:
dropped keys, counts written as 3.0 or -1, bools where ints belong, rows of
the wrong length, and bad types nested deep inside.
"""

import copy
import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ketlab.cli import SCHEMA_KEYWORDS, SCHEMAS, _schema_error, main

RUNS = {
    "protective": ["protective", "--n", "20", "--tomography", "--dump-joint", "joint.json",
                   "--grid-points", "256"],
    "leak": ["leak", "--n", "5"],
    "leak-orthogonal": ["leak", "--n", "5", "--prepared", "1", "--protected", "0"],
    "pbr": ["pbr", "--trials", "200", "--format", "json"],
    "steer": ["steer", "--trials", "30"],
    "onto": ["onto", "--mc-trials", "40"],
    "model": ["onto", "--model", "orthodox", "--scenario", "qubit", "--prep", "0",
              "--meas", "x", "--mc-trials", "40"],
    "nogo": ["nogo", "--sweeps", "3"],
    "nogo-empty": ["nogo", "--sweeps", "0"],
}

REPLACEMENTS = [3.0, 2.5, -1, 0, 7, True, False, None, "x", [], {}, [0.5, "x"],
                {"re": True}, [[1, 2, 3, 4]], {"z": {"+1": -1}}]


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """Every JSON artifact and manifest the runs write, by run and file name."""
    root = tmp_path_factory.mktemp("artifacts")
    found = {}
    for name, argv in RUNS.items():
        out = root / name
        out.mkdir()
        argv = [*argv, "-o", str(out / f"{name}.json")]
        if "--dump-joint" in argv:
            argv[argv.index("--dump-joint") + 1] = str(out / "joint.json")
        assert main(argv) == 0
        for path in sorted(out.glob("*.json")):
            found[f"{name}/{path.name}"] = json.loads(path.read_text())
    return found


def _strict_integer(checker, value):
    return isinstance(value, int) and not isinstance(value, bool)


def oracle(kind):
    schema = SCHEMAS[kind]
    cls = jsonschema.validators.validator_for(schema)
    types = cls.TYPE_CHECKER.redefine("integer", _strict_integer)
    return jsonschema.validators.extend(cls, type_checker=types)(schema)


def verdicts(kind, data):
    """(in-package verdict, oracle verdict): True when the data conforms."""
    return _schema_error(SCHEMAS[kind], data) is None, oracle(kind).is_valid(data)


def _keywords(schema):
    yield from schema
    for sub in [*schema.get("properties", {}).values(), *schema.get("anyOf", [])]:
        yield from _keywords(sub)
    for key in ("additionalProperties", "items"):
        if isinstance(schema.get(key), dict):
            yield from _keywords(schema[key])


def test_every_schema_keyword_is_one_the_checker_implements():
    used = {keyword for schema in SCHEMAS.values() for keyword in _keywords(schema)}
    assert used <= SCHEMA_KEYWORDS, sorted(used - SCHEMA_KEYWORDS)


def test_the_runs_cover_every_kind_and_pass_both_checks(payloads):
    kinds = {data["kind"] for data in payloads.values()}
    assert kinds == set(SCHEMAS)
    for data in payloads.values():
        assert verdicts(data["kind"], data) == (True, True)


DROP = object()


def _edit(keys, value=DROP):
    """A mutation that deletes, or replaces by `value`, the node at `keys`."""
    def mutate(data):
        *path, last = keys
        for key in path:
            data = data[key]
        if value is DROP:
            del data[last]
        else:
            data[last] = value
    return mutate


@pytest.mark.parametrize("name,mutate", [
    ("leak/leak.json", _edit(["survival"])),
    ("pbr/pbr.json", _edit(["counts", "0+", 0], 3.0)),
    ("pbr/pbr.json", _edit(["counts", "0+", 0], -1)),
    ("pbr/pbr.json", _edit(["trials"], True)),
    ("pbr/pbr.json", _edit(["counts", "00", 3])),
    ("pbr/pbr.json", _edit(["counts", "++"], [0, 0, 0, 0, 0])),
    ("onto/onto.json", _edit(["monte_carlo", "counts", "00", "xi", 1], "many")),
    ("steer/steer.json", _edit(["bases", "z", "outcome_counts", "+1"], 2.5)),
    ("protective/protective.json", _edit(["tomography", "reconstructed", "re"])),
    ("nogo/nogo.json.manifest.json", _edit(["outputs", 0], 1)),
    ("leak-orthogonal/leak-orthogonal.json", _edit(["surviving_state"], {"dim": 2})),
    ("model/model.json", _edit(["overlaps"], {})),
    pytest.param("leak/leak.json", _edit(["surviving_state", "dim"], 0), id="state-dim-0"),
    pytest.param("leak/leak.json", _edit(["surviving_state", "dim"], 2.0), id="state-dim-float"),
    pytest.param("leak/leak.json", _edit(["surviving_state", "re", 1], "x"),
                 id="state-re-text"),
    pytest.param("protective/protective.json",
                 _edit(["tomography", "reconstructed", "im"], {}), id="state-im-object"),
    pytest.param("onto/onto.json", _edit(["witnessing_responses", "shared|shared"], [0.25] * 3),
                 id="witness-row-of-3"),
    pytest.param("onto/onto.json", _edit(["witnessing_responses", "shared|shared", 2], None),
                 id="witness-row-null"),
    pytest.param("steer/steer.json", _edit(["bases", "z", "bob_states", "+1", "re"]),
                 id="bob-state-no-re"),
    pytest.param("steer/steer.json", _edit(["bases", "x", "bob_states", "-1"], [0.5, 0.5]),
                 id="bob-state-list"),
])
def test_named_mutations_are_rejected_by_both(payloads, name, mutate):
    data = copy.deepcopy(payloads[name])
    mutate(data)
    assert verdicts(payloads[name]["kind"], data) == (False, False)


def _mutate_once(draw, data):
    """Walk from the root to a random node below it, then drop it, replace
    it, or (for a list) make it one longer."""
    parent, key = data, draw(st.sampled_from(sorted(data)))
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        node = parent[key]
        parent, key = node, draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
    action = draw(st.sampled_from(["drop", "replace", "grow"]))
    if action == "drop":
        del parent[key]
    elif action == "grow" and isinstance(parent[key], list) and parent[key]:
        parent[key].append(copy.deepcopy(parent[key][-1]))
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))


@settings(max_examples=400)
@given(data=st.data())
def test_the_checker_agrees_with_jsonschema_on_mutations(payloads, data):
    name = data.draw(st.sampled_from(sorted(payloads)))
    mutated = copy.deepcopy(payloads[name])
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if mutated:
            _mutate_once(data.draw, mutated)
    kind = payloads[name]["kind"]
    ours, theirs = verdicts(kind, mutated)
    assert ours == theirs, _schema_error(SCHEMAS[kind], mutated)
