"""End-to-end checks of the `ketlab` command line: configuration layering,
artifact writing and validation, exit codes, and the golden default runs."""

import errno
import importlib.util
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import warnings
from itertools import chain
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ketlab.cli
import ketlab.hilbert
import ketlab.ontology
import ketlab.pbr
import ketlab.rngs
import ketlab.serialize
from ketlab import (
    ConfigError,
    InternalError,
    JointSystemPointerState,
    PointerGrid,
    haar_random_unitary,
    overlap_preservation_check,
    steering_table,
    substream,
)
from ketlab.cli import (COMMANDS, SCHEMAS, Artifact, CommandSpec, main, parse_state_spec,
                        validate_artifact)
from ketlab.measurement import inverse_cdf
from ketlab.rngs import SUBSTREAM_CHUNK, uniform_chunks
from ketlab.serialize import Records, dump_json, load_json
from oracles import amplitudes_from_json, traced_peak

GOLDEN_DIR = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def _load_regenerate_golden():
    spec = importlib.util.spec_from_file_location("regenerate_golden",
                                                  SCRIPTS / "regenerate_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGENERATE = _load_regenerate_golden()   # scripts/regenerate_golden.py
DIGESTS = REGENERATE.load_digests()     # scripts/artifact_digests.py, whose COMMANDS the tests run
SEEDED_NAMES = sorted(path.name for path in REGENERATE.SEEDED.iterdir())
GOLDEN_REDUCTIONS = load_json(REGENERATE.REDUCTIONS)   # {name: reduction} of the larger artifacts


def read_manifest(tmp_path, output_name):
    return load_json(tmp_path / f"{output_name}.manifest.json")


def assert_close_payload(got, want, path="$"):
    """Structural comparison: ints and strings exact, floats to 1e-9, NaN
    equal to NaN."""
    assert type(got) is type(want) or (
        isinstance(got, (int, float)) and isinstance(want, (int, float))
    ), f"{path}: {type(got)} vs {type(want)}"
    if isinstance(want, dict):
        assert set(got) == set(want), f"{path}: keys {sorted(got)} vs {sorted(want)}"
        for key in want:
            assert_close_payload(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close_payload(g, w, f"{path}[{i}]")
    elif isinstance(want, bool) or want is None:
        assert got is want, f"{path}: {got!r} vs {want!r}"
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12, nan_ok=True), \
            f"{path}: {got} vs {want}"
    else:
        assert got == want, f"{path}: {got!r} vs {want!r}"


def artifact_on_disk(path):
    """A written file as the Artifact it was written from: each CSV cell
    read by its column's type, whose `str` must give the file's text back."""
    if path.suffix == ".json":
        return Artifact(path, "json", load_json(path))
    header, *lines = [line.split(",") for line in path.read_text().splitlines()]
    kinds = ketlab.cli._CSV_COLUMNS[tuple(header)]
    rows = [[kind(text) for kind, text in zip(kinds, line)] for line in lines]
    assert [list(map(str, row)) for row in rows] == lines
    return Artifact(path, "csv", (tuple(header), rows))


def compare_csv(got_path, want_path):
    got_lines = got_path.read_text().splitlines()
    want_lines = want_path.read_text().splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    for got_line, want_line in zip(got_lines[1:], want_lines[1:]):
        for g, w in zip(got_line.split(","), want_line.split(",")):
            try:
                assert float(g) == pytest.approx(float(w), rel=1e-9, abs=1e-12)
            except ValueError:
                assert g == w


def test_parse_state_spec_accepts_names_and_angles():
    assert parse_state_spec("+").amplitudes[0] == pytest.approx(1 / math.sqrt(2))
    h = ketlab.hilbert
    for spec, ket in (("0", h.ket_zero), ("1", h.ket_one), ("+", h.ket_plus), ("-", h.ket_minus)):
        assert np.array_equal(parse_state_spec(spec).amplitudes, ket().amplitudes)
    psi = parse_state_spec("0.5:1.2")
    assert abs(psi.amplitudes[0]) == pytest.approx(math.cos(0.5))
    for bad in ("q", "1:2:3", "a:b"):
        with pytest.raises(ConfigError):
            parse_state_spec(bad)


def test_defaults_reach_the_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["leak"]) == 0
    manifest = read_manifest(tmp_path, "leak.json")
    assert manifest["kind"] == "ketlab/manifest"
    assert manifest["seed"] == 7
    assert manifest["config"]["n"] == 400
    assert manifest["config"]["g"] == 0.005
    assert manifest["outputs"] == ["leak.json"]
    assert manifest["versions"] == {"ketlab": ketlab.__version__, "numpy": np.__version__,
                                    "python": platform.python_version()}
    out = capsys.readouterr().out
    assert "wrote:" in out


def test_runs_of_one_observable_share_its_solved_eigenproblem(tmp_path, monkeypatch):
    """Each observable is one operator per process, which keeps its
    solved `eigen`: a second run of `protective --observable x` solves no
    eigenproblem. A warm process, perfbench's protective-warm included,
    pays for each observable's eigenproblem once."""
    monkeypatch.chdir(tmp_path)
    solved = []
    solve = ketlab.hilbert.eigendecompose

    def counted(op):
        solved.append(op)
        return solve(op)

    monkeypatch.setattr(ketlab.hilbert, "eigendecompose", counted)
    assert main(["protective", "--observable", "x"]) == 0
    first = len(solved)
    assert main(["protective", "--observable", "x"]) == 0
    assert len(solved) == first


def test_flags_beat_config_file_beats_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "protective", "n": 10, "seed": 3}))
    assert main(["--config", str(cfg), "protective", "--n", "5"]) == 0
    manifest = read_manifest(tmp_path, "protective.json")
    assert manifest["config"]["n"] == 5        # flag wins
    assert manifest["config"]["seed"] == 3     # file beats default
    assert manifest["config"]["g"] == 0.005    # default fills the rest


def test_config_file_rejections(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"cycles": 10}))
    assert main(["--config", str(bad_key), "protective"]) == 2
    wrong_sub = tmp_path / "wrong.json"
    wrong_sub.write_text(json.dumps({"subcommand": "leak"}))
    assert main(["--config", str(wrong_sub), "protective"]) == 2
    assert main(["--config", str(tmp_path / "absent.json"), "protective"]) == 2
    not_obj = tmp_path / "list.json"
    not_obj.write_text("[1, 2]")
    assert main(["--config", str(not_obj), "protective"]) == 2
    retired = tmp_path / "retired.json"   # the simplex grid's former knob
    retired.write_text(json.dumps({"resolution": 8}))
    assert main(["--config", str(retired), "onto"]) == 2


@pytest.mark.parametrize("typed,spelled", [
    (["protective", "--phi", "-1e-3"], ["protective", "--phi=-1e-3"]),
    (["scan", "--offset", "-1e0"], ["scan", "--offset=-1e0"]),
    (["protective", "--sweep-g", "-0.001,0.002"], ["protective", "--sweep-g=-0.001,0.002"]),
    (["leak", "--prepared", "-0.5:1"], ["leak", "--prepared=-0.5:1"]),
    # a two-valued flag has no `=` spelling, so its config file gives the pair
    (["nogo", "--pair", "-0.5:1", "0"], ["--config", "../pair.json", "nogo"]),
])
def test_a_value_that_starts_like_a_negative_number_is_read_as_one(tmp_path, monkeypatch,
                                                                   typed, spelled):
    """argparse reads only a plain negative decimal after a flag as its
    value; `-1e-3`, `-0.001,0.002` and `-0.5:1` run as their `=` or config
    file spellings do, artifacts byte for byte."""
    (tmp_path / "pair.json").write_text(json.dumps({"pair": ["-0.5:1", "0"]}))
    written = []
    for name, argv in (("typed", typed), ("spelled", spelled)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == 0, argv
        written.append({p.name: p.read_bytes() for p in Path.cwd().iterdir()})
    assert written[0] == written[1]
    assert len(written[0]) >= 2


@pytest.mark.parametrize("argv,outputs", [
    (["protective"], ["protective.json"]),
    (["leak"], ["leak.json"]),
    (["scan"], ["scan.csv"]),
    (["pbr", "--trials", "2000"], ["pbr.csv"]),
    (["pbr", "--trials", "2000", "--format", "json", "-o", "pbr.json"], ["pbr.json"]),
    (["steer", "--trials", "50"], ["steer.json"]),
    (["onto"], ["onto.json"]),
    (["nogo", "--sweeps", "20"], ["nogo.json"]),
])
def test_every_subcommand_writes_valid_artifacts(tmp_path, monkeypatch, argv, outputs):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    manifest_name = outputs[0] + ".manifest.json"
    manifest = load_json(tmp_path / manifest_name)
    assert manifest["outputs"] == outputs
    for name in manifest["outputs"] + [manifest_name]:
        validate_artifact(artifact_on_disk(tmp_path / name))


def test_reruns_are_byte_identical(tmp_path):
    """Every file the runs of scripts/artifact_digests.py write, manifests
    and the model file included, is byte-identical in two fresh directories
    of this process, whose kept eigenbases, grids and pointers the first
    pass (and earlier tests) filled, and in a fresh interpreter, whose
    caches start empty."""
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        runs.append(DIGESTS.digest_lines(tmp_path / name))
    assert len(runs[0]) > 2 * len(DIGESTS.COMMANDS)   # every artifact and its manifest
    assert runs[0] == runs[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cold = subprocess.run([sys.executable, str(SCRIPTS / "artifact_digests.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert cold.stdout.splitlines() == runs[0]


@pytest.mark.parametrize("argv", DIGESTS.COMMANDS, ids=" ".join)
def test_a_digest_run_replays_from_its_manifest(tmp_path, monkeypatch, argv):
    """The `config` block a run's manifest echoes is the run: written to a
    --config file and run in a fresh directory (the model file copied in),
    it writes the same files, byte for byte, manifests included."""
    run, replay = tmp_path / "run", tmp_path / "replay"
    run.mkdir()
    replay.mkdir()
    DIGESTS.write_model(run)
    monkeypatch.chdir(run)
    assert main(list(argv)) == 0
    (manifest,) = run.glob("*.manifest.json")
    config = load_json(manifest)["config"]
    shutil.copy(run / "model.json", replay)
    (replay / "cfg.json").write_text(json.dumps(config))
    monkeypatch.chdir(replay)
    assert main(["--config", "cfg.json", config["subcommand"]]) == 0
    (replay / "cfg.json").unlink()
    names = sorted(path.name for path in run.iterdir())
    assert sorted(path.name for path in replay.iterdir()) == names
    for name in names:
        assert (replay / name).read_bytes() == (run / name).read_bytes(), name


def test_seed_changes_the_sampled_counts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["pbr", "--trials", "3000", "-o", "a.csv"]) == 0
    assert main(["pbr", "--trials", "3000", "--seed", "8", "-o", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()


def test_protective_optional_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "protective", "--n", "40", "--tomography",
        "--per-step-csv", "steps.csv",
        "--sweep-g", "0.005,0.01",
        "--dump-joint", "joint.json",
    ])
    assert code == 0
    data = load_json(tmp_path / "protective.json")
    tomography = data["tomography"]
    assert tomography["fidelity"] >= 1.0 - 1e-4
    # the fidelity is |<psi|psi_rebuilt>|^2 of the artifact's own state and rebuilt state
    psi = ketlab.qubit_state(data["state"]["theta"], data["state"]["phi"]).amplitudes
    rebuilt = amplitudes_from_json(tomography["reconstructed"])
    assert abs(abs(np.vdot(psi, rebuilt)) ** 2 - tomography["fidelity"]) <= 1e-15
    assert data["absolute_error"] < 2e-3
    steps = (tmp_path / "steps.csv").read_text().splitlines()
    assert steps[0] == "step,survival,pointer_mean"
    assert len(steps) == 41
    sweep = (tmp_path / "protective.sweep.csv").read_text().splitlines()
    assert sweep[0] == "g,inferred_expectation,absolute_error,survival"
    assert len(sweep) == 3
    joint = load_json(tmp_path / "joint.json")
    assert joint.pop("kind") == "ketlab/joint-state"
    restored = JointSystemPointerState(joint["system_dim"], PointerGrid(**joint["grid"]),
                                       amplitudes_from_json(joint).reshape(2, -1))
    assert restored.system_dim == 2
    manifest = read_manifest(tmp_path, "protective.json")
    assert set(manifest["outputs"]) == {
        "protective.json", "steps.csv", "protective.sweep.csv", "joint.json",
    }


@pytest.mark.parametrize("where", ["flag", "config"])
def test_an_empty_sweep_list_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, where):
    """No coupling to sweep is a configuration error in either form: a
    `--sweep-g` flag with no numbers, or an empty `sweep_g` list in a
    config file, exits 2 and writes no header-only sweep CSV."""
    monkeypatch.chdir(tmp_path)
    if where == "flag":
        argv = ["protective", "--n", "5", "--sweep-g", ","]
        message = "expected a comma-separated list of numbers"
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"sweep_g": []}))
        argv = ["--config", "cfg.json", "protective", "--n", "5"]
        message = "expected a non-empty list of numbers"
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv) == 2
    assert f"parameter 'sweep_g': {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv,name", [
    (["protective", "--n", "5", "--sweep-g", "0.002,,0.003"], "sweep_g"),
    (["protective", "--n", "5", "--sweep-g", "0.002,"], "sweep_g"),
    (["pbr", "--weights", ",0.25,0.25,0.25,0.25"], "weights"),
])
def test_an_empty_item_in_a_number_list_exits_2_and_writes_nothing(tmp_path, monkeypatch,
                                                                    capsys, argv, name):
    """An empty item is a typo, not a number to skip: the run would
    otherwise sweep fewer couplings than were written."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert f"config error: parameter {name!r}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["protective", "--help"]])
def test_help_reads_the_same_from_the_shared_parser(capsys, argv):
    """`main` prints each help text the same way twice in one process, as
    a freshly built parser does."""
    def help_text(parse):
        with pytest.raises(SystemExit) as done:
            parse(argv)
        assert done.value.code == 0
        return capsys.readouterr().out

    fresh = help_text(ketlab.cli.build_parser().parse_args)
    if argv == ["--help"]:
        assert fresh == ketlab.cli.build_parser().format_help()
    assert [help_text(main), help_text(main)] == [fresh, fresh]


_PLAIN = (str, int, float, bool, type(None))


def _is_plain_json(value) -> bool:
    """Plain JSON, where a list of records may come as a `Records` whose
    keys are distinct text and whose columns are lists of one length,
    holding plain scalars of exactly their types."""
    kind = type(value)
    if kind is dict:
        return all(type(k) is str and _is_plain_json(v) for k, v in value.items())
    if kind is list:
        return all(_is_plain_json(v) for v in value)
    if kind is Records:
        keys, columns = value.keys, value.columns
        return (all(type(k) is str for k in keys) and len(set(keys)) == len(keys)
                and len(columns) == len(keys) and all(type(c) is list for c in columns)
                and len({len(c) for c in columns}) <= 1
                and all(type(cell) in _PLAIN for c in columns for cell in c))
    return kind in _PLAIN


def test_the_writers_get_exactly_what_was_checked(tmp_path, monkeypatch):
    """Every payload the writers receive is the object the check returned:
    JSON as plain builtins, CSV rows of cells of their columns' types."""
    checked, handed = [], []
    check = ketlab.cli.validate_artifact

    def recording_check(artifact):
        checked.append(check(artifact))
        assert checked[-1] is artifact
        return checked[-1]

    def dump(data, path):
        handed.append((Path(path).name, "json", data))
        ketlab.serialize.dump_json(data, path)

    def write(path, header, rows):
        handed.append((Path(path).name, "csv", (header, rows)))
        ketlab.serialize.write_csv(path, header, rows)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ketlab.cli, "validate_artifact", recording_check)
    monkeypatch.setattr(ketlab.cli, "dump_json", dump)
    monkeypatch.setattr(ketlab.cli, "write_csv", write)
    assert main(["protective", "--dump-joint", "j.json", "--per-step-csv", "s.csv"]) == 0
    assert sorted(name for name, _, _ in handed) == sorted(
        ["protective.json", "s.csv", "j.json", "protective.json.manifest.json"])
    by_path = {artifact.path.name: artifact for artifact in checked}
    for name, fmt, payload in handed:
        artifact = by_path[name]
        assert artifact.fmt == fmt
        if fmt == "json":
            assert payload is artifact.payload and _is_plain_json(payload)
        else:
            header, rows = payload
            assert rows is artifact.payload[1]
            kinds = ketlab.cli._CSV_COLUMNS[header]
            assert len(rows) == 400
            for row in rows:
                assert tuple(map(type, row)) == kinds


def test_onto_model_evaluation_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "onto", "--model", "orthodox", "--scenario", "qubit",
        "--prep", "0", "--meas", "x", "--mc-trials", "500",
    ])
    assert code == 0
    data = load_json(tmp_path / "onto.json")
    assert data["kind"] == "ketlab/model-eval"
    assert data["model"] == "orthodox"
    assert data["prediction"]["distribution"] == pytest.approx([0.5, 0.5])
    assert all(o["variational_overlap"] == 0.0 for o in data["overlaps"])
    assert data["born_gaps"]["z"] < 1e-12
    assert data["monte_carlo"]["trials"] == 500
    assert data["monte_carlo"]["max_forbidden_frequency"] == 0.0


def test_onto_model_from_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    from ketlab import orthodox_model, qubit_scenario
    from ketlab.serialize import dump_json

    dump_json(orthodox_model(qubit_scenario()).to_json_dict(), tmp_path / "model.json")
    assert main(["onto", "--model", "model.json", "--scenario", "qubit"]) == 0
    data = load_json(tmp_path / "onto.json")
    assert data["model"] == "model.json"
    assert max(data["born_gaps"].values()) < 1e-12


def test_onto_bound_with_monte_carlo(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["onto", "--q", "0.5", "--mc-trials", "400"]) == 0
    data = load_json(tmp_path / "onto.json")
    assert data["violation_lower_bound"] == pytest.approx(0.0625, abs=1e-9)
    assert data["duality_gap"] <= 1e-6
    assert data["monte_carlo"]["trials"] == 400


@pytest.mark.parametrize("model_arg,scenario_name", [
    ("orthodox", "pbr"), ("orthodox", "qubit"), ("model.json", "qubit"), ("part.json", "qubit"),
])
def test_onto_writes_the_born_gaps_of_the_library(tmp_path, monkeypatch, model_arg,
                                                  scenario_name):
    """`born_gaps` is `born_consistency_gap(model, scenario)` as it stands,
    for a model file that defines only "0" and "+" of the qubit scenario's
    four preparations too."""
    from ketlab import OntologicalModel, born_consistency_gap, orthodox_model, qubit_scenario

    monkeypatch.chdir(tmp_path)
    scenario = ketlab.pbr.pbr_scenario() if scenario_name == "pbr" else qubit_scenario()
    full = orthodox_model(qubit_scenario())
    part = OntologicalModel(full.labels, {k: full.preparations[k] for k in ("0", "+")},
                            full.responses)
    dump_json(full.to_json_dict(), tmp_path / "model.json")
    dump_json(part.to_json_dict(), tmp_path / "part.json")
    model = {"orthodox": orthodox_model(scenario), "model.json": full, "part.json": part}
    assert main(["onto", "--model", model_arg, "--scenario", scenario_name]) == 0
    want = born_consistency_gap(model[model_arg], scenario)
    assert load_json(tmp_path / "onto.json")["born_gaps"] == want
    assert list(want) == list(scenario.measurements)


def test_onto_samples_the_witness_of_its_bound(tmp_path, monkeypatch):
    """The bound mode's Monte Carlo is `monte_carlo_onto` of the bound's own
    witness on PBR's scenario, at the run's seed."""
    from ketlab import monte_carlo_onto, pbr_min_violation

    monkeypatch.chdir(tmp_path)
    assert main(["onto", "--q", "0.6", "--mc-trials", "700", "--seed", "11"]) == 0
    report = monte_carlo_onto(pbr_min_violation(0.6).witness, ketlab.pbr.pbr_scenario(), 700,
                              seed=11)
    assert load_json(tmp_path / "onto.json")["monte_carlo"] == report.to_json_dict()


def test_config_error_exits(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["protective", "--n", "notanint"]) == 2
    assert main(["onto", "--prep", "0"]) == 2                  # --meas missing
    assert main(["onto", "--prep", "0", "--meas", "z"]) == 2   # needs --model
    assert main(["leak", "--prepared", "nonsense"]) == 2
    assert main(["pbr", "--weights", "0.5,0.5"]) == 3          # wrong arity


def test_precondition_exits(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["onto", "--q", "1.5"]) == 3
    assert main(["protective", "--g", "0.1"]) == 3  # accumulated wraparound
    assert main(["pbr", "--trials", "-5"]) == 3


def test_a_pair_from_a_flag_or_a_config_file_writes_the_same_bytes(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"pair": ["+", "-"]}))
    written = []
    for name, argv in (("flag", ["nogo", "--pair", "+", "-"]),
                       ("file", ["--config", str(config), "nogo"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(argv) == 0
        written.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert sorted(written[0]) == ["nogo.json", "nogo.json.manifest.json"]
    assert written[0] == written[1]
    assert load_json(tmp_path / "flag" / "nogo.json")["pair"] == ["+", "-"]


def test_nogo_writes_the_bytes_of_every_sweeps_before_and_after(tmp_path, monkeypatch):
    """The largest change and the mean overlap after are those of the list
    of each sweep's (before, after) pair, to the byte, and zero sweeps
    write null for both."""
    monkeypatch.chdir(tmp_path)
    assert main(["nogo", "--sweeps", "100"]) == 0
    data = load_json(tmp_path / "nogo.json")
    ready, s1, s2 = (parse_state_spec(spec) for spec in (data["ready"], *data["pair"]))
    swept = [overlap_preservation_check(haar_random_unitary(4, u), s1, s2, ready)
             for u in chain.from_iterable(uniform_chunks(data["seed"], 0, 100, 32))]
    dump_json(dict(data, max_abs_change=max(abs(a - b) for b, a in swept),
                   mean_overlap_after=float(np.mean([a for _, a in swept]))),
              tmp_path / "want.json")
    assert (tmp_path / "nogo.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert main(["nogo", "--sweeps", "0", "-o", "none.json"]) == 0
    none = load_json(tmp_path / "none.json")
    assert none["max_abs_change"] is None and none["mean_overlap_after"] is None


def test_nogo_memory_does_not_grow_with_sweeps(tmp_path, monkeypatch):
    """A sweep keeps 8 bytes, its overlap after, so 40,000 sweeps peak
    within 0.5 MB of 1,000. What is weighed is the runner's bookkeeping per
    sweep: the unitaries and the check are cheap stand-ins of a pass's
    shapes (its stack of rows, and a view of one float a row, which holds
    its whole pass, so a runner that keeps any pass's result past the pass
    grows by the pass), and passes of 32 rows keep the draw's own working
    set to a few kB, which a run of one pass and a run of many then share."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ketlab.rngs, "SUBSTREAM_CHUNK", 2 ** 10)
    monkeypatch.setattr(ketlab.hilbert, "haar_random_unitary", lambda dim, u: u)
    monkeypatch.setattr(ketlab.pbr, "overlap_preservation_check",
                        lambda u, s1, s2, ready: (0.5, u[:, 0]))
    peaks = [traced_peak(lambda: main(["nogo", "--sweeps", str(n), "-o", f"n{n}.json"]))
             for n in (1000, 40_000)]
    assert load_json(tmp_path / "n40000.json")["sweeps"] == 40_000
    assert peaks[1] < peaks[0] + 5e5


def test_nogo_builds_and_checks_each_pass_of_draws_in_one_call(tmp_path, monkeypatch):
    """A pass of `uniform_chunks` holds SUBSTREAM_CHUNK // 8 rows of 32
    uniforms (1,024), so 76 sweeps more are two passes: one Haar call and
    one check a pass, besides the check of the overlap before, and none a
    sweep."""
    rows = SUBSTREAM_CHUNK // 8
    shapes = {"haar": [], "check": []}
    haar, check = ketlab.hilbert.haar_random_unitary, ketlab.pbr.overlap_preservation_check
    monkeypatch.setattr(ketlab.hilbert, "haar_random_unitary",
                        lambda dim, u: shapes["haar"].append(u.shape) or haar(dim, u))
    monkeypatch.setattr(ketlab.pbr, "overlap_preservation_check",
                        lambda u, *states: shapes["check"].append(u.shape) or check(u, *states))
    monkeypatch.chdir(tmp_path)
    assert main(["nogo", "--sweeps", str(rows + 76)]) == 0
    assert shapes == {"haar": [(rows, 32), (76, 32)],
                      "check": [(4, 4), (rows, 4, 4), (76, 4, 4)]}


def test_nogo_measures_the_change_from_the_before_it_reports(tmp_path, monkeypatch):
    """`overlap_before` is the check's own |<ready (x) s1|ready (x) s2>|,
    which for a ready state off the basis is one bit below |<s1|s2>|, and
    `max_abs_change` is the largest |after - overlap_before| of the sweeps."""
    monkeypatch.chdir(tmp_path)
    assert main(["nogo", "--ready", "+", "--pair", "0", "+", "--sweeps", "20"]) == 0
    data = load_json(tmp_path / "nogo.json")
    assert data["overlap_before"] == 0.7071067811865474
    ready, s1, s2 = (parse_state_spec(spec) for spec in ("+", "0", "+"))
    afters = [overlap_preservation_check(haar_random_unitary(4, u), s1, s2, ready)[1]
              for u in chain.from_iterable(uniform_chunks(data["seed"], 0, 20, 32))]
    assert data["max_abs_change"] == max(abs(a - data["overlap_before"]) for a in afters)


@pytest.mark.parametrize("argv", [
    ["nogo", "--pair", "0", "q"],
    ["nogo", "--seed", "-1"],
    ["nogo", "--seed", str(2 ** 128)],
])
def test_a_bad_pair_or_seed_exits_2_and_writes_nothing(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []


def test_leak_negative_steps_exits_3(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["leak", "--n", "-5"]) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("prepared", ["0", "1e-16:0", "1e-9:0"])
def test_a_leak_of_no_cycles_survives_as_prepared_at_any_overlap(tmp_path, monkeypatch,
                                                                  prepared):
    """No cycle ran, so nothing was protected: an orthogonal pair survives
    in the state it prepared, as a pair just short of orthogonal does, and
    that certain survival is what the run predicts."""
    monkeypatch.chdir(tmp_path)
    assert main(["leak", "--prepared", prepared, "--protected", "1", "--n", "0"]) == 0
    data = load_json(tmp_path / "leak.json")
    assert (data["survival"], data["matches_protected"]) == (1.0, False)
    assert data["predicted_survival"] == 1.0
    state = data["surviving_state"]
    assert state["re"] + state["im"] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-8)


@pytest.mark.parametrize("argv", [
    ["protective", "--theta", "inf"],
    ["pbr", "--weights", "nan,0,0,1", "--trials", "1000"],
    ["scan", "--phase", "nan"],
    ["leak", "--prepared", "nan:0"],
])
def test_non_finite_numbers_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", [
    pytest.param('{"q": NaN}', id="nan"),
    pytest.param('{"q": 1e400}', id="inf"),
    pytest.param('{"q": 1%s}' % ("0" * 400), id="int-past-1e308"),
])
def test_non_finite_numbers_in_a_config_file_exit_2(tmp_path, monkeypatch, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    assert main(["--config", "cfg.json", "onto"]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("argv", [
    ["steer", "--trials", "-3"],
    ["nogo", "--sweeps", "-2"],
    ["onto", "--mc-trials", "-1"],
    ["onto", "--model", "orthodox", "--mc-trials", "-1"],
])
def test_negative_counts_exit_3(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert list(tmp_path.iterdir()) == []


# a model of every preparation and measurement of the qubit scenario, with
# preparation "0" and the first row of the "z" table to fill in
_QUBIT_MODEL = ('{"lambda": ["a", "b"], "preparations": {"0": %s, "1": [0, 1], '
                '"+": [0.5, 0.5], "-": [0.5, 0.5]}, '
                '"responses": {"z": [%s, [0, 1]], "x": [[0.5, 0.5], [0.5, 0.5]]}}')


def _labelled(label: str) -> str:
    """The complete qubit model with `label`, JSON text, for its second lambda."""
    return _QUBIT_MODEL.replace('"b"', label) % ("[1, 0]", "[1, 0]")


@pytest.mark.parametrize("text,code", [
    pytest.param(None, 2, id="missing"),
    pytest.param("{not json", 2, id="not-json"),
    pytest.param('{"lambda": 3, "preparations": {}, "responses": {}}', 3,
                 id="lambda-not-a-list"),
    pytest.param("[1, 2]", 3, id="not-an-object"),
    pytest.param('{"lambda": ["a"], "preparations": {"0": ["x"]}, "responses": {}}', 3,
                 id="text-weights"),
    pytest.param('{"lambda": ["a"], "preparations": {"0": [1%s]}, "responses": {}}' % ("0" * 400),
                 3, id="weight-past-1e308"),
    pytest.param('{"lambda": ["a"], "preparations": {"0": [1.0]}, '
                 '"responses": {"z": [[0.5, 0.25, 0.25]]}}', 3, id="three-outcomes-for-z"),
    pytest.param(_QUBIT_MODEL % ('["1", "0"]', "[1, 0]"), 3, id="numeric-text-weights"),
    pytest.param(_QUBIT_MODEL % ("[false, true]", "[1, 0]"), 3, id="boolean-weights"),
    pytest.param(_QUBIT_MODEL % ("[1, 0]", '["1", "0"]'), 3, id="numeric-text-response-row"),
    pytest.param(_QUBIT_MODEL % ("[1e308, 1e308]", "[1, 0]"), 3, id="weights-summing-past-1e308"),
    pytest.param(_QUBIT_MODEL % ("[[1, 0]]", "[1, 0]"), 3, id="preparation-as-one-row"),
    pytest.param(_QUBIT_MODEL % ("[[1], [0]]", "[1, 0]"), 3, id="preparation-as-a-column"),
    pytest.param('{"lambda": ["a", "b"], "preparations": {"0": [1, 0]}, '
                 '"responses": {"z": [[], []]}}', 3, id="empty-response-rows"),
    *(pytest.param(_labelled(label), 3, id=f"label-{name}") for name, label in [
        ("int", "1"), ("bool", "true"), ("null", "null"), ("object", '{"k": 1}'),
        ("nested-300-deep", "[" * 300 + '"b"' + "]" * 300), ("repeated", '"a"')]),
    pytest.param('{"lambda": [], "preparations": {}, "responses": {}}', 3, id="lambda-empty"),
    # every measurement but not preparation "1": Monte Carlo refuses it
    pytest.param(_QUBIT_MODEL.replace('"1": [0, 1], ', "") % ("[1, 0]", "[1, 0]"), 3,
                 id="lacks-a-scenario-preparation"),
    pytest.param(_QUBIT_MODEL % ("[1, 0]", "[1, 0]"), 0, id="a-complete-qubit-model"),
])
@pytest.mark.filterwarnings("error")   # a warning from numpy too is a failure
def test_bad_model_files_keep_the_exit_code_contract(tmp_path, monkeypatch, text, code):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "model.json").write_text(text)
    assert main(["onto", "--model", "model.json", "--scenario", "qubit",
                 "--mc-trials", "10"]) == code
    written = ["onto.json", "onto.json.manifest.json"] if code == 0 else []
    expected = [] if text is None else sorted(["model.json", *written])
    assert sorted(p.name for p in tmp_path.iterdir()) == expected


@pytest.mark.parametrize("argv,code", [
    (["protective", "--n", "0"], 0),        # nothing to infer: no expectation
    (["protective", "--g", "0"], 0),
    (["leak", "--grid-points", "0"], 3),
    (["scan", "--width", "1e200"], 3),      # the pointer's width ** 2 overflows
    (["scan", "--width", "1e-300"], 3),     # ... or underflows to a zero divisor
    (["scan", "--offset", "60"], 3),        # every amplitude underflows: a zero norm
    (["protective", "--width", "1e200"], 3),
    (["scan", "--grid-points", str(2**40)], 3),   # over the cap, before any allocation
    (["protective", "--n", "65537", "--g", "1e-9"], 3),   # over MAX_STEPS
    (["leak", "--n", "65537", "--g", "1e-9"], 3),
    (["onto", "--mc-trials", str(2 ** 23 + 1)], 3),       # past the budget over PBR's 4 cells
    (["leak", "--prepared", "0", "--protected", "1", "--n", "65537"], 3),   # orthogonal
    (["leak", "--prepared", "0", "--protected", "1", "--g", "1e6"], 3),
    (["leak", "--prepared", "0", "--protected", "1", "--grid-points", "4096"], 3),
    (["pbr", "--weights", "1e308,1e308,1e308,1e308"], 3),   # the weights' sum overflows
    # humps of opposite sign: |<p=0|psi>| = 3.5e-10 is 1e-16 of sum |psi| h, rounding
    (["scan", "--phase", "3.141592653589793", "--width", "1e12", "--separation", "3e12"], 3),
    # past the budget of 2**25 uniforms, refused before any draw: one a round per basis
    (["steer", "--basis", "z", "--trials", str(2 ** 25 + 1)], 3),
    (["steer", "--trials", str(2 ** 24 + 1)], 3),         # two bases
    (["pbr", "--trials", str(2 ** 24 + 1)], 3),           # two uniforms a trial
    # past 2**20 sweeps of 32 uniforms, refused before the overlaps' array (10**12
    # floats is 7.3 TiB)
    (["nogo", "--sweeps", str(10 ** 12)], 3),
    (["nogo", "--sweeps", str(2 ** 64 + 1)], 3),
    # no cycle runs at --n 0, but the first cycle's multipliers are built, so the
    # wraparound guard counts one coupling: these g would overflow them
    (["protective", "--n", "0", "--g", "4.3772936931394826e+305"], 3),
    (["protective", "--n", "0", "--g", "1e306"], 3),
    (["leak", "--n", "0", "--g", "4.3772936931394826e+305"], 3),
    (["leak", "--n", "0", "--g", "1e306"], 3),
])
@pytest.mark.filterwarnings("error")
def test_degenerate_sizes_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys, argv, code):
    """An exit 3 names each of --phase, --trials, --sweeps and --mc-trials it
    was given."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    if code:
        assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    for flag in ("--phase", "--trials", "--sweeps", "--mc-trials"):
        if code == 3 and flag in argv:
            assert flag.lstrip("-").replace("-", "_") in err, (flag, err)


class _Drawn(BaseException):
    """Raised where a Philox block would be evaluated; not an Exception, so
    no stage turns it into an exit code."""


def _drawn(*args, **kwargs):
    raise _Drawn


# Each sampler's run at the edge of the budget of 2**25 uniforms: the
# budget divided by the uniforms one unit of the run draws.
BUDGET_EDGES = {
    "pbr": (["pbr"], "--trials", 2 ** 24),                                  # 2 a trial
    "steer-z": (["steer", "--basis", "z"], "--trials", 2 ** 25),            # 1 a round
    "steer-both": (["steer", "--basis", "both"], "--trials", 2 ** 24),      # 1 a round a basis
    "onto-pbr": (["onto"], "--mc-trials", 2 ** 23),                         # 1 a trial, 4 cells
    "onto-qubit": (["onto", "--model", "orthodox", "--scenario", "qubit"],  # 1 a trial, 8 cells
                   "--mc-trials", 2 ** 22),
    "nogo": (["nogo"], "--sweeps", 2 ** 20),                                # 2 * 4**2 a sweep
}


@pytest.mark.parametrize("run", BUDGET_EDGES)
def test_each_sampler_draws_up_to_its_edge_of_the_budget(tmp_path, monkeypatch, capsys, run):
    """At its edge a run passes its count check and reaches its first
    Philox block; one past the edge exits 3 with the integer rule's
    message naming its flag, evaluates no block and writes nothing."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ketlab.rngs, "_philox_uniforms", _drawn)
    argv, flag, edge = BUDGET_EDGES[run]
    with pytest.raises(_Drawn):
        main([*argv, flag, str(edge)])
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()
    assert main([*argv, flag, str(edge + 1)]) == 3
    name = flag.lstrip("-").replace("-", "_")
    message = f"{name} must be an integer in [0, {edge}], got {edge + 1}"
    assert capsys.readouterr().err == f"ketlab: precondition rejected: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["scan", "-o", "x.json"],
    ["pbr", "-o", "x.json"],
    ["pbr", "--format", "json", "-o", "x.csv"],
    ["protective", "--per-step-csv", "steps.json"],
    ["protective", "--dump-joint", "joint.csv"],
])
def test_output_suffix_must_match_format(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["protective", "--dump-joint", "protective.json"],
    ["protective", "-o", "run.json", "--dump-joint", "./sub/../run.json"],
    ["protective", "--dump-joint", "protective.json.manifest.json"],
    ["protective", "--sweep-g", "0.005", "--per-step-csv", "protective.sweep.csv"],
])
def test_artifact_paths_must_be_distinct(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config,argv", [
    ("protective.json", ["protective", "--n", "5"]),
    ("run.json", ["protective", "-o", "run.json"]),
    ("steer.json.manifest.json", ["steer"]),
    ("steps.csv", ["protective", "--per-step-csv", "steps.csv"]),
])
def test_artifacts_may_not_overwrite_the_config_file(tmp_path, monkeypatch, config, argv):
    monkeypatch.chdir(tmp_path)
    text = '{"seed": 3}'
    (tmp_path / config).write_text(text)
    assert main(["--config", config, *argv]) == 2
    assert (tmp_path / config).read_text() == text
    assert [p.name for p in tmp_path.iterdir()] == [config]


@pytest.mark.parametrize("directory,argv", [
    ("leak.json", ["leak", "--n", "5"]),
    ("leak.json.manifest.json", ["leak", "--n", "5"]),
    ("steps.csv", ["protective", "--n", "5", "--per-step-csv", "steps.csv"]),
])
def test_artifact_paths_may_not_be_existing_directories(tmp_path, monkeypatch, directory,
                                                        argv):
    """No write can replace a directory, and the cleanup of a failed run
    cannot unlink one: such a run is a configuration error before anything
    is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / directory).mkdir()
    assert main(argv) == 2
    assert [p.name for p in tmp_path.iterdir()] == [directory]
    assert list((tmp_path / directory).iterdir()) == []


@pytest.mark.parametrize("argv,suffix,over", [
    (["leak", "-o"], ".json", 1),
    (["protective", "--n", "5", "--per-step-csv"], ".csv", 1),
    (["leak", "-o"], ".json", 0),    # the name fits, its manifest's does not
])
def test_artifact_names_too_long_for_the_filesystem_exit_2(tmp_path, monkeypatch, argv,
                                                           suffix, over):
    monkeypatch.chdir(tmp_path)
    name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + over - len(suffix)) + suffix
    assert main([*argv, name]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,config", [
    (["pbr", "-o", "a/x.csv"], None),
    (["protective", "--n", "5"], {"per_step_csv": "a/s.csv"}),
    (["leak", "--n", "5"], {"output": "x\u0000y.json"}),
], ids=["loop-output", "loop-per-step-csv", "nul-output"])
def test_artifact_paths_the_filesystem_cannot_look_up_exit_2(tmp_path, monkeypatch, capsys,
                                                             argv, config):
    """`a` and `b` are a symlink loop, which `Path.resolve` reports with a
    RuntimeError (an OSError from Python 3.13 on); a NUL in a path raises
    ValueError. Either is a configuration error that names the path, and
    the directory is left as it was."""
    monkeypatch.chdir(tmp_path)
    os.symlink("b", "a")
    os.symlink("a", "b")
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = ["--config", "run.json", *argv]
    def snapshot():
        return {p.name: os.readlink(p) if p.is_symlink() else p.read_bytes()
                for p in tmp_path.iterdir()}

    before = snapshot()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ketlab: config error: artifact path ") and "cannot be used" in err
    assert snapshot() == before


@pytest.mark.parametrize("argv,config,refusal", [
    (["--config", "run\0.json", "leak"], None, "cannot read config file 'run\\x00.json'"),
    (["onto", "--model", "model\0.json"], None, "cannot read model file 'model\\x00.json'"),
    (["leak"], {"output": "x\0y.json"}, "artifact path 'x\\x00y.json' cannot be used"),
], ids=["config", "model", "output"])
def test_an_input_path_with_a_nul_cannot_be_read(tmp_path, monkeypatch, capsys, argv, config,
                                                 refusal):
    """open refuses an input path with a NUL before it reads a byte, so
    the file is not said to hold invalid JSON, and no artifact path may
    hold one. Each message quotes its path, so stderr stays text."""
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = ["--config", "run.json", *argv]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"ketlab: config error: {refusal}: embedded null byte\n"
    assert "\0" not in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv,refusal", [
    (["leak", "-o", "x\x1b[1my.txt"], "artifact path 'x\\x1b[1my.txt' does not end in .json"),
    (["leak", "-o", "d\x1b.json"], "artifact path 'd\\x1b.json' is an existing directory"),
    (["protective", "--per-step-csv", "p\x1b.sweep.csv", "-o", "p\x1b.json", "--sweep-g",
      "0.005"], "artifact path 'p\\x1b.sweep.csv' would overwrite the artifact at "
                "'p\\x1b.sweep.csv'"),
    (["onto", "--model", "m\x1b[1m.json"], "cannot read model file 'm\\x1b[1m.json': "
                                            "[Errno 2] No such file or directory: "
                                            "'m\\x1b[1m.json'"),
    (["onto", "--model", "bad\x1b.json"], "model file 'bad\\x1b.json' is not valid JSON: "
                                           "Expecting value: line 1 column 1 (char 0)"),
], ids=["suffix", "directory", "overwrite", "unreadable", "invalid-json"])
def test_a_path_with_an_escape_is_quoted_in_its_error(tmp_path, monkeypatch, capsys, argv,
                                                      refusal):
    """An escape sequence in a path reaches the terminal as text, never as
    the sequence itself."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d\x1b.json").mkdir()
    (tmp_path / "bad\x1b.json").write_text("")
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ketlab: config error: {refusal}\n"
    assert sorted(tmp_path.iterdir()) == before


def with_runner(name, runner):
    """`COMMANDS[name]` with `runner` in place of its own."""
    return CommandSpec(**{**vars(COMMANDS[name]), "runner": runner})


def _json_runner(path_of):
    """A `steer` runner whose artifacts are the real steer payload at the
    paths `path_of(cfg)` names."""
    runner = COMMANDS["steer"].runner

    def steer_at(cfg):
        artifacts, summary = runner(cfg)
        return [Artifact(path, "json", artifacts[0].payload) for path in path_of(cfg)], summary
    return steer_at


@pytest.mark.parametrize("path_of", [
    lambda cfg: [cfg.output, cfg.output],             # two artifacts at one path
    lambda cfg: [Path("steer.csv")],                   # a JSON artifact at a .csv path
    lambda cfg: [Path("steer.json.manifest.json")],    # at the manifest's path
], ids=["shared", "suffix", "manifest"])
def test_the_path_rules_cover_the_artifacts_a_runner_builds(tmp_path, monkeypatch, capsys,
                                                            path_of):
    """The paths are checked as the runner built them, not as flags predict
    them, so a runner that breaks a rule exits 2 and writes nothing."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(COMMANDS, "steer", with_runner("steer", _json_runner(path_of)))
    assert main(["steer", "--trials", "10"]) == 2
    assert "artifact path 'steer." in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_an_existing_directory_resolves_and_is_refused_before_any_write(tmp_path,
                                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.json").mkdir()
    argv = ["leak", "--n", "5", "-o", "out.json"]
    cfg = ketlab.cli.resolve_config(ketlab.cli.build_parser().parse_args(argv))
    assert cfg.output == Path("out.json")
    assert main(argv) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    assert list((tmp_path / "out.json").iterdir()) == []


def test_a_run_that_fails_validation_leaves_no_files(tmp_path, monkeypatch):
    def invalid_runner(cfg):
        good = {"kind": "ketlab/nogo", "command": "nogo", "sweeps": 0, "seed": 7,
                "ready": "0", "pair": ["0", "+"], "overlap_before": 0.5,
                "max_abs_change": None, "mean_overlap_after": None}
        bad = {"kind": "ketlab/steering", "command": "steer", "trials": 1, "seed": 7,
               "bases": {"z": {"outcome_counts": {"+1": 0.5}, "bob_states": {},
                               "marginal_trace_distance": 0.0}}}
        return [Artifact(tmp_path / "good.json", "json", good),
                Artifact(cfg.output, "json", bad)], "summary"

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(COMMANDS, "steer", with_runner("steer", invalid_runner))
    assert main(["steer"]) == 4
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("payload", [
    pytest.param({"kind": "ketlab/nope"}, id="unknown-kind"),
    pytest.param({"command": "steer", "trials": 3}, id="no-kind"),
    pytest.param([{"kind": "ketlab/steering"}], id="list"),
])
def test_an_artifact_of_unknown_kind_exits_4_and_writes_nothing(tmp_path, monkeypatch,
                                                                 capsys, payload):
    """The schemas do not restate that a JSON artifact is an object whose
    kind names a schema: `validate_artifact` alone refuses every other."""
    def unknown_kind_runner(cfg):
        return [Artifact(cfg.output, "json", payload)], "summary"

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(COMMANDS, "steer", with_runner("steer", unknown_kind_runner))
    assert main(["steer"]) == 4
    assert "steer.json has no 'kind' with a schema" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing", ["leak.json", "leak.json.manifest.json"])
def test_a_failed_write_removes_the_half_written_file(tmp_path, monkeypatch, failing):
    """A write that fails partway (here a full disk after half the text)
    must not leave its truncated file behind."""
    write_text = Path.write_text

    def full_disk(self, text, *args, **kwargs):
        if self.name == failing:
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(Path, "write_text", full_disk)
    assert main(["leak", "--n", "5"]) == 2
    assert list(tmp_path.iterdir()) == []


def _divide(*args, **kwargs):
    return 1 / 0


def _divide_on_the_manifest(data, path):
    if Path(path).name.endswith(".manifest.json"):
        _divide()
    ketlab.serialize.dump_json(data, path)


@pytest.mark.parametrize("stage,name,replacement", [
    ("parse", "_parser", _divide),
    ("resolve", "resolve_config", _divide),
    ("compute", None, _divide),
    ("check", "validate_artifact", _divide),
    ("write", "dump_json", _divide_on_the_manifest),   # after leak.json is written
])
def test_any_other_exception_exits_4_naming_its_stage(tmp_path, monkeypatch, capsys,
                                                      stage, name, replacement):
    """A ZeroDivisionError is not one of the package's errors: in any stage
    it exits 4 with that stage named, and leaves the directory as it was."""
    monkeypatch.chdir(tmp_path)
    if name is None:
        monkeypatch.setitem(COMMANDS, "leak", with_runner("leak", replacement))
    else:
        monkeypatch.setattr(ketlab.cli, name, replacement)
    assert main(["leak", "--n", "5"]) == 4
    assert f"ZeroDivisionError in the {stage} stage" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_failed_write_removes_the_previous_runs_files_it_started(tmp_path, monkeypatch):
    """A failed write removes every file it started, a previous run's
    files included: the rerun replaced leak.json before its manifest write
    failed, so neither the old nor the new set is left."""
    monkeypatch.chdir(tmp_path)
    assert main(["leak", "--n", "5"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["leak.json",
                                                          "leak.json.manifest.json"]
    monkeypatch.setattr(ketlab.cli, "dump_json", _divide_on_the_manifest)
    assert main(["leak", "--n", "5"]) == 4
    assert list(tmp_path.iterdir()) == []


def test_a_failed_check_keeps_the_previous_runs_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["leak", "--n", "5"]) == 0
    names = ("leak.json", "leak.json.manifest.json")
    before = {name: (tmp_path / name).read_bytes() for name in names}
    runner = COMMANDS["leak"].runner

    def high_survival(cfg):
        artifacts, summary = runner(cfg)
        artifacts[0].payload["survival"] = "high"
        return artifacts, summary

    monkeypatch.setitem(COMMANDS, "leak", with_runner("leak", high_survival))
    assert main(["leak", "--n", "5"]) == 4
    assert {name: (tmp_path / name).read_bytes() for name in names} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def _set_pbr_count(data, value):
    data["counts"]["0+"][0] = value


def _set_steering_count(data, value):
    data["bases"]["z"]["outcome_counts"]["+1"] = value


def _set_monte_carlo_count(data, value):
    data["monte_carlo"]["counts"]["00"]["xi"][1] = value


def _set_trials(data, value):
    data["trials"] = value


def _set_sweeps(data, value):
    data["sweeps"] = value


@pytest.mark.parametrize("argv,output,mutate", [
    (["pbr", "--format", "json", "--trials", "40"], "pbr.json", _set_pbr_count),
    (["steer", "--trials", "40"], "steer.json", _set_steering_count),
    (["onto", "--mc-trials", "40"], "onto.json", _set_monte_carlo_count),
    (["pbr", "--format", "json", "--trials", "40"], "pbr.json", _set_trials),
    (["steer", "--trials", "40"], "steer.json", _set_trials),
    (["nogo", "--sweeps", "2"], "nogo.json", _set_sweeps),
])
@pytest.mark.parametrize("count", [3.0, 2.5, -1])
def test_counts_must_be_nonnegative_integers(tmp_path, monkeypatch, argv, output, mutate,
                                             count):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    data = load_json(tmp_path / output)
    mutate(data, count)
    with pytest.raises(InternalError, match="bad.json fails its schema"):
        validate_artifact(Artifact(tmp_path / "bad.json", "json", data))


def reference_steer_bases(seed, bases, trials):
    """The former round loop of `ketlab steer`, one substream per round
    whose first uniform walks the basis's table, kept as the oracle for the
    array draws."""
    stream = 0
    out = {}
    for basis in bases:
        table = steering_table(basis)
        outcome_counts, bob_states = {}, {}
        for _ in range(trials):
            k = int(inverse_cdf(table.weights, substream(seed, stream).random()))
            stream += 1
            key = f"{table.eigenvalues[k]:+g}"
            outcome_counts[key] = outcome_counts.get(key, 0) + 1
            if key not in bob_states:
                bob_states[key] = table.bob_states[k].to_json_dict()
        out[basis] = (outcome_counts, bob_states)
    return out


@pytest.mark.parametrize("seed", [7, 12345, 2 ** 64 - 1])
def test_steer_matches_the_round_loop_across_chunks(tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ketlab.rngs, "SUBSTREAM_CHUNK", 8)
    assert main(["steer", "--trials", "37", "--seed", str(seed)]) == 0
    data = json.loads((tmp_path / "steer.json").read_text())
    want = reference_steer_bases(seed, ("z", "x"), 37)
    for basis, (counts, states) in want.items():
        got = data["bases"][basis]
        assert got["outcome_counts"] == counts
        assert_close_payload(got["bob_states"], states)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_every_schema_is_valid_against_its_metaschema(kind):
    schema = SCHEMAS[kind]
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schema_violation_raises_internal_error(tmp_path):
    path = tmp_path / "bad.json"
    bad = Artifact(path, "json", {"kind": "ketlab/steering", "command": "steer",
                                  "trials": "many"})
    with pytest.raises(InternalError, match="bad.json fails its schema"):
        validate_artifact(bad)
    # a second check of the same kind must reject too
    with pytest.raises(InternalError, match="fails its schema"):
        validate_artifact(bad)
    assert not path.exists()


def test_internal_error_exit(tmp_path, monkeypatch):
    def all_on_first_outcome(cost):   # a witness that misses the lower bound
        return np.eye(cost.shape[0])[np.zeros(cost.shape[1], dtype=int)]

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ketlab.ontology, "_even_split", all_on_first_outcome)
    assert main(["onto", "--q", "1.0"]) == 4
    assert list(tmp_path.iterdir()) == []


def test_steer_single_basis(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["steer", "--trials", "30", "--basis", "z"]) == 0
    data = load_json(tmp_path / "steer.json")
    assert list(data["bases"]) == ["z"]
    assert data["bases"]["z"]["marginal_trace_distance"] < 1e-12
    assert sum(data["bases"]["z"]["outcome_counts"].values()) == 30


def test_scan_gaussian_profile(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["scan", "--profile", "gaussian", "--offset", "1.0"]) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "x,re_scan,im_scan,re_psi,im_psi"
    assert len(lines) == 513


def test_a_narrow_gaussian_scans_to_its_own_profile(tmp_path, monkeypatch):
    """<p=0|psi> scales as sqrt(width): a plain Gaussian of width 1e-21 has
    |<p=0|psi>| = 7.1e-11, all of sum |psi| h, and scans to psi over one
    real constant."""
    monkeypatch.chdir(tmp_path)
    assert main(["scan", "--profile", "gaussian", "--width", "1e-21"]) == 0
    rows = np.loadtxt(tmp_path / "scan.csv", delimiter=",", skiprows=1)
    scan, psi = rows[:, 1], rows[:, 3]
    assert not rows[:, [2, 4]].any()
    held = psi > 1e-3 * psi.max()
    ratio = psi[held] / scan[held]
    assert np.ptp(ratio) <= 1e-12 * ratio[0]


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """The directory of one run of every command in artifact_digests.COMMANDS."""
    directory = tmp_path_factory.mktemp("digests")
    DIGESTS.digest_lines(directory)
    return directory


@pytest.mark.parametrize("argv,artifact", [
    ([command], artifact) for command, artifact in REGENERATE.DEFAULTS.items()])
def test_default_runs_match_golden(digest_run, argv, artifact):
    """Every subcommand at factory defaults (seed 7), as the digest runs
    make it, must reproduce its artifact and manifest in tests/golden.
    Counts compare exactly; floats to 1e-9, leaving room for BLAS-level
    variation across machines. Manifest versions compare by key only,
    since the host's libraries differ from the ones the goldens were
    written with."""
    assert argv in DIGESTS.COMMANDS
    golden = GOLDEN_DIR / artifact
    fresh = digest_run / artifact
    if artifact.endswith(".json"):
        assert_close_payload(load_json(fresh), load_json(golden))
    else:
        compare_csv(fresh, golden)
    got = read_manifest(digest_run, artifact)
    want = read_manifest(GOLDEN_DIR, artifact)
    for key in ("kind", "command", "config", "seed", "outputs"):
        assert got[key] == want[key], key
    assert set(got["versions"]) == set(want["versions"])
    assert set(got) == set(want)


@pytest.mark.parametrize("name", SEEDED_NAMES)
def test_digest_runs_match_their_seeded_goldens(digest_run, name):
    """Each artifact under 4 KB that the digest runs write reproduces its
    file in tests/golden_seeded, which scripts/regenerate_golden.py writes
    from the same runs: counts and text exactly, floats to 1e-9."""
    fresh, golden = digest_run / name, REGENERATE.SEEDED / name
    if name.endswith(".json"):
        assert_close_payload(load_json(fresh), load_json(golden))
    else:
        compare_csv(fresh, golden)


@pytest.mark.parametrize("name", sorted(GOLDEN_REDUCTIONS))
def test_digest_runs_match_their_golden_reductions(digest_run, name):
    """Each artifact of 4 KB or more that the digest runs write reduces to
    its entry in tests/golden_reductions.json, which
    scripts/regenerate_golden.py writes from the same runs: ints, text,
    bools and nulls exactly, each number array by its length, sum and
    extremes, and floats to 1e-9, NaN equal to NaN."""
    assert_close_payload(REGENERATE.reduction(digest_run / name), GOLDEN_REDUCTIONS[name])


def test_every_small_digest_artifact_has_a_seeded_golden(digest_run):
    """Each artifact of the digest runs has exactly one pin: a default one
    its file in tests/golden, another under 4 KB its file in
    tests/golden_seeded, and a larger one its reduction. The three stores'
    names together are the run's, each once, so no two stores share a
    name; a digest run added needs its pin, and a pin whose run is gone
    goes with it."""
    defaults = [path.name for path in REGENERATE.artifact_files(GOLDEN_DIR)]
    assert defaults == sorted(REGENERATE.DEFAULTS.values())
    assert [path.name for path in REGENERATE.seeded_files(digest_run)] == SEEDED_NAMES
    assert sorted(defaults + SEEDED_NAMES + list(GOLDEN_REDUCTIONS)) == [
        path.name for path in REGENERATE.artifact_files(digest_run)]


def test_default_steer_is_byte_identical_to_golden(digest_run):
    """Steering rounds draw against a per-basis outcome table; the default
    run must still write the checked-in artifact byte for byte."""
    assert (digest_run / "steer.json").read_bytes() == (GOLDEN_DIR / "steer.json").read_bytes()


def test_manifest_lists_outputs_relative_to_its_own_directory(tmp_path, monkeypatch):
    """Two artifacts with one name in two directories stay apart in the
    manifest, which lists each path as seen from its own directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert main(["protective", "--n", "5", "-o", "a/x.json", "--dump-joint", "b/x.json"]) == 0
    manifest = load_json(tmp_path / "a" / "x.json.manifest.json")
    assert manifest["outputs"] == ["x.json", "../b/x.json"]
    for name in manifest["outputs"]:
        assert (tmp_path / "a" / name).is_file()


def test_manifest_beside_its_artifacts_lists_bare_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    assert main(["protective", "--n", "5", "-o", "out/p.json",
                 "--per-step-csv", str(tmp_path / "out" / "s.csv")]) == 0
    assert read_manifest(tmp_path / "out", "p.json")["outputs"] == ["p.json", "s.csv"]


@pytest.mark.parametrize("header,rows,where", [
    (("step", "survival"), [(1, 0.5)], "bad.csv:1"),
    (("step", "survival", "pointer_mean"), [(1, 0.5)], "bad.csv:2"),
    (("step", "survival", "pointer_mean"), [(1, 0.5, 0.0), (3.5, 0.5, 0.0)], "bad.csv:3"),
    (("step", "survival", "pointer_mean"), [(1, None, 0.0)], "bad.csv:2"),
    # a bool is no int, in a CSV column as in JSON
    (("step", "survival", "pointer_mean"), [(True, 0.5, 0.0)], "bad.csv:2"),
])
def test_the_csv_check_names_the_file_and_line_it_rejects(tmp_path, header, rows, where):
    """An unknown header, a row of the wrong length and a cell its
    column's parser rejects (3.5 as a step, None as a float) each fail."""
    with pytest.raises(InternalError, match=f"^{where}: "):
        validate_artifact(Artifact(tmp_path / "bad.csv", "csv", (header, rows)))
    assert list(tmp_path.iterdir()) == []


def test_a_run_whose_csv_fails_the_check_writes_nothing(tmp_path, monkeypatch, capsys):
    def bad_step_runner(cfg):
        rows = [(1, 0.5, 0.0), (2.5, 0.5, 0.0)]
        return [Artifact(cfg.output, "csv", (ketlab.cli.PER_STEP_HEADER, rows))], "summary"

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(COMMANDS, "scan", with_runner("scan", bad_step_runner))
    assert main(["scan"]) == 4
    assert "scan.csv:3: cell '2.5' fails int" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("log,error", [
    (Records(("step", "survival"), ([1], [np.float64(0.5)])),
     "cannot serialize value of type float64"),
    (Records(("step", "survival"), ([1, 2], [0.5])),
     "records need one list per key, all of one length: 2 keys, columns [2, 1]"),
    (Records(("step", "step"), ([1], [2])),
     "records need distinct text keys, not ('step', 'step')"),
])
def test_a_run_whose_per_step_log_fails_the_check_writes_nothing(tmp_path, monkeypatch,
                                                                 capsys, log, error):
    """A per-step log that `dump_json` would refuse is refused by the check,
    at the log's place in the artifact, before any file is opened."""
    runner = COMMANDS["protective"].runner

    def bad_log_runner(cfg):
        artifacts, summary = runner(cfg)
        artifacts[0].payload["run"]["per_step_log"] = log
        return artifacts, summary

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(COMMANDS, "protective", with_runner("protective", bad_log_runner))
    assert main(["protective", "--n", "5"]) == 4
    assert (f"protective.json fails its schema: $.run.per_step_log: {error}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_stdout_closed_by_its_reader_keeps_the_run_a_success(tmp_path, unbuffered):
    """`ketlab protective -o x.json | (exec 0<&-; true)`: stdout's reader
    is gone before the summary is printed, after both files are written
    and checked. The run exits 0, prints no traceback, and keeps them,
    whether the print fails (unbuffered) or the flush at exit would. So do
    `ketlab --help` and `ketlab protective --help`, which argparse prints
    and then exits, and they write no file."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for argv in (["--help"], ["protective", "--help"], ["protective", "--n", "5", "-o", "x.json"]):
        child = subprocess.Popen([sys.executable, "-m", "ketlab.cli", *argv], cwd=tmp_path,
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=120) == 0, (argv, stderr)
        assert stderr == "", argv
        written = [] if "--help" in argv else ["x.json", "x.json.manifest.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == written, argv
    assert load_json(tmp_path / "x.json")["run"]["steps"] == 5


def test_a_sampled_protective_run_that_aborts_says_where(tmp_path, monkeypatch, capsys):
    """The seed is the first whose sampled run, at the CLI's defaults but
    for n and g, aborts in the library."""
    psi, grid = ketlab.qubit_state(0.5236, 0.0), ketlab.default_grid(1.0, 512)
    seed, step = next(
        (seed, run.aborted_at_step) for seed in range(100)
        for run in [ketlab.protective_measure(psi, ketlab.sigma_z(), n=40, g=0.2, grid=grid,
                                              mode="sampled", seed=seed)]
        if run.aborted_at_step is not None
    )
    monkeypatch.chdir(tmp_path)
    assert main(["protective", "--mode", "sampled", "--n", "40", "--g", "0.2",
                 "--seed", str(seed)]) == 0
    assert f"sampled run aborted at protection step {step}\n" in capsys.readouterr().out
    assert load_json(tmp_path / "protective.json")["run"]["aborted_at_step"] == step


def test_the_seed_reaches_the_key_s_high_word(tmp_path, monkeypatch):
    """`--seed` takes [0, 2**128), as every draw does: at 2**128 - 1 a
    sampled run writes the survivals and abort step of the library's run
    with that seed. The seed cut to its low word, 2**64 - 1, survives all
    40 steps, where the full seed aborts."""
    seed = 2 ** 128 - 1
    psi, grid = ketlab.qubit_state(0.5236, 0.0), ketlab.default_grid(1.0, 512)
    want = ketlab.protective_measure(psi, ketlab.sigma_z(), n=40, g=0.2, grid=grid,
                                     mode="sampled", seed=seed)
    monkeypatch.chdir(tmp_path)
    assert main(["protective", "--mode", "sampled", "--n", "40", "--g", "0.2",
                 "--seed", str(seed)]) == 0
    run = load_json(tmp_path / "protective.json")["run"]
    assert run["aborted_at_step"] == want.aborted_at_step is not None
    assert [row["survival"] for row in run["per_step_log"]] == list(want.survivals)
    assert load_json(tmp_path / "protective.json.manifest.json")["seed"] == seed


def test_a_sampled_sweep_point_is_the_run_its_coupling_would_be(tmp_path, monkeypatch):
    """A sweep point differs from the main run in g alone, so it samples
    with the run's mode and seed: at the run's g it aborts where the run
    does."""
    monkeypatch.chdir(tmp_path)
    assert main(["protective", "--mode", "sampled", "--n", "40", "--g", "0.2", "--seed", "0",
                 "--sweep-g", "0.1,0.2"]) == 0
    run = load_json(tmp_path / "protective.json")["run"]
    assert run["aborted_at_step"] == 28
    last = (tmp_path / "protective.sweep.csv").read_text().splitlines()[-1].split(",")
    assert [float(last[0]), float(last[1]), float(last[3])] == [
        0.2, run["inferred_expectation"], run["survival_probability"]]


def test_a_sampled_sweep_point_that_aborts_at_once_is_a_nan_row(tmp_path, monkeypatch):
    """At g = 0.25 this seed's sampled run aborts at its first protection,
    which a main run reports and exits 0 for; as a sweep point it is the
    same run, written with nan where it has no readout."""
    monkeypatch.chdir(tmp_path)
    argv = ["protective", "--observable", "x", "--mode", "sampled", "--n", "40",
            "--seed", "219"]
    assert main([*argv, "--g", "0.25", "-o", "alone.json"]) == 0
    assert load_json(tmp_path / "alone.json")["run"]["aborted_at_step"] == 1
    assert main([*argv, "--g", "0.01", "--sweep-g", "0.25"]) == 0
    rows = (tmp_path / "protective.sweep.csv").read_text().splitlines()
    assert rows[1:] == ["0.25,nan,nan,1.0"]


def test_a_sweep_point_without_an_expectation_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["protective", "--n", "5", "--sweep-g", "0,0.005"]) == 3
    assert "sweep coupling g=0.0 yields no inferred expectation" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,g", [
    (["protective", "--g", "1e-21"], "1e-21"),
    (["protective", "--g", "1e-30", "--observable", "x"], "1e-30"),
    (["protective", "--sweep-g", "0.005,1e-25"], "1e-25"),
    (["leak", "--g=-1e-300"], "-1e-300"),
])
def test_a_coupling_too_small_to_resolve_exits_3(tmp_path, monkeypatch, capsys, argv, g):
    """Below the smallest resolvable phase step the readout is rounding
    divided by n g, so the run writes nothing, sweep points included."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ketlab: precondition rejected: coupling g={g} is too small")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["protective", "--width", "1e-300"],
     "width 1e-300 is out of range: 4 width^2 must be a positive normal float"),
    (["scan", "--width", "1e-9"], "--separation 3.0 puts a hump centre at 1.5, off the grid "
                                  "[-2e-08, 2e-08] of --width 1e-09"),
    (["scan", "--offset", "1e308"], "--offset 1e+308 puts a hump centre at 1e+308, off the "
                                    "grid [-20, 20] of --width 1.0"),
], ids=["protective-width", "scan-width", "scan-offset"])
def test_a_profile_off_its_grid_exits_3_naming_the_flag(tmp_path, monkeypatch, capsys, argv,
                                                        message):
    """A width whose square underflows, or a hump centred off the grid,
    leaves a profile with no norm to take; the check before it is built
    names the flag."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"ketlab: precondition rejected: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_prediction_needs_both_prep_and_meas(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["onto", "--model", "orthodox", "--prep", "0"]) == 2
    assert "--prep and --meas must be given together" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flag", [
    (["--scenario", "qubit"], "--scenario"),
    (["--scenario", "qubit", "--mc-trials", "10"], "--scenario"),
    (["--model", "orthodox", "--q", "7"], "--q"),
    (["--model", "orthodox", "--q", "0.5", "--mc-trials", "10"], "--q"),
])
def test_each_onto_mode_refuses_a_flag_only_the_other_reads(tmp_path, monkeypatch, capsys,
                                                           argv, flag):
    """The bound's scenario is PBR's, and --q weighs the bound's shared
    reality only, so neither is ignored by a run whose manifest echoes it."""
    monkeypatch.chdir(tmp_path)
    assert main(["onto", *argv]) == 2
    assert f"ketlab: config error: {flag} only applies when --model is" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,default", [
    (["--q", "0.3"], ["--scenario", "pbr"]),
    (["--model", "orthodox"], ["--q", "1.0"]),
])
def test_an_onto_flag_at_its_default_is_accepted_in_either_mode(tmp_path, monkeypatch, argv,
                                                                 default):
    """A flag the mode does not read may still be given its default value,
    and the run writes the bytes it writes without it."""
    (tmp_path / "with").mkdir()
    (tmp_path / "without").mkdir()
    monkeypatch.chdir(tmp_path / "with")
    assert main(["onto", *argv, *default]) == 0
    monkeypatch.chdir(tmp_path / "without")
    assert main(["onto", *argv]) == 0
    written = {path.name: path.read_bytes() for path in (tmp_path / "with").iterdir()}
    assert written == {path.name: path.read_bytes() for path in (tmp_path / "without").iterdir()}
    assert sorted(written) == ["onto.json", "onto.json.manifest.json"]


@pytest.mark.parametrize("argv", [["--prep", "0"], ["--meas", "z"]])
def test_a_lone_prep_or_meas_exits_2_before_the_model_is_evaluated(tmp_path, monkeypatch,
                                                                   capsys, argv):
    def no_work(*args, **kwargs):
        raise RuntimeError("the model was evaluated")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ketlab.ontology, "overlap", no_work)
    assert main(["onto", "--model", "orthodox", *argv]) == 2
    assert "--prep and --meas must be given together" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["scan", "protective"])
def test_an_overflowing_width_exits_3_with_only_its_message(tmp_path, monkeypatch, capsys,
                                                            command):
    """The pointer's width ** 2 overflows on purpose: the non-finite norm is
    what the wavefunction check rejects, and no numpy warning reaches the
    user."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--width", "1e200"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ketlab: precondition rejected: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_every_digest_command_hands_the_check_plain_json(tmp_path, monkeypatch):
    """Each runner builds its JSON payloads, manifest included, from plain
    builtins: the check reads each as it is, and the writer gets the very
    object that was checked. Together the digest runs write every JSON kind
    and every CSV layout the check knows, so a new format needs its digest
    line."""
    checked, dumped, formats = [], [], set()
    check = ketlab.cli.validate_artifact

    def recording_check(artifact):
        if artifact.fmt == "json":
            checked.append(artifact.payload)
        check(artifact)
        formats.add(artifact.payload["kind"] if artifact.fmt == "json"
                    else tuple(artifact.payload[0]))
        return artifact

    def dump(data, path):
        dumped.append(data)
        ketlab.serialize.dump_json(data, path)

    monkeypatch.chdir(tmp_path)
    DIGESTS.write_model(tmp_path)
    monkeypatch.setattr(ketlab.cli, "validate_artifact", recording_check)
    monkeypatch.setattr(ketlab.cli, "dump_json", dump)
    for argv in DIGESTS.COMMANDS:
        checked.clear()
        dumped.clear()
        assert main(list(argv)) == 0, argv
        assert checked and all(_is_plain_json(payload) for payload in checked), argv
        assert len(dumped) == len(checked), argv
        assert all(got is want for got, want in zip(dumped, checked)), argv
    assert formats == {*SCHEMAS, *ketlab.cli._CSV_COLUMNS}


def test_the_cli_names_the_qubit_kets_hilbert_builds():
    assert ketlab.cli._NAMED_KETS == tuple(ketlab.hilbert.QUBIT_KETS)
