"""The example scripts still run against the package and keep their promises."""

import ast
import csv
import hashlib
import runpy
import sys

import ketlab.cli
from ketlab.ontology import DUALITY_GAP_TOL
from ketlab.serialize import load_json
from conftest import SCRIPTS, load_script
from oracles import canonical_json


def run_script(name, monkeypatch, *args):
    """Run a script as `python3 scripts/<name>.py args...` would."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / f"{name}.py"), *map(str, args)])
    runpy.run_path(str(SCRIPTS / f"{name}.py"), run_name="__main__")


def test_coupling_sweep_bias_falls_as_g_squared():
    sweep = load_script("protective_coupling_sweep")
    rows = sweep.sweep()
    assert [row[0] for row in rows] == list(sweep.LADDER)
    # halving g at fixed n*g cuts the error by ~4 at every rung
    ratios = [row[-1] for row in rows[1:]]
    assert all(3.5 < ratio < 4.5 for ratio in ratios), ratios


def test_violation_curve_is_a_quarter_q_squared(tmp_path, monkeypatch):
    out = tmp_path / "curve.csv"
    run_script("overlap_violation_curve", monkeypatch, out)     # 21 points by default
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 21
    for row in rows:
        q = float(row["q"])
        assert abs(float(row["lower_bound"]) - q * q / 4.0) <= DUALITY_GAP_TOL, row


def test_run_all_experiments_writes_every_artifact_and_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_script("run_all_experiments", monkeypatch, "runs")
    names = sorted(p.name for p in (tmp_path / "runs").iterdir())
    manifests = [n for n in names if n.endswith(".manifest.json")]
    artifacts = [n for n in names if not n.endswith(".manifest.json")]
    assert len(artifacts) == 7 and len(manifests) == 7
    assert sorted(manifests) == sorted(f"{n}.manifest.json" for n in artifacts)


def test_artifact_digests_cover_every_file_written(digest_run):
    directory, lines = digest_run
    written = sorted(p.name for p in directory.iterdir())
    assert [line.split("  ", 1)[1] for line in lines] == written
    # one manifest per command, so no run overwrote another's files
    assert sum(name.endswith(".manifest.json") for name in written) == len(
        load_script("artifact_digests").COMMANDS)
    for line in lines:
        digest, name = line.split("  ", 1)
        assert digest == hashlib.sha256((directory / name).read_bytes()).hexdigest()


def test_every_json_artifact_is_what_jsons_own_encoder_writes(digest_run):
    """The digest runs write the artifacts that take `dump_json`'s runs of
    scalars and its `Records`: per-step logs, joint dumps, manifests.
    Each JSON file holds exactly json's indented encoding of what it
    holds, and a per-step log's records are the rows of the run's per-step
    CSV, written from the log's columns: steps exactly, floats bit for
    bit."""
    directory, _ = digest_run
    written = sorted(directory.glob("*.json"))
    assert len(written) > len(load_script("artifact_digests").COMMANDS)
    for path in written:
        assert path.read_bytes() == canonical_json(load_json(path)).encode(), path.name
    # the digests' sampled run aborts where its comment says
    assert load_json(directory / "abort.json")["run"]["aborted_at_step"] == 28
    for stem, cycles in (("tomo", 400), ("abort", 27)):
        with open(directory / f"{stem}_steps.csv", newline="") as f:
            header, *rows = csv.reader(f)
        log = load_json(directory / f"{stem}.json")["run"]["per_step_log"]
        assert header == ["step", "survival", "pointer_mean"] and len(rows) == cycles
        assert all(type(record["step"]) is int for record in log)
        assert [(int(step), float(s).hex(), float(m).hex()) for step, s, m in rows] == [
            (r["step"], r["survival"].hex(), r["pointer_mean"].hex()) for r in log]


def test_the_shared_parser_carries_no_state_between_runs(tmp_path, monkeypatch):
    """`main` parses every call with one parser; the digests of the same
    runs made forward and in reverse order, in one process, agree."""
    digests = load_script("artifact_digests")
    forward, backward = tmp_path / "forward", tmp_path / "backward"
    forward.mkdir()
    backward.mkdir()
    lines = digests.digest_lines(forward)
    monkeypatch.setattr(digests, "COMMANDS", digests.COMMANDS[::-1])
    assert digests.digest_lines(backward) == lines


def test_every_golden_default_run_is_regenerated():
    """tests/golden holds each command's default artifact as the one
    digest run of scripts/regenerate_golden.py writes it: that run holds
    each command with no flags."""
    digests = load_script("artifact_digests")
    assert all([command] in digests.COMMANDS
               for command in load_script("regenerate_golden").DEFAULTS)


def test_regenerate_golden_runs_each_command_of_the_cli(monkeypatch):
    """The script's defaults come from the CLI's command table, so a
    command added there has its golden without a second list to keep in
    step."""
    monkeypatch.setitem(ketlab.cli.COMMANDS, "added", ketlab.cli.COMMANDS["leak"])
    defaults = load_script("regenerate_golden").DEFAULTS
    assert list(defaults) == list(ketlab.cli.COMMANDS)
    assert defaults["added"] == "added.json"


def test_a_reduction_sees_two_swapped_values():
    """Length, sum, min and max are blind to row order; the weighted sum
    of i * x_i is not, in a number list or a column of records."""
    reduce_values = load_script("regenerate_golden").reduce_values
    assert reduce_values([0.5, 2.0, 3]) == {"length": 3, "sum": 5.5, "min": 0.5, "max": 3,
                                            "weighted": 8.0}
    assert reduce_values([0.5, 3, 2.0]) != reduce_values([0.5, 2.0, 3])
    rows = [{"step": 1, "survival": 0.9}, {"step": 2, "survival": 0.8}]
    swapped = [dict(rows[0], survival=0.8), dict(rows[1], survival=0.9)]
    assert reduce_values(swapped)["step"] == reduce_values(rows)["step"]
    assert reduce_values(swapped)["survival"] != reduce_values(rows)["survival"]


def test_bench_pairs_records_both_sides_of_a_pair(tmp_path, monkeypatch):
    """One pair of a short protective-warm run writes the record's every
    key: HEAD as both revisions, each end-to-end metric and the host speed
    per side, and each end-to-end metric's verdict. Its timings are not
    checked. It needs `git`, `tar` and a git checkout, as the script does."""
    bench_pairs = load_script("bench_pairs")
    monkeypatch.setattr(bench_pairs, "PAIRS", 1)
    monkeypatch.setattr(bench_pairs, "WORKLOADS", ["protective-warm"])
    monkeypatch.setattr(bench_pairs, "SECONDS", 0.5)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--label", "t"]) == 0
    record = load_json(tmp_path / "BENCH_t.json")
    assert set(record) == {"label", "base", "change", "pairs", "seed", "seconds", "python",
                           "numpy", "cpu_count", "workloads"}
    head = bench_pairs.git("rev-parse", "HEAD")
    assert record["base"] == {"rev": head}
    assert record["change"]["rev"] == head and isinstance(record["change"]["dirty"], bool)
    names = [metric["name"] for metric in bench_pairs.BENCHMARK["end_to_end"]]
    (workload,) = record["workloads"].values()
    assert set(workload) == {"base", "change", "verdicts"}
    for side in ("base", "change"):
        assert set(workload[side]) == {*names, "host_speed"}
        for summary in workload[side].values():
            assert set(summary) == {"median", "q1", "q3", "values"}
            assert len(summary["values"]) == 1
    assert list(workload["verdicts"]) == names
    for verdict in workload["verdicts"].values():
        assert set(verdict) == {"better", "bound", "pairs_won", "pairs", "gain", "worse_by",
                                "within_bound"}
        assert verdict["pairs"] == 1


def test_code_lines_skip_docstrings_comments_and_blanks():
    snippet = '''"""Module docstring,
over two lines."""

import math   # a trailing comment counts as code


def area(r):
    """One-line docstring."""
    # a comment line
    return math.pi * max(
        r,
        0.0,
    ) ** 2
'''
    # import, def, and the four lines of the return statement
    assert load_script("code_lines").code_lines(snippet) == 6


def test_every_mutant_anchor_occurs_once_in_the_package():
    """Each row of scripts/mutants.py replaces a text that occurs exactly
    once in the package, in the file the row names, so a change that moves
    or copies an anchor updates the row with it. Whether the tests kill
    each mutant is the script's own check, run outside this suite."""
    mutants = load_script("mutants")
    sources = {path.name: path.read_text() for path in mutants.PACKAGE.glob("*.py")}
    assert mutants.MUTANTS
    for row in mutants.MUTANTS:
        assert sources[row.file].count(row.old) == 1, row.name
        assert sum(text.count(row.old) for text in sources.values()) == 1, row.name


def test_every_mutant_names_tests_that_exist():
    """Each test a row of scripts/mutants.py names is a file of the
    repository, and each `::name` after it (less any `[case]` id) a
    function defined at the top of that file, read by a static parse, so
    a renamed or deleted test fails here rather than in the mutant run."""
    mutants = load_script("mutants")
    defined = {}
    for row in mutants.MUTANTS:
        for test in row.tests:
            file, _, name = test.partition("::")
            name = name.partition("[")[0]
            path = mutants.ROOT / file
            assert path.is_file(), (row.name, test)
            if file not in defined:
                defined[file] = {node.name for node in ast.parse(path.read_text()).body
                                 if isinstance(node, ast.FunctionDef)}
            assert not name or name in defined[file], (row.name, test)
