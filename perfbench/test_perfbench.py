"""Tests of the benchmark itself:  python -m pytest perfbench -q"""

import json
import signal
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import checks
import pace
import run
from tracer import Tracer
from workloads import WORKLOADS, Op, build_passes

sys.path.insert(0, str(run.SRC))
import ketlab.cli  # noqa: E402

GOLDENS = {path.name: path.read_text(encoding="utf-8") for path in run.GOLDEN_DIR.iterdir()}


def argvs(passes):
    return [op.argv for ops in passes for op in ops]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_sequence_repeats_for_a_seed_and_differs_across_seeds(name):
    workload = WORKLOADS[name]
    first = build_passes(workload, 11, 3, GOLDENS)
    assert argvs(first) == argvs(build_passes(workload, 11, 3, GOLDENS))
    assert argvs(first) != argvs(build_passes(workload, 12, 3, GOLDENS))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_pass_has_the_same_mix(name):
    workload = WORKLOADS[name]
    mixes = [Counter(op.kind for op in ops)
             for seed in (1, 2) for ops in build_passes(workload, seed, 3, GOLDENS)]
    assert all(mix == mixes[0] for mix in mixes)


def test_tail_rule_leaves_ten_samples_beyond():
    values = list(range(100, 0, -1))
    assert run.tail_latency(values) == (90, 90.0)
    assert run.tail_latency(list(range(1, 12))) == (1, pytest.approx(100.0 / 11))
    assert run.tail_latency(list(range(1001))) == (990, pytest.approx(100.0 * 991 / 1001))
    with pytest.raises(ValueError):
        run.tail_latency(list(range(10)))


def _writer(files):
    """A stand-in for ketlab: writes the given files and exits 0."""
    def call(argv, tracer):
        for name, text in files.items():
            Path(name).write_text(text, encoding="utf-8")
        return 0
    return call


def test_corrupted_artifact_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    good_csv = GOLDENS["pbr.csv"]
    header, first, *rest = good_csv.splitlines()
    cells = first.split(",")
    # move one count of preparation 00 into its forbidden cell; totals still agree
    cells[1], cells[2] = "1", str(int(cells[2]) - 1)
    corrupted_csv = "\n".join([header, ",".join(cells), *rest]) + "\n"
    pbr = Op("pbr/csv", ("pbr",), lambda workdir: checks.check_pbr(
        workdir, output="pbr.csv", fmt="csv", trials=100000))
    steer = Op("steer/z", ("steer",), lambda workdir: checks.check_steer(
        workdir, output="steer.json", bases=("z", "x"), trials=1000))

    assert run.execute(pbr, _writer({"pbr.csv": good_csv}), tmp_path).ok
    bad = run.execute(pbr, _writer({"pbr.csv": corrupted_csv}), tmp_path)
    assert not bad.ok and "forbidden cell" in bad.reason
    truncated = GOLDENS["steer.json"][:200]
    assert not run.execute(steer, _writer({"steer.json": truncated}), tmp_path).ok
    # an op that writes nothing fails too
    assert not run.execute(steer, _writer({}), tmp_path).ok

    calls = iter([_writer({"pbr.csv": good_csv}), _writer({"pbr.csv": corrupted_csv})])
    results = run._loop([[pbr, pbr]], lambda argv, tracer: next(calls)(argv, tracer),
                        tmp_path, None, 10.0, install=False)
    assert [r.ok for r in results] == [True, False]


def test_pacer_scales_by_the_samples_taken_during_the_op():
    ref = pace.REFERENCE_S
    pacer = pace.Pacer()
    pacer.samples = [ref] * 30
    mark = pacer.mark()
    # the host ran at half speed through a long op, and 0.05 s of it was
    # the pacer's own sampling
    pacer.samples += [2 * ref] * 40
    pacer.busy += 0.05
    assert pacer.scale(mark, 1.05) == pytest.approx(0.5 ** pace.EXPONENT)
    # an op shorter than MIN_SAMPLES periods borrows the latest samples
    mark = pacer.mark()
    pacer.samples += [4 * ref] * 2
    assert pacer.scale(mark, 0.2) == pytest.approx(0.2 * 0.5 ** pace.EXPONENT)


def test_pacer_samples_while_active_and_stops_after():
    previous = signal.getsignal(signal.SIGALRM)
    with pace.Pacer() as pacer:
        deadline = time.perf_counter() + 0.3
        _, latency, wall = run.timed(lambda: [0 for _ in iter(
            lambda: time.perf_counter() < deadline, False)], pacer)
    assert len(pacer.samples) > pace.MIN_SAMPLES + 10
    assert 0.0 < latency and wall >= 0.3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_real_outputs(name, tmp_path, monkeypatch):
    """One pass of each workload, in-process, passes every check."""
    monkeypatch.chdir(tmp_path)
    (ops,) = build_passes(WORKLOADS[name], 5, 1, GOLDENS)
    with open(tmp_path / "console.txt", "w", encoding="utf-8") as sink:
        call = run.InProcess(ketlab.cli.main, sink)
        results = [run.execute(op, call, tmp_path) for op in ops]
    assert [(r.kind, r.reason) for r in results if not r.ok] == []


def test_tracer_nests_spans_and_restores_bindings(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    original = ketlab.cli.protective_tomography
    tracer = Tracer()
    tracer.install()
    try:
        frame = tracer.begin_op(0, "protective/tomography")
        status = ketlab.cli.main(["protective", "--tomography", "--n", "40", "--g", "0.05"])
        tracer.leave(frame)
    finally:
        tracer.uninstall()
    assert status == 0
    assert ketlab.cli.protective_tomography is original
    assert ketlab.protective.couple_pointer is ketlab.measurement.couple_pointer

    # one measurement for the artifact, then one per Pauli inside tomography
    assert tracer.calls["protective.protective_measure"] == 4
    assert tracer.calls["measurement.couple_pointer"] == 4 * 40
    assert tracer.counters["protective.cycles"] == 4 * 40
    by_id = {span["id"]: span for span in tracer.spans}
    tomography = [s for s in tracer.spans if s["name"] == "protective.protective_tomography"]
    inner = [s for s in tracer.spans if s["name"] == "protective.protective_measure"
             and s["parent"] == tomography[0]["id"]]
    assert len(inner) == 3
    assert by_id[tomography[0]["parent"]]["name"] == "cli.run"
    for name, busy in tracer.busy.items():
        assert 0.0 <= tracer.self_time[name] <= busy + 1e-12
    metrics = run.per_layer(
        [run.OpResult("a", (), 1.0, True, "", True), run.OpResult("b", (), 1.0, True, "",
                                                                   False)],
        tracer, dict.fromkeys(["import.total_s"], 0.5))[0]
    assert metrics["protective.protective_tomography_self_s"][0] < \
        tracer.busy["protective.protective_tomography"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    results = [run.OpResult("k", (), 0.1 + i, True, "", i % 2 == 1) for i in range(12)]
    e2e = run.end_to_end(results, 1.0, cold=False)[0]
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])
    imports = run.parse_importtime("")
    layers = run.per_layer(results, Tracer(), imports)[0]
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in spec["per_layer"])


def test_parse_importtime_reads_ketlab_and_its_heavy_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:      3000 |       3000 |     numpy",
        "import time:       500 |        500 |       scipy.optimize",
        "import time:      2000 |       9000 |   ketlab.hilbert",
        "import time:      1000 |      10000 | ketlab",
        "import time:       700 |       1500 | ketlab.cli",
    ])
    assert run.parse_importtime(stderr) == {
        "import.total_s": pytest.approx(0.0115),
        "import.scipy_optimize_s": pytest.approx(0.0005),
        "import.jsonschema_s": 0.0,
        "import.numpy_s": pytest.approx(0.003),
    }


def test_merge_adds_a_child_process_trace_under_the_open_op():
    child = Tracer()
    outer = child.enter("cli.run", False)
    child.leave(child.enter("measurement.couple_pointer", True))
    child.minimum("protective.survival_min", 0.5)
    child.counters["pbr.trials"] += 7
    child.leave(outer)

    parent = Tracer()
    parent.minimum("protective.survival_min", 0.9)
    frame = parent.begin_op(3, "golden/pbr")
    parent.merge(json.loads(json.dumps(child.export())))
    parent.leave(frame)
    run_span = next(s for s in parent.spans if s["name"] == "cli.run")
    assert run_span["parent"] == frame[3] and run_span["op"] == 3
    assert parent.calls["measurement.couple_pointer"] == 1
    assert parent.counters["pbr.trials"] == 7
    assert parent.minima["protective.survival_min"] == 0.5
    assert len({s["id"] for s in parent.spans}) == len(parent.spans)
