"""ketlab benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it benchmarks the checkout it lives in, whose `src/` holds
the `ketlab` package. Workloads are defined in workloads.py:

* cold-cli         each op is a fresh `python -m ketlab.cli ...` process;
* protective-warm  in-process `ketlab.cli.main(argv)` calls that exercise the
                   protective engine;
* sampling-warm    in-process calls that exercise the substream samplers,
                   steering, the LP and the Monte Carlo model sampler.

A run is a whole number of passes of the workload, at least three, sized so
that it measures about S seconds on a 2-vCPU reference machine; the op count
is fixed by S alone, so two commits are compared on the same operations.
Every op's output is checked (checks.py); a miss counts the op as failed.

Timings are scaled to a reference host speed (pace.py): a timer samples
the speed of a fixed piece of reference work while each op runs, and the
op's wall latency is scaled by how much slower than on the reference machine
the host ran it. The run keeps itself and the interpreters it starts on one
CPU, so that the samples see the same neighbours as the ops they scale (on a
shared host the CPUs slow down independently). The wall figures are printed
too, on the notes line.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes (tracer.py) and prints per-layer metrics, import times from
`python -X importtime`, and the tracing overhead; it also writes the spans to
`.perfbench_out/`. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import pace
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, build_passes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
SHIM = Path(__file__).resolve().parent / "shim.py"
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5       # fresh interpreters timed for setup_s (median)
MIN_PASSES = 3          # so that op_tail_s sits above the median on cold-cli
IMPORT_SAMPLES = 3      # `-X importtime` interpreters in a traced run (median)
TAIL_BEYOND = 10        # op_tail_s leaves this many samples above it
OP_TIMEOUT_S = 120      # one cold op
MAX_STRETCH = 4         # past MIN_PASSES, start no pass after MAX_STRETCH * --seconds
CPUS_USABLE = os.sched_getaffinity(0)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class OpResult:
    kind: str
    argv: tuple
    latency: float       # scaled to the reference host speed when paced, else wall
    ok: bool
    reason: str
    traced: bool
    wall: float = 0.0    # wall-clock latency


def tail_latency(latencies) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has TAIL_BEYOND
    samples above it: the (TAIL_BEYOND + 1)-th largest latency."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none with {TAIL_BEYOND} beyond it")
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ---------------------------------------------------------------------------
# calling ketlab

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class InProcess:
    """Calls `ketlab.cli.main` in this process; its console output is dropped."""

    def __init__(self, main, sink):
        self.main = main
        self.sink = sink

    def __call__(self, argv, tracer):
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            try:
                return self.main(list(argv))
            except SystemExit as exc:
                return exc.code
            except Exception as exc:  # the op failed; the run goes on
                return f"{type(exc).__name__}: {exc}"


class Subprocess:
    """Runs each op in a fresh interpreter; traced ops go through shim.py."""

    def __init__(self, env, workdir: Path):
        self.env = env
        self.workdir = workdir
        self.trace_file = workdir.parent / (workdir.name + ".trace.json")

    def __call__(self, argv, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "ketlab.cli", *argv]
        else:
            cmd = [sys.executable, str(SHIM), str(self.trace_file), *argv]
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, timeout=OP_TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return f"timed out after {OP_TIMEOUT_S} s"
        if tracer is not None and self.trace_file.exists():
            tracer.merge(json.loads(self.trace_file.read_text(encoding="utf-8")))
            self.trace_file.unlink()
        return proc.returncode if proc.returncode == 0 else (
            f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")


def clear(workdir: Path) -> None:
    for path in workdir.iterdir():
        shutil.rmtree(path) if path.is_dir() else path.unlink()


def timed(fn, pacer=None) -> tuple:
    """(fn(), latency scaled by the pacer if there is one, wall latency)"""
    mark = pacer.mark() if pacer is not None else None
    start = perf_counter()
    value = fn()
    wall = perf_counter() - start
    return value, pacer.scale(mark, wall) if pacer is not None else wall, wall


def execute(op, call, workdir: Path, tracer=None, op_id: int = 0, pacer=None) -> OpResult:
    """Run one op, timed, then check what it wrote."""
    clear(workdir)
    frame = tracer.begin_op(op_id, op.kind) if tracer is not None else None
    status, latency, wall = timed(lambda: call(op.argv, tracer), pacer)
    if frame is not None:
        tracer.leave(frame)
    traced = tracer is not None
    if status != 0:
        return OpResult(op.kind, op.argv, latency, False, f"status {status}", traced, wall)
    try:
        op.check(workdir)
    except Exception as exc:  # a missing or malformed artifact fails the op
        return OpResult(op.kind, op.argv, latency, False,
                        f"{type(exc).__name__}: {exc}", traced, wall)
    return OpResult(op.kind, op.argv, latency, True, "", traced, wall)


# ---------------------------------------------------------------------------
# set-up and import timing

def measure_setup(env, pacer) -> tuple[float, float]:
    """Median time of a fresh interpreter importing ketlab.cli, after one
    untimed start that leaves the bytecode cache warm: (scaled to the
    reference host speed, wall)."""
    def launch():
        subprocess.run([sys.executable, "-c", "import ketlab.cli"], env=env, cwd=ROOT,
                       check=True, timeout=OP_TIMEOUT_S)

    launch()
    runs = [timed(launch, pacer) for _ in range(SETUP_SAMPLES)]
    return statistics.median(r[1] for r in runs), statistics.median(r[2] for r in runs)


def parse_importtime(stderr: str) -> dict:
    """Seconds spent importing ketlab (its top-level imports, cumulative)
    and, within that, scipy.optimize, jsonschema and numpy (0 if absent)."""
    total = 0.0
    module_s = {"scipy.optimize": 0.0, "jsonschema": 0.0, "numpy": 0.0}
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3:
            continue
        try:
            cumulative = int(fields[1]) / 1e6
        except ValueError:   # the header line
            continue
        name = fields[2].strip()
        top_level = not fields[2][1:].startswith(" ")
        if top_level and (name == "ketlab" or name.startswith("ketlab.")):
            total += cumulative
        if name in module_s and module_s[name] == 0.0:
            module_s[name] = cumulative
    return {"import.total_s": total,
            "import.scipy_optimize_s": module_s["scipy.optimize"],
            "import.jsonschema_s": module_s["jsonschema"],
            "import.numpy_s": module_s["numpy"]}


def measure_imports(env) -> dict:
    cmd = [sys.executable, "-X", "importtime", "-c", "import ketlab.cli"]
    runs = [parse_importtime(subprocess.run(cmd, env=env, cwd=ROOT, check=True, text=True,
                                            timeout=OP_TIMEOUT_S,
                                            stderr=subprocess.PIPE).stderr)
            for _ in range(IMPORT_SAMPLES)]
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


# ---------------------------------------------------------------------------
# the run

def drive(workload, passes: list, warmup: int, workdir: Path, env, tracer,
          seconds: float, pacer) -> list:
    """Run the passes; with a tracer, every second pass is traced."""
    if workload.cold:
        call = Subprocess(env, workdir)
        return _loop(passes[warmup:], call, workdir, tracer, seconds, install=False,
                     pacer=pacer)
    sys.path.insert(0, str(SRC))
    import ketlab.cli

    home = Path.cwd()
    os.chdir(workdir)
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink:
            call = InProcess(ketlab.cli.main, sink)
            for ops in passes[:warmup]:   # lazy set-up and caches; not measured
                for op in ops:
                    execute(op, call, workdir)
            return _loop(passes[warmup:], call, workdir, tracer, seconds, install=True,
                         pacer=pacer)
    finally:
        os.chdir(home)


def _loop(passes, call, workdir, tracer, seconds, install: bool, pacer=None) -> list:
    results = []
    started = perf_counter()
    for index, ops in enumerate(passes):
        if index >= MIN_PASSES and perf_counter() - started > MAX_STRETCH * seconds:
            break
        pass_tracer = tracer if tracer is not None and index % 2 == 1 else None
        if pass_tracer is not None and install:
            pass_tracer.install()
        try:
            for op in ops:
                results.append(execute(op, call, workdir, pass_tracer, len(results), pacer))
        finally:
            if pass_tracer is not None and install:
                pass_tracer.uninstall()
    return results


def ops_per_s(results) -> float:
    return sum(r.ok for r in results) / sum(r.latency for r in results)


def end_to_end(results, setup_s: float, cold: bool) -> tuple[dict, dict]:
    latencies = [r.latency for r in results]
    tail, percentile = tail_latency(latencies)
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0   # ru_maxrss is KiB on Linux
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(results), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "op_ok_ratio": (sum(r.ok for r in results) / len(results), "ratio"),
    }
    notes = {"samples": len(latencies), "op_tail_percentile": percentile,
             "op_fail_ratio": sum(not r.ok for r in results) / len(results),
             "setup_samples": SETUP_SAMPLES}
    return metrics, notes


def per_layer(results, tracer: Tracer, imports: dict) -> tuple[dict, dict]:
    traced = [r for r in results if r.traced]
    untraced = [r for r in results if not r.traced]
    metrics = {key: (value, "s") for key, value in imports.items()}
    metrics.update(layer_metrics(tracer))
    traced_rate, untraced_rate = ops_per_s(traced), ops_per_s(untraced)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate - 1.0, "ratio")
    notes = {"traced_samples": len(traced), "untraced_samples": len(untraced),
             "spans": len(tracer.spans), "import_samples": IMPORT_SAMPLES}
    return metrics, notes


def git_rev():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None   # not a git checkout of its own
    return lines[1]


def metadata(args, passes: list, warmup: int) -> dict:
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "versions": versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(CPUS_USABLE),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "warmup_argv": [list(op.argv) for ops in passes[:warmup] for op in ops],
        "argv": [list(op.argv) for ops in passes[warmup:] for op in ops],
    }


def report(metrics: dict, notes: dict, results: list, meta: dict) -> None:
    failures = [r for r in results if not r.ok]
    for r in failures[:20]:
        print(f"FAILED {r.kind} {' '.join(r.argv)}: {r.reason}", file=sys.stderr)
    print("meta " + json.dumps(dict(meta, notes=notes)))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in notes.items()))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ketlab benchmark (one run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(CPUS_USABLE)})   # see the module docstring
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ketlab" / "cli.py").is_file() or not GOLDEN_DIR.is_dir():
        print(f"perfbench: no ketlab checkout at {ROOT} (needs src/ketlab and tests/golden)",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = child_env()
    pacer = pace.Pacer()
    try:
        imports = measure_imports(env) if args.trace else {}
        with pacer:
            setup_s, wall_setup_s = measure_setup(env, pacer)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: a fresh interpreter cannot import ketlab.cli: {exc}",
              file=sys.stderr)
        return 1

    goldens = ({path.name: path.read_text(encoding="utf-8")
                for path in GOLDEN_DIR.iterdir()} if workload.cold else {})
    count = max(MIN_PASSES, round(args.seconds / workload.pass_seconds))
    warmup = 0 if workload.cold else 1
    passes = build_passes(workload, args.seed, warmup + count, goldens)
    tracer = Tracer() if args.trace else None

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        with pacer:
            results = drive(workload, passes, warmup, workdir, env, tracer, args.seconds,
                            pacer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.with_name(workdir.name + ".trace.json").unlink(missing_ok=True)

    TRACE_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops_path = TRACE_DIR / f"ops-{stem}.json"
    ops_path.write_text(json.dumps([[r.kind, r.wall, r.latency, r.ok, r.traced]
                                    for r in results]), encoding="utf-8")
    if tracer is None:
        metrics, notes = end_to_end(results, setup_s, workload.cold)
    else:
        metrics, notes = per_layer(results, tracer, imports)
        spans_path = TRACE_DIR / f"spans-{stem}.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        notes["spans_file"] = str(spans_path.relative_to(ROOT))
    notes.update(wall_ops_per_s=sum(r.ok for r in results) / sum(r.wall for r in results),
                 wall_op_p50_s=statistics.median(r.wall for r in results),
                 wall_setup_s=wall_setup_s, host_speed=pacer.host_speed(),
                 pace_samples=len(pacer.samples))
    notes["ops_file"] = str(ops_path.relative_to(ROOT))
    report(metrics, notes, results, metadata(args, passes, warmup))
    return 0


if __name__ == "__main__":
    sys.exit(main())
