"""Spans and counters recorded around ketlab's public functions.

`Tracer.install` replaces each function in TARGETS, at every module
attribute inside `ketlab` that is bound to it, with a wrapper that times the
call. So `ketlab.cli.protective_measure` and `ketlab.protective.couple_pointer`
are both traced, whichever module the caller looked the name up in.
`uninstall` puts the originals back. Nothing inside the package changes.

Every call is timed on a stack, so a parent's self time is its duration minus
the time of the traced calls made inside it. Calls that happen once per
trial or cycle (`select`, `substream`, `couple_pointer`, ...) only add to
per-name count and busy time; the others are also kept as spans (name,
start, end, parent span, op) in memory until the run ends.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    owner: str       # module, or module:Class for a method
    attr: str
    span: str
    aggregate: bool  # per-trial or per-cycle: counted, not kept as spans


TARGETS = (
    Target("ketlab.cli", "build_parser", "cli.parse", False),
    Target("ketlab.cli", "resolve_config", "cli.parse", False),
    Target("ketlab.cli", "run", "cli.run", False),
    Target("ketlab.cli", "validate_artifact", "cli.validate_artifact", False),
    Target("ketlab.serialize", "dump_json", "serialize.dump_json", False),
    Target("ketlab.serialize", "write_csv", "serialize.write_csv", False),
    Target("ketlab.protective", "protective_measure", "protective.protective_measure", False),
    Target("ketlab.protective", "protective_tomography",
           "protective.protective_tomography", False),
    Target("ketlab.protective", "protection_leak", "protective.protection_leak", False),
    Target("ketlab.measurement", "couple_pointer", "measurement.couple_pointer", True),
    Target("ketlab.measurement", "strong_measure", "measurement.strong_measure", True),
    Target("ketlab.hilbert", "eigendecompose", "hilbert.eigendecompose", True),
    Target("ketlab.hilbert", "haar_random_unitary", "hilbert.haar_random_unitary", True),
    Target("ketlab.rngs", "substream", "rngs.substream", True),
    Target("ketlab.rngs:SubstreamSampler", "select", "rngs.select", True),
    Target("ketlab.pbr", "pbr_experiment", "pbr.pbr_experiment", False),
    Target("ketlab.pbr", "epr_steering", "pbr.epr_steering", True),
    Target("ketlab.pbr", "overlap_preservation_check", "pbr.overlap_preservation_check", True),
    Target("ketlab.ontology", "pbr_min_violation", "ontology.pbr_min_violation", False),
    Target("ketlab.ontology", "linprog", "ontology.linprog", False),
    Target("ketlab.ontology", "monte_carlo_onto", "ontology.monte_carlo_onto", False),
    Target("ketlab.weak", "direct_wavefunction_scan", "weak.direct_wavefunction_scan", False),
)


# ---------------------------------------------------------------------------
# counters read off arguments and results

def _add_bytes(tracer, path) -> None:
    tracer.counters["serialize.bytes_written"] += os.path.getsize(path)


def _after_dump_json(tracer, args, kwargs, result):
    _add_bytes(tracer, kwargs["path"] if "path" in kwargs else args[1])


def _after_write_csv(tracer, args, kwargs, result):
    _add_bytes(tracer, kwargs["path"] if "path" in kwargs else args[0])


def _after_build_parser(tracer, args, kwargs, parser):
    parser.parse_args = tracer.wrap("cli.parse", parser.parse_args, False)


def _after_protective_measure(tracer, args, kwargs, result):
    tracer.minimum("protective.survival_min", result.survival_probability)
    if result.mode == "sampled":
        tracer.counters["protective.sampled_runs"] += 1
        tracer.counters["protective.sampled_aborts"] += result.aborted_at_step is not None


def _after_couple_pointer(tracer, args, kwargs, result):
    tracer.counters["measurement.fft_points"] += 2 * result.system_dim * result.grid.n_points
    if any(frame[0].startswith("protective.") for frame in tracer.stack):
        tracer.counters["protective.cycles"] += 1


def _after_pbr_experiment(tracer, args, kwargs, result):
    tracer.counters["pbr.trials"] += result.trials


def _after_pbr_min_violation(tracer, args, kwargs, result):
    tracer.maximum("ontology.duality_gap_max", result.duality_gap)


def _after_monte_carlo_onto(tracer, args, kwargs, result):
    cells = sum(len(row) for row in result.counts.values())
    tracer.counters["ontology.mc_samples"] += result.trials * cells


def _count_lp_fallback(tracer, args, kwargs, result):
    # `_refine_with_lp` keeps the grid candidate when the solver raises or fails
    if isinstance(result, BaseException) or not result.success:
        tracer.counters["ontology.lp_fallbacks"] += 1


# hooks by target attribute, run after a call returns
AFTER = {
    "build_parser": _after_build_parser,
    "dump_json": _after_dump_json,
    "write_csv": _after_write_csv,
    "protective_measure": _after_protective_measure,
    "couple_pointer": _after_couple_pointer,
    "pbr_experiment": _after_pbr_experiment,
    "pbr_min_violation": _after_pbr_min_violation,
    "monte_carlo_onto": _after_monte_carlo_onto,
    "linprog": _count_lp_fallback,
}
# hooks that also run, with the exception, when the call raised
ON_ERROR = {"linprog": _count_lp_fallback}


class Tracer:
    """Spans and per-name totals of one benchmark run, kept in memory."""

    def __init__(self):
        # open frames: [name, start, child seconds, own span id (None when
        #   aggregated), span id its children report as parent, own parent id]
        self.stack = []
        self.spans = []
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counters = defaultdict(float)
        self.minima = {}
        self.maxima = {}
        self.op = None
        self._next_id = 0
        self._patches = []

    # -- timing ------------------------------------------------------------

    def enter(self, name: str, aggregate: bool) -> list:
        parent = self.stack[-1][4] if self.stack else None
        span_id = None
        if not aggregate:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, perf_counter(), 0.0, span_id, span_id if span_id is not None else parent,
                 parent]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, start, child, span_id = frame[0], frame[1], frame[2], frame[3]
        duration = end - start
        self.busy[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            self.spans.append({"id": span_id, "parent": frame[5], "op": self.op,
                               "name": name, "start": start, "end": end})

    def wrap(self, name: str, fn, aggregate: bool, after=None, on_error=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name, aggregate)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.leave(frame)
                if on_error is not None:
                    on_error(tracer, args, kwargs, exc)
                raise
            tracer.leave(frame)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def begin_op(self, op_id: int, kind: str) -> list:
        self.op = op_id
        return self.enter(f"op:{kind}", False)

    def minimum(self, key: str, value: float) -> None:
        self.minima[key] = min(value, self.minima.get(key, value))

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(value, self.maxima.get(key, value))

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ketlab" or name.startswith("ketlab."))]
        for target in TARGETS:
            module_name, _, class_name = target.owner.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, target.attr)
            wrapper = self.wrap(target.span, original, target.aggregate,
                                AFTER.get(target.attr), ON_ERROR.get(target.attr))
            if class_name:
                sites = [(owner, target.attr)]
            else:
                sites = [(m, attr) for m in modules
                         for attr, value in list(vars(m).items()) if value is original]
            for site, attr in sites:
                setattr(site, attr, wrapper)
                self._patches.append((site, attr, original))

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    # -- moving totals between processes -------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "busy": dict(self.busy),
                "self_time": dict(self.self_time), "calls": dict(self.calls),
                "counters": dict(self.counters), "minima": self.minima,
                "maxima": self.maxima}

    def merge(self, data: dict) -> None:
        """Add a child process's export; its root spans become children of
        the op span open here."""
        parent = self.stack[-1][4] if self.stack else None
        offset = self._next_id
        for span in data["spans"]:
            span = dict(span, op=self.op, id=span["id"] + offset,
                        parent=parent if span["parent"] is None else span["parent"] + offset)
            self.spans.append(span)
            self._next_id = max(self._next_id, span["id"] + 1)
        for name, seconds in data["busy"].items():
            self.busy[name] += seconds
        for name, seconds in data["self_time"].items():
            self.self_time[name] += seconds
        self.calls.update(data["calls"])
        for key, value in data["counters"].items():
            self.counters[key] += value
        for key, value in data["minima"].items():
            self.minimum(key, value)
        for key, value in data["maxima"].items():
            self.maximum(key, value)


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric name -> (value, unit), from one run's totals."""
    busy, own, calls, counters = tracer.busy, tracer.self_time, tracer.calls, tracer.counters
    sampled = counters["protective.sampled_runs"]
    return {
        "cli.parse_s": (busy["cli.parse"], "s"),
        "cli.validate_artifact_s": (busy["cli.validate_artifact"], "s"),
        "cli.validate_artifact.calls": (calls["cli.validate_artifact"], "count"),
        "cli.run_self_s": (own["cli.run"], "s"),
        "serialize.dump_json_s": (busy["serialize.dump_json"], "s"),
        "serialize.write_csv_s": (busy["serialize.write_csv"], "s"),
        "serialize.bytes_written": (counters["serialize.bytes_written"], "bytes"),
        "protective.protective_measure_self_s": (own["protective.protective_measure"], "s"),
        "protective.protective_measure.calls": (calls["protective.protective_measure"],
                                                "count"),
        "protective.cycles": (counters["protective.cycles"], "count"),
        "protective.protective_tomography_self_s": (
            own["protective.protective_tomography"], "s"),
        "protective.protection_leak_self_s": (own["protective.protection_leak"], "s"),
        # 0 when no sampled run happened; survival_min is 1 when no run happened
        "protective.sampled_abort_ratio": (
            counters["protective.sampled_aborts"] / sampled if sampled else 0.0, "ratio"),
        "protective.survival_min": (tracer.minima.get("protective.survival_min", 1.0),
                                    "prob"),
        "measurement.couple_pointer_s": (busy["measurement.couple_pointer"], "s"),
        "measurement.couple_pointer.calls": (calls["measurement.couple_pointer"], "count"),
        "measurement.fft_points": (counters["measurement.fft_points"], "count"),
        "measurement.strong_measure_s": (busy["measurement.strong_measure"], "s"),
        "measurement.strong_measure.calls": (calls["measurement.strong_measure"], "count"),
        "hilbert.eigendecompose_s": (busy["hilbert.eigendecompose"], "s"),
        "hilbert.eigendecompose.calls": (calls["hilbert.eigendecompose"], "count"),
        "hilbert.haar_random_unitary_s": (busy["hilbert.haar_random_unitary"], "s"),
        "rngs.substream_s": (busy["rngs.substream"], "s"),
        "rngs.substream.calls": (calls["rngs.substream"], "count"),
        "rngs.select_s": (busy["rngs.select"], "s"),
        "rngs.select.calls": (calls["rngs.select"], "count"),
        "pbr.pbr_experiment_self_s": (own["pbr.pbr_experiment"], "s"),
        "pbr.trials": (counters["pbr.trials"], "count"),
        "pbr.epr_steering_self_s": (own["pbr.epr_steering"], "s"),
        "pbr.epr_steering.calls": (calls["pbr.epr_steering"], "count"),
        "pbr.overlap_preservation_check_s": (busy["pbr.overlap_preservation_check"], "s"),
        "ontology.pbr_min_violation_self_s": (own["ontology.pbr_min_violation"], "s"),
        "ontology.linprog_s": (busy["ontology.linprog"], "s"),
        "ontology.lp_fallbacks": (counters["ontology.lp_fallbacks"], "count"),
        "ontology.duality_gap_max": (tracer.maxima.get("ontology.duality_gap_max", 0.0),
                                     "prob"),
        "ontology.monte_carlo_onto_s": (busy["ontology.monte_carlo_onto"], "s"),
        "ontology.mc_samples": (counters["ontology.mc_samples"], "count"),
        "weak.direct_wavefunction_scan_s": (busy["weak.direct_wavefunction_scan"], "s"),
        "weak.direct_wavefunction_scan.calls": (calls["weak.direct_wavefunction_scan"],
                                                "count"),
    }
