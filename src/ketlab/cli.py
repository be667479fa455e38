"""Seeded experiment runners behind one `ketlab` command.

Seven subcommands cover the lab: `protective` (repeated weak coupling on a
protected system, optional tomography and coupling sweeps), `leak`
(protecting the wrong state), `scan` (direct wavefunction readout from
weak values), `pbr` (the four-preparation antidistinguishability
experiment), `steer` (singlet steering rounds), `onto` (the certified
shared-reality violation bound plus model evaluation), and `nogo` (overlap
preservation under random unitaries).

Configuration resolves in three layers, most specific winning: builtin
defaults, then an optional --config JSON file, then explicit flags. The
parser keeps only the flags that were typed, so the config file's values
updated by those flags form one mapping of given values, and a parameter
missing from it takes its default. A JSON null keeps a default of None
(`"model": null` is no model); a null for any other parameter is a
configuration error. Every run takes one master seed (default 7);
trial-level randomness comes from counter-based substreams of it, so
results do not depend on execution order. Each runner builds its JSON
payloads from plain Python values, every numpy array converted once by its
own `tolist()`, and a per-step log as the columns of a `Records`. At run
end every artifact and its manifest (config echo, seed, library versions,
and each output's path relative to the manifest's own directory) is
checked, in memory and as built, and only then written, from the very
object that was checked. The check takes the paths first:
each ends in its format's suffix, and none is shared with another
artifact or the --config file, names an existing directory, or is a name
the filesystem cannot look up (a config error). It then checks each
JSON artifact: it must be an object whose `kind` names a schema, and is
then checked against that schema, with a small in-package reader of
exactly the JSON Schema keywords `SCHEMAS` uses, so the runtime needs no
schema library, and each CSV cell by its column's type. A run that
fails the check writes nothing; a run whose write fails removes every
file it started. Exit codes: 0 success, 2 configuration error, 3
precondition rejection, 4 internal-consistency failure, and also any
other exception, reported with the stage it escaped (parse, resolve,
compute, check or write); a stdout closed by its reader after the write
is still 0. The argument parser is built on the first `main` call and
reused by every later call in the process. Importing
this module builds nothing and loads no numpy, nor does parsing, so
`--help` and a parse error exit without it; resolving loads it only for a
given --seed (`rngs` holds its range) or a state spec that names a ket or
holds one ':', so an unreadable --config file exits without it too. Each runner imports numpy
and the modules it computes with (`hilbert`, `measurement`, `rngs`, and
`protective`, `weak`, `pbr` or `ontology`) when it is called, so a run
compiles only what it computes.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import contextmanager
from itertools import chain, combinations
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_COUPLING, DEFAULT_GRID_POINTS, DEFAULT_STEPS, __version__, record
from .errors import ConfigError, InternalError, LabError, PreconditionError, ScanUndefinedError
from .serialize import Records, dump_json, load_json, write_csv

if TYPE_CHECKING:
    from .hilbert import StateVector
    from .measurement import GridWavefunction

DEFAULT_SEED = 7
DEFAULT_Q = 1.0   # `onto`'s shared-lambda weight, the full PBR overlap

# the names of `hilbert.QUBIT_KETS`, known here without importing numpy
_NAMED_KETS = ("0", "1", "+", "-")

SCAN_HEADER = ("x", "re_scan", "im_scan", "re_psi", "im_psi")
PBR_HEADER = ("preparation", "xi1", "xi2", "xi3", "xi4", "total", "forbidden_xi")
PER_STEP_HEADER = ("step", "survival", "pointer_mean")
SWEEP_HEADER = ("g", "inferred_expectation", "absolute_error", "survival")


def parse_state_spec(spec: str) -> StateVector:
    """Named qubit ket ('0', '1', '+', '-') or 'theta:phi', the state
    cos(theta)|0> + e^{i phi} sin(theta)|1>: theta is half the Bloch polar
    angle and phi the azimuthal angle."""
    if spec in _NAMED_KETS:
        from .hilbert import QUBIT_KETS

        return QUBIT_KETS[spec]()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) == 2:
            from .hilbert import qubit_state

            try:
                return qubit_state(_as_float(parts[0]), _as_float(parts[1]))
            except ConfigError:
                pass
    raise ConfigError(
        f"cannot parse state {spec!r}: expected one of 0, 1, +, - or 'theta:phi'"
    )


# ---------------------------------------------------------------------------
# configuration plumbing

def _as_int(value):
    if isinstance(value, bool):
        raise ConfigError("expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise ConfigError(f"expected an integer, got {value!r}")


def _as_float(value):
    """A finite float: no experiment has a meaning for nan or inf, and
    they would slip through every later range check."""
    if isinstance(value, bool):
        raise ConfigError("expected a number, got a boolean")
    number = math.nan
    if isinstance(value, (int, float, str)):
        try:
            number = float(value)
        except (ValueError, OverflowError):   # OverflowError: ints past 1e308
            pass
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}")
    return number


def _as_bool(value):
    if isinstance(value, bool):
        return value
    raise ConfigError(f"expected a boolean, got {value!r}")


def _as_str(value):
    if isinstance(value, str):
        return value
    raise ConfigError(f"expected a string, got {value!r}")


def _choice(*options):
    def coerce(value):
        text = _as_str(value)
        if text not in options:
            raise ConfigError(f"expected one of {', '.join(options)}, got {text!r}")
        return text
    return coerce


def _float_list(value):
    if isinstance(value, str):
        if not value.replace(",", "").strip():
            raise ConfigError("expected a comma-separated list of numbers")
        return tuple(_as_float(p) for p in value.split(","))   # an empty item too
    if isinstance(value, (list, tuple)):
        if not value:
            raise ConfigError("expected a non-empty list of numbers")
        return tuple(_as_float(v) for v in value)
    raise ConfigError(f"expected a list of numbers, got {value!r}")


def _state_spec(value):
    text = _as_str(value)
    parse_state_spec(text)   # validate now so bad specs exit 2, not 3
    return text


def _state_pair(value):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (_state_spec(value[0]), _state_spec(value[1]))
    raise ConfigError(f"expected exactly two state specs, got {value!r}")


def _seed_value(value):
    n = _as_int(value)
    from .rngs import MAX_SEED   # the range's one home, which loads numpy

    if not 0 <= n <= MAX_SEED:
        raise ConfigError("seed must be a 128-bit integer (0 <= seed < 2**128)")
    return n


@record
class Param:
    """One configurable parameter of a subcommand."""

    name: str                 # python name; the flag is --name-with-dashes
    coerce: object            # raw CLI string or JSON value -> typed value
    default: object
    help: str
    is_flag: bool = False
    nargs: int | None = None


@record
class RunConfig:
    """Fully resolved invocation: what to run, how, and where the data goes.
    `config` is the --config file it was read from, which no artifact may
    replace."""

    subcommand: str
    seed: int
    output: Path
    format: str
    params: dict
    config: Path | None = None


@record
class Artifact:
    """One file to emit: a JSON payload dict or a (header, rows) CSV pair."""

    path: Path
    fmt: str
    payload: object


@record
class CommandSpec:
    name: str
    help: str
    formats: tuple
    params: tuple
    runner: object


# ---------------------------------------------------------------------------
# artifact schemas

_NUM = {"type": "number"}
_NUM_ROW = {"type": "array", "items": _NUM}
_STATE_JSON = {
    "type": "object",
    "required": ["dim", "re", "im"],
    "properties": {"dim": {"type": "integer", "minimum": 1}, "re": _NUM_ROW, "im": _NUM_ROW},
}
_OPT_NUM = {"type": ["number", "null"]}
_STR = {"type": "string"}
_COUNT = {"type": "integer", "minimum": 0}
_COUNT_ROW = {"type": "array", "items": _COUNT}
_MONTE_CARLO = {
    "type": "object",
    "properties": {
        "trials": _COUNT,
        "counts": {
            "type": "object",
            "additionalProperties": {"type": "object", "additionalProperties": _COUNT_ROW},
        },
    },
}

SCHEMAS = {
    "ketlab/protective-run": {
        "required": ["command", "observable", "state", "true_expectation",
                     "absolute_error", "run"],
        "properties": {
            "observable": _STR,
            "state": {"type": "object", "required": ["theta", "phi"]},
            "true_expectation": _NUM,
            "absolute_error": _OPT_NUM,
            "run": {
                "type": "object",
                "required": ["steps", "coupling", "mode", "pointer_mean_shift",
                             "survival_probability", "inferred_expectation",
                             "aborted_at_step", "per_step_log"],
                "properties": {"per_step_log": {"type": "array"}},
            },
            "tomography": {
                "type": "object",
                "required": ["fidelity", "chain_survival", "reconstructed"],
                "properties": {"reconstructed": _STATE_JSON},
            },
        },
    },
    "ketlab/leak": {
        "required": ["command", "prepared", "protected", "observable",
                     "survival", "predicted_survival", "surviving_state",
                     "matches_protected"],
        "properties": {
            "survival": _NUM,
            "predicted_survival": _NUM,
            "surviving_state": {**_STATE_JSON, "type": ["object", "null"]},
            "matches_protected": {"type": ["boolean", "null"]},
        },
    },
    "ketlab/pbr-counts": {
        "required": ["command", "trials", "seed", "preparations",
                     "counts", "forbidden_outcome"],
        "properties": {
            "trials": _COUNT,
            "counts": {
                "type": "object",
                "additionalProperties": {**_COUNT_ROW, "minItems": 4, "maxItems": 4},
            },
        },
    },
    "ketlab/steering": {
        "required": ["command", "trials", "seed", "bases"],
        "properties": {
            "trials": _COUNT,
            "bases": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "required": ["outcome_counts", "bob_states",
                                 "marginal_trace_distance"],
                    "properties": {
                        "outcome_counts": {"type": "object", "additionalProperties": _COUNT},
                        "bob_states": {"type": "object", "additionalProperties": _STATE_JSON},
                        "marginal_trace_distance": _OPT_NUM,
                    },
                },
            },
        },
    },
    "ketlab/violation-bound": {
        "required": ["command", "q", "violation_lower_bound", "upper_bound",
                     "duality_gap", "forbidden_sum", "forbidden_mean", "preparations",
                     "forbidden_outcomes", "lambda_pairs", "witnessing_responses"],
        "properties": {
            "q": _NUM,
            "violation_lower_bound": _NUM,
            "upper_bound": _NUM,
            "duality_gap": _NUM,
            "witnessing_responses": {
                "type": "object",
                "additionalProperties": {**_NUM_ROW, "minItems": 4, "maxItems": 4},
            },
            "monte_carlo": _MONTE_CARLO,
        },
    },
    "ketlab/model-eval": {
        "required": ["command", "scenario", "model", "overlaps", "born_gaps"],
        "properties": {
            "overlaps": {"type": "array"},
            "born_gaps": {"type": "object"},
            "monte_carlo": _MONTE_CARLO,
        },
    },
    "ketlab/nogo": {
        "required": ["command", "sweeps", "seed", "ready", "pair",
                     "overlap_before", "max_abs_change", "mean_overlap_after"],
        "properties": {
            "sweeps": _COUNT,
            "overlap_before": _NUM,
            "max_abs_change": _OPT_NUM,
            "mean_overlap_after": _OPT_NUM,
        },
    },
    "ketlab/joint-state": {"required": ["system_dim", "grid", "re", "im"]},
    "ketlab/manifest": {
        "required": ["command", "config", "seed", "versions", "outputs"],
        "properties": {
            "versions": {
                "type": "object",
                "required": ["ketlab", "numpy", "python"],
            },
            "outputs": {"type": "array", "items": _STR},
        },
    },
}

# the exact type of each column's cells, by CSV header
_CSV_COLUMNS = {
    SCAN_HEADER: (float, float, float, float, float),
    PBR_HEADER: (str, int, int, int, int, int, int),
    PER_STEP_HEADER: (int, float, float),
    SWEEP_HEADER: (float, float, float, float),
}


# the JSON Schema keywords `_schema_error` implements; SCHEMAS may use no other
SCHEMA_KEYWORDS = frozenset({"type", "minimum", "required", "properties",
                             "additionalProperties", "items", "minItems", "maxItems"})
_JSON_TYPES = {"object": dict, "array": (list, Records), "string": str, "number": (int, float),
               "integer": int, "boolean": bool, "null": type(None)}


def _is_type(value, name: str) -> bool:
    """JSON Schema's type test on plain JSON values, with a strict
    integer: a count that was computed as 3.0 fails, although the dialect
    accepts it. A bool is neither a number nor an integer, and a `Records`
    is an array."""
    if isinstance(value, bool):
        return name == "boolean"
    return isinstance(value, _JSON_TYPES[name])


def _schema_error(schema: dict, value, where: str = "$") -> str | None:
    """The first way `value` breaks `schema`, or None when it conforms.
    Each keyword in SCHEMA_KEYWORDS has its JSON Schema meaning: the
    object, array and number keywords apply only to values of that type.
    A `Records` conforms when `dump_json` can write it. No schema states
    that an artifact is an object of its own kind: `validate_artifact`
    alone checks that, before it calls this."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_is_type(value, name) for name in types):
        return f"{where} is not of type {' or '.join(types)}"
    if "minimum" in schema and _is_type(value, "number") and value < schema["minimum"]:
        return f"{where} is below the minimum {schema['minimum']}"
    children = []
    if isinstance(value, dict):
        missing = [key for key in schema.get("required", []) if key not in value]
        if missing:
            return f"{where} lacks the required key {missing[0]!r}"
        properties, extra = schema.get("properties", {}), schema.get("additionalProperties")
        children = [(properties.get(k, extra), v, f"{where}.{k}") for k, v in value.items()]
    elif isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            return f"{where} has {len(value)} items"
        children = [(schema.get("items"), v, f"{where}[{i}]") for i, v in enumerate(value)]
    elif isinstance(value, Records):
        try:
            value.cells
        except InternalError as exc:
            return f"{where}: {exc}"
    for sub, item, path in children:
        if sub and (error := _schema_error(sub, item, path)):
            return error
    return None


def validate_artifact(artifact: Artifact) -> Artifact:
    """Check an artifact against its schema before it is written and
    return the very artifact given, which is then written as it is;
    InternalError on failure. A JSON payload, plain JSON as its runner
    built it (a per-step log as a `Records`), must be a dict whose 'kind'
    names an entry of SCHEMAS, and is then checked against that schema;
    this is the one place that rule is checked. A CSV payload's header
    must be a layout of `_CSV_COLUMNS`, and each row must hold one cell of
    exactly its column's type (a bool, a numpy scalar or a text number is
    no int or float); the first row or cell that fails is named by its
    line in the file."""
    name = artifact.path.name
    if artifact.fmt == "json":
        data = artifact.payload
        if not isinstance(data, dict) or data.get("kind") not in SCHEMAS:
            raise InternalError(f"artifact {name} has no 'kind' with a schema")
        error = _schema_error(SCHEMAS[data["kind"]], data)
        if error is not None:
            raise InternalError(f"artifact {name} fails its schema: {error}")
        return artifact
    header, rows = artifact.payload
    kinds = _CSV_COLUMNS.get(tuple(header))
    if kinds is None:
        raise InternalError(f"{name}:1: unknown CSV layout {header}")
    width = len(kinds)
    for lineno, row in enumerate(rows, start=2):
        if tuple(map(type, row)) != kinds:
            if len(row) != width:
                raise InternalError(f"{name}:{lineno}: expected {width} cells, got {len(row)}")
            cell, kind = next((c, k) for c, k in zip(row, kinds) if type(c) is not k)
            raise InternalError(f"{name}:{lineno}: cell {str(cell)!r} fails {kind.__name__}")
    return artifact


# ---------------------------------------------------------------------------
# runners

def _run_protective(cfg: RunConfig):
    from .hilbert import expectation, inner_product, pauli, qubit_state
    from .measurement import default_grid
    from .protective import protective_measure, protective_tomography

    p = cfg.params
    psi = qubit_state(p["theta"], p["phi"])
    op = pauli(p["observable"])
    grid = default_grid(p["width"], p["grid_points"])
    # the main run and every sweep point differ in g alone
    measure = functools.partial(protective_measure, psi, op, n=p["n"], grid=grid,
                                width=p["width"], mode=p["mode"], seed=cfg.seed)
    result = measure(g=p["g"])
    true = expectation(op, psi)
    error = (None if result.inferred_expectation is None
             else abs(result.inferred_expectation - true))
    data = {
        "kind": "ketlab/protective-run",
        "command": "protective",
        "observable": p["observable"],
        "state": {"theta": p["theta"], "phi": p["phi"]},
        "true_expectation": true,
        "absolute_error": error,
        "run": result.to_json_dict(),
    }
    if p["tomography"]:
        reconstructed, chain_survival = protective_tomography(
            psi, [pauli(name) for name in "xyz"], n=p["n"], g=p["g"], grid=grid,
            width=p["width"]
        )
        data["tomography"] = {
            "fidelity": abs(inner_product(psi, reconstructed)) ** 2,
            "chain_survival": chain_survival,
            "reconstructed": reconstructed.to_json_dict(),
        }
    artifacts = [Artifact(cfg.output, "json", data)]
    if p["per_step_csv"] is not None:
        log = list(zip(*data["run"]["per_step_log"].columns))
        artifacts.append(Artifact(Path(p["per_step_csv"]), "csv", (PER_STEP_HEADER, log)))
    if p["sweep_g"] is not None:
        for g in p["sweep_g"]:
            if p["n"] * g == 0.0:
                raise PreconditionError(f"sweep coupling g={g!r} yields no inferred expectation")
        rows = []
        for g in p["sweep_g"]:
            # a sampled point that aborts at its first protection reads out nothing: nan
            point = measure(g=g)
            inferred = point.inferred_expectation
            inferred = math.nan if inferred is None else inferred
            rows.append((g, inferred, abs(inferred - true), point.survival_probability))
        sweep_path = cfg.output.parent / (cfg.output.stem + ".sweep.csv")
        artifacts.append(Artifact(sweep_path, "csv", (SWEEP_HEADER, rows)))
    if p["dump_joint"] is not None:
        payload = {"kind": "ketlab/joint-state", **result.final_joint.to_json_dict()}
        artifacts.append(Artifact(Path(p["dump_joint"]), "json", payload))
    if result.aborted_at_step is not None:
        summary = f"sampled run aborted at protection step {result.aborted_at_step}"
    elif result.inferred_expectation is None:
        summary = f"no expectation inferred from {p['n']} cycles at g={p['g']}"
    else:
        summary = (
            f"inferred expectation {result.inferred_expectation:.6f} "
            f"(true {true:.6f}), survival {result.survival_probability:.6f}"
        )
    return artifacts, summary


def _run_leak(cfg: RunConfig):
    from .hilbert import equal_up_to_phase, inner_product, pauli
    from .measurement import default_grid
    from .protective import protection_leak

    p = cfg.params
    prepared = parse_state_spec(p["prepared"])
    protected = parse_state_spec(p["protected"])
    op = pauli(p["observable"])
    grid = default_grid(p["width"], p["grid_points"])
    result = protection_leak(
        prepared, protected, op, n=p["n"], g=p["g"], grid=grid, width=p["width"]
    )
    predicted = abs(inner_product(protected, prepared)) ** 2 if p["n"] > 0 else 1.0
    surviving = result.surviving_state
    data = {
        "kind": "ketlab/leak",
        "command": "leak",
        "prepared": p["prepared"],
        "protected": p["protected"],
        "observable": p["observable"],
        "survival": result.survival,
        "predicted_survival": predicted,
        "surviving_state": None if surviving is None else surviving.to_json_dict(),
        "matches_protected": (None if surviving is None
                              else equal_up_to_phase(surviving, protected)),
    }
    summary = f"survival {result.survival:.6f} (predicted {predicted:.6f})"
    return [Artifact(cfg.output, "json", data)], summary


def _scan_input(p) -> GridWavefunction:
    """The scanned profile on the default grid of its width. Each hump's
    centre, --offset or --offset -/+ --separation / 2, must lie on the
    grid, within 20 widths of 0, else PreconditionError naming the flag
    that put it off: off the grid a hump leaves only its tail there, or
    nothing."""
    import numpy as np

    from .measurement import GridWavefunction, default_grid, gaussian_profile

    grid = default_grid(p["width"], p["grid_points"])
    half = p["separation"] / 2.0 if p["profile"] == "double" else 0.0
    for flag, centre in (("offset", p["offset"]), ("separation", p["offset"] + half),
                         ("separation", p["offset"] - half)):
        if not abs(centre) <= grid.extent / 2.0:
            raise PreconditionError(
                f"--{flag} {p[flag]!r} puts a hump centre at {centre!r}, off the grid "
                f"[-{grid.extent / 2.0:.6g}, {grid.extent / 2.0:.6g}] of --width {p['width']!r}"
            )
    x = grid.positions - p["offset"]
    if p["profile"] == "gaussian":
        amps = gaussian_profile(x, p["width"])
    else:
        amps = (gaussian_profile(x - half, p["width"])
                + np.exp(1j * p["phase"]) * gaussian_profile(x + half, p["width"]))
    return GridWavefunction.normalized(grid, amps)


def _run_scan(cfg: RunConfig):
    import numpy as np

    from .weak import direct_wavefunction_scan, momentum_zero_amplitude

    psi = _scan_input(cfg.params)
    try:
        scan = direct_wavefunction_scan(psi)
    except ScanUndefinedError as exc:
        # only the double profile cancels: its humps' zero-momentum amplitudes are
        # equal, so they cancel at a --phase of pi; a Gaussian's amplitudes are positive
        raise ScanUndefinedError(f"--phase {cfg.params['phase']!r} makes the double profile's "
                                 f"humps cancel at p = 0: {exc}") from exc
    p0 = momentum_zero_amplitude(psi)
    reconstruction_error = float(np.max(np.abs(scan * p0 - psi.amplitudes)))
    rows = np.column_stack((psi.grid.positions, scan.real, scan.imag,
                            psi.amplitudes.real, psi.amplitudes.imag)).tolist()
    summary = (
        f"scanned {len(rows)} points; max |scan * p0 - psi| = "
        f"{reconstruction_error:.3e}"
    )
    return [Artifact(cfg.output, "csv", (SCAN_HEADER, rows))], summary


def _run_pbr(cfg: RunConfig):
    from .pbr import PREPARATION_IDS, pbr_experiment

    p = cfg.params
    counts = pbr_experiment(p["trials"], p["weights"], seed=cfg.seed)
    if cfg.format == "csv":
        rows = [
            (prep, *counts.counts[prep], sum(counts.counts[prep]),
             counts.forbidden_map[prep] + 1)
            for prep in PREPARATION_IDS
        ]
        artifacts = [Artifact(cfg.output, "csv", (PBR_HEADER, rows))]
    else:
        data = {"kind": "ketlab/pbr-counts", "command": "pbr", **counts.to_json_dict()}
        artifacts = [Artifact(cfg.output, "json", data)]
    summary = (
        f"{counts.trials} trials; forbidden cells all zero; row totals "
        f"{counts.row_totals()}"
    )
    return artifacts, summary


def _run_steer(cfg: RunConfig):
    """Steering rounds per basis. Round i of the run (counted across bases)
    draws the first uniform of substream i of the seed against the basis's
    outcome table, which is computed once per basis; `uniform_chunks`
    draws a basis's rounds as arrays and `tally` walks and counts them, as
    it does each cell of `onto --mc-trials`."""
    import numpy as np

    from .hilbert import _checked_count
    from .measurement import tally
    from .pbr import steering_table
    from .rngs import MAX_UNIFORMS, uniform_chunks

    p = cfg.params
    bases = ("z", "x") if p["basis"] == "both" else (p["basis"],)
    _checked_count(p["trials"], "trials", MAX_UNIFORMS // len(bases))   # one uniform a round
    stream = 0
    out = {}
    for basis in bases:
        table = steering_table(basis)
        counts = tally(table.weights, uniform_chunks(cfg.seed, stream, stream + p["trials"]))
        stream += p["trials"]
        keys = {k: f"{table.eigenvalues[k]:+g}" for k in np.flatnonzero(counts)}
        out[basis] = {
            "outcome_counts": {key: int(counts[k]) for k, key in keys.items()},
            "bob_states": {key: table.bob_states[k].to_json_dict() for k, key in keys.items()},
            "marginal_trace_distance": table.bob_marginal_check if p["trials"] > 0 else None,
        }
    data = {
        "kind": "ketlab/steering",
        "command": "steer",
        "trials": p["trials"],
        "seed": cfg.seed,
        "bases": out,
    }
    margins = [v["marginal_trace_distance"] for v in out.values()
               if v["marginal_trace_distance"] is not None]
    if margins:
        summary = (
            f"{p['trials']} rounds per basis ({', '.join(bases)}); "
            f"max marginal trace distance {max(margins):.3e}"
        )
    else:
        summary = "0 rounds"
    return [Artifact(cfg.output, "json", data)], summary


def _run_onto(cfg: RunConfig):
    """The bound mode (no --model) certifies PBR's violation bound at
    weight --q, on PBR's scenario; the model mode evaluates --model on
    --scenario. Each mode yields its model, and --mc-trials samples that
    model on that scenario: in the bound mode, the witness model that
    attains the bound. Each mode refuses the flags that only the other
    reads, so no manifest echoes a value its run ignored."""
    from .hilbert import _checked_count
    from .ontology import (OntologicalModel, born_consistency_gap, monte_carlo_onto,
                           orthodox_model, overlap, pbr_min_violation, predict, qubit_scenario)
    from .pbr import pbr_scenario
    from .rngs import MAX_UNIFORMS

    p = cfg.params
    if p["model"] is None and (p["prep"] is not None or p["meas"] is not None):
        raise ConfigError("--prep/--meas only apply when --model is given")
    if p["model"] is None and p["scenario"] != "pbr":
        raise ConfigError("--scenario only applies when --model is given")
    if p["model"] is not None and p["q"] != DEFAULT_Q:
        raise ConfigError("--q only applies when --model is not given")
    if (p["prep"] is None) != (p["meas"] is None):
        raise ConfigError("--prep and --meas must be given together")
    scenario = pbr_scenario() if p["scenario"] == "pbr" else qubit_scenario()
    cells = len(scenario.preparations) * len(scenario.measurements)   # one uniform a trial each
    _checked_count(p["mc_trials"], "mc_trials", MAX_UNIFORMS // cells)
    if p["model"] is None:
        bound = pbr_min_violation(p["q"])
        model = bound.witness
        data = {"kind": "ketlab/violation-bound", "command": "onto",
                **bound.to_json_dict()}
        summary = (
            f"certified violation bound {bound.lower_bound:.6f} at q={bound.q} "
            f"(duality gap {bound.duality_gap:.3e})"
        )
    else:
        if p["model"] == "orthodox":
            model = orthodox_model(scenario)
            model_name = "orthodox"
        else:
            model = OntologicalModel.from_json_dict(_read_json(p["model"], "model file"))
            model_name = Path(p["model"]).name
        overlaps = [overlap(model, a, b)
                    for a, b in combinations(sorted(model.preparations), 2)]
        born_gaps = born_consistency_gap(model, scenario)
        data = {
            "kind": "ketlab/model-eval",
            "command": "onto",
            "scenario": scenario.name,
            "model": model_name,
            "overlaps": overlaps,
            "born_gaps": born_gaps,
        }
        if p["prep"] is not None:
            data["prediction"] = {
                "preparation": p["prep"],
                "measurement": p["meas"],
                "distribution": predict(model, p["prep"], p["meas"]).tolist(),
            }
        gap_note = (f"max Born gap {max(born_gaps.values()):.3e}"
                    if born_gaps else "no shared measurements")
        summary = f"evaluated model {model_name} on scenario {scenario.name}; {gap_note}"
    if p["mc_trials"] > 0:
        report = monte_carlo_onto(model, scenario, p["mc_trials"], seed=cfg.seed)
        data["monte_carlo"] = report.to_json_dict()
    return [Artifact(cfg.output, "json", data)], summary


def _run_nogo(cfg: RunConfig):
    import numpy as np

    from .hilbert import _checked_count, haar_random_unitary
    from .pbr import overlap_preservation_check
    from .rngs import MAX_UNIFORMS, uniform_chunks

    p = cfg.params
    ready, s1, s2 = (parse_state_spec(spec) for spec in (p["ready"], *p["pair"]))
    dim = ready.dim * s1.dim
    # a sweep's unitary draws 2 * dim**2 uniforms; checked before the overlaps' array
    _checked_count(p["sweeps"], "sweeps", MAX_UNIFORMS // (2 * dim * dim))
    # the check's own before, |<ready (x) s1|ready (x) s2>|, is the one the change is
    # measured from; it does not depend on the unitary
    before = overlap_preservation_check(np.eye(dim), s1, s2, ready)[0]

    # sweep k's unitary comes from the first 2 * dim**2 uniforms of substream k; each
    # pass of draws is built and checked as one stack, and `fromiter` keeps only its
    # overlaps after, so one pass is alive at a time
    passes = uniform_chunks(cfg.seed, 0, p["sweeps"], 2 * dim * dim)
    afters = np.fromiter(chain.from_iterable(
        overlap_preservation_check(haar_random_unitary(dim, u), s1, s2, ready)[1] for u in passes),
        float, count=p["sweeps"])
    # rounding is monotone and odd, so max |a - before| is at the largest or the
    # smallest a, bit for bit
    max_change = float(max(afters.max() - before, before - afters.min())) if p["sweeps"] else None
    data = {
        "kind": "ketlab/nogo",
        "command": "nogo",
        "sweeps": p["sweeps"],
        "seed": cfg.seed,
        "ready": p["ready"],
        "pair": list(p["pair"]),
        "overlap_before": before,
        "max_abs_change": max_change,
        "mean_overlap_after": float(np.mean(afters)) if p["sweeps"] else None,
    }
    summary = (
        f"overlap {before:.6f} preserved across {p['sweeps']} random unitaries "
        f"(max change {max_change:.3e})" if p["sweeps"]
        else f"overlap {before:.6f}, no sweeps requested"
    )
    return [Artifact(cfg.output, "json", data)], summary


# ---------------------------------------------------------------------------
# command table

# the measured observable and the protection run's defaults, shared by
# `protective` and `leak`
_PROTECTION_PARAMS = (
    Param("observable", _choice("z", "x", "y"), "z", "measured Pauli"),
    Param("n", _as_int, DEFAULT_STEPS, "number of protection cycles"),
    Param("g", _as_float, DEFAULT_COUPLING, "coupling strength per cycle"),
    Param("grid_points", _as_int, DEFAULT_GRID_POINTS, "pointer grid size (power of two)"),
    Param("width", _as_float, 1.0, "pointer wavepacket width"),
)

COMMANDS = {
    spec.name: spec
    for spec in (
        CommandSpec(
            name="protective",
            help="repeated weak coupling on a protected qubit",
            formats=("json",),
            params=(
                Param("theta", _as_float, 0.5236, "half the Bloch polar angle of the state"),
                Param("phi", _as_float, 0.0, "Bloch azimuthal angle"),
                *_PROTECTION_PARAMS,
                Param("mode", _choice("deterministic", "sampled"), "deterministic",
                      "follow the success branch or sample protections"),
                Param("tomography", _as_bool, False,
                      "also reconstruct the state from x, y, z runs", is_flag=True),
                Param("sweep_g", _float_list, None,
                      "comma-separated couplings for an error-vs-g CSV; a sampled point "
                      "that aborts at its first protection reads nan"),
                Param("per_step_csv", _as_str, None,
                      "write the per-cycle survival/pointer log to this CSV"),
                Param("dump_joint", _as_str, None,
                      "write the final joint system+pointer state to this JSON"),
            ),
            runner=_run_protective,
        ),
        CommandSpec(
            name="leak",
            help="protect a different state than was prepared",
            formats=("json",),
            params=(
                Param("prepared", _state_spec, "+", "prepared state"),
                Param("protected", _state_spec, "0", "state the apparatus protects"),
                *_PROTECTION_PARAMS,
            ),
            runner=_run_leak,
        ),
        CommandSpec(
            name="scan",
            help="direct wavefunction readout via weak values",
            formats=("csv",),
            params=(
                Param("profile", _choice("gaussian", "double"), "double",
                      "input wavefunction shape"),
                Param("width", _as_float, 1.0, "hump width"),
                Param("grid_points", _as_int, DEFAULT_GRID_POINTS, "grid size (power of two)"),
                Param("offset", _as_float, 0.0, "profile center"),
                Param("separation", _as_float, 3.0, "hump separation (double only)"),
                Param("phase", _as_float, math.pi / 3.0,
                      "relative phase of the second hump (double only)"),
            ),
            runner=_run_scan,
        ),
        CommandSpec(
            name="pbr",
            help="four-preparation antidistinguishability experiment",
            formats=("csv", "json"),
            params=(
                Param("trials", _as_int, 100000, "number of prepare-and-measure rounds"),
                Param("weights", _float_list, (0.25, 0.25, 0.25, 0.25),
                      "mixture weights of the four preparations"),
            ),
            runner=_run_pbr,
        ),
        CommandSpec(
            name="steer",
            help="singlet steering rounds",
            formats=("json",),
            params=(
                Param("trials", _as_int, 1000, "rounds per basis"),
                Param("basis", _choice("z", "x", "both"), "both",
                      "Alice's measurement basis"),
            ),
            runner=_run_steer,
        ),
        CommandSpec(
            name="onto",
            help="certified shared-reality violation bound / model evaluation",
            formats=("json",),
            params=(
                Param("q", _as_float, DEFAULT_Q,
                      "shared-lambda weight in [0, 1] of the bound (refused with --model)"),
                Param("mc_trials", _as_int, 0, "Monte Carlo trials per scenario cell"),
                Param("model", _as_str, None,
                      "model JSON to evaluate instead, or the literal 'orthodox'"),
                Param("scenario", _choice("pbr", "qubit"), "pbr",
                      "scenario to evaluate --model against (the bound's is pbr; "
                      "another is refused without --model)"),
                Param("prep", _as_str, None, "preparation id to predict (with --model)"),
                Param("meas", _as_str, None, "measurement id to predict (with --model)"),
            ),
            runner=_run_onto,
        ),
        CommandSpec(
            name="nogo",
            help="overlap preservation under random joint unitaries",
            formats=("json",),
            params=(
                Param("sweeps", _as_int, 100, "number of random unitaries"),
                Param("ready", _state_spec, "0", "device ready state"),
                Param("pair", _state_pair, ("0", "+"),
                      "the two system states to compare", nargs=2),
            ),
            runner=_run_nogo,
        ),
    )
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for every subcommand in COMMANDS, on every call.

    This stays uncached: a profiler may re-wrap the returned parser's
    `parse_args` on every build (perfbench's tracer does), and a cached
    parser would stack those wrappers and keep them after the profiler is
    removed. `main` reuses one parser through `_parser` instead."""
    parser = argparse.ArgumentParser(
        prog="ketlab",
        description="seeded quantum measurement experiments with artifact output",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of defaults for the chosen subcommand")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for spec in COMMANDS.values():
        sub = subparsers.add_parser(spec.name, help=spec.help,
                                    argument_default=argparse.SUPPRESS)
        sub.add_argument("--seed", help=f"master seed (default {DEFAULT_SEED})")
        sub.add_argument("--output", "-o", metavar="PATH",
                         help=f"artifact path (default {spec.name}.{spec.formats[0]})")
        if len(spec.formats) > 1:
            sub.add_argument("--format", choices=spec.formats,
                             help=f"artifact format (default {spec.formats[0]})")
        for param in spec.params:
            flag = "--" + param.name.replace("_", "-")
            if param.is_flag:
                sub.add_argument(flag, action="store_true", help=param.help)
            else:
                sub.add_argument(flag, nargs=param.nargs, help=param.help)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` parses with, built by `build_parser` on first use.
    Parsing leaves no state on it, so every call may share it."""
    return build_parser()


def _read_json(path: str, what: str):
    """The JSON in an input file; ConfigError when it cannot be read or
    parsed."""
    if "\0" in path:           # open raises ValueError before it reads a byte
        raise ConfigError(f"cannot read {what} {path!r}: embedded null byte")
    try:
        return load_json(Path(path))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # json raises RecursionError for arrays or objects nested too deeply
        raise ConfigError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def _load_config_file(path: str, spec: CommandSpec) -> dict:
    data = _read_json(path, "config file")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    known = {"subcommand", "seed", "output", "format"}
    known.update(param.name for param in spec.params)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"config file {path!r} has unknown keys for {spec.name!r}: "
            f"{', '.join(sorted(unknown))}"
        )
    if "subcommand" in data and data["subcommand"] != spec.name:
        raise ConfigError(
            f"config file names subcommand {data['subcommand']!r}, "
            f"but {spec.name!r} was invoked"
        )
    return data


def resolve_config(namespace: argparse.Namespace) -> RunConfig:
    """Merge builtin defaults, the config file, and explicit flags.

    The parser keeps only the flags that were typed, so the config file's
    values updated by those flags are the one mapping of given values.
    Each parameter coerces its given value or, when none was given, takes
    its default. A JSON null keeps a default of None and is a config error
    for any other parameter. Reading --config is the only file access:
    the artifact paths are checked in the check stage, by `_check_paths`.
    `namespace` is left as it was."""
    flags = dict(vars(namespace))
    spec = COMMANDS[flags.pop("subcommand")]
    config = flags.pop("config", None)
    given = {**(_load_config_file(config, spec) if config else {}), **flags}

    def pick(name, coerce, default):
        if name not in given or (given[name] is None and default is None):
            return default
        try:
            return coerce(given[name])
        except ConfigError as exc:
            raise ConfigError(f"parameter {name!r}: {exc}") from None

    seed = pick("seed", _seed_value, DEFAULT_SEED)
    fmt = pick("format", _choice(*spec.formats), spec.formats[0])
    output = pick("output", _as_str, f"{spec.name}.{fmt}")
    params = {param.name: pick(param.name, param.coerce, param.default)
              for param in spec.params}
    return RunConfig(
        subcommand=spec.name, seed=seed, output=Path(output), format=fmt,
        params=params, config=None if config is None else Path(config),
    )


def _manifest_path(output: Path) -> Path:
    return Path(str(output) + ".manifest.json")


def _check_paths(artifacts: list, config: Path | None) -> None:
    """The path rules, for every artifact of a run, its manifest included;
    ConfigError naming the first path that breaks one. Each path ends in
    its format's suffix, since readers of a run's files tell JSON from CSV
    by it. No two artifacts share a path: a later write would replace an
    earlier artifact, and the manifest would list it twice. No artifact
    replaces the --config file the run was read from, nor names an
    existing directory, which no write could replace and no cleanup could
    unlink, nor a path the filesystem cannot look up (say, a name too long
    for it, a symlink loop or an embedded NUL)."""
    seen = {} if config is None else {config.resolve(): "the --config file"}
    for artifact in artifacts:
        path = artifact.path
        if path.suffix != f".{artifact.fmt}":
            raise ConfigError(f"artifact path {str(path)!r} does not end in .{artifact.fmt}")
        try:
            is_dir, key = path.is_dir(), path.resolve()
        except (OSError, RuntimeError, ValueError) as exc:
            # resolve raises RuntimeError for a symlink loop, and a NUL in a path ValueError
            raise ConfigError(f"artifact path {str(path)!r} cannot be used: {exc}") from None
        if is_dir:
            raise ConfigError(f"artifact path {str(path)!r} is an existing directory")
        if key in seen:
            raise ConfigError(f"artifact path {str(path)!r} would overwrite {seen[key]}")
        seen[key] = f"the artifact at {str(path)!r}"


def _manifest(cfg: RunConfig, paths: list) -> dict:
    import numpy as np   # loaded by the runner, so this binds it

    return {
        "kind": "ketlab/manifest",
        "command": cfg.subcommand,
        "config": {
            "subcommand": cfg.subcommand,
            "seed": cfg.seed,
            "output": str(cfg.output),
            "format": cfg.format,
            **{k: list(v) if type(v) is tuple else v for k, v in cfg.params.items()},
        },
        "seed": cfg.seed,
        "versions": {
            "ketlab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "outputs": [os.path.relpath(p, _manifest_path(cfg.output).parent) for p in paths],
    }


@contextmanager
def _stage(name: str):
    """Let this package's errors through and turn any other exception into
    an InternalError (exit 4) that names the stage it escaped: parse,
    resolve, compute, check or write."""
    try:
        yield
    except LabError:
        raise
    except Exception as exc:
        raise InternalError(
            f"unexpected {type(exc).__name__} in the {name} stage: {exc}"
        ) from exc


def _write_artifacts(cfg: RunConfig, artifacts: list, paths: list) -> None:
    """Check every artifact and the manifest, their paths first and then
    their contents, and write what was checked: `validate_artifact` hands
    back each artifact as its runner built it, a CSV row as cells of its
    columns' types. Each path goes on `paths` before its write starts, so
    a write that fails partway leaves its file on the list `run` removes."""
    with _stage("check"):
        manifest = _manifest(cfg, [artifact.path for artifact in artifacts])
        artifacts = [*artifacts, Artifact(_manifest_path(cfg.output), "json", manifest)]
        _check_paths(artifacts, cfg.config)
        artifacts = [validate_artifact(artifact) for artifact in artifacts]
    with _stage("write"):
        try:
            for artifact in artifacts:
                paths.append(artifact.path)
                if artifact.fmt == "json":
                    dump_json(artifact.payload, artifact.path)
                else:
                    write_csv(artifact.path, *artifact.payload)
        except OSError as exc:
            raise ConfigError(f"cannot write artifact: {exc}") from exc


def _flush_stdout(text: str = "") -> None:
    """Print `text` and flush stdout. When stdout's reader has gone,
    devnull takes what is left, so neither this flush nor the one at
    interpreter exit fails: nobody is left to read it."""
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def run(cfg: RunConfig) -> list:
    """Execute one resolved configuration; returns the written paths.

    Artifacts, their paths included, are checked after compute and before
    anything is written, so a run that fails its check leaves the
    directory as it was. A run whose write fails removes every file it
    started, so no partial set of artifacts is left on disk. That includes
    a previous run's file at the same path: a path counts as started just
    before its file is opened, so even a file the write could not open (a
    read-only one, say) is removed. An exception that is not one of this
    package's errors is raised as an InternalError naming the stage it
    came from. A stdout whose reader has gone ends the run as a success,
    since its artifacts are on disk by then."""
    spec = COMMANDS[cfg.subcommand]
    with _stage("compute"):
        artifacts, summary = spec.runner(cfg)
    paths = []
    try:
        _write_artifacts(cfg, artifacts, paths)
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
    _flush_stdout(f"{summary}\nwrote: {', '.join(map(str, paths))}\n")
    return paths


def main(argv=None) -> int:
    """Parse `argv`, resolve its configuration and run it; returns the exit
    code. The parser is built on the first call and reused by later ones.
    Every way out, argparse's SystemExit after `--help` included, leaves
    stdout flushed by `_flush_stdout`, so a reader that has gone costs
    neither a traceback nor the exit code."""
    try:
        with _stage("parse"):
            namespace = _parser().parse_args(argv)
        with _stage("resolve"):
            cfg = resolve_config(namespace)
        run(cfg)
    except ConfigError as exc:
        print(f"ketlab: config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"ketlab: precondition rejected: {exc}", file=sys.stderr)
        return 3
    except LabError as exc:
        print(f"ketlab: internal error: {exc}", file=sys.stderr)
        return 4
    finally:    # argparse's SystemExit too, with its --help text still buffered
        _flush_stdout()
    return 0


if __name__ == "__main__":
    sys.exit(main())
