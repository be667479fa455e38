"""Output checks for benchmark operations.

Every operation the benchmark runs is followed by one of these checks on the
files it wrote. A check recomputes what it can from the operation's own
arguments (Bloch angles, state specs, q) with plain math, so it never trusts
a number the program derived for itself. Each raises CheckError on a miss;
the runner counts that operation as failed.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path

PROTECTIVE_ERROR_MAX = 2e-3      # acceptance criterion 03
SURVIVAL_MIN = 0.99              # acceptance criterion 03
FIDELITY_MIN = 1.0 - 1e-4        # acceptance criterion 09
LEAK_SURVIVAL_TOL = 1e-3         # acceptance criterion 04
STEER_MARGINAL_MAX = 1e-12       # acceptance criterion 10
ONTO_BOUND_TOL = 1e-6            # acceptance criterion 07
ORTHODOX_GAP_MAX = 1e-12         # acceptance criterion 08
NOGO_CHANGE_MAX = 1e-10          # acceptance criterion 06
SCAN_RECONSTRUCTION_MAX = 1e-9   # acceptance criterion 05
GOLDEN_REL, GOLDEN_ABS = 1e-9, 1e-12  # test_default_runs_match_golden

PBR_PREPARATIONS = ("00", "0+", "+0", "++")
PBR_FORBIDDEN = {"00": 0, "0+": 1, "+0": 2, "++": 3}   # preparation -> xi index


class CheckError(Exception):
    """An operation's output is missing or wrong."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def load(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_rows(path: Path) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    expect(rows, f"{Path(path).name} is empty")
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# qubit arithmetic, independent of the program

_NAMED = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (1 / math.sqrt(2.0), 1 / math.sqrt(2.0)),
    "-": (1 / math.sqrt(2.0), -1 / math.sqrt(2.0)),
}
_PAULI = {
    "x": ((0, 1), (1, 0)),
    "y": ((0, -1j), (1j, 0)),
    "z": ((1, 0), (0, -1)),
}


def qubit(spec: str) -> tuple:
    """Amplitudes of a named ket or of 'theta:phi' (cos t |0> + e^{i p} sin t |1>)."""
    if spec in _NAMED:
        return tuple(complex(a) for a in _NAMED[spec])
    theta, phi = (float(part) for part in spec.split(":"))
    return (complex(math.cos(theta)), cmath.exp(1j * phi) * math.sin(theta))


def overlap_sq(a: tuple, b: tuple) -> float:
    return abs(sum(x.conjugate() * y for x, y in zip(a, b))) ** 2


def expectation(observable: str, state: tuple) -> float:
    m = _PAULI[observable]
    return sum(state[i].conjugate() * m[i][j] * state[j]
               for i in range(2) for j in range(2)).real


def state_from_json(data: dict) -> tuple:
    expect(data["dim"] == 2, f"expected a qubit, got dim {data['dim']}")
    return tuple(complex(r, i) for r, i in zip(data["re"], data["im"]))


# ---------------------------------------------------------------------------
# golden defaults

def close(got, want) -> bool:
    return abs(got - want) <= max(GOLDEN_REL * abs(want), GOLDEN_ABS)


def compare_payload(got, want, path: str = "$") -> None:
    """Structural comparison: ints, strings and booleans exact, floats rel 1e-9."""
    numbers = (int, float)
    expect(type(got) is type(want) or (
        isinstance(got, numbers) and isinstance(want, numbers)
        and not isinstance(got, bool) and not isinstance(want, bool)
    ), f"{path}: {type(got).__name__} vs {type(want).__name__}")
    if isinstance(want, dict):
        expect(set(got) == set(want), f"{path}: keys {sorted(got)} vs {sorted(want)}")
        for key in want:
            compare_payload(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        expect(len(got) == len(want), f"{path}: length {len(got)} vs {len(want)}")
        for i, (g, w) in enumerate(zip(got, want)):
            compare_payload(g, w, f"{path}[{i}]")
    elif isinstance(want, bool) or want is None:
        expect(got is want, f"{path}: {got!r} vs {want!r}")
    elif isinstance(want, float):
        expect(close(got, want), f"{path}: {got!r} vs {want!r}")
    else:
        expect(got == want, f"{path}: {got!r} vs {want!r}")


def compare_csv(got_path: Path, want_text: str) -> None:
    got_lines = Path(got_path).read_text(encoding="utf-8").splitlines()
    want_lines = want_text.splitlines()
    expect(got_lines[:1] == want_lines[:1], f"header {got_lines[:1]} vs {want_lines[:1]}")
    expect(len(got_lines) == len(want_lines),
           f"{len(got_lines)} lines vs {len(want_lines)}")
    for lineno, (got_line, want_line) in enumerate(zip(got_lines[1:], want_lines[1:]), 2):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        expect(len(got_cells) == len(want_cells), f"line {lineno}: cell count")
        for g, w in zip(got_cells, want_cells):
            try:
                number = float(w)
            except ValueError:
                expect(g == w, f"line {lineno}: {g!r} vs {w!r}")
                continue
            expect(close(float(g), number), f"line {lineno}: {g} vs {w}")


def check_golden(workdir: Path, artifact: str, golden: str) -> None:
    """`golden` is the checked-in artifact's text, read once at set-up."""
    path = workdir / artifact
    if artifact.endswith(".json"):
        compare_payload(load(path), json.loads(golden))
    else:
        compare_csv(path, golden)


# ---------------------------------------------------------------------------
# protective, leak and scan

def _check_run(data: dict, state: tuple, observable: str) -> dict:
    expect(data["kind"] == "ketlab/protective-run", f"kind {data['kind']!r}")
    run = data["run"]
    true = expectation(observable, state)
    expect(run["survival_probability"] >= SURVIVAL_MIN,
           f"survival {run['survival_probability']} < {SURVIVAL_MIN}")
    aborted = run["aborted_at_step"]
    if aborted is None:
        expect(len(run["per_step_log"]) == run["steps"], "per-step log length")
        error = abs(run["inferred_expectation"] - true)
        expect(error < PROTECTIVE_ERROR_MAX, f"protective error {error:.3e}")
    else:
        # a sampled run that fails a protection is a valid, reported outcome
        expect(run["mode"] == "sampled", "a deterministic run cannot abort")
        expect(1 <= aborted <= run["steps"], f"aborted at step {aborted}")
        expect(len(run["per_step_log"]) == aborted - 1, "aborted run log length")
        if run["inferred_expectation"] is not None:
            error = abs(run["inferred_expectation"] - true)
            expect(error < PROTECTIVE_ERROR_MAX, f"aborted-run error {error:.3e}")
    return run


def check_protective(workdir: Path, output: str, state: str, observable: str,
                     tomography: bool = False, sweep_g: tuple = (),
                     per_step_csv: str | None = None,
                     dump_joint: str | None = None) -> None:
    psi = qubit(state)
    data = load(workdir / output)
    run = _check_run(data, psi, observable)
    if tomography:
        rebuilt = state_from_json(data["tomography"]["reconstructed"])
        fidelity = overlap_sq(psi, rebuilt)
        expect(fidelity >= FIDELITY_MIN, f"tomography fidelity {fidelity!r}")
    if sweep_g:
        sweep = workdir / (Path(output).stem + ".sweep.csv")
        header, rows = read_rows(sweep)
        expect(header == ["g", "inferred_expectation", "absolute_error", "survival"],
               f"sweep header {header}")
        expect(len(rows) == len(sweep_g), f"{len(rows)} sweep rows")
        true = expectation(observable, psi)
        for (g, inferred, _, survival), want_g in zip(rows, sweep_g):
            expect(float(g) == want_g, f"sweep g {g} vs {want_g}")
            error = abs(float(inferred) - true)
            expect(error < PROTECTIVE_ERROR_MAX, f"sweep g={g} error {error:.3e}")
            expect(float(survival) >= SURVIVAL_MIN, f"sweep g={g} survival {survival}")
    if per_step_csv is not None:
        header, rows = read_rows(workdir / per_step_csv)
        expect(header == ["step", "survival", "pointer_mean"], f"per-step header {header}")
        expect([int(r[0]) for r in rows] == list(range(1, len(run["per_step_log"]) + 1)),
               "per-step rows do not count the completed cycles")
        survival = [float(r[1]) for r in rows]
        expect(all(a >= b for a, b in zip(survival, survival[1:])),
               "survival increases between cycles")
        expect(float(rows[-1][2]) == run["pointer_mean_shift"],
               "last per-step pointer mean differs from the reported shift")
    if dump_joint is not None:
        joint = load(workdir / dump_joint)
        expect(joint["kind"] == "ketlab/joint-state", f"kind {joint['kind']!r}")
        points = joint["grid"]["n_points"]
        expect(len(joint["re"]) == len(joint["im"]) == joint["system_dim"] * points,
               "joint amplitude count")
        norm = sum(r * r + i * i for r, i in zip(joint["re"], joint["im"]))
        norm *= joint["grid"]["spacing"]
        expect(abs(norm - 1.0) < 1e-9, f"joint norm {norm!r}")


def check_leak(workdir: Path, output: str, prepared: str, protected: str) -> None:
    data = load(workdir / output)
    expect(data["kind"] == "ketlab/leak", f"kind {data['kind']!r}")
    predicted = overlap_sq(qubit(protected), qubit(prepared))
    expect(abs(data["survival"] - predicted) < LEAK_SURVIVAL_TOL,
           f"leak survival {data['survival']!r} vs |<protected|prepared>|^2 {predicted!r}")
    survivor = state_from_json(data["surviving_state"])
    expect(overlap_sq(survivor, qubit(protected)) > 1.0 - 1e-9,
           "the survivor is not the protected state")


def check_scan(workdir: Path, output: str) -> None:
    header, rows = read_rows(workdir / output)
    expect(header == ["x", "re_scan", "im_scan", "re_psi", "im_psi"], f"scan header {header}")
    values = [[float(cell) for cell in row] for row in rows]
    expect(len(values) >= 2, "scan has fewer than two points")
    spacing = values[1][0] - values[0][0]
    psi = [complex(r[3], r[4]) for r in values]
    p0 = sum(psi) * spacing
    error = max(abs(complex(r[1], r[2]) * p0 - a) for r, a in zip(values, psi))
    expect(error < SCAN_RECONSTRUCTION_MAX, f"scan reconstruction error {error:.3e}")


# ---------------------------------------------------------------------------
# pbr, steer, onto, nogo

def _check_pbr_counts(counts: dict, forbidden: dict, trials: int) -> None:
    expect(sorted(counts) == sorted(PBR_PREPARATIONS), f"preparations {sorted(counts)}")
    expect(sorted(forbidden) == sorted(PBR_PREPARATIONS), "forbidden-outcome map")
    for prep, row in counts.items():
        expect(len(row) == 4 and all(c >= 0 for c in row), f"row {prep}: {row}")
        expect(forbidden[prep] == PBR_FORBIDDEN[prep], f"forbidden outcome of {prep}")
        expect(row[PBR_FORBIDDEN[prep]] == 0, f"forbidden cell of {prep} is {row}")
    total = sum(sum(row) for row in counts.values())
    expect(total == trials, f"row totals sum to {total}, not {trials}")


def check_pbr(workdir: Path, output: str, fmt: str, trials: int) -> None:
    if fmt == "csv":
        header, rows = read_rows(workdir / output)
        expect(header == ["preparation", "xi1", "xi2", "xi3", "xi4", "total",
                          "forbidden_xi"], f"pbr header {header}")
        counts, forbidden = {}, {}
        for prep, *cells in rows:
            row = [int(c) for c in cells[:4]]
            expect(int(cells[4]) == sum(row), f"row {prep}: total column")
            counts[prep] = row
            forbidden[prep] = int(cells[5]) - 1
    else:
        data = load(workdir / output)
        expect(data["kind"] == "ketlab/pbr-counts", f"kind {data['kind']!r}")
        expect(data["trials"] == trials, f"trials {data['trials']}")
        counts, forbidden = data["counts"], data["forbidden_outcome"]
    _check_pbr_counts(counts, forbidden, trials)


_STEERED = {
    ("z", "+1"): "0", ("z", "-1"): "1",
    ("x", "+1"): "-", ("x", "-1"): "+",
}


def check_steer(workdir: Path, output: str, bases: tuple, trials: int) -> None:
    data = load(workdir / output)
    expect(data["kind"] == "ketlab/steering", f"kind {data['kind']!r}")
    expect(sorted(data["bases"]) == sorted(bases), f"bases {sorted(data['bases'])}")
    for basis, entry in data["bases"].items():
        marginal = entry["marginal_trace_distance"]
        expect(marginal < STEER_MARGINAL_MAX, f"{basis} marginal {marginal!r}")
        expect(sum(entry["outcome_counts"].values()) == trials, f"{basis} round count")
        for outcome, state in entry["bob_states"].items():
            want = qubit(_STEERED[(basis, outcome)])
            expect(overlap_sq(state_from_json(state), want) > 1.0 - 1e-12,
                   f"{basis} outcome {outcome}: Bob's state is not steered")


def check_onto_bound(workdir: Path, output: str, q: float, mc_trials: int) -> None:
    data = load(workdir / output)
    expect(data["kind"] == "ketlab/violation-bound", f"kind {data['kind']!r}")
    target = q * q / 4.0
    for key in ("violation_lower_bound", "upper_bound"):
        expect(abs(data[key] - target) < ONTO_BOUND_TOL,
               f"{key} {data[key]!r} vs q^2/4 = {target!r}")
    expect(data["duality_gap"] < ONTO_BOUND_TOL, f"duality gap {data['duality_gap']!r}")
    if mc_trials:
        cells = data["monte_carlo"]["counts"]
        for prep, row in cells.items():
            for meas, counts in row.items():
                expect(sum(counts) == mc_trials, f"Monte Carlo cell {prep}/{meas}")


def check_onto_orthodox(workdir: Path, output: str, scenario: str) -> None:
    data = load(workdir / output)
    expect(data["kind"] == "ketlab/model-eval", f"kind {data['kind']!r}")
    expect(data["scenario"].startswith(scenario), f"scenario {data['scenario']!r}")
    gaps = data["born_gaps"]
    expect(gaps and max(gaps.values()) < ORTHODOX_GAP_MAX, f"Born gaps {gaps}")


def check_nogo(workdir: Path, output: str, pair: tuple, sweeps: int) -> None:
    data = load(workdir / output)
    expect(data["kind"] == "ketlab/nogo", f"kind {data['kind']!r}")
    expect(data["sweeps"] == sweeps, f"sweeps {data['sweeps']}")
    before = math.sqrt(overlap_sq(qubit(pair[0]), qubit(pair[1])))
    expect(abs(data["overlap_before"] - before) < 1e-12,
           f"overlap before {data['overlap_before']!r} vs {before!r}")
    expect(data["max_abs_change"] < NOGO_CHANGE_MAX,
           f"overlap changed by {data['max_abs_change']!r}")
