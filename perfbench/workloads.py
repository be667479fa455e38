"""The benchmark's workloads, as seeded sequences of `ketlab` argv lists.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished. One operation is one `ketlab`
invocation. A workload is built from passes; every pass holds the same kinds
of operation in the same number, with fresh seeded parameters, so the mix of
cheap and dear operations (and with it the median and tail latency) does not
depend on the seed or on how many passes a run makes. Parameters are drawn
from ranges on which every operation succeeds and every check applies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

GOLDEN_RUNS = (
    ("protective", "protective.json"),
    ("leak", "leak.json"),
    ("scan", "scan.csv"),
    ("pbr", "pbr.csv"),
    ("steer", "steer.json"),
    ("onto", "onto.json"),
    ("nogo", "nogo.json"),
)
MC_TRIALS = 100000
PBR_TRIALS = 100000      # the pbr default
STEER_TRIALS = 1000      # the steer default
NOGO_SWEEPS = 100        # the nogo default
NAMED_KETS = ("0", "1", "+", "-")


@dataclass(frozen=True)
class Op:
    """One `ketlab` invocation and the check of what it wrote."""

    kind: str
    argv: tuple
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    cold: bool             # each op is a fresh interpreter, else in-process main()
    pass_seconds: float    # one pass on a 2-vCPU reference machine; sizes a run
    build_pass: Callable   # (random.Random, goldens) -> list of Op


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def _bloch(rng: random.Random) -> tuple[str, str]:
    return _num(rng, 0.0, 3.14159), _num(rng, 0.0, 6.28318)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 32))


def _protective(rng, *extra, observable=None, **check_args) -> tuple:
    """A `protective` argv at a random Bloch state and its check."""
    theta, phi = _bloch(rng)
    observable = observable or rng.choice("zxy")
    argv = ("protective", "--theta", theta, "--phi", phi,
            "--observable", observable, *extra)
    check = partial(checks.check_protective, output="protective.json",
                    state=f"{theta}:{phi}", observable=observable, **check_args)
    return argv, check


def cold_cli_pass(rng: random.Random, goldens: dict) -> list:
    ops = [
        Op(f"golden/{cmd}", (cmd,),
           partial(checks.check_golden, artifact=artifact, golden=goldens[artifact]))
        for cmd, artifact in GOLDEN_RUNS
    ]
    ops.append(Op("protective/tomography",
                  *_protective(rng, "--tomography", observable="z", tomography=True)))
    q = _num(rng, 0.0, 1.0)
    ops.append(Op("onto/mc",
                  ("onto", "--q", q, "--mc-trials", str(MC_TRIALS), "--seed", _seed(rng)),
                  partial(checks.check_onto_bound, output="onto.json", q=float(q),
                          mc_trials=MC_TRIALS)))
    return ops


def protective_warm_pass(rng: random.Random, goldens: dict) -> list:
    ops = []
    for observable in "zxy":
        ops.append(Op("protective/deterministic",
                      *_protective(rng, observable=observable)))
        ops.append(Op("protective/sampled",
                      *_protective(rng, "--mode", "sampled", "--seed", _seed(rng),
                                   observable=observable)))
    ops.append(Op("protective/tomography", *_protective(rng, "--tomography",
                                                        tomography=True)))
    ops.append(Op("protective/large", *_protective(
        rng, "--n", "800", "--g", "0.0025", "--grid-points", "1024")))
    sweep = tuple(sorted(round(rng.uniform(0.002, 0.005), 4) for _ in range(3)))
    ops.append(Op("protective/sweep", *_protective(
        rng, "--sweep-g", ",".join(repr(g) for g in sweep), sweep_g=sweep)))
    ops.append(Op("protective/per-step", *_protective(
        rng, "--per-step-csv", "steps.csv", "--dump-joint", "joint.json",
        per_step_csv="steps.csv", dump_joint="joint.json")))
    # survival is |<protected|prepared>|^2 up to O(n g^2) times the observable's
    # variance in the protected state, so measure an observable it is an
    # eigenstate of: then the 1e-3 criterion applies
    prepared = ":".join(_bloch(rng))
    protected = rng.choice(NAMED_KETS)
    ops.append(Op("leak", ("leak", "--prepared", prepared, "--protected", protected,
                           "--observable", "z" if protected in "01" else "x"),
                  partial(checks.check_leak, output="leak.json", prepared=prepared,
                          protected=protected)))
    # the double profile's p = 0 amplitude vanishes at phase pi; stay clear of it
    scan = ("scan", "--profile", rng.choice(("gaussian", "double")),
            "--offset", _num(rng, -2.0, 2.0), "--separation", _num(rng, 1.0, 4.0),
            "--phase", _num(rng, 0.0, 2.0))
    ops.append(Op("scan", scan, partial(checks.check_scan, output="scan.csv")))
    return ops


def _random_spec(rng: random.Random) -> str:
    return rng.choice(NAMED_KETS) if rng.random() < 0.5 else ":".join(_bloch(rng))


def sampling_warm_pass(rng: random.Random, goldens: dict) -> list:
    ops = []
    for fmt in ("csv", "json"):
        parts = [rng.randint(1, 9) for _ in range(4)]
        weights = ",".join(repr(k / sum(parts)) for k in parts)
        output = f"pbr.{fmt}"
        ops.append(Op(f"pbr/{fmt}",
                      ("pbr", "--format", fmt, "-o", output, "--weights", weights,
                       "--seed", _seed(rng)),
                      partial(checks.check_pbr, output=output, fmt=fmt,
                              trials=PBR_TRIALS)))
    for basis, bases in (("z", ("z",)), ("x", ("x",)), ("both", ("z", "x"))):
        ops.append(Op(f"steer/{basis}", ("steer", "--basis", basis, "--seed", _seed(rng)),
                      partial(checks.check_steer, output="steer.json", bases=bases,
                              trials=STEER_TRIALS)))
    q = _num(rng, 0.0, 1.0)
    ops.append(Op("onto/mc",
                  ("onto", "--q", q, "--mc-trials", str(MC_TRIALS), "--seed", _seed(rng)),
                  partial(checks.check_onto_bound, output="onto.json", q=float(q),
                          mc_trials=MC_TRIALS)))
    for scenario in ("pbr", "qubit"):
        ops.append(Op("onto/orthodox",
                      ("onto", "--model", "orthodox", "--scenario", scenario),
                      partial(checks.check_onto_orthodox, output="onto.json",
                              scenario=scenario)))
    pair = (_random_spec(rng), _random_spec(rng))
    ops.append(Op("nogo", ("nogo", "--seed", _seed(rng), "--ready", rng.choice(NAMED_KETS),
                           "--pair", *pair),
                  partial(checks.check_nogo, output="nogo.json", pair=pair,
                          sweeps=NOGO_SWEEPS)))
    return ops


# sampling-warm is not in BENCHMARK.json: on a shared 2-vCPU virtual machine
# its ops slow down with the host in ways the pacer's reference loop does not
# see (runs of one seed at the same sampled host speed differed by a third in
# wall time), so its run-to-run spread came near the bounds BENCHMARK.json
# sets. It stays runnable by hand, as the workload where the samplers
# dominate a trace.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold-cli", cold=True, pass_seconds=11.25, build_pass=cold_cli_pass),
        Workload("protective-warm", cold=False, pass_seconds=1.9,
                 build_pass=protective_warm_pass),
        Workload("sampling-warm", cold=False, pass_seconds=3.7,
                 build_pass=sampling_warm_pass),
    )
}


def build_passes(workload: Workload, seed: int, count: int, goldens: dict) -> list:
    """`count` passes of the workload for this seed, each in a seeded order."""
    rng = random.Random(f"{workload.name}/{seed}")
    passes = []
    for _ in range(count):
        ops = workload.build_pass(rng, goldens)
        rng.shuffle(ops)
        passes.append(ops)
    return passes
