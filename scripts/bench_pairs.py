#!/usr/bin/env python3
"""Benchmark HEAD against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py --label NAME

`perfbench/run.py` benchmarks the checkout it lives in, so HEAD, the base,
is archived with `git archive` to a temporary directory, where it runs its
own bench, and the change is the working tree, run in place; `git` and
`tar` must be on the path. Each of PAIRS pairs runs every workload of
BENCHMARK.json once on each side, the base first in the first pair, the
change first in the second, and so on (ABBA), all with seed SEED and
BENCHMARK.json's `run_seconds`.

It writes `BENCH_<label>.json` to the current directory: per workload and
side, each end-to-end metric of BENCHMARK.json as its median, quartiles
and run values, and each run's host speed; per workload and metric, the
pairs the change won (ties count for neither), whether that is a gain by
the rule a claim needs (at least nine tenths of the pairs won, and the
medians apart by more than the base's interquartile range) and by how much
the change's median is worse than the base's, against the metric's bound.
It also records both revisions, whether the working tree was dirty, the
Python and numpy versions and the CPU count. Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10
SEED = 901         # the seed of ROADMAP's perfbench rows
GAIN_SHARE = 0.9   # of the pairs the change must win for a gain


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def archive(rev: str, directory: Path) -> None:
    """Extract the tree of `rev` into `directory`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=tar, check=True)


def bench(tree: Path, workload: str) -> dict:
    """One `perfbench/run.py` run of `tree`: {metric: value}, and the
    host speed its meta line reports under "host_speed"."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} on {tree} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    metrics = json.loads(lines[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()} | {
        "host_speed": meta["notes"]["host_speed"]}


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(metric: dict, base: dict, change: dict) -> dict:
    """The change against the base on one end-to-end metric, by the rule
    a claimed gain needs, and its median's worsening against the bound."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    won = sum(sign * (c - b) > 0 for b, c in zip(base["values"], change["values"]))
    ahead = sign * (change["median"] - base["median"])
    if base["median"]:
        worse_by = -ahead / abs(base["median"])
    else:
        worse_by = math.inf if ahead < 0 else 0.0
    return {"better": metric["better"], "bound": metric["bound"],
            "pairs_won": won, "pairs": len(base["values"]),
            "gain": won >= math.ceil(GAIN_SHARE * len(base["values"]))
            and ahead > base["q3"] - base["q1"],
            "worse_by": worse_by, "within_bound": worse_by <= metric["bound"]}


def version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = parser.parse_args(argv)

    head = git("rev-parse", "HEAD")
    record = {
        "label": args.label,
        "base": {"rev": head},
        "change": {"rev": head, "dirty": bool(git("status", "--porcelain"))},
        "pairs": PAIRS, "seed": SEED, "seconds": SECONDS,
        "python": platform.python_version(), "numpy": version("numpy"),
        "cpu_count": os.cpu_count(),
    }
    runs = {w: {"base": [], "change": []} for w in WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        archive(head, trees["base"])
        for pair in range(PAIRS):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for workload in WORKLOADS:
                for side in order:
                    runs[workload][side].append(bench(trees[side], workload))
                    print(f"pair {pair + 1}/{PAIRS} {workload} {side}: "
                          f"{runs[workload][side][-1]['ops_per_s']:.4g} ops/s", flush=True)

    record["workloads"] = {}
    for workload, sides in runs.items():
        stats = {side: {name: summary([run[name] for run in side_runs])
                        for name in side_runs[0]}
                 for side, side_runs in sides.items()}
        record["workloads"][workload] = dict(stats, verdicts={
            metric["name"]: verdict(metric, stats["base"][metric["name"]],
                                    stats["change"][metric["name"]])
            for metric in BENCHMARK["end_to_end"]})
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
