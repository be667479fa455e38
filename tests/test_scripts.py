"""The example scripts still run against the package and keep their promises."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coupling_sweep_bias_falls_as_g_squared():
    sweep = load_script("protective_coupling_sweep")
    rows = sweep.sweep()
    assert [row[0] for row in rows] == list(sweep.LADDER)
    # halving g at fixed n*g cuts the error by ~4 at every rung
    ratios = [row[-1] for row in rows[1:]]
    assert all(3.5 < ratio < 4.5 for ratio in ratios), ratios
