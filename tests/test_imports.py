"""Cold-start cost, read off `sys.modules` in fresh interpreters, because
this test process has long since imported `scipy.optimize` through other
tests.

The census runs each row of CENSUS, one command line, in its own
interpreter and takes three snapshots:

- after `import ketlab`, no `ketlab.*` module is loaded, nor numpy nor a
  foreign module: each public name is imported from its module on first use;
- after `import ketlab.cli`, no experiment module, no numpy and no
  foreign module is loaded;
- after `main(argv)`, the run has exited 0 having loaded exactly the
  row's experiment modules and no foreign module.

The experiment modules are `protective`, `pbr`, `ontology` and `weak`,
and numpy loads only with the modules built on it (`hilbert`,
`measurement`, `rngs`), which only a run imports. The foreign modules are
those no cold run needs. `scipy.optimize`, the LP solver, and `jsonschema`
serve only as the tests' oracles. `dataclasses` is not needed because
ketlab's record types compile no code at import. `numpy.random`, and
`_hashlib`, the libcrypto binding that `secrets` pulls in through it, are
not needed because every draw evaluates the package's own Philox kernel.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ketlab.cli import COMMANDS

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(args: list, cwd, check: bool = True) -> subprocess.CompletedProcess:
    """Run a new interpreter with `args` and the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120, check=check,
    )


def run_fresh(code: str, cwd) -> dict:
    """Run `code` in a new interpreter and return the JSON object it
    prints last."""
    return json.loads(fresh(["-c", code], cwd).stdout.splitlines()[-1])


EXPERIMENT_MODULES = ("ontology", "pbr", "protective", "weak")
FOREIGN_MODULES = ("scipy.optimize", "jsonschema", "dataclasses", "numpy.random", "_hashlib")

# one command line per row, with the experiment modules its run loads
CENSUS = (
    (["protective"], ["protective"]),
    (["protective", "--mode", "sampled", "--seed", "9"], ["protective"]),
    (["protective", "--tomography"], ["protective"]),
    (["leak"], ["protective"]),
    (["scan"], ["weak"]),
    (["pbr"], ["pbr"]),
    (["steer"], ["pbr"]),
    (["onto"], ["ontology", "pbr"]),
    (["onto", "--mc-trials", "1000"], ["ontology", "pbr"]),
    (["nogo"], ["pbr"]),
)

CENSUS_RUN = """\
import json, sys
def snapshot():
    return sorted(m for m in sys.modules if m.startswith('ketlab.') or m in {watched!r})
import ketlab
package = snapshot()
import ketlab.cli
cli = snapshot()
code = ketlab.cli.main({argv!r})
print(json.dumps([package, cli, code, snapshot()]))
"""


@pytest.mark.parametrize("argv,loaded", CENSUS, ids=[" ".join(argv) for argv, _ in CENSUS])
def test_a_cold_run_loads_only_the_modules_its_command_runs(tmp_path, argv, loaded):
    package, cli, code, run = run_fresh(
        CENSUS_RUN.format(watched=("numpy", *FOREIGN_MODULES), argv=argv), tmp_path)
    experiments = {f"ketlab.{m}" for m in EXPERIMENT_MODULES}
    assert package == []
    assert experiments.union(["numpy"], FOREIGN_MODULES).intersection(cli) == set()
    assert code == 0
    assert sorted(experiments.intersection(run)) == [f"ketlab.{m}" for m in loaded]
    assert set(FOREIGN_MODULES).intersection(run) == set()


def test_the_census_runs_every_command():
    assert {argv[0] for argv, _ in CENSUS} == set(COMMANDS)


def test_the_package_namespace_resolves_each_name_in_its_module(tmp_path):
    """Every name `dir(ketlab)` lists is the object its module defines, an
    unknown name raises AttributeError, and `from ketlab import` still
    imports submodules."""
    seen = run_fresh(
        "import importlib, json, sys\n"
        "import ketlab\n"
        "try:\n"
        "    ketlab.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "from ketlab import cli, rngs\n"
        "submodules = [cli is sys.modules['ketlab.cli'], rngs is sys.modules['ketlab.rngs']]\n"
        "names = dir(ketlab)\n"
        "wrong = [name for name in names if getattr(ketlab, name) is not getattr(\n"
        "    importlib.import_module('ketlab.' + ketlab._MODULE_OF[name]), name)]\n"
        "print(json.dumps([unknown, submodules, len(names), sorted(ketlab.__all__) == names,\n"
        "                  wrong]))\n",
        tmp_path,
    )
    assert seen == ["AttributeError", [True, True], 72, True, []]


def test_importing_the_cli_and_its_early_exits_load_no_numpy(tmp_path):
    """`--help`, a command's `--help`, a parse error, an unreadable
    `--config` file and a state spec that names no state all exit without
    numpy or the modules built on it."""
    seen = run_fresh(
        "import json, sys\n"
        "import ketlab.cli\n"
        "physics = ('numpy', 'ketlab.hilbert', 'ketlab.measurement', 'ketlab.rngs')\n"
        "seen = [[m for m in physics if m in sys.modules]]\n"
        "for argv in (['--help'], ['protective', '--help'], ['leak', '--no-such-flag'],\n"
        "             ['pbr', '--config', 'missing.json'], ['--config', 'missing.json', 'pbr'],\n"
        "             ['leak', '--prepared', 'bad']):\n"
        "    try:\n"
        "        code = ketlab.cli.main(argv)\n"
        "    except SystemExit as exc:   # argparse exits on --help and on a parse error\n"
        "        code = exc.code\n"
        "    seen.append([code, 'numpy' in sys.modules])\n"
        "print(json.dumps(seen))\n",
        tmp_path,
    )
    # a --config after the command is a parse error; before it, the file is read
    assert seen == [[], [0, False], [0, False], [2, False], [2, False], [2, False], [2, False]]


def test_every_default_runs_without_scipy(tmp_path):
    """scipy is a test oracle only: with it unimportable, every command at
    its defaults, and `onto` with Monte Carlo trials, still exits 0."""
    seen = run_fresh(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from ketlab.cli import COMMANDS, main\n"
        "codes = [main([name]) for name in COMMANDS]\n"
        "codes.append(main(['onto', '--q', '0.7', '--mc-trials', '1000']))\n"
        "print(json.dumps(codes))\n",
        tmp_path,
    )
    assert seen == [0] * (len(COMMANDS) + 1)
    data = json.loads((tmp_path / "onto.json").read_text())
    assert data["duality_gap"] <= 1e-15
    assert abs(data["violation_lower_bound"] - 0.7 ** 2 / 4) <= 1e-15


def _names_numpy_random(node) -> bool:
    """Whether `node` is `np.random` or `numpy.random`, or an import of it."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.random") or (
            node.module == "numpy" and any(alias.name == "random" for alias in node.names))
    return False


def _scopes_naming_numpy_random(node, scope: str) -> set:
    """The qualified names of the functions and classes under `node`
    (`scope` itself for code outside them) whose code names numpy.random."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _scopes_naming_numpy_random(child, f"{scope}.{child.name}")
        else:
            if _names_numpy_random(child):
                found.add(scope)
            found |= _scopes_naming_numpy_random(child, scope)
    return found


def test_only_the_reference_substreams_name_numpy_random():
    """Every sampler takes an integer seed and draws through the Philox
    kernel; numpy's own Philox stays only in the two functions the tests
    check that kernel against."""
    found = set()
    for path in sorted((SRC / "ketlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= _scopes_naming_numpy_random(tree, path.stem)
    assert found == {"rngs.substream", "rngs.SubstreamSampler.select"}


_RANGE_ENDS = {2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1, 2 ** 128}


def _writes_a_range_end(node) -> bool:
    """Whether `node` is `2 ** 64` or `2 ** 128`, the same as `1 << k`, or
    one of the range ends as a literal."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.LShift)):
        base = 2 if isinstance(node.op, ast.Pow) else 1
        return (isinstance(node.left, ast.Constant) and node.left.value == base
                and isinstance(node.right, ast.Constant) and node.right.value in (64, 128))
    return (isinstance(node, ast.Constant) and type(node.value) is int
            and node.value in _RANGE_ENDS)


def _refuses_a_bool(function) -> bool:
    """Whether `function` tests `isinstance(_, bool)` and raises
    PreconditionError: a precondition that refuses a bool as an integer."""
    def names_bool(node):
        return isinstance(node, ast.Name) and node.id == "bool"

    tests_bool = any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and any(names_bool(n) for n in ast.walk(node.args[1]))
        for node in ast.walk(function))
    raises = any(isinstance(node, ast.Raise) and node.exc is not None
                 and any(isinstance(n, ast.Name) and n.id == "PreconditionError"
                         for n in ast.walk(node.exc))
                 for node in ast.walk(function))
    return tests_bool and raises


def test_the_integer_ranges_and_their_rule_live_in_one_place_each():
    """Only `rngs` writes the seed and substream ranges (2**128 and 2**64),
    as MAX_SEED and MAX_SUBSTREAMS, and only `hilbert._checked_count`
    refuses a bool where an integer is required: every count, size, index
    and seed is checked by that one rule. (The cli's config coercion and
    schema check also refuse bools, as config errors, not preconditions.)"""
    ranges, rules = set(), set()
    for path in sorted((SRC / "ketlab").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(map(_writes_a_range_end, ast.walk(tree))):
            ranges.add(path.stem)
        rules |= {f"{path.stem}.{node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _refuses_a_bool(node)}
    assert ranges == {"rngs"}
    assert rules == {"hilbert._checked_count"}


def test_the_parser_is_built_once_on_the_first_main_call(tmp_path):
    """Importing `ketlab.cli` builds no argument parser; the first `main`
    call builds the one every later call reuses."""
    seen = run_fresh(
        "import json\n"
        "import ketlab.cli\n"
        "built_on_import = ketlab.cli._parser.cache_info().currsize\n"
        "builds = []\n"
        "build_parser = ketlab.cli.build_parser\n"
        "def counted():\n"
        "    builds.append(1)\n"
        "    return build_parser()\n"
        "ketlab.cli.build_parser = counted\n"
        "codes = [ketlab.cli.main(argv) for argv in\n"
        "         (['onto'], ['nogo', '--sweeps', '2'], ['steer', '--trials', '10'])]\n"
        "print(json.dumps([built_on_import, codes, len(builds)]))\n",
        tmp_path,
    )
    assert seen == [0, [0, 0, 0], 1]


@pytest.mark.parametrize("argv,code,out,err", [
    (["leak", "--n", "5"], 0,
     "survival 0.500000 (predicted 0.500000)\nwrote: leak.json, leak.json.manifest.json\n", ""),
    (["leak", "--n", "-1"], 3, "",
     "ketlab: precondition rejected: step count must be an integer in [0, 65536], got -1\n"),
    (["leak", "--no-such-flag"], 2, "",   # argparse's usage lines come first
     "ketlab: error: unrecognized arguments: --no-such-flag\n"),
    (["leak", "--n", "x"], 2, "",
     "ketlab: config error: parameter 'n': expected an integer, got 'x'\n"),
], ids=["argv0-0", "argv1-3", "argv2-2", "argv3-2"])
def test_the_module_entry_point_keeps_the_exit_code_contract(tmp_path, monkeypatch,
                                                            argv, code, out, err):
    """Through pipes, so stdout is block-buffered: every line `main` printed
    reaches its reader before the process ends without teardown."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    done = fresh(["-m", "ketlab.cli", *argv], tmp_path, check=False)
    assert done.returncode == code, done.stderr
    assert done.stdout == out
    assert done.stderr.endswith(err)
    assert done.stderr == err or done.stderr.startswith("usage: ketlab ")
    written = ["leak.json", "leak.json.manifest.json"] if code == 0 else []
    assert sorted(p.name for p in tmp_path.iterdir()) == written


def test_a_profiled_run_exits_normally_and_prints_its_profile(tmp_path):
    """Under cProfile (a profile hook, or a `sys.monitoring` tool on 3.12+)
    `entry` hands its code back, so the profiler prints its report."""
    done = fresh(["-m", "cProfile", "-m", "ketlab.cli", "leak", "--n", "5"], tmp_path)
    assert done.stdout.startswith("survival 0.500000 (predicted 0.500000)\n")
    assert "ncalls  tottime  percall  cumtime  percall filename:lineno(function)" in done.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["leak.json", "leak.json.manifest.json"]


def test_an_atexit_callback_registered_before_entry_still_runs(tmp_path):
    done = fresh(["-c",
                  "import atexit, sys\n"
                  "import ketlab.cli\n"
                  "atexit.register(print, 'callback ran')\n"
                  "sys.argv = ['ketlab', 'leak', '--n', '5']\n"
                  "sys.exit(ketlab.cli.entry())\n"], tmp_path)
    assert done.stdout.endswith("leak.json.manifest.json\ncallback ran\n")
