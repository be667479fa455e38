"""Cold-start cost: importing the package and running its commands never
loads the LP solver, and no command needs scipy at all; nothing at run
time loads `jsonschema` either. Both serve only as the tests' oracles.
Importing `ketlab.cli` builds no argument parser; the first `main` call
builds the one every later call reuses. Neither the import nor a run
loads `dataclasses`: ketlab's record types compile no code at import.
`import ketlab` loads none of its modules, and each public name it lists
is its module's object, imported on first use. `import ketlab.cli` loads
no experiment module (`protective`, `pbr`, `ontology`, `weak`), and each
command loads only those it runs. `python -m ketlab.cli`, the entry point
a cold run starts through, keeps the exit-code contract. No command loads
`numpy.random`, nor `_hashlib`, the libcrypto binding that `secrets`
pulls in through it: every draw, `nogo`'s Haar unitaries and `onto`'s
Monte Carlo cells included, evaluates the package's own Philox kernel.
No function of the package names `numpy.random` but `rngs.substream` and
`SubstreamSampler.select`, the reference that kernel is checked against.

Each check runs in a fresh interpreter, because this test process has
long since imported `scipy.optimize` through other tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
LOADED_EXPERIMENTS = ("[m for m in " + repr(EXPERIMENT_MODULES)
                      + " if 'ketlab.' + m in sys.modules]")


def test_importing_the_package_loads_none_of_its_modules(tmp_path):
    seen = run_fresh(
        "import json, sys\n"
        "import ketlab\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ketlab.'))))\n",
        tmp_path,
    )
    assert seen == []


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
    assert seen == ["AttributeError", [True, True], 75, True, []]


def test_importing_the_cli_loads_no_experiment_module(tmp_path):
    seen = run_fresh(
        "import json, sys\n"
        "import ketlab.cli\n"
        f"print(json.dumps({LOADED_EXPERIMENTS}))\n",
        tmp_path,
    )
    assert seen == []


@pytest.mark.parametrize("command,loaded", [
    ("protective", ["protective"]),
    ("leak", ["protective"]),
    ("scan", ["weak"]),
    ("pbr", ["pbr"]),
    ("steer", ["pbr"]),
    ("nogo", ["pbr"]),
    ("onto", ["ontology", "pbr"]),
])
def test_each_command_loads_only_the_experiment_modules_it_runs(tmp_path, command, loaded):
    seen = run_fresh(
        "import json, sys\n"
        "from ketlab.cli import main\n"
        f"code = main([{command!r}])\n"
        f"print(json.dumps([code, {LOADED_EXPERIMENTS}]))\n",
        tmp_path,
    )
    assert seen == [0, loaded]


def test_importing_the_package_does_not_load_the_lp_solver(tmp_path):
    seen = run_fresh(
        "import json, sys\n"
        "import ketlab\n"
        "after_package = 'scipy.optimize' in sys.modules\n"
        "import ketlab.cli\n"
        "after_cli = 'scipy.optimize' in sys.modules\n"
        "print(json.dumps([after_package, after_cli]))\n",
        tmp_path,
    )
    assert seen == [False, False]


def test_default_commands_do_not_load_the_lp_solver(tmp_path):
    seen = run_fresh(
        "import json, sys\n"
        "from ketlab.cli import main\n"
        "codes = [main(['onto']), main(['onto', '--mc-trials', '1000']),\n"
        "         main(['pbr']), main(['steer'])]\n"
        "print(json.dumps([codes, 'scipy.optimize' in sys.modules]))\n",
        tmp_path,
    )
    assert seen == [[0, 0, 0, 0], False]


def test_every_default_runs_without_scipy(tmp_path):
    """scipy is a test oracle only: with it unimportable, every command at
    its defaults, and `onto` with Monte Carlo trials, still exits 0."""
    seen = run_fresh(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from ketlab.cli import main\n"
        "codes = [main([name]) for name in\n"
        "         ('protective', 'leak', 'scan', 'pbr', 'steer', 'onto', 'nogo')]\n"
        "codes.append(main(['onto', '--q', '0.7', '--mc-trials', '1000']))\n"
        "print(json.dumps(codes))\n",
        tmp_path,
    )
    assert seen == [0] * 8
    data = json.loads((tmp_path / "onto.json").read_text())
    assert data["duality_gap"] <= 1e-15
    assert abs(data["violation_lower_bound"] - 0.7 ** 2 / 4) <= 1e-15


def test_cold_runs_do_not_load_jsonschema(tmp_path):
    seen = run_fresh(
        "import json, sys\n"
        "import ketlab.cli\n"
        "seen = ['jsonschema' in sys.modules]\n"
        "for argv in (['onto'], ['pbr'], ['steer']):\n"
        "    seen.append([ketlab.cli.main(argv), 'jsonschema' in sys.modules])\n"
        "print(json.dumps(seen))\n",
        tmp_path,
    )
    assert seen == [False, [0, False], [0, False], [0, False]]


def test_cold_runs_do_not_load_dataclasses(tmp_path):
    seen = run_fresh(
        "import json, sys\n"
        "import ketlab.cli\n"
        "seen = ['dataclasses' in sys.modules]\n"
        "seen.append([ketlab.cli.main(['protective']), 'dataclasses' in sys.modules])\n"
        "print(json.dumps(seen))\n",
        tmp_path,
    )
    assert seen == [False, [0, False]]


def test_no_command_loads_numpy_random(tmp_path):
    seen = run_fresh(
        "import json, sys\n"
        "import ketlab.cli\n"
        "argvs = (['protective'], ['protective', '--mode', 'sampled', '--seed', '9'],\n"
        "         ['protective', '--tomography'], ['leak'], ['scan'], ['pbr'], ['steer'],\n"
        "         ['onto'], ['onto', '--mc-trials', '1000'], ['nogo'])\n"
        "seen = [[ketlab.cli.main(argv), 'numpy.random' in sys.modules,\n"
        "         '_hashlib' in sys.modules] for argv in argvs]\n"
        "print(json.dumps(seen))\n",
        tmp_path,
    )
    assert seen == [[0, False, False]] * 10


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


def test_the_parser_is_built_once_on_the_first_main_call(tmp_path):
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


@pytest.mark.parametrize("argv,code", [
    (["leak", "--n", "5"], 0),
    (["leak", "--n", "-1"], 3),
    (["leak", "--no-such-flag"], 2),
])
def test_the_module_entry_point_keeps_the_exit_code_contract(tmp_path, argv, code):
    done = fresh(["-m", "ketlab.cli", *argv], tmp_path, check=False)
    assert done.returncode == code, done.stderr
    written = ["leak.json", "leak.json.manifest.json"] if code == 0 else []
    assert sorted(p.name for p in tmp_path.iterdir()) == written
