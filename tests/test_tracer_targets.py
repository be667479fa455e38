"""perfbench's `--trace 1` wraps every function in its tracer's TARGETS and
looks each one up with a bare `getattr`, so a name deleted from `ketlab`
would break a traced run with no other signal, and its AFTER hooks read
fields of their targets' results, so a field folded away would too. The
tracer imports only the standard library, so its table is read here as a
plain file."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def target_owner(target):
    """The module, or the class of a method, that the tracer binds `target` in."""
    module_name, _, class_name = target.owner.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_every_tracer_target_resolves_to_a_callable():
    targets = load_tracer().TARGETS
    assert targets
    for target in targets:
        owner = target_owner(target)
        assert callable(getattr(owner, target.attr, None)), f"{target.owner}.{target.attr}"


def _hook_calls(tmp_path) -> dict:
    """{target attribute: (args, kwargs)} of one real call of each target
    whose result a tracer hook reads."""
    from ketlab import (default_grid, ket_plus, ket_zero, make_pointer, orthodox_model,
                        qubit_scenario, sigma_x, sigma_z)
    from oracles import product_state

    joint = product_state(ket_zero(), make_pointer(default_grid(1.0), 1.0))
    return {
        "build_parser": ((), {}),
        "dump_json": (({"x": 1.5},), {"path": tmp_path / "a.json"}),
        "write_csv": ((tmp_path / "a.csv", ("x",), [(1.5,)]), {}),
        "protective_measure": ((ket_plus(), sigma_x()),
                               {"n": 40, "g": 0.2, "mode": "sampled", "seed": 0}),
        "couple_pointer": ((joint, sigma_z(), 0.25), {}),
        "pbr_experiment": ((50,), {"seed": 1}),
        "pbr_min_violation": ((0.5,), {}),
        "monte_carlo_onto": ((orthodox_model(qubit_scenario()), qubit_scenario(), 10), {}),
        "linprog": (([1.0],), {"bounds": [(0.0, 1.0)]}),
    }


@pytest.mark.parametrize("attr", sorted(load_tracer().AFTER))
def test_every_after_hook_reads_a_real_result_of_its_target(tmp_path, attr):
    """A `--trace 1` run hands each hook the result of its target; a hook
    that reads a field the result no longer has fails here, not there."""
    tracer = load_tracer()
    (target,) = [t for t in tracer.TARGETS if t.attr == attr]
    args, kwargs = _hook_calls(tmp_path)[attr]
    result = getattr(target_owner(target), attr)(*args, **kwargs)
    tracer.AFTER[attr](tracer.Tracer(), args, kwargs, result)
