"""perfbench's `--trace 1` wraps every function in its tracer's TARGETS and
looks each one up with a bare `getattr`, so a name deleted from `ketlab`
would break a traced run with no other signal. The tracer imports only
the standard library, so its table is read here as a plain file."""

import importlib
import importlib.util
import sys
from pathlib import Path

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


def test_every_tracer_target_resolves_to_a_callable():
    targets = load_tracer().TARGETS
    assert targets
    for target in targets:
        module_name, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, target.attr, None)), f"{target.owner}.{target.attr}"
