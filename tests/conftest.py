import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

settings.register_profile(
    "ketlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ketlab")


def load_script(name):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def digest_run(tmp_path_factory):
    """(directory, lines) of one run of scripts/artifact_digests.py: every
    command of its COMMANDS run in `directory`, and the `sha256  name`
    lines it returned. The tests that share it only read what it wrote."""
    directory = tmp_path_factory.mktemp("digests")
    return directory, load_script("artifact_digests").digest_lines(directory)
