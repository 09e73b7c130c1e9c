import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import oclab

MODULES = ["oclab"] + sorted(
    f"oclab.{m.name}"
    for m in pkgutil.iter_modules(oclab.__path__)
    if hasattr(importlib.import_module(f"oclab.{m.name}"), "__all__")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_cli_import_loads_only_the_standard_library():
    # a fresh interpreter, so modules that other tests loaded do not count;
    # the snapshot leaves out what site preloaded before the import
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; before = set(sys.modules); import oclab.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'oclab'}))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "module, absent",
    [
        # the verifier re-checks reports apart from the code that built them
        ("oclab.verify", ["oclab.constructors", "oclab.certify", "oclab.linalg", "oclab.harness", "oclab.serialize"]),
        # and a run does not pay for loading it
        ("oclab.cli", ["oclab.verify"]),
    ],
)
def test_verifier_and_builders_load_apart(module, absent):
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, {module}; print(sorted(set({absent!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"
