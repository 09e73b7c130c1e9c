import importlib
import pkgutil

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
