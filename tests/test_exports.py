import importlib
import pkgutil

import pytest

import duhem

MODULES = ["duhem"] + [f"duhem.{m.name}" for m in pkgutil.iter_modules(duhem.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
