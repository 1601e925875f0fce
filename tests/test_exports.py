import ast
import importlib
import pathlib
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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither references nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


SOURCES = sorted(pathlib.Path(duhem.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_does_not_use(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports unused {unused}"


def test_unused_import_check_sees_a_planted_import():
    source = SOURCES[0].read_text(encoding="utf-8")
    assert _unused_imports(source + "\nfrom os import sep as _planted\n") == ["_planted"]
    assert _unused_imports("import os.path\n") == ["os"]
    assert _unused_imports("import os.path\nos.sep\n") == []
    assert _unused_imports("from math import pi\n__all__ = ['pi']\n") == []
