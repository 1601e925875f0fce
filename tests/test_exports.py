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


def _doubled(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(isinstance(n, ast.Constant) and n.value == 2 for n in (node.left, node.right))
    )


def _rk4_weight_sites(source: str) -> list[str]:
    """Names of the functions (one entry per occurrence) holding the RK4
    weight expression a + 2.0 * b + 2.0 * c + d."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Add)
            and _doubled(node.left.right)
            and isinstance(node.left.left, ast.BinOp)
            and isinstance(node.left.left.op, ast.Add)
            and _doubled(node.left.left.right)
        ):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_rk4_weights_live_in_the_two_rk4_steps():
    # The branch ODE has one RK4 step, integrate.rk4_step; the friction
    # system's step, mechsim._rk4_mech, writes out its three components.
    sites = {
        path.stem: _rk4_weight_sites(path.read_text(encoding="utf-8")) for path in SOURCES
    }
    found = {stem: where for stem, where in sites.items() if where}
    assert found == {"integrate": ["rk4_step"], "mechsim": ["_rk4_mech"] * 3}


def test_rk4_weight_check_sees_a_planted_copy():
    source = (SOURCES[0].parent / "storage.py").read_text(encoding="utf-8")
    planted = "\n\ndef _march(y, s, k1, k2, k3, k4):\n    return y + s * (k1 + 2.0 * k2 + 2.0 * k3 + k4)\n"
    assert _rk4_weight_sites(source) == []
    assert _rk4_weight_sites(source + planted) == ["_march"]
    assert _rk4_weight_sites("w = a + 2 * b + c * 2.0 + d\n") == ["<module>"]
    assert _rk4_weight_sites("w = a + 2.0 * b + c + d\n") == []


# the report builders of `duhem verify`, which `dissipativity.verify_model` calls
REPORT_BUILDERS = {
    "check_existence_conditions",
    "check_assumption_A",
    "check_lemma1",
    "verify_dissipation_battery",
    "loop_orientation_report",
    "cycle_stabilization",
}


def _report_builders_named(source: str) -> set[str]:
    """The report builders a module imports or names (as a name or as an
    attribute, such as dissipativity.check_lemma1)."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            named.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named & REPORT_BUILDERS


def test_the_cli_builds_no_report_of_verify_itself():
    # cmd_verify hands its geometry, battery and loop input to verify_model
    cli = SOURCES[0].parent / "cli.py"
    assert _report_builders_named(cli.read_text(encoding="utf-8")) == set()


def test_report_builder_check_sees_a_planted_use():
    assert _report_builders_named("from .curves import check_lemma1 as lemma\n") == {"check_lemma1"}
    assert _report_builders_named("r = dissipativity.cycle_stabilization(t, a)\n") == {
        "cycle_stabilization"
    }
    assert _report_builders_named("reports.append(check_assumption_A(m, region))\n") == {
        "check_assumption_A"
    }
    assert _report_builders_named("from .dissipativity import verify_model\n") == set()
