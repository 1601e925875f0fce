"""The mutant table (`mutants/table.py`) stays applicable: every snippet
occurs exactly once in `src/`, in the file its entry names, and every test
it names exists.  The runner (`mutants/run.py`) is not part of this suite:
it copies the checkout once per mutant."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "duhem")

_spec = importlib.util.spec_from_file_location("mutant_table", os.path.join(ROOT, "mutants", "table.py"))
_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_table)
MUTANTS = _table.MUTANTS


def _sources():
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                out[name] = fh.read()
    return out


def test_mutant_names_are_unique():
    names = [m["name"] for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_every_snippet_occurs_exactly_once_in_src(mutant):
    counts = {name: text.count(mutant["snippet"]) for name, text in _sources().items()}
    assert sum(counts.values()) == 1, counts
    assert counts[mutant["file"]] == 1
    assert mutant["replacement"] != mutant["snippet"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_every_named_test_exists(mutant):
    assert mutant["tests"] or mutant.get("equivalent")
    for node in mutant["tests"]:
        path, _, name = node.partition("::")
        with open(os.path.join(ROOT, path)) as fh:
            assert f"def {name.split('[')[0]}(" in fh.read(), node
