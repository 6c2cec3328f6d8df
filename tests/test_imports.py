"""Every name a tpqrm module, or the tests' oracle module, imports is used in it.

The one exception is a name that perfbench's tracer wraps as a leaf
(perfbench/tracer.py LEAVES): the module keeps it bound so that the
tracer can replace it.  The package's __init__ imports only to re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tpqrm"
CHECKED = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + [
    ROOT / "tests" / "oracles.py"]


def _tracer_leaves() -> set[tuple[str, str]]:
    """(module, name) of every LEAVES entry, read from the tracer's source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LEAVES"]:
            return {(module, name) for module, name, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py assigns no LEAVES")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    leaves = {name for module, name in _tracer_leaves() if module == path.stem}
    assert set(_unused_imports(ast.parse(path.read_text()))) - leaves == set()


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom numpy import pi, e\nfrom . import ed\nprint(pi, ed.x)\n")
    assert _unused_imports(tree) == ["e", "math"]
