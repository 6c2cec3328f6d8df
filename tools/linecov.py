"""List the statements of src/tpqrm that the Tier-1 suite never runs.

    python3 tools/linecov.py                     # the Tier-1 suite
    python3 tools/linecov.py tests/test_cli.py   # any pytest arguments instead

Runs pytest in this process (by default with the ROADMAP's Tier-1
arguments, `-q --continue-on-collection-errors`, from the repo root with
src/ first on sys.path) under sys.settrace, recording line events only in
frames whose code lives in src/tpqrm.  A statement is any ast statement
but a docstring, `global` or `nonlocal`; it ran if a line event fired on
its first line.  After pytest's own report, prints each statement that
never ran as `src/tpqrm/<file>:<line>`, then their count.  Uses only the
standard library.  Code run in a subprocess is not traced.  Exits with
pytest's exit code.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tpqrm"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def statements(path: Path) -> set[int]:
    """First lines of the statements in path, docstrings, global and nonlocal left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docstrings
            and not isinstance(node, (ast.Global, ast.Nonlocal))}


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):  # called on every new frame: trace only the package's
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or TIER1_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = [(path, line) for path in sorted(PACKAGE.glob("*.py"))
              for line in sorted(statements(path)) if (str(path), line) not in ran]
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{len(missed)} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
