"""Import structure of the package: every import sits at module level.

A function-level import is how a circular import gets dodged; keeping them
out means the module graph stays acyclic and visible at the top of each file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fairkmeans"
MODULES = sorted(SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_function_level_imports(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    nested = [
        f"{fn.name} (line {node.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"imports inside functions: {nested}"
