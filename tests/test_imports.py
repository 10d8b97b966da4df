"""Import structure of the package: every import sits at module level and
is used, and the public names are exactly what ``__init__.py`` imports.

A function-level import is how a circular import gets dodged; keeping them
out means the module graph stays acyclic and visible at the top of each file.
An import nothing references is left over from deleted code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fairkmeans

SRC = Path(__file__).resolve().parents[1] / "src" / "fairkmeans"
MODULES = sorted(SRC.glob("*.py"))
SUBMODULES = [m for m in MODULES if m.name != "__init__.py"]


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


@pytest.mark.parametrize("module", SUBMODULES, ids=[m.name for m in SUBMODULES])
def test_module_imports_are_used(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in bound.items() if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_all_matches_package_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    assert sorted(fairkmeans.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    for name in fairkmeans.__all__:
        assert getattr(fairkmeans, name) is not None


ROOT = SRC.parents[1]
SOURCES = sorted(p for top in ("src", "tests", "bench", "demos") for p in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
