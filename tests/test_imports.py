"""Import structure of the package: every import sits at module level and
is used, the public names are exactly what ``__init__.py`` imports, and
numpy is the only package outside the standard library that it imports.

A function-level import is how a circular import gets dodged; keeping them
out means the module graph stays acyclic and visible at the top of each file.
An import nothing references is left over from deleted code.
"""

from __future__ import annotations

import ast
import sys
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


PUBLIC = {
    "Dataset",
    "ExperimentConfig",
    "ExperimentReport",
    "FlConfig",
    "InfeasibleInstanceError",
    "LsConfig",
    "RadiusBounds",
    "RunTrace",
    "Solution",
    "aspect_ratio",
    "assign",
    "bound_ratio",
    "brute_force_opt",
    "compute_radii",
    "cost",
    "d2_sample",
    "flloyd_run",
    "greedy_baseline",
    "init_solution",
    "kmeanspp_init",
    "load_points",
    "ls_step",
    "normalize",
    "run",
    "run_experiment",
    "seed",
    "subsample",
    "swap_costs",
    "vanilla_kmeans",
}


def test_public_names_pinned():
    # a name added to or dropped from the package's surface shows up here
    assert sorted(fairkmeans.__all__) == sorted(PUBLIC)


def package_reads(tree: ast.AST) -> set[tuple[str, ...]]:
    """Every ``fk.<name>`` and ``fk.dataset.<name>`` that ``tree`` reads,
    as attribute paths below the package."""

    def is_fk(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == "fk"

    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if is_fk(base):
            reads.add((node.attr,))
        elif isinstance(base, ast.Attribute) and base.attr == "dataset" and is_fk(base.value):
            reads.add(("dataset", node.attr))
    return reads


def test_bench_calls_resolve():
    # bench/run.py drives the package through these names; narrowing the
    # surface under it fails here, not only in the slow bench tests
    bench = SRC.parents[1] / "bench" / "run.py"
    reads = package_reads(ast.parse(bench.read_text(), filename=str(bench)))
    assert ("seed",) in reads and ("dataset", "EXACT_RADII_RECOMMENDED_MAX") in reads
    missing = []
    for path in sorted(reads):
        obj = fairkmeans
        for part in path:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(".".join(path))
    assert not missing, f"bench/run.py reads names the package lacks: {missing}"


def test_package_reads_detector():
    source = "fk.seed(ds)\nfk.dataset.LIMIT\nx.seed\nfk.dataset\nother.dataset.y\n"
    assert package_reads(ast.parse(source)) == {("seed",), ("dataset",), ("dataset", "LIMIT")}


def outside_imports(tree: ast.AST) -> list[str]:
    """Top-level names of the imports in ``tree`` that are neither numpy,
    ``__future__``, relative, nor in the standard library: the test extra
    (scipy, hypothesis) is installed where the tests run, so such an
    import would pass them and fail for a user with numpy alone."""
    allowed = {"numpy", "__future__", *sys.stdlib_module_names}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return [name for name in names if name not in allowed]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_imports_only_numpy_and_stdlib(module):
    # pyproject.toml declares numpy as the one runtime dependency
    found = outside_imports(ast.parse(module.read_text(), filename=str(module)))
    assert not found, f"{module.name} imports {found}"


def test_outside_import_detector():
    source = (
        "import scipy.spatial\nfrom sklearn.cluster import KMeans\nimport numpy as np\n"
        "import numpy.linalg\nfrom numpy import ndarray\nfrom __future__ import annotations\n"
        "from . import dataset\nfrom .solution import Solution\nimport os.path, math\n"
        "from collections import abc\ndef f():\n    import pandas\n"
    )
    assert outside_imports(ast.parse(source)) == ["scipy", "sklearn", "pandas"]


ROOT = SRC.parents[1]
SOURCES = sorted(p for top in ("src", "tests", "bench", "demos") for p in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
