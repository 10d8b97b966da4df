"""Every dot product in the package sits in ``_dist.py``.

``_dist`` holds the one distance kernel and the one filter allowed to use a
dot-product estimate, which may only exclude pairs, never supply a value.
Any other module that calls ``einsum``, ``matmul``, ``dot``, ``inner``,
``vdot`` or ``tensordot``, or uses the ``@`` operator, would be computing
distances (or estimates of them) that round differently from the kernel.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fairkmeans"
MODULES = sorted(m for m in SRC.glob("*.py") if m.name != "_dist.py")
PRODUCTS = {"einsum", "matmul", "dot", "inner", "vdot", "tensordot"}


def products(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"@ (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            found.append(f".{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.Name) and node.id in PRODUCTS:
            found.append(f"{node.id} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found += [f"import {a.name} (line {node.lineno})" for a in node.names if a.name in PRODUCTS]
    return found


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_products_outside_dist(module):
    found = products(ast.parse(module.read_text(), filename=str(module)))
    assert not found, f"dot products outside _dist.py: {found}"


def test_detector_sees_every_form():
    source = (
        "a @ b\na @= b\nnp.einsum('i,i', a, b)\nnp.dot(a, b)\nx.dot(y)\n"
        "np.inner(a, b)\nnp.matmul(a, b)\nfrom numpy import vdot\ntensordot(a, b)\n"
    )
    assert len(products(ast.parse(source))) == 9
    assert products(ast.parse((SRC / "_dist.py").read_text()))


@pytest.mark.parametrize("name", ["matmul", "einsum"])
def test_one_matmul_and_one_einsum(name):
    # the kernel's reduction and the filter's estimate are each written once,
    # so a change to either (and its rounding argument) is made in one place
    found = products(ast.parse((SRC / "_dist.py").read_text()))
    calls = [f for f in found if f.startswith(f".{name} ")]
    assert len(calls) == 1, f"np.{name} in _dist.py: {calls}"


def dist_imports(module: str) -> set[str]:
    tree = ast.parse((SRC / module).read_text())
    return {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "_dist"
        for a in node.names
    }


def test_search_takes_only_the_filter_from_dist():
    # near_sq_dists chooses the candidate pass's finder (the points' lift
    # and box layout are the dataset's) and falls back to every row itself,
    # kept_values reads the kept rows whichever finder kept them, and
    # two_nearest chooses its own filter, so the search never chooses
    # between a filtered and a plain pass
    assert dist_imports("local_search.py") == {"kept_values", "near_sq_dists", "two_nearest"}


@pytest.mark.parametrize("module", ["solution.py", "metrics.py"])
def test_builds_and_scores_take_the_filtered_pass(module):
    # the Solution constructor and the scores read only each row's nearest
    # or two nearest centers, so they go through the filter's cut, never the
    # full (n, k) kernel matrix
    assert not dist_imports(module) & {"sq_dist_matrix", "sq_dist_blocks"}


def test_refinement_keeps_no_distance_matrix():
    # refinement keeps each point's nearest slot and distance, never the
    # (n, k) matrix: it reads rows off in blocks, so it neither builds the
    # full kernel matrix nor reads the nearest two off one
    assert not dist_imports("refine.py") & {"sq_dist_matrix", "_nearest_two"}


def test_one_nearest_two_read_off():
    # each row's two nearest centers are read off the filter's cut in one
    # place, _dist._nearest_two (argmin, mask with inf, argmin, restore),
    # so the cut never leaves _dist: no other function masks an argmin's
    # picks, and no constructor takes a distance matrix
    from fairkmeans.solution import Solution

    masking = []
    for module in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = ast.dump(node)
                if "attr='argmin'" in body and inf_stores(node):
                    masking.append(f"{module.name}:{node.name}")
    assert masking == ["_dist.py:_nearest_two"]
    assert not hasattr(Solution, "from_sq_dists")


def inf_stores(node: ast.AST) -> bool:
    """Whether ``node`` stores ``np.inf`` into a subscript."""
    return any(
        isinstance(n, ast.Assign)
        and any(isinstance(t, ast.Subscript) for t in n.targets)
        and isinstance(n.value, ast.Attribute)
        and n.value.attr == "inf"
        for n in ast.walk(node)
    )
