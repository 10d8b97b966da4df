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


def test_search_takes_only_the_filter_from_dist():
    # lift_points decides where the filter applies, and the filtered
    # functions fall back to the kernel themselves, so the search never
    # chooses between a filtered and a plain pass
    tree = ast.parse((SRC / "local_search.py").read_text())
    names = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "_dist"
        for a in node.names
    }
    assert names == {"lift_points", "sq_dists_below", "two_nearest_sq_dists"}
