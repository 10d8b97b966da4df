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
