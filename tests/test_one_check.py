"""Every input check of the package sits in ``dataset.py``, and the check
of the promise in ``solution.check_guarantee``.

Five decisions are made once in ``dataset.py`` and called from every
public entry: what a set of positions is (``check_positions``), what a
center set is (``center_positions``, with ``point_ids`` for an id list),
what a count is (``_check_integer``), what an array of ids holds
(``_check_integers``, for anchor sets) and whether radii match the points
(``check_radii``).
A second copy elsewhere would drift from the first, as copies did before:
one accepted float ids, another read only the first d columns of wider
centers.  The forms below are how such a copy is written: an integer test
(``operator.index``, ``np.issubdtype``), a range test on a count (a chained
comparison such as ``1 <= k <= n``), a length compared with a dataset's
size (``len(delta) != ds.n``), or anything compared with its column count
(``centers.shape[1] != ds.d``).  Policies that read the size, such as the
brute-force guard or the choice of exact radii, are not checks of this kind.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fairkmeans"
MODULES = sorted(m for m in SRC.glob("*.py") if m.name != "dataset.py")
CHECKS = {
    "check_positions",
    "point_ids",
    "center_positions",
    "_check_integer",
    "_check_integers",
    "check_radii",
}
INTEGER_TESTS = {"index", "issubdtype"}


def is_attr(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == name


def is_len(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"


def hand_checks(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if len(sides) > 2:
                found.append(f"chained comparison (line {node.lineno})")
            if any(is_attr(s, "d") for s in sides):
                found.append(f"column count comparison (line {node.lineno})")
            if any(is_len(s) for s in sides) and any(is_attr(s, "n") for s in sides):
                found.append(f"length comparison (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in INTEGER_TESTS:
            found.append(f".{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names if a.name in INTEGER_TESTS]
            found += [f"import {name} (line {node.lineno})" for name in names]
        elif isinstance(node, ast.FunctionDef) and node.name in CHECKS:
            found.append(f"def {node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_no_checks_outside_dataset(module):
    found = hand_checks(ast.parse(module.read_text(), filename=str(module)))
    assert not found, f"input checks outside dataset.py: {found}"


def test_detector_sees_every_form():
    source = (
        "1 <= k <= n\nlen(delta) != ds.n\ncenters.shape[1] != ds.d\noperator.index(k)\n"
        "np.issubdtype(a.dtype, np.integer)\nfrom operator import index\n"
        "def check_radii(ds, delta): pass\n"
    )
    assert len(hand_checks(ast.parse(source))) == 7


def test_each_check_defined_once_in_dataset():
    tree = ast.parse((SRC / "dataset.py").read_text())
    defs = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in CHECKS]
    assert sorted(defs) == sorted(CHECKS)


def test_radius_slack_read_only_in_check_guarantee():
    # the 2*gamma bound is checked in one function, so its float headroom
    # is read nowhere else
    reads = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    owner.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "RADIUS_SLACK":
                if isinstance(node.ctx, ast.Load):
                    reads.append((module.name, owner.get(node)))
            elif isinstance(node, ast.ImportFrom):
                if any(a.name == "RADIUS_SLACK" for a in node.names):
                    reads.append((module.name, "import"))
    assert reads == [("solution.py", "check_guarantee")]
