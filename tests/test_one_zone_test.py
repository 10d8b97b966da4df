"""Zone geometry sits in ``anchors.py``.

Whether a position lies in an anchor zone is one comparison of its distance
to the anchor with the zone radius (``anchors._zones``).  The coverage table,
refinement's pins and its clamped moves all read it; a second copy could
round or compare differently (squared distances against squared radii, say),
and refinement would then pin a zone to a center the coverage table calls
outside it, which ``check_guarantee`` rejects in the middle of a run.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fairkmeans"
MODULES = sorted(m for m in SRC.glob("*.py") if m.name != "anchors.py")


def zone_radius_reads(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "zone_radius"
    ]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_zone_radius_read_only_in_anchors(module):
    lines = zone_radius_reads(ast.parse(module.read_text(), filename=str(module)))
    assert not lines, f"{module.name} reads .zone_radius on lines {lines}"


def test_detector_sees_a_read():
    assert zone_radius_reads(ast.parse("d <= anchor_set.zone_radius[pin == j]\n")) == [1]
    assert zone_radius_reads(ast.parse((SRC / "anchors.py").read_text()))


def test_refine_takes_no_distances():
    # refine measures squared distances for costs only; its moves come
    # clamped from anchors.clamped_moves
    tree = ast.parse((SRC / "refine.py").read_text())
    imported = {
        (node.module, a.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert ("_dist", "dists") not in imported
    assert ("anchors", "clamped_moves") in imported
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "sqrt"]
