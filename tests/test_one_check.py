"""Every input check of the package sits in ``dataset.py``, and the check
of the promise in ``solution.check_guarantee``.

Eight decisions are made once in ``dataset.py`` and called from every
public entry: what a set of positions is (``check_positions``), what a
center set is (``center_positions``, with ``point_ids`` for an id list),
what a count is (``_check_integer``), whether radii match the points
(``check_radii``), what a radius is (``check_radius_values``), how outside
values become floats (``as_floats``: a fresh array, complex values and
text rejected), whether squared distances overflow
(``check_distance_overflow``) and whether a total cost overflows
(``check_cost_scale``).  Those two and the ``Dataset`` constructor's
underflow test are the package's only float-range errors: every ``raise``
whose message names float64 sits in ``dataset.py``.
A second copy elsewhere would drift from the first, as copies did before:
one accepted float ids, another read only the first d columns of wider
centers.  The forms below are how such a copy is written: an integer test
(``operator.index``, ``np.issubdtype``), a range test on a count (a chained
comparison such as ``1 <= k <= n``), a length compared with a dataset's
size (``len(delta) != ds.n``), anything compared with its column count
(``centers.shape[1] != ds.d``), or a conversion to float64
(``np.asarray(x, dtype=np.float64)``, ``x.astype(float)``).  Policies that read the size, such as the
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
    "check_radii",
    "check_radius_values",
    "as_floats",
    "check_distance_overflow",
    "check_cost_scale",
}
INTEGER_TESTS = {"index", "issubdtype"}
CONVERSIONS = {"array", "asarray", "asanyarray", "ascontiguousarray", "asfortranarray", "astype"}
FLOAT_TYPES = {"float", "float64", "double", "float_", "f8", "d"}


def is_float_type(node: ast.AST) -> bool:
    return (
        (isinstance(node, ast.Name) and node.id in FLOAT_TYPES)
        or (isinstance(node, ast.Attribute) and node.attr in FLOAT_TYPES)
        or (isinstance(node, ast.Constant) and node.value in FLOAT_TYPES)
    )


def is_float_conversion(node: ast.AST) -> bool:
    """A call such as ``np.asarray(x, dtype=np.float64)`` or
    ``x.astype(float)``: an array conversion given a float dtype."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name not in CONVERSIONS:
        return False
    dtypes = node.args if name == "astype" else node.args[1:]
    dtypes = [*dtypes, *(k.value for k in node.keywords if k.arg == "dtype")]
    return any(is_float_type(t) for t in dtypes)


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
        if is_float_conversion(node):
            found.append(f"float64 conversion (line {node.lineno})")
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
        "np.asarray(x, dtype=np.float64)\nnp.array(x, np.float64)\nx.astype(float)\n"
        "np.ascontiguousarray(x, dtype='f8')\n"
    )
    assert len(hand_checks(ast.parse(source))) == 11
    # integer conversions, dtype-less copies and allocations are no such check
    others = "np.asarray(ids, dtype=np.int64)\nnp.array(x)\nnp.empty(3, dtype=np.float64)\n"
    assert not hand_checks(ast.parse(others))


def test_each_check_defined_once_in_dataset():
    tree = ast.parse((SRC / "dataset.py").read_text())
    defs = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in CHECKS]
    assert sorted(defs) == sorted(CHECKS)


def float_range_raises(tree: ast.AST) -> list[int]:
    """Lines of the ``raise`` statements whose message names float64."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str) and "float64" in part.value
            for part in ast.walk(node.exc)
        )
    ]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_float_range_errors_raised_only_in_dataset(module):
    lines = float_range_raises(ast.parse(module.read_text(), filename=str(module)))
    assert not lines, f"{module.name} raises a float64 range error on lines {lines}"


def test_float_range_detector_sees_every_form():
    source = (
        'raise ValueError("the weights sum to inf (float64 overflow)")\n'
        'raise ValueError(f"spread {s:.3g} underflows float64; " "rescale")\n'
        "raise ValueError(\n    'total cost '\n    'overflows float64'\n)\n"
        'raise ValueError("center set is empty")\nraise\nx = "float64"\n'
    )
    assert float_range_raises(ast.parse(source)) == [1, 2, 3]
    assert len(float_range_raises(ast.parse((SRC / "dataset.py").read_text()))) >= 3


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
