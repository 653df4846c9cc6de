"""The engine and the simulator read a cell by its column's kind in the
catalog (schema.TableSchema.kinds), never by its shape: neither module calls
crdt.is_lww, tests a value against a counter class with isinstance, or tests
type(...) is tuple. Only crdt.merge and crdt.canon, which judge a bare state,
tell kinds apart by shape. Nor does either read a column's schema.Modifier:
they read kinds and the writes a statement is parsed into."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "aqldb")
COUNTERS = {"AdditiveCounter", "BoundedCounter"}


def shape_tests(source: str) -> list[str]:
    """Each shape test in source, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name == "is_lww":
                found.append(f"{node.lineno}: is_lww call")
            elif name == "isinstance" and len(node.args) == 2:
                classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                for cls in classes:
                    if (cls.attr if isinstance(cls, ast.Attribute) else getattr(cls, "id", None)) in COUNTERS:
                        found.append(f"{node.lineno}: isinstance against a counter class")
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                typed = [
                    side for side in (left, right)
                    if isinstance(side, ast.Call) and getattr(side.func, "id", None) == "type"
                ]
                named = any(getattr(side, "id", None) == "tuple" for side in (left, right))
                if typed and named and isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)):
                    found.append(f"{node.lineno}: type(...) tuple test")
        elif isinstance(node, ast.alias) and node.name == "is_lww":
            found.append(f"{node.lineno}: is_lww import")
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name == "Modifier" or isinstance(node, ast.alias) and node.name == "Modifier":
            found.append(f"{node.lineno}: Modifier reference")
    return found


@pytest.mark.parametrize("module", ["engine.py", "sim.py"])
def test_module_reads_cells_by_kind(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert shape_tests(fh.read()) == []


def test_the_guard_sees_each_shape_test():
    source = """
from .crdt import is_lww
a = is_lww(cell)
b = crdt.is_lww(cell)
c = isinstance(cell, BoundedCounter)
d = isinstance(cell, (int, crdt.AdditiveCounter))
e = type(cell) is tuple
f = type(cell) is not tuple
g = tuple == type(cell)
from .schema import Kind, Modifier
i = col.modifier is sch.Modifier.ADDITIVE
j = Modifier.LWW
ok = isinstance(statement, str) or type(value) is int or col.modifier is not None
"""
    assert sorted(int(line.split(": ")[0]) for line in shape_tests(source)) == list(range(2, 13))
