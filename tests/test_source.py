"""Family knowledge lives in the table of opelab.measures.

Outside measures.py no module may compare a family name to a string
literal or index a measure's params: whatever depends on the family is an
entry of measures.FAMILIES.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opelab"


def _name(node) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_string(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_string(elt) for elt in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _breaches(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any("fam" in _name(op) for op in operands) and any(map(_is_string, operands)):
                yield node.lineno, "family compared to a string"
        elif isinstance(node, ast.Subscript) and _name(node.value) == "params":
            yield node.lineno, "params[...] indexed"


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "measures.py"))
def test_no_family_dispatch_outside_measures(path):
    tree = ast.parse((SRC / path).read_text())
    assert [f"{path}:{line}: {what}" for line, what in _breaches(tree)] == []
