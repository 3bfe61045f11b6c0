"""Family knowledge lives in the table of opelab.measures, recurrence
coefficients in each measure's store, and composite panel rules in one
builder, linstat._panel_rule.

Outside measures.py no module may compare a family name to a string
literal or index a measure's params: whatever depends on the family is an
entry of measures.FAMILIES.  Nor may it build RecurrenceCoefficients: every
module takes them from Measure.recurrence, one object per depth.  Outside
linstat.py no module may call a Gauss-Legendre panel primitive or
_panel_rule itself: every rule is built in linstat, around the kernel's
cache.  Outside measures.py no module may call theta_density, acos or
arccos: the theta coordinate is the compact families' Coordinate.
cli.py and sampler.py read no measure's shape (.compact) at all: the
equilibrium law and the matrix model are entries of the table too, and no
module names the Gaussian special case gaussian_n that the matrix model
replaced.
"""

import ast
import re
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


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "measures.py"))
def test_no_recurrence_built_outside_measures(path):
    tree = ast.parse((SRC / path).read_text())
    calls = [f"{path}:{node.lineno}: RecurrenceCoefficients called" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _name(node.func) == "RecurrenceCoefficients"]
    assert calls == []


_PANEL_PRIMITIVES = ("_gl_panels", "leggauss", "_panel_rule")


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "linstat.py"))
def test_no_panel_rule_outside_linstat(path):
    tree = ast.parse((SRC / path).read_text())
    calls = [f"{path}:{node.lineno}: {_name(node.func)} called" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _name(node.func) in _PANEL_PRIMITIVES]
    assert calls == []


_COORDINATE_CALLS = ("theta_density", "acos", "arccos")


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "measures.py"))
def test_no_theta_coordinate_outside_measures(path):
    tree = ast.parse((SRC / path).read_text())
    calls = [f"{path}:{node.lineno}: {_name(node.func)} called" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _name(node.func) in _COORDINATE_CALLS]
    assert calls == []


def _shape_reads(path):
    tree = ast.parse((SRC / path).read_text())
    return [f"{path}:{node.lineno}: .compact read" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "compact"]


def test_sampler_reads_no_shape():
    assert _shape_reads("sampler.py") == []


def test_cli_reads_no_shape():
    assert _shape_reads("cli.py") == []


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_gaussian_special_case(path):
    lines = (SRC / path).read_text().splitlines()
    named = [f"{path}:{i}: gaussian_n named" for i, line in enumerate(lines, 1)
             if re.search(r"\bgaussian_n\b", line)]
    assert named == []
