"""No floating point in the package: no float literal, no float() call and
no math function that returns a float.

An AST stand-in for the fixed constraint that every verdict is exact; it
checks the source, so a float cannot slip in on a path no test runs.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polycert"
MODULES = sorted(SRC.glob("*.py"))

# math functions whose results are exact integers
INTEGER_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod", "trunc"}


def float_uses(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float(...)")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: from math import {a.name}" for a in node.names if a.name not in INTEGER_MATH]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    found = float_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.name} uses floating point: {found}"


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "y = float(q)", "z = math.log10(2)", "from math import sqrt", "w = 1j"],
)
def test_the_guard_sees_each_kind(source):
    assert float_uses(ast.parse(source))
