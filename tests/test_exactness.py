"""The package computes in exact arithmetic: no source file of it holds a
float literal, names float, or uses anything of the math module but its
integer functions."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mackey").glob("*.py"))
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm"}


def inexact_uses(source: str) -> list[str]:
    """Every float literal, use of the name float and non-integer use of
    math in the source, with its line."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: float")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: math.{alias.name}" for alias in node.names
                      if alias.name not in INTEGER_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr not in INTEGER_MATH):
            found.append(f"line {node.lineno}: math.{node.attr}")
    return found


def test_no_float_and_only_integer_math_in_the_package():
    assert SOURCES
    for path in SOURCES:
        assert not inexact_uses(path.read_text()), path.name


def test_the_guard_sees_each_kind_of_inexact_use():
    source = "\n".join([
        "from math import comb, sqrt",
        "import math as m",
        "x = 0.5",
        "y = float(3)",
        "z = m.pi + m.gcd(4, 6)",
        "w = comb(4, 2) + 2j",
    ])
    assert sorted(inexact_uses(source)) == [
        "line 1: math.sqrt", "line 3: literal 0.5", "line 4: float", "line 5: math.pi",
        "line 6: literal 2j"]
