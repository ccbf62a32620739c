"""The package computes with exact integers and fractions only.

An ast scan of src/wpsdeg/*.py: no true division (`/` or `/=`), no float or
complex literal, no use of the name `float`, and from the math module only its
exact integer functions, whether reached as an attribute of the module or
imported by name.  Floor division, `%` and the builtin three-argument `pow`
stay exact and are allowed.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wpsdeg").glob("*.py"))

# math functions that take and return integers exactly; every other name of
# the module is a float function or a float constant.
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def inexact_uses(source: str) -> list[str]:
    """Each use in source that could leave exact arithmetic, as 'line: what'."""
    tree = ast.parse(source)
    math_names = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.Import) for alias in node.names
                  if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in EXACT_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{alias.name}") for alias in node.names
                      if alias.name not in EXACT_MATH]
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_stays_exact(path):
    assert inexact_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,uses", [
    ("x = a / b", ["1: true division"]),
    ("x /= 2", ["1: true division"]),
    ("x = 0.5", ["1: literal 0.5"]),
    ("x = 2j", ["1: literal 2j"]),
    ("x = float(a)", ["1: float"]),
    ("import math\nx = math.sqrt(a)", ["2: math.sqrt"]),
    ("import math as m\nx = m.log(a)", ["2: math.log"]),
    ("from math import exp as e", ["1: math.exp"]),
    ("from math import fsum, isqrt, pow", ["1: math.fsum", "1: math.pow"]),
    ("from math import *", ["1: math.*"]),
    # Without an import of math, math.pi is some other object's attribute.
    ("x = math.pi", []),
])
def test_scan_finds_each_inexact_use(source, uses):
    assert inexact_uses(source) == uses


def test_exact_forms_pass():
    assert inexact_uses("import math\nfrom math import gcd, isqrt\n"
                        "x = a // b + a % b + pow(a, b, c) + math.comb(a, b)") == []
