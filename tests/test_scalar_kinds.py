"""`scalars` is the one module that knows there are two kinds of exact
scalar, and the one that builds, parses or takes one apart: no other package
module names `MultiPoly` or calls `.is_constant`, `.constant_value` or
`.leading`, and none imports `fractions`, names `Fraction` or reads
`.numerator`, `.denominator` or `.terms`.  Elsewhere a scalar is made by
`exact` or a parser, used through the number protocol both kinds share
(`not x`, `x / y`) and taken apart by `scalars`' helpers.  This module imports
nothing from the package, so it runs even when the package cannot be
imported."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "m3decomp"

KIND_METHODS = {"is_constant", "constant_value", "leading"}
REPRESENTATION = {"Fraction", "numerator", "denominator", "terms"}


def _kind_checks(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "MultiPoly":
            yield node.lineno, "MultiPoly"
        elif isinstance(node, ast.Attribute) and node.attr == "MultiPoly":
            yield node.lineno, "MultiPoly"
        elif isinstance(node, ast.ImportFrom) and any(a.name == "MultiPoly" for a in node.names):
            yield node.lineno, "import MultiPoly"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in KIND_METHODS):
            yield node.lineno, f".{node.func.attr}()"


def _representation(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            yield node.lineno, "import fractions"
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            yield node.lineno, "from fractions import"
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            yield node.lineno, "Fraction"
        elif isinstance(node, ast.Attribute) and node.attr in REPRESENTATION:
            yield node.lineno, f".{node.attr}"


def _outside_scalars(check):
    sources = sorted(path for path in SRC.rglob("*.py") if path.name != "scalars.py")
    assert sources, f"no sources under {SRC}"
    return [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sources
        for line, what in check(ast.parse(path.read_text(), filename=str(path)))
    ]


def test_only_scalars_asks_for_the_kind_of_a_scalar():
    found = _outside_scalars(_kind_checks)
    assert found == [], "scalar kinds outside scalars.py: " + ", ".join(found)


def test_only_scalars_builds_or_takes_apart_an_exact_scalar():
    found = _outside_scalars(_representation)
    assert found == [], "scalar representation outside scalars.py: " + ", ".join(found)
