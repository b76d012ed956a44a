"""`scalars` is the one module that knows there are two kinds of exact
scalar: no other package module names `MultiPoly` or calls `.is_constant`,
`.constant_value` or `.leading`.  Elsewhere a scalar is used through the
number protocol both kinds share (`not x`, `x / y`) and through `scalars`'
helpers.  This module imports nothing from the package, so it runs even when
the package cannot be imported."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "m3decomp"

KIND_METHODS = {"is_constant", "constant_value", "leading"}


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


def test_only_scalars_asks_for_the_kind_of_a_scalar():
    sources = sorted(path for path in SRC.rglob("*.py") if path.name != "scalars.py")
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sources
        for line, what in _kind_checks(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], "scalar kinds outside scalars.py: " + ", ".join(found)
