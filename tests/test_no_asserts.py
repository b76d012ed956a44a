"""Soundness checks in the package are typed errors (errors.py), never bare
assert statements: python -O strips asserts, and a check written as one would
vanish.  This module imports nothing from the package, so it runs even when
the package cannot be imported."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "m3decomp"


def test_package_has_no_assert_statements():
    sources = sorted(SRC.rglob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "assert statements vanish under python -O: " + ", ".join(found)
