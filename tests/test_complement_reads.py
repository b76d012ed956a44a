"""The oracle reads a pattern's complement only through its pattern:
`search.py` never names the complement table `COMPLEMENTS` and takes the
complement's generator rows from `PivotPattern.directions`.  This module
imports nothing from the package, so it runs even when the package cannot be
imported."""

import ast
import pathlib

SEARCH = pathlib.Path(__file__).resolve().parent.parent / "src" / "m3decomp" / "search.py"


def test_search_does_not_name_the_complement_table():
    tree = ast.parse(SEARCH.read_text(), filename=str(SEARCH))
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "COMPLEMENTS"
        or isinstance(node, ast.Attribute) and node.attr == "COMPLEMENTS"
        or isinstance(node, ast.alias) and node.name == "COMPLEMENTS"
    ]
    assert found == [], f"search.py names COMPLEMENTS at lines {found}"
