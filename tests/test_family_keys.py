"""`maps` is the one home of the group families: no other package module
names a family key as a string literal, and each reads which family and
twist preserve a complement from `maps.PRESERVING` (`search` in `_pdata`
alone) and each family's data from `maps.FAMILIES`.  This module imports
nothing from the package, so it runs even when the package cannot be
imported."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "m3decomp"

FAMILY_KEYS = {"phi_full", "psi", "phi_bg0", "phi_lm0_theta23"}


def test_only_maps_names_the_family_keys():
    sources = sorted(path for path in SRC.rglob("*.py") if path.name != "maps.py")
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}: {node.value!r}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in FAMILY_KEYS
    ]
    assert found == [], "family keys outside maps.py: " + ", ".join(found)


def _reads_preserving(node):
    return [
        n.lineno for n in ast.walk(node)
        if (isinstance(n, ast.Name) and n.id == "PRESERVING")
        or (isinstance(n, ast.Attribute) and n.attr == "PRESERVING")
    ]


def test_search_reads_preserving_only_in_pdata():
    # one record per sweep: `search._pdata` looks a pattern's family and
    # twist up, and every other function of the oracle reads that record
    path = SRC / "search.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    inside, outside = [], []
    for node in tree.body:
        is_pdata = isinstance(node, ast.FunctionDef) and node.name == "_pdata"
        (inside if is_pdata else outside).extend(_reads_preserving(node))
    assert inside, "search._pdata no longer reads PRESERVING"
    assert outside == [], f"search.py reads PRESERVING outside _pdata at lines {outside}"
