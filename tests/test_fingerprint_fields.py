"""`invariants` is the one owner of the fingerprint's sided fields: no
other package module names them, so which fields the transpose trades and
how two fingerprints are told apart is stated once, in
`invariants.SEPARATORS`.  This module imports nothing from the package, so
it runs even when the package cannot be imported."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "m3decomp"

SIDED_FIELDS = {"has_left_unit", "has_right_unit", "rad_in_left_ann", "rad_in_right_ann"}


def _names(node):
    """The identifiers and text constants a node spells."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.keyword):
        return [node.arg]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def test_only_invariants_names_the_sided_fingerprint_fields():
    sources = sorted(path for path in SRC.rglob("*.py") if path.name != "invariants.py")
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}: {name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in _names(node)
        if name in SIDED_FIELDS
    ]
    assert found == [], "sided fingerprint fields outside invariants.py: " + ", ".join(found)
