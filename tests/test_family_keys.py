"""`maps` is the one home of the group families: no other package module
names a family key as a string literal, and each reads which family and
twist preserve a complement from `maps.PRESERVING` and each family's data
from `maps.FAMILIES`.  This module imports nothing from the package, so it
runs even when the package cannot be imported."""

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
