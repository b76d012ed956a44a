"""`patterns` is the one reader of the printed-system fixtures: every other
module, test and benchmark file reads a fixture through
`patterns.reference_system`, and none names the raw table.  This module
imports nothing from the package, so it runs even when the package cannot
be imported."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
OWNER = ROOT / "src" / "m3decomp" / "patterns.py"
#: the table's name, with and without its leading underscore
NAMES = {"_REFERENCE_SYSTEMS", "REFERENCE_SYSTEMS"}


def _lines_naming_the_table(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id in NAMES
        or isinstance(node, ast.Attribute) and node.attr in NAMES
        or isinstance(node, ast.alias) and node.name in NAMES
        or isinstance(node, ast.Constant) and node.value in NAMES
    ]


def test_only_patterns_names_the_fixture_table():
    sources = sorted(path for folder in ("src", "tests", "bench")
                     for path in (ROOT / folder).rglob("*.py")
                     if path != pathlib.Path(__file__).resolve())
    assert OWNER in sources, f"no {OWNER.name} under {ROOT / 'src'}"
    assert _lines_naming_the_table(OWNER), f"{OWNER.name} no longer holds the table"
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sources if path != OWNER
             for line in _lines_naming_the_table(path)]
    assert found == [], "fixture table named outside patterns.py: " + ", ".join(found)
