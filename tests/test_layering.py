"""The exact layer stands on its own: none of its modules imports numpy or a
module of the finite-field oracle or the command line (`gfq`, `fpsolve`,
`search`, `verifier`, `cli`), at module level or inside a function.  So
the exact checks need no numpy, and loading an exact-layer module loads
only exact-layer modules.  This module imports nothing from the package,
so it runs even when the package cannot be imported."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "m3decomp"

EXACT_LAYER = ("scalars", "errors", "linalg", "matrices", "catalog", "invariants",
               "maps", "patterns", "rota_baxter")

#: the package modules the exact layer must not import
ORACLE_AND_CLI = ("gfq", "fpsolve", "search", "verifier", "cli")


def _imported(node):
    """The dotted names an import statement may load: each module it names
    and, for `from m import a`, each m.a (a submodule or not); a relative
    import names a module of the package, m3decomp."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = ".".join(filter(None, ["m3decomp" if node.level else "", node.module]))
        return [module] + [f"{module}.{alias.name}" for alias in node.names]
    return []


def _forbidden(name):
    parts = name.split(".")
    return parts[0] == "numpy" or parts[:2] in [["m3decomp", m] for m in ORACLE_AND_CLI]


def test_exact_layer_imports_neither_numpy_nor_the_oracle():
    found = []
    for module in EXACT_LAYER:
        path = SRC / f"{module}.py"
        assert path.is_file(), f"exact-layer module {module} not found at {path}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            found.extend(f"{module}.py:{node.lineno}: {name}"
                         for name in _imported(node) if _forbidden(name))
    assert found == [], "exact-layer imports outside the layer: " + ", ".join(found)
