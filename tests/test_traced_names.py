"""Every function the traced benchmark run wraps still exists in the package,
and the package calls it through its module.

`bench/traced.py` replaces layer functions by name (`wrap(owner, "attr",
...)`) and raises LookupError for a name the package no longer has, which
fails every traced operation.  A `from .module import name` of such a
function binds it where it stands, so a caller that imported it before the
wrapping calls around the span.  This module reads both trees with `ast` and
imports nothing from the package, so it runs even when the package cannot be
imported."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "m3decomp"
TRACED = ROOT / "bench" / "traced.py"


def _defined_names():
    """Dotted names ("module.name", "module.Class.name") that the package's
    modules define or import at module or class level."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        scopes = [(module, ast.parse(path.read_text(), filename=str(path)).body)]
        scopes += [(f"{module}.{node.name}", node.body) for node in scopes[0][1]
                   if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(f"{prefix}.{node.name}")
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(f"{prefix}.{t.id}" for t in targets if isinstance(t, ast.Name))
                elif isinstance(node, ast.ImportFrom):
                    names.update(f"{prefix}.{a.asname or a.name}" for a in node.names)
    return names


def _owner(expr, aliases):
    """The dotted path below the namespace of package modules (m.search ->
    "search"), through local aliases such as `rb = m.rota_baxter`."""
    if isinstance(expr, ast.Name) and expr.id in aliases:
        expr = aliases[expr.id]
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.insert(0, expr.attr)
        expr = expr.value
    return ".".join(parts) if isinstance(expr, ast.Name) and expr.id == "m" else None


def _wrapped_names():
    tree = ast.parse(TRACED.read_text(), filename=str(TRACED))
    aliases = {
        node.targets[0].id: node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    }
    wrapped = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if isinstance(node, ast.Call) and name == "wrap":
            owner, attr = node.args[:2]
            wrapped.append((node.lineno, _owner(owner, aliases), attr.value))
    return wrapped


def test_traced_run_wraps_only_defined_names():
    wrapped = _wrapped_names()
    assert len(wrapped) > 10, wrapped
    defined = _defined_names()
    missing = [f"traced.py:{line}: {owner}.{attr}" for line, owner, attr in wrapped
               if owner is None or f"{owner}.{attr}" not in defined]
    assert missing == [], "wrapped names the package does not define: " + ", ".join(missing)


def _imported_names():
    """(file:line, "module.name") of every `from .module import name` in the
    package, at any depth."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [(f"{path.name}:{node.lineno}", f"{node.module}.{a.name}")
                          for a in node.names]
    return found


def test_package_calls_wrapped_functions_through_their_modules():
    # a wrapped method lives on its class, which every import shares, so
    # only functions of a module count
    wrapped = {f"{owner}.{attr}" for _, owner, attr in _wrapped_names()
               if owner is not None and "." not in owner}
    assert "verifier.verify_entry" in wrapped, wrapped
    bound = [f"{where}: {name}" for where, name in _imported_names() if name in wrapped]
    assert bound == [], "wrapped functions imported by name: " + ", ".join(bound)
