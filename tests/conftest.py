"""Puts the package source first on PYTHONPATH, so that the tests that run
the command line or `python -O` in a subprocess import the package from a
checkout without an install, as the tests themselves do through pytest's
`pythonpath` setting."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
