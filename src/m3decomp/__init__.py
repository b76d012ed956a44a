"""Exact verification of the unital direct-sum decompositions of the 3x3
matrix algebra: catalog, symbolic verifier, orbit invariants, finite-field
search oracle, and the induced splitting operators."""

# start-up loads every layer in this order: which ones it loads is a performance choice
from . import (catalog, errors, invariants, linalg, maps, matrices,  # noqa: F401
               patterns, rota_baxter, scalars, search, verifier)

__version__ = "0.1.0"
