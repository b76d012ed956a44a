"""Exhaustive solution sets of polynomial systems over small prime fields.

The solver enumerates by a staged join rather than materializing the full
assignment cube: variables are introduced equation by equation (greedily
picking the equation needing the fewest new variables), and the partial
assignment frontier is filtered by every equation as soon as all of its
variables are present.  For the closure systems used here the frontier stays
close to the final solution count, which makes 19-cell patterns enumerable
in seconds.  A hard frontier budget guards against pathological systems.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, NotSupported
from .gfq import GFq

DEFAULT_BUDGET = 4_000_000


def compile_poly(poly, names, p):
    """Lower a polynomial to [(coeff mod p, ((var index, exponent), ...))]."""
    name_pos = {n: i for i, n in enumerate(names)}
    ring_names = poly.ring.names
    out = []
    for exps, coeff in sorted(poly.terms.items()):
        c = coeff.numerator * pow(coeff.denominator, p - 2, p) % p
        if c == 0:
            continue
        pairs = tuple(
            (name_pos[ring_names[i]], e) for i, e in enumerate(exps) if e
        )
        out.append((c, pairs))
    return out


def solve_system_fp(polys, names, p, budget=DEFAULT_BUDGET):
    """All assignments over F_p^names killing every polynomial, sorted
    lexicographically; returns an (N, len(names)) int8 array."""
    gf = GFq(p)
    if p > np.iinfo(np.int8).max:
        raise NotSupported(f"cell values are int8, which holds F_p for p up to 127, not {p}")
    names = tuple(names)
    compiled = []
    for poly in polys:
        cp = compile_poly(poly, names, p)
        if not cp:
            continue
        if all(not pairs for _, pairs in cp):
            value = sum(c for c, _ in cp) % p
            if value:
                return np.zeros((0, len(names)), dtype=np.int8)
            continue
        compiled.append(cp)
    # deterministic greedy order: fewest new variables, then fewest terms
    remaining = list(range(len(compiled)))
    eq_vars = [frozenset(v for _, pairs in compiled[k] for v, _ in pairs)
               for k in range(len(compiled))]

    frontier = np.zeros((1, 0), dtype=np.int8)
    intro = []       # variable indices in introduction order
    intro_set = set()

    def filter_covered():
        nonlocal frontier
        changed = True
        while changed:
            changed = False
            for k in list(remaining):
                if eq_vars[k] <= intro_set:
                    remaining.remove(k)
                    if frontier.shape[0] == 0:
                        continue
                    columns = {v: frontier[:, intro.index(v)].astype(np.int64)
                               for v in eq_vars[k]}
                    vals = gf.eval_compiled(compiled[k], columns, frontier.shape[0])
                    frontier = frontier[vals == 0]
                    changed = True

    def introduce(var):
        nonlocal frontier
        n = frontier.shape[0]
        if n * p > budget:
            raise BudgetExceeded(f"frontier would exceed {budget} rows")
        rep = np.repeat(frontier, p, axis=0)
        col = np.tile(np.arange(p, dtype=np.int8), n)[:, None]
        frontier = np.hstack([rep, col])
        intro.append(var)
        intro_set.add(var)

    filter_covered()
    while remaining:
        best = min(
            remaining,
            key=lambda k: (len(eq_vars[k] - intro_set), len(compiled[k]), k),
        )
        for var in sorted(eq_vars[best] - intro_set):
            introduce(var)
        filter_covered()
    for var in range(len(names)):
        if var not in intro_set:
            introduce(var)
    # restore declared column order and sort rows
    perm = [intro.index(v) for v in range(len(names))]
    result = frontier[:, perm]
    if result.shape[0]:
        order = np.lexsort(result.T[::-1])
        result = result[order]
    return np.ascontiguousarray(result, dtype=np.int8)


def solution_set(polys, names, p, budget=DEFAULT_BUDGET):
    """The solution set as a frozenset of int tuples."""
    arr = solve_system_fp(polys, names, p, budget)
    return frozenset(map(tuple, arr.tolist()))
