"""Exhaustive solution sets of polynomial systems over small prime fields.

The solver enumerates by a staged join rather than materializing the full
assignment cube.  It first plans a variable order once: it repeatedly takes
the equation needing the fewest new variables (then the fewest terms, then
the lowest index), introduces those variables in index order, and records for
each variable the equations it completes; variables no equation uses come
last.  It then extends the frontier of partial assignments by each planned
variable, _FRONTIER_CHUNK rows at a time, and filters every expanded chunk by
the equations that variable completes before keeping its survivors.  For the
closure systems used here the frontier stays close to the final solution
count.  A hard budget bounds the rows held at once, the kept rows plus one
expanded chunk, against pathological systems.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, NotSupported
from .gfq import GFq
from .scalars import compile_poly

DEFAULT_BUDGET = 4_000_000
_FRONTIER_CHUNK = 65_536


def _plan(compiled, n_vars):
    """[(variable, [(equation, its variables) it completes])] in
    introduction order, every variable once."""
    eq_vars = [frozenset(v for _, pairs in cp for v, _ in pairs) for cp in compiled]
    remaining = set(range(len(compiled)))
    present = set()
    plan = []
    while remaining:
        best = min((len(eq_vars[k] - present), len(compiled[k]), k) for k in remaining)[2]
        for var in sorted(eq_vars[best] - present):
            present.add(var)
            done = sorted(k for k in remaining if eq_vars[k] <= present)
            remaining.difference_update(done)
            plan.append((var, [(compiled[k], eq_vars[k]) for k in done]))
    return plan + [(v, []) for v in range(n_vars) if v not in present]


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
    plan = _plan(compiled, len(names))
    pos = {var: i for i, (var, _) in enumerate(plan)}
    values = np.arange(p, dtype=np.int8)
    frontier = np.zeros((1, 0), dtype=np.int8)
    for var, equations in plan:
        kept, held = [], 0
        for start in range(0, frontier.shape[0], _FRONTIER_CHUNK):
            part = frontier[start:start + _FRONTIER_CHUNK]
            if held + part.shape[0] * p > budget:
                raise BudgetExceeded(f"frontier would exceed {budget} rows")
            rows = np.hstack([np.repeat(part, p, axis=0),
                              np.tile(values, part.shape[0])[:, None]])
            for cp, used in equations:
                columns = {v: rows[:, pos[v]].astype(np.int64) for v in used}
                rows = rows[gf.eval_compiled(cp, columns, rows.shape[0]) == 0]
            kept.append(rows)
            held += rows.shape[0]
        if not held:
            return np.zeros((0, len(names)), dtype=np.int8)
        frontier = np.concatenate(kept)
    if not names:
        return frontier   # the one empty assignment
    # restore declared column order and sort rows
    result = frontier[:, [pos[v] for v in range(len(names))]]
    return result[np.lexsort(result.T[::-1])]


def solution_set(polys, names, p):
    """The solution set as a frozenset of int tuples."""
    arr = solve_system_fp(polys, names, p)
    return frozenset(map(tuple, arr.tolist()))
