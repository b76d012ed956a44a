"""Independent finite-field oracle: exhaustive complement enumeration, orbit
partitioning under the complement-preserving maps, and catalog matching.

The enumeration is the solution set of a pattern's closure system over F_p
(direct sums are automatic for pattern instances, since the pivot parts
complete any basis of the complement).  Every automorphism of M3 is inner:
a group family is held as its 3x3 conjugators T (X -> T^-1 X T), a twist as a
permutation matrix P (X -> P X^T P).  Each conjugator comes with its
adjugate, and the sweeps apply X -> adj(T) X T = det(T) T^-1 X T: a nonzero
scalar on a whole image cancels in the pattern-normal form and leaves every
row-space test unchanged, so no group is ever inverted.  Each family is the
full stabilizer of its complement (`family_is_full_stabilizer`), so the
family together with its twist coset is a group, and the orbit of a
solution is the set of its images under all of those maps that land back in
the pattern slice.  Orbits are therefore swept one at a time: every map is
applied to one unlabelled solution, and each in-slice image joins its
orbit.  Soundness (every constraint-satisfying catalog specialization
appears and is matched) is checked with typed errors; completeness failures
are data, reported verbatim and, where claimed, explained by re-running the
sweep over the quadratic extension GF(p^2), which is exactly what a
square-root obstruction must resolve.  Both sweeps are the same code over a
field object (`gfq.GFq`): F_p is its degree-1 case, GF(p^2) its degree-2
case.  The family and twist of each complement (`maps.PRESERVING`) and each
family's conjugators and coset (`maps.FAMILIES`) are read off the tables
from which the exact layer builds the same maps.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from collections import Counter

import numpy as np

from .catalog import COMPLEMENTS, builtin_catalog, entry_by_id
from .errors import BudgetExceeded, GroupMismatch, PatternMismatch
from .fpsolve import solve_system_fp
from .gfq import GFq
from .maps import FAMILIES, PRESERVING
from .patterns import get_pattern
from .scalars import check_prime, compile_poly

@functools.lru_cache(maxsize=None)
def _gf(p, degree=1):
    """The field the oracle works over: F_p, or GF(p^2) for the
    explanation sweep; p must be a prime no larger than scalars.MAX_PRIME."""
    check_prime(p)
    return GFq(p, degree)


# ---------------------------------------------------------------------------
# pattern data in numpy form
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _pdata(pattern_name):
    """A pattern's integer data as numpy arrays: base (k, 9), functionals
    (k, 9), dirs (C, k, 9) with each cell's direction in its generator's
    row, and reads, the generator and coordinate indices of the cells."""
    pat = get_pattern(pattern_name)
    dirs = np.zeros((len(pat.params), pat.gen_count, 9), dtype=np.int64)
    for ci, (gi, vec) in enumerate(pat.dirs):
        dirs[ci, gi] = vec
    return types.SimpleNamespace(
        base=np.array(pat.base, dtype=np.int64),
        functionals=np.array(pat.functionals, dtype=np.int64),
        dirs=dirs,
        reads=tuple(np.array(pat.reads, dtype=np.int64).reshape(-1, 2).T),
    )


def rows_from_cells(cells, pdata, p):
    """(N, C) cell values -> (N, k, 9) generator coordinate rows mod p."""
    rows = np.tensordot(cells.astype(np.int64), pdata.dirs, axes=(1, 0))
    return (rows + pdata.base) % p


def normalize_rows(rows, pdata, gf):
    """Pattern-normal form of batched generator rows, (N, k, 9) elements of
    the field gf.

    Returns (cells, ok): ok marks rows whose normal form lies in the pattern
    slice (reconstruction matches exactly, identity row included).
    """
    p = gf.p
    coeff = np.einsum("njt...,at->nja...", rows, pdata.functionals) % p
    resid = gf.sub(gf.matmul(gf.inv_mat(coeff), rows), gf.lift(pdata.base))
    cells = resid[:, pdata.reads[0], pdata.reads[1]]
    recon = np.einsum("nc...,cjt->njt...", cells, pdata.dirs) % p
    ok = gf.is_zero(gf.sub(recon, resid)).all(axis=(1, 2))
    return cells, ok


def _row_keys(cells):
    """Rows of cells, (N, ...) with entries in int8, as fixed-width bytes (a
    numpy void view); for entries 0..p-1 byte order is lexicographic order."""
    cells = np.ascontiguousarray(cells, dtype=np.int8)
    width = math.prod(cells.shape[1:])
    return cells.reshape(len(cells), width).view(np.dtype((np.void, width)))[:, 0]


def _row_index(table):
    """find(rows): the first index in table of each row, -1 where table lacks
    it.  Rows are cells, (N, C) over F_p or (N, C, 2) over GF(p^2), found by
    binary search on their keys; the solver's sorted solutions need no
    reordering, and any other order works too."""
    table = _row_keys(table)
    order = np.argsort(table, kind="stable")

    def find(rows):
        rows = _row_keys(rows)
        if not len(table):
            return np.full(len(rows), -1)
        at = order[np.searchsorted(table, rows, sorter=order).clip(max=len(table) - 1)]
        return np.where(table[at] == rows, at, -1)

    return find


# ---------------------------------------------------------------------------
# group families over F_p and GF(p^2), held as conjugators
# ---------------------------------------------------------------------------

def _grid(shape, start=0, stop=None):
    """Rows start..stop of the index tuples of an array of this shape in C
    order (the last index varies fastest), as an (N, len(shape)) array."""
    size = math.prod(shape)
    flat = np.arange(start, size if stop is None else min(stop, size))
    if not shape:
        return np.zeros((flat.size, 0), dtype=np.int64)
    return np.stack(np.unravel_index(flat, shape), axis=-1)


def _family_conjugators(family, gf, chunk=None):
    """The invertible conjugators T of a family over the field gf, in
    parameter-grid order, chunk grid rows at a time (all at once when chunk
    is None): yields (T, adj T), two (N, 3, 3) batches, for each chunk that
    keeps a conjugator.  A family with a coset P T (theta(2, 3) for
    phi_lm0_theta23) follows each chunk with its coset.  The adjugates come
    from the cofactor pass that drops the singular T; the sweeps use them in
    place of the inverses (see `_conjugated`)."""
    params, units, coset = FAMILIES[family]
    coset = twist_matrix(coset)
    skip = [int(n in units) for n, _ in params]   # a unit skips elements()[0] = 0
    shape = tuple(gf.q - s for s in skip)
    size = math.prod(shape)
    chunk = chunk or size
    elements = gf.elements()
    for start in range(0, size, chunk):
        grid = _grid(shape, start, start + chunk) + skip
        t = np.zeros((grid.shape[0], 9) + elements.shape[1:], dtype=np.int64)
        t[:, 0] = gf.lift(1)
        t[:, [pos for _, pos in params]] = elements[grid]
        t = t.reshape((-1, 3, 3) + elements.shape[1:])
        if coset is not None:
            t = np.concatenate([t, gf.matmul(gf.lift(coset), t)])
        det, adj = gf.det_adj(t)
        keep = ~gf.is_zero(det)
        if keep.any():
            yield t[keep], adj[keep]


def _conjugated(rows, conj, gf):
    """Generator rows (..., k, 9) over the field gf sent through every
    member X -> T^-1 X T of a group given as conj = (T, adj T), two
    (G, 3, 3) batches: (..., G, k, 9) rows.  Each image is adj(T) X T,
    det(T) times the conjugate; the pattern-normal form and the row-space
    tests cannot tell the two apart.  T^-1 in place of adj T gives the
    conjugates themselves."""
    t, t_adj = conj
    e = gf.degree - 1   # trailing axes of one field element
    mats = rows.reshape(rows.shape[:rows.ndim - 1 - e] + (3, 3) + rows.shape[rows.ndim - e:])
    mats = np.expand_dims(mats, -4 - e)
    out = gf.matmul(gf.matmul(t_adj[:, None], mats), t[:, None])
    return out.reshape(out.shape[:out.ndim - 2 - e] + (9,) + out.shape[out.ndim - e:])


def _twisted(rows, twist, p):
    """Generator rows (..., k, 9) over F_p, stacked on a new axis before the
    last two with their images X -> P X^T P under the twist P when there is
    one.  A group member composed with the twist sends rows to the member
    applied to the twisted rows."""
    rows = rows[..., None, :, :]
    if twist is None:
        return rows
    mats = rows.reshape(rows.shape[:-1] + (3, 3))
    flipped = twist @ np.swapaxes(mats, -1, -2) @ twist % p
    return np.concatenate([rows, flipped.reshape(rows.shape)], axis=-3)


#: parameter tuples per batch of a sweep (at most as many conjugators, twice
#: as many with a theta(2, 3) coset), so that the images held at once do not
#: grow with the order of the group
_SWEEP_CHUNK = 1024


def _images(rep_cells, twist, batches, pdata, gf):
    """For each batch (T, adj T) of conjugators over the field gf, the cells of
    the images of one representative (its cells over F_p) under the batch and
    its twist coset that normalize into the pattern slice."""
    rows = gf.lift(_twisted(rows_from_cells(rep_cells[None], pdata, gf.p)[0], twist, gf.p))
    for conj in batches:
        # one variant at a time, so that at most |batch| images are held at once
        found = [normalize_rows(_conjugated(variant, conj, gf), pdata, gf) for variant in rows]
        yield np.concatenate([cells[ok] for cells, ok in found])


def group_matrices(family, p):
    """The conjugators T of a family over F_p, (|G|, 3, 3), in parameter-grid
    order; distinct T give distinct maps X -> T^-1 X T."""
    return np.concatenate([t for t, _ in _family_conjugators(family, _gf(p))])


def twist_matrix(perm):
    """The matrix P of an index permutation (row i is unit vector perm[i]),
    or None for None: every twist X -> P X^T P and coset P T is made here."""
    return None if perm is None else np.eye(3, dtype=np.int64)[list(perm)]


def _in_row_space(rows, p):
    """A test of which images lie in the row space of rows mod p: it maps
    blocks of row vectors (the last two axes) to one flag per block, true
    when every row of the block lies in the span.  A vector does exactly
    when every row of the annihilator basis, computed once here, kills it."""
    ref = _rref_mod(rows, p)
    pivots = [int(np.flatnonzero(r)[0]) for r in ref if r.any()]
    free = [c for c in range(rows.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), rows.shape[1]), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, c in enumerate(pivots):
            basis[i, c] = -ref[r, f] % p
    return lambda images: ~(images @ basis.T % p).any(axis=(-2, -1))


def _generator_rows(mats, p):
    """The coordinate rows mod p of matrices with integer entries."""
    return np.array([[int(x) for x in g.coords()] for g in mats], dtype=np.int64) % p


def _check_group_preserves(pattern_name, batches, twist, gf):
    """Check that every group element, given as batches (T, adj T) of
    conjugators over F_p, and the twist map the complement row space into
    itself (hence onto it, being invertible) mod p.  adj T scales each
    image by det(T), which no row-space test sees."""
    p = gf.p
    comp_id = get_pattern(pattern_name).complement_id
    rows = _generator_rows(COMPLEMENTS[comp_id].generators, p)
    inside = _in_row_space(rows, p)
    # one batch at a time, so that at most |batch| images are held at once
    images = itertools.chain([_twisted(rows, twist, p)],
                             (_conjugated(rows, conj, gf) for conj in batches))
    if not all(inside(batch).all() for batch in images):
        raise GroupMismatch(f"a group element does not preserve {comp_id}")


def _rref_mod(rows, p):
    m = rows.copy() % p
    r = 0
    for c in range(m.shape[1]):
        piv = None
        for i in range(r, m.shape[0]):
            if m[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        for i in range(m.shape[0]):
            if i != r and m[i, c] % p:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
    return m


# ---------------------------------------------------------------------------
# enumeration, orbits, matching
# ---------------------------------------------------------------------------

def enumerate_complements_fp(pattern_name, p):
    """All pattern instances over F_p whose span is a subalgebra (and hence a
    direct complement), as sorted cell-value rows."""
    pat = get_pattern(pattern_name)
    return solve_system_fp(pat.closure_system(), pat.params, p)


def orbit_partition_fp(solutions, pattern_name, p):
    """Partition solutions into orbits under the complement-preserving group
    (plus the antiautomorphism coset when the setup admits one).

    In index order, each solution not yet labelled has every group element
    g applied to its generator rows and to their twisted images (which
    g.twist sends where g sends the twisted rows), one batch of conjugators
    (_SWEEP_CHUNK parameter tuples) at a time, and every in-slice image is
    labelled with that solution's index.  The batches are built once, with
    their adjugates, and checked to preserve the complement first.
    This relies on the maps forming a group (the identity included), which
    holds because each family is the full stabilizer of its complement; an
    image outside the solutions, or one already in another orbit, raises
    GroupMismatch.

    Returns (labels, orbits): labels[i] is the least member index of the
    orbit of solution i; orbits maps each such index to itself (for the
    solver's sorted solutions, that member is the orbit's canonical,
    lexicographically least representative).
    """
    family, twist = PRESERVING[get_pattern(pattern_name).complement_id]
    gf = _gf(p)
    twist = twist_matrix(twist)
    # built once: regenerating the group for each orbit costs more CPU
    batches = list(_family_conjugators(family, gf, _SWEEP_CHUNK))
    _check_group_preserves(pattern_name, batches, twist, gf)
    pdata = _pdata(pattern_name)
    sols = np.asarray(solutions)
    find = _row_index(sols)
    labels = np.full(len(sols), -1, dtype=np.int64)
    orbits = {}
    for i in range(len(sols)):
        if labels[i] >= 0:
            continue
        for cells in _images(sols[i], twist, batches, pdata, gf):
            members = find(cells)
            if (members < 0).any():
                raise GroupMismatch("group image escaped the enumerated solution set")
            # a member an earlier batch of this orbit labelled is no meeting
            if not np.isin(labels[members], (-1, i)).all():
                raise GroupMismatch("the maps do not form a group: two orbits meet")
            labels[members] = i
        orbits[i] = i
    return labels, orbits


def _specializations(pattern_name, gf):
    """Every specialization over the field gf of the catalog entries this
    pattern classifies whose nonzero-constraints hold, pattern-normalized:
    yields (entry id, parameter names, values, cells, ok) per entry, values
    holding one row of parameter values per specialization in grid order."""
    pdata = _pdata(pattern_name)
    comp_id = get_pattern(pattern_name).complement_id
    for entry in builtin_catalog():
        if entry.complement_id != comp_id:
            continue
        names = entry.params
        values = gf.elements()[_grid((gf.q,) * len(names))]
        n = values.shape[0]
        columns = {i: values[:, i] for i in range(len(names))}

        def evaluate(poly):
            return gf.eval_compiled(compile_poly(poly, names, gf.p), columns, n)

        keep = np.ones(n, dtype=bool)
        for c in entry.constraints.nonzero:
            keep &= ~gf.is_zero(evaluate(c))
        rows = np.zeros((n, len(entry.s_generators), 9) + values.shape[2:], dtype=np.int64)
        for gi, g in enumerate(entry.s_generators):
            for t, c in enumerate(g.coords()):
                rows[:, gi, t] = evaluate(c)
        cells, ok = normalize_rows(rows[keep], pdata, gf)
        yield entry.id, names, values[keep], cells, ok


def catalog_specializations_fp(pattern_name, p):
    """Constraint-satisfying catalog specializations for this pattern,
    pattern-normalized: list of (entry id, assignment, cell row)."""
    out = []
    for eid, names, values, cells, ok in _specializations(pattern_name, _gf(p)):
        if not ok.all():
            raise PatternMismatch(f"{eid} specialization does not fit the pattern slice")
        out.extend((eid, dict(zip(names, vals)), row)
                   for vals, row in zip(values.tolist(), cells))
    return out


#: unmatched orbits that are expected and understood but not quadratic
#: obstructions; consulted when annotating reports
KNOWN_CAVEATS = {
    ("t6", 2): (
        "the reduction for this family completes a square (divides by 2); "
        "in characteristic 2 that change of variables does not exist, so "
        "unmatched orbits here are char-2 degenerations rather than "
        "quadratic-residue obstructions"
    ),
}


def coverage_report(pattern_name, p, explain=True):
    """Enumerate, partition into orbits, and match against the catalog.

    Unmatched orbit representatives are listed verbatim; when ``explain`` is
    set, each is re-swept over GF(p^2) and flagged explained when the orbit
    merges with a catalog specialization there (a quadratic obstruction).
    A catalog specialization missing from the enumeration raises
    PatternMismatch."""
    pat = get_pattern(pattern_name)
    sols = enumerate_complements_fp(pattern_name, p)
    labels, orbits = orbit_partition_fp(sols, pattern_name, p)
    specs = catalog_specializations_fp(pattern_name, p)
    found = _row_index(sols)(np.array([c for *_, c in specs]).reshape(len(specs), len(pat.params)))
    if (found < 0).any():
        eid = specs[int(np.argmin(found))][0]
        raise PatternMismatch(f"{eid} specialization missing from the enumeration")
    matched_roots = set(labels[found].tolist())
    unmatched = []
    for root in sorted(orbits.keys() - matched_roots):
        member = sols[orbits[root]]
        record = {"cells": dict(zip(pat.params, member.tolist())), "raw": member.tolist()}
        if explain:
            record["explained_by_quadratic_extension"] = explain_unmatched(pattern_name, p, member)
        unmatched.append(record)
    report = {
        "pattern": pattern_name,
        "prime": p,
        "free_cells": list(pat.params),
        "fixed_zeros": pat.fixed_zeros,
        "total_solutions": int(sols.shape[0]),
        "orbit_count": len(orbits),
        "matched": len(matched_roots),
        "matched_orbits": len(matched_roots),
        "orbit_sizes": sorted(np.unique(labels, return_counts=True)[1].tolist(), reverse=True),
        "catalog_specializations": len(specs),
        "specializations_per_entry": dict(sorted(Counter(eid for eid, *_ in specs).items())),
        "unmatched_reps": unmatched,
        "soundness": "every constraint-satisfying specialization was enumerated and matched",
    }
    caveat = KNOWN_CAVEATS.get((pattern_name, p))
    if caveat is not None and unmatched:
        report["caveat"] = caveat
    return report


def coverage_clean(report):
    """True when every orbit is matched, or every unmatched representative is
    either explained by the quadratic-extension sweep or covered by a
    documented caveat."""
    if not report["unmatched_reps"]:
        return True
    if all(u.get("explained_by_quadratic_extension") for u in report["unmatched_reps"]):
        return True
    return "caveat" in report


# ---------------------------------------------------------------------------
# quadratic-extension explanation of unmatched orbits
# ---------------------------------------------------------------------------

def explain_unmatched(pattern_name, p, rep_cells):
    """True when the orbit of the representative meets a catalog
    specialization over GF(p^2).  The family's parameter grid over GF(p^2)
    is swept _SWEEP_CHUNK tuples at a time, up to the first hit."""
    gf = _gf(p, 2)
    family, twist = PRESERVING[get_pattern(pattern_name).complement_id]
    pdata = _pdata(pattern_name)
    find = _row_index(np.concatenate(
        [cells[ok] for *_, cells, ok in _specializations(pattern_name, gf)]))
    batches = _family_conjugators(family, gf, _SWEEP_CHUNK)
    images = _images(rep_cells, twist_matrix(twist), batches, pdata, gf)
    return any((find(cells) >= 0).any() for cells in images)


# ---------------------------------------------------------------------------
# independent slow oracle and the T4/T6 sweep
# ---------------------------------------------------------------------------

def slow_cube_solutions(pattern_name, p, budget=20000):
    """Unpruned reference enumeration: iterate the full assignment cube and
    test closure directly, without the closure system: every product of two
    generators must lie in the generators' row space mod p."""
    pat = get_pattern(pattern_name)
    pdata = _pdata(pattern_name)
    c = len(pat.params)
    if p ** c > budget:
        raise BudgetExceeded(f"{p}^{c} assignments exceed the slow-oracle budget")
    sols = []
    for cells in itertools.product(range(p), repeat=c):
        arr = np.array(cells, dtype=np.int64)
        rows = rows_from_cells(arr[None, :], pdata, p)[0]
        mats = rows.reshape(-1, 3, 3)
        if _in_row_space(rows, p)((mats[:, None] @ mats[None]).reshape(-1, 9)):
            sols.append(cells)
    return np.array(sorted(sols), dtype=np.int8).reshape(len(sols), c)


def _rank_mod(rows, p):
    return int(_rref_mod(rows, p).any(axis=1).sum())


def family_is_full_stabilizer(complement_id, p):
    """Exhaustive converse check: over F_p the complement's family in
    `maps.PRESERVING` realizes exactly the conjugations preserving it.

    Enumerates every invertible 3x3 matrix over F_p, keeps those whose
    conjugation maps the complement row space to itself, and compares them
    with the family's conjugators.  Conjugation by T determines T up to a
    scalar, so only matrices whose first nonzero entry is 1 are enumerated,
    as the family's conjugators are."""
    gf = _gf(p)
    family, _ = PRESERVING[complement_id]
    rows = _generator_rows(COMPLEMENTS[complement_id].generators, p)
    every = _grid((p,) * 9)
    lead = every[np.arange(len(every)), (every != 0).argmax(axis=1)]
    every = every[lead == 1].reshape(-1, 3, 3)
    det, adj = gf.det_adj(every)
    keep = ~gf.is_zero(det)
    every = every[keep]
    images = _conjugated(rows, (every, adj[keep]), gf)
    found = every[_in_row_space(rows, p)(images)]
    return np.array_equal(np.sort(_row_keys(found)), np.sort(_row_keys(group_matrices(family, p))))


def t4_t6_separation(p):
    """Exhaustively sweep the maps preserving the complement of (T4) and (T6)
    over F_p (its family in `maps.PRESERVING`, alone and composed with its
    antiautomorphism twist) and report whether any carries the (T4)
    subalgebra onto the (T6) subalgebra.

    Returns (separated, witness): witness names the first mapping found in
    grid order, untwisted maps first, as family parameters plus whether it
    includes the twist."""
    gf = _gf(p)
    family, twist = PRESERVING[entry_by_id("T4").complement_id]
    s4, _ = entry_by_id("T4").specialize({})
    s6, _ = entry_by_id("T6").specialize({})
    rows4 = _generator_rows(s4.generators, p)
    rows6 = _generator_rows(s6.generators, p)
    if _rank_mod(rows4, p) != _rank_mod(rows6, p):
        return True, None
    # an invertible map carries T4 onto T6 when every image row lies in T6
    [(t, adj)] = _family_conjugators(family, gf)
    images = _conjugated(_twisted(rows4, twist_matrix(twist), p), (t, adj), gf)
    hits = _in_row_space(rows6, p)(images)
    if not hits.any():
        return True, None
    twisted, idx = divmod(int(hits.argmax()), len(t))
    entries = t[idx].reshape(9)
    witness = {name: int(entries[pos]) for name, pos in FAMILIES[family][0]}
    witness["composed_with_transpose_twist"] = bool(twisted)
    return False, witness
