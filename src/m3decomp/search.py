"""Independent finite-field oracle: exhaustive complement enumeration, orbit
partitioning under the complement-preserving maps, and catalog matching.

The enumeration is the solution set of a pattern's closure system over F_p
(direct sums are automatic for pattern instances, since the pivot parts
complete any basis of the complement).  Each group family is the full
stabilizer of its complement (`family_is_full_stabilizer`), so the family
together with its twist coset is a group, and the orbit of a solution is the
set of its images under all of those maps that land back in the pattern
slice.  Orbits are therefore swept one at a time: every map is applied to one
unlabelled solution, and each in-slice image joins its orbit.  Soundness
(every constraint-satisfying catalog specialization appears and is matched)
is checked with typed errors; completeness failures are data,
reported verbatim and, where claimed, explained by re-running the sweep over
the quadratic extension GF(p^2), which is exactly what a square-root
obstruction must resolve.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .catalog import COMPLEMENTS, builtin_catalog
from .errors import BudgetExceeded, GroupMismatch, NotSupported, PatternMismatch
from .fpsolve import compile_poly, eval_compiled, solve_system_fp
from .gfq import GFq2
from .maps import conjugation, phi_map, theta, transpose_map
from .matrices import Mat3
from .patterns import PATTERN_THEOREM_ENTRIES, get_pattern
from .scalars import GF

#: group family and optional antiautomorphism twist preserving each fixed
#: complement (one twist representative suffices: any two complement-
#: preserving antiautomorphisms differ by a complement-preserving
#: automorphism)
SEARCH_CONFIGS = {
    "t1": {"group": "phi_full", "twist": None},
    "t2": {"group": "phi_full", "twist": None},
    "t3": {"group": "psi", "twist": "theta13_T"},
    "t4": {"group": "psi", "twist": None},
    "t4m2": {"group": "psi", "twist": "theta13_T"},
    "t5": {"group": "phi_bg0", "twist": "T"},
    "t6": {"group": "psi", "twist": None},
    "t7": {"group": "phi_lm0_theta23", "twist": None},
    "t8": {"group": "psi", "twist": "theta13_T"},
}

_INV_TABLE = {p: np.array([0] + [pow(v, p - 2, p) for v in range(1, p)], dtype=np.int64)
              for p in (2, 3, 5)}


# ---------------------------------------------------------------------------
# pattern data in numpy form
# ---------------------------------------------------------------------------

class _PatternData:
    def __init__(self, pattern):
        self.pattern = pattern
        k = pattern.gen_count
        self.k = k
        self.include_identity = pattern.include_identity
        self.base = np.array(
            [[int(x) for x in row] for row in pattern.base_rows()], dtype=np.int64
        )
        funcs = pattern.functionals
        if any(f[t].denominator != 1 for f in funcs for t in range(9)):
            raise PatternMismatch(
                f"pattern {pattern.name!r} has non-integral dual functionals"
            )
        self.functionals = np.array(
            [[int(f[t]) for t in range(9)] for f in funcs], dtype=np.int64
        )
        self.params = pattern.params
        c = len(self.params)
        self.dirs = np.zeros((c, k, 9), dtype=np.int64)
        offset = 1 if pattern.include_identity else 0
        reads = []
        param_pos = {p: i for i, p in enumerate(self.params)}
        for gi, gen in enumerate(pattern.gens):
            for (pname, vec) in gen.dirs:
                ci = param_pos[pname]
                for t in range(9):
                    if vec[t]:
                        self.dirs[ci, gi + offset, t] = int(vec[t])
        for gi, gen_reads in enumerate(pattern.cell_read_offsets()):
            for (pname, pos, scale) in gen_reads:
                if scale.denominator != 1:
                    raise PatternMismatch(
                        f"cell {pname!r} of pattern {pattern.name!r} has a "
                        f"non-integral read scale {scale}"
                    )
                reads.append((param_pos[pname], gi + offset, pos, int(scale)))
        self.reads = reads


_PDATA_CACHE = {}


def _pdata(pattern_name):
    if pattern_name not in _PDATA_CACHE:
        _PDATA_CACHE[pattern_name] = _PatternData(get_pattern(pattern_name))
    return _PDATA_CACHE[pattern_name]


def rows_from_cells(cells, pdata, p):
    """(N, C) cell values -> (N, k, 9) generator coordinate rows mod p."""
    rows = np.tensordot(cells.astype(np.int64), pdata.dirs, axes=(1, 0))
    return (rows + pdata.base) % p


def _batch_inv_mod(mats, p):
    gf = GFq2(p)
    det, adj = gf.det_adj(gf.lift(mats))
    det = det[..., 0]
    if (det % p == 0).any():
        raise ZeroDivisionError("singular coefficient matrix in pattern normalization")
    inv_det = _INV_TABLE[p][det % p]
    return adj[..., 0] * inv_det[:, None, None] % p, det % p


def normalize_rows(rows, pdata, p):
    """Pattern-normal form of batched generator rows.

    Returns (cells, ok): ok marks rows whose normal form lies in the pattern
    slice (reconstruction matches exactly, identity row included).
    """
    n = rows.shape[0]
    coeff = np.einsum("njt,at->nja", rows, pdata.functionals) % p
    inv, _ = _batch_inv_mod(coeff, p)
    normal = np.matmul(inv, rows) % p
    resid = (normal - pdata.base) % p
    cells = np.zeros((n, len(pdata.params)), dtype=np.int64)
    for (ci, gi, pos, scale) in pdata.reads:
        cells[:, ci] = resid[:, gi, pos] * (scale % p) % p
    recon = np.tensordot(cells, pdata.dirs, axes=(1, 0)) % p
    ok = (recon == resid).all(axis=(1, 2))
    return cells, ok


# ---------------------------------------------------------------------------
# group families over F_p
# ---------------------------------------------------------------------------

#: the phi parameter slot (beta, gamma, kappa, lamda, mu, nu) that each free
#: parameter of a family fills, in grid order; the other slots are 0.  psi's
#: free parameters are (alpha, beta, gamma, delta, epsilon), with
#: alpha -> nu, delta -> kappa and epsilon -> lamda.
_FAMILY_SLOTS = {
    "phi_full": (0, 1, 2, 3, 4, 5),
    "phi_bg0": (2, 3, 4, 5),
    "phi_lm0": (0, 1, 2, 5),
    "phi_lm0_theta23": (0, 1, 2, 5),
    "psi": (5, 0, 1, 2, 3),
}


def _family_grid(family, q, start=0, stop=None):
    """Rows start..stop of a family's parameter grid over q values, as
    (T, 6) phi parameter indices in C order (the last free parameter varies
    fastest)."""
    slots = _FAMILY_SLOTS[family]
    size = q ** len(slots)
    flat = np.arange(start, size if stop is None else min(stop, size))
    grid = np.zeros((flat.size, 6), dtype=np.int64)
    grid[:, slots] = np.stack(np.unravel_index(flat, (q,) * len(slots)), axis=-1)
    return grid


def _phi_tuples(p, kind):
    grid = _family_grid(kind, p)
    delta = (grid[:, 2] * grid[:, 5] - grid[:, 3] * grid[:, 4]) % p
    return grid[delta != 0]


_PHI_COMPILED = None


def _phi_compiled(p):
    """The 81 entry polynomials and denominator of the six-parameter family,
    compiled for mod-p evaluation."""
    global _PHI_COMPILED
    if _PHI_COMPILED is None:
        phi = phi_map()
        names = phi.domain.names
        entries = [phi.matrix9[i][j] for i in range(9) for j in range(9)]
        _PHI_COMPILED = (names, entries, phi.den)
    names, entries, den = _PHI_COMPILED
    return ([compile_poly(e, names, p) for e in entries],
            compile_poly(den, names, p))


def _maps_from_tuples(tuples, p):
    compiled, den_c = _phi_compiled(p)
    n = tuples.shape[0]
    columns = {i: tuples[:, i] for i in range(6)}
    den = eval_compiled(den_c, columns, n, p)
    keep = den != 0
    tuples = tuples[keep]
    den = den[keep]
    columns = {i: tuples[:, i] for i in range(6)}
    n = tuples.shape[0]
    flat = np.zeros((n, 81), dtype=np.int64)
    for e_idx, cp in enumerate(compiled):
        flat[:, e_idx] = eval_compiled(cp, columns, n, p)
    inv_den = _INV_TABLE[p][den]
    flat = flat * inv_den[:, None] % p
    flat = np.unique(flat, axis=0)
    return flat.reshape(-1, 9, 9)


def _map_to_fp(algebra_map, p):
    den = algebra_map.den
    den_val = int(den) if not isinstance(den, Fraction) else den
    den_int = Fraction(den_val).numerator * pow(Fraction(den_val).denominator, p - 2, p)
    inv = pow(den_int % p, p - 2, p)
    out = np.zeros((9, 9), dtype=np.int64)
    for i in range(9):
        for j in range(9):
            x = Fraction(algebra_map.matrix9[i][j])
            out[i, j] = x.numerator * pow(x.denominator, p - 2, p) * inv % p
    return out


def group_matrices(family, p):
    """All 9x9 map matrices (mod p, denominators divided out) of a family."""
    if family == "phi_lm0_theta23":
        base = _maps_from_tuples(_phi_tuples(p, "phi_lm0"), p)
        th = _map_to_fp(theta(2, 3), p)
        comp = np.einsum("gij,jk->gik", base, th) % p
        return np.unique(np.concatenate([base, comp]).reshape(-1, 81), axis=0).reshape(-1, 9, 9)
    return _maps_from_tuples(_phi_tuples(p, family), p)


def twist_matrix(name, p):
    if name is None:
        return None
    if name == "T":
        return _map_to_fp(transpose_map(), p)
    if name == "theta13_T":
        return _map_to_fp(theta(1, 3).compose(transpose_map()), p)
    raise ValueError(name)


def _check_group_preserves(pattern_name, group, twist, p, sample=5):
    """Spot-check that group elements (and the twist) map the complement
    row space to itself mod p."""
    pat = get_pattern(pattern_name)
    comp = COMPLEMENTS[pat.complement_id]
    rows = np.array([[int(x) for x in g.coords()] for g in comp.generators],
                    dtype=np.int64) % p
    ref = _rref_mod(rows, p)
    idx = np.linspace(0, group.shape[0] - 1, min(sample, group.shape[0])).astype(int)
    mats = [group[i] for i in idx]
    if twist is not None:
        mats.append(twist)
    for g in mats:
        img = rows @ g.T % p
        if not np.array_equal(_rref_mod(img, p), ref):
            raise GroupMismatch(f"a group element does not preserve {comp.id}")


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
        m[r] = m[r] * _INV_TABLE[p][m[r, c] % p] % p
        for i in range(m.shape[0]):
            if i != r and m[i, c] % p:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
    return m


# ---------------------------------------------------------------------------
# enumeration, orbits, matching
# ---------------------------------------------------------------------------

def enumerate_complements_fp(pattern_name, p, budget=None):
    """All pattern instances over F_p whose span is a subalgebra (and hence a
    direct complement), as sorted cell-value rows."""
    pat = get_pattern(pattern_name)
    kwargs = {} if budget is None else {"budget": budget}
    return solve_system_fp(pat.closure_system(), pat.params, p, **kwargs)


def orbit_partition_fp(solutions, pattern_name, p, group=None, twist=None):
    """Partition solutions into orbits under the complement-preserving group
    (plus the antiautomorphism coset when the setup admits one).

    The maps g and g.twist for g in the group are stacked once; then, in
    index order, each solution not yet labelled has all of them applied to
    its generator rows in one batch, and every in-slice image is labelled
    with that solution's index.  This relies on the maps forming a group
    (the identity included), which holds because each family is the full
    stabilizer of its complement; an image outside the solutions, or one
    already in another orbit, raises GroupMismatch.

    Returns (labels, orbits): labels[i] is the least member index of the
    orbit of solution i; orbits maps each such index to itself (solutions are
    sorted, so that member is the orbit's canonical, lexicographically least
    representative).
    """
    config = SEARCH_CONFIGS[pattern_name]
    if group is None:
        group = group_matrices(config["group"], p)
    if twist is None:
        twist = twist_matrix(config["twist"], p)
    _check_group_preserves(pattern_name, group, twist, p)
    pdata = _pdata(pattern_name)
    sols = np.asarray(solutions, dtype=np.int64)
    n = sols.shape[0]
    index = {row.tobytes(): i for i, row in enumerate(sols.astype(np.int8))}
    rows_all = rows_from_cells(sols, pdata, p)
    maps = group if twist is None else np.concatenate([group, group @ twist % p])
    maps_t = np.transpose(maps, (0, 2, 1))
    labels = np.full(n, -1, dtype=np.int64)
    orbits = {}
    for i in range(n):
        if labels[i] >= 0:
            continue
        cells, ok = normalize_rows(rows_all[i] @ maps_t % p, pdata, p)
        members = []
        for cell_row in np.unique(cells[ok].astype(np.int8), axis=0):
            j = index.get(cell_row.tobytes())
            if j is None:
                raise GroupMismatch("group image escaped the enumerated solution set")
            members.append(j)
        if (labels[members] >= 0).any():
            raise GroupMismatch("the maps do not form a group: two orbits meet")
        labels[members] = i
        orbits[i] = i
    return labels, orbits


def catalog_specializations_fp(pattern_name, p):
    """Constraint-satisfying catalog specializations for this pattern,
    pattern-normalized: list of (entry id, assignment, cell row)."""
    pdata = _pdata(pattern_name)
    prefix, tag = PATTERN_THEOREM_ENTRIES[pattern_name]
    dom = GF(p)
    out = []
    for entry in builtin_catalog():
        if not entry.id.startswith(prefix) or entry.id[len(prefix)].isalpha():
            continue
        if tag is not None and not entry.id.endswith(tag):
            continue
        if tag is None and "@" in entry.id:
            continue
        k = len(entry.params)
        for values in itertools.product(range(p), repeat=k):
            assign = dict(zip(entry.params, values))
            zero = dom.zero()
            if any(c.eval(assign, dom) == zero for c in entry.constraints.nonzero):
                continue
            rows = np.array(
                [[c.eval(assign, dom).value for c in g.coords()]
                 for g in entry.s_generators],
                dtype=np.int64,
            )
            cells, ok = normalize_rows(rows[None, :, :], pdata, p)
            if not ok[0]:
                raise PatternMismatch(f"{entry.id} specialization does not fit the pattern slice")
            out.append((entry.id, assign, cells[0]))
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


def coverage_report(pattern_name, p, explain=True, budget=None):
    """Enumerate, partition into orbits, and match against the catalog.

    Unmatched orbit representatives are listed verbatim; when ``explain`` is
    set, each is re-swept over GF(p^2) and flagged explained when the orbit
    merges with a catalog specialization there (a quadratic obstruction).
    A catalog specialization missing from the enumeration raises
    PatternMismatch."""
    pat = get_pattern(pattern_name)
    sols = enumerate_complements_fp(pattern_name, p, budget)
    labels, orbits = orbit_partition_fp(sols, pattern_name, p)
    specs = catalog_specializations_fp(pattern_name, p)
    sols8 = sols.astype(np.int8)
    index = {row.tobytes(): i for i, row in enumerate(sols8)}
    matched_roots = set()
    per_entry = {}
    for (eid, assign, cells) in specs:
        i = index.get(cells.astype(np.int8).tobytes())
        if i is None:
            raise PatternMismatch(f"{eid} specialization missing from the enumeration")
        matched_roots.add(int(labels[i]))
        per_entry[eid] = per_entry.get(eid, 0) + 1
    unmatched = []
    for root, member in sorted(orbits.items(), key=lambda kv: kv[1]):
        if root in matched_roots:
            continue
        rep = [int(x) for x in sols[member]]
        record = {"cells": dict(zip(pat.params, rep)), "raw": rep}
        if explain:
            record["explained_by_quadratic_extension"] = explain_unmatched(
                pattern_name, p, np.array(rep, dtype=np.int64)
            )
        unmatched.append(record)
    orbit_sizes = {}
    for lab in labels:
        orbit_sizes[int(lab)] = orbit_sizes.get(int(lab), 0) + 1
    report = {
        "pattern": pattern_name,
        "prime": p,
        "free_cells": list(pat.params),
        "fixed_zeros": pat.fixed_zeros,
        "total_solutions": int(sols.shape[0]),
        "orbit_count": len(orbits),
        "matched": len(matched_roots),
        "matched_orbits": len(matched_roots),
        "orbit_sizes": sorted(orbit_sizes.values(), reverse=True),
        "catalog_specializations": len(specs),
        "specializations_per_entry": dict(sorted(per_entry.items())),
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

def _entry_forms_q2(pattern_name, gf):
    """Pattern-normal forms of all catalog specializations over GF(p^2),
    as a set of byte keys."""
    pdata = _pdata(pattern_name)
    prefix, tag = PATTERN_THEOREM_ENTRIES[pattern_name]
    elements = gf.elements()
    forms = set()
    for entry in builtin_catalog():
        if not entry.id.startswith(prefix) or entry.id[len(prefix)].isalpha():
            continue
        if tag is not None and not entry.id.endswith(tag):
            continue
        if tag is None and "@" in entry.id:
            continue
        names = entry.params
        k = len(names)
        grids = (np.stack(np.meshgrid(*[np.arange(gf.q)] * k, indexing="ij"), axis=-1)
                 .reshape(-1, k)) if k else np.zeros((1, 0), dtype=np.int64)
        vals = elements[grids.reshape(-1)].reshape(-1, k, 2) if k else \
            np.zeros((1, 0, 2), dtype=np.int64)
        n = vals.shape[0]
        columns = {i: vals[:, i, :] for i in range(k)}
        keep = np.ones(n, dtype=bool)
        for c in entry.constraints.nonzero:
            cc = compile_poly(c, names, gf.p)
            keep &= ~gf.is_zero(gf.eval_compiled(cc, columns, n))
        rows = np.zeros((n, len(entry.s_generators), 9, 2), dtype=np.int64)
        for gi, g in enumerate(entry.s_generators):
            for t, cpoly in enumerate(g.coords()):
                cc = compile_poly(cpoly, names, gf.p)
                rows[:, gi, t, :] = gf.eval_compiled(cc, columns, n)
        rows = rows[keep]
        cells, ok = _normalize_rows_q2(rows, pdata, gf)
        for i in np.nonzero(ok)[0]:
            forms.add(cells[i].tobytes())
    return forms


def _normalize_rows_q2(rows, pdata, gf):
    n = rows.shape[0]
    f_lift = gf.lift(pdata.functionals)
    coeff0 = np.einsum("njt,at->nja", rows[..., 0], pdata.functionals) % gf.p
    coeff1 = np.einsum("njt,at->nja", rows[..., 1], pdata.functionals) % gf.p
    coeff = np.stack([coeff0, coeff1], axis=-1)
    inv = gf.inv_mat(coeff)
    normal = gf.matmul(inv, rows)
    base = gf.lift(pdata.base)
    resid = gf.sub(normal, base)
    cells = np.zeros((n, len(pdata.params), 2), dtype=np.int64)
    for (ci, gi, pos, scale) in pdata.reads:
        cells[:, ci, :] = resid[:, gi, pos, :] * (scale % gf.p) % gf.p
    recon0 = np.tensordot(cells[..., 0], pdata.dirs, axes=(1, 0)) % gf.p
    recon1 = np.tensordot(cells[..., 1], pdata.dirs, axes=(1, 0)) % gf.p
    ok = ((recon0 == resid[..., 0]) & (recon1 == resid[..., 1])).all(axis=(1, 2))
    return cells, ok


def explain_unmatched(pattern_name, p, rep_cells, chunk=4096):
    """True when the orbit of the representative meets a catalog
    specialization over GF(p^2)."""
    gf = GFq2(p)
    config = SEARCH_CONFIGS[pattern_name]
    pdata = _pdata(pattern_name)
    forms = _entry_forms_q2(pattern_name, gf)
    rep_rows = gf.lift(rows_from_cells(rep_cells[None, :], pdata, p)[0])  # (k, 9, 2)
    rep_rows_t = np.transpose(rep_rows, (1, 0, 2))                        # (9, k, 2)
    twist = twist_matrix(config["twist"], p)
    rep_variants = [rep_rows_t]
    if twist is not None:
        tw_rows = rows_from_cells(rep_cells[None, :], pdata, p)[0] @ twist.T % p
        rep_variants.append(np.transpose(gf.lift(tw_rows), (1, 0, 2)))
    compiled, den_c = _phi_compiled(p)
    for start in range(0, gf.q ** len(_FAMILY_SLOTS[config["group"]]), chunk):
        part = _phi_tuples_q2(config["group"], gf, start, start + chunk)
        columns = {i: part[:, i, :] for i in range(6)}
        den = gf.eval_compiled(den_c, columns, part.shape[0])
        keep = ~gf.is_zero(den)
        part = part[keep]
        if not part.shape[0]:
            continue
        columns = {i: part[:, i, :] for i in range(6)}
        n = part.shape[0]
        flat = np.zeros((n, 81, 2), dtype=np.int64)
        for e_idx, cp in enumerate(compiled):
            flat[:, e_idx, :] = gf.eval_compiled(cp, columns, n)
        inv_den = gf.inv(gf.eval_compiled(den_c, columns, n))
        flat = gf.mul(flat, inv_den[:, None, :])
        mats = flat.reshape(n, 9, 9, 2)
        extra = _extra_coset_q2(config["group"], mats, gf, p)
        for mset in ([mats] if extra is None else [mats, extra]):
            for rep_v in rep_variants:
                img_t = gf.matmul(mset, rep_v)            # (n, 9, k, 2)
                img = np.transpose(img_t, (0, 2, 1, 3))   # (n, k, 9, 2)
                cells, ok = _normalize_rows_q2(img, pdata, gf)
                for i in np.nonzero(ok)[0]:
                    if cells[i].tobytes() in forms:
                        return True
    return False


def _phi_tuples_q2(family, gf, start, stop):
    """Rows start..stop of the family's parameter grid over GF(p^2), as
    (T, 6, 2) pair arrays."""
    return gf.elements()[_family_grid(family, gf.q, start, stop)]


def _extra_coset_q2(family, mats, gf, p):
    if family != "phi_lm0_theta23":
        return None
    th = gf.lift(_map_to_fp(theta(2, 3), p))
    return gf.matmul(mats, th)


# ---------------------------------------------------------------------------
# independent slow oracle and the T4/T6 sweep
# ---------------------------------------------------------------------------

def slow_cube_solutions(pattern_name, p, budget=20000):
    """Unpruned reference enumeration: iterate the full assignment cube and
    test closure by rank computations, without the closure system."""
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
        k = rows.shape[0]
        base_rank = _rank_mod(rows, p)
        closed = True
        for i in range(k):
            for j in range(k):
                prod = mats[i] @ mats[j] % p
                stacked = np.vstack([rows, prod.reshape(1, 9)])
                if _rank_mod(stacked, p) != base_rank:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            sols.append(cells)
    return np.array(sorted(sols), dtype=np.int8).reshape(len(sols), c)


def _rank_mod(rows, p):
    return int(_rref_mod(rows, p).any(axis=1).sum())


def family_is_full_stabilizer(family, complement_id, p):
    """Exhaustive converse check: over F_p the parameter family realizes
    exactly the conjugations preserving the complement.

    Enumerates every invertible 3x3 matrix over F_p, keeps the conjugations
    mapping the complement row space to itself, and compares that set of
    9x9 maps with the family's."""
    comp_rows = np.array(
        [[int(x) for x in g.coords()] for g in COMPLEMENTS[complement_id].generators],
        dtype=np.int64,
    ) % p
    ref = _rref_mod(comp_rows, p).tobytes()
    family_set = {g.tobytes() for g in group_matrices(family, p)}
    found = set()
    dom = GF(p)
    for flat in itertools.product(range(p), repeat=9):
        t_rows = np.array(flat, dtype=np.int64).reshape(3, 3)
        if _rank_mod(t_rows, p) != 3:
            continue
        conj = conjugation(Mat3(t_rows.tolist(), dom))
        mat = np.array(
            [[x.value for x in row] for row in conj.matrix9], dtype=np.int64
        )
        inv = pow(conj.den.value, p - 2, p)
        mat = mat * inv % p
        img = comp_rows @ mat.T % p
        if _rref_mod(img, p).tobytes() == ref:
            found.add(mat.tobytes())
    return found == family_set


def t4_t6_separation(p):
    """Exhaustively sweep the upper-triangular-preserving maps over F_p (the
    full five-parameter family, alone and composed with the
    complement-preserving antiautomorphism twist) and report whether any
    carries the (T4) subalgebra onto the (T6) subalgebra.

    Returns (separated, witness): witness names the first mapping found, as
    family parameters plus whether it includes the twist."""
    from .catalog import entry_by_id

    if p not in _INV_TABLE:
        raise NotSupported(f"sweeps support p in {sorted(_INV_TABLE)}, not {p}")

    twist = twist_matrix("theta13_T", p)
    s4, _ = entry_by_id("T4").specialize({}, GF(p))
    s6, _ = entry_by_id("T6").specialize({}, GF(p))
    rows4 = np.array([[x.value for x in g.coords()] for g in s4.generators], dtype=np.int64)
    rows6 = np.array([[x.value for x in g.coords()] for g in s6.generators], dtype=np.int64)
    target = _rref_mod(rows6, p).tobytes()

    tuples = _phi_tuples(p, "psi")
    compiled, den_c = _phi_compiled(p)
    columns = {i: tuples[:, i] for i in range(6)}
    n = tuples.shape[0]
    den = eval_compiled(den_c, columns, n, p)
    flat = np.zeros((n, 81), dtype=np.int64)
    for e_idx, cp in enumerate(compiled):
        flat[:, e_idx] = eval_compiled(cp, columns, n, p)
    mats = flat * _INV_TABLE[p][den][:, None] % p
    mats = mats.reshape(n, 9, 9)
    for twisted, start_rows in ((False, rows4), (True, rows4 @ twist.T % p)):
        for idx in range(n):
            img = start_rows @ mats[idx].T % p
            if _rref_mod(img, p).tobytes() == target:
                t = tuples[idx]
                witness = {
                    "alpha": int(t[5]), "beta": int(t[0]), "gamma": int(t[1]),
                    "delta": int(t[2]), "epsilon": int(t[3]),
                    "composed_with_transpose_twist": twisted,
                }
                return False, witness
    return True, None
