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
obstruction must resolve.  Both sweeps are the same code over a field object
(`gfq.GFq`): F_p is its degree-1 case, GF(p^2) its degree-2 case.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from .catalog import COMPLEMENTS, builtin_catalog
from .errors import BudgetExceeded, GroupMismatch, PatternMismatch
from .fpsolve import compile_poly, solve_system_fp
from .gfq import GFq, check_prime
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


@functools.lru_cache(maxsize=None)
def _gf(p, degree=1):
    """The field the oracle works over: F_p, or GF(p^2) for the
    explanation sweep; p must be a prime no larger than gfq.MAX_PRIME."""
    check_prime(p)
    return GFq(p, degree)


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


def normalize_rows(rows, pdata, gf):
    """Pattern-normal form of batched generator rows, (N, k, 9) elements of
    the field gf.

    Returns (cells, ok): ok marks rows whose normal form lies in the pattern
    slice (reconstruction matches exactly, identity row included).
    """
    p = gf.p
    coeff = np.einsum("njt...,at->nja...", rows, pdata.functionals) % p
    resid = gf.sub(gf.matmul(gf.inv_mat(coeff), rows), gf.lift(pdata.base))
    cells = np.zeros((rows.shape[0], len(pdata.params)) + rows.shape[3:], dtype=np.int64)
    for (ci, gi, pos, scale) in pdata.reads:
        cells[:, ci] = resid[:, gi, pos] * scale % p
    recon = np.einsum("nc...,cjt->njt...", cells, pdata.dirs) % p
    ok = gf.is_zero(gf.sub(recon, resid)).all(axis=(1, 2))
    return cells, ok


# ---------------------------------------------------------------------------
# group families over F_p and GF(p^2)
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


def _grid(q, k, start=0, stop=None):
    """Rows start..stop of the q^k index tuples in C order (the last index
    varies fastest), as a (T, k) array."""
    flat = np.arange(start, q ** k if stop is None else min(stop, q ** k))
    if not k:
        return np.zeros((flat.size, 0), dtype=np.int64)
    return np.stack(np.unravel_index(flat, (q,) * k), axis=-1)


@functools.lru_cache(maxsize=None)
def _phi_compiled(p):
    """The 81 entry polynomials and denominator of the six-parameter family,
    compiled for mod-p evaluation."""
    phi = phi_map()
    names = phi.domain.names
    return ([compile_poly(phi.matrix9[i][j], names, p) for i in range(9) for j in range(9)],
            compile_poly(phi.den, names, p))


def _family_maps(family, gf, chunk=None):
    """The phi maps of a family over the field gf, denominators divided out,
    in parameter-grid order, chunk grid rows at a time (all at once when
    chunk is None).  Yields (maps, tuples) for each chunk with a tuple whose
    denominator does not vanish: maps (T, 9, 9) at those tuples, and the
    tuples as (T, 6) phi parameters, the family's unused slots 0."""
    compiled, den_c = _phi_compiled(gf.p)
    slots = _FAMILY_SLOTS[family]
    size = gf.q ** len(slots)
    chunk = chunk or size
    for start in range(0, size, chunk):
        grid = _grid(gf.q, len(slots), start, start + chunk)
        tuples = np.zeros((grid.shape[0], 6), dtype=np.int64)
        tuples[:, slots] = grid
        tuples = gf.elements()[tuples]
        den = gf.eval_compiled(den_c, {i: tuples[:, i] for i in range(6)}, len(tuples))
        keep = ~gf.is_zero(den)
        if not keep.any():
            continue
        tuples, den = tuples[keep], den[keep]
        columns = {i: tuples[:, i] for i in range(6)}
        flat = np.zeros((len(tuples), 81) + den.shape[1:], dtype=np.int64)
        for e, cp in enumerate(compiled):
            flat[:, e] = gf.eval_compiled(cp, columns, len(tuples))
        flat = gf.mul(flat, gf.inv(den)[:, None])
        yield flat.reshape((len(tuples), 9, 9) + flat.shape[2:]), tuples


def _twisted(rows, twist, p):
    """Generator rows (..., k, 9) over F_p, stacked on a new axis before the
    last two with their images under the twist when there is one.  A map g
    composed with the twist sends rows to g applied to the twisted rows."""
    rows = rows[..., None, :, :]
    return rows if twist is None else np.concatenate([rows, rows @ twist.T % p], axis=-3)


def _and_coset(maps, right, gf):
    """The maps followed by their composites with the F_p map `right`
    (applied first); the maps alone when right is None."""
    if right is None:
        return maps
    return np.concatenate([maps, gf.matmul(maps, gf.lift(right))])


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


def _family_coset(family, p):
    """phi_lm0_theta23 is phi_lm0 together with its coset under theta(2, 3)."""
    return _map_to_fp(theta(2, 3), p) if family == "phi_lm0_theta23" else None


def group_matrices(family, p):
    """All 9x9 map matrices (mod p, denominators divided out) of a family,
    sorted and without repeats."""
    gf = _gf(p)
    maps = np.concatenate([m for m, _ in _family_maps(family, gf)])
    maps = _and_coset(maps, _family_coset(family, p), gf)
    return np.unique(maps.reshape(-1, 81), axis=0).reshape(-1, 9, 9)


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
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
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

    In index order, each solution not yet labelled has every group element
    g applied to its generator rows and to their twisted images (which
    g.twist sends where g sends the twisted rows) in one batch, and every
    in-slice image is labelled with that solution's index.  This relies on
    the maps forming a group (the identity included), which holds because
    each family is the full stabilizer of its complement; an image outside
    the solutions, or one already in another orbit, raises GroupMismatch.

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
    gf = _gf(p)
    pdata = _pdata(pattern_name)
    sols = np.asarray(solutions, dtype=np.int64)
    n = sols.shape[0]
    index = {row.tobytes(): i for i, row in enumerate(sols.astype(np.int8))}
    rows_all = _twisted(rows_from_cells(sols, pdata, p), twist, p)
    group_t = np.swapaxes(group, 1, 2)
    labels = np.full(n, -1, dtype=np.int64)
    orbits = {}
    for i in range(n):
        if labels[i] >= 0:
            continue
        images = gf.matmul(rows_all[i][:, None], group_t).reshape(-1, pdata.k, 9)
        cells, ok = normalize_rows(images, pdata, gf)
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


def _specializations(pattern_name, gf):
    """Every specialization over the field gf of the catalog entries this
    pattern classifies whose nonzero-constraints hold, pattern-normalized:
    yields (entry id, parameter names, values, cells, ok) per entry, values
    holding one row of parameter values per specialization in grid order."""
    pdata = _pdata(pattern_name)
    prefix, tag = PATTERN_THEOREM_ENTRIES[pattern_name]
    for entry in builtin_catalog():
        if not entry.id.startswith(prefix) or entry.id[len(prefix)].isalpha():
            continue
        if tag is not None and not entry.id.endswith(tag):
            continue
        if tag is None and "@" in entry.id:
            continue
        names = entry.params
        values = gf.elements()[_grid(gf.q, len(names))]
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

def explain_unmatched(pattern_name, p, rep_cells, chunk=4096):
    """True when the orbit of the representative meets a catalog
    specialization over GF(p^2).  The family's parameter grid over GF(p^2)
    is swept chunk tuples at a time."""
    gf = _gf(p, 2)
    config = SEARCH_CONFIGS[pattern_name]
    pdata = _pdata(pattern_name)
    forms = {cells[i].tobytes()
             for *_, cells, ok in _specializations(pattern_name, gf)
             for i in np.nonzero(ok)[0]}
    rows = gf.lift(_twisted(rows_from_cells(rep_cells[None, :], pdata, p)[0],
                            twist_matrix(config["twist"], p), p))
    coset = _family_coset(config["group"], p)
    for maps, _ in _family_maps(config["group"], gf, chunk):
        maps_t = np.swapaxes(_and_coset(maps, coset, gf), 1, 2)
        for variant in rows:
            cells, ok = normalize_rows(gf.matmul(variant, maps_t), pdata, gf)
            if any(cells[i].tobytes() in forms for i in np.nonzero(ok)[0]):
                return True
    return False


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

    gf = _gf(p)
    twist = twist_matrix("theta13_T", p)
    s4, _ = entry_by_id("T4").specialize({}, GF(p))
    s6, _ = entry_by_id("T6").specialize({}, GF(p))
    rows4 = np.array([[x.value for x in g.coords()] for g in s4.generators], dtype=np.int64)
    rows6 = np.array([[x.value for x in g.coords()] for g in s6.generators], dtype=np.int64)
    target = _rref_mod(rows6, p).tobytes()

    [(mats, tuples)] = _family_maps("psi", gf)
    for twisted, start_rows in ((False, rows4), (True, rows4 @ twist.T % p)):
        for idx in range(mats.shape[0]):
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
