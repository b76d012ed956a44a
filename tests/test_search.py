import functools
import itertools
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from archived_runs import COVERAGE, coverage_archive
from m3decomp import search
from m3decomp.catalog import COMPLEMENTS
from m3decomp.errors import BudgetExceeded, GroupMismatch
from m3decomp.gfq import GFq
from m3decomp.maps import (
    PRESERVING,
    apply_map,
    family_map,
    is_algebra_map,
    preserves,
    theta,
    transpose_map,
)
from m3decomp.patterns import PATTERNS, get_pattern
from m3decomp.scalars import compile_poly
from m3decomp.search import (
    catalog_specializations_fp,
    coverage_clean,
    coverage_report,
    enumerate_complements_fp,
    explain_unmatched,
    family_is_full_stabilizer,
    group_matrices,
    normalize_rows,
    orbit_partition_fp,
    rows_from_cells,
    slow_cube_solutions,
    t4_t6_separation,
    twist_matrix,
    _check_group_preserves,
    _conjugated,
    _family_conjugators,
    _pdata,
)

REPORT_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports"

#: each group family built another way than from its own table row: phi,
#: the full family of the exact layer, with some parameters held at 0, and
#: whether theta(2, 3) composes a second coset
_SYMBOLIC_FAMILIES = {
    "phi_full": ((), False),
    "phi_bg0": (("beta", "gamma"), False),
    "phi_lm0_theta23": (("lamda", "mu"), True),
    "psi": (("mu",), False),
}

#: each twist X -> P X^T P of the exact layer, keyed by the permutation of P
_SYMBOLIC_TWISTS = {
    (0, 1, 2): transpose_map(),
    (2, 1, 0): theta(1, 3).compose(transpose_map()),
}

#: the coordinate basis matrices E_11, E_12, ..., E_33
_BASIS = np.eye(9, dtype=np.int64).reshape(9, 3, 3)

_P12 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def _mod(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, p - 2, p) % p


def _fp_map(amap, p):
    """A constant map of maps.py as a 9x9 matrix mod p, denominator divided
    out."""
    inv = pow(_mod(amap.den, p), p - 2, p)
    return np.array([[_mod(x, p) * inv % p for x in row] for row in amap.matrix9])


@functools.lru_cache(maxsize=None)
def _symbolic_group(family, p):
    """The 9x9 maps mod p of a family, from its symbolic map evaluated at
    every point of F_p where the denominator does not vanish, sorted and
    without repeats."""
    zero, coset = _SYMBOLIC_FAMILIES[family]
    amap = family_map("phi_full")
    names = amap.den.ring.names
    gf = GFq(p)
    points = np.array(list(itertools.product(range(p), repeat=len(names))))
    points = points[~points[:, [names.index(n) for n in zero]].any(axis=1)]
    columns = dict(enumerate(points.T))

    def evaluate(poly):
        return gf.eval_compiled(compile_poly(poly, names, p), columns, len(points))

    den = evaluate(amap.den)
    maps = np.moveaxis(np.array([[evaluate(x) for x in row] for row in amap.matrix9]), -1, 0)
    maps = maps[den != 0] * gf.inv(den[den != 0])[:, None, None] % p
    if coset:
        maps = np.concatenate([maps, maps @ _fp_map(theta(2, 3), p) % p])
    return np.unique(maps.reshape(-1, 81), axis=0).reshape(-1, 9, 9)


def _symbolic_twist(perm, p):
    return None if perm is None else _fp_map(_SYMBOLIC_TWISTS[perm], p)


def _induced_maps(conjugators, p):
    """The 9x9 matrices of the maps X -> T^-1 X T, one per conjugator T."""
    inv = GFq(p).inv_mat(conjugators)
    images = inv[:, None] @ _BASIS @ conjugators[:, None] % p
    return np.swapaxes(images.reshape(-1, 9, 9), 1, 2)


def _induced_twist(twist):
    """The 9x9 matrix of the twist X -> P X^T P."""
    return (twist @ np.swapaxes(_BASIS, 1, 2) @ twist).reshape(9, 9).T


def _orbits_by_union_find(sols, pattern_name, p):
    """Reference partition: every map of the symbolic family and every one
    composed with the twist is applied to every solution, and each in-slice
    image is unioned with its source; the least index of a class is its
    root."""
    family, twist = PRESERVING[get_pattern(pattern_name).complement_id]
    twist = _symbolic_twist(twist, p)
    pdata = _pdata(pattern_name)
    index = {row.tobytes(): i for i, row in enumerate(sols.astype(np.int8))}
    rows = rows_from_cells(sols.astype(np.int64), pdata, p)
    parent = list(range(sols.shape[0]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for base in [rows] + ([] if twist is None else [rows @ twist.T % p]):
        for g in _symbolic_group(family, p):
            cells, ok = normalize_rows(base @ g.T % p, pdata, GFq(p))
            for i in np.nonzero(ok)[0]:
                j = index[cells[i].astype(np.int8).tobytes()]
                a, b = sorted((find(int(i)), find(j)))
                parent[b] = a
    labels = np.array([find(i) for i in range(sols.shape[0])])
    return labels, {int(r): int(r) for r in np.unique(labels)}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_group_orders_match_closed_forms(p):
    gl2 = (p * p - 1) * (p * p - p)
    assert group_matrices("phi_full", p).shape[0] == p * p * gl2
    assert group_matrices("psi", p).shape[0] == p ** 3 * (p - 1) ** 2
    assert group_matrices("phi_bg0", p).shape[0] == gl2
    assert group_matrices("phi_lm0_theta23", p).shape[0] == 2 * p * p * (p - 1) ** 2


@pytest.mark.parametrize("p", [2, 3])
def test_conjugators_induce_the_symbolic_maps(p):
    # each family's conjugators, its theta(2, 3) coset included, give the
    # maps of the exact layer, each once; so do the twists
    for family in _SYMBOLIC_FAMILIES:
        induced = _induced_maps(group_matrices(family, p), p).reshape(-1, 81)
        assert len(np.unique(induced, axis=0)) == len(induced), family
        assert np.array_equal(np.unique(induced, axis=0),
                              _symbolic_group(family, p).reshape(-1, 81)), family
    assert {twist for _, twist in PRESERVING.values()} - {None} <= set(_SYMBOLIC_TWISTS)
    for perm in _SYMBOLIC_TWISTS:
        assert np.array_equal(_induced_twist(twist_matrix(perm)),
                              _symbolic_twist(perm, p)), perm


def test_group_families_preserve_their_complements_symbolically():
    # each complement's family, as the exact layer builds it from the family
    # table, is an automorphism family preserving the complement (its coset:
    # test_maps)
    for comp_id, (family, _) in PRESERVING.items():
        m = family_map(family)
        comp = COMPLEMENTS[comp_id].subspace()
        assert is_algebra_map(m) == (True, None), comp_id
        assert preserves(m, comp), comp_id


def test_twists_preserve_their_complements():
    for comp_id, (_, twist) in PRESERVING.items():
        if twist is not None:
            comp = COMPLEMENTS[comp_id].subspace()
            assert apply_map(_SYMBOLIC_TWISTS[twist], comp).same_space(comp), comp_id


def test_enumeration_deterministic_and_sorted():
    a = enumerate_complements_fp("t1", 3)
    b = enumerate_complements_fp("t1", 3)
    assert np.array_equal(a, b)
    assert np.array_equal(a, a[np.lexsort(a.T[::-1])])


def test_r1_specialization_is_all_zero_solution():
    sols = enumerate_complements_fp("t1", 2)
    assert any(not row.any() for row in sols)


def test_soundness_all_specializations_enumerated():
    for p in (2, 3):
        for name in PATTERNS:
            sols = {row.tobytes() for row in enumerate_complements_fp(name, p).astype(np.int8)}
            for (eid, assign, cells) in catalog_specializations_fp(name, p):
                assert cells.astype(np.int8).tobytes() in sols, (eid, assign, p)


@pytest.mark.parametrize("name", ["t1", "t2", "t4"])
def test_slow_cube_oracle_matches_t1_p2(name):
    # 2^12, 2^12 and 2^14 points, each within the default budget
    slow = slow_cube_solutions(name, 2)
    fast = enumerate_complements_fp(name, 2)
    assert np.array_equal(slow, fast)


def test_slow_cube_budget():
    with pytest.raises(BudgetExceeded):
        slow_cube_solutions("t7", 3)


@pytest.mark.parametrize("name", PATTERNS)
def test_normalize_roundtrip(name):
    # solutions and arbitrary cell values alike: every pattern row is in the
    # slice and normalizes back to its cells
    pdata = _pdata(name)
    sols = enumerate_complements_fp(name, 3)[:50].astype(np.int64)
    cells = np.concatenate([sols, np.random.default_rng(3).integers(0, 3, (50, sols.shape[1]))])
    rows = rows_from_cells(cells, pdata, 3)
    normal, ok = normalize_rows(rows, pdata, GFq(3))
    assert ok.all()
    assert np.array_equal(normal, cells)


@pytest.mark.parametrize("name, p", [("t1", 3), ("t6", 5)])
def test_normal_form_is_the_same_over_the_extension(name, p):
    # images of some solutions under some group maps, in the slice or not:
    # lifted into GF(p^2), they normalize to the lifted F_p cells; the
    # images under (T, adj T) are det(T) times those under (T, T^-1), and
    # normalize to the same cells and flags over either field
    sols = enumerate_complements_fp(name, p)[::7][:12].astype(np.int64)
    pdata = _pdata(name)
    gf = GFq(p)
    [(t, adj)] = _family_conjugators(PRESERVING[get_pattern(name).complement_id][0], gf)
    t, adj = t[::29][:12], adj[::29][:12]
    k = get_pattern(name).gen_count
    rows = [_conjugated(rows_from_cells(sols, pdata, p), conj, gf).reshape(-1, k, 9)
            for conj in ((t, gf.inv_mat(t)), (t, adj))]
    cells, ok = normalize_rows(rows[0], pdata, gf)
    assert ok.any() and not ok.all()
    for field in (gf, GFq(p, 2)):
        for images in rows:
            cells2, ok2 = normalize_rows(field.lift(images), pdata, field)
            assert np.array_equal(ok2, ok)
            assert np.array_equal(cells2, field.lift(cells))


def test_orbit_partition_refines_solutions():
    sols = enumerate_complements_fp("t3", 3)
    labels, orbits = orbit_partition_fp(sols, "t3", 3)
    assert labels.shape[0] == sols.shape[0]
    assert len(orbits) == len(set(labels.tolist()))
    # singleton input is one orbit
    one = sols[:1]
    labels1, orbits1 = orbit_partition_fp(one, "t3", 3)
    assert len(orbits1) == 1


def test_orbit_closed_under_group_f2():
    # every in-pattern image of the all-zero (R1) solution stays in its
    # orbit (maps with nonzero upper parameters leave the pivot-normalized
    # slice; such images are not solutions and join no orbit)
    sols = enumerate_complements_fp("t1", 2)
    labels, _ = orbit_partition_fp(sols, "t1", 2)
    pdata = _pdata("t1")
    zero_idx = next(i for i, row in enumerate(sols) if not row.any())
    group = _symbolic_group("phi_full", 2)
    rows = rows_from_cells(sols[zero_idx:zero_idx + 1].astype(np.int64), pdata, 2)
    index = {row.tobytes(): i for i, row in enumerate(sols.astype(np.int8))}
    in_slice = 0
    for g in group:
        img = rows @ g.T % 2
        cells, ok = normalize_rows(img, pdata, GFq(2))
        if not ok[0]:
            continue
        in_slice += 1
        j = index[cells.astype(np.int8)[0].tobytes()]
        assert labels[j] == labels[zero_idx]
    assert in_slice > 1


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("chunk", [None, 7])
def test_orbit_partition_matches_union_find_reference(chunk, shuffled, monkeypatch):
    # chunk 7 splits every group into batches, so an orbit is labelled across
    # batches; shuffled solutions are swept in another order and their labels
    # mapped back to the least sorted index of each orbit
    if chunk is not None:
        monkeypatch.setattr(search, "_SWEEP_CHUNK", chunk)
    cases = [(name, 2) for name in PATTERNS] + [("t1", 3), ("t3", 3)]
    for name, p in cases:
        sols = enumerate_complements_fp(name, p)
        n = sols.shape[0]
        perm = np.random.default_rng(n).permutation(n) if shuffled else np.arange(n)
        labels, orbits = orbit_partition_fp(sols[perm], name, p)
        assert orbits == {r: r for r in set(labels.tolist())}, (name, p)
        member = np.empty(n, dtype=np.int64)
        member[perm] = perm[labels]
        least = np.full(n, n)
        np.minimum.at(least, member, np.arange(n))
        ref_labels, ref_orbits = _orbits_by_union_find(sols, name, p)
        assert np.array_equal(least[member], ref_labels), (name, p)
        assert sorted(least[perm[list(orbits)]].tolist()) == sorted(ref_orbits), (name, p)


def test_orbit_partition_rejects_escaped_image():
    # drop one member of a non-singleton orbit: the sweep of that orbit then
    # maps onto a complement missing from the solutions
    sols = enumerate_complements_fp("t1", 2)
    labels, _ = orbit_partition_fp(sols, "t1", 2)
    sizes = np.bincount(labels)
    victim = next(i for i in range(sols.shape[0]) if sizes[labels[i]] > 1)
    with pytest.raises(GroupMismatch):
        orbit_partition_fp(np.delete(sols, victim, axis=0), "t1", 2)


def test_t1_coverage_full_match():
    for p in (2, 3):
        rep = coverage_report("t1", p, explain=False)
        assert rep["matched_orbits"] == rep["orbit_count"]
        assert not rep["unmatched_reps"]
        assert coverage_clean(rep)


def test_t6_t8_unmatched_explained_p3():
    for name in ("t6", "t8"):
        rep = coverage_report(name, 3, explain=True)
        assert rep["unmatched_reps"], f"{name} expected a residue obstruction at p=3"
        assert all(u["explained_by_quadratic_extension"] for u in rep["unmatched_reps"])
        assert coverage_clean(rep)


def test_t6_char2_caveat():
    rep = coverage_report("t6", 2, explain=True)
    if rep["unmatched_reps"]:
        assert "caveat" in rep
        assert coverage_clean(rep)


def test_t4_t6_sweep_finds_the_linking_antiautomorphism():
    for p in (2, 3, 5, 7):
        separated, witness = t4_t6_separation(p)
        assert not separated
        # the witness interpolates the exact rational map checked in
        # test_maps/verifier: alpha=1, beta=epsilon=0, gamma=delta=-1 mod p
        assert witness == {
            "alpha": 1, "beta": 0, "gamma": p - 1, "delta": p - 1, "epsilon": 0,
            "composed_with_transpose_twist": True,
        }


@pytest.mark.parametrize("name, p", COVERAGE)
def test_archived_report_reproduces(name, p):
    # the archived p = 5 and p = 7 evidence, regenerated and compared bytes
    # for bytes (criterion 7 compares the p = 2 and 3 reports itself)
    text = json.dumps(coverage_report(name, p, explain=True), indent=2, sort_keys=True) + "\n"
    assert text == (REPORT_DIR / coverage_archive(name, p)).read_text()


def test_explain_unmatched_direct():
    rep = coverage_report("t8", 3, explain=False)
    assert rep["unmatched_reps"]
    cells = np.array(
        [rep["unmatched_reps"][0]["cells"][c] for c in get_pattern("t8").params],
        dtype=np.int64,
    )
    assert explain_unmatched("t8", 3, cells)


def test_group_mismatch_detected(monkeypatch):
    # theta(1, 2) does not preserve the complement row space: as the whole
    # group, as one element at an index that five evenly spaced samples of
    # the 24 (0, 5, 11, 17 and 23) miss, as the last element of the last of
    # several batches, and the transpose as the twist
    gf = GFq(2)
    p12 = (_P12[None], gf.det_adj(_P12[None])[1])

    def corrupted(batches, batch, index):
        batches = [tuple(m.copy() for m in conj) for conj in batches]
        for m, bad in zip(batches[batch], p12):
            m[index] = bad[0]
        return batches

    whole = list(_family_conjugators("phi_full", gf))
    monkeypatch.setattr(search, "_SWEEP_CHUNK", 5)
    chunked = list(_family_conjugators("phi_full", gf, search._SWEEP_CHUNK))
    assert len(chunked) > 1
    for batches, twist in (([p12], None), (corrupted(whole, 0, 1), None),
                           (corrupted(chunked, -1, -1), None),
                           (whole, np.eye(3, dtype=np.int64))):
        with pytest.raises(GroupMismatch, match="does not preserve"):
            _check_group_preserves("t1", batches, twist, gf)
    _check_group_preserves("t1", chunked, None, gf)
    # the sweep runs the check on the family and twist its complement's
    # record names
    monkeypatch.setitem(PRESERVING, "M7", ("phi_full", (0, 1, 2)))
    with pytest.raises(GroupMismatch, match="does not preserve"):
        orbit_partition_fp(enumerate_complements_fp("t1", 2), "t1", 2)


def test_families_are_full_stabilizers_f2():
    for comp_id in PRESERVING:
        assert family_is_full_stabilizer(comp_id, 2), comp_id


def test_sweep_rejects_unsupported_prime():
    from m3decomp.errors import NotSupported

    with pytest.raises(NotSupported):
        t4_t6_separation(11)


_SWEEP_CHECKS_OPTIMIZED = """
import numpy as np
from m3decomp import search
from m3decomp.errors import GroupMismatch, PatternMismatch

assert not __debug__
sols = search.enumerate_complements_fp("t1", 2)
labels, _ = search.orbit_partition_fp(sols, "t1", 2)
sizes = np.bincount(labels)
victim = next(i for i in range(len(sols)) if sizes[labels[i]] > 1)
zero = next(i for i, row in enumerate(sols) if not row.any())


def missing():
    # drop the whole orbit of R1's all-zero solution: the sweep is sound, but
    # the R1 specialization is no longer enumerated
    search.enumerate_complements_fp = lambda *args: sols[labels != labels[zero]]
    search.coverage_report("t1", 2, explain=False)


cases = {
    "escape": lambda: search.orbit_partition_fp(np.delete(sols, victim, axis=0), "t1", 2),
    "meet": lambda: search.orbit_partition_fp(np.concatenate([sols, sols[:1]]), "t1", 2),
    "missing": missing,
}
for name, case in cases.items():
    try:
        case()
    except (GroupMismatch, PatternMismatch) as exc:
        print(name, type(exc).__name__, exc)
"""


def test_sweep_checks_survive_optimize():
    # an image outside the solutions, two orbits that meet (a repeated
    # solution is swept as its own orbit) and a catalog specialization
    # missing from the enumeration raise their typed errors under -O
    res = subprocess.run(
        [sys.executable, "-O", "-c", _SWEEP_CHECKS_OPTIMIZED],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "escape GroupMismatch group image escaped the enumerated solution set",
        "meet GroupMismatch the maps do not form a group: two orbits meet",
        "missing PatternMismatch R1 specialization missing from the enumeration",
    ]
