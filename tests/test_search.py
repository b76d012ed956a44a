import functools
import itertools
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from archived_runs import COVERAGE, coverage_archive
from m3decomp import cli, search
from m3decomp.catalog import COMPLEMENTS
from m3decomp.errors import BudgetExceeded, GroupMismatch, NotSupported, PatternMismatch
from m3decomp.gfq import GFq
from m3decomp.maps import (
    PRESERVING,
    family_conjugator,
    image_span,
    is_algebra_map,
    permutation,
    preserves,
)
from m3decomp.matrices import Mat3
from m3decomp.patterns import PATTERNS, get_pattern
from m3decomp.scalars import MAX_PRIME, compile_poly
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
#: whether the 2 <-> 3 index swap P23 joins a second coset P23 T
_SYMBOLIC_FAMILIES = {
    "phi_full": ((), False),
    "phi_bg0": (("beta", "gamma"), False),
    "phi_lm0_theta23": (("lamda", "mu"), True),
    "psi": (("mu",), False),
}

_P12 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
_P23 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


@functools.lru_cache(maxsize=None)
def _symbolic_group(family, p):
    """The conjugators mod p of a family, (N, 3, 3): the symbolic conjugator
    T of phi_full evaluated at every point of F_p where det(T) does not
    vanish, and its coset P23 T if any; sorted and without repeats."""
    zero, coset = _SYMBOLIC_FAMILIES[family]
    t, _ = family_conjugator("phi_full")
    names = t.det().ring.names
    gf = GFq(p)
    points = np.array(list(itertools.product(range(p), repeat=len(names))))
    points = points[~points[:, [names.index(n) for n in zero]].any(axis=1)]
    columns = dict(enumerate(points.T))

    def evaluate(poly):
        return gf.eval_compiled(compile_poly(poly, names, p), columns, len(points))

    conj = np.moveaxis(np.array([[evaluate(x) for x in row] for row in t.rows]), -1, 0)
    conj = conj[evaluate(t.det()) != 0]
    if coset:
        conj = np.concatenate([conj, _P23 @ conj % p])
    return np.unique(conj.reshape(-1, 9), axis=0).reshape(-1, 3, 3)


def _exact_twist(perm):
    """The exact layer's twist matrix P (`maps.permutation`) as integers."""
    return np.array([[int(x) for x in row] for row in permutation(perm).rows])


def _mats(rows):
    """Generator rows (..., 9) as matrices (..., 3, 3)."""
    return rows.reshape(rows.shape[:-1] + (3, 3))


def _orbits_by_union_find(sols, pattern_name, p):
    """Reference partition: every map of the symbolic family and every one
    composed with the twist is applied to every solution, and each in-slice
    image is unioned with its source; the least index of a class is its
    root."""
    family, twist = PRESERVING[get_pattern(pattern_name).complement_id]
    pdata = _pdata(pattern_name)
    index = {row.tobytes(): i for i, row in enumerate(sols.astype(np.int8))}
    rows = rows_from_cells(sols.astype(np.int64), pdata, p)
    parent = list(range(sols.shape[0]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    variants = [_mats(rows)]
    if twist is not None:
        tw = _exact_twist(twist)
        variants.append(tw @ np.swapaxes(variants[0], -1, -2) @ tw)
    group = _symbolic_group(family, p)
    for base in variants:
        for t, t_inv in zip(group, GFq(p).inv_mat(group)):
            cells, ok = normalize_rows((t_inv @ base @ t % p).reshape(rows.shape), pdata, GFq(p))
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
    # each family's conjugators, its P23 coset included, are those of the
    # exact layer, each once; every one has first column e1, so no two are
    # scalar multiples and distinct conjugators give distinct maps.  The
    # twists are the exact layer's too
    for family in _SYMBOLIC_FAMILIES:
        conj = group_matrices(family, p)
        assert (conj[:, :, 0] == [1, 0, 0]).all(), family
        flat = conj.reshape(-1, 9)
        assert len(np.unique(flat, axis=0)) == len(flat), family
        assert np.array_equal(np.unique(flat, axis=0),
                              _symbolic_group(family, p).reshape(-1, 9)), family
    for perm in {twist for _, twist in PRESERVING.values()} - {None}:
        assert np.array_equal(twist_matrix(perm), _exact_twist(perm)), perm


def test_group_families_preserve_their_complements_symbolically():
    # each complement's family, as the exact layer builds it from the family
    # table, is an automorphism family preserving the complement (its coset:
    # test_maps)
    for comp_id, (family, _) in PRESERVING.items():
        t, constraints = family_conjugator(family)
        comp = COMPLEMENTS[comp_id].subspace()
        assert is_algebra_map(t, constraints=constraints) == (True, None), comp_id
        assert preserves(comp, t), comp_id


def test_twists_preserve_their_complements():
    for comp_id, (_, twist) in PRESERVING.items():
        if twist is not None:
            comp = COMPLEMENTS[comp_id].subspace()
            assert image_span(comp, Mat3.identity(), twist).same_space(comp), comp_id


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


@pytest.mark.parametrize("p, match", [(1, "1 is not a prime"), (4, "4 is not a prime"),
                                      (11, f"primes up to {MAX_PRIME}, not 11")])
def test_slow_cube_checks_its_prime(p, match):
    # as every other oracle entry does: arithmetic mod 1 would return one
    # all-zero solution
    with pytest.raises(NotSupported, match=match):
        slow_cube_solutions("t1", p)


@pytest.mark.parametrize("name", PATTERNS)
def test_normalize_roundtrip(name):
    # solutions and arbitrary cell values alike: every pattern row is in the
    # slice and normalizes back to its cells.  The record also names the
    # complement, family and twist that maps.PRESERVING gives the pattern
    pdata = _pdata(name)
    comp_id = get_pattern(name).complement_id
    family, twist = PRESERVING[comp_id]
    assert (pdata.comp_id, pdata.family) == (comp_id, family)
    assert pdata.comp_rows.tolist() == [[int(x) for x in g.coords()]
                                        for g in COMPLEMENTS[comp_id].generators]
    if twist is None:
        assert pdata.twist is None
    else:
        assert np.array_equal(pdata.twist, _exact_twist(twist))
    sols = enumerate_complements_fp(name, 3)[:50].astype(np.int64)
    cells = np.concatenate([sols, np.random.default_rng(3).integers(0, 3, (50, sols.shape[1]))])
    rows = rows_from_cells(cells, pdata, 3)
    normal, ok = normalize_rows(rows, pdata, GFq(3))
    assert ok.all()
    assert np.array_equal(normal, cells)


def _normalize_by_reconstruction(rows, pdata, gf):
    """The reference slice test: the cells are read off the residual of the
    normal rows and rebuilt along their directions, and a row is in the
    slice when the rebuilt rows equal the residual in all nine coordinates."""
    coeff = np.einsum("njt...,at->nja...", rows, pdata.functionals) % gf.p
    resid = gf.sub(gf.matmul(gf.inv_mat(coeff), rows), gf.lift(pdata.base))
    cells = resid[:, pdata.reads[0], pdata.reads[1]]
    recon = np.einsum("nc...,cjt->njt...", cells, pdata.dirs) % gf.p
    return cells, gf.is_zero(gf.sub(recon, resid)).all(axis=(1, 2))


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", PATTERNS)
def test_pinned_slice_test_matches_the_reconstruction(name, degree):
    # over F_3 and GF(9): some solutions and their twisted rows under the
    # identity and some maps of the family, and random rows (slice rows at
    # random cells, every other one plus noise); the pinned entries decide
    # the slice as the reconstruction does, for rows in it and out of it
    # (the images of t2 and t4m2, whose only pinned row is the identity's,
    # never leave it)
    p, rng = 3, np.random.default_rng(degree)
    gf, pdata = GFq(p, degree), _pdata(name)
    sols = enumerate_complements_fp(name, p)[::5][:8].astype(np.int64)
    variants = search._twisted(rows_from_cells(sols, pdata, p), pdata.twist, p)
    t, adj = next(_family_conjugators(pdata.family, gf))
    eye = gf.lift(np.eye(3, dtype=np.int64))[None]
    images = _conjugated(gf.lift(variants), (np.concatenate([eye, t[::23]]),
                                             np.concatenate([eye, adj[::23]])), gf)
    cells = gf.elements()[rng.integers(0, gf.q, (60, len(pdata.dirs)))]
    slice_rows = (np.einsum("nc...,cjt->njt...", cells, pdata.dirs) + gf.lift(pdata.base)) % p
    noise = gf.elements()[rng.integers(0, gf.q, slice_rows.shape[:3])]
    noisy = gf.add(slice_rows, noise * (np.arange(60) % 2).reshape((-1,) + (1,) * (noise.ndim - 1)))
    flags = []
    for rows in (images.reshape((-1,) + images.shape[3:]), noisy):
        coeff = np.einsum("njt...,at->nja...", rows, pdata.functionals) % p
        rows = rows[~gf.is_zero(gf.det_adj(coeff)[0])]
        cells, ok = normalize_rows(rows, pdata, gf)
        ref_cells, ref_ok = _normalize_by_reconstruction(rows, pdata, gf)
        assert np.array_equal(cells, ref_cells) and np.array_equal(ok, ref_ok)
        flags.append(ok)
    assert flags[0].any() and flags[1].any() and not flags[1].all()


@pytest.mark.parametrize("name, p", [("t1", 3), ("t6", 5)])
def test_normal_form_is_the_same_over_the_extension(name, p):
    # images of some solutions under some group maps, in the slice or not:
    # lifted into GF(p^2), they normalize to the lifted F_p cells; the
    # images under (T, adj T) are det(T) times those under (T, T^-1), and
    # normalize to the same cells and flags over either field
    sols = enumerate_complements_fp(name, p)[::7][:12].astype(np.int64)
    pdata = _pdata(name)
    gf = GFq(p)
    t = group_matrices(PRESERVING[get_pattern(name).complement_id][0], p)[::29][:12]
    adj = gf.det_adj(t)[1]
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
    labels, roots = orbit_partition_fp(sols, "t3", 3)
    assert labels.shape[0] == sols.shape[0]
    assert roots == sorted(set(labels.tolist()))
    # singleton input is one orbit
    one = sols[:1]
    labels1, roots1 = orbit_partition_fp(one, "t3", 3)
    assert roots1 == [0]


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
    for t, t_inv in zip(group, GFq(2).inv_mat(group)):
        img = (t_inv @ _mats(rows) @ t % 2).reshape(rows.shape)
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
        labels, roots = orbit_partition_fp(sols[perm], name, p)
        assert roots == sorted(set(labels.tolist())), (name, p)
        member = np.empty(n, dtype=np.int64)
        member[perm] = perm[labels]
        least = np.full(n, n)
        np.minimum.at(least, member, np.arange(n))
        ref_labels, ref_orbits = _orbits_by_union_find(sols, name, p)
        assert np.array_equal(least[member], ref_labels), (name, p)
        assert sorted(least[perm[roots]].tolist()) == sorted(ref_orbits), (name, p)


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


#: a representative of each orbit of unital complements of L5_6 over F_2
#: that t8's slice misses, as the 0/1 matrices spanning it (the positions of
#: their ones)
_T8_MISSED_AT_2 = {
    # its lower 2x2 block holds a copy of F_4
    "quadratic-block": (((2, 1),), ((2, 2), (3, 3)), ((2, 3), (3, 2), (3, 3)), ((3, 1),)),
    "split-block": (((2, 1),), ((2, 2), (3, 3)), ((3, 1),), ((3, 2), (3, 3))),
}


@pytest.mark.parametrize("name", list(_T8_MISSED_AT_2))
def test_t8_slice_misses_two_orbits_at_p2(name):
    # a subalgebra complementing L5_6 over F_2 whose orbit under L5_6's
    # family and twist never meets t8's slice, so coverage_report refuses t8
    # at p = 2 rather than report it clean
    p, gf, pdata = 2, GFq(2), _pdata("t8")
    rows = np.zeros((4, 9), dtype=np.int64)
    for g, positions in enumerate(_T8_MISSED_AT_2[name]):
        for i, j in positions:
            rows[g, 3 * (i - 1) + j - 1] = 1
    # rows complete L5_6 to the whole space exactly when the functionals
    # read an invertible matrix off them; its inverse takes rows to
    # pattern-normal rows of the same span, which hold every product
    coeff = rows[None] @ pdata.functionals.T % p
    det, _ = gf.det_adj(coeff)
    assert det[0] != 0
    normal = gf.matmul(gf.inv_mat(coeff), rows[None])[0]
    mats = rows.reshape(4, 3, 3)
    assert search._in_span((mats[:, None] @ mats[None]).reshape(1, -1, 9) % p, normal, pdata, p)
    family, twist = PRESERVING["L5_6"]
    twisted = search._twisted(rows, twist_matrix(twist), p)
    for conj in _family_conjugators(family, gf):
        images = _conjugated(twisted, conj, gf).reshape(-1, 4, 9)
        # an image whose functionals read a singular coefficient matrix has
        # no pattern-normal form, and normalize_rows cannot invert it
        det, _ = gf.det_adj(images @ pdata.functionals.T % p)
        _, ok = normalize_rows(images[det != 0], pdata, gf)
        assert not ok.any()
    with pytest.raises(NotSupported, match="t8 at p = 2"):
        coverage_report("t8", 2)


def test_t4_t6_sweep_finds_the_linking_antiautomorphism():
    for p in (2, 3, 5, 7):
        separated, witness = t4_t6_separation(p)
        assert not separated
        # the witness interpolates the exact rational map checked in
        # test_maps (test_linked_parameter_free_pairs, row T4-T6):
        # alpha=1, beta=epsilon=0, gamma=delta=-1 mod p
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
    assert len(whole) == 1
    monkeypatch.setattr(search, "_SWEEP_CHUNK", 5)
    chunked = list(_family_conjugators("phi_full", gf))
    assert len(chunked) > 1
    t1, transposed = _pdata("t1"), _pdata("t1")
    transposed.twist = np.eye(3, dtype=np.int64)
    for batches, pdata in (([p12], t1), (corrupted(whole, 0, 1), t1),
                           (corrupted(chunked, -1, -1), t1), (whole, transposed)):
        with pytest.raises(GroupMismatch, match="does not preserve"):
            _check_group_preserves(pdata, batches, gf)
    _check_group_preserves(t1, chunked, gf)
    # the orbit sweep and the (T4)/(T6) pair sweep run the check on the
    # family and twist their complement's record names
    monkeypatch.setitem(PRESERVING, "M7", ("phi_full", (0, 1, 2)))
    with pytest.raises(GroupMismatch, match="does not preserve M7"):
        orbit_partition_fp(enumerate_complements_fp("t1", 2), "t1", 2)
    monkeypatch.setitem(PRESERVING, "M6U", ("psi", (0, 1, 2)))
    with pytest.raises(GroupMismatch, match="does not preserve M6U"):
        t4_t6_separation(2)


def test_orbit_sweep_refuses_maps_that_are_not_a_group(monkeypatch):
    # phi_full at p = 2 without every third conjugator: each map left still
    # preserves M7, but the maps are no longer closed, so the orbits they
    # sweep out overlap
    conjugators = search._family_conjugators

    def thinned(family, gf):
        for t, adj in conjugators(family, gf):
            keep = np.arange(len(t)) % 3 != 2
            yield t[keep], adj[keep]

    monkeypatch.setattr(search, "_family_conjugators", thinned)
    with pytest.raises(GroupMismatch, match="two orbits meet"):
        orbit_partition_fp(enumerate_complements_fp("t1", 2), "t1", 2)


def test_coverage_report_refuses_a_specialization_missing_from_the_enumeration(monkeypatch):
    # the whole orbit of R1's all-zero solution dropped from the enumeration:
    # the sweep of the rest is sound, but R1's specialization is not found
    sols = enumerate_complements_fp("t1", 2)
    labels, _ = orbit_partition_fp(sols, "t1", 2)
    zero = next(i for i, row in enumerate(sols) if not row.any())
    monkeypatch.setattr(search, "enumerate_complements_fp",
                        lambda *args: sols[labels != labels[zero]])
    with pytest.raises(PatternMismatch, match="R1 specialization missing from the enumeration"):
        coverage_report("t1", 2, explain=False)


@pytest.mark.parametrize("degree, sweep", [
    (1, lambda: catalog_specializations_fp("t8", 3)),
    (1, lambda: t4_t6_separation(3)),
    # the representative is never swept: the refusal comes first
    (2, lambda: explain_unmatched("t8", 3, np.zeros(len(get_pattern("t8").params), dtype=int))),
], ids=["catalog-fp", "t4-t6-fp", "explain-gf9"])
def test_specializations_off_the_slice_are_refused(degree, sweep, monkeypatch):
    # one catalog point over F_p or GF(p^2) pushed out of the pattern slice:
    # every reader of the specializations refuses it before it sweeps
    normalize = search.normalize_rows

    def off_slice(rows, pdata, gf):
        cells, ok = normalize(rows, pdata, gf)
        if gf.degree == degree:
            ok[-1:] = False
        return cells, ok

    monkeypatch.setattr(search, "normalize_rows", off_slice)
    with pytest.raises(PatternMismatch, match="specialization does not fit the pattern slice"):
        sweep()


def test_families_are_full_stabilizers_f2():
    for name in PATTERNS:
        assert family_is_full_stabilizer(name, 2), name


def _rank_mod(rows, p):
    """The rank of integer rows mod p, by Gauss-Jordan elimination: the
    reference for the oracle's span tests, which read dual functionals."""
    m = np.array(rows, dtype=np.int64) % p
    rank = 0
    for c in range(m.shape[1]):
        nonzero = np.flatnonzero(m[rank:, c])
        if not len(nonzero):
            continue
        m[[rank, rank + nonzero[0]]] = m[[rank + nonzero[0], rank]]
        m[rank] = m[rank] * pow(int(m[rank, c]), p - 2, p) % p
        others = np.arange(len(m)) != rank
        m[others] = (m[others] - np.outer(m[others, c], m[rank])) % p
        rank += 1
        if rank == len(m):
            break
    return rank


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", PATTERNS)
def test_span_tests_match_a_rank_reference(name, p):
    # blocks of two rows: combinations of the spanning rows (inside), and
    # those plus a random vector (inside only by chance); a block passes
    # exactly when adding it to the spanning rows leaves their rank as is
    rng = np.random.default_rng(p)
    pdata = _pdata(name)
    cells = rng.integers(0, p, (1, len(get_pattern(name).params)))
    normal = rows_from_cells(cells, pdata, p)[0]
    for spanning, test in ((pdata.comp_rows, lambda x: search._in_complement(x, pdata, p)),
                           (normal, lambda x: search._in_span(x, normal, pdata, p))):
        inside = rng.integers(0, p, (40, 2, len(spanning))) @ spanning % p
        noise = rng.integers(0, p, (40, 2, 9)) * (np.arange(40) % 2)[:, None, None]
        blocks = (inside + noise) % p
        rank = _rank_mod(spanning, p)
        expected = [_rank_mod(np.vstack([spanning, b]), p) == rank for b in blocks]
        assert test(blocks).tolist() == expected
        assert 20 <= sum(expected) < 40


def test_sweep_rejects_unsupported_prime():
    from m3decomp.errors import NotSupported

    with pytest.raises(NotSupported):
        t4_t6_separation(11)


def test_coverage_report_checks_its_prime_before_it_enumerates(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("enumerated at an unsupported prime")

    monkeypatch.setattr(search, "enumerate_complements_fp", enumerate_nothing)
    with pytest.raises(NotSupported, match=f"primes up to {MAX_PRIME}, not 11"):
        coverage_report("t1", 11)


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


_SEARCH_T1_SLOW = ["search", "--pattern", "t1", "--prime", "2", "--no-explain", "--slow-oracle"]


def test_search_slow_oracle_agrees_through_the_cli():
    res = subprocess.run([sys.executable, "-m", "m3decomp.cli", *_SEARCH_T1_SLOW],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["slow_oracle_agrees"] is True


def test_search_slow_oracle_disagreement_exits_1(tmp_path, monkeypatch):
    # the slow oracle missing one solution: the report says so, and the run
    # fails although the coverage itself is clean
    slow = search.slow_cube_solutions
    monkeypatch.setattr(search, "slow_cube_solutions", lambda *args: slow(*args)[1:])
    out = tmp_path / "search.json"
    assert cli.main([*_SEARCH_T1_SLOW, "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["slow_oracle_agrees"] is False and doc["clean"]


def test_search_refuses_the_slow_cube_before_coverage(monkeypatch, capsys):
    # 7^12 assignments exceed the slow oracle's budget: the run exits 2
    # without computing the coverage report
    def no_coverage(*args, **kwargs):
        raise RuntimeError("coverage computed before the slow oracle's budget check")

    monkeypatch.setattr(search, "coverage_report", no_coverage)
    argv = ["search", "--pattern", "t1", "--prime", "7", "--slow-oracle", "--no-explain"]
    assert cli.main(argv) == 2
    assert "7^12 assignments exceed the slow-oracle budget" in capsys.readouterr().err
