import random
from dataclasses import replace
from fractions import Fraction

import pytest

from m3decomp.catalog import COMPLEMENTS, builtin_catalog, entry_by_id
from m3decomp.errors import NotSupported, SoundnessError
from m3decomp.invariants import Fingerprint, _flat, _Table, fingerprint
from m3decomp.linalg import echelonize, kernel_basis, solve_linear
from m3decomp.maps import family_conjugator, image_span
from m3decomp.matrices import Mat3, span
from m3decomp.scalars import rational_sqrt


def e(i, j):
    return Mat3.basis(i, j)


def mat(tab, x):
    """The matrix with coordinates x in the table's basis."""
    return Mat3.from_coords(_flat(tab.rows, x))


def s_of(ident):
    entry = entry_by_id(ident)
    S, _ = entry.specialize({p: 2 + k for k, p in enumerate(entry.params)})
    return S


def test_radical_full_matrix_algebra():
    full = span([e(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
    assert _Table(full).rad == []


def test_radical_m7():
    m7 = span([e(1, 1), e(1, 2), e(1, 3), e(2, 2), e(2, 3), e(3, 2), e(3, 3)])
    tab = _Table(m7)
    rad = span([mat(tab, x) for x in tab.rad])
    assert rad.dim == 2
    assert rad.same_space(span([e(1, 2), e(1, 3)]))
    # oracle: span{e12,e13} is a nilpotent ideal and the quotient dims fit
    # the 1 + 4 block structure (1x1 plus 2x2 blocks)
    for g in m7.generators:
        for r in (e(1, 2), e(1, 3)):
            assert rad.contains(g @ r) and rad.contains(r @ g)
    assert e(1, 2) @ e(1, 3) == Mat3.zero() and e(1, 2) @ e(1, 2) == Mat3.zero()
    assert m7.dim - rad.dim == 5


def test_radical_upper_triangular():
    upper = span([e(1, 1), e(1, 2), e(1, 3), e(2, 2), e(2, 3), e(3, 3)])
    tab = _Table(upper)
    rad = span([mat(tab, x) for x in tab.rad])
    assert rad.dim == 3
    assert rad.same_space(span([e(1, 2), e(1, 3), e(2, 3)]))


def test_radical_is_nilpotent_ideal_catalog_sample():
    for ident in ("T2", "X6", "Z2", "V4"):
        S = s_of(ident)
        tab = _Table(S)
        rb = [mat(tab, x) for x in tab.rad]
        rad = span(rb)
        for g in S.generators:
            for r in rb:
                assert rad.contains(g @ r)
                assert rad.contains(r @ g)


def test_classify_2dim_remark1():
    expected = {f"R{k}": f"D{k}" for k in range(1, 8)}
    for ident, d in expected.items():
        assert fingerprint(s_of(ident)).two_dim_type() == d


def test_classify_2dim_examples():
    assert fingerprint(span([e(2, 1), e(3, 1)])).two_dim_type() == "D1"
    s = span([e(2, 1), e(3, 1) + e(2, 3)])
    assert fingerprint(s).two_dim_type() == "D2"
    g = e(3, 1) + e(2, 3)
    assert g @ g == e(2, 1)
    d6 = span([e(2, 1) + e(2, 2), e(3, 1) + e(3, 2)])
    assert fingerprint(d6).two_dim_type() == "D6"


def test_classify_2dim_basis_change_invariant():
    rng = random.Random(21)
    for ident in ("R4", "R5", "R6", "R8"):
        s = s_of(ident)
        tag = fingerprint(s).two_dim_type()
        g1, g2 = s.generators
        for _ in range(10):
            while True:
                a, b, c, d = (Fraction(rng.randint(-4, 4)) for _ in range(4))
                if a * d - b * c != 0:
                    break
            t = span([g1.scale(a) + g2.scale(b), g1.scale(c) + g2.scale(d)])
            assert fingerprint(t).two_dim_type() == tag


def test_idempotents_r5_r6():
    assert fingerprint(s_of("R5")).idempotent_ranks == (2,)
    assert fingerprint(s_of("R6")).idempotent_ranks == (1,)


def test_idempotents_nilpotent_empty():
    assert fingerprint(span([e(2, 1), e(3, 1)])).idempotent_ranks == ()


def test_idempotents_d7_split():
    # e1, e2 and their sum, the unit
    assert fingerprint(s_of("R7")).idempotent_ranks == (1, 2)


def test_fingerprint_t_cases():
    fps = {ident: fingerprint(s_of(ident)) for ident in ("T1", "T2", "T3", "T4", "T5", "T6")}
    assert fps["T1"].rad_dims[0] == 3 and fps["T1"].ss_dim == 0
    assert fps["T2"].ss_dim == 1 and fps["T3"].ss_dim == 1
    assert fps["T2"].rad_in_left_ann and not fps["T3"].rad_in_left_ann
    assert fps["T5"].has_unit
    t5_unit = e(1, 1) + e(2, 2) + e(3, 1)
    s5 = s_of("T5")
    assert s5.contains(t5_unit)
    assert all((t5_unit @ g) == g and (g @ t5_unit) == g for g in s5.generators)
    assert not fps["T4"].has_unit and not fps["T6"].has_unit
    # T4 and T6 are antiisomorphic: fingerprints agree only after the swap
    assert fps["T4"] != fps["T6"]
    assert fps["T4"] == fps["T6"].swapped()


def test_fingerprint_x_cases():
    fps = {f"X{k}": fingerprint(s_of(f"X{k}")) for k in range(1, 8)}
    assert fps["X6"].rad_in_left_ann
    assert not fps["X7"].rad_in_left_ann and not fps["X7"].rad_in_right_ann
    assert fps["X5"].rad_dims[0] == 0
    for k in (1, 2, 3, 4):
        assert fps[f"X{k}"].rad_dims[0] == 3
    for k in (6, 7):
        assert fps[f"X{k}"].rad_dims[0] != 3
    assert fps["X1"].ann_radsq_has_idempotent
    assert not fps["X2"].ann_radsq_has_idempotent
    assert fps["X4"].idempotent_ranks == (2,)
    assert fps["X1"].idempotent_ranks == (1,)


def test_fingerprint_z_cases():
    fps = {f"Z{k}": fingerprint(s_of(f"Z{k}")) for k in range(1, 5)}
    for k in (1, 3):
        assert fps[f"Z{k}"].rad_dims[0] == 3
    for k in (2, 4):
        assert fps[f"Z{k}"].rad_dims[0] != 3
    assert fps["Z4"].rad_in_left_ann
    assert not fps["Z2"].rad_in_left_ann and not fps["Z2"].rad_in_right_ann


def test_fingerprint_lemma5_separation():
    fps = {}
    for k in range(1, 7):
        fps[k] = fingerprint(COMPLEMENTS[f"L5_{k}"].subspace())
    # unique semisimple, unique 2-dim radical, two non-unital ones
    assert [k for k in fps if fps[k].rad_dims[0] == 0] == [1]
    assert [k for k in fps if fps[k].rad_dims[0] == 2] == [2]
    assert sorted(k for k in fps if not fps[k].has_unit) == [4, 5]
    keys = sorted(fps)
    for i in keys:
        for j in keys:
            if i < j:
                assert fps[i] not in (fps[j], fps[j].swapped()), (i, j)


def _random_conjugators(rng, count):
    """count members of phi_full and count general invertible matrices."""
    found = []
    while len(found) < count:
        ps = [rng.randint(-3, 3) for _ in range(6)]
        if ps[2] * ps[5] - ps[3] * ps[4]:
            found.append(family_conjugator("phi_full", ps)[0])
    while len(found) < 2 * count:
        t = Mat3([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        if t.det():
            found.append(t)
    return found


def test_fingerprint_automorphism_invariance():
    # R1..R10 cover the seven 2-dimensional types (remark 1)
    rng = random.Random(31)
    for ident in [f"R{k}" for k in range(1, 11)] + ["T2", "X6", "Z4"]:
        s = s_of(ident)
        fp = fingerprint(s)
        for t in _random_conjugators(rng, 5):
            assert fingerprint(image_span(s, t)) == fp, (ident, t)


def test_fingerprint_transpose_swaps_sides():
    for ident in ("T2", "X6", "Z4"):
        s = s_of(ident)
        st = image_span(s, Mat3.identity(), (0, 1, 2))
        assert fingerprint(st) == fingerprint(s).swapped()


def test_one_sided_units():
    # e11 is a left unit of span(e11, e12) and a right unit of span(e11, e21);
    # neither span has a unit on the other side, nor a two-sided one
    for gens, side in (([e(1, 1), e(1, 2)], "left"), ([e(1, 1), e(2, 1)], "right")):
        tab = _Table(span(gens))
        other = "right" if side == "left" else "left"
        assert mat(tab, tab.unit(side)) == e(1, 1)
        assert tab.unit(other) is None
        fp = fingerprint(span(gens))
        assert not fp.has_unit
        assert (fp.has_left_unit, fp.has_right_unit) == (side == "left", side == "right")


def _two_sided_unit(tab):
    """A u with u b = b = b u for every basis element b, from one solve of
    both sides' equations; None if absent.  A reference for has_unit, which
    the fingerprint reads off the two one-sided solves."""
    if not tab.k:
        return None
    rows, rhs = [], []
    for j, b in enumerate(tab.basis):
        for cols in ([tab.c[i][j] for i in range(tab.k)], [tab.c[j][i] for i in range(tab.k)]):
            rows += [list(row) for row in zip(*cols)]
            rhs += b
    return solve_linear(rows, rhs)


def _rank(m):
    return echelonize([list(r) for r in m.rows]).rank


def _unit_modulo_radical(tab):
    """A u with u b - b and b u - b in the radical for every basis element b:
    each functional f that vanishes on the radical must give f(u b) = f(b)
    and f(b u) = f(b)."""
    functionals = kernel_basis(tab.rad, tab.k)
    rows, rhs = [], []
    for j, b in enumerate(tab.basis):
        for cols in ([tab.c[i][j] for i in range(tab.k)], [tab.c[j][i] for i in range(tab.k)]):
            for f in functionals:
                rows.append([sum(fl * cl for fl, cl in zip(f, col)) for col in cols])
                rhs.append(sum(fl * bl for fl, bl in zip(f, b)))
    return solve_linear(rows, rhs)


def _lifted_idempotent(s):
    """The idempotent lifting the identity of s/rad, by the Newton lift
    e -> 3e^2 - 2e^3 of a unit modulo the radical, as a matrix: a reference
    for the ranks that the fingerprint reads as traces."""
    tab = _Table(s).closed()
    e = mat(tab, _unit_modulo_radical(tab))
    for _ in range(5):
        e2 = e @ e
        if e2 == e:
            return e
        e = e2.scale(3) - (e2 @ e).scale(2)
    raise AssertionError("the idempotent lift did not converge")


def _non_nilpotent_spans():
    spans = {ident: c.subspace() for ident, c in COMPLEMENTS.items()}
    for entry in builtin_catalog():
        spans[entry.id], _ = entry.specialize(entry.standard_values())
    return {ident: s for ident, s in spans.items() if len(_Table(s).rad) < s.dim}


def test_principal_idempotent_ranks():
    # the fingerprint reads a trace; the reference lifts and takes the rank
    spans = _non_nilpotent_spans()
    # all but the nilpotent R1, R2 and T1, and the nine complements
    assert len(spans) == 68 + len(COMPLEMENTS) and set(COMPLEMENTS) <= set(spans)
    for ident, s in spans.items():
        e = _lifted_idempotent(s)
        assert e @ e == e and s.contains(e), ident
        fp = fingerprint(s)
        # a split 2-dimensional semisimple algebra also reports e1 and e2,
        # whose ranks add up to that of their sum e
        assert fp.idempotent_ranks[-1] == _rank(e), ident
        assert len(fp.idempotent_ranks) == 1 or fp.dim == fp.ss_dim == 2, ident
    assert _rank(_lifted_idempotent(s_of("X4"))) == 2
    assert _rank(_lifted_idempotent(s_of("X1"))) == 1
    # a nilpotent algebra has no nonzero idempotent, in any dimension
    assert fingerprint(s_of("T1")).idempotent_ranks == ()


def test_unit_flag_matches_a_two_sided_solve():
    spans = _non_nilpotent_spans()
    nilpotent = [entry.id for entry in builtin_catalog() if entry.id not in spans]
    assert nilpotent == ["R1", "R2", "T1"]
    for ident in nilpotent:
        spans[ident] = s_of(ident)
    units = 0
    for ident, s in spans.items():
        fp = fingerprint(s)
        two = _two_sided_unit(_Table(s).closed())
        assert fp.has_unit == (two is not None), ident
        units += fp.has_unit
    # both answers occur
    assert 0 < units < len(spans)


def _semisimple2_idempotents(s):
    """The nonzero idempotents of a 2-dimensional semisimple algebra, as
    matrices: its unit u, and when the algebra splits also e1 and e2.  For a
    w outside span(u), w^2 = a w + b u; the algebra splits when the
    discriminant a^2 + 4b is a rational square, and then e1 = (w - r2 u) /
    (r1 - r2) and e2 = u - e1 for the roots r1, r2 = (a +- root) / 2.  A
    reference for the ranks that the fingerprint reads off the trace form."""
    tab = _Table(s).closed()
    assert tab.k == 2 and not tab.rad
    unit = _two_sided_unit(tab)
    # the first basis element outside span(unit)
    w = tab.basis[0] if unit[1] else tab.basis[1]
    a, b = solve_linear([list(r) for r in zip(w, unit)], tab.mul(w, w))
    disc = a * a + 4 * b
    assert disc, "separable quadratic expected in a semisimple algebra"
    root = rational_sqrt(disc)
    u = mat(tab, unit)
    if root is None:
        return [u]
    e1 = mat(tab, w).scale(1 / root) + u.scale((root - a) / (2 * root))
    return [e1, u - e1, u]


#: fixed invertible integer conjugators (determinants 1, 1 and -1)
_CONJUGATORS = (
    Mat3([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    Mat3([[1, 2, 3], [0, 1, 4], [5, 6, 0]]),
    Mat3([[2, 1, 1], [1, 1, 0], [1, 0, 0]]),
)


@pytest.mark.parametrize("gens, ranks", [
    # Q x Q with the unit of rank 2, then of rank 3
    ([e(1, 1), e(2, 2)], (1, 2)),
    ([e(1, 1), e(2, 2) + e(3, 3)], (1, 2, 3)),
    # Q(sqrt d) in the upper left block: its identity and a w with w^2 = d
] + [([e(1, 1) + e(2, 2), e(1, 2).scale(d) + e(2, 1)], (2,)) for d in (-3, -1, 2, 3, 5)])
def test_semisimple2_ranks_match_the_discriminant_reference(gens, ranks):
    s = span(gens)
    for t in _CONJUGATORS:
        assert t.det()
    for image in [s] + [image_span(s, t) for t in _CONJUGATORS]:
        idempotents = _semisimple2_idempotents(image)
        assert all(x @ x == x and image.contains(x) for x in idempotents)
        assert tuple(sorted({_rank(x) for x in idempotents})) == ranks
        assert fingerprint(image).idempotent_ranks == ranks


def test_mixed_family_has_one_rank():
    # in R5 (D5) and R6 (D6) every u + t n is idempotent, of the rank of u
    for ident in ("R5", "R6"):
        s = s_of(ident)
        tab = _Table(s)
        u, n = _lifted_idempotent(s), mat(tab, tab.rad[0])
        for t in (0, 1, -1, 2, -2, 3, Fraction(1, 2)):
            x = u + n.scale(t)
            assert x @ x == x and _rank(x) == _rank(u), (ident, t)
        assert fingerprint(s).idempotent_ranks == (_rank(u),)


@pytest.mark.parametrize("gens, defect", [
    # g^2 is not a multiple of g, so g scaled by its first ratio is no idempotent
    ([e(1, 1) + e(1, 2) + e(2, 1)], "scaled generator is not idempotent"),
    # the radical is spanned by e23, and u^2 leaves span(u, e23)
    ([e(1, 1) + e(1, 2) + e(2, 1), e(2, 3)], "leaves the span of its two factors"),
    # the radical is spanned by e23, and u e23 = e13 is not a multiple of it
    ([e(1, 1) + e(1, 2), e(2, 3)], "not a multiple of n"),
    # zero radical, but no element of the span is a two-sided unit for it
    ([e(1, 1), e(1, 2) + e(2, 1)], "semisimple algebras are unital"),
])
def test_soundness_checks_reject_non_closed_spans(gens, defect):
    # whatever else is wrong with the span, the table's closure check
    # refuses it before any invariant is read
    s = span(gens)
    assert not s.is_subalgebra()[0], defect
    with pytest.raises(SoundnessError, match="a basis product leaves the span"):
        fingerprint(s)


def test_fingerprint_rejects_non_closed_span_of_dim_3():
    # e12 e23 = e13 leaves the span
    s = span([e(1, 1), e(1, 2), e(2, 3)])
    with pytest.raises(SoundnessError, match="leaves the span"):
        fingerprint(s)


def test_constant_polynomial_entries_read_as_rationals():
    # R5 has no parameters, but its symbolic span holds constant polynomials
    symbolic = entry_by_id("R5").s_subspace()
    fp = fingerprint(symbolic)
    assert fp == fingerprint(s_of("R5"))
    assert fp.two_dim_type() == "D5" and fp.idempotent_ranks == (2,)


def test_parametric_span_is_not_supported():
    s = entry_by_id("R8").s_subspace()
    for check in (fingerprint, _Table):
        with pytest.raises(NotSupported):
            check(s)


def _catalog_subalgebras():
    subs = {}
    for entry in builtin_catalog():
        subs[entry.id], _ = entry.specialize({p: 2 + k for k, p in enumerate(entry.params)})
    return subs


def test_catalog_fingerprints_form_few_matrix_products(monkeypatch):
    # the structure constants need sum k^2 = 890 basis products over the 71
    # entries; every other invariant reads them
    subs = _catalog_subalgebras()
    assert len(subs) == 71
    count = [0]
    product = Mat3.__matmul__

    def counted(a, b):
        count[0] += 1
        return product(a, b)

    monkeypatch.setattr(Mat3, "__matmul__", counted)
    for s in subs.values():
        fingerprint(s)
    assert count[0] <= 1500


def test_structure_constants_and_trace_form_nilpotency():
    subs = _catalog_subalgebras()
    subs.update({f"L5_{k}": COMPLEMENTS[f"L5_{k}"].subspace() for k in range(1, 7)})
    nilpotent = set()
    for ident, s in subs.items():
        tab = _Table(s)
        basis = [Mat3.from_coords(r) for r in s.echelon.rows]
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                combo = Mat3.zero()
                for c, b in zip(tab.c[i][j], basis):
                    combo = combo + b.scale(c)
                assert combo == x @ y, (ident, i, j)
        # a nilpotent subalgebra of M3 is strictly upper triangular up to
        # conjugacy, so it is nilpotent exactly when s^3 = 0
        cube_zero = all(x @ y @ z == Mat3.zero() for x in basis for y in basis for z in basis)
        assert (len(tab.rad) == tab.k) == cube_zero, ident
        if cube_zero:
            nilpotent.add(ident)
    assert {"R1", "R2", "T1"} <= nilpotent < set(subs)


#: a fingerprint with every sided field False, so that turning one on
#: separates it
_BASE = Fingerprint(
    dim=3, rad_dims=(2, 1, 0), ss_dim=1, has_unit=False, has_left_unit=False,
    has_right_unit=False, rad_in_left_ann=False, rad_in_right_ann=False,
    idempotent_ranks=(1,), ann_radsq_has_idempotent=False,
)


@pytest.mark.parametrize("label, changes", [
    ("dim", {"dim": 4}),
    ("rad_dims", {"rad_dims": (2, 0, 0)}),
    ("ss_dim", {"ss_dim": 2}),
    ("has_unit", {"has_unit": True}),
    ("idempotent_ranks", {"idempotent_ranks": (1, 2)}),
    ("ann_radsq_has_idempotent", {"ann_radsq_has_idempotent": True}),
    ("one-sided units", {"has_left_unit": True}),
    ("one-sided units", {"has_right_unit": True}),
    ("annihilator containments", {"rad_in_left_ann": True}),
    ("annihilator containments", {"rad_in_right_ann": True}),
    # the first separating entry is named, whatever follows it
    ("ss_dim", {"ss_dim": 2, "has_unit": True, "has_left_unit": True}),
    ("one-sided units", {"has_left_unit": True, "rad_in_right_ann": True}),
])
def test_separated_by_names_the_first_separating_entry(label, changes):
    other = replace(_BASE, **changes)
    assert _BASE.separated_by(other) == label
    assert other.separated_by(_BASE) == label


def test_separated_by_is_none_in_either_orientation():
    left = replace(_BASE, has_left_unit=True, rad_in_right_ann=True)
    assert left.separated_by(left) is None
    assert left.separated_by(left.swapped()) is None
    assert left.swapped() == replace(_BASE, has_right_unit=True, rad_in_left_ann=True)


def test_separated_by_falls_back_to_the_whole_fingerprint():
    # the units agree as they stand and the annihilator containments after
    # the transpose, but no one orientation matches both
    a = replace(_BASE, has_left_unit=True, rad_in_left_ann=True)
    b = replace(_BASE, has_left_unit=True, rad_in_right_ann=True)
    assert a.separated_by(b) == "fingerprint"
    assert b.separated_by(a) == "fingerprint"


def test_separated_by_t4_t6_only_up_to_the_transpose():
    t4, t6 = fingerprint(s_of("T4")), fingerprint(s_of("T6"))
    assert t4 != t6 and t4.separated_by(t6) is None
