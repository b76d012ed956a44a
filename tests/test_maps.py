import random
from fractions import Fraction

import pytest

from m3decomp.catalog import COMPLEMENTS, entry_by_id
from m3decomp.errors import SingularMatrix
from m3decomp.maps import (
    AUTOMORPHISM,
    ANTIAUTOMORPHISM,
    FAMILIES,
    PRESERVING,
    apply_map,
    conjugation,
    family_map,
    is_algebra_map,
    preserves,
    rescaled_pair_images_63,
    rescaled_pair_images_72,
    theta,
    transpose_map,
)
from m3decomp.matrices import Mat3, span


def e(i, j):
    return Mat3.basis(i, j)


M7 = span([e(1, 1), e(1, 2), e(1, 3), e(2, 2), e(2, 3), e(3, 2), e(3, 3)])
UPPER = span([e(1, 1), e(1, 2), e(1, 3), e(2, 2), e(2, 3), e(3, 3)])


def _permutation_map(perm):
    """Conjugation by the permutation matrix with row i the unit vector
    perm[i]."""
    return conjugation(Mat3([[int(perm[i] == j) for j in range(3)] for i in range(3)]))


def test_preserving_table_is_well_formed():
    # one record per fixed complement; every family it names is in the
    # family table, every twist and coset is a permutation of the indices,
    # and each twist X -> P X^T P and each coset's P preserve the complement
    assert PRESERVING.keys() == COMPLEMENTS.keys()
    assert {family for family, _ in PRESERVING.values()} <= FAMILIES.keys()
    perms = [twist for _, twist in PRESERVING.values()]
    perms += [coset for *_, coset in FAMILIES.values()]
    assert all(perm is None or sorted(perm) == [0, 1, 2] for perm in perms)
    for comp_id, (family, twist) in PRESERVING.items():
        comp = COMPLEMENTS[comp_id].subspace()
        coset = FAMILIES[family][2]
        if twist is not None:
            tw = _permutation_map(twist).compose(transpose_map())
            assert apply_map(tw, comp).same_space(comp), comp_id
        if coset is not None:
            assert apply_map(_permutation_map(coset), comp).same_space(comp), comp_id


def test_conjugation_theta12():
    t12 = conjugation(e(1, 2) + e(2, 1) + e(3, 3))
    assert t12.image(e(1, 1)) == e(2, 2)


def test_conjugation_identity():
    c = conjugation(Mat3.identity())
    for (i, j) in ((1, 1), (2, 3), (3, 1)):
        assert c.image(e(i, j)) == e(i, j)


def test_theta23_action():
    t23 = theta(2, 3)
    assert t23.image(e(2, 2)) == e(3, 3)
    assert t23.image(e(1, 2)) == e(1, 3)


def test_conjugation_singular():
    with pytest.raises(SingularMatrix):
        conjugation(e(1, 1))


def test_phi_specializations():
    # beta=gamma=kappa=nu=0, lamda=mu=1 is the 2<->3 index swap
    phi = family_map("phi_full", (0, 0, 0, 1, 1, 0))
    t23 = theta(2, 3)
    assert phi.matrix9 == tuple(
        tuple(x * phi.den for x in row) for row in
        [[y * t23.den ** 0 for y in row] for row in t23.matrix9]
    ) or all(
        phi.image(e(i, j)) == t23.image(e(i, j)) for (i, j) in
        [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    )
    # identity parameters
    ident = family_map("phi_full", (0, 0, 1, 0, 0, 1))
    for (i, j) in ((1, 1), (2, 1), (3, 2)):
        assert ident.image(e(i, j)) == e(i, j)


def test_phi_e11_image():
    phi = family_map("phi_full", (2, 3, 1, 0, 0, 1))
    assert phi.image(e(1, 1)) == e(1, 1) + e(1, 2).scale(2) + e(1, 3).scale(3)


def test_phi_delta_zero():
    with pytest.raises(SingularMatrix):
        family_map("phi_full", (0, 0, 1, 1, 1, 1))


def test_psi_identity_and_e13():
    ident = family_map("psi", (1, 0, 0, 1, 0))
    assert ident.image(e(2, 2)) == e(2, 2)
    psi = family_map("psi", (5, 1, 2, 3, 4))
    assert psi.image(e(1, 3)) == e(1, 3).scale(5)


def test_psi_equals_phi_mu0_randomized():
    rng = random.Random(4)
    done = 0
    while done < 20:
        a, b, g, d, eps = (rng.randint(-5, 5) for _ in range(5))
        if a == 0 or d == 0:
            continue
        done += 1
        psi = family_map("psi", (a, b, g, d, eps))
        phi = family_map("phi_full", (b, g, d, eps, 0, a))
        for (i, j) in [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)]:
            assert psi.image(e(i, j)) == phi.image(e(i, j))


def _random_rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _same_images(f, g):
    return all(f.image(e(i, j)) == g.image(e(i, j)) for i in (1, 2, 3) for j in (1, 2, 3))


def test_phi_is_conjugation_over_q():
    # phi(beta, ..., nu) is X -> T^-1 X T for T = [[1, b, g], [0, k, l], [0, m, n]]
    rng = random.Random(21)
    done = 0
    while done < 20:
        b, g, k, l, m, n = (_random_rational(rng) for _ in range(6))
        if k * n - l * m == 0:
            continue
        done += 1
        t = Mat3([[1, b, g], [0, k, l], [0, m, n]])
        assert _same_images(family_map("phi_full", (b, g, k, l, m, n)), conjugation(t))


def test_psi_is_conjugation_over_q():
    # psi(alpha, ..., epsilon) is X -> T^-1 X T for T = [[1, b, g], [0, d, e], [0, 0, a]]
    rng = random.Random(22)
    done = 0
    while done < 20:
        a, b, g, d, eps = (_random_rational(rng) for _ in range(5))
        if a == 0 or d == 0:
            continue
        done += 1
        t = Mat3([[1, b, g], [0, d, eps], [0, 0, a]])
        assert _same_images(family_map("psi", (a, b, g, d, eps)), conjugation(t))


def test_apply_map_theta23():
    s = span([e(2, 2), e(2, 3)])
    img = apply_map(theta(2, 3), s)
    assert img.same_space(span([e(3, 3), e(3, 2)]))


def test_apply_map_relates_case3_and_r5():
    # the group element beta=gamma=mu=0, kappa=lamda=nu=1 carries (R5) onto
    # the case-3 span, so the two lie in one orbit
    phi = family_map("phi_full", (0, 0, 1, 1, 0, 1))
    case3 = span([e(2, 1) + e(2, 2) + e(3, 3), e(3, 1) + e(2, 2) + e(3, 3)])
    r5 = span([e(2, 1) + e(2, 2) + e(3, 3), e(3, 1)])
    assert apply_map(phi, r5).same_space(case3)


def test_transpose_map():
    t = transpose_map()
    assert t.kind == ANTIAUTOMORPHISM
    assert t.image(e(1, 2)) == e(2, 1)
    assert t.compose(t).matrix9 == conjugation(Mat3.identity()).matrix9
    m7t = apply_map(t, M7)
    assert not m7t.same_space(M7)
    assert m7t.same_space(
        span([e(1, 1), e(2, 1), e(3, 1), e(2, 2), e(3, 2), e(2, 3), e(3, 3)])
    )


def test_is_algebra_map_phi_symbolic():
    phi = family_map("phi_full")
    ok, witness = is_algebra_map(phi)
    assert ok, witness


def test_phi_preserves_m7_symbolically():
    phi = family_map("phi_full")
    assert preserves(phi, M7)


def test_is_algebra_map_psi_symbolic():
    psi = family_map("psi")
    ok, witness = is_algebra_map(psi)
    assert ok, witness
    assert preserves(psi, UPPER)


def test_is_algebra_map_transpose():
    ok, witness = is_algebra_map(transpose_map())
    assert ok, witness


def test_is_algebra_map_rejects_bad_map():
    t = transpose_map()
    rows = [list(r) for r in conjugation(Mat3.identity()).matrix9]
    # send e11 to e12, fix everything else: violates e11^2 = e11
    rows = [[Fraction(0)] * 9 for _ in range(9)]
    for k in range(9):
        rows[k][k] = Fraction(1)
    rows[0][0] = Fraction(0)
    rows[1][0] = Fraction(1)
    bad = type(t)(rows, Fraction(1), AUTOMORPHISM)
    ok, witness = is_algebra_map(bad)
    assert not ok


def test_phi_composition_randomized():
    rng = random.Random(12)
    done = 0
    while done < 10:
        ps = [rng.randint(-3, 3) for _ in range(12)]
        d1 = ps[2] * ps[5] - ps[3] * ps[4]
        d2 = ps[8] * ps[11] - ps[9] * ps[10]
        if d1 == 0 or d2 == 0:
            continue
        done += 1
        f1 = family_map("phi_full", ps[:6])
        f2 = family_map("phi_full", ps[6:])
        comp = f1.compose(f2)
        ok, witness = is_algebra_map(comp)
        assert ok, witness


def test_lemma_rescaling_identities():
    for (computed, claimed) in rescaled_pair_images_72():
        assert computed == claimed
    for (computed, claimed) in rescaled_pair_images_63():
        assert computed == claimed


def test_apply_map_preserves_verdicts():
    rng = random.Random(8)
    s = span([e(2, 1) + e(2, 2), e(3, 1)])
    bad = span([e(1, 2), e(2, 1)])
    done = 0
    while done < 10:
        ps = [rng.randint(-3, 3) for _ in range(6)]
        if ps[2] * ps[5] - ps[3] * ps[4] == 0:
            continue
        done += 1
        phi = family_map("phi_full", ps)
        assert apply_map(phi, s).is_subalgebra()[0]
        assert not apply_map(phi, bad).is_subalgebra()[0]


def test_apply_map_preserves_direct_sum_verdict():
    from m3decomp.matrices import is_direct_sum

    m7 = span([e(i, j) for (i, j) in
               ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3))])
    s = span([e(2, 1) + e(2, 2), e(3, 1)])
    not_complement = span([e(2, 1), e(1, 1)])
    rng = random.Random(14)
    done = 0
    while done < 8:
        ps = [rng.randint(-3, 3) for _ in range(6)]
        if ps[2] * ps[5] - ps[3] * ps[4] == 0:
            continue
        done += 1
        phi = family_map("phi_full", ps)
        assert is_direct_sum(apply_map(phi, s), apply_map(phi, m7))
        assert not is_direct_sum(apply_map(phi, not_complement), apply_map(phi, m7))


@pytest.mark.parametrize("first, second, t", [
    ("S3", "S4", [[1, 1, 0], [0, -1, 0], [0, 0, 1]]),
    ("S5", "S6", [[1, 1, 0], [0, -1, 0], [0, 0, 1]]),
    ("Y2", "Y7", [[1, 0, -1], [0, 1, 0], [0, 0, 1]]),
    ("Y4", "Y8", [[1, 1, -1], [0, 1, 0], [0, 0, 1]]),
], ids=["S3-S4", "S5-S6", "Y2-Y7", "Y4-Y8"])
def test_linked_parameter_free_pairs(first, second, t):
    # conjugation by T carries one listed summand onto the other and keeps
    # their common complement, so the two cases lie in one orbit
    s, b = entry_by_id(first).specialize({})
    s2, b2 = entry_by_id(second).specialize({})
    c = conjugation(Mat3(t))
    assert is_algebra_map(c) == (True, None)
    assert apply_map(c, s).same_space(s2)
    assert b.same_space(b2) and preserves(c, b)
