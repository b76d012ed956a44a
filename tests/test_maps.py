import random
from fractions import Fraction

import pytest

from m3decomp.catalog import COMPLEMENTS, entry_by_id
from m3decomp.errors import SingularMatrix
from m3decomp.maps import (
    FAMILIES,
    PRESERVING,
    family_conjugator,
    image,
    image_span,
    is_algebra_map,
    permutation,
    preserves,
    rescaled_pair_images_63,
    rescaled_pair_images_72,
)
from m3decomp.matrices import COORD_ORDER, Mat3, span


def e(i, j):
    return Mat3.basis(i, j)


M7 = span([e(1, 1), e(1, 2), e(1, 3), e(2, 2), e(2, 3), e(3, 2), e(3, 3)])
UPPER = span([e(1, 1), e(1, 2), e(1, 3), e(2, 2), e(2, 3), e(3, 3)])


#: the plain transpose, as a twist
TRANSPOSE = (0, 1, 2)


def _image(x, t, twist=None):
    """The image of x itself under a constant conjugator: image() over
    det(T)."""
    return image(x, t, twist).scale(1 / t.det())


def _conjugator(family, values):
    return family_conjugator(family, values)[0]


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
            assert image_span(comp, Mat3.identity(), twist).same_space(comp), comp_id
        if coset is not None:
            assert image_span(comp, permutation(coset)).same_space(comp), comp_id


def test_conjugation_theta12():
    t12 = e(1, 2) + e(2, 1) + e(3, 3)
    assert _image(e(1, 1), t12) == e(2, 2)
    # image() itself is det(T) = -1 times the image
    assert image(e(1, 1), t12) == -e(2, 2)


def test_conjugation_identity():
    for (i, j) in ((1, 1), (2, 3), (3, 1)):
        assert image(e(i, j), Mat3.identity()) == e(i, j)


def test_theta23_action():
    t23 = permutation((0, 2, 1))
    assert t23 == e(1, 1) + e(2, 3) + e(3, 2)
    assert _image(e(2, 2), t23) == e(3, 3)
    assert _image(e(1, 2), t23) == e(1, 3)


def test_conjugation_singular():
    assert is_algebra_map(e(1, 1)) == (False, "singular conjugator")


def test_phi_specializations():
    # beta=gamma=kappa=nu=0, lamda=mu=1 is the 2<->3 index swap
    phi = _conjugator("phi_full", (0, 0, 0, 1, 1, 0))
    assert phi == permutation((0, 2, 1))
    # identity parameters
    ident = _conjugator("phi_full", (0, 0, 1, 0, 0, 1))
    for (i, j) in ((1, 1), (2, 1), (3, 2)):
        assert _image(e(i, j), ident) == e(i, j)


def test_phi_e11_image():
    phi = _conjugator("phi_full", (2, 3, 1, 0, 0, 1))
    assert _image(e(1, 1), phi) == e(1, 1) + e(1, 2).scale(2) + e(1, 3).scale(3)


def test_phi_delta_zero():
    with pytest.raises(SingularMatrix):
        family_conjugator("phi_full", (0, 0, 1, 1, 1, 1))


def test_psi_identity_and_e13():
    ident = _conjugator("psi", (1, 0, 0, 1, 0))
    assert _image(e(2, 2), ident) == e(2, 2)
    psi = _conjugator("psi", (5, 1, 2, 3, 4))
    assert _image(e(1, 3), psi) == e(1, 3).scale(5)


def test_psi_equals_phi_mu0_randomized():
    rng = random.Random(4)
    done = 0
    while done < 20:
        a, b, g, d, eps = (rng.randint(-5, 5) for _ in range(5))
        if a == 0 or d == 0:
            continue
        done += 1
        assert _conjugator("psi", (a, b, g, d, eps)) == _conjugator("phi_full", (b, g, d, eps, 0, a))


def _random_rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _conjugates_by(family, values, t):
    """The family member at values has conjugator t, and its images are the
    conjugates T^-1 X T: T times each image is X T."""
    return _conjugator(family, values) == t and all(
        t @ _image(e(i, j), t) == e(i, j) @ t for (i, j) in COORD_ORDER)


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
        assert _conjugates_by("phi_full", (b, g, k, l, m, n), t)


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
        assert _conjugates_by("psi", (a, b, g, d, eps), t)


def test_apply_map_theta23():
    s = span([e(2, 2), e(2, 3)])
    img = image_span(s, permutation((0, 2, 1)))
    assert img.same_space(span([e(3, 3), e(3, 2)]))


def test_apply_map_relates_case3_and_r5():
    # the group element beta=gamma=mu=0, kappa=lamda=nu=1 carries (R5) onto
    # the case-3 span, so the two lie in one orbit
    phi = _conjugator("phi_full", (0, 0, 1, 1, 0, 1))
    case3 = span([e(2, 1) + e(2, 2) + e(3, 3), e(3, 1) + e(2, 2) + e(3, 3)])
    r5 = span([e(2, 1) + e(2, 2) + e(3, 3), e(3, 1)])
    assert image_span(r5, phi).same_space(case3)


def test_transpose_map():
    ident = Mat3.identity()
    assert image(e(1, 2), ident, TRANSPOSE) == e(2, 1)
    # the transpose is an involution
    for (i, j) in COORD_ORDER:
        assert image(image(e(i, j), ident, TRANSPOSE), ident, TRANSPOSE) == e(i, j)
    m7t = image_span(M7, ident, TRANSPOSE)
    assert not m7t.same_space(M7)
    assert m7t.same_space(
        span([e(1, 1), e(2, 1), e(3, 1), e(2, 2), e(3, 2), e(2, 3), e(3, 3)])
    )


def test_is_algebra_map_phi_symbolic():
    phi, constraints = family_conjugator("phi_full")
    ok, witness = is_algebra_map(phi, constraints=constraints)
    assert ok, witness


def test_phi_preserves_m7_symbolically():
    phi, _ = family_conjugator("phi_full")
    assert preserves(M7, phi)


def test_is_algebra_map_psi_symbolic():
    psi, constraints = family_conjugator("psi")
    ok, witness = is_algebra_map(psi, constraints=constraints)
    assert ok, witness
    assert preserves(UPPER, psi)


def test_is_algebra_map_transpose():
    ok, witness = is_algebra_map(Mat3.identity(), TRANSPOSE)
    assert ok, witness


def test_is_algebra_map_rejects_bad_map():
    # X -> P X^T P for a 3-cycle P sends the identity to P^2
    assert is_algebra_map(Mat3.identity(), (1, 2, 0)) == (False, "identity not fixed")
    # the symbolic phi conjugator without its side condition det(T) != 0
    phi, _ = family_conjugator("phi_full")
    assert is_algebra_map(phi) == (False, "singular conjugator")


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
        t1 = _conjugator("phi_full", ps[:6])
        t2 = _conjugator("phi_full", ps[6:])
        # the map of t1 after the map of t2 is the map of t2 t1, again a
        # member of the family
        comp = t2 @ t1
        values = [comp.coords()[pos] for _, pos in FAMILIES["phi_full"][0]]
        assert _conjugator("phi_full", values) == comp
        for (i, j) in COORD_ORDER:
            assert image(image(e(i, j), t2), t1) == image(e(i, j), comp)
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
        phi = _conjugator("phi_full", ps)
        assert image_span(s, phi).is_subalgebra()[0]
        assert not image_span(bad, phi).is_subalgebra()[0]


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
        phi = _conjugator("phi_full", ps)
        assert is_direct_sum(image_span(s, phi), image_span(m7, phi))
        assert not is_direct_sum(image_span(not_complement, phi), image_span(m7, phi))


@pytest.mark.parametrize("first, second, t, twist", [
    ("S3", "S4", Mat3([[1, 1, 0], [0, -1, 0], [0, 0, 1]]), None),
    ("S5", "S6", Mat3([[1, 1, 0], [0, -1, 0], [0, 0, 1]]), None),
    ("Y2", "Y7", Mat3([[1, 0, -1], [0, 1, 0], [0, 0, 1]]), None),
    ("Y4", "Y8", Mat3([[1, 1, -1], [0, 1, 0], [0, 0, 1]]), None),
    # Finding 2: psi(1, 0, -1, -1, 0) after the twist of M6U, the 1 <-> 3
    # index swap after the transpose
    ("T4", "T6", _conjugator("psi", (1, 0, -1, -1, 0)), (2, 1, 0)),
], ids=["S3-S4", "S5-S6", "Y2-Y7", "Y4-Y8", "T4-T6"])
def test_linked_parameter_free_pairs(first, second, t, twist):
    # the map of T (after the twist, if any) carries one listed summand onto
    # the other and keeps their common complement, so the two cases lie in
    # one orbit
    s, b = entry_by_id(first).specialize({})
    s2, b2 = entry_by_id(second).specialize({})
    assert twist in (None, PRESERVING[entry_by_id(first).complement_id][1])
    assert is_algebra_map(t, twist) == (True, None)
    assert image_span(s, t, twist).same_space(s2)
    assert b.same_space(b2) and preserves(b, t, twist)
    if twist is not None:
        # the twist is needed: T alone does not carry one onto the other
        assert not image_span(s, t).same_space(s2)
