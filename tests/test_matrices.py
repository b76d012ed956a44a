import random
from fractions import Fraction

import pytest

from m3decomp.errors import DomainMismatch
from m3decomp.matrices import Mat3, is_direct_sum, span
from m3decomp.scalars import ConstraintSet, PolynomialRing


def e(i, j):
    return Mat3.basis(i, j)


def test_structure_constants():
    assert e(1, 2) @ e(2, 1) == e(1, 1)
    assert e(2, 1) @ e(2, 3) == Mat3.zero()


def test_idempotent_r5_generator():
    u = e(2, 1) + e(2, 2) + e(3, 3)
    assert u @ u == u


def test_mat_mul_associativity_randomized():
    rng = random.Random(2)
    for _ in range(30):
        mats = [
            Mat3([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
            for _ in range(3)
        ]
        a, b, c = mats
        assert (a @ b) @ c == a @ (b @ c)
    E = Mat3.identity()
    assert E @ mats[0] == mats[0] and mats[0] @ E == mats[0]


def test_domain_mismatch():
    y = PolynomialRing(("y",)).gen("y")
    z = PolynomialRing(("z",)).gen("z")
    with pytest.raises(DomainMismatch):
        Mat3.identity().scale(y) @ Mat3.identity().scale(z)
    with pytest.raises(DomainMismatch):
        Mat3.identity().scale(y) + Mat3.identity().scale(z)
    with pytest.raises(DomainMismatch):
        Mat3.identity().scale(0.5)


def test_rational_matrix_mixes_with_polynomial_matrix():
    R = PolynomialRing(("y",))
    y = R.gen("y")
    q = Mat3([[1, Fraction(1, 2), 0], [0, 3, -1], [2, 0, 1]])
    m = e(1, 2).scale(y) + e(2, 1) + e(3, 3).scale(y * y - 1)

    def lift(a):
        return Mat3([[x * R.one() for x in row] for row in a.rows])

    assert all(type(x) is Fraction for x in q.coords())
    assert all(x.ring is R for x in lift(q).coords())
    assert q @ m == lift(q) @ lift(m) and m @ q == lift(m) @ lift(q)
    assert q + m == lift(q) + lift(m)
    assert q == lift(q) and hash(q) == hash(lift(q))
    assert span([q, m]).dim == span([lift(q), lift(m)]).dim == 2


def test_adjugate_and_det_by_cofactors():
    R = PolynomialRing(("b", "g", "k", "l", "m", "n"))
    b, g, k, l, m, n = R.gens()
    t = Mat3([[1, b, g], [0, k, l], [0, m, n]])
    assert t.det() == k * n - l * m
    assert t @ t.adjugate() == Mat3.identity().scale(t.det())
    assert t.adjugate() @ t == Mat3.identity().scale(t.det())
    q = Mat3([[2, Fraction(1, 2), 0], [1, 3, -1], [2, 0, 1]])
    assert q.det() == Fraction(9, 2) and q @ q.adjugate() == Mat3.identity().scale(q.det())


def test_conjugation_needs_only_the_determinant_certified():
    # no entry of this T is certified nonzero, only kn - lm: a pivoting
    # inverse would be undecided at k, the cofactors are not
    from m3decomp.maps import is_algebra_map

    R = PolynomialRing(("k", "l", "m", "n"))
    k, l, m, n = R.gens()
    t = Mat3([[1, 0, 0], [0, k, l], [0, m, n]])
    assert t.det() == k * n - l * m
    assert is_algebra_map(t, constraints=ConstraintSet([k * n - l * m])) == (True, None)


def test_span_dims():
    s = span([e(2, 1), e(3, 1)])
    assert s.dim == 2
    assert span([Mat3.identity()]).dim == 1
    assert span([Mat3.zero()]).dim == 0


def test_span_r10_scaled():
    R = PolynomialRing(("d", "f"))
    d, f = R.gens()
    c = ConstraintSet([f])
    z, o = R.zero(), R.one()
    g1 = Mat3([[z, z, z], [f, d * f, f], [z, o, f]])
    g2 = Mat3([[z, z, z], [z, o, f], [o, o, o + f - d * f]])
    s = span([g1, g2], c)
    assert s.dim == 2


def test_span_scaling_invariance():
    R = PolynomialRing(("y",))
    y = R.gen("y")
    c = ConstraintSet([y])
    g = Mat3.basis(2, 1) + Mat3.basis(2, 2).scale(y)
    h = Mat3.basis(3, 1)
    s1 = span([g, h], c)
    s2 = span([g.scale(y), h.scale(y * y)], c)
    assert s1.same_space(s2)


def test_span_idempotent():
    s = span([e(2, 1) + e(2, 2), e(3, 1), e(2, 1) - e(3, 1)])
    s2 = span([Mat3.from_coords(r) for r in s.echelon.rows])
    assert s.same_space(s2)
    assert s.echelon.rows == s2.echelon.rows


def test_contains():
    s = span([e(2, 1), e(3, 1)])
    assert s.contains(e(2, 1) + e(3, 1).scale(2))
    assert not s.contains(e(1, 1))


def test_contains_r8_closure():
    R = PolynomialRing(("y",))
    y = R.gen("y")
    c = ConstraintSet([y])
    one = R.one()
    v1 = (
        Mat3.basis(2, 1)
        + Mat3.basis(2, 2).scale(one - y)
        + Mat3.basis(2, 3)
    )
    v2 = (
        Mat3.basis(3, 1)
        + Mat3.basis(2, 2)
        + Mat3.basis(2, 3)
        + Mat3.basis(3, 3).scale(y)
    )
    s = span([v1, v2], c)
    assert s.contains(v1 @ v1)
    ok, witness = s.is_subalgebra()
    assert ok and witness is None


def test_is_subalgebra_examples():
    ok, _ = span([e(2, 1), e(3, 1)]).is_subalgebra()
    assert ok
    bad, witness = span([e(1, 2), e(2, 1)]).is_subalgebra()
    assert not bad and witness == (0, 1)


def test_is_subalgebra_s12():
    R = PolynomialRing(("e", "u"))
    ev, uv = R.gens()
    c = ConstraintSet([ev, ev * uv - 1])
    z, o = R.zero(), R.one()
    E = Mat3.identity()
    v1 = Mat3([[z, z, ev * uv - 1], [o, o, o], [z, ev, o]])
    v2 = Mat3([[z, ev * uv - 1, z], [z, o, uv], [o, o, o]])
    s = span([E, v1, v2], c)
    assert s.dim == 3
    ok, witness = s.is_subalgebra()
    assert ok, witness


def test_direct_sum():
    m7 = span([e(1, 1), e(1, 2), e(1, 3), e(2, 2), e(2, 3), e(3, 2), e(3, 3)])
    s = span([e(2, 1), e(3, 1)])
    assert is_direct_sum(s, m7)
    assert is_direct_sum(m7, s)
    overlapping = span([e(1, 1)])
    assert not is_direct_sum(overlapping, m7)


def test_direct_sum_y9():
    R = PolynomialRing(("x",))
    x = R.gen("x")
    z, o = R.zero(), R.one()

    def b(i, j):
        return Mat3.basis(i, j)

    gens = [
        b(2, 1) + b(2, 2) - b(2, 3).scale(x + 1),
        b(1, 1).scale(x) + b(2, 1) + b(3, 1),
        b(1, 2).scale(x) + b(2, 2) + b(3, 2),
        b(1, 3).scale(x) + b(2, 3) + b(3, 3),
    ]
    s = span(gens)
    m = span([b(1, 1), b(1, 2), b(1, 3), b(2, 2), b(3, 3)])
    assert is_direct_sum(s, m)
    # concrete specializations agree, including the x = -1 and x = 0 edges
    for xv in (-1, 0, 1, 2, 5):
        conc = [Mat3([[p.eval({"x": xv}) for p in row] for row in g.rows]) for g in gens]
        mc = span([Mat3.basis(i, j) for (i, j) in ((1, 1), (1, 2), (1, 3), (2, 2), (3, 3))])
        assert is_direct_sum(span(conc), mc)


def test_contains_identity():
    m7 = span([e(1, 1), e(1, 2), e(1, 3), e(2, 2), e(2, 3), e(3, 2), e(3, 3)])
    assert m7.contains_identity()
    assert not span([e(2, 1), e(3, 1)]).contains_identity()
    # unital complement of the (T5) case has internal unit but not E
    t5 = span([e(2, 1) + e(2, 2), e(1, 1) + e(2, 2) + e(3, 1), e(1, 2) + e(2, 1) + e(3, 2)])
    assert not t5.contains_identity()


def test_transpose_compatibility():
    rng = random.Random(9)
    pool = [e(2, 1) + e(2, 2), e(3, 1) + e(3, 2), e(2, 1), e(3, 1) + e(2, 3), e(1, 1)]
    for _ in range(20):
        gens = rng.sample(pool, 2)
        s = span(gens)
        st = span([g.transpose() for g in gens])
        assert s.is_subalgebra()[0] == st.is_subalgebra()[0]
