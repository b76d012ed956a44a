import random
from fractions import Fraction

import pytest

from m3decomp.errors import UndecidedPivot
from m3decomp.linalg import echelonize, ff_inverse, ff_rank
from m3decomp.scalars import ConstraintSet, PolynomialRing, poly_eval


def test_identity_rank():
    rows = [[Fraction(i == j) for j in range(3)] for i in range(3)]
    rank, certs = ff_rank(rows)
    assert rank == 3
    assert all(c == 1 for c in certs)


def test_diagonal_parametric_rank():
    R = PolynomialRing(("f",))
    f = R.gen("f")
    z = R.zero()
    c = ConstraintSet([f])
    rank, certs = ff_rank([[f, z], [z, f]], c)
    assert rank == 2
    assert certs == [f, f]


def test_undecided_pivot():
    R = PolynomialRing(("f",))
    f = R.gen("f")
    z = R.zero()
    with pytest.raises(UndecidedPivot):
        ff_rank([[f + 1, z], [z, f]], ConstraintSet([f]))


def test_r10_scaled_rows_rank():
    # the two (7,2) case-10 generators after clearing the 1/f entry
    R = PolynomialRing(("d", "f"))
    d, f = R.gens()
    z, o = R.zero(), R.one()
    row1 = [z, z, z, f, d * f, f, z, o, f]
    row2 = [z, z, z, z, o, f, o, o, o + f - d * f]
    rank, _ = ff_rank([row1, row2], ConstraintSet([f]))
    assert rank == 2
    # oracle: specialize f := 1 and reduce over Q
    rows_q = [[poly_eval(x, {"d": 0, "f": 1}) for x in row] for row in (row1, row2)]
    rank_q, _ = ff_rank(rows_q)
    assert rank_q == 2


def test_rank_matches_specialization_randomized():
    R = PolynomialRing(("s", "t"))
    s, t = R.gens()
    z, o = R.zero(), R.one()
    c = ConstraintSet([s])
    rows = [[s, z, o + t], [z, s, t], [s, s, o + t + t]]
    rank, _ = ff_rank(rows, c)
    rng = random.Random(3)
    hits = 0
    while hits < 100:
        sv = rng.randint(-10, 10)
        tv = rng.randint(-10, 10)
        if sv == 0:
            continue
        hits += 1
        conc = [[poly_eval(x, {"s": sv, "t": tv}) for x in row] for row in rows]
        assert ff_rank(conc)[0] == rank


def test_echelon_reduce_membership():
    rows = [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    ech = echelonize(rows)
    inside = [Fraction(2), Fraction(5), Fraction(1)]
    outside = [Fraction(0), Fraction(0), Fraction(5)]
    assert all(x == 0 for x in ech.reduce(inside))
    assert any(x != 0 for x in ech.reduce(outside))


def test_ff_inverse_rational():
    m = [
        [Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(0), Fraction(1)],
    ]
    numer, det = ff_inverse(m)
    # check m * (numer/det) = I
    for i in range(3):
        for j in range(3):
            acc = sum((m[i][k] * numer[k][j] for k in range(3)), Fraction(0))
            assert acc == (det if i == j else 0)


def test_ff_inverse_parametric():
    R = PolynomialRing(("y",))
    y = R.gen("y")
    z, o = R.zero(), R.one()
    c = ConstraintSet([y])
    m = [[y, z, z], [o, o, z], [z, y, o]]
    numer, det = ff_inverse(m, c, domain=R)
    for i in range(3):
        for j in range(3):
            acc = R.zero()
            for k in range(3):
                acc = acc + m[i][k] * numer[k][j]
            assert acc == (det if i == j else R.zero())


def test_echelon_agrees_with_gaussian_after_specialization():
    rng = random.Random(5)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(4)]
        rank, _ = ff_rank(rows)
        # plain elimination oracle
        work = [list(r) for r in rows]
        piv = 0
        for col in range(5):
            target = None
            for r in range(piv, 4):
                if work[r][col] != 0:
                    target = r
                    break
            if target is None:
                continue
            work[piv], work[target] = work[target], work[piv]
            for r in range(4):
                if r != piv and work[r][col] != 0:
                    factor = work[r][col] / work[piv][col]
                    work[r] = [a - factor * b for a, b in zip(work[r], work[piv])]
            piv += 1
        assert rank == piv
