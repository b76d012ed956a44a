import random
from fractions import Fraction

import pytest

from m3decomp.errors import UndecidedPivot
from m3decomp.linalg import echelonize, ff_inverse, solve_linear
from m3decomp.scalars import ConstraintSet, PolynomialRing


def test_identity_rank():
    rows = [[Fraction(i == j) for j in range(3)] for i in range(3)]
    ech = echelonize(rows)
    assert ech.rank == 3
    assert all(c == 1 for c in ech.certificates)


def test_diagonal_parametric_rank():
    R = PolynomialRing(("f",))
    f = R.gen("f")
    z = R.zero()
    c = ConstraintSet([f])
    ech = echelonize([[f, z], [z, f]], c)
    assert ech.rank == 2
    assert ech.certificates == [f, f]


def test_undecided_pivot():
    R = PolynomialRing(("f",))
    f = R.gen("f")
    z = R.zero()
    with pytest.raises(UndecidedPivot):
        echelonize([[f + 1, z], [z, f]], ConstraintSet([f]))


def test_r10_scaled_rows_rank():
    # the two (7,2) case-10 generators after clearing the 1/f entry
    R = PolynomialRing(("d", "f"))
    d, f = R.gens()
    z, o = R.zero(), R.one()
    row1 = [z, z, z, f, d * f, f, z, o, f]
    row2 = [z, z, z, z, o, f, o, o, o + f - d * f]
    assert echelonize([row1, row2], ConstraintSet([f])).rank == 2
    # oracle: specialize f := 1 and reduce over Q
    rows_q = [[x.eval({"d": 0, "f": 1}) for x in row] for row in (row1, row2)]
    assert echelonize(rows_q).rank == 2


def test_rank_matches_specialization_randomized():
    R = PolynomialRing(("s", "t"))
    s, t = R.gens()
    z, o = R.zero(), R.one()
    c = ConstraintSet([s])
    rows = [[s, z, o + t], [z, s, t], [s, s, o + t + t]]
    rank = echelonize(rows, c).rank
    rng = random.Random(3)
    hits = 0
    while hits < 100:
        sv = rng.randint(-10, 10)
        tv = rng.randint(-10, 10)
        if sv == 0:
            continue
        hits += 1
        conc = [[x.eval({"s": sv, "t": tv}) for x in row] for row in rows]
        assert echelonize(conc).rank == rank


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
    numer, det = ff_inverse(m, c)
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
        rank = echelonize(rows).rank
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


def test_undecided_pivot_outside_the_grammar():
    R = PolynomialRing(("x",))
    x = R.gen("x")
    # a rational coefficient cannot be printed in the catalog grammar; the
    # pivot error must still be raised as itself
    with pytest.raises(UndecidedPivot, match=r"\(-2\*x\+3\)/3") as info:
        echelonize([[Fraction(-2, 3) * x + 1, R.zero()]])
    assert info.value.candidates == (Fraction(-2, 3) * x + 1,)
    # integer polynomials keep their grammar rendering
    with pytest.raises(UndecidedPivot) as info:
        echelonize([[x + 1, R.zero()]])
    assert str(info.value) == "no certified pivot among nonzero entries: x+1"


def test_normalized_echelon_rows():
    # content divided out, leading entry made positive
    q = [Fraction(-2, 3), Fraction(4, 9), Fraction(0)]
    assert echelonize([q]).rows == [[3, -2, 0]]
    R = PolynomialRing(("x",))
    x = R.gen("x")
    assert echelonize([[R.constant(v) for v in q]]).rows == [[3, -2, 0]]
    row = [Fraction(-2, 3) * x, Fraction(4, 9) * x + Fraction(1, 3), R.zero()]
    assert echelonize([row], ConstraintSet([x])).rows == [[6 * x, -4 * x - 3, 0]]
    # a rational entry is a constant of the ring: mixed rows reduce alike
    mixed = [Fraction(-2, 3) * x, Fraction(4, 9) * x + Fraction(1, 3), Fraction(0)]
    assert echelonize([mixed], ConstraintSet([x])).rows == [[6 * x, -4 * x - 3, 0]]
    rows = [[x, Fraction(1), Fraction(0)], [Fraction(0), x, Fraction(2)]]
    lifted = [[v * R.one() for v in r] for r in rows]
    assert (echelonize(rows, ConstraintSet([x])).rows
            == echelonize(lifted, ConstraintSet([x])).rows)


def _q(*xs):
    return [Fraction(x) for x in xs]


def test_solve_linear_unique_solution():
    assert solve_linear([_q(2, 1), _q(1, 3)], _q(5, 10)) == [1, 3]


def test_solve_linear_sets_free_unknowns_to_zero():
    # the middle unknown is free: it is left at 0, the pivots read off
    assert solve_linear([_q(1, 2, 1), _q(2, 4, 3)], _q(4, 11)) == [1, 0, 3]


def test_solve_linear_inconsistent_system():
    assert solve_linear([_q(1, 1), _q(2, 2)], _q(1, 3)) is None
