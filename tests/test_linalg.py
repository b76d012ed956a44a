import math
import random
from fractions import Fraction

import pytest

from m3decomp.errors import UndecidedPivot
from m3decomp.linalg import echelonize, ff_inverse, kernel_basis, solve_linear
from m3decomp.scalars import ConstraintSet, PolynomialRing, certified_nonzero


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


def _primitive(row):
    """A rational row as coprime integers with a positive leading entry."""
    den = math.lcm(*(Fraction(x).denominator for x in row))
    ints = [int(x * den) for x in row]
    lead = next(v for v in ints if v)
    g = math.gcd(*ints) * (1 if lead > 0 else -1)
    return [v // g for v in ints]


def _reference_rref(rows, n):
    """Plain Fraction Gauss-Jordan: the reduced row echelon form's nonzero
    rows (primitive) and its pivot columns."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(n):
        r = len(pivots)
        target = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if target is None:
            continue
        work[r], work[target] = work[target], work[r]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col] / work[r][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return [_primitive(row) for row in work[:len(pivots)]], pivots


def test_echelon_agrees_with_gaussian_after_specialization():
    rng = random.Random(5)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(4)]
        ech = echelonize(rows)
        assert (ech.rows, ech.pivot_cols) == _reference_rref(rows, 5)


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
    # int entries come back as Fractions, so the kernel read off them is exact
    assert all(type(v) is Fraction for r in echelonize([[1, 2]]).rows for v in r)
    assert [type(v) for v in kernel_basis([[1, 2]], 2)[0]] == [Fraction, Fraction]


def _q(*xs):
    return [Fraction(x) for x in xs]


def test_solve_linear_unique_solution():
    assert solve_linear([_q(2, 1), _q(1, 3)], _q(5, 10)) == [1, 3]


def test_solve_linear_sets_free_unknowns_to_zero():
    # the middle unknown is free: it is left at 0, the pivots read off
    assert solve_linear([_q(1, 2, 1), _q(2, 4, 3)], _q(4, 11)) == [1, 0, 3]


def test_solve_linear_inconsistent_system():
    assert solve_linear([_q(1, 1), _q(2, 2)], _q(1, 3)) is None


def test_echelonize_matches_reference_gauss_jordan():
    rng = random.Random(11)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    for trial in range(60):
        n = rng.randint(2, 9)
        if trial % 3 == 0:
            # rows fed with their pivots right to left: each row reaches
            # further left, so the columns of the kept rows are cleared again
            rows = [[Fraction(0)] * (n - 1 - i) + [entry() or Fraction(1)]
                    + [entry() for _ in range(i)] for i in range(n)]
        else:
            # random combinations of fewer basis rows: rank-deficient, with
            # rows that reduce to zero
            basis = [[entry() for _ in range(n)] for _ in range(rng.randint(1, n))]
            rows = [[sum((rng.randint(-3, 3) * b[j] for b in basis), Fraction(0))
                     for j in range(n)] for _ in range(rng.randint(1, n + 3))]
        ech = echelonize(rows)
        assert (ech.rows, ech.pivot_cols) == _reference_rref(rows, n)


def test_echelonize_certified_pivot_right_of_an_uncertified_entry():
    R = PolynomialRing(("x", "y"))
    x, y = R.gens()
    z, o = R.zero(), R.one()
    c = ConstraintSet([x, y])
    # row 1: x+1 is nonzero but not certified, so its pivot is y in column 1
    rows = [[x + o, y, z, o], [x, z, y, z], [z, z, o, x]]
    ech = echelonize(rows, c)
    assert ech.rank == 3 and ech.pivot_cols == [0, 1, 2]
    assert all(certified_nonzero(p, c) for p in ech.certificates)
    # fully reduced: each pivot column vanishes in every other row, which
    # kernel_basis relies on
    for i, col in enumerate(ech.pivot_cols):
        assert all(not row[col] for k, row in enumerate(ech.rows) if k != i)


def test_echelonize_keeps_entry_sizes_small(monkeypatch):
    # cross-multiplying without ever dividing out a row's content grows the
    # entries exponentially with the rank: hundreds of thousands of bits, and
    # seconds, for one dense 9x9 rational matrix
    eliminate, bits = echelonize.__globals__["_eliminate"], []

    def spy(row, piv_row, col):
        out = eliminate(row, piv_row, col)
        bits.append(max(abs(x.numerator).bit_length() + x.denominator.bit_length() for x in out))
        return out

    monkeypatch.setitem(echelonize.__globals__, "_eliminate", spy)
    rng = random.Random(1)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(9)] for _ in range(9)]
    assert echelonize(rows).rank == 9
    assert max(bits) < 4096
