import random
import time
from fractions import Fraction

import pytest

from m3decomp.errors import DomainMismatch, MissingVariable, NotSupported, ParseError
from m3decomp.scalars import (
    MAX_PRIME,
    ConstraintSet,
    PolynomialRing,
    certified_nonzero,
    check_prime,
    exact,
    first_violation,
    leading_coefficient,
    parse_poly,
    parse_rational,
    poly_to_string,
    rational,
    rational_content,
)


def ring(*names):
    return PolynomialRing(names)


def test_rational_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if b != 0:
            assert (a / b) * b == a


def test_fraction_normalization_idempotent():
    x = Fraction(-6, 8)
    assert x.numerator == -3 and x.denominator == 4
    assert Fraction(x.numerator, x.denominator) == x


def test_poly_eval_substitution():
    R = ring("y")
    y = R.gen("y")
    assert (1 - y).eval({"y": 0}) == Fraction(1)


def test_poly_eval_constraint_boundary():
    R = ring("e", "u")
    e, u = R.gens()
    assert (e * u - 1).eval({"e": 1, "u": 1}) == Fraction(0)


def test_poly_eval_theorem4_relation():
    # n = d(m-p)-e evaluated by hand: 2*(3-1)-4 = 0
    R = ring("d", "e", "m", "p")
    d, e, m, p = R.gens()
    assert (d * (m - p) - e).eval({"d": 2, "m": 3, "p": 1, "e": 4}) == Fraction(0)


def test_poly_eval_missing_variable():
    R = ring("y")
    y = R.gen("y")
    with pytest.raises(MissingVariable):
        (y + 1).eval({})


def test_poly_eval_is_ring_homomorphism_randomized():
    R = ring("a", "b", "c")
    rng = random.Random(7)
    gens = R.gens()

    def random_poly():
        p = R.zero()
        for _ in range(rng.randint(1, 5)):
            term = R.constant(rng.randint(-4, 4))
            for g in gens:
                term = term * g ** rng.randint(0, 2)
            p = p + term
        return p

    for _ in range(40):
        p, q = random_poly(), random_poly()
        sigma = {n: rng.randint(-5, 5) for n in R.names}
        assert (p * q).eval(sigma) == p.eval(sigma) * q.eval(sigma)
        assert (p + q).eval(sigma) == p.eval(sigma) + q.eval(sigma)


def test_constraint_satisfied():
    # first_violation names the broken side condition, or None when all hold
    R = ring("f")
    f = R.gen("f")
    assert first_violation(ConstraintSet([f]), {"f": 1}) is None
    Ry = ring("y")
    y = Ry.gen("y")
    assert first_violation(ConstraintSet([y]), {"y": 0}) == y


def test_certified_nonzero():
    R = ring("e", "f", "u")
    e, f, u = R.gens()
    c = ConstraintSet([f, e * u - 1])
    assert certified_nonzero(R.constant(Fraction(-3, 2)), c)
    assert certified_nonzero(f, c)
    assert certified_nonzero(f * f, c)
    assert certified_nonzero((e * u - 1) * f * 2, c)
    assert not certified_nonzero(e, c)
    assert not certified_nonzero(f + 1, c)
    assert not certified_nonzero(R.zero(), c)


def test_exact_divide():
    R = ring("x", "y")
    x, y = R.gens()
    p = (x + y) * (x - y) * 3
    assert p / (x + y) == (x - y) * 3
    with pytest.raises(ValueError):
        p / (x + 1)


def test_polynomials_answer_the_number_protocol():
    R = ring("x", "y")
    x, y = R.gens()
    p = x * 6 - y * 4
    # truth value: nonzero, as for a rational
    assert p and not R.zero() and not (p - p)
    # a rational or constant divisor scales; a rational over a constant
    # polynomial is a rational
    assert p / 2 == p / Fraction(2) == p / R.constant(2) == x * 3 - y * 2
    assert Fraction(3) / R.constant(6) == Fraction(1, 2)
    assert type(Fraction(3) / R.constant(6)) is Fraction
    for zero in (0, Fraction(0), R.zero()):
        with pytest.raises(ZeroDivisionError):
            p / zero
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / R.zero()
    with pytest.raises(DomainMismatch):
        Fraction(1) / x
    with pytest.raises(DomainMismatch):
        p / ring("x", "z").gen("x")


def test_rational_reads_constants_only():
    R = ring("x", "y")
    x, _ = R.gens()
    assert rational(R.constant(Fraction(2, 3))) == Fraction(2, 3)
    assert type(rational(R.constant(7))) is Fraction
    assert rational(R.zero()) == 0 and rational(Fraction(5)) == 5
    with pytest.raises(DomainMismatch):
        rational(x + 1)


def test_content_and_leading_coefficient_of_mixed_scalars():
    R = ring("x", "y")
    x, y = R.gens()
    row = [Fraction(0), Fraction(4, 3), x * 2 - y * Fraction(8, 5)]
    # gcd(4, 2, 8) over lcm(3, 1, 5)
    assert rational_content(row) == Fraction(2, 15)
    assert leading_coefficient(y * 5 - x * 3) == -3
    assert leading_coefficient(Fraction(-2, 7)) == Fraction(-2, 7)


def test_parser_roundtrip():
    R = ring("d", "f", "y")
    d, f, y = R.gens()
    cases = [f * y - 1, -(f * y), d * (f - y) + 2, R.constant(0), f * f * f - 2 * d]
    for p in cases:
        assert parse_poly(poly_to_string(p), R) == p


def test_parser_examples():
    R = ring("b", "m", "p")
    b, m, p = R.gens()
    assert parse_poly("m*(m-p)", R) == m * m - m * p
    assert parse_poly("-(b+1)", R) == -b - 1
    assert parse_poly("  2 * m -  3", R) == 2 * m - 3


def test_parser_rejects_division():
    R = ring("f")
    with pytest.raises(ParseError):
        parse_poly("1/f", R)
    with pytest.raises(ParseError):
        parse_poly("f^2", R)
    with pytest.raises(ParseError):
        parse_poly("q", R)


def test_parse_rational_refuses_exponents_at_once():
    # Fraction would expand the exponent into as many digits
    assert parse_rational("-3/2") == Fraction(-3, 2)
    for text in ("1e-999999999", "1E999999999", "2.5e3"):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_rational(text)
        assert time.perf_counter() - start < 1, text


def test_cast_between_rings():
    R = ring("a", "b")
    S = ring("a", "b", "lam")
    p = R.gen("a") * 2 + R.gen("b")
    q = p.cast(S)
    assert q.eval({"a": 1, "b": 2, "lam": 9}) == Fraction(4)


def test_exact_scalars():
    assert exact(3) == Fraction(3) and type(exact(3)) is Fraction
    q = Fraction(2, 3)
    assert exact(q) is q
    x = ring("x").gen("x")
    assert exact(x) is x
    for bad in (0.5, 1.0, "1", None):
        with pytest.raises(DomainMismatch):
            exact(bad)
    with pytest.raises(DomainMismatch):
        x.eval({"x": 0.5})
    assert type(x.eval({"x": 2})) is Fraction


def test_rationals_mix_with_polynomials():
    R = ring("x", "y")
    x, y = R.gens()
    p = x * y + 1
    # a rational is a constant of the ring, from either side
    assert p * Fraction(2, 3) == Fraction(2, 3) * p == p * R.constant(Fraction(2, 3))
    assert 2 * p == p + p
    assert not (p * 0) and (p * 0).ring is R
    assert p + Fraction(0) is p and 0 + p is p
    assert p - 1 == x * y and 1 - p == -(x * y)
    assert p == p + 0 and x * y == p - Fraction(1)
    # equal scalars hash alike, so a constant and its rational are one key
    assert len({R.constant(Fraction(2, 3)), Fraction(2, 3), R.zero(), 0}) == 2
    with pytest.raises(DomainMismatch):
        x + ring("x", "z").gen("x")


def test_check_prime_trial_divides_up_to_the_bound_only():
    # the Mersenne prime 2^61 - 1 would need about 1.5e9 trial divisions
    for p, bound in ((2**61 - 1, MAX_PRIME), (10**14 + 31, MAX_PRIME), (2**61 - 1, 127)):
        with pytest.raises(NotSupported, match=f"primes up to {bound}, not {p}$"):
            check_prime(p, bound)
    # a factor up to the bound still shows a composite above it
    with pytest.raises(NotSupported, match="^9 is not a prime$"):
        check_prime(9)
    # 11^2 has no factor up to 7, so it is out of range rather than composite
    with pytest.raises(NotSupported, match="up to 7, not 121$"):
        check_prime(121)
    for p in (2, 3, 5, 7):
        check_prime(p)
    for p in (-3, 0, 1, 4, 6):
        with pytest.raises(NotSupported, match="is not a prime"):
            check_prime(p)
    check_prime(127, 127)
    # with the number itself as the bound, trial division reaches its root
    check_prime(10**6 + 3, 10**6 + 3)
    with pytest.raises(NotSupported, match="is not a prime"):
        check_prime(1009 * 1013, 1009 * 1013)
