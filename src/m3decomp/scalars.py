"""Exact scalars: rationals and sparse multivariate polynomials with
rational coefficients.

Two scalar kinds appear throughout the package:

  Fraction   -- arbitrary-precision rationals (the stand-in for the complex
                base field at desk scale),
  MultiPoly  -- sparse polynomials over Q in a fixed ordered variable list,
                represented as  {exponent tuple: Fraction coefficient}.

The two mix freely: a rational is a constant of every polynomial ring, so a
matrix or a row may hold both, and arithmetic between them gives a
polynomial.  Only two polynomials decide whether they may meet: their rings
must have the same variable list, or the operation raises DomainMismatch.

This module is the one gate into this world: no other module builds, parses
or takes apart an exact scalar.  `exact` admits one (ints become Fractions; a
float above all is refused), and `parse_rational` and `parse_poly` read one
from text.  Both kinds answer one number protocol, so no other module asks
which kind it holds: `not x` tests for zero, and `x / y` divides exactly
(ValueError when a polynomial divisor does not divide).  The rest lives here:
`rational` reads a constant as a Fraction, `rational_sqrt` takes a root,
`rational_content` and `leading_coefficient` normalize a row of mixed
scalars, `compile_poly` lowers a polynomial to F_p for the finite-field
oracle, and `poly_to_string` prints either kind.

A polynomial never stores zero coefficients, and every exponent tuple has one
entry per ring variable.  Monomials are ordered lexicographically on the fixed
variable order, which makes leading terms, exact division, and printed
certificates deterministic.

The text grammar for polynomials (used by catalog files) is

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := integer | identifier | '(' expr ')'
    identifier := [a-z][a-z0-9]*

with no division and insignificant whitespace.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DomainMismatch, MissingVariable, NotSupported, ParseError


def exact(x):
    """x as an exact scalar: an int becomes a Fraction, a Fraction or a
    polynomial passes unchanged, and anything else raises DomainMismatch."""
    if type(x) is Fraction or isinstance(x, MultiPoly):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise DomainMismatch(f"{x!r} is not an exact scalar")


def rational(x):
    """x as a rational: a rational passes unchanged, a constant polynomial
    gives its value, and any other polynomial raises DomainMismatch."""
    if not isinstance(x, MultiPoly):
        return x
    if not x.is_constant():
        raise DomainMismatch(f"{x} is not constant")
    return next(iter(x.terms.values()), Fraction(0))


def parse_rational(text):
    """The rational a text spells ("1", "-3/2", "0.5"), as Fraction reads it;
    ValueError for any other text, a zero denominator included."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def rational_sqrt(x):
    """The nonnegative rational square root of a rational, or None when it
    has none."""
    if x < 0:
        return None
    root = Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))
    return root if root * root == x else None


def rational_content(values):
    """The gcd of the numerators over the lcm of the denominators of the
    rational coefficients of some scalars (zero when all of them are
    zero)."""
    coeffs = [c for v in values
              for c in (v.terms.values() if isinstance(v, MultiPoly) else (v,))]
    return Fraction(math.gcd(*(c.numerator for c in coeffs)),
                    math.lcm(*(c.denominator for c in coeffs)))


def leading_coefficient(x):
    """A nonzero scalar's leading rational coefficient: the rational itself,
    or a polynomial's coefficient of its lex-leading monomial."""
    return x.leading()[1] if isinstance(x, MultiPoly) else x


def compile_poly(poly, names, p):
    """Lower a polynomial to [(coeff mod p, ((var index, exponent), ...))],
    the form `gfq.GFq.eval_compiled` evaluates; names gives each variable's
    index."""
    name_pos = {n: i for i, n in enumerate(names)}
    ring_names = poly.ring.names
    out = []
    for exps, coeff in sorted(poly.terms.items()):
        c = coeff.numerator * pow(coeff.denominator, p - 2, p) % p
        if c == 0:
            continue
        pairs = tuple((name_pos[ring_names[i]], e) for i, e in enumerate(exps) if e)
        out.append((c, pairs))
    return out


def is_prime(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


#: the largest prime the finite-field oracle accepts (gfq explains the bound)
MAX_PRIME = 7


def check_prime(p, bound=MAX_PRIME):
    """Raise NotSupported unless p is a prime no larger than bound (None:
    any prime)."""
    if not is_prime(p):
        raise NotSupported(f"{p} is not a prime")
    if bound is not None and p > bound:
        raise NotSupported(
            f"the finite-field oracle supports the primes up to {bound}, not {p}"
        )


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[a-z][a-z0-9]*")


class PolynomialRing:
    """Q[x1,...,xn] for a fixed ordered tuple of variable names."""

    def __init__(self, names):
        names = tuple(names)
        for n in names:
            if not _IDENT_RE.fullmatch(n):
                raise ValueError(f"invalid variable name {n!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self._zero_exp = (0,) * len(names)

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return MultiPoly(self, {self._zero_exp: Fraction(1)})

    def constant(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return MultiPoly(self, {self._zero_exp: c})

    def gen(self, name):
        i = self.names.index(name)
        exp = [0] * len(self.names)
        exp[i] = 1
        return MultiPoly(self, {tuple(exp): Fraction(1)})

    def gens(self):
        return tuple(self.gen(n) for n in self.names)

    def __repr__(self):
        return "Q[" + ",".join(self.names) + "]"

    def __eq__(self, other):
        return isinstance(other, PolynomialRing) and other.names == self.names

    def __hash__(self):
        return hash(("ring", self.names))


class MultiPoly:
    """A sparse multivariate polynomial over Q.

    Immutable after construction; arithmetic returns fresh objects.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self._hash = None

    # -- basic queries ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def leading(self):
        """Leading (exponent, coefficient) in lex order on the ring's names."""
        exp = max(self.terms)
        return exp, self.terms[exp]

    # -- arithmetic -------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, MultiPoly):
            if other.ring.names != self.ring.names:
                raise DomainMismatch(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        if not isinstance(other, MultiPoly) and isinstance(other, (int, Fraction)) and not other:
            return self
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return MultiPoly(self.ring, out)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if not isinstance(other, MultiPoly) and isinstance(other, (int, Fraction)):
            return MultiPoly(self.ring, {e: c * other for e, c in self.terms.items()})
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division: a rational or constant divisor scales the
        coefficients, and any other polynomial is divided out by long division
        on its lex-leading term (ValueError when it does not divide,
        ZeroDivisionError for zero)."""
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        if other.is_constant():
            inv = 1 / rational(other)
            return self if inv == 1 else self * inv
        d_exp, d_coeff = other.leading()
        rem, q_terms = self, {}
        while rem:
            r_exp, r_coeff = rem.leading()
            q_exp = tuple(a - b for a, b in zip(r_exp, d_exp))
            if any(e < 0 for e in q_exp):
                raise ValueError(f"{other} does not divide {self}")
            q_terms[q_exp] = r_coeff / d_coeff
            rem = rem - MultiPoly(self.ring, {q_exp: q_terms[q_exp]}) * other
        return MultiPoly(self.ring, q_terms)

    def __rtruediv__(self, other):
        """A rational over a polynomial, which must then be a constant."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Fraction(other) / rational(self)

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __pow__(self, n):
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ring.constant(other)
        return self.ring.names == other.ring.names and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            # a constant equals its rational, so it hashes like it
            self._hash = (hash(rational(self)) if self.is_constant()
                          else hash((self.ring.names, frozenset(self.terms.items()))))
        return self._hash

    # -- structure --------------------------------------------------------

    def cast(self, new_ring):
        """Re-express in a ring whose variables include all used here."""
        pos = {}
        for i, n in enumerate(self.ring.names):
            if n in new_ring.names:
                pos[i] = new_ring.names.index(n)
        out = {}
        for exp, c in self.terms.items():
            new_exp = [0] * len(new_ring.names)
            for i, e in enumerate(exp):
                if e:
                    if i not in pos:
                        raise DomainMismatch(
                            f"variable {self.ring.names[i]!r} absent from {new_ring}"
                        )
                    new_exp[pos[i]] = e
            key = tuple(new_exp)
            out[key] = out.get(key, Fraction(0)) + c
        return MultiPoly(new_ring, out)

    def content_and_primitive(self):
        """Rational content c > 0 and the primitive part p with self = c*p.

        The content is numeric only (gcd of numerators over lcm of
        denominators); multivariate polynomial gcds are deliberately out of
        scope.
        """
        if not self.terms:
            return Fraction(1), self
        content = rational_content(self.terms.values())
        prim = MultiPoly(self.ring, {e: c / content for e, c in self.terms.items()})
        return content, prim

    def eval(self, assignment):
        """Substitute rationals for every variable; a ring homomorphism into
        Q."""
        vals = []
        for n in self.ring.names:
            if n not in assignment:
                # variables that never occur may stay unassigned
                vals.append(None)
            else:
                vals.append(exact(assignment[n]))
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                if vals[i] is None:
                    raise MissingVariable(self.ring.names[i])
                term = term * vals[i] ** e
            total = total + term
        return total

    # -- printing ---------------------------------------------------------

    def __repr__(self):
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        if den == 1:
            return poly_to_string(self)
        # rational coefficients fall outside the grammar: show them over
        # their common denominator
        return f"({poly_to_string(self * den)})/{den}"


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

class ConstraintSet:
    """Parameter side conditions: polynomials required nonzero, plus pairs of
    which at least one member must be nonzero."""

    __slots__ = ("nonzero", "not_both_zero")

    def __init__(self, nonzero=(), not_both_zero=()):
        self.nonzero = tuple(nonzero)
        self.not_both_zero = tuple(tuple(pair) for pair in not_both_zero)
        for group in [(p,) for p in self.nonzero] + list(self.not_both_zero):
            if not any(group):
                raise ValueError(f"identically zero constraint {group}")

    def merged(self, other):
        seen = list(self.nonzero)
        for p in other.nonzero:
            if p not in seen:
                seen.append(p)
        pairs = list(self.not_both_zero)
        for pair in other.not_both_zero:
            if pair not in pairs:
                pairs.append(pair)
        return ConstraintSet(seen, pairs)

    def cast(self, ring):
        return ConstraintSet(
            tuple(p.cast(ring) for p in self.nonzero),
            tuple((a.cast(ring), b.cast(ring)) for a, b in self.not_both_zero),
        )

    def __repr__(self):
        parts = [f"{p} != 0" for p in self.nonzero]
        parts += [f"({a},{b}) != (0,0)" for a, b in self.not_both_zero]
        return "{" + ", ".join(parts) + "}" if parts else "{}"

    def __eq__(self, other):
        return (
            isinstance(other, ConstraintSet)
            and self.nonzero == other.nonzero
            and self.not_both_zero == other.not_both_zero
        )


EMPTY_CONSTRAINTS = ConstraintSet()


def first_violation(constraints, assignment):
    """The first side condition an assignment breaks, or None: a nonzero
    polynomial that evaluates to zero, else a not-both-zero pair whose
    members both do."""
    for p in constraints.nonzero:
        if p.eval(assignment) == 0:
            return p
    for pair in constraints.not_both_zero:
        if all(q.eval(assignment) == 0 for q in pair):
            return pair
    return None


def constraint_satisfied(constraints, assignment):
    """True iff every nonzero polynomial evaluates nonzero and every
    not-both-zero pair has a nonzero member."""
    return first_violation(constraints, assignment) is None


def certified_nonzero(scalar, constraints=EMPTY_CONSTRAINTS):
    """Syntactic nonvanishing certificate.

    Rationals certify by being nonzero.  A polynomial certifies when it
    is a nonzero rational multiple of a product of powers of the declared
    nonzero constraint polynomials -- decidable by greedy exact division.
    Membership failures are reported as False, never as a wrong answer; a
    constraint from another ring raises DomainMismatch.
    """
    if not isinstance(scalar, MultiPoly):
        return exact(scalar) != 0
    if not scalar:
        return False
    _, p = scalar.content_and_primitive()
    progress = True
    while not p.is_constant() and progress:
        progress = False
        for q in constraints.nonzero:
            if q.is_constant():
                continue
            try:
                p = p / q
                progress = True
                break
            except ValueError:
                continue
    # p is nonzero, as the scalar is
    return p.is_constant()


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[a-z][a-z0-9]*)|(?P<op>[-+*()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", column=pos)
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), pos))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    return tokens


def parse_poly(text, ring):
    """Parse grammar text into a polynomial of the given ring."""
    if not isinstance(text, str):
        raise TypeError(f"polynomial text expected, not {text!r}")
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else ("end", None, len(text))

    def advance():
        nonlocal idx
        tok = peek()
        idx += 1
        return tok

    def parse_expr():
        kind, val, pos = peek()
        negate = False
        if kind == "op" and val == "-":
            advance()
            negate = True
        result = parse_term()
        if negate:
            result = -result
        while True:
            kind, val, pos = peek()
            if kind == "op" and val in "+-":
                advance()
                rhs = parse_term()
                result = result + rhs if val == "+" else result - rhs
            else:
                return result

    def parse_term():
        result = parse_factor()
        while True:
            kind, val, pos = peek()
            if kind == "op" and val == "*":
                advance()
                result = result * parse_factor()
            else:
                return result

    def parse_factor():
        kind, val, pos = advance()
        if kind == "int":
            return ring.constant(val)
        if kind == "ident":
            if val not in ring.names:
                raise ParseError(f"unknown parameter {val!r}", column=pos)
            return ring.gen(val)
        if kind == "op" and val == "(":
            inner = parse_expr()
            kind, val, pos = advance()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", column=pos)
            return inner
        raise ParseError(f"unexpected token {val!r}", column=pos)

    result = parse_expr()
    kind, val, pos = peek()
    if kind != "end":
        raise ParseError(f"trailing input at {val!r}", column=pos)
    return result


def poly_to_string(p):
    """Deterministic grammar-conforming rendering of a polynomial (integer
    coefficients); a rational prints as str does."""
    if not isinstance(p, MultiPoly):
        return str(p)
    if not p:
        return "0"
    pieces = []
    for exp in sorted(p.terms, reverse=True):
        coeff = p.terms[exp]
        if coeff.denominator != 1:
            raise ValueError(f"non-integer coefficient {coeff} is outside the grammar")
        factors = []
        for name, e in zip(p.ring.names, exp):
            factors.extend([name] * e)
        mag = abs(coeff.numerator)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+" if coeff > 0 else "-") + body)
    return "".join(pieces)
