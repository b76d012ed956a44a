"""Automorphism and antiautomorphism actions on the 3x3 matrix algebra.

A map is stored as a 9x9 coordinate matrix N together with a scalar
denominator d, acting as X -> (N X) / d in the fixed coordinate order.  This
uniform cleared-denominator form lets the parametric families be verified by
pure polynomial identities: multiplicativity of f = N/d amounts to

    d * N(xy) = N(x) N(y)        (reversed product for antiautomorphisms)

for all 81 ordered pairs of basis matrices.  A map that is multiplicative,
fixes the identity matrix and is nonzero is automatically bijective: its
kernel is a proper two-sided ideal of the full (simple) matrix algebra.

A conjugation X -> T^-1 X T is stored as X -> adj(T) X T over det(T), both
from cofactors, so a parametric T needs only its determinant certified.
FAMILIES is the one table of the group families, and PRESERVING names the
family and antiautomorphism twist preserving each fixed complement:
family_map builds the exact maps from them, over the parameter ring or at
given values, and the finite-field oracle (search) its conjugators.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrix
from .matrices import COORD_ORDER, Mat3, span
from .scalars import (
    EMPTY_CONSTRAINTS,
    ConstraintSet,
    PolynomialRing,
    certified_nonzero,
    rational,
)

AUTOMORPHISM = "automorphism"
ANTIAUTOMORPHISM = "antiautomorphism"


class AlgebraMap:
    """A linear map of the matrix algebra, tagged automorphism or
    antiautomorphism candidate."""

    __slots__ = ("matrix9", "den", "kind", "constraints")

    def __init__(self, matrix9, den, kind, constraints=EMPTY_CONSTRAINTS):
        self.matrix9 = tuple(tuple(row) for row in matrix9)
        self.den = den
        self.kind = kind
        self.constraints = constraints
        if not certified_nonzero(den, constraints):
            raise SingularMatrix(f"denominator {den} is not certifiably nonzero")

    # -- action ------------------------------------------------------------

    def image_numerator(self, m):
        """N applied to m's coordinates: d * map(m), fraction-free."""
        coords = m.coords()
        return Mat3.from_coords([sum(a * x for a, x in zip(row, coords)) for row in self.matrix9])

    def image(self, m):
        """map(m) itself; a parametric denominator raises DomainMismatch (use
        image_numerator)."""
        return self.image_numerator(m).scale(1 / rational(self.den))

    def compose(self, other):
        """self after other: (self . other)(x) = self(other(x))."""
        cols = list(zip(*other.matrix9))
        prod = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.matrix9]
        kind = AUTOMORPHISM if self.kind == other.kind else ANTIAUTOMORPHISM
        return AlgebraMap(prod, self.den * other.den, kind,
                          self.constraints.merged(other.constraints))

    def __repr__(self):
        return f"AlgebraMap({self.kind}, den={self.den})"


def apply_map(m, s):
    """Span of the images of s's generators (denominator dropped: a global
    certified-nonzero rescaling never changes a span)."""
    images = [m.image_numerator(g) for g in s.generators]
    return span(images, s.constraints.merged(m.constraints))


def preserves(m, s):
    """True when every generator image lies back in s.  Combined with
    is_algebra_map (which forces bijectivity) this certifies map(s) = s even
    for parametric maps whose image rank cannot be pivoted symbolically."""
    return all(s.contains(m.image_numerator(g)) for g in s.generators)


def is_algebra_map(m):
    """Check the 81 product identities (order reversed for antiautomorphism
    candidates), that the identity matrix is fixed, and that the map is
    nonzero.  Returns (ok, witness): witness is the first failing basis pair,
    or a short tag for the unital/nonzero checks."""
    basis = [Mat3.basis(i, j) for (i, j) in COORD_ORDER]
    if not any(x for row in m.matrix9 for x in row):
        return False, "zero map"
    # d * map(E) = N(E) must equal d * E
    ident = Mat3.identity()
    lhs = m.image_numerator(ident)
    rhs = ident.scale(m.den)
    if lhs != rhs:
        return False, "identity not fixed"
    nums = [m.image_numerator(b) for b in basis]
    for a in range(9):
        for b in range(9):
            prod = basis[a] @ basis[b]
            lhs = m.image_numerator(prod).scale(m.den)
            if m.kind == ANTIAUTOMORPHISM:
                rhs = nums[b] @ nums[a]
            else:
                rhs = nums[a] @ nums[b]
            if lhs != rhs:
                return False, (COORD_ORDER[a], COORD_ORDER[b])
    return True, None


# ---------------------------------------------------------------------------
# concrete constructions
# ---------------------------------------------------------------------------

def _map_from_images(images, den, constraints=EMPTY_CONSTRAINTS, kind=AUTOMORPHISM):
    """The map sending each basis matrix e_ij to images[(i, j)] / den: the
    coordinates of images[(i, j)] are column (i, j) of its 9x9 numerator."""
    cols = [images[src].coords() for src in COORD_ORDER]
    return AlgebraMap(list(zip(*cols)), den, kind, constraints)


def transpose_map():
    images = {(i, j): Mat3.basis(j, i) for (i, j) in COORD_ORDER}
    return _map_from_images(images, Fraction(1), kind=ANTIAUTOMORPHISM)


def conjugation(t, constraints=EMPTY_CONSTRAINTS):
    """X -> T^-1 X T as the 9x9 map X -> adj(T) X T over det(T)."""
    adj = t.adjugate()
    images = {(i, j): adj @ Mat3.basis(i, j) @ t for (i, j) in COORD_ORDER}
    return _map_from_images(images, t.det(), constraints)


def theta(i, j):
    """The index-swap automorphism: conjugation by e_ij + e_ji + e_kk."""
    k = ({1, 2, 3} - {i, j}).pop()
    t = Mat3.basis(i, j) + Mat3.basis(j, i) + Mat3.basis(k, k)
    return conjugation(t)


# ---------------------------------------------------------------------------
# the group families preserving the fixed complements
# ---------------------------------------------------------------------------

#: every member of a family is X -> T^-1 X T for a conjugator
#: T = [[1, beta, gamma], [0, kappa, lamda], [0, mu, nu]].  Per family: its
#: parameters in grid order, each with the row-major position of T it fills
#: (the other entries are 0), the parameters that range over the units only
#: (the diagonal of a triangular T), and the index permutation P of the
#: coset P T the oracle joins to it, or None (family_map builds T alone).
FAMILIES = {
    "phi_full": ((("beta", 1), ("gamma", 2), ("kappa", 4), ("lamda", 5), ("mu", 7), ("nu", 8)),
                 (), None),
    "phi_bg0": ((("kappa", 4), ("lamda", 5), ("mu", 7), ("nu", 8)), (), None),
    "phi_lm0_theta23": ((("beta", 1), ("gamma", 2), ("kappa", 4), ("nu", 8)),
                        ("kappa", "nu"), (0, 2, 1)),
    "psi": ((("alpha", 8), ("beta", 1), ("gamma", 2), ("delta", 4), ("epsilon", 5)),
            ("alpha", "delta"), None),
}

#: the maps preserving each fixed complement: its group family, and the
#: index permutation P of its antiautomorphism twist X -> P X^T P, or None
#: when no antiautomorphism preserves it.  (0, 1, 2) is the plain transpose
#: and (2, 1, 0) is theta(1, 3) after it.  One twist suffices: any two
#: complement-preserving antiautomorphisms differ by a complement-preserving
#: automorphism.
PRESERVING = {
    "M7": ("phi_full", None),
    "M6N": ("phi_full", None),
    "M6U": ("psi", (2, 1, 0)),
    "L5_1": ("phi_bg0", (0, 1, 2)),
    "L5_2": ("phi_lm0_theta23", None),
    "L5_3": ("psi", None),
    "L5_4": ("psi", None),
    "L5_5": ("psi", (2, 1, 0)),
    "L5_6": ("psi", (2, 1, 0)),
}


def family_map(family, values=None):
    """The member of a family at the given parameter values (in grid order),
    where AlgebraMap refuses a singular T.  With values None the map is
    symbolic over Q[parameters], under the side conditions that the units
    are nonzero, or det(T) when the family has none."""
    params, units, _ = FAMILIES[family]
    symbolic = values is None
    if symbolic:
        ring = PolynomialRing([name for name, _ in params])
        zero, one, values = ring.zero(), ring.one(), ring.gens()
    else:
        zero, one = Fraction(0), Fraction(1)
    entries = [one] + [zero] * 8
    for (_, pos), x in zip(params, values, strict=True):
        entries[pos] = x
    t = Mat3.from_coords(entries)
    if not symbolic:
        return conjugation(t)
    nonzero = [x for (name, _), x in zip(params, values) if name in units]
    return conjugation(t, ConstraintSet(nonzero or [t.det()]))


# ---------------------------------------------------------------------------
# the two rescaling identities used by the reductions
# ---------------------------------------------------------------------------

def rescaled_pair_images_72():
    """For generators with zero first row and the family taken with
    beta = gamma = lamda = mu = 0, the kappa- and nu-rescaled images have the
    fixed shape below.  Returns two (computed, claimed) pairs of cleared
    9-coordinate vectors; each pair must agree entry-by-entry.

    Cleared form: kappa * N(v1) against Delta * (claimed kappa*image), and
    likewise with nu for v2, where Delta = kappa*nu.
    """
    names = ("kappa", "nu", "d", "e", "f", "g", "s", "t", "x", "y")
    ring = PolynomialRing(names)
    k, n, d, e, f, g, s, t, x, y = ring.gens()
    z, o = ring.zero(), ring.one()
    phi = conjugation(Mat3([[o, z, z], [z, k, z], [z, z, n]]), ConstraintSet([k, n]))
    v1 = Mat3([[z, z, z], [o, d, e], [z, f, g]])
    v2 = Mat3([[z, z, z], [z, s, t], [o, x, y]])
    computed1 = phi.image_numerator(v1).scale(k)
    claimed1 = Mat3(
        [[z, z, z], [k * n, k * k * n * d, k * n * n * e], [z, k * k * k * f, k * k * n * g]]
    )
    computed2 = phi.image_numerator(v2).scale(n)
    claimed2 = Mat3(
        [[z, z, z], [z, k * n * n * s, t * n * n * n], [k * n, k * k * n * x, k * n * n * y]]
    )
    return (computed1, claimed1), (computed2, claimed2)


def rescaled_pair_images_63():
    """Same identity for the generator shape of the (6,3) reduction (first
    rows carrying two free coordinates)."""
    names = ("kappa", "nu", "a", "b", "c", "d", "e", "f", "r", "s", "t", "u", "x", "y")
    ring = PolynomialRing(names)
    k, n, a, b, c, d, e, f, r, s, t, u, x, y = ring.gens()
    z, o = ring.zero(), ring.one()
    phi = conjugation(Mat3([[o, z, z], [z, k, z], [z, z, n]]), ConstraintSet([k, n]))
    v1 = Mat3([[z, a, b], [o, c, d], [z, e, f]])
    v2 = Mat3([[z, r, s], [z, t, u], [o, x, y]])
    computed1 = phi.image_numerator(v1).scale(k)
    claimed1 = Mat3(
        [
            [z, k * k * k * n * a, k * k * n * n * b],
            [k * n, k * k * n * c, k * n * n * d],
            [z, k * k * k * e, k * k * n * f],
        ]
    )
    computed2 = phi.image_numerator(v2).scale(n)
    claimed2 = Mat3(
        [
            [z, k * k * n * n * r, k * n * n * n * s],
            [z, k * n * n * t, n * n * n * u],
            [k * n, k * k * n * x, k * n * n * y],
        ]
    )
    return (computed1, claimed1), (computed2, claimed2)
