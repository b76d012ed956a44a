"""Automorphism and antiautomorphism actions on the 3x3 matrix algebra.

A map is stored as a 9x9 coordinate matrix N together with a scalar
denominator d, acting as X -> (N X) / d in the fixed coordinate order.  This
uniform cleared-denominator form lets the parametric families be verified by
pure polynomial identities: multiplicativity of f = N/d amounts to

    d * N(xy) = N(x) N(y)        (reversed product for antiautomorphisms)

for all 81 ordered pairs of basis matrices.  A map that is multiplicative,
fixes the identity matrix and is nonzero is automatically bijective: its
kernel is a proper two-sided ideal of the full (simple) matrix algebra.

A conjugation X -> T^-1 X T takes its numerator and denominator from the
fraction-free inverse of T (linalg.ff_inverse).  The phi and psi families
share one construction, over their parameter ring or at given values.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainMismatch, SingularMatrix
from .linalg import ff_inverse, sc_is_zero
from .matrices import COORD_ORDER, Mat3, span
from .scalars import (
    EMPTY_CONSTRAINTS,
    ConstraintSet,
    MultiPoly,
    PolynomialRing,
    certified_nonzero,
    exact,
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
        """map(m) itself; requires a constant denominator."""
        d = self.den
        if isinstance(d, MultiPoly):
            if not d.is_constant():
                raise DomainMismatch("parametric denominator: use image_numerator")
            d = d.constant_value()
        return self.image_numerator(m).scale(1 / Fraction(d))

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
    if all(sc_is_zero(x) for row in m.matrix9 for x in row):
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
    """X -> T^-1 X T as a 9x9 map whose denominator is that of
    ff_inverse(T): det(T), or -det(T) where the inverse swaps rows."""
    numer, den = ff_inverse(t.rows, constraints)
    inv = Mat3(numer)
    images = {(i, j): inv @ Mat3.basis(i, j) @ t for (i, j) in COORD_ORDER}
    return _map_from_images(images, den, constraints)


def theta(i, j):
    """The index-swap automorphism: conjugation by e_ij + e_ji + e_kk."""
    k = ({1, 2, 3} - {i, j}).pop()
    t = Mat3.basis(i, j) + Mat3.basis(j, i) + Mat3.basis(k, k)
    return conjugation(t)


# ---------------------------------------------------------------------------
# the parametric family preserving the 7-dimensional subalgebra
# ---------------------------------------------------------------------------

PHI_PARAM_NAMES = ("beta", "gamma", "kappa", "lamda", "mu", "nu")
PSI_PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "epsilon")


def _phi_cleared_images(beta, gamma, kappa, lamda, mu, nu):
    """The nine images of the family, each multiplied by Delta = kappa*nu -
    lamda*mu so that all entries are polynomial."""
    b, g, k, l, m, n = beta, gamma, kappa, lamda, mu, nu
    delta = k * n - l * m
    gm_bn = g * m - b * n   # the recurring 2x2 minor with beta/gamma
    bl_gk = b * l - g * k
    z = 0 * delta  # the zero of the parameters' ring, so entries stay polynomials

    images = {
        (1, 1): Mat3([[delta, delta * b, delta * g], [z, z, z], [z, z, z]]),
        (1, 2): Mat3([[z, delta * k, delta * l], [z, z, z], [z, z, z]]),
        (1, 3): Mat3([[z, delta * m, delta * n], [z, z, z], [z, z, z]]),
        (2, 2): Mat3([[z, k * gm_bn, l * gm_bn], [z, k * n, l * n], [z, -(k * m), -(l * m)]]),
        (2, 3): Mat3([[z, m * gm_bn, n * gm_bn], [z, m * n, n * n], [z, -(m * m), -(m * n)]]),
        (3, 2): Mat3([[z, k * bl_gk, l * bl_gk], [z, -(k * l), -(l * l)], [z, k * k, k * l]]),
        (3, 3): Mat3([[z, m * bl_gk, n * bl_gk], [z, -(l * m), -(l * n)], [z, k * m, k * n]]),
        (2, 1): Mat3([[gm_bn, b * gm_bn, g * gm_bn], [n, b * n, g * n], [-m, -(b * m), -(g * m)]]),
        (3, 1): Mat3([[bl_gk, b * bl_gk, g * bl_gk], [-l, -(b * l), -(g * l)], [k, b * k, g * k]]),
    }
    return images, delta


def _family_map(names, values, to_phi, side_conditions):
    """A family's map through _phi_cleared_images, to_phi sending its
    parameters to (beta, gamma, kappa, lamda, mu, nu).  With values None the
    map is symbolic over Q[names] under the side conditions; at given values
    AlgebraMap refuses a vanishing denominator."""
    if values is None:
        params = PolynomialRing(names).gens()
        constraints = ConstraintSet(side_conditions(*params))
    else:
        params = [exact(x) for x in values]
        constraints = EMPTY_CONSTRAINTS
    images, den = _phi_cleared_images(*to_phi(*params))
    return _map_from_images(images, den, constraints)


def phi_map(beta=None, gamma=None, kappa=None, lamda=None, mu=None, nu=None):
    """The six-parameter automorphism family preserving
    Span{e11,e12,e13,e22,e23,e32,e33}; requires Delta = kappa*nu - lamda*mu
    nonzero.

    With no arguments the map is built symbolically over
    Q[beta,gamma,kappa,lamda,mu,nu] with the constraint Delta != 0.
    """
    values = None if beta is None else (beta, gamma, kappa, lamda, mu, nu)
    return _family_map(PHI_PARAM_NAMES, values, lambda *v: v,
                       lambda b, g, k, l, m, n: [k * n - l * m])


def psi_map(alpha=None, beta=None, gamma=None, delta=None, epsilon=None):
    """The five-parameter automorphism family preserving the upper-triangular
    subalgebra: the previous family specialized to mu = 0 under the renaming
    (kappa, lamda, mu, nu) = (delta, epsilon, 0, alpha); requires alpha and
    delta nonzero."""
    values = None if alpha is None else (alpha, beta, gamma, delta, epsilon)
    # mu is the zero of alpha's ring, so symbolic entries stay polynomials
    return _family_map(PSI_PARAM_NAMES, values,
                       lambda a, b, g, d, e: (b, g, d, e, 0 * a, a),
                       lambda a, b, g, d, e: [a, d])


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
    z = ring.zero()
    images, den = _phi_cleared_images(z, z, k, z, z, n)
    phi = _map_from_images(images, den, ConstraintSet([k, n]))
    v1 = Mat3([[z, z, z], [ring.one(), d, e], [z, f, g]])
    v2 = Mat3([[z, z, z], [z, s, t], [ring.one(), x, y]])
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
    images, den = _phi_cleared_images(z, z, k, z, z, n)
    phi = _map_from_images(images, den, ConstraintSet([k, n]))
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
