"""Automorphism and antiautomorphism actions on the 3x3 matrix algebra.

Every automorphism of M3 is a conjugation and every antiautomorphism is one
after the transpose (Skolem-Noether), so a map is held as the finite-field
oracle (`search`) holds it: a conjugator T and an optional twist, the index
permutation of a matrix P.  The map sends X to T^-1 X' T, where X' is
P X^T P with the twist and X without.  `image` computes adj(T) X' T from
cofactors, det(T) times the image, so a parametric T needs only its
determinant certified and nothing is divided.  A span cannot see that
factor, and multiplicativity of the map amounts to the polynomial identities

    det(T) image(xy) = image(x) image(y)      (image(y) image(x) with a twist)

for all 81 ordered pairs of basis matrices.  FAMILIES is the one table of
the group families, and PRESERVING names the family and twist preserving
each fixed complement: family_conjugator builds the exact conjugators from
them, over the parameter ring or at given values, and the oracle its
batches of conjugators mod p.
"""

from __future__ import annotations

from .errors import SingularMatrix
from .matrices import COORD_ORDER, Mat3, span
from .scalars import (
    EMPTY_CONSTRAINTS,
    ConstraintSet,
    PolynomialRing,
    certified_nonzero,
    exact,
)


def permutation(perm):
    """The exact matrix P of an index permutation: row i is the unit vector
    perm[i] (`search.twist_matrix` is the same matrix mod p)."""
    return Mat3([[int(perm[i] == j) for j in range(3)] for i in range(3)])


def image(x, t, twist=None):
    """adj(T) X' T, det(T) times the image of x under the map of conjugator
    t and twist: X' is P X^T P for the twist's matrix P, and x without one."""
    if twist is not None:
        p = permutation(twist)
        x = p @ x.transpose() @ p
    return t.adjugate() @ x @ t


def image_span(s, t, twist=None):
    """The span of the images of s's generators, under s's constraints."""
    return span([image(g, t, twist) for g in s.generators], s.constraints)


def preserves(s, t, twist=None):
    """True when every generator image lies back in s.  Combined with
    is_algebra_map (which forces bijectivity) this certifies that the map
    carries s onto itself even for a parametric T, whose image rank cannot
    be pivoted symbolically."""
    return all(s.contains(image(g, t, twist)) for g in s.generators)


def is_algebra_map(t, twist=None, constraints=EMPTY_CONSTRAINTS):
    """Check that det(T) is certified nonzero under the constraints, that the
    identity matrix is fixed, and the 81 product identities (order reversed
    with a twist).  A twist that is not an involution fails the identity
    check.  Returns (ok, witness): witness is the first failing basis pair,
    or a short tag for the determinant and identity checks."""
    det = t.det()
    if not certified_nonzero(det, constraints):
        return False, "singular conjugator"
    if image(Mat3.identity(), t, twist) != Mat3.identity().scale(det):
        return False, "identity not fixed"
    basis = [Mat3.basis(i, j) for (i, j) in COORD_ORDER]
    images = [image(b, t, twist) for b in basis]
    for a in range(9):
        for b in range(9):
            lhs = image(basis[a] @ basis[b], t, twist).scale(det)
            rhs = images[b] @ images[a] if twist is not None else images[a] @ images[b]
            if lhs != rhs:
                return False, (COORD_ORDER[a], COORD_ORDER[b])
    return True, None


# ---------------------------------------------------------------------------
# the group families preserving the fixed complements
# ---------------------------------------------------------------------------

#: every member of a family is X -> T^-1 X T for a conjugator
#: T = [[1, beta, gamma], [0, kappa, lamda], [0, mu, nu]].  Per family: its
#: parameters in grid order, each with the row-major position of T it fills
#: (the other entries are 0), the parameters that range over the units only
#: (the diagonal of a triangular T), and the index permutation P of the
#: coset P T the oracle joins to it, or None (family_conjugator builds T
#: alone).
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
#: and (2, 1, 0) is the 1 <-> 3 index swap after it.  One twist suffices:
#: any two complement-preserving antiautomorphisms differ by a
#: complement-preserving automorphism.
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


def family_conjugator(family, values=None):
    """(T, constraints) for the member of a family at the given parameter
    values (in grid order).  With values None, T is symbolic over
    Q[parameters] under the side conditions that the units are nonzero, or
    det(T) when the family has none.  Raises SingularMatrix when det(T) is
    not certified nonzero."""
    params, units, _ = FAMILIES[family]
    symbolic = values is None
    if symbolic:
        ring = PolynomialRing([name for name, _ in params])
        zero, one, values = ring.zero(), ring.one(), ring.gens()
    else:
        zero, one = exact(0), exact(1)
    entries = [one] + [zero] * 8
    for (_, pos), x in zip(params, values, strict=True):
        entries[pos] = x
    t = Mat3.from_coords(entries)
    det, constraints = t.det(), EMPTY_CONSTRAINTS
    if symbolic:
        nonzero = [x for (name, _), x in zip(params, values) if name in units]
        constraints = ConstraintSet(nonzero or [det])
    if not certified_nonzero(det, constraints):
        raise SingularMatrix(f"determinant {det} is not certifiably nonzero")
    return t, constraints


# ---------------------------------------------------------------------------
# the two rescaling identities used by the reductions
# ---------------------------------------------------------------------------

def rescaled_pair_images_72():
    """For generators with zero first row and the family taken with
    beta = gamma = lamda = mu = 0, the kappa- and nu-rescaled images have the
    fixed shape below.  Returns two (computed, claimed) pairs of cleared
    9-coordinate vectors; each pair must agree entry-by-entry.

    Cleared form: kappa * image(v1) against Delta * (claimed kappa*image),
    and likewise with nu for v2, where Delta = kappa*nu = det(T).
    """
    names = ("kappa", "nu", "d", "e", "f", "g", "s", "t", "x", "y")
    ring = PolynomialRing(names)
    k, n, d, e, f, g, s, t, x, y = ring.gens()
    z, o = ring.zero(), ring.one()
    diag = Mat3([[o, z, z], [z, k, z], [z, z, n]])
    v1 = Mat3([[z, z, z], [o, d, e], [z, f, g]])
    v2 = Mat3([[z, z, z], [z, s, t], [o, x, y]])
    computed1 = image(v1, diag).scale(k)
    claimed1 = Mat3(
        [[z, z, z], [k * n, k * k * n * d, k * n * n * e], [z, k * k * k * f, k * k * n * g]]
    )
    computed2 = image(v2, diag).scale(n)
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
    diag = Mat3([[o, z, z], [z, k, z], [z, z, n]])
    v1 = Mat3([[z, a, b], [o, c, d], [z, e, f]])
    v2 = Mat3([[z, r, s], [z, t, u], [o, x, y]])
    computed1 = image(v1, diag).scale(k)
    claimed1 = Mat3(
        [
            [z, k * k * k * n * a, k * k * n * n * b],
            [k * n, k * k * n * c, k * n * n * d],
            [z, k * k * k * e, k * k * n * f],
        ]
    )
    computed2 = image(v2, diag).scale(n)
    claimed2 = Mat3(
        [
            [z, k * k * n * n * r, k * n * n * n * s],
            [z, k * n * n * t, n * n * n * u],
            [k * n, k * k * n * x, k * n * n * y],
        ]
    )
    return (computed1, claimed1), (computed2, claimed2)
