"""Structural invariants separating subalgebra orbits: radical tower, units,
annihilator containments, idempotents, and the seven 2-dimensional types.

All computations here are exact.  Over the rationals the Jacobson radical of
a subalgebra of the matrix algebra is the kernel of the ambient trace form
restricted to the subalgebra (characteristic zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, NotSupported, SoundnessError
from .linalg import echelonize, kernel_basis, sc_is_zero, solve_linear
from .matrices import Mat3, span


def _combo(mats, coeffs):
    acc = Mat3.zero()
    for m, c in zip(mats, coeffs):
        acc = acc + m.scale(c)
    return acc


def product_span(a_mats, b_mats):
    """Span of all pairwise products, as a (possibly zero) list of basis
    matrices."""
    prods = [x @ y for x in a_mats for y in b_mats]
    nonzero = [p for p in prods if not p.is_zero()]
    if not nonzero:
        return []
    return span(nonzero).basis_mats()


def is_nilpotent_span(mats, bound=9):
    current = list(mats)
    for _ in range(bound):
        if not current:
            return True
        current = product_span(mats, current)
    return not current


def radical(s):
    """Jacobson radical of a subalgebra of the matrix algebra:
    {x in s : trace(x y) = 0 for all y in s} via the ambient trace form."""
    basis = s.basis_mats()
    if not basis:
        return s
    gram = [[(x @ y).trace() for x in basis] for y in basis]
    kern = kernel_basis(gram, len(basis))
    if not kern:
        return span([Mat3.zero()])
    return span([_combo(basis, vec) for vec in kern])


def _solve_unit(s, sides, modulo=None):
    """A u in s with u g = g (side "left") and g u = g (side "right") for every
    basis element g, the equations taken modulo the span of the echelon
    `modulo` when one is given; None if absent."""
    basis = s.basis_mats()
    if not basis:
        return None
    reduce = list if modulo is None else modulo.project_field
    rows = []
    rhs = []
    for g in basis:
        target = reduce(g.coords())
        for side in sides:
            cols = [reduce((gi @ g if side == "left" else g @ gi).coords()) for gi in basis]
            for coord in range(9):
                rows.append([c[coord] for c in cols])
                rhs.append(target[coord])
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    return _combo(basis, sol)


def find_unit(s, side="two"):
    """Solve for a (left/right/two-sided) unit inside s; None if absent."""
    return _solve_unit(s, [x for x in ("left", "right") if side in ("two", x)])


def annihilates(a_mats, b_mats):
    """True iff every product a*b vanishes."""
    return all((a @ b).is_zero() for a in a_mats for b in b_mats)


def _two_sided_annihilator(s_basis, targets):
    """{x in s : x t = t x = 0 for all t in targets} as combination vectors."""
    if not targets:
        return list(s_basis)
    rows = []
    for t in targets:
        for coord in range(9):
            rows.append([(gi @ t).coords()[coord] for gi in s_basis])
            rows.append([(t @ gi).coords()[coord] for gi in s_basis])
    kern = kernel_basis(rows, len(s_basis))
    return [_combo(s_basis, vec) for vec in kern]


@dataclass(frozen=True)
class Fingerprint:
    """Orbit-invariant summary of a subalgebra.

    idempotent_ranks holds the full multiset of nonzero-idempotent matrix
    ranks in dimension <= 2 (one generic rank per 1-parameter family) and the
    rank of an identity-lift idempotent otherwise.  ann_radsq_has_idempotent
    records whether the two-sided annihilator of rad^2 inside the algebra
    contains a nonzero idempotent (equivalently, is non-nilpotent).
    """

    dim: int
    rad_dims: tuple
    ss_dim: int
    has_unit: bool
    has_left_unit: bool
    has_right_unit: bool
    rad_in_left_ann: bool
    rad_in_right_ann: bool
    idempotent_ranks: tuple
    ann_radsq_has_idempotent: bool

    def swapped(self):
        """The fingerprint of the transposed algebra: one-sided fields swap,
        everything else is fixed."""
        return Fingerprint(
            self.dim,
            self.rad_dims,
            self.ss_dim,
            self.has_unit,
            self.has_right_unit,
            self.has_left_unit,
            self.rad_in_right_ann,
            self.rad_in_left_ann,
            self.idempotent_ranks,
            self.ann_radsq_has_idempotent,
        )


def fingerprint(s):
    """Full invariant battery for a concrete subalgebra over Q."""
    basis = s.basis_mats()
    rad = radical(s)
    rad_basis = [m for m in rad.basis_mats() if not m.is_zero()]
    rad2 = product_span(rad_basis, rad_basis) if rad_basis else []
    rad3 = product_span(rad_basis, rad2) if rad2 else []
    rad_dims = (len(rad_basis), len(rad2), len(rad3))
    unit = find_unit(s, "two")
    left = find_unit(s, "left")
    right = find_unit(s, "right")
    rad_in_left = annihilates(basis, rad_basis)
    rad_in_right = annihilates(rad_basis, basis)
    ann = _two_sided_annihilator(basis, rad2)
    ann_has_idem = bool(ann) and not is_nilpotent_span(ann)
    if s.dim <= 2:
        ranks = idempotents(s).all_ranks()
    else:
        e = principal_idempotent(s)
        ranks = (matrix_rank(e),) if e is not None and not e.is_zero() else ()
    return Fingerprint(
        dim=s.dim,
        rad_dims=rad_dims,
        ss_dim=s.dim - rad_dims[0],
        has_unit=unit is not None,
        has_left_unit=left is not None,
        has_right_unit=right is not None,
        rad_in_left_ann=rad_in_left,
        rad_in_right_ann=rad_in_right,
        idempotent_ranks=tuple(sorted(ranks)),
        ann_radsq_has_idempotent=ann_has_idem,
    )


def matrix_rank(m):
    ech = echelonize([list(m.rows[i]) for i in range(3)])
    return ech.rank


def principal_idempotent(s):
    """An idempotent of s lifting the identity of s/rad (None when s is
    nilpotent).  All such lifts are conjugate, so the rank is an invariant."""
    rad = radical(s)
    if rad.dim == s.dim:
        return None
    # u*g - g and g*u - g must lie in rad for every basis element g
    u = _solve_unit(s, ("left", "right"), rad.echelon)
    if u is None:
        return None
    # Newton lift: squares converge since the radical is nilpotent
    for _ in range(4):
        u2 = u @ u
        if u2 == u:
            return u
        u = u2.scale(3) - (u2 @ u).scale(2)
    if (u @ u) != u:
        raise SoundnessError("the idempotent lift did not converge")
    return u


# ---------------------------------------------------------------------------
# idempotents in small dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdempotentFamily:
    """base + t*direction is idempotent for every scalar t."""

    base: Mat3
    direction: Mat3
    generic_rank: int


@dataclass(frozen=True)
class Idempotents:
    points: tuple          # (Mat3, rank) pairs
    families: tuple        # IdempotentFamily

    def all_ranks(self):
        ranks = [r for (_, r) in self.points]
        ranks += [f.generic_rank for f in self.families]
        return tuple(sorted(set(ranks)))


def idempotents(s):
    """All nonzero idempotents of a subalgebra of dimension <= 2 over Q."""
    if s.dim > 2:
        raise NotSupported("exact idempotent enumeration is limited to dim <= 2 over Q")
    if s.dim == 0:
        return Idempotents((), ())
    if s.dim == 1:
        g = s.basis_mats()[0]
        g2 = g @ g
        # closure gives g^2 = c g
        c = None
        for a, b in zip(g2.coords(), g.coords()):
            if not sc_is_zero(b):
                c = a / b
                break
        if c is None or c == 0:
            return Idempotents((), ())
        e = g.scale(Fraction(1) / c)
        if e @ e != e:
            raise SoundnessError("the scaled generator is not idempotent")
        return Idempotents(((e, matrix_rank(e)),), ())
    return _idempotents_dim2(s)


def _idempotents_dim2(s):
    rad = radical(s)
    if rad.dim == 2:
        return Idempotents((), ())
    if rad.dim == 0:
        return _idempotents_semisimple2(s)
    # one-dimensional radical: normalize a complement element u with
    # u^2 = u + m*n, u n = sigma n, n u = tau n, sigma/tau idempotent scalars
    n = rad.basis_mats()[0]
    u = None
    for g in s.basis_mats():
        if not rad.contains(g):
            u = g
            break
    lam = _coefficient_on(u @ u, u, n, which=0)
    if lam == 0:
        raise SoundnessError("non-nilpotent 2-dim algebra must have u^2 ~ u")
    u = u.scale(Fraction(1) / lam)
    mu = _coefficient_on(u @ u, u, n, which=1)
    sigma = _scalar_multiple(u @ n, n)
    tau = _scalar_multiple(n @ u, n)
    if sigma not in (0, 1) or tau not in (0, 1):
        raise SoundnessError("the radical is not scaled by 0 or 1 under u")
    if sigma + tau == 1:
        if mu != 0:
            raise SoundnessError("idempotent lifting forces the mixed case to be exact")
        generic = max(matrix_rank(u + n.scale(t)) for t in (0, 1, -1, 2, -2, 3, 4))
        fam = IdempotentFamily(u, n, generic)
        return Idempotents(((u, matrix_rank(u)),), (fam,))
    t = mu / (1 - sigma - tau)
    e = u + n.scale(t)
    if e @ e != e:
        raise SoundnessError("the lifted element is not idempotent")
    return Idempotents(((e, matrix_rank(e)),), ())


def _idempotents_semisimple2(s):
    unit = find_unit(s, "two")
    if unit is None:
        raise SoundnessError("2-dim semisimple algebras are unital")
    w = None
    for g in s.basis_mats():
        if not span([unit]).contains(g):
            w = g
            break
    # w^2 = a w + b 1; split when the discriminant is a rational square
    a = _coefficient_on(w @ w, w, unit, which=0)
    b = _coefficient_on(w @ w, w, unit, which=1)
    disc = a * a + 4 * b
    if disc == 0:
        raise SoundnessError("separable quadratic expected in a semisimple algebra")
    root = _rational_sqrt(disc)
    if root is None:
        return Idempotents(((unit, matrix_rank(unit)),), ())
    r1 = (a + root) / 2
    r2 = (a - root) / 2
    e1 = (w - unit.scale(r2)).scale(Fraction(1) / (r1 - r2))
    e2 = unit - e1
    out = []
    for e in (e1, e2, unit):
        if not e.is_zero():
            if e @ e != e:
                raise SoundnessError("a split idempotent does not square to itself")
            out.append((e, matrix_rank(e)))
    return Idempotents(tuple(out), ())


def _coefficient_on(target, u, n, which):
    """Coefficients (c_u, c_n) with target = c_u u + c_n n; returns one."""
    sol = solve_linear(
        [[cu, cn] for cu, cn in zip(u.coords(), n.coords())],
        list(target.coords()),
    )
    if sol is None:
        raise SoundnessError("a product leaves the span of its two factors")
    return sol[which]


def _scalar_multiple(target, n):
    sol = solve_linear([[x] for x in n.coords()], list(target.coords()))
    if sol is None:
        raise SoundnessError("a product with u is not a multiple of n")
    return sol[0]


def _rational_sqrt(x):
    import math

    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# 2-dimensional type classification
# ---------------------------------------------------------------------------

def classify_2dim(s):
    """The isomorphism type D1..D7 of a 2-dimensional subalgebra over Q.

    Decided by the dimension of s^2 and the nilpotency index (D1, D2), then
    the radical and the unit/one-sided-unit structure (D3..D7).
    """
    if s.dim != 2:
        raise DimensionMismatch(f"expected a 2-dimensional subalgebra, got dim {s.dim}")
    basis = s.basis_mats()
    s2 = product_span(basis, basis)
    if not s2:
        return "D1"
    if is_nilpotent_span(basis):
        return "D2"
    rad = radical(s)
    if rad.dim == 0:
        return "D7"
    if find_unit(s, "two") is not None:
        return "D4"
    if find_unit(s, "left") is not None:
        return "D5"
    if find_unit(s, "right") is not None:
        return "D6"
    return "D3"
