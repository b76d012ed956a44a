"""Structural invariants separating subalgebra orbits: radical tower, units,
annihilator containments, idempotents, and the seven 2-dimensional types.

All computations here are exact and over Q (a parametric span raises
NotSupported).  A subalgebra is read through one table: the k^2 products
b_i b_j of its echelon basis, formed once and written in the basis as
sum_l c_ij^l b_l (None when the product leaves the span).  Units, radical
powers, annihilators and idempotents are linear algebra on coordinate
vectors and this table, with no further matrix product.

In characteristic zero the Jacobson radical of a subalgebra of the matrix
algebra is the kernel of the ambient trace form tr(x y) = sum x_ab y_ba,
read from the coordinates, and (Dickson) an algebra is nilpotent exactly
when its radical is all of it, that is, when the trace form vanishes on it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DimensionMismatch, DomainMismatch, NotSupported, SoundnessError
from .linalg import echelonize, kernel_basis, solve_linear
from .matrices import Mat3, span
from .scalars import exact, rational, rational_sqrt

#: tr(x y) = sum over a of x[a] * y[_TRANSPOSED[a]] in flattened coordinates
_TRANSPOSED = tuple(3 * (a % 3) + a // 3 for a in range(9))


def _rational_rows(s):
    """The echelon rows of s over Q: a constant polynomial entry becomes its
    value, and a span with a parametric entry is refused."""
    try:
        return [[rational(x) for x in row] for row in s.echelon.rows]
    except DomainMismatch:
        raise NotSupported("the invariants are computed over Q, not on parameters") from None


def _gram(rows):
    """The trace form on flattened matrices, without a product."""
    return [[sum(a * y[t] for a, t in zip(x, _TRANSPOSED)) for y in rows] for x in rows]


def _comb(a, x, b, y):
    """a x + b y for coordinate vectors."""
    return [a * p + b * q for p, q in zip(x, y)]


def _flat(rows, x):
    """The flattened matrix with coordinates x in the basis rows."""
    return [sum(xi * r[a] for xi, r in zip(x, rows)) for a in range(9)]


class _Table:
    """A span through its echelon basis b_1..b_k and their products.

    Elements are coordinate vectors in the basis.  c[i][j] holds the
    coordinates of b_i b_j, or None when that product leaves the span; rad is
    a basis of the radical (the kernel of the trace form) as vectors.
    """

    def __init__(self, s):
        self.rows = _rational_rows(s)
        self.pivots = s.echelon.pivot_cols
        self.k = len(self.rows)
        self.basis = [[exact(int(i == j)) for j in range(self.k)] for i in range(self.k)]
        self.rad = kernel_basis(_gram(self.rows), self.k)
        mats = [Mat3.from_coords(r) for r in self.rows]
        self.c = [[self._coords((x @ y).coords()) for y in mats] for x in mats]

    def _coords(self, flat):
        """Coordinates of a flattened matrix, or None outside the span.  The
        rows are fully reduced, so each coordinate is read at its pivot."""
        x = [flat[p] / r[p] for r, p in zip(self.rows, self.pivots)]
        return x if list(flat) == _flat(self.rows, x) else None

    def mat(self, x):
        return Mat3.from_coords(_flat(self.rows, x))

    def closed(self):
        """This table, once every basis product is known to stay in the span."""
        if any(None in row for row in self.c):
            raise SoundnessError("a basis product leaves the span, which is no subalgebra")
        return self

    def mul(self, x, y):
        """x y, or None when it needs a basis product that leaves the span."""
        terms = [(xi * yj, self.c[i][j])
                 for i, xi in enumerate(x) for j, yj in enumerate(y) if xi and yj]
        if any(c is None for _, c in terms):
            return None
        return [sum((f * c[l] for f, c in terms), exact(0)) for l in range(self.k)]

    def annihilator(self, ts):
        """A basis of {x : x t = t x = 0 for every t in ts}."""
        rows = []
        for t in ts:
            rows += [list(row) for row in zip(*[self.mul(b, t) for b in self.basis])]
            rows += [list(row) for row in zip(*[self.mul(t, b) for b in self.basis])]
        return kernel_basis(rows, self.k)

    def unit(self, side, modulo=None):
        """A u with u b = b (side "left"), b u = b ("right") or both ("two")
        for every basis element b, modulo the span of the echelon `modulo`
        when one is given; None if absent or a product leaves the span."""
        if not self.k:
            return None
        reduce = list if modulo is None else modulo.project_field
        rows = []
        rhs = []
        sides = [x for x in ("left", "right") if side in ("two", x)]
        for j, b in enumerate(self.basis):
            for one in sides:
                cols = [self.c[i][j] if one == "left" else self.c[j][i] for i in range(self.k)]
                if None in cols:
                    return None
                rows += [list(row) for row in zip(*map(reduce, cols))]
                rhs += reduce(b)
        return solve_linear(rows, rhs)

    def principal_idempotent(self):
        """An idempotent lifting the identity of s/rad, as a matrix (None when
        s is nilpotent)."""
        if len(self.rad) == self.k:
            return None
        # u b - b and b u - b must lie in rad for every basis element b
        u = self.unit("two", echelonize(self.rad))
        if u is None:
            return None
        # Newton lift: squares converge since the radical is nilpotent
        for _ in range(5):
            u2 = self.mul(u, u)
            if u2 == u:
                return self.mat(u)
            u = _comb(3, u2, -2, self.mul(u2, u))
        raise SoundnessError("the idempotent lift did not converge")


def radical(s):
    """Jacobson radical of a subalgebra of the matrix algebra:
    {x in s : trace(x y) = 0 for all y in s} via the ambient trace form."""
    rows = _rational_rows(s)
    kern = kernel_basis(_gram(rows), len(rows))
    return span([Mat3.from_coords(_flat(rows, x)) for x in kern] or [Mat3.zero()])


def find_unit(s, side="two"):
    """A (left/right/two-sided) unit of the subalgebra s, or None."""
    tab = _Table(s).closed()
    u = tab.unit(side)
    return None if u is None else tab.mat(u)


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
        return replace(
            self,
            has_left_unit=self.has_right_unit,
            has_right_unit=self.has_left_unit,
            rad_in_left_ann=self.rad_in_right_ann,
            rad_in_right_ann=self.rad_in_left_ann,
        )

    def two_dim_type(self):
        """The type D1..D7 of a 2-dimensional algebra with this fingerprint:
        s^2 = 0 (D1), nilpotent (D2), semisimple (D7), unital (D4), left or
        right unital (D5, D6), or none of these (D3)."""
        rad, rad2, _ = self.rad_dims
        if rad == 2:
            return "D2" if rad2 else "D1"
        if not rad:
            return "D7"
        sided = ((self.has_unit, "D4"), (self.has_left_unit, "D5"), (self.has_right_unit, "D6"))
        return next((tag for unit, tag in sided if unit), "D3")


def fingerprint(s):
    """Full invariant battery for a concrete subalgebra over Q."""
    tab = _Table(s)
    # in dim <= 2 the idempotents come first: their checks name the product
    # that leaves a span which is not closed
    ranks = _idempotents(tab).all_ranks() if tab.k <= 2 else None
    rad = tab.closed().rad
    rad2 = echelonize([tab.mul(x, y) for x in rad for y in rad]).rows
    rad3 = echelonize([tab.mul(x, y) for x in rad for y in rad2]).rows
    # the annihilator of rad^2 is an ideal; it is nilpotent iff the trace
    # form vanishes on it
    ann = [_flat(tab.rows, x) for x in tab.annihilator(rad2)]
    if ranks is None:
        e = tab.principal_idempotent()
        ranks = (matrix_rank(e),) if e is not None and not e.is_zero() else ()
    return Fingerprint(
        dim=tab.k,
        rad_dims=(len(rad), len(rad2), len(rad3)),
        ss_dim=tab.k - len(rad),
        has_unit=tab.unit("two") is not None,
        has_left_unit=tab.unit("left") is not None,
        has_right_unit=tab.unit("right") is not None,
        rad_in_left_ann=not any(any(tab.mul(b, r)) for b in tab.basis for r in rad),
        rad_in_right_ann=not any(any(tab.mul(r, b)) for b in tab.basis for r in rad),
        idempotent_ranks=tuple(sorted(ranks)),
        ann_radsq_has_idempotent=any(any(row) for row in _gram(ann)),
    )


def matrix_rank(m):
    return echelonize([list(r) for r in m.rows]).rank


def principal_idempotent(s):
    """An idempotent of s lifting the identity of s/rad (None when s is
    nilpotent).  All such lifts are conjugate, so the rank is an invariant."""
    return _Table(s).closed().principal_idempotent()


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
    return _idempotents(_Table(s))


def _points(tab, elements):
    """(matrix, rank) for each element, each checked to be idempotent."""
    out = []
    for x in elements:
        if tab.mul(x, x) != x:
            raise SoundnessError("a computed idempotent does not square to itself")
        m = tab.mat(x)
        out.append((m, matrix_rank(m)))
    return tuple(out)


def _idempotents(tab):
    if len(tab.rad) == tab.k:
        return Idempotents((), ())
    if tab.k == 1:
        # closure gives b^2 = c b, with c != 0 as b is not nilpotent
        c = tab.c[0][0]
        if c is None:
            raise SoundnessError("the scaled generator is not idempotent")
        return Idempotents(_points(tab, [[1 / c[0]]]), ())
    if not tab.rad:
        return _idempotents_semisimple2(tab)
    # one-dimensional radical n: normalize u, the first basis element outside
    # it, to u^2 = u + m*n; then u n = sigma n, n u = tau n, sigma, tau in {0, 1}
    n = tab.rad[0]
    u = tab.basis[0] if n[1] else tab.basis[1]
    lam = _solve_in(tab.mul(u, u), (u, n), _LEAVES)[0]
    if lam == 0:
        raise SoundnessError("non-nilpotent 2-dim algebra must have u^2 ~ u")
    u = [x / lam for x in u]
    mu = _solve_in(tab.mul(u, u), (u, n), _LEAVES)[1]
    sigma = _solve_in(tab.mul(u, n), (n,), _NOT_MULTIPLE)[0]
    tau = _solve_in(tab.mul(n, u), (n,), _NOT_MULTIPLE)[0]
    if sigma not in (0, 1) or tau not in (0, 1):
        raise SoundnessError("the radical is not scaled by 0 or 1 under u")
    if sigma + tau == 1:
        if mu != 0:
            raise SoundnessError("idempotent lifting forces the mixed case to be exact")
        base, direction = tab.mat(u), tab.mat(n)
        generic = max(matrix_rank(base + direction.scale(t)) for t in (0, 1, -1, 2, -2, 3, 4))
        return Idempotents(_points(tab, [u]), (IdempotentFamily(base, direction, generic),))
    return Idempotents(_points(tab, [_comb(1, u, mu / (1 - sigma - tau), n)]), ())


def _idempotents_semisimple2(tab):
    unit = tab.unit("two")
    if unit is None:
        raise SoundnessError("2-dim semisimple algebras are unital")
    # the first basis element outside span(unit)
    w = tab.basis[0] if unit[1] else tab.basis[1]
    # w^2 = a w + b 1; split when the discriminant is a rational square
    a, b = _solve_in(tab.mul(w, w), (w, unit), _LEAVES)
    disc = a * a + 4 * b
    if disc == 0:
        raise SoundnessError("separable quadratic expected in a semisimple algebra")
    root = rational_sqrt(disc)
    if root is None:
        return Idempotents(_points(tab, [unit]), ())
    # e1 = (w - r2) / (r1 - r2) for the roots r1, r2 = (a +- root) / 2
    e1 = _comb(1 / root, w, (root - a) / (2 * root), unit)
    e2 = _comb(1, unit, -1, e1)
    return Idempotents(_points(tab, [e for e in (e1, e2, unit) if any(e)]), ())


_LEAVES = "a product leaves the span of its two factors"
_NOT_MULTIPLE = "a product with u is not a multiple of n"


def _solve_in(target, vectors, message):
    """Coefficients c with target = sum c_i vectors[i]; SoundnessError with
    the message when the target is None or outside their span."""
    sol = None if target is None else solve_linear([list(r) for r in zip(*vectors)], target)
    if sol is None:
        raise SoundnessError(message)
    return sol


# ---------------------------------------------------------------------------
# 2-dimensional type classification
# ---------------------------------------------------------------------------

def classify_2dim(s):
    """The isomorphism type D1..D7 of a 2-dimensional subalgebra over Q, read
    off its fingerprint (`Fingerprint.two_dim_type`)."""
    if s.dim != 2:
        raise DimensionMismatch(f"expected a 2-dimensional subalgebra, got dim {s.dim}")
    return fingerprint(s).two_dim_type()
