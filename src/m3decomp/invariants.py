"""Structural invariants separating subalgebra orbits: radical tower, units,
annihilator containments, idempotents, and the seven 2-dimensional types.

`fingerprint` is the one entry point: it returns a `Fingerprint`, which
reads its 2-dimensional type and names the first field that tells it apart
from another fingerprint up to the transpose (`SEPARATORS`).

All computations here are exact and over Q (a parametric span raises
NotSupported).  A subalgebra is read through one table: the k^2 products
b_i b_j of its echelon basis, formed once and written in the basis as
sum_l c_ij^l b_l; a span with a product outside it is refused.  Units,
radical powers, annihilators and idempotents are linear algebra on
coordinate vectors and this table, with no further matrix product.

In characteristic zero the Jacobson radical of a subalgebra of the matrix
algebra is the kernel of the ambient trace form tr(x y) = sum x_ab y_ba,
read from the coordinates, and (Dickson) an algebra is nilpotent exactly
when its radical is all of it, that is, when the trace form vanishes on it.
The principal idempotent e (the lift of the identity of s/rad) satisfies
tr(e y) = tr(y) for every y in s, as (1 - e) y (1 - e) is nilpotent; so
every solution c of gram c = (tr b_i) is e plus a radical element, and its
trace is rank e.  Whether a 2-dimensional semisimple algebra splits as
Q x Q, and so has idempotents of two more ranks, is read off rank e and
det(gram) (`_idempotent_ranks`).  A left unit and a right unit are equal,
so two one-sided solves decide all three unit flags.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DomainMismatch, NotSupported, SoundnessError
from .linalg import echelonize, kernel_basis, solve_linear
from .matrices import Mat3
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


def _flat(rows, x):
    """The flattened matrix with coordinates x in the basis rows."""
    return [sum(xi * r[a] for xi, r in zip(x, rows)) for a in range(9)]


class _Table:
    """A span through its echelon basis b_1..b_k and their products.

    Elements are coordinate vectors in the basis.  c[i][j] holds the
    coordinates of b_i b_j, or None when that product leaves the span; gram
    is the trace form tr(b_i b_j), rad a basis of its kernel, the radical, as
    vectors, and traces the tr(b_i).  Products, units and annihilators are
    read on a table that `closed` has passed.
    """

    def __init__(self, s):
        self.rows = _rational_rows(s)
        self.pivots = s.echelon.pivot_cols
        self.k = len(self.rows)
        self.basis = [[exact(int(i == j)) for j in range(self.k)] for i in range(self.k)]
        self.gram = _gram(self.rows)
        self.traces = [r[0] + r[4] + r[8] for r in self.rows]
        self.rad = kernel_basis(self.gram, self.k)
        mats = [Mat3.from_coords(r) for r in self.rows]
        self.c = [[self._coords((x @ y).coords()) for y in mats] for x in mats]

    def _coords(self, flat):
        """Coordinates of a flattened matrix, or None outside the span.  The
        rows are fully reduced, so each coordinate is read at its pivot."""
        x = [flat[p] / r[p] for r, p in zip(self.rows, self.pivots)]
        return x if list(flat) == _flat(self.rows, x) else None

    def closed(self):
        """This table, once every basis product is known to stay in the span."""
        if any(None in row for row in self.c):
            raise SoundnessError("a basis product leaves the span, which is no subalgebra")
        return self

    def mul(self, x, y):
        terms = [(xi * yj, self.c[i][j])
                 for i, xi in enumerate(x) for j, yj in enumerate(y) if xi and yj]
        return [sum((f * c[l] for f, c in terms), exact(0)) for l in range(self.k)]

    def annihilator(self, ts):
        """A basis of {x : x t = t x = 0 for every t in ts}."""
        rows = []
        for t in ts:
            rows += [list(row) for row in zip(*[self.mul(b, t) for b in self.basis])]
            rows += [list(row) for row in zip(*[self.mul(t, b) for b in self.basis])]
        return kernel_basis(rows, self.k)

    def unit(self, side):
        """A u with u b = b (side "left") or b u = b ("right") for every
        basis element b; None if absent.  A left unit and a right unit are
        equal (each is their product), so an algebra with both has a unit."""
        if not self.k:
            return None
        rows = []
        rhs = []
        for j, b in enumerate(self.basis):
            cols = [self.c[i][j] if side == "left" else self.c[j][i] for i in range(self.k)]
            rows += [list(row) for row in zip(*cols)]
            rhs += b
        return solve_linear(rows, rhs)

    def trace(self, x):
        """The trace of x: over Q the rank of x when x is an idempotent, and of
        the idempotent e when x - e lies in the radical, where the trace form
        vanishes (Pierce, Associative Algebras, 1982).  SoundnessError unless
        it is an integer from 1 to 3."""
        t = sum(xi * ti for xi, ti in zip(x, self.traces))
        if t not in (1, 2, 3):
            raise SoundnessError(f"an idempotent has trace {t}, not a rank from 1 to 3")
        return int(t)


#: The fingerprint fields that can tell two algebras apart, under their
#: report labels and in report order.  The transpose trades the two fields of
#: a sided entry (left for right) and fixes every other field.
SEPARATORS = (
    ("dim", ("dim",)),
    ("rad_dims", ("rad_dims",)),
    ("ss_dim", ("ss_dim",)),
    ("has_unit", ("has_unit",)),
    ("idempotent_ranks", ("idempotent_ranks",)),
    ("ann_radsq_has_idempotent", ("ann_radsq_has_idempotent",)),
    ("one-sided units", ("has_left_unit", "has_right_unit")),
    ("annihilator containments", ("rad_in_left_ann", "rad_in_right_ann")),
)


@dataclass(frozen=True)
class Fingerprint:
    """Orbit-invariant summary of a subalgebra.

    idempotent_ranks holds the rank of the principal idempotent (the one
    lifting the identity of s/rad; none when s is nilpotent), and for a
    split 2-dimensional semisimple algebra also the ranks of its two
    primitive idempotents: in dimension <= 2 these are the ranks of all
    nonzero idempotents.  The principal rank is read as a trace
    (`_Table.trace`), and the primitive ones follow from it and the trace
    form (`_idempotent_ranks`).  has_unit is has_left_unit and
    has_right_unit, since a left and a right unit are equal.
    ann_radsq_has_idempotent records whether the two-sided annihilator of
    rad^2 inside the algebra contains a nonzero idempotent (equivalently, is
    non-nilpotent).
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
        """The fingerprint of the transposed algebra: the two fields of each
        sided SEPARATORS entry trade places, everything else is fixed."""
        pairs = [fields for _, fields in SEPARATORS if len(fields) == 2]
        return replace(self, **{a: getattr(self, b)
                                for pair in pairs for a, b in (pair, pair[::-1])})

    def separated_by(self, other):
        """The label of the first SEPARATORS entry whose values in other
        differ from those of this fingerprint and of its transpose; None when
        the two agree in one orientation, and "fingerprint" when they agree
        entry by entry but in no one orientation."""
        flipped = self.swapped()
        if other in (self, flipped):
            return None
        for label, fields in SEPARATORS:
            values = [[getattr(fp, f) for f in fields] for fp in (other, self, flipped)]
            if values[0] not in values[1:]:
                return label
        return "fingerprint"

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
    tab = _Table(s).closed()
    rad = tab.rad
    rad2 = echelonize([tab.mul(x, y) for x in rad for y in rad]).rows
    rad3 = echelonize([tab.mul(x, y) for x in rad for y in rad2]).rows
    # the annihilator of rad^2 is an ideal; it is nilpotent iff the trace
    # form vanishes on it
    ann = [_flat(tab.rows, x) for x in tab.annihilator(rad2)]
    left = tab.unit("left") is not None
    right = tab.unit("right") is not None
    return Fingerprint(
        dim=tab.k,
        rad_dims=(len(rad), len(rad2), len(rad3)),
        ss_dim=tab.k - len(rad),
        has_unit=left and right,
        has_left_unit=left,
        has_right_unit=right,
        rad_in_left_ann=not any(any(tab.mul(b, r)) for b in tab.basis for r in rad),
        rad_in_right_ann=not any(any(tab.mul(r, b)) for b in tab.basis for r in rad),
        idempotent_ranks=tuple(sorted(set(_idempotent_ranks(tab)))),
        ann_radsq_has_idempotent=any(any(row) for row in _gram(ann)),
    )


# ---------------------------------------------------------------------------
# idempotent ranks
# ---------------------------------------------------------------------------

def _idempotent_ranks(tab):
    """The rank r of the principal idempotent, read as the trace of a
    solution of gram c = (tr b_i), or none when s is nilpotent; for a split
    2-dimensional semisimple algebra also the ranks 1 and r - 1 of its two
    primitive idempotents.  Such an algebra acts faithfully on the image of
    its unit, of dimension r, so a quadratic field needs r = 2.  At r = 2
    det(gram) is a square for Q x Q (gram is diag(1, 1) in the basis e1,
    e2) and 4d times one for Q(sqrt d) (diag(2, 2d) in the basis 1,
    sqrt d)."""
    if len(tab.rad) == tab.k:
        return []
    c = solve_linear(tab.gram, tab.traces)
    if c is None:
        raise SoundnessError("no element has the traces of a unit modulo the radical")
    r = tab.trace(c)
    if tab.k == 2 and not tab.rad:
        g = tab.gram
        if r == 3 or rational_sqrt(g[0][0] * g[1][1] - g[0][1] * g[1][0]) is not None:
            return [1, r - 1, r]
    return [r]
