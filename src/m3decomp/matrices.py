"""The 3x3 matrix algebra over the exact scalars, and subspaces of it.

Entries are Fractions or polynomials, and one matrix may hold both: a
rational entry is a constant of whatever ring its neighbours live in, so a
constant matrix multiplies, adds to and spans with a parametric one as it
stands.  Two polynomials from different rings still refuse to meet
(DomainMismatch), which is the only compatibility check left.

Coordinates are always flattened in the fixed order

    e11, e12, e13, e21, e22, e23, e31, e32, e33

which every report and file format in the package relies on.
"""

from __future__ import annotations

from .linalg import echelonize
from .scalars import EMPTY_CONSTRAINTS, exact

#: coordinate order of the nine basis matrices
COORD_ORDER = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
COORD_INDEX = {ij: k for k, ij in enumerate(COORD_ORDER)}

_Z, _O = exact(0), exact(1)


class Mat3:
    """A 3x3 matrix of exact scalars (Fractions and polynomials)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(exact(x) for x in r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("3x3 entries required")
        self.rows = rows

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero():
        return Mat3(((_Z, _Z, _Z),) * 3)

    @staticmethod
    def identity():
        return Mat3(((_O, _Z, _Z), (_Z, _O, _Z), (_Z, _Z, _O)))

    @staticmethod
    def basis(i, j):
        """The matrix unit e_ij (1-based indices)."""
        rows = [[_Z, _Z, _Z], [_Z, _Z, _Z], [_Z, _Z, _Z]]
        rows[i - 1][j - 1] = _O
        return Mat3(rows)

    @staticmethod
    def from_coords(coords):
        coords = list(coords)
        if len(coords) != 9:
            raise ValueError("nine coordinates required")
        return Mat3((coords[0:3], coords[3:6], coords[6:9]))

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        return Mat3(tuple(tuple(a + b for a, b in zip(r1, r2))
                          for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other):
        return Mat3(tuple(tuple(a - b for a, b in zip(r1, r2))
                          for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self):
        return Mat3(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, c):
        c = exact(c)
        return Mat3(tuple(tuple(c * a for a in r) for r in self.rows))

    def __matmul__(self, other):
        b = other.rows
        return Mat3(tuple(tuple(r[0] * b[0][j] + r[1] * b[1][j] + r[2] * b[2][j] for j in range(3))
                          for r in self.rows))

    def transpose(self):
        return Mat3(tuple(tuple(self.rows[j][i] for j in range(3)) for i in range(3)))

    def adjugate(self):
        """The transposed matrix of cofactors: self @ adj = det(self) I with
        no division, so parametric entries need no pivot certified."""
        a = self.rows

        def cofactor(i, j):  # cyclic indices carry the sign (-1)^(i+j)
            i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
            return a[i1][j1] * a[i2][j2] - a[i1][j2] * a[i2][j1]

        return Mat3(tuple(tuple(cofactor(j, i) for j in range(3)) for i in range(3)))

    def det(self):
        """The determinant, expanded along the first row."""
        adj = self.adjugate().rows
        return sum(self.rows[0][j] * adj[j][0] for j in range(3))

    def coords(self):
        return tuple(x for row in self.rows for x in row)

    def is_zero(self):
        return not any(x for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"[{body}]"


class Subspace:
    """A linear subspace of the 9-dimensional matrix space.

    Stored as the original generators plus a reduced coordinate matrix whose
    pivots are certified nonzero under the attached constraints, so the
    recorded dimension is valid for every constraint-satisfying
    specialization.
    """

    __slots__ = ("generators", "echelon", "constraints")

    def __init__(self, generators, echelon, constraints):
        self.generators = tuple(generators)
        self.echelon = echelon
        self.constraints = constraints

    @property
    def dim(self):
        return self.echelon.rank

    def contains(self, m):
        """True iff m lies in the span under every constraint-satisfying
        specialization (the reduced residual vanishes identically)."""
        residual = self.echelon.reduce(m.coords())
        return not any(residual)

    def contains_subspace(self, other):
        return all(self.contains(g) for g in other.generators)

    def same_space(self, other):
        if self.dim != other.dim:
            return False
        return self.contains_subspace(other) and other.contains_subspace(self)

    def is_subalgebra(self):
        """Closure under products of generators; on failure returns the
        offending ordered pair of generator indices."""
        for i, gi in enumerate(self.generators):
            for j, gj in enumerate(self.generators):
                if not self.contains(gi @ gj):
                    return False, (i, j)
        return True, None

    def contains_identity(self):
        return self.contains(Mat3.identity())

    def basis_mats(self):
        return [Mat3.from_coords(r) for r in self.echelon.rows]

    def __repr__(self):
        return f"Subspace(dim={self.dim}, gens={len(self.generators)})"


def span(gens, constraints=EMPTY_CONSTRAINTS):
    """Span of matrices, with reduced form and certified dimension.

    Rescaling a generator by a constraint-nonzero polynomial yields an equal
    subspace; all-zero generators give the zero subspace (dimension 0).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator required")
    ech = echelonize([list(g.coords()) for g in gens], constraints)
    return Subspace(gens, ech, constraints)


def is_direct_sum(s, b):
    """True iff dims add to 9 and the stacked coordinate matrix has rank 9
    for every specialization satisfying the merged constraints."""
    if s.dim + b.dim != 9:
        return False
    merged = s.constraints.merged(b.constraints)
    rows = [list(r) for r in s.echelon.rows] + [list(r) for r in b.echelon.rows]
    ech = echelonize(rows, merged)
    return ech.rank == 9
