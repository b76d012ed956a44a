"""The 3x3 matrix algebra over an exact scalar domain, and subspaces of it.

Coordinates are always flattened in the fixed order

    e11, e12, e13, e21, e22, e23, e31, e32, e33

which every report and file format in the package relies on.
"""

from __future__ import annotations

from .errors import DomainMismatch
from .linalg import echelonize, sc_is_zero
from .scalars import EMPTY_CONSTRAINTS, QQ

#: coordinate order of the nine basis matrices
COORD_ORDER = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))
COORD_INDEX = {ij: k for k, ij in enumerate(COORD_ORDER)}


class Mat3:
    """A 3x3 matrix with entries in one scalar domain."""

    __slots__ = ("rows", "domain")

    def __init__(self, rows, domain):
        rows = tuple(tuple(domain.coerce(x) for x in r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("3x3 entries required")
        self.rows = rows
        self.domain = domain

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(domain=QQ):
        z = domain.zero()
        return Mat3(((z, z, z),) * 3, domain)

    @staticmethod
    def identity(domain=QQ):
        z, o = domain.zero(), domain.one()
        return Mat3(((o, z, z), (z, o, z), (z, z, o)), domain)

    @staticmethod
    def basis(i, j, domain=QQ):
        """The matrix unit e_ij (1-based indices)."""
        z, o = domain.zero(), domain.one()
        rows = [[z, z, z], [z, z, z], [z, z, z]]
        rows[i - 1][j - 1] = o
        return Mat3(rows, domain)

    @staticmethod
    def from_coords(coords, domain=QQ):
        coords = list(coords)
        if len(coords) != 9:
            raise ValueError("nine coordinates required")
        return Mat3((coords[0:3], coords[3:6], coords[6:9]), domain)

    # -- ring structure ------------------------------------------------------

    def _same_domain(self, other):
        if not isinstance(other, Mat3):
            raise DomainMismatch(f"expected Mat3, got {other!r}")
        if other.domain != self.domain:
            raise DomainMismatch(f"{self.domain} vs {other.domain}")

    def __add__(self, other):
        self._same_domain(other)
        return Mat3(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
            self.domain,
        )

    def __sub__(self, other):
        self._same_domain(other)
        return Mat3(
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
            self.domain,
        )

    def __neg__(self):
        return Mat3(tuple(tuple(-a for a in r) for r in self.rows), self.domain)

    def scale(self, c):
        c = self.domain.coerce(c)
        return Mat3(tuple(tuple(c * a for a in r) for r in self.rows), self.domain)

    def __matmul__(self, other):
        self._same_domain(other)
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = self.domain.zero()
                for k in range(3):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return Mat3(tuple(rows), self.domain)

    def transpose(self):
        return Mat3(tuple(tuple(self.rows[j][i] for j in range(3)) for i in range(3)), self.domain)

    def trace(self):
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def coords(self):
        return tuple(x for row in self.rows for x in row)

    def is_zero(self):
        return all(sc_is_zero(x) for row in self.rows for x in row)

    def map_domain(self, domain):
        """Re-express entries in another domain (e.g. lift Q into a
        polynomial ring)."""
        return Mat3(self.rows, domain)

    def __eq__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
        return self.domain == other.domain and self.rows == other.rows

    def __hash__(self):
        return hash((self.domain, self.rows))

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

    __slots__ = ("generators", "echelon", "constraints", "domain")

    def __init__(self, generators, echelon, constraints, domain):
        self.generators = tuple(generators)
        self.echelon = echelon
        self.constraints = constraints
        self.domain = domain

    @property
    def dim(self):
        return self.echelon.rank

    @property
    def reduced(self):
        return [list(r) for r in self.echelon.rows]

    def contains(self, m):
        """True iff m lies in the span under every constraint-satisfying
        specialization (the reduced residual vanishes identically)."""
        if m.domain != self.domain:
            raise DomainMismatch(f"{self.domain} vs {m.domain}")
        residual = self.echelon.reduce(list(m.coords()), self.constraints)
        return all(sc_is_zero(x) for x in residual)

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
        return self.contains(Mat3.identity(self.domain))

    def basis_mats(self):
        return [Mat3.from_coords(r, self.domain) for r in self.echelon.rows]

    def __repr__(self):
        return f"Subspace(dim={self.dim}, gens={len(self.generators)})"


def span(gens, constraints=EMPTY_CONSTRAINTS):
    """Span of matrices over their common domain, with reduced form and
    certified dimension.

    Rescaling a generator by a constraint-nonzero polynomial yields an equal
    subspace; all-zero generators give the zero subspace (dimension 0).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator required")
    domain = gens[0].domain
    for g in gens:
        if g.domain != domain:
            raise DomainMismatch(f"{domain} vs {g.domain}")
    ech = echelonize([list(g.coords()) for g in gens], constraints)
    return Subspace(gens, ech, constraints, domain)


def is_direct_sum(s, b):
    """True iff dims add to 9 and the stacked coordinate matrix has rank 9
    for every specialization satisfying the merged constraints."""
    if s.domain != b.domain:
        raise DomainMismatch(f"{s.domain} vs {b.domain}")
    if s.dim + b.dim != 9:
        return False
    merged = s.constraints.merged(b.constraints)
    rows = [list(r) for r in s.echelon.rows] + [list(r) for r in b.echelon.rows]
    ech = echelonize(rows, merged)
    return ech.rank == 9
