"""Splitting operators induced by direct decompositions, checked against the
weight-lambda identity

    R(x) R(y) = R( R(x) y + x R(y) + lambda x y )

exactly on all 81 ordered basis pairs.

Convention: the decomposition S (+) B induces R(s + b) = -lambda * b, the
projection onto B scaled by -lambda, and R~ = -lambda Id - R, R~(s + b) =
-lambda * s; both satisfy the identity.  Each is stored fraction-free as a 9x9
numerator matrix N over a scalar denominator den, R = N / den: one inverse of
the basis-change matrix gives both, and its determinant is their common den.

By linearity a pair x = e_ij, y = e_kl needs only the columns X = N(e_ij) and
Y = N(e_kl) of N, read as 3x3 matrices.  As e_ij e_kl = delta_jk e_il, the
identity times den^2 reads

    X Y = sum_m X[m,k] N(e_ml) + sum_m Y[j,m] N(e_im) + delta_jk lambda den N(e_il).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count

from .errors import NotDirectSum, SingularMatrix
from .linalg import ff_inverse
from .matrices import COORD_ORDER, Mat3, span
from .scalars import (
    EMPTY_CONSTRAINTS,
    ConstraintSet,
    PolynomialRing,
    certified_nonzero,
    exact,
    poly_to_string,
)


@dataclass
class RBOperator:
    """A linear operator on the matrix algebra: x -> (matrix9 x) / den."""

    matrix9: tuple
    den: object
    weight: object
    source_entry: str = ""
    constraints: ConstraintSet = EMPTY_CONSTRAINTS

    def to_json(self):
        return {
            "source_entry": self.source_entry,
            "weight": poly_to_string(self.weight),
            "denominator": poly_to_string(self.den),
            "matrix": [[poly_to_string(x) for x in row] for row in self.matrix9],
            "coordinate_order": ["e%d%d" % ij for ij in COORD_ORDER],
        }


def splitting_rb(s, b, weight, source_entry=""):
    """The operators R(s + b) = -weight * b and R~(s + b) = -weight * s of
    S (+) B, read off one fraction-free inverse N / det of D = [B | S]:
    R = -weight D_B N_B / det from B's columns of D and rows of N, R~ from
    S's.  B's (constant-pivoted) reduced basis comes first so that
    parametric entries never block a pivot."""
    if s.dim + b.dim != 9:
        raise NotDirectSum("the two dimensions do not add to 9")
    weight = exact(weight)
    constraints = s.constraints.merged(b.constraints)
    if not certified_nonzero(weight, constraints):
        raise ValueError("weight must be (certifiably) nonzero")
    cols = [list(r) for r in b.echelon.rows + s.echelon.rows]
    # D has the basis vectors as columns, B's first
    d_mat = [[cols[j][i] for j in range(9)] for i in range(9)]
    try:
        numer, det = ff_inverse(d_mat, constraints)
    except SingularMatrix:
        raise NotDirectSum("the two subspaces do not span the matrix space") from None
    neg_w = -weight

    def operator(ts):
        matrix9 = tuple(
            tuple(neg_w * sum(d_mat[i][t] * numer[t][j] for t in ts) for j in range(9))
            for i in range(9)
        )
        return RBOperator(matrix9, det, weight, source_entry, constraints)

    return operator(range(b.dim)), operator(range(b.dim, 9))


def check_rb_identity(r):
    """The weight identity on all 81 ordered basis pairs, each as a 3x3 product
    against at most seven columns of N; returns (ok, first failing pair)."""
    cols = [[row[a] for row in r.matrix9] for a in range(9)]  # cols[3i + j] = N(e_ij)
    lam_d = r.weight * r.den
    for a, X in enumerate(cols):
        i, j = divmod(a, 3)
        for c, Y in enumerate(cols):
            k, l = divmod(c, 3)
            lhs = [sum(X[p + m] * Y[3 * m + q] for m in range(3))
                   for p in (0, 3, 6) for q in range(3)]
            terms = [(X[3 * m + k], cols[3 * m + l]) for m in range(3)]
            terms += [(Y[3 * j + m], cols[3 * i + m]) for m in range(3)]
            if j == k:
                terms.append((lam_d, cols[3 * i + l]))
            # a zero coefficient adds nothing to the combination
            terms = [(f, col) for f, col in terms if f]
            rhs = [sum(f * col[t] for f, col in terms) for t in range(9)]
            if lhs != rhs:
                return False, (COORD_ORDER[a], COORD_ORDER[c])
    return True, None


def check_complement_identity(r, r_tilde):
    """R + R~ = -lambda Id, cross-multiplied through both denominators."""
    if r.weight != r_tilde.weight:
        return False
    lam = r.weight
    for i in range(9):
        for j in range(9):
            lhs = r.matrix9[i][j] * r_tilde.den + r_tilde.matrix9[i][j] * r.den
            rhs = -(lam * r.den * r_tilde.den) if i == j else 0
            if lhs != rhs:
                return False
    return True


def _summands(entry, weight):
    """(S, B, weight) of an entry's decomposition: symbolic in the entry's
    parameters and the weight when weight is None (S's entries cast into the
    ring that carries the weight, B's constant ones left over Q), else over Q
    at the entry's standard point.  The weight is the first of lam, lam1,
    lam2, ... that is not a parameter of the entry."""
    if weight is None:
        names = chain(["lam"], (f"lam{i}" for i in count(1)))
        name = next(n for n in names if n not in entry.params)
        ring = PolynomialRing(entry.params + (name,))
        lam = ring.gen(name)
        constraints = entry.constraints.cast(ring).merged(ConstraintSet([lam]))
        s = span([Mat3([[x.cast(ring) for x in row] for row in g.rows])
                  for g in entry.s_generators], constraints)
        return s, entry.complement.subspace(), lam
    s, b = entry.specialize(entry.standard_values())
    return s, b, Fraction(weight)


def rb_pair_for_entry(entry, weight=None):
    """Both complementary operators of an entry's decomposition."""
    return splitting_rb(*_summands(entry, weight), entry.id)
