"""Constraint-aware exact linear algebra over rationals and parametric
polynomials.

Everything here is division-free at the core: rows are combined by
cross-multiplication with pivots that are *certified* nonzero (a nonzero
rational, or a polynomial that is a unit multiple of a product of the
declared nonzero constraint polynomials).  Ranks computed this way are valid
for every parameter specialization satisfying the constraints; when no
certified pivot exists among nonzero entries the computation refuses with
UndecidedPivot rather than guessing.  echelonize is one Gauss-Jordan pass
that reduces each row once and normalizes it once as it joins the echelon.

Entries are any exact scalars, rational or polynomial, through their common
protocol: `not x` tests for zero, and `/` is exact division (the Bareiss
steps of ff_inverse divide exactly), so nothing here asks which kind an
entry is.
"""

from __future__ import annotations

from .errors import SingularMatrix, UndecidedPivot
from .scalars import (
    EMPTY_CONSTRAINTS,
    certified_nonzero,
    exact,
    leading_coefficient,
    rational_content,
)


def _normalize_row(row):
    """Divide a nonzero row of exact scalars by the rational content of all
    its coefficients and make its leading nonzero entry positive (for a
    polynomial, its lex-leading coefficient)."""
    lead = next(x for x in row if x)
    inv = (1 if leading_coefficient(lead) > 0 else -1) / rational_content(row)
    return row if inv == 1 else [x * inv for x in row]


def _eliminate(row, piv_row, col):
    """Cross-multiplied elimination of row's entry in the pivot column.

    row := piv * row - row[col] * piv_row.  The pivot was certified nonzero
    when the echelon was built, so this rescales row by a nonzero factor and
    never changes the zero/nonzero status of the residual under any
    constraint-satisfying specialization.
    """
    c = row[col]
    if not c:
        return row
    piv = piv_row[col]
    return [piv * x - c * y for x, y in zip(row, piv_row)]


class Echelon:
    """Row echelon data for a list of coordinate rows."""

    __slots__ = ("rows", "pivot_cols")

    def __init__(self, rows, pivot_cols):
        self.rows = rows
        self.pivot_cols = pivot_cols

    @property
    def rank(self):
        return len(self.rows)

    @property
    def certificates(self):
        """The pivots, each certified nonzero under the constraints."""
        return [r[c] for r, c in zip(self.rows, self.pivot_cols)]

    def reduce(self, row):
        """Residual of a row against the echelon; the residual is identically
        zero exactly when the row lies in the span for every
        constraint-satisfying specialization.

        Rows are rescaled by certified pivots along the way, so this is a
        membership test, not a linear projection.
        """
        row = list(row)
        for erow, col in zip(self.rows, self.pivot_cols):
            row = _eliminate(row, erow, col)
        return row


def echelonize(rows, constraints=EMPTY_CONSTRAINTS):
    """Bring rows to a fully reduced, content-normalized echelon form.

    One Gauss-Jordan pass: each row is reduced once against the kept rows
    and normalized (so entry sizes stay polynomial); its leftmost certified
    entry becomes its pivot, and that column is cleared from the kept rows,
    as reduce needs.  The finished rows are sorted and normalized once more.
    Int entries become Fractions on entry, so no division gives a float.
    Raises UndecidedPivot when a nonzero row offers no certified entry.
    """
    echelon = {}  # pivot column -> row
    for row in rows:
        row = [exact(x) for x in row]
        for col, erow in echelon.items():
            row = _eliminate(row, erow, col)
        nonzero = [j for j, x in enumerate(row) if x]
        if not nonzero:
            continue
        pick = next((j for j in nonzero if certified_nonzero(row[j], constraints)), None)
        if pick is None:
            raise UndecidedPivot([row[j] for j in nonzero])
        row = _normalize_row(row)
        echelon = {col: _eliminate(erow, row, pick) for col, erow in echelon.items()}
        echelon[pick] = row
    cols = sorted(echelon)
    return Echelon([_normalize_row(echelon[col]) for col in cols], cols)


def ff_inverse(matrix, constraints=EMPTY_CONSTRAINTS):
    """Fraction-free Gauss-Jordan inverse.

    Returns (N, d) with matrix^-1 = N / d; every intermediate entry is a
    minor of the input (Bareiss one-step divisions are exact).  Pivots are
    searched downward in each column and must be certified nonzero.  Int
    entries become Fractions, so no division gives a float.
    """
    n = len(matrix)
    one, zero = exact(1), exact(0)
    aug = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("square matrix required")
        aug.append([exact(x) for x in row] + [one if j == i else zero for j in range(n)])
    prev = one
    for k in range(n):
        pick = None
        fallback = None
        for r in range(k, n):
            x = aug[r][k]
            if not x:
                continue
            if certified_nonzero(x, constraints):
                pick = r
                break
            if fallback is None:
                fallback = x
        if pick is None:
            if fallback is None:
                raise SingularMatrix("matrix has no certified inverse (zero column)")
            raise UndecidedPivot([fallback])
        if pick != k:
            aug[k], aug[pick] = aug[pick], aug[k]
        piv = aug[k][k]
        for i in range(n):
            if i == k:
                continue
            factor = aug[i][k]
            new_row = []
            for j in range(2 * n):
                if j == k:
                    new_row.append(zero)
                    continue
                val = piv * aug[i][j] - factor * aug[k][j]
                # a zero first: a rational zero may meet a polynomial divisor
                new_row.append(val / prev if val else val)
            aug[i] = new_row
        prev = piv
    det = aug[n - 1][n - 1]
    numer = [row[n:] for row in aug]
    return numer, det


def solve_linear(a_rows, rhs):
    """One exact solution of A c = rhs over a field (free unknowns set to 0),
    or None when inconsistent: the kernel vector of [A | -rhs] that is 1 in
    the last column, cut to its first n coordinates."""
    n = len(a_rows[0]) if a_rows else 0
    for vec in kernel_basis([list(row) + [-r] for row, r in zip(a_rows, rhs)], n + 1):
        if vec[n] == 1:
            return vec[:n]
    return None


def kernel_basis(a_rows, n):
    """Basis of {c : A c = 0} over Q, for a matrix given as rows of length n.
    Relies on echelonize producing fully reduced rows."""
    ech = echelonize(a_rows)
    pivots = set(ech.pivot_cols)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [exact(0)] * n
        vec[free] = exact(1)
        for row, col in zip(ech.rows, ech.pivot_cols):
            if row[free]:
                vec[col] = -(row[free] / row[col])
        basis.append(vec)
    return basis

