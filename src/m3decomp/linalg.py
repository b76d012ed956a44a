"""Constraint-aware exact linear algebra over rationals and parametric
polynomials.

Everything here is division-free at the core: rows are combined by
cross-multiplication with pivots that are *certified* nonzero (a nonzero
rational, or a polynomial that is a unit multiple of a product of the
declared nonzero constraint polynomials).  Ranks computed this way are valid
for every parameter specialization satisfying the constraints; when no
certified pivot exists among nonzero entries the computation refuses with
UndecidedPivot rather than guessing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrix, UndecidedPivot
from .scalars import (
    EMPTY_CONSTRAINTS,
    MultiPoly,
    certified_nonzero,
    rational_content,
)


def sc_is_zero(x):
    if isinstance(x, MultiPoly):
        return x.is_zero()
    return x == 0


def _coefficients(x):
    return x.terms.values() if isinstance(x, MultiPoly) else (x,)


def _normalize_row(row):
    """Divide a row by the rational content of all its coefficients and make
    its leading nonzero entry positive (for a polynomial, its lex-leading
    coefficient)."""
    lead = next((x for x in row if not sc_is_zero(x)), None)
    if lead is None:
        return row
    content = rational_content(c for x in row for c in _coefficients(x))
    sign = lead.leading()[1] if isinstance(lead, MultiPoly) else lead
    inv = (1 if sign > 0 else -1) / content
    return [x * inv for x in row]


def _eliminate(row, piv_row, col):
    """Cross-multiplied elimination of row's entry in the pivot column.

    row := piv * row - row[col] * piv_row.  The pivot was certified nonzero
    when the echelon was built, so this rescales row by a nonzero factor and
    never changes the zero/nonzero status of the residual under any
    constraint-satisfying specialization.
    """
    c = row[col]
    if sc_is_zero(c):
        return row
    piv = piv_row[col]
    return _normalize_row([piv * x - c * y for x, y in zip(row, piv_row)])


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

    def project_field(self, row):
        """Linear projection killing the pivot coordinates (field scalars
        only): row minus its echelon-span component."""
        row = list(row)
        for erow, col in zip(self.rows, self.pivot_cols):
            c = row[col]
            if not sc_is_zero(c):
                f = c / erow[col]
                row = [x - f * y for x, y in zip(row, erow)]
        return row


def echelonize(rows, constraints=EMPTY_CONSTRAINTS):
    """Bring rows to a fully reduced, content-normalized echelon form.

    Pivots are chosen leftmost among certified-nonzero entries.  Raises
    UndecidedPivot when a nonzero row offers no certified entry.
    """
    ech_rows = []
    pivot_cols = []
    for row in rows:
        row = list(row)
        for erow, col in zip(ech_rows, pivot_cols):
            row = _eliminate(row, erow, col)
        if all(sc_is_zero(x) for x in row):
            continue
        pick = None
        for j, x in enumerate(row):
            if sc_is_zero(x):
                continue
            if certified_nonzero(x, constraints):
                pick = j
                break
        if pick is None:
            raise UndecidedPivot([x for x in row if not sc_is_zero(x)])
        # keep echelon sorted by pivot column, reducing earlier rows too
        ech_rows.append(row)
        pivot_cols.append(pick)
        order = sorted(range(len(pivot_cols)), key=lambda i: pivot_cols[i])
        ech_rows = [ech_rows[i] for i in order]
        pivot_cols = [pivot_cols[i] for i in order]
    # fully reduce: each pivot column must vanish in every other row, or a
    # later single-pass residual reduction could reintroduce cleared columns
    for i in range(len(ech_rows)):
        for k in range(len(ech_rows)):
            if k != i:
                ech_rows[k] = _eliminate(ech_rows[k], ech_rows[i], pivot_cols[i])
    return Echelon([_normalize_row(r) for r in ech_rows], pivot_cols)


def ff_inverse(matrix, constraints=EMPTY_CONSTRAINTS):
    """Fraction-free Gauss-Jordan inverse.

    Returns (N, d) with matrix^-1 = N / d; every intermediate entry is a
    minor of the input (Bareiss one-step divisions are exact).  Pivots are
    searched downward in each column and must be certified nonzero.
    """
    n = len(matrix)
    one, zero = Fraction(1), Fraction(0)
    aug = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("square matrix required")
        aug.append(list(row) + [one if j == i else zero for j in range(n)])
    prev = one
    for k in range(n):
        pick = None
        fallback = None
        for r in range(k, n):
            x = aug[r][k]
            if sc_is_zero(x):
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
                new_row.append(_exact_div(val, prev))
            aug[i] = new_row
        prev = piv
    det = aug[n - 1][n - 1]
    numer = [row[n:] for row in aug]
    return numer, det


def solve_linear(a_rows, rhs):
    """One exact solution of A c = rhs over a field (free unknowns set to 0),
    or None when inconsistent."""
    n = len(a_rows[0]) if a_rows else 0
    aug = [list(row) + [r] for row, r in zip(a_rows, rhs)]
    ech = echelonize(aug)
    zero = rhs[0] - rhs[0] if rhs else Fraction(0)
    sol = [zero] * n
    if n in ech.pivot_cols:
        return None
    # rows are fully reduced, so with free unknowns at zero each pivot
    # unknown reads off directly
    for row, col in zip(ech.rows, ech.pivot_cols):
        sol[col] = row[n] / row[col]
    return sol


def kernel_basis(a_rows, n):
    """Basis of {c : A c = 0} over Q, for a matrix given as rows of length n.
    Relies on echelonize producing fully reduced rows."""
    ech = echelonize(a_rows)
    pivots = set(ech.pivot_cols)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, col in zip(ech.rows, ech.pivot_cols):
            if not sc_is_zero(row[free]):
                vec[col] = -(row[free] / row[col])
        basis.append(vec)
    return basis


def _exact_div(a, b):
    # a zero numerator first: a rational zero may meet a polynomial divisor
    if sc_is_zero(a):
        return a
    if isinstance(b, MultiPoly):
        if not b.is_constant():
            # only a polynomial is divisible by a nonconstant one
            return a.exact_divide(b)
        b = b.constant_value()
    return a if b == 1 else a * (1 / Fraction(b))
