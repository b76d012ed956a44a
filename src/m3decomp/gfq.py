"""Vectorized arithmetic in F_p and GF(p^2), one class for both.

`GFq(p, 1)` is F_p itself: its elements are plain integer arrays.
`GFq(p, 2)` is GF(p^2) = F_p[t]/(t^2 - s*t - r): its elements are (..., 2)
integer arrays (a0 + a1*t).  The quadratic is derived from p: t^2 = t + 1
for p = 2 (it has no root in F_2), and t^2 = r for odd p, with r the least
quadratic non-residue mod p (Lidl & Niederreiter, *Finite Fields*, ch. 2).
Matrix batches are (n, k, k) arrays of elements, so code written against
the class runs unchanged over either field.  GF(p^2) tests whether unmatched
search orbits become equivalent to catalog specializations after a
quadratic extension, which is the precise content of a square-root
obstruction.

The finite-field oracle accepts the primes up to MAX_PRIME (kept in scalars,
beside check_prime).  The bound comes from the oracle, not from this
arithmetic: its sweeps apply a group in batches and its solver's row budget
admits every pattern at p = 11, but no report there is archived yet.  The
class itself takes the primes up to MAX_CELL_PRIME, whose elements fit the
int8 cells that the oracle stores.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSupported
from .scalars import MAX_CELL_PRIME, check_prime


def quadratic(p):
    """(s, r) with t^2 - s*t - r irreducible over F_p."""
    if p == 2:
        return 1, 1
    r = next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)
    return 0, r


class GFq:
    def __init__(self, p, degree=1):
        check_prime(p, MAX_CELL_PRIME)
        if degree not in (1, 2):
            raise NotSupported(f"fields of degree {degree} over F_p")
        self.p = p
        self.degree = degree
        self.q = p ** degree
        if degree == 2:
            self.s, self.r = quadratic(p)
        # a^(q-2), the inverse of each a != 0, by repeated squaring over the
        # elements in the order of elements(); 0 has none and maps to 0
        square, e = self.elements(), self.q - 2
        self.inverses = self.lift(np.ones(self.q, dtype=np.int64))
        while e:
            if e & 1:
                self.inverses = self.mul(self.inverses, square)
            square, e = self.mul(square, square), e >> 1
        self.inverses[0] = 0

    # -- element helpers ----------------------------------------------------

    def lift(self, arr):
        """Embed an F_p integer array."""
        arr = np.asarray(arr, dtype=np.int64) % self.p
        if self.degree == 1:
            return arr
        return np.stack([arr, np.zeros_like(arr)], axis=-1)

    def elements(self):
        """All q field elements, deterministic order (a0 varies fastest)."""
        idx = np.arange(self.q)
        if self.degree == 1:
            return idx
        return np.stack([idx % self.p, idx // self.p], axis=-1)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return self._product(a, b, np.multiply)

    def _product(self, a, b, times):
        """a b, with times the elementwise or the matrix product of F_p
        arrays: over GF(p^2), (a0 + a1 t)(b0 + b1 t) with t^2 = s t + r."""
        p = self.p
        if self.degree == 1:
            return times(a, b) % p
        a0, a1 = a[..., 0], a[..., 1]
        b0, b1 = b[..., 0], b[..., 1]
        cross = times(a1, b1) % p
        c0 = (times(a0, b0) + self.r * cross) % p
        c1 = (times(a0, b1) + times(a1, b0) + self.s * cross) % p
        return np.stack([c0, c1], axis=-1)

    def is_zero(self, a):
        if self.degree == 1:
            return a == 0
        return (a[..., 0] == 0) & (a[..., 1] == 0)

    def inv(self, a):
        """Elementwise inverse (0 maps to 0): one lookup in the table of
        inverses, indexed by a0 + p*a1 over GF(p^2)."""
        if self.degree == 2:
            a = a[..., 0] + self.p * a[..., 1]
        return self.inverses[a]

    def eval_compiled(self, compiled, columns, n_rows):
        """Evaluate a compiled polynomial (`scalars.compile_poly`) on n_rows
        points; columns maps each variable index to its n_rows values."""
        acc = self.lift(np.zeros(n_rows, dtype=np.int64))
        for coeff, pairs in compiled:
            term = self.lift(np.full(n_rows, coeff, dtype=np.int64))
            for var_idx, e in pairs:
                col = columns[var_idx]
                for _ in range(e):
                    term = self.mul(term, col)
            acc = self.add(acc, term)
        return acc

    # -- matrices: (..., n, k) @ (..., k, m) in the last matrix axes --------

    def matmul(self, a, b):
        return self._product(a, b, np.matmul)

    # -- batched k x k matrices, (n, k, k) arrays of elements, k <= 4 --------

    def det_adj(self, m):
        """Determinant and adjugate of each matrix of the batch, by cofactors."""
        k = m.shape[1]
        cof = [[self._det(_minor(m, i, j)) for j in range(k)] for i in range(k)]
        adj = np.zeros_like(m)
        for i in range(k):
            for j in range(k):
                adj[:, i, j] = self.neg(cof[j][i]) if (i + j) % 2 else cof[j][i]
        return self._expand(m, cof[0]), adj

    def _det(self, m):
        k = m.shape[1]
        if k == 0:
            return self.lift(np.ones(m.shape[0], dtype=np.int64))
        if k == 1:
            return m[:, 0, 0]
        if k == 2:
            return self.sub(self.mul(m[:, 0, 0], m[:, 1, 1]),
                            self.mul(m[:, 0, 1], m[:, 1, 0]))
        return self._expand(m, [self._det(_minor(m, 0, j)) for j in range(k)])

    def _expand(self, m, minors):
        """Laplace expansion along the first row, given its minors."""
        terms = [self.mul(m[:, 0, j], minor) for j, minor in enumerate(minors)]
        return sum(t if j % 2 == 0 else -t for j, t in enumerate(terms)) % self.p

    def inv_mat(self, m):
        det, adj = self.det_adj(m)
        if self.is_zero(det).any():
            raise ZeroDivisionError(f"singular matrix batch in GF({self.q})")
        return self.mul(adj, self.inv(det)[:, None, None])


def _minor(m, i, j):
    """The batch with row i and column j of every matrix removed."""
    k = m.shape[1]
    return m[:, [r for r in range(k) if r != i]][:, :, [c for c in range(k) if c != j]]
