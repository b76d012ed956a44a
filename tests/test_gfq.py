import time

import numpy as np
import pytest

from m3decomp.errors import NotSupported
from m3decomp.gfq import GFq, quadratic
from m3decomp.scalars import MAX_CELL_PRIME, MAX_PRIME, check_prime, is_prime


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms(p):
    gf = GFq(p, 2)
    els = gf.elements()
    q = gf.q
    assert els.shape == (q, 2)
    # associativity and distributivity on the full multiplication table
    a = np.repeat(els, q, axis=0)
    b = np.tile(els, (q, 1))
    ab = gf.mul(a, b)
    ba = gf.mul(b, a)
    assert np.array_equal(ab, ba)
    c = els[min(q - 1, 3)][None, :].repeat(a.shape[0], axis=0)
    assert np.array_equal(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)))
    assert np.array_equal(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverses(p):
    gf = GFq(p, 2)
    els = gf.elements()
    nonzero = els[~gf.is_zero(els)]
    inv = gf.inv(nonzero)
    prod = gf.mul(nonzero, inv)
    assert (prod[:, 0] == 1).all() and (prod[:, 1] == 0).all()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_multiplicative_group_order(p):
    # the nonzero elements form a cyclic group of order p^2 - 1: verify that
    # x^(q-1) = 1 for all nonzero x, which also certifies irreducibility of
    # the reduction polynomial
    gf = GFq(p, 2)
    els = gf.elements()
    nonzero = els[~gf.is_zero(els)]
    acc = gf.lift(np.ones(nonzero.shape[0], dtype=np.int64))
    for _ in range(gf.q - 1):
        acc = gf.mul(acc, nonzero)
    assert (acc[:, 0] == 1).all() and (acc[:, 1] == 0).all()


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_matrix_inverse_batched(k, degree):
    gf = GFq(3, degree)
    rng = np.random.default_rng(3)
    found = 0
    while found < 4:
        m = rng.integers(0, 3, (8, k, k, 2))
        if degree == 1:
            m = m[..., 0]
        det, _ = gf.det_adj(m)
        if degree == 1:
            assert (det == np.rint(np.linalg.det(m)).astype(np.int64) % 3).all()
        m = m[~gf.is_zero(det)]
        if not m.shape[0]:
            continue
        found += m.shape[0]
        prod = gf.matmul(m, gf.inv_mat(m))
        assert (prod == gf.lift(np.eye(k, dtype=np.int64))).all()


def test_lift_embeds_prime_field():
    gf = GFq(5, 2)
    a = gf.lift(np.array([2, 3]))
    b = gf.lift(np.array([4, 4]))
    prod = gf.mul(a, b)
    assert prod[..., 1].sum() == 0
    assert list(prod[..., 0]) == [(2 * 4) % 5, (3 * 4) % 5]


def test_derived_tables_match_the_former_literals():
    # the quadratics and inverse tables once listed by hand for 2, 3 and 5
    assert {p: quadratic(p) for p in (2, 3, 5)} == {2: (1, 1), 3: (0, 2), 5: (0, 2)}
    assert {p: GFq(p).inverses.tolist() for p in (2, 3, 5)} == {
        2: [0, 1], 3: [0, 1, 2], 5: [0, 1, 3, 2, 4]}
    assert quadratic(7) == (0, 3)
    assert GFq(7, 2).r == 3
    assert GFq(7).inverses.tolist() == [0, 1, 4, 5, 2, 3, 6]


@pytest.mark.parametrize("p", [p for p in range(MAX_PRIME + 1) if is_prime(p, MAX_PRIME)])
def test_reduction_quadratic_has_no_root(p):
    s, r = quadratic(p)
    assert all((t * t - s * t - r) % p for t in range(p))


def test_prime_field_is_degree_one():
    gf = GFq(5)
    assert gf.q == 5 and np.array_equal(gf.elements(), np.arange(5))
    a = np.arange(5)
    assert np.array_equal(gf.mul(a, gf.inv(a)), [0, 1, 1, 1, 1])
    m = np.array([[[1, 2], [3, 4]], [[2, 0], [0, 3]]])
    assert np.array_equal(gf.matmul(m, gf.inv_mat(m)), [np.eye(2, dtype=int)] * 2)


@pytest.mark.parametrize("p", [0, 1, 4, 9, -3])
def test_non_primes_rejected(p):
    with pytest.raises(NotSupported, match="not a prime"):
        check_prime(p, MAX_CELL_PRIME)
    with pytest.raises(NotSupported, match="not a prime"):
        GFq(p)


def test_primes_beyond_the_cell_bound_are_refused_at_once():
    # trial division stops at the bound: the Mersenne prime 2^61 - 1 would
    # need about 1.5e9 divisions to be shown prime
    start = time.perf_counter()
    for p in (2**61 - 1, 131):
        with pytest.raises(NotSupported, match=f"up to {MAX_CELL_PRIME}, not {p}$"):
            GFq(p)
    assert time.perf_counter() - start < 1


def test_inverses_at_the_largest_cell_prime():
    gf = GFq(MAX_CELL_PRIME, 2)
    zero, nonzero = gf.elements()[:1], gf.elements()[1:]
    assert np.array_equal(gf.mul(nonzero, gf.inv(nonzero)), gf.lift([1] * len(nonzero)))
    assert gf.is_zero(gf.inv(zero)).all()


def test_oracle_bound():
    check_prime(MAX_PRIME)
    check_prime(11, MAX_CELL_PRIME)
    with pytest.raises(NotSupported, match=f"up to {MAX_PRIME}, not 11"):
        check_prime(11)
