import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from m3decomp import rota_baxter
from m3decomp.catalog import CatalogEntry, entry_by_id
from m3decomp.errors import NotDirectSum
from m3decomp.linalg import ff_inverse
from m3decomp.matrices import Mat3, span
from m3decomp.rota_baxter import (
    RBOperator,
    check_complement_identity,
    check_rb_identity,
    rb_pair_for_entry,
    splitting_rb,
)
from m3decomp.scalars import poly_to_string


def e(i, j):
    return Mat3.basis(i, j)


def numerator(r, m):
    """The fraction-free image of m under r: matrix9 applied to the
    coordinates of m, before dividing by the denominator."""
    return Mat3.from_coords([sum(a * x for a, x in zip(row, m.coords())) for row in r.matrix9])


def test_r1_projection_values():
    S, B = entry_by_id("R1").specialize({})
    r, _ = splitting_rb(S, B, Fraction(3))
    # e21 lies in S: killed; e11 lies in B: scaled by -weight
    img = numerator(r, e(2, 1))
    assert img == Mat3.zero()
    img = numerator(r, e(1, 1))
    assert img == e(1, 1).scale(Fraction(-3) * r.den)


def test_projection_identity():
    S, B = entry_by_id("R1").specialize({})
    r, _ = splitting_rb(S, B, Fraction(2))
    # R^2 = -weight * R, checked fraction-free
    for (i, j) in ((1, 1), (2, 1), (3, 3), (1, 2)):
        x = e(i, j)
        lhs = numerator(r, numerator(r, x))
        rhs = numerator(r, x).scale(Fraction(-2) * r.den)
        assert lhs == rhs


def test_identity_in_s_for_s1():
    entry = entry_by_id("S1")
    S, B = entry.specialize({})
    r, _ = splitting_rb(S, B, Fraction(1))
    assert numerator(r, Mat3.identity()) == Mat3.zero()


def test_zero_and_scaled_identity_pass():
    zero = RBOperator(
        tuple(tuple(Fraction(0) for _ in range(9)) for _ in range(9)),
        Fraction(1), Fraction(1),
    )
    ok, _ = check_rb_identity(zero)
    assert ok
    neg = RBOperator(
        tuple(tuple(Fraction(-1) if i == j else Fraction(0) for j in range(9))
              for i in range(9)),
        Fraction(1), Fraction(1),
    )
    ok, _ = check_rb_identity(neg)
    assert ok


def _e11_to_e12():
    rows = [[Fraction(0)] * 9 for _ in range(9)]
    rows[1][0] = Fraction(1)  # e11 -> e12, everything else -> 0
    return RBOperator(tuple(tuple(r) for r in rows), Fraction(1), Fraction(1))


def _bumped(ident, weight):
    """The entry's splitting operator with N[e33, e33] increased by one."""
    r = rb_pair_for_entry(entry_by_id(ident), weight)[0]
    rows = [list(row) for row in r.matrix9]
    rows[8][8] = rows[8][8] + 1
    return replace(r, matrix9=tuple(tuple(row) for row in rows))


@pytest.mark.parametrize("make, expected", [
    (_e11_to_e12, ((1, 1), (1, 1))),
    (lambda: _bumped("R9", None), ((3, 1), (2, 3))),
    (lambda: _bumped("R9", 1), ((3, 1), (2, 3))),
    (lambda: _bumped("T5", None), ((3, 3), (3, 1))),
    (lambda: _bumped("T5", 1), ((3, 3), (3, 1))),
], ids=["e11-to-e12", "R9-symbolic", "R9-weight1", "T5-symbolic", "T5-weight1"])
def test_broken_operator_fails(make, expected):
    # the witness is the first failing pair in coordinate order
    assert check_rb_identity(make()) == (False, expected)


def test_not_direct_sum_rejected():
    s = span([e(1, 1)])
    b = span([e(1, 1), e(2, 2)])
    with pytest.raises(NotDirectSum):
        splitting_rb(s, b, Fraction(1))


def test_overlapping_summands_rejected():
    # the dimensions add to 9, so only the singular inverse of [B | S] can
    # tell that e21 lies in both
    s = span([e(2, 1), e(3, 1)])
    b = span([e(1, 1), e(1, 2), e(1, 3), e(2, 1), e(2, 2), e(2, 3), e(3, 3)])
    assert s.dim + b.dim == 9
    with pytest.raises(NotDirectSum):
        splitting_rb(s, b, Fraction(1))


def test_symbolic_identities_sample():
    for ident in ("R10", "S11", "T5", "U8@M1", "V5", "X6", "Y10", "Z4"):
        r, rt = rb_pair_for_entry(entry_by_id(ident))
        ok, witness = check_rb_identity(r)
        assert ok, (ident, witness)
        ok, witness = check_rb_identity(rt)
        assert ok, (ident, witness)
        assert check_complement_identity(r, rt), ident
        # one inverse gives both: a shared denominator, and numerators that
        # add up to -lambda den Id entry by entry
        assert r.den == rt.den, ident
        neg_lam_d = -(r.weight * r.den)
        for i in range(9):
            for j in range(9):
                total = r.matrix9[i][j] + rt.matrix9[i][j]
                assert total == (neg_lam_d if i == j else 0), (ident, i, j)


@pytest.mark.parametrize("ident, weight", [("R9", Fraction(1)), ("T5", None)])
def test_one_inverse_per_entry(monkeypatch, ident, weight):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ff_inverse(*args, **kwargs)

    monkeypatch.setattr(rota_baxter, "ff_inverse", counted)
    rb_pair_for_entry(entry_by_id(ident), weight)
    assert len(calls) == 1


def test_weight_is_named_apart_from_the_parameters():
    # R10 as a catalog file could give it, with its parameters d and f
    # renamed lam and lam1: the weight takes the first free name, lam2
    names = {"d": "lam", "f": "lam1"}
    text = re.sub(r"\b[df]\b", lambda m: names[m.group()], json.dumps(entry_by_id("R10").to_json()))
    entry = CatalogEntry.from_json(json.loads(text))
    assert entry.params == ("lam", "lam1")
    r, rt = rb_pair_for_entry(entry)
    assert poly_to_string(r.weight) == "lam2" and poly_to_string(r.den) == "lam1"
    assert check_rb_identity(r)[0] and check_rb_identity(rt)[0]
    assert check_complement_identity(r, rt)


def test_concrete_weight():
    r, rt = rb_pair_for_entry(entry_by_id("R9"), weight=Fraction(5, 2))
    assert check_rb_identity(r)[0]
    assert check_complement_identity(r, rt)


def test_complement_identity_refusals():
    # R + R~ = -lambda Id fails for operators of two weights, and for an R~
    # with one numerator entry changed
    r, rt = rb_pair_for_entry(entry_by_id("R9"), weight=Fraction(1))
    _, rt2 = rb_pair_for_entry(entry_by_id("R9"), weight=Fraction(2))
    assert check_complement_identity(r, rt)
    assert not check_complement_identity(r, rt2)
    rows = [list(row) for row in rt.matrix9]
    rows[0][1] += 1
    assert not check_complement_identity(r, replace(rt, matrix9=tuple(map(tuple, rows))))


def test_export_shape():
    r = rb_pair_for_entry(entry_by_id("R1"), weight=1)[0]
    doc = r.to_json()
    assert len(doc["matrix"]) == 9 and len(doc["matrix"][0]) == 9
    assert doc["coordinate_order"][0] == "e11" and doc["coordinate_order"][-1] == "e33"
