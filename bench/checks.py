"""Checks on m3decomp reports, computed apart from the program.

Everything here uses the standard library only: exact `Fraction` arithmetic
for the splitting operators, arithmetic mod p for the (T4)/(T6) witness, and
plain comparisons for the properties every report must have.  A check that
does not hold raises `CheckFailed`; its message is the first line of the
operation's error.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction


class CheckFailed(Exception):
    """A report that the program produced is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact linear algebra on 9-vectors (coordinates e11, e12, ..., e33)
# ---------------------------------------------------------------------------

def eval_poly(text, values):
    """Value of a catalog polynomial string ("e*u-1", "-2*d*d+f") at a
    parameter assignment, in exact arithmetic."""
    total = Fraction(0)
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        coeff = Fraction(1)
        while term.startswith("-"):
            coeff, term = -coeff, term[1:].strip()
        for factor in term.split("*"):
            factor = factor.strip()
            coeff *= Fraction(factor) if factor[:1].isdigit() else values[factor]
        total += coeff
    return total


def rref(rows, modulus=None):
    """Reduced row echelon form of a list of vectors, over Q or over F_p."""
    def norm(x):
        return x % modulus if modulus else x

    m = [[norm(x) for x in row] for row in rows]
    out = []
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in m if r[col] != 0), None)
        if piv is None:
            continue
        m.remove(piv)
        inv = pow(piv[col], -1, modulus) if modulus else 1 / piv[col]
        piv = [norm(x * inv) for x in piv]
        m = [[norm(x - r[col] * y) for x, y in zip(r, piv)] for r in m]
        out = [[norm(x - r[col] * y) for x, y in zip(r, piv)] for r in out]
        out.append(piv)
    return out


def rank(rows):
    return len(rref(rows))


def null_space(mat):
    """A basis of {x : mat x = 0} over Q."""
    reduced = rref(mat)
    pivots = [next(c for c, x in enumerate(r) if x != 0) for r in reduced]
    basis = []
    for free in (c for c in range(len(mat[0])) if c not in pivots):
        vec = [Fraction(0)] * len(mat[0])
        vec[free] = Fraction(1)
        for r, pc in zip(reduced, pivots):
            vec[pc] = -r[free]
        basis.append(vec)
    return basis


def apply(mat, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


def mat_mul9(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def product(x, y, modulus=None):
    """Matrix product of two 3x3 matrices given as 9-vectors."""
    out = [sum(x[3 * i + k] * y[3 * k + j] for k in range(3)) for i in range(3) for j in range(3)]
    return [v % modulus for v in out] if modulus else out


def in_span(reduced, vec):
    """True when vec lies in the span of the rows of an rref."""
    vec = list(vec)
    for row in reduced:
        col = next(c for c, x in enumerate(row) if x != 0)
        if vec[col]:
            vec = [a - vec[col] * b for a, b in zip(vec, row)]
    return not any(vec)


def closed_under_products(basis):
    reduced = rref(basis)
    return all(in_span(reduced, product(x, y)) for x in basis for y in basis)


def flat(matrix_rows, values):
    return [eval_poly(cell, values) for row in matrix_rows for cell in row]


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def export_entries(doc):
    require(doc.get("schema_version") == 1, "export: schema_version is not 1")
    entries = doc.get("entries", [])
    ids = [e["id"] for e in entries]
    require(len(entries) == 71, f"export: {len(entries)} entries, expected 71")
    require(len(set(ids)) == 71, "export: entry ids are not unique")
    return {e["id"]: e for e in entries}


def check_verify(doc):
    entries = doc["entries"]
    require(len(entries) == 71, f"verify: {len(entries)} entries, expected 71")
    bad = [e["entry"] for e in entries if not e["passed"]]
    require(not bad, f"verify: entries failed: {', '.join(bad[:5])}")
    warned = [e["entry"] for e in entries if e["warning"]]
    require(not warned, f"verify: symbolic mode downgraded on {', '.join(warned[:5])}")
    require(doc["all_passed"], "verify: all_passed is false")


def check_rb_flags(doc):
    ops = doc["operators"]
    require(len(ops) == 71, f"rb: {len(ops)} operators, expected 71")
    for rec in ops:
        for key in ("identity", "complement_identity_holds", "complementary_operator_identity"):
            require(rec[key] is True, f"rb: {key} fails on {rec['entry']}")
    require(doc["all_passed"], "rb: all_passed is false")


def check_rb_operators(doc, entries, seed, samples=3):
    """The weight-lambda splitting operators, recomputed properties: R o R =
    -lambda R, R kills S, rank R = 9 - dim S, ker R and im R are subalgebras,
    R(I) agrees with the unital component, and the weight identity holds on
    seeded sample pairs.  Parameters are set to 2, 3, ... in declared order."""
    check_rb_flags(doc)
    lam = Fraction(doc["weight"])
    identity = [Fraction(int(i == j)) for i in range(3) for j in range(3)]
    for rec in doc["operators"]:
        eid = rec["entry"]
        op = rec["operator"]
        entry = entries[eid]
        require(op["source_entry"] == eid, f"rb: operator of {eid} names {op['source_entry']}")
        den = Fraction(op["denominator"])
        require(den != 0, f"rb: zero denominator on {eid}")
        mat = [[Fraction(x) / den for x in row] for row in op["matrix"]]
        values = {p: Fraction(2 + i) for i, p in enumerate(entry["params"])}
        s_gens = [flat(g, values) for g in entry["s_generators"]]
        dim_s = rank(s_gens)

        neg = [[-lam * x for x in row] for row in mat]
        require(mat_mul9(mat, mat) == neg, f"rb: R o R != -lambda R on {eid}")
        require(all(not any(apply(mat, s)) for s in s_gens), f"rb: R does not kill S on {eid}")
        require(rank(mat) == 9 - dim_s, f"rb: rank R != 9 - dim S on {eid}")
        kernel = null_space(mat)
        image = rref([list(col) for col in zip(*mat)])
        require(closed_under_products(kernel), f"rb: ker R is not a subalgebra on {eid}")
        require(closed_under_products(image), f"rb: im R is not a subalgebra on {eid}")
        expect = [Fraction(0)] * 9 if entry["unital_component"] == "S" else \
            [-lam * x for x in identity]
        require(apply(mat, identity) == expect, f"rb: R(I) disagrees with the unital component on {eid}")

        rng = random.Random(f"{seed}:{eid}")
        for _ in range(samples):
            x = [Fraction(rng.randint(-3, 3)) for _ in range(9)]
            y = [Fraction(rng.randint(-3, 3)) for _ in range(9)]
            rx, ry = apply(mat, x), apply(mat, y)
            inner = [a + b + lam * c for a, b, c in
                     zip(product(rx, y), product(x, ry), product(x, y))]
            require(product(rx, ry) == apply(mat, inner),
                    f"rb: weight identity fails on a sample pair of {eid}")


def witness_maps_t4_to_t6(witness, p, t4_gens, t6_gens):
    """X -> T^-1 P13 X^t P13 T (or T^-1 X T without the twist), with
    T = [[1, beta, gamma], [0, delta, epsilon], [0, 0, alpha]], carries
    span(T4) onto span(T6) mod p."""
    w = witness
    t = [1, w["beta"], w["gamma"], 0, w["delta"], w["epsilon"], 0, 0, w["alpha"]]
    require(w["delta"] * w["alpha"] % p, f"invariants: witness at p={p} is singular")
    augmented = rref([t[3 * i:3 * i + 3] + [int(i == j) for j in range(3)] for i in range(3)], p)
    t_inv = [x for row in augmented for x in row[3:]]
    swap = [0, 0, 1, 0, 1, 0, 1, 0, 0]

    def image(x):
        if w["composed_with_transpose_twist"]:
            x = [x[3 * j + i] for i in range(3) for j in range(3)]
            x = product(product(swap, x, p), swap, p)
        return product(product(t_inv, x, p), t, p)

    src = [image([int(v) % p for v in g]) for g in t4_gens]
    dst = [[int(v) % p for v in g] for g in t6_gens]
    require(rref(src, p) == rref(dst, p), f"invariants: witness at p={p} does not carry T4 onto T6")


def check_invariants(doc, entries):
    """Finding 2: remarks 1, 4, 6 and 7 pass; remark 3 fails only on T4/T6,
    with a witness at p = 3 and p = 5 that is re-checked here."""
    require(len(doc["fingerprints"]) == 71,
            f"invariants: {len(doc['fingerprints'])} fingerprints, expected 71")
    remarks = doc["remarks"]
    for key in ("remark1", "remark4", "remark6", "remark7"):
        require(remarks[key]["passed"], f"invariants: {key} fails")
    r3 = remarks["remark3"]
    open_pairs = [x["pair"] for x in r3["pairs"] if x["separated_by"] is None]
    require(open_pairs == [["T4", "T6"]], f"invariants: unseparated pairs {open_pairs}")
    zero = {}
    t4 = [flat(g, zero) for g in entries["T4"]["s_generators"]]
    t6 = [flat(g, zero) for g in entries["T6"]["s_generators"]]
    for p in (3, 5):
        found = r3["sweep"].get(str(p))
        require(found is not None and not found["separated"] and found["witness"],
                f"invariants: remark 3 gives no witness at p={p}")
        witness_maps_t4_to_t6(found["witness"], p, t4, t6)
    require(doc["all_passed"] is False, "invariants: all_passed should be false (Finding 2)")


#: keys cmd_search adds around coverage_report's dictionary
CLI_ONLY_KEYS = ("command", "schema_version", "jobs", "clean", "slow_oracle_agrees")


def check_search(doc, root, slow_oracle=False):
    label = f"search {doc['pattern']}@{doc['prime']}"
    require(doc["clean"] is True, f"{label}: clean is false")
    require(sum(doc["orbit_sizes"]) == doc["total_solutions"],
            f"{label}: orbit sizes do not sum to total_solutions")
    require(doc["matched"] + len(doc["unmatched_reps"]) == doc["orbit_count"],
            f"{label}: matched + unmatched != orbit_count")
    if slow_oracle:
        require(doc.get("slow_oracle_agrees") is True, f"{label}: slow oracle disagrees")
    if doc["prime"] <= 3:
        path = os.path.join(root, "reports", f"coverage_{doc['pattern']}_p{doc['prime']}.json")
        with open(path) as fh:
            archived = json.load(fh)
        core = {k: v for k, v in doc.items() if k not in CLI_ONLY_KEYS}
        require(core == archived, f"{label}: report differs from {os.path.relpath(path, root)}")


def check_derive(doc):
    cmp_report = doc["comparison"]
    require(cmp_report["equal"] is True, f"derive-system {cmp_report['fixture']}: not equal")
    require(cmp_report.get("substitutions_implied_by_closure", True) is True,
            f"derive-system {cmp_report['fixture']}: substitutions not implied by closure")
