import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from m3decomp import fpsolve
from m3decomp.catalog import COMPLEMENTS
from m3decomp.errors import BudgetExceeded, NotSupported, PatternMismatch
from m3decomp.fpsolve import solve_system_fp
from m3decomp.matrices import Mat3, is_direct_sum, span
from m3decomp.patterns import PATTERNS, PivotPattern, get_pattern, reference_system
from m3decomp.scalars import parse_poly


def test_pattern_registry():
    assert PATTERNS == ("t1", "t2", "t3", "t4", "t4m2", "t5", "t6", "t7", "t8")
    assert get_pattern("7-2") is get_pattern("t1")
    assert get_pattern("t4m1") is get_pattern("t4")
    with pytest.raises(KeyError):
        get_pattern("t9")


def _instance(pat, cells):
    """The generators of the pattern instance at the cell values (a dict),
    identity first when the pattern has it."""
    rows = [[Fraction(x) for x in row] for row in pat.base]
    for cell, (gi, vec) in zip(pat.params, pat.dirs):
        rows[gi] = [c0 + cells[cell] * v for c0, v in zip(rows[gi], vec)]
    return [Mat3.from_coords(row) for row in rows]


_FIRST_LOOKUP = """
import gc

import m3decomp.cli
from m3decomp.patterns import PATTERNS, PivotPattern, get_pattern


def built():
    return [o for o in gc.get_objects() if isinstance(o, PivotPattern)]


m3decomp.cli.build_parser()
assert "t1" in PATTERNS and "7-2" not in PATTERNS and len(PATTERNS) == 9
assert built() == [], built()
pat = get_pattern("7-2")
assert built() == [pat] and pat is get_pattern("t1"), built()
"""


def test_patterns_built_on_first_lookup():
    # importing the CLI, building its parser and asking for the names build
    # no pattern; the first lookup builds exactly the one it names
    res = subprocess.run(
        [sys.executable, "-c", _FIRST_LOOKUP], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr


def test_every_pattern_has_dual_functionals_and_a_system():
    for name in PATTERNS:
        pat = get_pattern(name)
        k = pat.gen_count
        duals = [
            [sum(f[t] * base[t] for t in range(9)) for base in pat.base]
            for f in pat.functionals
        ]
        assert duals == [[int(i == j) for j in range(k)] for i in range(k)], name
        assert pat.closure_system(), name
        # the premise of the oracle's complement test x F^T = 0 mod p: F
        # vanishes on the complement, whose 0/1 generators have disjoint
        # supports and so stay independent at every prime
        comp = [[int(x) for x in g.coords()] for g in COMPLEMENTS[pat.complement_id].generators]
        assert all(sum(f[t] * g[t] for t in range(9)) == 0
                   for f in pat.functionals for g in comp), name
        assert all(set(g) <= {0, 1} for g in comp), name
        assert all(sum(column) <= 1 for column in zip(*comp)), name


def test_cell_counts():
    expected = {
        "t1": 12, "t2": 12, "t3": 15, "t4": 14, "t4m2": 15,
        "t5": 17, "t6": 18, "t7": 19, "t8": 17,
    }
    for name in PATTERNS:
        assert len(get_pattern(name).params) == expected[name]


def test_t1_system_contains_reference_equation():
    pat = get_pattern("t1")
    sysall = pat.closure_system()
    target = parse_poly("f*t-e*g", pat.ring)
    assert any(p == target or p == -target for p in sysall)


def test_zero_pattern_gives_empty_square_system():
    # plain nilpotent pivots: every product vanishes
    pat = get_pattern("t1")
    system = pat.closure_system()
    zeros = {c: 0 for c in pat.params}
    for eq in system:
        assert eq.eval(zeros) == 0


def test_pattern_instances_always_direct_sums():
    # any assignment of the cells yields a complement candidate: the closure
    # system alone decides membership in the enumeration
    rng = np.random.default_rng(5)
    for name in PATTERNS:
        pat = get_pattern(name)
        b = COMPLEMENTS[pat.complement_id].subspace()
        for _ in range(3):
            cells = {c: int(v) for c, v in zip(pat.params, rng.integers(-3, 4, len(pat.params)))}
            gens = _instance(pat, cells)
            assert gens[0] == Mat3.identity() or not pat.include_identity
            s = span(gens)
            assert s.dim == pat.gen_count
            assert is_direct_sum(s, b)


@pytest.mark.parametrize("direction", [[(2, 1)], [(1, 2), (1, 3)]],
                         ids=["outside", "sum-of-two"])
def test_pattern_rejects_direction_that_is_no_complement_generator(direction):
    # e21 lies outside M7, and e12 + e13 inside it but is not one generator
    with pytest.raises(PatternMismatch, match="cell 'w': direction is not a complement generator"):
        PivotPattern("bad", "M7", [([(2, 1)], [("w", direction)])])


#: pivots e21 + e31, e31 + e32 and e21 + e32 for the complement of t3: they
#: complete a basis with determinant 2, so the dual functionals hold halves
_HALVES = [([(2, 1), (3, 1)], []), ([(3, 1), (3, 2)], []), ([(2, 1), (3, 2)], [])]


def test_pattern_rejects_non_integral_functionals():
    with pytest.raises(PatternMismatch, match="'halves' has non-integral dual functionals"):
        PivotPattern("halves", "M6U", _HALVES)


_HALVES_OPTIMIZED = f"""
from m3decomp.errors import PatternMismatch
from m3decomp.patterns import PivotPattern

assert not __debug__
try:
    PivotPattern("halves", "M6U", {_HALVES!r})
except PatternMismatch as exc:
    print(exc)
"""


def test_functionals_check_survives_optimize():
    res = subprocess.run(
        [sys.executable, "-O", "-c", _HALVES_OPTIMIZED],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert "non-integral dual functionals" in res.stdout


def test_pattern_cells_are_read_off_their_complement_generators():
    # t8's cell a moves e11 + e33, one generator of L5_6, and is read off
    # e11, its first coordinate; a generator that names one complement
    # generator in two cells is refused
    pat = get_pattern("t8")
    assert pat.dirs[0] == (0, [1, 0, 0, 0, 0, 0, 0, 0, 1]) and pat.reads[0] == (0, 0)
    with pytest.raises(PatternMismatch, match="cell 'v': direction repeats in its generator"):
        PivotPattern("shared", "M7", [([(2, 1)], [("v", [(1, 2)]), ("w", [(1, 2)])])])


#: per pattern, the pinned-zero cells that its fixed_zeros text names
_PINNED_NAMED = {"t1": 2, "t2": 0, "t3": 3, "t4": 1, "t4m2": 0, "t5": 3, "t6": 2, "t7": 1, "t8": 3}


@pytest.mark.parametrize("name", PATTERNS)
def test_pinned_grid_matches_the_fixed_zeros_text(name):
    # every generator times every complement generator is one cell or one
    # pinned entry, read off the complement generator's first coordinate;
    # the identity row pins them all, and the other pinned entries are the
    # cells that fixed_zeros names before "= 0"; the slots are those first
    # coordinates in increasing order
    pat = get_pattern(name)
    directions = [[int(x) for x in g.coords()] for g in COMPLEMENTS[pat.complement_id].generators]
    first = sorted(d.index(1) for d in directions)
    assert pat.directions == directions and pat.slots == first
    assert sorted(pat.pinned + pat.reads) == [(gi, t) for gi in range(pat.gen_count) for t in first]
    assert all(vec in directions and read == (gi, vec.index(1))
               for (gi, vec), read in zip(pat.dirs, pat.reads))
    identity_row = [(0, t) for t in first] if pat.include_identity else []
    assert sorted(pat.pinned[:len(identity_row)]) == identity_row
    named = pat.fixed_zeros.split("=")[:-1] if "= 0" in pat.fixed_zeros else []
    assert len(pat.pinned) - len(identity_row) == len(named) == _PINNED_NAMED[name]


@pytest.mark.parametrize("fixture", ["t1_reduced", "t2_system", "t3_squares", "t6_radical"])
def test_reference_fixture_solution_sets(fixture):
    ref = reference_system(fixture)
    params, subs = ref.pattern.params, ref.substitutions
    derived = ref.pattern.closure_system(ref.pairs)
    lhs = solve_system_fp(derived + subs, params, 3)
    rhs = solve_system_fp(ref.equations + subs, params, 3)
    assert np.array_equal(lhs, rhs)


def test_derived_systems_force_their_substitutions():
    # Theorem 1's b=c=q=r=0 and Theorem 6's radical substitutions are
    # consequences of closure, not extra assumptions
    for fixture in ("t1_reduced", "t6_radical"):
        ref = reference_system(fixture)
        assert ref.implied_by_closure
        params = ref.pattern.params
        derived = ref.pattern.closure_system(ref.pairs)
        assert np.array_equal(solve_system_fp(derived, params, 3),
                              solve_system_fp(derived + ref.substitutions, params, 3))


def test_solver_on_tiny_systems():
    from m3decomp.scalars import PolynomialRing

    R = PolynomialRing(("x", "y"))
    x, y = R.gens()
    sols = solve_system_fp([x * y - 1], ("x", "y"), 5)
    assert np.array_equal(sols, [[1, 1], [2, 3], [3, 2], [4, 4]])
    assert solve_system_fp([x * x + 1], ("x", "y"), 3).shape == (0, 2)
    arr = solve_system_fp([], ("x", "y"), 2)
    assert arr.shape == (4, 2)


def test_solver_on_systems_without_variables():
    from m3decomp.scalars import PolynomialRing

    one = PolynomialRing(()).one()
    # no variables: the one empty assignment, unless a constant is nonzero
    for polys in ([], [one * 3]):
        arr = solve_system_fp(polys, (), 3)
        assert arr.shape == (1, 0) and arr.dtype == np.int8
    arr = solve_system_fp([one * 2], (), 3)
    assert arr.shape == (0, 0) and arr.dtype == np.int8


def test_solver_budget_counts_kept_rows_plus_one_chunk(monkeypatch):
    from m3decomp.scalars import PolynomialRing

    x, y = PolynomialRing(("x", "y")).gens()
    monkeypatch.setattr(fpsolve, "_FRONTIER_CHUNK", 1)
    # the last chunk of y meets four kept diagonal rows: 4 + 5 rows at once
    monkeypatch.setattr(fpsolve, "DEFAULT_BUDGET", 9)
    arr = solve_system_fp([x - y], ("x", "y"), 5)
    assert arr.tolist() == [[v, v] for v in range(5)]
    monkeypatch.setattr(fpsolve, "DEFAULT_BUDGET", 8)
    with pytest.raises(BudgetExceeded, match="frontier would exceed 8 rows"):
        solve_system_fp([x - y], ("x", "y"), 5)


def test_solver_chunking_keeps_solutions(monkeypatch):
    systems = [(get_pattern(name).closure_system(), get_pattern(name).params)
               for name in sorted(PATTERNS)]
    whole = [solve_system_fp(polys, names, 3) for polys, names in systems]
    monkeypatch.setattr(fpsolve, "_FRONTIER_CHUNK", 7)
    for (polys, names), expect in zip(systems, whole):
        assert solve_system_fp(polys, names, 3).tobytes() == expect.tobytes()


# Solution counts of the closure systems as polynomials in p; the counts at
# p >= 11 of t2, t4m2 and t5 (each 2-14 s) are left to manual runs.
_COUNT_FORMS = {
    "t1": lambda p: p**4 + p**3 + 2 * p**2 - p - 2,
    "t2": lambda p: p**6 + p**4 - p**2,
    "t3": lambda p: 3 * p**2 - 2 * p,
    "t4": lambda p: p**4,
    "t4m2": lambda p: p**5,
    "t5": lambda p: 2 * p**2 * (p - 1),
    "t6": lambda p: p * (3 * p + 1),
    "t7": lambda p: p * (p - 1) * (3 * p + 1),
    "t8": lambda p: 2 * p * (p + 1),
}


@pytest.mark.parametrize(
    "name, p",
    [(name, p) for p in (2, 3, 5, 7) for name in sorted(_COUNT_FORMS)]
    + [(name, p) for p in (11, 13) for name in ("t1", "t3", "t6", "t7", "t8")]
    + [("t4", 11)],
)
def test_solution_counts_match_closed_forms(name, p):
    pat = get_pattern(name)
    assert len(solve_system_fp(pat.closure_system(), pat.params, p)) == _COUNT_FORMS[name](p)


def test_solver_rejects_primes_its_cells_cannot_hold():
    from m3decomp.scalars import PolynomialRing

    x, = PolynomialRing(("x",)).gens()
    assert solve_system_fp([x - 126], ("x",), 127).tolist() == [[126]]
    # an int8 cell would wrap 130 to -126, which is 5 mod 131
    for p, match in ((131, "up to 127, not 131"), (4, "4 is not a prime")):
        with pytest.raises(NotSupported, match=match):
            solve_system_fp([x - 5], ("x",), p)


def test_dirless_pattern_empty_system():
    # bare nilpotent pivots with no free cells: every product vanishes and
    # the derived system is empty
    pat = PivotPattern("bare", "M7", [([(2, 1)], []), ([(3, 1)], [])])
    assert pat.closure_system() == []


def _closure_system_on_nine_coordinates(pat, pairs):
    """The reference derivation: each product less its coefficient
    combination on all nine coordinates, zero and repeated equations
    dropped."""
    gens = pat.symbolic_generators()
    ring = pat.ring
    idx = range(1 if pat.include_identity else 0, len(gens))
    index_pairs = [(i, j) for i in idx for j in idx] if pairs == "all" else [(i, i) for i in idx]
    system, seen = [], set()
    for i, j in index_pairs:
        pc = (gens[i] @ gens[j]).coords()
        combo = [ring.zero()] * 9
        for func, gen in zip(pat.functionals, gens):
            coeff = ring.zero()
            for t in range(9):
                if func[t]:
                    coeff = coeff + pc[t] * ring.constant(func[t])
            combo = [cm + coeff * g for cm, g in zip(combo, gen.coords())]
        for t in range(9):
            eq = pc[t] - combo[t]
            if eq and eq not in seen:
                seen.add(eq)
                system.append(eq)
    return system


@pytest.mark.parametrize("pairs", ["all", "squares"])
@pytest.mark.parametrize("name", PATTERNS)
def test_closure_system_at_the_slots_matches_all_nine_coordinates(name, pairs):
    # the residual lies in the complement, so reading it at one coordinate
    # per complement generator gives the same equations in the same order
    pat = get_pattern(name)
    assert pat.closure_system(pairs) == _closure_system_on_nine_coordinates(pat, pairs)


def test_t6_slots_are_sorted_although_its_generators_are_not():
    # L5_3's generators start at coordinates 0, 1, 2, 5 and 4
    pat = get_pattern("t6")
    assert [d.index(1) for d in pat.directions] == [0, 1, 2, 5, 4]
    assert pat.slots == [0, 1, 2, 4, 5]


def test_closure_system_matches_subalgebra_check():
    # the derived system vanishes at a specialization exactly when the
    # specialized span is closed under products
    import random

    pat = get_pattern("t1")
    system = pat.closure_system()
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for _ in range(60):
        cells = {c: rng.randint(-2, 2) for c in pat.params}
        vanishes = all(eq.eval(cells) == 0 for eq in system)
        closed, _ = span(_instance(pat, cells)).is_subalgebra()
        assert vanishes == closed
        seen[closed] += 1
    assert seen[False] > 0  # random cells are mostly non-closed
