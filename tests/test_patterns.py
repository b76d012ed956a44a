import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from m3decomp import fpsolve
from m3decomp.errors import BudgetExceeded, NotSupported, PatternMismatch
from m3decomp.fpsolve import solution_set, solve_system_fp
from m3decomp.matrices import Mat3, is_direct_sum, span
from m3decomp.patterns import (
    PATTERNS,
    PatternGen,
    PivotPattern,
    get_pattern,
    reference_system,
)
from m3decomp.scalars import parse_poly


def test_pattern_registry():
    assert set(PATTERNS) == {"t1", "t2", "t3", "t4", "t4m2", "t5", "t6", "t7", "t8"}
    assert get_pattern("7-2") is PATTERNS["t1"]
    assert get_pattern("t4m1") is PATTERNS["t4"]


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
assert built() == [pat] and pat is PATTERNS["t1"], built()
"""


def test_patterns_built_on_first_lookup():
    # importing the CLI, building its parser and asking for the names build
    # no pattern; the first lookup builds exactly the one it names
    res = subprocess.run(
        [sys.executable, "-c", _FIRST_LOOKUP], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr


def test_every_pattern_has_dual_functionals_and_a_system():
    for name in sorted(PATTERNS):
        pat = PATTERNS[name]
        k = pat.gen_count
        duals = [
            [sum(f[t] * base[t] for t in range(9)) for base in pat.base_rows()]
            for f in pat.functionals
        ]
        assert duals == [[int(i == j) for j in range(k)] for i in range(k)], name
        assert pat.closure_system(), name


def test_cell_counts():
    expected = {
        "t1": 12, "t2": 12, "t3": 15, "t4": 14, "t4m2": 15,
        "t5": 17, "t6": 18, "t7": 19, "t8": 17,
    }
    for name, pat in PATTERNS.items():
        assert len(pat.params) == expected[name]


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
    for name, pat in PATTERNS.items():
        comp = pat.complement_id
        from m3decomp.catalog import COMPLEMENTS

        b = COMPLEMENTS[comp].subspace()
        for _ in range(3):
            cells = {c: int(v) for c, v in zip(pat.params, rng.integers(-3, 4, len(pat.params)))}
            gens = []
            if pat.include_identity:
                gens.append(Mat3.identity())
            for g in pat.gens:
                coords = [Fraction(int(x)) for x in g.base]
                for (p, vec) in g.dirs:
                    coords = [c0 + cells[p] * Fraction(int(v)) for c0, v in zip(coords, vec)]
                gens.append(Mat3.from_coords(coords))
            s = span(gens)
            assert s.dim == pat.gen_count
            assert is_direct_sum(s, b)


def test_pattern_rejects_direction_outside_complement():
    from m3decomp.patterns import _affine_vec, _unit_vec

    gen = PatternGen(_unit_vec((2, 1)), [("w", _affine_vec([(2, 1)]))])
    with pytest.raises(PatternMismatch):
        PivotPattern("bad", 1, "M7", [gen], include_identity=False)


@pytest.mark.parametrize("fixture", ["t1_reduced", "t2_system", "t3_squares", "t6_radical"])
def test_reference_fixture_solution_sets(fixture):
    pat, printed, subs, pairs = reference_system(fixture)
    derived = pat.closure_system(pairs)
    lhs = solution_set(derived + subs, pat.params, 3)
    rhs = solution_set(printed + subs, pat.params, 3)
    assert lhs == rhs


def test_derived_systems_force_their_substitutions():
    # Theorem 1's b=c=q=r=0 and Theorem 6's radical substitutions are
    # consequences of closure, not extra assumptions
    for fixture in ("t1_reduced", "t6_radical"):
        pat, printed, subs, pairs = reference_system(fixture)
        derived = pat.closure_system(pairs)
        assert solution_set(derived, pat.params, 3) == \
            solution_set(derived + subs, pat.params, 3)


def test_solver_on_tiny_systems():
    from m3decomp.scalars import PolynomialRing

    R = PolynomialRing(("x", "y"))
    x, y = R.gens()
    sols = solution_set([x * y - 1], ("x", "y"), 5)
    assert len(sols) == 4
    assert all(xv * yv % 5 == 1 for xv, yv in sols)
    assert solution_set([x * x + 1], ("x", "y"), 3) == frozenset()
    arr = solve_system_fp([], ("x", "y"), 2)
    assert arr.shape == (4, 2)


def test_solver_on_systems_without_variables():
    from m3decomp.scalars import PolynomialRing

    one = PolynomialRing(()).one()
    # no variables: the one empty assignment, unless a constant is nonzero
    for polys in ([], [one * 3]):
        arr = solve_system_fp(polys, (), 3)
        assert arr.shape == (1, 0) and arr.dtype == np.int8
        assert solution_set(polys, (), 3) == frozenset({()})
    arr = solve_system_fp([one * 2], (), 3)
    assert arr.shape == (0, 0) and arr.dtype == np.int8
    assert solution_set([one * 2], (), 3) == frozenset()


def test_solver_budget_counts_kept_rows_plus_one_chunk(monkeypatch):
    from m3decomp.scalars import PolynomialRing

    x, y = PolynomialRing(("x", "y")).gens()
    monkeypatch.setattr(fpsolve, "_FRONTIER_CHUNK", 1)
    # the last chunk of y meets four kept diagonal rows: 4 + 5 rows at once
    arr = solve_system_fp([x - y], ("x", "y"), 5, budget=9)
    assert arr.tolist() == [[v, v] for v in range(5)]
    with pytest.raises(BudgetExceeded, match="frontier would exceed 8 rows"):
        solve_system_fp([x - y], ("x", "y"), 5, budget=8)


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
    from m3decomp.patterns import _unit_vec

    pat = PivotPattern(
        "bare", 1, "M7",
        [PatternGen(_unit_vec((2, 1)), []), PatternGen(_unit_vec((3, 1)), [])],
        include_identity=False,
    )
    assert pat.closure_system() == []


def test_closure_system_matches_subalgebra_check():
    # the derived system vanishes at a specialization exactly when the
    # specialized span is closed under products
    import random

    from m3decomp.catalog import COMPLEMENTS

    pat = get_pattern("t1")
    system = pat.closure_system()
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for _ in range(60):
        cells = {c: rng.randint(-2, 2) for c in pat.params}
        vanishes = all(eq.eval(cells) == 0 for eq in system)
        gens = []
        for g in pat.gens:
            coords = [Fraction(int(x)) for x in g.base]
            for (p, vec) in g.dirs:
                coords = [c0 + cells[p] * Fraction(int(v)) for c0, v in zip(coords, vec)]
            gens.append(Mat3.from_coords(coords))
        closed, _ = span(gens).is_subalgebra()
        assert vanishes == closed
        seen[closed] += 1
    assert seen[False] > 0  # random cells are mostly non-closed
