"""Generator patterns for complements of each fixed subalgebra, and the
closure systems they induce.

A pattern describes candidate complements S of a fixed subalgebra M as a list
of generators: the identity matrix first when M lacks it (exactly one summand
of a unital decomposition holds the identity), then 0/1 pivot matrices, each
plus free cells, a cell being a parameter times a 0/1 direction inside M.
Because the pivot parts complete any basis of M to a basis of the full space,
every pattern instance automatically satisfies the direct-sum condition, and
S being a subalgebra is equivalent to the vanishing of the derived closure
system: for each product of generators, the unique candidate coefficients are
read off by the dual functionals and the residual, which lies in M, must be
zero at the slots, the first coordinates of M's disjoint 0/1 generators.

`PivotPattern` is the one holder of this pattern-normal form, as integer
data that the closure system and the finite-field oracle both read: the
complement's generator rows and their slots, the base rows, each cell's
generator and direction (one generator of the complement), the entries
pinned to zero (per generator, the complement generators none of its cells
names), and the dual functionals, which must be integral.

Patterns whose cells are pinned to zero record the justification; only
division-free normalizations are pinned where completeness over prime fields
is claimed, except at p = 2 for t6, whose reduction completes a square
(`search.KNOWN_CAVEATS`), and t8, whose pinned zeros fail there, so that its
slice misses orbits and is refused (`search.INCOMPLETE_SLICES`).

The theorem patterns are kept as a table of specifications; `PATTERNS` names
them.  `get_pattern` builds a pattern, and so checks its directions and dual
functionals, the first time it is looked up, so a command pays only for the
pattern it names (and one that names none pays nothing).
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import PatternMismatch
from .linalg import echelonize, solve_linear
from .matrices import COORD_INDEX, Mat3
from .scalars import PolynomialRing, parse_poly

from .catalog import COMPLEMENTS


def _unit_vec(positions):
    """The 0/1 coordinate row with a 1 at each (i, j) position."""
    v = [0] * 9
    for pos in positions:
        v[COORD_INDEX[pos]] = 1
    return v


class PivotPattern:
    """A generator shape for candidate complements of a fixed subalgebra.

    gens lists, per generator after the identity, its pivot positions and
    its (cell, direction positions) pairs.  The pattern holds, as integers:
    directions, the complement's 0/1 generator rows, and slots, their first
    coordinates in increasing order; base, the k generator rows with every
    cell at 0 (the identity first, and include_identity set, when the
    complement lacks it); dirs, per cell its generator index and direction,
    a 0/1 generator of the complement named at most once per generator;
    reads and pinned, per cell and per entry pinned to 0 (each complement
    generator that a generator, the identity included, names in no cell),
    the generator index and the slot of the complement generator;
    functionals, the k dual functionals that read a generator's coefficient
    off an element of S.  Any other direction, pivot parts that do not
    complete a basis of the complement and non-integral functionals each
    raise PatternMismatch.
    """

    def __init__(self, name, complement_id, gens, fixed_zeros=""):
        self.name = name
        self.complement_id = complement_id
        self.fixed_zeros = fixed_zeros
        comp = COMPLEMENTS[complement_id]
        self.directions = directions = [[int(x) for x in g.coords()] for g in comp.generators]
        self.slots = sorted(d.index(1) for d in directions)
        self.include_identity = not comp.subspace().contains_identity()
        identity = [([(1, 1), (2, 2), (3, 3)], [])] if self.include_identity else []
        self.base, self.pinned, params, self.dirs, self.reads = [], [], [], [], []
        for pivots, cells in [*identity, *gens]:
            gi = len(self.base)
            self.base.append(_unit_vec(pivots))
            vecs = [_unit_vec(positions) for _, positions in cells]
            for (cell, _), vec in zip(cells, vecs):
                if vec not in directions:
                    raise PatternMismatch(f"cell {cell!r}: direction is not a complement generator")
                if vecs.count(vec) > 1:
                    raise PatternMismatch(f"cell {cell!r}: direction repeats in its generator")
                params.append(cell)
                self.dirs.append((gi, vec))
                self.reads.append((gi, vec.index(1)))
            self.pinned += [(gi, d.index(1)) for d in directions if d not in vecs]
        self.params = tuple(params)
        self.ring = PolynomialRing(self.params)   # rejects a repeated cell name
        self.gen_count = len(self.base)
        self.functionals = self._compute_functionals(directions)

    def _compute_functionals(self, directions):
        # functional j is 1 on generator j and 0 on the other generators and
        # on the complement: the solution f of rows f = e_j, unique at rank 9
        rows = self.base + directions
        if len(rows) != 9 or echelonize(rows).rank != 9:
            raise PatternMismatch("pivot parts do not complete a basis of the complement")
        funcs = [solve_linear(rows, [int(i == j) for i in range(9)]) for j in range(self.gen_count)]
        integral = [[int(x) for x in row] for row in funcs]
        if integral != funcs:
            raise PatternMismatch(f"pattern {self.name!r} has non-integral dual functionals")
        return integral

    def symbolic_generators(self):
        """Generators over the cell ring (identity first when present)."""
        ring = self.ring
        coords = [[ring.constant(x) for x in row] for row in self.base]
        for cell, (gi, vec) in zip(self.params, self.dirs):
            gen = ring.gen(cell)
            coords[gi] = [c + gen * ring.constant(v) for c, v in zip(coords[gi], vec)]
        return [Mat3.from_coords(c) for c in coords]

    def closure_system(self, pairs="all"):
        """The polynomial system whose vanishing is equivalent to closure of
        the span: over the requested ordered generator pairs (products with
        the identity are trivially closed and skipped), each product less its
        coefficient combination, which lies in the complement as F gen^T = I,
        read at the slots; zero and repeated equations are dropped."""
        gens = self.symbolic_generators()
        coords = [g.coords() for g in gens]
        ring = self.ring
        idx = range(1 if self.include_identity else 0, len(gens))
        if pairs == "all":
            index_pairs = [(i, j) for i in idx for j in idx]
        elif pairs == "squares":
            index_pairs = [(i, i) for i in idx]
        else:
            raise ValueError("pairs must be 'all' or 'squares'")
        system = []
        seen = set()
        for (i, j) in index_pairs:
            pc = (gens[i] @ gens[j]).coords()
            coeffs = [sum((pc[t] * f[t] for t in range(9) if f[t]), ring.zero())
                      for f in self.functionals]
            for t in self.slots:
                eq = pc[t] - sum((c * gc[t] for c, gc in zip(coeffs, coords)), ring.zero())
                if eq and eq not in seen:
                    seen.add(eq)
                    system.append(eq)
        return system

    def __repr__(self):
        return f"PivotPattern({self.name}, cells={len(self.params)})"


# ---------------------------------------------------------------------------
# the theorem patterns, each built on first use
# ---------------------------------------------------------------------------

#: per pattern: the fixed complement, the pinned-zero justification, and per
#: generator its pivot positions and (cell, direction positions) pairs
_PATTERN_SPECS = {
    "t1": dict(
        complement_id="M7",
        fixed_zeros="a = p = 0 (division-only normalization by the preserving family)",
        gens=[
            ([(2, 1)], [("b", [(1, 2)]), ("c", [(1, 3)]), ("d", [(2, 2)]),
                        ("e", [(2, 3)]), ("f", [(3, 2)]), ("g", [(3, 3)])]),
            ([(3, 1)], [("q", [(1, 2)]), ("r", [(1, 3)]), ("s", [(2, 2)]),
                        ("t", [(2, 3)]), ("x", [(3, 2)]), ("y", [(3, 3)])]),
        ],
    ),
    "t2": dict(
        complement_id="M6N",
        fixed_zeros="none (the e12-cell normalization needs a square root)",
        gens=[
            ([(2, 1)], [("a", [(1, 2)]), ("b", [(1, 3)]), ("c", [(2, 2)]),
                        ("d", [(2, 3)]), ("e", [(3, 2)]), ("f", [(3, 3)])]),
            ([(3, 1)], [("r", [(1, 2)]), ("s", [(1, 3)]), ("t", [(2, 2)]),
                        ("u", [(2, 3)]), ("x", [(3, 2)]), ("y", [(3, 3)])]),
        ],
    ),
    "t3": dict(
        complement_id="M6U",
        fixed_zeros="a = l = r = 0 (division-only normalization)",
        gens=[
            ([(2, 1)], [("b", [(1, 2)]), ("c", [(1, 3)]), ("d", [(2, 2)]),
                        ("e", [(2, 3)]), ("f", [(3, 3)])]),
            ([(3, 1)], [("g", [(1, 1)]), ("h", [(1, 2)]), ("i", [(1, 3)]),
                        ("j", [(2, 2)]), ("k", [(2, 3)])]),
            ([(3, 2)], [("m", [(1, 1)]), ("n", [(1, 2)]), ("s", [(1, 3)]),
                        ("p", [(2, 2)]), ("q", [(2, 3)])]),
        ],
    ),
    "t4": dict(
        complement_id="L5_4",
        fixed_zeros="a = 0 (division-only normalization)",
        gens=[
            ([(2, 1)], [("b", [(1, 2)]), ("c", [(1, 3)]), ("d", [(2, 2)]),
                        ("e", [(2, 3)])]),
            ([(3, 1)], [("g", [(1, 1)]), ("h", [(1, 2)]), ("i", [(1, 3)]),
                        ("j", [(2, 2)]), ("k", [(2, 3)])]),
            ([(3, 2)], [("m", [(1, 1)]), ("n", [(1, 2)]), ("s", [(1, 3)]),
                        ("p", [(2, 2)]), ("q", [(2, 3)])]),
        ],
    ),
    "t4m2": dict(
        complement_id="L5_5",
        fixed_zeros="none (shape adapted to the second complement)",
        gens=[
            ([(2, 1)], [("a", [(1, 1)]), ("b", [(1, 2)]), ("c", [(1, 3)]),
                        ("d", [(2, 3)]), ("e", [(3, 3)])]),
            ([(3, 1)], [("g", [(1, 1)]), ("h", [(1, 2)]), ("i", [(1, 3)]),
                        ("j", [(2, 3)]), ("k", [(3, 3)])]),
            ([(3, 2)], [("m", [(1, 1)]), ("n", [(1, 2)]), ("s", [(1, 3)]),
                        ("p", [(2, 3)]), ("q", [(3, 3)])]),
        ],
    ),
    "t5": dict(
        complement_id="L5_1",
        fixed_zeros="a = m = u = 0 (up to the index swap, transpose and the preserving family)",
        gens=[
            ([(2, 1)], [("b", [(2, 2)]), ("c", [(2, 3)]), ("d", [(3, 2)]),
                        ("e", [(3, 3)])]),
            ([(3, 1)], [("g", [(1, 1)]), ("h", [(2, 2)]), ("i", [(2, 3)]),
                        ("j", [(3, 2)]), ("k", [(3, 3)])]),
            ([(1, 2)], [("n", [(2, 2)]), ("s", [(2, 3)]), ("p", [(3, 2)]),
                        ("q", [(3, 3)])]),
            ([(1, 3)], [("v", [(2, 2)]), ("x", [(2, 3)]), ("y", [(3, 2)]),
                        ("z", [(3, 3)])]),
        ],
    ),
    "t6": dict(
        complement_id="L5_3",
        fixed_zeros="e = z = 0 (division-only normalization)",
        gens=[
            ([(2, 1)], [("a", [(1, 1)]), ("b", [(1, 2)]), ("c", [(1, 3)]),
                        ("d", [(2, 2), (3, 3)])]),
            ([(3, 1)], [("g", [(1, 1)]), ("h", [(1, 2)]), ("i", [(1, 3)]),
                        ("j", [(2, 2), (3, 3)]), ("k", [(2, 3)])]),
            ([(3, 2)], [("m", [(1, 1)]), ("n", [(1, 2)]), ("s", [(1, 3)]),
                        ("p", [(2, 2), (3, 3)]), ("q", [(2, 3)])]),
            ([(3, 3)], [("u", [(1, 1)]), ("v", [(1, 2)]), ("x", [(1, 3)]),
                        ("y", [(2, 2), (3, 3)])]),
        ],
    ),
    "t7": dict(
        complement_id="L5_2",
        fixed_zeros="a = 0 (division-only normalization)",
        gens=[
            ([(2, 1)], [("b", [(1, 2)]), ("c", [(1, 3)]), ("d", [(2, 2)]),
                        ("e", [(3, 3)])]),
            ([(3, 1)], [("g", [(1, 1)]), ("h", [(1, 2)]), ("i", [(1, 3)]),
                        ("j", [(2, 2)]), ("k", [(3, 3)])]),
            ([(3, 2)], [("m", [(1, 1)]), ("n", [(1, 2)]), ("s", [(1, 3)]),
                        ("p", [(2, 2)]), ("q", [(3, 3)])]),
            ([(2, 3)], [("u", [(1, 1)]), ("v", [(1, 2)]), ("x", [(1, 3)]),
                        ("y", [(2, 2)]), ("z", [(3, 3)])]),
        ],
    ),
    "t8": dict(
        complement_id="L5_6",
        fixed_zeros="d = e = p = 0 (division-only normalization)",
        gens=[
            ([(2, 1)], [("a", [(1, 1), (3, 3)]), ("b", [(1, 2)]), ("c", [(1, 3)])]),
            ([(3, 1)], [("g", [(1, 1), (3, 3)]), ("h", [(1, 2)]), ("i", [(1, 3)]),
                        ("j", [(2, 2)]), ("k", [(2, 3)])]),
            ([(3, 2)], [("m", [(1, 1), (3, 3)]), ("n", [(1, 2)]), ("s", [(1, 3)]),
                        ("q", [(2, 3)])]),
            ([(3, 3)], [("u", [(1, 1), (3, 3)]), ("v", [(1, 2)]), ("x", [(1, 3)]),
                        ("y", [(2, 2)]), ("z", [(2, 3)])]),
        ],
    ),
}


PATTERNS = tuple(_PATTERN_SPECS)

PATTERN_ALIASES = {"7-2": "t1", "t4m1": "t4"}


@functools.lru_cache(maxsize=None)
def get_pattern(name):
    """The theorem pattern of this name or alias, built and checked on its
    first lookup (an alias shares its pattern's object)."""
    if name in PATTERN_ALIASES:
        return get_pattern(PATTERN_ALIASES[name])
    return PivotPattern(name, **_PATTERN_SPECS[name])


# ---------------------------------------------------------------------------
# printed reduced systems (fixtures for the derivation comparison)
# ---------------------------------------------------------------------------

#: each fixture: pattern name, substitutions applied to the derived system
#: (cell -> polynomial string), and the printed equations in the remaining
#: cells; substitutions_implied_by_closure: closure implies them (checked too)
_REFERENCE_SYSTEMS = {
    "t1_reduced": {
        "pattern": "t1",
        "substitutions": {"b": "0", "c": "0", "q": "0", "r": "0"},
        "substitutions_implied_by_closure": True,
        "equations": [
            "f*(e-s)", "f*(g-x)", "t*(e-s)", "t*(g-x)",
            "f*t-e*g", "f*t-s*x",
            "g*(g-d)+f*(e-y)",
            "x*(d-x)+f*(y-s)",
            "s*(s-y)+t*(x-d)",
            "e*(y-e)+t*(d-g)",
            "d*(s-e)+e*x-g*s",
            "y*(g-x)+e*x-g*s",
        ],
    },
    "t2_system": {
        "pattern": "t2",
        "substitutions": {"a": "0"},
        "equations": [
            "e*(b-r)", "e*(d-t)", "e*(f-x)",
            "u*(b-r)", "u*(d-t)", "u*(f-x)",
            "b*x-f*r",
            "b+d*f-e*u", "r+t*x-e*u",
            "b*c-b*f+e*s", "r*c-r*x+e*s",
            "b*d-b*y+s*f", "r*t-r*y+s*x",
            "f*f-c*f+d*e-e*y", "x*x-c*x+t*e-e*y",
            "t*t-t*y+u*x-u*c-s", "d*d-d*y+u*f-u*c-s",
            "d*r+s*f-s*x-b*t",
            "r+d*x+c*t-b-f*t-c*d",
            "b+d*x+f*y-r-f*t-x*y",
        ],
    },
    "t3_squares": {
        "pattern": "t3",
        "substitutions": {},
        "pairs": "squares",
        "equations": [
            "b", "q",
            "f*(d-f)", "c*(d-f)", "e*f+c",
            "i-h*m", "h*m-k*f",
            "h*(j-n)", "k*h-c*k-h*s",
            "j*j-j*g-d*k-h*p", "k*(j-e-g)",
            "m*(m-p)", "s*(m-p)", "m*n+s",
        ],
    },
    "t6_radical": {
        "pattern": "t6",
        "substitutions": {
            "c": "0", "h": "0", "i": "0", "j": "0", "k": "0",
            "m": "0", "p": "0", "q": "0", "s": "0", "x": "0", "n": "g",
        },
        "substitutions_implied_by_closure": True,
        "equations": [
            "b*g", "d*g", "d*y", "g*u",
            "b*(u-y)", "y*(y+1)", "g*(y+1)", "u*(u-2*y-1)",
            "d*u-v*(y+1)", "a*(u-y)-d*u+v", "a*d-b*(u+1)",
        ],
    },
}


#: a printed system read into its pattern's cell ring: the pattern, the
#: products it closes ("all" unless the fixture says otherwise), the printed
#: equations, the substitution equations that align them with the derived
#: system, and whether closure must imply those substitutions
ReferenceSystem = namedtuple(
    "ReferenceSystem", "pattern pairs equations substitutions implied_by_closure")


def reference_system(name):
    """The fixture of this name as a ReferenceSystem (KeyError if there is
    none)."""
    rec = _REFERENCE_SYSTEMS[name]
    pat = get_pattern(rec["pattern"])
    ring = pat.ring
    return ReferenceSystem(
        pat,
        rec.get("pairs", "all"),
        [parse_poly(s, ring) for s in rec["equations"]],
        [ring.gen(cell) - parse_poly(v, ring) for cell, v in rec["substitutions"].items()],
        rec.get("substitutions_implied_by_closure", False),
    )
