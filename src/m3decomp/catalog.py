"""The machine-readable corpus of classified decompositions.

Each entry records generators of the small subalgebra S (over a polynomial
ring in the entry's parameters), the fixed complement it decomposes against,
the parameter side conditions, and which summand contains the identity
matrix.  Generator matrices are stored division-free: where a source case
carries a reciprocal entry, one generator is rescaled by the (constraint-
nonzero) denominator, which leaves its span unchanged; such rescalings are
recorded in the entry notes.
"""

from __future__ import annotations

import json
from itertools import islice, product

from .errors import ConstraintViolated, NotSupported, ParseError, SchemaError
from .matrices import Mat3, span
from .scalars import ConstraintSet, PolynomialRing, first_violation, parse_poly, poly_to_string

SCHEMA_VERSION = 1


class ComplementDef:
    """A fixed complement subalgebra with constant generators.  Its span
    and the verdict on its closure are computed on first use and shared by
    every entry against it."""

    __slots__ = ("id", "generators", "dim", "_subspace", "_closure")

    def __init__(self, ident, generators):
        self.id = ident
        self.generators = tuple(generators)
        self.dim = len(self.generators)
        self._subspace = self._closure = None

    def subspace(self):
        if self._subspace is None:
            self._subspace = span(self.generators)
        return self._subspace

    def closure(self):
        """subspace().is_subalgebra(), computed once."""
        if self._closure is None:
            self._closure = self.subspace().is_subalgebra()
        return self._closure

    def __repr__(self):
        return f"ComplementDef({self.id}, dim={self.dim})"


def _mat(*unit_positions):
    m = Mat3.zero()
    for (i, j) in unit_positions:
        m = m + Mat3.basis(i, j)
    return m

COMPLEMENTS = {
    "M7": ComplementDef(
        "M7", [_mat(p) for p in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3))]),
    "M6N": ComplementDef(
        "M6N", [_mat(p) for p in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3))]),
    "M6U": ComplementDef(
        "M6U", [_mat(p) for p in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))]),
    "L5_1": ComplementDef("L5_1", [_mat(p) for p in ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3))]),
    "L5_2": ComplementDef("L5_2", [_mat(p) for p in ((1, 1), (1, 2), (1, 3), (2, 2), (3, 3))]),
    "L5_3": ComplementDef(
        "L5_3", [_mat((1, 1)), _mat((1, 2)), _mat((1, 3)), _mat((2, 3)), _mat((2, 2), (3, 3))]),
    "L5_4": ComplementDef("L5_4", [_mat(p) for p in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))]),
    "L5_5": ComplementDef("L5_5", [_mat(p) for p in ((1, 1), (1, 2), (1, 3), (2, 3), (3, 3))]),
    "L5_6": ComplementDef(
        "L5_6", [_mat((1, 1), (3, 3)), _mat((1, 2)), _mat((1, 3)), _mat((2, 2)), _mat((2, 3))]),
}


def _field(name, ident, build):
    """build() for one field of entry ident; a malformed value (a bad or
    repeated parameter, a cell that is no text, a zero constraint) is a
    SchemaError, and text outside the grammar a ParseError, each naming the
    field and the entry."""
    try:
        return build()
    except ParseError as exc:
        raise ParseError(f"field {name!r}: entry {ident}: {exc.message}",
                         exc.line, exc.column) from exc
    except (ValueError, TypeError) as exc:
        raise SchemaError(name, f"entry {ident}: {exc}") from exc


def _is_list(value, each=lambda item: True):
    return isinstance(value, list) and all(each(item) for item in value)


class CatalogEntry:
    """One classified decomposition case."""

    __slots__ = (
        "id",
        "theorem",
        "complement_id",
        "params",
        "s_generators",
        "constraints",
        "unital_component",
        "notes",
        "ring",
    )

    def __init__(self, ident, theorem, complement_id, params, gen_strings,
                 nonzero_strings, unital_component, notes=""):
        if not isinstance(ident, str) or not ident:
            raise SchemaError("id", f"{ident!r} is not a nonempty text")
        if not isinstance(complement_id, str) or complement_id not in COMPLEMENTS:
            raise SchemaError("complement_id", f"unknown complement {complement_id!r}")
        if type(theorem) is not int:
            raise SchemaError("theorem", f"entry {ident}: {theorem!r} is not an integer")
        if not isinstance(notes, str):
            raise SchemaError("notes", f"entry {ident}: {notes!r} is not a text")
        self.id = ident
        self.theorem = theorem
        self.complement_id = complement_id
        self.params = tuple(params)
        self.ring = _field("params", ident, lambda: PolynomialRing(self.params))
        self.s_generators = _field("s_generators", ident, lambda: tuple(
            Mat3([[parse_poly(cell, self.ring) for cell in row] for row in g])
            for g in gen_strings))
        if not self.s_generators:
            raise SchemaError("s_generators", f"entry {ident}: no generators")
        # parsing against the ring of declared params already rejects any
        # undeclared parameter name
        self.constraints = _field("constraints", ident, lambda: ConstraintSet(
            [parse_poly(s, self.ring) for s in nonzero_strings]))
        if unital_component not in ("S", "B"):  # the identity lies in one summand
            raise SchemaError("unital_component",
                              f"entry {ident}: {unital_component!r} is neither 'S' nor 'B'")
        self.unital_component = unital_component
        self.notes = notes

    @property
    def complement(self):
        return COMPLEMENTS[self.complement_id]

    def s_subspace(self):
        """S with symbolic parameters, under the declared constraints."""
        return span(self.s_generators, self.constraints)

    def b_subspace_symbolic(self):
        """B as it stands: its constant entries are constants of every ring."""
        return self.complement.subspace()

    def standard_values(self):
        """The entry's standard point: the first point of a fixed walk that
        meets its side conditions.  The walk starts with the parameters at
        2, 3, ... in order and adds 0, 1, 2 or 3 to each (the last parameter
        fastest), over at most 256 points; NotSupported when none fits."""
        for steps in islice(product(range(4), repeat=len(self.params)), 256):
            values = {p: 2 + i + k for i, (p, k) in enumerate(zip(self.params, steps))}
            if first_violation(self.constraints, values) is None:
                return values
        raise NotSupported(
            f"entry {self.id}: no point of the standard walk meets its side conditions")

    def specialize(self, values):
        """Concrete (S, B) over Q at a parameter assignment; all constraints
        are checked and the first violated polynomial is reported."""
        missing = [p for p in self.params if p not in values]
        if missing:
            raise SchemaError("params", f"assignment misses {missing}")
        bad = first_violation(self.constraints, values)
        if bad is not None:
            raise ConstraintViolated(poly_to_string(bad))
        gens = [Mat3([[cell.eval(values) for cell in row] for row in g.rows])
                for g in self.s_generators]
        return span(gens), self.complement.subspace()

    def to_json(self):
        return {
            "id": self.id,
            "theorem": self.theorem,
            "complement_id": self.complement_id,
            "params": list(self.params),
            "s_generators": [
                [[poly_to_string(cell) for cell in row] for row in g.rows]
                for g in self.s_generators
            ],
            "constraints": {
                "nonzero": [poly_to_string(p) for p in self.constraints.nonzero],
            },
            "unital_component": self.unital_component,
            "notes": self.notes,
        }

    @staticmethod
    def from_json(rec):
        """The entry of one catalog-file record.  Each list field must be a
        JSON list: text in its place would be read one character per item."""
        if not isinstance(rec, dict):
            raise SchemaError("entries", f"record {rec!r} is not an object")
        for field in ("id", "theorem", "complement_id", "params", "s_generators",
                      "constraints", "unital_component"):
            if field not in rec:
                raise SchemaError(field, "missing")
        cons = rec["constraints"]
        if not isinstance(cons, dict) or "nonzero" not in cons:
            raise SchemaError("constraints", "expected {nonzero: [...]}")
        if cons.get("not_both_zero", []) != []:
            # every side condition is one polynomial that must not vanish; a
            # pair read as anything else would weaken the file's conditions
            raise SchemaError("constraints", f"entry {rec['id']!r}: not_both_zero pairs are "
                              "not supported; state each side condition under nonzero")
        for field, ok in (
            ("params", _is_list(rec["params"])),
            ("s_generators", _is_list(rec["s_generators"], lambda g: _is_list(g, _is_list))),
            ("constraints", _is_list(cons["nonzero"])),
        ):
            if not ok:
                raise SchemaError(field, f"entry {rec['id']!r}: a list is expected")
        return CatalogEntry(rec["id"], rec["theorem"], rec["complement_id"], rec["params"],
                            rec["s_generators"], cons["nonzero"], rec["unital_component"],
                            rec.get("notes", ""))

    def __eq__(self, other):
        return isinstance(other, CatalogEntry) and self.to_json() == other.to_json()

    def __repr__(self):
        return f"CatalogEntry({self.id})"


# ---------------------------------------------------------------------------
# built-in corpus
#
# Each family is a table of generators of S keyed by case id, in case order.
# A generator is three rows of cell strings; _m spells a row of one-character
# cells as one string.  builtin_catalog() turns the tables into entries in one
# pass: S_k is R_k's generators plus the identity (S11 and S12 stand alone),
# U is listed against both non-unital 5-dimensional complements, and T, V, X,
# Y and Z each pair their cases with one complement B that holds the identity.
# ---------------------------------------------------------------------------


def _m(r1, r2, r3):
    return [list(r1), list(r2), list(r3)]


_I3 = _m("100", "010", "001")

# (7,2)-cases against the 7-dimensional complement
_R_GENS = {
    "R1": [_m("000", "100", "000"), _m("000", "000", "100")],
    "R2": [_m("000", "100", "000"), _m("000", "001", "100")],
    "R3": [_m("000", "110", "000"), _m("000", "000", "100")],
    "R4": [_m("000", "110", "001"), _m("000", "000", "110")],
    "R5": [_m("000", "110", "001"), _m("000", "000", "100")],
    "R6": [_m("000", "110", "000"), _m("000", "000", "110")],
    "R7": [_m("000", "110", "000"), _m("000", "000", "101")],
    "R8": [
        [["0", "0", "0"], ["1", "1-y", "1"], ["0", "0", "0"]],
        [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "y"]],
    ],
    "R9": [
        _m("000", "110", "001"),
        [["0", "0", "0"], ["0", "0", "1"], ["1", "1", "y"]],
    ],
    "R10": [
        [["0", "0", "0"], ["f", "d*f", "f"], ["0", "1", "f"]],
        [["0", "0", "0"], ["0", "1", "f"], ["1", "1", "1+f-d*f"]],
    ],
}

_R_PARAMS = {"R8": ("y",), "R9": ("y",), "R10": ("d", "f")}
_R_NONZERO = {"R8": ("y",), "R9": ("y",), "R10": ("f",)}
_R_NOTES = {"R10": "first generator rescaled by f to clear a reciprocal entry"}

_T_GENS = {
    "T1": [_m("000", "100", "000"), _m("000", "000", "100"), _m("000", "000", "010")],
    "T2": [_m("000", "110", "000"), _m("000", "000", "100"), _m("000", "000", "010")],
    "T3": [_m("000", "110", "001"), _m("000", "000", "100"), _m("000", "000", "010")],
    "T4": [_m("000", "110", "000"), _m("100", "010", "100"), _m("000", "000", "110")],
    "T5": [_m("000", "110", "000"), _m("100", "010", "100"), _m("010", "100", "010")],
    "T6": [
        [["0", "0", "1"], ["1", "1", "-1"], ["0", "0", "1"]],
        _m("100", "010", "100"),
        [["0", "1", "0"], ["0", "-1", "0"], ["0", "1", "0"]],
    ],
}

# 4-dimensional unital S against either non-unital 5-dimensional
# complement; generators follow the proof-stage displays, which pass the
# direct-sum check for both complements (the theorem-statement spellings
# of two cases do not)
_U_GENS = {
    "U1": [_I3, _m("000", "100", "000"), _m("000", "000", "100"), _m("000", "000", "010")],
    "U2": [_I3, _m("000", "110", "000"), _m("000", "000", "100"), _m("000", "000", "010")],
    "U3": [_I3, _m("000", "100", "000"), _m("000", "000", "100"), _m("000", "010", "010")],
    "U4": [
        _I3,
        _m("000", "110", "000"),
        [["0", "0", "1"], ["0", "0", "-1"], ["1", "0", "0"]],
        _m("110", "000", "110"),
    ],
    "U5": [
        _I3,
        _m("000", "100", "000"),
        _m("000", "000", "100"),
        [["1", "0", "0"], ["0", "p", "1-p"], ["0", "1", "0"]],
    ],
    "U6": [
        _I3,
        [["0", "0", "0"], ["1", "0", "-1"], ["0", "0", "0"]],
        [["1", "0", "-1"], ["0", "0", "0"], ["1", "0", "-1"]],
        [["1", "1", "-1"], ["0", "p", "1-p"], ["0", "1", "0"]],
    ],
    "U7": [
        _I3,
        _m("000", "110", "000"),
        [["1", "0", "m*(m+1)"], ["0", "1", "-m*(m+1)"], ["1", "0", "0"]],
        [["m", "m+1", "-m*(m+1)"], ["0", "-1", "m*(m+1)"], ["0", "1", "0"]],
    ],
    "U8": [
        _I3,
        [["0", "0", "0"], ["1", "1", "-1"], ["0", "0", "0"]],
        [["2-p", "0", "(m-1)*(m-p+1)"], ["0", "1-p", "-m*(m-p)"], ["1", "0", "0"]],
        [["m", "m-p+1", "-m*(m-p+1)"], ["0", "p", "m*(m-p)"], ["0", "1", "0"]],
    ],
}

_U_PARAMS = {"U5": ("p",), "U6": ("p",), "U7": ("m",), "U8": ("m", "p")}
_U_NOTES = dict.fromkeys(("U7", "U8"), "generators taken from the derivation stage of the case")

_V_GENS = {
    "V1": [
        [["0", "0", "0"], ["1", "0", "-1"], ["0", "0", "0"]],
        _m("100", "010", "100"), _m("010", "000", "010"), _m("001", "010", "001"),
    ],
    "V2": [
        [["0", "0", "0"], ["1", "0", "-1"], ["0", "0", "0"]],
        _m("100", "010", "100"), _m("010", "001", "010"), _m("001", "010", "001"),
    ],
    "V3": [
        [["0", "0", "0"], ["1", "0", "-1"], ["0", "0", "0"]],
        _m("100", "000", "100"), _m("010", "000", "010"), _m("001", "000", "001"),
    ],
    "V4": [
        [["0", "0", "0"], ["1", "1", "-1"], ["0", "0", "0"]],
        _m("100", "000", "100"), _m("010", "000", "010"), _m("001", "000", "001"),
    ],
    "V5": [
        [["0", "0", "0"], ["1", "0", "-1"], ["0", "0", "0"]],
        _m("100", "010", "100"),
        [["0", "1", "0"], ["0", "1", "s"], ["0", "1", "0"]],
        _m("001", "010", "001"),
    ],
    "V6": [
        [["0", "0", "0"], ["1", "b", "-(b+1)"], ["0", "0", "0"]],
        _m("100", "100", "100"), _m("010", "010", "010"), _m("001", "001", "001"),
    ],
}

_X_GENS = {
    "X1": [_m("000", "100", "000"), _m("000", "010", "000"),
           _m("000", "000", "100"), _m("000", "000", "010")],
    "X2": [_m("000", "100", "000"), _m("000", "000", "100"),
           _m("000", "000", "010"), _m("000", "000", "001")],
    "X3": [_m("000", "100", "000"), _m("000", "000", "100"),
           _m("000", "000", "010"), _m("100", "010", "000")],
    "X4": [_m("000", "100", "000"), _m("000", "000", "100"),
           _m("000", "000", "010"), _m("100", "000", "001")],
    "X5": [_m("100", "000", "100"), _m("010", "000", "010"),
           _m("000", "100", "000"), _m("000", "010", "000")],
    "X6": [_m("010", "100", "000"), _m("000", "000", "100"),
           _m("000", "000", "010"), _m("100", "010", "000")],
    "X7": [_m("000", "110", "000"), _m("000", "000", "100"),
           _m("000", "000", "010"), _m("000", "000", "001")],
}

_Y_GENS = {
    "Y1": [_m("000", "100", "000"), _m("000", "000", "100"),
           _m("000", "000", "011"), _m("000", "011", "000")],
    "Y2": [_m("000", "100", "000"), _m("000", "000", "100"),
           _m("000", "010", "010"), _m("000", "001", "001")],
    "Y3": [_m("000", "100", "000"), _m("000", "000", "100"),
           _m("100", "011", "000"), _m("100", "000", "011")],
    "Y4": [_m("000", "100", "000"), _m("000", "000", "100"),
           _m("100", "010", "010"), _m("100", "001", "001")],
    "Y5": [_m("000", "110", "000"),
           [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "-1"]],
           _m("000", "000", "011"), _m("000", "011", "000")],
    "Y6": [
        [["0", "0", "0"], ["1", "0", "0"], ["-1", "0", "0"]],
        _m("011", "000", "100"), _m("100", "000", "011"), _m("100", "011", "000"),
    ],
    "Y7": [
        [["0", "0", "0"], ["1", "0", "-1"], ["0", "0", "0"]],
        _m("100", "100", "100"), _m("010", "010", "010"), _m("001", "001", "001"),
    ],
    "Y8": [
        _m("000", "110", "001"), _m("000", "100", "100"),
        [["1", "1", "-1"], ["0", "1", "0"], ["0", "1", "0"]],
        [["0", "0", "0"], ["0", "1", "-1"], ["0", "1", "-1"]],
    ],
    "Y9": [
        [["0", "0", "0"], ["1", "1", "-(x+1)"], ["0", "0", "0"]],
        [["x", "0", "0"], ["1", "0", "0"], ["1", "0", "0"]],
        [["0", "x", "0"], ["0", "1", "0"], ["0", "1", "0"]],
        [["0", "0", "x"], ["0", "0", "1"], ["0", "0", "1"]],
    ],
    "Y10": [
        [["0", "0", "0"], ["1", "d", "0"], ["0", "0", "0"]],
        [["1", "d", "0"], ["0", "0", "0"], ["1", "d", "0"]],
        _m("000", "011", "000"), _m("011", "000", "011"),
    ],
    "Y11": [
        [["0", "0", "0"], ["1", "1", "0"], ["-1", "0", "1"]],
        [["0", "c", "c"], ["1", "1", "0"], ["0", "0", "0"]],
        _m("110", "000", "011"),
        [["1", "0", "-1"], ["0", "1", "1"], ["0", "0", "0"]],
    ],
}

_Z_GENS = {
    "Z1": [_m("100", "000", "000"), _m("000", "100", "000"),
           _m("000", "000", "100"), _m("000", "000", "010")],
    "Z2": [_m("100", "000", "000"), _m("000", "100", "000"),
           _m("000", "000", "100"), _m("000", "000", "011")],
    "Z3": [_m("100", "010", "000"), _m("000", "100", "000"),
           _m("000", "000", "100"), _m("000", "000", "010")],
    "Z4": [_m("100", "010", "000"), _m("010", "100", "000"),
           _m("000", "000", "100"), _m("000", "000", "010")],
}


def _family(theorem, complement, gens, params=None):
    """The entries of a family whose unital summand is B and whose cases
    carry no side conditions."""
    params = params or {}
    return [CatalogEntry(ident, theorem, complement, params.get(ident, ()), g, (), "B")
            for ident, g in gens.items()]


_BUILTIN = None


def builtin_catalog():
    """All 71 classified decomposition entries, in theorem-then-case order
    (with R_k and S_k side by side)."""
    global _BUILTIN
    if _BUILTIN is None:
        entries = []
        for ident, gens in _R_GENS.items():
            params, nonzero = _R_PARAMS.get(ident, ()), _R_NONZERO.get(ident, ())
            notes = _R_NOTES.get(ident, "")
            entries += [
                CatalogEntry(ident, 1, "M7", params, gens, nonzero, "B", notes),
                CatalogEntry("S" + ident[1:], 2, "M6N", params, [_I3, *gens], nonzero, "S",
                             notes),
            ]
        entries.append(CatalogEntry("S11", 2, "M6N", ("d",), [
            _I3,
            [["0", "0", "1"], ["1", "0", "d"], ["0", "1", "0"]],
            [["0", "1", "0"], ["0", "d", "1"], ["1", "0", "d"]],
        ], (), "S"))
        entries.append(CatalogEntry("S12", 2, "M6N", ("e", "u"), [
            _I3,
            [["0", "0", "e*u-1"], ["1", "1", "1"], ["0", "e", "1"]],
            [["0", "e*u-1", "0"], ["0", "1", "u"], ["1", "1", "1"]],
        ], ("e", "e*u-1"), "S"))
        entries += _family(3, "M6U", _T_GENS)
        for complement, tag in (("L5_4", "M1"), ("L5_5", "M2")):
            for base, gens in _U_GENS.items():
                if tag == "M2" and base == "U3":
                    # coincides with U2 over this complement under the
                    # transpose-composed index swap; kept as a single entry
                    continue
                entries.append(CatalogEntry(f"{base}@{tag}", 4, complement,
                                            _U_PARAMS.get(base, ()), gens, (), "S",
                                            _U_NOTES.get(base, "")))
        entries += _family(5, "L5_1", _V_GENS, {"V5": ("s",), "V6": ("b",)})
        entries += _family(6, "L5_3", _X_GENS)
        entries += _family(7, "L5_2", _Y_GENS, {"Y9": ("x",), "Y10": ("d",), "Y11": ("c",)})
        entries += _family(8, "L5_6", _Z_GENS)
        _BUILTIN = tuple(entries)
    return list(_BUILTIN)


def entry_by_id(ident):
    for e in builtin_catalog():
        if e.id == ident:
            return e
    raise KeyError(ident)


def catalog_json(entries):
    """The catalog file document of the entries, which load_catalog reads."""
    return {"schema_version": SCHEMA_VERSION, "entries": [e.to_json() for e in entries]}


def load_catalog(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError("path", f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise SchemaError("path", f"{path} is not JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("path", f"{path} is nested too deeply to read") from None
    # an int, not a bool: true and 1.0 equal 1 as well
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError("schema_version", f"expected {SCHEMA_VERSION}")
    if not isinstance(doc.get("entries"), list) or not doc["entries"]:
        raise SchemaError("entries", "expected a nonempty list of records")
    entries = [CatalogEntry.from_json(rec) for rec in doc["entries"]]
    seen = set()
    for e in entries:
        if e.id in seen:
            raise SchemaError("id", f"entry {e.id} is repeated")
        seen.add(e.id)
    return entries
