import json

import pytest

from m3decomp.catalog import (
    COMPLEMENTS,
    LEMMA5_SUBALGEBRAS,
    CatalogEntry,
    ComplementDef,
    builtin_catalog,
    entry_by_id,
    load_catalog,
    save_catalog,
)
from m3decomp.errors import ConstraintViolated, NotSupported, ParseError, SchemaError
from m3decomp.matrices import Mat3, Subspace, is_direct_sum, span


def test_catalog_count_and_split():
    entries = builtin_catalog()
    assert len(entries) == 71
    per_theorem = {}
    for e in entries:
        per_theorem[e.theorem] = per_theorem.get(e.theorem, 0) + 1
    assert per_theorem == {1: 10, 2: 12, 3: 6, 4: 15, 5: 6, 6: 7, 7: 11, 8: 4}
    assert len({e.id for e in entries}) == 71
    assert not any(e.id == "U3@M2" for e in entries)
    assert any(e.id == "U2@M2" for e in entries)


def test_constraints_as_stated():
    r9 = entry_by_id("R9")
    assert [str(p) for p in r9.constraints.nonzero] == ["y"]
    s12 = entry_by_id("S12")
    assert sorted(str(p) for p in s12.constraints.nonzero) == ["e", "e*u-1"]
    r10 = entry_by_id("R10")
    assert [str(p) for p in r10.constraints.nonzero] == ["f"]
    assert "rescaled" in r10.notes


def test_unital_components():
    for e in builtin_catalog():
        expected = "S" if e.theorem in (2, 4) else "B"
        assert e.unital_component == expected


def test_specialize_r1():
    S, B = entry_by_id("R1").specialize({})
    assert S.dim == 2 and B.dim == 7
    assert S.same_space(span([Mat3.basis(2, 1), Mat3.basis(3, 1)]))
    assert is_direct_sum(S, B)


def test_specialize_constraint_violation():
    with pytest.raises(ConstraintViolated) as exc:
        entry_by_id("R9").specialize({"y": 0})
    assert "y" in str(exc.value)
    with pytest.raises(ConstraintViolated):
        entry_by_id("S12").specialize({"e": 1, "u": 1})


def test_specialize_names_the_first_violated_condition():
    rec = entry_by_id("R9").to_json()
    rec["params"] = ["y", "a"]
    rec["constraints"]["not_both_zero"] = [["a", "y-1"]]
    entry = CatalogEntry.from_json(rec)
    with pytest.raises(ConstraintViolated) as exc:
        entry.specialize({"y": 0, "a": 0})
    assert exc.value.polynomial == "y"
    with pytest.raises(ConstraintViolated) as exc:
        entry.specialize({"y": 1, "a": 0})
    assert exc.value.polynomial == "(a,y-1)"
    S, _ = entry.specialize({"y": 1, "a": 1})
    assert S.dim == 2


def test_standard_point_is_2_3_for_every_builtin_entry():
    # every built-in entry meets its side conditions at the walk's first point
    for e in builtin_catalog():
        assert e.standard_values() == {p: 2 + i for i, p in enumerate(e.params)}


def _with_nonzero(ident, *nonzero):
    rec = entry_by_id(ident).to_json()
    rec["constraints"]["nonzero"] = list(nonzero)
    return CatalogEntry.from_json(rec)


def test_standard_point_walks_past_the_side_conditions():
    # y - 2 vanishes at the first point; the walk takes the next one, and
    # the entry specializes there
    r9 = _with_nonzero("R9", "y-2")
    assert r9.standard_values() == {"y": 3}
    s, _ = r9.specialize(r9.standard_values())
    assert s.dim == 2
    # the last parameter moves first: (d, f) = (2, 3), (2, 4), (2, 5), ...
    r10 = _with_nonzero("R10", "f", "f-3", "f-4")
    assert r10.standard_values() == {"d": 2, "f": 5}
    # a not-both-zero pair counts as well
    rec = entry_by_id("R9").to_json()
    rec["params"] = ["y", "a"]
    rec["constraints"]["not_both_zero"] = [["a-3", "y-2"]]
    assert CatalogEntry.from_json(rec).standard_values() == {"y": 2, "a": 4}


def test_standard_point_refuses_an_entry_the_walk_cannot_meet():
    # y takes 2..5 on the walk, and each value kills one factor
    r9 = _with_nonzero("R9", "(y-2)*(y-3)*(y-4)*(y-5)")
    with pytest.raises(NotSupported) as exc:
        r9.standard_values()
    assert "entry R9" in str(exc.value)


@pytest.mark.parametrize("field, cell, constraint, message", [
    ("constraints", "y", "q", "unknown parameter 'q' (line 1, column 0)"),
    ("s_generators", "y+q", "y", "unknown parameter 'q' (line 1, column 2)"),
    ("s_generators", "y/2", "y", "unexpected character '/' (line 1, column 1)"),
])
def test_parse_error_names_the_entry_and_the_field(field, cell, constraint, message):
    rec = entry_by_id("R8").to_json()
    rec["s_generators"][0][1][1] = cell
    rec["constraints"]["nonzero"] = [constraint]
    with pytest.raises(ParseError) as exc:
        CatalogEntry.from_json(rec)
    assert str(exc.value) == f"field {field!r}: entry R8: {message}"


def test_not_both_zero_pairs_are_built_with_the_entry():
    # the constructor parses the pairs that from_json reads, and a malformed
    # pair is a SchemaError naming the constraints field
    rec = entry_by_id("R9").to_json()
    rec["params"] = ["y", "a"]
    rec["constraints"]["not_both_zero"] = [["a", "y-1"]]
    built = CatalogEntry(rec["id"], rec["theorem"], rec["complement_id"], rec["params"],
                         rec["s_generators"], rec["constraints"]["nonzero"],
                         rec["unital_component"], rec["notes"], [("a", "y-1")])
    assert built == CatalogEntry.from_json(rec)
    rec["constraints"]["not_both_zero"] = [["a", "y", "y-1"]]
    with pytest.raises(SchemaError) as exc:
        CatalogEntry.from_json(rec)
    assert exc.value.field == "constraints"


def test_complement_subspace_and_closure_built_once(monkeypatch):
    checked = []
    is_subalgebra = Subspace.is_subalgebra
    monkeypatch.setattr(Subspace, "is_subalgebra",
                        lambda s: checked.append(s) or is_subalgebra(s))
    comp = ComplementDef("M7", COMPLEMENTS["M7"].generators, unital=True)
    sub = comp.subspace()
    assert comp.subspace() is sub and sub.dim == 7
    assert comp.closure() == comp.closure() == (True, None)
    assert checked == [sub]
    assert all(c.closure() == (True, None) for c in COMPLEMENTS.values())
    # every entry shares its complement's one subspace, whatever the mode
    for e in builtin_catalog():
        b = e.complement.subspace()
        assert e.b_subspace_symbolic() is b
        assert e.specialize({p: 2 for p in e.params})[1] is b


def test_specialize_r10_full_checks():
    S, B = entry_by_id("R10").specialize({"f": 1, "d": 0})
    assert S.is_subalgebra()[0]
    assert B.is_subalgebra()[0]
    assert is_direct_sum(S, B)
    assert B.contains_identity() and not S.contains_identity()


def test_sn_extends_rn():
    # each S-case through S10 is the matching R-case together with E
    for k in range(1, 11):
        r, _ = entry_by_id(f"R{k}").specialize({p: 3 for p in entry_by_id(f"R{k}").params})
        s, _ = entry_by_id(f"S{k}").specialize({p: 3 for p in entry_by_id(f"S{k}").params})
        assert s.dim == r.dim + 1
        assert s.contains(Mat3.identity())
        assert s.contains_subspace(r)


def test_complement_dims():
    dims = {cid: c.dim for cid, c in COMPLEMENTS.items()}
    assert dims["M7"] == 7 and dims["M6N"] == 6 and dims["M6U"] == 6
    assert all(dims[f"L5_{k}"] == 5 for k in range(1, 7))
    for e in builtin_catalog():
        assert len(e.s_generators) + e.complement.dim == 9


def test_lemma5_records():
    unital = []
    for k, comp in LEMMA5_SUBALGEBRAS.items():
        sub = comp.subspace()
        assert sub.dim == 5
        assert sub.is_subalgebra()[0]
        assert sub.contains_identity() == comp.unital
        if comp.unital:
            unital.append(k)
    assert unital == [1, 2, 3, 6]


def test_roundtrip(tmp_path):
    path = tmp_path / "catalog.json"
    entries = builtin_catalog()
    save_catalog(entries, path)
    loaded = load_catalog(path)
    assert len(loaded) == 71
    assert loaded == entries


def test_load_rejects_division(tmp_path):
    path = tmp_path / "bad.json"
    doc = {"schema_version": 1, "entries": [{
        "id": "bad", "theorem": 1, "complement_id": "M7", "params": ["f"],
        "s_generators": [[["0", "0", "0"], ["1", "0", "1/f"], ["0", "0", "0"]]],
        "constraints": {"nonzero": ["f"], "not_both_zero": []},
        "unital_component": "B", "notes": "",
    }]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_catalog(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "bad2.json"
    doc = {"schema_version": 1, "entries": [{
        "id": "bad", "theorem": 1, "params": [],
        "s_generators": [], "constraints": {"nonzero": [], "not_both_zero": []},
        "unital_component": "B",
    }]}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load_catalog(path)
    assert exc.value.field == "complement_id"


@pytest.mark.parametrize("ids", [["R1", "R2", "R1"], ["R1", 5], ["R1", ""], ["R1", None]])
def test_load_rejects_bad_and_repeated_ids(ids, tmp_path):
    # a repeated id would be verified twice and keep one fingerprint; an id
    # that is no text cannot be sorted beside the others
    records = [dict(entry_by_id("R1").to_json(), id=ident) for ident in ids]
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({"schema_version": 1, "entries": records}))
    with pytest.raises(SchemaError) as exc:
        load_catalog(path)
    assert exc.value.field == "id"


def _r9(**fields):
    """R9's record with fields replaced (nonzero and not_both_zero inside
    its constraints)."""
    rec = entry_by_id("R9").to_json()
    for key, value in fields.items():
        (rec["constraints"] if key in rec["constraints"] else rec)[key] = value
    return rec


# case: (the malformed record, the field the SchemaError names); text in
# place of a list would be read one character per item
MALFORMED_RECORDS = {
    "number-record": (7, "entries"),
    "list-complement-id": (_r9(complement_id=["M7"]), "complement_id"),
    "text-params": (_r9(params="yz"), "params"),
    "text-nonzero": (_r9(nonzero="y"), "constraints"),
    "text-not-both-zero-pair": (_r9(not_both_zero=["yy"]), "constraints"),
    "text-generator-rows": (_r9(s_generators=[["000", "110", "001"]]), "s_generators"),
    "object-theorem": (_r9(theorem={"x": [1]}), "theorem"),
    "bool-theorem": (_r9(theorem=True), "theorem"),
    "number-notes": (_r9(notes=5), "notes"),
    # a summand spanned by nothing is no subalgebra to check
    "no-generators": (_r9(s_generators=[]), "s_generators"),
    # a pair that can never be not both zero leaves no point to sample
    "zero-pair": (_r9(not_both_zero=[["0", "0"]]), "constraints"),
}


@pytest.mark.parametrize("case", list(MALFORMED_RECORDS))
def test_load_rejects_malformed_records(case, tmp_path):
    record, field = MALFORMED_RECORDS[case]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema_version": 1, "entries": [record]}))
    with pytest.raises(SchemaError) as exc:
        load_catalog(path)
    assert exc.value.field == field


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_load_rejects_a_schema_version_that_is_not_the_integer_1(version, tmp_path):
    # true and 1.0 compare equal to 1, but neither is the integer version
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema_version": version, "entries": [entry_by_id("R9").to_json()]}))
    with pytest.raises(SchemaError) as exc:
        load_catalog(path)
    assert exc.value.field == "schema_version"


def test_entry_rejects_undeclared_params():
    with pytest.raises(ParseError):
        CatalogEntry("oops", 1, "M7", (),
                     [[["0", "0", "0"], ["1", "y", "0"], ["0", "0", "0"]]],
                     (), "B")


def test_u2_u3_coincide_over_second_complement_only():
    # the transpose-composed index swap identifies the two cases over the
    # second complement (hence one shared entry there), but does not
    # preserve the first complement
    from m3decomp.catalog import COMPLEMENTS, entry_by_id
    from m3decomp.maps import apply_map, theta, transpose_map

    chi = theta(1, 3).compose(transpose_map())
    m2 = COMPLEMENTS["L5_5"].subspace()
    assert apply_map(chi, m2).same_space(m2)
    u2, _ = entry_by_id("U2@M2").specialize({})
    u3, _ = entry_by_id("U3@M1").specialize({})
    assert apply_map(chi, u2).same_space(u3)
    m1 = COMPLEMENTS["L5_4"].subspace()
    assert not apply_map(chi, m1).same_space(m1)
