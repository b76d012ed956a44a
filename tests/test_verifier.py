import json
import pathlib

import pytest

from archived_runs import ARCHIVED_RUNS
from m3decomp import cli, invariants, verifier
from m3decomp.catalog import LEMMA5_SUBALGEBRAS, CatalogEntry, builtin_catalog, entry_by_id
from m3decomp.invariants import fingerprint
from m3decomp.verifier import (
    compare_with_reference_system,
    sample_assignment,
    verify_entry,
    verify_remarks,
)

REPORT_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports"


def test_verify_t6_symbolic():
    report = verify_entry(entry_by_id("T6"))
    assert report.passed and report.method == "symbolic"
    assert report.failures == []


def test_verify_artificial_failure():
    bad = CatalogEntry(
        "bad", 1, "M7", (),
        [
            [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        ],
        (), "B",
    )
    report = verify_entry(bad)
    assert not report.closure_s
    assert "(0, 1)" in report.failures[0] or "(1, 0)" in report.failures[0]


def test_verify_y9_specialized():
    report = verify_entry(entry_by_id("Y9"), "specialized", n=100, seed=7)
    assert report.passed
    assert report.method == "specialized(n=100, seed=7)"


def test_symbolic_and_specialized_agree():
    for ident in ("R8", "S10", "U7@M1", "V6", "Y11"):
        entry = entry_by_id(ident)
        sym = verify_entry(entry, "symbolic")
        sp = verify_entry(entry, "specialized", n=25, seed=3)
        assert sym.passed == sp.passed


def test_full_catalog_symbolic_no_warnings():
    reports = [verify_entry(e) for e in builtin_catalog()]
    assert len(reports) == 71
    assert all(r.passed for r in reports)
    assert all(not r.warning for r in reports), "no UndecidedPivot downgrades allowed"


def test_sample_assignment_respects_constraints():
    import random

    entry = entry_by_id("S12")
    rng = random.Random(0)
    for _ in range(50):
        values = sample_assignment(entry, rng)
        assert values["e"] != 0 and values["e"] * values["u"] != 1
        assert all(-10 <= v <= 10 for v in values.values())


def test_specialized_verify_of_an_empty_box_is_a_config_error(tmp_path, monkeypatch, capsys):
    # R8 with a nonzero condition, the product of y - k for k = -10 ... 10,
    # that no integer y the sampler draws meets: the sampler gives up after
    # a fixed number of draws, with one error line and exit 2
    rec = entry_by_id("R8").to_json()
    rec["constraints"]["nonzero"] = ["*".join(f"(y-({k}))" for k in range(-10, 11))]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema_version": 1, "entries": [rec]}))
    monkeypatch.setenv("M3DECOMP_CATALOG", str(path))
    assert cli.main(["verify", "--mode", "specialized", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: entry R8: no draw of")
    assert captured.err.count("\n") == 1 and not captured.out


@pytest.mark.parametrize("fixture", ["t1_reduced", "t2_system", "t6_radical"])
def test_compare_with_reference_system(fixture):
    report = compare_with_reference_system(fixture, 3)
    assert report["equal"]
    if "substitutions_implied_by_closure" in report:
        assert report["substitutions_implied_by_closure"]


def test_verify_remarks_report():
    report = verify_remarks(sweep_primes=(3,))
    assert report["remark1"]["passed"]
    assert report["remark4"]["passed"]
    assert report["remark6"]["passed"]
    assert report["remark7"]["passed"]
    # the (T4)/(T6) sweep finds a complement-preserving antiautomorphism, so
    # the claimed orbit separation of that pair is reported as failed
    assert not report["remark3"]["passed"]
    sweep = report["remark3"]["sweep"]["3"]
    assert not sweep["separated"]
    witness = sweep["witness"]
    assert witness["composed_with_transpose_twist"]
    assert witness["beta"] == 0 and witness["epsilon"] == 0
    t_pairs = {tuple(p["pair"]): p for p in report["remark3"]["pairs"]}
    assert t_pairs[("T4", "T6")]["separated_by"] is None
    for pair, rec in t_pairs.items():
        if pair != ("T4", "T6"):
            assert rec["separated_by"] is not None


def test_remark3_unseparated_pair_without_a_sweep(monkeypatch):
    # T1 read as T2's entry: no fingerprint separates (T1, T2), and no sweep
    # is defined for that pair, so remark 3 fails on it
    t2 = entry_by_id("T2")
    monkeypatch.setattr(
        verifier, "entry_by_id", lambda ident: t2 if ident == "T1" else entry_by_id(ident)
    )
    remark3 = verify_remarks(sweep_primes=())["remark3"]
    t_pairs = {tuple(p["pair"]): p for p in remark3["pairs"]}
    assert t_pairs[("T1", "T2")]["separated_by"] is None
    assert t_pairs[("T1", "T2")]["detail"] == "no fingerprint separation and no sweep defined"
    for pair, rec in t_pairs.items():
        if pair not in (("T1", "T2"), ("T4", "T6")):
            assert rec["separated_by"] is not None and "detail" not in rec
    assert not remark3["passed"]


def test_remark3_without_sweep_primes_leaves_t4_t6_unseparated():
    # with no sweep prime no sweep runs, so nothing separates (T4, T6)
    remark3 = verify_remarks(sweep_primes=())["remark3"]
    t_pairs = {tuple(p["pair"]): p for p in remark3["pairs"]}
    assert remark3["sweep"] == {}
    assert t_pairs[("T4", "T6")]["separated_by"] is None
    assert t_pairs[("T4", "T6")]["detail"].startswith("no sweep ran")
    assert not remark3["passed"]


def test_verify_remarks_reads_the_fingerprints_it_is_given(monkeypatch):
    # every subalgebra the remarks read, fingerprinted beforehand: the
    # remarks compute no fingerprint of their own and report the same (they
    # look up invariants.fingerprint at call time, so the patch reaches them)
    expected = verify_remarks()
    table = {f"L5_{k}": fingerprint(c.subspace()) for k, c in LEMMA5_SUBALGEBRAS.items()}
    for family, count in (("R", 7), ("T", 6), ("X", 7), ("Z", 4)):
        for k in range(1, count + 1):
            entry = entry_by_id(f"{family}{k}")
            table[entry.id] = fingerprint(entry.specialize(entry.standard_values())[0])

    def refuse(s):
        raise AssertionError("verify_remarks computed a fingerprint it was given")

    monkeypatch.setattr(invariants, "fingerprint", refuse)
    assert verify_remarks(table) == expected


def test_invariants_remarks_describe_the_builtin_catalog(tmp_path, monkeypatch):
    # a catalog file whose T4 carries T1's generators: the fingerprints are
    # the file's, but the remarks still describe the built-in catalog
    records = [e.to_json() for e in builtin_catalog()]
    t1 = next(rec for rec in records if rec["id"] == "T1")
    t4 = next(rec for rec in records if rec["id"] == "T4")
    t4["s_generators"] = t1["s_generators"]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema_version": 1, "entries": records}))
    monkeypatch.setenv("M3DECOMP_CATALOG", str(path))
    out = tmp_path / "invariants.json"
    assert cli.main(["invariants", "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    archived = json.loads((REPORT_DIR / "invariants.json").read_text())
    assert doc["fingerprints"]["T4"] == archived["fingerprints"]["T1"]
    assert doc["fingerprints"]["T4"] != archived["fingerprints"]["T4"]
    assert doc["remarks"] == archived["remarks"]


def test_undecided_symbolic_check_downgrades_to_specialized():
    # nothing certifies the unconstrained y nonzero, so the symbolic
    # elimination cannot pick y*e31 as a pivot and the entry is sampled
    entry = CatalogEntry(
        "y-free", 1, "M7", ("y",),
        [
            [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            [["0", "0", "0"], ["0", "0", "0"], ["y", "0", "0"]],
        ],
        (), "B",
    )
    report = verify_entry(entry)
    assert report.method == "specialized(n=100, seed=0)"
    assert report.warning.startswith("symbolic mode undecided")


@pytest.mark.parametrize(
    "archive, argv, code", ARCHIVED_RUNS, ids=[run[0].split(".")[0] for run in ARCHIVED_RUNS]
)
def test_archived_exact_report_reproduces(archive, argv, code, tmp_path):
    # the archived reports of the exact commands, regenerated in-process and
    # compared byte for byte (invariants exits 1 by Finding 2)
    out = tmp_path / archive
    assert cli.main([*argv, "--output", str(out)]) == code
    assert out.read_bytes() == (REPORT_DIR / archive).read_bytes()


@pytest.mark.parametrize("command", ["verify", "rb"])
def test_repeated_entry_is_a_config_error(command, capsys):
    # an id named twice would be checked and counted twice
    assert cli.main([command, "--entry", "R1,R2", "--entry", "R1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: repeated entries: R1\n" and not captured.out


def _r9_with(field, value):
    """R9's record with one field set to value, or one generator cell when
    field is the cell's index path."""
    rec = entry_by_id("R9").to_json()
    if isinstance(field, tuple):
        gen, row, col = field
        rec["s_generators"][gen][row][col] = value
    elif field == "nonzero":
        rec["constraints"]["nonzero"] = value
    else:
        rec[field] = value
    return rec


# case: (records, or file text; the field the error line names)
BAD_CATALOGS = {
    "missing": (None, "path"),
    "not-json": ("{ not json\n", "path"),
    "not-an-object": ("[1]\n", "schema_version"),
    "not-3x3": ([_r9_with("s_generators", [[["1", "0"], ["0", "1"]]])], "s_generators"),
    "param-outside-grammar": ([_r9_with("params", ["Y"])], "params"),
    "repeated-param": ([_r9_with("params", ["y", "y"])], "params"),
    "repeated-id": ([_r9_with("notes", ""), _r9_with("notes", "again")], "id"),
    "number-id": ([_r9_with("id", 5)], "id"),
    "number-cell": ([_r9_with((1, 2, 2), 7)], "s_generators"),
    "zero-constraint": ([_r9_with("nonzero", ["0"])], "constraints"),
    # verify --all over no entries would pass having checked nothing
    "no-records": ([], "entries"),
    # no direct sum holds the identity in both summands
    "unital-in-both": ([_r9_with("unital_component", "both")], "unital_component"),
}


@pytest.mark.parametrize("case", list(BAD_CATALOGS))
def test_bad_catalog_file_is_a_config_error(case, tmp_path, monkeypatch, capsys):
    # M3DECOMP_CATALOG naming a file the CLI cannot use: exit 2 with one
    # error line naming the field, not a traceback
    content, field = BAD_CATALOGS[case]
    path = tmp_path / "catalog.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_text(json.dumps({"schema_version": 1, "entries": content}))
    monkeypatch.setenv("M3DECOMP_CATALOG", str(path))
    assert cli.main(["verify", "--all"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: field {field!r}")
    assert captured.err.count("\n") == 1 and not captured.out


def test_catalog_file_side_conditions_move_the_standard_point(tmp_path, monkeypatch):
    # y - 2 vanishes at R9's first standard point: the commands that
    # specialize there take the next point of the walk instead of refusing
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema_version": 1, "entries": [_r9_with("nonzero", ["y-2"])]}))
    monkeypatch.setenv("M3DECOMP_CATALOG", str(path))
    out = tmp_path / "out.json"
    for argv in (["verify", "--all"], ["rb", "--entry", "R9", "--weight", "1"],
                 ["invariants", "--entry", "R9", "--skip-remarks"]):
        assert cli.main([*argv, "--output", str(out)]) == 0, argv
    assert json.loads(out.read_text())["fingerprints"]["R9"]["specialized_at"] == {"y": 3}


# case: (argv of a run the CLI must refuse before any check, the option named)
_SPECIALIZED_R8 = ["verify", "--entry", "R8", "--mode", "specialized", "--seed", "1"]
BAD_OPTIONS = {
    "weight-not-rational": (["rb", "--entry", "R1", "--weight", "abc"], "--weight"),
    "weight-zero-denominator": (["rb", "--entry", "R1", "--weight", "1/0"], "--weight"),
    "weight-zero": (["rb", "--entry", "R1", "--weight", "0"], "--weight"),
    "no-samples": ([*_SPECIALIZED_R8, "--n", "0"], "--n"),
    "negative-samples": ([*_SPECIALIZED_R8, "--n", "-4"], "--n"),
    "fixture-of-another-pattern":
        (["derive-system", "--pattern", "t2", "--compare", "t1_reduced"], "--compare"),
    "fixture-of-other-pairs":
        (["derive-system", "--pattern", "t3", "--compare", "t3_squares"], "--compare"),
    # an --entry list naming no id would pass having checked nothing
    "verify-no-entry-id": (["verify", "--entry", ","], "--entry"),
    "verify-empty-entry": (["verify", "--entry", ""], "--entry"),
    # --all asks for the whole catalog, --entry for part of it
    "verify-all-with-entry": (["verify", "--all", "--entry", "R1"], "--all"),
    "rb-no-entry-id": (["rb", "--entry", ","], "--entry"),
    "invariants-no-entry-id": (["invariants", "--entry", ",", "--skip-remarks"], "--entry"),
}


@pytest.mark.parametrize("case", list(BAD_OPTIONS))
def test_bad_option_is_a_config_error(case, capsys):
    # exit 2 with one error line naming the option: no traceback, no report
    argv, option = BAD_OPTIONS[case]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {option} ")
    assert captured.err.count("\n") == 1 and not captured.out


def test_compare_takes_a_fixture_of_the_pattern_and_pairs(tmp_path):
    # an alias names its pattern's fixtures; a fixture of squares needs
    # --pairs squares
    for argv in (["--pattern", "7-2", "--compare", "t1_reduced"],
                 ["--pattern", "t3", "--pairs", "squares", "--compare", "t3_squares"]):
        out = tmp_path / "derive.json"
        assert cli.main(["derive-system", *argv, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["comparison"]["equal"]


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "catalog.json"
    assert cli.main(["export", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.err.count("\n") == 1 and not captured.out
    assert not out.parent.exists()
