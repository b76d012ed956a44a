import pathlib

import pytest

from m3decomp import cli
from m3decomp.catalog import CatalogEntry, builtin_catalog, entry_by_id
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


ARCHIVED_RUNS = [
    ("invariants.json", ["invariants"], 1),
    ("export.json", ["export"], 0),
    ("verify_symbolic.json", ["verify", "--all", "--mode", "symbolic"], 0),
    ("verify_specialized_n10_seed3.json",
     ["verify", "--all", "--mode", "specialized", "--n", "10", "--seed", "3"], 0),
    ("rb.json", ["rb"], 0),
    ("rb_weight1_operators.json", ["rb", "--weight", "1", "--emit-operators"], 0),
    ("derive_system_t2.json", ["derive-system", "--pattern", "t2", "--compare", "t2_system"], 0),
    # the table renders lists and tuples differently, so this pins that
    # cmd_invariants turns rad_dims into a list
    ("invariants_T2_X6_Z4_p3.txt",
     ["invariants", "--entry", "T2,X6,Z4", "--sweep-primes", "3", "--format", "table"], 1),
]


@pytest.mark.parametrize(
    "archive, argv, code", ARCHIVED_RUNS, ids=[run[0].split(".")[0] for run in ARCHIVED_RUNS]
)
def test_archived_exact_report_reproduces(archive, argv, code, tmp_path):
    # the archived reports of the exact commands, regenerated in-process and
    # compared byte for byte (invariants exits 1 by Finding 2)
    out = tmp_path / archive
    assert cli.main([*argv, "--output", str(out)]) == code
    assert out.read_bytes() == (REPORT_DIR / archive).read_bytes()
