"""Acceptance gate: one test per criterion, each printing a pass/fail line
(run with -s to see them inline).

Criterion 5 is split: the remark reproductions all pass, but its sub-clause
that the exhaustive F_3/F_5 sweeps find no map linking the (T4) and (T6)
subalgebras is implemented exactly as stated and fails, because the sweep
finds such a map at every prime and the parameters interpolate to an exact
rational antiautomorphism: the pair is genuinely equivalent under the
complement-preserving antiautomorphisms, so that expectation is
unattainable.  README.md, "Findings", has the full analysis.
"""

import json
import pathlib
import subprocess
import sys
import time

import numpy as np

from archived_runs import CRITERION_7_COVERAGE, coverage_archive
from m3decomp.catalog import builtin_catalog
from m3decomp.maps import (
    family_conjugator,
    is_algebra_map,
    preserves,
    rescaled_pair_images_63,
    rescaled_pair_images_72,
)
from m3decomp.matrices import Mat3, span
from m3decomp.patterns import PATTERNS, reference_system
from m3decomp.rota_baxter import (
    check_complement_identity,
    check_rb_identity,
    rb_pair_for_entry,
)
from m3decomp.search import (
    catalog_specializations_fp,
    coverage_report,
    enumerate_complements_fp,
    t4_t6_separation,
)
from m3decomp.verifier import (
    compare_with_reference_system,
    verify_entry,
    verify_remarks,
)

REPORT_DIR = pathlib.Path(__file__).resolve().parent.parent / "reports"


def _line(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")


def test_criterion_1_catalog_count():
    t0 = time.monotonic()
    entries = builtin_catalog()
    per_theorem = {}
    for e in entries:
        per_theorem[e.theorem] = per_theorem.get(e.theorem, 0) + 1
    elapsed = time.monotonic() - t0
    ok = (
        len(entries) == 71
        and per_theorem == {1: 10, 2: 12, 3: 6, 4: 15, 5: 6, 6: 7, 7: 11, 8: 4}
        and elapsed < 1.0
    )
    _line(1, ok, f"71 entries, split 10+12+6+15+6+7+11+4, {elapsed:.2f}s")
    assert ok


def test_criterion_2_full_symbolic_verification():
    t0 = time.monotonic()
    reports = [verify_entry(e, mode="symbolic") for e in builtin_catalog()]
    elapsed = time.monotonic() - t0
    failed = [r.entry for r in reports if not r.passed]
    downgraded = [r.entry for r in reports if r.warning]
    ok = not failed and not downgraded and elapsed < 60.0
    _line(2, ok, f"all 71 symbolic, no undecided pivots, {elapsed:.1f}s")
    assert not failed, failed
    assert not downgraded, downgraded
    assert elapsed < 60.0


def test_criterion_3_automorphism_family_machine_proof():
    t0 = time.monotonic()
    phi, phi_constraints = family_conjugator("phi_full")
    ok_phi, wit = is_algebra_map(phi, constraints=phi_constraints)
    m7 = span([Mat3.basis(i, j) for (i, j) in
               ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3))])
    keeps_m7 = preserves(m7, phi)
    psi, psi_constraints = family_conjugator("psi")
    ok_psi, wit_psi = is_algebra_map(psi, constraints=psi_constraints)
    upper = span([Mat3.basis(i, j) for (i, j) in
                  ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))])
    keeps_upper = preserves(upper, psi)
    elapsed = time.monotonic() - t0
    ok = ok_phi and keeps_m7 and ok_psi and keeps_upper and elapsed < 30.0
    _line(3, ok, f"81 symbolic product identities for both families, {elapsed:.1f}s")
    assert ok, (wit, wit_psi)


def test_criterion_4_rescaling_identities():
    ok = all(c == d for (c, d) in rescaled_pair_images_72()) and \
        all(c == d for (c, d) in rescaled_pair_images_63())
    _line(4, ok, "both rescaled-image identities hold entry-by-entry")
    assert ok


def test_criterion_5_remark_reproduction():
    t0 = time.monotonic()
    report = verify_remarks(sweep_primes=(3, 5))
    elapsed = time.monotonic() - t0
    r1 = report["remark1"]
    type_ok = r1["types_match"] and r1["r5_r6_rank_separated"]
    others_ok = all(report[k]["passed"] for k in ("remark4", "remark6", "remark7"))
    t_pairs = {tuple(p["pair"]): p for p in report["remark3"]["pairs"]}
    non_t46_ok = all(
        rec["separated_by"] is not None
        for pair, rec in t_pairs.items()
        if pair != ("T4", "T6")
    )
    ok = type_ok and others_ok and non_t46_ok and elapsed < 600.0
    _line(5, ok, "D-types, rank separation, and all fingerprint separations "
                 f"except the (T4)/(T6) clause, {elapsed:.1f}s (sweep clause below)")
    assert ok


def test_criterion_5_t4_t6_sweep_as_specified():
    """Faithful transcription of the criterion's sweep clause: the F_3 and
    F_5 sweeps are expected to find no mapping.  They do find one (it is an
    exact rational antiautomorphism), so this check fails by design."""
    results = {p: t4_t6_separation(p) for p in (3, 5)}
    ok = all(separated for separated, _ in results.values())
    witnesses = {p: w for p, (_, w) in results.items()}
    _line(5, ok, f"(T4)/(T6) sweeps find no mapping as specified; witnesses={witnesses}")
    assert ok, (
        "the exhaustive sweeps find a complement-preserving antiautomorphism "
        f"linking (T4) and (T6) at every prime: {witnesses}; the parameters "
        "interpolate to the exact rational map psi(1,0,-1,-1,0) o Theta_13 o "
        "transpose, so the claimed orbit separation of this pair does not hold"
    )


def test_criterion_6_finite_field_soundness():
    t0 = time.monotonic()
    total = 0
    for p in (2, 3):
        for name in PATTERNS:
            sols = {row.tobytes()
                    for row in enumerate_complements_fp(name, p).astype(np.int8)}
            specs = catalog_specializations_fp(name, p)
            for (eid, assign, cells) in specs:
                assert cells.astype(np.int8).tobytes() in sols, (eid, assign, p)
            total += len(specs)
    elapsed = time.monotonic() - t0
    _line(6, True, f"{total} specializations over F_2/F_3 all enumerated, {elapsed:.1f}s")


def _differs_from_archive(rep, name, p):
    archive = REPORT_DIR / coverage_archive(name, p)
    return json.dumps(rep, indent=2, sort_keys=True) + "\n" != archive.read_text()


def test_criterion_7_coverage_and_orbits():
    # every report is compared with its archive in reports/, byte for byte
    t0 = time.monotonic()
    ok = True
    details = []
    stale = []
    for name, p, explain in CRITERION_7_COVERAGE:
        rep = coverage_report(name, p, explain=explain)
        if _differs_from_archive(rep, name, p):
            stale.append(f"{name}@{p}")
        if not explain:
            # every orbit matched, with no explanation to fall back on
            full = rep["matched_orbits"] == rep["orbit_count"] and not rep["unmatched_reps"]
            ok &= full
            details.append(f"{name}@{p}:{rep['matched_orbits']}/{rep['orbit_count']}")
            continue
        unexplained = [u for u in rep["unmatched_reps"]
                       if not u.get("explained_by_quadratic_extension")]
        ok &= not unexplained
        details.append(
            f"{name}@3:{rep['matched_orbits']}/{rep['orbit_count']}"
            + (f"+{len(rep['unmatched_reps'])}expl" if rep["unmatched_reps"] else "")
        )
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1800.0 and not stale
    _line(7, ok, " ".join(details) + f", {elapsed:.1f}s")
    assert ok, f"stale archives: {stale}"


def test_criterion_8_closure_system_equivalence():
    t0 = time.monotonic()
    ok = True
    for fixture in ("t1_reduced", "t2_system", "t6_radical"):
        ref = reference_system(fixture)
        _, equal = compare_with_reference_system(fixture, ref.pattern.closure_system(ref.pairs), 3)
        ok &= equal
    elapsed = time.monotonic() - t0
    _line(8, ok, f"derived and printed systems have equal F_3 solution sets, {elapsed:.1f}s")
    assert ok


def test_criterion_9_rota_baxter():
    t0 = time.monotonic()
    bad = []
    for entry in builtin_catalog():
        r, rt = rb_pair_for_entry(entry)
        ok_r, wit = check_rb_identity(r)
        ok_t, _ = check_rb_identity(rt)
        comp = check_complement_identity(r, rt)
        if not (ok_r and ok_t and comp):
            bad.append((entry.id, wit))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    _line(9, ok, f"71 symbolic operator identities plus complements, {elapsed:.1f}s")
    assert ok, bad


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    cli = [sys.executable, "-m", "m3decomp.cli"]
    suite = [
        ("verify", "--all", "--mode", "specialized", "--n", "3", "--seed", "11"),
        ("search", "--pattern", "t1", "--prime", "3", "--no-explain"),
        ("invariants", "--entry", "T2,X6,Z4", "--sweep-primes", "3"),
        ("rb", "--entry", "R8,S12"),
        ("derive-system", "--pattern", "t1", "--compare", "t1_reduced"),
        ("export",),
    ]
    ok = True
    for idx, args in enumerate(suite):
        outs = []
        for run in (0, 1):
            path = tmp_path / f"{idx}_{run}.json"
            res = subprocess.run(
                cli + list(args) + ["--output", str(path)],
                capture_output=True, timeout=600,
            )
            assert res.returncode in (0, 1), res.stderr
            outs.append(path.read_bytes())
        ok &= outs[0] == outs[1]
    elapsed = time.monotonic() - t0
    _line(10, ok, f"six seeded CLI runs byte-identical across repeats, {elapsed:.1f}s")
    assert ok
