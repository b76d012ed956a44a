import json
import os
import subprocess
import sys


CLI = [sys.executable, "-m", "m3decomp.cli"]


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=full_env, timeout=600
    )


def test_verify_single_entry_exit_codes():
    res = run_cli("verify", "--entry", "R9", "--mode", "specialized", "--n", "10", "--seed", "1")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["all_passed"] and doc["entry_count"] == 1
    assert doc["seed"] == 1


def test_verify_unknown_entry_is_config_error():
    res = run_cli("verify", "--entry", "NOPE")
    assert res.returncode == 2


def test_search_7_2_alias():
    res = run_cli("search", "--pattern", "7-2", "--prime", "2")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["pattern"] == "t1" and doc["matched_orbits"] == doc["orbit_count"]


def test_search_t4m1_alias():
    res = run_cli("search", "--pattern", "t4m1", "--prime", "2")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["pattern"] == "t4" and doc["matched_orbits"] == doc["orbit_count"]
    # the help of both commands that take --pattern names every alias
    for command in ("search", "derive-system"):
        help_text = run_cli(command, "--help").stdout
        assert "7-2 for t1" in help_text and "t4m1 for t4" in help_text, command


def test_search_bad_prime():
    # the oracle takes the primes up to 7, for search and for the sweep
    res = run_cli("search", "--pattern", "t1", "--prime", "11")
    assert res.returncode == 2
    assert "primes up to 7, not 11" in res.stderr
    res = run_cli("search", "--pattern", "t1", "--prime", "4")
    assert res.returncode == 2 and "4 is not a prime" in res.stderr
    res = run_cli("invariants", "--entry", "T4", "--sweep-primes", "3", "9")
    assert res.returncode == 2 and "9 is not a prime" in res.stderr


def test_derive_system_comparison():
    res = run_cli("derive-system", "--pattern", "t2", "--compare", "t2_system")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["comparison"]["equal"]
    # the comparison takes any prime up to 127, but only a prime
    for bad in ("4", "0"):
        res = run_cli("derive-system", "--pattern", "t1", "--compare", "t1_reduced",
                      "--prime", bad)
        assert res.returncode == 2, (bad, res.stdout)
        assert res.stderr == f"error: {bad} is not a prime\n"
        assert not res.stdout


def test_rb_subcommand():
    res = run_cli("rb", "--entry", "R8,T3", "--emit-operators")
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["all_passed"]
    assert len(doc["operators"][0]["operator"]["matrix"]) == 9


def test_export_and_env_catalog_roundtrip(tmp_path):
    out = tmp_path / "catalog.json"
    res = run_cli("export", "--output", str(out))
    assert res.returncode == 0
    res2 = run_cli(
        "verify", "--entry", "R1,X5", env={"M3DECOMP_CATALOG": str(out)}
    )
    assert res2.returncode == 0, res2.stderr
    doc = json.loads(res2.stdout)
    assert doc["catalog"] == str(out)


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--entry", "R8,S12,U7@M1", "--mode", "specialized",
            "--n", "5", "--seed", "3")
    assert run_cli(*args, "--output", str(a)).returncode == 0
    assert run_cli(*args, "--output", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_jobs_do_not_change_output(tmp_path):
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    sargs = ("search", "--pattern", "t3", "--prime", "3", "--no-explain")
    assert run_cli(*sargs, "--jobs", "1", "--output", str(s1)).returncode == 0
    assert run_cli(*sargs, "--jobs", "4", "--output", str(s2)).returncode == 0
    assert s1.read_bytes() == s2.read_bytes()
    assert "jobs" not in json.loads(s1.read_text())


def test_invariants_reports_remark3_honestly():
    res = run_cli("invariants", "--entry", "T4", "--sweep-primes", "3")
    doc = json.loads(res.stdout)
    assert res.returncode == 1
    assert doc["remarks"]["remark3"]["passed"] is False
    assert doc["remarks"]["remark1"]["passed"] is True


def test_invariants_skip_remarks():
    res = run_cli("invariants", "--entry", "X6", "--skip-remarks")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["fingerprints"]["X6"]["rad_in_left_ann"] is True


def test_specialized_mode_requires_seed():
    res = run_cli("verify", "--entry", "R1", "--mode", "specialized")
    assert res.returncode == 2
    res = run_cli("verify", "--entry", "R1", "--mode", "symbolic")
    assert res.returncode == 0
