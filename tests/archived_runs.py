"""The archived reports in reports/ and the runs that regenerate them.

Every test that regenerates an archive parametrizes from these lists, and
tests/test_archives.py fails when a file in reports/ is on none of them.
This module imports nothing from m3decomp, so that check runs even where
the package does not import.
"""

PATTERNS = ("t1", "t2", "t3", "t4", "t4m2", "t5", "t6", "t7", "t8")

#: (pattern, prime, explain) of the coverage reports at p <= 3 that
#: criterion 7 compares: t1 without the GF(p^2) explanation at p = 2 and 3,
#: every other pattern with it at p = 3
CRITERION_7_COVERAGE = [("t1", 2, False), ("t1", 3, False)] + [
    (name, 3, True) for name in PATTERNS if name != "t1"]

#: (pattern, prime) of the coverage reports that test_search.py regenerates
COVERAGE = [(name, p) for p in (5, 7) for name in PATTERNS]

#: (archive, argv, exit code) of the exact commands' reports, regenerated by
#: test_verifier.py; invariants exits 1 by Finding 2
ARCHIVED_RUNS = [
    ("invariants.json", ["invariants"], 1),
    ("export.json", ["export"], 0),
    ("verify_symbolic.json", ["verify", "--all", "--mode", "symbolic"], 0),
    ("verify_specialized_n10_seed3.json",
     ["verify", "--all", "--mode", "specialized", "--n", "10", "--seed", "3"], 0),
    ("rb.json", ["rb"], 0),
    ("rb_weight1_operators.json", ["rb", "--weight", "1", "--emit-operators"], 0),
    # pins the symbolic operators: R10's denominator is its parameter f
    ("rb_R10_S12_U8M1_operators.json",
     ["rb", "--entry", "R10,S12,U8@M1", "--emit-operators"], 0),
    # pins the rational --weight parse path: a negative non-integral weight
    # gives operators with non-integral entries such as 9/2
    ("rb_R10_U5M1_weight-3_2_operators.json",
     ["rb", "--entry", "R10,U5@M1", "--weight=-3/2", "--emit-operators"], 0),
    ("derive_system_t2.json", ["derive-system", "--pattern", "t2", "--compare", "t2_system"], 0),
    # pins the table renderer, which lays out tuples such as rad_dims the
    # way it lays out lists
    ("invariants_T2_X6_Z4_p3.txt",
     ["invariants", "--entry", "T2,X6,Z4", "--sweep-primes", "3", "--format", "table"], 1),
]


def coverage_archive(name, p):
    return f"coverage_{name}_p{p}.json"


def archive_names():
    """The file names of every archive some test regenerates."""
    runs = [run[:2] for run in CRITERION_7_COVERAGE] + COVERAGE
    return [coverage_archive(name, p) for name, p in runs] + [run[0] for run in ARCHIVED_RUNS]
