"""The benchmark's workloads: the CLI commands of each, the exit code each
must return, and the check its report must pass.

The traced run (`traced.py`) makes the same commands in-process under the
same keys, so both paths share one list and one set of checks.
"""

from __future__ import annotations

from collections import namedtuple

import checks

#: key: names the operation in both paths; argv: arguments of `m3decomp`;
#: exit: the exit code the command must return; check(doc, ctx) raises
#: checks.CheckFailed on a wrong report
Op = namedtuple("Op", "key argv exit check")

P3_PATTERNS = ("t2", "t3", "t4", "t4m2", "t5", "t6", "t7", "t8")
P5_PATTERNS = ("t1", "t5", "t6")
FIXTURES = (("t1", "t1_reduced"), ("t2", "t2_system"), ("t6", "t6_radical"))


class MissingReference(Exception):
    """A check needs another operation's report, and that operation failed."""


def _export(ctx):
    if ctx.get("export") is None:
        raise MissingReference("export report missing, cannot check")
    return checks.export_entries(ctx["export"])


def _exact_catalog(seed):
    return [
        Op("verify-symbolic", ["verify", "--all", "--mode", "symbolic"], 0,
           lambda doc, ctx: checks.check_verify(doc)),
        Op("verify-specialized",
           ["verify", "--all", "--mode", "specialized", "--n", "10", "--seed", str(seed)], 0,
           lambda doc, ctx: checks.check_verify(doc)),
        Op("rb-symbolic", ["rb"], 0, lambda doc, ctx: checks.check_rb_flags(doc)),
        Op("rb-weight-1", ["rb", "--weight", "1", "--emit-operators"], 0,
           lambda doc, ctx: checks.check_rb_operators(doc, _export(ctx), seed)),
        # exit code 1 is the correct result: Finding 2 fails remark 3
        Op("invariants", ["invariants"], 1,
           lambda doc, ctx: checks.check_invariants(doc, _export(ctx))),
        Op("export", ["export"], 0, lambda doc, ctx: checks.export_entries(doc)),
    ]


def _search(pattern, p, flags=(), slow_oracle=False):
    def check(doc, ctx):
        checks.check_search(doc, ctx["root"], slow_oracle)

    return Op(f"search-{pattern}-p{p}",
              ["search", "--pattern", pattern, "--prime", str(p), *flags], 0, check)


def _oracle_p5(seed):
    return [_search(t, 5) for t in P5_PATTERNS]


def _oracle_p3(seed):
    jobs = ("--jobs", "2")
    ops = [
        _search("t1", 2, ("--slow-oracle", "--no-explain", *jobs), slow_oracle=True),
        _search("t1", 3, ("--no-explain", *jobs)),
    ]
    ops += [_search(t, 3, jobs) for t in P3_PATTERNS]
    ops += [
        Op(f"derive-{fixture}", ["derive-system", "--pattern", pattern, "--compare", fixture], 0,
           lambda doc, ctx: checks.check_derive(doc))
        for pattern, fixture in FIXTURES
    ]
    return ops


WORKLOADS = {
    "exact-catalog": _exact_catalog,
    "oracle-p5": _oracle_p5,
    "oracle-p3": _oracle_p3,
}


def ops_for(workload, seed):
    return WORKLOADS[workload](seed)
