"""End-to-end checks: per-entry verification, closure-system comparison
against the printed reduced systems, and the orbit-separation report.

Failures are data: every check returns a report whose entries state what was
verified, with witnesses for anything that did not hold.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

import numpy as np

from . import invariants, search
from .catalog import COMPLEMENTS, entry_by_id
from .errors import NotSupported, UndecidedPivot
from .fpsolve import solve_system_fp
from .matrices import is_direct_sum
from .patterns import reference_system
from .scalars import first_violation


@dataclass
class VerifyReport:
    entry: str
    closure_s: bool
    closure_b: bool
    direct_sum: bool
    unital: bool
    method: str
    failures: list = field(default_factory=list)
    warning: str = ""

    @property
    def passed(self):
        return self.closure_s and self.closure_b and self.direct_sum and self.unital

    def to_json(self):
        return {**asdict(self), "passed": self.passed}


#: draws sample_assignment makes before it gives up
_DRAWS = 1000


def sample_assignment(entry, rng):
    """A constraint-satisfying integer assignment in [-10, 10], if one of
    _DRAWS draws finds one (the side conditions may hold nowhere there)."""
    for _ in range(_DRAWS):
        values = {p: rng.randint(-10, 10) for p in entry.params}
        if first_violation(entry.constraints, values) is None:
            return values
    raise NotSupported(f"entry {entry.id}: no draw of {_DRAWS} in [-10, 10] meets its constraints")


def _check(entry, S, B, at=""):
    """Closure of both summands, the rank-9 direct sum and the unital
    component of S (+) B: the four flags, and the text of each failing check
    ending in at.  B is the entry's complement, whose closure is decided once,
    so its text names no point."""
    ok_s, wit_s = S.is_subalgebra()
    ok_b, wit_b = entry.complement.closure()
    ds = is_direct_sum(S, B)
    unital_side, other_side = (S, B) if entry.unital_component == "S" else (B, S)
    unital = unital_side.contains_identity() and not other_side.contains_identity()
    flags = (ok_s, ok_b, ds, unital)
    texts = (
        f"closure of S fails at generator pair {wit_s}{at}",
        f"closure of B fails at generator pair {wit_b}",
        f"direct sum rank is not 9{at}",
        f"unital component check fails{at}",
    )
    return flags, [text for ok, text in zip(flags, texts) if not ok]


def verify_entry(entry, mode="symbolic", n=100, seed=0):
    """Check closure of both summands, the rank-9 direct sum, and the unital
    component, either with parametric scalars under the declared constraints
    or on seeded constraint-satisfying specializations."""
    if mode == "symbolic":
        try:
            flags, failures = _check(entry, entry.s_subspace(), entry.b_subspace_symbolic())
        except UndecidedPivot as exc:
            report = verify_entry(entry, "specialized", n=100, seed=0)
            report.warning = f"symbolic mode undecided ({exc}); downgraded to specialized"
            return report
        return VerifyReport(entry.id, *flags, "symbolic", failures)
    if mode != "specialized":
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    flags, failures = (True,) * 4, []
    draws = max(1, n) if entry.params else 1
    for _ in range(draws):
        values = sample_assignment(entry, rng)
        ok, fails = _check(entry, *entry.specialize(values), at=f" for {values}")
        flags = tuple(a and b for a, b in zip(flags, ok))
        failures.extend(fails)
    return VerifyReport(entry.id, *flags, f"specialized(n={draws}, seed={seed})", failures)


def compare_with_reference_system(name, derived, p=3):
    """Solution-set comparison of a derived system, the fixture pattern's
    closure system over the fixture's pairs, against the printed reduced
    system, after the stated substitutions, over F_p.  Returns the report
    and its verdict: the solution sets are equal and, where the fixture says
    so, closure implies the substitutions."""
    ref = reference_system(name)
    params, subs = ref.pattern.params, ref.substitutions
    lhs = solve_system_fp(derived + subs, params, p)
    rhs = solve_system_fp(ref.equations + subs, params, p)
    report = {
        "fixture": name,
        "pattern": ref.pattern.name,
        "prime": p,
        "derived_equations": len(derived),
        "printed_equations": len(ref.equations),
        "substitutions": len(subs),
        "solutions": len(lhs),
        "equal": bool(np.array_equal(lhs, rhs)),
    }
    implied = True
    if ref.implied_by_closure:
        full = solve_system_fp(derived, params, p)
        implied = report["substitutions_implied_by_closure"] = bool(np.array_equal(full, lhs))
    return report, report["equal"] and implied


# ---------------------------------------------------------------------------
# remark reproduction
# ---------------------------------------------------------------------------

def _subalgebra(ident):
    """A remark's subalgebra: a complement (L5_k), or an entry's S at its
    standard point."""
    if ident in COMPLEMENTS:
        return COMPLEMENTS[ident].subspace()
    entry = entry_by_id(ident)
    return entry.specialize(entry.standard_values())[0]


def _fingerprints(given, prefix, keys):
    """Fingerprints of the subalgebras prefix + k, read from given if there."""
    return {i: given[i] if i in given else invariants.fingerprint(_subalgebra(i))
            for i in (f"{prefix}{k}" for k in keys)}


def _pairwise_report(fps):
    """Every pair of fingerprints with the label of its first separating
    field (`Fingerprint.separated_by`; None when none separates it), and
    whether every pair is separated."""
    keys = sorted(fps)
    pairs = [{"pair": [a, b], "separated_by": fps[a].separated_by(fps[b])}
             for i, a in enumerate(keys) for b in keys[i + 1:]]
    return pairs, all(rec["separated_by"] is not None for rec in pairs)


def verify_remarks(fingerprints=None, sweep_primes=(3, 5)):
    """Reproduce the orbit-separation remarks of the built-in catalog;
    failures are report entries, including the machine-found antiautomorphism
    relating (T4) and (T6).  fingerprints maps ids to the fingerprints of the
    `_subalgebra`s they name; the remarks compute only those it lacks."""
    given = fingerprints or {}

    # two-dimensional types of the (7,2) cases
    r_fps = _fingerprints(given, "R", range(1, 8))
    d_types = {ident: fp.two_dim_type() for ident, fp in r_fps.items()}
    r5_ranks = r_fps["R5"].idempotent_ranks
    r6_ranks = r_fps["R6"].idempotent_ranks
    remark1 = {
        "d_types": d_types,
        "types_match": all(d_types[f"R{k}"] == f"D{k}" for k in range(1, 8)),
        "r5_idempotent_ranks": r5_ranks,
        "r6_idempotent_ranks": r6_ranks,
        "r5_r6_rank_separated": r5_ranks == (2,) and r6_ranks == (1,),
    }
    remark1["passed"] = remark1["types_match"] and remark1["r5_r6_rank_separated"]
    report = {"remark1": remark1}

    # (T1)-(T6): the pairs no fingerprint separates; only (T4, T6) has a sweep
    pairs, _ = _pairwise_report(_fingerprints(given, "T", range(1, 7)))
    sweep = {}
    for rec in pairs:
        if rec["separated_by"] is not None:
            continue
        if rec["pair"] != ["T4", "T6"]:
            rec["detail"] = "no fingerprint separation and no sweep defined"
            continue
        for p in sweep_primes:
            separated, witness = search.t4_t6_separation(p)
            sweep[str(p)] = {"separated": separated, "witness": witness}
        if not sweep:
            rec["detail"] = "no sweep ran: no sweep prime was given"
        elif all(v["separated"] for v in sweep.values()):
            rec["separated_by"] = "exhaustive group sweep"
            rec["detail"] = "no complement-preserving map links the pair"
        else:
            rec["detail"] = "sweep found a complement-preserving antiautomorphism linking the pair"
    report["remark3"] = {
        "pairs": pairs,
        "sweep": sweep,
        "passed": all(rec["separated_by"] is not None for rec in pairs),
    }

    # the six 5-dimensional subalgebras
    pairs, l5_ok = _pairwise_report(_fingerprints(given, "L5_", range(1, 7)))
    report["remark4"] = {"pairs": pairs, "passed": l5_ok}

    # (X1)-(X7)
    pairs, x_ok = _pairwise_report(_fingerprints(given, "X", range(1, 8)))
    report["remark6"] = {"pairs": pairs, "passed": x_ok}

    # (Z1)-(Z4)
    z_fps = _fingerprints(given, "Z", range(1, 5))
    pairs, z_ok = _pairwise_report(z_fps)
    rad3 = {k: fp.rad_dims[0] == 3 for k, fp in z_fps.items()}
    pattern_ok = rad3 == {"Z1": True, "Z2": False, "Z3": True, "Z4": False}
    report["remark7"] = {
        "pairs": pairs,
        "radical_3dim": rad3,
        "radical_pattern_ok": pattern_ok,
        "passed": z_ok and pattern_ok,
    }

    report["all_passed"] = all(r["passed"] for r in report.values())
    return report
