"""End-to-end checks: per-entry verification, closure-system comparison
against the printed reduced systems, and the orbit-separation report.

Failures are data: every check returns a report whose entries state what was
verified, with witnesses for anything that did not hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .catalog import LEMMA5_SUBALGEBRAS, entry_by_id
from .errors import UndecidedPivot
from .fpsolve import solution_set
from .invariants import classify_2dim, fingerprint, idempotents
from .matrices import is_direct_sum
from .patterns import reference_system
from .scalars import constraint_satisfied


@dataclass
class VerifyReport:
    entry_id: str
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
        return {
            "entry": self.entry_id,
            "closure_s": self.closure_s,
            "closure_b": self.closure_b,
            "direct_sum": self.direct_sum,
            "unital": self.unital,
            "method": self.method,
            "failures": list(self.failures),
            "warning": self.warning,
            "passed": self.passed,
        }


def sample_assignment(entry, rng):
    """A constraint-satisfying integer assignment in [-10, 10]."""
    while True:
        values = {p: rng.randint(-10, 10) for p in entry.params}
        if constraint_satisfied(entry.constraints, values):
            return values


def _check_decomposition(entry, S, B):
    """Closure of both summands, the rank-9 direct sum and the unital
    component of S (+) B: the four flags, then the failing generator pairs of
    S and of B.  B is the entry's complement, whose closure is decided once."""
    ok_s, wit_s = S.is_subalgebra()
    ok_b, wit_b = entry.complement.closure()
    ds = is_direct_sum(S, B)
    unital_side, other_side = (S, B) if entry.unital_component == "S" else (B, S)
    unital = unital_side.contains_identity() and not other_side.contains_identity()
    return (ok_s, ok_b, ds, unital), wit_s, wit_b


def _failed(flags, texts):
    return [text for ok, text in zip(flags, texts) if not ok]


def _verify_concrete(entry, values):
    flags, wit_s, wit_b = _check_decomposition(entry, *entry.specialize(values))
    return flags, _failed(flags, (
        f"closure of S fails at generator pair {wit_s} for {values}",
        f"closure of B fails at generator pair {wit_b}",
        f"direct sum fails for {values}",
        f"unital component check fails for {values}",
    ))


def verify_entry(entry, mode="symbolic", n=100, seed=0):
    """Check closure of both summands, the rank-9 direct sum, and the unital
    component, either with parametric scalars under the declared constraints
    or on seeded constraint-satisfying specializations."""
    if mode == "symbolic":
        try:
            flags, wit_s, wit_b = _check_decomposition(
                entry, entry.s_subspace(), entry.b_subspace_symbolic())
            failures = _failed(flags, (
                f"closure of S fails at generator pair {wit_s}",
                f"closure of B fails at generator pair {wit_b}",
                "direct sum rank is not 9",
                "unital component check fails",
            ))
            return VerifyReport(entry.id, *flags, "symbolic", failures)
        except UndecidedPivot as exc:
            report = verify_entry(entry, "specialized", n=100, seed=0)
            report.warning = f"symbolic mode undecided ({exc}); downgraded to specialized"
            return report
    if mode != "specialized":
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    all_s = all_b = all_ds = all_unital = True
    failures = []
    draws = max(1, n) if entry.params else 1
    for _ in range(draws):
        values = sample_assignment(entry, rng)
        (ok_s, ok_b, ds, unital), fails = _verify_concrete(entry, values)
        all_s &= ok_s
        all_b &= ok_b
        all_ds &= ds
        all_unital &= unital
        failures.extend(fails)
    return VerifyReport(
        entry.id, all_s, all_b, all_ds, all_unital,
        f"specialized(n={draws}, seed={seed})", failures,
    )


def compare_with_reference_system(name, p=3):
    """Solution-set comparison of a derived system against the printed
    reduced system, after the stated substitutions, over F_p."""
    pat, printed, subs, pairs = reference_system(name)
    derived = pat.closure_system(pairs)
    lhs = solution_set(derived + subs, pat.params, p)
    rhs = solution_set(printed + subs, pat.params, p)
    report = {
        "fixture": name,
        "pattern": pat.name,
        "prime": p,
        "derived_equations": len(derived),
        "printed_equations": len(printed),
        "substitutions": len(subs),
        "solutions": len(lhs),
        "equal": lhs == rhs,
    }
    if name in ("t1_reduced", "t6_radical"):
        # here the substitutions are consequences of closure; verify that too
        full = solution_set(derived, pat.params, p)
        report["substitutions_implied_by_closure"] = full == lhs
    return report


# ---------------------------------------------------------------------------
# remark reproduction
# ---------------------------------------------------------------------------

def _spec_subspace(ident):
    entry = entry_by_id(ident)
    S, _ = entry.specialize({p: 2 + i for i, p in enumerate(entry.params)})
    return S


def _first_separator(fp_a, fp_b):
    """The first fingerprint field separating two algebras up to the
    transpose field swap, or None."""
    if fp_a == fp_b or fp_a == fp_b.swapped():
        return None
    for name in ("dim", "rad_dims", "ss_dim", "has_unit", "idempotent_ranks",
                 "ann_radsq_has_idempotent"):
        if getattr(fp_a, name) != getattr(fp_b, name):
            return name
    sided_a = {(fp_a.has_left_unit, fp_a.has_right_unit),
               (fp_a.has_right_unit, fp_a.has_left_unit)}
    if (fp_b.has_left_unit, fp_b.has_right_unit) not in sided_a:
        return "one-sided units"
    ann_a = {(fp_a.rad_in_left_ann, fp_a.rad_in_right_ann),
             (fp_a.rad_in_right_ann, fp_a.rad_in_left_ann)}
    if (fp_b.rad_in_left_ann, fp_b.rad_in_right_ann) not in ann_a:
        return "annihilator containments"
    return "fingerprint"


def _pairwise_report(fps, sweep_resolver=None):
    pairs = []
    all_ok = True
    keys = sorted(fps)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            sep = _first_separator(fps[a], fps[b])
            if sep is not None:
                pairs.append({"pair": [a, b], "separated_by": sep})
                continue
            if sweep_resolver is not None:
                resolved, detail = sweep_resolver(a, b)
                pairs.append({
                    "pair": [a, b],
                    "separated_by": "exhaustive group sweep" if resolved else None,
                    "detail": detail,
                })
                all_ok &= resolved
            else:
                pairs.append({"pair": [a, b], "separated_by": None})
                all_ok = False
    return pairs, all_ok


def verify_remarks(sweep_primes=(3, 5)):
    """Reproduce the orbit-separation remarks; failures are report entries,
    including the machine-found antiautomorphism relating (T4) and (T6)."""
    # imported at call time, like the CLI's layers, so a traced wrapper on
    # search.t4_t6_separation is the function called
    from .search import t4_t6_separation

    report = {}

    # two-dimensional types of the (7,2) cases
    d_types = {f"R{k}": classify_2dim(_spec_subspace(f"R{k}")) for k in range(1, 8)}
    r5_ranks = idempotents(_spec_subspace("R5")).all_ranks()
    r6_ranks = idempotents(_spec_subspace("R6")).all_ranks()
    report["remark1"] = {
        "d_types": d_types,
        "types_match": all(d_types[f"R{k}"] == f"D{k}" for k in range(1, 8)),
        "r5_idempotent_ranks": list(r5_ranks),
        "r6_idempotent_ranks": list(r6_ranks),
        "r5_r6_rank_separated": r5_ranks == (2,) and r6_ranks == (1,),
    }
    report["remark1"]["passed"] = (
        report["remark1"]["types_match"] and report["remark1"]["r5_r6_rank_separated"]
    )

    # (T1)-(T6)
    t_fps = {f"T{k}": fingerprint(_spec_subspace(f"T{k}")) for k in range(1, 7)}
    sweep = {}

    def t_resolver(a, b):
        if {a, b} != {"T4", "T6"}:
            return False, "no fingerprint separation and no sweep defined"
        found = {}
        for p in sweep_primes:
            separated, witness = t4_t6_separation(p)
            found[p] = {"separated": separated, "witness": witness}
        sweep.update(found)
        separated_everywhere = all(v["separated"] for v in found.values())
        detail = (
            "no complement-preserving map links the pair"
            if separated_everywhere
            else "sweep found a complement-preserving antiautomorphism linking the pair"
        )
        return separated_everywhere, detail

    pairs, t_ok = _pairwise_report(t_fps, t_resolver)
    report["remark3"] = {
        "pairs": pairs,
        "sweep": {str(p): v for p, v in sweep.items()},
        "passed": t_ok,
    }

    # the six 5-dimensional subalgebras
    l5_fps = {f"L5_{k}": fingerprint(c.subspace()) for k, c in LEMMA5_SUBALGEBRAS.items()}
    pairs, l5_ok = _pairwise_report(l5_fps)
    report["remark4"] = {"pairs": pairs, "passed": l5_ok}

    # (X1)-(X7)
    x_fps = {f"X{k}": fingerprint(_spec_subspace(f"X{k}")) for k in range(1, 8)}
    pairs, x_ok = _pairwise_report(x_fps)
    report["remark6"] = {"pairs": pairs, "passed": x_ok}

    # (Z1)-(Z4)
    z_fps = {f"Z{k}": fingerprint(_spec_subspace(f"Z{k}")) for k in range(1, 5)}
    pairs, z_ok = _pairwise_report(z_fps)
    rad3 = {f"Z{k}": z_fps[f"Z{k}"].rad_dims[0] == 3 for k in range(1, 5)}
    report["remark7"] = {
        "pairs": pairs,
        "radical_3dim": rad3,
        "radical_pattern_ok": rad3 == {"Z1": True, "Z2": False, "Z3": True, "Z4": False},
        "passed": z_ok and rad3["Z1"] and rad3["Z3"] and not rad3["Z2"] and not rad3["Z4"],
    }

    report["all_passed"] = all(report[k]["passed"] for k in
                               ("remark1", "remark3", "remark4", "remark6", "remark7"))
    return report
