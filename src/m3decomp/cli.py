"""Command-line surface: every check in the package as a reproducible batch
run with deterministic JSON (or table) reports.

    m3decomp verify --all --mode symbolic
    m3decomp verify --entry R9 --mode specialized --n 10 --seed 1
    m3decomp search --pattern 7-2 --prime 2
    m3decomp invariants
    m3decomp rb --entry S12
    m3decomp export --output catalog.json
    m3decomp derive-system --pattern t2 --compare t2_system

search and invariants --sweep-primes take the primes up to 7 (the
finite-field oracle's bound, gfq.MAX_PRIME); derive-system compares over the
primes up to 127 (its solver stores cells as int8).  Exit codes: 0 all
requested checks pass, 1 a check failed, 2 configuration error (an unknown
pattern, entry or fixture, or a prime out of range).  Identical
configuration (including seed) produces byte-identical JSON output.  search
accepts --jobs and ignores it.  The environment variable
M3DECOMP_CATALOG points verification at a catalog file instead of the
built-in corpus.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction

from . import catalog as catalog_mod
from .errors import M3DecompError
from .patterns import PATTERNS, PATTERN_ALIASES, REFERENCE_SYSTEMS, get_pattern
from .scalars import poly_to_string

SCHEMA = 1


def _load_entries():
    path = os.environ.get("M3DECOMP_CATALOG")
    if path:
        return catalog_mod.load_catalog(path), path
    return catalog_mod.builtin_catalog(), "builtin"


def _emit(doc, args):
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = _as_table(doc) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_table(doc, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(doc, dict):
        for key in sorted(doc):
            value = doc[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_as_table(value, indent + 1))
            else:
                lines.append(f"{pad}{key:<24} {value}")
    elif isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)):
                lines.append(_as_table(value, indent))
                lines.append(pad + "-")
            else:
                lines.append(f"{pad}{value}")
    else:
        lines.append(f"{pad}{doc}")
    return "\n".join(line for line in lines if line)


def _select_entries(entries, selection):
    if not selection:
        return entries
    wanted = []
    for chunk in selection:
        wanted.extend(x.strip() for x in chunk.split(",") if x.strip())
    by_id = {e.id: e for e in entries}
    missing = [w for w in wanted if w not in by_id]
    if missing:
        raise SystemExit(_config_error(f"unknown entries: {', '.join(missing)}"))
    return [by_id[w] for w in wanted]


def _config_error(msg):
    sys.stderr.write(f"error: {msg}\n")
    return 2


# Each command imports the layer functions it calls inside its own body, at
# call time: bench/traced.py imports this module first and then replaces those
# functions on their modules with traced wrappers, so a module-level import
# here would keep the unwrapped function.
def cmd_verify(args):
    from .verifier import verify_entry

    if args.mode == "specialized" and args.seed is None:
        return _config_error("--seed is required when --mode specialized")
    entries, cat_path = _load_entries()
    chosen = _select_entries(entries, args.entry)
    reports = [verify_entry(e, args.mode, args.n, args.seed).to_json() for e in chosen]
    reports.sort(key=lambda r: r["entry"])
    doc = {
        "schema_version": SCHEMA,
        "command": "verify",
        "catalog": cat_path,
        "mode": args.mode,
        "n_samples": args.n if args.mode == "specialized" else None,
        "seed": args.seed if args.mode == "specialized" else None,
        "entries": reports,
        "entry_count": len(reports),
        "all_passed": all(r["passed"] for r in reports),
    }
    _emit(doc, args)
    return 0 if doc["all_passed"] else 1


def cmd_search(args):
    import numpy as np

    from . import search as search_mod
    from .gfq import check_prime

    name = PATTERN_ALIASES.get(args.pattern, args.pattern)
    if name not in PATTERNS:
        return _config_error(f"unknown pattern {args.pattern!r}")
    check_prime(args.prime)
    report = search_mod.coverage_report(name, args.prime, explain=not args.no_explain)
    if args.slow_oracle:
        slow = search_mod.slow_cube_solutions(name, args.prime)
        fast = search_mod.enumerate_complements_fp(name, args.prime)
        report["slow_oracle_agrees"] = bool(np.array_equal(slow, fast))
    doc = {
        "schema_version": SCHEMA,
        "command": "search",
        "jobs": 1,  # search ignores --jobs, so its report never depends on it
        **report,
        "clean": search_mod.coverage_clean(report),
    }
    _emit(doc, args)
    ok = doc["clean"] and doc.get("slow_oracle_agrees", True)
    return 0 if ok else 1


def cmd_invariants(args):
    from .gfq import check_prime
    from .invariants import fingerprint
    from .verifier import verify_remarks

    for p in args.sweep_primes:
        check_prime(p)
    entries, cat_path = _load_entries()
    chosen = _select_entries(entries, args.entry)
    fps = {}
    for e in chosen:
        values = {p: 2 + i for i, p in enumerate(e.params)}
        s, _ = e.specialize(values)
        fps[e.id] = dataclasses.asdict(fingerprint(s))
        fps[e.id]["rad_dims"] = list(fps[e.id]["rad_dims"])
        fps[e.id]["idempotent_ranks"] = list(fps[e.id]["idempotent_ranks"])
        if values:
            fps[e.id]["specialized_at"] = values
    doc = {
        "schema_version": SCHEMA,
        "command": "invariants",
        "catalog": cat_path,
        "fingerprints": fps,
    }
    if not args.skip_remarks:
        remarks = verify_remarks(sweep_primes=tuple(args.sweep_primes))
        doc["remarks"] = remarks
        doc["all_passed"] = remarks["all_passed"]
    else:
        doc["all_passed"] = True
    _emit(doc, args)
    return 0 if doc["all_passed"] else 1


def cmd_rb(args):
    from .rota_baxter import check_complement_identity, check_rb_identity, rb_pair_for_entry

    entries, cat_path = _load_entries()
    chosen = _select_entries(entries, args.entry)
    weight = None if args.weight == "symbolic" else Fraction(args.weight)
    results = []
    all_ok = True
    for e in chosen:
        r, rt = rb_pair_for_entry(e, weight)
        ok, witness = check_rb_identity(r)
        ok_t, _ = check_rb_identity(rt)
        comp = check_complement_identity(r, rt)
        all_ok &= ok and ok_t and comp
        rec = {
            "entry": e.id,
            "identity": ok,
            "complement_identity_holds": comp,
            "complementary_operator_identity": ok_t,
        }
        if args.emit_operators:
            rec["operator"] = r.to_json()
        if not ok:
            rec["witness"] = [list(witness[0]), list(witness[1])]
        results.append(rec)
    doc = {
        "schema_version": SCHEMA,
        "command": "rb",
        "catalog": cat_path,
        "weight": args.weight,
        "operators": results,
        "all_passed": all_ok,
    }
    _emit(doc, args)
    return 0 if all_ok else 1


def cmd_export(args):
    entries, cat_path = _load_entries()
    doc = {
        "schema_version": SCHEMA,
        "entries": [e.to_json() for e in entries],
    }
    _emit(doc, args)
    return 0


def cmd_derive_system(args):
    from .gfq import check_prime
    from .verifier import compare_with_reference_system

    name = PATTERN_ALIASES.get(args.pattern, args.pattern)
    if name not in PATTERNS:
        return _config_error(f"unknown pattern {args.pattern!r}")
    check_prime(args.prime, bound=None)
    pat = get_pattern(name)
    system = pat.closure_system(args.pairs)
    doc = {
        "schema_version": SCHEMA,
        "command": "derive-system",
        "pattern": name,
        "pairs": args.pairs,
        "free_cells": list(pat.params),
        "equation_count": len(system),
        "equations": [poly_to_string(p) for p in system],
    }
    ok = True
    if args.compare:
        if args.compare not in REFERENCE_SYSTEMS:
            return _config_error(f"unknown fixture {args.compare!r}")
        cmp_report = compare_with_reference_system(args.compare, args.prime)
        doc["comparison"] = cmp_report
        ok = cmp_report["equal"] and cmp_report.get("substitutions_implied_by_closure", True)
    _emit(doc, args)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="m3decomp",
        description="exact verification of the unital decompositions of the "
                    "3x3 matrix algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="closure/direct-sum/unitality per catalog entry")
    p.add_argument("--all", action="store_true", help="verify every entry (default)")
    p.add_argument("--entry", action="append", help="comma-separated entry ids")
    p.add_argument("--mode", choices=("symbolic", "specialized"), default="symbolic")
    p.add_argument("--n", type=int, default=100, help="samples per entry (specialized)")
    p.add_argument("--seed", type=int, default=None,
                   help="required when --mode specialized")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="finite-field enumeration and orbit coverage")
    p.add_argument("--pattern", required=True,
                   help="one of %s (7-2 is an alias of t1)" % ", ".join(sorted(PATTERNS)))
    p.add_argument("--prime", type=int, required=True, help="a prime up to 7")
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.add_argument("--no-explain", action="store_true",
                   help="skip the quadratic-extension explanation sweep")
    p.add_argument("--slow-oracle", action="store_true",
                   help="cross-check against the unpruned full-cube oracle")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("invariants", help="fingerprints and the orbit-separation remarks")
    p.add_argument("--entry", action="append")
    p.add_argument("--skip-remarks", action="store_true")
    p.add_argument("--sweep-primes", type=int, nargs="*", default=[3, 5],
                   help="primes up to 7 for the (T4)/(T6) sweep")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("rb", help="splitting operators and the weight identity")
    p.add_argument("--entry", action="append")
    p.add_argument("--weight", default="symbolic",
                   help="'symbolic' or a rational such as 1 or -3/2")
    p.add_argument("--emit-operators", action="store_true")
    common(p)
    p.set_defaults(func=cmd_rb)

    p = sub.add_parser("export", help="dump the catalog as JSON")
    common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("derive-system", help="closure system of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--pairs", choices=("all", "squares"), default="all")
    p.add_argument("--compare", default=None, help="fixture name, e.g. t2_system")
    p.add_argument("--prime", type=int, default=3,
                   help="the prime of the --compare solution sets (up to 127)")
    common(p)
    p.set_defaults(func=cmd_derive_system)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except M3DecompError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
