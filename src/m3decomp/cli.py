"""Command-line surface: every check in the package as a reproducible batch
run with deterministic JSON (or table) reports.

    m3decomp verify --all --mode symbolic
    m3decomp verify --entry R9 --mode specialized --n 10 --seed 1
    m3decomp search --pattern 7-2 --prime 2
    m3decomp invariants
    m3decomp rb --entry S12
    m3decomp export --output catalog.json
    m3decomp derive-system --pattern t2 --compare t2_system

search and invariants --sweep-primes take the primes up to scalars.MAX_PRIME
(the finite-field oracle's bound); derive-system compares over the primes up
to scalars.MAX_CELL_PRIME (its solver stores cells as int8).  Each command
returns its report and verdict; main writes the report and sets the exit
code: 0 all requested checks pass, 1 a check failed, 2 configuration error,
one "error: ..." line and no report (an unknown pattern, entry or fixture,
an --entry id named twice, --entry lists that name no id, --all with
--entry, a fixture of another pattern or --pairs, --mode specialized without
--seed, --n below 1, a --weight that is neither "symbolic" nor a nonzero
rational, an unusable catalog file, one with no records or a malformed
record in it, a prime out of range, or an --output file that cannot be
written).  Identical configuration (including seed) produces byte-identical
JSON output.  search accepts --jobs and ignores it; its report does not
record it.  The environment
variable M3DECOMP_CATALOG points verification at a catalog file instead
of the built-in corpus.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import catalog, invariants, rota_baxter, search, verifier
from .errors import M3DecompError
from .patterns import PATTERN_ALIASES, PATTERNS, get_pattern, reference_system
from .scalars import MAX_CELL_PRIME, MAX_PRIME, check_prime, parse_rational, poly_to_string

SCHEMA = 1


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
            if isinstance(value, (dict, list, tuple)):
                lines.append(f"{pad}{key}:")
                lines.append(_as_table(value, indent + 1))
            else:
                lines.append(f"{pad}{key:<24} {value}")
    elif isinstance(doc, (list, tuple)):
        for value in doc:
            if isinstance(value, (dict, list, tuple)):
                lines.append(_as_table(value, indent))
                lines.append(pad + "-")
            else:
                lines.append(f"{pad}{value}")
    else:
        lines.append(f"{pad}{doc}")
    return "\n".join(line for line in lines if line)


def _chosen_entries(selection):
    """The entries named by the --entry lists (all of them when none is
    given), in the order named, and the catalog's name; an unknown or
    repeated id, or lists that name no id, are usage errors."""
    path = os.environ.get("M3DECOMP_CATALOG")
    if path:
        entries = catalog.load_catalog(path)
    else:
        entries, path = catalog.builtin_catalog(), "builtin"
    if not selection:
        return entries, path
    wanted = [x.strip() for chunk in selection for x in chunk.split(",") if x.strip()]
    if not wanted:
        raise M3DecompError("--entry names no entry id")
    by_id = {e.id: e for e in entries}
    missing = [w for w in wanted if w not in by_id]
    if missing:
        raise M3DecompError(f"unknown entries: {', '.join(missing)}")
    repeated = sorted({w for w in wanted if wanted.count(w) > 1})
    if repeated:
        raise M3DecompError(f"repeated entries: {', '.join(repeated)}")
    return [by_id[w] for w in wanted], path


def _pattern_name(pattern):
    """A --pattern argument as a pattern name (an alias, such as 7-2 for t1,
    names its pattern)."""
    try:
        return get_pattern(pattern).name
    except KeyError:
        raise M3DecompError(f"unknown pattern {pattern!r}") from None


def cmd_verify(args):
    if args.mode == "specialized" and args.seed is None:
        raise M3DecompError("--seed is required when --mode specialized")
    if args.n < 1:
        raise M3DecompError(f"--n must be at least 1, not {args.n}")
    if args.all and args.entry:
        raise M3DecompError("--all verifies every entry and takes no --entry")
    chosen, cat_path = _chosen_entries(args.entry)
    reports = [verifier.verify_entry(e, args.mode, args.n, args.seed).to_json() for e in chosen]
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
    return doc, doc["all_passed"]


def cmd_search(args):
    name = _pattern_name(args.pattern)
    report = search.coverage_report(name, args.prime, explain=not args.no_explain)
    if args.slow_oracle:
        slow = search.slow_cube_solutions(name, args.prime)
        fast = search.enumerate_complements_fp(name, args.prime)
        report["slow_oracle_agrees"] = bool(np.array_equal(slow, fast))
    doc = {
        "schema_version": SCHEMA,
        "command": "search",
        **report,
        "clean": search.coverage_clean(report),
    }
    return doc, doc["clean"] and doc.get("slow_oracle_agrees", True)


def cmd_invariants(args):
    for p in args.sweep_primes:
        check_prime(p)
    if len(set(args.sweep_primes)) < len(args.sweep_primes):
        raise M3DecompError("--sweep-primes names a prime twice")
    chosen, cat_path = _chosen_entries(args.entry)
    table, fps = {}, {}
    for e in chosen:
        values = e.standard_values()
        s, _ = e.specialize(values)
        table[e.id] = invariants.fingerprint(s)
        fps[e.id] = dataclasses.asdict(table[e.id])
        if values:
            fps[e.id]["specialized_at"] = values
    doc = {
        "schema_version": SCHEMA,
        "command": "invariants",
        "catalog": cat_path,
        "fingerprints": fps,
        "all_passed": True,
    }
    if not args.skip_remarks:
        # the remarks describe the built-in catalog, never a catalog file
        builtin = table if cat_path == "builtin" else None
        doc["remarks"] = verifier.verify_remarks(builtin, tuple(args.sweep_primes))
        doc["all_passed"] = doc["remarks"]["all_passed"]
    return doc, doc["all_passed"]


def cmd_rb(args):
    try:
        weight = None if args.weight == "symbolic" else parse_rational(args.weight)
    except ValueError:
        weight = 0  # refused below, like a zero weight
    if weight == 0:
        raise M3DecompError(
            f"--weight must be 'symbolic' or a nonzero rational, not {args.weight!r}")
    chosen, cat_path = _chosen_entries(args.entry)
    results = []
    all_ok = True
    for e in chosen:
        # a rational weight specializes each entry at its standard point
        values = {} if weight is None else e.standard_values()
        r, rt = rota_baxter.rb_pair_for_entry(e, weight)
        ok, witness = rota_baxter.check_rb_identity(r)
        ok_t, _ = rota_baxter.check_rb_identity(rt)
        comp = rota_baxter.check_complement_identity(r, rt)
        all_ok &= ok and ok_t and comp
        rec = {
            "entry": e.id,
            "identity": ok,
            "complement_identity_holds": comp,
            "complementary_operator_identity": ok_t,
        }
        if values:
            rec["specialized_at"] = values
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
    return doc, all_ok


def cmd_export(args):
    entries, _ = _chosen_entries(None)
    return catalog.catalog_json(entries), True


def cmd_derive_system(args):
    name = _pattern_name(args.pattern)
    check_prime(args.prime, MAX_CELL_PRIME)
    if args.compare:
        try:
            ref = reference_system(args.compare)
        except KeyError:
            raise M3DecompError(f"unknown fixture {args.compare!r}") from None
        if (ref.pattern.name, ref.pairs) != (name, args.pairs):
            raise M3DecompError(
                f"--compare {args.compare} is a system of --pattern {ref.pattern.name} "
                f"--pairs {ref.pairs}, not of --pattern {name} --pairs {args.pairs}")
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
    if not args.compare:
        return doc, True
    cmp_report, ok = verifier.compare_with_reference_system(args.compare, system, args.prime)
    doc["comparison"] = cmp_report
    return doc, ok


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

    pattern_help = "one of %s (aliases: %s)" % (
        ", ".join(sorted(PATTERNS)),
        ", ".join(f"{a} for {n}" for a, n in PATTERN_ALIASES.items()))

    p = sub.add_parser("search", help="finite-field enumeration and orbit coverage")
    p.add_argument("--pattern", required=True, help=pattern_help)
    p.add_argument("--prime", type=int, required=True, help=f"a prime up to {MAX_PRIME}")
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
                   help=f"primes up to {MAX_PRIME} for the (T4)/(T6) sweep")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("rb", help="splitting operators and the weight identity")
    p.add_argument("--entry", action="append")
    p.add_argument("--weight", default="symbolic",
                   help="'symbolic' or a nonzero rational: 1, 3/2, or --weight=-3/2")
    p.add_argument("--emit-operators", action="store_true")
    common(p)
    p.set_defaults(func=cmd_rb)

    p = sub.add_parser("export", help="dump the catalog as JSON")
    common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("derive-system", help="closure system of a pattern")
    p.add_argument("--pattern", required=True, help=pattern_help)
    p.add_argument("--pairs", choices=("all", "squares"), default="all")
    p.add_argument("--compare", default=None, help="fixture name, e.g. t2_system")
    p.add_argument("--prime", type=int, default=3,
                   help=f"the prime of the --compare solution sets (up to {MAX_CELL_PRIME})")
    common(p)
    p.set_defaults(func=cmd_derive_system)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        doc, ok = args.func(args)
        _emit(doc, args)  # a file the run cannot write is a configuration error
    except (M3DecompError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
