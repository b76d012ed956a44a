"""Traced run of one workload: the workload's CLI commands, made in-process
through `m3decomp.cli.main`, with spans recorded around the layer functions
those commands call.

Run from the root of a checkout, with `src` on PYTHONPATH:

    python3 bench/traced.py --workload oracle-p3 --seed 1 --out trace.json

Spans come from this file only.  The program's files are not changed: the
layer functions below are wrapped in memory, in this process, for its life.
The commands run serially (`--jobs` is dropped), since a pool worker would
not carry the wrappers.  The output file holds each operation's outcome, its
exit code and report (checked by run.py), and the self times and counters of
the spans it recorded; each command's report is written beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction

import workloads


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.open = []
        self.counts = Counter()

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.open[-1] if self.open else None])
        self.open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.open.pop()

    def wrap(self, owner, attr, name=None, count=None):
        """Replace owner.attr by a wrapper that records a span and calls
        count(counters, arguments, result).  `name` is the span's name (None:
        no span), or a function of the call's arguments (a dict, defaults
        applied) that gives it.  A function the program no longer has raises
        LookupError, so that every traced operation fails rather than
        reading 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            raise LookupError(f"{owner.__name__}.{attr} not found")
        signature = inspect.signature(fn)
        label = name if callable(name) else (lambda arguments: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span_name = label(bound.arguments)
            with self.span(span_name) if span_name else contextlib.nullcontext():
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, bound.arguments, result)
            return result

        setattr(owner, attr, wrapper)

    def measure(self, fn):
        """Make one top-level call; returns its result with the self times
        and counters of the spans it recorded."""
        self.spans.clear()
        self.open.clear()
        self.counts.clear()
        result = fn()
        return result, dict(self.self_times()), dict(self.counts)

    def self_times(self):
        """Per span name: total duration minus the time its child spans cover."""
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = Counter()
        for idx, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - covered[idx]
        return out


def instrument(tracer, m):
    """Spans and counters at the layer boundaries that the commands cross.
    Each command looks these functions up when it runs (a module attribute,
    or an import inside the command), so it calls the wrappers."""
    def add(key, value):
        return lambda counts, a, result: counts.update({key: value(a, result)})

    def by_weight(prefix, param):
        """`rb --weight 1` passes a Fraction; `rb` passes None, and its
        operators carry the weight as a polynomial."""
        def label(a):
            weight = a[param] if param == "weight" else a[param].weight
            return f"{prefix}_{'rational' if isinstance(weight, Fraction) else 'symbolic'}"
        return label

    def pairs_checked(counts, a, result):
        witness = result[1]
        order = m.matrices.COORD_ORDER
        counts["rota_baxter.pairs_checked"] += (
            81 if witness is None else 9 * order.index(witness[0]) + order.index(witness[1]) + 1)

    def orbit_count(counts, a, result):
        counts["search.orbits"] += len(result[1])
        counts["search.partitioned"] += len(a["solutions"])

    wrap = tracer.wrap
    wrap(m.verifier, "verify_entry", lambda a: f"verifier.{a['mode']}",
         add("verifier.downgraded", lambda a, r: int(bool(r.warning))))
    wrap(m.verifier, "sample_assignment", None, add("verifier.samples", lambda a, r: 1))
    wrap(m.catalog.CatalogEntry, "s_subspace", "matrices.span")
    wrap(m.catalog.CatalogEntry, "b_subspace_symbolic", "matrices.span")
    wrap(m.matrices.Subspace, "is_subalgebra", "matrices.closure")

    rb = m.rota_baxter
    wrap(rb, "rb_pair_for_entry", by_weight("rota_baxter.build", "weight"))
    wrap(rb, "check_rb_identity", by_weight("rota_baxter.identity", "r"), pairs_checked)
    wrap(rb, "check_complement_identity", "rota_baxter.complement")

    wrap(m.invariants, "fingerprint", "invariants.fingerprint")
    wrap(m.verifier, "verify_remarks", "invariants.remarks")
    wrap(m.verifier, "compare_with_reference_system", "verifier.compare")

    search = m.search
    wrap(search, "t4_t6_separation", "search.separation")
    wrap(search, "coverage_report", "search.report",
         add("search.unmatched", lambda a, r: len(r["unmatched_reps"])))
    wrap(search, "enumerate_complements_fp", "fpsolve.enumerate",
         add("fpsolve.solutions", lambda a, r: len(r)))
    wrap(search, "orbit_partition_fp", "search.orbit", orbit_count)
    wrap(search, "group_matrices", "maps.group",
         add("search.group_order", lambda a, r: int(r.shape[0])))
    wrap(search, "twist_matrix", "maps.group")
    wrap(search, "catalog_specializations_fp", "search.match",
         add("search.specializations", lambda a, r: len(r)))
    wrap(search, "explain_unmatched", "gfq.explain",
         add("search.explained", lambda a, r: int(bool(r))))
    wrap(search, "slow_cube_solutions", "search.slow_oracle")


def cli_call(cli, argv, report_path):
    """Runs `m3decomp <argv>` in this process, serially and with its report
    written to report_path; returns (exit code, report or None, stderr)."""
    if "--jobs" in argv:
        i = argv.index("--jobs")
        argv = argv[:i] + argv[i + 2:]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([*argv, "--output", report_path])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    try:
        with open(report_path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        doc = None
    return code, doc, err.getvalue()


def error_line(exc):
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    m = argparse.Namespace()
    outcomes = []

    def setup_import():
        with tracer.span("cli.import"):
            importlib.import_module("m3decomp.cli")  # imports every layer, as the CLI does
        for name in ("catalog", "cli", "invariants", "matrices", "rota_baxter", "search",
                     "verifier"):
            setattr(m, name, importlib.import_module("m3decomp." + name))
        instrument(tracer, m)

    def setup_catalog():
        with tracer.span("catalog.parse"):
            entries = m.catalog.builtin_catalog()
        tracer.counts["catalog.entries"] += len(entries)

    def record(key, fn):
        try:
            result, times, counts = tracer.measure(fn)
        except Exception as exc:  # one failed call must not stop the run
            outcomes.append({"key": key, "ok": False, "error": error_line(exc)})
            return False
        outcome = {"key": key, "ok": True, "times": times, "counts": counts}
        if result is not None:
            code, doc, err = result
            outcome.update(exit=code, doc=doc)
            if doc is None:
                lines = err.strip().splitlines()
                outcome.update(ok=False, error=lines[-1] if lines else f"no report, exit {code}")
        outcomes.append(outcome)
        return True

    ops = workloads.ops_for(args.workload, args.seed)
    if record("cli.import", setup_import) and record("catalog.parse", setup_catalog):
        for op in ops:
            report = f"{args.out}-{op.key}.json"
            record(op.key, functools.partial(cli_call, m.cli, op.argv, report))
    else:  # the program cannot be set up or traced: every remaining call fails alike
        error = outcomes[-1]["error"]
        keys = ["catalog.parse"] * (len(outcomes) == 1) + [op.key for op in ops]
        outcomes += [{"key": key, "ok": False, "error": error} for key in keys]

    with open(args.out, "w") as fh:
        json.dump({"outcomes": outcomes}, fh)


if __name__ == "__main__":
    main()
