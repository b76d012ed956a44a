"""Benchmark of the m3decomp CLI: end-to-end figures of whole commands, or,
with --trace 1, per-layer figures from an in-process traced run.

    python3 bench/run.py --workload exact-catalog --seed 1 --seconds 35 --trace 0

Run it from anywhere inside a checkout; it runs the package from `src`.  It
repeats whole rounds of the workload's operations for about --seconds (at
least one round; it stops at the round boundary nearest to --seconds),
checks every report, and prints each metric by name with its unit (see
resource_figures and SetupProbes; per-layer figures are medians over
rounds).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Only the standard
library is used, and at most one command runs at a time (`--jobs 2` commands
start their own two workers).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: fresh interpreters timed per run for setup_s (see SetupProbes)
SETUP_PROBES = 25
SETUP_CODE = "import m3decomp.cli; from m3decomp.catalog import builtin_catalog; builtin_catalog()"
#: a command still running this long after the run started is killed and
#: counted as failed, so that the run ends within 180 s
DEADLINE_S = 170.0


def declared_metrics(kind):
    """Metric name -> unit, as BENCHMARK.json declares them; "_s" per-layer
    figures are span self times (see README)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


END_TO_END = declared_metrics("end_to_end")
PER_LAYER = declared_metrics("per_layer")


class Runner:
    """Starts one child process at a time in a scratch directory inside the
    checkout and measures it with wait4: wall time, and CPU time and peak
    RSS of the child together with every child of its own it waited for."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.env.pop("M3DECOMP_CATALOG", None)
        self.count = 0

    def run(self, argv):
        """Returns (exit code, wall s, cpu s, peak rss MB, stdout path, stderr text)."""
        self.count += 1
        out_path = os.path.join(self.workdir, f"out{self.count}")
        err_path = os.path.join(self.workdir, f"err{self.count}")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(err_path, errors="replace") as fh:
            err_text = fh.read()
        if code < 0:
            late = time.monotonic() >= self.deadline
            err_text += f"\nkilled by signal {-code}" + (" at the run's deadline" if late else "")
        return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, out_path, err_text


def last_line(text):
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else "no error output"


def load_report(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def judge(ops, results):
    """Checks each report, once the whole round has run (some checks use the
    export report).  Sets ok, incorrect and error on every result."""
    ctx = {"root": ROOT, "export": next((r.get("doc") for r in results if r["key"] == "export"), None)}
    for op, r in zip(ops, results):
        r.setdefault("incorrect", False)
        if "error" in r:
            r["ok"] = False
            continue
        try:
            if r.get("exit", op.exit) != op.exit:
                raise checks.CheckFailed(f"exit code {r['exit']}, expected {op.exit}")
            op.check(r.get("doc"), ctx)
        except workloads.MissingReference as exc:
            r.update(ok=False, error=str(exc))
        except checks.CheckFailed as exc:
            r.update(ok=False, incorrect=True, error=str(exc))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            r.update(ok=False, incorrect=True, error=f"malformed report: {exc!r}")
        else:
            r["ok"] = True


def cli_round(runner, ops, before_each):
    results = []
    for op in ops:
        before_each()
        code, wall, cpu, rss, out_path, err = runner.run(["-m", "m3decomp.cli", *op.argv])
        r = {"key": op.key, "exit": code, "wall": wall, "cpu": cpu, "rss": rss,
             "doc": load_report(out_path)}
        if r["doc"] is None:
            r["error"] = last_line(err)
        results.append(r)
    judge(ops, results)
    return results


def upper_decile(values):
    """The 90th percentile, or the only value."""
    values = list(values)
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def resource_figures(results):
    """Each command's 90th-percentile wall and CPU time over the run's
    rounds, summed over the commands, and the largest of the commands'
    median peak RSS.

    Not the median, nor the least: on a shared host, identical processes run
    at one of two speeds about 1.5 times apart, and the faster one comes in
    bursts of seconds to a minute (see README).  The median and the least
    time both read whichever speed the bursts happened to give the run; the
    90th percentile reads the slower, usual speed unless the faster one held
    nine tenths of the run."""
    by_key = {}
    for r in results:
        by_key.setdefault(r["key"], []).append(r)
    return {
        "wall_s": sum(upper_decile(r["wall"] for r in rs) for rs in by_key.values()),
        "cpu_s": sum(upper_decile(r["cpu"] for r in rs) for rs in by_key.values()),
        "peak_rss_mb": max(statistics.median(r["rss"] for r in rs) for rs in by_key.values()),
    }


def trace_round(runner, ops, workload, seed):
    out_json = os.path.join(runner.workdir, f"trace{runner.count}.json")
    code, wall, _, _, _, err = runner.run([os.path.join(BENCH_DIR, "traced.py"),
                                           "--workload", workload, "--seed", str(seed),
                                           "--out", out_json])
    doc = load_report(out_json)
    keys = ["cli.import", "catalog.parse"] + [op.key for op in ops]
    if code != 0 or doc is None:
        results = [{"key": key, "error": last_line(err)} for key in keys]
    else:
        results = [{k: v for k, v in o.items() if k != "ok"} for o in doc["outcomes"]]
    setup = [workloads.Op(key, [], 0, lambda d, c: None) for key in keys[:2]]
    judge(setup + ops, results)

    times, counts = Counter(), Counter()
    for r in results:
        if r["ok"]:
            times.update(r.get("times", {}))
            counts.update(r.get("counts", {}))
    figures = {name: float(counts[name]) for name, unit in PER_LAYER.items() if unit == "count"}
    figures.update({name: float(times[name[:-2]]) for name, unit in PER_LAYER.items() if unit == "s"})
    orbit_s = times["search.orbit"]
    figures["search.solutions_per_s"] = counts["search.partitioned"] / orbit_s if orbit_s else 0.0
    figures["trace.total_s"] = wall
    return results, figures


class SetupProbes:
    """Fresh interpreters that import the CLI and load the built-in catalog.
    They are spread over the whole run, probe i before the first command
    that starts once i/count of --seconds has passed, so that their median
    is not taken from one moment of a machine whose speed drifts."""

    def __init__(self, runner, count, seconds):
        self.runner, self.count, self.seconds, self.runs = runner, count, seconds, []
        self.started = time.monotonic()

    def take(self, due=None):
        if due is None:
            elapsed = time.monotonic() - self.started
            due = min(self.count, 1 + int(self.count * elapsed / self.seconds))
        while len(self.runs) < due:
            self.runs.append(self.runner.run(["-c", SETUP_CODE]))

    def median(self):
        """Of the probes that succeeded, or of all of them if none did;
        first takes those the run ended too soon for."""
        self.take(self.count)
        ok = [r[1] for r in self.runs if r[0] == 0]
        if not ok:
            print(f"setup probe failed: {last_line(self.runs[0][5])}", file=sys.stderr)
        return statistics.median(ok or [r[1] for r in self.runs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "m3decomp", "cli.py")):
        print(f"error: no m3decomp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    ops = workloads.ops_for(args.workload, args.seed)
    started = time.monotonic()
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        runner = Runner(workdir, started + DEADLINE_S)
        runner.run(["-c", SETUP_CODE])  # untimed: fills the file cache and writes bytecode
        probes = SetupProbes(runner, SETUP_PROBES, args.seconds)
        all_results, rounds, n_rounds = [], [], 0
        measured = time.monotonic()
        while True:
            n_rounds += 1
            round_started = time.monotonic()
            if args.trace:
                results, figures = trace_round(runner, ops, args.workload, args.seed)
                rounds.append(figures)
            else:
                results = cli_round(runner, ops, probes.take)
            all_results += results
            # whole rounds only: stop once another round as long as the last
            # would end further past --seconds than the run now falls short
            now = time.monotonic()
            if 2 * (now - measured) + (now - round_started) >= 2 * args.seconds:
                break
        setup_s = None if args.trace else probes.median()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        # a round's figures already leave out the operations that failed
        values = {name: statistics.median(f[name] for f in rounds) for name in units}
    else:
        # failed operations add to no figure; when none succeeded the result
        # still needs numbers, and `failed == attempted` marks them as no
        # measure of the program's work
        counted = [r for r in all_results if r["ok"]]
        if not counted:
            print("no operation succeeded: wall_s, cpu_s and peak_rss_mb are what "
                  "the failed attempts cost", file=sys.stderr)
        values = dict(resource_figures(counted or all_results), setup_s=setup_s)
    failures = Counter((r["key"], r["error"]) for r in all_results if not r["ok"])
    for (key, error), n in sorted(failures.items()):
        print(f"failed {n}x {key}: {error}", file=sys.stderr)
    for name in units:
        print(f"{args.workload:14} {name:34} {values[name]:14.6f} {units[name]}")
    print(f"{args.workload:14} rounds {n_rounds}, operations {len(all_results)}, "
          f"failed {sum(failures.values())}")
    print(json.dumps({
        "correct": not any(r["incorrect"] for r in all_results),
        "attempted": len(all_results),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
