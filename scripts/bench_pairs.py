"""Compare a parent checkout with a change on one benchmark workload, in alternated pairs.

    python3 scripts/bench_pairs.py --parent ../parent --workload oracle-elim --pairs 10 --seconds 20
    python3 scripts/bench_pairs.py --parent ../parent --workload hh-exp --pairs 4 --dry-run

Pair i runs the benchmark command of ``BENCHMARK.json`` (``python3
perfbench/run.py``) with ``--workload W --seed S --seconds T --trace 0`` in
each checkout, with the same seed S = ``--first-seed`` + i − 1 on both
sides; the parent runs first in odd pairs and second in even ones.  The
change is this script's own checkout unless ``--change`` names another.
For each end-to-end metric of ``BENCHMARK.json`` the script prints each
side's median, the change in %, the parent's interquartile range, the
pairs the change won (strictly better in the metric's direction) and a
verdict (see ``verdict``).

It exits 1 if a run fails, is not ``correct`` or has a failed op, and 2,
before running anything, if either checkout has a ``__pycache__`` under
``src/``: bytecode moves ``peak_rss_mb`` by more than most changes do
(one checkout read 22.8 MB on ``oracle-elim`` with its bytecode and
23.4 MB without, three runs each on a 2-vCPU VM), so both sides run from
source and the runs write none (PYTHONDONTWRITEBYTECODE).  ``--dry-run``
checks the same and prints the commands in the order they would run.
"""

import argparse
import json
import os
import pathlib
import shlex
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def alternated(parent, change, i):
    """The (side, checkout) order of pair i: the parent first in odd pairs, second in even ones."""
    sides = [("parent", parent), ("change", change)]
    return sides if i % 2 else sides[::-1]


def refused(checkouts, needed, why):
    """Print the reason and return True if a checkout lacks ``needed`` or has bytecode under ``src/``."""
    for checkout in checkouts:
        if not (checkout / needed).exists():
            print("not a checkout with %s: %s" % (needed, checkout), file=sys.stderr)
            return True
        cached = sorted(str(p) for p in (checkout / "src").rglob("__pycache__"))
        if cached:
            print("remove the bytecode first, %s: %s" % (why, " ".join(cached)), file=sys.stderr)
            return True
    return False


def planned_runs(parent, change, workload, pairs, seconds, first_seed, command):
    """(pair, side, checkout, argv) for every run, in order."""
    runs = []
    for i in range(1, pairs + 1):
        argv = command + ["--workload", workload, "--seed", str(first_seed + i - 1),
                          "--seconds", "%g" % seconds, "--trace", "0"]
        runs.extend((i, side, checkout, argv) for side, checkout in alternated(parent, change, i))
    return runs


def run_one(checkout, argv):
    """The result object of one benchmark run, or None with the reason printed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("  exited %d: %s" % (proc.returncode, proc.stderr.strip()[-500:]))
        return None
    return json.loads(lines[-1])


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(won, pairs, parent_median, change_median, parent_iqr, lower, bound):
    """``gain``, ``worse``, ``unresolved`` or ``same``, the first that holds.

    gain: of at least ten pairs, the change won 9 in 10 or more, and the
    medians are further apart, in its favour, than the parent's IQR; fewer
    pairs claim nothing.  worse: the change's median is worse than the
    parent's by more than ``bound``, the metric's relative bound in
    ``BENCHMARK.json``.  unresolved: the parent's IQR is wider than that
    bound, so the runs cannot show it.
    """
    gap = parent_median - change_median if lower else change_median - parent_median
    if pairs >= 10 and 10 * won >= 9 * pairs and gap > parent_iqr:
        return "gain"
    if -gap > bound * abs(parent_median):
        return "worse"
    if parent_iqr > bound * abs(parent_median):
        return "unresolved"
    return "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path, help="the parent commit's checkout")
    ap.add_argument("--change", default=ROOT, type=pathlib.Path, help="the change's checkout (default: this one)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--dry-run", action="store_true", help="print the planned commands and exit")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = args.parent.resolve(), args.change.resolve()
    if refused((parent, change), "perfbench/run.py", "it moves peak_rss_mb"):
        return 2
    runs = planned_runs(parent, change, args.workload, args.pairs, args.seconds, args.first_seed, spec["command"])
    if args.dry_run:
        for i, side, checkout, argv in runs:
            print("pair %d %s: cd %s && %s" % (i, side, shlex.quote(str(checkout)), shlex.join(argv)))
        return 0
    values = {}  # (metric, pair) -> {side: value}
    ok = True
    for i, side, checkout, argv in runs:
        print("pair %d %s: seed %s" % (i, side, argv[argv.index("--seed") + 1]), flush=True)
        result = run_one(checkout, argv)
        if result is None or not result["correct"] or result["failed"]:
            ok = False
            if result is not None:
                print("  correct %s, %d failed ops" % (result["correct"], result["failed"]))
            continue
        for name, entry in result["metrics"].items():
            values.setdefault((name, i), {})[side] = entry["value"]
    print("%-12s %12s %12s %9s %12s %6s  %s" % ("metric", "parent", "change", "change", "parent IQR", "won", "verdict"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [values.get((name, i), {}) for i in range(1, args.pairs + 1)]
        complete = [(p["parent"], p["change"]) for p in pairs if len(p) == 2]
        if not complete:
            print("%-12s no complete pairs" % name)
            continue
        before, after = zip(*complete)
        lower = metric["better"] == "lower"
        won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        b_med, a_med = statistics.median(before), statistics.median(after)
        pct = 100.0 * (a_med - b_med) / b_med if b_med else 0.0
        spread = iqr(before)
        print("%-12s %12.6f %12.6f %+8.2f%% %12.6f %3d/%d  %s"
              % (name, b_med, a_med, pct, spread, won, len(before),
                 verdict(won, len(before), b_med, a_med, spread, lower, metric["bound"])))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
