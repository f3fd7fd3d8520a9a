"""Measure the cold start of the command line: the package import and one short ``hh`` run.

    python3 scripts/cold_start.py                           # this checkout, 7 runs
    python3 scripts/cold_start.py --parent ../parent --runs 9
    python3 scripts/cold_start.py --runs 1                  # one run a side

Each run starts two fresh processes from a checkout, with its ``src`` on
``PYTHONPATH`` and no bytecode written (PYTHONDONTWRITEBYTECODE), so the
package is compiled from source every time, as in the benchmark's workers:

- ``python -X importtime -c "import monomial_hh.cli"``, read for the
  cumulative microseconds of ``monomial_hh.cli``, which covers every module
  of the package that the command line loads;
- ``python -m monomial_hh hh fixtures/square.alg --max-degree 6``, timed
  from start to exit, on this checkout's fixture for both sides.

With ``--parent DIR`` the parent and the change run in alternation, the
parent first in odd runs.  The change is this script's checkout unless
``--change`` names another.  The script prints each run, then each side's
median and interquartile range for both numbers and the change in %.

It exits 1 if a run fails or the two sides print different ``hh``
output, and 2, before running anything, if a checkout has a
``__pycache__`` under ``src/``: a side that reads bytecode skips the
compile that the other pays.
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import time

from bench_pairs import alternated, iqr, refused

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "square.alg"
HH = ["-m", "monomial_hh", "hh", str(FIXTURE), "--max-degree", "6"]


def _env(checkout):
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def import_us(checkout):
    """Cumulative ``-X importtime`` microseconds of ``monomial_hh.cli``."""
    argv = [sys.executable, "-X", "importtime", "-c", "import monomial_hh.cli"]
    proc = subprocess.run(argv, cwd=checkout, env=_env(checkout), capture_output=True, text=True, check=True)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "monomial_hh.cli":
            return int(fields[1])
    raise RuntimeError("no import time for monomial_hh.cli in:\n" + proc.stderr[-500:])


def hh_run(checkout):
    """(seconds from start to exit, stdout) of the short ``hh`` run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *HH], cwd=checkout, env=_env(checkout), capture_output=True,
                          text=True, check=True)
    return time.perf_counter() - start, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=pathlib.Path, help="the parent commit's checkout")
    ap.add_argument("--change", default=ROOT, type=pathlib.Path, help="the change's checkout (default: this one)")
    ap.add_argument("--runs", type=int, default=7, help="runs per side (default 7)")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    parent = args.parent.resolve() if args.parent else None
    change = args.change.resolve()
    if refused(filter(None, (parent, change)), "src/monomial_hh", "a side that reads it compiles nothing"):
        return 2
    values = {}  # side -> {"import_us": [...], "hh_s": [...]}
    outputs = {}  # side -> the hh stdout of its first run
    plan = [(i, side, checkout) for i in range(1, args.runs + 1)
            for side, checkout in alternated(parent, change, i) if checkout]
    for i, side, checkout in plan:
        try:
            us = import_us(checkout)
            seconds, out = hh_run(checkout)
        except (subprocess.CalledProcessError, RuntimeError) as exc:
            print("run %d %s failed: %s" % (i, side, getattr(exc, "stderr", None) or exc), file=sys.stderr)
            return 1
        outputs.setdefault(side, out)
        taken = values.setdefault(side, {"import_us": [], "hh_s": []})
        taken["import_us"].append(us)
        taken["hh_s"].append(seconds)
        print("run %d %s: import %d us, hh %.4f s" % (i, side, us, seconds), flush=True)
    print("%-10s %-7s %12s %12s" % ("metric", "side", "median", "IQR") + ("  %9s" % "change" if parent else ""))
    for name, form in (("import_us", "%12.0f"), ("hh_s", "%12.4f")):
        for side in ("parent", "change") if parent else ("change",):
            runs = values[side][name]
            line = "%-10s %-7s " % (name, side) + form % statistics.median(runs) + " " + form % iqr(runs)
            if side == "change" and parent:
                before = statistics.median(values["parent"][name])
                line += "  %+8.1f%%" % (100.0 * (statistics.median(runs) - before) / before)
            print(line)
    if parent and outputs["parent"] != outputs["change"]:
        print("the two sides print different hh output", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
