"""Benchmark of monomial-hh, driven from outside through its public functions.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # tiny version of every workload
    python3 perfbench/run.py --record     # rewrite reference.json (digests, counts)

Run from the root of a checkout.  Each run starts one single-threaded worker
process at a time (a closed loop) and prints, as its last stdout line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

WORKER = os.path.join(BENCH_DIR, "worker.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_RUNS = 5  # set-up-only workers per timed run, besides the timed worker
RUN_TIMEOUT_S = 170  # a run, all its workers included, ends within this
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
# A failed op misses every latency limit; JSON has no infinity, so a
# quantile that lands on a failed op reads this many seconds.
FAILED_OP_S = 1e9

# End-to-end times are reference-speed seconds: measured seconds scaled by
# CAL_REF_S over the median duration of the worker's calibration loop measured
# around and during the same op, so a host slowdown that hits both cancels.
CAL_REF_S = 0.001


class BenchError(Exception):
    pass


def prepare():
    """Check the checkout and write the generated inputs; the package runs from src/."""
    needed = [os.path.join(ROOT, "src", "monomial_hh", "cli.py")]
    needed += [os.path.join(workloads.FIXTURE_DIR, f) for f in workloads.FIXTURES]
    missing = [os.path.relpath(p, ROOT) for p in needed if not os.path.isfile(p)]
    if missing:
        raise BenchError("not a monomial-hh checkout, missing: %s" % ", ".join(missing))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workloads.write_inputs()


def worker(workload, size, seed, mode, deadline, seconds=0.0):
    cmd = [
        sys.executable,
        WORKER,
        "--workload", workload,
        "--size", size,
        "--seed", str(seed),
        "--mode", mode,
        "--seconds", repr(float(seconds)),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError("%s worker for %s timed out" % (mode, workload)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            "%s worker for %s exited %d: %s" % (mode, workload, proc.returncode, proc.stderr.strip()[-2000:])
        )
    return json.loads(lines[-1])


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tally(passes):
    rows = [r for p in passes for r in p]
    failed = [r for r in rows if r["status"] != "ok"]
    return rows, failed


def scaled(seconds, cal_s):
    return seconds * CAL_REF_S / cal_s


def end_to_end(setups, timed, reference):
    """Every op runs once per pass; an op's latency is its median over the passes."""
    passes = timed["passes"]
    rows, failed = tally(passes)
    by_op = {}
    for r in rows:
        latency = scaled(r["seconds"], r["cal_s"]) if r["status"] == "ok" else math.inf
        by_op.setdefault(r["key"], []).append(latency)
    latency = {key: statistics.median(xs) for key, xs in by_op.items()}
    # wall_s sums the ops that passed at the seed commit; a trial that crashed
    # there (no reference digest) would read a later fix as a slowdown
    wall = sum(v for k, v in latency.items() if reference.get(k, {}).get("sha256"))
    p50 = nearest_rank(latency.values(), 0.5)
    p90 = nearest_rank(latency.values(), 0.9)
    n = len(latency)
    setup_samples = [scaled(s["setup_s"], s["setup_cal_s"]) for s in setups]
    metrics = {
        "wall_s": (wall, "s", "sum of op medians over %d passes" % len(passes)),
        "trial_s_p50": (min(p50, FAILED_OP_S), "s", "nearest rank over %d ops, failed ops as +inf" % n),
        "trial_s_p90": (min(p90, FAILED_OP_S), "s", "nearest rank over %d ops, %d beyond it" % (n, n - math.ceil(0.9 * n))),
        "setup_s": (statistics.median(setup_samples), "s",
                    "median of %d set-ups; unscaled %.4f s" % (len(setups), statistics.median(s["setup_s"] for s in setups))),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB", "ru_maxrss of the timed worker"),
        "ops_ok_frac": (1.0 - len(failed) / len(rows), "ratio", "%d of %d op runs ok" % (len(rows) - len(failed), len(rows))),
    }
    return metrics, rows, failed


def overhead_frac(passes):
    untraced, traced = ([scaled(r["seconds"], r["cal_s"]) for r in p] for p in passes)
    return sum(traced) / sum(untraced) - 1.0


def per_layer(traced):
    trace = traced["trace"]
    totals = trace["totals"]
    metrics = {}
    for layer in LAYERS:
        entry = trace["layers"][layer]
        metrics[layer + ".calls"] = (entry["calls"], "count", "spans entering the layer")
        metrics[layer + ".self_s"] = (entry["self_s"], "s", "span time minus child spans")
    metrics["other.self_s"] = (trace["other_s"], "s", "op time outside every span")
    accounted = sum(trace["layers"][layer]["self_s"] for layer in LAYERS) + trace["other_s"]

    def ratio(num, den):
        return totals[num] / totals[den] if totals[den] else 0.0

    metrics.update({
        "ambiguities.gamma_total": (totals["ambiguities.gamma_total"], "count", "sum of |Γ_n| over every table built"),
        "cochains.pairs_total": (totals["cochains.pairs_total"], "count", "columns of every differential matrix"),
        "cochains.nnz_total": (totals["cochains.nnz_total"], "count", "nonzeros of every differential matrix"),
        "cochains.hh_dim_total": (totals["cochains.hh_dim_total"], "count", "sum of dim HH^n computed"),
        "linalg.inserts": (totals["linalg.inserts"], "count", "RowBasis.insert calls"),
        "linalg.pivots": (totals["linalg.pivots"], "count", "inserts that added a pivot row"),
        "linalg.pivots_per_insert": (ratio("linalg.pivots", "linalg.inserts"), "ratio", "useful inserts / inserts"),
        "linalg.rank_total": (totals["linalg.rank_total"], "count", "sum of ranks from kernel_basis and rank"),
        "cup.products": (totals["cup.products"], "count", "cup_cochain calls"),
        "cup.nonzero_frac": (ratio("cup.nonzero_products", "cup.products"), "ratio", "nonzero products / products"),
        "diagonal.calls_per_amb": (ratio("diagonal.calls", "diagonal.distinct_ambs"), "ratio", "diagonal() calls per distinct ambiguity"),
        "bar_oracle.pairs_total": (totals["bar_oracle.pairs_total"], "count", "bar cochain pairs built"),
        "trace.wall_s": (trace["wall_s"], "s", "traced pass, summed op time; layers + other = %.6f s" % accounted),
        "trace.untraced_wall_s": (trace["untraced_wall_s"], "s", "the same ops untraced, each right before its traced run"),
        "trace.overhead_s": (trace["wall_s"] - trace["untraced_wall_s"], "s", "traced minus untraced"),
        "trace.overhead_frac": (overhead_frac(traced["passes"]), "ratio", "traced / untraced - 1, both at reference speed"),
        "trace.spans": (trace["spans"], "count", "spans recorded, in " + trace["spans_file"]),
    })
    rows, failed = tally(traced["passes"])
    return metrics, rows, failed


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def run(workload, seed, seconds, trace, size="full", out=sys.stdout):
    """One benchmark run; prints the metric lines and returns (result object, failed rows)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    reference = load_reference()
    if trace:
        traced = worker(workload, size, seed, "trace", deadline)
        metrics, rows, failed = per_layer(traced)
        changed = [r["key"] for r in traced["passes"][1] if r["counts"] != reference.get(r["key"], {}).get("counts")]
        print("exact counts: %s" % ("%d ops differ from reference.json, e.g. %s" % (len(changed), changed[:3])
                                    if changed else "every op matches reference.json"), file=out)
    else:
        setups = [worker(workload, size, seed, "setup", deadline) for _ in range(SETUP_RUNS)]
        timed = worker(workload, size, seed, "timed", deadline, seconds)
        setups.append(timed)
        metrics, rows, failed = end_to_end(setups, timed, reference)
    for r in failed:
        print("failed op: %s: %s %s" % (r["key"], r["status"], r["reason"]), file=out)
    for name, (value, unit, note) in metrics.items():
        shown = "%d" % value if isinstance(value, int) else "%.6f" % value
        print("%-26s %14s %-6s %s" % (name, shown, unit, note), file=out)
    result = {
        "correct": not any(r["status"] == "wrong" for r in rows),
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    return result, failed


def smoke():
    """Tiny run of every workload in both modes; checks digests and metric names/units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    reference = load_reference()
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, failed = run(workload, 1, 0, trace, size="tiny", out=sys.stderr)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            for name, entry in got.items():
                if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
                    problems.append("%s: %s is not a finite number" % (workload, name))
                if not NAME_RE.match(name):
                    problems.append("%s: bad metric name %r" % (workload, name))
                if not entry.get("unit") or entry["unit"] != declared.get(name):
                    problems.append("%s: %s has unit %r, declared %r" % (workload, name, entry.get("unit"), declared.get(name)))
            for name in set(declared) - set(got):
                problems.append("%s: declared metric %s not reported" % (workload, name))
            for r in failed:
                # only an op whose reference records a failure may fail
                if r["status"] == "wrong" or reference[r["key"]]["sha256"] is not None:
                    problems.append("%s: %s %s: %s" % (workload, r["key"], r["status"], r["reason"]))
            print("smoke %-14s trace=%d attempted=%d failed=%d correct=%s"
                  % (workload, trace, result["attempted"], result["failed"], result["correct"]))
    for p in problems:
        print("smoke: " + p)
    return 1 if problems else 0


def record():
    """Rewrite reference.json from this checkout: one traced pass per workload and size."""
    ops = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            res = worker(workload, size, 0, "record", time.monotonic() + RUN_TIMEOUT_S)
            for r in res["passes"][1]:
                ops[r["key"]] = {"sha256": r["sha256"], "error": r["reason"] or None, "counts": r["counts"]}
                print("%-50s %s" % (r["key"], r["sha256"] or r["reason"]))
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="monomial-hh benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (args.smoke or args.record) and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        prepare()
        if args.smoke:
            return smoke()
        if args.record:
            return record()
        result, _ = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
