"""One benchmark worker process: set-up, then a timed or a traced run.

    python3 perfbench/worker.py --workload W --size full|tiny --seed N
                                --mode setup|timed|trace|record [--seconds S]

The worker drives the package in-process, single-threaded, one op at a time.
It prints one JSON object on its last stdout line; ``run.py`` turns it into
metrics.  Modes:

* ``setup``: import the package, parse every input (checking the .alg
  round trip), build every algebra and its ``AmbiguityTable``; report the time.
* ``timed``: set-up, then whole passes over the ops until ``--seconds`` have
  elapsed (at least one pass).
* ``trace``: set-up, then one pass in which each op runs untraced and then
  with layer spans.
* ``record``: like ``trace``, without judging outputs; reports every digest
  and the exact counts, from which ``run.py --record`` writes the reference.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads  # noqa: E402  (stdlib only; the package is imported in set_up)

REFERENCE = os.path.join(BENCH_DIR, "reference.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# A shared host's speed can swing by more than half within seconds.  A short
# fixed pure-Python loop of tuple-keyed dict updates, the package's own kind
# of work, slows with it.  The worker times that loop around and, every
# SAMPLE_EVERY_S, during each op; run.py scales op times by it.
SAMPLE_KEYS = 4_000
SAMPLES_PER_CAL = 5  # samples taken between two ops
SAMPLE_EVERY_S = 0.1


def sample():
    """Seconds of one calibration loop; the collector is off so it does the same work each time."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    d = {}
    for i in range(SAMPLE_KEYS):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
    seconds = perf_counter() - t0
    if was_enabled:
        gc.enable()
    return seconds


class SpeedSampler:
    """Collects loop timings: on demand, and from SIGALRM while an op runs."""

    def __init__(self):
        self.samples = []
        self.in_op_s = 0.0  # time the alarm handler took inside the current op

    def calibrate(self):
        self.samples.extend(sample() for _ in range(SAMPLES_PER_CAL))

    def _on_alarm(self, _signum, _frame):
        t0 = perf_counter()
        self.samples.append(sample())
        self.in_op_s += perf_counter() - t0

    def __enter__(self):
        self.in_op_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self, keep=0):
        """Median seconds of one sample since the last take.

        The last ``keep`` samples stay for the next take: the calibration after
        one op is also the one before the next.
        """
        taken = self.samples
        self.samples = taken[len(taken) - keep :]
        return statistics.median(taken)


def set_up(ops):
    """Import, parse and build everything the ops need; returns (seconds, trial configs)."""
    t0 = perf_counter()
    from monomial_hh import checks, cli  # noqa: F401  (import cost is part of set-up)
    from monomial_hh.algfile import parse_algebra_file, write_algebra_file
    from monomial_hh.ambiguities import AmbiguityTable
    from monomial_hh.fields import parse_field_spec
    from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra

    for path in sorted({p for op in ops for p in op.get("files", ())}):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        algebra = parse_algebra_file(text)
        if path.startswith(workloads.INPUT_DIR) and write_algebra_file(algebra) != text:
            raise SystemExit("generated input does not round-trip: %s" % path)
        AmbiguityTable(algebra)
    configs = {}
    for op in ops:
        if op["kind"] != "trial":
            continue
        key = (op["field"], op["triangular"])
        if key not in configs:
            configs[key] = RandomAlgebraConfig(
                triangular=op["triangular"], field=parse_field_spec(op["field"])
            )
        AmbiguityTable(random_algebra(configs[key], op["seed"]))
    return perf_counter() - t0, configs


def run_op(op, configs, sampler):
    """Run one op; returns (seconds, exit code or None, output text, exception).

    With a sampler, the op runs with the in-op speed samples on, and their
    time is left out of the op's seconds.
    """
    from monomial_hh import checks, cli

    gc.collect()
    out = io.StringIO()
    rc, exc = None, None
    in_op = sampler or contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with in_op:
            if op["kind"] == "cli":
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(op["argv"])
            else:
                config = configs[(op["field"], op["triangular"])]
                row = checks.run_random_suite(config, 1, op["seed"], degree=op["degree"])["trials"][0]
                out.write(json.dumps(row, sort_keys=True))
                rc = 0 if row["ok"] else 1
    except Exception as e:  # an op that raises is a failed op, the run goes on
        exc = e
    seconds = perf_counter() - t0 - (sampler.in_op_s if sampler else 0.0)
    return seconds, rc, out.getvalue(), exc


def judge(op, ref, rc, text, exc):
    """Status of one op: 'ok', 'wrong' (output differs or a check failed), or 'error'."""
    if exc is not None:
        return "error", "%s: %s" % (exc.__class__.__name__, exc), None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if rc == 1:
        return "wrong", "exit 1 (a verification failed)", digest
    if rc != 0:
        return "error", "exit %r" % rc, digest
    if ref is None:
        return "ok", "", digest
    entry = ref.get(op["key"])
    if entry is None:
        return "wrong", "no reference digest", digest
    if entry["sha256"] is not None and entry["sha256"] != digest:
        return "wrong", "digest %s != reference %s" % (digest[:12], entry["sha256"][:12]), digest
    return "ok", "", digest


def measure(op, configs, ref, sampler, sample_in_op):
    """Run and judge one op; the row carries the calibration taken before, (during) and after it."""
    seconds, rc, text, exc = run_op(op, configs, sampler if sample_in_op else None)
    sampler.calibrate()
    status, reason, digest = judge(op, ref, rc, text, exc)
    row = {
        "key": op["key"],
        "seconds": seconds,
        "cal_s": sampler.take(keep=SAMPLES_PER_CAL),
        "status": status,
        "reason": reason,
    }
    if ref is None:
        row["sha256"] = None if exc is not None else digest
    return row


def run_pass(ops, configs, ref):
    sampler = SpeedSampler()
    sampler.calibrate()
    return [measure(op, configs, ref, sampler, True) for op in ops]


def trace_pass(ops, configs, ref, workload, size):
    """Each op runs untraced, then traced right after it, so both see the same host speed.

    Neither samples during the op, so that span times hold no sampling.
    Returns (untraced rows, traced rows, trace summary).
    """
    from tracer import LAYERS, Tracer, apply, instrument

    tracer = Tracer()
    patches = instrument(tracer)
    sampler = SpeedSampler()
    sampler.calibrate()
    untraced, traced = [], []
    for i, op in enumerate(ops):
        untraced.append(measure(op, configs, ref, sampler, False))
        tracer.begin_op(i)
        apply(patches, True)
        try:
            row = measure(op, configs, ref, sampler, False)
        finally:
            apply(patches, False)
        row["counts"] = tracer.end_op()
        traced.append(row)
    calls, self_s, root_by_op = tracer.self_times()
    wall = sum(r["seconds"] for r in traced)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "spans-%s-%s.tsv.gz" % (workload, size))
    tracer.write_spans(spans_path)
    return untraced, traced, {
        "layers": {
            layer: {"calls": calls[i], "self_s": self_s[i]} for i, layer in enumerate(LAYERS)
        },
        "other_s": wall - sum(root_by_op.values()),
        "wall_s": wall,
        "untraced_wall_s": sum(r["seconds"] for r in untraced),
        "spans": len(tracer.s_name),
        "totals": tracer.totals,
        "spans_file": os.path.relpath(spans_path, os.path.dirname(BENCH_DIR)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "trace", "record"))
    args = ap.parse_args(argv)

    ops = workloads.pass_order(workloads.ops_for(args.workload, args.size), args.seed)
    sampler = SpeedSampler()
    sampler.calibrate()
    setup_s, configs = set_up(ops)
    sampler.calibrate()
    result = {"setup_s": setup_s, "setup_cal_s": sampler.take()}
    if args.mode != "setup":
        ref = None
        if args.mode != "record":
            with open(REFERENCE, encoding="utf-8") as fh:
                ref = json.load(fh)["ops"]
        if args.mode == "timed":
            passes = []
            start = perf_counter()
            while not passes or perf_counter() - start < args.seconds:
                passes.append(run_pass(ops, configs, ref))
            result["passes"] = passes
        else:
            untraced, traced, trace = trace_pass(ops, configs, ref, args.workload, args.size)
            result["passes"] = [untraced, traced]
            result["trace"] = trace
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
