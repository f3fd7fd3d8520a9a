"""Run deep ``hh --json`` and ``cup --json`` and check that their output has not changed.

Each run is ``python -m monomial_hh hh <file> --max-degree D --json`` or
``python -m monomial_hh cup <file> --max-total-degree T --json`` in a
subprocess of its own, on an algebra with one vertex given by its relation
words: the loops are the letters the words use.  ``rsz(k)`` and ``cub(k)``
have loops x1..xk and every word of length 2 and 3 as relations; ``mixA``
and ``mixB`` have loops x and y and five length-3 relations that overlap in
more than one way.  For each run the script prints the seconds, the
child's peak RSS (``ru_maxrss`` from ``os.wait4``) and the SHA-256 of its
stdout, and it exits 1 if a digest differs from the recorded one.
``--only`` selects runs by the label the script prints for them, and
``--runs N`` runs each one N times, checks the digest every time and then
prints the median seconds and peak RSS of each.

    python3 scripts/deep_hh.py            # hh: rsz(2) D=12, rsz(3) D=8, cub(2) D=9
                                          # cup: cub(2) T=6, cub(2) T=7, rsz(2) T=8
                                          # hh: cub(2) D=10, mixA D=10
                                          # cup: mixB T=7
    python3 scripts/deep_hh.py --quick    # hh: rsz(2) D=8
    python3 scripts/deep_hh.py --only "cub(2) D=10" --runs 3
"""

import argparse
import hashlib
import itertools
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from monomial_hh.algfile import write_algebra_file
from monomial_hh.quivers import Quiver, build_algebra


def every_word(k, length):
    """Every word of one length in the loops x1..xk, in lexicographic order."""
    names = ["x%d" % i for i in range(1, k + 1)]
    return tuple(" ".join(w) for w in itertools.product(names, repeat=length))


# relation words, in traversal order, of each family
FAMILIES = {
    "rsz(2)": every_word(2, 2),
    "rsz(3)": every_word(3, 2),
    "cub(2)": every_word(2, 3),
    "mixA": ("x x x", "x y x", "x y y", "y x x", "y y y"),
    "mixB": ("x x x", "x x y", "x y x", "y x y", "y y y"),
}

# (command, family, max degree, SHA-256 of the stdout)
DEEP = (
    ("hh", "rsz(2)", 12, "fa49ee203d8cda6af63e5f2366812d43bffee26a891af34a97c26a01d727a34d"),
    ("hh", "rsz(3)", 8, "c820766ccb86266804bbdd1767c7d19ae1c238ce5906ec66262990510ae2589d"),
    ("hh", "cub(2)", 9, "9b37094bbb1ddb1223f1aec9f911582e2b31ab4a966849a925c7c921634ec728"),
    ("cup", "cub(2)", 6, "1f9af52f99acede9fdac40e60b451d29170a3aaed112bf600b351f34bf80c259"),
    ("cup", "cub(2)", 7, "de54a46066538fb21a648d68ef0ff32319bb5b0291b8b4b2f8bd3a7dde74f306"),
    ("cup", "rsz(2)", 8, "374cb2e01b5daf871ec78f198a3e6dd1b43efaaada5b61c5e7c79b61580d35af"),
    ("hh", "cub(2)", 10, "76c791aee41da69374b32019c83ccc435da87b03ddfa5e9b1b227851ac694d78"),
    ("hh", "mixA", 10, "cb0baa37a96012c835ef462941d0acc940e0afe82ef1aebc9f5b7805d0d4b4da"),
    ("cup", "mixB", 7, "fed0153a37d61feea66fbf09c7ebbc43ad7d7c6804b45e3539d9f2feda2140aa"),
)
QUICK = (("hh", "rsz(2)", 8, "d07b949128a6524a60ece5f39f2baa305753f598b4c054b6f660b80cfb40363c"),)


def algebra_text(words):
    """.alg text of one vertex with the relation words; the loops are their
    letters, in the order the words first use them."""
    loops = dict.fromkeys(a for w in words for a in w.split())
    quiver = Quiver(["1"], [(a, "1", "1") for a in loops])
    return write_algebra_file(build_algebra(quiver, [quiver.path(w) for w in words]))


# the degree option of each command
DEGREE_FLAG = {"hh": ("--max-degree", "D"), "cup": ("--max-total-degree", "T")}


def run_child(command, path, degree):
    """(stdout bytes, exit code, seconds, peak RSS in MB) of one ``--json`` child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "monomial_hh", command, path, DEGREE_FLAG[command][0], str(degree), "--json"]
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return out, child.returncode, seconds, usage.ru_maxrss / 1024


def label(command, name, degree):
    """The text that names a run in the output and in ``--only``: ``cub(2) D=9``, ``cup cub(2) T=6``."""
    prefix = name if command == "hh" else "%s %s" % (command, name)
    return "%s %s=%d" % (prefix, DEGREE_FLAG[command][1], degree)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="only rsz(2) at D=8")
    ap.add_argument("--only", metavar="LABEL", help='only the run of this label, as printed, e.g. "cub(2) D=10"')
    ap.add_argument("--runs", type=int, default=1, metavar="N", help="run each selected run N times (default 1)")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    runs = QUICK if args.quick else DEEP
    if args.only is not None:
        known = [label(command, name, degree) for command, name, degree, _ in runs]
        if args.only not in known:
            ap.error("unknown --only label %r; one of: %s" % (args.only, ", ".join(known)))
        runs = [runs[known.index(args.only)]]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for command, name, degree, want in runs:
            path = os.path.join(tmp, "family.alg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(algebra_text(FAMILIES[name]))
            text = label(command, name, degree)
            times, peaks = [], []
            for _ in range(args.runs):
                out, code, seconds, rss = run_child(command, path, degree)
                digest = hashlib.sha256(out).hexdigest()
                verdict = "ok" if code == 0 and digest == want else "MISMATCH"
                ok = ok and verdict == "ok"
                times.append(seconds)
                peaks.append(rss)
                print("%s: %.2f s, %.1f MB, exit %d, sha256 %s %s" % (text, seconds, rss, code, digest, verdict))
            if args.runs > 1:
                print("%s: median of %d: %.2f s, %.1f MB" % (text, args.runs, statistics.median(times), statistics.median(peaks)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
