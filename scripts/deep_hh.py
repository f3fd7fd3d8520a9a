"""Run deep ``hh --json`` and check that its output has not changed.

Each run is ``python -m monomial_hh hh <file> --max-degree D --json`` in a
subprocess of its own, on an algebra with one vertex and loops x1..xk whose
relations are every word of one length: ``rsz(k)`` has length 2 and
``cub(k)`` length 3.  For each run the script prints the seconds, the
child's peak RSS (``ru_maxrss`` from ``os.wait4``) and the SHA-256 of its
stdout, and it exits 1 if a digest differs from the recorded one.

    python3 scripts/deep_hh.py            # rsz(2) D=12, rsz(3) D=8, cub(2) D=9
    python3 scripts/deep_hh.py --quick    # rsz(2) D=8
"""

import argparse
import hashlib
import itertools
import os
import pathlib
import subprocess
import sys
import tempfile
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from monomial_hh.algfile import write_algebra_file
from monomial_hh.quivers import Quiver, build_algebra

# (name, loops, relation length, max degree, SHA-256 of the stdout)
DEEP = (
    ("rsz(2)", 2, 2, 12, "fa49ee203d8cda6af63e5f2366812d43bffee26a891af34a97c26a01d727a34d"),
    ("rsz(3)", 3, 2, 8, "c820766ccb86266804bbdd1767c7d19ae1c238ce5906ec66262990510ae2589d"),
    ("cub(2)", 2, 3, 9, "9b37094bbb1ddb1223f1aec9f911582e2b31ab4a966849a925c7c921634ec728"),
)
QUICK = (("rsz(2)", 2, 2, 8, "d07b949128a6524a60ece5f39f2baa305753f598b4c054b6f660b80cfb40363c"),)


def loops_algebra_text(k, rel_len):
    names = ["x%d" % i for i in range(1, k + 1)]
    quiver = Quiver(["1"], [(n, "1", "1") for n in names])
    relations = [quiver.path(list(w)) for w in itertools.product(names, repeat=rel_len)]
    return write_algebra_file(build_algebra(quiver, relations))


def run_hh(path, degree):
    """(stdout bytes, exit code, seconds, peak RSS in MB) of one ``hh --json`` child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "monomial_hh", "hh", path, "--max-degree", str(degree), "--json"]
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return out, child.returncode, seconds, usage.ru_maxrss / 1024


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="only rsz(2) at D=8")
    args = ap.parse_args()
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, k, rel_len, degree, want in QUICK if args.quick else DEEP:
            path = os.path.join(tmp, "loops_%d_%d.alg" % (k, rel_len))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(loops_algebra_text(k, rel_len))
            out, code, seconds, rss = run_hh(path, degree)
            digest = hashlib.sha256(out).hexdigest()
            verdict = "ok" if code == 0 and digest == want else "MISMATCH"
            ok = ok and verdict == "ok"
            print("%s D=%d: %.2f s, %.1f MB, exit %d, sha256 %s %s" % (name, degree, seconds, rss, code, digest, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
