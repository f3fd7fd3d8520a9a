"""Survey the random algebra generator: sizes, depth, and check outcomes.

Useful for eyeballing whether a seed range actually exercises the deep
parts of the theory (ambiguities in high degree) or only produces shallow
algebras.
"""

import argparse
import pathlib
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.checks import run_random_suite
from monomial_hh.randomgen import RandomAlgebraConfig, random_algebra


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--degree", type=int, default=6)
    ap.add_argument("--triangular", action="store_true")
    args = ap.parse_args()
    if args.trials < 1:
        ap.error("--trials must be at least 1")

    config = RandomAlgebraConfig(triangular=args.triangular)

    depth = Counter()
    dims = []
    for i in range(args.trials):
        algebra = random_algebra(config, args.seed + i)
        dims.append(algebra.dim)
        table = AmbiguityTable(algebra)
        for n in range(2, args.degree + 1):
            if table.degree(n):
                depth[n] += 1

    print("mode: %s" % ("triangular" if args.triangular else "general"))
    print("dims: min %d  max %d  mean %.1f" % (min(dims), max(dims), sum(dims) / len(dims)))
    for n in range(2, args.degree + 1):
        print("trials with nonempty degree-%d ambiguities: %d/%d" % (n, depth[n], args.trials))

    out = run_random_suite(config, args.trials, args.seed, degree=args.degree)
    failures = [row for row in out["trials"] if not row["ok"]]
    print("suite: %d trials, %d failures" % (args.trials, len(failures)))
    for row in failures:
        bad = [c["name"] for c in row["checks"] if not c["ok"]]
        print("  seed %d failed: %s" % (row["seed"], ", ".join(bad)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
