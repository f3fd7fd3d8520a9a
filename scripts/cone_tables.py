"""Reproduce the full picture for the cone algebra fixture.

Prints the cohomology dimension row through degree 8, the canonical
representatives, and the handful of nonzero positive-degree cup products
that make this algebra the standard counterexample to vanishing without
the acyclicity hypothesis.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from monomial_hh.algfile import parse_algebra_file
from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.cochains import class_vector, display_cochain, hochschild_cohomology, pair_cochain
from monomial_hh.cup import cup_cochain

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "example_cone.alg"
TOP = 8


def main():
    algebra = parse_algebra_file(FIXTURE.read_text())
    table = AmbiguityTable(algebra)
    spaces = hochschild_cohomology(table, TOP)

    print("dims:", " ".join(str(spaces[n].dimension) for n in range(TOP + 1)))
    for n in range(TOP + 1):
        print("HH^%d (dim %d)" % (n, spaces[n].dimension))
        for i, rep in enumerate(spaces[n].rep_cochains(table)):
            print("  z%d = %s" % (i, display_cochain(rep)))

    q = algebra.quiver

    def amb(degree, word):
        a = table.by_path(degree, q.path(word))
        assert a is not None, word
        return a

    f = pair_cochain(table, amb(0, "alpha"), q.path("alpha"))
    g = pair_cochain(table, amb(0, "zeta"), q.path("zeta"))
    w = pair_cochain(table, amb(1, "alpha zeta alpha"), q.path("alpha")) + pair_cochain(
        table, amb(1, "zeta alpha zeta"), q.path("zeta")
    )

    print()
    print("nonzero positive-degree products:")
    for name, x, y in (("f.w", f, w), ("g.w", g, w), ("w.w", w, w)):
        prod = cup_cochain(table, x, y)
        cls = class_vector(spaces[prod.degree], table, prod)
        shown = " + ".join("%s z%d" % (c, k) for k, c in sorted(cls.items()))
        print("  %s = %s   class %s" % (name, display_cochain(prod), shown or "0"))


if __name__ == "__main__":
    main()
