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
from monomial_hh.cochains import _offsets, class_vector, display_vector, hochschild_cohomology
from monomial_hh.cup import cup_products

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "example_cone.alg"
TOP = 8


def main():
    algebra = parse_algebra_file(FIXTURE.read_text())
    table = AmbiguityTable(algebra)
    spaces = hochschild_cohomology(table, TOP)
    words = {}

    print("dims:", " ".join(str(spaces[n].dimension) for n in range(TOP + 1)))
    for n in range(TOP + 1):
        print("HH^%d (dim %d)" % (n, spaces[n].dimension))
        for i, text in enumerate(display_vector(table, n, spaces[n].representatives, words)):
            print("  z%d = %s" % (i, text))

    q = algebra.quiver

    def pair(degree, word, b):
        """Index of the pair (ambiguity on word, path b) among the cochain pairs of degree."""
        arrows = q.path(word)
        [amb] = [a for a in table.degree(degree - 1) if a.arrows == arrows]
        return _offsets(table, degree)[0][amb] + algebra.position[algebra.find(q.path(b), amb.source)]

    f = {pair(1, "alpha", "alpha"): 1}
    g = {pair(1, "zeta", "zeta"): 1}
    w = {pair(2, "alpha zeta alpha", "alpha"): 1, pair(2, "zeta alpha zeta", "zeta"): 1}

    print()
    print("nonzero positive-degree products:")
    for name, x, m, y, n in (("f.w", f, 1, w, 2), ("g.w", g, 1, w, 2), ("w.w", w, 2, w, 2)):
        prod = cup_products(table, m, n, [x], [y]).get((0, 0), {})
        cls = class_vector(spaces[m + n], table, prod)
        shown = " + ".join("%s z%d" % (c, k) for k, c in sorted(cls.items()))
        print("  %s = %s   class %s" % (name, display_vector(table, m + n, [prod], words)[0], shown or "0"))


if __name__ == "__main__":
    main()
