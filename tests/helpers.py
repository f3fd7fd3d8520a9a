"""Small constructions that only the tests need, shared by several modules."""

import itertools

from monomial_hh.cochains import new_cochain


def unit_cochain(table):
    """The sum of all vertex pairs; a cocycle representing the unit class."""
    out = new_cochain(table, 0)
    one = table.algebra.field.one
    for amb in table.degree(-1):
        out.add((amb, amb.path), one)
    return out


def is_quadratic(algebra):
    """Every relation has length two."""
    return all(len(r) == 2 for r in algebra.relations)


def loops_algebra_text(k, rel_len):
    """.alg text of one vertex with loops x1..xk and every length-rel_len word as a relation.

    ``rsz(k)`` is rel_len 2, where |Γ_n| = k^(n+1); ``cub(k)`` is rel_len 3.
    """
    names = ["x%d" % i for i in range(1, k + 1)]
    lines = ["field q", "vertices 1"] + ["arrow %s: 1 -> 1" % n for n in names]
    lines += ["relation " + " ".join(w) for w in itertools.product(names, repeat=rel_len)]
    return "".join(line + "\n" for line in lines)
