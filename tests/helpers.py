"""Small constructions that only the tests need, shared by several modules."""

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
