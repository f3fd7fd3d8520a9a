"""Hochschild cohomology of truncated polynomial algebras against a closed form.

A = k[x]/(xⁿ), one vertex and one loop with the relation xⁿ, has a known
cohomology ring (T. Holm, *Hochschild cohomology rings of algebras
k[X]/(f)*, Beiträge Algebra Geom. 41 (2000)).  Let p be the
characteristic of k.

- dim HH^0 = n, and for i ≥ 1, dim HH^i = n − 1 if p ∤ n and n if p | n.
- Let r(i, j) be the rank of the span of all class products
  HH^i ⊗ HH^j → HH^{i+j}.  If i or j is even, r(i, j) = dim HH^{i+j}: the
  unit spans HH^0 over the centre, and the degree-2 class is a periodicity
  generator.  If both are odd, r(i, j) = 0, except when p = 2 and
  n ≡ 2 (mod 4); then r(i, j) = 2.  That fits u² = (n/2)·x^{n−2}·v in
  characteristic 2, with u in HH^1 and v in HH^2.

The statement comes from outside this code, so it checks ``hh`` and
``cup`` past the bar oracle's degree 4, and over GF(2), where the signs
collapse and graded commutativity cannot see a false x∪x.  The ranks are
taken by the elimination below, not by ``linalg``.
"""

from fractions import Fraction

import pytest

from monomial_hh.ambiguities import AmbiguityTable
from monomial_hh.cochains import hochschild_cohomology
from monomial_hh.cup import cup_table

from helpers import named_algebra

DIMS_TO = 24
RANKS_TO = 8  # total degree i + j
CHARACTERISTIC = {"q": 0, "fp:2": 2, "fp:3": 3, "fp:5": 5}


def expected_dim(n, p, i):
    if i == 0:
        return n
    return n if p and n % p == 0 else n - 1


def expected_rank(n, p, i, j):
    if i % 2 == 0 or j % 2 == 0:
        return expected_dim(n, p, i + j)
    return 2 if p == 2 and n % 4 == 2 else 0


def rank(vectors, p):
    """The rank of sparse {index: scalar} vectors over Q (p = 0) or GF(p), by Gaussian elimination."""

    def scalar(c):
        return c % p if p else Fraction(c)

    rows = [{k: scalar(c) for k, c in v.items() if scalar(c)} for v in vectors]
    found = 0
    while rows:
        pivot_row = rows.pop()
        if not pivot_row:
            continue
        k, c = next(iter(pivot_row.items()))
        inv = pow(c, -1, p) if p else 1 / c
        for row in rows:
            f = row.get(k)
            if f:
                for key, value in pivot_row.items():
                    row[key] = scalar(row.get(key, 0) - f * inv * value)
                    if not row[key]:
                        del row[key]
        found += 1
    return found


def test_rank_elimination():
    assert rank([{0: 1, 1: 1}, {0: 1, 1: -1}], 0) == 2
    assert rank([{0: 1, 1: 1}, {0: 1, 1: -1}], 2) == 1
    assert rank([{0: Fraction(1, 2)}, {0: 3}, {}], 0) == 1
    assert rank([{0: 3}], 3) == 0


@pytest.mark.parametrize("spec", list(CHARACTERISTIC))
def test_truncated_polynomial_dims_and_cup_ranks(spec):
    p = CHARACTERISTIC[spec]
    for n in range(2, 10):
        t = AmbiguityTable(named_algebra("x^%d" % n, spec))
        spaces = hochschild_cohomology(t, DIMS_TO)
        assert [s.dimension for s in spaces] == [expected_dim(n, p, i) for i in range(DIMS_TO + 1)], n
        for i in range(RANKS_TO + 1):
            for j in range(RANKS_TO + 1 - i):
                classes = list(cup_table(t, spaces, i, j).values())  # the nonzero classes
                assert rank(classes, p) == expected_rank(n, p, i, j), (n, i, j)
