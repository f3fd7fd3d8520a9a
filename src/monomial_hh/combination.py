"""Finite sparse combinations of keyed terms over a scalar ring.

Every element the package computes with is one: the resolution's
(pre, amb, post) triples and the diagonal's quintuples carry integer
coefficients, cochains on (ambiguity, parallel path) pairs carry scalars
of the base field.  The kind of an element is its ring plus a key check,
``check(key, degree)``, which asserts that a key belongs to that kind at
that degree.  The check runs when a key first enters an element; the
arithmetic between two elements of one kind takes their keys as valid.
"""


class Combination:
    """{key: nonzero scalar} at a fixed degree; no stored zeros."""

    __slots__ = ("ring", "check", "degree", "terms")

    def __init__(self, ring, check, degree, terms=None):
        self.ring = ring
        self.check = check
        self.degree = degree
        self.terms = {}
        if terms:
            for key, c in terms.items():
                self.add(key, c)

    def add(self, key, coeff):
        """Add coeff * key in place."""
        terms, ring = self.terms, self.ring
        c = terms.get(key)  # keys hash slowly: one lookup here, one store below
        if c is None:
            self.check(key, self.degree)
            c = ring.zero
        c = ring.add(c, coeff)
        if ring.is_zero(c):
            terms.pop(key, None)
        else:
            terms[key] = c

    def is_zero(self):
        return not self.terms

    def _sum(self, base, pairs):
        """base + pairs as a new element of this kind; every key is already valid."""
        ring = self.ring
        out = Combination(ring, self.check, self.degree)
        terms = out.terms = dict(base)
        for key, c in pairs:
            c = ring.add(terms.get(key, ring.zero), c)
            if ring.is_zero(c):
                terms.pop(key, None)
            else:
                terms[key] = c
        return out

    def __add__(self, other):
        assert self.degree == other.degree and self.ring == other.ring
        return self._sum(self.terms, other.terms.items())

    def __sub__(self, other):
        assert self.degree == other.degree and self.ring == other.ring
        neg = self.ring.neg
        return self._sum(self.terms, ((key, neg(c)) for key, c in other.terms.items()))

    def scale(self, scalar):
        mul = self.ring.mul
        return self._sum({}, ((key, mul(scalar, c)) for key, c in self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __repr__(self):
        return "Combination(%d, %r)" % (self.degree, self.terms)
