"""Finite sparse integer combinations of keyed terms.

The resolution's (pre, amb, post) triples and the diagonal's quintuples
are the elements built this way, their path slots held as basis indices
i of the algebra (``words[i]``, ``source[i]``, ``target[i]``); cochains
are plain vectors over the pair basis (see
``cochains``).  The kind of an element is its key check,
``check(key, degree)``, which asserts that a key belongs to that kind at
that degree, endpoints included: the resolution and the diagonal bind
their checks to the algebra, which knows each basis index's endpoints.
The check runs when a key first enters an element; the arithmetic
between two elements of one kind takes their keys as valid.
"""


class Combination:
    """{key: nonzero int} at a fixed degree; no stored zeros."""

    __slots__ = ("check", "degree", "terms")

    def __init__(self, check, degree, terms=None):
        self.check = check
        self.degree = degree
        self.terms = {}
        if terms:
            for key, c in terms.items():
                self.add(key, c)

    def add(self, key, coeff):
        """Add coeff * key in place."""
        terms = self.terms
        c = terms.get(key)  # keys hash slowly: one lookup here, one store below
        if c is None:
            self.check(key, self.degree)
            c = 0
        c += coeff
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        """self + other as a new element of this kind; every key is already valid."""
        assert self.degree == other.degree
        out = Combination(self.check, self.degree)
        terms = out.terms = dict(self.terms)
        for key, c in other.terms.items():
            c += terms.get(key, 0)
            if c:
                terms[key] = c
            else:
                terms.pop(key, None)
        return out

    def __eq__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __repr__(self):
        return "Combination(%d, %r)" % (self.degree, self.terms)
