"""Diagonal approximation on the resolution, with its chain-map certificate.

A term of the tensor square is a quintuple (pre, first, mid, second, post)
composing in traversal order; `first` is the traversal-earlier ambiguity
factor and `second` the later one, and pre, mid and post are basis
indices i of the algebra, whose words (``words[i]``), endpoints and
products come from the algebra's basis index.  In the written form c (x) q2 (x) b (x) q1 (x) a the slots
are a = pre, q1 = first, b = mid, q2 = second, c = post, so the
homological degree of the written-left factor is second.degree + 1.  That
degree drives the Koszul sign.

Each ambiguity's diagonal is memoized per table, and so are the divisor
occurrences it is read from: amb's arrow word is scanned once per degree
−1…n−2, its degree-(n−1) divisors are ``sub(amb)``, read off its links,
and amb is its only divisor of degree n.  Every (i, j) split of amb, in
``diagonal`` and in the decomposition lemmas alike, reads those lists.
Faces are read off ``resolution.boundary``, the one stored form of
d(1 (x) amb (x) 1).
Nothing here builds a path; the failure messages render words through
the quiver.
"""

from functools import partial

from .ambiguities import memoized
from .combination import Combination
from .resolution import boundary


def _check_quintuple(algebra, key, degree):
    pre, first, mid, second, post = key
    assert first.degree + second.degree + 1 == degree
    assert algebra.target[pre] == first.source
    assert first.target == algebra.source[mid]
    assert algebra.target[mid] == second.source
    assert second.target == algebra.source[post]


def tensor_element(table, degree, terms=None):
    """Sparse integer combination of quintuples at a fixed total degree."""
    return Combination(partial(_check_quintuple, table.algebra), degree, terms)


@memoized
def _divisors(table, amb):
    """[occurrences of degree d in amb's word for d = −1…amb.degree], computed once per table.

    Degrees −1…n−2 are scanned; degree n−1 is ``sub(amb)``, and amb itself
    is its only divisor of degree n.
    """
    n = amb.degree
    if n < 0:
        return [[(amb, 0)]]
    return [table.occurrences(d, amb.arrows, amb.source) for d in range(-1, n - 1)] + [table.sub(amb), [(amb, 0)]]


def _decompositions(table, amb, i, j):
    """Positioned (q1 at k1) then (q2 at k2 >= k1+len) splits of amb's word."""
    find = table.algebra.find
    arrows = amb.arrows
    divisors = _divisors(table, amb)
    seconds = divisors[j + 1]
    out = []
    for q1, k1 in divisors[i + 1]:
        end1 = k1 + len(q1.arrows)
        pre = find(arrows[:k1], amb.source)
        if pre is None:
            continue
        for q2, k2 in seconds:
            if k2 < end1:
                continue
            mid = find(arrows[end1:k2], q1.target)
            if mid is None:
                continue
            post = find(arrows[k2 + len(q2.arrows) :], q2.target)
            if post is None:
                continue
            out.append((pre, q1, mid, q2, post))
    return out


@memoized
def diagonal(table, amb):
    """The diagonal of amb, computed once per table: callers must not mutate it."""
    n = amb.degree
    out = tensor_element(table, n)
    for i in range(-1, n + 1):
        for key in _decompositions(table, amb, i, n - 1 - i):
            out.add(key, 1)
    return out


def diagonal_of_element(table, x):
    """Bilinear extension of the diagonal over outer multiplication."""
    mul = table.algebra.mul
    out = tensor_element(table, x.degree)
    for (pre_t, amb, post_t), c in x.terms.items():
        for (pre, f, m, s, post), c2 in diagonal(table, amb).terms.items():
            new_pre = mul(pre_t, pre)
            if new_pre is None:
                continue
            new_post = mul(post, post_t)
            if new_post is None:
                continue
            out.add((new_pre, f, m, s, new_post), c * c2)
    return out


def tensor_differential(table, x):
    """(d (x) id)x + (-1)^(left homological degree) (id (x) d)x."""
    mul = table.algebra.mul
    out = tensor_element(table, x.degree - 1)
    for (pre, f, m, s, post), c in x.terms.items():
        if s.degree >= 0:
            for (dpre, r, dpost), sign in boundary(table, s).terms.items():
                new_mid = mul(m, dpre)
                if new_mid is None:
                    continue
                new_post = mul(dpost, post)
                if new_post is None:
                    continue
                out.add((pre, f, new_mid, r, new_post), sign * c)
        if f.degree >= 0:
            koszul = -1 if (s.degree + 1) % 2 else 1
            for (dpre, r, dpost), sign in boundary(table, f).terms.items():
                new_pre = mul(pre, dpre)
                if new_pre is None:
                    continue
                new_mid = mul(dpost, m)
                if new_mid is None:
                    continue
                out.add((new_pre, r, new_mid, s, post), koszul * sign * c)
    return out


def counit(table, x):
    """mu (eps (x) eps): the products pre*mid*post in A of the quintuples
    with both factors at degree -1, as {basis index: int}."""
    mul = table.algebra.mul
    out = {}
    for (pre, f, m, s, post), c in x.terms.items():
        if f.degree != -1 or s.degree != -1:
            continue
        # both ambiguity slots are vertices, so the word is pre*mid*post
        b = mul(pre, m)
        if b is None:
            continue
        b = mul(b, post)
        if b is None:
            continue
        out[b] = out.get(b, 0) + c
    return {b: c for b, c in out.items() if c}


def check_chain_map(table, max_degree):
    for n in range(0, max_degree + 1):
        for amb in table.degree(n):
            lhs = diagonal_of_element(table, boundary(table, amb))
            rhs = tensor_differential(table, diagonal(table, amb))
            assert lhs == rhs, "diagonal chain-map identity fails at %s" % table.algebra.quiver.display(amb.arrows, amb.source)


def check_counit(table, max_degree):
    for n in range(-1, max_degree + 1):
        for amb in table.degree(n):
            lhs = counit(table, diagonal(table, amb))
            rhs = {amb.source: 1} if n == -1 else {}
            assert lhs == rhs, "counit fails at %s" % table.algebra.quiver.display(amb.arrows, amb.source)


def check_decomposition_lemmas(table, max_degree):
    """No decomposition above the antidiagonal; odd factors pin their ends."""
    words = table.algebra.words
    for n in range(0, max_degree + 1):
        for amb in table.degree(n):
            for i in range(-1, n + 1):
                for j in range(-1, n + 1):
                    if i + j <= n - 1:
                        continue
                    assert _decompositions(table, amb, i, j) == []
            for (pre, q1, mid, q2, post), _ in diagonal(table, amb).terms.items():
                if q1.degree % 2 == 1:
                    assert not words[pre]
                if q2.degree % 2 == 1:
                    assert not words[post]
