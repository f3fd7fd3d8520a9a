"""Minimal bimodule resolution built on the ambiguity chains.

Elements of the degree-n term are sparse integer combinations of triples
(pre, amb, post) with amb an ambiguity of degree n and pre, post basis
indices i of the algebra (``words[i]`` from ``source[i]`` to
``target[i]``), composing traversal-first to traversal-last as
pre * amb * post.  The homological index of that term is n + 1; the bottom
term (n = -1) is spanned by (pre, e_v, post) triples and augments onto the
algebra, whose elements are {basis index: int}.  Words, endpoints and
products of basis paths are read from the algebra's basis index, and an
ambiguity is its own word and endpoints, so nothing here builds a path;
the failure messages render words through the quiver.

The differential splits on the parity of n: odd degrees sum over all
positioned divisors one degree down (``sub``, read off the links), even
degrees take the two boundary truncations with opposite signs.  ``boundary`` is the one stored form of
each generator's d(1 (x) amb (x) 1), memoized per table:
``differential`` extends it over outer multiplication, and every check,
the diagonal's tensor differential and the cochains' resolution route
read its terms.  The contracting homotopy's splits of each word amb·post
it scans are memoized too.  All maps here are defined over the integers;
coefficients only meet the base field later, in the cochain matrices.
"""

from functools import partial

from .ambiguities import Ambiguity, memoized
from .combination import Combination
from .errors import WrongDegree


def _check_triple(algebra, key, degree):
    pre, amb, post = key
    assert isinstance(amb, Ambiguity) and amb.degree == degree
    assert algebra.target[pre] == amb.source
    assert amb.target == algebra.source[post]


def bimodule_element(table, degree, terms=None):
    """Sparse integer combination of composable (pre, amb, post) triples."""
    return Combination(partial(_check_triple, table.algebra), degree, terms)


@memoized
def boundary(table, amb):
    """d(1 (x) amb (x) 1), amb's faces by parity, computed once per table: callers must not mutate it."""
    n = amb.degree
    assert n >= 0
    find = table.algebra.find
    arrows = amb.arrows
    out = bimodule_element(table, n - 1)
    if n % 2 == 1:
        for q, k in table.sub(amb):
            pre = find(arrows[:k], amb.source)
            post = find(arrows[k + len(q.arrows) :], q.target)
            if pre is not None and post is not None:
                out.add((pre, q, post), 1)
    else:
        after = find(arrows[len(amb.head.arrows) :], amb.head.target)
        if after is not None:
            out.add((amb.source, amb.head, after), 1)
        before = find(arrows[: len(arrows) - len(amb.tail.arrows)], amb.source)
        if before is not None:
            out.add((before, amb.tail, amb.target), -1)
    return out


def differential(table, x):
    if x.degree < 0:
        raise WrongDegree("no differential below degree 0; use augmentation")
    mul = table.algebra.mul
    out = bimodule_element(table, x.degree - 1)
    for (pre, amb, post), c in x.terms.items():
        for (dpre, q, dpost), sign in boundary(table, amb).terms.items():
            new_pre = mul(pre, dpre)
            if new_pre is None:
                continue
            new_post = mul(dpost, post)
            if new_post is None:
                continue
            out.add((new_pre, q, new_post), sign * c)
    return out


def augmentation(table, x):
    """Collapse the bottom term onto the algebra: (pre, e, post) -> pre*post.

    The product happens in the algebra, so a composite that runs through a
    relation contributes nothing.
    """
    if x.degree != -1:
        raise WrongDegree("augmentation needs degree -1 keys, got %d" % x.degree)
    mul = table.algebra.mul
    out = {}
    for (pre, amb, post), c in x.terms.items():
        b = mul(pre, post)
        if b is None:
            continue
        out[b] = out.get(b, 0) + c
    return {b: c for b, c in out.items() if c}


def iota(table, a):
    """Section of the augmentation: b goes to the tensor keyed (b, e_t(b), trivial)."""
    out = bimodule_element(table, -1)
    target = table.algebra.target
    vertices = table.degree(-1)
    for b, c in a.items():
        v = target[b]
        out.add((b, vertices[v], v), c)
    return out


@memoized
def _splits(table, amb, post):
    """[(head, q, tail)] with amb·post = head·q·tail, q one degree up and
    head, tail basis indices, by position of q; computed once per table."""
    find = table.algebra.find
    word = amb.arrows + table.algebra.words[post]  # may contain relations on purpose
    out = []
    if word:
        for q, k in table.occurrences(amb.degree + 1, word, amb.source):
            head = find(word[:k], amb.source)
            if head is None:
                continue
            tail = find(word[k + len(q.arrows) :], q.target)
            if tail is not None:
                out.append((head, q, tail))
    return out


def homotopy_sigma(table, x):
    """Contracting homotopy; right-linear, scans the unreduced word amb*post.

    The splits of each amb·post are found once per table; each term then
    multiplies its pre into the split's head.
    """
    mul = table.algebra.mul
    out = bimodule_element(table, x.degree + 1)
    for (pre, amb, post), c in x.terms.items():
        for head, q, tail in _splits(table, amb, post):
            new_pre = mul(pre, head)
            if new_pre is not None:
                out.add((new_pre, q, tail), c)
    return out


def right_spanning_set(table, degree):
    """Generators b (x) p (x) 1 of the degree-n term as a right module."""
    leaving = table.algebra.leaving
    out = []
    for amb in table.degree(degree):
        pre = amb.source
        for b in leaving[amb.target]:
            out.append(bimodule_element(table, degree, {(pre, amb, b): 1}))
    return out


def _display_triple(table, key):
    """``[pre || amb || post]`` in written words, for failure messages."""
    pre, amb, post = key
    algebra = table.algebra
    word, words, source = algebra.quiver.word, algebra.words, algebra.source
    return "[%s || %s || %s]" % (word(words[pre], source[pre]), word(amb.arrows, amb.source), word(words[post], source[post]))


def check_d_squared(table, max_degree):
    for n in range(1, max_degree + 1):
        for amb in table.degree(n):
            dd = differential(table, boundary(table, amb))
            assert dd.is_zero(), "d^2 != 0 at %s" % table.algebra.quiver.display(amb.arrows, amb.source)


def check_augmented(table):
    for amb in table.degree(0):
        eps_d = augmentation(table, boundary(table, amb))
        assert eps_d == {}, "eps d != 0 at %s" % table.algebra.quiver.display(amb.arrows, amb.source)


def _d(table, x):
    """d(x), read off the table's boundaries when x is exactly 1 (x) q (x) 1.

    The cached element is returned as is: callers only add to it, which
    builds a new one.
    """
    if len(x.terms) == 1:
        ((pre, q, post), c), = x.terms.items()
        if c == 1 and pre == q.source and post == q.target:
            return boundary(table, q)
    return differential(table, x)


def check_homotopy(table, max_degree):
    """d sigma + sigma d = id - iota eps, on right-module spanning sets.

    Below degree 0 the differential is the augmentation and the identity
    reads d(sigma(x)) + iota(eps(x)) = x.  A generator 1 (x) q (x) 1, be it
    x itself or sigma(x), reads its boundary off the table.
    """
    for n in range(-1, max_degree + 1):
        for x in right_spanning_set(table, n):
            lhs = _d(table, homotopy_sigma(table, x))
            if n >= 0:
                lhs = lhs + homotopy_sigma(table, _d(table, x))
            else:
                lhs = lhs + iota(table, augmentation(table, x))
            assert lhs == x, "homotopy identity fails at %s" % _display_triple(table, next(iter(x.terms)))


def check_minimal(table, max_degree):
    # every differential coefficient lies in the radical
    words = table.algebra.words
    for n in range(0, max_degree + 1):
        for amb in table.degree(n):
            for dpre, _, dpost in boundary(table, amb).terms:
                assert words[dpre] or words[dpost]
