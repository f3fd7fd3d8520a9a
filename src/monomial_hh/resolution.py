"""Minimal bimodule resolution built on the ambiguity chains.

Elements of the degree-n term are sparse integer combinations of triples
(pre, amb, post) with amb an ambiguity of degree n and pre, post basis
paths, composing traversal-first to traversal-last as pre * amb * post.
The homological index of that term is n + 1; the bottom term (n = -1) is
spanned by (pre, e_v, post) triples and augments onto the algebra.

The differential splits on the parity of n: odd degrees sum over all
positioned divisors one degree down, even degrees take the two boundary
truncations with opposite signs.  All maps here are defined over the
integers; coefficients only meet the base field later, in the cochain
matrices.
"""

from .ambiguities import Ambiguity
from .combination import Combination
from .errors import WrongDegree
from .quivers import concat


def _check_triple(key, degree):
    pre, amb, post = key
    assert isinstance(amb, Ambiguity) and amb.degree == degree
    assert pre.target == amb.path.source
    assert amb.path.target == post.source


def bimodule_element(degree, terms=None):
    """Sparse integer combination of composable (pre, amb, post) triples."""
    return Combination(_check_triple, degree, terms)


def generator(amb):
    """1 (x) amb (x) 1."""
    q = amb.path.quiver
    pre = q.trivial_path_at(amb.path.source)
    post = q.trivial_path_at(amb.path.target)
    return bimodule_element(amb.degree, {(pre, amb, post): 1})


def _d_terms(table, amb):
    # differential of 1 (x) amb (x) 1, as (pre, sub_amb, post, sign)
    n = amb.degree
    assert n >= 0
    alg = table.algebra
    out = []
    if n % 2 == 1:
        for q, occ in table.sub(amb):
            if alg.is_basis(occ.prefix) and alg.is_basis(occ.suffix):
                out.append((occ.prefix, q, occ.suffix, 1))
    else:
        p = amb.path
        after = p.segment(len(amb.head.path), len(p))
        if alg.is_basis(after):
            out.append((alg.quiver.trivial_path_at(p.source), amb.head, after, 1))
        before = p.segment(0, len(p) - len(amb.tail.path))
        if alg.is_basis(before):
            out.append((before, amb.tail, alg.quiver.trivial_path_at(p.target), -1))
    return out


def differential(table, x):
    if x.degree < 0:
        raise WrongDegree("no differential below degree 0; use augmentation")
    alg = table.algebra
    out = bimodule_element(x.degree - 1)
    for (pre, amb, post), c in x.terms.items():
        for dpre, q, dpost, sign in _d_terms(table, amb):
            new_pre = alg.reduce_concat(pre, dpre)
            if new_pre is None:
                continue
            new_post = alg.reduce_concat(dpost, post)
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
    out = {}
    for (pre, amb, post), c in x.terms.items():
        alg_path = table.algebra.reduce_concat(pre, post)
        if alg_path is None:
            continue
        out[alg_path] = out.get(alg_path, 0) + c
    return {p: c for p, c in out.items() if c}


def iota(table, a):
    """Section of the augmentation: b goes to the tensor keyed (b, e_t(b), trivial)."""
    out = bimodule_element(-1)
    q = table.algebra.quiver
    for path, c in a.items():
        assert table.algebra.is_basis(path)
        e = q.trivial_path_at(path.target)
        out.add((path, table.by_path(-1, e), e), c)
    return out


def homotopy_sigma(table, x):
    """Contracting homotopy; right-linear, scans the unreduced word amb*post."""
    alg = table.algebra
    out = bimodule_element(x.degree + 1)
    for (pre, amb, post), c in x.terms.items():
        if len(amb.path) + len(post) == 0:
            continue
        word = concat(amb.path, post)  # may contain relations on purpose
        end = len(word.arrows)
        for q, k in table.occurrences(x.degree + 1, word):
            new_pre = alg.reduce_concat(pre, word.segment(0, k))
            if new_pre is None:
                continue
            tail = word.segment(k + len(q.path), end)
            if not alg.is_basis(tail):
                continue
            out.add((new_pre, q, tail), c)
    return out


def right_spanning_set(table, degree):
    """Generators b (x) p (x) 1 of the degree-n term as a right module."""
    alg = table.algebra
    leaving = {}  # vertex -> basis paths that start there, in basis order
    for b in alg.basis:
        leaving.setdefault(b.source, []).append(b)
    out = []
    for amb in table.degree(degree):
        triv = alg.quiver.trivial_path_at(amb.path.source)
        for b in leaving.get(amb.path.target, ()):
            out.append(bimodule_element(degree, {(triv, amb, b): 1}))
    return out


def check_d_squared(table, max_degree):
    for n in range(1, max_degree + 1):
        for amb in table.degree(n):
            dd = differential(table, differential(table, generator(amb)))
            assert dd.is_zero(), "d^2 != 0 at %s" % amb.path.display()


def check_augmented(table):
    for amb in table.degree(0):
        d1 = differential(table, generator(amb))
        assert augmentation(table, d1) == {}, "eps d != 0 at %s" % amb.path.display()


def check_homotopy(table, max_degree):
    """d sigma + sigma d = id - iota eps, on right-module spanning sets.

    Below degree 0 the differential is the augmentation and the identity
    reads d(sigma(x)) + iota(eps(x)) = x.
    """
    for n in range(-1, max_degree + 1):
        for x in right_spanning_set(table, n):
            lhs = differential(table, homotopy_sigma(table, x))
            if n >= 0:
                lhs = lhs + homotopy_sigma(table, differential(table, x))
            else:
                lhs = lhs + iota(table, augmentation(table, x))
            assert lhs == x, "homotopy identity fails at %r" % x


def check_minimal(table, max_degree):
    # every differential coefficient lies in the radical
    for n in range(0, max_degree + 1):
        for amb in table.degree(n):
            for dpre, _, dpost, _ in _d_terms(table, amb):
                assert len(dpre) + len(dpost) >= 1
