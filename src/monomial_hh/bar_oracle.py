"""Brute-force Hochschild cohomology via the vertex-relative reduced bar complex.

This is a deliberately independent route: nothing here touches the ambiguity
machinery.  Cochains in degree n assign algebra elements to composable
n-tuples of nontrivial basis paths (tensored over the span of the vertices),
and the differential is the classical alternating sum

    (df)(a1,...,a_{n+1}) = a1 f(a2,...) + sum_k (-1)^k f(..., a_k a_{k+1}, ...)
                           + (-1)^{n+1} f(a1,...,a_n) a_{n+1}

with all products reduced in the algebra.  Tuples are written in function
order, so the composite of (a1, ..., an) traverses a_n first.

A pair is (tuple, value) in basis indices of the algebra, and a pair's
row is placed by the algebra's ``parallel`` and ``position``.  The
products a column reads come from concatenating basis words here, once
per algebra and reused in every degree; the algebra's product table is
not read, so the oracle shares only the numbering of the basis.  Only
ranks are computed: dim HH^n = |C^n| − rank δ^n − rank δ^{n−1}.

Spaces grow fast; everything takes a pair budget and raises BudgetExceeded
with the last degree that finished.
"""

import functools

from .errors import BudgetExceeded
from .linalg import SparseMatrix, rank

DEFAULT_PAIR_BUDGET = 150_000


@functools.lru_cache(maxsize=1)  # one algebra at a time, read in all its degrees
def _products(algebra):
    """The products the bar differential reads, by concatenating basis words.

    ``after[b]`` and ``before[b]`` are the nonzero products b·x and x·b,
    x nontrivial, as (x, product); ``splits[p]`` the (u, v) with p = u·v.
    The oracle shares the algebra's numbering of the basis, not its
    product table.
    """
    words, word_index, source, target = algebra.words, algebra.word_index, algebra.source, algebra.target
    basis = range(algebra.dim)
    nontrivial = basis[algebra.quiver.n_vertices :]  # vertex v is index v
    after = [
        [(x, word_index[w]) for x in nontrivial if source[x] == target[b] and (w := words[b] + words[x]) in word_index]
        for b in basis
    ]
    before = [
        [(x, word_index[w]) for x in nontrivial if target[x] == source[b] and (w := words[x] + words[b]) in word_index]
        for b in basis
    ]
    splits = [[(word_index[w[c:]], word_index[w[:c]]) for c in range(1, len(w))] for w in words]
    return after, before, splits


def bar_pairs(algebra, n, budget=DEFAULT_PAIR_BUDGET):
    """Cochain basis in degree n: (tuple, value) in basis indices, with matching endpoints.

    The composable n-tuples of nontrivial basis paths come in lexicographic
    order and each value list in basis order, so the pairs are already
    sorted by (tuple, value).
    """
    source, target, parallel = algebra.source, algebra.target, algebra.parallel
    nontrivial = range(algebra.quiver.n_vertices, algebra.dim)  # vertex v is index v
    ending = [[x for x in nontrivial if target[x] == v] for v in range(algebra.quiver.n_vertices)]
    tuples = [()]
    for _ in range(n):
        nxt = []
        for t in tuples:
            nxt.extend(t + (y,) for y in (ending[source[t[-1]]] if t else nontrivial))
            if len(nxt) > budget:
                raise BudgetExceeded(-1, "tuple count passed %d" % budget)
        tuples = nxt
    loops = [b for b in range(algebra.dim) if source[b] == target[b]]
    pairs = [(t, b) for t in tuples for b in (parallel[source[t[-1]], target[t[0]]] if t else loops)]
    if len(pairs) > budget:
        raise BudgetExceeded(-1, "pair count passed %d" % budget)
    return pairs


def bar_differential_matrix(algebra, pairs_lo, pairs_hi):
    """Columns: degree-n pairs; rows: degree-(n+1) pairs; integer entries, for every field.

    Row of (t, v): the row of t's first pair plus v's place in ``parallel``,
    so a tuple's pairs must be adjacent (asserted).  The inner faces of (t, b)
    merge adjacent pieces of t and keep b, so their rows less ``place[b]``
    are read once per tuple.
    """
    place = algebra.position
    after, before, splits = _products(algebra)
    first = {}
    t_prev = None
    for i, (t, _) in enumerate(pairs_hi):
        if t != t_prev:
            assert t not in first, "the pairs of a tuple are not adjacent"
            first[t] = i
            t_prev = t
    cols = []
    t_prev = None
    for t, b in pairs_lo:
        if t != t_prev:
            t_prev = t
            sign = 1 if len(t) % 2 else -1
            inner = [
                (first[t[:k] + split + t[k + 1 :]], 1 if k % 2 else -1)
                for k, piece in enumerate(t)
                for split in splits[piece]
            ]
        col = {}
        for x, v in after[b]:
            r = first[(x,) + t] + place[v]
            col[r] = col.get(r, 0) + 1
        for x, v in before[b]:
            r = first[t + (x,)] + place[v]
            col[r] = col.get(r, 0) + sign
        p = place[b]
        for r, c in inner:
            r += p
            col[r] = col.get(r, 0) + c
        cols.append({r: c for r, c in col.items() if c})
    return SparseMatrix(len(pairs_hi), len(pairs_lo), tuple(cols))


def bar_hh_dimensions(algebra, max_degree, budget=DEFAULT_PAIR_BUDGET):
    """dim HH^n for n = 0..max_degree, computed on the reduced bar complex."""
    dims = []
    try:
        pairs = bar_pairs(algebra, 0, budget)
        prev_rank = 0
        for n in range(max_degree + 1):
            pairs_hi = bar_pairs(algebra, n + 1, budget)
            r = rank(algebra.field, bar_differential_matrix(algebra, pairs, pairs_hi))
            dims.append(len(pairs) - r - prev_rank)
            assert dims[-1] >= 0
            prev_rank = r
            pairs = pairs_hi
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            len(dims) - 1, "budget ran out; finished degree %d" % (len(dims) - 1)
        ) from exc
    return dims
