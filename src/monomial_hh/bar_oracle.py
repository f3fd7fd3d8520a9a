"""Brute-force Hochschild cohomology via the vertex-relative reduced bar complex.

This is a deliberately independent route: nothing here touches the ambiguity
machinery.  Cochains in degree n assign algebra elements to composable
n-tuples of nontrivial basis paths (tensored over the span of the vertices),
and the differential is the classical alternating sum

    (df)(a1,...,a_{n+1}) = a1 f(a2,...) + sum_k (-1)^k f(..., a_k a_{k+1}, ...)
                           + (-1)^{n+1} f(a1,...,a_n) a_{n+1}

with all products reduced in the algebra.  Tuples are written in function
order, so the composite of (a1, ..., an) traverses a_n first.

A pair is (tuple, value) in basis indices of the algebra.  A degree is
held per tuple, as a ``BarBasis``: its tuples, each tuple's values (the
algebra's ``parallel`` tuple at the tuple's ends) and each tuple's first
row, so the row of (t, v) is ``first[t] + place[v]``, v's ``position``
in ``parallel``; no list of pairs is built.  The
products a column reads come from concatenating basis words here, once
per algebra and reused in every degree; the algebra's product table is
not read, so the oracle shares only the numbering of the basis.  Only
ranks are computed: dim HH^n = |C^n| − rank δ^n − rank δ^{n−1}.  Each is
one count-only ``linalg.rank`` pass, which reduces leading entries only
and clears: δ^n δ^{n−1} = 0, so the columns of δ^n at the pivots of
im δ^{n−1} lie in the span of the others and are skipped, and degree n
eliminates |C^n| − rank δ^{n−1} columns, of which dim HH^n are dependent.

Spaces grow fast; everything takes a pair budget and raises BudgetExceeded
with the last degree that finished.  ``bar_sizes`` counts a degree's
tuples and pairs from the path counts without building it, so
``degree_within_budget`` finds the deepest degree that fits before any
work.
"""

import functools
from collections import Counter

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


class BarBasis:
    """The cochain basis of one degree, held per tuple.

    ``tuples`` are the composable n-tuples in lexicographic order,
    ``values[i]`` the basis indices parallel to ``tuples[i]`` in basis
    order (the algebra's own ``parallel`` tuple, not a copy; degree 0 is
    the one empty tuple with every loop), and ``first[t]`` the row of t's
    first pair.  The pairs are (t, v) in that order, so at degree n > 0 the
    row of (t, v) is ``first[t] + place[v]``; ``len`` is the number of
    pairs.
    """

    __slots__ = ("tuples", "values", "first", "size")

    def __init__(self, tuples, values):
        self.tuples = tuples
        self.values = values
        self.first = first = {}
        size = 0
        for t, vals in zip(tuples, values):
            assert t not in first, "a tuple is listed twice"
            first[t] = size
            size += len(vals)
        self.size = size

    def __len__(self):
        return self.size


def bar_pairs(algebra, n, budget=DEFAULT_PAIR_BUDGET):
    """Cochain basis in degree n, held per tuple as a ``BarBasis``.

    Its pairs are (tuple, value) in basis indices with matching endpoints:
    the composable n-tuples of nontrivial basis paths in lexicographic
    order, each with its parallel values in basis order, so the pairs are
    sorted by (tuple, value).  No list of the pairs is built.
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
    if n:
        values = [parallel[source[t[-1]], target[t[0]]] for t in tuples]
    else:
        values = [tuple(b for b in range(algebra.dim) if source[b] == target[b])]
    basis = BarBasis(tuples, values)
    if len(basis) > budget:
        raise BudgetExceeded(-1, "pair count passed %d" % budget)
    return basis


def bar_sizes(algebra, top):
    """(tuples, pairs) of ``bar_pairs`` in degrees 0..top, counted without building them.

    A composable n-tuple is a chain of n nontrivial basis paths.  The
    tuples are counted by their ends (s, t), extended as ``bar_pairs``
    extends them, by one path into s, and each has |parallel(s, t)| values.
    """
    source, target, parallel = algebra.source, algebra.target, algebra.parallel
    vertices = range(algebra.quiver.n_vertices)
    nontrivial = range(len(vertices), algebra.dim)  # vertex v is index v
    into = [Counter() for _ in vertices]  # into[s][u]: the nontrivial basis paths from u to s
    for b in nontrivial:
        into[target[b]][source[b]] += 1
    ends = Counter((source[b], target[b]) for b in nontrivial)  # degree 1, by (s, t)
    sizes = [(1, sum(len(parallel[v, v]) for v in vertices))]
    for n in range(1, top + 1):
        if n > 1:
            longer = Counter()
            for (s, t), k in ends.items():
                for u, m in into[s].items():
                    longer[u, t] += k * m
            ends = longer
        sizes.append((sum(ends.values()), sum(k * len(parallel[st]) for st, k in ends.items())))
    return sizes


def degree_within_budget(algebra, max_degree, budget=DEFAULT_PAIR_BUDGET):
    """(top, note): the largest degree ≤ max_degree whose ``bar_hh_dimensions`` fits the budget.

    Degree n builds the bar degrees up to n + 1, and ``bar_pairs`` refuses
    one whose tuples or pairs pass the budget, so ``bar_sizes`` tells in
    advance.  note is empty when top is max_degree; else it names the first
    bar degree that does not fit, and top is −1 when not even degree 0 does.
    """
    for n, (tuples, pairs) in enumerate(bar_sizes(algebra, max_degree + 1)):
        if pairs > budget or tuples > budget:
            over = "%d pairs" % pairs if pairs > budget else "%d tuples" % tuples
            return max(n - 2, -1), "bar degree %d has %s > %d" % (n, over, budget)
    return max_degree, ""


def bar_differential_matrix(algebra, lo, hi):
    """Columns: degree-n pairs of lo; rows: degree-(n+1) pairs of hi; integer entries, for every field.

    The row of (t, v) is ``hi.first[t] + place[v]``, v's place in
    ``parallel``.  The inner faces of (t, b) merge adjacent pieces of t and
    keep b, so their rows less ``place[b]`` are read once per tuple.  An
    entry that cancels to zero is dropped at once.
    """
    place = algebra.position
    after, before, splits = _products(algebra)
    first = hi.first
    cols = []
    for t, values in zip(lo.tuples, lo.values):
        sign = 1 if len(t) % 2 else -1
        inner = [
            (first[t[:k] + split + t[k + 1 :]], 1 if k % 2 else -1)
            for k, piece in enumerate(t)
            for split in splits[piece]
        ]
        for b in values:
            col = {}
            get = col.get
            for x, v in after[b]:
                r = first[(x,) + t] + place[v]
                if c := get(r, 0) + 1:
                    col[r] = c
                else:
                    del col[r]
            for x, v in before[b]:
                r = first[t + (x,)] + place[v]
                if c := get(r, 0) + sign:
                    col[r] = c
                else:
                    del col[r]
            p = place[b]
            for r, e in inner:
                r += p
                if c := get(r, 0) + e:
                    col[r] = c
                else:
                    del col[r]
            cols.append(col)
    return SparseMatrix(len(hi), len(lo), tuple(cols))


def bar_hh_dimensions(algebra, max_degree, budget=DEFAULT_PAIR_BUDGET):
    """dim HH^n for n = 0..max_degree, computed on the reduced bar complex."""
    dims = []
    try:
        lo = bar_pairs(algebra, 0, budget)
        prev_rank = 0
        cleared = ()  # the pivots of im δ^{n−1}, columns of δ^n
        for n in range(max_degree + 1):
            hi = bar_pairs(algebra, n + 1, budget)
            pivots = set()
            r = rank(algebra.field, bar_differential_matrix(algebra, lo, hi), cleared, pivots)
            dims.append(len(lo) - r - prev_rank)
            assert dims[-1] >= 0
            prev_rank = r
            lo, cleared = hi, pivots
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            len(dims) - 1, "budget ran out; finished degree %d" % (len(dims) - 1)
        ) from exc
    return dims
