"""Brute-force Hochschild cohomology via the vertex-relative reduced bar complex.

This is a deliberately independent route: nothing here touches the ambiguity
machinery.  Cochains in degree n assign algebra elements to composable
n-tuples of nontrivial basis paths (tensored over the span of the vertices),
and the differential is the classical alternating sum

    (df)(a1,...,a_{n+1}) = a1 f(a2,...) + sum_k (-1)^k f(..., a_k a_{k+1}, ...)
                           + (-1)^{n+1} f(a1,...,a_n) a_{n+1}

with all products reduced in the algebra.  Tuples are written in function
order, so the composite of (a1, ..., an) traverses a_n first.

Spaces grow fast; everything takes a pair budget and raises BudgetExceeded
with the last degree that finished.
"""

from .errors import BudgetExceeded
from .linalg import SparseMatrix, kernel_basis

DEFAULT_PAIR_BUDGET = 150_000


def bar_tuples(algebra, n, budget=DEFAULT_PAIR_BUDGET):
    """Composable n-tuples of nontrivial basis paths, lexicographic order."""
    assert n >= 0
    if n == 0:
        return [()]
    base = algebra.nontrivial_basis
    tuples = [(p,) for p in base]
    for _ in range(n - 1):
        nxt = []
        for t in tuples:
            for y in base:
                if t[-1].source == y.target:
                    nxt.append(t + (y,))
            if len(nxt) > budget:
                raise BudgetExceeded(-1, "tuple count passed %d" % budget)
        tuples = nxt
    return tuples


def bar_pairs(algebra, n, budget=DEFAULT_PAIR_BUDGET):
    """Cochain basis in degree n: (tuple, value) with matching endpoints.

    The tuples come in lexicographic order and each value list in basis
    order, so the pairs are already sorted by (tuple, value).
    """
    pairs = []
    for t in bar_tuples(algebra, n, budget):
        if t:
            values = algebra.parallel[(t[-1].source, t[0].target)]
        else:
            values = [b for b in algebra.basis if b.source == b.target]
        pairs.extend((t, b) for b in values)
    if len(pairs) > budget:
        raise BudgetExceeded(-1, "pair count passed %d" % budget)
    return pairs


def _column_terms(algebra, t, b):
    """Rows hit by the differential of the indicator cochain at (t, b)."""
    n = len(t)
    out = {}

    def bump(key, c):
        cur = out.get(key, 0) + c
        if cur:
            out[key] = cur
        else:
            del out[key]

    left_anchor = t[0].target if t else b.target
    right_anchor = t[-1].source if t else b.source
    for x in algebra.nontrivial_basis:
        if x.source == left_anchor:
            val = algebra.reduce_concat(b, x)
            if val is not None:
                bump(((x,) + t, val), 1)
        if x.target == right_anchor:
            val = algebra.reduce_concat(x, b)
            if val is not None:
                bump((t + (x,), val), -1 if n % 2 == 0 else 1)
    for k in range(1, n + 1):
        piece = t[k - 1]
        sign = -1 if k % 2 else 1
        for c in range(1, len(piece)):
            u = piece.segment(c, len(piece))
            v = piece.segment(0, c)
            s = t[: k - 1] + (u, v) + t[k:]
            bump((s, b), sign)
    return out


def bar_differential_matrix(algebra, pairs_lo, pairs_hi):
    """Columns: degree-n pairs; rows: degree-(n+1) pairs; integer entries, for every field."""
    index = {key: i for i, key in enumerate(pairs_hi)}
    cols = []
    for t, b in pairs_lo:
        col = {}
        for key, c in _column_terms(algebra, t, b).items():
            assert key in index, "differential left the cochain basis"
            col[index[key]] = c
        cols.append(col)
    return SparseMatrix(len(pairs_hi), len(pairs_lo), tuple(cols))


def bar_hh_dimensions(algebra, max_degree, budget=DEFAULT_PAIR_BUDGET):
    """dim HH^n for n = 0..max_degree, computed on the reduced bar complex."""
    field = algebra.field
    dims = []
    try:
        pairs = bar_pairs(algebra, 0, budget)
        prev_rank = 0
        for n in range(max_degree + 1):
            pairs_hi = bar_pairs(algebra, n + 1, budget)
            mat = bar_differential_matrix(algebra, pairs, pairs_hi)
            ker = len(kernel_basis(field, mat))
            assert prev_rank <= ker
            dims.append(ker - prev_rank)
            # rank-nullity, which kernel_basis asserts
            prev_rank = mat.ncols - ker
            pairs = pairs_hi
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            len(dims) - 1, "budget ran out; finished degree %d" % (len(dims) - 1)
        ) from exc
    return dims
