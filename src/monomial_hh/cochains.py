"""Hochschild cochains on parallel pairs, their differentials, and cohomology.

A degree-m cochain assigns scalars to pairs (p, b) with p an ambiguity of
degree m-1 and b the basis index of a parallel path (``words[b]`` from
``source[b]`` to ``target[b]``).
The pairs of degree m run ambiguity by ambiguity, each ambiguity's block
in the order of its ``parallel`` tuple, so a pair's index is its
ambiguity's offset plus ``algebra.position[b]`` (0 for a trivial b, which
comes first).  A cochain is the vector {pair index: scalar}, without
zeros; a vector carries no degree, so every function that takes one is
also given its degree, or the space it lives in.  Cochain sums run on
plain numbers, and the field's ``normal`` puts each cochain a function
returns in the field.  This module is the one place that decides how a
pair is indexed.  Each degree's offsets are memoized per table, and no
list of pairs is built: ``display_vector`` finds the pair of an index by
bisection over its degree's offsets.

``_columns(table, m)`` is the one builder of δ^m.  It walks q in Γ_m and
reads q's own faces, as the resolution's d does (Bardzell, J. Algebra 188,
1997): the two truncations, head (+1) and tail (−1), in even m, and the
positioned divisors of degree m−1 (+1) in odd m, which ``table.sub``
reads off the links; no word of q is scanned against all of Γ_{m−1}.
The product pre·b·post of a face depends only on its class (pre, post,
source, target), so the table memoizes per class which b give a nonzero
product and where it lands, and a face adds one entry per hit to the
columns of its pairs.

One per-degree store holds δ^m once a caller has applied it:
``cochain_differential`` and the check rows read it, so the battery
builds each δ^m once.  ``differential_matrix`` reads the store when a row
has filled it and otherwise builds δ^m without storing it, so ``hh``
holds one matrix at a time; ``hochschild_cohomology`` certifies its
representatives with the δ^m it built, so ``cup`` builds each δ^m once.
The columns are shared, so no caller may mutate one.
``differential_via_resolution``, an independent route that reads no
face class, gives the same map by composing with the resolution's d.

A space, a ``CohomologySpace`` (a plain ``__slots__`` object), holds its
cocycles and its representatives as tuples in which each unit vector e_j
is the index j, an ``int``, and every other vector a dict: nearly all of
them are unit vectors, so ``hh`` builds no dict for one.
``class_vector`` reads a class at the representatives' pivots and
eliminates nothing.
"""

from bisect import bisect_right

from .ambiguities import memoized
from .errors import NotACocycle
from .linalg import RowBasis, SparseMatrix, kernel_basis, quotient_basis
from .resolution import boundary


@memoized
def _offsets(table, degree):
    """(offsets, number of pairs, starts) for degree m: offsets maps each
    ambiguity of degree m-1 to the index of its first pair, and starts lists
    those indices in Γ_{m-1} order.  The pair (amb, b) has index
    ``offsets[amb] + algebra.position[b]``.  Reads only Γ_{m-1} and the
    ``parallel`` counts, never the pairs themselves; computed once per table."""
    parallel = table.algebra.parallel
    offsets = {}
    n = 0
    for amb in table.degree(degree - 1):
        offsets[amb] = n
        n += len(parallel[(amb.source, amb.target)])
    return offsets, n, list(offsets.values())


def display_vector(table, m, vecs, words):
    """The texts ``hh`` prints for the degree-m cochains vecs (a list, of one for
    one vector): ``coeff [ambiguity || path]`` terms in pair order, or ``0``.  A
    vector may be the index j of e_j, as a space holds it.  The pair (amb, b)
    of index i has amb the last ambiguity whose first index is at most i (one
    with no pair shares its first index with the next), and b at place i minus
    that index in amb's ``parallel`` tuple.  ``words`` caches the written word
    of each ambiguity and basis index met, across calls."""
    algebra = table.algebra
    word, parallel = algebra.quiver.word, algebra.parallel
    ambs, starts = table.degree(m - 1), _offsets(table, m)[2]
    texts = []
    for vec in vecs:
        bits = []
        for i, c in ((vec, 1),) if type(vec) is int else sorted(vec.items()):
            k = bisect_right(starts, i) - 1
            amb = ambs[k]
            b = parallel[(amb.source, amb.target)][i - starts[k]]
            amb_word = words.get(amb)
            if amb_word is None:
                amb_word = words[amb] = word(amb.arrows, amb.source)
            b_word = words.get(b)
            if b_word is None:
                b_word = words[b] = word(algebra.words[b], algebra.source[b])
            bits.append("%s [%s || %s]" % (c, amb_word, b_word))
        texts.append(" + ".join(bits) if bits else "0")
    return texts


def _columns(table, m):
    """The columns of δ^m, one per degree-m pair, in pair order: {row: n}, integer, no zeros.

    δ(p, b) = Σ sign · (q, pre·b·post) over the faces (p, k, sign) of each
    q in Γ_m, with p at position k of q, pre = q[:k] and
    post = q[k+len(p):], and over the products that are nonzero in A.  The
    odd faces are ``table.sub(q)``, not read from ``boundary``'s memo, so
    the resolution route keeps its own reading of them.  A
    column gets its entries in Γ_m order, then by position.  The products
    depend only on the face class (pre, post, p.source, p.target), not on
    q or b: ``_face_class`` gives the (place of b, position of pre·b·post)
    of the nonzero ones, and a face adds q's row offset plus that position
    to the column of each b its class reaches.  pre·b·post is never the
    empty word: q strictly contains p.
    """
    col_offsets, ncols, _ = _offsets(table, m)
    row_offsets = _offsets(table, m + 1)[0]
    classes = table.memo("cochains._face_class")
    sub = table.sub
    odd = m % 2
    cols = [{} for _ in range(ncols)]
    for q in table.degree(m):
        arrows = q.arrows
        if odd:
            faces = [(p, k, 1) for p, k in sub(q)]
        else:
            head, tail = q.head, q.tail
            faces = ((head, 0, 1), (tail, len(arrows) - len(tail.arrows), -1))
        row = row_offsets[q]
        for p, k, sign in faces:
            key = (arrows[:k], arrows[k + len(p.arrows) :], p.source, p.target)
            hits = classes.get(key)
            if hits is None:
                hits = _face_class(table, key)
            first = col_offsets[p]
            for place, i in hits:
                col = cols[first + place]
                i += row
                c = col.get(i, 0) + sign
                # a row of q is reached by q's faces alone, so an entry that
                # cancels (only in even m) is never added again
                if c:
                    col[i] = c
                else:
                    del col[i]
    return cols


@memoized
def _face_class(table, key):
    """((place of b, position of pre·b·post), ...) over the b parallel to the face
    whose product is nonzero; key = (pre, post, source, target).  Computed once
    per table."""
    pre, post, source, target = key
    algebra = table.algebra
    words, word_index, position = algebra.words, algebra.word_index, algebra.position
    hits = []
    for place, b in enumerate(algebra.parallel[(source, target)]):
        i = word_index.get(pre + words[b] + post)
        if i is not None:
            hits.append((place, position[i]))
    return tuple(hits)


@memoized
def _delta(table, m):
    """The columns of δ^m, the store that ``cochain_differential`` and the
    check rows read; computed once per table."""
    return _columns(table, m)


def differential_matrix(table, m):
    """Columns: degree-m pairs; rows: degree-(m+1) pairs; integer entries, for every field.

    δ^m is read from the store if a row has filled it; otherwise it is
    built and not stored.
    """
    cols = table.memo("cochains._delta").get(m)
    if cols is None:
        cols = _columns(table, m)
    return SparseMatrix(_offsets(table, m + 1)[1], len(cols), tuple(cols))


def cochain_differential(table, m, vec):
    """δ^m of the degree-m cochain vec, a cochain of degree m+1.

    δ^m is stored once per table (module docstring).  The zero cochain
    reads nothing, so it builds no δ^m that a term would not.
    """
    if not vec:
        return {}
    cols = _delta(table, m)
    return _sum_columns(table.algebra.field, ((c, cols[j]) for j, c in vec.items()))


def _sum_columns(field, terms):
    """Σ c·col over the (c, col) of terms, with native + and *; the field's ``normal`` puts it in the field."""
    out = {}
    get = out.get
    for c, col in terms:
        for i, n in col.items():
            out[i] = get(i, 0) + c * n
    return field.normal(out)


def differential_via_resolution(table, m):
    """δ^m as Hom(d, A), independent of the direct formula.

    Returns the integer SparseMatrix of ``differential_matrix``, rows and
    columns in its order: each term n·(pre, r, post) of the resolution
    differential of q in Γ_m sends every pair (r, b) to n·(q, pre·b·post)
    when that product is nonzero.  Each generator's differential is read
    from ``resolution.boundary``, which computes it once per table; no
    ``_face_class`` is read.
    """
    algebra = table.algebra
    mul, parallel, position = algebra.mul, algebra.parallel, algebra.position
    col_offsets, ncols, _ = _offsets(table, m)
    row_offsets, nrows, _ = _offsets(table, m + 1)
    cols = [{} for _ in range(ncols)]
    for q in table.degree(m):
        row = row_offsets[q]
        for (pre, r, post), n in boundary(table, q).terms.items():
            for j, b in enumerate(parallel[(r.source, r.target)], col_offsets[r]):
                value = mul(pre, b)
                if value is not None:
                    value = mul(value, post)
                if value is not None:
                    i = row + position[value]
                    cols[j][i] = cols[j].get(i, 0) + n
    return SparseMatrix(nrows, ncols, tuple({i: n for i, n in col.items() if n} for col in cols))


class CohomologySpace:
    """HH^m: ``cocycles`` are the kernel vectors of δ^m, ``coboundaries`` the
    echelon rows of im δ^{m-1}; its dimension is the number of
    ``representatives``.

    The cocycles and the representatives are each a tuple in list order: a
    unit vector e_j is held as the ``int`` j, any other vector as a dict.
    ``_reader``, made on the first class read, is [{pivot: representative
    index}, the coboundary ``RowBasis`` once one is needed], each space's
    own.  A space is an object, not a value: it compares by identity.
    """

    __slots__ = ("degree", "cocycles", "coboundaries", "representatives", "_reader")

    def __init__(self, degree, cocycles, coboundaries, representatives):
        self.degree = degree
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.representatives = representatives
        self._reader = None

    def rep_cochains(self, table, what):
        """The representatives, as certified; ``table`` and ``what`` are not read."""
        return self.representatives

    @property
    def dimension(self):
        return len(self.representatives)


def hochschild_cohomology(table, max_degree):
    """CohomologySpace per degree 0..max_degree, with canonical representatives; NotACocycle if one is not a cocycle.

    One pass per degree, holding one matrix: the kernel pass of δ^m gives
    the cocycles and hands back the echelon rows of im δ^m, which seed the
    quotient of degree m+1, so the image is eliminated once.  Of δ^m only
    the columns nonzero in the field on the cocycles' support outlive it.
    """
    assert max_degree >= 0
    field = table.algebra.field
    spaces = []
    image = []  # im δ^{-1} = 0
    for m in range(max_degree + 1):
        following = [] if m < max_degree else None  # no space reads im δ^max_degree
        matrix = differential_matrix(table, m)
        kernel = kernel_basis(field, matrix, following)
        # the support columns nonzero in the field: a unit kernel vector's column is zero there
        vectors = [v for v in kernel if type(v) is not int]
        held = {j: matrix.cols[j] for v in vectors for j in v}
        matrix = None  # only the held columns outlive the kernel pass
        space = CohomologySpace(m, kernel, image, quotient_basis(field, kernel, image))
        support = {x for x in kernel if type(x) is int}.union(*vectors)  # built once the quotient's rows are freed
        for x in space.representatives:
            # every cocycle lies on the support, so an index off it is refused,
            # not read as zero; a unit e_p is a cocycle exactly when p is not held
            if type(x) is int:
                ok = x in support and x not in held
            else:
                ok = support.issuperset(x) and not (held and _sum_columns(field, ((x[j], held[j]) for j in held.keys() & x)))
            if not ok:
                text = display_vector(table, m, [x], {})[0]
                raise NotACocycle("HH^%d representative is not a cocycle: %s" % (m, text))
        spaces.append(space)
        image = following
        support = held = vectors = None  # not held while the next δ is built
    return spaces


def _reader(space):
    """The space's reader (``CohomologySpace``); a unit e_p has the pivot p, a dict its smallest index."""
    if space._reader is None:
        space._reader = [{x if type(x) is int else min(x): a for a, x in enumerate(space.representatives)}, None]
    return space._reader


def coboundary_basis(space, field):
    """The space's coboundary rows as a ``RowBasis``, made on first need: ``class_vector``
    reduces modulo it, and ``cup.check_cup_closure`` tests membership in it."""
    reader = _reader(space)
    if reader[1] is None:
        reader[1] = RowBasis(field, seed=space.coboundaries)
    return reader[1]


def class_vector(space, table, vec):
    """Coefficients of vec's class over space.representatives; NotACocycle if not one.

    vec is a cochain of the space's degree (a vector carries no degree).  The
    representatives r_a are the reduced-echelon completion of the coboundary
    rows (``quotient_basis``): r_a is zero at every other r_b's pivot p_b and
    at every coboundary pivot.  So a cocycle z = b + Σ c_a·r_a, b a
    coboundary, with b = 0 reads c_a = z[p_a] / r_a[p_a] and leaves no
    remainder z − Σ c_a·r_a.  With b ≠ 0, z has an entry at the image pivot
    min(b), which no r_a covers, so the read leaves a remainder, and z is read
    again reduced modulo the coboundaries, which leaves Σ c_a·r_a.
    Coboundaries and representatives span exactly the cocycles
    (``kernel_basis`` asserts rank + nullity, ``quotient_basis`` im ⊆ ker,
    ``hochschild_cohomology`` that each representative is a cocycle), so a
    remainder then means vec is no cocycle.  No read eliminates anything.
    """
    field, reps = table.algebra.field, space.representatives
    pivots = _reader(space)[0]
    for reduced in (False, True):
        z = coboundary_basis(space, field).reduce_mod(vec) if reduced else vec
        sol, rest = {}, {}  # the c_a, and z − Σ c_a·r_a off the pivots
        for i, c in z.items():
            a = pivots.get(i)
            if a is None:
                rest[i] = rest.get(i, 0) + c
                continue
            x = reps[a]
            if type(x) is not int:
                if x[i] != 1:
                    c = field.from_row({a: c}, x[i])[a]
                for j, v in x.items():
                    if j != i:
                        rest[j] = rest.get(j, 0) - c * v
            sol[a] = c
        if not (rest and field.normal(rest)):
            return sol
    raise NotACocycle("not killed by the differential: " + display_vector(table, space.degree, [vec], {})[0])


def check_partial_squared(table, max_degree):
    """δ^{m+1} kills each column of δ^m, m = 0..max_degree."""
    for m in range(0, max_degree + 1):
        for j, col in enumerate(_delta(table, m)):
            assert not cochain_differential(table, m + 1, col), "partial^2 != 0 at %s" % display_vector(table, m, [j], {})[0]


def check_differential_routes_agree(table, max_degree):
    """The direct δ^m and ``differential_via_resolution`` agree column by column."""
    for m in range(0, max_degree + 1):
        via = differential_via_resolution(table, m).cols
        for j, col in enumerate(_delta(table, m)):
            assert col == via[j], "differential routes disagree at %s" % display_vector(table, m, [j], {})[0]
