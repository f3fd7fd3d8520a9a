"""Hochschild cochains on parallel pairs, their differentials, and cohomology.

A degree-m cochain assigns scalars to pairs (p, b) with p an ambiguity of
degree m-1 and b the basis index of a parallel path (``words[b]`` from
``source[b]`` to ``target[b]``).
The pairs of degree m run ambiguity by ambiguity, each ambiguity's block
in the order of its ``parallel`` tuple, so a pair's index is its
ambiguity's offset plus ``algebra.position[b]`` (0 for a trivial b, which
comes first).  A cochain is the vector {index in ``pair_basis(table, m)``:
scalar}, without zeros; a vector carries no degree, so every function
that takes one is also given its degree, or the space it lives in.  This
module is the one place that decides how a pair is indexed.  Each degree's
offsets and, where a space needs them, its pairs are memoized per table.

``_columns`` is the one builder of δ columns.  It assembles δ per face
class: the product pre·b·post of a face depends only on the face's
(pre, post) and the ambiguity's endpoints, so the table memoizes per class
which b give a nonzero product and where it lands, and a column adds one
entry per hit, not one lookup per face and b.  ``cochain_differential``
memoizes, per ambiguity it meets, the columns of all that ambiguity's
pairs, so the battery rows that apply δ (∂² = 0, the cup closure, the
cocycle certificates) share one build; ``check_partial_squared``, the
first row that reads δ^0, memoizes the vertices' columns, which no row
applies to a vector before the cup closure.  Matrix assembly reads the
columns already memoized and builds the rest without storing them: ``hh``
keeps one matrix at a time.  The columns are shared, so no caller may
mutate one.

The differential of a pair reads the cofaces of its ambiguity from the
table's incidence index (truncations in even output degree, positioned
divisors in odd), mirroring the resolution differential;
`differential_via_resolution` computes the same map, one degree at a
time, by composing with the resolution's d, and is kept as an
independent route: it reads no face class.
"""

from dataclasses import dataclass, field as dc_field

from .ambiguities import declare, memoized
from .errors import NotACocycle
from .linalg import RowBasis, SparseMatrix, kernel_basis, quotient_basis
from .resolution import boundary

_CLASSES = declare("cochains._classes")  # (pre, post, source, target) -> its nonzero products, see _columns
_DELTA = declare("cochains._delta")  # ambiguity -> its pairs' δ columns; filled by cochain_differential, check_partial_squared


@memoized
def pair_basis(table, degree):
    """Ordered (ambiguity, parallel basis index) pairs spanning degree-m cochains.

    Γ_{m-1} and every ``algebra.parallel`` tuple are sorted by path, so the
    nested loop already yields the pairs sorted by ambiguity, then by b.  A
    tuple, computed once per table.
    """
    assert degree >= 0
    parallel = table.algebra.parallel
    return tuple((amb, b) for amb in table.degree(degree - 1) for b in parallel[(amb.source, amb.target)])


@memoized
def _offsets(table, degree):
    """({ambiguity of degree m-1: index of its first pair}, number of pairs) for degree m.

    Reads only Γ_{m-1} and the ``parallel`` counts, never the pairs
    themselves; computed once per table.  The pair (amb, b) has index
    ``offsets[amb] + algebra.position[b]``.
    """
    parallel = table.algebra.parallel
    offsets = {}
    n = 0
    for amb in table.degree(degree - 1):
        offsets[amb] = n
        n += len(parallel[(amb.source, amb.target)])
    return offsets, n


def display_vector(algebra, pairs, vec, words):
    """The text ``hh`` prints for Σ vec[i]·pairs[i]: ``coeff [ambiguity || path]``
    terms in pair order, or ``0``.  ``words`` caches the written word of each
    ambiguity and basis index met, across calls."""
    word = algebra.quiver.word
    bits = []
    for i, c in sorted(vec.items()):
        amb, b = pairs[i]
        amb_word = words.get(amb)
        if amb_word is None:
            amb_word = words[amb] = word(amb.arrows, amb.source)
        b_word = words.get(b)
        if b_word is None:
            b_word = words[b] = word(algebra.words[b], algebra.source[b])
        bits.append("%s [%s || %s]" % (c, amb_word, b_word))
    return " + ".join(bits) if bits else "0"


def _columns(table, amb, offsets):
    """The columns of δ at every pair (amb, b), in pair order: {row: n}, integer, no zeros.

    δ(amb, b) = Σ sign · (q, pre·b·post) over the cofaces q of amb, with amb
    at position k of q, pre = q[:k] and post = q[k+len(amb):], and over the
    products that are nonzero in A; ``offsets`` are those of the next
    degree, whose pairs are the rows.  The products depend only on the face
    class (pre, post, amb.source, amb.target), not on q or b, so the table
    memoizes per class the (place of b, position of pre·b·post) of the
    nonzero ones, and a face adds q's offset plus that position to the
    column of each b its class reaches.  pre·b·post is never the empty
    word: q strictly contains amb.
    """
    algebra = table.algebra
    source, target = amb.source, amb.target
    bs = algebra.parallel[(source, target)]
    classes = table.memo(_CLASSES)
    length = len(amb.arrows)
    n = amb.degree + 1
    cols = [{} for _ in bs]
    for q, k, sign in table.cofaces(n).get(amb, ()):
        arrows = q.arrows
        key = (arrows[:k], arrows[k + length :], source, target)
        hits = classes.get(key)
        if hits is None:
            hits = classes[key] = _face_class(algebra, key[0], key[1], bs)
        offset = offsets[q]
        for place, i in hits:
            col = cols[place]
            i += offset
            col[i] = col.get(i, 0) + sign
    if n % 2:
        return cols  # an odd coface has sign +1, so nothing cancels
    return [{i: c for i, c in col.items() if c} for col in cols]


def _face_class(algebra, pre, post, bs):
    """((place of b in bs, position of pre·b·post), ...) over the b whose product is nonzero."""
    words, word_index, position = algebra.words, algebra.word_index, algebra.position
    hits = []
    for place, b in enumerate(bs):
        i = word_index.get(pre + words[b] + post)
        if i is not None:
            hits.append((place, position[i]))
    return tuple(hits)


def _delta_columns(table, m):
    """The columns of δ^m, one per degree-m pair, in pair order.

    An ambiguity whose columns ``cochain_differential`` has memoized is
    read from the table; the others are built and not stored.
    """
    cached = table.memo(_DELTA)
    offsets, _ = _offsets(table, m + 1)
    cols = []
    for amb in table.degree(m - 1):
        amb_cols = cached.get(amb)
        if amb_cols is None:
            amb_cols = _columns(table, amb, offsets)
        cols += amb_cols
    return cols


def differential_matrix(table, m):
    """Columns: degree-m pairs; rows: degree-(m+1) pairs; integer entries, for every field."""
    cols = _delta_columns(table, m)
    return SparseMatrix(_offsets(table, m + 1)[1], len(cols), tuple(cols))


def cochain_differential(table, m, vec):
    """δ^m of the degree-m cochain vec, a cochain of degree m+1.

    Each ambiguity that a term of vec meets has the columns of all its
    pairs computed once per table (module docstring); the
    term adds c·col.  The zero cochain reads nothing, so it builds no Γ_m
    that a term would not.
    """
    if not vec:
        return {}
    algebra = table.algebra
    field, position = algebra.field, algebra.position
    add, mul, zero = field.add, field.mul, field.zero
    pairs = pair_basis(table, m)
    cached = table.memo(_DELTA)
    offsets, _ = _offsets(table, m + 1)
    out = {}
    for j, c in vec.items():
        amb, b = pairs[j]
        amb_cols = cached.get(amb)
        if amb_cols is None:
            amb_cols = cached[amb] = _columns(table, amb, offsets)
        for i, n in amb_cols[position[b]].items():
            out[i] = add(out.get(i, zero), mul(c, n))
    is_zero = field.is_zero
    return {i: c for i, c in out.items() if not is_zero(c)}


def is_cocycle(table, m, vec):
    return not cochain_differential(table, m, vec)


def differential_via_resolution(table, m):
    """δ^m as Hom(d, A), independent of the direct formula.

    Returns the integer SparseMatrix of ``differential_matrix``, rows and
    columns in its order: each term n·(pre, r, post) of the resolution
    differential of q in Γ_m sends every pair (r, b) to n·(q, pre·b·post)
    when that product is nonzero.  Each generator's differential is read
    from ``resolution.boundary``, which computes it once per table; the
    face classes that ``_columns`` memoizes are not read.
    """
    algebra = table.algebra
    mul, parallel, position = algebra.mul, algebra.parallel, algebra.position
    col_offsets, ncols = _offsets(table, m)
    row_offsets, nrows = _offsets(table, m + 1)
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


@dataclass
class CohomologySpace:
    """HH^m: ``cocycles`` are the kernel vectors of δ^m, ``coboundaries`` the
    echelon rows of im δ^{m-1}, both over ``pairs``; its dimension is the
    number of ``representatives``."""

    degree: int
    pairs: tuple
    cocycles: list
    coboundaries: list
    representatives: list
    _solver: object = dc_field(default=None, repr=False, compare=False)
    _certified: bool = dc_field(default=False, repr=False, compare=False)

    def rep_cochains(self, table, what):
        """The representatives, checked to be cocycles on the first call that
        passes and not again; NotACocycle(what) on every call if one is not."""
        if not self._certified:
            for v in self.representatives:
                if not is_cocycle(table, self.degree, v):
                    raise NotACocycle(what)
            self._certified = True
        return self.representatives

    @property
    def dimension(self):
        return len(self.representatives)


def hochschild_cohomology(table, max_degree):
    """CohomologySpace per degree 0..max_degree, with canonical representatives.

    One pass per degree, holding one matrix: the kernel pass of δ^m gives
    the cocycles and hands back the echelon rows of im δ^m, which seed the
    quotient of degree m+1, so the image is eliminated once.
    """
    assert max_degree >= 0
    field = table.algebra.field
    spaces = []
    image = []  # im δ^{-1} = 0
    for m in range(max_degree + 1):
        following = [] if m < max_degree else None  # no space reads im δ^max_degree
        kernel = kernel_basis(field, differential_matrix(table, m), following)
        spaces.append(
            CohomologySpace(
                degree=m,
                pairs=pair_basis(table, m),
                cocycles=kernel,
                coboundaries=image,
                representatives=quotient_basis(field, kernel, image),
            )
        )
        image = following
    return spaces


def class_vector(space, table, vec):
    """Coefficients of vec's class over space.representatives; NotACocycle if not one.

    vec is a cochain of the space's degree: a vector carries no degree, so
    the caller answers for that.  Coboundaries and representatives together
    span exactly the cocycles (``kernel_basis`` asserts rank + nullity,
    ``quotient_basis`` that the image lies in the kernel), so the solve
    itself is the cocycle test.  The solver starts from the coboundary rows
    and tracks coefficients over the representatives only.
    """
    field = table.algebra.field
    if space._solver is None:
        solver = RowBasis(field, track=True, seed=space.coboundaries)
        for i, v in enumerate(space.representatives):
            added, _ = solver.insert(v, i)
            assert added
        space._solver = solver
    sol = space._solver.express(vec)
    if sol is None:
        raise NotACocycle("not killed by the differential: %s" % display_vector(table.algebra, space.pairs, vec, {}))
    is_zero = field.is_zero
    return {i: c for i, c in sol.items() if not is_zero(c)}


def check_partial_squared(table, max_degree):
    """δ^{m+1} kills each column of δ^m, m = 0..max_degree.

    The first battery row that reads δ^0, and no row applies δ^0 to a
    vector before ``cup-closure``: so this one stores the vertices'
    columns, which ``differential-routes``, ``cohomology`` and
    ``cup-closure`` then read.
    """
    cached = table.memo(_DELTA)
    offsets, _ = _offsets(table, 1)
    for vertex in table.degree(-1):
        if vertex not in cached:
            cached[vertex] = _columns(table, vertex, offsets)
    for m in range(0, max_degree + 1):
        for j, col in enumerate(_delta_columns(table, m)):
            assert not cochain_differential(table, m + 1, col), "partial^2 != 0 at %s" % display_vector(
                table.algebra, pair_basis(table, m), {j: 1}, {}
            )


def check_differential_routes_agree(table, max_degree):
    """The direct δ^m and ``differential_via_resolution`` agree column by column."""
    for m in range(0, max_degree + 1):
        via = differential_via_resolution(table, m).cols
        for j, col in enumerate(_delta_columns(table, m)):
            assert col == via[j], "differential routes disagree at %s" % display_vector(
                table.algebra, pair_basis(table, m), {j: 1}, {}
            )
