"""Hochschild cochains on parallel pairs, their differentials, and cohomology.

A degree-m cochain assigns scalars to pairs (p, b) with p an ambiguity of
degree m-1 and b a parallel basis path.  The differential of a pair reads the
cofaces of its ambiguity from the table's incidence index (truncations in
even output degree, positioned divisors in odd), mirroring the resolution
differential; `differential_via_resolution` computes the same map, one
degree at a time, by composing with the resolution's d and is kept as an
independent route.

The pairs of degree m run ambiguity by ambiguity, each ambiguity's block
in the order of its ``parallel`` tuple, so a pair's index is its
ambiguity's offset plus b's position in that tuple.  The table caches each
degree's offsets and, where a space needs them, its pairs.
"""

from dataclasses import dataclass, field as dc_field

from .combination import Combination
from .errors import NotACocycle, WrongDegree
from .linalg import RowBasis, SparseMatrix, kernel_basis, quotient_basis
from .resolution import differential, generator


def _pair_key(pair):
    return (pair[0].path.sort_key(), pair[1].sort_key())


def pair_basis(table, degree):
    """Ordered (ambiguity, parallel basis path) pairs spanning degree-m cochains.

    Γ_{m-1} and every ``algebra.parallel`` tuple are sorted by path, so the
    nested loop already yields the pairs in ``_pair_key`` order.  A tuple,
    built once per degree and cached on the table.
    """
    assert degree >= 0
    pairs = table._pairs.get(degree)
    if pairs is None:
        parallel = table.algebra.parallel
        pairs = table._pairs[degree] = tuple(
            (amb, b) for amb in table.degree(degree - 1) for b in parallel[(amb.path.source, amb.path.target)]
        )
    return pairs


def _offsets(table, degree):
    """({ambiguity of degree m-1: index of its first pair}, number of pairs) for degree m.

    Reads only Γ_{m-1} and the ``parallel`` counts, never the pairs
    themselves; cached on the table.
    """
    out = table._offsets.get(degree)
    if out is None:
        parallel = table.algebra.parallel
        offsets = {}
        n = 0
        for amb in table.degree(degree - 1):
            offsets[amb] = n
            n += len(parallel[(amb.path.source, amb.path.target)])
        out = table._offsets[degree] = (offsets, n)
    return out


def new_cochain(table, degree, terms=None):
    """A degree-m cochain: field scalars on pairs (ambiguity of degree m-1, parallel basis path)."""
    alg = table.algebra
    check = table._cochain_check
    if check is None:  # built once per table: cochains are made by the hundred thousand

        def check(key, degree):
            amb, b = key
            assert amb.degree == degree - 1
            assert amb.path.source == b.source and amb.path.target == b.target
            assert alg.is_basis(b)

        table._cochain_check = check
    return Combination(alg.field, check, degree, terms)


def _display_terms(terms, words):
    """``coeff [ambiguity || path]`` per (pair, coeff) of terms, in their order;
    ``words`` caches the written word of each ambiguity and basis path met."""
    bits = []
    for (amb, b), c in terms:
        amb_word = words.get(amb)
        if amb_word is None:
            amb_word = words[amb] = amb.path.word()
        b_word = words.get(b)
        if b_word is None:
            b_word = words[b] = b.word()
        bits.append("%s [%s || %s]" % (c, amb_word, b_word))
    return " + ".join(bits) if bits else "0"


def display_cochain(x):
    """The text ``hh`` prints: ``coeff [ambiguity || path]`` terms in pair order."""
    return _display_terms(sorted(x.terms.items(), key=lambda kv: _pair_key(kv[0])), {})


def display_vector(pairs, vec, words):
    """``display_cochain`` of Σ vec[i]·pairs[i], pairs in pair order; ``words`` kept across calls."""
    return _display_terms(((pairs[i], c) for i, c in sorted(vec.items())), words)


def pair_cochain(table, amb, b):
    return new_cochain(table, amb.degree + 1, {(amb, b): table.algebra.field.one})


def _faces(table, amb):
    """[(q, pre, post, sign)] over the cofaces q of amb: the one formula for δ.

    With amb at position k of q, pre = q[:k] and post = q[k+len(amb):] are
    arrow words, and δ(amb, b) = Σ sign · (q, pre·b·post) over the products
    that are nonzero in A.  pre·b·post is never the empty word: q strictly
    contains amb.  The words depend only on amb, not on b.
    """
    length = len(amb.path)
    return [
        (q, q.path.arrows[:k], q.path.arrows[k + length :], sign)
        for q, k, sign in table.cofaces(amb.degree + 1).get(amb, ())
    ]


def _pair_differential_terms(table, amb, b):
    """Direct evaluation of the differential of the basis pair (amb, b): {(q, value): n}."""
    by_word = table.algebra.by_word
    ba = b.arrows
    out = {}
    for q, pre, post, sign in _faces(table, amb):
        value = by_word.get(pre + ba + post)
        if value is not None:
            key = (q, value)
            out[key] = out.get(key, 0) + sign
    return {k: c for k, c in out.items() if c}


def cochain_differential(table, x):
    field = table.algebra.field
    out = new_cochain(table, x.degree + 1)
    for (amb, b), c in x.terms.items():
        for key, n in _pair_differential_terms(table, amb, b).items():
            out.add(key, field.mul(c, n))
    return out


def differential_via_resolution(table, m):
    """The degree-m differential as Hom(d, A), independent of the direct formula.

    Returns {pair: {(q, value): n}} over the degree-m pairs, in integers:
    each term n·(pre, r, post) of the resolution differential of q in Γ_m
    sends every pair (r, b) to n·(q, pre·b·post) when that product is
    nonzero.  Each generator's differential is computed once.
    """
    alg = table.algebra
    out = {pair: {} for pair in pair_basis(table, m)}
    for q in table.degree(m):
        for (pre, r, post), n in differential(table, generator(q)).terms.items():
            for b in alg.parallel[(r.path.source, r.path.target)]:
                value = alg.reduce_concat(pre, b, post)
                if value is not None:
                    terms = out[(r, b)]
                    terms[(q, value)] = terms.get((q, value), 0) + n
    return {pair: {key: n for key, n in terms.items() if n} for pair, terms in out.items()}


def differential_matrix(table, m):
    """Columns: degree-m pairs; rows: degree-(m+1) pairs; integer entries, for every field.

    Assembled ambiguity by ambiguity: each one's faces are read once, with
    the row offset of each coface, and then serve every parallel b.  The
    row of (q, value) is q's offset plus value's position in its
    ``parallel`` tuple.
    """
    alg = table.algebra
    parallel, position = alg.parallel, alg.position
    offsets, nrows = _offsets(table, m + 1)
    cols = []
    for amb in table.degree(m - 1):
        faces = [(offsets[q], pre, post, sign) for q, pre, post, sign in _faces(table, amb)]
        for b in parallel[(amb.path.source, amb.path.target)]:
            ba = b.arrows
            col = {}
            for offset, pre, post, sign in faces:
                i = position.get(pre + ba + post)
                if i is not None:
                    i += offset
                    col[i] = col.get(i, 0) + sign
            cols.append({i: n for i, n in col.items() if n})
    return SparseMatrix(nrows, len(cols), tuple(cols))


@dataclass
class CohomologySpace:
    """HH^m: ``cocycles`` are the kernel vectors of δ^m, ``coboundaries`` the
    echelon rows of im δ^{m-1}, both over ``pairs``."""

    degree: int
    pairs: tuple
    cocycles: list
    coboundaries: list
    representatives: list
    dimension: int
    _solver: object = dc_field(default=None, repr=False, compare=False)

    def rep_cochains(self, table):
        return [vector_to_cochain(table, self.degree, self.pairs, v) for v in self.representatives]


def vector_to_cochain(table, degree, pairs, vec):
    out = new_cochain(table, degree)
    for i, c in vec.items():
        out.add(pairs[i], c)
    return out


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
        reps = quotient_basis(field, kernel, image)
        spaces.append(
            CohomologySpace(
                degree=m,
                pairs=pair_basis(table, m),
                cocycles=kernel,
                coboundaries=image,
                representatives=reps,
                dimension=len(reps),
            )
        )
        image = following
    return spaces


def is_cocycle(table, x):
    return cochain_differential(table, x).is_zero()


def class_vector(space, table, x):
    """Coefficients of x's class over space.representatives; NotACocycle if not one.

    Coboundaries and representatives together span exactly the cocycles
    (``kernel_basis`` asserts rank + nullity, ``quotient_basis`` that the
    image lies in the kernel), so the solve itself is the cocycle test.
    The solver starts from the coboundary rows and tracks coefficients over
    the representatives only.
    """
    if x.degree != space.degree:
        raise WrongDegree("cochain degree %d vs space degree %d" % (x.degree, space.degree))
    alg = table.algebra
    if space._solver is None:
        solver = RowBasis(alg.field, track=True, seed=space.coboundaries)
        for i, v in enumerate(space.representatives):
            added, _ = solver.insert(v, i)
            assert added
        space._solver = solver
    offsets, _ = _offsets(table, space.degree)
    position = alg.position
    # a trivial b is first in its parallel tuple
    vec = {offsets[amb] + (position[b.arrows] if b.arrows else 0): c for (amb, b), c in x.terms.items()}
    sol = space._solver.express(vec)
    if sol is None:
        raise NotACocycle("not killed by the differential: %s" % display_cochain(x))
    is_zero = alg.field.is_zero
    return {i: c for i, c in sol.items() if not is_zero(c)}


def check_partial_squared(table, max_degree):
    for m in range(0, max_degree + 1):
        for amb, b in pair_basis(table, m):
            x = pair_cochain(table, amb, b)
            dd = cochain_differential(table, cochain_differential(table, x))
            assert dd.is_zero(), "partial^2 != 0 at %s" % display_cochain(x)


def check_differential_routes_agree(table, max_degree):
    for m in range(0, max_degree + 1):
        for (amb, b), terms in differential_via_resolution(table, m).items():
            assert _pair_differential_terms(table, amb, b) == terms, (
                "differential routes disagree at %s" % display_cochain(pair_cochain(table, amb, b))
            )
