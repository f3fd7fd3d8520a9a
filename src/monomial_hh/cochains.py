"""Hochschild cochains on parallel pairs, their differentials, and cohomology.

A degree-m cochain assigns scalars to pairs (p, b) with p an ambiguity of
degree m-1 and b a parallel basis path.  The differential of a pair reads the
cofaces of its ambiguity from the table's incidence index (truncations in
even output degree, positioned divisors in odd), mirroring the resolution
differential; `differential_via_resolution` computes the same map, one
degree at a time, by composing with the resolution's d and is kept as an
independent route.
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
    nested loop already yields the pairs in ``_pair_key`` order.
    """
    assert degree >= 0
    parallel = table.algebra.parallel
    return [(amb, b) for amb in table.degree(degree - 1) for b in parallel[(amb.path.source, amb.path.target)]]


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


def display_cochain(x):
    """The text ``hh`` prints: ``coeff [ambiguity || path]`` terms in pair order."""
    if not x.terms:
        return "0"
    bits = []
    for (amb, b), c in sorted(x.terms.items(), key=lambda kv: _pair_key(kv[0])):
        bits.append("%s [%s || %s]" % (c, amb.path.word() or amb.path.display(), b.word() or b.display()))
    return " + ".join(bits)


def pair_cochain(table, amb, b):
    return new_cochain(table, amb.degree + 1, {(amb, b): table.algebra.field.one})


def _pair_differential_terms(table, amb, b):
    """Direct evaluation of the differential of the basis pair (amb, b).

    Each coface q of amb, with amb at position k, contributes
    sign · (q, q[:k]·b·q[k+len(amb):]) when that product is nonzero.
    """
    by_word = table.algebra.by_word
    length = len(amb.path)
    out = {}
    for q, k, sign in table.cofaces(amb.degree + 1).get(amb, ()):
        # never the empty word: q strictly contains amb
        qa = q.path.arrows
        value = by_word.get(qa[:k] + b.arrows + qa[k + length :])
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
    """Columns: degree-m pairs; rows: degree-(m+1) pairs; integer entries, for every field."""
    cols_pairs = pair_basis(table, m)
    rows_pairs = pair_basis(table, m + 1)
    row_index = {pair: i for i, pair in enumerate(rows_pairs)}
    cols = tuple(
        {row_index[key]: n for key, n in _pair_differential_terms(table, amb, b).items()}
        for amb, b in cols_pairs
    )
    return SparseMatrix(len(rows_pairs), len(cols_pairs), cols)


@dataclass
class CohomologySpace:
    degree: int
    pairs: tuple
    cocycles: list
    coboundaries: list
    representatives: list
    dimension: int
    _solver: object = dc_field(default=None, repr=False, compare=False)
    _index: object = dc_field(default=None, repr=False, compare=False)

    def rep_cochains(self, table):
        return [vector_to_cochain(table, self.degree, self.pairs, v) for v in self.representatives]


def vector_to_cochain(table, degree, pairs, vec):
    out = new_cochain(table, degree)
    for i, c in vec.items():
        out.add(pairs[i], c)
    return out


def hochschild_cohomology(table, max_degree):
    """CohomologySpace per degree 0..max_degree, with canonical representatives."""
    assert max_degree >= 0
    field = table.algebra.field
    mats = [differential_matrix(table, m) for m in range(max_degree + 1)]
    spaces = []
    image = []
    for m in range(max_degree + 1):
        kernel = kernel_basis(field, mats[m])
        reps = quotient_basis(field, kernel, image)
        spaces.append(
            CohomologySpace(
                degree=m,
                pairs=tuple(pair_basis(table, m)),
                cocycles=kernel,
                coboundaries=image,
                representatives=reps,
                dimension=len(reps),
            )
        )
        # d_m's image is spanned by its pivot columns: column j is dependent
        # exactly when it is the largest index of some kernel vector
        dependent = {max(v) for v in kernel}
        image = [col for j, col in enumerate(mats[m].cols) if j not in dependent]
    return spaces


def is_cocycle(table, x):
    return cochain_differential(table, x).is_zero()


def class_vector(space, table, x):
    """Coefficients of x's class over space.representatives; NotACocycle if not one.

    Coboundaries and representatives together span exactly the cocycles
    (``kernel_basis`` asserts rank + nullity, ``quotient_basis`` that the
    image lies in the kernel), so the solve itself is the cocycle test.
    """
    if x.degree != space.degree:
        raise WrongDegree("cochain degree %d vs space degree %d" % (x.degree, space.degree))
    field = table.algebra.field
    if space._solver is None:
        solver = RowBasis(field, track=True)
        for i, v in enumerate(space.coboundaries):
            added, _ = solver.insert(v, ("b", i))
            assert added
        for i, v in enumerate(space.representatives):
            added, _ = solver.insert(v, ("r", i))
            assert added
        space._solver = solver
        space._index = {pair: i for i, pair in enumerate(space.pairs)}
    sol = space._solver.express({space._index[key]: c for key, c in x.terms.items()})
    if sol is None:
        raise NotACocycle("not killed by the differential: %s" % display_cochain(x))
    out = {}
    for (kind, i), c in sol.items():
        if kind == "r" and not field.is_zero(c):
            out[i] = c
    return out


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
